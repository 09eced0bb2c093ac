"""Golden digests of the sampled-batch commands: the sha256 of the JSON
report of ``difftest`` for every region and mode (and WslRho on the
restricted marking domain), and of ``mc-tail --format json`` for every
measure and engine, each without its ``versions`` block; and the sha256 of
the ``closed-form`` CSV tables on the benchmark's grids.

They pin the sample layout of ``measures.chunk_streams`` (chunk k drawn from
default_rng([seed, k])), so any change to a sampled value, to the row order
of a batch or to a formula or oracle return shows up here.  Every report
but WslRho's equals the one drawn before that layout with ``--workers 1``,
the recorded ``workers`` aside.
"""

import hashlib
import json

import pytest

from slitgaps.cli import main

DIFFTEST = {
    ("DeltaR", "affine", "fundamental"): "55460d5ea2d7d9da74480a976e5f1b446aca7d8381c7faf6927c39d86c8f23ca",
    ("DeltaR", "doubled", "fundamental"): "fc18a53d80d50b851b5572958c5912a4706517c05a6565cd41228363cb16e84f",
    ("OmegaR", "affine", "fundamental"): "0a84f836013fb9b6376e0ca61b1005a781ef595289b67815715d4e29ef514f4d",
    ("OmegaR", "doubled", "fundamental"): "4002654e16bf86d02c70f6f16df84de62b4ff9b9733af9caea0228f29ed29d2a",
    ("WslRho", "affine", "fundamental"): "4ad046591eaedfc7e609fc289bf04f265c2be01ba6ab817a64a1b3e6924ea72f",
    ("WslRho", "doubled", "fundamental"): "dfa013c675e93f5bddfd890acd25fd36f8422f14de22a60ccb6efe2cffdee297",
    ("WReturn", "affine", "fundamental"): "9820f62d7d6d3e7584f3036441fdb326fa259c03bb479ae95ab0c13e449dccb7",
    ("WReturn", "doubled", "fundamental"): "ea831b7e790bb6445d950ca327c93d539aca0fb78fb25873f7c8163c33ded5d6",
    ("WslRho", "affine", "restricted"): "3296fdfccb98f451026a6e890edd02b8352600ab155ba44d5c5ad9a4a0282773",
}
MC_TAIL = {
    ("haar-omega", "formula"): "c22dfdbfc3eb33894cb8b000854bf7e58b98ee0abbb99517e6f3182575a81199",
    ("haar-omega", "oracle-affine"): "c88a70cb914f3bac7c9bf0abc90c673cd6b4bc55dd7b1579cd7457dd3a72e393",
    ("haar-omega", "oracle-doubled"): "b4ff510cc8e2ac2bd2630b211d93d68003cfb2cef25a6c908337f5d3ea48d71b",
    ("haar-w", "formula"): "e9d2de59c640c565078f44dc7d384c2101bc3ed0824546fa22c07b9ad6ab99c5",
    ("haar-w", "oracle-affine"): "3c6e08378baf79142cbfff8eb1bd50c8f828b3c9c95f003f26bef5df847c8059",
    ("haar-w", "oracle-doubled"): "c8d741be0853a04fec1a00eb00914fe012bb8b882390ce4dd2a9f11a5d7970cc",
    ("torsion:3", "formula"): "3e87ce7e0cb3d70ae52bfa544b7b825286ac14163bfd4268b2c00a48dd38f546",
    ("torsion:3", "oracle-affine"): "123ec39800cc3cbce2da87cc19bf7bb78dd613306e2af8771dc96c8d8f9c820a",
    ("torsion:3", "oracle-doubled"): "20cd8e93f473c5538550e856e1c8d278481a6f1658caa9f970ce446d8d28c97a",
    ("periodic-omega:0.7,0.4", "formula"): "f523e4c0c8136ce1d4ae7996b7c2677c58295fee5e041a34f398d894cadd121d",
    ("periodic-omega:0.7,0.4", "oracle-affine"): "032da4c12b993a7bfa7aea718f6ee92d402ba330c786a11488b2f984c34704b3",
    ("periodic-omega:0.7,0.4", "oracle-doubled"): "9bd29493289f62267353d5433ae0ef0a3852a0a7c1eaec40265efed44ce0da18",
    ("periodic-point", "formula"): "56acaeb5be39ecd25e5aa0e913421918dc4d61c570bc93ba84d71499b4f1c781",
    ("periodic-point", "oracle-affine"): "c57c120d379a97fe9f0f082d180f735e4c0cec07db69877562f4a27681713693",
    ("periodic-point", "oracle-doubled"): "7c91fdce4d72fd1a7ebf3dc5e80a7b2274d2dc2456e05488a2954a85a172c99c",
}
# 300000 samples: a full chunk of several blocks (``measures.BLOCK``), haar-w's
# sl rows among them, and a partial chunk.  The haar entries were recorded
# before the chunks were drawn in blocks, the torsion and periodic-omega ones
# before blocks of unit weights were binned by counts.
MC_TAIL_BLOCKS = {
    ("haar-omega", "formula"): "ed042011ed16bca6ddb2a5b8c378d651c8ce1978d24ebe5617f98a3937c4d586",
    ("haar-omega", "oracle-affine"): "9067a4135790b08b738834d23d12e7b5fd52d1d6dcdb4fcee510de374936d95d",
    ("haar-w", "formula"): "05d38fecfd3f3b1672bacc2b618dd3eda268d8770a2b4f86f4e2dce82f36e489",
    ("haar-w", "oracle-affine"): "a26e0a8d08e52536be5eb33b984edea053c412215b68af300a198750a98cafbf",
    ("torsion:3", "formula"): "bb73f31bd1dfda8cc86d4a6aa9226f475ba80413e7bc6188e262032ec86cc23d",
    ("periodic-omega:0.7,0.4", "formula"): "d1026674426307e88cba76019848ac1ad7542961b99e04372d6e2295e0337120",
}
# ``closed-form`` stdout on the grids of the benchmark's tail-law commands,
# recorded before the quadrature's integrands computed their caps inline; the
# density row was recorded again when the density became the integral of the
# tail slices' t-rates, after its table matched a Richardson difference of the
# quadrature tail to 1e-7 relative on every row (one-sided at 1, 2 and 4; at 4
# from the left only: past 4 the density moves like the square root of t - 4)
CLOSED_FORM = {
    ("tail", "0:16:0.5"): "75be7ec2804b9123d2692e70630fb044b7fbb5aa23df5f223b58b39b41a1dead",
    ("bounds", "16:128:8"): "f63918b3492c2302dfacd9680314ef07f98b832a4641d7a0dc5ca6d55031f34c",
    ("torsion:2", "8:64:4"): "ae873821631e7d50e401395a3c09879b7df26ca2410d47fd08943e025bd387b1",
    ("density", "0.5:16:0.5"): "859bcc7c43d36d62ccd6c211178107df7b7a68c88008e7ebf56bb334fb22431c",
    ("cdf", "0:16:0.5"): "fe9402d8398c30b0fc484d7375547a390d1768984d481741849655ecf7733c05",
}

GRID = "0.25,1,3,8"


def _digest(argv, capsys) -> str:
    main(argv)
    payload = json.loads(capsys.readouterr().out)
    del payload["versions"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("region, mode, v_domain", sorted(DIFFTEST))
def test_difftest_report_matches_its_golden_digest(region, mode, v_domain, capsys):
    argv = ["difftest", region, "--samples", "1500", "--seed", "11", "--workers", "2",
            "--mode", mode, "--v-domain", v_domain]
    assert _digest(argv, capsys) == DIFFTEST[region, mode, v_domain]


@pytest.mark.parametrize("measure, engine", sorted(MC_TAIL))
def test_mc_tail_report_matches_its_golden_digest(measure, engine, capsys):
    argv = ["mc-tail", "--measure", measure, "--engine", engine, "--t-grid", GRID,
            "--samples", "3000", "--seed", "5", "--workers", "2", "--format", "json"]
    assert _digest(argv, capsys) == MC_TAIL[measure, engine]


@pytest.mark.parametrize("measure, engine", sorted(MC_TAIL_BLOCKS))
def test_a_multi_block_mc_tail_report_matches_its_golden_digest(measure, engine, capsys):
    argv = ["mc-tail", "--measure", measure, "--engine", engine, "--t-grid", GRID,
            "--samples", "300000", "--seed", "5", "--workers", "2", "--format", "json"]
    assert _digest(argv, capsys) == MC_TAIL_BLOCKS[measure, engine]


@pytest.mark.parametrize("component, grid", sorted(CLOSED_FORM))
def test_a_closed_form_table_matches_its_golden_digest(component, grid, capsys):
    assert main(["closed-form", "--component", component, "--t-grid", grid]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == CLOSED_FORM[component, grid]
