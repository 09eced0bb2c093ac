"""Golden digests of the sampled-batch commands: the sha256 of the JSON
report of ``difftest`` for every region and mode (and WslRho on the
restricted marking domain), and of ``mc-tail --format json`` for every
measure and engine, each without its ``versions`` block.

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
