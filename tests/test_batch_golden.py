"""Golden digests of the sampled-batch commands: the sha256 of the JSON
report of ``difftest`` for every region and mode (and WslRho on the
restricted marking domain), and of ``mc-tail --format json`` for every
measure and engine, each without its ``versions`` block.

They were recorded while the samplers, ``mc-tail`` and ``difftest`` still
kept their own nested column layouts, so any change to a sampled value, to
the row order of a batch or to a formula or oracle return shows up here.
"""

import hashlib
import json

import pytest

from slitgaps.cli import main

DIFFTEST = {
    ("DeltaR", "affine", "fundamental"): "1fdec4ccbe7ad2b673f78ec595452e21888951f1b6683c6ca48c3e1d2386ef63",
    ("DeltaR", "doubled", "fundamental"): "c4121ed0c12160e93ac4be4e308777cab86a3bae9575ca7ec92dd6c45600ef13",
    ("OmegaR", "affine", "fundamental"): "4cde51cc3dbfd30ba570ff6b116168b4696f5a9ac0199b94dc8686f62f14fa4d",
    ("OmegaR", "doubled", "fundamental"): "5808b2efed8426f5620ff4b0d7629ea920aa99016831f2f828976347312ab646",
    ("WslRho", "affine", "fundamental"): "d9f799f14ac5dbb9e2e3163710af1b04eb930abadbba88441cf94cf84cc33f6e",
    ("WslRho", "doubled", "fundamental"): "a149475bb5acffb579002d840dd5d552c20bc3da8e0dc655f868ed93414d6856",
    ("WReturn", "affine", "fundamental"): "d6861a96fd39fe5278ea9a871fcd6f92f34e45e52625aa737b3321d358ac5ab7",
    ("WReturn", "doubled", "fundamental"): "ea3a45db2a0c3b93139cb11adcd827177af9b9bb611b9aa4ccd235cda3d9d521",
    ("WslRho", "affine", "restricted"): "44038fef8b5be28814ae4269cf4ba185bb26ee519932dd3bb8e8f9543ff3a443",
}
MC_TAIL = {
    ("haar-omega", "formula"): "3e9283d4a86aac8cc998a1548b9e92de26dc65887637ebf20d22ed7686ef5430",
    ("haar-omega", "oracle-affine"): "72144a6037d9d681fbf172cec76b98890ef182e327e7a50ca9d126f651af7229",
    ("haar-omega", "oracle-doubled"): "c78f02e9259e09499b4711348f9c60579e8fac872cee5f74444b569a0cf4e4e4",
    ("haar-w", "formula"): "148071e377b2930e43e5944b8d6783a1c9b2e02764c69cc80392a1ce91cf3cf6",
    ("haar-w", "oracle-affine"): "14b10bf5d0e7b17226e70ee7aa7aa556d429d46742dea542c4fb4ddf59555378",
    ("haar-w", "oracle-doubled"): "705e39f001271803aba2b3e841b53d6f030096785502599b554d694b3bc7a6ae",
    ("torsion:3", "formula"): "00b15a28b16439a6d8ff66e942d9b634d8472336d751e036be2c13312fba382a",
    ("torsion:3", "oracle-affine"): "288d4e05f22caed6e29d892e8565296e076831a3c8fa36185ed08eb08e789455",
    ("torsion:3", "oracle-doubled"): "78006cf2595fb370dbb56f87060b69a90b70ab17fafa5069954bac9a0f9761a6",
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
