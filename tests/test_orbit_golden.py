"""Golden outputs of ``orbit``: sha256 digests of the CSV and of the
``--format json`` report, under every engine, recorded before the orbit
became columns of arrays; the 5000-step oracle orbits, and the column bytes
of ``oracle_orbit`` on edge starts, recorded before the oracle orbit read
its start surface in one kernel pass.

The JSON digest leaves out the report's ``versions`` block, which names the
installed numpy and scipy rather than anything the orbit computed; the rest
of the report is digested as the command writes it (sorted keys, indent 2).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from slitgaps.cli import main
from slitgaps.geometry import SurfaceMode
from slitgaps.oracle import oracle_orbit
from slitgaps.transversal import OMEGA, VERTICAL, _first_surface, row_columns

STARTS = {
    "s1": "0.5,0.6,2.0,0.9",
    "fixed": "1,1,0,0.5",
    # the start of the benchmark's orbit-chain workload at seed 1
    "p1": "0.8558403872803663,0.732080999270255,0.04227081954827937,0.7847818328370264",
    # the benchmark's haar-omega starts at seeds 2 and 3
    "h2": "0.3668156007258836,0.7539018306505455,2.8892708466595884,0.4449033211021348",
    "h3": "0.7157988362512085,0.3329861304614743,1.4959927891165277,0.8732450202816946",
}

# (start, engine, iters): (CSV digest, JSON digest).  The doubled orbits of
# s1 and p1 write short-lattice (sl) and short-affine (sa) rows, the fixed
# point's doubled orbit sl rows only, and the others omega rows.
GOLDEN = {
    ("s1", "formula", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "5dfe823fb85a7891cff05b71371a5107ea1503fe46e33d5212b7e8687e0dee33",
    ),
    ("s1", "formula", 300): (
        "5879629a32f53790f9a9315fd6a8b768c679fa239723176c64aefbd68a8f11f9",
        "a597193c50851f60fcfdcb93047ae14f251e9d8438a328594dbf19225cb60ec5",
    ),
    ("s1", "oracle-affine", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "323477fe14c8babf91b4842f8c48411b737ab522c60b1222f4e669fb8d520441",
    ),
    ("s1", "oracle-affine", 300): (
        "031604e7ec2dc148caba9d21a0b0db99c96ae3d252b76da2bc3422e11c8a6705",
        "7dcd0a476a0b95debb8aa97616e24c52d0aeec5cf7ac9c7421c1462deebf3c7c",
    ),
    ("s1", "oracle-doubled", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "47446b7e0f959f89f1e73d564014087aaa376d9e09c5a3d45265d6ab4aeb05d8",
    ),
    ("s1", "oracle-doubled", 4): (
        "eeedd621f4f0d968df7b6b0da42738d573fda29f9ebc2f7c1d7eeafc65971b90",
        "9e9e36eebcf04fe9599959ba1da4ed21159c26028877f95e30ad10d2afe01912",
    ),
    ("s1", "oracle-doubled", 300): (
        "a881e0e06e4e15559285b2c51fa5a96c219edf08b8989214c687d50722e82192",
        "492c41c141116b86fb2978b627bcfa1b8383800e33bfe60e99086f1a8578cced",
    ),
    ("fixed", "formula", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "dfe6d1eccfa0de7eb63c958bb790c2ef0ba95ee9946fbc081d86837c288e94f2",
    ),
    ("fixed", "formula", 300): (
        "2cfd1440bce9ad6bd4bfde155d3c0473ce33184e3f16ee5b97bd7c61a5b74ece",
        "8a3d83406c54c42c486979adfb5f203b93922fa3d47c019820dad1ad019585ef",
    ),
    ("fixed", "oracle-affine", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "4ea19b4c75033796dd0e7afc952687c9e4dfae9929e14426e3b74cf2674a3319",
    ),
    ("fixed", "oracle-affine", 300): (
        "2cfd1440bce9ad6bd4bfde155d3c0473ce33184e3f16ee5b97bd7c61a5b74ece",
        "f8f60ba0c68c9a80d10d927ac94b2e0290f6e0ec1bfba15087cbbb428e97fb85",
    ),
    ("fixed", "oracle-doubled", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "7d35a0ce19b87d9ac06fd2c7449855878c5c0491f060532f088ed91254b3fc65",
    ),
    ("fixed", "oracle-doubled", 300): (
        "c0a80f2e688ee55f56e7b522b868870f6d84d1c4723d79d1955c3c217f29cf9f",
        "ba8903612ecf85bedc73d997d28a97ab887e36801b9c7a2ce07e7831366dcdd3",
    ),
    ("p1", "formula", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "fb02feb5b7b1e189bf18a0c5ba132b21ea258407f11d453fe3ad1c03a4fb9a38",
    ),
    ("p1", "formula", 300): (
        "099142e1a21c381844a9227e9ae16750bb0964e7c22e90d47288cc665283f49b",
        "3625cf5dd94e2d78fef65020bd454ba8d59380023d141a78eb4d497d78d04108",
    ),
    ("p1", "oracle-affine", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "b2a22895ebc661b868479789a40514d4f2bf5e731c977cdd26628a2169ab29e8",
    ),
    ("p1", "oracle-affine", 300): (
        "3967d2a8ee21d69cf6dad2055af50a059c7a609204dc296fd13393d6c9899953",
        "8b0fa2cf51654b5a927b11b3204005c25faa2f2379f6d8e4f936fe616fb92133",
    ),
    ("p1", "oracle-doubled", 0): (
        "682cd334a6904a04b93a7377166b1fd6b28a76679bf099cb56f1098e20f029d3",
        "847fc11b73eaf5be811a791a5e3b6ccf62e4c7bc79dae42e7b517fd8706e9b1d",
    ),
    ("p1", "oracle-doubled", 300): (
        "f3967e62a669efe9d4a767d15d6b4f0f81dbf4870097fce6734eb01921d3a2d1",
        "a0a79be7f40041d81c4a9481ff23b8c92e1f48e4c5403e248cf02e8bfd86246b",
    ),
    ("p1", "oracle-affine", 5000): (
        "9c0c893a3949595e227664f77daf4c3c55ed8311355ac52fe0e1c653b3527c05",
        "640e5b3cb56b7fc36d08b2e94dc54a0cc2fdf56cfd5b461390f77e299d6d1357",
    ),
    ("p1", "oracle-doubled", 5000): (
        "077818aaccc0cc685b8b14726fe284f88d82a4558fddfc133e3cc1adb3e21748",
        "2617f6d3dedbc1ce4f62e62d04626908921ce0de8cc31b3fdd81260496e746df",
    ),
    ("h2", "oracle-affine", 5000): (
        "116f58f86ab10783fe528299b8d785382998484b5eee1051fb2e28a271baebd3",
        "e5201e4f78caa236d33d184625121526772c7ff1a5d71e1d21f34ca246770544",
    ),
    ("h2", "oracle-doubled", 5000): (
        "cdad8602fa8820d29ddcc94479052331f4e5718e69fb2e65661143f2ae62f3e6",
        "546e47b8426753a92de0cefa68732a3163754610add93a5adf17fd9d0a81e003",
    ),
    ("h3", "oracle-affine", 5000): (
        "4cc00a7003479a8533588b11222b5e5a7f289acc98ccc232e8244a385650b4cc",
        "e1decdb4d0a1a773ebe81ad5ee7cbd8d9125c408e33dd016d121f7371401dfa3",
    ),
    ("h3", "oracle-doubled", 5000): (
        "7d433d8333b7fe10f4d5e83f9624195ac1f1f9a3ae9e00d3cfe16f1667f1e258",
        "710f6f16b83d45ddb72cea4692471df0395b8488453fe346e1ddca0ce77ee6eb",
    ),
}

P1 = (OMEGA, 0.8558403872803663, 0.732080999270255, 0.04227081954827937, 0.7847818328370264)
TINY_FIRST = (OMEGA, 0.5, 0.6, 8e-11, 0.9)  # first return 1e-10
VL_8 = (VERTICAL, 0.8, math.nan, 0.3, 0.5)
VL_9 = (VERTICAL, 0.9, math.nan, 0.3, 0.2)

# (start, mode, steps): sha256 of the return column, then the kind, a, b,
# s and alpha columns, as bytes
COLUMN_GOLDEN = {
    (VL_8, "affine", 500):
        "2d0141ba3e3a5b66322f316d440cfe66f70d9b1c7a5b8148d6729b0d45f43903",
    (VL_8, "doubled", 500):
        "9ab8bbddc2fa2831b775ef31826e5092c1181befbc5fb40133c7fba186ca1b82",
    (VL_9, "affine", 300):
        "4ed25f66eb20725128e11f40b3f6f135eca7bea80ffa9d95e005648fd8e69016",
    (VL_9, "doubled", 300):
        "8ecaa11d06e6f402992be654bf9cb94e109cc8745b61611a6111d6dc1e46a6d6",
    (TINY_FIRST, "affine", 300):
        "75d3fc50f27844a341b75ab7e7310af2d4a792287515f29ec0409819cd9e56bb",
    (TINY_FIRST, "doubled", 300):
        "ee48d54a5f4054568ca5f153e214f2bb329931f46235e34ac4524e0d3a1d6f94",
    (P1, "affine", 3): "ae297d65bbc9f0954dce6136c283c877176432f6165e1c82bc11dff1420c5e09",
    (P1, "doubled", 8): "20db70178b84d0ea7b453a1d8ab125626bb087581161f06b2e35dc162aac72c3",
}


def _digest(argv, fmt, capsys):
    assert main(argv + ["--format", fmt]) == 0
    text = capsys.readouterr().out
    if fmt == "json":
        report = json.loads(text)
        report.pop("versions")
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("start, engine, iters", sorted(GOLDEN))
def test_orbit_output_matches_its_golden_digest(start, engine, iters, capsys):
    argv = ["orbit", "--start", STARTS[start], "--engine", engine, "--iters", str(iters)]
    assert (_digest(argv, "csv", capsys), _digest(argv, "json", capsys)) == GOLDEN[start, engine, iters]


@pytest.mark.parametrize("start, mode, steps", list(COLUMN_GOLDEN))
def test_oracle_orbit_columns_match_their_golden_digest(start, mode, steps):
    returns, cols = oracle_orbit(_first_surface(row_columns([start])), SurfaceMode(mode), steps)
    h = hashlib.sha256(np.ascontiguousarray(returns).tobytes())
    for c in cols:
        h.update(np.ascontiguousarray(c).tobytes())
    assert h.hexdigest() == COLUMN_GOLDEN[start, mode, steps]
