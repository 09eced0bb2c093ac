"""Import boundary: only ``closed-form`` loads scipy's quadrature, and a
command that writes CSV to stdout loads no scipy at all.

The test starts a fresh interpreter, since the test process itself has long
since imported ``slitgaps.closedform`` and scipy's submodules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import slitgaps

SRC = str(Path(slitgaps.__file__).resolve().parents[1])
QUADRATURE_MODULES = ("scipy.integrate", "scipy.special", "slitgaps.closedform")

CHILD = """
import json, sys
from slitgaps.cli import main

def loaded():
    return {m: m in sys.modules for m in %(modules)r}

# a CSV on stdout has no JSON report, so nothing records scipy's version
csv_codes = [main(["orbit", "--start", "0.5,0.6,2.0,0.9", "--engine", "formula", "--iters", "5"])]
csv_scipy = "scipy" in sys.modules
runs = [
    ["orbit", "--start", "0.5,0.6,2.0,0.9", "--engine", "formula", "--iters", "5", "--out", "formula.csv"],
    ["orbit", "--start", "0.5,0.6,2.0,0.9", "--engine", "oracle-affine", "--iters", "5", "--out", "oracle.csv"],
    ["gaps", "--omega", "1,1,0,0.5", "--slope-max", "10", "--out", "gaps.csv"],
    ["difftest", "OmegaR", "--samples", "200", "--seed", "1", "--out", "difftest.json"],
    ["mc-tail", "--measure", "haar-omega", "--t-grid", "1:2:1", "--samples", "1000", "--out", "tail.csv"],
]
codes = [main(argv) for argv in runs]
before = loaded()
versions = [json.load(open(p))["versions"]["scipy"] for p in ("difftest.json", "tail.csv.json")]
codes.append(main(["closed-form", "--component", "tail", "--t-grid", "1", "--out", "closed.csv"]))
import scipy
print(json.dumps({"codes": codes, "before": before, "after": loaded(), "csv_codes": csv_codes,
                  "csv_scipy": csv_scipy, "versions": versions, "scipy": scipy.__version__}))
""" % {"modules": QUADRATURE_MODULES}


def test_only_closed_form_loads_the_quadrature(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    # difftest exits 4 on the OmegaR discrepancies the verbatim formula
    # leaves; its report is written either way
    assert seen["codes"][:3] + seen["codes"][4:] == [0] * 5 and seen["codes"][3] in (0, 4)
    assert seen["before"] == dict.fromkeys(QUADRATURE_MODULES, False)
    assert seen["after"] == dict.fromkeys(QUADRATURE_MODULES, True)
    assert seen["csv_codes"] == [0] and seen["csv_scipy"] is False
    assert seen["versions"] == [seen["scipy"]] * 2
