"""Test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the traced layers account for the traced wall time, and that a wrong
expected value makes the checks fail, so ``error_rate`` can rise.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

assert run.prepare(), "the benchmark needs the package source under src/"

import slitgaps.geometry  # noqa: E402
import slitgaps.oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)

# one wrong expected value per workload, each fed to a different check
WRONG = {
    "oracle-batch": {"discrepant_p": 0.5},
    "orbit-chain": {"slope_offset": 1},
    "tail-law": {"tail_mass": 2.0 * workloads.W_TOTAL_MASS},
}


@pytest.fixture(scope="module")
def setup():
    return run.measure_setup(1)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted(name, setup):
    rec = run.run_workload(name, 7, 0, False, smoke=True, setup=setup)
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] >= 1
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == _units("end_to_end")
    for m in rec["metrics"].values():
        assert math.isfinite(m["value"]) and m["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_emitted(name):
    rec = run.run_workload(name, 7, 0, True, smoke=True)
    assert rec["correct"]
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == _units("per_layer")
    m = {k: v["value"] for k, v in rec["metrics"].items()}
    assert all(math.isfinite(v) for v in m.values())
    assert 0.9 <= m["trace.self_coverage"] <= 1.0 + 1e-9
    if name == "tail-law":
        assert m["oracle.returns"] == 0 and m["geometry.scan_calls"] == 0
        assert m["closedform.tail_evals"] > 0 and m["measures.draws"] > 0
    else:
        assert m["closedform.tail_evals"] == 0 and m["closedform.quad_calls"] == 0
        assert m["oracle.returns"] > 0 and m["geometry.scan_calls"] > 0
    # every probe is taken out again
    assert slitgaps.oracle.enumerate_strip is slitgaps.geometry.enumerate_strip


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expectation_raises_error_rate(name, setup):
    expect = dict(workloads.EXPECT, **WRONG[name])
    rec = run.run_workload(name, 7, 0, False, smoke=True, expect=expect, setup=setup)
    assert rec["failed"] > 0 and rec["error_rate"] > 0 and not rec["correct"]


def test_result_line(tmp_path):
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "orbit-chain",
         "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tail-law", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
