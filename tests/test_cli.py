"""Command-line interface: parsing, outputs, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy

from slitgaps import cli, closedform, geometry, transversal
from slitgaps.cli import main, parse_t_grid
from slitgaps.errors import (
    DegenerateInputError,
    EstimationError,
    InvalidInputError,
    OutOfRegimeError,
    QuadratureError,
)
from slitgaps.measures import BLOCK

SRC = str(Path(cli.__file__).resolve().parents[1])

SCHEMA = json.loads(
    resources.files("slitgaps").joinpath("report-schema.json").read_text()
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_t_grid_forms():
    assert parse_t_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert parse_t_grid("0:16:0.5") == [0.5 * k for k in range(33)]
    assert parse_t_grid("16:128:8") == [16.0 + 8.0 * k for k in range(15)]
    assert parse_t_grid("0:1:0.1") == [0.1 * k for k in range(10)] + [1.0]
    assert parse_t_grid("5:5:1") == [5.0]
    assert parse_t_grid("1,2.5,4") == [1.0, 2.5, 4.0]
    for bad in ("2:1:0.5", "0:1:0", "0:1:-1", "a,b", ""):
        with pytest.raises(InvalidInputError):
            parse_t_grid(bad)


def test_gaps_from_section_coordinates(tmp_path):
    out = tmp_path / "gaps.csv"
    code = main([
        "gaps", "--omega", "1,1,0,0.5", "--mode", "affine",
        "--slope-max", "10", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["index", "slope", "gap"]
    slopes = [float(r[1]) for r in rows]
    assert slopes == [2.0, 4.0, 6.0, 8.0, 10.0]
    gaps = [r[2] for r in rows]
    assert [float(g) for g in gaps[:-1]] == [2.0, 2.0, 2.0, 2.0]
    assert gaps[-1] == ""


def test_gaps_from_surface_file(tmp_path):
    surf = tmp_path / "id.json"
    surf.write_text(json.dumps({"g": [[1.0, 0.0], [0.0, 1.0]], "v": [0.5, 0.0]}))
    out = tmp_path / "gaps.csv"
    code = main([
        "gaps", "--surface", str(surf), "--mode", "doubled",
        "--slope-max", "3", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [1.0, 2.0, 3.0]
    assert [float(r[2]) for r in rows[:-1]] == [1.0, 1.0]


@pytest.mark.parametrize("mode", ["affine", "doubled"])
def test_gaps_count_prints_the_first_rows_of_a_slope_cap(tmp_path, mode):
    omega = "0.5796212042707392,0.8412591478007849,0.12314842213194542,0.07413065518329631"
    capped, counted = tmp_path / "capped.csv", tmp_path / "counted.csv"
    assert main(["gaps", "--omega", omega, "--mode", mode, "--slope-max", "300", "--out", str(capped)]) == 0
    _, rows = read_csv(capped)
    n = len(rows) // 2
    assert main(["gaps", "--omega", omega, "--mode", mode, "--count", str(n), "--out", str(counted)]) == 0
    _, first = read_csv(counted)
    # the last counted slope has no successor, so its gap cell is empty
    assert first[:-1] == rows[: n - 1]
    assert first[-1] == rows[n - 1][:2] + [""]
    assert main(["gaps", "--omega", omega, "--count", "0"]) == 2


@pytest.mark.parametrize("cap", ["nan", "inf"])
def test_gaps_rejects_non_finite_slope_cap(cap, capsys):
    assert main(["gaps", "--omega", "0.8,0.5,1.0,0.3", "--slope-max", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "slope cap" in captured.err


@pytest.mark.parametrize(
    "g,v",
    [
        ([[math.nan, 0.0], [0.0, 1.0]], [0.5, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [math.nan, 0.0]),
        ([[1.0, math.inf], [0.0, 1.0]], [0.5, 0.0]),
    ],
    ids=["nan-g", "nan-v", "inf-g"],
)
def test_gaps_rejects_non_finite_surface_file(tmp_path, capsys, g, v):
    surf = tmp_path / "bad.json"
    surf.write_text(json.dumps({"g": g, "v": v}))
    assert main(["gaps", "--surface", str(surf), "--mode", "doubled", "--slope-max", "5"]) == 2
    assert "finite" in capsys.readouterr().err


def test_gaps_without_a_return_exits_3(tmp_path, monkeypatch, capsys):
    # no coset point has 0 < x <= 1: the caps run away until the scan is
    # refused, which is a state error, not a usage error
    monkeypatch.setattr(geometry, "SCAN_ROW_LIMIT", 1 << 16)
    surf = tmp_path / "empty.json"
    surf.write_text(json.dumps({"g": [[2.0, 0.0], [0.0, 0.5]], "v": [1.5, 0.0]}))
    assert main(["gaps", "--surface", str(surf), "--count", "5"]) == 3
    assert "no positive-slope holonomy vector" in capsys.readouterr().err


def test_gaps_missing_surface_file(tmp_path):
    code = main(["gaps", "--surface", str(tmp_path / "absent.json"), "--slope-max", "3"])
    assert code == 2


@pytest.mark.parametrize(
    "g, v",
    [
        ([["x", 0], [0, 1]], [0.3, 0.1]),
        ([["1", 0], [0, 1]], [0.3, 0.1]),
        ([[None, 0], [0, 1]], [0.3, 0.1]),
        ([[1, 0], [0, 1]], [True, 0.1]),
        ([[10**400, 0], [0, 1]], [0.3, 0.1]),
    ],
    ids=["string", "numeric-string", "null", "boolean", "huge-integer"],
)
def test_gaps_rejects_a_surface_file_entry_that_is_not_a_number(tmp_path, capsys, g, v):
    surf = tmp_path / "bad.json"
    surf.write_text(json.dumps({"g": g, "v": v}))
    assert main(["gaps", "--surface", str(surf), "--slope-max", "5"]) == 2
    assert capsys.readouterr().err.startswith(f"error: surface file {surf} needs keys g (2x2) and v (2)")


@pytest.mark.parametrize("content", [None, b"seed = \xff\n"], ids=["missing", "not-utf8"])
@pytest.mark.parametrize("flag", ["--config", "--surface"])
def test_an_unreadable_input_file_is_a_usage_error(tmp_path, capsys, flag, content):
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    source = ["--surface", str(path)] if flag == "--surface" else ["--omega", "1,1,0,0.5", "--config", str(path)]
    assert main(["gaps", "--slope-max", "3", *source]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {flag[2:]} file {path}: ")


def test_gaps_needs_exactly_one_source(tmp_path):
    assert main(["gaps", "--slope-max", "3"]) == 2


def test_orbit_fixed_point(tmp_path):
    out = tmp_path / "orbit.csv"
    code = main([
        "orbit", "--start", "1,1,0,0.5", "--iters", "4", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header[:3] == ["step", "return_time", "kind"]
    assert len(rows) == 4
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        assert math.isclose(float(row[1]), 2.0, abs_tol=1e-9)
        assert row[2] == "omega"
        assert [float(x) for x in row[3:]] == [1.0, 1.0, 0.0, 0.5]


def test_orbit_zero_iters_emits_header_only(tmp_path):
    out = tmp_path / "orbit.csv"
    assert main(["orbit", "--start", "1,1,0,0.5", "--iters", "0", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header and rows == []


def test_orbit_off_transversal_is_a_state_error():
    assert main(["orbit", "--start", "0.5,0.4,0,0.5", "--iters", "1"]) == 3


# a start out of range in each field, and the check's message for it
OUT_OF_RANGE = [
    ("0,0.6,0.5,0.5", "a out of range: 0.0"),
    ("nan,0.6,0.5,0.5", "a out of range: nan"),
    ("0.5,0.4,0.5,0.5", "b out of range: 0.4 for a=0.5"),
    ("0.5,nan,0.5,0.5", "b out of range: nan for a=0.5"),
    ("0.5,0.6,4,0.5", "s out of range: 4.0"),
    ("0.5,0.6,-0.1,0.5", "s out of range: -0.1"),
    ("0.5,0.6,2,1.5", "alpha out of range: 1.5"),
    ("0.5,0.6,2,0", "alpha out of range: 0.0"),
    ("2,2,-1,7", "a out of range: 2.0"),
    ("0.5,0.6,-1,7", "s out of range: -1.0"),
    # b = 0 passes 1 - a - COORD_SLACK < b at a = 1, and failed on 1/(a*b)
    ("1,0,0,0.5", "b out of range: 0.0 for a=1.0"),
]


@pytest.mark.parametrize("start, message", OUT_OF_RANGE)
@pytest.mark.parametrize("engine", ["formula", "oracle-doubled"])
def test_an_out_of_range_start_is_a_state_error(capsys, engine, start, message):
    assert main(["orbit", f"--start={start}", "--engine", engine, "--iters", "3"]) == 3
    assert capsys.readouterr() == ("", f"error: start is not on the transversal: {message}\n")


@pytest.mark.parametrize("omega, message", OUT_OF_RANGE)
def test_an_out_of_range_omega_is_a_usage_error(capsys, omega, message):
    assert main(["gaps", f"--omega={omega}", "--slope-max", "10"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_formula_orbit_refuses_a_return_past_the_roll_limit(capsys):
    # alpha = 1e-9 returns after 1e9, one lattice-section crossing per unit
    # of time at (a, b) = (1, 1): refused before rolling, not rolled for an hour
    start = time.perf_counter()
    assert main(["orbit", "--start", "1,1,0,1e-9", "--engine", "formula", "--iters", "1"]) == 3
    assert time.perf_counter() - start < 5.0
    assert f"more than the limit of {geometry.SCAN_ROW_LIMIT}" in capsys.readouterr().err


def test_formula_orbit_skips_the_crossings_of_the_fixed_point(capsys):
    # alpha = 1e-6 returns after 1e6 crossings of the lattice section at its
    # fixed point (a, b) = (1, 1), which took seconds one at a time
    start = time.perf_counter()
    assert main(["orbit", "--start", "1,1,0,1e-6", "--engine", "formula", "--iters", "3"]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == (
        "step,return_time,kind,a,b,s,alpha\n"
        "0,999999.999971,omega,1,1,0,1e-06\n"
        "1,999999.999971,omega,1,1,0.999971244368,1.00000000003e-06\n"
        "2,999999.999971,omega,1,1,0.999942488736,1.00000000003e-06\n"
    )


@pytest.mark.parametrize("engine", ["formula", "oracle-affine", "oracle-doubled"])
def test_orbit_refuses_more_steps_than_it_can_hold(capsys, engine):
    # a formula orbit of 2e5 steps takes seconds and some 16 MB, so 1e8
    # would run for most of an hour: refused before the first step
    start = time.perf_counter()
    iters = geometry.SCAN_ROW_LIMIT + 1
    assert main(["orbit", "--start", "0.5,0.6,0.3,0.9", "--engine", engine, "--iters", str(iters)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: orbit steps must be at most {geometry.SCAN_ROW_LIMIT} (an orbit holds every step), got {iters}\n"
    )


@pytest.mark.parametrize("engine", ["oracle-affine", "oracle-doubled"])
def test_oracle_orbit_zero_iters_and_off_transversal_start(tmp_path, engine):
    out = tmp_path / "orbit.csv"
    argv = ["orbit", "--engine", engine, "--start"]
    assert main(argv + ["0.5,0.6,2.0,0.9", "--iters", "0", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["step", "return_time", "kind", "a", "b", "s", "alpha"] and rows == []
    assert main(argv + ["0.5,0.4,0,0.5", "--iters", "5"]) == 3


def test_log_level_sends_debug_messages_to_stderr(capsys):
    # alpha = a is a region-boundary tie, which classify_omega logs at DEBUG
    argv = ["orbit", "--start", "0.5,0.6,0.5,0.5", "--iters", "2"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main(["--log-level", "DEBUG"] + argv) == 0
    loud = capsys.readouterr()
    assert quiet.err == ""
    assert "classify tie alpha=a" in loud.err
    assert loud.out == quiet.out


def test_log_level_debug_reports_each_oracle_batch(tmp_path, capsys):
    argv = ["difftest", "WReturn", "--samples", "50", "--seed", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert main(["--log-level", "DEBUG"] + argv) == 0
    (line,) = [l for l in capsys.readouterr().err.splitlines() if "slitgaps.oracle" in l]
    assert line.startswith("DEBUG slitgaps.oracle: oracle batch (affine + lattice): 53 surfaces, ")
    assert "re-scanned after round 1, largest cap" in line


def test_log_level_debug_reports_each_mc_tail_call(capsys):
    argv = ["mc-tail", "--measure", "haar-w", "--t-grid", "0.5,1,2", "--samples", "3000",
            "--seed", "2", "--workers", "2", "--format", "json"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    assert main(["--log-level", "DEBUG"] + argv) == 0
    loud = capsys.readouterr()
    assert quiet.err == "" and loud.out == quiet.out
    (line,) = [l for l in loud.err.splitlines() if "slitgaps.measures" in l]
    n_eff = json.loads(quiet.out)["results"]["n_eff"]
    # 3000 rows fit one block, and a haar-w chunk ends another at its sl rows' end
    assert line == ("DEBUG slitgaps.measures: mc_tail haar-w (formula): 3000 rows, 1 chunks of at most "
                    f"2 blocks of {BLOCK} rows, 1 process(es), "
                    f"3 thresholds binned by count, n_eff {n_eff:.6g}")


def test_closed_form_tail_at_zero(tmp_path):
    out = tmp_path / "tail.csv"
    assert main(["closed-form", "--t-grid", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert math.isclose(float(rows[0][1]), 2.144934066848226, abs_tol=1e-6)


def test_closed_form_density_value(tmp_path):
    out = tmp_path / "density.csv"
    code = main([
        "closed-form", "--component", "density", "--t-grid", "0.5", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "density_left", "density_right"]
    assert math.isclose(float(rows[0][1]), 0.875, abs_tol=1e-6)
    assert math.isclose(float(rows[0][2]), 0.875, abs_tol=1e-6)


def test_closed_form_density_far_out_prints_zero_not_minus_zero(capsys):
    # the tail is flat to rounding there, so each difference is zero
    assert main(["closed-form", "--component", "density", "--t-grid", "1e12,1e20,1e308"]) == 0
    assert capsys.readouterr().out == "t,density_left,density_right\n1e+12,0,0\n1e+20,0,0\n1e+308,0,0\n"
    for t in (1e12, 1e20, 1e308):
        assert math.copysign(1.0, closedform.w_density(t)) == 1.0
        assert all(math.copysign(1.0, d) == 1.0 for d in closedform.w_density(t, one_sided=True))


def test_closed_form_density_pair_straddling_kink(tmp_path):
    out = tmp_path / "density.csv"
    code = main([
        "closed-form", "--component", "density",
        "--t-grid", "0.8:1.2:0.1", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    at_kink = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}[1.0]
    # the density itself is continuous across the kink; the pair reports the
    # two one-sided slopes, the left one exactly the linear piece's 7/8
    assert math.isclose(at_kink[0], 0.875, abs_tol=1e-6)
    assert math.isclose(at_kink[1], 0.875, abs_tol=1e-4)


def test_closed_form_torsion_component(tmp_path):
    out = tmp_path / "torsion.csv"
    code = main([
        "closed-form", "--component", "torsion:2", "--t-grid", "16,32", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) > float(rows[1][1]) > 0.0


def test_closed_form_plot_script(tmp_path):
    out = tmp_path / "tail.csv"
    code = main([
        "closed-form", "--t-grid", "0:2:0.5", "--out", str(out), "--plot",
    ])
    assert code == 0
    script = (tmp_path / "tail.csv.gp").read_text()
    assert "plot" in script and "tail.csv" in script


def test_mc_tail_outputs_and_sidecar(tmp_path):
    out = tmp_path / "tail.csv"
    code = main([
        "mc-tail", "--measure", "haar-w", "--engine", "formula",
        "--t-grid", "0:2:0.5", "--samples", "5000", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "survival", "ci_halfwidth", "n_eff"]
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 1.0
    survs = [float(r[1]) for r in rows]
    cis = [float(r[2]) for r in rows]
    for k in range(1, len(survs)):
        assert survs[k] <= survs[k - 1] + 2.0 * (cis[k] + cis[k - 1])

    sidecar = json.loads((tmp_path / "tail.csv.json").read_text())
    jsonschema.validate(sidecar, SCHEMA)
    assert sidecar["config"]["command"] == "mc-tail"
    assert sidecar["config"]["samples"] == 5000
    assert sidecar["versions"]["spec"]
    assert sidecar["versions"]["numpy"] == np.__version__
    assert sidecar["versions"]["scipy"] == scipy.__version__


def test_mc_tail_deterministic_bytes(tmp_path):
    def run(directory):
        directory.mkdir()
        path = directory / "tail.csv"
        assert main([
            "mc-tail", "--measure", "haar-omega", "--engine", "formula",
            "--t-grid", "0,1,2", "--samples", "2000", "--seed", "9",
            "--workers", "2", "--out", str(path),
        ]) == 0
        return path

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()
    # sidecars embed the out path; compare with the paths masked
    mask = lambda p: p.with_suffix(".csv.json").read_text().replace(str(p.parent), "")
    assert mask(a) == mask(b)


def test_mc_tail_bad_grid_and_small_sample(tmp_path):
    base = ["mc-tail", "--measure", "haar-w", "--engine", "formula"]
    assert main(base + ["--t-grid", "2:1:0.5", "--samples", "2000"]) == 2
    assert main(base + ["--t-grid", "0:1:0.5", "--samples", "500"]) == 2
    assert main(base + ["--t-grid", "0:1:0.5", "--samples", "2000", "--workers", "0"]) == 2


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nslope-max = 6\nmode = affine\n")
    out = tmp_path / "gaps.csv"
    code = main([
        "gaps", "--omega", "1,1,0,0.5", "--config", str(cfg),
        "--slope-max", "10", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert max(float(r[1]) for r in rows) == 10.0

    code = main([
        "gaps", "--omega", "1,1,0,0.5", "--config", str(cfg), "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert max(float(r[1]) for r in rows) == 6.0


@pytest.mark.parametrize("argv, line", [
    (["gaps", "--omega", "1,1,0,0.5", "--slope-max", "5"], "mode = foo"),
    (["difftest", "DeltaR", "--samples", "10"], "mode = foo"),
    (["gaps", "--omega", "1,1,0,0.5", "--slope-max", "5"], "format = xml"),
    (["orbit", "--start", "1,1,0,0.5", "--iters", "2"], "format = xml"),
])
def test_config_file_choices_are_checked_like_flags(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad config value for {line.split()[0]}: ")


@pytest.mark.parametrize("value, plotted", [
    ("1", True), ("Yes", True), ("on", True), ("true", True),
    ("0", False), ("no", False), ("OFF", False), ("false", False),
])
def test_config_file_plot_takes_boolean_words(tmp_path, value, plotted):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"plot = {value}\n")
    out = tmp_path / "g.csv"
    argv = ["gaps", "--omega", "1,1,0,0.5", "--slope-max", "2", "--out", str(out)]
    assert main(argv + ["--config", str(cfg)]) == 0
    assert (tmp_path / "g.csv.gp").exists() is plotted


def test_config_file_rejects_a_plot_value_that_is_not_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("plot = maybe\n")
    out = tmp_path / "g.csv"
    argv = ["gaps", "--omega", "1,1,0,0.5", "--slope-max", "2", "--out", str(out)]
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: bad config value for plot: 'maybe'")
    assert not out.exists() and not (tmp_path / "g.csv.gp").exists()


@pytest.mark.parametrize("argv, lines", [
    (["difftest", "OmegaR", "--samples", "100"], ["plot = yes", "iters = 7"]),
    (["gaps", "--omega", "1,1,0,0.5", "--slope-max", "2"], ["seed = 3", "samples = 5"]),
])
def test_config_file_takes_only_the_command_s_own_keys(tmp_path, capsys, argv, lines):
    # a key the command has no flag for is refused, not ignored
    cfg = tmp_path / "run.cfg"
    for line in lines:
        cfg.write_text(line + "\n")
        assert main(argv + ["--out", str(tmp_path / "out"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: unknown config key {line.split()[0]!r}\n"
    assert not (tmp_path / "out").exists()


def test_config_file_region_applies_and_the_argument_wins(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("region = WslRho\nsamples = 200\n")
    out = tmp_path / "report.json"
    assert main(["difftest", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["region"] == report["results"]["region"] == "WslRho"
    assert main(["difftest", "DeltaR", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["region"] == "DeltaR"


def test_mc_tail_rejects_a_malformed_periodic_measure(capsys):
    argv = ["mc-tail", "--measure", "periodic-omega:0.5,abc", "--t-grid", "1", "--samples", "1000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "bad periodic-omega point" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["mc-tail", "--measure", "haar-w", "--t-grid", "1", "--samples", "1000"],
    ["difftest", "OmegaR", "--samples", "100"],
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    # numpy refuses a negative seed deep in the bit generator; it is checked
    # where the streams are made, by flag and by config file alike
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -3\n")
    assert main(argv + ["--seed", "-1"]) == 2
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\nerror: seed must be >= 0, got -3\n"


def test_huge_seed_is_accepted(tmp_path):
    out = tmp_path / "tail.csv"
    argv = ["mc-tail", "--measure", "haar-w", "--t-grid", "1", "--samples", "1000"]
    assert main(argv + ["--seed", "99999999999999999999999999", "--out", str(out)]) == 0


def test_difftest_known_discrepancy_regions_exit_zero(tmp_path):
    out = tmp_path / "wslrho.json"
    code = main([
        "difftest", "WslRho", "--samples", "300", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    pairs = {
        (c["input"].get("a"), c["input"].get("b"),
         c["input"].get("v1"), c["input"].get("v2")): (c["formula"], c["oracle"])
        for c in payload["counterexamples"]
    }
    probe = pairs[(0.6, 0.5, 0.3, 0.5)]
    assert math.isclose(probe[0], 5.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(probe[1], 5.0 / 9.0, rel_tol=1e-12)


def test_difftest_doubled_return_probe(tmp_path):
    out = tmp_path / "wreturn.json"
    code = main([
        "difftest", "WReturn", "--mode", "doubled",
        "--samples", "300", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    sa = [
        (c["formula"], c["oracle"])
        for c in payload["counterexamples"]
        if c["input"].get("kind") == "sa" and c["input"].get("s") == 2.0
    ]
    assert sa
    formula, oracle = sa[0]
    assert math.isclose(formula, 4.0 / 3.0, rel_tol=1e-9)
    assert math.isclose(oracle, 0.75, rel_tol=1e-9)


def test_difftest_clean_region_exit_zero(tmp_path):
    out = tmp_path / "delta.json"
    code = main(["difftest", "DeltaR", "--samples", "500", "--seed", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"]["n_discrepant"] == 0
    assert payload["counterexamples"] == []


def test_difftest_verified_region_reports_regression(tmp_path):
    out = tmp_path / "omega.json"
    code = main(["difftest", "OmegaR", "--samples", "4000", "--seed", "2", "--out", str(out)])
    assert code == 4
    payload = json.loads(out.read_text())
    assert payload["results"]["n_discrepant"] > 0
    assert payload["counterexamples"]


def test_difftest_omega_breaks_discrepancies_down_by_region(tmp_path):
    # the figures the README quotes for OmegaR
    out = tmp_path / "omega.json"
    code = main(["difftest", "OmegaR", "--samples", "100000", "--seed", "2026", "--out", str(out)])
    assert code == 4
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    results = payload["results"]
    assert results["n_discrepant"] == 4163
    assert results["discrepant_by_region"] == {"O1": 0, "O2": 3593, "O3": 0, "O4": 570}
    assert results["discrepant_weight_fraction"] == pytest.approx(0.028, abs=5e-4)


def test_difftest_refuses_more_samples_than_it_can_hold(capsys):
    assert main(["difftest", "OmegaR", "--samples", "100000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"samples must be from 1 to {geometry.SCAN_ROW_LIMIT}" in captured.err


def test_difftest_unknown_region(tmp_path):
    assert main(["difftest", "Nowhere", "--samples", "100"]) == 2
    assert main(["difftest", "--samples", "100"]) == 2


def test_difftest_without_a_region_names_the_choices(capsys):
    assert main(["difftest", "--samples", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: difftest needs a region: one of DeltaR, OmegaR, WslRho, WReturn\n"


def test_orbit_oracle_doubled_writes_short_affine_rows(tmp_path):
    out = tmp_path / "orbit.csv"
    code = main([
        "orbit", "--start", "0.5,0.6,2.0,0.9", "--engine", "oracle-doubled",
        "--iters", "20", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 20
    sa = [r for r in rows if r[2] == "sa"]
    assert sa and all(float(r[3]) > 0.0 for r in sa)


def test_state_errors_exit_3(monkeypatch):
    # OutOfRegimeError and DegenerateInputError subclass InvalidInputError,
    # yet they report an invalid state, not a usage error
    assert main(["closed-form", "--component", "torsion:2", "--t-grid", "1"]) == 3
    for exc in (DegenerateInputError, OutOfRegimeError):
        def fail(q, t, exc=exc):
            raise exc("state")

        monkeypatch.setattr(closedform, "torsion_tail", fail)
        assert main(["closed-form", "--component", "torsion:2", "--t-grid", "16"]) == 3


@pytest.mark.parametrize("grid", ["1e300:1e300:1", "0:1:1e-300", "0:1e308:1e-10", "0:1:1e-7"])
def test_step_grids_too_large_are_refused_before_they_are_built(grid, capsys):
    # a + k*step stops advancing below one ulp of a, so the first grid would
    # never end; the point count is checked before any point is made
    with pytest.raises(InvalidInputError, match=f"more than {cli.T_GRID_LIMIT} points"):
        parse_t_grid(grid)
    assert main(["closed-form", "--component", "tail", "--t-grid", grid]) == 2
    assert capsys.readouterr().out == ""


def test_non_finite_grid_entries_rejected(capsys):
    for bad in ("nan", "1,inf", "-inf,2", "0.5,nan,1"):
        with pytest.raises(InvalidInputError):
            parse_t_grid(bad)
    assert main(["closed-form", "--t-grid", "nan"]) == 2
    assert main(["mc-tail", "--measure", "haar-w", "--t-grid", "nan", "--samples", "1000"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["gaps", "--omega", "1,1,0,0.5", "--slope-max", "10"],
    ["orbit", "--start", "1,1,0,0.5", "--iters", "3"],
    ["mc-tail", "--measure", "haar-w", "--t-grid", "0:2:0.5", "--samples", "2000"],
    ["closed-form", "--t-grid", "0:2:0.5"],
])
def test_plot_without_out_fails_before_any_output(argv, capsys, tmp_path):
    assert main(argv + ["--plot"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--plot needs --out" in captured.err
    # a JSON report has no CSV table for the script to plot
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "t.json"), "--plot"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--plot needs --format csv" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc", [QuadratureError, EstimationError])
def test_numerical_failures_exit_3(monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc("numerical failure")

    monkeypatch.setattr(cli, "mc_tail", fail)
    monkeypatch.setattr(closedform, "w_tail_closed_form", fail)
    assert main(["mc-tail", "--measure", "haar-w", "--t-grid", "1", "--samples", "1000"]) == 3
    assert main(["closed-form", "--component", "tail", "--t-grid", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numerical failure\n" * 2


@pytest.mark.parametrize("component", ["bounds", "tail"])
def test_closed_form_at_huge_t(tmp_path, component):
    # b rounds to 1 inside the quadrature here, where 1 - b is exactly 0
    out = tmp_path / "huge.csv"
    assert main(["closed-form", "--component", component, "--t-grid", "1e14", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    values = [float(x) for x in rows[0][1:]]
    assert len(rows) == 1 and all(math.isfinite(x) for x in values)
    if component == "bounds":
        lower, upper = values
        assert lower <= upper


@pytest.mark.parametrize("component", ["bounds", "tail"])
def test_closed_form_never_prints_a_negative_probability(capsys, component):
    # at t = 1e16 the tail quadrature and the lower bound are rounding noise
    # with a negative sign: a numerical failure, not a value
    assert main(["closed-form", "--component", component, "--t-grid", "1e16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "is negative" in captured.err


def test_bounds_grid_through_the_envelope_double_root(tmp_path):
    # t = 13.5 is on the grid: the envelope cubic's double root
    out = tmp_path / "bounds.csv"
    assert main(["closed-form", "--component", "bounds", "--t-grid", "0:16:0.25", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 65
    for row in rows:
        lower, upper = float(row[1]), float(row[2])
        assert lower <= upper + 1e-12


def test_bounds_where_the_envelope_roots_leave_the_bisection_brackets(tmp_path):
    # the large root lies within an ulp of 1 from t ~ 1e32 on, and the small
    # root, near 2/t, falls below 1e-300 at the top of the float range
    out = tmp_path / "bounds.csv"
    assert main(["closed-form", "--component", "bounds", "--t-grid", "1e33,1e300,1.7e308", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    for row in rows:
        lower, upper = float(row[1]), float(row[2])
        assert math.isfinite(lower) and math.isfinite(upper)
        assert lower <= upper


def test_orbit_oracle_doubled_start_row_is_on_the_slit_cover(tmp_path):
    # the start row is written from the start's slit-cover coordinates, like
    # every later row of the doubled oracle
    out = tmp_path / "orbit.csv"
    argv = ["orbit", "--start", "0.5,0.6,2.0,0.9", "--engine", "oracle-doubled"]
    assert main(argv + ["--iters", "4", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[2] for r in rows] == ["sa", "sa", "sl", "sa"]
    assert [float(x) for x in rows[0][3:]] == [0.5, 0.6, 2.0, 0.9]


def test_gaps_refuses_a_scan_too_large_to_hold(capsys):
    # slope 1e12 puts 8e11 rows in the kernel's n-range: the scan is refused
    # as a usage error before anything of that size is allocated
    assert main(["gaps", "--omega", "0.8,0.5,1.0,0.3", "--slope-max", "1e12"]) == 2
    err = capsys.readouterr().err
    assert "scan too large: 8e+11 rows of n-range" in err
    assert "Traceback" not in err


def _orbit_block(n):
    """An orbit block of n points cycling through every row kind, with the
    floats that format differently: inf, -inf, nan, -0.0, the smallest
    subnormal, 1e16, integral floats and a repeating fraction."""
    t = transversal
    specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 2.0, 1.0 / 3.0, 0.0]
    kinds = [t.OMEGA, t.VERTICAL, t.SL, t.SA, t.SA]
    rng = np.random.default_rng(5)
    col = lambda: np.array([specials[i] for i in rng.integers(0, len(specials), n)])
    kind = np.array([kinds[k % 5] for k in range(n)], dtype=np.int8)
    b = col()
    # vertical rows, plain or short-affine, have no b
    b[(kind == t.VERTICAL) | (np.arange(n) % 5 == 4)] = math.nan
    return col(), t.SectionColumns(kind, col(), b, col(), col())


def _per_cell_csv(header, rows) -> str:
    """The reference CSV: csv.writer over '%.12g' % v for each float cell
    and str for every other cell, LF endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.12g" % c if isinstance(c, float) else str(c) for c in row])
    return out.getvalue()


def test_orbit_rows_format_in_one_pass_as_fmt_does(monkeypatch, capsys):
    n = 60
    returns, points = _orbit_block(n)
    monkeypatch.setattr(cli, "orbit", lambda start, engine, iters: iter([(returns, points)]))
    argv = ["orbit", "--start", "1,1,0,0.5", "--iters", str(n)]
    # the reference: every cell through '%.12g' % v, b empty on vertical rows,
    # the start point first and the last point (where no return leaves) dropped
    start = transversal.row_columns([(transversal.OMEGA, 1.0, 1.0, 0.0, 0.5)])
    cols = [np.concatenate([c0, c])[:n].tolist() for c0, c in zip(start, points)]
    header = ("step", "return_time", "kind", "a", "b", "s", "alpha")
    rows = [
        (k, u, transversal.SECTION_KINDS[kind], a, "" if math.isnan(b) else b, s, alpha)
        for k, (u, kind, a, b, s, alpha) in enumerate(zip(returns.tolist(), *cols))
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == _per_cell_csv(header, rows)
    assert main(argv + ["--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    want = [dict(zip(header, row)) for row in rows]
    assert json.dumps(results, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert any(r["b"] == "" for r in results) and any(r["kind"] == "sl" for r in results)


START = "0.5,0.6,2.0,0.9"


@pytest.mark.parametrize(
    "argv, blocked",
    [
        (["orbit", "--start", START, "--iters", "3", "--out", "{d}/x.csv"], None),
        (["difftest", "OmegaR", "--samples", "10", "--out", "{d}/x.json"], None),
        (["orbit", "--start", START, "--iters", "3", "--out", "{d}/x.csv"], "x.csv.json"),
        (["orbit", "--start", START, "--iters", "3", "--out", "{d}/x.csv", "--plot"], "x.csv.gp"),
    ],
    ids=["csv", "json-report", "sidecar", "gnuplot-script"],
)
def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, blocked):
    # a missing directory for the table or the report; a directory where
    # the sidecar or the gnuplot script goes
    if blocked is None:
        d = tmp_path / "missing"
        path = d / argv[-1].rsplit("/", 1)[1]
    else:
        d = tmp_path
        path = d / blocked
        path.mkdir()
    assert main([a.replace("{d}", str(d)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
    # the outputs are one unit: none of the files before the blocked one stays
    if blocked is not None:
        assert not (d / "x.csv").exists() and not (d / "x.csv.json").is_file()


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--start", START, "--iters", "100000", "--engine", "oracle-affine"],
        ["gaps", "--omega", START, "--slope-max", "100000"],
    ],
    ids=["orbit", "gaps"],
)
def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slitgaps.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert header.startswith(b"step,") or header.startswith(b"index,")
    assert "Traceback" not in err and err == ""
