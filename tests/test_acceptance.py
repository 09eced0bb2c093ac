"""Acceptance gate: the ten primary reproduction criteria at full scale.

Criterion 1 fails by design and stays red: the wrapped-region return-time
formula provably disagrees with the enumeration oracle on part of its domain
(see test_oracle.test_frozen_return_time_counterexample for a frozen
instance).  The assertion states the claimed contract faithfully instead of
papering over the discrepancy.
"""

import json
import math
import time

import numpy as np
import pytest

from slitgaps import cli
from slitgaps.closedform import (
    GOLDEN_T,
    W_TOTAL_MASS,
    compare_pieces,
    torsion_tail,
    w_tail_closed_form,
)
from slitgaps.geometry import (
    AffineLattice,
    Mat2,
    SurfaceMode,
    Vec2,
    enumerate_strip,
    horocycle_apply,
    renormalized_box_gaps,
    slopes_and_gaps,
)
from slitgaps.measures import (
    FORMULA,
    ORACLE_AFFINE,
    MeasureSpec,
    diff_test,
    mc_tail,
)
from slitgaps.transversal import (
    OMEGA,
    VERTICAL,
    bcz_return_map,
    delta_basis,
    row_columns,
    section_returns,
)


def p_ab(a, b):
    return Mat2(a, b, 0.0, 1.0 / a)


def random_surface(rng):
    a = rng.uniform(0.2, 1.0)
    b = rng.uniform(1.0 - a, 1.0)
    s = rng.uniform(0.0, 1.0 / (a * b))
    g = horocycle_apply(s, p_ab(a, b))
    v = g.apply(Vec2(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
    return AffineLattice(g, v).check()


def test_criterion_1_omega_formula_ground_truth():
    start = time.monotonic()
    report = diff_test("OmegaR", 100_000, seed=2026, workers=4)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    # red by design: the formula overshoots the enumerated first return on a
    # measurable part of the wrapped regions, so these two assertions fail
    assert report.max_rel_err < 1e-9
    assert report.n_discrepant == 0


def test_criterion_2_bcz_returns_equal_primitive_strip_gaps():
    rng = np.random.default_rng(1002)
    for _ in range(10):
        a = rng.uniform(0.1, 1.0)
        b = rng.uniform(1.0 - a, 1.0)
        d = (a, b)
        returns = np.empty(1000)
        for k in range(1000):
            returns[k] = 1.0 / (d[0] * d[1])
            d = bcz_return_map(*d)
        # the zero-marking doubled scan has the same slope set as the
        # primitive vectors alone: any imprimitive strip vector's primitive
        # part is a strip vector of equal slope
        surf = AffineLattice(delta_basis(a, b), Vec2(0.0, 0.0))
        pts = enumerate_strip(surf, SurfaceMode.DOUBLED_SLIT, float(np.sum(returns)) + 1.0)
        slopes = slopes_and_gaps(pts).slopes
        slopes = slopes[slopes > 1e-12]
        assert len(slopes) >= 1000
        gaps = np.diff(np.concatenate([[0.0], slopes[:1000]]))
        # orbit roundoff grows with the gap size (deep cusp excursions), so
        # the 1e-9 comparison is taken relative on gaps above 1
        assert np.all(np.abs(returns - gaps) < 1e-9 * np.maximum(1.0, gaps))


def test_criterion_3_worked_return_times():
    points = [
        (OMEGA, 0.5, 1.0, 0.2, 0.75), (OMEGA, 0.8, 0.5, 1.0, 0.3), (OMEGA, 0.5, 0.6, 2.0, 0.9),
        (VERTICAL, 0.5, math.nan, 0.2, 0.5), (OMEGA, 1.0, 1.0, 0.0, 0.5),
    ]
    got = section_returns(row_columns(points))
    assert np.all(np.abs(got - [0.4, 0.9375, 1.8, 1.0, 2.0]) < 1e-12)


def test_criterion_4_closed_form_anchors():
    assert abs(w_tail_closed_form(0.0) - (3.0 + math.pi ** 2) / 6.0) < 1e-12
    assert abs(w_tail_closed_form(1.0) - ((3.0 + math.pi ** 2) / 6.0 - 7.0 / 8.0)) < 1e-12
    for bp in (1.0, 2.0, GOLDEN_T, 4.0):
        assert abs(w_tail_closed_form(bp - 1e-9) - w_tail_closed_form(bp + 1e-9)) < 1e-6
    report = compare_pieces(50, 1e-6)
    assert report["all_pass"], report


def test_criterion_5_monte_carlo_reproduces_closed_form():
    grid = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
    start = time.monotonic()
    est = mc_tail(MeasureSpec.haar_w(), FORMULA, grid, 1_000_000, seed=505, workers=4)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    for t, sv, ci in zip(grid, est.survival, est.ci_halfwidth):
        want = w_tail_closed_form(t) / W_TOTAL_MASS
        assert abs(sv - want) < max(0.01, 3.0 * ci)


def test_criterion_6_tail_decay():
    grid = np.geomspace(8.0, 128.0, 9)
    slope = np.polyfit(np.log(grid), np.log([w_tail_closed_form(t) / W_TOTAL_MASS for t in grid]), 1)[0]
    assert -2.3 <= slope <= -1.7

    tgrid = np.geomspace(8.0, 64.0, 7)
    for q in (1, 2, 3):
        scaled = np.array([t * t * torsion_tail(q, t) for t in tgrid])
        assert scaled.max() / scaled.min() < 3.0

    mc_grid = list(np.geomspace(4.0, 32.0, 9))
    est = mc_tail(
        MeasureSpec.haar_omega(), ORACLE_AFFINE, mc_grid, 800_000, seed=606, workers=4
    )
    mc_slope = np.polyfit(np.log(mc_grid), np.log(est.survival), 1)[0]
    assert -2.3 <= mc_slope <= -0.8


def test_criterion_7_support_at_zero():
    # survival is nonincreasing, so the drop clause is read as a strict fall
    # of more than one ci between 0.05 and 0.1: mass accumulates on both
    # subintervals of (0, 0.1]
    for spec in (MeasureSpec.haar_omega(), MeasureSpec.haar_w()):
        est = mc_tail(spec, FORMULA, [0.05, 0.1], 1_000_000, seed=707, workers=4)
        sv05, sv10 = est.survival
        ci05, ci10 = est.ci_halfwidth
        assert sv05 < 1.0 - 10.0 * ci05
        assert sv10 < 1.0 - 10.0 * ci10
        assert sv10 < sv05 - ci10


def test_criterion_8_measure_masses():
    omega = mc_tail(MeasureSpec.haar_omega(), FORMULA, [0.0], 1_000_000, seed=808, workers=4)
    assert abs(omega.total_mass - math.pi ** 2 / 6.0) < 3.0 * omega.total_mass_se
    masses = omega.component_masses
    assert abs(masses["omega3"] - (math.pi ** 2 / 6.0 - 1.0)) < 3.0 * masses["omega3_se"]
    w = mc_tail(MeasureSpec.haar_w(), FORMULA, [0.0], 1_000_000, seed=808, workers=4)
    assert abs(w.total_mass - (3.0 + math.pi ** 2) / 6.0) < 3.0 * w.total_mass_se


def test_criterion_9_bridge_and_covers():
    rng = np.random.default_rng(909)
    for r in (10.0, 50.0):
        scale = Mat2(1.0 / r, 0.0, 0.0, r)
        for _ in range(20):
            surf = random_surface(rng)
            box = renormalized_box_gaps(surf, SurfaceMode.DOUBLED_SLIT, r)
            image = AffineLattice(scale @ surf.g, scale.apply(surf.v))
            pts = enumerate_strip(
                image, SurfaceMode.DOUBLED_SLIT, math.inf,
                y_max=r * r, include_horizontal=True,
            )
            strip = slopes_and_gaps(pts)
            assert box.count == strip.count
            lhs, rhs = np.sort(box.gaps), np.sort(strip.gaps)
            assert np.all(np.abs(lhs - rhs) < 1e-9 * np.maximum(1.0, np.abs(rhs)))


def test_criterion_10_discrepancy_reports(tmp_path):
    rho_out = tmp_path / "wslrho.json"
    code = cli.main([
        "difftest", "WslRho", "--samples", "2000", "--seed", "10", "--out", str(rho_out),
    ])
    assert code == 0
    payload = json.loads(rho_out.read_text())
    assert payload["counterexamples"]
    hits = [
        c for c in payload["counterexamples"]
        if c["input"] == {"a": 0.6, "b": 0.5, "v1": 0.3, "v2": 0.5}
    ]
    assert hits
    assert math.isclose(hits[0]["formula"], 5.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(hits[0]["oracle"], 5.0 / 9.0, rel_tol=1e-12)

    ret_out = tmp_path / "wreturn.json"
    code = cli.main([
        "difftest", "WReturn", "--mode", "doubled",
        "--samples", "2000", "--seed", "10", "--out", str(ret_out),
    ])
    assert code == 0
    payload = json.loads(ret_out.read_text())
    assert payload["counterexamples"]
    hits = [
        c for c in payload["counterexamples"]
        if c["input"] == {"kind": "sa", "a": 0.5, "b": 0.6, "s": 2.0, "alpha": 0.9}
    ]
    assert hits
    assert math.isclose(hits[0]["formula"], 4.0 / 3.0, rel_tol=1e-9)
    assert math.isclose(hits[0]["oracle"], 0.75, rel_tol=1e-9)
