"""Invariant-measure samplers, Monte Carlo tails, and orbit averages."""

import math

import numpy as np
import pytest

from slitgaps import oracle, transversal
from slitgaps.errors import InvalidInputError
from slitgaps.geometry import SurfaceMode, horocycle_apply
from slitgaps.measures import (
    ENGINES,
    FORMULA,
    ORACLE_AFFINE,
    ORACLE_DOUBLED,
    MeasureSpec,
    _oracle_surface,
    ergodic_average,
    estimate_masses,
    mc_tail,
    orbit,
    sample,
)
from slitgaps.oracle import oracle_first_return, oracle_gap_sequence, oracle_strip_slopes
from slitgaps.transversal import (
    OmegaCoords,
    VLCoords,
    WPointSA,
    WPointSL,
    omega_to_surface,
    recoordinatize_omega,
    w_section_coords,
    w_to_surface,
)

HAAR_OMEGA_MASS = math.pi ** 2 / 6.0
OMEGA3_MASS = math.pi ** 2 / 6.0 - 1.0
HAAR_W_MASS = (3.0 + math.pi ** 2) / 6.0


def test_measure_parsing_round_trip():
    for text in ("haar-omega", "haar-w", "torsion:2", "periodic-point"):
        assert MeasureSpec.parse(text).label() == text
    spec = MeasureSpec.parse("periodic-omega:0.5,0.25")
    assert spec.a == 0.5 and spec.alpha == 0.25
    with pytest.raises(InvalidInputError):
        MeasureSpec.parse("haar-q")
    with pytest.raises(InvalidInputError):
        MeasureSpec.parse("torsion:0")
    with pytest.raises(InvalidInputError):
        MeasureSpec.parse("torsion:x")


def test_torsion_sampler_support():
    rng = np.random.default_rng(101)
    spec = MeasureSpec.torsion(2)
    for _ in range(200):
        ws = sample(spec, rng)
        p = ws.point
        assert isinstance(p, OmegaCoords)
        assert ws.weight == 1.0
        assert p.s == 0.0
        assert math.isclose(p.alpha, p.a / 2.0, rel_tol=1e-12)
        assert 0.0 < p.a <= 1.0 and 1.0 - p.a < p.b <= 1.0


def test_torsion_point_instance():
    # (a, b) = (0.8, 0.5), q = 2: lattice on its section, marking at the
    # 2-torsion representative (a/2, 0)
    rng = np.random.default_rng(0)
    spec = MeasureSpec.torsion(2)
    p = OmegaCoords(0.8, 0.5, 0.0, 0.4)
    assert math.isclose(p.alpha, p.a / 2.0)
    for _ in range(500):
        q = sample(spec, rng).point
        if abs(q.a - 0.8) < 0.05 and abs(q.b - 0.5) < 0.05:
            assert math.isclose(q.alpha, q.a / 2.0, rel_tol=1e-12)
            break


def test_haar_omega_sampler_support():
    rng = np.random.default_rng(103)
    spec = MeasureSpec.haar_omega()
    for _ in range(200):
        ws = sample(spec, rng)
        p = ws.point
        assert isinstance(p, OmegaCoords)
        assert math.isclose(ws.weight, 1.0 / p.b, rel_tol=1e-12)
        assert 0.0 <= p.s <= 1.0 / (p.a * p.b)
        assert 0.0 < p.alpha <= 1.0


def test_haar_w_sampler_mixture():
    rng = np.random.default_rng(107)
    spec = MeasureSpec.haar_w()
    kinds = {WPointSL: 0, WPointSA: 0}
    for _ in range(600):
        ws = sample(spec, rng)
        kinds[type(ws.point)] += 1
    assert kinds[WPointSL] > 100 and kinds[WPointSA] > 250


def test_total_masses():
    n = 200_000
    for spec, want in (
        (MeasureSpec.haar_omega(), HAAR_OMEGA_MASS),
        (MeasureSpec.haar_w(), HAAR_W_MASS),
    ):
        masses = estimate_masses(spec, n, seed=3)
        assert abs(masses["total"] - want) <= 3.0 * masses["total_se"]


def test_omega3_slice_mass():
    masses = estimate_masses(MeasureSpec.haar_omega(), 200_000, seed=5)
    assert "omega3" in masses
    assert abs(masses["omega3"] - OMEGA3_MASS) < 0.02


def test_periodic_omega_survival_is_a_step():
    spec = MeasureSpec.periodic_omega(0.5, 0.25)
    jump = 0.5 / 0.25
    est = mc_tail(spec, FORMULA, [0.0, jump - 0.01, jump + 0.01, 10.0], 2000, seed=7)
    sv = est.survival
    assert sv[0] == 1.0
    assert sv[1] == 1.0
    assert sv[2] == 0.0
    assert sv[3] == 0.0


def test_periodic_point_constant_return():
    est = mc_tail(MeasureSpec.periodic_point(), FORMULA, [0.0, 1.9, 2.1], 1000, seed=7)
    assert est.survival[0] == 1.0
    assert est.survival[1] == 1.0
    assert est.survival[2] == 0.0


def test_survival_starts_at_one_and_decreases():
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    est = mc_tail(MeasureSpec.haar_w(), FORMULA, grid, 100_000, seed=11)
    assert est.survival[0] == 1.0
    for k in range(1, len(grid)):
        slack = 2.0 * (est.ci_halfwidth[k] + est.ci_halfwidth[k - 1])
        assert est.survival[k] <= est.survival[k - 1] + slack


def test_mc_tail_engines_agree_on_vertical_orbit():
    # both engines are exact on the vertical-lattice circle, so the step
    # survival must match exactly
    spec = MeasureSpec.periodic_omega(0.5, 0.25)
    grid = [0.0, 1.9, 2.1]
    a = mc_tail(spec, FORMULA, grid, 1000, seed=13)
    b = mc_tail(spec, ORACLE_AFFINE, grid, 1000, seed=13)
    assert np.array_equal(a.survival, b.survival)


def test_mc_tail_reproducible_across_calls():
    grid = [0.0, 0.5, 1.0, 2.0]
    one = mc_tail(MeasureSpec.haar_w(), FORMULA, grid, 20_000, seed=17, workers=3)
    two = mc_tail(MeasureSpec.haar_w(), FORMULA, grid, 20_000, seed=17, workers=3)
    assert one.to_json() == two.to_json()


def test_mc_tail_rejects_bad_engine():
    with pytest.raises(InvalidInputError):
        mc_tail(MeasureSpec.haar_w(), "exact", [1.0], 100, seed=0)
    assert set(ENGINES) == {"formula", "oracle-affine", "oracle-doubled"}


def test_ergodic_average_periodic_orbit():
    start = OmegaCoords(1.0, 1.0, 0.0, 0.5)
    assert ergodic_average(start, FORMULA, 50, (1.5, 2.5)) == 1.0
    assert ergodic_average(start, FORMULA, 50, (0.0, 1.0)) == 0.0


def test_ergodic_average_matches_monte_carlo():
    # true (enumerated) dynamics on both routes; the closed-form step is
    # skewed on part of the wrapped regions and would bias the orbit
    rng = np.random.default_rng(19)
    start = sample(MeasureSpec.haar_omega(), rng).point
    frac = ergodic_average(start, ORACLE_AFFINE, 100_000, (0.0, 1.0))
    est = mc_tail(
        MeasureSpec.haar_omega(), ORACLE_AFFINE, [0.0, 1.0], 100_000, seed=23, workers=4
    )
    want = est.survival[0] - est.survival[1]
    assert abs(frac - want) < 0.01


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n_steps", [0, -3])
def test_ergodic_average_rejects_empty_orbits(engine, n_steps):
    with pytest.raises(InvalidInputError):
        ergodic_average(OmegaCoords(1.0, 1.0, 0.0, 0.5), engine, n_steps, (0.0, 1.0))


def test_ergodic_average_affine_oracle_needs_affine_coordinates():
    for start in (WPointSL(0.6, 0.5, 0.5, 0.8), WPointSA(OmegaCoords(0.5, 0.6, 2.0, 0.9))):
        with pytest.raises(InvalidInputError):
            ergodic_average(start, ORACLE_AFFINE, 10, (0.0, 1.0))


@pytest.mark.parametrize(
    "start, engine",
    [
        (OmegaCoords(0.5, 0.6, 2.0, 0.9), ORACLE_AFFINE),
        (OmegaCoords(0.5, 0.6, 2.0, 0.9), ORACLE_DOUBLED),
        (WPointSL(0.6, 0.5, 0.3, 0.5), ORACLE_DOUBLED),
    ],
)
def test_ergodic_scan_follows_the_oracle_orbit(start, engine):
    # the scan of the start surface and the flow-and-recoordinatize orbit
    # see the same returns, up to the orbit's accumulated rounding
    n = 500
    stepped = np.cumsum([u for _, u, _ in orbit(start, engine, n)])
    seq = oracle_gap_sequence(*_oracle_surface(start, engine), n)
    assert np.max(np.abs(np.cumsum(seq) - stepped) / stepped) < 1e-9
    frac = ergodic_average(start, engine, n, (0.0, 1.0))
    assert frac == np.count_nonzero(seq <= 1.0) / n


def test_mc_tail_rejects_nan_thresholds_and_keeps_inf_limits():
    with pytest.raises(InvalidInputError):
        mc_tail(MeasureSpec.haar_w(), FORMULA, [math.nan, 1.0], 2000, seed=1)
    est = mc_tail(MeasureSpec.haar_w(), FORMULA, [-math.inf, math.inf], 2000, seed=1)
    assert list(est.survival) == [1.0, 0.0]


def test_orbit_yields_expected_shape():
    start = OmegaCoords(1.0, 1.0, 0.0, 0.5)
    steps = list(orbit(start, FORMULA, 4))
    assert len(steps) == 4
    for k, (step, u, point) in enumerate(steps):
        assert step == k
        assert math.isclose(u, 2.0, abs_tol=1e-9)
        assert isinstance(point, OmegaCoords)


@pytest.mark.parametrize("engine", [ORACLE_AFFINE, ORACLE_DOUBLED])
def test_oracle_orbit_computes_no_lattice_form_per_step(monkeypatch, engine):
    # an oracle orbit analyzes the start lattice once and scans the start
    # surface a fixed number of times, however many steps it takes
    forms, scans = [], []
    real_form, real_scan = transversal._lattice_form, oracle.enumerate_strip

    def counting_form(g):
        forms.append(g)
        return real_form(g)

    def counting_scan(*args, **kwargs):
        scans.append(args)
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(transversal, "_lattice_form", counting_form)
    monkeypatch.setattr(oracle, "enumerate_strip", counting_scan)
    counts = []
    for n in (200, 400):
        forms.clear()
        scans.clear()
        steps = list(orbit(OmegaCoords(0.5, 0.6, 2.0, 0.9), engine, n))
        assert len(steps) == n
        counts.append((len(forms), len(scans)))
    assert counts[0] == counts[1]
    assert counts[0][0] == 1


# the step-by-step chain the oracle orbits are read off in one piece: the
# point after a step is the previous surface flowed by its enumerated return
# and recoordinatized.  Its partial sums drift from the start surface's strip
# slopes by rounding, so returns and s are compared at STEPWISE_TOL and the
# flow-invariant x-coordinates (a, b, alpha, and the short-lattice marking)
# at STEPWISE_X_TOL.
STEPWISE_TOL = 1e-9
STEPWISE_X_TOL = 1e-11


def _stepwise_oracle_orbit(start, engine, n):
    mode = SurfaceMode.AFFINE_ONLY if engine == ORACLE_AFFINE else SurfaceMode.DOUBLED_SLIT
    p, out = start, []
    for _ in range(n):
        surf = w_to_surface(p) if isinstance(p, (WPointSL, WPointSA)) else omega_to_surface(p)
        u = oracle_first_return(surf, mode)
        flowed = horocycle_apply(u, surf)
        if mode is SurfaceMode.AFFINE_ONLY:
            p = recoordinatize_omega(flowed)
        else:
            p = w_section_coords(flowed, doubled=True)
        out.append((u, p))
    return out


def _kind_and_coords(p):
    """(kind, x-coordinates, s) of a section point."""
    if isinstance(p, WPointSL):
        return "sl", (p.a, p.b, p.v1, p.v2), 0.0
    kind = "sa-" if isinstance(p, WPointSA) else ""
    p = p.coords if kind else p
    if isinstance(p, VLCoords):
        return kind + "vl", (p.a, p.alpha), p.s
    return kind + "omega", (p.a, p.b, p.alpha), p.s


# P1 is the start of the benchmark's orbit-chain workload at seed 1
P1 = OmegaCoords(0.8558403872803663, 0.732080999270255, 0.04227081954827937, 0.7847818328370264)


@pytest.mark.parametrize(
    "start, engine",
    [
        (P1, ORACLE_AFFINE),
        (P1, ORACLE_DOUBLED),
        (OmegaCoords(0.5, 0.6, 2.0, 0.9), ORACLE_AFFINE),
        (OmegaCoords(0.5, 0.6, 2.0, 0.9), ORACLE_DOUBLED),
        (WPointSL(0.6, 0.5, 0.3, 0.5), ORACLE_DOUBLED),
        (VLCoords(0.8, 0.3, 0.5), ORACLE_AFFINE),
        (VLCoords(0.8, 0.3, 0.5), ORACLE_DOUBLED),
    ],
)
def test_oracle_orbit_matches_the_stepwise_chain(start, engine):
    n = 500
    steps = list(orbit(start, engine, n))
    ref = _stepwise_oracle_orbit(start, engine, n)
    assert [k for k, _, _ in steps] == list(range(n))
    for (_, u, p), (u_ref, p_ref) in zip(steps, ref):
        kind, xs, s = _kind_and_coords(p)
        kind_ref, xs_ref, s_ref = _kind_and_coords(p_ref)
        assert kind == kind_ref
        assert np.max(np.abs(np.subtract(xs, xs_ref))) <= STEPWISE_X_TOL
        assert abs(s - s_ref) <= STEPWISE_TOL
        assert abs(u - u_ref) <= STEPWISE_TOL
    sums = np.cumsum([u for _, u, _ in steps])
    slopes = oracle_strip_slopes(*_oracle_surface(start, engine), n)
    assert np.max(np.abs(sums - slopes) / slopes) <= 1e-12


def test_oracle_orbit_carries_the_negated_marking():
    # under the doubled oracle the vertical-lattice start (a = 0.8) has the
    # mirrored coset's column x = 1/a - alpha in the strip too, so the orbit
    # alternates between the two markings
    steps = list(orbit(VLCoords(0.8, 0.3, 0.5), ORACLE_DOUBLED, 50))
    alphas = {round(p.coords.alpha, 12) for _, _, p in steps}
    assert alphas == {0.5, 0.75}


def test_oracle_orbit_of_no_steps_is_empty():
    for engine in (ORACLE_AFFINE, ORACLE_DOUBLED):
        assert list(orbit(OmegaCoords(0.5, 0.6, 2.0, 0.9), engine, 0)) == []
