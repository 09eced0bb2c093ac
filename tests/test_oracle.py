"""Enumeration oracle and the formula-vs-oracle differential tester."""

import math
from fractions import Fraction

import numpy as np
import pytest

from slitgaps import geometry
from slitgaps.geometry import (
    AffineLattice,
    Mat2,
    SurfaceMode,
    Vec2,
    enumerate_strip,
    horocycle_apply,
    slopes_and_gaps,
    strip_holonomy_batch,
)
from slitgaps.measures import (
    ORACLE_AFFINE,
    ORACLE_DOUBLED,
    MeasureSpec,
    _batch_measure,
    _oracle_return_omega,
    _oracle_return_w,
    omega_return_vec,
    sample,
    w_return_sa_vec,
    w_return_sl_vec,
    worker_streams,
)
from slitgaps.oracle import (
    CAP_LIMIT,
    REGIONS,
    _PROBES,
    _formula_column,
    _oracle_column,
    _point_dict,
    _region_columns,
    diff_test,
    oracle_first_return,
    oracle_first_return_batch,
    oracle_gap_sequence,
    oracle_strip_slopes,
    w_oracle_return,
    w_oracle_return_batch,
)
from slitgaps.errors import InvalidInputError, NotOnTransversalError
from slitgaps.transversal import (
    DeltaCoords,
    OmegaCoords,
    OmegaRegion,
    VLCoords,
    WPointSA,
    WPointSL,
    bcz_return_time,
    classify_omega,
    delta_basis,
    omega_return_time,
    omega_to_surface,
    rho_sl_to_sa,
    w_return_time,
    w_to_surface,
)


def p_ab(a, b):
    return Mat2(a, b, 0.0, 1.0 / a)


def test_first_return_affine_worked():
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    surf = AffineLattice(g, Vec2(0.75, 0.0))
    assert math.isclose(
        oracle_first_return(surf, SurfaceMode.AFFINE_ONLY), 0.4, abs_tol=1e-12
    )


def test_first_return_shifted_square():
    surf = AffineLattice(p_ab(1.0, 1.0), Vec2(0.5, 0.0))
    assert math.isclose(
        oracle_first_return(surf, SurfaceMode.AFFINE_ONLY), 2.0, abs_tol=1e-12
    )


def test_first_return_doubled_beats_affine():
    surf = AffineLattice(p_ab(0.6, 0.5), Vec2(0.5, 0.8))
    assert math.isclose(
        oracle_first_return(surf, SurfaceMode.DOUBLED_SLIT), 13.0 / 9.0, abs_tol=1e-12
    )


def test_gap_sequence_shifted_integer_lattice():
    surf = AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), Vec2(0.5, 0.0))
    seq = oracle_gap_sequence(surf, SurfaceMode.AFFINE_ONLY, 5)
    assert np.allclose(seq, 2.0, atol=1e-9)


def test_gap_sequence_primitive_lattice():
    # marking at a lattice point collapses the holonomy to the integer
    # lattice; strip slopes are 1, 2, 3, ... whatever the mode
    surf = AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), Vec2(1.0, 0.0))
    seq = oracle_gap_sequence(surf, SurfaceMode.DOUBLED_SLIT, 5)
    assert np.allclose(seq, 1.0, atol=1e-9)


def test_gap_sequence_matches_strip_slopes():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.4, 1.0)
    b = rng.uniform(1.0 - a, 1.0)
    g = horocycle_apply(rng.uniform(0.0, 1.0), p_ab(a, b))
    surf = AffineLattice(g, g.apply(Vec2(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))))
    mode = SurfaceMode.DOUBLED_SLIT
    n = 100
    seq = oracle_gap_sequence(surf, mode, n)
    series = slopes_and_gaps(enumerate_strip(surf, mode, math.inf, y_max=200.0))
    slopes = series.slopes[series.slopes > 1e-9]
    assert len(slopes) >= n
    assert np.max(np.abs(np.cumsum(seq) - slopes[:n])) < 1e-7


def _exact_strip_slopes(g, v, doubled, cap):
    """Distinct strip slopes at most ``cap`` of the rational surface (g, v),
    in exact arithmetic: coset points, and under ``doubled`` also the negated
    coset and the primitive lattice vectors."""
    g11, g12, g21, g22 = g
    det = g11 * g22 - g12 * g21
    comps = [(v, False)]
    if doubled:
        comps += [((-v[0], -v[1]), False), ((Fraction(0), Fraction(0)), True)]
    out = set()
    for (c1, c2), primitive in comps:
        corners = [(x - c1, y - c2) for x in (0, 1) for y in (0, cap)]
        ms = [(g22 * dx - g12 * dy) / det for dx, dy in corners]
        for m in range(math.floor(min(ms)) - 1, math.ceil(max(ms)) + 2):
            # n with 0 < x <= 1 on row m (g12 > 0)
            n_lo = math.floor((-g11 * m - c1) / g12)
            n_hi = math.ceil((1 - g11 * m - c1) / g12)
            for n in range(n_lo, n_hi + 1):
                if primitive and math.gcd(m, n) != 1:
                    continue
                x = g11 * m + g12 * n + c1
                y = g21 * m + g22 * n + c2
                if 0 < x <= 1 and 0 < y <= cap * x:
                    out.add(y / x)
    return sorted(out)


@pytest.mark.parametrize(
    "mode,cap", [(SurfaceMode.AFFINE_ONLY, 4000), (SurfaceMode.DOUBLED_SLIT, 1700)]
)
def test_gap_sequence_matches_exact_rational_reference(mode, cap):
    # g = [[3/5, 1/5], [-1, 4/3]] is unimodular; the marking is rational and
    # off every lattice line through the strip's boundary
    g = (Fraction(3, 5), Fraction(1, 5), Fraction(-1), Fraction(4, 3))
    v = (Fraction(1, 7), Fraction(2, 11))
    n = 2000
    exact = _exact_strip_slopes(g, v, mode is SurfaceMode.DOUBLED_SLIT, cap)
    assert len(exact) >= n
    want = np.array([float(q) for q in exact[:n]])
    surf = AffineLattice(Mat2(*map(float, g)), Vec2(*map(float, v)))
    seq = oracle_gap_sequence(surf, mode, n)
    assert np.max(np.abs(np.cumsum(seq) - want) / want) <= 1e-12
    assert np.max(np.abs(seq - np.diff(want, prepend=0.0)) / want) <= 1e-12


def test_gap_sequence_has_no_spurious_returns():
    # the ergodic test's start surface; flowing return by return drifts, and
    # once the drift passes any fixed skip threshold a just-crossed vector
    # comes back as a near-zero return and shifts every later index
    start = sample(MeasureSpec.haar_omega(), np.random.default_rng(19)).point
    surf = omega_to_surface(start)
    n = 3000
    seq = oracle_gap_sequence(surf, SurfaceMode.AFFINE_ONLY, n)
    slopes = slopes_and_gaps(
        enumerate_strip(surf, SurfaceMode.AFFINE_ONLY, 4.0 * n)
    ).slopes
    assert len(slopes) >= n
    assert np.max(np.abs(np.cumsum(seq) - slopes[:n]) / slopes[:n]) <= 1e-9
    assert seq.min() >= 1e-6


@pytest.mark.parametrize("mode", list(SurfaceMode))
@pytest.mark.parametrize(
    "start, n, one_scan",
    [
        (OmegaCoords(0.5, 0.6, 2.0, 0.9), 1000, True),
        # one coset column at x = 0.05 every 0.5 high: slopes 10 apart, far
        # sparser than a generic surface's, so the first cap is doubled
        (VLCoords(0.5, 0.1, 0.05), 50, False),
    ],
)
def test_strip_slopes_from_the_expected_cap(monkeypatch, mode, start, n, one_scan):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_strip(*args, **kwargs)

    monkeypatch.setattr("slitgaps.oracle.enumerate_strip", counting)
    surf = omega_to_surface(start)
    slopes = oracle_strip_slopes(surf, mode, n)
    assert (len(calls) == 1) == one_scan
    # any cap holding n slopes gives the same first n
    wide = slopes_and_gaps(enumerate_strip(surf, mode, 2.0 * calls[-1][2])).slopes
    assert np.array_equal(slopes, wide[:n])


def test_strip_slopes_past_cap_limit(monkeypatch):
    surf = AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), Vec2(0.5, 0.0))
    monkeypatch.setattr("slitgaps.oracle.CAP_LIMIT", 64.0)
    with pytest.raises(NotOnTransversalError):
        oracle_strip_slopes(surf, SurfaceMode.AFFINE_ONLY, 1000)


def test_cap_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.uniform(0.3, 1.0)
        b = rng.uniform(1.0 - a, 1.0)
        g = horocycle_apply(rng.uniform(0.0, 2.0), p_ab(a, b))
        surf = AffineLattice(g, g.apply(Vec2(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))))
        base = oracle_first_return(surf, SurfaceMode.DOUBLED_SLIT)
        for hint in (base * 0.25, base, base * 8.0):
            again = oracle_first_return(surf, SurfaceMode.DOUBLED_SLIT, cap_hint=hint)
            assert math.isclose(base, again, rel_tol=1e-12, abs_tol=1e-12)


def test_mode_ordering():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = rng.uniform(0.3, 1.0)
        b = rng.uniform(1.0 - a, 1.0)
        g = horocycle_apply(rng.uniform(0.0, 2.0), p_ab(a, b))
        surf = AffineLattice(g, g.apply(Vec2(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))))
        doubled = oracle_first_return(surf, SurfaceMode.DOUBLED_SLIT)
        affine = oracle_first_return(surf, SurfaceMode.AFFINE_ONLY)
        assert doubled <= affine + 1e-12


FROZEN_O2_INPUT = OmegaCoords(
    0.8498002709295481, 0.7823342819814268, 0.7317215657226075, 0.3268289782271856
)


def test_frozen_return_time_counterexample():
    # the alpha <= a, b + alpha > 1 closed form overshoots here: enumeration
    # finds the coefficient pair (-2, 3) arriving first
    formula = omega_return_time(FROZEN_O2_INPUT)
    oracle = oracle_first_return(
        omega_to_surface(FROZEN_O2_INPUT), SurfaceMode.AFFINE_ONLY
    )
    assert math.isclose(formula, 4.727403155330044, abs_tol=1e-9)
    assert math.isclose(oracle, 3.1373690337988527, abs_tol=1e-9)
    assert formula - oracle > 1.0


def test_formula_matches_oracle_off_the_wrapped_regions():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 60:
        a = rng.uniform(0.2, 1.0)
        b = rng.uniform(1.0 - a, 1.0)
        s = rng.uniform(0.0, 1.0 / (a * b))
        alpha = rng.uniform(0.05, 1.0)
        p = OmegaCoords(a, b, s, alpha)
        if classify_omega(p) not in (OmegaRegion.O1, OmegaRegion.O3):
            continue
        u = oracle_first_return(omega_to_surface(p), SurfaceMode.AFFINE_ONLY)
        assert math.isclose(omega_return_time(p), u, rel_tol=1e-9, abs_tol=1e-9)
        checked += 1


def test_formula_matches_oracle_vertical():
    rng = np.random.default_rng(37)
    for _ in range(30):
        a = rng.uniform(0.2, 1.0)
        p = VLCoords(a, rng.uniform(0.0, a * a), rng.uniform(0.05, 1.0))
        u = oracle_first_return(omega_to_surface(p), SurfaceMode.AFFINE_ONLY)
        assert math.isclose(omega_return_time(p), u, rel_tol=1e-9, abs_tol=1e-9)


def test_diff_test_lattice_region_clean():
    report = diff_test("DeltaR", 2000, seed=5)
    assert report.n_discrepant == 0
    assert report.max_rel_err < 1e-9
    assert report.counterexamples == ()


def test_diff_test_omega_region_finds_the_flaw():
    report = diff_test("OmegaR", 4000, seed=5)
    assert report.n_discrepant > 0
    assert len(report.counterexamples) > 0
    gaps = [abs(f - o) for (_, f, o) in report.counterexamples]
    assert max(gaps) > 1e-6


def test_diff_test_slit_travel_time_disagrees():
    report = diff_test("WslRho", 3000, seed=5)
    assert report.n_discrepant > 0
    # the missed arrivals are horizontal translates (v1 + k*a, v2); they
    # exist already when the translate lands back in the strip
    found = any(
        inp["v1"] + inp["a"] <= 1.0 + 1e-9 for (inp, _, _) in report.counterexamples
    )
    assert found


def test_diff_test_doubled_return_disagrees():
    report = diff_test("WReturn", 3000, seed=5, mode="doubled")
    assert report.n_discrepant > 0
    assert all(f > o - 1e-12 for (_, f, o) in report.counterexamples)


def test_diff_test_rejects_unknown_region():
    with pytest.raises(InvalidInputError):
        diff_test("NoSuchRegion", 100, seed=0)
    assert set(REGIONS) == {"DeltaR", "OmegaR", "WslRho", "WReturn"}


def test_diff_test_deterministic():
    a = diff_test("OmegaR", 500, seed=11, workers=2).to_json()
    b = diff_test("OmegaR", 500, seed=11, workers=2).to_json()
    assert a == b


# ---------------------------------------------------------------------------
# batched oracle: bit-identical to the per-point oracle


MODES = (SurfaceMode.AFFINE_ONLY, SurfaceMode.DOUBLED_SLIT)


def _region_points(region, n, seed):
    """Probes plus n draws of the region: its columns and each row's input."""
    cols = _region_columns(region, [(np.random.default_rng(seed), n)], "fundamental")
    rows = len(cols["is_sl"] if region == "WReturn" else cols["a"])
    return cols, [_point_dict(region, cols, i) for i in range(rows)]


def _region_surface(region, p):
    if region == "OmegaR" or p.get("kind") == "sa":
        return omega_to_surface(OmegaCoords(p["a"], p["b"], p["s"], p["alpha"]))
    v = Vec2(p["v1"], p["v2"]) if "v1" in p else Vec2(0.0, 0.0)
    return AffineLattice(delta_basis(p["a"], p["b"]), v)


def _stack(surfaces):
    """Per-surface fields as the (Mat2, Vec2) of arrays the batch takes."""
    rows = np.array([tuple(s.g) + tuple(s.v) for s in surfaces], dtype=float).reshape(-1, 6)
    return Mat2(*rows[:, :4].T), Vec2(*rows[:, 4:].T)


def _per_point_eval(region, point, mode, hint):
    """The oracle column difftest computed one point at a time."""
    surf = _region_surface(region, point)
    if region == "DeltaR":
        return oracle_first_return(surf, SurfaceMode.DOUBLED_SLIT, cap_hint=hint)
    if region == "OmegaR":
        return oracle_first_return(surf, SurfaceMode.AFFINE_ONLY, cap_hint=hint)
    if region == "WslRho":
        return oracle_first_return(surf, mode, cap_hint=hint)
    return w_oracle_return(surf, doubled=mode is SurfaceMode.DOUBLED_SLIT, cap_hint=hint)


def _assert_same(batch, surfaces, hints, mode=None, doubled=None):
    for i, surf in enumerate(surfaces):
        hint = None if hints is None else hints[i]
        if doubled is None:
            want = oracle_first_return(surf, mode, cap_hint=hint)
        else:
            want = w_oracle_return(surf, doubled=doubled, cap_hint=hint)
        assert batch[i] == want, (i, surf, hint)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("region", REGIONS)
def test_difftest_oracle_column_bit_identical(region, mode):
    cols, points = _region_points(region, 300, seed=41)
    hints = _formula_column(region, cols)
    got = _oracle_column(region, cols, mode, hints)
    want = [_per_point_eval(region, p, mode, h) for p, h in zip(points, hints.tolist())]
    assert got.tolist() == want


@pytest.mark.parametrize("region", REGIONS)
def test_batch_kernel_bit_identical_both_modes(region):
    cols, points = _region_points(region, 200, seed=43)
    hints = _formula_column(region, cols).tolist()
    surfaces = [_region_surface(region, p) for p in points]
    g, v = _stack(surfaces)
    for mode in MODES:
        _assert_same(oracle_first_return_batch(g, v, mode, hints), surfaces, hints, mode=mode)
    for doubled in (False, True):
        batch = w_oracle_return_batch(g, v, doubled=doubled, cap_hints=hints)
        _assert_same(batch, surfaces, hints, doubled=doubled)


def test_torsion_markings_doubled_keep_the_dedup():
    # on torsion markings the +-v cosets coincide up to rounding, so the
    # near-duplicate drop decides which representative sets the minimum
    batch = _batch_measure(MeasureSpec.torsion(2), np.random.default_rng(47), 1500)
    hints = omega_return_vec(batch["a"], batch["b"], batch["s"], batch["alpha"])
    got = _oracle_return_omega(batch, SurfaceMode.DOUBLED_SLIT, hints)
    for i in range(len(got)):
        p = OmegaCoords(batch["a"][i], batch["b"][i], batch["s"][i], batch["alpha"][i])
        want = oracle_first_return(
            omega_to_surface(p), SurfaceMode.DOUBLED_SLIT, cap_hint=omega_return_time(p)
        )
        assert got[i] == want


@pytest.mark.parametrize("engine", [ORACLE_AFFINE, ORACLE_DOUBLED])
def test_periodic_omega_vertical_surfaces(engine):
    batch = _batch_measure(MeasureSpec.periodic_omega(0.7, 0.4), np.random.default_rng(53), 400)
    mode = SurfaceMode.DOUBLED_SLIT if engine == ORACLE_DOUBLED else SurfaceMode.AFFINE_ONLY
    got = _oracle_return_omega(batch, mode, batch["a"] / batch["alpha"])
    for i in range(len(got)):
        p = VLCoords(batch["a"][i], batch["s"][i], batch["alpha"][i])
        want = oracle_first_return(omega_to_surface(p), mode, cap_hint=p.a / p.alpha)
        assert got[i] == want


@pytest.mark.parametrize("engine", [ORACLE_AFFINE, ORACLE_DOUBLED])
def test_haar_w_oracle_engine(engine):
    batch = _batch_measure(MeasureSpec.haar_w(), np.random.default_rng(59), 600)
    doubled = engine == ORACLE_DOUBLED
    sl, sa = batch["sl"], batch["sa"]
    r_sl, r_sa = _oracle_return_w(
        batch,
        SurfaceMode.DOUBLED_SLIT if doubled else SurfaceMode.AFFINE_ONLY,
        w_return_sl_vec(sl["a"], sl["b"], sl["v1"], sl["v2"]),
        w_return_sa_vec(sa["a"], sa["b"], sa["s"], sa["alpha"]),
    )
    for i in range(len(r_sl)):
        w = WPointSL(sl["a"][i], sl["b"][i], sl["v1"][i], sl["v2"][i])
        want = w_oracle_return(w_to_surface(w), doubled=doubled, cap_hint=w_return_time(w))
        assert r_sl[i] == want
    for i in range(len(r_sa)):
        w = WPointSA(OmegaCoords(sa["a"][i], sa["b"][i], sa["s"][i], sa["alpha"][i]))
        want = w_oracle_return(w_to_surface(w), doubled=doubled, cap_hint=w_return_time(w))
        assert r_sa[i] == want


@pytest.mark.parametrize("hint", [None, math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-9])
def test_batch_cap_hints(hint):
    # hints that fall back to the default cap, and tiny ones that force
    # many doublings, follow the per-point cap sequence surface by surface
    _, points = _region_points("OmegaR", 60, seed=61)
    surfaces = [_region_surface("OmegaR", p) for p in points]
    g, v = _stack(surfaces)
    hints = None if hint is None else [hint] * len(points)
    for mode in MODES:
        _assert_same(oracle_first_return_batch(g, v, mode, hints), surfaces, hints, mode=mode)
    for doubled in (False, True):
        batch = w_oracle_return_batch(g, v, doubled=doubled, cap_hints=hints)
        _assert_same(batch, surfaces, hints, doubled=doubled)


def test_batch_mixed_hints_force_doublings():
    cols, points = _region_points("WslRho", 100, seed=67)
    surfaces = [_region_surface("WslRho", p) for p in points]
    g, v = _stack(surfaces)
    formula = _formula_column("WslRho", cols).tolist()
    hints = [f * 1e-6 if i % 3 == 0 else (None if i % 3 == 1 else f) for i, f in enumerate(formula)]
    hints = [math.nan if h is None else h for h in hints]
    for mode in MODES:
        _assert_same(oracle_first_return_batch(g, v, mode, hints), surfaces, hints, mode=mode)


def test_batch_does_not_depend_on_chunking(monkeypatch):
    cols, points = _region_points("WReturn", 300, seed=71)
    hints = _formula_column("WReturn", cols).tolist()
    surfaces = [_region_surface("WReturn", p) for p in points]
    g, v = _stack(surfaces)
    caps = 2.0 * np.array(hints)

    def run():
        strips = [
            [(int(s), tuple(xy)) for s, xy in zip(*chunk)]
            for mode in MODES
            for chunk in strip_holonomy_batch(g, v, mode, caps)
        ]
        returns = [
            w_oracle_return_batch(g, v, doubled=d, cap_hints=hints).tolist()
            for d in (False, True)
        ]
        return [row for chunk in strips for row in chunk], returns, len(strips)

    ref_rows, ref_returns, ref_chunks = run()
    # blocks of 7 surfaces and chunks of 40 candidate rows split the batch
    # mid-list, and some single surfaces exceed the row budget
    monkeypatch.setattr(geometry, "STRIP_BLOCK", 7)
    monkeypatch.setattr(geometry, "STRIP_ROW_BUDGET", 40)
    rows, returns, chunks = run()
    assert chunks > ref_chunks
    assert rows == ref_rows
    assert returns == ref_returns


@pytest.mark.parametrize("mode", MODES)
def test_strip_holonomy_batch_matches_enumerate_strip(mode):
    _, points = _region_points("OmegaR", 100, seed=73)
    surfaces = [_region_surface("OmegaR", p) for p in points]
    g, v = _stack(surfaces)
    caps = np.linspace(0.5, 12.0, len(surfaces))
    got = {i: [] for i in range(len(surfaces))}
    for s, xy in strip_holonomy_batch(g, v, mode, caps):
        for i, row in zip(s.tolist(), xy.tolist()):
            got[i].append(tuple(row))
    for i, surf in enumerate(surfaces):
        want = sorted(map(tuple, enumerate_strip(surf, mode, float(caps[i])).tolist()))
        assert got[i] == want


def test_batch_empty_input():
    empty = np.empty(0)
    g, v = Mat2(empty, empty, empty, empty), Vec2(empty, empty)
    for mode in MODES:
        assert oracle_first_return_batch(g, v, mode).shape == (0,)
        assert oracle_first_return_batch(g, v, mode, empty).shape == (0,)
        assert list(strip_holonomy_batch(g, v, mode, empty)) == []
    for doubled in (False, True):
        assert w_oracle_return_batch(g, v, doubled=doubled, cap_hints=empty).shape == (0,)


def test_batch_raises_past_cap_limit():
    probes = _PROBES["OmegaR"]
    surfaces = [_region_surface("OmegaR", _point_dict("OmegaR", probes, i)) for i in range(3)]
    g, v = _stack(surfaces)
    hints = [None, 0.6 * CAP_LIMIT, None]
    with pytest.raises(NotOnTransversalError):
        oracle_first_return(surfaces[1], SurfaceMode.AFFINE_ONLY, cap_hint=hints[1])
    for mode in MODES:
        with pytest.raises(NotOnTransversalError):
            oracle_first_return_batch(g, v, mode, [math.nan if h is None else h for h in hints])
    with pytest.raises(NotOnTransversalError):
        w_oracle_return_batch(g, v, doubled=False, cap_hints=[1.0, 1e18, 1.0])


def test_batch_rejects_non_unimodular_generators():
    g = Mat2(np.array([1.0, 2.0]), 0.0, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        oracle_first_return_batch(g, Vec2(0.5, 0.0), SurfaceMode.AFFINE_ONLY)


def _section_point(region, p):
    """The validated section object of one difftest row (raises off it)."""
    if region == "DeltaR":
        return DeltaCoords(p["a"], p["b"])
    if region == "OmegaR" or p.get("kind") == "sa":
        point = OmegaCoords(p["a"], p["b"], p["s"], p["alpha"])
        return WPointSA(point) if region == "WReturn" else point
    return WPointSL(p["a"], p["b"], p["v1"], p["v2"])


@pytest.mark.parametrize(
    "region,v_domain",
    [(r, "fundamental") for r in REGIONS] + [("WslRho", "restricted")],
)
def test_region_rows_lie_on_their_section(region, v_domain):
    cols = _region_columns(region, worker_streams(3000, 83, 2), v_domain)
    n_rows = len(_formula_column(region, cols))
    assert n_rows == 3000 + (2 if region == "DeltaR" else 3)
    if region == "WReturn":
        assert np.count_nonzero(cols["is_sl"]) == len(cols["sl"]["a"])
        assert np.count_nonzero(~cols["is_sl"]) == len(cols["sa"]["a"])
    for i in range(n_rows):
        p = _point_dict(region, cols, i)
        _section_point(region, p)
        if v_domain == "restricted":
            assert 0.0 < p["v1"] < p["a"]


def _scalar_formula(region, p):
    if region == "DeltaR":
        return bcz_return_time(DeltaCoords(p["a"], p["b"]))
    if region == "OmegaR":
        return omega_return_time(OmegaCoords(p["a"], p["b"], p["s"], p["alpha"]))
    if region == "WslRho":
        return rho_sl_to_sa(p["a"], p["b"], p["v1"], p["v2"])
    return w_return_time(_section_point(region, p))


@pytest.mark.parametrize("region", REGIONS)
def test_scalar_formulas_match_difftest_column(region):
    # difftest checks the vectorized formulas against the oracle; the scalar
    # ones (orbit --engine formula) must agree with them bit for bit
    cols, points = _region_points(region, 20000, seed=89)
    column = _formula_column(region, cols).tolist()
    assert [_scalar_formula(region, p) for p in points] == column
