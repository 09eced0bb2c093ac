"""Enumeration oracle and the formula-vs-oracle differential tester."""

import logging
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from slitgaps import geometry, transversal
from slitgaps import oracle as oracle_module
from slitgaps.geometry import (
    AffineLattice,
    Mat2,
    SurfaceMode,
    Vec2,
    _strip_rows,
    enumerate_strip,
    horocycle_apply,
    slopes_and_gaps,
    strip_holonomy_batch,
)
from slitgaps.measures import (
    ORACLE_AFFINE,
    ORACLE_DOUBLED,
    REGIONS,
    MeasureSpec,
    _PROBES,
    _draw_batch,
    _formula_column,
    _oracle_column,
    _point_dict,
    _region_columns,
    _rows,
    chunk_streams,
    diff_test,
)
from slitgaps.oracle import (
    CAP_LIMIT,
    DEFAULT_CAP,
    REL_ERR_THRESHOLD,
    oracle_first_return_batch,
    oracle_strip_slopes,
    section_oracle_returns,
)
from slitgaps.errors import InvalidInputError, NotOnTransversalError
from slitgaps.transversal import (
    OMEGA,
    SA,
    SL,
    VERTICAL,
    OmegaCoords,
    _first_surface,
    check_rows,
    classify_omega,
    delta_basis,
    omega_region_vec,
    omega_return_vec,
    omega_to_surface,
    rho_sl_to_sa,
    row_columns,
    section_returns,
    section_step,
    section_surfaces,
    w_return_sl_vec,
)


def p_ab(a, b):
    return Mat2(a, b, 0.0, 1.0 / a)


def test_first_return_affine_worked():
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    got = oracle_first_return_batch(g, Vec2(0.75, 0.0), SurfaceMode.AFFINE_ONLY)
    assert math.isclose(got[0], 0.4, abs_tol=1e-12)


def test_first_return_shifted_square():
    got = oracle_first_return_batch(p_ab(1.0, 1.0), Vec2(0.5, 0.0), SurfaceMode.AFFINE_ONLY)
    assert math.isclose(got[0], 2.0, abs_tol=1e-12)


def test_first_return_doubled_beats_affine():
    got = oracle_first_return_batch(p_ab(0.6, 0.5), Vec2(0.5, 0.8), SurfaceMode.DOUBLED_SLIT)
    assert math.isclose(got[0], 13.0 / 9.0, abs_tol=1e-12)


def test_gap_sequence_shifted_integer_lattice():
    surf = AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), Vec2(0.5, 0.0))
    seq = np.diff(oracle_strip_slopes(surf, SurfaceMode.AFFINE_ONLY, 5), prepend=0.0)
    assert np.allclose(seq, 2.0, atol=1e-9)


def test_gap_sequence_primitive_lattice():
    # marking at a lattice point collapses the holonomy to the integer
    # lattice; strip slopes are 1, 2, 3, ... whatever the mode
    surf = AffineLattice(Mat2(1.0, 0.0, 0.0, 1.0), Vec2(1.0, 0.0))
    seq = np.diff(oracle_strip_slopes(surf, SurfaceMode.DOUBLED_SLIT, 5), prepend=0.0)
    assert np.allclose(seq, 1.0, atol=1e-9)


def test_gap_sequence_matches_strip_slopes():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.4, 1.0)
    b = rng.uniform(1.0 - a, 1.0)
    g = horocycle_apply(rng.uniform(0.0, 1.0), p_ab(a, b))
    surf = AffineLattice(g, g.apply(Vec2(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))))
    mode = SurfaceMode.DOUBLED_SLIT
    n = 100
    got = oracle_strip_slopes(surf, mode, n)
    series = slopes_and_gaps(enumerate_strip(surf, mode, math.inf, y_max=200.0))
    slopes = series.slopes[series.slopes > 1e-9]
    assert len(slopes) >= n
    assert np.max(np.abs(got - slopes[:n])) < 1e-7


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
    slopes = oracle_strip_slopes(surf, mode, n)
    assert np.max(np.abs(slopes - want) / want) <= 1e-12
    assert np.max(np.abs(np.diff(slopes, prepend=0.0) - np.diff(want, prepend=0.0)) / want) <= 1e-12


def test_gap_sequence_has_no_spurious_returns():
    # the ergodic test's start surface; flowing return by return drifts, and
    # once the drift passes any fixed skip threshold a just-crossed vector
    # comes back as a near-zero return and shifts every later index
    cols, _ = _draw_batch(MeasureSpec.haar_omega(), np.random.default_rng(19), 1)
    surf = omega_to_surface(OmegaCoords(*(c[0].item() for c in cols[1:])))
    n = 3000
    got = oracle_strip_slopes(surf, SurfaceMode.AFFINE_ONLY, n)
    slopes = slopes_and_gaps(
        enumerate_strip(surf, SurfaceMode.AFFINE_ONLY, 4.0 * n)
    ).slopes
    assert len(slopes) >= n
    assert np.max(np.abs(got - slopes[:n]) / slopes[:n]) <= 1e-9
    assert np.diff(got, prepend=0.0).min() >= 1e-6


@pytest.mark.parametrize("mode", list(SurfaceMode))
@pytest.mark.parametrize(
    "start, n, one_scan",
    [
        ((OMEGA, 0.5, 0.6, 2.0, 0.9), 1000, True),
        # one coset column at x = 0.05 every 0.5 high: slopes 10 apart, far
        # sparser than a generic surface's, so the first cap is doubled
        ((VERTICAL, 0.5, math.nan, 0.1, 0.05), 50, False),
    ],
)
def test_strip_slopes_from_the_expected_cap(monkeypatch, mode, start, n, one_scan):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_strip(*args, **kwargs)

    monkeypatch.setattr("slitgaps.oracle.enumerate_strip", counting)
    surf = _first_surface(row_columns([start]))
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


def _random_surfaces(seed, n, t_max):
    """n surfaces h_t(g) with (a, b) in the lattice-section triangle, a >=
    0.3, t < ``t_max`` and markings g*(c1, c2), c1 and c2 in (0.1, 0.9)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.3, 1.0, n)
    b = rng.uniform(1.0 - a, 1.0)
    g = horocycle_apply(rng.uniform(0.0, t_max, n), p_ab(a, b))
    return g, g.apply(Vec2(rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n)))


def test_cap_monotonicity():
    g, v = _random_surfaces(23, 20, 2.0)
    base = oracle_first_return_batch(g, v, SurfaceMode.DOUBLED_SLIT)
    for scale in (0.25, 1.0, 8.0):
        again = oracle_first_return_batch(g, v, SurfaceMode.DOUBLED_SLIT, base * scale)
        assert np.allclose(base, again, rtol=1e-12, atol=1e-12)


def test_mode_ordering():
    g, v = _random_surfaces(29, 50, 2.0)
    doubled = oracle_first_return_batch(g, v, SurfaceMode.DOUBLED_SLIT)
    affine = oracle_first_return_batch(g, v, SurfaceMode.AFFINE_ONLY)
    assert (doubled <= affine + 1e-12).all()


FROZEN_O2_INPUT = (
    OMEGA, 0.8498002709295481, 0.7823342819814268, 0.7317215657226075, 0.3268289782271856
)


def test_frozen_return_time_counterexample():
    # the alpha <= a, b + alpha > 1 closed form overshoots here: enumeration
    # finds the coefficient pair (-2, 3) arriving first
    cols = row_columns([FROZEN_O2_INPUT])
    formula = section_returns(cols)[0]
    oracle = oracle_first_return_batch(*section_surfaces(cols), SurfaceMode.AFFINE_ONLY)[0]
    assert math.isclose(formula, 4.727403155330044, abs_tol=1e-9)
    assert math.isclose(oracle, 3.1373690337988527, abs_tol=1e-9)
    assert formula - oracle > 1.0


def test_formula_matches_oracle_off_the_wrapped_regions():
    rng = np.random.default_rng(31)
    n = 400
    a = rng.uniform(0.2, 1.0, n)
    b = rng.uniform(1.0 - a, 1.0)
    s = rng.uniform(0.0, 1.0 / (a * b))
    alpha = rng.uniform(0.05, 1.0, n)
    keep = np.isin(omega_region_vec(a, b, s, alpha), (1, 3))
    assert keep.sum() >= 60
    cols = _rows(OMEGA, a[keep], b[keep], s[keep], alpha[keep])
    u = oracle_first_return_batch(*section_surfaces(cols), SurfaceMode.AFFINE_ONLY)
    assert np.allclose(section_returns(cols), u, rtol=1e-9, atol=1e-9)


def test_formula_matches_oracle_vertical():
    rng = np.random.default_rng(37)
    n = 30
    a = rng.uniform(0.2, 1.0, n)
    cols = _rows(VERTICAL, a, np.full(n, np.nan), rng.uniform(0.0, a * a), rng.uniform(0.05, 1.0, n))
    u = oracle_first_return_batch(*section_surfaces(cols), SurfaceMode.AFFINE_ONLY)
    assert np.allclose(section_returns(cols), u, rtol=1e-9, atol=1e-9)


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


def test_diff_test_rejects_unknown_mode():
    with pytest.raises(InvalidInputError, match="unknown mode 'foo'"):
        diff_test("DeltaR", 100, seed=0, mode="foo")


def test_diff_test_deterministic():
    a = diff_test("OmegaR", 500, seed=11, workers=2).to_dict()
    b = diff_test("OmegaR", 500, seed=11, workers=2).to_dict()
    assert a == b


def test_diff_test_huge_worker_count_matches_one_worker_per_point():
    # the worker count only sets the processes, at most the core count
    huge = diff_test("OmegaR", 500, seed=11, workers=10**12).to_dict()
    each = diff_test("OmegaR", 500, seed=11, workers=500).to_dict()
    assert (huge.pop("workers"), each.pop("workers")) == (10**12, 500)
    assert huge == each


# ---------------------------------------------------------------------------
# batched oracle: bit-identical to an independent sorted reference


MODES = (SurfaceMode.AFFINE_ONLY, SurfaceMode.DOUBLED_SLIT)
# the candidate sets of the batched oracle: a mode, or the slit-cover set
CANDIDATE_SETS = ("affine", "doubled", "slit-cover")


def _oracle_of(kind, g, v, hints):
    lattice = kind == "slit-cover"
    return oracle_first_return_batch(g, v, SurfaceMode("affine" if lattice else kind), hints, lattice=lattice)


def _sorted_first_return(g, v, mode, hints):
    """An independent reference for the first return: the per-surface
    minimum of y/x over the sorted, deduplicated ``strip_holonomy_batch``
    rows, with caps that start at twice the hint (not at the oracle's
    first cap) and double while a surface's window is empty."""
    *fields, hints = np.broadcast_arrays(*g, *v, np.asarray(hints, dtype=float))
    cap = np.where(np.isfinite(hints) & (hints > 0), 2.0 * hints, DEFAULT_CAP)
    out = np.full(len(hints), np.inf)
    todo = np.arange(len(hints))
    while todo.size:
        assert cap[todo].max() <= CAP_LIMIT
        found = np.full(len(todo), np.inf)
        sub = [f[todo] for f in fields]
        for s, xy in strip_holonomy_batch(Mat2(*sub[:4]), Vec2(*sub[4:]), mode, cap[todo]):
            np.minimum.at(found, s, xy[:, 1] / xy[:, 0])
        out[todo] = found
        todo = todo[np.isinf(found)]
        cap[todo] *= 2.0
    return out


def _reference_of(kind, g, v, hints):
    """``_sorted_first_return`` of the candidate set; the slit-cover set is
    the smaller of the lattice's (v = 0) and the coset's minima."""
    if kind == "slit-cover":
        lattice = _sorted_first_return(g, Vec2(0.0, 0.0), SurfaceMode.AFFINE_ONLY, hints)
        return np.minimum(lattice, _sorted_first_return(g, v, SurfaceMode.AFFINE_ONLY, hints))
    return _sorted_first_return(g, v, SurfaceMode(kind), hints)


def _region_batch(region, n, seed):
    """Probes plus n draws of the region: its columns, their surfaces (g, v)
    (DeltaR's lattices as the coset at v = 0) and the formula column."""
    cols = _region_columns(region, chunk_streams(n, seed), "fundamental")
    g, v = (delta_basis(cols.a, cols.b), Vec2(0.0, 0.0)) if region == "DeltaR" else section_surfaces(cols)
    return cols, g, v, _formula_column(region, cols)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("region", REGIONS)
def test_difftest_oracle_column_bit_identical(region, mode):
    cols, g, v, hints = _region_batch(region, 300, seed=41)
    kind = {"DeltaR": "doubled", "OmegaR": "affine", "WslRho": mode.value}.get(
        region, "slit-cover" if mode is SurfaceMode.AFFINE_ONLY else "doubled"
    )
    got = _oracle_column(region, cols, mode, hints)
    assert np.array_equal(got, _reference_of(kind, g, v, hints))


@pytest.mark.parametrize("region", REGIONS)
def test_batch_kernel_bit_identical_both_modes(region):
    _, g, v, hints = _region_batch(region, 200, seed=43)
    for kind in CANDIDATE_SETS:
        assert np.array_equal(_oracle_of(kind, g, v, hints), _reference_of(kind, g, v, hints)), kind


def test_torsion_markings_doubled_keep_the_dedup():
    # on torsion markings the +-v cosets coincide up to rounding, so the
    # near-duplicate drop decides which representative sets the minimum
    cols, _ = _draw_batch(MeasureSpec.torsion(2), np.random.default_rng(47), 1500)
    hints = omega_return_vec(cols.a, cols.b, cols.s, cols.alpha)
    got = section_oracle_returns(cols, SurfaceMode.DOUBLED_SLIT, hints)
    assert np.array_equal(got, _sorted_first_return(*section_surfaces(cols), SurfaceMode.DOUBLED_SLIT, hints))


@pytest.mark.parametrize("engine", [ORACLE_AFFINE, ORACLE_DOUBLED])
def test_periodic_omega_vertical_surfaces(engine):
    cols, _ = _draw_batch(MeasureSpec.periodic_omega(0.7, 0.4), np.random.default_rng(53), 400)
    mode = SurfaceMode.DOUBLED_SLIT if engine == ORACLE_DOUBLED else SurfaceMode.AFFINE_ONLY
    hints = cols.a / cols.alpha
    got = section_oracle_returns(cols, mode, hints)
    assert np.array_equal(got, _sorted_first_return(*section_surfaces(cols), mode, hints))


@pytest.mark.parametrize("engine", [ORACLE_AFFINE, ORACLE_DOUBLED])
def test_haar_w_oracle_engine(engine):
    cols, _ = _draw_batch(MeasureSpec.haar_w(), np.random.default_rng(59), 600)
    doubled = engine == ORACLE_DOUBLED
    hints = section_returns(cols)
    r = section_oracle_returns(cols, SurfaceMode.DOUBLED_SLIT if doubled else SurfaceMode.AFFINE_ONLY, hints)
    n_sl = np.count_nonzero(cols.kind == SL)
    assert (cols.kind[:n_sl] == SL).all() and (cols.kind[n_sl:] == SA).all()
    want = _reference_of("doubled" if doubled else "slit-cover", *section_surfaces(cols), hints)
    assert np.array_equal(r, want)


@pytest.mark.parametrize("mode", MODES)
def test_section_oracle_returns_of_mixed_kinds_match_the_per_point_oracles(mode):
    # affine, vertical-lattice and slit-cover rows in one set of columns: under
    # AFFINE_ONLY each family keeps its own candidate set, so every row returns
    # what its own one-row batch returns, and that is the sorted reference
    points = [
        (OMEGA, 0.5, 0.6, 2.0, 0.9), (SL, 0.6, 0.5, 0.3, 0.5), (VERTICAL, 0.7, math.nan, 0.2, 0.4),
        (SA, 0.8, 0.5, 1.0, 0.3), (SL, 0.6, 0.5, 0.5, 0.8), (OMEGA, 0.5, 1.0, 0.2, 0.75),
    ]
    cols = row_columns(points)
    hints = section_returns(cols)
    got = section_oracle_returns(cols, mode, hints)
    slit_cover = (mode is SurfaceMode.AFFINE_ONLY) & (cols.kind >= SL)
    per_point = np.empty(len(points))
    for k, (p, hint) in enumerate(zip(points, hints)):
        g, v = section_surfaces(row_columns([p]))
        kind = "slit-cover" if slit_cover[k] else mode.value
        per_point[k] = _oracle_of(kind, g, v, np.array([hint]))[0]
    assert np.array_equal(got, per_point)
    want = np.empty(len(points))
    for rows, kind in ((slit_cover, "slit-cover"), (~slit_cover, mode.value)):
        sub = row_columns([p for p, row in zip(points, rows) if row])
        want[rows] = _reference_of(kind, *section_surfaces(sub), hints[rows])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("hint", [None, math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-9])
def test_batch_cap_hints(hint):
    # hints that fall back to the default cap, and tiny ones that force
    # many doublings, still give every surface its own return
    cols, g, v, _ = _region_batch("OmegaR", 60, seed=61)
    hints = None if hint is None else np.full(len(cols.kind), hint)
    for kind in CANDIDATE_SETS:
        assert np.array_equal(_oracle_of(kind, g, v, hints), _reference_of(kind, g, v, hints)), kind


def test_batch_mixed_hints_force_doublings():
    _, g, v, formula = _region_batch("WslRho", 100, seed=67)
    third = np.arange(len(formula)) % 3
    hints = np.where(third == 0, formula * 1e-6, np.where(third == 1, math.nan, formula))
    for mode in MODES:
        assert np.array_equal(oracle_first_return_batch(g, v, mode, hints), _sorted_first_return(g, v, mode, hints))


def test_batch_does_not_depend_on_chunking(monkeypatch):
    _, g, v, hints = _region_batch("WReturn", 300, seed=71)
    caps = 2.0 * hints

    def run():
        strips = [
            [(int(s), tuple(xy)) for s, xy in zip(*chunk)]
            for mode in MODES
            for chunk in strip_holonomy_batch(g, v, mode, caps)
        ]
        returns = [_oracle_of(kind, g, v, hints).tolist() for kind in ("slit-cover", "doubled")]
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


def _omega_batch(n, seed):
    """The surfaces of n OmegaR draws (plus the probes), with the formula
    returns as hints."""
    return _region_batch("OmegaR", n, seed)[1:]


@pytest.mark.parametrize("budget", [None, 64])
def test_affine_minimum_of_raw_rows_equals_the_sorted_minimum(monkeypatch, budget):
    # more surfaces than one block, a third of them with hints a million
    # times too small so that their caps double for many rounds; the block
    # is pinned so that two blocks stay this small
    monkeypatch.setattr(geometry, "STRIP_BLOCK", 1024)
    g, v, hints = _omega_batch(geometry.STRIP_BLOCK + 300, seed=79)
    hints[::3] *= 1e-6
    if budget is not None:
        monkeypatch.setattr(geometry, "STRIP_ROW_BUDGET", budget)
    mode = SurfaceMode.AFFINE_ONLY
    assert -(-len(hints) // geometry.STRIP_BLOCK) == 2
    if budget is not None:
        # several chunks per block
        assert sum(1 for _ in _strip_rows(g, v, mode, 2.0 * hints)) > 4
    got = oracle_first_return_batch(g, v, mode, hints)
    assert (got[::3] > 2.0 * hints[::3]).all()
    assert np.array_equal(got, _sorted_first_return(g, v, mode, hints))


@pytest.mark.parametrize("half", [(0.5, 0.5), (0.5, 0.0), (0.0, 0.5)])
def test_doubled_half_period_markings_keep_the_dedup(half):
    # at v = g*half, 2v is in the lattice: the +v and -v cosets hold the same
    # points, computed with different rounding, so the minimum over the raw
    # rows differs from the deduplicated one on some surfaces
    g, _, hints = _omega_batch(600, seed=83)
    v = g.apply(Vec2(*half))
    mode = SurfaceMode.DOUBLED_SLIT
    got = oracle_first_return_batch(g, v, mode, hints)
    assert np.array_equal(got, _sorted_first_return(g, v, mode, hints))
    raw = np.full(len(hints), np.inf)
    for s, x, y in _strip_rows(g, v, mode, 2.0 * hints):
        np.minimum.at(raw, s, y / x)
    seen = np.isfinite(raw)
    assert seen.any() and (raw[seen] != got[seen]).any()


@pytest.mark.parametrize("region", ["DeltaR", "WReturn"])
def test_zero_coset_lattice_minimum_equals_the_doubled_one(region):
    # the lattice alone, scanned once as the affine coset at v = 0, against
    # the doubled holonomy at v = 0 (primitive vectors and the two +-0
    # cosets, sorted and deduplicated)
    cols = _region_columns(region, chunk_streams(5000, 89), "fundamental")
    hints = _formula_column(region, cols)
    zero = Vec2(0.0, 0.0)
    g, v = (delta_basis(cols.a, cols.b), zero) if region == "DeltaR" else section_surfaces(cols)
    doubled = oracle_first_return_batch(g, zero, SurfaceMode.DOUBLED_SLIT, hints)
    assert np.array_equal(oracle_first_return_batch(g, zero, SurfaceMode.AFFINE_ONLY, hints), doubled)
    # DeltaR's marking is 0 too, so its coset minimum is the lattice's
    want = np.minimum(doubled, oracle_first_return_batch(g, v, SurfaceMode.AFFINE_ONLY, hints))
    assert np.array_equal(_oracle_column(region, cols, SurfaceMode.AFFINE_ONLY, hints), want)


@pytest.mark.parametrize("mode", MODES)
def test_strip_holonomy_batch_matches_enumerate_strip(mode):
    cols, g, v, _ = _region_batch("OmegaR", 100, seed=73)
    surfaces = [omega_to_surface(OmegaCoords(*row[1:])) for row in zip(*(c.tolist() for c in cols))]
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
        got = oracle_first_return_batch(g, v, mode, empty)
        assert got.shape == (0,) and np.array_equal(got, _sorted_first_return(g, v, mode, empty))
        assert list(strip_holonomy_batch(g, v, mode, empty)) == []
    assert oracle_first_return_batch(g, v, SurfaceMode.AFFINE_ONLY, empty, lattice=True).shape == (0,)


def test_batch_raises_past_cap_limit():
    g, v = section_surfaces(_PROBES["OmegaR"])
    one = omega_to_surface(OmegaCoords(0.8, 0.5, 1.0, 0.3))
    past = math.nextafter(CAP_LIMIT, math.inf)
    with pytest.raises(NotOnTransversalError):
        oracle_first_return_batch(one.g, one.v, SurfaceMode.AFFINE_ONLY, past)
    for mode in MODES:
        with pytest.raises(NotOnTransversalError):
            oracle_first_return_batch(g, v, mode, [math.nan, past, math.nan])
    with pytest.raises(NotOnTransversalError):
        _oracle_of("slit-cover", g, v, [1.0, 1e18, 1.0])
    # a first cap of 0.6 * CAP_LIMIT is under the limit, so it is scanned and
    # refused by the kernel's scan-size guard before anything is allocated
    with pytest.raises(InvalidInputError, match="rows of n-range"):
        oracle_first_return_batch(one.g, one.v, SurfaceMode.AFFINE_ONLY, 0.6 * CAP_LIMIT)


# no point of this coset has 0 < x <= 1, so every strip window is empty
EMPTY_STRIP = AffineLattice(Mat2(2.0, 0.0, 0.0, 0.5), Vec2(1.5, 0.0))


def test_a_runaway_cap_sequence_has_no_return(monkeypatch):
    # the caps double until the kernel refuses the scan, long before
    # CAP_LIMIT: that is no return, chained from the kernel's refusal
    monkeypatch.setattr(geometry, "SCAN_ROW_LIMIT", 1 << 16)
    calls = (
        lambda: oracle_first_return_batch(EMPTY_STRIP.g, EMPTY_STRIP.v, SurfaceMode.AFFINE_ONLY),
        lambda: oracle_strip_slopes(EMPTY_STRIP, SurfaceMode.AFFINE_ONLY, 5),
        lambda: oracle_module.oracle_orbit(EMPTY_STRIP, SurfaceMode.AFFINE_ONLY, 5),
    )
    for call in calls:
        with pytest.raises(NotOnTransversalError, match="no positive-slope") as info:
            call()
        assert isinstance(info.value.__cause__, InvalidInputError)
    # a first cap too large to scan stays a usage error
    with pytest.raises(InvalidInputError, match="scan too large"):
        oracle_strip_slopes(EMPTY_STRIP, SurfaceMode.AFFINE_ONLY, 10**5)


@pytest.mark.parametrize("hint", [1e300, 1e308, sys.float_info.max])
def test_huge_finite_hints_raise(hint):
    # the first cap is hint * (1 + REL_ERR_THRESHOLD): past CAP_LIMIT, or
    # overflowed to inf, it raises; it never falls back to DEFAULT_CAP
    g, v = section_surfaces(row_columns([(OMEGA, 0.5, 0.6, 2.0, 0.9), (OMEGA, 0.8, 0.5, 1.0, 0.3)]))
    for kind in CANDIDATE_SETS:
        for hints in ([hint, 1.0], [1.0, hint]):
            with pytest.raises(NotOnTransversalError):
                _oracle_of(kind, g, v, hints)


@pytest.mark.parametrize("kind", CANDIDATE_SETS)
def test_first_cap_is_just_above_the_hint(monkeypatch, kind):
    g, v, hints = _omega_batch(40, seed=97)
    hints[:6] = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-9]
    calls = []

    def recording(*args, **kwargs):
        calls.append((np.array(args[3], dtype=float), kwargs.get("lattice", False)))
        return _strip_rows(*args, **kwargs)

    monkeypatch.setattr("slitgaps.oracle._strip_rows", recording)
    _oracle_of(kind, g, v, hints)
    first, lattice = calls[0]
    ok = np.isfinite(hints) & (hints > 0)
    assert np.array_equal(first, np.where(ok, hints * (1.0 + REL_ERR_THRESHOLD), DEFAULT_CAP))
    assert lattice == (kind == "slit-cover")
    # the 1e-9 hint's window is empty, so the next round rescans it at twice
    # its first cap
    assert len(calls) > 1 and 2.0 * first[5] in calls[1][0]


def _marked_batch(n, seed):
    """n OmegaR surfaces (plus the probes) with their own markings, then the
    same generators at each half-period marking g*(1/2, 1/2), g*(1/2, 0) and
    g*(0, 1/2)."""
    g, v, hints = _omega_batch(n, seed)
    vs = [v] + [g.apply(Vec2(*half)) for half in ((0.5, 0.5), (0.5, 0.0), (0.0, 0.5))]
    column = [np.broadcast_to(c, hints.shape) for c in (*g, *(c for w in vs for c in w))]
    return (
        Mat2(*(np.tile(f, len(vs)) for f in column[:4])),
        Vec2(np.concatenate(column[4::2]), np.concatenate(column[5::2])),
    )


@pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-9, 0.5, 1e-6])
@pytest.mark.parametrize("kind", CANDIDATE_SETS)
def test_tight_caps_equal_the_sorted_reference(kind, scale):
    # the true return (an exact hint) and hints just under it, at half of
    # it and a million times too small: the first window then holds the
    # return, holds it only through the relative margin, or is empty
    g, v = _marked_batch(500, seed=101)
    exact = _reference_of(kind, g, v, None)
    hints = exact * scale
    got = _oracle_of(kind, g, v, hints)
    assert np.array_equal(got, exact)
    assert np.array_equal(got, _reference_of(kind, g, v, hints))


def test_joint_slit_cover_pass_equals_two_separate_scans():
    cols = _region_columns("WReturn", chunk_streams(3000, 103), "fundamental")
    g, v = section_surfaces(cols)
    formula = _formula_column("WReturn", cols)
    lattice = oracle_first_return_batch(g, Vec2(0.0, 0.0), SurfaceMode.AFFINE_ONLY, formula)
    coset = oracle_first_return_batch(g, v, SurfaceMode.AFFINE_ONLY, formula)
    union = np.minimum(lattice, coset)
    # the union's return as the hint undershoots the larger component
    assert (np.maximum(lattice, coset) > union * (1.0 + REL_ERR_THRESHOLD)).sum() > 100
    for hints in (formula, union, 0.5 * union, np.where(lattice < coset, lattice, 0.5 * coset)):
        separate = np.minimum(
            oracle_first_return_batch(g, Vec2(0.0, 0.0), SurfaceMode.AFFINE_ONLY, hints),
            oracle_first_return_batch(g, v, SurfaceMode.AFFINE_ONLY, hints),
        )
        assert np.array_equal(_oracle_of("slit-cover", g, v, hints), separate)
        assert np.array_equal(separate, union)


_BATCH_LOG = re.compile(
    r"oracle batch \((?P<set>[a-z +]+)\): (?P<n>\d+) surfaces, (?P<rounds>\d+) rounds, "
    r"(?P<rescanned>\d+) re-scanned after round 1, largest cap (?P<cap>\S+), (?P<blocks>\d+) kernel blocks$"
)


@pytest.mark.parametrize("kind", CANDIDATE_SETS)
def test_batch_logs_one_debug_line_per_call(caplog, kind):
    g, v, _ = _omega_batch(60, seed=107)
    exact = _oracle_of(kind, g, v, None)
    hints = exact.copy()
    hints[::4] *= 1e-6
    caplog.set_level(logging.INFO, logger="slitgaps.oracle")
    _oracle_of(kind, g, v, hints)
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="slitgaps.oracle")
    _oracle_of(kind, g, v, exact)
    _oracle_of(kind, g, v, hints)
    one, tiny = (_BATCH_LOG.match(r.getMessage()) for r in caplog.records)
    label = "affine + lattice" if kind == "slit-cover" else kind
    assert one["set"] == tiny["set"] == label
    assert int(one["n"]) == int(tiny["n"]) == len(exact)
    assert (int(one["rounds"]), int(one["rescanned"])) == (1, 0)
    assert float(one["cap"]) == pytest.approx(exact.max() * (1.0 + REL_ERR_THRESHOLD), rel=1e-5)
    assert int(tiny["rounds"]) > 10 and int(tiny["rescanned"]) == len(hints[::4])
    assert float(tiny["cap"]) >= float(one["cap"])
    # every round scans fewer surfaces than one block
    assert int(one["blocks"]) == 1 and int(tiny["blocks"]) == int(tiny["rounds"])


_SCAN_LOG = re.compile(r"box scan: (\d+) jobs, (\d+) n-rows, (\d+) candidate rows, (\d+) rows kept$")


def test_box_scans_log_their_rows_and_expand_few_candidates(caplog):
    # one DEBUG line per kernel call; on OmegaR draws with their formula
    # hints the ranges, widened by rounding slack only, expand fewer than
    # 2.5 candidate rows per row kept (whole-row padding expanded about 6)
    cols = _region_columns("OmegaR", [(np.random.default_rng([1, 0]), 25_000)], "fundamental")
    hints = _formula_column("OmegaR", cols)
    caplog.set_level(logging.INFO, logger="slitgaps.geometry")
    quiet = _oracle_column("OmegaR", cols, SurfaceMode.AFFINE_ONLY, hints)
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="slitgaps.geometry")
    assert np.array_equal(_oracle_column("OmegaR", cols, SurfaceMode.AFFINE_ONLY, hints), quiet)
    rows = [_SCAN_LOG.match(r.getMessage()) for r in caplog.records if r.name == "slitgaps.geometry"]
    jobs, n_rows, candidates, kept = np.array([[int(k) for k in m.groups()] for m in rows]).sum(axis=0)
    assert len(rows) >= -(-len(hints) // geometry.STRIP_BLOCK) and jobs >= len(hints)
    assert kept >= len(hints)
    assert candidates <= 2.5 * kept


def test_oracle_column_does_not_depend_on_the_block_size(monkeypatch, caplog):
    cols = _region_columns("OmegaR", [(np.random.default_rng([1, 0]), 25_000)], "fundamental")
    hints = _formula_column("OmegaR", cols)
    caplog.set_level(logging.DEBUG, logger="slitgaps.oracle")
    want = _oracle_column("OmegaR", cols, SurfaceMode.AFFINE_ONLY, hints)
    monkeypatch.setattr(geometry, "STRIP_ROW_BUDGET", 64)
    assert np.array_equal(_oracle_column("OmegaR", cols, SurfaceMode.AFFINE_ONLY, hints), want)
    monkeypatch.setattr(geometry, "STRIP_BLOCK", 1024)
    monkeypatch.setattr(geometry, "STRIP_ROW_BUDGET", 1 << 14)
    assert np.array_equal(_oracle_column("OmegaR", cols, SurfaceMode.AFFINE_ONLY, hints), want)
    # one round: the kernel blocks are the surfaces over the block size
    blocks = [int(_BATCH_LOG.match(r.getMessage())["blocks"]) for r in caplog.records]
    assert blocks == [-(-len(hints) // 2048)] * 2 + [-(-len(hints) // 1024)]


@pytest.mark.parametrize("region, mode", [
    ("OmegaR", SurfaceMode.AFFINE_ONLY), ("WslRho", SurfaceMode.DOUBLED_SLIT),
    ("WReturn", SurfaceMode.AFFINE_ONLY), ("WReturn", SurfaceMode.DOUBLED_SLIT),
])
def test_oracle_column_leaves_its_columns_unchanged(region, mode):
    # the surfaces may share memory with the columns, which stay as drawn
    cols = _region_columns(region, chunk_streams(400, 131), "fundamental")
    before = [c.copy() for c in cols]
    hints = _formula_column(region, cols)
    saved = hints.copy()
    _oracle_column(region, cols, mode, hints)
    section_oracle_returns(cols, mode, hints)
    assert all(np.array_equal(c, b, equal_nan=True) for c, b in zip(cols, before))
    assert np.array_equal(hints, saved, equal_nan=True)


def test_batch_rejects_non_unimodular_generators():
    g = Mat2(np.array([1.0, 2.0]), 0.0, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        oracle_first_return_batch(g, Vec2(0.5, 0.0), SurfaceMode.AFFINE_ONLY)


def _check_section_point(region, p):
    """The range check of one difftest row's section point (raises off it);
    a DeltaR point (a, b) checks as the omega row (a, b, 0, 1)."""
    if region == "DeltaR":
        row = (OMEGA, p["a"], p["b"], 0.0, 1.0)
    elif region == "OmegaR" or p.get("kind") == "sa":
        row = (SA if region == "WReturn" else OMEGA, p["a"], p["b"], p["s"], p["alpha"])
    else:
        row = (SL, p["a"], p["b"], p["v1"], p["v2"])
    check_rows(row_columns([row]))


@pytest.mark.parametrize(
    "region,v_domain",
    [(r, "fundamental") for r in REGIONS] + [("WslRho", "restricted")],
)
def test_region_rows_lie_on_their_section(region, v_domain):
    cols = _region_columns(region, chunk_streams(3000, 83), v_domain)
    n_rows = len(_formula_column(region, cols))
    assert n_rows == 3000 + (2 if region == "DeltaR" else 3)
    if region == "WReturn":
        assert np.count_nonzero(cols.kind == SL) + np.count_nonzero(cols.kind == SA) == n_rows
    for i in range(n_rows):
        p = _point_dict(region, cols, i)
        _check_section_point(region, p)
        if v_domain == "restricted":
            assert 0.0 < p["v1"] < p["a"]


def _scalar_formula(region, row):
    """One row's return as the formula orbit evaluates it: ``section_step``
    on an affine row, and the size-1 ``section_returns`` call it makes on a
    slit-cover row; WslRho's travel time ``rho_sl_to_sa`` of one row."""
    if region == "WslRho":
        return rho_sl_to_sa(*row[1:])
    if region == "OmegaR":
        return section_step(*row)[0]
    return float(section_returns(row_columns([row]))[0])


@pytest.mark.parametrize("region", ["OmegaR", "WslRho", "WReturn"])
def test_scalar_formulas_match_difftest_column(region):
    # difftest checks the vectorized formulas against the oracle; the scalar
    # ones (orbit --engine formula) must agree with them bit for bit
    cols, _, _, column = _region_batch(region, 20000, seed=89)
    rows = zip(*(c.tolist() for c in cols))
    assert [_scalar_formula(region, row) for row in rows] == column.tolist()


_O1_THRESHOLD = (0.9 - 0.5) / (0.5 * 0.8 * 0.9)


@pytest.mark.parametrize(
    "q",
    [
        (0.5, 0.6, 0.0, 0.4),  # b + alpha = 1: O3
        (0.5, 0.6, 1.0, 0.5 + 5e-13),  # alpha within TIE_TOL above a: O4
        (0.5, 0.8, _O1_THRESHOLD * (1 + 5e-13), 0.9),  # s at the O1/O2 threshold: O1
        (0.5, 0.8, 0.3, 0.5),  # alpha = a exactly: O4
    ],
)
def test_omega_tie_points_agree_across_forms(q):
    # on a region boundary the vectorized column, the formula orbit's step
    # and the oracle all take the tie rule's side
    p = OmegaCoords(*q)
    assert f"O{int(omega_region_vec(*q))}" == classify_omega(p).value
    column = float(omega_return_vec(*q))
    assert column == section_step(OMEGA, *q)[0]
    oracle = oracle_first_return_batch(*section_surfaces(row_columns([(OMEGA, *q)])), SurfaceMode.AFFINE_ONLY)
    assert math.isclose(column, oracle[0], rel_tol=1e-9)


def test_short_lattice_tie_point_agrees_across_forms():
    # b + v1 = 1 + 5e-13 lands short within TIE_TOL
    w = (SL, 0.6, 0.5, 0.5 + 5e-13, 0.8)
    column = float(w_return_sl_vec(*w[1:]))
    assert column == section_step(*w)[0]
    oracle = _oracle_of("slit-cover", *section_surfaces(row_columns([w])), None)
    assert math.isclose(column, oracle[0], rel_tol=1e-9)
    assert math.isclose(column, 0.8 / (0.5 + 5e-13), rel_tol=1e-15)


@pytest.mark.parametrize(
    "name",
    ["omega_region_vec", "omega_return_vec", "w_return_sa_vec", "w_return_sl_vec",
     "section_returns", "section_surfaces"],
)
def test_return_formulas_have_one_definition(name):
    import slitgaps.measures
    import slitgaps.oracle
    import slitgaps.transversal

    # a module that names a formula or evaluator has transversal's
    formula = getattr(slitgaps.transversal, name)
    assert getattr(slitgaps.measures, name, formula) is formula
    assert getattr(slitgaps.oracle, name, formula) is formula


# the three scans an oracle orbit made of its start surface before it read
# everything off one pass, kept here to compare the pass against: the strip
# slopes (``oracle_strip_slopes``, unchanged), the primitive lattice strip
# at slope t[-1] for the anchors, and a box per coset for the alphas


def _three_scan_anchors(g, start, t):
    a0, b0, s0 = start
    a, b, s = np.full(len(t), a0), np.full(len(t), b0), s0 + t
    if t[-1] <= 0.0:
        return a, b, s
    pts = geometry._lattice_scan(g, Vec2(0.0, 0.0), x_max=1.0, slope_max=float(t[-1]), primitive=True)
    slope = pts[:, 1] / pts[:, 0]
    order = np.lexsort((-pts[:, 0], slope))
    pts, slope = pts[order], slope[order]
    i = np.searchsorted(slope, t, side="right") - 1
    hit = i >= 0
    used, which = np.unique(i[hit], return_inverse=True)
    a[hit] = pts[i[hit], 0]
    b[hit] = transversal._completion_b(g, pts[used, 0], pts[used, 2], pts[used, 3])[which]
    s[hit] = np.maximum(t[hit] - slope[i[hit]], 0.0)
    return a, b, s


def _three_scan_alpha(g, v, t):
    tol = transversal.HORIZONTAL_TOL
    pts = geometry.lattice_box(
        g, v, math.nextafter(geometry.X_EPS, math.inf), 1.0 + transversal.COORD_SLACK,
        -tol, float(t[-1]) * (1.0 + transversal.COORD_SLACK) + tol,
    )
    x, slope = pts[:, 0], pts[:, 1] / pts[:, 0]
    reach = tol / x + transversal.COORD_SLACK * np.maximum(1.0, np.abs(slope))
    first = np.searchsorted(t, slope - reach, side="left")
    last = np.searchsorted(t, slope + reach, side="right")
    k, point = geometry._ragged(first, last - first, np.arange(len(first)))
    keep = np.abs(slope[point] - t[k]) * x[point] <= tol
    alpha = np.full(len(t), np.inf)
    np.minimum.at(alpha, k[keep], x[point[keep]])
    return alpha


P1 = (OMEGA, 0.8558403872803663, 0.732080999270255, 0.04227081954827937, 0.7847818328370264)

# (start, mode, steps, cap rounds)
ONE_PASS_EDGES = [
    # the first return is 1e-10, below HORIZONTAL_TOL, so the start's own
    # marking point at y = 0 is in the alpha window of the first landing
    ((OMEGA, 0.5, 0.6, 8e-11, 0.9), SurfaceMode.AFFINE_ONLY, 300, 1),
    ((OMEGA, 0.5, 0.6, 8e-11, 0.9), SurfaceMode.DOUBLED_SLIT, 300, 1),
    # the last return lands 0.2 (affine) or 0.8 (doubled) below the first
    # cap 8, well within HORIZONTAL_TOL / X_EPS = 1000 of it
    (P1, SurfaceMode.AFFINE_ONLY, 3, 1),
    (P1, SurfaceMode.DOUBLED_SLIT, 8, 1),
    # the doubled orbit that switches to the negated marking's coset
    ((VERTICAL, 0.8, math.nan, 0.3, 0.5), SurfaceMode.DOUBLED_SLIT, 500, 1),
    # one column of marking points, sparser than a generic surface's: the
    # first cap holds too few slopes and doubles once
    ((VERTICAL, 0.9, math.nan, 0.3, 0.2), SurfaceMode.AFFINE_ONLY, 300, 2),
]


@pytest.mark.parametrize("start, mode, count, rounds", ONE_PASS_EDGES)
def test_one_pass_orbit_matches_the_three_scan_rule(monkeypatch, start, mode, count, rounds):
    surface = _first_surface(row_columns([start]))
    g, v = surface.g, surface.v
    passes = []
    real = transversal.orbit_scan

    def recorded(*args):
        passes.append(real(*args))
        return passes[-1]

    monkeypatch.setattr(oracle_module, "orbit_scan", recorded)
    returns, cols = oracle_module.oracle_orbit(surface, mode, count)
    assert len(passes) == rounds
    scan = passes[-1]
    slopes = oracle_strip_slopes(surface, mode, count)
    assert np.array_equal(returns, np.diff(slopes, prepend=0.0))
    form = transversal._lattice_form(g)
    if form[0] == "delta":
        one = transversal._flowed_anchors(g, form[1:], slopes, scan.lattice)
        assert all(map(np.array_equal, one, _three_scan_anchors(g, form[1:], slopes)))
    cosets = (v, -v) if mode is SurfaceMode.DOUBLED_SLIT else (v,)
    assert len(scan.cosets) == len(cosets)
    for (x, y), c in zip(scan.cosets, cosets):
        assert np.array_equal(transversal._flowed_alpha(x, y, slopes), _three_scan_alpha(g, c, slopes))
    if (start, mode) == ONE_PASS_EDGES[0][:2]:
        # the affine landing at 1e-10 is the marking's translate by -a
        assert cols.alpha[0] == 0.9 - 0.5
    if mode is SurfaceMode.DOUBLED_SLIT and start[0] == VERTICAL:
        assert {round(a, 12) for a in cols.alpha.tolist()} == {0.5, 0.75}


_ORBIT_LOG = re.compile(
    r"oracle orbit \((?P<mode>[a-z]+)\): (?P<steps>\d+) steps, (?P<rounds>\d+) cap rounds, "
    r"final cap (?P<cap>\S+), rows per component \[(?P<rows>[\d, ]+)\]$"
)


def test_oracle_orbit_logs_one_debug_line_per_call(caplog):
    surface = _first_surface(row_columns([(VERTICAL, 0.9, math.nan, 0.3, 0.2)]))
    caplog.set_level(logging.INFO, logger="slitgaps.oracle")
    quiet = oracle_module.oracle_orbit(surface, SurfaceMode.AFFINE_ONLY, 300)
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="slitgaps.oracle")
    loud = oracle_module.oracle_orbit(surface, SurfaceMode.AFFINE_ONLY, 300)
    assert np.array_equal(loud[0], quiet[0])
    oracle_module.oracle_orbit(surface, SurfaceMode.DOUBLED_SLIT, 300)
    affine, doubled = (_ORBIT_LOG.match(r.getMessage()) for r in caplog.records)
    assert (affine["mode"], doubled["mode"]) == ("affine", "doubled")
    assert int(affine["steps"]) == int(doubled["steps"]) == 300
    # the marking's one column needs the doubled cap; the doubled surface
    # has the mirrored column too, and no primitive lattice vector in the strip
    assert (int(affine["rounds"]), float(affine["cap"])) == (2, 2 * 1.25 * 300 / 0.5)
    assert int(doubled["rounds"]) == 1
    affine_rows = [int(k) for k in affine["rows"].split(",")]
    doubled_rows = [int(k) for k in doubled["rows"].split(",")]
    assert len(affine_rows) == 2 and len(doubled_rows) == 3
    assert affine_rows[0] == doubled_rows[0] == 0 and affine_rows[1] >= 300
