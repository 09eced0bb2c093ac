"""Lattice enumeration, strip gaps, and the box-to-strip renormalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitgaps.errors import InvalidInputError
from slitgaps.geometry import (
    BOUND_SLACK,
    VECTOR_DEDUP_TOL,
    AffineLattice,
    Mat2,
    SurfaceMode,
    Vec2,
    _box_rows,
    _dedup_batch,
    _strip_rows,
    enumerate_strip,
    horocycle_apply,
    horocycle_matrix,
    lattice_box,
    reduce_to_fundamental,
    renormalized_box_gaps,
    slopes_and_gaps,
)
from slitgaps.oracle import oracle_first_return_batch

IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)


def p_ab(a, b):
    return Mat2(a, b, 0.0, 1.0 / a)


def random_surface(rng):
    """Generic marked torus: sheared short-lattice generator, coset in [0,1)^2."""
    a = rng.uniform(0.2, 1.0)
    b = rng.uniform(1.0 - a, 1.0)
    s = rng.uniform(0.0, 1.0 / (a * b))
    g = horocycle_matrix(s) @ p_ab(a, b)
    v = g.apply(Vec2(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
    return AffineLattice(g, v).check()


def test_reduce_integer_translation():
    out = reduce_to_fundamental(IDENTITY, Vec2(2.5, -0.25))
    assert math.isclose(out.x, 0.5, abs_tol=1e-12)
    assert math.isclose(out.y, 0.75, abs_tol=1e-12)


def test_reduce_already_reduced():
    out = reduce_to_fundamental(p_ab(0.6, 0.5), Vec2(0.3, 0.5))
    assert math.isclose(out.x, 0.3, abs_tol=1e-12)
    assert math.isclose(out.y, 0.5, abs_tol=1e-12)
    coeff = p_ab(0.6, 0.5).inverse().apply(out)
    assert math.isclose(coeff.x, 0.25, abs_tol=1e-12)
    assert math.isclose(coeff.y, 0.3, abs_tol=1e-12)


def test_reduce_subtracts_column():
    out = reduce_to_fundamental(p_ab(0.6, 0.5), Vec2(0.9, 0.5))
    assert math.isclose(out.x, 0.3, abs_tol=1e-12)
    assert math.isclose(out.y, 0.5, abs_tol=1e-12)


def test_reduce_singular_generator():
    with pytest.raises(InvalidInputError):
        reduce_to_fundamental(Mat2(1.0, 1.0, 1.0, 1.0), Vec2(0.1, 0.1))


def test_enumerate_affine_half_lattice():
    surf = AffineLattice(IDENTITY, Vec2(0.5, 0.0))
    pts = enumerate_strip(surf, SurfaceMode.AFFINE_ONLY, 7.0)
    got = sorted((round(x, 9), round(y, 9)) for x, y in pts)
    assert got == [(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)]


def test_enumerate_integer_lattice():
    surf = AffineLattice(IDENTITY, Vec2(0.0, 0.0))
    pts = enumerate_strip(surf, SurfaceMode.DOUBLED_SLIT, 3.0)
    got = sorted((round(x, 9), round(y, 9)) for x, y in pts)
    assert got == [(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]


def test_enumerate_below_min_slope_is_empty():
    surf = AffineLattice(IDENTITY, Vec2(0.0, 0.0))
    assert len(enumerate_strip(surf, SurfaceMode.DOUBLED_SLIT, 0.5)) == 0


def test_enumerate_rejects_bad_cap():
    surf = AffineLattice(IDENTITY, Vec2(0.0, 0.0))
    with pytest.raises(InvalidInputError):
        enumerate_strip(surf, SurfaceMode.AFFINE_ONLY, 0.0)


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("mode", list(SurfaceMode))
def test_non_finite_slope_caps_are_rejected(cap, mode):
    surf = AffineLattice(IDENTITY, Vec2(0.5, 0.0))
    with pytest.raises(InvalidInputError, match="slope cap"):
        enumerate_strip(surf, mode, cap)
    g, v = Mat2(np.ones(2), 0.0, 0.0, 1.0), Vec2(0.5, 0.0)
    with pytest.raises(InvalidInputError, match="slope cap"):
        list(_strip_rows(g, v, mode, [2.0, cap]))
    # the batch oracle never scans such a cap: it takes the hint as none
    got = oracle_first_return_batch(g, v, mode, [2.0, cap])
    assert np.array_equal(got, oracle_first_return_batch(g, v, mode))


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
def test_box_gaps_reject_bad_box_size(r):
    surf = AffineLattice(IDENTITY, Vec2(0.5, 0.0))
    with pytest.raises(InvalidInputError):
        renormalized_box_gaps(surf, SurfaceMode.DOUBLED_SLIT, r)


@pytest.mark.parametrize(
    "g,v",
    [
        (Mat2(math.nan, 0.0, 0.0, 1.0), Vec2(0.5, 0.0)),
        (IDENTITY, Vec2(math.nan, 0.0)),
        (IDENTITY, Vec2(0.5, math.inf)),
        (Mat2(1.0, math.inf, 0.0, 1.0), Vec2(0.5, 0.0)),
        (Mat2(1.0, 0.0, 0.0, 2.0), Vec2(0.5, 0.0)),
    ],
    ids=["nan-g", "nan-v", "inf-v", "inf-g", "det-2"],
)
def test_surface_check_fails_on_non_finite_or_non_unimodular(g, v):
    with pytest.raises(InvalidInputError):
        AffineLattice(g, v).check()
    # the batch applies the same check to every surface
    batch_g = Mat2(*(np.array([1.0, f]) for f in g))
    batch_v = Vec2(*(np.array([0.25, f]) for f in v))
    with pytest.raises(InvalidInputError):
        oracle_first_return_batch(batch_g, batch_v, SurfaceMode.AFFINE_ONLY, 3.0)


def test_slopes_and_gaps_basic():
    series = slopes_and_gaps(np.array([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)]))
    assert np.allclose(series.slopes, [2.0, 4.0, 6.0])
    assert np.allclose(series.gaps, [2.0, 2.0])
    assert series.count == 3


def test_slopes_and_gaps_single_point():
    series = slopes_and_gaps(np.array([(1.0, 1.0)]))
    assert np.allclose(series.slopes, [1.0])
    assert len(series.gaps) == 0


def test_integer_lattice_strip_gaps_are_unit():
    surf = AffineLattice(IDENTITY, Vec2(0.0, 0.0))
    series = slopes_and_gaps(enumerate_strip(surf, SurfaceMode.DOUBLED_SLIT, 10.0))
    assert np.allclose(series.slopes, np.arange(1, 11))
    assert np.allclose(series.gaps, 1.0)


def test_renormalized_box_gaps_integer_lattice_r1():
    surf = AffineLattice(IDENTITY, Vec2(0.0, 0.0))
    series = renormalized_box_gaps(surf, SurfaceMode.DOUBLED_SLIT, 1.0)
    assert np.allclose(series.slopes, [0.0, 1.0])
    assert np.allclose(series.gaps, [1.0])


def test_horocycle_shear():
    out = horocycle_apply(2.0, Vec2(1.0, 3.0))
    assert out == Vec2(1.0, 1.0)


def test_horocycle_kills_own_slope():
    w = Vec2(0.4, 1.3)
    out = horocycle_apply(w.y / w.x, w)
    assert math.isclose(out.y, 0.0, abs_tol=1e-12)


def test_horocycle_flow_example():
    out = horocycle_apply(0.4, Vec2(0.25, 0.1))
    assert math.isclose(out.x, 0.25, abs_tol=1e-12)
    assert math.isclose(out.y, 0.0, abs_tol=1e-12)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    u=st.floats(-30, 30),
    x1=st.floats(0.01, 5),
    y1=st.floats(-5, 5),
    x2=st.floats(0.01, 5),
    y2=st.floats(-5, 5),
)
def test_slope_difference_invariance(u, x1, y1, x2, y2):
    w1, w2 = Vec2(x1, y1), Vec2(x2, y2)
    h1, h2 = horocycle_apply(u, w1), horocycle_apply(u, w2)
    before = w1.y / w1.x - w2.y / w2.x
    after = h1.y / h1.x - h2.y / h2.x
    assert math.isclose(before, after, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("r", [10.0, 50.0])
def test_gamma_r_bridge(r):
    rng = np.random.default_rng(20240 + int(r))
    scale = Mat2(1.0 / r, 0.0, 0.0, r)
    for _ in range(20):
        surf = random_surface(rng)
        mode = SurfaceMode.DOUBLED_SLIT
        box = renormalized_box_gaps(surf, mode, r)
        image = AffineLattice(scale @ surf.g, scale.apply(surf.v))
        pts = enumerate_strip(
            image, mode, math.inf, y_max=r * r, include_horizontal=True
        )
        strip = slopes_and_gaps(pts)
        assert box.count == strip.count
        lhs, rhs = np.sort(box.gaps), np.sort(strip.gaps)
        assert np.all(np.abs(lhs - rhs) < 1e-9 * np.maximum(1.0, np.abs(rhs)))


def test_enumeration_completeness_vs_naive():
    rng = np.random.default_rng(7)
    for _ in range(5):
        surf = random_surface(rng)
        cap = 12.0
        pts = enumerate_strip(surf, SurfaceMode.AFFINE_ONLY, cap)
        got = sorted((round(x, 9), round(y, 9)) for x, y in pts)

        # naive scan over a coefficient box twice as large as needed
        ginv = surf.g.inverse()
        corners = [Vec2(1.0, 0.0), Vec2(1.0, cap), Vec2(0.0, 0.0), Vec2(0.0, cap)]
        coeffs = [ginv.apply(Vec2(c.x - surf.v.x, c.y - surf.v.y)) for c in corners]
        m = 2 * int(max(abs(c.x) for c in coeffs) + max(abs(c.y) for c in coeffs) + 2)
        naive = []
        for i in range(-m, m + 1):
            for j in range(-m, m + 1):
                w = Vec2(
                    surf.g.m11 * i + surf.g.m12 * j + surf.v.x,
                    surf.g.m21 * i + surf.g.m22 * j + surf.v.y,
                )
                if 1e-12 < w.x <= 1 + 1e-12 and w.y > 1e-12 and w.y / w.x <= cap:
                    naive.append((round(w.x, 9), round(w.y, 9)))
        assert got == sorted(naive)


def test_loose_quadratic_growth():
    rng = np.random.default_rng(99)
    surf = random_surface(rng)
    ratios = []
    for r in (20.0, 40.0, 80.0, 160.0):
        n = renormalized_box_gaps(surf, SurfaceMode.DOUBLED_SLIT, r).count
        ratios.append(n / r**2)
    assert max(ratios) / min(ratios) < 4.0


# ---------------------------------------------------------------------------
# the lattice-box kernel against an exhaustive scan of coefficients

TOL = 1e-9
# bounds |m| and |n| of every point below: generator entries and their
# inverses stay under 4, boxes and markings under 3 in each coordinate
COEFF_RANGE = 40


def _unimodular(rng):
    """Rotation times diag(l, 1/l) times a unit shear."""
    th, lam, t = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.6, 1.6), rng.uniform(-1.0, 1.0)
    rot = Mat2(math.cos(th), -math.sin(th), math.sin(th), math.cos(th))
    return rot @ Mat2(lam, lam * t, 0.0, 1.0 / lam)


def _kernel_cases(rng, slope):
    """Surfaces (g, box, slope cap or None, markings): generic boxes; boxes
    whose edges pass through lattice points; boxes with |y| <= tol, or with
    an edge on the row y = 0, on a lattice with g21 = 0; the same across
    x = 0 on a lattice with g11 = 0; and with a slope cap, a point of slope
    exactly fl(1/49) that only the slack keeps."""
    cases = []
    for kind in ("generic", "snapped", "snapped", "snapped", "flat", "vertical") * 2:
        if kind in ("generic", "snapped"):
            g = _unimodular(rng)
            marks = [Vec2(*rng.uniform(-1.0, 1.0, size=2)) for _ in range(rng.integers(1, 4))]
            x_lo, y_lo = rng.uniform(-2.0, 0.0, size=2)
            box = (x_lo, x_lo + rng.uniform(1.0, 3.0), y_lo, y_lo + rng.uniform(1.0, 3.0))
            pts = _exhaustive(g, box, None, marks[0])
            if kind == "snapped" and pts:
                # each edge through a point of the first marking's coset
                xs, ys = sorted(p[0] for p in pts), sorted(p[1] for p in pts)
                box = (xs[0], xs[-1], ys[0], ys[-1])
        elif kind == "flat":
            a = rng.uniform(0.5, 1.5)
            g = Mat2(a, rng.uniform(-1.0, 1.0), 0.0, 1.0 / a)
            box = (-2.0, 2.0, -TOL, TOL) if len(cases) < 6 else (-2.0, 2.0, 0.0, 1.5)
            marks = [Vec2(0.0, 0.0), Vec2(rng.uniform(-1.0, 1.0), 0.0)]
        else:
            a = rng.uniform(0.5, 1.5)
            g = Mat2(0.0, -1.0 / a, a, rng.uniform(-1.0, 1.0))
            box = (-TOL, TOL, -2.0, 2.0) if len(cases) < 6 else (0.0, 1.5, -2.0, 2.0)
            marks = [Vec2(0.0, 0.0), Vec2(0.0, rng.uniform(-1.0, 1.0))]
        cap = rng.uniform(0.3, 3.0) if slope else None
        cases.append((g, box, cap, marks))
    if slope:
        # (49, 1) = g(7, 7) has y > fl(1/49) * 49
        cases.append((Mat2(7.0, 0.0, 0.0, 1.0 / 7.0), (40.0, 60.0, -1.0, 2.0), 1.0 / 49.0, [Vec2(0.0, 0.0)]))
        assert 1.0 / 7.0 * 7.0 > 1.0 / 49.0 * 49.0
    return cases


def _adversarial_cases(rng):
    """Surfaces (g, box, slope cap or None, markings, coefficient centre)
    that press on the kernel's range slack: markings or boxes some 1e5-1e6
    rows from the origin, plain, with box edges and a slope cap through
    their points, or with a point at the corner where n or m is extreme;
    generators with an entry of +-1e-7; g11 = 0 and g21 = 0 generators with
    a slope cap; and lattices with rows along the cap line y = sigma*x."""
    cases = []
    for far, snap in [(1e5, False), (1e6, False), (1e5, True), (1e6, True), (3e5, True)] * 2:
        g = _unimodular(rng)
        centre = tuple(np.round(rng.uniform(0.5, 1.0, 2) * far * rng.choice([-1, 1], 2)).tolist())
        shift = g.apply(Vec2(*centre))
        x_lo, y_lo = rng.uniform(-2.0, 0.0, size=2)
        box = (x_lo, x_lo + rng.uniform(1.0, 3.0), y_lo, y_lo + rng.uniform(1.0, 3.0))
        if rng.random() < 0.5:
            # the markings far out, the box near the origin
            marks = [Vec2(*(rng.uniform(-1.0, 1.0, 2) - shift)) for _ in range(2)]
        else:
            # the box far out, the markings near the origin
            box = (box[0] + shift.x, box[1] + shift.x, box[2] + shift.y, box[3] + shift.y)
            marks = [Vec2(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2)]
        cap = None
        if snap:
            pts = _exhaustive(g, box, None, marks[0], centre)
            if pts:
                xs, ys = sorted(p[0] for p in pts), sorted(p[1] for p in pts)
                box = (xs[0], xs[-1], ys[0], ys[-1])
                if xs[0] > 0.0:
                    x, y = sorted(pts)[len(pts) // 2][:2]
                    cap = y / x
        # either way the points in the box have (m, n) near the centre
        cases.append((g, box, cap, marks, centre))
    # a far coset point at the box corner where n, or m, is least or most:
    # the float range bound sits within rounding of that point's coefficient
    for _ in range(3):
        g = _unimodular(rng)
        inv = g.inverse()
        m0, n0 = np.round(rng.uniform(1e5, 1e6, 2) * rng.choice([-1, 1], 2))
        marks = [Vec2(*(rng.uniform(-1.0, 1.0, 2) - g.apply(Vec2(m0, n0))))]
        x = g.m11 * m0 + g.m12 * n0 + marks[0].x
        y = g.m21 * m0 + g.m22 * n0 + marks[0].y
        for i1, i2 in ((inv.m21, inv.m22), (inv.m11, inv.m12)):
            for side in (1.0, -1.0):
                # the corner least in side * (i1*x + i2*y)
                w, h = rng.uniform(1.0, 3.0, 2) * side
                box = (x, x + w) if i1 * side > 0 else (x - w, x)
                box += (y, y + h) if i2 * side > 0 else (y - h, y)
                cases.append((g, tuple(sorted(box[:2])) + tuple(sorted(box[2:])), None, marks, (m0, n0)))
    for tiny in (1e-7, -1e-7):
        lam, c = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        marks = [Vec2(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2)]
        box = (-2.0, 2.0, -1.5, 2.5)
        for g in (Mat2(tiny, -1.0 / lam, lam, c), Mat2(lam, c, tiny, 1.0 / lam),
                  Mat2(c, lam, -1.0 / lam, tiny)):
            for cap in (None, rng.uniform(0.3, 3.0)):
                cases.append((g, box, cap, marks, (0.0, 0.0)))
    for _ in range(2):
        a = rng.uniform(0.5, 1.5)
        for g in (Mat2(a, rng.uniform(-1.0, 1.0), 0.0, 1.0 / a), Mat2(0.0, -1.0 / a, a, rng.uniform(-1.0, 1.0))):
            marks = [Vec2(0.0, 0.0), Vec2(*rng.uniform(-1.0, 1.0, 2))]
            cases.append((g, (0.0, 2.0, 0.0, 2.0), rng.uniform(0.3, 3.0), marks, (0.0, 0.0)))
    # g*(1, 0) = (1, sigma) exactly, so the kernel sees p = 0: rows of n lie
    # along the cap line, the marking's row on it, and a few ulps either
    # side of y - sigma*x = slack, where the filter keeps part of the row
    for sigma in (0.75, 1.25, 0.5):
        c = rng.uniform(-1.0, 1.0)
        g = Mat2(1.0, c, sigma, 1.0 + sigma * c)
        edge = sigma * 0.5 + BOUND_SLACK * max(1.0, sigma)
        ys = [sigma * 0.5, math.nextafter(edge, -math.inf), edge]
        for _ in range(3):
            ys.append(math.nextafter(ys[-1], math.inf))
        cases.append((g, (0.0, 3.0, -1.0, 4.0), sigma, [Vec2(0.5, y) for y in ys], (0.0, 0.0)))
    return cases


def _exhaustive(g, box, cap, v, centre=(0.0, 0.0)):
    """Every (x, y, m, n) with |m - centre_m|, |n - centre_n| <= COEFF_RANGE
    inside the window."""
    r = np.arange(-COEFF_RANGE, COEFF_RANGE + 1, dtype=float)
    m, n = (a.ravel() for a in np.meshgrid(r + centre[0], r + centre[1]))
    x = g.m11 * m + g.m12 * n + v.x
    y = g.m21 * m + g.m22 * n + v.y
    keep = (box[0] <= x) & (x <= box[1]) & (box[2] <= y) & (y <= box[3])
    if cap is not None:
        keep &= y <= cap * x + BOUND_SLACK * max(1.0, cap)
    edge = (np.abs(m[keep] - centre[0]) == COEFF_RANGE) | (np.abs(n[keep] - centre[1]) == COEFF_RANGE)
    assert not np.any(edge)
    return set(zip(x[keep].tolist(), y[keep].tolist(), m[keep].tolist(), n[keep].tolist()))


def _check_against_exhaustive(cases, budget):
    """One ``_box_rows`` call over all cases (g, box, cap, markings and
    optionally the coefficient centre), either every cap None or none,
    returns exactly each job's exhaustive set, ordered by job, then n, then m, and with budget 1 holds one surface
    per chunk.  Returns the number of chunks and of points found."""
    g = Mat2(*(np.array([c[0][k] for c in cases]) for k in range(4)))
    box = [np.array([c[1][k] for c in cases]) for k in range(4)]
    jobs = [(s, v) for s, c in enumerate(cases) for v in c[3]]
    caps = None if cases[0][2] is None else np.array([c[2] for c in cases])
    surf = np.array([s for s, _ in jobs])
    vx, vy = (np.array([v[k] for _, v in jobs]) for k in range(2))

    got = {j: set() for j in range(len(jobs))}
    chunks = 0
    for j, x, y, m, n in _box_rows(g, box, (surf, vx, vy), caps, budget):
        chunks += 1
        # rows come ordered by job, then n, then m
        assert np.array_equal(np.lexsort((m, n, j)), np.arange(len(j)))
        if budget == 1:
            assert len(set(surf[j].tolist())) <= 1
        for row in zip(j.tolist(), x.tolist(), y.tolist(), m.tolist(), n.tolist()):
            got[row[0]].add(row[1:])
    found = 0
    for k, (s, v) in enumerate(jobs):
        want = _exhaustive(cases[s][0], cases[s][1], cases[s][2], v, *cases[s][4:])
        assert got[k] == want, (k, cases[s][1])
        found += len(want)
    return chunks, found


@pytest.mark.parametrize("slope", [False, True])
@pytest.mark.parametrize("budget", [1, 1 << 14])
def test_box_kernel_matches_exhaustive_scan(slope, budget):
    rng = np.random.default_rng(2718 + slope)
    cases = _kernel_cases(rng, slope)
    chunks, found = _check_against_exhaustive(cases, budget)
    if budget == 1:
        assert chunks == len(cases)
    assert found > 0


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("budget", [1, 1 << 14])
def test_box_kernel_matches_exhaustive_scan_on_adversarial_cases(seed, budget):
    # the range slack holds every row the filter keeps, far from the origin,
    # on near-singular and axis-aligned generators, and on boxes and slope
    # caps through lattice points
    cases = _adversarial_cases(np.random.default_rng(seed))
    found = [_check_against_exhaustive([c for c in cases if (c[2] is None) == capped], budget)[1]
             for capped in (False, True)]
    assert min(found) > 100


@pytest.mark.parametrize("slope", [False, True])
def test_lattice_box_is_the_one_surface_kernel_call(slope):
    rng = np.random.default_rng(31 + slope)
    for g, box, cap, marks in _kernel_cases(rng, slope):
        for v in marks:
            pts = lattice_box(g, v, *box, cap)
            assert set(map(tuple, pts.tolist())) == _exhaustive(g, box, cap, v)
            assert np.array_equal(np.lexsort((pts[:, 2], pts[:, 3])), np.arange(len(pts)))


def test_scan_too_large_to_hold_is_refused_before_allocation():
    surf = AffineLattice(p_ab(0.8, 0.5), Vec2(0.3, 0.2))
    with pytest.raises(InvalidInputError, match=r"scan too large: 8e\+11 rows of n-range"):
        enumerate_strip(surf, SurfaceMode.AFFINE_ONLY, 1e12)
    # one surface's candidate rows: the row n = 0 of diag(1e-9, 1e9) holds
    # 1e9 values of m in the unit box, with a short n-range
    skew = Mat2(1e-9, 0.0, 0.0, 1e9)
    with pytest.raises(InvalidInputError, match="candidate rows of one surface"):
        lattice_box(skew, Vec2(0.0, 0.0), 0.0, 1.0, -1.0, 1.0)
    # the limit leaves an ordinary scan alone
    assert len(enumerate_strip(surf, SurfaceMode.AFFINE_ONLY, 1e4)) > 0


def test_reduce_to_fundamental_elementwise_matches_scalar_calls():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.2, 1.0, 200)
    b = 1.0 - a * rng.random(200)
    vx, vy = rng.uniform(-5.0, 5.0, (2, 200))
    out = reduce_to_fundamental(Mat2(a, b, 0.0, 1.0 / a), Vec2(vx, vy))
    for i in range(200):
        ref = reduce_to_fundamental(p_ab(float(a[i]), float(b[i])), Vec2(float(vx[i]), float(vy[i])))
        assert (out.x[i], out.y[i]) == ref
    with pytest.raises(InvalidInputError, match="singular"):
        reduce_to_fundamental(Mat2(np.array([1.0, 1.0]), 1.0, 1.0, np.array([2.0, 1.0])), Vec2(0.1, 0.1))


def _lexsort_dedup(s, x, y):
    """The deduplication as a lexsort of (surface, x, y), the order that
    ``_dedup_batch`` must reproduce."""
    order = np.lexsort((y, x, s))
    s, xy = s[order], np.column_stack([x[order], y[order]])
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (np.abs(np.diff(xy, axis=0)) > VECTOR_DEDUP_TOL).any(axis=1)
    return s[keep], xy[keep]


@pytest.mark.parametrize("surfaces", [1, 5])
def test_dedup_sorts_as_the_lexsort_with_and_without_ties_in_x(surfaces):
    rng = np.random.default_rng(61 + surfaces)
    n = 600
    s = np.sort(rng.integers(0, surfaces, n))
    distinct = rng.uniform(0.01, 1.0, n)
    # exact ties in x (the lexsort fallback), x unique within each surface
    # but shared across surfaces, and surfaces so far apart that the
    # argsort key rounds distinct x together (the fallback again)
    cases = [
        (s, rng.choice(distinct[:50], n), rng.uniform(0.0, 5.0, n)),
        (s, np.concatenate([distinct[:k] for k in np.bincount(s, minlength=surfaces)]), rng.uniform(0.0, 5.0, n)),
        (s * (1 << 45), distinct, rng.uniform(0.0, 5.0, n)),
    ]
    # near-duplicates within VECTOR_DEDUP_TOL, as the +-v cosets give, far
    # enough apart in x that the argsort key keeps them distinct
    s1, x1, y1 = cases[1]
    cases.append((np.repeat(s1, 2), np.repeat(x1, 2) + np.tile([0.0, 5e-13], n),
                  np.repeat(y1, 2) + np.tile([0.0, -2e-13], n)))
    for s, x, y in cases:
        got, want = _dedup_batch(s, x, y), _lexsort_dedup(s, x, y)
        assert np.array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
    assert len(_dedup_batch(*cases[-1])[0]) == n
