"""Rows selected by index against rows selected by mask.

The closed-form returns evaluate each branch on its own rows only.  The
copies below are the mask forms they replaced: every branch on every row,
picked by ``np.where``.  Every float must come out the same, bit for bit,
NaN rows included.  The lattice-box kernel's kept rows are checked against
a test-local filter of every candidate row, picked by a boolean mask.
"""

import numpy as np
import pytest

from slitgaps import transversal
from slitgaps.geometry import BOUND_SLACK, Mat2, _box_rows
from slitgaps.transversal import FLOOR_NUDGE, TIE_TOL, X_EPS, omega_return_vec, w_return_sa_vec, w_return_sl_vec

ROWS = 200_000


# ---------------------------------------------------------------------------
# the np.where forms of the returns


def _where_masks(a, b, s, alpha):
    gap, ab, rise = alpha - a, a * b, b + alpha
    upper = alpha > a + TIE_TOL
    thr = gap / (ab * alpha)
    near = TIE_TOL * np.maximum(1.0, thr)
    o1 = upper & (s <= thr + near)
    o3 = ~upper & (rise <= 1.0 + TIE_TOL)
    return o1, o3, gap, ab, rise


def _where_marking_first(a, b, s, o1, o3, gap, rise, otherwise):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(o1, s * a / gap, otherwise)
        return np.where(o3, (1.0 / a - s * b) / rise, out)


def _where_omega_returns(a, b, s, alpha):
    o1, o3, gap, _, rise = _where_masks(a, b, s, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.floor((1.0 + a - alpha) / b + FLOOR_NUDGE)
        arrive = gap + j * b
        wrapped = (j * (1.0 / a - s * b) + s * a) / arrive
    u = _where_marking_first(a, b, s, o1, o3, gap, rise, wrapped)
    return u, np.where(o1, gap, np.where(o3, rise, arrive)), o3


def _where_sa(a, b, s, alpha):
    o1, o3, gap, ab, rise = _where_masks(a, b, s, alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        lattice = 1.0 / ab - s
    return _where_marking_first(a, b, s, o1, o3, gap, rise, lattice)


def _where_sl(a, b, v1, v2):
    short = b + v1 <= 1.0 + TIE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(short, v2 / v1, 1.0 / (a * b))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _assert_bits(got, want):
    got, want = _bits(got), _bits(want)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.ravel() != want.ravel())
    assert not len(bad), f"{len(bad)} rows differ, first at {bad[:5]}"


def _affine_rows(rng, n):
    """haar-omega draws: a, alpha uniform, b uniform over the triangle's
    slice, s uniform below the lattice return."""
    a = 1.0 - rng.random(n)
    alpha = 1.0 - rng.random(n)
    b = 1.0 - a * rng.random(n)
    s = rng.random(n) / (a * b)
    return a, b, s, alpha


def _sl_rows(rng, n):
    a = 1.0 - rng.random(n)
    b = 1.0 - a * rng.random(n)
    cx, cy = rng.random(n), rng.random(n)
    return a, b, a * cx + b * cy, cy / a


OFFSETS = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]) * TIE_TOL


def _affine_ties(rng):
    """Rows within 2*TIE_TOL of each region boundary: alpha = a, s at the
    O1 threshold and b + alpha = 1."""
    a, b, s, alpha = _affine_rows(rng, 400)
    rows = [(a, b, s, a)]
    rows += [(a, b, s, a + d) for d in OFFSETS]
    hi = np.maximum(a, alpha) + 0.05
    upper = np.minimum(hi, 1.0)
    thr = (upper - a) / (a * b * upper)
    rows += [(a, b, thr + d * np.maximum(1.0, thr), upper) for d in OFFSETS]
    low = 1.0 - b  # alpha <= a holds there, as b > 1 - a
    rows += [(a, b, s, low + d) for d in OFFSETS]
    return [np.concatenate(c) for c in zip(*rows)]


def _sl_ties(rng):
    a, b, v1, v2 = _sl_rows(rng, 400)
    rows = [(a, b, 1.0 - b + d, v2) for d in OFFSETS]
    return [np.concatenate(c) for c in zip(*rows)]


def _vertical(cols):
    """The rows with b nan, as vertical-lattice rows carry it."""
    a, b, s, alpha = cols
    b = b.copy()
    b[::3] = np.nan
    return a, b, s, alpha


def _affine_cases():
    rng = np.random.default_rng(2909)
    return {
        "random": _affine_rows(rng, ROWS),
        "ties": _affine_ties(rng),
        "nan-b": _vertical(_affine_rows(rng, 3000)),
        "empty": tuple(np.empty(0) for _ in range(4)),
        "size-1": tuple(c[:1] for c in _affine_ties(rng)),
    }


AFFINE = _affine_cases()


@pytest.mark.parametrize("case", sorted(AFFINE))
def test_omega_returns_by_index_equal_the_where_form(case):
    cols = AFFINE[case]
    u, arrive, o3 = transversal._omega_returns(*transversal._columns(*cols))
    want_u, want_arrive, want_o3 = _where_omega_returns(*cols)
    _assert_bits(u, want_u)
    _assert_bits(arrive, want_arrive)
    assert np.array_equal(o3, want_o3)
    _assert_bits(omega_return_vec(*cols), want_u)


@pytest.mark.parametrize("case", sorted(AFFINE))
def test_short_affine_returns_by_index_equal_the_where_form(case):
    cols = AFFINE[case]
    _assert_bits(w_return_sa_vec(*cols), _where_sa(*cols))


def _sl_cases():
    rng = np.random.default_rng(2910)
    return {
        "random": _sl_rows(rng, ROWS),
        "ties": _sl_ties(rng),
        "empty": tuple(np.empty(0) for _ in range(4)),
        "size-1": tuple(c[:1] for c in _sl_ties(rng)),
    }


SHORT_LATTICE = _sl_cases()


@pytest.mark.parametrize("case", sorted(SHORT_LATTICE))
def test_short_lattice_returns_by_index_equal_the_where_form(case):
    cols = SHORT_LATTICE[case]
    assert not np.any((cols[1] + cols[2] <= 1.0 + TIE_TOL) & (cols[2] <= X_EPS))
    _assert_bits(w_return_sl_vec(*cols), _where_sl(*cols))


def test_the_regions_and_branches_are_all_exercised():
    # each branch of each return takes rows, on the random rows and at ties
    for case in ("random", "ties"):
        o1, o3, *_ = _where_masks(*AFFINE[case])
        assert o1.any() and o3.any() and (~(o1 | o3)).any()
        a, b, v1, _ = SHORT_LATTICE[case]
        short = b + v1 <= 1.0 + TIE_TOL
        assert short.any() and (~short).any()


def test_zero_d_and_size_1_calls_equal_the_where_form():
    # python floats and numpy scalars take the scalar path, length-1 arrays
    # the index path; each equals the where form of its own row
    a, b, s, alpha = AFFINE["ties"]
    rows = np.random.default_rng(5).choice(len(a), 300, replace=False)
    nan_b = AFFINE["nan-b"]
    for cols in [tuple(c[i] for c in (a, b, s, alpha)) for i in rows] + [tuple(c[0] for c in nan_b)]:
        want_u, want_arrive, want_o3 = _where_omega_returns(*(np.float64(c) for c in cols))
        for form in (tuple(map(float, cols)), tuple(map(np.float64, cols))):
            u, arrive, o3 = transversal._omega_returns(*transversal._columns(*form))
            _assert_bits(u, want_u)
            _assert_bits(arrive, want_arrive)
            assert bool(o3) == bool(want_o3)
            _assert_bits(omega_return_vec(*form), want_u)
            _assert_bits(w_return_sa_vec(*form), _where_sa(*(np.float64(c) for c in cols)))
        one = tuple(np.array([c]) for c in cols)
        _assert_bits(omega_return_vec(*one), np.array([want_u]))
        _assert_bits(w_return_sa_vec(*one), _where_sa(*one))
    for cols in zip(*SHORT_LATTICE["ties"]):
        want = _where_sl(*(np.float64(c) for c in cols))
        _assert_bits(w_return_sl_vec(*map(float, cols)), want)
        _assert_bits(w_return_sl_vec(*(np.array([c]) for c in cols)), np.array([want]))


def test_broadcast_columns_equal_the_where_form():
    # a scalar and a column, and a 2-d grid, broadcast as the where form does
    a, b, s, alpha = (c[:600] for c in AFFINE["ties"])
    for cols in ((0.5, b, s, alpha), (a[:, None][:20], b[:30], s[:30], alpha[:30])):
        want_u, want_arrive, _ = _where_omega_returns(*np.broadcast_arrays(*map(np.asarray, cols)))
        u, arrive, _ = transversal._omega_returns(*transversal._columns(*cols))
        _assert_bits(u, want_u)
        _assert_bits(arrive, want_arrive)
        _assert_bits(w_return_sa_vec(*cols), _where_sa(*np.broadcast_arrays(*map(np.asarray, cols))))
    a, b, v1, v2 = SHORT_LATTICE["ties"]
    _assert_bits(w_return_sl_vec(0.6, b, v1, v2), _where_sl(np.full(len(b), 0.6), b, v1, v2))


# ---------------------------------------------------------------------------
# the kept rows of the lattice-box kernel


COEFF = 60


def _mask_rows(g, box, cap, surf, vx, vy):
    """(job, x, y, m, n) of every job's points in its surface's box under
    its slope cap, from all coefficients |m|, |n| <= COEFF computed as the
    kernel does and picked by a boolean mask, ordered by job, then n, then
    m."""
    r = np.arange(-COEFF, COEFF + 1, dtype=float)
    n, m = (c.ravel() for c in np.meshgrid(r, r, indexing="ij"))
    out = []
    for j, (s, px, py) in enumerate(zip(surf, vx, vy)):
        m11, m12, m21, m22 = (f[s] for f in g)
        x = m11 * m
        x += m12 * n
        x += px
        y = m21 * m
        y += m22 * n
        y += py
        keep = (x >= box[0][s]) & (x <= box[1][s]) & (y >= box[2][s]) & (y <= box[3][s])
        keep &= y <= cap[s] * x + BOUND_SLACK * max(1.0, cap[s])
        assert not np.any((np.abs(m[keep]) == COEFF) | (np.abs(n[keep]) == COEFF))
        out.append((np.full(np.count_nonzero(keep), j), x[keep], y[keep], m[keep], n[keep]))
    return [np.concatenate(c) for c in zip(*out)]


@pytest.mark.parametrize("mn", [True, False])
def test_box_rows_keep_the_rows_of_the_mask_selection(mn):
    # a doubled batch: per surface the lattice, the coset and the negated
    # coset, in a strip under a slope cap, over several budget chunks
    rng = np.random.default_rng(2911)
    a, b, s, alpha = _affine_rows(rng, 40)
    a = 0.3 + 0.7 * a  # short lattice vectors keep the points within COEFF
    b = 1.0 - a * rng.random(40)
    cols = transversal.SectionColumns(np.zeros(40, dtype=np.int8), a, b, s, alpha)
    g, v = transversal.section_surfaces(cols)
    g = Mat2(*(np.broadcast_to(f, (40,)).copy() for f in g))
    cap = rng.uniform(2.0, 12.0, 40)
    box = (np.full(40, 1e-12), np.ones(40), np.full(40, -1e-12), cap + 1e-9)
    surf = np.repeat(np.arange(40), 3)
    zero = np.zeros(40)
    vx = np.column_stack([zero, v.x, -v.x]).ravel()
    vy = np.column_stack([zero, np.broadcast_to(v.y, (40,)), -np.broadcast_to(v.y, (40,))]).ravel()
    chunks = list(_box_rows(g, box, (surf, vx, vy), cap, budget=32, mn=mn))
    assert len(chunks) > 3
    got = [np.concatenate(c) for c in zip(*((j, x, y) for j, x, y, *_ in chunks))]
    want = _mask_rows(g, box, cap, surf, vx, vy)
    assert len(want[0]) > 100
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if mn:
        for k in (3, 4):
            assert np.concatenate([c[k] for c in chunks]).tobytes() == want[k].tobytes()
    else:
        assert all(c[3] is None and c[4] is None for c in chunks)
