"""Planar lattice geometry: holonomy vectors of marked tori and slit-torus
covers, strip/box enumeration, and slope gap series.

A surface is an affine lattice (g, v): the unimodular lattice g*Z^2 together
with a marked coset g*Z^2 + v. Two holonomy conventions are supported:

* ``SurfaceMode.AFFINE_ONLY`` - holonomy set is the coset g*Z^2 + v only.
* ``SurfaceMode.DOUBLED_SLIT`` - holonomy set of the genus-2 double cover of
  the torus slit along the marked segment: primitive lattice vectors together
  with both signed cosets +-(g*Z^2 + v).

All enumeration is exact and runs through one kernel, ``_box_rows``: for a
batch of lattices, each with its own box and markings, integer coefficient
ranges are derived from the adjugate inverse of the generator, widened by
``RANGE_SLACK`` times the magnitudes their float bounds come from (some 1e5
times their rounding error, far below one row), and then filtered by the
defining inequalities.  ``lattice_box`` is its call for one lattice;
``_strip_rows`` adds the holonomy components of many surfaces and yields
their raw rows, which the first-return oracle reduces to a minimum slope per
surface.  Sorting and deduplicating belong to enumeration:
``strip_holonomy_batch`` does both to those rows, and ``enumerate_strip`` and
``renormalized_box_gaps`` are its calls for one surface.  Each kernel call
logs its jobs, n-rows, candidate rows and rows kept at DEBUG level.
Membership tolerances: x > 1e-12, x <= x_max + slack, y within 1e-12 of zero
counts as horizontal.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

X_EPS = 1e-12
Y_EPS = 1e-12
BOUND_SLACK = 1e-12
SLOPE_MERGE_TOL = 1e-12
UNIMODULAR_TOL = 1e-9
VECTOR_DEDUP_TOL = 1e-12

logger = logging.getLogger(__name__)


class Vec2(NamedTuple):
    """Plane vector with the handful of operations the dynamics needs."""

    x: float
    y: float

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)


class Mat2(NamedTuple):
    """2x2 real matrix, row-major."""

    m11: float
    m12: float
    m21: float
    m22: float

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def inverse(self) -> "Mat2":
        d = self.det()
        if np.any(abs(d) < 1e-15):
            raise DegenerateInputError(f"matrix is singular (det={d!r})")
        return Mat2(self.m22 / d, -self.m12 / d, -self.m21 / d, self.m11 / d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def apply(self, w: Vec2) -> Vec2:
        return Vec2(self.m11 * w.x + self.m12 * w.y, self.m21 * w.x + self.m22 * w.y)


def horocycle_matrix(u: float) -> Mat2:
    """Unit shear [[1, 0], [-u, 1]]; slopes drop by u under its action."""
    return Mat2(1.0, 0.0, -u, 1.0)


class SurfaceMode(enum.Enum):
    AFFINE_ONLY = "affine"
    DOUBLED_SLIT = "doubled"


@dataclass(frozen=True)
class AffineLattice:
    """Unimodular lattice g*Z^2 with marked coset g*Z^2 + v."""

    g: Mat2
    v: Vec2

    def check(self) -> "AffineLattice":
        _require_surfaces(*self.g, *self.v)
        return self


def _require_surfaces(m11, m12, m21, m22, vx, vy) -> None:
    """The one check of a surface, or of each surface of a batch: all six
    fields of g and v finite and det g within UNIMODULAR_TOL of 1, written so
    that a NaN fails it.  A non-finite entry of g makes det g non-finite."""
    with np.errstate(invalid="ignore", over="ignore"):
        det = m11 * m22 - m12 * m21
    ok = (np.abs(det - 1.0) <= UNIMODULAR_TOL) & np.isfinite(vx) & np.isfinite(vy)
    if not np.all(ok):
        bad = np.broadcast_to(det, np.shape(ok))[~ok]
        raise InvalidInputError(f"generator and marking must be finite, det g must be 1 (det={float(bad[0])!r})")


@dataclass(frozen=True)
class GapSeries:
    """Sorted distinct slopes with their consecutive differences.

    ``merged`` counts input slopes that were collapsed into an earlier one at
    1e-12 relative tolerance.
    """

    slopes: np.ndarray
    gaps: np.ndarray
    count: int
    merged: int


def reduce_to_fundamental(g: Mat2, v: Vec2) -> Vec2:
    """Translate the marking into the fundamental parallelogram of g*Z^2,
    elementwise when the fields of g and v are arrays.

    The coefficient vector g^-1 v is reduced into [0, 1)^2 componentwise and
    the representative g * frac is returned.
    """
    d = g.det()
    singular = np.abs(d) < 1e-9
    if np.any(singular):
        raise InvalidInputError(f"generator is singular (det={float(np.asarray(d)[singular][0])!r})")
    c = g.inverse().apply(v)
    return g.apply(Vec2(c.x - np.floor(c.x), c.y - np.floor(c.y)))


def horocycle_apply(u: float, obj):
    """Apply the time-u horocycle: vectors (x, y) -> (x, y - u*x), matrices
    and affine lattices by left multiplication."""
    if isinstance(obj, Vec2):
        return Vec2(obj.x, obj.y - u * obj.x)
    if isinstance(obj, Mat2):
        return horocycle_matrix(u) @ obj
    if isinstance(obj, AffineLattice):
        return AffineLattice(horocycle_matrix(u) @ obj.g, horocycle_apply(u, obj.v))
    raise InvalidInputError(f"cannot apply horocycle to {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the lattice-box kernel: points of g*Z^2 + v in a box, for many lattices at
# once; every scan of the package is a call of ``_box_rows``

# surfaces per block of ``_strip_rows``, and candidate rows (lattice points
# before the exact filter) per chunk of ``_box_rows``.  A kernel call costs
# some 200 numpy calls: the 25k-surface OmegaR oracle scan takes 11.4, 9.7,
# 9.4 and 10.1 ms at 1024, 2048, 4096 and 8192 (traced peaks 1.7, 2.3, 3.3,
# 5.1 MB; 2-core VM), so 2048 has most of the gain for the least memory
STRIP_BLOCK = 2048
STRIP_ROW_BUDGET = 1 << 14
# the most rows a scan may allocate at once, in its n-range or in the
# candidate rows of one surface: a scan holds about 250 bytes per row, so
# this keeps it near 2 GB
SCAN_ROW_LIMIT = 1 << 23
# the kernel's integer ranges are widened by this multiple of the
# magnitudes its float bounds are computed from: some 1e5 times their
# rounding error, and far below one row (``_box_rows``)
RANGE_SLACK = 1e-9


def _ragged(starts: np.ndarray, counts: np.ndarray, *columns):
    """Expand runs of consecutive integers: run i is starts[i], starts[i] + 1,
    ... with counts[i] entries.  Returns the entry values, then each of
    ``columns`` (one value per run) repeated along its run."""
    values = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    values += np.arange(len(values))
    return (values, *(np.repeat(c, counts) for c in columns))


def _budget_runs(weights: np.ndarray, budget: int):
    """(start, stop) of consecutive index runs whose weights sum to at most
    ``budget``; an entry heavier than the budget is a run of its own."""
    total = np.cumsum(weights)
    start = 0
    while start < len(weights):
        base = total[start - 1] if start else 0
        stop = max(int(np.searchsorted(total, base + budget, side="right")), start + 1)
        yield start, stop
        start = stop


def _check_scan_size(rows, what: str) -> None:
    """Refuse a scan of more than ``SCAN_ROW_LIMIT`` rows (or a NaN count)
    before anything of that size is allocated."""
    if not rows <= SCAN_ROW_LIMIT:
        raise InvalidInputError(
            f"scan too large: {rows:.3g} {what}, more than the limit of {SCAN_ROW_LIMIT}"
        )


def _shared(f):
    """A per-surface or per-job field as an array, or as its single value
    when it has one entry, which then broadcasts over every row."""
    if isinstance(f, float):
        return f
    f = np.asarray(f, dtype=float)
    return f.item() if f.size == 1 else f


def _at(f, index):
    """The field's values at ``index``; a single value is everyone's."""
    return f[index] if isinstance(f, np.ndarray) else f


def _bound_rows(lo, hi, p, c, b_lo, b_hi, scratch, first=False) -> None:
    """Tighten each row's m-range [lo, hi] in place to b_lo <= p*m + c <= b_hi.

    Whichever quotient (b - c)/p is smaller is the lower bound, so the sign
    of p needs no test.  At p = 0 the quotients are infinite: they empty the
    range of a row that breaks the constraint and leave it alone otherwise,
    and a 0/0 is a NaN that ``minimum``/``maximum`` pass on and
    ``fmax``/``fmin`` skip.  ``scratch`` holds three rows of temporaries;
    ``first`` starts from the whole line, reading neither lo nor hi.
    """
    r_lo, r_hi, lower = scratch
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.subtract(b_lo, c, out=r_lo), p, out=r_lo)
        np.divide(np.subtract(b_hi, c, out=r_hi), p, out=r_hi)
    np.minimum(r_lo, r_hi, out=lower)
    np.maximum(r_lo, r_hi, out=r_hi)
    np.fmax(-np.inf if first else lo, lower, out=lo)
    np.fmin(np.inf if first else hi, r_hi, out=hi)


def _box_rows(g, box, jobs, slope_max=None, budget: int = STRIP_ROW_BUDGET, pad=0.0, mn=True):
    """Points of g_s*Z^2 + v_j in the closed box of surface s, and with
    ``slope_max`` also on or below y = slope_max_s * x + pad up to slack, for
    every job j = (s, v_j).

    ``g`` = (m11, m12, m21, m22) and ``box`` = (x_lo, x_hi, y_lo, y_hi) hold
    one entry per surface, ``jobs`` = (surface, vx, vy) one per job with the
    surfaces nondecreasing and each in a job; ``pad``, a single value,
    raises every slope line.  A field with one entry is a single value that
    broadcasts, so a call for one surface and one job does the per-row work
    of a scalar scan.
    For each job the n-range covers g^-1(box - v), each n gets the m-range
    its constraints allow, and the exact filter then keeps the rows whose
    float x and y (computed as m11*m, plus m12*n, plus vx; the same for y)
    pass the box and slope tests.

    The ranges only have to hold every row the filter keeps, so they are
    widened by a slack on the scale of their rounding error, not by whole
    rows.  Every point of the box has |n| <= t_n, the sum of the largest
    corner terms of n, and |m11*m| + |m12*n| + |vx| <= 2*s_x, where s_x =
    max(|x_lo|, |x_hi|) + |m12|*t_n + |vx|; likewise for y with s_y.  With
    u = 2^-53 and up to terms in u^2, a kept row's float x and y lie within
    6u*s_x and 6u*s_y of its exact ones, and so the exact bounds, shifted by
    that, hold it.  Each float bound errs from its exact bound by at most:

    - n-range: 12u*(|i21|*s_x + |i22|*s_y) rows, the kept row's rounding
      included; the sum also bounds (kappa + 1)*t_n, where kappa =
      (|m11*m22| + |m12*m21|)/|det| scales det's rounding;
    - x and y: 13u*s_x or 13u*s_y in the units of p*m + c, over the terms of
      c = q*n + v, of b - c and of the quotient by p;
    - slope: 30u*(s_y + |sigma|*s_x + slack), the rounding of p = m21 -
      sigma*m11 times |m| included.

    So the n-range is widened by ``RANGE_SLACK``*(|i21|*s_x + |i22|*s_y)
    rows, and each constraint's bounds by ``RANGE_SLACK`` times its
    magnitude before dividing by p: some 1e5 times the error, and under one
    row until those magnitudes reach some 1e9.  At p = 0 the quotients stay
    infinite: a row whose constant term lies beyond the widened bounds is
    emptied and any other row is left whole for the filter; for x and y that
    constant term is exactly the filter's x or y.  The kept rows, and their
    floats, do not depend on the ranges.

    Yields (job, x, y, m, n) arrays holding whole surfaces, rows ordered by
    job, then n, then m (m and n None unless ``mn``); a chunk expands at
    most ``budget`` candidate rows unless one surface alone needs more.  A
    scan whose n-range, or one surface's candidate rows, exceeds
    ``SCAN_ROW_LIMIT`` raises ``InvalidInputError`` before it is allocated.
    """
    surf = np.asarray(jobs[0], dtype=np.int64)
    if not len(surf):
        return
    # per job: a single value stays one, and one job per surface needs no gather
    each = surf if surf[-1] + 1 < len(surf) else slice(None)
    m11, m12, m21, m22, x_lo, x_hi, y_lo, y_hi = (
        _at(_shared(f), each) for f in (*g, *box)
    )
    vx, vy = _shared(jobs[1]), _shared(jobs[2])
    det = m11 * m22 - m12 * m21
    if not np.all(np.abs(det) >= 1e-15):
        raise DegenerateInputError("generator is singular")

    # n-range per job from g^-1 of the box corners: n is i21*x' + i22*y' at
    # a corner, and rounding is monotone, so its extremes over the corners
    # are sums of the extremes of each term.  The slacks are RANGE_SLACK
    # times the magnitudes t_n, s_x and s_y of the docstring
    i21, i22 = -m21 / det, m11 / det
    nx = i21 * (x_lo - vx), i21 * (x_hi - vx)
    ny = i22 * (y_lo - vy), i22 * (y_hi - vy)
    t_n = np.maximum(np.abs(nx[0]), np.abs(nx[1])) + np.maximum(np.abs(ny[0]), np.abs(ny[1]))
    s_x = np.maximum(np.abs(x_lo), np.abs(x_hi)) + np.abs(m12) * t_n + np.abs(vx)
    s_y = np.maximum(np.abs(y_lo), np.abs(y_hi)) + np.abs(m22) * t_n + np.abs(vy)
    e_n = RANGE_SLACK * (np.abs(i21) * s_x + np.abs(i22) * s_y)
    n_first = np.atleast_1d(np.ceil(np.minimum(*nx) + np.minimum(*ny) - e_n))
    n_count = np.floor(np.maximum(*nx) + np.maximum(*ny) + e_n) - n_first + 1
    _check_scan_size(n_count.sum(), "rows of n-range")
    n_count = n_count.astype(np.int64)
    ns, job = _ragged(n_first, n_count, np.arange(len(n_first)))

    # m-range per (job, n), each bound widened by its slack in the units of
    # its constraint
    def row(f):
        return _at(f, job)

    e_x, e_y = RANGE_SLACK * s_x, RANGE_SLACK * s_y
    lo, hi, *scratch = np.empty((5, len(ns)))
    _bound_rows(lo, hi, row(m11), row(m12) * ns + row(vx), row(x_lo - e_x), row(x_hi + e_x), scratch, True)
    _bound_rows(lo, hi, row(m21), row(m22) * ns + row(vy), row(y_lo - e_y), row(y_hi + e_y), scratch)
    if slope_max is not None:
        sig = _at(_shared(slope_max), each)
        slack = BOUND_SLACK * np.maximum(1.0, sig) + pad
        # y - sigma*x <= slack
        e_s = RANGE_SLACK * (s_y + np.abs(sig) * s_x + slack)
        q = row(sig * m12 - m22) * ns + row(sig * vx - vy + slack + e_s)
        _bound_rows(lo, hi, row(m21 - sig * m11), 0.0, -np.inf, q, scratch)
    # m_first = ceil(lo) and m_count = floor(hi) - m_first + 1, in place:
    # each temporary would be as long as the n-range
    m_first = np.ceil(lo, out=lo)
    m_count = np.floor(hi, out=hi)
    m_count -= m_first
    m_count += 1
    m_count = np.fmax(m_count, 0, out=m_count)
    rows_per_surface = np.bincount(surf, weights=np.bincount(job, m_count, len(surf)))
    _check_scan_size(rows_per_surface.max(), "candidate rows of one surface")
    m_count = m_count.astype(np.int64)

    debug = logger.isEnabledFor(logging.DEBUG)
    kept = 0
    surface_rows = np.concatenate(([0], np.cumsum(n_count)))[np.searchsorted(surf, np.arange(len(rows_per_surface) + 1))]
    for s0, s1 in _budget_runs(rows_per_surface, budget):
        rows = slice(surface_rows[s0], surface_rows[s1])
        m, j, n = _ragged(m_first[rows], m_count[rows], job[rows], ns[rows])
        x = _at(m11, j) * m
        x += _at(m12, j) * n
        x += _at(vx, j)
        y = _at(m21, j) * m
        y += _at(m22, j) * n
        y += _at(vy, j)
        keep = (x >= _at(x_lo, j)) & (x <= _at(x_hi, j)) & (y >= _at(y_lo, j)) & (y <= _at(y_hi, j))
        if slope_max is not None:
            keep &= y <= _at(sig, j) * x + _at(slack, j)
        if debug:
            kept += int(np.count_nonzero(keep))
        yield j[keep], x[keep], y[keep], *((m[keep], n[keep]) if mn else (None, None))
    if debug:
        logger.debug(
            "box scan: %d jobs, %d n-rows, %d candidate rows, %d rows kept",
            len(surf), len(ns), int(rows_per_surface.sum()), kept,
        )


def lattice_box(
    g: Mat2,
    v: Vec2,
    x_lo: float,
    x_hi: float,
    y_lo: float,
    y_hi: float,
    slope_max: float | None = None,
) -> np.ndarray:
    """Points of g*Z^2 + v in the closed box [x_lo, x_hi] x [y_lo, y_hi],
    and with ``slope_max`` also on or below y = slope_max * x up to slack:
    the size-1 call of ``_box_rows``.

    A caller wanting a strict lower bound x > c passes x_lo =
    math.nextafter(c, math.inf).  Returns an array of shape (k, 4): columns
    x, y, m, n, ordered by n then m.
    """
    ((_, *columns),) = _box_rows(g, (x_lo, x_hi, y_lo, y_hi), ((0,), v.x, v.y), slope_max)
    return np.column_stack(columns)


def _coprime(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    return np.gcd(np.abs(m).astype(np.int64), np.abs(n).astype(np.int64)) == 1


def primitive_rows(pts: np.ndarray) -> np.ndarray:
    """The ``lattice_box`` rows whose coefficients (m, n) are coprime."""
    return pts[_coprime(pts[:, 2], pts[:, 3])] if len(pts) else pts


def _strip_window(x_max, slope_max, y_max, include_horizontal: bool):
    """The closed box (x_lo, x_hi, y_lo, y_hi) of the strip 0 < x <= x_max
    with y > 0 (y >= 0 with ``include_horizontal``), capped by
    y <= slope_max * x_max and/or y <= y_max, each upper bound padded by
    slack.  The caps may be per-surface arrays; every one must be finite."""
    if slope_max is None and y_max is None:
        raise InvalidInputError("need a slope cap or a height cap")
    if not np.all((x_max > 0) & (x_max < np.inf)):
        raise InvalidInputError("strip width must be positive and finite")
    caps = []
    if slope_max is not None:
        if not np.all((slope_max > 0) & (slope_max < np.inf)):
            raise InvalidInputError("slope cap must be positive and finite")
        caps.append(slope_max * x_max)
    if y_max is not None:
        if not np.all((y_max >= 0) & (y_max < np.inf)):
            raise InvalidInputError("height cap must be nonnegative and finite")
        caps.append(y_max)
    y_cap = np.minimum(*caps) if len(caps) == 2 else caps[0]
    y_lo = -Y_EPS if include_horizontal else Y_EPS
    # x > X_EPS and y > y_lo, as the closed bounds at the next float up
    return (
        math.nextafter(X_EPS, math.inf),
        x_max + BOUND_SLACK * np.maximum(1.0, x_max),
        math.nextafter(y_lo, math.inf),
        y_cap + BOUND_SLACK * np.maximum(1.0, y_cap),
    )


def _in_strip(x, y, slope_max: float):
    """The rows (x, y) of a wider scan that the strip window of
    ``_strip_window(1.0, slope_max, None, False)`` and the kernel's slope
    line at ``slope_max`` keep, by the same float tests.  The x-range is
    not tested: the scan must share the window's."""
    pad = BOUND_SLACK * max(1.0, slope_max)
    return (y > Y_EPS) & (y <= slope_max + pad) & (y <= slope_max * x + pad)


def _lattice_scan(
    g: Mat2,
    v: Vec2,
    *,
    x_max: float = 1.0,
    slope_max: float | None = None,
    y_max: float | None = None,
    include_horizontal: bool = False,
    primitive: bool = False,
) -> np.ndarray:
    """All points of g*Z^2 + v with 0 < x <= x_max and y in the requested
    window (0 < y, or y >= 0 with ``include_horizontal``), capped by
    y <= slope_max * x and/or y <= y_max.

    Returns an array of shape (k, 4): columns x, y, m, n.
    """
    box = _strip_window(x_max, slope_max, y_max, include_horizontal)
    pts = lattice_box(g, v, *box, slope_max)
    return primitive_rows(pts) if primitive else pts


def _strip_rows(
    g: Mat2,
    v: Vec2,
    mode: SurfaceMode,
    slope_max,
    *,
    x_max: float = 1.0,
    y_max: float | None = None,
    include_horizontal: bool = False,
    lattice: bool = False,
):
    """The raw rows of ``strip_holonomy_batch``: (surface index, x, y)
    chunks holding whole surfaces, grouped by surface in ``_box_rows``
    order, neither sorted nor deduplicated, so under ``DOUBLED_SLIT`` a
    vector may appear once per component.  With ``lattice`` an
    ``AFFINE_ONLY`` surface also scans its whole lattice g*Z^2, every point,
    as a component before its coset: the slit-cover candidate set.  Each
    block of ``STRIP_BLOCK`` surfaces is one ``_box_rows`` call; only the
    doubled lattice component's primitivity test reads its m and n."""
    cap = np.nan if slope_max is None else slope_max
    *fields, cap = np.atleast_1d(*(np.asarray(f, dtype=float) for f in np.broadcast_arrays(*g, *v, cap)))
    if fields[0].ndim != 1:
        raise InvalidInputError("batch fields must be scalars or 1-d arrays")
    _require_surfaces(*fields)
    box = _strip_window(x_max, None if slope_max is None else cap, y_max, include_horizontal)

    # components per surface, surface-major: the marked coset; doubled, the
    # primitive lattice vectors (component 0), the coset and the negated
    # coset; with ``lattice``, the first two of these, keeping every point
    k = 3 if mode is SurfaceMode.DOUBLED_SLIT else 2 if lattice else 1
    for start in range(0, len(cap), STRIP_BLOCK):
        block = slice(start, start + STRIP_BLOCK)
        m11, m12, m21, m22, vx, vy = (f[block] for f in fields)
        if k > 1:
            zero = np.zeros_like(vx)
            vx = np.column_stack([zero, vx, -vx][:k]).ravel()
            vy = np.column_stack([zero, vy, -vy][:k]).ravel()
        surf = np.repeat(np.arange(len(m11)), k)
        for j, x, y, m, n in _box_rows(
            (m11, m12, m21, m22), [_at(b, block) for b in box], (surf, vx, vy),
            None if slope_max is None else cap[block], STRIP_ROW_BUDGET, mn=k == 3,
        ):
            if k == 3:
                keep = j % 3 != 0
                keep[~keep] = _coprime(m[~keep], n[~keep])
                j, x, y = j[keep], x[keep], y[keep]
            yield start + surf[j], x, y


def strip_holonomy_batch(
    g: Mat2,
    v: Vec2,
    mode: SurfaceMode,
    slope_max,
    *,
    x_max: float = 1.0,
    y_max: float | None = None,
    include_horizontal: bool = False,
):
    """Holonomy vectors of many surfaces at once in the strip 0 < x <= x_max,
    y > 0 (y >= 0 with ``include_horizontal``), with slope at most
    ``slope_max`` and/or height at most ``y_max``.

    The fields of ``g`` and ``v`` and ``slope_max`` (unless None) are arrays
    or scalars broadcast to one entry per surface; ``x_max`` and ``y_max``
    are shared by all, and every cap must be finite.  The components of
    surface i are its marked coset, and under ``DOUBLED_SLIT`` also the
    primitive lattice vectors and the negated coset; one ``_box_rows`` call
    scans them all (``_strip_rows``), and this enumeration then sorts each
    chunk (``_dedup_batch``: one argsort, a lexsort only on ties in x) and
    keeps vectors repeated across components (equal within 1e-12) once.
    Yields (surface index, xy) chunks holding whole surfaces, with rows
    sorted by (surface, x, y).  Surfaces go in blocks of ``STRIP_BLOCK`` and
    chunks of ``STRIP_ROW_BUDGET`` candidate rows, so memory stays flat in
    the number of surfaces.
    """
    for s, x, y in _strip_rows(
        g, v, mode, slope_max, x_max=x_max, y_max=y_max, include_horizontal=include_horizontal
    ):
        yield _dedup_batch(s, x, y)


def _dedup_batch(s: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(surface, xy) sorted by (surface, x, y) with near-duplicates of the
    previous row of the same surface dropped; every x is positive."""
    # an argsort of x + surface * (max x + 1) is the lexsort order unless keys tie
    key = x + s * (x.max() + 1.0) if len(s) and s[0] != s[-1] else x
    order = np.argsort(key)
    if np.any(key[order[1:]] == key[order[:-1]]):
        order = np.lexsort((y, x, s))
    s, x, y = s[order], x[order], y[order]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (np.abs(np.diff(x)) > VECTOR_DEDUP_TOL) | (np.abs(np.diff(y)) > VECTOR_DEDUP_TOL)
    return s[keep], np.column_stack([x[keep], y[keep]])


def _holonomy_points(surface: AffineLattice, mode: SurfaceMode, slope_max, **window) -> np.ndarray:
    """Distinct holonomy vectors of one surface, shape (k, 2), sorted by
    (x, y): the size-1 call of ``strip_holonomy_batch``."""
    ((_, xy),) = strip_holonomy_batch(surface.g, surface.v, mode, slope_max, **window)
    return xy


def enumerate_strip(
    surface: AffineLattice,
    mode: SurfaceMode,
    slope_max: float,
    *,
    y_max: float | None = None,
    include_horizontal: bool = False,
) -> np.ndarray:
    """Holonomy vectors in the vertical strip 0 < x <= 1, y > 0 with slope at
    most ``slope_max`` (or height at most ``y_max``, which then replaces the
    slope cap), sorted by slope: ``strip_holonomy_batch`` of one surface.

    Returns an array of shape (k, 2).  Exact duplicates across holonomy
    components are removed; distinct vectors sharing a slope are kept.
    """
    xy = _holonomy_points(
        surface,
        mode,
        slope_max if y_max is None else None,
        y_max=y_max,
        include_horizontal=include_horizontal,
    )
    snapped = np.where(np.abs(xy[:, 1]) <= Y_EPS, 0.0, xy[:, 1])
    order = np.argsort(snapped / xy[:, 0], kind="stable")
    return xy[order]


def slopes_and_gaps(points: np.ndarray) -> GapSeries:
    """Slope series of strip vectors, the rows (x, y) of a (k, 2) array:
    sorted distinct slopes and their gaps.

    Slopes closer than 1e-12 (relative) are merged and counted in ``merged``.
    Vectors with |y| <= 1e-12 contribute slope exactly 0.
    """
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return GapSeries(np.empty(0), np.empty(0), 0, 0)
    x, y = arr[:, 0], arr[:, 1]
    if np.any(x <= 0):
        raise InvalidInputError("strip vectors must have positive x")
    slopes = np.where(np.abs(y) <= Y_EPS, 0.0, y) / x
    slopes = np.sort(slopes)
    if len(slopes) > 1:
        tol = SLOPE_MERGE_TOL * np.maximum(1.0, np.abs(slopes[1:]))
        keep = np.concatenate([[True], np.diff(slopes) > tol])
        merged = int(len(slopes) - keep.sum())
        slopes = slopes[keep]
    else:
        merged = 0
    return GapSeries(slopes, np.diff(slopes), len(slopes), merged)


def renormalized_box_gaps(surface: AffineLattice, mode: SurfaceMode, r: float) -> GapSeries:
    """Gaps of first-quadrant holonomy slopes at max-norm at most R, scaled
    by R^2.

    The box is 0 < x <= R, 0 <= y <= R (horizontal vectors included, so the
    lattice's slope 0 participates).  The returned series carries the raw box
    slopes and the R^2-scaled gaps; as a multiset the scaled gaps equal the
    strip gaps of the diag(1/R, R)-image surface enumerated up to height R^2.
    """
    series = slopes_and_gaps(
        _holonomy_points(surface, mode, None, x_max=r, y_max=r, include_horizontal=True)
    )
    return GapSeries(series.slopes, r * r * series.gaps, series.count, series.merged)
