"""Planar lattice geometry: holonomy vectors of marked tori and slit-torus
covers, strip/box enumeration, and slope gap series.

A surface is an affine lattice (g, v): the unimodular lattice g*Z^2 together
with a marked coset g*Z^2 + v. Two holonomy conventions are supported:

* ``SurfaceMode.AFFINE_ONLY`` - holonomy set is the coset g*Z^2 + v only.
* ``SurfaceMode.DOUBLED_SLIT`` - holonomy set of the genus-2 double cover of
  the torus slit along the marked segment: primitive lattice vectors together
  with both signed cosets +-(g*Z^2 + v).

All enumeration is exact: integer coefficient ranges are derived from the
adjugate inverse of the generator, padded by one, and then filtered by the
defining inequalities.  Membership tolerances: x > 1e-12, x <= x_max + slack,
y within 1e-12 of zero counts as horizontal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

X_EPS = 1e-12
Y_EPS = 1e-12
BOUND_SLACK = 1e-12
SLOPE_MERGE_TOL = 1e-12
UNIMODULAR_TOL = 1e-9
VECTOR_DEDUP_TOL = 1e-12


class Vec2(NamedTuple):
    """Plane vector with the handful of operations the dynamics needs."""

    x: float
    y: float

    def cross(self, other: "Vec2") -> float:
        """Signed area det[self, other]."""
        return self.x * other.y - self.y * other.x

    def slope(self) -> float:
        if self.x == 0.0:
            raise InvalidInputError("slope undefined for vertical vector")
        return self.y / self.x

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
        if abs(d) < 1e-15:
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
        d = self.g.det()
        if abs(d - 1.0) > UNIMODULAR_TOL:
            raise InvalidInputError(f"generator must be unimodular, det={d!r}")
        return self


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
    """Translate the marking into the fundamental parallelogram of g*Z^2.

    The coefficient vector g^-1 v is reduced into [0, 1)^2 componentwise and
    the representative g * frac is returned.
    """
    d = g.det()
    if abs(d) < 1e-9:
        raise InvalidInputError(f"generator is singular (det={d!r})")
    inv = g.inverse()
    c = inv.apply(v)
    frac = Vec2(c.x - math.floor(c.x), c.y - math.floor(c.y))
    return g.apply(frac)


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
    and with ``slope_max`` also on or below y = slope_max * x up to slack.

    The n-range covers g^-1(box - v), each n gets the m-range its
    constraints allow, and both are padded by one before the exact filter.
    A caller wanting a strict lower bound x > c passes x_lo =
    math.nextafter(c, math.inf).  Returns an array of shape (k, 4): columns
    x, y, m, n, ordered by n then m.
    """
    inv = g.inverse()
    corners = [
        inv.m21 * (x - v.x) + inv.m22 * (y - v.y) for x in (x_lo, x_hi) for y in (y_lo, y_hi)
    ]
    ns = np.arange(math.floor(min(corners)) - 1, math.ceil(max(corners)) + 2, dtype=float)

    lo = np.full(ns.shape, -np.inf)
    hi = np.full(ns.shape, np.inf)
    mask = np.ones(ns.shape, dtype=bool)

    def bound(p: float, q: np.ndarray, upper: bool) -> None:
        # constraint p*m <= q (upper) or p*m >= q (lower)
        nonlocal lo, hi, mask
        if p > 0:
            if upper:
                hi = np.minimum(hi, q / p)
            else:
                lo = np.maximum(lo, q / p)
        elif p < 0:
            if upper:
                lo = np.maximum(lo, q / p)
            else:
                hi = np.minimum(hi, q / p)
        else:
            mask &= (q >= 0) if upper else (q <= 0)

    x_n = g.m12 * ns + v.x
    y_n = g.m22 * ns + v.y
    bound(g.m11, x_lo - x_n, upper=False)
    bound(g.m11, x_hi - x_n, upper=True)
    bound(g.m21, y_lo - y_n, upper=False)
    bound(g.m21, y_hi - y_n, upper=True)
    if slope_max is not None:
        # y - sigma*x <= 0 up to slack
        sig = slope_max
        bound(
            g.m21 - sig * g.m11,
            (sig * g.m12 - g.m22) * ns + sig * v.x - v.y + BOUND_SLACK * max(1.0, sig),
            upper=True,
        )

    m_lo = np.where(mask, np.ceil(lo) - 1, 1.0)
    m_hi = np.where(mask, np.floor(hi) + 1, 0.0)
    counts = np.maximum(m_hi - m_lo + 1, 0).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, 4))

    n_flat = np.repeat(ns, counts)
    starts = np.repeat(m_lo, counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    m_flat = starts + offsets

    x = g.m11 * m_flat + g.m12 * n_flat + v.x
    y = g.m21 * m_flat + g.m22 * n_flat + v.y
    keep = (x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi)
    if slope_max is not None:
        keep &= y <= slope_max * x + BOUND_SLACK * max(1.0, slope_max)
    return np.column_stack([x[keep], y[keep], m_flat[keep], n_flat[keep]])


def primitive_rows(pts: np.ndarray) -> np.ndarray:
    """The ``lattice_box`` rows whose coefficients (m, n) are coprime."""
    if not len(pts):
        return pts
    m, n = np.abs(pts[:, 2]).astype(np.int64), np.abs(pts[:, 3]).astype(np.int64)
    return pts[np.gcd(m, n) == 1]


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
    if slope_max is None and y_max is None:
        raise InvalidInputError("need a slope cap or a height cap")
    caps = []
    if slope_max is not None:
        if slope_max <= 0:
            raise InvalidInputError("slope cap must be positive")
        caps.append(slope_max * x_max)
    if y_max is not None:
        if y_max < 0:
            raise InvalidInputError("height cap must be nonnegative")
        caps.append(y_max)
    y_cap = min(caps)

    x_hi = x_max + BOUND_SLACK * max(1.0, x_max)
    y_lo = -Y_EPS if include_horizontal else Y_EPS
    y_hi = y_cap + BOUND_SLACK * max(1.0, y_cap)
    # x > X_EPS and y > y_lo, as the closed bounds at the next float up
    pts = lattice_box(
        g, v, math.nextafter(X_EPS, math.inf), x_hi, math.nextafter(y_lo, math.inf), y_hi, slope_max
    )
    return primitive_rows(pts) if primitive else pts


def _dedup_vectors(xy: np.ndarray) -> np.ndarray:
    """Remove repeated vectors (same x and y within 1e-12) after sorting by
    (x, y); used when mode components overlap."""
    if len(xy) <= 1:
        return xy
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    xy = xy[order]
    d = np.abs(np.diff(xy, axis=0))
    keep = np.concatenate([[True], (d > VECTOR_DEDUP_TOL).any(axis=1)])
    return xy[keep]


def _holonomy_points(surface: AffineLattice, mode: SurfaceMode, **scan) -> np.ndarray:
    """Distinct holonomy vectors, shape (k, 2), from a ``_lattice_scan`` of
    each component: the marked coset, and under ``DOUBLED_SLIT`` also the
    primitive lattice vectors and the negated coset."""
    surface.check()
    g, v = surface.g, surface.v
    if mode is SurfaceMode.AFFINE_ONLY:
        components = [(v, False)]
    else:
        components = [(Vec2(0.0, 0.0), True), (v, False), (-v, False)]
    parts = [_lattice_scan(g, c, primitive=prim, **scan)[:, :2] for c, prim in components]
    return _dedup_vectors(np.concatenate(parts))


# ---------------------------------------------------------------------------
# batched strip scan: the window of ``lattice_box`` for many lattices at once

# surfaces per block of the batched strip scan, and candidate rows (lattice
# points before the exact filter) per chunk of a block
STRIP_BLOCK = 1024
STRIP_ROW_BUDGET = 1 << 14


def _ragged(starts: np.ndarray, counts: np.ndarray):
    """Expand runs of consecutive integers: run i is starts[i], starts[i] + 1,
    ... with counts[i] entries.  Returns (run of each entry, entry values)."""
    run = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return run, starts[run] + (np.arange(len(run)) - first[run])


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


def _bound_rows(lo, hi, mask, p, q, upper: bool):
    """``lattice_box``'s constraint p*m <= q (upper) or p*m >= q, row by row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = q / p
    tighten_hi = p > 0 if upper else p < 0
    tighten_lo = p < 0 if upper else p > 0
    hi = np.where(tighten_hi, np.minimum(hi, r), hi)
    lo = np.where(tighten_lo, np.maximum(lo, r), lo)
    mask &= (p != 0) | ((q >= 0) if upper else (q <= 0))
    return lo, hi


def strip_holonomy_batch(g: Mat2, v: Vec2, mode: SurfaceMode, slope_max):
    """Strip holonomy of many surfaces at once: for surface i = (g_i, v_i),
    the vectors ``enumerate_strip(surface_i, mode, slope_max_i)`` finds.

    The fields of ``g`` and ``v`` and ``slope_max`` are arrays (or scalars)
    broadcast to one entry per surface.  Every window, component,
    primitivity test and near-duplicate drop is computed exactly as the
    one-surface path computes it, so the vectors are bit-identical.  Yields
    (surface index, xy) chunks holding whole surfaces, with rows sorted by
    (surface, x, y).  Surfaces go in blocks of ``STRIP_BLOCK``, and a chunk
    expands at most ``STRIP_ROW_BUDGET`` candidate rows unless one surface
    alone needs more, so memory stays flat in the number of surfaces.
    """
    fields = [np.asarray(f, dtype=float) for f in np.broadcast_arrays(*g, *v, slope_max)]
    if fields[0].ndim != 1:
        raise InvalidInputError("batch fields must be scalars or 1-d arrays")
    for start in range(0, len(fields[0]), STRIP_BLOCK):
        block = [f[start:start + STRIP_BLOCK] for f in fields]
        for s, xy in _strip_block(*block, mode, STRIP_ROW_BUDGET):
            yield start + s, xy


def _strip_block(m11, m12, m21, m22, vx, vy, cap, mode: SurfaceMode, budget: int):
    """One block of ``strip_holonomy_batch``: the n-range of every component
    at once, then the m-ranges and the exact filter in budgeted chunks."""
    det = m11 * m22 - m12 * m21
    if np.any(np.abs(det - 1.0) > UNIMODULAR_TOL):
        raise InvalidInputError("generators must be unimodular")
    if np.any(~(cap > 0)):
        raise InvalidInputError("slope cap must be positive")

    # components per surface, surface-major: the marked coset, and doubled
    # also the primitive lattice vectors and the negated coset
    if mode is SurfaceMode.AFFINE_ONLY:
        k, jvx, jvy, prim = 1, vx, vy, np.zeros(1, bool)
    else:
        zero = np.zeros_like(vx)
        k = 3
        jvx = np.column_stack([zero, vx, -vx]).ravel()
        jvy = np.column_stack([zero, vy, -vy]).ravel()
        prim = np.array([True, False, False])
    surf = np.repeat(np.arange(len(cap)), k)
    jprim = np.tile(prim, len(cap))

    # the box of ``_lattice_scan`` at x_max = 1 with slope and height cap
    x_lo = math.nextafter(X_EPS, math.inf)
    x_hi = 1.0 + BOUND_SLACK
    y_lo = math.nextafter(Y_EPS, math.inf)
    slack = BOUND_SLACK * np.maximum(1.0, cap)
    y_hi = cap + slack

    # n-range per component from g^-1 of the box corners, padded by one
    i21 = (-m21 / det)[surf]
    i22 = (m11 / det)[surf]
    corners = np.stack([
        i21 * (x - jvx) + i22 * (y - jvy)
        for x in (x_lo, x_hi) for y in (y_lo, y_hi[surf])
    ])
    n_first = np.floor(corners.min(axis=0)) - 1
    n_count = (np.ceil(corners.max(axis=0)) + 1 - n_first + 1).astype(np.int64)

    # m-range per (component, n), as lattice_box's bounds
    job, ns = _ragged(n_first, n_count)
    sj = surf[job]
    x_n = m12[sj] * ns + jvx[job]
    y_n = m22[sj] * ns + jvy[job]
    p_x, p_y, sig = m11[sj], m21[sj], cap[sj]
    lo = np.full(ns.shape, -np.inf)
    hi = np.full(ns.shape, np.inf)
    mask = np.ones(ns.shape, dtype=bool)
    lo, hi = _bound_rows(lo, hi, mask, p_x, x_lo - x_n, upper=False)
    lo, hi = _bound_rows(lo, hi, mask, p_x, x_hi - x_n, upper=True)
    lo, hi = _bound_rows(lo, hi, mask, p_y, y_lo - y_n, upper=False)
    lo, hi = _bound_rows(lo, hi, mask, p_y, y_hi[sj] - y_n, upper=True)
    # y - sigma*x <= 0 up to slack
    lo, hi = _bound_rows(
        lo, hi, mask,
        p_y - sig * p_x,
        (sig * m12[sj] - m22[sj]) * ns + sig * jvx[job] - jvy[job] + slack[sj],
        upper=True,
    )
    m_first = np.where(mask, np.ceil(lo) - 1, 1.0)
    m_last = np.where(mask, np.floor(hi) + 1, 0.0)
    m_count = np.maximum(m_last - m_first + 1, 0).astype(np.int64)
    rows_per_surface = np.bincount(sj, weights=m_count, minlength=len(cap))
    surface_rows = np.searchsorted(sj, np.arange(len(cap) + 1))

    for s0, s1 in _budget_runs(rows_per_surface, budget):
        rows = slice(surface_rows[s0], surface_rows[s1])
        r, m = _ragged(m_first[rows], m_count[rows])
        j = job[rows][r]
        n = ns[rows][r]
        s = surf[j]
        x = m11[s] * m + m12[s] * n + jvx[j]
        y = m21[s] * m + m22[s] * n + jvy[j]
        keep = (x >= x_lo) & (x <= x_hi) & (y >= y_lo) & (y <= y_hi[s])
        keep &= y <= cap[s] * x + slack[s]
        p = keep & jprim[j]
        keep[p] = np.gcd(
            np.abs(m[p]).astype(np.int64), np.abs(n[p]).astype(np.int64)
        ) == 1
        yield _dedup_batch(s[keep], x[keep], y[keep])


def _dedup_batch(s: np.ndarray, x: np.ndarray, y: np.ndarray):
    """``_dedup_vectors`` within each surface: (surface, xy) sorted by
    (surface, x, y) with near-duplicates of the previous row dropped."""
    order = np.lexsort((y, x, s))
    s, xy = s[order], np.column_stack([x[order], y[order]])
    keep = np.ones(len(s), dtype=bool)
    if len(s) > 1:
        keep[1:] = (s[1:] != s[:-1]) | (np.abs(np.diff(xy, axis=0)) > VECTOR_DEDUP_TOL).any(axis=1)
    return s[keep], xy[keep]


def enumerate_strip(
    surface: AffineLattice,
    mode: SurfaceMode,
    slope_max: float,
    *,
    y_max: float | None = None,
    include_horizontal: bool = False,
) -> np.ndarray:
    """Holonomy vectors in the vertical strip 0 < x <= 1, y > 0 with slope at
    most ``slope_max`` (or height at most ``y_max``), sorted by slope.

    Returns an array of shape (k, 2).  Exact duplicates across holonomy
    components are removed; distinct vectors sharing a slope are kept.
    """
    xy = _holonomy_points(
        surface,
        mode,
        slope_max=slope_max if y_max is None else None,
        y_max=y_max,
        include_horizontal=include_horizontal,
    )
    snapped = np.where(np.abs(xy[:, 1]) <= Y_EPS, 0.0, xy[:, 1])
    order = np.argsort(snapped / xy[:, 0], kind="stable")
    return xy[order]


def slopes_and_gaps(points: Union[np.ndarray, Iterable[Vec2]]) -> GapSeries:
    """Slope series of strip vectors: sorted distinct slopes and their gaps.

    Slopes closer than 1e-12 (relative) are merged and counted in ``merged``.
    Vectors with |y| <= 1e-12 contribute slope exactly 0.
    """
    arr = np.asarray(
        [(p.x, p.y) for p in points] if not isinstance(points, np.ndarray) else points,
        dtype=float,
    )
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
    if r <= 0:
        raise InvalidInputError("box size must be positive")
    series = slopes_and_gaps(
        _holonomy_points(surface, mode, x_max=r, y_max=r, include_horizontal=True)
    )
    return GapSeries(series.slopes, r * r * series.gaps, series.count, series.merged)


def box_slope_count(surface: AffineLattice, mode: SurfaceMode, r: float) -> int:
    """N(R): number of distinct first-quadrant holonomy slopes at max-norm <= R."""
    return renormalized_box_gaps(surface, mode, r).count


def d_cover_holonomy(d: int, surface: AffineLattice, slope_max: float) -> np.ndarray:
    """Strip holonomy of the d-symmetric cyclic torus cover branched over the
    marked segment.

    The saddle connections of every such cover project to the same planar
    set, so for any d >= 2 this is exactly the doubled-slit enumeration.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidInputError("cover degree must be an integer >= 2")
    return enumerate_strip(surface, SurfaceMode.DOUBLED_SLIT, slope_max)
