"""Poincare sections of the horocycle flow and their first-return data.

Three sections appear:

* the lattice section: unimodular lattices with a horizontal vector of
  length at most 1, coordinatized by (a, b) with generator
  [[a, b], [0, 1/a]]; first return is the Farey-type map ``bcz_return_map``.
* the affine-lattice section: marked-coset surfaces whose marking has a
  horizontal representative of length at most 1, coordinatized by
  (a, b, s, alpha) with generator h_s [[a, b], [0, 1/a]] and marking
  (alpha, 0) (omega rows), plus the vertical-lattice family (vertical rows)
  whose lattice part never returns to the lattice section.
* the slit-cover section: surfaces whose doubled-slit holonomy contains a
  short horizontal, split into a short-lattice state (sl rows) and a
  short-affine state (sa rows).

Return times are closed-form; every formula is cross-checked against the
enumeration oracle elsewhere.  Each section formula has one implementation,
elementwise over arrays (``omega_region_vec``, ``omega_return_vec``,
``w_return_sl_vec``, ``w_return_sa_vec``, ``rho_sl_to_sa``).  One tie rule
holds throughout: a point within ``TIE_TOL`` of a region boundary goes to the
lower-indexed region, and ties are logged at DEBUG level.

Section points are the rows of ``SectionColumns``: an orbit's points
(``orbit_section_coords``) and the sampled batches of ``measures``.
``check_rows`` is their one range check; ``section_returns`` and
``section_surfaces`` give every row's return and surface, whatever its kind;
``OmegaCoords`` is one omega row given by hand, with the size-1 calls
``omega_to_surface`` and ``classify_omega``.
``orbit_section_coords`` is the one recoordinatization: it reads the
points of a whole horocycle orbit off the rows of one kernel pass over the
unflowed surface (``orbit_scan``), which the enumeration oracle's orbits
share with their strip slopes.  ``flowed_section_coords`` makes that pass
for given flow times.  ``section_step`` is the closed-form return map, one
row (kind, a, b, s, alpha) at a time.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NotOnTransversalError,
)
from .geometry import (
    AffineLattice,
    BOUND_SLACK,
    Mat2,
    SCAN_ROW_LIMIT,
    Vec2,
    X_EPS,
    Y_EPS,
    _box_rows,
    _coprime,
    _in_strip,
    _lattice_scan,
    _ragged,
    horocycle_apply,
    lattice_box,
    primitive_rows,
    reduce_to_fundamental,
)

logger = logging.getLogger(__name__)

COORD_SLACK = 1e-12
TIE_TOL = 1e-12
HORIZONTAL_TOL = 1e-9
FLOOR_NUDGE = 1e-12
NO_HORIZONTAL_REP = "marking has no horizontal representative"
NOT_ON_SLIT_SECTION = "surface is not on the slit-cover section"
# rows per closed-form call of ``section_returns``: its temporaries stay in cache
RETURN_ROWS = 1 << 14


def delta_basis(a: float, b: float) -> Mat2:
    """Lattice-section generator [[a, b], [0, 1/a]]."""
    return Mat2(a, b, 0.0, 1.0 / a)


def sheared_delta_basis(a: float, b: float, s: float) -> Mat2:
    """h_s applied to the lattice-section generator."""
    return Mat2(a, b, -s * a, 1.0 / a - s * b)


def vertical_basis(a: float, s: float) -> Mat2:
    """Generator [[0, -1/a], [a, s/a]] of a lattice with short vertical (0, a).

    The horocycle shifts s by the flow time; the lattice is s-periodic with
    period a^2.
    """
    return Mat2(0.0, -1.0 / a, a, s / a)


# the coordinate range checks, up to COORD_SLACK and elementwise: ``check_rows``
# runs them on columns, ``_checked`` and ``_triangle`` on one row


def _unit_ok(x):  # a and alpha
    return (0.0 < x) & (x <= 1.0 + COORD_SLACK)


def _b_ok(a, b):  # b > 0 also where the slack reaches it, at a = 1
    return (1.0 - a - COORD_SLACK < b) & (0.0 < b) & (b <= 1.0 + COORD_SLACK)


def _s_ok(a, b, s):  # slack relative above 1
    r = 1.0 / (a * b)
    return (-COORD_SLACK <= s) & (s < r + COORD_SLACK * np.maximum(1.0, r))


def _vl_s_ok(a, s):  # s of a vertical lattice
    return (-COORD_SLACK <= s) & (s <= a ** 2 + COORD_SLACK)


def _in_cell(a, b, v1, v2):  # the fundamental parallelogram of [[a, b], [0, 1/a]]
    c = delta_basis(a, b).inverse().apply(Vec2(v1, v2))
    return ((-COORD_SLACK <= c.x) & (c.x < 1.0 + COORD_SLACK)
            & (-COORD_SLACK <= c.y) & (c.y < 1.0 + COORD_SLACK))


SECTION_KINDS = ("omega", "vertical", "sl", "sa")
OMEGA, VERTICAL, SL, SA = range(len(SECTION_KINDS))


class SectionColumns(NamedTuple):
    """Section points as columns, one row per point, the one layout of an
    orbit or a sampled batch: ``kind`` indexes ``SECTION_KINDS``; a
    short-lattice (sl) row holds its marking (v1, v2) in s and alpha, and a
    vertical-lattice row, plain or sa, has b = nan."""

    kind: np.ndarray
    a: np.ndarray
    b: np.ndarray
    s: np.ndarray
    alpha: np.ndarray


def row_columns(rows) -> SectionColumns:
    """The columns of a list of rows (kind, a, b, s, alpha)."""
    kind, *coords = zip(*rows) if rows else ((),) * 5
    return SectionColumns(np.array(kind, dtype=np.int8), *(np.array(c, dtype=float) for c in coords))


def check_rows(cols: SectionColumns) -> None:
    """Raise ``InvalidInputError`` for the first row out of range, with its
    first failing check's message: an omega row checks a, b, s and alpha, a
    vertical row a, s (0 <= s <= a^2) and alpha, an sl row a, b and its
    marking's cell, and an sa row as a vertical row if b is nan, else as an
    omega row.  A nan b fails an omega or sl row on b."""
    kind, a, b, s, alpha = cols
    sl = kind == SL
    vertical = ~sl & (kind != OMEGA) & np.isnan(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        checks = (  # (rows that pass, message), in the order a row checks them
            (_unit_ok(a), "a out of range: {a!r}"),
            (vertical | _b_ok(a, b), "b out of range: {b!r} for a={a!r}"),
            (~sl | (_in_cell(a, b, s, alpha) if sl.any() else True), "marking outside the fundamental parallelogram"),
            (sl | vertical | _s_ok(a, b, s), "s out of range: {s!r}"),
            (~vertical | _vl_s_ok(a, s), "s out of range: {s!r} for a={a!r}"),
            (sl | _unit_ok(alpha), "alpha out of range: {alpha!r}"),
        )
    fails = ~np.array([ok for ok, _ in checks])
    bad = np.flatnonzero(fails.any(axis=0))
    if len(bad):
        row = {name: c[bad[0]].item() for name, c in cols._asdict().items()}
        raise InvalidInputError(checks[int(np.argmax(fails[:, bad[0]]))][1].format(**row))


@dataclass(frozen=True)
class OmegaCoords:
    """One affine-section point (a, b, s, alpha), range-checked as an omega
    row: s is the time since the lattice part last crossed its section, and
    (alpha, 0) the horizontal marking representative."""

    a: float
    b: float
    s: float
    alpha: float

    def __post_init__(self):
        check_rows(row_columns([(OMEGA, self.a, self.b, self.s, self.alpha)]))


class OmegaRegion(enum.Enum):
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    O4 = "O4"


# ---------------------------------------------------------------------------
# lattice section


def bcz_return_map(a: float, b: float) -> tuple:
    """(a, b) -> (b, -a + floor((1+a)/b) * b); a point in or out of the
    lattice-section triangle raises its range error."""
    _triangle(a, b)
    return _triangle(b, -a + math.floor((1.0 + a) / b + FLOOR_NUDGE) * b)


def _triangle(a: float, b: float) -> tuple:
    """(a, b) after a scalar range test, and ``check_rows`` where it fails."""
    if not (_unit_ok(a) and _b_ok(a, b)):
        check_rows(row_columns([(OMEGA, a, b, 0.0, 1.0)]))
    return a, b


# ---------------------------------------------------------------------------
# affine section: classification and return time, elementwise over arrays of
# generic coordinates (a, b, s, alpha); the point form ``classify_omega`` is
# a size-1 call


def _columns(*cols):
    """The arguments as float arrays of one shape, broadcast if theirs
    differ, scalars as numpy floats (which keep a size-1 call cheap)."""
    cols = [np.float64(c) if isinstance(c, float) else np.asarray(c, dtype=float) for c in cols]
    return cols if len({c.shape for c in cols}) == 1 else np.broadcast_arrays(*cols)


def _omega_masks(a, b, s, alpha):
    """Row masks (alpha > a, O1, O3) of affine-section float arrays, then
    the terms alpha - a, a*b and b + alpha, which the returns reuse.

    A point within ``TIE_TOL`` of a region boundary goes to the lower-indexed
    region: O1 and O2 need alpha > a + TIE_TOL, O1 takes s up to its
    threshold plus TIE_TOL (relative above 1), and O3 takes b + alpha up to
    1 + TIE_TOL.  Ties are logged at DEBUG level.
    """
    gap, ab, rise = alpha - a, a * b, b + alpha
    upper = alpha > a + TIE_TOL
    thr = gap / (ab * alpha)
    near = TIE_TOL * np.maximum(1.0, thr)
    o1 = upper & (s <= thr + near)
    o3 = ~upper & (rise <= 1.0 + TIE_TOL)
    if logger.isEnabledFor(logging.DEBUG):
        cols = a, b, s, alpha = np.broadcast_arrays(a, b, s, alpha)
        for name, tie, branch in (
            ("s=threshold", upper & (np.abs(s - thr) <= near), "O1"),
            ("alpha=a", np.abs(alpha - a) <= TIE_TOL, "alpha<=a branch"),
            ("b+alpha=1", ~upper & (np.abs(b + alpha - 1.0) <= TIE_TOL), "O3"),
        ):
            i = np.flatnonzero(tie)
            if len(i):
                logger.debug("classify tie %s on %d row(s), first (a, b, s, alpha)=%r; assigning %s",
                             name, len(i), tuple(float(c.flat[i[0]]) for c in cols), branch)
    return upper, o1, o3, gap, ab, rise


def omega_region_vec(a, b, s, alpha) -> np.ndarray:
    """Region labels 1-4 of affine-section points (ties as ``_omega_masks``)."""
    upper, o1, o3, *_ = _omega_masks(*_columns(a, b, s, alpha))
    return np.where(upper, np.where(o1, 1, 2), np.where(o3, 3, 4))


def _branches(default, *cases) -> tuple:
    """Piecewise values of elementwise columns of one shape.  ``default`` is
    (branch, operands) and each case (rows, branch, operands): ``branch`` of
    the float arrays ``operands`` returns a tuple of values.  The default's
    branch gives fresh arrays of every row; each case's branch is evaluated
    on its operands at the True rows of the boolean array ``rows`` only
    (``rows.nonzero()``) and written over them there, its values past the
    default's count dropped, so that a row pays for its own branch and no
    other.  A later case wins where masks overlap.  On 0-d columns, where
    indexing a size-1 array costs more than it saves, only the branch the
    row takes is evaluated, on the scalars, and returned whole.  Division by
    zero and invalid operations give inf and NaN without a warning."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if not cases[0][0].ndim:
            for rows, branch, operands in reversed(cases):
                if rows:
                    return branch(*operands)
            return default[0](*default[1])
        out = default[0](*default[1])
        for rows, branch, operands in cases:
            i = rows.nonzero()
            if len(i[0]):
                for o, v in zip(out, branch(*(c[i] for c in operands))):
                    o[i] = v
        return out


# the branches of the affine-section returns, each written once: (return
# time, arriving alpha) from the columns and the terms gap = alpha - a,
# ab = a*b and rise = b + alpha of ``_omega_masks``


def _o1_return(a, s, gap):
    return s * a / gap, gap


def _o3_return(a, b, s, rise):
    return (1.0 / a - s * b) / rise, rise


def _wrapped_return(a, b, s, alpha, gap):
    j = np.floor((1.0 + a - alpha) / b + FLOOR_NUDGE)
    arrive = gap + j * b
    return (j * (1.0 / a - s * b) + s * a) / arrive, arrive


def _unset(a):
    return np.empty_like(a), np.empty_like(a)


def _omega_returns(a, b, s, alpha):
    """(return times, arriving alphas, O3 mask) of affine-section float
    arrays of one shape (``_columns``).  The arriving alpha is the x of the
    marking representative that is horizontal at the return: alpha - a on
    O1, alpha + b on O3, and on the wrapped branches O2 and O4 the translate
    alpha - a + j*b, whose return keeps the sheared y-contribution ``s*a``.
    Each branch is evaluated on its own rows only (``_branches``): O1, O3,
    and the wrapped branch on every other row, NaN rows included."""
    _, o1, o3, gap, _, rise = _omega_masks(a, b, s, alpha)
    u, arrive = _branches(
        (_unset, (a,)),
        (~(o1 | o3), _wrapped_return, (a, b, s, alpha, gap)),
        (o1, _o1_return, (a, s, gap)),
        (o3, _o3_return, (a, b, s, rise)),
    )
    return u, arrive, o3


def omega_return_vec(a, b, s, alpha) -> np.ndarray:
    """First-return times of the affine section."""
    return _omega_returns(*_columns(a, b, s, alpha))[0]


def classify_omega(p: OmegaCoords) -> OmegaRegion:
    """Region of the affine section a point falls in, the size-1 call of
    ``omega_region_vec``."""
    return OmegaRegion(f"O{int(omega_region_vec(p.a, p.b, p.s, p.alpha))}")


# ---------------------------------------------------------------------------
# recoordinatization: surface -> section coordinates


def _bezout_vec(p, q):
    """Integer arrays (r, t) with p*t - q*r = 1 for coprime integer pairs
    (p, q), elementwise: the extended Euclidean recurrence on (|p|, |q|) for
    all pairs at once, each leaving the loop at remainder 0.  A pair whose
    gcd is not 1 raises ``DegenerateInputError``."""
    p, q = np.array(p, dtype=np.int64, ndmin=1), np.array(q, dtype=np.int64, ndmin=1)
    gcd, x = np.empty_like(p), np.empty_like(p)
    pair = np.arange(len(p))
    old_r, r = np.abs(p), np.abs(q)
    old_x, nx = np.ones_like(p), np.zeros_like(p)
    while len(pair):
        done = r == 0
        gcd[pair[done]], x[pair[done]] = old_r[done], old_x[done]
        pair, old_r, r, old_x, nx = (c[~done] for c in (pair, old_r, r, old_x, nx))
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, nx = nx, old_x - quo * nx
    bad = np.flatnonzero(gcd != 1)
    if len(bad):
        raise DegenerateInputError(f"({int(p[bad[0]])}, {int(q[bad[0]])}) is not primitive")
    # |p|*x + |q|*y = 1 gives y (|q| = 0 forces |p| = x = 1 and y = 0)
    y = (1 - np.abs(p) * x) // np.maximum(np.abs(q), 1)
    return np.where(q >= 0, -y, y), np.where(p >= 0, x, -x)


def _vertical_short(g: Mat2, tol: float = HORIZONTAL_TOL):
    """Shortest lattice vector with |x| <= tol and 0 < y <= 1, as
    (y, m, n); None if the lattice has no short vertical."""
    pts = primitive_rows(lattice_box(g, Vec2(0.0, 0.0), -tol, tol, Y_EPS, 1.0 + tol))
    if not len(pts):
        return None
    i = int(np.argmin(pts[:, 1]))
    return float(pts[i, 1]), int(pts[i, 2]), int(pts[i, 3])


def _max_slope_anchor(g: Mat2):
    """Primitive lattice vector with x in (0, 1], y <= 0 of maximal slope:
    the most recent crossing of the lattice section.  Returns (a, s, m, n)
    where a is its length and s = -slope >= 0 the time since the crossing."""
    flipped = Mat2(g.m11, g.m12, -g.m21, -g.m22)
    cap = 4.0
    for _ in range(60):
        pts = _lattice_scan(
            flipped,
            Vec2(0.0, 0.0),
            x_max=1.0,
            slope_max=cap,
            include_horizontal=True,
            primitive=True,
        )
        if len(pts):
            break
        cap *= 2.0
    else:
        raise NotOnTransversalError("lattice has no horizontal crossing history")
    slopes = pts[:, 1] / pts[:, 0]
    i = np.lexsort((pts[:, 0], slopes))[0]
    a = float(pts[i, 0])
    s = max(0.0, float(slopes[i]))
    return a, s, int(pts[i, 2]), int(pts[i, 3])


def _completion_b(g: Mat2, a, m, n) -> np.ndarray:
    """b of the lattice-section bases whose first vectors are g*(m, n), of
    x-coordinates a, elementwise: the x of a Bezout completion, reduced into
    (1 - a, 1].  The horocycle keeps every x, so this holds for any flow of
    g too."""
    r, t = _bezout_vec(m, n)
    u0x = g.apply(Vec2(r, t)).x
    k = np.floor((1.0 - u0x) / a + FLOOR_NUDGE)
    b = u0x + k * a
    bad = np.flatnonzero(~((1.0 - a - 1e-9 < b) & (b <= 1.0 + 1e-9)))
    if len(bad):
        i = bad[0]
        raise DegenerateInputError(
            f"basis completion out of range: a={float(np.broadcast_to(a, b.shape)[i])!r}, b={float(b[i])!r}"
        )
    return np.minimum(b, 1.0)


def _vl_shear(g: Mat2, a: float, m: int, n: int) -> float:
    """s of ``vertical_basis(a, s)`` for g*Z^2 with short vertical g*(m, n)
    of length a, in (0, a^2]."""
    (r,), (t,) = _bezout_vec(m, n)
    u0 = g.apply(Vec2(float(r), float(t)))
    # u0.x ~ -1/a; reduce the second basis vector's y into [0, a)
    uy = u0.y - math.floor(u0.y / a) * a
    s = uy * a
    return s if s > 0.0 else a * a


def _lattice_form(g: Mat2):
    """Route a unimodular lattice to its section family.

    A vertical vector strictly shorter than 1 means the lattice never crosses
    the lattice section: ("vertical", y, m, n).  Otherwise the most recent crossing
    gives ("delta", a, b, s), the hidden sheared lattice-section form of
    g*Z^2.  A vertical of length within tolerance of 1 is only used when no
    crossing exists (Z^2 routes to the lattice section, so its fixed point
    keeps generic coordinates).
    """
    vert = _vertical_short(g)
    if vert is not None and vert[0] < 1.0 - HORIZONTAL_TOL:
        return ("vertical",) + vert
    try:
        a, s, m, n = _max_slope_anchor(g)
    except NotOnTransversalError:
        if vert is not None:
            return ("vertical",) + vert
        raise
    return "delta", a, float(_completion_b(g, a, m, n)[0]), s


def _clamp_s(a, b, s):
    """s clamped into [0, 1/(a*b)), elementwise, a zero keeping its sign as
    under Python's ``min`` and ``max``; a nan b leaves s as it is."""
    top = np.nextafter(1.0 / (a * b), 0.0)
    s = np.where(0.0 > s, 0.0, s)
    return np.where(top < s, top, s)


# ---------------------------------------------------------------------------
# slit-cover section


def rho_sl_to_sa(a, b, v1, v2):
    """Closed-form travel time from the short-lattice state to the
    short-affine state, elementwise over arrays (a scalar call returns a
    float).

    Kept verbatim for differential testing: the candidate family behind it
    omits horizontal translates (v1 + k*a, v2), and the enumeration oracle
    finds earlier arrivals on part of the domain (e.g. (0.6, 0.5, 0.3, 0.5):
    formula 5/3, enumeration 5/9).
    """
    a, b, v1, v2 = _columns(a, b, v1, v2)
    if not np.all(_unit_ok(a) & _b_ok(a, b)):
        raise InvalidInputError("(a, b) outside the lattice-section triangle")
    if np.any(v1 <= X_EPS):
        raise DegenerateInputError("marking sits on the vertical axis")
    if np.any(v2 < 0.0):
        raise InvalidInputError("marking must be in the closed upper half plane")
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.floor((a + 1.0 - v1) / b + FLOOR_NUDGE)
        out = np.where(b + v1 <= 1.0 + TIE_TOL, v2 / v1, (v2 + j / a) / (v1 + j * b - a))
    return out if out.ndim else float(out)


def w_return_sl_vec(a, b, v1, v2) -> np.ndarray:
    """Slit-cover returns of short-lattice points: the marking's slope if it
    lands short (b + v1 <= 1 + TIE_TOL), else the lattice's own return
    1/(a*b).  The slope is evaluated on the short rows only
    (``_branches``); NaN rows take the lattice return."""
    a, b, v1, v2 = _columns(a, b, v1, v2)
    short = b + v1 <= 1.0 + TIE_TOL
    if np.any(short & (v1 <= X_EPS)):
        raise DegenerateInputError("marking sits on the vertical axis")
    return _branches((_lattice_return, (a, b)), (short, _slope_return, (v1, v2)))[0]


def _lattice_return(a, b):
    return (1.0 / (a * b),)


def _slope_return(v1, v2):
    return (v2 / v1,)


def w_return_sa_vec(a, b, s, alpha) -> np.ndarray:
    """Slit-cover returns of short-affine points: the lattice return
    1/(a*b) - s, except on O1 and O3, where the marking returns first.  The
    lattice return is written on every row, then each marking return on its
    own rows only (``_branches``); NaN rows, in neither region, keep the
    lattice return."""
    a, b, s, alpha = _columns(a, b, s, alpha)
    _, o1, o3, gap, ab, rise = _omega_masks(a, b, s, alpha)
    return _branches(
        (_sa_lattice_return, (ab, s)), (o1, _o1_return, (a, s, gap)), (o3, _o3_return, (a, b, s, rise)),
    )[0]


def _sa_lattice_return(ab, s):
    return (1.0 / ab - s,)


# ---------------------------------------------------------------------------
# returns and surfaces of section points of any kind, as columns


def _kind_runs(kind: np.ndarray) -> list:
    """(kind, rows) of each run of equal kind, cut every ``RETURN_ROWS`` rows, rows as a slice."""
    edges = sorted({*range(0, len(kind), RETURN_ROWS), *(np.flatnonzero(kind[1:] != kind[:-1]) + 1).tolist(), len(kind)})
    return [(int(kind[i]), slice(i, j)) for i, j in zip(edges, edges[1:])]


def section_returns(cols: SectionColumns, o3=None) -> np.ndarray:
    """Closed-form first return of every row, by kind: ``omega_return_vec``
    on omega rows, ``w_return_sl_vec`` on sl rows, ``w_return_sa_vec`` on sa
    rows, a/alpha on vertical-lattice rows (vertical, or sa with b nan); one
    call per piece of ``_kind_runs``, on views of the columns, into one
    array.  The slit-cover returns leave out the -coset, which can arrive
    earlier on doubled surfaces (a finding of the differential tester).

    ``o3``, a boolean array of the rows, all False, is set True on the
    omega rows in O3 (``omega_region_vec(...) == 3``), read off the
    classification behind their returns."""
    out = np.empty(len(cols.kind))
    for kind, rows in _kind_runs(cols.kind):
        out[rows] = _run_returns(kind, *(c[rows] for c in cols[1:]), None if o3 is None else o3[rows])
    return out


def _run_returns(kind: int, a, b, s, alpha, o3=None) -> np.ndarray:
    """``section_returns`` of rows of one kind, marking omega rows in O3 in
    the view ``o3`` when given."""
    if kind == SL:
        return w_return_sl_vec(a, b, s, alpha)
    vertical = np.isnan(b)
    if vertical.all():
        return a / alpha
    if kind == SA:
        r = w_return_sa_vec(a, b, s, alpha)
    else:
        r, _, mask = _omega_returns(*_columns(a, b, s, alpha))
        if o3 is not None:
            o3[...] = mask
    if vertical.any():
        np.divide(a, alpha, out=r, where=vertical)
    return r


def section_surfaces(cols: SectionColumns) -> tuple:
    """(g, v) of every row, a ``Mat2`` and a ``Vec2`` of arrays: an sl row's
    lattice-section generator ``delta_basis`` with its marking (v1, v2), a
    vertical-lattice row's ``vertical_basis`` and any other row's
    ``sheared_delta_basis``, with marking (alpha, 0), each built on its own
    rows only (so g and v may share memory with ``cols``).  The marking's y
    stays the scalar 0.0 when no row is sl."""
    kind, a, b, s, alpha = cols
    sl, vertical = kind == SL, np.isnan(b)
    g = None
    for rows, basis, *args in (
        (vertical, vertical_basis, a, s), (sl & ~vertical, delta_basis, a, b), (~(sl | vertical), sheared_delta_basis, a, b, s)
    ):
        if rows.all():
            g = np.broadcast_arrays(*basis(*args))
        elif rows.any():
            g = np.empty((4, len(kind))) if g is None else g
            for f, value in zip(g, basis(*(c[rows] for c in args))):
                f[rows] = value
    v = (alpha, 0.0) if not sl.any() else (s, alpha) if sl.all() else (np.where(sl, s, alpha), np.where(sl, alpha, 0.0))
    return Mat2(*g), Vec2(*v)


def omega_to_surface(p: OmegaCoords) -> AffineLattice:
    """The surface of an affine-section point, the size-1 call of
    ``_first_surface``."""
    return _first_surface(row_columns([(OMEGA, p.a, p.b, p.s, p.alpha)]))


def _first_surface(cols: SectionColumns) -> AffineLattice:
    """The surface of row 0 of the columns (``section_surfaces``)."""
    g, v = section_surfaces(cols)
    first = [float(np.ravel(f)[0]) for f in (*g, *v)]
    return AffineLattice(Mat2(*first[:4]), Vec2(*first[4:]))


# ---------------------------------------------------------------------------
# section points along one horocycle orbit, read off one pass over the
# unflowed surface


class OrbitScan(NamedTuple):
    """The rows of one kernel pass over a surface (``orbit_scan``): its
    primitive lattice vectors as arrays (x, y, m, n), and the points (x, y)
    of each marked coset, the marking's and, on the slit cover, then its
    negation's."""

    lattice: tuple
    cosets: tuple


def orbit_scan(g: Mat2, v: Vec2, cap: float, slit: bool) -> OrbitScan:
    """Everything ``orbit_section_coords`` reads for flow times up to
    ``cap``, from one ``_box_rows`` pass whose components are the lattice and
    the coset of v (and of -v with ``slit``).

    The window is the strip 0 < x <= 1 under the slope line y = cap*x, both
    padded as in ``_strip_window``, with the line raised by HORIZONTAL_TOL
    and y down to -HORIZONTAL_TOL.  So it holds every strip vector of slope
    at most ``cap`` and every coset point within HORIZONTAL_TOL of
    horizontal at a time up to ``cap``.  The kernel's floats do not depend
    on its window, so a reader that re-applies its own window to these rows
    gets what a scan of that window alone would give."""
    k = 3 if slit else 2
    x_hi = 1.0 + BOUND_SLACK
    # the box's top is the raised line at x_hi, with the kernel's slack
    line_top = cap * x_hi + (BOUND_SLACK * max(1.0, cap) + HORIZONTAL_TOL)
    box = (math.nextafter(X_EPS, math.inf), x_hi, -HORIZONTAL_TOL, line_top)
    jobs = ((0,) * k, (0.0, v.x, -v.x)[:k], (0.0, v.y, -v.y)[:k])
    ((j, x, y, m, n),) = _box_rows(g, box, jobs, cap, pad=HORIZONTAL_TOL)
    edges = [0, *np.searchsorted(j, range(1, k)).tolist(), len(j)]
    lat, *cosets = (slice(lo, hi) for lo, hi in zip(edges, edges[1:]))
    prim = _coprime(m[lat], n[lat])
    return OrbitScan(tuple(c[lat][prim] for c in (x, y, m, n)), tuple((x[c], y[c]) for c in cosets))


def _flowed_anchors(g: Mat2, start, t: np.ndarray, lattice):
    """Arrays (a, b, s) of the lattice-section form of h_t(g*Z^2) for each t,
    given g's own form ``start`` = (a, b, s) and the ``OrbitScan.lattice``
    rows of a pass up to t[-1] or beyond.

    The anchor at time t is the primitive strip vector of largest slope at
    most t (smallest x on a tie), or g's own anchor if no strip vector has
    slope at most t; s is t minus the anchor's slope.  The strip vectors are
    the rows in the strip window at slope t[-1] (``_in_strip``)."""
    a0, b0, s0 = start
    a, b, s = np.full(len(t), a0), np.full(len(t), b0), s0 + t
    if t[-1] <= 0.0:
        return a, b, s
    x, y, m, n = lattice
    keep = _in_strip(x, y, float(t[-1]))
    x, m, n = x[keep], m[keep], n[keep]
    slope = y[keep] / x
    # by slope, then larger x first; a plain sort is that order when no
    # two slopes are equal, and many times faster than lexsort
    order = np.argsort(slope)
    if np.any(slope[order[1:]] == slope[order[:-1]]):
        order = np.lexsort((-x, slope))
    x, m, n, slope = x[order], m[order], n[order], slope[order]
    i = np.searchsorted(slope, t, side="right") - 1
    # i is nondecreasing, as t is: the times before the first strip slope
    # keep g's anchor, and the anchors in use are the runs of equal i
    h = int(np.searchsorted(i, 0))
    i = i[h:]
    first = np.diff(i, prepend=-1) != 0
    used = i[first]
    a[h:] = x[i]
    b[h:] = _completion_b(g, x[used], m[used], n[used])[np.cumsum(first) - 1]
    s[h:] = np.maximum(t[h:] - slope[i], 0.0)
    return a, b, s


def _flowed_alpha(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """alpha at each t, inf where there is none, from the points (x, y) of
    one coset of a pass up to t[-1] or beyond: the smallest x of a point
    with |y - t*x| <= HORIZONTAL_TOL, the closed window of a horizontal
    representative, among those with y <= t[-1]*(1 + COORD_SLACK) +
    HORIZONTAL_TOL."""
    tol = HORIZONTAL_TOL
    keep = y <= float(t[-1]) * (1.0 + COORD_SLACK) + tol
    # |y - t*x| <= tol, as |slope - t| * x <= tol: a strip slope y/x taken
    # as t is then exactly horizontal, however large t is.  The points go
    # in slope order, so their searches in t go forward
    slope = y[keep] / x[keep]
    order = np.argsort(slope)
    x, slope = x[keep][order], slope[order]
    reach = tol / x + COORD_SLACK * np.maximum(1.0, np.abs(slope))
    first = np.searchsorted(t, slope - reach, side="left")
    last = np.searchsorted(t, slope + reach, side="right")
    near = np.flatnonzero(last > first)
    k, point = _ragged(first[near], last[near] - first[near], near)
    keep = np.abs(slope[point] - t[k]) * x[point] <= tol
    alpha = np.full(len(t), np.inf)
    np.minimum.at(alpha, k[keep], x[point[keep]])
    return alpha


def flowed_section_coords(surface: AffineLattice, times, *, slit: bool = False) -> SectionColumns:
    """Section coordinates of h_t(surface) for every t in the nonnegative,
    increasing ``times``, as ``SectionColumns``: ``orbit_section_coords``
    on one ``orbit_scan`` of the unflowed surface up to the last time.

    A slit-cover call at time 0 alone on a lattice on its section makes no
    pass: its rows are all sl, which read no alpha.
    """
    surface.check()
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)) or np.any(t < 0.0) or np.any(np.diff(t) < 0.0):
        raise InvalidInputError("flow times must be finite, nonnegative and increasing")
    if not len(t):
        return row_columns([])
    form = _lattice_form(surface.g)
    sl_only = slit and t[-1] <= 0.0 and form[0] == "delta" and form[1] * form[3] <= HORIZONTAL_TOL
    scan = None if sl_only else orbit_scan(surface.g, surface.v, float(t[-1]), slit)
    return orbit_section_coords(surface, t, scan, slit=slit, form=form)


def orbit_section_coords(
    surface: AffineLattice, t: np.ndarray, scan: OrbitScan, *, slit: bool = False, form=None
) -> SectionColumns:
    """Section coordinates of h_t(surface) for every t of the nonempty,
    finite, nonnegative and increasing array ``t``, as ``SectionColumns``,
    from the rows of an ``orbit_scan`` of the unflowed surface up to t[-1]
    or beyond, made with the same ``slit`` (None if every row is sl).
    ``form`` is the lattice's ``_lattice_form`` when the caller has it.

    Without ``slit`` the rows are affine-section points (``omega`` or
    ``vertical``).  With ``slit`` they are slit-cover points along one orbit
    (``sl`` or ``sa``), an sl row wherever the lattice part is on its
    section: the marking is carried from time to time, and a time at which
    only its negation has a horizontal representative negates it for every
    later time.

    The horocycle keeps every x-coordinate and every lattice label, so the
    lattice part is analyzed once (``_lattice_form``).  A short vertical is
    kept by the flow, with s advancing by t modulo a^2; otherwise a, b and s
    come from ``_flowed_anchors``.  alpha comes from ``_flowed_alpha``.  A
    row equals the time-0 call on its flowed surface up to rounding.  Every
    step is an array operation over all times, the range checks included:
    the first row that fails one raises its ``check_rows`` error, or
    ``NotOnTransversalError`` where no horizontal representative exists.
    """
    g, v = surface.g, surface.v
    n = len(t)
    if form is None:
        form = _lattice_form(g)
    vertical = form[0] == "vertical"
    if vertical:
        a0 = form[1]
        s = np.fmod(_vl_shear(g, *form[1:]) + t, a0 * a0)
        s[s <= 0.0] = a0 * a0
        a, b = np.full(n, a0), np.full(n, np.nan)
    else:
        a, b, s = _flowed_anchors(g, form[1:], t, None if scan is None else scan.lattice)
    sl = (slit and not vertical) & (s * a <= HORIZONTAL_TOL)
    s = _clamp_s(a, b, s)
    # coset 0 is the marking's, coset 1 its negation's; a row keeps the
    # coset of the row before unless only the other one has a representative.
    # sl rows never read alpha, so all-sl times read no coset
    alphas = (np.full((2 if slit else 1, n), np.inf) if sl.all()
              else np.array([_flowed_alpha(x, y, t) for x, y in scan.cosets]))
    found, rows = np.isfinite(alphas), np.arange(n)
    switch = np.maximum.accumulate(np.where(~sl & (found[0] != found[-1]), rows, -1))
    coset = np.where(switch >= 0, found[-1][switch], False).astype(np.int64)
    alpha, missing = alphas[coset, rows], ~sl & ~found[coset, rows]

    kind = np.where(sl, SL, SA if slit else VERTICAL if vertical else OMEGA).astype(np.int8)
    k = np.flatnonzero(sl)
    flip, my = coset[k] == 1, v.y - t[k] * v.x
    mark = Vec2(np.where(flip, -v.x, v.x), np.where(flip, -my, my))
    s[k], alpha[k] = reduce_to_fundamental(delta_basis(a[k], b[k]), mark)
    cols = SectionColumns(kind, a, b, s, alpha)
    # the rows before the first one with no representative are checked
    end = int(np.argmax(missing)) if missing.any() else n
    check_rows(SectionColumns(*(c[:end] for c in cols)))
    if end < n:
        raise NotOnTransversalError(NOT_ON_SLIT_SECTION if slit else NO_HORIZONTAL_REP)
    return cols


# ---------------------------------------------------------------------------
# the closed-form return map, one row at a time


def section_step(kind: int, a: float, b: float, s: float, alpha: float) -> tuple:
    """Closed-form first-return step of one section row: (return time, next
    row).  The next row lands where flowing by the return and
    recoordinatizing lands, up to roundoff; only a slit-cover row scans its
    surface to get there.

    * An affine row advances s by its return and rolls it through the
      lattice-section crossings with ``bcz_return_map``; the new alpha is the
      arriving representative's x.  Every crossing takes time at least 1
      (1/(a*b) >= 1), so s past ``SCAN_ROW_LIMIT`` raises
      ``NotOnTransversalError`` instead of rolling that many times.  At the
      map's fixed point (a, b) = (1, 1) the crossings are skipped in closed
      form, with the loop's tie rule and bound.
    * A vertical-lattice row returns after a/alpha, which shifts s modulo a^2.
    * A slit-cover row flows its surface by ``section_returns`` and reads the
      landing row off ``flowed_section_coords``, which raises
      ``NotOnTransversalError`` where the landing point is off the section
      (possible exactly where the closed form disagrees with the enumeration
      oracle).

    A next row out of range raises its ``check_rows`` error.
    """
    if kind in (SL, SA):
        cols = row_columns([(kind, a, b, s, alpha)])
        u = float(section_returns(cols)[0])
        landing = flowed_section_coords(horocycle_apply(u, _first_surface(cols)), (0.0,), slit=True)
        return u, tuple(c[0].item() for c in landing)
    if math.isnan(b):
        u = a / alpha
        s = math.fmod(s + u, a ** 2)
        return u, _checked((VERTICAL, a, b, s if s > 0.0 else a ** 2, alpha))
    u, alpha = map(float, _omega_returns(*_columns(a, b, s, alpha))[:2])
    s += u
    if not s <= SCAN_ROW_LIMIT:
        raise NotOnTransversalError(f"return {u:.3g} would cross the lattice section up to "
                                    f"{s:.3g} times, more than the limit of {SCAN_ROW_LIMIT}")
    if a == b == 1.0:
        # the loop below in closed form at the map's fixed point: each
        # crossing takes exactly 1, and s - k is exact below 2^53
        k = math.floor(s)
        k = min(k + (s - k >= 1.0 - TIE_TOL), int(u) + 2)
        return u, _checked((OMEGA, a, b, max(s - k, 0.0), alpha))
    for _ in range(int(u) + 2):
        r = 1.0 / (a * b)
        if s < r - TIE_TOL * max(1.0, r):
            break
        s -= r
        a, b = bcz_return_map(a, b)
    return u, _checked((OMEGA, a, b, max(s, 0.0), alpha))


def _checked(row: tuple) -> tuple:
    """An affine or vertical-lattice row, after its range checks: a scalar
    test, and where it fails ``check_rows``, which raises the row's error."""
    _, a, b, s, alpha = row
    if not (_unit_ok(a) and _unit_ok(alpha) and (_vl_s_ok(a, s) if math.isnan(b) else _b_ok(a, b) and _s_ok(a, b, s))):
        check_rows(row_columns([row]))
    return row
