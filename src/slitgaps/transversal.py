"""Poincare sections of the horocycle flow and their first-return data.

Three sections appear:

* the lattice section: unimodular lattices with a horizontal vector of
  length at most 1, coordinatized by ``DeltaCoords`` (a, b) with generator
  [[a, b], [0, 1/a]]; first return is the Farey-type map ``bcz_return_map``.
* the affine-lattice section: marked-coset surfaces whose marking has a
  horizontal representative of length at most 1, coordinatized by
  ``OmegaCoords`` (a, b, s, alpha) with generator h_s [[a, b], [0, 1/a]] and
  marking (alpha, 0), plus the vertical-lattice family ``VLCoords`` whose
  lattice part never returns to the lattice section.
* the slit-cover section ``WPoint``: surfaces whose doubled-slit holonomy
  contains a short horizontal, split into a short-lattice state (SL) and a
  short-affine state (SA).

Return times are closed-form; every formula is cross-checked against the
enumeration oracle elsewhere.  Boundary ties between regions are broken
toward the lower-indexed region and logged at DEBUG level.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NotOnTransversalError,
)
from .geometry import (
    AffineLattice,
    Mat2,
    Vec2,
    X_EPS,
    Y_EPS,
    _lattice_scan,
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


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidInputError(msg)


@dataclass(frozen=True)
class DeltaCoords:
    """Lattice-section coordinates: 0 < a <= 1, 1 - a < b <= 1."""

    a: float
    b: float

    def __post_init__(self):
        _require(0.0 < self.a <= 1.0 + COORD_SLACK, f"a out of range: {self.a!r}")
        _require(
            1.0 - self.a - COORD_SLACK < self.b <= 1.0 + COORD_SLACK,
            f"b out of range: {self.b!r} for a={self.a!r}",
        )


@dataclass(frozen=True)
class OmegaCoords:
    """Affine-lattice section coordinates (a, b, s, alpha).

    (a, b) lies in the lattice-section triangle, 0 <= s < 1/(a*b) is the time
    since the lattice part last crossed its section, and (alpha, 0) is the
    horizontal marking representative, 0 < alpha <= 1.
    """

    a: float
    b: float
    s: float
    alpha: float

    def __post_init__(self):
        DeltaCoords(self.a, self.b)
        r = 1.0 / (self.a * self.b)
        _require(-COORD_SLACK <= self.s < r + COORD_SLACK * max(1.0, r),
                 f"s out of range: {self.s!r}")
        _require(0.0 < self.alpha <= 1.0 + COORD_SLACK,
                 f"alpha out of range: {self.alpha!r}")


@dataclass(frozen=True)
class VLCoords:
    """Vertical-lattice section coordinates (a, s, alpha).

    Lattice part ``vertical_basis(a, s)`` (shortest vertical (0, a), period
    a^2 in s), marking (alpha, 0).  s = 0 and s = a^2 describe the same
    lattice; both endpoints are accepted.
    """

    a: float
    s: float
    alpha: float

    def __post_init__(self):
        _require(0.0 < self.a <= 1.0 + COORD_SLACK, f"a out of range: {self.a!r}")
        _require(-COORD_SLACK <= self.s <= self.a ** 2 + COORD_SLACK,
                 f"s out of range: {self.s!r} for a={self.a!r}")
        _require(0.0 < self.alpha <= 1.0 + COORD_SLACK,
                 f"alpha out of range: {self.alpha!r}")


class OmegaRegion(enum.Enum):
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    O4 = "O4"
    VL = "VL"


@dataclass(frozen=True)
class WPointSL:
    """Slit-cover section, short-lattice state: lattice on its section, with
    the marking anywhere in the fundamental parallelogram of [[a,b],[0,1/a]]."""

    a: float
    b: float
    v1: float
    v2: float

    def __post_init__(self):
        DeltaCoords(self.a, self.b)
        c = delta_basis(self.a, self.b).inverse().apply(Vec2(self.v1, self.v2))
        _require(-COORD_SLACK <= c.x < 1.0 + COORD_SLACK
                 and -COORD_SLACK <= c.y < 1.0 + COORD_SLACK,
                 "marking outside the fundamental parallelogram")

    @property
    def v(self) -> Vec2:
        return Vec2(self.v1, self.v2)


@dataclass(frozen=True)
class WPointSA:
    """Slit-cover section, short-affine state: the underlying affine lattice
    sits on the affine section."""

    coords: Union[OmegaCoords, VLCoords]


WPoint = Union[WPointSL, WPointSA]


# ---------------------------------------------------------------------------
# lattice section


def bcz_return_time(d: DeltaCoords) -> float:
    """First-return time of the horocycle to the lattice section: 1/(a*b)."""
    return 1.0 / (d.a * d.b)


def bcz_return_map(d: DeltaCoords) -> DeltaCoords:
    """(a, b) -> (b, -a + floor((1+a)/b) * b)."""
    k = math.floor((1.0 + d.a) / d.b + FLOOR_NUDGE)
    return DeltaCoords(d.b, -d.a + k * d.b)


# ---------------------------------------------------------------------------
# affine section: classification and return time


def classify_omega(p: Union[OmegaCoords, VLCoords]) -> OmegaRegion:
    """Region of the affine section a point falls in.

    Ties on a region boundary go to the lower-indexed region (matching the
    non-strict inequality where one side has it) and are logged.
    """
    if isinstance(p, VLCoords):
        return OmegaRegion.VL
    a, b, s, alpha = p.a, p.b, p.s, p.alpha
    if alpha > a + TIE_TOL:
        thr = (alpha - a) / (a * b * alpha)
        if abs(s - thr) <= TIE_TOL * max(1.0, thr):
            logger.debug("classify tie s=threshold at %r; assigning O1", p)
            return OmegaRegion.O1
        return OmegaRegion.O1 if s < thr else OmegaRegion.O2
    if abs(alpha - a) <= TIE_TOL:
        logger.debug("classify tie alpha=a at %r; assigning alpha<=a branch", p)
    if abs(b + alpha - 1.0) <= TIE_TOL:
        logger.debug("classify tie b+alpha=1 at %r; assigning O3", p)
        return OmegaRegion.O3
    return OmegaRegion.O3 if b + alpha < 1.0 else OmegaRegion.O4


def _j_index(a: float, b: float, alpha: float) -> int:
    return math.floor((1.0 + a - alpha) / b + FLOOR_NUDGE)


def omega_return_time(p: Union[OmegaCoords, VLCoords]) -> float:
    """First-return time of the affine section.

    The wrapped branches (O2 and O4) both keep the sheared y-contribution
    ``s*a`` of the arriving representative.
    """
    region = classify_omega(p)
    if region is OmegaRegion.VL:
        return p.a / p.alpha
    a, b, s, alpha = p.a, p.b, p.s, p.alpha
    if region is OmegaRegion.O1:
        return s * a / (alpha - a)
    if region is OmegaRegion.O3:
        return (1.0 / a - s * b) / (b + alpha)
    j = _j_index(a, b, alpha)
    return (j * (1.0 / a - s * b) + s * a) / (alpha - a + j * b)


def arriving_representative(p: OmegaCoords) -> float:
    """x-coordinate of the marking representative that is horizontal at the
    moment of first return (the new alpha)."""
    region = classify_omega(p)
    a, b, alpha = p.a, p.b, p.alpha
    if region is OmegaRegion.O1:
        return alpha - a
    if region is OmegaRegion.O3:
        return alpha + b
    j = _j_index(a, b, alpha)
    return alpha - a + j * b


# ---------------------------------------------------------------------------
# surfaces from coordinates


def omega_to_surface(p: Union[OmegaCoords, VLCoords]) -> AffineLattice:
    if isinstance(p, VLCoords):
        return AffineLattice(vertical_basis(p.a, p.s), Vec2(p.alpha, 0.0))
    return AffineLattice(
        sheared_delta_basis(p.a, p.b, p.s), Vec2(p.alpha, 0.0)
    )


def w_to_surface(w: WPoint) -> AffineLattice:
    if isinstance(w, WPointSL):
        return AffineLattice(delta_basis(w.a, w.b), w.v)
    return omega_to_surface(w.coords)


# ---------------------------------------------------------------------------
# recoordinatization: surface -> section coordinates


def _bezout(p: int, q: int):
    """(r, t) with p*t - q*r = 1 for coprime p, q."""
    if math.gcd(p, q) != 1:
        raise DegenerateInputError(f"({p}, {q}) is not primitive")
    g, x0, y0 = _extended_gcd(abs(p), abs(q))
    # sign bookkeeping: want p*t - q*r = 1
    u = x0 if p >= 0 else -x0
    w = y0 if q >= 0 else -y0
    # now p*u + q*w = 1
    return -w, u


def _extended_gcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _horizontal_reps(g: Mat2, v: Vec2, tol: float = HORIZONTAL_TOL) -> np.ndarray:
    """x-coordinates of marking representatives with |y| <= tol and
    0 < x <= 1, sorted ascending."""
    pts = lattice_box(g, v, math.nextafter(X_EPS, math.inf), 1.0 + COORD_SLACK, -tol, tol)
    return np.sort(pts[:, 0])


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


def _delta_from_anchor(g: Mat2):
    """(a, b, s) of the hidden sheared lattice-section form of g*Z^2."""
    a, s, m, n = _max_slope_anchor(g)
    r, t = _bezout(m, n)
    u0 = g.apply(Vec2(float(r), float(t)))
    k = math.floor((1.0 - u0.x) / a + FLOOR_NUDGE)
    b = u0.x + k * a
    if not (1.0 - a - 1e-9 < b <= 1.0 + 1e-9):
        raise DegenerateInputError(
            f"basis completion out of range: a={a!r}, b={b!r}"
        )
    return a, min(b, 1.0), s


def _lattice_form(g: Mat2):
    """Route a unimodular lattice to its section family.

    A vertical vector strictly shorter than 1 means the lattice never crosses
    the lattice section: ("vl", y, m, n).  Otherwise the most recent crossing
    gives ("delta", a, b, s).  A vertical of length within tolerance of 1 is
    only used when no crossing exists (Z^2 routes to the lattice section, so
    its fixed point keeps generic coordinates).
    """
    vert = _vertical_short(g)
    if vert is not None and vert[0] < 1.0 - HORIZONTAL_TOL:
        return ("vl",) + vert
    try:
        return ("delta",) + _delta_from_anchor(g)
    except NotOnTransversalError:
        if vert is not None:
            return ("vl",) + vert
        raise


def recoordinatize_omega(surface: AffineLattice) -> Union[OmegaCoords, VLCoords]:
    """Section coordinates of a surface on the affine section.

    The lattice part is analyzed first: a short vertical (length < 1 within
    tolerance) routes to ``VLCoords``; otherwise the most recent horizontal
    crossing fixes (a, b, s).  The marking must have a horizontal
    representative with 0 < x <= 1; when several exist (only possible on the
    measure-zero locus where the lattice keeps a horizontal vector) the
    smallest is chosen.
    """
    surface.check()
    return _omega_coords(surface.g, surface.v, _lattice_form(surface.g))


def _omega_coords(g: Mat2, v: Vec2, form) -> Union[OmegaCoords, VLCoords]:
    """Affine-section coordinates of (g, v) given g's ``_lattice_form``."""
    reps = _horizontal_reps(g, v)
    if not len(reps):
        raise NotOnTransversalError("marking has no horizontal representative")
    alpha = float(reps[0])
    if form[0] == "vl":
        a, m, n = form[1:]
        r, t = _bezout(m, n)
        u0 = g.apply(Vec2(float(r), float(t)))
        # u0.x ~ -1/a; reduce the second basis vector's y into [0, a)
        uy = u0.y - math.floor(u0.y / a) * a
        s = uy * a
        if s <= 0.0:
            s = a * a
        return VLCoords(a, s, alpha)
    a, b, s = form[1:]
    r = 1.0 / (a * b)
    s = min(max(s, 0.0), math.nextafter(r, 0.0))
    return OmegaCoords(a, b, s, alpha)


def omega_return_map(
    p: Union[OmegaCoords, VLCoords]
) -> Union[OmegaCoords, VLCoords]:
    """First-return map of the affine section: flow by the return time, then
    recoordinatize."""
    u = omega_return_time(p)
    return recoordinatize_omega(horocycle_apply(u, omega_to_surface(p)))


def advance_omega(
    p: Union[OmegaCoords, VLCoords]
) -> Union[OmegaCoords, VLCoords]:
    """Closed-form first-return step, no enumeration.

    Equals ``omega_return_map`` up to roundoff: the s-coordinate advances by
    the return time, rolling through lattice-section crossings, and the new
    alpha is the arriving representative's x.
    """
    if isinstance(p, VLCoords):
        s = math.fmod(p.s + p.a / p.alpha, p.a ** 2)
        if s <= 0.0:
            s = p.a ** 2
        return VLCoords(p.a, s, p.alpha)
    u = omega_return_time(p)
    alpha = arriving_representative(p)
    a, b, s = p.a, p.b, p.s + u
    for _ in range(int(u) + 2):
        r = 1.0 / (a * b)
        if s < r - TIE_TOL * max(1.0, r):
            break
        s -= r
        d = bcz_return_map(DeltaCoords(a, b))
        a, b = d.a, d.b
    return OmegaCoords(a, b, max(s, 0.0), alpha)


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
    a, b, v1, v2 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, v1, v2)))
    if not np.all((0.0 < a) & (a <= 1.0 + COORD_SLACK)
                  & (1.0 - a - COORD_SLACK < b) & (b <= 1.0 + COORD_SLACK)):
        raise InvalidInputError("(a, b) outside the lattice-section triangle")
    if np.any(v1 <= X_EPS):
        raise DegenerateInputError("marking sits on the vertical axis")
    if np.any(v2 < 0.0):
        raise InvalidInputError("marking must be in the closed upper half plane")
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.floor((a + 1.0 - v1) / b + FLOOR_NUDGE)
        out = np.where(b + v1 <= 1.0 + TIE_TOL, v2 / v1, (v2 + j / a) / (v1 + j * b - a))
    return out if out.ndim else float(out)


def w_return_time(w: WPoint) -> float:
    """Closed-form first-return time of the slit-cover section.

    SL state: the marking's slope if it lands short (b + v1 <= 1), else the
    lattice's own return 1/(a*b).  SA state: the lattice return 1/(a*b) - s
    except where the marking returns first (regions O1 and O3).  The
    vertical-lattice SA state returns at a/alpha.

    The formula minimizes over the lattice and the +marking coset only; on
    doubled surfaces the -coset can arrive earlier (reported by the
    differential tester, never folded into this formula).
    """
    if isinstance(w, WPointSL):
        if w.b + w.v1 <= 1.0 + TIE_TOL:
            if w.v1 <= X_EPS:
                raise DegenerateInputError("marking sits on the vertical axis")
            return w.v2 / w.v1
        return 1.0 / (w.a * w.b)
    p = w.coords
    region = classify_omega(p)
    if region is OmegaRegion.VL:
        return p.a / p.alpha
    if region is OmegaRegion.O1:
        return p.s * p.a / (p.alpha - p.a)
    if region is OmegaRegion.O3:
        return (1.0 / p.a - p.s * p.b) / (p.b + p.alpha)
    return 1.0 / (p.a * p.b) - p.s


def w_section_coords(surface: AffineLattice, *, doubled: bool = False) -> WPoint:
    """Slit-cover section coordinates of a surface.

    SL wins ties: if the lattice part is on its section the point is SL with
    the marking reduced into the standard fundamental parallelogram.  With
    ``doubled`` the negated marking is tried as a fallback (the doubled
    surface of (g, v) and (g, -v) is the same).
    """
    surface.check()
    g, v = surface.g, surface.v
    form = _lattice_form(g)
    if form[0] == "delta":
        a, b, s = form[1:]
        if s * a <= HORIZONTAL_TOL:
            vv = reduce_to_fundamental(delta_basis(a, b), v)
            return WPointSL(a, b, vv.x, vv.y)
    for cand in (v, -v) if doubled else (v,):
        try:
            return WPointSA(_omega_coords(g, cand, form))
        except NotOnTransversalError:
            continue
    raise NotOnTransversalError("surface is not on the slit-cover section")


def w_return_map(w: WPoint, *, doubled: bool = False) -> WPoint:
    """Flow by the closed-form return time, then recoordinatize.

    Raises ``NotOnTransversalError`` when the formula's landing point is not
    on the section (possible exactly where the closed form disagrees with the
    enumeration oracle)."""
    u = w_return_time(w)
    return w_section_coords(horocycle_apply(u, w_to_surface(w)), doubled=doubled)
