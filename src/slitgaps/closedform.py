"""Closed-form gap-tail laws and their quadrature cross-checks.

The tail of the slope-gap law on the doubled-torus section has an explicit
piecewise description on (0, 4] built from dilogarithms, logarithms, and an
inverse hyperbolic cotangent; past 4 only a nested integral is available.
This module carries both routes and a differential comparison between them,
plus envelope bounds for the affine-lattice tail, exact torsion-marking
tails, and a log-log decay-exponent fit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import (
    AmbiguityError,
    InvalidInputError,
    OutOfRegimeError,
    QuadratureError,
)

PI_SQUARED_OVER_6 = math.pi * math.pi / 6.0
SQRT5 = math.sqrt(5.0)
GOLDEN_T = (3.0 + SQRT5) / 2.0
W_TOTAL_MASS = (3.0 + math.pi * math.pi) / 6.0
TAIL_BREAKPOINTS = (0.0, 1.0, 2.0, GOLDEN_T, 4.0, math.inf)

_SERIES_TOL = 1e-18
_INNER_EPSABS = 1e-13
_OUTER_EPSABS = 1e-12


def dilog(x):
    """Real dilogarithm Li2(x) on (-inf, 1].

    Power series where |x| <= 1/2; reflection covers (1/2, 1], a Landen map
    covers [-1, -1/2), and inversion folds x < -1 back into (-1, 0).  Every
    series argument stays at or below 1/2, keeping the absolute error under
    1e-13.
    """
    if math.isnan(x):
        raise InvalidInputError("dilog argument must be a real number")
    if x > 1.0:
        raise InvalidInputError(f"dilog({x!r}) leaves the real branch; need x <= 1")
    if x == 1.0:
        return PI_SQUARED_OVER_6
    if x == 0.0:
        return 0.0
    if x < -1.0:
        lg = math.log(-x)
        return -PI_SQUARED_OVER_6 - 0.5 * lg * lg - dilog(1.0 / x)
    if x < -0.5:
        # Landen map sends [-1, -1/2) to (1/3, 1/2]
        lg = math.log(1.0 - x)
        return -0.5 * lg * lg - dilog(x / (x - 1.0))
    if x > 0.5:
        return PI_SQUARED_OVER_6 - math.log(x) * math.log(1.0 - x) - dilog(1.0 - x)
    total = 0.0
    power = x
    k = 1
    while k <= 400:
        contrib = power / (k * k)
        total += contrib
        if abs(contrib) < _SERIES_TOL:
            break
        power *= x
        k += 1
    return total


def _dilog_bridge(t):
    # transcendental block shared by every tail piece past 1
    return dilog(1.0 / t) - dilog((t - 1.0) / t)


def _tail_linear(t):
    # [0, 1]
    return W_TOTAL_MASS - 7.0 * t / 8.0


def _tail_low(t):
    # (1, 2]
    lt = math.log(t)
    lt1 = math.log(t - 1.0)
    out = (24.0 * _dilog_bridge(t) - 12.0 * lt * lt + 24.0 * lt1 * lt + 12.0 * lt) / 24.0
    out += -2.5 + 1.0 / (6.0 * t * t)
    out += t * (-24.0 * lt1 + 24.0 * lt - 4.0) / 24.0
    out += (24.0 * lt1 + 54.0 * lt + 51.0) / (24.0 * t)
    return out


def _tail_high(t):
    # (2, 4], across the breakpoint at (3+sqrt5)/2: the region split that
    # creates that breakpoint (the slit-vector kink 1/((1-b)t) crossing the
    # cap break 1/t at b-level) cancels term-for-term in the assembled sum,
    # so the expression continues analytically down to 2.  Verified against
    # the quadrature route to 2e-13 across the gap and at both endpoints.
    rt = math.sqrt(t)
    lt = math.log(t)
    lt1 = math.log(t - 1.0)
    lroot = math.log(1.0 - 1.0 / rt)
    lrm = math.log(rt - 1.0)
    acoth = 0.5 * math.log((t - 1.0) / t)
    out = (48.0 * _dilog_bridge(t) + 3.0 * math.log(t ** 3) - 24.0 * lt * lt) / 48.0
    # two logarithms of negative arguments appear with coefficients -12 and
    # +12; their imaginary halves cancel, leaving only the magnitudes
    out += (-36.0 * lt1 + 36.0 * lt) / (48.0 * t * t)
    out += (72.0 * acoth - 24.0) / (48.0 * t * t)
    out += (-12.0 * lroot - 144.0 - 2.0 * math.log(8.0) * (15.0 + math.log(256.0))) / 48.0
    out += (12.0 * lrm + 3.0 * (7.0 + math.log(256.0)) * math.log(4.0 / t)) / 48.0
    out += (24.0 * lroot - 24.0 * lrm + 12.0 * lt) / (48.0 * rt)
    out += t * (-48.0 * lt1 + 48.0 * lt - 16.0) / 48.0
    out += (-12.0 * lroot + 12.0 * lrm + 24.0 * lt1 + 24.0 * math.log((t - 1.0) / rt)) / (48.0 * t)
    out += (114.0 * lt + 198.0) / (48.0 * t)
    out += (48.0 * lt1 * lt + 6.0 * (13.0 + math.log(16.0)) * lt) / 48.0
    return out


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive-quadrature budget."""

    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise InvalidInputError("quadrature tolerance must be positive")
        if self.max_subdivisions < 10:
            raise InvalidInputError("quadrature needs at least 10 subdivisions")


DEFAULT_QUADRATURE = QuadratureSpec()


def _quad(f, lo, hi, spec, points=None, inner=False):
    """Adaptive integral of f over [lo, hi] honoring the spec's budget."""
    if hi <= lo:
        return 0.0
    eps_abs = _INNER_EPSABS if inner else _OUTER_EPSABS
    eps_rel = spec.rel_tol * (1e-2 if inner else 1.0)
    pts = None
    if points:
        interior = sorted(p for p in points if math.isfinite(p) and lo < p < hi)
        pts = interior or None
    out = integrate.quad(
        f,
        lo,
        hi,
        points=pts,
        limit=spec.max_subdivisions,
        epsabs=eps_abs,
        epsrel=eps_rel,
        full_output=1,
    )
    val, err = out[0], out[1]
    if len(out) > 3 and err > max(50.0 * eps_abs, 5e-6 * abs(val)):
        achieved = err / max(abs(val), 1e-300)
        raise QuadratureError(
            f"quadrature stalled on [{lo:g}, {hi:g}]; achieved relative error {achieved:.2e}"
        )
    return val


def _regime_points(t):
    # b-values where a hyperbola cap enters or exits the base triangle
    pts = []
    if t > 0.0:
        pts.append(1.0 / t)
        pts.append(1.0 - 1.0 / t)
    if t >= 4.0:
        root = math.sqrt(max(0.0, 1.0 - 4.0 / t))
        pts.append((1.0 - root) / 2.0)
        pts.append((1.0 + root) / 2.0)
    return pts


def _sa_tail_o1(t, spec):
    """Sheared-marking tail from the region where the return scales the shear.

    The integral over the lattice coordinate is exact and leaves a 2-fold
    integral weighted by alpha*ln(alpha/(1-b)) - (alpha-(1-b)).
    """

    def outer(b):
        lo = 1.0 - b
        cap = 1.0 if t <= 0.0 else min(1.0, 1.0 / (b * t))
        # lo = 0 only where b rounds to 1: a measure-zero edge of the outer
        # integral, at which the weight's ln(alpha/lo) is undefined
        if cap <= lo or lo <= 0.0:
            return 0.0

        def f(al):
            k1 = al * math.log(al / lo) - (al - lo)
            return (1.0 / (b * al) - t) * k1

        return _quad(f, lo, cap, spec, inner=True)

    return _quad(outer, 0.0, 1.0, spec, points=_regime_points(t))


def _sa_tail_o2(t, spec):
    """Tail from the high-shear slice over a marking above the lattice point."""

    def outer(b):
        lo = 1.0 - b
        cap = 1.0 if t <= 0.0 else min(1.0, 1.0 / (b * t))
        if cap <= lo:
            return 0.0

        def f(al):
            return (1.0 / (b * al) - t) * (al - lo)

        return _quad(f, lo, cap, spec, inner=True)

    return _quad(outer, 0.0, 1.0, spec, points=_regime_points(t))


def _sa_tail_o3(t, spec):
    """Tail from low markings under the diagonal; for t <= 1 this piece alone
    integrates to pi^2/6 - 1 - t/3."""

    def outer(b):
        lo = 1.0 - b
        if lo <= 0.0:
            # b rounds to 1: the marking range (0, lo) is empty
            return 0.0
        hi = lo if t <= 0.0 else min(lo, 1.0 / (t * lo) - b)
        if hi <= 0.0:
            return 0.0

        def f(al):
            ahat = 1.0 if t <= 0.0 else min(1.0, 1.0 / (t * (b + al)))
            if ahat <= lo:
                return 0.0
            return (math.log(ahat / lo) - t * (b + al) * (ahat - lo)) / b

        kink = None if t <= 0.0 else 1.0 / t - b
        return _quad(f, 0.0, hi, spec, points=None if kink is None else [kink], inner=True)

    return _quad(outer, 0.0, 1.0, spec, points=_regime_points(t))


def _sa_tail_o4(t, spec):
    """Tail from low markings beside the diagonal; the full shear range
    survives whenever the lattice return clears t."""

    def outer(b):
        lo = 1.0 - b
        cap = 1.0 if t <= 0.0 else min(1.0, 1.0 / (b * t))
        if cap <= lo:
            return 0.0

        def f(a):
            return (a - lo) * (1.0 / (a * b) - t)

        return _quad(f, lo, cap, spec, inner=True)

    return _quad(outer, 0.0, 1.0, spec, points=_regime_points(t))


def _sl_tail_lattice_branch(t, spec):
    """Slit-vector tail where the slit leaves the unit box and the lattice
    return 1/(ab) decides; the unit-square area above x = l(y) is explicit."""

    def outer(b):
        lo = 1.0 - b
        cap = 1.0 if t <= 0.0 else min(1.0, 1.0 / (b * t))
        if cap <= lo:
            return 0.0
        ym = min(1.0, lo / b)

        def f(a):
            return 1.0 - (lo * ym - 0.5 * b * ym * ym) / a

        return _quad(f, lo, cap, spec, inner=True)

    pts = _regime_points(t)
    pts.append(0.5)
    return _quad(outer, 0.0, 1.0, spec, points=pts)


def _sl_tail_vector_branch(t, spec):
    """Slit-vector tail where the slit itself returns first; the area under
    min(l, L) is explicit once the crossing y* = (1-b)at is located."""

    def outer(b):
        lo = 1.0 - b
        cap = 1.0 if t <= 0.0 else min(1.0, 1.0 / (b * t))
        # lo = 0 where b rounds to 1; the slit area there is 0
        if cap <= lo or lo <= 0.0:
            return 0.0
        y0 = lo / b

        def f(a):
            ystar = lo * a * t
            if ystar < 1.0:
                area = 0.5 * (1.0 - a * b * t) * lo * lo * t
                ym = min(1.0, y0)
                if ym > ystar:
                    area += (lo * (ym - ystar) - 0.5 * b * (ym * ym - ystar * ystar)) / a
            else:
                area = 0.5 * (1.0 - a * b * t) / (a * a * t)
            return area

        kink = None if t <= 0.0 else 1.0 / (lo * t)
        return _quad(f, lo, cap, spec, points=None if kink is None else [kink], inner=True)

    pts = _regime_points(t)
    pts.append(0.5)
    if t > 0.0:
        pts.append(1.0 - 1.0 / math.sqrt(t))
    return _quad(outer, 0.0, 1.0, spec, points=pts)


def tail_components(t, spec=None):
    """Per-region tail masses whose sum is the quadrature tail."""
    if t < 0.0:
        raise InvalidInputError(f"tail evaluated at negative threshold {t!r}")
    spec = spec or DEFAULT_QUADRATURE
    return {
        "sa-o1": _sa_tail_o1(t, spec),
        "sa-o2": _sa_tail_o2(t, spec),
        "sa-o3": _sa_tail_o3(t, spec),
        "sa-o4": _sa_tail_o4(t, spec),
        "sl-lattice": _sl_tail_lattice_branch(t, spec),
        "sl-vector": _sl_tail_vector_branch(t, spec),
    }


def w_tail_quadrature(t, spec=None):
    """Doubled-torus tail mass by nested adaptive quadrature.

    Each region's innermost integral (over the shear or over the slit
    coordinate) has integrand 1 and is folded in exactly; the rest is a sum
    of six 2-fold integrals split at every hyperbola crossing.
    """
    return math.fsum(tail_components(t, spec).values())


def w_tail_closed_form(t, spec=None):
    """Tail G(t) of the doubled-torus gap law.

    Explicit pieces cover [0, 4]; past 4 the value falls back to
    w_tail_quadrature, against whose pieces the closed forms are checked.
    """
    if t < 0.0:
        raise InvalidInputError(f"tail evaluated at negative threshold {t!r}")
    if t <= 1.0:
        return _tail_linear(t)
    if t <= 2.0:
        return _tail_low(t)
    if t <= 4.0:
        return _tail_high(t)
    return w_tail_quadrature(t, spec)


_CLOSED_PIECES = (_tail_linear, _tail_low, _tail_high, _tail_high)
_NONDIFF_POINTS = (1.0, 2.0, GOLDEN_T)


@dataclass(frozen=True)
class PiecewiseTail:
    """Piecewise tail law with one evaluator per breakpoint gap.

    Pieces own half-open runs (lo, hi]; the first also owns its left end.
    """

    breakpoints: tuple = TAIL_BREAKPOINTS
    pieces: tuple = _CLOSED_PIECES + (w_tail_quadrature,)
    nondiff: tuple = _NONDIFF_POINTS

    def __post_init__(self):
        if len(self.pieces) + 1 != len(self.breakpoints):
            raise InvalidInputError("need exactly one evaluator per breakpoint gap")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise InvalidInputError("breakpoints must increase strictly")

    def piece_index(self, t):
        if t < self.breakpoints[0]:
            raise InvalidInputError(f"{t!r} is below the support {self.breakpoints[0]!r}")
        for i in range(1, len(self.breakpoints)):
            if t <= self.breakpoints[i]:
                return i - 1
        return len(self.pieces) - 1

    def tail(self, t):
        return self.pieces[self.piece_index(t)](t)

    def cdf(self, t):
        return self.tail(self.breakpoints[0]) - self.tail(t)

    def density(self, t, h=1e-5, *, one_sided=False):
        """Finite-difference density -G'(t).

        Central difference away from breakpoints; a (left, right) pair at the
        kinks or whenever one_sided is set; stepping across a breakpoint
        without the flag is refused.
        """
        if not h > 0.0:
            raise InvalidInputError("difference step must be positive")
        if not t > 0.0:
            raise InvalidInputError("density is defined for t > 0")
        if t - h < 0.0:
            raise InvalidInputError("difference step reaches below the support")
        g = self.tail
        interior = [bp for bp in self.breakpoints[1:-1] if math.isfinite(bp)]
        at_kink = any(t == bp for bp in self.nondiff)
        if one_sided or at_kink:
            left = -(g(t) - g(t - h)) / h
            right = -(g(t + h) - g(t)) / h
            return (left, right)
        if any(abs(t - bp) <= h for bp in interior):
            raise AmbiguityError(
                f"step {h:g} straddles a breakpoint near t={t:g}; pass one_sided=True"
            )
        return -(g(t + h) - g(t - h)) / (2.0 * h)


DOUBLED_TAIL = PiecewiseTail()


def w_density(t, h=1e-5, *, one_sided=False):
    """Gap density of the doubled-torus law via symmetric differences."""
    return DOUBLED_TAIL.density(t, h, one_sided=one_sided)


def compare_pieces(points_per_piece=50, tolerance=1e-6, spec=None):
    """Differential check of every closed-form piece against quadrature.

    Returns a JSON-ready report; a transcription slip in any one piece shows
    up isolated in that piece's row.
    """
    if points_per_piece < 1:
        raise InvalidInputError("need at least one probe point per piece")
    spec = spec or DEFAULT_QUADRATURE
    rows = []
    for idx, fn in enumerate(_CLOSED_PIECES):
        lo, hi = TAIL_BREAKPOINTS[idx], TAIL_BREAKPOINTS[idx + 1]
        worst = 0.0
        worst_t = lo
        for k in range(1, points_per_piece + 1):
            tt = lo + (hi - lo) * k / (points_per_piece + 1.0)
            err = abs(fn(tt) - w_tail_quadrature(tt, spec))
            if err > worst:
                worst = err
                worst_t = tt
        rows.append(
            {
                "piece": idx + 1,
                "interval": [lo, hi],
                "points": points_per_piece,
                "max_abs_err": worst,
                "worst_t": worst_t,
                "pass": bool(worst <= tolerance),
            }
        )
    return {
        "tolerance": tolerance,
        "pieces": rows,
        "all_pass": all(row["pass"] for row in rows),
    }


def _cubic_residual(t, b):
    return t * b * (1.0 - b) ** 2 - 2.0


def _bisect_cubic(t, lo, hi):
    f_lo = _cubic_residual(t, lo)
    f_hi = _cubic_residual(t, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise OutOfRegimeError(f"no sign change for the envelope cubic on [{lo:g}, {hi:g}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _cubic_residual(t, mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def envelope_cubic_roots(t):
    """Both (0, 1) roots of t*b*(1-b)^2 = 2, smaller first.

    The cosine substitution b = (2/3)(1+cos(theta)) solves the cubic exactly;
    bisection refines any root whose residual drifts, since the arccos route
    loses digits near the double root at t = 27/2.
    """
    if t < 13.5:
        raise OutOfRegimeError(f"envelope cubic has no roots in (0,1) for t={t:g} < 13.5")
    arg = min(1.0, max(-1.0, 27.0 / t - 1.0))
    theta = math.acos(arg) / 3.0
    b_large = (2.0 / 3.0) * (math.cos(theta - 2.0 * math.pi / 3.0) + 1.0)
    b_small = (2.0 / 3.0) * (math.cos(theta - 4.0 * math.pi / 3.0) + 1.0)
    third = 1.0 / 3.0
    if abs(_cubic_residual(t, b_small)) > 1e-9:
        b_small = _bisect_cubic(t, 1e-300, third)
    if abs(_cubic_residual(t, b_large)) > 1e-9:
        b_large = _bisect_cubic(t, third, 1.0 - 1e-16)
    return b_small, b_large


def _envelope_cap_points(t):
    pts = []
    if t > 8.0:
        root = math.sqrt(1.0 - 8.0 / t)
        pts.append((1.0 - root) / 2.0)
        pts.append((1.0 + root) / 2.0)
    if t >= 13.5:
        pts.extend(envelope_cubic_roots(t))
    return pts


def _envelope_cap(t, b):
    # the 2/(ab(1-b)) envelope exceeds t exactly below this lattice coordinate
    denom = t * b * (1.0 - b)
    if denom <= 0.0:
        # t <= 0, or b at an end of [0, 1] where the envelope is unbounded
        return 1.0
    return min(1.0, 2.0 / denom)


def _o2_slice_upper(t, spec):
    """Envelope mass over the floor-bearing high-shear region; the marking and
    shear integrals are exact, leaving (-ln a)/b."""

    def outer(b):
        lo = 1.0 - b
        cap = _envelope_cap(t, b)
        if cap <= lo:
            return 0.0

        def f(a):
            return -math.log(a) / b

        return _quad(f, lo, cap, spec, inner=True)

    return _quad(outer, 0.0, 1.0, spec, points=_envelope_cap_points(t))


def _o4_slice_upper(t, spec):
    """Envelope mass over the floor-bearing low-marking region."""

    def outer(b):
        lo = 1.0 - b
        cap = _envelope_cap(t, b)
        if cap <= lo:
            return 0.0

        def f(a):
            return (a - lo) / (a * b)

        return _quad(f, lo, cap, spec, inner=True)

    return _quad(outer, 0.0, 1.0, spec, points=_envelope_cap_points(t))


def _soft_log_weight(b):
    # b + (1-b)ln(1-b), the exact inner mass shared by both lower envelopes
    omb = 1.0 - b
    if omb <= 0.0:
        return b
    return b + omb * math.log(omb)


def _o2_lower(t, spec):
    hi = 1.0 if t <= 0.0 else min(1.0, 1.0 / t)

    def f(b):
        return _soft_log_weight(b) / b

    return _quad(f, 0.0, hi, spec)


def _o4_lower(t, spec):
    hi = 1.0 if t <= 0.0 else min(1.0, 1.0 / t)

    def f(b):
        return (1.0 / b - t) * _soft_log_weight(b)

    return _quad(f, 0.0, hi, spec)


def omega_tail_bounds(t, spec=None):
    """(lower, upper) envelopes for the affine-lattice gap tail.

    The two floor-free regions contribute their exact tails to both sides;
    the floor-bearing regions contribute sandwich integrals that pin the tail
    between quadratic and linear decay.
    """
    if t < 0.0:
        raise InvalidInputError(f"tail evaluated at negative threshold {t!r}")
    spec = spec or DEFAULT_QUADRATURE
    exact = _sa_tail_o1(t, spec) + _sa_tail_o3(t, spec)
    lower = exact + _o2_lower(t, spec) + _o4_lower(t, spec)
    upper = exact + _o2_slice_upper(t, spec) + _o4_slice_upper(t, spec)
    return lower, upper


def _torsion_c1(q, t, spec):
    # below the b = 1 - a/q line the return is floor-free; empty when q = 1
    if q == 1:
        return 0.0
    frac = 1.0 - 1.0 / q
    astar = (1.0 - math.sqrt(1.0 - (4.0 / t) * frac)) / (2.0 * frac)

    def width(a):
        top = min(1.0 - a / q, 1.0 / (a * t) - a / q)
        return max(0.0, top - (1.0 - a))

    return _quad(width, 0.0, min(1.0, astar), spec, points=[1.0 / t])


def _torsion_c2_slice(q, t, a):
    """Exact b-measure of {return > t} on the b >= 1 - a/q slice at fixed a,
    summed over the floor shells of the return formula."""
    frac = 1.0 - 1.0 / q
    c = 1.0 + a * frac
    blo = 1.0 - a / q
    base = 1.0 / (a * t)
    total = 0.0
    j = 1
    while j < 10_000_000:
        shell_hi = c / j
        if shell_hi <= blo:
            break
        if shell_hi <= base:
            # every deeper shell clears the threshold in full
            total += max(0.0, min(shell_hi, 1.0) - blo)
            break
        cap = base + (a / j) * frac
        hi = min(shell_hi, 1.0, cap)
        lo = max(c / (j + 1), blo)
        if hi > lo:
            total += hi - lo
        j += 1
    return total


def torsion_tail(q, t, spec=None):
    """Normalized gap tail at q-torsion markings.

    The region below the b + a/q = 1 line integrates its hyperbola window
    directly; the region above sums floor shells of the return formula
    exactly.  The result is scaled to a probability over the base triangle.
    """
    if int(q) != q or q < 1:
        raise InvalidInputError(f"torsion order must be a positive integer, got {q!r}")
    q = int(q)
    if t <= q:
        raise OutOfRegimeError(f"tail regime needs t > q; got t={t:g}, q={q}")
    if 1.0 - (4.0 / t) * (1.0 - 1.0 / q) <= 0.0:
        raise OutOfRegimeError(f"regime roots are complex at t={t:g}, q={q}")
    spec = spec or DEFAULT_QUADRATURE
    c1 = _torsion_c1(q, t, spec)
    c2 = _quad(
        lambda a: _torsion_c2_slice(q, t, a),
        0.0,
        1.0,
        spec,
        points=[1.0 / t],
    )
    return 2.0 * (c1 + c2)


def fit_decay_exponent(t_grid, values):
    """Least-squares slope of log(value) against log(t)."""
    t = np.asarray(t_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise InvalidInputError("grid and values must be paired 1-d sequences")
    if t.size < 5:
        raise InvalidInputError(f"need at least 5 samples for a decay fit, got {t.size}")
    if np.any(t <= 0.0) or np.any(v <= 0.0):
        raise InvalidInputError("log-log fit needs positive grid and values")
    if np.any(np.diff(t) <= 0.0):
        raise InvalidInputError("grid must increase strictly")
    return float(np.polyfit(np.log(t), np.log(v), 1)[0])
