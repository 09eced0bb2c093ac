"""Closed-form gap-tail laws and their quadrature cross-checks.

The tail of the slope-gap law on the doubled-torus section has an explicit
piecewise description on (0, 4] built from dilogarithms, logarithms, and an
inverse hyperbolic cotangent; past 4 only an integral over the section is
available.  Its inner integrals are elementary and taken exactly, which leaves
one 1-D quadrature over the lattice coordinate per region.  This module
carries both routes and a differential comparison between them,
plus envelope bounds for the affine-lattice tail and exact torsion-marking
tails.
"""

import functools
import math

from scipy import integrate, special

from .errors import InvalidInputError, OutOfRegimeError, QuadratureError

PI_SQUARED_OVER_6 = math.pi * math.pi / 6.0
SQRT5 = math.sqrt(5.0)
GOLDEN_T = (3.0 + SQRT5) / 2.0
W_TOTAL_MASS = (3.0 + math.pi * math.pi) / 6.0
TAIL_BREAKPOINTS = (0.0, 1.0, 2.0, GOLDEN_T, 4.0, math.inf)

_SERIES_TOL = 1e-18


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


_EPSREL = 1e-8
_EPSABS = 1e-12
_LIMIT = 200
_POINT_RTOL = 1e-12
_END_ULPS = 4


def _quad(f, lo, hi, points=()):
    """Adaptive integral of f over [lo, hi], split at the interior points.

    A point within rounding of the one before it (1e-12 relative) or of hi
    (a few ulps) is dropped: a sub-interval that narrow around a kink makes
    QUADPACK report extremely bad integrand behavior.  The end rule is tight
    because a point 1e-13 below hi = 1 can bound all of a tail's mass.
    """
    if hi <= lo:
        return 0.0
    pts = []
    for p in sorted(p for p in points if math.isfinite(p) and lo < p < hi):
        if p - (pts[-1] if pts else lo) > _POINT_RTOL * abs(p) and hi - p > _END_ULPS * math.ulp(hi):
            pts.append(p)
    out = integrate.quad(
        f,
        lo,
        hi,
        points=pts or None,
        limit=_LIMIT,
        epsabs=_EPSABS,
        epsrel=_EPSREL,
        full_output=1,
    )
    val, err = out[0], out[1]
    if len(out) > 3 and err > max(50.0 * _EPSABS, 5e-6 * abs(val)):
        achieved = err / max(abs(val), 1e-300)
        raise QuadratureError(
            f"quadrature stalled on [{lo:g}, {hi:g}]; achieved relative error {achieved:.2e}"
        )
    return val


def _check_threshold(t):
    if not t >= 0.0:
        raise InvalidInputError(f"tail evaluated at negative or NaN threshold {t!r}")


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


def _slice_mass(slice_fn, t, points):
    """Integral over the lattice coordinate b in (0, 1) of slice_fn(t, b),
    with t bound by ``functools.partial``: QUADPACK calls the integrand some
    10^4 times per tail, and a partial adds no Python frame to each call."""
    return _quad(functools.partial(slice_fn, t), 0.0, 1.0, points=points)


# Each *_slice(t, b) below is a region's exact inner integral at a fixed
# lattice coordinate b, mostly over the other one, a, in (lo, cap), lo = 1-b.
# They are written in d = cap - lo and log1p(d/lo), so that no term is much
# larger than the slice mass itself.  The guard lo <= 0 covers b rounding to
# 1: a measure-zero edge of the outer integral, at which ln(a/lo) is undefined.
# Minima and maxima are conditional expressions, not calls: ``x if x < y
# else y`` is what ``min(y, x)`` returns, NaN included, and ``x if x > y
# else y`` is ``max(y, x)``.


def _lattice_cap(t, b):
    # the lattice return 1/(ab) exceeds t exactly below this a
    if t <= 0.0:
        return 1.0
    cap = 1.0 / (b * t)
    return cap if cap < 1.0 else 1.0


def _gap_ratio_mass(lo, d):
    # integral of (a - lo)/a over (lo, lo + d)
    return d - lo * math.log1p(d / lo)


def _o1_slice(t, b):
    """Sheared-marking tail from the region where the return scales the shear.

    The integral over the lattice coordinate is exact and leaves the weight
    k(alpha) = alpha*ln(alpha/lo) - (alpha - lo), lo = 1-b.  The integral of
    (1/(b*alpha) - t)*k(alpha) over (lo, cap) is elementary too, in
    s = alpha/lo, and is returned here.
    """
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    if cap <= lo or lo <= 0.0:
        return 0.0
    x = (cap - lo) / lo
    lg = math.log1p(x)
    scaled = (2.0 + x) * lg - 2.0 * x
    flat = 0.5 * (1.0 + x) ** 2 * lg - 0.5 * x - 0.75 * x * x
    return lo / b * scaled - t * lo * lo * flat


def _o2_slice(t, b):
    """Tail from the high-shear slice over a marking above the lattice point.

    The low-marking region beside the diagonal (O4) has the same integrand
    (1/(ab) - t)*(a - lo), so this slice serves both.
    """
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    if cap <= lo or lo <= 0.0:
        return 0.0
    d = cap - lo
    return _gap_ratio_mass(lo, d) / b - 0.5 * t * d * d


def _o3_slice(t, b):
    """Tail from low markings under the diagonal; for t <= 1 this piece alone
    integrates to pi^2/6 - 1 - t/3.

    In w = b + alpha the cap on a is 1 up to w = 1/t, where the integrand
    is (-ln lo)/b - t*w, and 1/(tw) past it, where it is g(t*lo*w)/b with
    g(y) = y - 1 - ln y.
    """
    lo = 1.0 - b
    if lo <= 0.0:
        # b rounds to 1: the marking range (0, lo) is empty
        return 0.0
    neg_log_lo = -math.log1p(-b)
    if t <= 0.0:
        return lo * neg_log_lo / b
    w_hi = 1.0 / (t * lo) - b
    w_hi = b + (w_hi if w_hi < lo else lo)
    if w_hi <= b:
        return 0.0
    kink = 1.0 / t
    total = 0.0
    if b < kink:
        w_mid = kink if kink < w_hi else w_hi
        total += (w_mid - b) * (neg_log_lo / b - 0.5 * t * (b + w_mid))
    if w_hi > kink:
        y1 = t * lo * (kink if kink > b else b)
        y2 = t * lo * w_hi
        dy = y2 - y1
        g_mass = dy * (0.5 * (y1 + y2) - math.log(y1)) - y2 * math.log1p(dy / y1)
        total += g_mass / (b * t * lo)
    return total


def _sl_area_weight(b):
    # lo*ym - b*ym^2/2 with ym = min(1, lo/b): the slit-area term that
    # falls off as 1/a in both slit-vector branches
    lo = 1.0 - b
    ym = lo / b
    ym = ym if ym < 1.0 else 1.0
    return lo * ym - 0.5 * b * ym * ym


def _sl_lattice_slice(t, b):
    """Slit-vector tail where the slit leaves the unit box and the lattice
    return 1/(ab) decides; the unit-square area above x = l(y) is explicit."""
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    if cap <= lo or lo <= 0.0:
        return 0.0
    d = cap - lo
    return d - _sl_area_weight(b) * math.log1p(d / lo)


def _sl_vector_slice(t, b):
    """Slit-vector tail where the slit itself returns first; the area under
    min(l, L) is explicit once the crossing y* = (1-b)at is located.

    Below the kink a = 1/((1-b)t), where y* reaches 1, the area is
    w/a - (1-b)^2 t/2 with w = _sl_area_weight(b); past it, (1 - abt)/(2a^2 t).
    """
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    # lo = 0 where b rounds to 1; the slit area there is 0
    if cap <= lo or lo <= 0.0:
        return 0.0
    weight = _sl_area_weight(b)
    if t <= 0.0:
        return weight * math.log1p((cap - lo) / lo)
    kink = 1.0 / (lo * t)
    total = 0.0
    a_mid = kink if kink < cap else cap
    if a_mid > lo:
        total += weight * math.log1p((a_mid - lo) / lo) - 0.5 * lo * lo * t * (a_mid - lo)
    if cap > kink:
        a1 = kink if kink > lo else lo
        total += 0.5 * (cap - a1) / (t * a1 * cap) - 0.5 * b * math.log1p((cap - a1) / a1)
    return total


def tail_components(t):
    """Per-region tail masses whose sum is the quadrature tail."""
    _check_threshold(t)
    pts = _regime_points(t)
    sl_pts = pts + [0.5]
    vector_pts = sl_pts + [1.0 - 1.0 / math.sqrt(t)] if t > 0.0 else sl_pts
    o2 = _slice_mass(_o2_slice, t, pts)
    return {
        "sa-o1": _slice_mass(_o1_slice, t, pts),
        "sa-o2": o2,
        "sa-o3": _slice_mass(_o3_slice, t, pts),
        "sa-o4": o2,
        "sl-lattice": _slice_mass(_sl_lattice_slice, t, sl_pts),
        "sl-vector": _slice_mass(_sl_vector_slice, t, vector_pts),
    }


def w_tail_quadrature(t):
    """Doubled-torus tail mass by quadrature over the lattice coordinate.

    Each region's innermost integral (over the shear or over the slit
    coordinate) has integrand 1, and the next one is elementary; both are
    folded in exactly, which leaves a sum of six 1-D integrals over b split at
    every hyperbola crossing.  No dilogarithm enters, so this route checks the
    closed-form pieces independently.
    """
    return math.fsum(tail_components(t).values())


def w_tail_closed_form(t):
    """Tail G(t) of the doubled-torus gap law.

    Explicit pieces cover [0, 4]; past 4 the value falls back to
    w_tail_quadrature, against whose pieces the closed forms are checked;
    a negative quadrature value (noise, t ~ 1e16) raises QuadratureError.
    """
    _check_threshold(t)
    if t <= 1.0:
        return _tail_linear(t)
    if t <= 2.0:
        return _tail_low(t)
    if t <= 4.0:
        return _tail_high(t)
    tail = w_tail_quadrature(t)
    if tail < 0.0:
        raise QuadratureError(f"tail quadrature at t = {t:g} is negative ({tail:.3e})")
    return tail


_CLOSED_PIECES = (_tail_linear, _tail_low, _tail_high, _tail_high)


def w_cdf(t):
    """Distribution function G(0) - G(t) of the doubled-torus gap law."""
    return w_tail_closed_form(0.0) - w_tail_closed_form(t)


# -d/dt of each *_slice at fixed b, for t > 1.  A cap that moves with t adds
# nothing where the integrand vanishes on it, so only the slit rates keep a
# term for their lattice cap 1/(bt), which moves at speed cap/t.


def _o1_rate(t, b):
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    if cap <= lo or lo <= 0.0:
        return 0.0
    x = (cap - lo) / lo
    return lo * lo * (0.5 * (1.0 + x) ** 2 * math.log1p(x) - 0.5 * x - 0.75 * x * x)


def _o2_rate(t, b):
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    return 0.5 * (cap - lo) ** 2 if 0.0 < lo < cap else 0.0


def _o3_rate(t, b):
    # in w = b + alpha: -w below w = 1/t, (lo*w - 1/t)/b <= 0 from there to w_hi
    lo = 1.0 - b
    if lo <= 0.0:
        return 0.0
    w_hi = 1.0 / (t * lo) - b
    w_hi = b + (w_hi if w_hi < lo else lo)
    kink = 1.0 / t
    w_mid = kink if kink < w_hi else w_hi
    w1 = kink if kink > b else b
    total = 0.5 * (w_mid - b) * (w_mid + b) if w_mid > b else 0.0
    if w_hi > w1:
        total -= (w_hi - w1) * (0.5 * lo * (w_hi + w1) - kink) / b
    return total


def _sl_lattice_rate(t, b):
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    return (cap - _sl_area_weight(b)) / t if 0.0 < lo < cap < 1.0 else 0.0


def _sl_vector_rate(t, b):
    # area rate -lo^2/2 below the kink a = 1/(lo*t), -1/(2a^2t^2) past it; a
    # moving cap adds cap/t times the area there, which is 0 past the kink
    lo = 1.0 - b
    cap = _lattice_cap(t, b)
    if cap <= lo or lo <= 0.0:
        return 0.0
    kink = 1.0 / (lo * t)
    if cap <= kink:
        edge = _sl_area_weight(b) / t - 0.5 * lo * lo * cap if cap < 1.0 else 0.0
        return 0.5 * lo * lo * (cap - lo) + edge
    if kink <= lo:
        return 0.5 * (1.0 / lo - 1.0 / cap) / (t * t)
    return 0.5 * lo * lo * (kink - lo) + 0.5 * (1.0 / kink - 1.0 / cap) / (t * t)


def w_density(t):
    """Gap density -G'(t) of the doubled-torus law: 7/8 on [0, 1]; past 1,
    the t-rate of each tail_components slice integrated over b on that
    slice's own split points, sa-o2 counted twice as in the tail.  It is
    continuous at every breakpoint, so each t has one value."""
    _check_threshold(t)
    if t <= 1.0:
        return 7.0 / 8.0
    pts = _regime_points(t)
    sl_pts = pts + [0.5]
    o2 = _slice_mass(_o2_rate, t, pts)
    sa = [_slice_mass(rate, t, pts) for rate in (_o1_rate, _o3_rate)]
    sl_lattice = _slice_mass(_sl_lattice_rate, t, sl_pts)
    sl_vector = _slice_mass(_sl_vector_rate, t, sl_pts + [1.0 - 1.0 / math.sqrt(t)])
    return math.fsum([*sa, o2, o2, sl_lattice, sl_vector])


def compare_pieces(points_per_piece=50, tolerance=1e-6):
    """Differential check of every closed-form piece against quadrature.

    Returns a JSON-ready report; a transcription slip in any one piece shows
    up isolated in that piece's row.
    """
    if points_per_piece < 1:
        raise InvalidInputError("need at least one probe point per piece")
    rows = []
    for idx, fn in enumerate(_CLOSED_PIECES):
        lo, hi = TAIL_BREAKPOINTS[idx], TAIL_BREAKPOINTS[idx + 1]
        worst = 0.0
        worst_t = lo
        for k in range(1, points_per_piece + 1):
            tt = lo + (hi - lo) * k / (points_per_piece + 1.0)
            err = abs(fn(tt) - w_tail_quadrature(tt))
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


def _gap_residual(t, c):
    # the cubic in the gap c = 1 - b, ordered so t*c*c stays finite
    return t * c * c * (1.0 - c) - 2.0


def _bisect(f, lo, hi):
    """Root of f on [lo, hi] by bisection down to adjacent floats."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise OutOfRegimeError(f"no sign change for the envelope cubic on [{lo:g}, {hi:g}]")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def envelope_cubic_roots(t):
    """The (0, 1) roots of t*b*(1-b)^2 = 2: the smaller root b, and the
    larger root's gap 1 - b, which is all of that root that is representable
    once it lies within an ulp of 1 (t above about 1e32).

    The cosine substitution b = (2/3)(1+cos(theta)) solves the cubic exactly;
    bisection refines any root whose residual drifts, since the arccos route
    loses digits near the double root at t = 27/2 and at large t.  The small
    root, near 2/t, is bracketed by [1/t, 1/3]; the large one is bisected in
    its gap, near sqrt(2/t), on [1/sqrt(t), 2/3].
    """
    if t < 13.5:
        raise OutOfRegimeError(f"envelope cubic has no roots in (0,1) for t={t:g} < 13.5")
    arg = min(1.0, max(-1.0, 27.0 / t - 1.0))
    theta = math.acos(arg) / 3.0
    b_large = (2.0 / 3.0) * (math.cos(theta - 2.0 * math.pi / 3.0) + 1.0)
    b_small = (2.0 / 3.0) * (math.cos(theta - 4.0 * math.pi / 3.0) + 1.0)
    if abs(_cubic_residual(t, b_small)) > 1e-9:
        b_small = _bisect(lambda b: _cubic_residual(t, b), 1.0 / t, 1.0 / 3.0)
    if abs(_cubic_residual(t, b_large)) > 1e-9:
        return b_small, _bisect(lambda c: _gap_residual(t, c), 1.0 / math.sqrt(t), 2.0 / 3.0)
    return b_small, 1.0 - b_large


def _envelope_kinks(t):
    """Where the envelope cap 2/(t*b*(1-b)) crosses 1 and where it crosses
    1 - b, as pairs (b, 1 - b) each computed from its smaller member."""
    kinks = []
    if t > 8.0:
        # b*(1-b) = 2/t; the smaller root (1 - sqrt(1 - 8/t))/2 without cancellation
        p = 4.0 / (t * (1.0 + math.sqrt(1.0 - 8.0 / t)))
        kinks += [(p, 1.0 - p), (1.0 - p, p)]
    if t >= 13.5:
        b_small, c_large = envelope_cubic_roots(t)
        kinks += [(b_small, 1.0 - b_small), (1.0 - c_large, c_large)]
    return kinks


def _envelope_mass(slice_fn, t):
    """Integral over b in (0, 1) of slice_fn(t, b, 1 - b).

    The half b > 1/2 is integrated in the gap c = 1 - b: the envelope's mass
    there lies within about sqrt(2/t) of b = 1, which b itself stops
    resolving at large t.
    """
    kinks = _envelope_kinks(t)
    near_zero = _quad(lambda b: slice_fn(t, b, 1.0 - b), 0.0, 0.5, [b for b, _ in kinks])
    near_one = _quad(lambda c: slice_fn(t, 1.0 - c, c), 0.0, 0.5, [c for _, c in kinks])
    return near_zero + near_one


def _envelope_cap(t, b, lo):
    # the 2/(ab(1-b)) envelope exceeds t exactly below this lattice coordinate
    denom = t * b * lo
    if denom <= 0.0:
        # t <= 0, or b at an end of [0, 1] where the envelope is unbounded
        return 1.0
    cap = 2.0 / denom
    return cap if cap < 1.0 else 1.0


def _o2_envelope_slice(t, b, lo):
    """Envelope mass over the floor-bearing high-shear region at b, lo = 1-b;
    the marking and shear integrals are exact, leaving (-ln a)/b, whose
    integral over a is returned here."""
    cap = _envelope_cap(t, b, lo)
    if cap <= lo or lo <= 0.0:
        return 0.0
    d = cap - lo
    return (_gap_ratio_mass(lo, d) - d * math.log(cap)) / b


def _o4_envelope_slice(t, b, lo):
    """Envelope mass over the floor-bearing low-marking region at b, lo = 1-b."""
    cap = _envelope_cap(t, b, lo)
    if cap <= lo or lo <= 0.0:
        return 0.0
    return _gap_ratio_mass(lo, cap - lo) / b


def _soft_log_weight(b):
    # b + (1-b)ln(1-b), the exact inner mass shared by both lower envelopes,
    # as 1 - (1+y)e^-y with y = -ln(1-b): no cancellation at small b, 1 at b = 1
    y = -math.log1p(-b) if b < 1.0 else math.inf
    return float(special.gammainc(2.0, y))


def _o2_lower(t):
    hi = 1.0 if t <= 0.0 else min(1.0, 1.0 / t)

    def f(b):
        return _soft_log_weight(b) / b

    return _quad(f, 0.0, hi)


def _o4_lower(t):
    hi = 1.0 if t <= 0.0 else min(1.0, 1.0 / t)

    def f(b):
        # (1/b - t) * weight, without overflowing 1/b at subnormal b
        return (1.0 - t * b) * _soft_log_weight(b) / b

    return _quad(f, 0.0, hi)


def omega_tail_bounds(t):
    """(lower, upper) envelopes for the affine-lattice gap tail.

    The two floor-free regions contribute their exact tails to both sides;
    the floor-bearing regions contribute sandwich integrals that pin the tail
    between quadratic and linear decay. A negative lower bound raises
    QuadratureError.
    """
    _check_threshold(t)
    pts = _regime_points(t)
    exact = _slice_mass(_o1_slice, t, pts) + _slice_mass(_o3_slice, t, pts)
    lower = exact + _o2_lower(t) + _o4_lower(t)
    if lower < 0.0:
        raise QuadratureError(f"lower tail bound at t = {t:g} is negative ({lower:.3e})")
    upper = exact + _envelope_mass(_o2_envelope_slice, t) + _envelope_mass(_o4_envelope_slice, t)
    return lower, upper


def _torsion_c1(q, t):
    # below the b = 1 - a/q line the return is floor-free; empty when q = 1
    if q == 1:
        return 0.0
    frac = 1.0 - 1.0 / q
    astar = (1.0 - math.sqrt(1.0 - (4.0 / t) * frac)) / (2.0 * frac)

    def width(a):
        top = min(1.0 - a / q, 1.0 / (a * t) - a / q)
        return max(0.0, top - (1.0 - a))

    return _quad(width, 0.0, min(1.0, astar), points=[1.0 / t])


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


def torsion_tail(q, t):
    """Normalized gap tail at q-torsion markings.

    The region below the b + a/q = 1 line integrates its hyperbola window
    directly; the region above sums floor shells of the return formula
    exactly.  The result is scaled to a probability over the base triangle.
    """
    if int(q) != q or q < 1:
        raise InvalidInputError(f"torsion order must be a positive integer, got {q!r}")
    q = int(q)
    _check_threshold(t)
    if t <= q:
        raise OutOfRegimeError(f"tail regime needs t > q; got t={t:g}, q={q}")
    if 1.0 - (4.0 / t) * (1.0 - 1.0 / q) <= 0.0:
        raise OutOfRegimeError(f"regime roots are complex at t={t:g}, q={q}")
    c1 = _torsion_c1(q, t)
    c2 = _quad(lambda a: _torsion_c2_slice(q, t, a), 0.0, 1.0, points=[1.0 / t])
    return 2.0 * (c1 + c2)
