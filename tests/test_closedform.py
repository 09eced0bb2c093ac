"""Closed-form gap law: dilogarithm, tail pieces, bounds, torsion tails."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from slitgaps import closedform
from slitgaps.closedform import (
    GOLDEN_T,
    W_TOTAL_MASS,
    compare_pieces,
    dilog,
    envelope_cubic_roots,
    omega_tail_bounds,
    tail_components,
    torsion_tail,
    w_cdf,
    w_density,
    w_tail_closed_form,
    w_tail_quadrature,
)
from slitgaps.errors import AmbiguityError, InvalidInputError, OutOfRegimeError
from slitgaps.measures import FORMULA, MeasureSpec, mc_tail


def test_dilog_special_values():
    assert dilog(0.0) == 0.0
    assert math.isclose(dilog(1.0), math.pi ** 2 / 6.0, rel_tol=1e-15)
    want_half = math.pi ** 2 / 12.0 - math.log(2.0) ** 2 / 2.0
    assert math.isclose(dilog(0.5), want_half, rel_tol=1e-15)


def test_dilog_against_scipy():
    xs = np.linspace(-5.0, 1.0, 601)
    ours = np.array([dilog(x) for x in xs])
    ref = scipy.special.spence(1.0 - xs)
    assert np.max(np.abs(ours - ref)) < 1e-13


def test_dilog_rejects_real_branch_cut():
    with pytest.raises(InvalidInputError):
        dilog(1.0 + 1e-9)


def test_tail_anchor_values():
    assert math.isclose(w_tail_closed_form(0.0), W_TOTAL_MASS, rel_tol=1e-12)
    want_one = W_TOTAL_MASS - 7.0 / 8.0
    assert math.isclose(w_tail_closed_form(1.0), want_one, rel_tol=1e-12)


def test_tail_rejects_negative():
    with pytest.raises(InvalidInputError):
        w_tail_closed_form(-0.25)


def test_continuity_at_breakpoints():
    for bp in (1.0, 2.0, GOLDEN_T, 4.0):
        left = w_tail_closed_form(bp - 1e-9)
        right = w_tail_closed_form(bp + 1e-9)
        assert abs(left - right) < 1e-6


def test_tail_nonincreasing():
    grid = np.linspace(0.0, 12.0, 400)
    vals = [w_tail_closed_form(t) for t in grid]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-12)
    assert vals[-1] > 0.0


def test_closed_form_matches_quadrature_everywhere():
    report = compare_pieces(50, 1e-6)
    assert report["all_pass"]
    for row in report["pieces"]:
        assert row["max_abs_err"] < 1e-6


def test_quadrature_at_selected_points():
    assert abs(w_tail_quadrature(0.0) - W_TOTAL_MASS) < 1e-8
    for t in (0.5, 3.0):
        assert abs(w_tail_quadrature(t) - w_tail_closed_form(t)) < 1e-6


def test_component_split_is_nonnegative_and_sums():
    for t in (0.5, 1.5, 2.4, 3.0, 6.0):
        parts = tail_components(t)
        assert set(parts) == {
            "sa-o1", "sa-o2", "sa-o3", "sa-o4", "sl-lattice", "sl-vector",
        }
        assert all(v >= -1e-12 for v in parts.values())
        assert abs(math.fsum(parts.values()) - w_tail_quadrature(t)) < 1e-9


def test_density_at_half():
    assert math.isclose(w_density(0.5), 7.0 / 8.0, rel_tol=1e-6)
    normalized = w_density(0.5) / W_TOTAL_MASS
    assert math.isclose(normalized, 0.4079379471490745, rel_tol=1e-6)


def test_density_pairs_at_kinks():
    for bp in (1.0, 2.0, GOLDEN_T):
        pair = w_density(bp)
        assert isinstance(pair, tuple) and len(pair) == 2
        left, right = pair
        assert left > 0.0 and right > 0.0
    # the linear piece ends at 1 with slope exactly -7/8 from the left
    left, _ = w_density(1.0)
    assert math.isclose(left, 7.0 / 8.0, rel_tol=1e-4)


def test_density_straddle_requires_flag():
    with pytest.raises(AmbiguityError):
        w_density(1.0 + 1e-7)
    left, right = w_density(1.0 + 1e-7, one_sided=True)
    assert left > 0.0 and right > 0.0


def test_density_integrates_to_total_mass():
    grid = np.linspace(1e-3, 4.0, 4001)
    vals = np.array([w_density(t, one_sided=True)[1] for t in grid])
    integral = np.trapezoid(vals, grid)
    integral += 7.0 / 8.0 * 1e-3          # linear head below the grid
    integral += w_tail_closed_form(4.0)   # mass beyond the grid
    assert abs(integral / W_TOTAL_MASS - 1.0) < 1e-4


def test_envelope_cubic_roots():
    roots = envelope_cubic_roots(100.0)
    assert len(roots) == 2
    assert math.isclose(roots[0], 0.020861, abs_tol=5e-6)
    # the smaller root, then the larger root's gap 1 - b
    for b in (roots[0], 1.0 - roots[1]):
        assert 0.0 < b < 1.0
        assert abs(100.0 * b * (1.0 - b) ** 2 - 2.0) < 1e-6
    with pytest.raises(OutOfRegimeError):
        envelope_cubic_roots(13.0)


def test_omega_bounds_bracket_and_band():
    for t in np.geomspace(16.0, 128.0, 7):
        lower, upper = omega_tail_bounds(t)
        assert 0.0 < lower < upper
        assert 0.66 <= lower * t * t <= 0.69
        assert 6.0 <= upper * t <= 12.5


def test_torsion_tail_against_monte_carlo():
    closed = torsion_tail(2, 16.0)
    est = mc_tail(MeasureSpec.torsion(2), FORMULA, [16.0], 400_000, seed=29)
    assert abs(closed - est.survival[0]) < 3.0 * est.ci_halfwidth[0]


def test_torsion_tail_bands():
    for q in (1, 2, 3):
        for t in np.geomspace(8.0, 64.0, 5):
            val = torsion_tail(q, t)
            assert 0.0 < val
            assert 0.3 < val * t * t / 2.0 < 3.0


def test_torsion_guards():
    with pytest.raises(OutOfRegimeError):
        torsion_tail(2, 1.5)
    with pytest.raises(InvalidInputError):
        torsion_tail(0, 16.0)
    with pytest.raises(InvalidInputError):
        torsion_tail(2.5, 16.0)


def test_tail_exponent_in_quadratic_band():
    grid = np.geomspace(8.0, 128.0, 9)
    vals = [w_tail_closed_form(t) for t in grid]
    slope = np.polyfit(np.log(grid), np.log(vals), 1)[0]
    assert -2.3 <= slope <= -1.7


def test_piecewise_tail_validation():
    with pytest.raises(InvalidInputError):
        w_cdf(-0.5)


def test_cdf_complements_tail():
    for t in (0.25, 1.5, 3.0):
        assert math.isclose(
            w_cdf(t) + w_tail_closed_form(t), W_TOTAL_MASS, rel_tol=1e-12
        )


def _nested_inner(name, t, b):
    """The region's inner integral at slice b, by quadrature of its integrand."""
    lo = 1.0 - b
    cap = 1.0 if t <= 0.0 else min(1.0, 1.0 / (b * t))
    a0, kink = lo, None
    if name == "o1":
        def f(al):
            return (1.0 / (b * al) - t) * (al * math.log(al / lo) - (al - lo))
    elif name in ("o2", "o4"):
        def f(al):
            return (1.0 / (b * al) - t) * (al - lo)
    elif name == "o3":
        def f(al):
            ahat = 1.0 if t <= 0.0 else min(1.0, 1.0 / (t * (b + al)))
            if ahat <= lo:
                return 0.0
            return (math.log(ahat / lo) - t * (b + al) * (ahat - lo)) / b
        a0 = 0.0
        cap = lo if t <= 0.0 else min(lo, 1.0 / (t * lo) - b)
        kink = None if t <= 0.0 else 1.0 / t - b
    elif name == "sl-lattice":
        ym = min(1.0, lo / b)

        def f(a):
            return 1.0 - (lo * ym - 0.5 * b * ym * ym) / a
    elif name == "sl-vector":
        def f(a):
            ystar = lo * a * t
            if ystar >= 1.0:
                return 0.5 * (1.0 - a * b * t) / (a * a * t)
            area = 0.5 * (1.0 - a * b * t) * lo * lo * t
            ym = min(1.0, lo / b)
            if ym > ystar:
                area += (lo * (ym - ystar) - 0.5 * b * (ym * ym - ystar * ystar)) / a
            return area
        kink = None if t <= 0.0 else 1.0 / (lo * t)
    else:
        denom = t * b * (1.0 - b)
        cap = 1.0 if denom <= 0.0 else min(1.0, 2.0 / denom)
        if name == "o2-upper":
            def f(a):
                return -math.log(a) / b
        else:
            def f(a):
                return (a - lo) / (a * b)
    if cap <= a0:
        return 0.0
    pts = [kink] if kink is not None and a0 < kink < cap else None
    return scipy.integrate.quad(f, a0, cap, points=pts, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def test_slices_match_quadrature_of_the_inner_integrands():
    slices = {
        "o1": closedform._o1_slice,
        "o2": closedform._o2_slice,
        "o3": closedform._o3_slice,
        "o4": closedform._o2_slice,
        "sl-lattice": closedform._sl_lattice_slice,
        "sl-vector": closedform._sl_vector_slice,
        "o2-upper": lambda t, b: closedform._o2_envelope_slice(t, b, 1.0 - b),
        "o4-upper": lambda t, b: closedform._o4_envelope_slice(t, b, 1.0 - b),
    }
    for t in (0.0, 0.5, 1.5, 3.0, 6.0, 16.0, 128.0):
        # dyadic ends keep 1 - b exact, so the nested integrands lose no digits
        bs = [2.0 ** -10, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0 - 2.0 ** -10]
        kinks = closedform._regime_points(t) + [b for b, _ in closedform._envelope_kinks(t)] + [0.5]
        if t > 0.0:
            kinks.append(1.0 - 1.0 / math.sqrt(t))
        bs += [p * (1.0 + s) for p in kinks for s in (-1e-9, 1e-9) if 0.0 < p * (1.0 + s) < 1.0]
        for b in bs:
            for name, fn in slices.items():
                want = _nested_inner(name, t, b)
                assert abs(fn(t, b) - want) <= 1e-13, (name, t, b)


@pytest.mark.parametrize(
    "entry, limit",
    [
        (closedform.w_tail_closed_form, 0.0),
        (closedform.w_tail_quadrature, 0.0),
        (closedform.tail_components, 0.0),
        (closedform.omega_tail_bounds, 0.0),
        (w_cdf, W_TOTAL_MASS),
        (lambda t: torsion_tail(2, t), 0.0),
    ],
    ids=["tail", "quadrature", "components", "bounds", "cdf", "torsion"],
)
def test_thresholds_reject_nan_and_keep_the_limit_at_inf(entry, limit):
    with pytest.raises(InvalidInputError):
        entry(math.nan)
    at_inf = entry(math.inf)
    values = list(at_inf.values()) if isinstance(at_inf, dict) else np.atleast_1d(at_inf)
    assert all(v == limit for v in values)


def test_bounds_at_the_envelope_double_root():
    # the cubic's two roots coincide at t = 27/2 and land a few ulps apart
    lower, upper = omega_tail_bounds(13.5)
    below, above = omega_tail_bounds(13.4999), omega_tail_bounds(13.5001)
    assert above[0] <= lower <= below[0]
    assert above[1] <= upper <= below[1]


def test_upper_envelope_grows_like_log_t_over_t():
    # the envelope mass near b = 1 lies within sqrt(2/t) of it, below what b
    # resolves from t ~ 1e26 on; t*upper stays affine in ln t regardless
    ts = np.geomspace(1e18, 1e300, 8)
    scaled = [omega_tail_bounds(t)[1] * t for t in ts]
    slopes = np.diff(scaled) / np.diff(np.log(ts))
    assert np.ptp(slopes) < 1e-3 * slopes.mean()


@pytest.mark.parametrize("t", [1e8, 1e10, 1e12, 1e14])
def test_lower_envelope_keeps_its_quadratic_decay(t):
    # the two lower-envelope integrals add to about 1/(3 t^2); their shared
    # weight b + (1-b)ln(1-b) must not cancel to rounding noise at small b
    o2_o4 = closedform._o2_lower(t) + closedform._o4_lower(t)
    assert abs(t * t * o2_o4 - 1.0 / 3.0) <= 1e-6
    assert omega_tail_bounds(t)[0] > 0.0
