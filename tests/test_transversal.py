"""Return times and return maps on the three Poincare sections."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from slitgaps import transversal
from slitgaps.errors import DegenerateInputError, InvalidInputError, NotOnTransversalError
from slitgaps.geometry import AffineLattice, Mat2, Vec2, horocycle_apply
from slitgaps.transversal import (
    HORIZONTAL_TOL,
    DeltaCoords,
    OmegaCoords,
    OmegaRegion,
    VLCoords,
    WPointSA,
    WPointSL,
    _point_fields,
    _section_point,
    bcz_return_map,
    bcz_return_time,
    classify_omega,
    delta_basis,
    flowed_section_coords,
    omega_region_vec,
    omega_return_time,
    omega_return_vec,
    omega_to_surface,
    recoordinatize_omega,
    rho_sl_to_sa,
    section_columns,
    section_returns,
    section_step,
    section_surfaces,
    sheared_delta_basis,
    vertical_basis,
    w_return_sa_vec,
    w_return_sl_vec,
    w_section_coords,
)


def p_ab(a, b):
    return Mat2(a, b, 0.0, 1.0 / a)


def random_omega(rng):
    a = rng.uniform(0.05, 1.0)
    b = rng.uniform(1.0 - a, 1.0)
    s = rng.uniform(0.0, 1.0 / (a * b))
    alpha = rng.uniform(0.01, 1.0)
    return OmegaCoords(a, b, s, alpha)


def test_bcz_return_time_square_lattice():
    assert bcz_return_time(DeltaCoords(1.0, 1.0)) == 1.0


def test_bcz_return_time_worked():
    assert math.isclose(bcz_return_time(DeltaCoords(0.5, 0.75)), 8.0 / 3.0, rel_tol=1e-15)


def test_bcz_return_time_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0.05, 1.0)
        b = rng.uniform(1.0 - a, 1.0)
        assert math.isclose(bcz_return_time(DeltaCoords(a, b)) * a * b, 1.0, rel_tol=1e-12)


def test_bcz_map_fixed_point():
    out = bcz_return_map(DeltaCoords(1.0, 1.0))
    assert (out.a, out.b) == (1.0, 1.0)


def test_bcz_map_worked():
    out = bcz_return_map(DeltaCoords(0.5, 0.75))
    assert math.isclose(out.a, 0.75, abs_tol=1e-12)
    assert math.isclose(out.b, 1.0, abs_tol=1e-12)


def test_bcz_orbit_stays_in_triangle():
    rng = np.random.default_rng(11)
    d = DeltaCoords(rng.uniform(0.3, 1.0), 1.0)
    for _ in range(10_000):
        d = bcz_return_map(d)
        assert 0.0 < d.a <= 1.0 and 1.0 - d.a < d.b <= 1.0 + 1e-12


def test_classify_worked_examples():
    assert classify_omega(OmegaCoords(0.5, 1.0, 0.2, 0.75)) is OmegaRegion.O1
    assert classify_omega(OmegaCoords(0.8, 0.5, 1.0, 0.3)) is OmegaRegion.O3
    assert classify_omega(OmegaCoords(0.5, 1.0, 0.0, 0.25)) is OmegaRegion.O4
    assert classify_omega(VLCoords(0.5, 0.2, 0.5)) is OmegaRegion.VL


def test_regions_tile_and_boundaries_are_thin():
    rng = np.random.default_rng(21)
    near_boundary = 0
    n = 20_000
    for _ in range(n):
        p = random_omega(rng)
        region = classify_omega(p)
        assert region in (OmegaRegion.O1, OmegaRegion.O2, OmegaRegion.O3, OmegaRegion.O4)
        margins = [abs(p.alpha - p.a), abs(p.b + p.alpha - 1.0)]
        if p.alpha > p.a:
            margins.append(abs(p.s - (p.alpha - p.a) / (p.a * p.b * p.alpha)))
        if min(margins) < 1e-9:
            near_boundary += 1
    assert near_boundary == 0


def test_omega_return_worked_examples():
    assert math.isclose(omega_return_time(OmegaCoords(0.5, 1.0, 0.2, 0.75)), 0.4, abs_tol=1e-12)
    assert math.isclose(omega_return_time(OmegaCoords(0.8, 0.5, 1.0, 0.3)), 0.9375, abs_tol=1e-12)
    assert math.isclose(omega_return_time(OmegaCoords(0.5, 0.6, 2.0, 0.9)), 1.8, abs_tol=1e-12)
    assert math.isclose(omega_return_time(VLCoords(0.5, 0.2, 0.5)), 1.0, abs_tol=1e-12)
    assert math.isclose(omega_return_time(OmegaCoords(1.0, 1.0, 0.0, 0.5)), 2.0, abs_tol=1e-12)


def test_w_return_time_degenerate_marking():
    with pytest.raises(DegenerateInputError):
        omega_return_time(WPointSL(0.5, 0.6, 0.0, 0.0))


def test_short_lattice_column_rows_and_degenerate_marking():
    # the first marking lands short (b + v1 <= 1), the second does not; a
    # short-landing row on the vertical axis fails the whole column
    out = w_return_sl_vec([0.5, 0.5], [0.6, 0.6], [0.3, 0.45], [0.1, 0.2])
    assert out.tolist() == [0.1 / 0.3, 1.0 / (0.5 * 0.6)]
    with pytest.raises(DegenerateInputError):
        w_return_sl_vec([0.5, 0.5], [0.6, 0.6], [0.3, 0.0], [0.1, 0.0])


def test_region_ties_logged_once_per_kind_at_debug(caplog):
    # a = alpha on both rows, b + alpha = 1 on the first
    cols = ([0.5, 0.5], [0.5 + 1e-13, 0.6], [0.1, 0.2], [0.5, 0.5])
    with caplog.at_level("INFO", logger="slitgaps.transversal"):
        omega_region_vec(*cols)
    assert caplog.records == []
    with caplog.at_level("DEBUG", logger="slitgaps.transversal"):
        assert omega_region_vec(*cols).tolist() == [3, 4]
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    assert messages[0].startswith("classify tie alpha=a on 2 row(s)")
    assert messages[1].startswith("classify tie b+alpha=1 on 1 row(s)")


def test_recoordinatize_round_trip():
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    surf = AffineLattice(g, Vec2(0.75, 0.0))
    p = recoordinatize_omega(surf)
    assert isinstance(p, OmegaCoords)
    assert math.isclose(p.a, 0.5, abs_tol=1e-9)
    assert math.isclose(p.b, 1.0, abs_tol=1e-9)
    assert math.isclose(p.s, 0.2, abs_tol=1e-9)
    assert math.isclose(p.alpha, 0.75, abs_tol=1e-9)


def test_recoordinatize_flowed_surface():
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    surf = AffineLattice(g, Vec2(0.75, 0.0))
    flowed = horocycle_apply(0.4, surf)
    p = recoordinatize_omega(flowed)
    assert isinstance(p, OmegaCoords)
    assert math.isclose(p.a, 0.5, abs_tol=1e-9)
    assert math.isclose(p.b, 1.0, abs_tol=1e-9)
    assert math.isclose(p.s, 0.6, abs_tol=1e-9)
    assert math.isclose(p.alpha, 0.25, abs_tol=1e-9)


def test_recoordinatize_vertical_lattice():
    g = horocycle_apply(0.1, Mat2(2.0, 0.0, 0.0, 0.5))
    surf = AffineLattice(g, Vec2(0.5, 0.0))
    p = recoordinatize_omega(surf)
    assert isinstance(p, VLCoords)
    assert math.isclose(p.a, 0.5, abs_tol=1e-9)
    assert math.isclose(p.s, 0.1, abs_tol=1e-9)
    assert math.isclose(p.alpha, 0.5, abs_tol=1e-9)


def test_flowed_section_coords_match_recoordinatizing_each_flow():
    # the surfaces of the three tests above, at times when their marking has
    # a horizontal representative, read off scans of the unflowed surface
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    surf = AffineLattice(g, Vec2(0.75, 0.0))
    vert = AffineLattice(horocycle_apply(0.1, Mat2(2.0, 0.0, 0.0, 0.5)), Vec2(0.5, 0.0))
    for start, times in ((surf, [0.0, 0.4]), (vert, [0.0, 1.0, 2.0])):
        cols = flowed_section_coords(start, times)
        points = [_section_point(*row) for row in zip(*(c.tolist() for c in cols))]
        assert len(points) == len(times)
        for t, p in zip(times, points):
            q = recoordinatize_omega(horocycle_apply(t, start))
            assert type(p) is type(q)
            assert np.allclose(astuple(p), astuple(q), rtol=0.0, atol=1e-12)
    with pytest.raises(InvalidInputError):
        flowed_section_coords(surf, [0.4, 0.0])
    with pytest.raises(NotOnTransversalError):
        flowed_section_coords(vert, [0.5])


def _flow_and_recoordinatize(p):
    """The affine return map by its definition: flow by the closed-form
    return, then recoordinatize."""
    return recoordinatize_omega(horocycle_apply(omega_return_time(p), omega_to_surface(p)))


def test_omega_return_map_fixed_point():
    out = _flow_and_recoordinatize(OmegaCoords(1.0, 1.0, 0.0, 0.5))
    assert isinstance(out, OmegaCoords)
    assert math.isclose(out.a, 1.0, abs_tol=1e-9)
    assert math.isclose(out.b, 1.0, abs_tol=1e-9)
    assert math.isclose(out.s, 0.0, abs_tol=1e-9)
    assert math.isclose(out.alpha, 0.5, abs_tol=1e-9)


def test_omega_return_map_worked():
    out = _flow_and_recoordinatize(OmegaCoords(0.5, 1.0, 0.2, 0.75))
    assert isinstance(out, OmegaCoords)
    assert math.isclose(out.a, 0.5, abs_tol=1e-9)
    assert math.isclose(out.b, 1.0, abs_tol=1e-9)
    assert math.isclose(out.s, 0.6, abs_tol=1e-9)
    assert math.isclose(out.alpha, 0.25, abs_tol=1e-9)


def test_section_step_lands_where_the_flow_lands():
    # the closed-form step's next row is the flowed surface recoordinatized:
    # same kind, every coordinate within 1e-9
    from slitgaps.measures import MeasureSpec, _draw_batch

    rng = np.random.default_rng(5)
    parts = [_draw_batch(MeasureSpec.parse(m), rng, n)[0]
             for m, n in (("haar-omega", 2000), ("periodic-omega:0.7,0.4", 100), ("periodic-omega:0.3,0.9", 100))]
    cols = transversal.SectionColumns(*map(np.concatenate, zip(*parts)))
    for row in zip(*(c.tolist() for c in cols)):
        u, nxt = section_step(*row)
        q = _flow_and_recoordinatize(_section_point(*row))
        assert u == omega_return_time(_section_point(*row))
        want = _point_fields(q)
        assert nxt[0] == want[0]
        np.testing.assert_allclose(nxt[1:], want[1:], rtol=0.0, atol=1e-9)


def test_omega_orbit_stays_valid():
    rng = np.random.default_rng(31)
    row = _point_fields(random_omega(rng))
    for _ in range(1000):
        u, nxt = section_step(*row)
        assert u == omega_return_time(_section_point(*row))
        row = nxt
        p = _section_point(*row)
        if isinstance(p, VLCoords):
            assert 0.0 < p.a <= 1.0 and 0.0 < p.s <= p.a * p.a and 0.0 < p.alpha <= 1.0
        else:
            assert 0.0 < p.a <= 1.0
            assert 1.0 - p.a < p.b <= 1.0 + 1e-12
            assert 0.0 <= p.s < 1.0 / (p.a * p.b) + 1e-9
            assert 0.0 < p.alpha <= 1.0


def test_round_trip_idempotence():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = random_omega(rng)
        q = recoordinatize_omega(omega_to_surface(p))
        assert isinstance(q, OmegaCoords)
        assert abs(q.a - p.a) < 1e-9
        assert abs(q.b - p.b) < 1e-9
        assert abs(q.s - p.s) < 1e-9
        assert abs(q.alpha - p.alpha) < 1e-9


def test_rho_short_slit():
    assert math.isclose(rho_sl_to_sa(0.6, 0.5, 0.5, 0.8), 1.6, abs_tol=1e-12)


def test_rho_flagged_discrepancy_value():
    # the travel-time formula's own value; the enumeration disagrees (5/9)
    assert math.isclose(rho_sl_to_sa(0.6, 0.5, 0.3, 0.5), 5.0 / 3.0, abs_tol=1e-12)


def test_rho_wrapped_branch():
    want = (0.5 + 5.0 / 3.0) / (0.3 + 0.9 - 0.6)
    assert math.isclose(rho_sl_to_sa(0.6, 0.9, 0.3, 0.5), want, abs_tol=1e-12)


def test_rho_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        rho_sl_to_sa(0.6, 0.5, 0.0, 0.5)


def test_w_return_time_sa_short_affine():
    assert math.isclose(omega_return_time(WPointSA(OmegaCoords(0.5, 1.0, 0.2, 0.75))), 0.4, abs_tol=1e-12)


def test_w_return_time_sa_shear_branch():
    assert math.isclose(
        omega_return_time(WPointSA(OmegaCoords(0.5, 0.6, 2.0, 0.9))), 4.0 / 3.0, abs_tol=1e-12
    )


def test_w_return_time_sl():
    assert math.isclose(omega_return_time(WPointSL(0.6, 0.5, 0.5, 0.8)), 1.6, abs_tol=1e-12)


def test_w_return_never_exceeds_its_own_minimum_structure():
    rng = np.random.default_rng(51)
    for _ in range(500):
        p = random_omega(rng)
        u = omega_return_time(WPointSA(p))
        assert u > 0.0
        bound = min(1.0 / (p.a * p.b) - p.s, omega_return_time(p))
        assert u <= bound + 1e-9


def test_w_return_map_square_start():
    # flowing SA(1,1,0,0.5) by its return lands on a short-slit state; the
    # flowed coset has no horizontal representative, so SL is the only
    # reconstruction consistent with the section's routing
    out = _section_point(*section_step(transversal.SA, 1.0, 1.0, 0.0, 0.5)[1])
    assert isinstance(out, WPointSL)
    assert math.isclose(out.a, 1.0, abs_tol=1e-9)
    assert math.isclose(out.b, 1.0, abs_tol=1e-9)
    assert math.isclose(out.v1, 0.5, abs_tol=1e-9)
    assert math.isclose(out.v2, 0.5, abs_tol=1e-9)


def test_w_return_map_worked():
    out = _section_point(*section_step(transversal.SA, 0.5, 1.0, 0.2, 0.75)[1])
    assert isinstance(out, WPointSA)
    q = out.coords
    assert math.isclose(q.a, 0.5, abs_tol=1e-9)
    assert math.isclose(q.b, 1.0, abs_tol=1e-9)
    assert math.isclose(q.s, 0.6, abs_tol=1e-9)
    assert math.isclose(q.alpha, 0.25, abs_tol=1e-9)


def test_w_orbit_stays_valid():
    rng = np.random.default_rng(61)
    row = _point_fields(WPointSA(random_omega(rng)))
    for _ in range(1000):
        row = section_step(*row)[1]
        assert isinstance(_section_point(*row), (WPointSL, WPointSA))


def _crossings_rolled(s, u):
    """(a, b, s) after the crossing loop of ``section_step`` from (a, b) =
    (1, 1), one ``bcz_return_map`` per crossing, as it ran before the fixed
    point was skipped in closed form."""
    a, b = 1.0, 1.0
    for _ in range(int(u) + 2):
        r = 1.0 / (a * b)
        if s < r - transversal.TIE_TOL * max(1.0, r):
            break
        s -= r
        d = bcz_return_map(DeltaCoords(a, b))
        a, b = d.a, d.b
    return a, b, max(s, 0.0)


@pytest.mark.parametrize("s", [0.0, 1e-15, 0.25, 0.5, 0.999999, 1.0 - 2e-12, 1.0 - 1e-12, 1.0 - 5e-13])
def test_fixed_point_step_skips_the_crossings_as_the_loop_did(s):
    # alpha = 1e-3 returns after about 1000 crossings of the lattice
    # section; from s = 1 - 5e-13 the return ends within TIE_TOL of one more
    alpha = 1e-3
    u, row = section_step(transversal.OMEGA, 1.0, 1.0, s, alpha)
    want_u, want_alpha = map(float, transversal._omega_returns(*transversal._columns(1.0, 1.0, s, alpha))[:2])
    assert u == want_u
    assert row == (transversal.OMEGA, *_crossings_rolled(s + u, u), want_alpha)


def test_section_step_raises_where_its_next_row_is_off_the_section(monkeypatch):
    # flowed by 0.123 instead of its return 0.4, the short-affine surface has
    # no short lattice vector and no horizontal marking
    monkeypatch.setattr(transversal, "section_returns", lambda cols: np.array([0.123]))
    with pytest.raises(NotOnTransversalError):
        section_step(transversal.SA, 0.5, 1.0, 0.2, 0.75)
    # an affine next row out of range raises what building its point raises
    monkeypatch.setattr(transversal, "_omega_returns", lambda *cols: (0.4, 1.5, False))
    with pytest.raises(InvalidInputError, match=r"^alpha out of range: 1\.5$"):
        section_step(transversal.OMEGA, 0.5, 1.0, 0.2, 0.75)


def test_invalid_coordinates_rejected():
    with pytest.raises(InvalidInputError):
        DeltaCoords(0.5, 0.4)
    with pytest.raises(InvalidInputError):
        OmegaCoords(0.5, 1.0, -0.1, 0.5)
    with pytest.raises(InvalidInputError):
        OmegaCoords(0.5, 1.0, 0.0, 1.5)
    with pytest.raises(InvalidInputError):
        VLCoords(0.5, 0.3, 0.5)


def test_recoordinatize_closed_box_boundaries():
    identity = Mat2(1.0, 0.0, 0.0, 1.0)
    # the horizontal window |y| <= HORIZONTAL_TOL is closed, also off y = 0
    p = recoordinatize_omega(AffineLattice(identity, Vec2(0.3, -HORIZONTAL_TOL)))
    assert isinstance(p, OmegaCoords) and p.alpha == 0.3
    with pytest.raises(NotOnTransversalError):
        recoordinatize_omega(AffineLattice(identity, Vec2(0.3, 2.0 * HORIZONTAL_TOL)))
    # a representative at x = 1 counts
    assert recoordinatize_omega(AffineLattice(identity, Vec2(1.0, 0.0))).alpha == 1.0
    # representatives at 0.3 and 0.8: the smallest x wins
    p = recoordinatize_omega(AffineLattice(p_ab(0.5, 1.0), Vec2(0.8, 0.0)))
    assert math.isclose(p.alpha, 0.3, abs_tol=1e-12)
    # lattice vector (HORIZONTAL_TOL, 0.5): vertical within tolerance and
    # shorter than 1, so the point routes to the vertical-lattice family
    g = Mat2(HORIZONTAL_TOL, -2.0, 0.5, 0.0)
    p = recoordinatize_omega(AffineLattice(g, Vec2(0.3, 0.0)))
    assert isinstance(p, VLCoords)
    assert p.a == 0.5 and p.alpha == 0.3


def _bezout_reference(p, q):
    """The scalar extended Euclid the array form replaced: (r, t) with
    p*t - q*r = 1."""
    old_r, r, old_s, s, old_t, t = abs(p), abs(q), 1, 0, 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    u = old_s if p >= 0 else -old_s
    w = old_t if q >= 0 else -old_t
    return -w, u


def test_array_bezout_matches_the_scalar_recurrence():
    rng = np.random.default_rng(29)
    p, q = rng.integers(-10**6, 10**6, (2, 4000))
    keep = np.gcd(p, q) == 1
    edge = [(1, 0), (0, -1), (-3, 5), (-1, 0), (0, 1), (1, 1), (-1, -1), (7, -1), (1, 10**12)]
    p = np.r_[p[keep], [e[0] for e in edge]]
    q = np.r_[q[keep], [e[1] for e in edge]]
    r, t = transversal._bezout_vec(p, q)
    assert [(int(x), int(y)) for x, y in zip(r, t)] == [
        _bezout_reference(int(x), int(y)) for x, y in zip(p, q)
    ]
    assert np.all(p * t - q * r == 1)
    # a scalar pair is a size-1 call
    assert [int(c[0]) for c in transversal._bezout_vec(-3, 5)] == list(_bezout_reference(-3, 5))


@pytest.mark.parametrize("p, q", [(2, 4), (0, 0), (6, -9), (0, 2)])
def test_array_bezout_rejects_non_primitive_pairs(p, q):
    with pytest.raises(DegenerateInputError, match=rf"\({p}, {q}\) is not primitive"):
        transversal._bezout_vec(np.array([1, p, 3]), np.array([0, q, 4]))


def test_flowed_section_coords_raise_the_first_failing_rows_error(monkeypatch):
    # the range checks run on whole columns, and the first failing row raises
    # what building its point raises: alpha out of range at row 2 wins over a
    # missing representative at row 3, and loses to one at row 1
    surf = AffineLattice(horocycle_apply(0.2, p_ab(0.5, 1.0)), Vec2(0.75, 0.0))
    times = [0.0, 0.1, 0.2, 0.3]

    def patched(*rows):
        def alpha(x, y, t):
            out = np.full(len(t), 0.75)
            for k, value in rows:
                out[k] = value
            return out
        return alpha

    monkeypatch.setattr(transversal, "_flowed_alpha", patched((2, 1.5), (3, math.inf)))
    with pytest.raises(InvalidInputError, match=r"^alpha out of range: 1\.5$"):
        flowed_section_coords(surf, times)
    monkeypatch.setattr(transversal, "_flowed_alpha", patched((2, 1.5), (1, math.inf)))
    with pytest.raises(NotOnTransversalError):
        flowed_section_coords(surf, times)
    monkeypatch.setattr(transversal, "_flowed_alpha", patched())
    assert list(flowed_section_coords(surf, times).alpha) == [0.75] * 4


def test_short_lattice_points_need_no_coset_scan(monkeypatch):
    # sl rows take their marking from the lattice cell, never from alpha, so
    # recoordinatizing a short-lattice surface makes no pass over its
    # cosets; an sa point makes one pass, holding the lattice and both cosets
    passes = []
    real = transversal._box_rows

    def counted(g, box, jobs, *args, **kwargs):
        passes.append(len(jobs[0]))
        return real(g, box, jobs, *args, **kwargs)

    monkeypatch.setattr(transversal, "_box_rows", counted)
    w = WPointSL(0.6, 0.5, 0.3, 0.5)
    p = w_section_coords(omega_to_surface(w))
    assert isinstance(p, WPointSL) and np.allclose(astuple(p), astuple(w))
    assert passes == []
    w_section_coords(omega_to_surface(WPointSA(OmegaCoords(0.5, 0.6, 2.0, 0.9))))
    assert passes == [3]


# one point of every kind, runs of equal kind of length 1 and 2
MIXED_POINTS = [
    OmegaCoords(0.5, 0.6, 2.0, 0.9),
    WPointSL(0.6, 0.5, 0.3, 0.5),
    VLCoords(0.7, 0.2, 0.4),
    WPointSA(VLCoords(0.7, 0.2, 0.4)),
    WPointSA(OmegaCoords(0.8, 0.5, 1.0, 0.3)),
    WPointSL(0.6, 0.5, 0.5, 0.8),
    WPointSL(0.6, 0.9, 0.3, 0.5),
    OmegaCoords(0.5, 1.0, 0.2, 0.75),
]


def _kind_surface(p):
    """(g, v) of one point, from its kind's generator."""
    if isinstance(p, WPointSL):
        return delta_basis(p.a, p.b), Vec2(p.v1, p.v2)
    q = p.coords if isinstance(p, WPointSA) else p
    if isinstance(q, VLCoords):
        return vertical_basis(q.a, q.s), Vec2(q.alpha, 0.0)
    return sheared_delta_basis(q.a, q.b, q.s), Vec2(q.alpha, 0.0)


def _kind_return(p):
    """Closed-form return of one point, from its kind's formula."""
    if isinstance(p, WPointSL):
        return float(w_return_sl_vec(p.a, p.b, p.v1, p.v2))
    q = p.coords if isinstance(p, WPointSA) else p
    if isinstance(q, VLCoords):
        return q.a / q.alpha
    formula = w_return_sa_vec if isinstance(p, WPointSA) else omega_return_vec
    return float(formula(q.a, q.b, q.s, q.alpha))


def test_section_columns_evaluate_each_row_by_its_kind():
    cols = section_columns(MIXED_POINTS)
    want = [_kind_return(p) for p in MIXED_POINTS]
    assert section_returns(cols).tolist() == want
    assert [omega_return_time(p) for p in MIXED_POINTS] == want
    g, v = section_surfaces(cols)
    fields = np.broadcast_arrays(*g, *v)
    for i, p in enumerate(MIXED_POINTS):
        kg, kv = _kind_surface(p)
        assert [float(f[i]) for f in fields] == [*kg, *kv]
        surface = omega_to_surface(p)
        assert (*surface.g, *surface.v) == (*kg, *kv)
    # with no sl row the marking's y stays one shared 0.0
    assert section_surfaces(section_columns(MIXED_POINTS[2:5]))[1].y == 0.0
    assert section_returns(section_columns([])).shape == (0,)


def _three_basis_surfaces(cols):
    """``section_surfaces`` as all three bases built over every row and
    picked per row."""
    kind, a, b, s, alpha = cols
    sl, vertical = kind == transversal.SL, np.isnan(b)
    bases = zip(vertical_basis(a, s), delta_basis(a, b), sheared_delta_basis(a, b, s))
    g = Mat2(*(np.where(vertical, fv, np.where(sl, fd, fs)) for fv, fd, fs in bases))
    return g, Vec2(np.where(sl, s, alpha), np.where(sl, alpha, 0.0) if sl.any() else 0.0)


def test_section_surfaces_equal_the_three_basis_form():
    # each basis is built on its own rows only: the fields are bit for bit
    # those of all three bases picked per row, on mixed and one-kind columns
    from slitgaps.measures import MeasureSpec, _draw_batch

    rng = np.random.default_rng(29)
    w, omega, vertical = (_draw_batch(MeasureSpec.parse(m), rng, 3000)[0]
                          for m in ("haar-w", "haar-omega", "periodic-omega:0.7,0.4"))
    # a third of the sa rows become vertical-lattice sa rows (b nan)
    w.b[(w.kind == transversal.SA) & (np.arange(len(w.b)) % 3 == 0)] = np.nan
    mixed = transversal.SectionColumns(*map(np.concatenate, zip(w, omega, vertical, section_columns(MIXED_POINTS))))
    order = rng.permutation(len(mixed.kind))

    def rows(cols, keep):
        return transversal.SectionColumns(*(c[keep] for c in cols))

    cases = [mixed, rows(mixed, order), w, omega, vertical, rows(w, w.kind == transversal.SL),
             rows(w, w.kind == transversal.SA), section_columns([])]
    for cols in cases:
        (g, v), (want_g, want_v) = section_surfaces(cols), _three_basis_surfaces(cols)
        for got, want in zip((*g, *v), (*want_g, *want_v)):
            assert np.broadcast_to(got, np.shape(want)).tobytes() == np.asarray(want).tobytes()
        # with no sl row the marking's y stays one shared 0.0
        assert (type(v.y) is float) == (not (cols.kind == transversal.SL).any())


def test_section_returns_of_long_runs_match_one_call_per_run(monkeypatch):
    # runs longer than RETURN_ROWS are evaluated in pieces, into one array:
    # every return equals that of one vectorized call over its whole run
    from slitgaps.measures import MeasureSpec, _draw_batch

    monkeypatch.setattr(transversal, "RETURN_ROWS", 1000)
    rng = np.random.default_rng(17)
    parts = [_draw_batch(MeasureSpec.parse(m), rng, 4000)[0]
             for m in ("haar-w", "haar-omega", "periodic-omega:0.7,0.4")]
    cols = transversal.SectionColumns(*map(np.concatenate, zip(*parts)))
    sl, sa = (parts[0].kind == k for k in (transversal.SL, transversal.SA))
    w, omega, vertical = parts
    want = np.concatenate([
        w_return_sl_vec(*(c[sl] for c in w[1:])), w_return_sa_vec(*(c[sa] for c in w[1:])),
        omega_return_vec(*omega[1:]), vertical.a / vertical.alpha,
    ])
    runs = transversal._kind_runs(cols.kind)
    assert len(runs) > 12 and all(0 < r.stop - r.start <= 1000 for _, r in runs)
    assert np.array_equal(section_returns(cols), want)
    # the O3 mask read off the same classification, piece by piece
    o3 = np.zeros(len(cols.kind), dtype=bool)
    assert np.array_equal(section_returns(cols, o3), want)
    want_o3 = (cols.kind == transversal.OMEGA) & (omega_region_vec(*cols[1:]) == 3)
    assert np.array_equal(o3, want_o3) and 0 < o3.sum() < len(omega.kind)
