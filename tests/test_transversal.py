"""Return times and return maps on the three Poincare sections."""

import math
from dataclasses import astuple

import numpy as np
import pytest

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
    advance_omega,
    bcz_return_map,
    bcz_return_time,
    classify_omega,
    flowed_section_coords,
    omega_return_map,
    omega_return_time,
    omega_to_surface,
    recoordinatize_omega,
    rho_sl_to_sa,
    w_return_map,
    w_return_time,
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
        w_return_time(WPointSL(0.5, 0.6, 0.0, 0.0))


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
        points = flowed_section_coords(start, times)
        assert len(points) == len(times)
        for t, p in zip(times, points):
            q = recoordinatize_omega(horocycle_apply(t, start))
            assert type(p) is type(q)
            assert np.allclose(astuple(p), astuple(q), rtol=0.0, atol=1e-12)
    with pytest.raises(InvalidInputError):
        flowed_section_coords(surf, [0.4, 0.0])
    with pytest.raises(NotOnTransversalError):
        flowed_section_coords(vert, [0.5])


def test_omega_return_map_fixed_point():
    out = omega_return_map(OmegaCoords(1.0, 1.0, 0.0, 0.5))
    assert isinstance(out, OmegaCoords)
    assert math.isclose(out.a, 1.0, abs_tol=1e-9)
    assert math.isclose(out.b, 1.0, abs_tol=1e-9)
    assert math.isclose(out.s, 0.0, abs_tol=1e-9)
    assert math.isclose(out.alpha, 0.5, abs_tol=1e-9)


def test_omega_return_map_worked():
    out = omega_return_map(OmegaCoords(0.5, 1.0, 0.2, 0.75))
    assert isinstance(out, OmegaCoords)
    assert math.isclose(out.a, 0.5, abs_tol=1e-9)
    assert math.isclose(out.b, 1.0, abs_tol=1e-9)
    assert math.isclose(out.s, 0.6, abs_tol=1e-9)
    assert math.isclose(out.alpha, 0.25, abs_tol=1e-9)


def test_omega_orbit_stays_valid():
    rng = np.random.default_rng(31)
    p = random_omega(rng)
    for _ in range(1000):
        p = advance_omega(p)
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
    assert math.isclose(w_return_time(WPointSA(OmegaCoords(0.5, 1.0, 0.2, 0.75))), 0.4, abs_tol=1e-12)


def test_w_return_time_sa_shear_branch():
    assert math.isclose(
        w_return_time(WPointSA(OmegaCoords(0.5, 0.6, 2.0, 0.9))), 4.0 / 3.0, abs_tol=1e-12
    )


def test_w_return_time_sl():
    assert math.isclose(w_return_time(WPointSL(0.6, 0.5, 0.5, 0.8)), 1.6, abs_tol=1e-12)


def test_w_return_never_exceeds_its_own_minimum_structure():
    rng = np.random.default_rng(51)
    for _ in range(500):
        p = random_omega(rng)
        u = w_return_time(WPointSA(p))
        assert u > 0.0
        bound = min(1.0 / (p.a * p.b) - p.s, omega_return_time(p))
        assert u <= bound + 1e-9


def test_w_return_map_square_start():
    # flowing SA(1,1,0,0.5) by its return lands on a short-slit state; the
    # flowed coset has no horizontal representative, so SL is the only
    # reconstruction consistent with the section's routing
    out = w_return_map(WPointSA(OmegaCoords(1.0, 1.0, 0.0, 0.5)))
    assert isinstance(out, WPointSL)
    assert math.isclose(out.a, 1.0, abs_tol=1e-9)
    assert math.isclose(out.b, 1.0, abs_tol=1e-9)
    assert math.isclose(out.v1, 0.5, abs_tol=1e-9)
    assert math.isclose(out.v2, 0.5, abs_tol=1e-9)


def test_w_return_map_worked():
    out = w_return_map(WPointSA(OmegaCoords(0.5, 1.0, 0.2, 0.75)))
    assert isinstance(out, WPointSA)
    q = out.coords
    assert math.isclose(q.a, 0.5, abs_tol=1e-9)
    assert math.isclose(q.b, 1.0, abs_tol=1e-9)
    assert math.isclose(q.s, 0.6, abs_tol=1e-9)
    assert math.isclose(q.alpha, 0.25, abs_tol=1e-9)


def test_w_orbit_stays_valid():
    rng = np.random.default_rng(61)
    w = WPointSA(random_omega(rng))
    for _ in range(1000):
        w = w_return_map(w, doubled=False)
        assert isinstance(w, (WPointSL, WPointSA))


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
