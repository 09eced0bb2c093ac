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
    OmegaCoords,
    OmegaRegion,
    OMEGA,
    SA,
    SL,
    VERTICAL,
    _first_surface,
    bcz_return_map,
    check_rows,
    classify_omega,
    delta_basis,
    flowed_section_coords,
    omega_region_vec,
    omega_return_vec,
    omega_to_surface,
    rho_sl_to_sa,
    row_columns,
    section_returns,
    section_step,
    section_surfaces,
    sheared_delta_basis,
    vertical_basis,
    w_return_sa_vec,
    w_return_sl_vec,
)


def p_ab(a, b):
    return Mat2(a, b, 0.0, 1.0 / a)


def random_omega(rng):
    a = rng.uniform(0.05, 1.0)
    b = rng.uniform(1.0 - a, 1.0)
    s = rng.uniform(0.0, 1.0 / (a * b))
    alpha = rng.uniform(0.01, 1.0)
    return OmegaCoords(a, b, s, alpha)


def test_bcz_map_fixed_point():
    a, b = bcz_return_map(1.0, 1.0)
    assert (a, b) == (1.0, 1.0)


def test_bcz_map_worked():
    a, b = bcz_return_map(0.5, 0.75)
    assert math.isclose(a, 0.75, abs_tol=1e-12)
    assert math.isclose(b, 1.0, abs_tol=1e-12)


def test_bcz_orbit_stays_in_triangle():
    rng = np.random.default_rng(11)
    a, b = rng.uniform(0.3, 1.0), 1.0
    for _ in range(10_000):
        a, b = bcz_return_map(a, b)
        assert 0.0 < a <= 1.0 and 1.0 - a < b <= 1.0 + 1e-12


def test_classify_worked_examples():
    assert classify_omega(OmegaCoords(0.5, 1.0, 0.2, 0.75)) is OmegaRegion.O1
    assert classify_omega(OmegaCoords(0.8, 0.5, 1.0, 0.3)) is OmegaRegion.O3
    assert classify_omega(OmegaCoords(0.5, 1.0, 0.0, 0.25)) is OmegaRegion.O4


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
    rows = [
        (OMEGA, 0.5, 1.0, 0.2, 0.75), (OMEGA, 0.8, 0.5, 1.0, 0.3), (OMEGA, 0.5, 0.6, 2.0, 0.9),
        (VERTICAL, 0.5, math.nan, 0.2, 0.5), (OMEGA, 1.0, 1.0, 0.0, 0.5),
    ]
    assert np.allclose(section_returns(row_columns(rows)), [0.4, 0.9375, 1.8, 1.0, 2.0], rtol=0.0, atol=1e-12)


def test_w_return_time_degenerate_marking():
    with pytest.raises(DegenerateInputError):
        section_returns(row_columns([(SL, 0.5, 0.6, 0.0, 0.0)]))


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


def _assert_row(cols, kind, *coords):
    """``cols`` hold one row, of this kind and these coordinates within 1e-9."""
    assert cols.kind.tolist() == [kind]
    np.testing.assert_allclose(np.ravel(cols[1:]), coords, rtol=0.0, atol=1e-9)


def test_recoordinatize_round_trip():
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    _assert_row(flowed_section_coords(AffineLattice(g, Vec2(0.75, 0.0)), (0.0,)), OMEGA, 0.5, 1.0, 0.2, 0.75)


def test_recoordinatize_flowed_surface():
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    flowed = horocycle_apply(0.4, AffineLattice(g, Vec2(0.75, 0.0)))
    _assert_row(flowed_section_coords(flowed, (0.0,)), OMEGA, 0.5, 1.0, 0.6, 0.25)


def test_recoordinatize_vertical_lattice():
    g = horocycle_apply(0.1, Mat2(2.0, 0.0, 0.0, 0.5))
    _assert_row(flowed_section_coords(AffineLattice(g, Vec2(0.5, 0.0)), (0.0,)), VERTICAL, 0.5, math.nan, 0.1, 0.5)


def test_flowed_section_coords_match_recoordinatizing_each_flow():
    # the surfaces of the three tests above, at times when their marking has
    # a horizontal representative, read off scans of the unflowed surface
    g = horocycle_apply(0.2, p_ab(0.5, 1.0))
    surf = AffineLattice(g, Vec2(0.75, 0.0))
    vert = AffineLattice(horocycle_apply(0.1, Mat2(2.0, 0.0, 0.0, 0.5)), Vec2(0.5, 0.0))
    for start, times in ((surf, [0.0, 0.4]), (vert, [0.0, 1.0, 2.0])):
        cols = flowed_section_coords(start, times)
        assert len(cols.kind) == len(times)
        for i, t in enumerate(times):
            want = flowed_section_coords(horocycle_apply(t, start), (0.0,))
            assert cols.kind[i] == want.kind[0]
            np.testing.assert_allclose([c[i] for c in cols[1:]], np.ravel(want[1:]), rtol=0.0, atol=1e-12)
    with pytest.raises(InvalidInputError):
        flowed_section_coords(surf, [0.4, 0.0])
    with pytest.raises(NotOnTransversalError):
        flowed_section_coords(vert, [0.5])


def _flow_and_recoordinatize(row):
    """The affine return map by its definition: flow by the closed-form
    return, then recoordinatize."""
    u = section_returns(row_columns([row]))[0]
    return flowed_section_coords(horocycle_apply(u, _first_surface(row_columns([row]))), (0.0,))


def test_omega_return_map_fixed_point():
    _assert_row(_flow_and_recoordinatize((OMEGA, 1.0, 1.0, 0.0, 0.5)), OMEGA, 1.0, 1.0, 0.0, 0.5)


def test_omega_return_map_worked():
    _assert_row(_flow_and_recoordinatize((OMEGA, 0.5, 1.0, 0.2, 0.75)), OMEGA, 0.5, 1.0, 0.6, 0.25)


def test_section_step_lands_where_the_flow_lands():
    # the closed-form step's next row is the flowed surface recoordinatized:
    # same kind, every coordinate within 1e-9
    from slitgaps.measures import MeasureSpec, _draw_batch

    rng = np.random.default_rng(5)
    parts = [_draw_batch(MeasureSpec.parse(m), rng, n)[0]
             for m, n in (("haar-omega", 2000), ("periodic-omega:0.7,0.4", 100), ("periodic-omega:0.3,0.9", 100))]
    cols = transversal.SectionColumns(*map(np.concatenate, zip(*parts)))
    returns = []
    for row in zip(*(c.tolist() for c in cols)):
        u, nxt = section_step(*row)
        returns.append(u)
        _assert_row(_flow_and_recoordinatize(row), *nxt)
    assert returns == section_returns(cols).tolist()


def test_omega_orbit_stays_valid():
    rng = np.random.default_rng(31)
    row = (OMEGA, *astuple(random_omega(rng)))
    rows, returns = [], []
    for _ in range(1000):
        rows.append(row)
        u, row = section_step(*row)
        returns.append(u)
        check_rows(row_columns([row]))
        _, a, b, s, alpha = row
        if math.isnan(b):
            assert 0.0 < a <= 1.0 and 0.0 < s <= a * a and 0.0 < alpha <= 1.0
        else:
            assert 0.0 < a <= 1.0
            assert 1.0 - a < b <= 1.0 + 1e-12
            assert 0.0 <= s < 1.0 / (a * b) + 1e-9
            assert 0.0 < alpha <= 1.0
    assert returns == section_returns(row_columns(rows)).tolist()


def test_round_trip_idempotence():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = random_omega(rng)
        _assert_row(flowed_section_coords(omega_to_surface(p), (0.0,)), OMEGA, p.a, p.b, p.s, p.alpha)


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
    u = section_returns(row_columns([(SA, 0.5, 1.0, 0.2, 0.75)]))
    assert math.isclose(u[0], 0.4, abs_tol=1e-12)


def test_w_return_time_sa_shear_branch():
    u = section_returns(row_columns([(SA, 0.5, 0.6, 2.0, 0.9)]))
    assert math.isclose(u[0], 4.0 / 3.0, abs_tol=1e-12)


def test_w_return_time_sl():
    u = section_returns(row_columns([(SL, 0.6, 0.5, 0.5, 0.8)]))
    assert math.isclose(u[0], 1.6, abs_tol=1e-12)


def test_w_return_never_exceeds_its_own_minimum_structure():
    rng = np.random.default_rng(51)
    a, b, s, alpha = np.array([astuple(random_omega(rng)) for _ in range(500)]).T
    u = w_return_sa_vec(a, b, s, alpha)
    assert (u > 0.0).all()
    assert (u <= np.minimum(1.0 / (a * b) - s, omega_return_vec(a, b, s, alpha)) + 1e-9).all()


def test_w_return_map_square_start():
    # flowing SA(1,1,0,0.5) by its return lands on a short-slit state; the
    # flowed coset has no horizontal representative, so SL is the only
    # reconstruction consistent with the section's routing
    out = section_step(transversal.SA, 1.0, 1.0, 0.0, 0.5)[1]
    check_rows(row_columns([out]))
    kind, a, b, v1, v2 = out
    assert kind == SL
    assert math.isclose(a, 1.0, abs_tol=1e-9)
    assert math.isclose(b, 1.0, abs_tol=1e-9)
    assert math.isclose(v1, 0.5, abs_tol=1e-9)
    assert math.isclose(v2, 0.5, abs_tol=1e-9)


def test_w_return_map_worked():
    out = section_step(transversal.SA, 0.5, 1.0, 0.2, 0.75)[1]
    check_rows(row_columns([out]))
    kind, a, b, s, alpha = out
    assert kind == SA
    assert math.isclose(a, 0.5, abs_tol=1e-9)
    assert math.isclose(b, 1.0, abs_tol=1e-9)
    assert math.isclose(s, 0.6, abs_tol=1e-9)
    assert math.isclose(alpha, 0.25, abs_tol=1e-9)


def test_w_orbit_stays_valid():
    rng = np.random.default_rng(61)
    row = (SA, *astuple(random_omega(rng)))
    for _ in range(1000):
        row = section_step(*row)[1]
        check_rows(row_columns([row]))
        assert row[0] in (SL, SA)


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
        a, b = bcz_return_map(a, b)
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
        bcz_return_map(0.5, 0.4)
    with pytest.raises(InvalidInputError):
        OmegaCoords(0.5, 1.0, -0.1, 0.5)
    with pytest.raises(InvalidInputError):
        OmegaCoords(0.5, 1.0, 0.0, 1.5)
    with pytest.raises(InvalidInputError):
        check_rows(row_columns([(VERTICAL, 0.5, math.nan, 0.3, 0.5)]))


NAN = math.nan

# rows and the error that the range checks raise for them, the first
# failing row's first failing check, in the order a, b, s or the marking,
# alpha; the texts are those that the point classes before ``check_rows``
# raised for the same points
RANGE_CASES = [
    ([(OMEGA, 0.0, 0.6, 2.0, 0.9)], "a out of range: 0.0"),
    ([(OMEGA, NAN, 0.6, 2.0, 0.9)], "a out of range: nan"),
    ([(OMEGA, 1.5, 0.6, 2.0, 0.9)], "a out of range: 1.5"),
    ([(OMEGA, 0.5, 0.4, 2.0, 0.9)], "b out of range: 0.4 for a=0.5"),
    ([(OMEGA, 0.5, 1.2, 2.0, 0.9)], "b out of range: 1.2 for a=0.5"),
    ([(OMEGA, 0.5, NAN, 2.0, 0.9)], "b out of range: nan for a=0.5"),
    ([(OMEGA, 0.5, 0.6, -0.1, 0.9)], "s out of range: -0.1"),
    ([(OMEGA, 0.5, 0.6, 4.0, 0.9)], "s out of range: 4.0"),
    ([(OMEGA, 0.5, 0.6, NAN, 0.9)], "s out of range: nan"),
    ([(OMEGA, 0.5, 0.6, 2.0, 0.0)], "alpha out of range: 0.0"),
    ([(OMEGA, 0.5, 0.6, 2.0, 1.5)], "alpha out of range: 1.5"),
    ([(OMEGA, 0.5, 0.6, 2.0, NAN)], "alpha out of range: nan"),
    ([(OMEGA, 2.0, 2.0, -1.0, 7.0)], "a out of range: 2.0"),
    ([(OMEGA, 0.5, 0.4, -1.0, 7.0)], "b out of range: 0.4 for a=0.5"),
    ([(OMEGA, 0.5, 0.6, -1.0, 7.0)], "s out of range: -1.0"),
    ([(VERTICAL, 0.0, NAN, 0.2, 0.4)], "a out of range: 0.0"),
    ([(VERTICAL, 1.5, NAN, 0.2, 0.4)], "a out of range: 1.5"),
    ([(VERTICAL, 0.7, NAN, -0.1, 0.4)], "s out of range: -0.1 for a=0.7"),
    ([(VERTICAL, 0.7, NAN, 0.5, 0.4)], "s out of range: 0.5 for a=0.7"),
    ([(VERTICAL, 0.7, NAN, NAN, 0.4)], "s out of range: nan for a=0.7"),
    ([(VERTICAL, 0.7, NAN, 0.2, 0.0)], "alpha out of range: 0.0"),
    ([(VERTICAL, 0.7, NAN, 0.2, 1.5)], "alpha out of range: 1.5"),
    ([(VERTICAL, 0.7, NAN, 0.5, 7.0)], "s out of range: 0.5 for a=0.7"),
    ([(SL, 0.0, 0.5, 0.3, 0.5)], "a out of range: 0.0"),
    ([(SL, 1.5, 0.5, 0.3, 0.5)], "a out of range: 1.5"),
    ([(SL, 0.6, 0.3, 0.3, 0.5)], "b out of range: 0.3 for a=0.6"),
    ([(SL, 0.6, 1.5, 0.3, 0.5)], "b out of range: 1.5 for a=0.6"),
    ([(SL, 0.6, NAN, 0.3, 0.5)], "b out of range: nan for a=0.6"),
    ([(SL, 0.6, 0.5, 1.5, 0.5)], "marking outside the fundamental parallelogram"),
    ([(SL, 0.6, 0.5, 0.3, -0.1)], "marking outside the fundamental parallelogram"),
    ([(SL, 0.6, 0.5, 0.3, 2.0)], "marking outside the fundamental parallelogram"),
    ([(SL, 0.6, 0.5, NAN, 0.5)], "marking outside the fundamental parallelogram"),
    ([(SL, 0.6, 0.3, 9.0, 9.0)], "b out of range: 0.3 for a=0.6"),
    ([(SA, 0.0, 0.6, 2.0, 0.9)], "a out of range: 0.0"),
    ([(SA, 0.5, 0.4, 2.0, 0.9)], "b out of range: 0.4 for a=0.5"),
    ([(SA, 0.5, 0.6, 4.0, 0.9)], "s out of range: 4.0"),
    ([(SA, 0.5, 0.6, 2.0, 1.5)], "alpha out of range: 1.5"),
    ([(SA, 1.5, NAN, 0.2, 0.4)], "a out of range: 1.5"),
    ([(SA, 0.7, NAN, 0.5, 0.4)], "s out of range: 0.5 for a=0.7"),
    ([(SA, 0.7, NAN, 0.2, 1.5)], "alpha out of range: 1.5"),
    # the first failing row wins, whatever the rows after it fail on
    ([(OMEGA, 0.5, 0.6, 2.0, 0.9), (OMEGA, 0.5, 0.6, 2.0, 1.5), (OMEGA, 2.0, 0.6, 2.0, 0.9)],
     "alpha out of range: 1.5"),
    ([(SL, 0.6, 0.5, 0.3, 0.5), (SL, 0.6, 0.5, 1.5, 0.5), (VERTICAL, 1.5, NAN, 0.2, 0.4)],
     "marking outside the fundamental parallelogram"),
    ([(VERTICAL, 0.7, NAN, 0.2, 0.4), (SA, 0.5, 0.6, 2.0, 0.9), (SL, 0.6, NAN, 0.3, 0.5), (OMEGA, 0.0, 0.6, 2.0, 0.9)],
     "b out of range: nan for a=0.6"),
    ([(OMEGA, 0.5, 0.6, 2.0, 0.9), (VERTICAL, 0.7, NAN, 0.2, 0.4), (SL, 0.6, 0.5, 0.3, 0.5),
      (SA, 0.8, 0.5, 1.0, 0.3), (SA, 0.7, NAN, 0.49, 1.0)], None),
]


@pytest.mark.parametrize("rows, message", RANGE_CASES)
def test_check_rows_raises_the_first_failing_rows_first_error(rows, message):
    if message is None:
        assert check_rows(row_columns(rows)) is None
        return
    with pytest.raises(InvalidInputError) as info:
        check_rows(row_columns(rows))
    assert str(info.value) == message


def test_recoordinatize_closed_box_boundaries():
    identity = Mat2(1.0, 0.0, 0.0, 1.0)
    # the horizontal window |y| <= HORIZONTAL_TOL is closed, also off y = 0
    cols = flowed_section_coords(AffineLattice(identity, Vec2(0.3, -HORIZONTAL_TOL)), (0.0,))
    assert cols.kind[0] == OMEGA and cols.alpha[0] == 0.3
    with pytest.raises(NotOnTransversalError):
        flowed_section_coords(AffineLattice(identity, Vec2(0.3, 2.0 * HORIZONTAL_TOL)), (0.0,))
    # a representative at x = 1 counts
    assert flowed_section_coords(AffineLattice(identity, Vec2(1.0, 0.0)), (0.0,)).alpha[0] == 1.0
    # representatives at 0.3 and 0.8: the smallest x wins
    cols = flowed_section_coords(AffineLattice(p_ab(0.5, 1.0), Vec2(0.8, 0.0)), (0.0,))
    assert math.isclose(cols.alpha[0], 0.3, abs_tol=1e-12)
    # lattice vector (HORIZONTAL_TOL, 0.5): vertical within tolerance and
    # shorter than 1, so the point routes to the vertical-lattice family
    g = Mat2(HORIZONTAL_TOL, -2.0, 0.5, 0.0)
    cols = flowed_section_coords(AffineLattice(g, Vec2(0.3, 0.0)), (0.0,))
    assert cols.kind[0] == VERTICAL and cols.a[0] == 0.5 and cols.alpha[0] == 0.3


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
    w = (SL, 0.6, 0.5, 0.3, 0.5)
    _assert_row(flowed_section_coords(_first_surface(row_columns([w])), (0.0,), slit=True), *w)
    assert passes == []
    flowed_section_coords(_first_surface(row_columns([(SA, 0.5, 0.6, 2.0, 0.9)])), (0.0,), slit=True)
    assert passes == [3]


# one point of every kind, runs of equal kind of length 1 and 2
MIXED_ROWS = [
    (OMEGA, 0.5, 0.6, 2.0, 0.9),
    (SL, 0.6, 0.5, 0.3, 0.5),
    (VERTICAL, 0.7, math.nan, 0.2, 0.4),
    (SA, 0.7, math.nan, 0.2, 0.4),
    (SA, 0.8, 0.5, 1.0, 0.3),
    (SL, 0.6, 0.5, 0.5, 0.8),
    (SL, 0.6, 0.9, 0.3, 0.5),
    (OMEGA, 0.5, 1.0, 0.2, 0.75),
]


def _kind_surface(row):
    """(g, v) of one row, from its kind's generator."""
    kind, a, b, s, alpha = row
    if kind == SL:
        return delta_basis(a, b), Vec2(s, alpha)
    if math.isnan(b):
        return vertical_basis(a, s), Vec2(alpha, 0.0)
    return sheared_delta_basis(a, b, s), Vec2(alpha, 0.0)


def _kind_return(row):
    """Closed-form return of one row, from its kind's formula."""
    kind, a, b, s, alpha = row
    if kind == SL:
        return float(w_return_sl_vec(a, b, s, alpha))
    if math.isnan(b):
        return a / alpha
    formula = w_return_sa_vec if kind == SA else omega_return_vec
    return float(formula(a, b, s, alpha))


def test_section_columns_evaluate_each_row_by_its_kind():
    cols = row_columns(MIXED_ROWS)
    want = [_kind_return(row) for row in MIXED_ROWS]
    assert section_returns(cols).tolist() == want
    g, v = section_surfaces(cols)
    fields = np.broadcast_arrays(*g, *v)
    for i, row in enumerate(MIXED_ROWS):
        kg, kv = _kind_surface(row)
        assert [float(f[i]) for f in fields] == [*kg, *kv]
        surface = _first_surface(row_columns([row]))
        assert (*surface.g, *surface.v) == (*kg, *kv)
    # with no sl row the marking's y stays one shared 0.0
    assert section_surfaces(row_columns(MIXED_ROWS[2:5]))[1].y == 0.0
    assert section_returns(row_columns([])).shape == (0,)


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
    mixed = transversal.SectionColumns(*map(np.concatenate, zip(w, omega, vertical, row_columns(MIXED_ROWS))))
    order = rng.permutation(len(mixed.kind))

    def rows(cols, keep):
        return transversal.SectionColumns(*(c[keep] for c in cols))

    cases = [mixed, rows(mixed, order), w, omega, vertical, rows(w, w.kind == transversal.SL),
             rows(w, w.kind == transversal.SA), row_columns([])]
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
