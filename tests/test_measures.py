"""Section-measure samplers, Monte Carlo tails, and orbit averages."""

import json
import math
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from slitgaps import measures, transversal
from slitgaps.errors import InvalidInputError
from slitgaps.geometry import SurfaceMode, horocycle_apply
from slitgaps.measures import (
    ENGINES,
    FORMULA,
    ORACLE_AFFINE,
    ORACLE_DOUBLED,
    MeasureSpec,
    _cells,
    _draw_batch,
    _oracle_surface,
    _uniform_open,
    map_chunks,
    mc_tail,
    orbit,
)
from slitgaps.oracle import oracle_first_return_batch, oracle_strip_slopes
from slitgaps.transversal import (
    OMEGA,
    SA,
    SL,
    VERTICAL,
    OmegaCoords,
    _first_surface,
    check_rows,
    flowed_section_coords,
    omega_to_surface,
    row_columns,
    section_returns,
)

HAAR_OMEGA_MASS = math.pi ** 2 / 6.0
OMEGA3_MASS = math.pi ** 2 / 6.0 - 1.0
HAAR_W_MASS = (3.0 + math.pi ** 2) / 6.0


def _sample(spec, rng):
    """(row, weight) of one draw: row 0 of a size-1 batch, range-checked."""
    cols, w = _draw_batch(spec, rng, 1)
    check_rows(cols)
    return tuple(c[0].item() for c in cols), float(w[0])


def test_measure_parsing_round_trip():
    for text in ("haar-omega", "haar-w", "torsion:2", "periodic-point"):
        assert MeasureSpec.parse(text).label() == text
    spec = MeasureSpec.parse("periodic-omega:0.5,0.25")
    assert spec.a == 0.5 and spec.alpha == 0.25
    with pytest.raises(InvalidInputError):
        MeasureSpec.parse("haar-q")
    with pytest.raises(InvalidInputError):
        MeasureSpec.parse("torsion:0")
    with pytest.raises(InvalidInputError):
        MeasureSpec.parse("torsion:x")
    for bad in ("periodic-omega:0.5,abc", "periodic-omega:x,0.25"):
        with pytest.raises(InvalidInputError, match="bad periodic-omega point"):
            MeasureSpec.parse(bad)


def test_torsion_sampler_support():
    rng = np.random.default_rng(101)
    spec = MeasureSpec.torsion(2)
    for _ in range(200):
        (kind, a, b, s, alpha), weight = _sample(spec, rng)
        assert kind == OMEGA
        assert weight == 1.0
        assert s == 0.0
        assert math.isclose(alpha, a / 2.0, rel_tol=1e-12)
        assert 0.0 < a <= 1.0 and 1.0 - a < b <= 1.0


def test_torsion_point_instance():
    # (a, b) = (0.8, 0.5), q = 2: lattice on its section, marking at the
    # 2-torsion representative (a/2, 0)
    rng = np.random.default_rng(0)
    spec = MeasureSpec.torsion(2)
    p = OmegaCoords(0.8, 0.5, 0.0, 0.4)
    assert math.isclose(p.alpha, p.a / 2.0)
    for _ in range(500):
        (_, a, b, _, alpha), _ = _sample(spec, rng)
        if abs(a - 0.8) < 0.05 and abs(b - 0.5) < 0.05:
            assert math.isclose(alpha, a / 2.0, rel_tol=1e-12)
            break


def test_haar_omega_sampler_support():
    rng = np.random.default_rng(103)
    spec = MeasureSpec.haar_omega()
    for _ in range(200):
        (kind, a, b, s, alpha), weight = _sample(spec, rng)
        assert kind == OMEGA
        assert math.isclose(weight, 1.0 / b, rel_tol=1e-12)
        assert 0.0 <= s <= 1.0 / (a * b)
        assert 0.0 < alpha <= 1.0


def test_haar_w_sampler_mixture():
    rng = np.random.default_rng(107)
    spec = MeasureSpec.haar_w()
    kinds = {SL: 0, SA: 0}
    for _ in range(600):
        kinds[_sample(spec, rng)[0][0]] += 1
    assert kinds[SL] > 100 and kinds[SA] > 250


def test_total_masses():
    n = 200_000
    for spec, want in (
        (MeasureSpec.haar_omega(), HAAR_OMEGA_MASS),
        (MeasureSpec.haar_w(), HAAR_W_MASS),
    ):
        est = mc_tail(spec, FORMULA, [0.0], n, seed=3)
        assert abs(est.total_mass - want) <= 3.0 * est.total_mass_se


def test_omega3_slice_mass():
    masses = mc_tail(MeasureSpec.haar_omega(), FORMULA, [0.0], 200_000, seed=5).component_masses
    assert "omega3" in masses
    assert abs(masses["omega3"] - OMEGA3_MASS) < 0.02


def test_periodic_omega_survival_is_a_step():
    spec = MeasureSpec.periodic_omega(0.5, 0.25)
    jump = 0.5 / 0.25
    est = mc_tail(spec, FORMULA, [0.0, jump - 0.01, jump + 0.01, 10.0], 2000, seed=7)
    sv = est.survival
    assert sv[0] == 1.0
    assert sv[1] == 1.0
    assert sv[2] == 0.0
    assert sv[3] == 0.0


def test_periodic_point_constant_return():
    est = mc_tail(MeasureSpec("periodic-point"), FORMULA, [0.0, 1.9, 2.1], 1000, seed=7)
    assert est.survival[0] == 1.0
    assert est.survival[1] == 1.0
    assert est.survival[2] == 0.0


def test_survival_starts_at_one_and_decreases():
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    est = mc_tail(MeasureSpec.haar_w(), FORMULA, grid, 100_000, seed=11)
    assert est.survival[0] == 1.0
    for k in range(1, len(grid)):
        slack = 2.0 * (est.ci_halfwidth[k] + est.ci_halfwidth[k - 1])
        assert est.survival[k] <= est.survival[k - 1] + slack


def test_mc_tail_engines_agree_on_vertical_orbit():
    # both engines are exact on the vertical-lattice circle, so the step
    # survival must match exactly
    spec = MeasureSpec.periodic_omega(0.5, 0.25)
    grid = [0.0, 1.9, 2.1]
    a = mc_tail(spec, FORMULA, grid, 1000, seed=13)
    b = mc_tail(spec, ORACLE_AFFINE, grid, 1000, seed=13)
    assert np.array_equal(a.survival, b.survival)


def test_mc_tail_reproducible_across_calls():
    grid = [0.0, 0.5, 1.0, 2.0]
    one = mc_tail(MeasureSpec.haar_w(), FORMULA, grid, 20_000, seed=17, workers=3)
    two = mc_tail(MeasureSpec.haar_w(), FORMULA, grid, 20_000, seed=17, workers=3)
    assert one.to_dict() == two.to_dict()


def test_mc_tail_rejects_bad_engine():
    with pytest.raises(InvalidInputError):
        mc_tail(MeasureSpec.haar_w(), "exact", [1.0], 100, seed=0)
    assert set(ENGINES) == {"formula", "oracle-affine", "oracle-doubled"}


def test_chunk_streams_reject_a_negative_seed():
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        list(measures.chunk_streams(100, -1))


def _two_pass_tail(measure, engine, t_grid, n, seed):
    """The per-threshold estimator over the concatenated chunks of the
    sample layout: the reference for the one-pass cell statistics of
    ``mc_tail``."""
    ws, rs, comps = [], [], []
    for rng, ni in measures.chunk_streams(n, seed):
        batch, o3 = measures._draw_batch(measure, rng, ni), np.zeros(ni, dtype=bool)
        w, r = measures._returns_for_batch(batch, engine, o3 if measure.kind == "haar-omega" else None)
        ws.append(w)
        rs.append(r)
        # the components: haar-w's sl rows, haar-omega's rows in O3
        comps.append({"haar-w": {"sl": batch[0].kind == transversal.SL},
                      "haar-omega": {"omega3": o3}}.get(measure.kind, {}))
    w, r = np.concatenate(ws), np.concatenate(rs)
    wsum = w.sum()
    survival, ci = [], []
    for t in t_grid:
        ind = (r > t).astype(float)
        p = (w * ind).sum() / wsum
        survival.append(p)
        ci.append(1.96 * math.sqrt(((w * (ind - p)) ** 2).sum()) / wsum)
    scale = measures._mass_scale(measure)
    out = {
        "survival": survival,
        "ci_halfwidth": ci,
        "n_eff": wsum ** 2 / (w * w).sum(),
        "total_mass": scale * wsum / len(w),
        "total_mass_se": scale * w.std(ddof=1) / math.sqrt(len(w)),
        "component_masses": {},
    }
    for k in comps[0]:
        wm = w * np.concatenate([c[k] for c in comps])
        out["component_masses"][k] = scale * wm.sum() / len(w)
        out["component_masses"][k + "_se"] = scale * wm.std(ddof=1) / math.sqrt(len(w))
    return out


def _assert_close_tree(got, want, rel):
    if isinstance(want, dict):
        assert set(got) == set(want)
        for k in want:
            _assert_close_tree(got[k], want[k], rel)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_close_tree(g, w, rel)
    else:
        assert got == pytest.approx(want, rel=rel, abs=0.0)


@pytest.mark.parametrize(
    "spec, engine, n, workers",
    [
        ("haar-w", FORMULA, 60_000, 3),
        ("haar-omega", FORMULA, 60_000, 2),
        ("haar-omega", ORACLE_AFFINE, 5000, 2),
        ("torsion:2", FORMULA, 20_000, 3),
    ],
)
def test_mc_tail_cell_statistics_match_the_two_pass_estimator(spec, engine, n, workers):
    measure = MeasureSpec.parse(spec)
    # a grid that _cells counts, and a descending one of 81 thresholds that
    # it binary searches
    for grid in ([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0], np.linspace(16.0, 0.0, 81).tolist()):
        got = mc_tail(measure, engine, grid, n, seed=31, workers=workers).to_dict()
        want = _two_pass_tail(measure, engine, grid, n, 31)
        assert got["n"] == n
        _assert_close_tree({k: got[k] for k in want}, want, 1e-12)


@pytest.mark.parametrize("size", [1, measures.COUNT_BINS_MAX, measures.COUNT_BINS_MAX + 1, 129])
def test_cells_count_the_thresholds_below_each_return(size):
    # thresholds on a 0.25 lattice repeat once there are more than 21 of them
    rng = np.random.default_rng(size)
    grid = np.sort(rng.integers(-4, 17, size) / 4.0)
    assert size < 22 or np.unique(grid).size < size
    r = np.concatenate([grid, rng.uniform(-2.0, 5.0, 5000), [np.inf, -np.inf, np.nan, np.nan, 0.0]])
    rng.shuffle(r)
    want = np.searchsorted(grid, r, side="left")
    want[np.isnan(r)] = 0
    got = _cells(grid, r)
    assert got.shape == r.shape and np.array_equal(got, want)
    assert got.dtype == (np.uint8 if size <= measures.COUNT_BINS_MAX else np.intp)


@pytest.mark.parametrize(
    "spec, engine",
    [("haar-w", FORMULA), ("haar-omega", ORACLE_AFFINE), ("torsion:2", FORMULA)],
)
def test_mc_tail_chunked_streams_match_the_two_pass_estimator(monkeypatch, spec, engine):
    # seven full chunks of 1000 draws and one of 500
    monkeypatch.setattr(measures, "CHUNK", 1000)
    measure = MeasureSpec.parse(spec)
    grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 8.0]
    got = mc_tail(measure, engine, grid, 7500, seed=61, workers=2).to_dict()
    want = _two_pass_tail(measure, engine, grid, 7500, 61)
    assert got["n"] == 7500
    _assert_close_tree({k: got[k] for k in want}, want, 1e-12)


def test_mc_tail_memory_is_flat_in_n(monkeypatch):
    # tracemalloc sees numpy's buffers; unchunked, the large run peaks at
    # over ten times the small one.  One pool thread, so the peak does not
    # depend on whether the two streams happen to overlap in time.
    monkeypatch.setattr(measures, "CHUNK", 1 << 12)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def peak(n):
        tracemalloc.start()
        try:
            mc_tail(MeasureSpec.haar_w(), FORMULA, [0.5, 1.0, 2.0, 4.0], n, seed=59, workers=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1 << 14)  # warm-up: first-call allocations are not the streams'
    assert peak(1 << 18) < 2 * peak(1 << 14)


def test_mc_tail_unsorted_grid_with_duplicates():
    grid = [2.0, -math.inf, 0.5, math.inf, 2.0, 0.0, 1.0, 0.5]
    spec = MeasureSpec.haar_w()
    mixed = mc_tail(spec, FORMULA, grid, 20_000, seed=37, workers=2)
    ordered = mc_tail(spec, FORMULA, sorted(grid), 20_000, seed=37, workers=2)
    assert list(mixed.t_grid) == grid
    by_t = dict(zip(ordered.t_grid, zip(ordered.survival, ordered.ci_halfwidth)))
    for t, sv, ci in zip(mixed.t_grid, mixed.survival, mixed.ci_halfwidth):
        assert (sv, ci) == by_t[t]
    assert list(ordered.survival[[0, -1]]) == [1.0, 0.0]


def test_mc_tail_non_finite_returns_keep_the_strict_comparison(monkeypatch):
    # NaN never exceeds a threshold, +inf exceeds every finite one, -inf none
    real = measures._returns_for_batch
    special = np.array([math.nan, math.inf, -math.inf, 0.5, 1.0, 2.5])

    def returns_with_specials(batch, engine, o3=None):
        w, r = real(batch, engine, o3)
        return w, np.resize(special, r.size)

    monkeypatch.setattr(measures, "_returns_for_batch", returns_with_specials)
    grid = [math.inf, 1.0, -math.inf, 0.0, 0.5, 2.5]
    spec = MeasureSpec.haar_omega()
    got = mc_tail(spec, FORMULA, grid, 6000, seed=41, workers=2)
    want = _two_pass_tail(spec, FORMULA, grid, 6000, 41)
    assert list(got.survival) == pytest.approx(want["survival"], rel=1e-12, abs=0.0)
    assert got.survival[0] == 0.0
    assert list(got.ci_halfwidth) == pytest.approx(want["ci_halfwidth"], rel=1e-12)


def test_mc_tail_output_is_independent_of_the_core_count(monkeypatch):
    runs = []
    for cores in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        est = mc_tail(MeasureSpec.haar_w(), FORMULA, [0.0, 1.0, 2.0], 20_000, seed=43, workers=3)
        runs.append(est.to_dict())
    assert runs[0] == runs[1]


def test_mc_tail_pool_is_bounded_by_the_core_count(monkeypatch):
    # chunks of 1000 draws: the pool takes min(workers, cores, chunks)
    # threads, and a run on one thread builds none
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(1)

    monkeypatch.setattr(measures, "CHUNK", 1000)
    monkeypatch.setattr(measures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    est = mc_tail(MeasureSpec.haar_w(), FORMULA, [0.0, 1.0], 4000, seed=47, workers=100_000)
    assert est.n == 4000 and est.workers == 100_000
    assert sizes == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    mc_tail(MeasureSpec.haar_omega(), FORMULA, [1.0], 2500, seed=47, workers=8)
    assert sizes == [2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    mc_tail(MeasureSpec.haar_omega(), FORMULA, [1.0], 4000, seed=47, workers=4)
    assert sizes == [2, 3]


def test_a_one_thread_map_runs_inline_in_chunk_order(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-thread map built a pool")

    def fn(k, rng, count):
        return k, count, threading.get_ident()

    monkeypatch.setattr(measures, "ThreadPoolExecutor", no_pool)
    caller = threading.get_ident()
    assert list(map_chunks(fn, 1000, 3, workers=8)) == [(0, 1000, caller)]
    assert list(map_chunks(fn, 0, 3, workers=8)) == []
    monkeypatch.setattr(measures, "CHUNK", 400)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert list(map_chunks(fn, 1000, 3, workers=8)) == [(0, 400, caller), (1, 400, caller), (2, 200, caller)]
    # an inline run reports what a pooled one does
    one = mc_tail(MeasureSpec.haar_w(), FORMULA, [0.5, 2.0], 1000, seed=5, workers=1).to_dict()
    monkeypatch.setattr(measures, "ThreadPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(measures, "chunk_threads", lambda n, workers: 2)
    assert mc_tail(MeasureSpec.haar_w(), FORMULA, [0.5, 2.0], 1000, seed=5, workers=1).to_dict() == one


def test_reports_do_not_depend_on_workers_or_cores(monkeypatch):
    # five full chunks and a partial one; the recorded workers aside, every
    # worker and core count gives the same reports
    monkeypatch.setattr(measures, "CHUNK", 1 << 10)
    n = 5 * (1 << 10) + 300
    reports = set()
    for cores in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        for workers in (1, 2, 7, 10**12):
            tail = mc_tail(MeasureSpec.haar_w(), FORMULA, [0.0, 1.0, 2.0], n, seed=67, workers=workers)
            diff = measures.diff_test("WslRho", n, seed=67, workers=workers, v_domain="restricted")
            tail, diff = tail.to_dict(), diff.to_dict()
            assert tail.pop("workers") == diff.pop("workers") == workers
            assert diff["samples"] == n + len(measures._PROBES["WslRho"].kind)
            reports.add(json.dumps([tail, diff], sort_keys=True, indent=2))
    assert len(reports) == 1


def test_map_chunks_takes_chunks_as_threads_free_up(monkeypatch):
    # at most one chunk per pool thread, and one more queued, is taken ahead
    # of the results yielded; never all chunks up front
    made = []

    def streams(n, seed):
        for k in range(n):
            made.append(k)
            yield None, 1

    monkeypatch.setattr(measures, "chunk_streams", streams)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    results = measures.map_chunks(lambda k, rng, count: k, 10**6, 0, 10**12)
    for k, got in zip(range(50), results):
        assert got == k and len(made) <= k + 3
    results.close()


def test_uniform_open_in_place_matches_one_minus_random():
    one, two = np.random.default_rng(53), np.random.default_rng(53)
    for n in (0, 1, 1000):
        got = _uniform_open(one, n)
        assert np.array_equal(got, 1.0 - two.random(n))
    assert one.random() == two.random()


def test_ergodic_average_periodic_orbit():
    # every return of the fixed point's formula orbit is 2
    [(returns, _)] = orbit(row_columns([(OMEGA, 1.0, 1.0, 0.0, 0.5)]), FORMULA, 50)
    assert np.count_nonzero((returns > 1.5) & (returns <= 2.5)) == 50


def test_ergodic_average_matches_monte_carlo():
    # true (enumerated) dynamics on both routes; the closed-form step is
    # skewed on part of the wrapped regions and would bias the orbit.  The
    # orbit's returns are the gaps between the start surface's strip slopes
    rng = np.random.default_rng(19)
    start, _ = _sample(MeasureSpec.haar_omega(), rng)
    n = 100_000
    surface = _first_surface(row_columns([start]))
    returns = np.diff(oracle_strip_slopes(surface, SurfaceMode.AFFINE_ONLY, n), prepend=0.0)
    frac = np.count_nonzero((returns > 0.0) & (returns <= 1.0)) / n
    est = mc_tail(
        MeasureSpec.haar_omega(), ORACLE_AFFINE, [0.0, 1.0], 100_000, seed=23, workers=4
    )
    want = est.survival[0] - est.survival[1]
    assert abs(frac - want) < 0.01


def test_ergodic_average_affine_oracle_needs_affine_coordinates():
    for start in ((SL, 0.6, 0.5, 0.5, 0.8), (SA, 0.5, 0.6, 2.0, 0.9)):
        with pytest.raises(InvalidInputError, match="affine-oracle orbits need affine-section coordinates"):
            next(orbit(row_columns([start]), ORACLE_AFFINE, 10))


@pytest.mark.parametrize("engine", ENGINES)
def test_orbit_range_checks_its_start(engine):
    # a start row out of range raises its check_rows error before any step
    with pytest.raises(InvalidInputError, match=r"^alpha out of range: 1\.5$"):
        next(orbit(row_columns([(OMEGA, 0.5, 0.6, 2.0, 1.5)]), engine, 3))


@pytest.mark.parametrize(
    "start, engine",
    [
        ((OMEGA, 0.5, 0.6, 2.0, 0.9), ORACLE_AFFINE),
        ((OMEGA, 0.5, 0.6, 2.0, 0.9), ORACLE_DOUBLED),
        ((SL, 0.6, 0.5, 0.3, 0.5), ORACLE_DOUBLED),
    ],
)
def test_ergodic_scan_follows_the_oracle_orbit(start, engine):
    # the strip slopes of the start surface are the partial sums of the
    # orbit's returns, up to the orbit's accumulated rounding
    n = 500
    [(returns, _)] = orbit(row_columns([start]), engine, n)
    stepped = np.cumsum(returns)
    slopes = oracle_strip_slopes(*_oracle_surface(row_columns([start]), engine), n)
    assert np.max(np.abs(slopes - stepped) / stepped) < 1e-9


def test_mc_tail_rejects_nan_thresholds_and_keeps_inf_limits():
    with pytest.raises(InvalidInputError):
        mc_tail(MeasureSpec.haar_w(), FORMULA, [math.nan, 1.0], 2000, seed=1)
    est = mc_tail(MeasureSpec.haar_w(), FORMULA, [-math.inf, math.inf], 2000, seed=1)
    assert list(est.survival) == [1.0, 0.0]


def _orbit_steps(start, engine, n):
    """(step, return time, row) per step of ``orbit``'s block of columns
    from the start row, the rows range-checked."""
    [(returns, points)] = orbit(row_columns([start]), engine, n)
    assert all(len(c) == len(returns) for c in points)
    check_rows(points)
    rows = zip(*(c.tolist() for c in points))
    return [(k, u, row) for k, (u, row) in enumerate(zip(returns.tolist(), rows))]


def test_orbit_yields_expected_shape():
    start = (OMEGA, 1.0, 1.0, 0.0, 0.5)
    steps = _orbit_steps(start, FORMULA, 4)
    assert len(steps) == 4
    for k, (step, u, point) in enumerate(steps):
        assert step == k
        assert math.isclose(u, 2.0, abs_tol=1e-9)
        assert point[0] == OMEGA


@pytest.mark.parametrize("engine", [ORACLE_AFFINE, ORACLE_DOUBLED])
def test_oracle_orbit_computes_no_lattice_form_per_step(monkeypatch, engine):
    # an oracle orbit analyzes the start lattice once and reads everything
    # else off one kernel pass over the start surface, however many steps
    # it takes; the lattice analysis scans through ``lattice_box``, not here
    start = (OMEGA, 0.5, 0.6, 2.0, 0.9)
    forms, passes = [], []
    real_form, real_pass = transversal._lattice_form, transversal._box_rows

    def counting_form(g):
        forms.append(g)
        return real_form(g)

    def counting_pass(g, *args, **kwargs):
        passes.append(tuple(g))
        return real_pass(g, *args, **kwargs)

    monkeypatch.setattr(transversal, "_lattice_form", counting_form)
    monkeypatch.setattr(transversal, "_box_rows", counting_pass)
    for n in (1, 200, 400, 3000):
        forms.clear()
        passes.clear()
        assert len(_orbit_steps(start, engine, n)) == n
        assert len(forms) == 1
        assert passes == [tuple(_first_surface(row_columns([start])).g)]


# the step-by-step chain the oracle orbits are read off in one piece: the
# point after a step is the previous surface flowed by its enumerated return
# and recoordinatized.  Its partial sums drift from the start surface's strip
# slopes by rounding, so returns and s are compared at STEPWISE_TOL and the
# flow-invariant x-coordinates (a, b, alpha, and the short-lattice marking)
# at STEPWISE_X_TOL.
STEPWISE_TOL = 1e-9
STEPWISE_X_TOL = 1e-11


def _stepwise_oracle_orbit(start, engine, n):
    slit = engine == ORACLE_DOUBLED
    mode = SurfaceMode.DOUBLED_SLIT if slit else SurfaceMode.AFFINE_ONLY
    p, out = start, []
    for _ in range(n):
        surf = _first_surface(row_columns([p]))
        u = float(oracle_first_return_batch(surf.g, surf.v, mode)[0])
        landing = flowed_section_coords(horocycle_apply(u, surf), (0.0,), slit=slit)
        check_rows(landing)
        p = tuple(c[0].item() for c in landing)
        out.append((u, p))
    return out


def _kind_and_coords(row):
    """(kind, x-coordinates, s) of a section row."""
    kind, a, b, s, alpha = row
    if kind == SL:
        return "sl", (a, b, s, alpha), 0.0
    prefix = "sa-" if kind == SA else ""
    if math.isnan(b):
        return prefix + "vl", (a, alpha), s
    return prefix + "omega", (a, b, alpha), s


# P1 is the start of the benchmark's orbit-chain workload at seed 1
P1 = (OMEGA, 0.8558403872803663, 0.732080999270255, 0.04227081954827937, 0.7847818328370264)


@pytest.mark.parametrize(
    "start, engine",
    [
        (P1, ORACLE_AFFINE),
        (P1, ORACLE_DOUBLED),
        ((OMEGA, 0.5, 0.6, 2.0, 0.9), ORACLE_AFFINE),
        ((OMEGA, 0.5, 0.6, 2.0, 0.9), ORACLE_DOUBLED),
        ((SL, 0.6, 0.5, 0.3, 0.5), ORACLE_DOUBLED),
        ((VERTICAL, 0.8, math.nan, 0.3, 0.5), ORACLE_AFFINE),
        ((VERTICAL, 0.8, math.nan, 0.3, 0.5), ORACLE_DOUBLED),
    ],
)
def test_oracle_orbit_matches_the_stepwise_chain(start, engine):
    n = 500
    steps = _orbit_steps(start, engine, n)
    ref = _stepwise_oracle_orbit(start, engine, n)
    assert [k for k, _, _ in steps] == list(range(n))
    for (_, u, p), (u_ref, p_ref) in zip(steps, ref):
        kind, xs, s = _kind_and_coords(p)
        kind_ref, xs_ref, s_ref = _kind_and_coords(p_ref)
        assert kind == kind_ref
        assert np.max(np.abs(np.subtract(xs, xs_ref))) <= STEPWISE_X_TOL
        assert abs(s - s_ref) <= STEPWISE_TOL
        assert abs(u - u_ref) <= STEPWISE_TOL
    sums = np.cumsum([u for _, u, _ in steps])
    slopes = oracle_strip_slopes(*_oracle_surface(row_columns([start]), engine), n)
    assert np.max(np.abs(sums - slopes) / slopes) <= 1e-12


def test_oracle_orbit_carries_the_negated_marking():
    # under the doubled oracle the vertical-lattice start (a = 0.8) has the
    # mirrored coset's column x = 1/a - alpha in the strip too, so the orbit
    # alternates between the two markings
    steps = _orbit_steps((VERTICAL, 0.8, math.nan, 0.3, 0.5), ORACLE_DOUBLED, 50)
    alphas = {round(p[4], 12) for _, _, p in steps}
    assert alphas == {0.5, 0.75}


def test_slit_cover_formula_step_evaluates_the_return_once(monkeypatch):
    calls = []
    real = transversal.w_return_sa_vec

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(transversal, "w_return_sa_vec", counting)
    start = row_columns([(SA, 0.5, 0.6, 2.0, 0.9)])
    u, nxt = transversal.section_step(transversal.SA, 0.5, 0.6, 2.0, 0.9)
    assert len(calls) == 1
    # the step flows by the slit-cover return and recoordinatizes
    assert u == section_returns(start)[0]
    landing = flowed_section_coords(horocycle_apply(u, _first_surface(start)), (0.0,), slit=True)
    assert nxt == tuple(c[0].item() for c in landing)


def test_affine_formula_orbit_does_no_enumeration(monkeypatch):
    # the affine step is closed form throughout: no lattice is analyzed and
    # no lattice box is scanned, however many steps the orbit takes
    from slitgaps import geometry

    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(transversal, "_lattice_form")
    for module in (geometry, transversal):
        counted(module, "lattice_box")
    [(returns, cols)] = orbit(row_columns([(OMEGA, 0.5, 0.6, 2.0, 0.9)]), FORMULA, 300)
    assert len(returns) == 300 and set(cols.kind.tolist()) == {transversal.OMEGA}
    assert calls == []
    # the counters see a recoordinatization
    flowed_section_coords(omega_to_surface(OmegaCoords(0.5, 0.6, 2.0, 0.9)), (0.0,))
    assert "_lattice_form" in calls and "lattice_box" in calls


def test_oracle_orbit_of_no_steps_is_empty():
    for engine in (ORACLE_AFFINE, ORACLE_DOUBLED):
        assert _orbit_steps((OMEGA, 0.5, 0.6, 2.0, 0.9), engine, 0) == []
