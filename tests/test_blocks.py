"""Blocked Monte Carlo chunks: positioned stream reads against sequential
draws, and the blocked ``_chunk_stats`` against a whole-chunk copy.

The copies below draw each chunk the way the samplers did before they read
positioned streams: one column after another from the generator, the whole
chunk at once, and reduce it with one ``np.bincount``.  Every sampled value,
every sum and every generator state must come out the same, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from slitgaps import measures
from slitgaps.measures import BLOCK, CHUNK, ENGINES, FORMULA, MeasureSpec, _chunk_stats
from slitgaps.transversal import OMEGA, SA, SL, VERTICAL, SectionColumns

MEASURES = ("haar-omega", "haar-w", "torsion:3", "periodic-omega:0.7,0.4", "periodic-point")
GRID = np.array([0.25, 1.0, 3.0, 8.0])
# chunk [62, 0] of 80 haar-w rows has 24 sl rows, whose triangle rejection
# keeps too few pairs in its first round; chunk [85, 0] of 27 torsion rows too
SECOND_ROUND_HAAR_W = ([62, 0], 80)
SECOND_ROUND_TORSION = ([85, 0], 27)


# ---------------------------------------------------------------------------
# whole-chunk sequential copies


def _seq_triangle(rng, n):
    """(a, b, rounds): rejection rounds of max(64, int(2.6 * missing))
    candidate a's, then as many b's."""
    a_out, b_out = np.empty((2, n))
    got = rounds = 0
    while got < n:
        k = max(64, int(1.3 * (n - got) * 2))
        a = 1.0 - rng.random(k)
        b = 1.0 - rng.random(k)
        keep = b > 1.0 - a
        take = min(int(keep.sum()), n - got)
        idx = np.flatnonzero(keep)[:take]
        a_out[got:got + take] = a[idx]
        b_out[got:got + take] = b[idx]
        got += take
        rounds += 1
    return a_out, b_out, rounds


def _seq_sl_rows(rng, n, ab=None):
    a, b = _seq_triangle(rng, n)[:2] if ab is None else ab
    cx, cy = rng.random(n), rng.random(n)
    v1 = a * cx
    v1 += b * cy
    return a, b, v1, cy / a


def _seq_omega(rng, n):
    a = 1.0 - rng.random(n)
    alpha = 1.0 - rng.random(n)
    b = 1.0 - a * rng.random(n)
    s = rng.random(n) / (a * b)
    return (a, b, s, alpha), 1.0 / b


def _cols(kind, cols):
    return SectionColumns(np.full(len(cols[0]), kind, dtype=np.int8), *cols)


def _seq_batch(measure, rng, n):
    if measure.kind == "haar-omega":
        cols, w = _seq_omega(rng, n)
        return _cols(OMEGA, cols), w
    if measure.kind == "haar-w":
        n_sl = int(np.count_nonzero(rng.random(n) < measures.W_SL_PROB))
        sl = _seq_sl_rows(rng, n_sl)
        sa, w_sa = _seq_omega(rng, n - n_sl)
        kind = np.r_[np.full(n_sl, SL), np.full(n - n_sl, SA)].astype(np.int8)
        return SectionColumns(kind, *map(np.concatenate, zip(sl, sa))), np.r_[np.ones(n_sl), w_sa]
    if measure.kind == "torsion":
        a, b, _ = _seq_triangle(rng, n)
        return _cols(OMEGA, (a, b, np.zeros(n), a / measure.q)), np.ones(n)
    if measure.kind == "periodic-omega":
        s = rng.random(n) * measure.a ** 2
        cols = (np.full(n, measure.a), np.full(n, np.nan), s, np.full(n, measure.alpha))
        return _cols(VERTICAL, cols), np.ones(n)
    return _cols(OMEGA, [np.full(n, x) for x in measures.FIXED_POINT]), np.ones(n)


def _seq_chunk_stats(measure, engine, grid, rng, n):
    batch, o3 = _seq_batch(measure, rng, n), np.zeros(n, dtype=bool)
    w, r = measures._returns_for_batch(batch, engine, o3 if measure.kind == "haar-omega" else None)
    cell = measures._cells(grid, r)
    w2 = w * w
    sums = np.bincount(cell, weights=w, minlength=grid.size + 1)
    sums2 = np.bincount(cell, weights=w2, minlength=grid.size + 1)
    # the components: haar-w's sl rows, haar-omega's rows in O3
    comp = {"haar-w": {"sl": batch[0].kind == SL}, "haar-omega": {"omega3": o3}}.get(measure.kind, {})
    comps = {k: np.array([np.sum(w, where=mask), np.sum(w2, where=mask)]) for k, mask in comp.items()}
    return sums, sums2, comps


def _seq_region(region, rng, n, v_domain):
    if region == "DeltaR":
        return _seq_batch(MeasureSpec.torsion(1), rng, n)[0]
    if region == "OmegaR":
        return _cols(OMEGA, _seq_omega(rng, n)[0])
    if region == "WslRho":
        a, b, v1, v2 = _seq_sl_rows(rng, n)
        redo = np.arange(n)
        while (redo := redo[(v1[redo] <= 0) | ((v_domain == "restricted") & (v1[redo] >= a[redo]))]).size:
            _, _, v1[redo], v2[redo] = _seq_sl_rows(rng, redo.size, (a[redo], b[redo]))
        return _cols(SL, (a, b, v1, v2))
    return _seq_batch(MeasureSpec.haar_w(), rng, n)[0]


def _same(got, want):
    """Bit-for-bit equality of arrays, or of tuples and dicts of them."""
    if isinstance(want, dict):
        return set(got) == set(want) and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, tuple):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# positioned reads


def test_random_takes_one_64_bit_output_per_double():
    # the layout arithmetic rests on this: n doubles advance PCG64 by n
    rng, ref = np.random.default_rng([3, 1]), np.random.default_rng([3, 1])
    rng.random(1000)
    ref.bit_generator.advance(1000)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("pos, m", [(0, 5), (1, 1), (777, 300), (5000, 4096)])
def test_a_positioned_read_equals_the_sequential_draw(pos, m):
    rng = np.random.default_rng([9, 4])
    want = np.random.default_rng([9, 4]).random(pos + m)[pos:]
    stream = measures._Stream(rng)
    stream.at(12345).random(7)  # an earlier read elsewhere moves nothing
    assert _same(stream.at(pos).random(m), want)
    # a column read in pieces gives the same rows, and the generator is left
    # where it was
    stream.pos = pos
    col = stream.column(m)
    assert _same(np.concatenate([col.random(k) for k in (1, m // 3, m - 1 - m // 3)]), want)
    assert stream.pos == pos + m
    assert rng.bit_generator.state == np.random.default_rng([9, 4]).bit_generator.state


@pytest.mark.parametrize("spec", MEASURES)
@pytest.mark.parametrize("n", [1, 17, 1000])
def test_a_generator_batch_equals_the_sequential_draw(spec, n):
    measure = MeasureSpec.parse(spec)
    rng, ref = np.random.default_rng([21, n]), np.random.default_rng([21, n])
    want = _seq_batch(measure, ref, n)
    assert _same(measures._draw_batch(measure, rng, n), want)
    # the generator is left where a sequential draw leaves it
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("spec", MEASURES)
@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_blocks_of_a_chunk_join_to_the_whole_chunk(monkeypatch, spec, block):
    monkeypatch.setattr(measures, "BLOCK", block)
    measure, n = MeasureSpec.parse(spec), 2500
    draws = measures._Draws(measure, np.random.default_rng([23, 0]), n)
    sizes = list(draws.blocks())
    assert sum(sizes) == n and max(sizes) <= block
    # each block is copied: haar-omega and haar-w rows are views of buffers
    # that the next block reuses
    parts = [[np.copy(c) for c in (*cols, w)] for cols, w in (measures._batch_measure(measure, draws, m) for m in sizes)]
    # no block holds rows of two kinds
    assert all(np.unique(kind).size == 1 for kind, *_ in parts)
    *cols, w = map(np.concatenate, zip(*parts))
    want_cols, want_w = _seq_batch(measure, np.random.default_rng([23, 0]), n)
    assert _same(tuple(cols), tuple(want_cols)) and _same(w, want_w)


@pytest.mark.parametrize("region", measures.REGIONS)
@pytest.mark.parametrize("v_domain", measures.V_DOMAINS)
def test_difftest_draws_equal_the_sequential_draws(region, v_domain):
    for seed, n in ((5, 1), (6, 333), (7, 4000)):
        got = measures._draw_region(region, np.random.default_rng([seed, 0]), n, v_domain)
        want = _seq_region(region, np.random.default_rng([seed, 0]), n, v_domain)
        assert _same(tuple(got), tuple(want))


def test_the_wslrho_redraws_continue_where_the_first_draw_ended():
    rng = np.random.default_rng([11, 0])
    got = measures._draw_region("WslRho", rng, 3000, "restricted")
    first = _seq_sl_rows(np.random.default_rng([11, 0]), 3000)
    redrawn = got.s != first[2]
    # about half the restricted markings are drawn again, some more than once
    assert 1000 < np.count_nonzero(redrawn) < 2000
    assert np.all((got.s > 0) & (got.s < got.a))


# ---------------------------------------------------------------------------
# blocked chunk statistics


def _assert_same_stats(got, want):
    assert _same(got[0], want[0]) and _same(got[1], want[1]) and _same(got[2], want[2])


@pytest.mark.parametrize("spec", MEASURES)
@pytest.mark.parametrize("n", [17, BLOCK - 1, BLOCK + 1, CHUNK, 2 * CHUNK + 17])
def test_blocked_chunk_stats_equal_the_whole_chunk_formula(spec, n):
    measure = MeasureSpec.parse(spec)
    got = _chunk_stats(measure, FORMULA, GRID, np.random.default_rng([31, n]), n)
    _assert_same_stats(got, _seq_chunk_stats(measure, FORMULA, GRID, np.random.default_rng([31, n]), n))


@pytest.mark.parametrize("spec", MEASURES)
@pytest.mark.parametrize("engine", [e for e in ENGINES if e != FORMULA])
def test_blocked_chunk_stats_equal_the_whole_chunk_oracles(monkeypatch, spec, engine):
    # the oracle engines on a smaller block and chunk, the same edge cases
    monkeypatch.setattr(measures, "BLOCK", 1 << 9)
    block, chunk = 1 << 9, 1 << 11
    measure = MeasureSpec.parse(spec)
    for n in (17, block - 1, block + 1, chunk, 2 * chunk + 17):
        got = _chunk_stats(measure, engine, GRID, np.random.default_rng([37, n]), n)
        _assert_same_stats(got, _seq_chunk_stats(measure, engine, GRID, np.random.default_rng([37, n]), n))


def _add_at_stats(measure, grid, rng, n):
    """The cell sums of ``_chunk_stats`` accumulated row by row into every
    block, unit weights included (``np.add.at``)."""
    draws = measures._Draws(measure, rng, n)
    sums, sums2 = np.zeros((2, grid.size + 1))
    for m in draws.blocks():
        w, r = measures._returns_for_batch(measures._batch_measure(measure, draws, m), FORMULA)
        cell = measures._cells(grid, r)
        np.add.at(sums, cell, w)
        np.add.at(sums2, cell, w * w)
    return sums, sums2


@pytest.mark.parametrize("spec", ["haar-w", "torsion:3", "periodic-omega:0.7,0.4"])
@pytest.mark.parametrize("n", [17, BLOCK + 1, CHUNK])
def test_unit_weight_counts_equal_the_add_at_sums(spec, n):
    # haar-w's sl blocks and every torsion and periodic block add counts
    measure = MeasureSpec.parse(spec)
    got = _chunk_stats(measure, FORMULA, GRID, np.random.default_rng([41, n]), n)
    want = _add_at_stats(measure, GRID, np.random.default_rng([41, n]), n)
    assert _same(got[:2], want)


def test_unit_weights_after_a_weighted_block_are_added_row_by_row(monkeypatch):
    # once a block had other weights a later block of unit weights adds to
    # the sums one row at a time: at weight 2^53 each added 1.0 rounds away,
    # where adding the block's counts at once would not
    returns_for_batch = measures._returns_for_batch
    calls = []

    def first_block_weighted(batch, engine, o3=None):
        w, r = returns_for_batch(batch, engine, o3)
        calls.append(len(w))
        return (w * 2.0 ** 53 if len(calls) == 1 else w), r

    monkeypatch.setattr(measures, "_returns_for_batch", first_block_weighted)
    measure = MeasureSpec.parse("torsion:3")
    got = _chunk_stats(measure, FORMULA, GRID, np.random.default_rng(43), 2 * BLOCK + 5)
    calls.clear()
    want = _add_at_stats(measure, GRID, np.random.default_rng(43), 2 * BLOCK + 5)
    assert len(calls) == 3
    assert _same(got[:2], want)


def test_a_search_grid_bins_blocks_as_the_whole_chunk():
    grid = np.linspace(0.0, 16.0, 81)
    measure = MeasureSpec.haar_w()
    got = _chunk_stats(measure, FORMULA, grid, np.random.default_rng([41, 0]), BLOCK + 5000)
    _assert_same_stats(got, _seq_chunk_stats(measure, FORMULA, grid, np.random.default_rng([41, 0]), BLOCK + 5000))


@pytest.mark.parametrize("spec, chunk", [("haar-w", SECOND_ROUND_HAAR_W), ("torsion:3", SECOND_ROUND_TORSION)])
def test_a_second_rejection_round_in_one_block(spec, chunk):
    key, n = chunk
    measure = MeasureSpec.parse(spec)
    ref = np.random.default_rng(key)
    if measure.kind == "haar-w":
        n_tri = int(np.count_nonzero(ref.random(n) < measures.W_SL_PROB))
    else:
        n_tri = n
    assert _seq_triangle(ref, n_tri)[2] == 2
    for engine in ENGINES:
        got = _chunk_stats(measure, engine, GRID, np.random.default_rng(key), n)
        _assert_same_stats(got, _seq_chunk_stats(measure, engine, GRID, np.random.default_rng(key), n))


def test_a_second_rejection_round_of_a_triangle_over_several_blocks(monkeypatch):
    # blocks of 8 rows: the 24 sl rows span three blocks, and the markings
    # and sa columns are laid out where the triangle's second round ends
    monkeypatch.setattr(measures, "BLOCK", 8)
    key, n = SECOND_ROUND_HAAR_W
    measure = MeasureSpec.haar_w()
    assert list(measures._Draws(measure, np.random.default_rng(key), n).blocks()) == [8, 8, 8] + [8] * 7
    for engine in ENGINES:
        got = _chunk_stats(measure, engine, GRID, np.random.default_rng(key), n)
        _assert_same_stats(got, _seq_chunk_stats(measure, engine, GRID, np.random.default_rng(key), n))


def test_a_blocked_chunk_holds_at_most_half_the_whole_chunk():
    measure, grid = MeasureSpec.haar_w(), np.array([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])

    def peak(stats):
        stats(measure, FORMULA, grid, np.random.default_rng([1, 1]), 1 << 12)  # warm-up
        tracemalloc.start()
        try:
            stats(measure, FORMULA, grid, np.random.default_rng([1, 0]), CHUNK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(_chunk_stats) <= 0.5 * peak(_seq_chunk_stats)
