"""The columnar CSV writer: every cell as the per-cell reference writes it.

The reference is Python's ``'%.12g' % v`` for a float, ``str`` for an
integer and the bytes of a label, through ``csv.writer`` with LF endings.
The float kernel scales in binary floating point and hands the cells it
cannot decide to Python, so the tests aim at the cases where scaling could
pick another digit than a correctly rounded conversion: powers of ten and
their neighbours, near-ties at the twelfth digit, and the range edges.
"""

import contextlib
import csv
import io
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitgaps import cli
from slitgaps.cli import main
from slitgaps.table import BLOCK_ROWS, write_table


def _written(header, columns, empty=None) -> bytes:
    chunks = []
    write_table(chunks.append, header, columns, empty)
    return b"".join(chunks)


def _column_text(x) -> bytes:
    """The cells of a one-column float table, each followed by LF."""
    return _written(("x",), [np.asarray(x, dtype=np.float64)])[2:]


def _reference(values) -> bytes:
    return "".join("%.12g\n" % v for v in values).encode("ascii")


def _per_cell_csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.12g" % c if isinstance(c, float) else c for c in row])
    return out.getvalue()


def _mismatches(x):
    got = _column_text(x).split(b"\n")[:-1]
    want = _reference(x.tolist()).split(b"\n")[:-1]
    assert len(got) == len(want)
    return [(v, w, g) for v, w, g in zip(x.tolist(), want, got) if w != g]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_every_float_cell_is_the_percent_12g_of_its_value(values):
    assert _column_text(values) == _reference(values)


def _adversarial() -> np.ndarray:
    """Over a million values where binary scaling is closest to choosing
    another digit than a correctly rounded conversion."""
    tiny = np.finfo(np.float64).smallest_subnormal
    parts = []
    # each power of ten from 1e-6 to 1e13 and its neighbours up to 4 ulps away
    powers = np.array([float(f"1e{k}") for k in range(-6, 14)])
    steps = [powers]
    for _ in range(4):
        steps = [np.nextafter(steps[0], -np.inf), *steps, np.nextafter(steps[-1], np.inf)]
    parts += steps
    # (k + 0.5) * 10^-j: a tie at the twelfth digit, and the doubles either side
    rng = np.random.default_rng(2024)
    k = rng.integers(10**11, 10**12, 6_500).astype(np.float64)
    for j in range(-2, 24):
        v = (k + 0.5) / float(f"1e{j}")
        parts += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    # a twelve-digit value times a power of ten, where y lands on an integer
    parts += [k * float(f"1e{j}") for j in range(-15, 1)]
    parts.append(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, 2.2250738585072014e-308,
                           tiny * 12345, 1e-4, 1e11, 99999999999.95, 999999999999.5, 99999999999.99999]))
    x = np.concatenate(parts)
    return np.concatenate([x, -x])


def test_an_adversarial_sweep_formats_as_percent_12g():
    x = _adversarial()
    assert len(x) >= 1_000_000
    assert _mismatches(x) == []


def test_values_just_inside_and_outside_the_scaled_range():
    # the edges of [1e-4, 1e11), a carry into the thirteenth digit that
    # moves the exponent, and integers that need every digit
    x = np.array([1e-4, np.nextafter(1e-4, 0), 1e11, np.nextafter(1e11, 0), 9.999999999995e-5,
                  99999999999.5, 9999999999.99995, 0.000999999999999951, 123456789012.0,
                  12345678901.0, 100.0, 120.0, 1.5, -0.25, 0.00012])
    assert _mismatches(x) == []
    # the boundaries of the split of the 12 digits into groups of three: a
    # 000 or a 999 group in each position (100 the least leading group),
    # and d = 1e12 - 1, at each decimal exponent of the range
    base = ["123", "456", "789", "012"]
    digits = ["999999999999"]
    for k in range(4):
        for group in ("100" if k == 0 else "000", "999"):
            digits.append("".join(base[:k] + [group] + base[k + 1 :]))
    x = np.array([float(f"{d}e-{j}") for d in digits for j in range(1, 16)])
    x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
    assert _mismatches(np.concatenate([x, -x])) == []


def test_integer_and_label_cells_and_empty_masks():
    ints = np.array([0, 7, -7, 10, 999, 1000, -1000, 10**18, np.iinfo(np.int64).max, np.iinfo(np.int64).min])
    labels = np.array([b"omega", b"sl", b"vertical", b"sa", b"", b"x", b"sl", b"sa", b"v", b"omega"])
    floats = np.array([1.0, 0.1, math.nan, -2.5, 1e300, -0.0, 3.0, 1e-7, 2.0, 7.0])
    empty = (np.arange(10) % 3 == 0, None, np.isnan(floats))
    rows = [
        ("" if e else int(i), lab.decode(), "" if f else float(v))
        for i, e, lab, v, f in zip(ints, empty[0], labels, floats, empty[2])
    ]
    got = _written(("i", "kind", "v"), (ints, labels, floats), empty).decode("ascii")
    assert got == _per_cell_csv(("i", "kind", "v"), rows)


def test_a_table_without_rows_is_its_header():
    assert _written(("a", "b"), (np.empty(0), np.empty(0, np.int64))) == b"a,b\n"


def _orbit_columns(n):
    rng = np.random.default_rng(7)
    b = rng.random(n)
    b[::5] = np.nan
    kinds = np.array([b"omega", b"vertical", b"sl", b"sa"])[rng.integers(0, 4, n)]
    return (np.arange(n), rng.exponential(1.0, n), kinds, rng.random(n), b, 3 * rng.random(n), rng.random(n))


def test_writing_many_rows_holds_one_block_at_a_time():
    n = 1 << 17
    header = ("step", "return_time", "kind", "a", "b", "s", "alpha")
    columns = _orbit_columns(n)
    vertical = np.isnan(columns[4])
    buf = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(buf):
            cli._write_csv(None, header, columns, (None,) * 4 + (vertical, None, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = buf.getvalue()
    # the output itself takes a byte a character; what the writer holds on
    # top of it is a block's worth, whatever the number of rows
    assert n > 32 * BLOCK_ROWS
    assert peak - len(text) < 4 << 20
    cells = [c.tolist() for c in columns]
    cells[2] = [k.decode() for k in cells[2]]
    cells[4] = ["" if v else x for v, x in zip(vertical.tolist(), cells[4])]
    assert text == _per_cell_csv(header, zip(*cells))


def test_each_table_logs_its_size_at_debug(capsys):
    argv = ["--log-level", "DEBUG", "orbit", "--start", "0.5,0.6,2.0,0.9", "--iters", "5000",
            "--engine", "oracle-affine"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if "csv table" in line]
    assert len(lines) == 1
    blocks = -(-5000 // BLOCK_ROWS)
    assert lines[0].startswith(f"DEBUG slitgaps.table: csv table: 5000 rows, {blocks} blocks, 35000 cells, ")
    assert lines[0].endswith(" by the %-format fallback")
    assert logging.getLogger("slitgaps").handlers == []


def test_an_unknown_column_type_is_refused():
    with pytest.raises(TypeError, match="no CSV cell format"):
        _written(("x",), (np.array(["text"]),))


def test_columns_of_different_lengths_are_refused():
    with pytest.raises(ValueError, match="one length"):
        _written(("x", "y"), (np.zeros(3), np.zeros(2)))
    with pytest.raises(ValueError, match="one length"):
        _written(("x",), (np.zeros(3),), (np.zeros(2, bool),))
