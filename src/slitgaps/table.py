"""CSV tables written from numpy columns, a block of rows at a time.

A float column is written as ``'%.12g' % v`` writes each value, an integer
column in decimal, a bytes column (``dtype 'S'``) as its bytes; an optional
boolean mask per column leaves the marked cells empty.  Rows end in LF.

Each block of at most ``BLOCK_ROWS`` rows becomes one NUL-padded ``uint8``
matrix: every cell is gathered, through a template of byte positions, from
a small source row of its own (its digits, then the characters it may need
besides), a comma or LF follows each cell, and dropping the NUL bytes packs
the block.  Memory stays flat in the number of rows.

Floats are exact by construction.  For finite |x| in [1e-4, 1e11) the
decimal exponent X comes from comparing with the doubles of 1e-4 .. 1e11,
each of which lies at or above its power of ten, and y = |x| * 10^(11 - X)
with 10^(11 - X) an exact double, so y carries one rounding, of at most
6.1e-5 (half an ulp below 2^40).  The 12 digits are y rounded to an integer,
which is the correctly rounded digit string unless y lies within 1e-4 of a
half-integer.  Those cells, and every cell outside the range (0, -0.0,
+-inf, nan, subnormals, |x| >= 1e11 and |x| < 1e-4), are formatted by
Python's ``'%.12g' % v`` instead.
"""

import functools
import logging

import numpy as np

logger = logging.getLogger(__name__)

BLOCK_ROWS = 1 << 11
# '%.12g' writes at most 19 bytes: a sign, 12 digits, '.' and 'e-308'
_FLOAT_WIDTH = 19
_TIE = 1e-4
# the doubles of 10^-4 .. 10^11: those below 1 lie above their power of ten
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 12)])
# 10^(11 - X) for X = -4 .. 11, each an exact double
_SCALE = np.array([float(f"1e{11 - x}") for x in range(-4, 12)])
# binary exponents (as numpy.frexp gives them) of the fast range
_EXP2 = np.arange(-13, 38)

# A source row is uint32 words, each of three digit bytes and a NUL: a
# float's 12 digits in four words, then the word "-.0\0"; an integer's 21
# digits right-aligned in seven words, then "-\0\0\0".
_FLOAT_CHARS = np.frombuffer(b"-.0\0", np.uint32)[0]
_INT_CHARS = np.frombuffer(b"-\0\0\0", np.uint32)[0]
_MINUS, _POINT, _ZERO, _NUL = 16, 17, 18, 19
_INT_WORDS = 7


def _digit(j):
    """Byte position of digit j (0 the first) in the digit words."""
    return 4 * (j // 3) + j % 3


@functools.cache
def _tables():
    """The lookup tables, built on first use so that an import costs nothing.

    The digits of 0 .. 999 as words and the trailing zeros of each; for each
    binary exponent of the fast range, the index of the largest power of ten
    at or below its binade and the next power; the float and the integer
    gather templates, with the byte width of each.  Float template
    ((X + 4) * 12 + digits - 1) * 2 + negative is the cell of X = -4 .. 11
    with 1 .. 12 significant digits; then the fallback (the source row as it
    is, its width that of its string) and the empty cell.  Integer template
    (digits - 1) * 2 + negative, then the empty cell."""
    digits = np.frombuffer(b"".join(b"%03d\0" % i for i in range(1000)), np.uint32)
    zeros = np.zeros(1000, np.intp)
    for k in (10, 100, 1000):
        zeros[::k] += 1
    low = np.searchsorted(_POW10, np.ldexp(1.0, _EXP2 - 1), side="right") - 1
    floats = []
    for x in range(-4, 12):
        for m in range(1, 13):
            if x < 0:
                cell = [_ZERO, _POINT] + [_ZERO] * (-x - 1) + [_digit(j) for j in range(m)]
            else:
                cell = [_digit(j) for j in range(x + 1)]
                if m > x + 1:
                    cell += [_POINT] + [_digit(j) for j in range(x + 1, m)]
            floats += [cell, [_MINUS, *cell]]
    floats += [range(_FLOAT_WIDTH), []]
    sign, end = 4 * _INT_WORDS, 3 * _INT_WORDS
    ints = [[sign] * neg + [_digit(j) for j in range(end - n, end)] for n in range(1, 20) for neg in (0, 1)]
    ints.append([])
    float_templates, float_widths = _pad(floats, _FLOAT_WIDTH, _NUL)
    float_widths[-2] = 0
    return (digits, zeros, low, _POW10[np.minimum(low + 1, len(_POW10) - 1)],
            (float_templates, float_widths), _pad(ints, 20, sign + 1))


def _pad(cells, width, nul):
    """(templates, widths) of a list of cells, each padded with ``nul``."""
    table = np.full((len(cells), width), nul, np.intp)
    for i, cell in enumerate(cells):
        table[i, : len(cell)] = cell
    return table, np.array([len(c) for c in cells], np.intp)


def _float_cells(x, empty):
    """The cells of a float64 column: (source rows as bytes, template ids,
    templates, byte width, cells formatted by the fallback)."""
    digits, zeros, low, high, (templates, widths), _ = _tables()
    n = len(x)
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e11)
    ax[~fast] = 1.0
    b = np.frexp(ax)[1] - _EXP2[0]
    e = low[b] + (ax >= high[b])  # X + 4
    y = ax * _SCALE[e]
    d = np.floor(y)
    frac = y - d
    fast &= np.abs(frac - 0.5) >= _TIE
    d += frac > 0.5
    carry = d >= 1e12
    e += carry
    d -= carry * 9e11
    # the 12 digits in four groups of three
    groups = np.empty((4, n), np.intp)
    hi = d.astype(np.int64)
    lo = hi % 1_000_000
    hi //= 1_000_000
    np.floor_divide(hi, 1000, out=groups[0])
    np.subtract(hi, groups[0] * 1000, out=groups[1])
    np.floor_divide(lo, 1000, out=groups[2])
    np.subtract(lo, groups[2] * 1000, out=groups[3])
    z = zeros.take(groups)
    tz = z[1] + (z[1] == 3) * z[0]
    tz = z[2] + (z[2] == 3) * tz
    tz = z[3] + (z[3] == 3) * tz
    words = np.empty((n, 5), np.uint32)
    words[:, :4] = digits.take(groups).T
    words[:, 4] = _FLOAT_CHARS
    src = words.view(np.uint8)
    tid = (e * 12 + 11 - tz) * 2 + np.signbit(x)
    slow = ~fast
    if empty is not None:
        tid[empty] = len(templates) - 1
        slow &= ~empty
    slow = np.flatnonzero(slow)
    text = list(map("%.12g".__mod__, x[slow].tolist()))
    if text:
        src[slow] = np.array(text, dtype=f"S{_FLOAT_WIDTH + 1}").view(np.uint8).reshape(len(slow), -1)
        tid[slow] = len(templates) - 2
    width = max(max(map(len, text), default=0), int(widths.take(tid).max(initial=0)))
    return src, tid, templates, width, len(slow)


def _int_cells(v, empty):
    """The cells of an int64 column, as ``_float_cells``."""
    digits, *_, (templates, widths) = _tables()
    n = len(v)
    u = np.abs(v).view(np.uint64)  # the abs of the least int64 wraps to its magnitude
    size = len(str(int(u.max(initial=0))))
    ndigits = np.ones(n, np.intp)
    for k in range(1, size):
        ndigits += u >= 10**k
    words = np.empty((n, _INT_WORDS + 1), np.uint32)
    words[:, _INT_WORDS] = _INT_CHARS
    for k in range(-(-size // 3)):  # the groups of three digits, the last first
        q = u // 1000
        words[:, _INT_WORDS - 1 - k] = digits.take((u - q * 1000).astype(np.intp))
        u = q
    tid = (ndigits - 1) * 2 + (v < 0)
    if empty is not None:
        tid[empty] = len(templates) - 1
    return words.view(np.uint8), tid, templates, int(widths.take(tid).max(initial=0)), 0


def _label_cells(labels, empty):
    """The cells of a bytes column, as ``_float_cells``."""
    n, size = len(labels), labels.dtype.itemsize
    src = np.zeros((n, size + 1), np.uint8)
    src[:, :size] = labels.view(np.uint8).reshape(n, size)
    tid = np.zeros(n, np.intp)
    if empty is not None:
        tid[empty] = 1
    return src, tid, np.array([range(size), [size] * size], np.intp), size, 0


_CELLS = {"f": _float_cells, "i": _int_cells, "S": _label_cells}


def _column(column):
    """A column as float64, int64 or bytes, the dtypes the cells are made of."""
    kind = column.dtype.kind
    if kind == "f":
        return column.astype(np.float64, copy=False)
    if kind in "iu":
        return column.astype(np.int64, copy=False)
    if kind == "S":
        return column
    raise TypeError(f"no CSV cell format for dtype {column.dtype}")


def _block(columns, empty, lo, hi):
    """The CSV bytes of rows lo:hi, and the cells the fallback formatted.
    The columns of one dtype are formatted together, as one flat array."""
    n = hi - lo
    kinds = {}
    for i, column in enumerate(columns):
        kinds.setdefault(column.dtype.kind, []).append(i)
    text, fallback = [None] * len(columns), 0
    for kind, members in kinds.items():
        values = np.concatenate([columns[i][lo:hi] for i in members])
        masks = [empty[i] for i in members]
        mask = None
        if any(m is not None for m in masks):
            mask = np.concatenate([np.zeros(n, bool) if m is None else m[lo:hi] for m in masks])
        src, tid, templates, width, slow = _CELLS[kind](values, mask)
        index = templates[:, :width].take(tid, axis=0)
        index += (np.arange(len(tid)) * src.shape[1])[:, None]
        cells = src.reshape(-1).take(index).reshape(len(members), n, width)
        for i, c in zip(members, cells):
            text[i] = c
        fallback += slow
    offsets = np.cumsum([0] + [c.shape[1] + 1 for c in text])
    out = np.zeros((n, offsets[-1]), np.uint8)
    for c, off in zip(text, offsets):
        out[:, off : off + c.shape[1]] = c
        out[:, off + c.shape[1]] = ord(",")
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes(), fallback


def write_table(write, header, columns, empty=None) -> None:
    """Write a CSV table through ``write`` (a callable taking bytes): the
    header row, then one row per entry of the equal-length ``columns``
    (float, integer or bytes arrays); ``empty``, if given, holds a boolean
    mask or None per column, and a masked cell is written empty."""
    columns = [_column(np.asarray(c)) for c in columns]
    empty = [None if m is None else np.asarray(m, bool) for m in (empty or [None] * len(columns))]
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns + [m for m in empty if m is not None]):
        raise ValueError("CSV columns and masks must all have one length")
    write((",".join(header) + "\n").encode("ascii"))
    blocks = fallback = 0
    for lo in range(0, n, BLOCK_ROWS):
        data, slow = _block(columns, empty, lo, min(lo + BLOCK_ROWS, n))
        write(data)
        blocks += 1
        fallback += slow
    logger.debug(
        "csv table: %d rows, %d blocks, %d cells, %d by the %%-format fallback",
        n, blocks, n * len(columns), fallback,
    )
