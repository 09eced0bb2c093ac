"""Samplers for measures on the sections, self-normalized Monte Carlo tail
estimation, and the formula-vs-oracle differential tester.

Measures (haar-omega and haar-w are Lebesgue/Haar in section coordinates;
neither is invariant under the enumerated return maps):

* ``haar-omega`` - Lebesgue ds db da dalpha on the affine section, drawn by
  importance sampling (uniform proposals, weight 1/b per draw since the
  proposal density is b).
* ``haar-w`` - unit-density Lebesgue on the slit-cover section: an SL half
  (triangle x fundamental parallelogram, mass 1/2) and an SA half (the affine
  section, mass pi^2/6).  Draws mix the components 1:2 so the literal weights
  (1 for SL, 1/b for SA) stay proportional across components; absolute masses
  carry the resulting 3/2 scale.
* ``torsion:q`` - markings at the q-torsion point a/q of a triangle-uniform
  lattice; the measure on the BCZ triangle with s = 0.
* ``periodic-omega:a,alpha`` - the circle of vertical-lattice points over a
  fixed (a, alpha), uniform in the shear.
* ``periodic-point`` - the return-map fixed point (1, 1, 0, 0.5).

A sampled batch is ``SectionColumns`` (haar-w: sl rows, then sa rows) and
its weights; ``section_returns`` gives its returns, which the oracle engines
(``oracle.section_oracle_returns``, scanning the holonomy of
``ENGINE_MODES``) take as cap hints.

Orbits: ``orbit`` iterates the section return map from a start row and
gives the orbit as columns of arrays.  The formula engine steps section
rows in closed form (``transversal.section_step``); the oracle engines read
the whole orbit, returns and section points, off one kernel pass over the
start surface (``oracle.oracle_orbit``).

Everything downstream is self-normalized, so reported distributions do not
depend on any overall mass convention.  Reproducibility: a run is determined
by (measure, engine, grid, n, seed).  ``chunk_streams`` is the one sample
layout: chunk k = 0, 1, ... draws min(``CHUNK``, n - k*``CHUNK``) rows from
default_rng([seed, k]): its columns one after another (``_Draws``), each
read at its own position in that PCG64 stream (``_Stream``), so a block of
rows draws only its own rows.  ``map_chunks`` runs a per-chunk function in
at most ``workers`` processes, the caller and forked children (inline in
the caller alone on one), and yields its results in chunk order, so neither
``workers`` nor the core count enters a result.  ``mc_tail`` draws, returns
and bins (``_cells``) each chunk one block of ``BLOCK`` rows at a time,
reduces the blocks to sums and adds those in chunk order, so its memory
stays flat in n and a process holds one block.

Differential tester: ``diff_test`` draws each chunk of the same layout as
one block of a region's rows: DeltaR, OmegaR and WReturn through their
measures (``REGION_MEASURES``), WslRho as short-lattice rows with its
markings redrawn onto the domain.  It evaluates the vectorized formula and
the batched oracle once each per chunk, and reports any relative
disagreement above ``oracle.REL_ERR_THRESHOLD`` as a counterexample.  Two
regions are expected to disagree (the short-lattice travel-time formula, and
the slit-cover return when the mirrored coset is switched on); disagreement
there is a finding to report, not a failure.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EstimationError, InvalidInputError
from .geometry import SCAN_ROW_LIMIT, SurfaceMode, Vec2
from .oracle import REL_ERR_THRESHOLD, oracle_first_return_batch, oracle_orbit, section_oracle_returns
from .transversal import (
    OMEGA,
    SA,
    SECTION_KINDS,
    SL,
    VERTICAL,
    SectionColumns,
    _first_surface,
    check_rows,
    delta_basis,
    omega_region_vec,
    rho_sl_to_sa,
    row_columns,
    section_returns,
    section_step,
    section_surfaces,
)

logger = logging.getLogger(__name__)

FORMULA = "formula"
ORACLE_AFFINE = "oracle-affine"
ORACLE_DOUBLED = "oracle-doubled"
ENGINES = (FORMULA, ORACLE_AFFINE, ORACLE_DOUBLED)
# the holonomy each oracle engine scans
ENGINE_MODES = {ORACLE_AFFINE: SurfaceMode.AFFINE_ONLY, ORACLE_DOUBLED: SurfaceMode.DOUBLED_SLIT}

FIXED_POINT = (1.0, 1.0, 0.0, 0.5)

# SL draws carry weight 1 against proposal density 2 (triangle x unit
# parallelogram); SA draws carry weight 1/b against proposal density b.  With
# mixture probabilities 1/3 : 2/3 both products equal 2/3, so weighted sums
# are 2/3 of Lebesgue and absolute masses need the inverse scale.
W_SL_PROB = 1.0 / 3.0
W_MASS_SCALE = 1.5

# Rows of one chunk of the sample layout (``chunk_streams``).
CHUNK = 1 << 18

# Rows of one block: ``_chunk_stats`` draws, returns and bins a chunk one
# block at a time, so a process holds one block's columns and temporaries.
BLOCK = 1 << 16

COUNT_BINS_MAX = 64  # past it, binary search costs less than counting (``_cells``)


@dataclass(frozen=True)
class MeasureSpec:
    """One of the sampled measures on the sections."""

    kind: str
    q: Optional[int] = None
    a: Optional[float] = None
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind == "torsion":
            if not isinstance(self.q, int) or self.q < 1:
                raise InvalidInputError("torsion order must be an integer >= 1")
        elif self.kind == "periodic-omega":
            if self.a is None or not (0.0 < self.a <= 1.0):
                raise InvalidInputError("periodic-omega needs 0 < a <= 1")
            hi = min(1.0 / self.a, 1.0)
            if self.alpha is None or not (0.0 < self.alpha < hi):
                raise InvalidInputError(
                    f"periodic-omega needs 0 < alpha < {hi}"
                )
        elif self.kind not in ("haar-omega", "haar-w", "periodic-point"):
            raise InvalidInputError(f"unknown measure kind: {self.kind!r}")

    @staticmethod
    def haar_omega() -> "MeasureSpec":
        return MeasureSpec("haar-omega")

    @staticmethod
    def haar_w() -> "MeasureSpec":
        return MeasureSpec("haar-w")

    @staticmethod
    def torsion(q: int) -> "MeasureSpec":
        return MeasureSpec("torsion", q=q)

    @staticmethod
    def periodic_omega(a: float, alpha: float) -> "MeasureSpec":
        return MeasureSpec("periodic-omega", a=a, alpha=alpha)

    @staticmethod
    def parse(text: str) -> "MeasureSpec":
        """Parse CLI syntax: haar-omega | haar-w | torsion:<q> |
        periodic-omega:<a>,<alpha> | periodic-point."""
        name, _, arg = text.partition(":")
        name = name.strip()
        if name == "torsion":
            try:
                return MeasureSpec.torsion(int(arg))
            except ValueError as e:
                raise InvalidInputError(f"bad torsion order {arg!r}") from e
        if name == "periodic-omega":
            parts = arg.split(",")
            if len(parts) != 2:
                raise InvalidInputError("periodic-omega needs a,alpha")
            try:
                a, alpha = map(float, parts)
            except ValueError as e:
                raise InvalidInputError(f"bad periodic-omega point {arg!r}") from e
            return MeasureSpec.periodic_omega(a, alpha)
        if arg:
            raise InvalidInputError(f"measure {name!r} takes no argument")
        return MeasureSpec(name)

    def label(self) -> str:
        if self.kind == "torsion":
            return f"torsion:{self.q}"
        if self.kind == "periodic-omega":
            return f"periodic-omega:{self.a!r},{self.alpha!r}"
        return self.kind


@dataclass(frozen=True)
class TailEstimate:
    """Self-normalized survival curve P(R > t) with delta-method CIs."""

    t_grid: np.ndarray
    survival: np.ndarray
    ci_halfwidth: np.ndarray
    n: int
    seed: int
    engine: str
    measure: MeasureSpec
    workers: int
    n_eff: float
    total_mass: float
    total_mass_se: float
    component_masses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "measure": self.measure.label(),
            "engine": self.engine,
            "n": self.n,
            "seed": self.seed,
            "workers": self.workers,
            "n_eff": float(self.n_eff),
            "total_mass": float(self.total_mass),
            "total_mass_se": float(self.total_mass_se),
            "component_masses": {
                k: float(v) for k, v in sorted(self.component_masses.items())
            },
            "t": [float(t) for t in self.t_grid],
            "survival": [float(s) for s in self.survival],
            "ci_halfwidth": [float(c) for c in self.ci_halfwidth],
        }


# ---------------------------------------------------------------------------
# sample layout; batch samplers: (SectionColumns, weights)


def chunk_streams(n: int, seed: int):
    """Yield (rng, count) of chunk k = 0, 1, ... of n draws: chunk k draws
    min(``CHUNK``, n - k*``CHUNK``) rows from default_rng([seed, k]).

    This is the sample layout: it fixes every sampled value, so results
    depend on (seed, n) alone.  A negative seed raises InvalidInputError.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    for k, start in enumerate(range(0, n, CHUNK)):
        yield np.random.default_rng([seed, k]), min(CHUNK, n - start)


def chunk_workers(n: int, workers: int) -> int:
    """Processes of ``map_chunks``: min(workers, cores, chunks), at least 1 (workers < 1 raises)."""
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
    return max(1, min(workers, os.cpu_count() or 1, -(-n // CHUNK)))


def map_chunks(fn, n: int, seed: int, workers: int):
    """Yield fn(k, rng, count) of every chunk k of ``chunk_streams(n, seed)``,
    in chunk order, on P = ``chunk_workers(n, workers)`` processes.

    Chunk k runs in process k mod P.  Process 0 is the caller, which runs
    its chunks inline; processes 1..P-1 are forked before the first chunk
    (``_forked_chunks``).  The caller runs every chunk itself when P is 1,
    when there is no ``os.fork``, or when other threads are alive (a forked
    child would inherit their locks as they stand).  Whichever process runs
    chunk k draws it from default_rng([seed, k]), so results do not depend
    on P.
    """
    procs = chunk_workers(n, workers)
    if procs == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield from (fn(k, *stream) for k, stream in enumerate(chunk_streams(n, seed)))
    else:
        yield from _forked_chunks(fn, n, seed, procs)


def _forked_chunks(fn, n: int, seed: int, procs: int):
    """``map_chunks`` on the caller and procs - 1 forked children.

    Each child writes the results of its chunks, in chunk order, pickled and
    flushed one by one, to a pipe of its own, and so runs ahead of the
    results yielded by at most a pipe buffer: memory stays flat in n.  An
    exception in a child's chunk comes back as ("err", exc) and is raised at
    that chunk's turn; a pipe that ends without a result raises
    ``ChildProcessError`` naming the chunk.  However the map ends (the last
    chunk, an exception, ``close()``, KeyboardInterrupt), every child is
    killed and reaped before the caller goes on.
    """
    import pickle
    import signal

    pids, pipes = [], [None]  # pipes[i] reads child i
    try:
        for i in range(1, procs):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as out:
                if (pid := os.fork()) == 0:
                    try:
                        # Ctrl-C is the caller's to answer; with no read end
                        # open here, a child whose caller is gone fails its
                        # next write instead of blocking on a full pipe
                        signal.signal(signal.SIGINT, signal.SIG_IGN)
                        for pipe in pipes[1:]:
                            pipe.close()
                        _child_chunks(fn, n, seed, procs, i, out)
                    finally:
                        os._exit(0)  # no atexit handlers, no flush of inherited stdio
            pids.append(pid)
        for k, stream in enumerate(chunk_streams(n, seed)):
            if not k % procs:
                yield fn(k, *stream)
                continue
            try:
                status, value = pickle.load(pipes[k % procs])
            except EOFError:
                raise ChildProcessError(f"chunk {k}: its worker process ended without a result") from None
            if status == "err":
                raise value
            yield value
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes[1:]:
            pipe.close()


def _child_chunks(fn, n: int, seed: int, procs: int, i: int, out) -> None:
    """Body of child i of ``_forked_chunks``: write ("ok", fn(k, rng, count))
    of chunks k = i, i + procs, ... to the file ``out``, or ("err", exc) and
    stop."""
    import pickle

    for k, stream in itertools.islice(enumerate(chunk_streams(n, seed)), i, None, procs):
        try:
            message = ("ok", fn(k, *stream))
        except Exception as exc:
            message = ("err", exc)
        out.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        out.flush()
        if message[0] == "err":
            return


def _uniform_open(rng, n: int, out=None) -> np.ndarray:
    """Uniform on (0, 1]: 1 - rng.random(n), computed in place (in ``out``
    when given)."""
    x = rng.random(n, out=out)
    return np.subtract(1.0, x, out=x)


def _blocks(rows: int):
    """Row counts of ``rows`` rows cut every ``BLOCK`` rows."""
    return (min(BLOCK, rows - start) for start in range(0, rows, BLOCK))


class _Stream:
    """A chunk's PCG64 stream, read at positions.

    A sample layout draws its columns one after another, and
    ``Generator.random`` takes one 64-bit output per double, so row i of a
    column laid out at position p is output p + i.  ``at(pos)`` moves the
    stream's one generator there from the state it started in (PCG64
    ``advance``), and ``column(rows)`` lays out the next column at ``pos``,
    the end of the columns laid out so far.  A block of rows then draws only
    its own rows, and each gets the value a whole-chunk draw gives it.
    """

    def __init__(self, rng):
        self._start = rng.bit_generator.state
        self._bits = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bits)
        self.pos = 0

    def at(self, pos: int) -> np.random.Generator:
        """The stream's generator, ``pos`` outputs past its start (until the next call)."""
        self._bits.state = self._start
        self._bits.advance(pos)
        return self._rng

    def column(self, rows: int) -> "_Column":
        col = _Column(self, self.pos)
        self.pos += rows
        return col


class _Column:
    """One column of a ``_Stream``, read in row order: ``random(m)`` is its
    next m draws."""

    def __init__(self, stream: _Stream, pos: int):
        self.stream, self.pos = stream, pos

    def random(self, m: int, out=None) -> np.ndarray:
        x = self.stream.at(self.pos).random(m, out=out)
        self.pos += m
        return x


class _Triangle:
    """n points (a, b) uniform on the section triangle, read in row order
    from a ``_Stream``.

    Rejection from the square at acceptance rate 1/2, in rounds from the
    stream's ``pos``: a round draws k = max(64, int(2.6 * rows missing))
    candidate a's, then k b's, and keeps the pairs with b > 1 - a in order;
    the next round starts where it ended.  ``take`` reads the candidates in
    pieces of at most ``BLOCK`` as rows are asked for; the read that keeps
    the n-th pair makes its round the last and sets the stream's ``pos``
    past it.
    """

    def __init__(self, stream: _Stream, n: int):
        self.stream, self.n, self.got = stream, n, 0
        self.start, self.k, self.read = stream.pos, self._round(n), 0
        self.kept = (np.empty(0),) * 2

    @staticmethod
    def _round(missing: int) -> int:
        return max(64, int(1.3 * missing * 2)) if missing else 0

    def take(self, m: int, out=None):
        """The next m points, as (a, b) (into ``out`` when given)."""
        a_out, b_out = np.empty((2, m)) if out is None else out
        done = 0
        while done < m:
            if not len(self.kept[0]):
                if self.read == self.k:
                    self.start, self.k, self.read = self.start + 2 * self.k, self._round(self.n - self.got), 0
                step = min(self.k - self.read, 2 * (m - done) + 1024, BLOCK)
                a = _uniform_open(self.stream.at(self.start + self.read), step)
                b = _uniform_open(self.stream.at(self.start + self.k + self.read), step)
                keep = np.flatnonzero(b > 1.0 - a)
                self.kept, self.read, self.got = (a[keep], b[keep]), self.read + step, self.got + keep.size
                if self.got >= self.n:
                    self.stream.pos = self.start + 2 * self.k
            (a, b), t = self.kept, min(len(self.kept[0]), m - done)
            a_out[done:done + t], b_out[done:done + t], self.kept = a[:t], b[:t], (a[t:], b[t:])
            done += t
        return a_out, b_out


def _triangle_uniform(stream: _Stream, n: int):
    """n points (a, b) uniform on the section triangle, drawn from the
    stream's ``pos`` on (``_Triangle``)."""
    return _Triangle(stream, n).take(n)


def _marking(a, b, cx, cy, v1, v2):
    """Short-lattice rows (a, b, v1, v2) with the marking (a cx + b cy, cy / a)
    written into v1 and v2, uniform in the period parallelogram, from the next
    rows of the columns cx and cy."""
    np.multiply(a, cx.random(len(v1), out=v1), out=v1)
    v1 += b * cy.random(len(v2), out=v2)
    return a, b, v1, np.divide(v2, a, out=v2)


def _sl_rows(stream: _Stream, n: int, ab=None):
    """n short-lattice draws (a, b, v1, v2) from the stream's ``pos`` on:
    (a, b) uniform on the triangle (or the given arrays ``ab``), then the
    marking (``_marking``), all cx before all cy."""
    a, b = _triangle_uniform(stream, n) if ab is None else ab
    return _marking(a, b, stream.column(n), stream.column(n), *np.empty((2, n)))


def _rows(kind: int, *cols) -> SectionColumns:
    """``SectionColumns`` whose rows all have the given kind."""
    return SectionColumns(np.full(len(cols[0]), kind, dtype=np.int8), *cols)


def _omega_columns(stream: _Stream, n: int) -> list:
    """The four columns of n affine-section rows, laid out at the stream's
    ``pos``: the uniforms behind a, alpha, b and s (``_batch_omega``)."""
    return [stream.column(n) for _ in range(4)]


def _batch_omega(cols, n: int, out):
    """Importance draws for the affine section from the next n rows of its
    ``_omega_columns``: uniform proposals, weight 1/b, drawn in place into
    ``out``, a pair (omega rows, weights) of n rows, and returned."""
    ua, ualpha, ub, us = cols
    rows, w = out
    _, a, b, s, alpha = rows
    _uniform_open(ua, n, out=a)
    _uniform_open(ualpha, n, out=alpha)
    np.subtract(1.0, a * ub.random(n), out=b)
    np.divide(us.random(n), a * b, out=s)
    np.divide(1.0, b, out=w)
    return rows, w


class _Draws:
    """The sample layout of one chunk of n rows of a measure, read in blocks
    of rows in row order (``_batch_measure``); ``row`` rows are read.

    haar-w draws the component of every row, the triangle of its sl rows,
    their markings (every cx, then every cy) and the four columns of its sa
    rows; haar-omega its four columns, torsion its triangle and
    periodic-omega its shear column.  ``runs`` are the row counts of the
    chunk's runs of one kind: haar-w's sl rows, then its sa rows.  haar-w
    reads its triangle's points in full (``ab``, dropped once its sl rows
    are read) when the chunk is laid out, so that the columns past it start
    where its last rejection round ends.
    """

    def __init__(self, measure: MeasureSpec, rng, n: int):
        self.stream, self.row, self.runs, self.buf = _Stream(rng), 0, (n,), None
        if measure.kind == "haar-w":
            comp, buf = self.stream.column(n), np.empty(min(n, BLOCK))
            n_sl = sum(int(np.count_nonzero(comp.random(m, out=buf[:m]) < W_SL_PROB)) for m in _blocks(n))
            self.runs, self.ab = (n_sl, n - n_sl), _triangle_uniform(self.stream, n_sl)
            self.marks = self.stream.column(n_sl), self.stream.column(n_sl)
            self.omega = _omega_columns(self.stream, n - n_sl)
        elif measure.kind == "haar-omega":
            self.omega = _omega_columns(self.stream, n)
        elif measure.kind == "torsion":
            self.tri = _Triangle(self.stream, n)
        elif measure.kind == "periodic-omega":
            self.shear = self.stream.column(n)

    def blocks(self):
        """Row counts of the blocks: each run cut every ``BLOCK`` rows."""
        return (m for run in self.runs for m in _blocks(run))

    def rows(self, kind: int, n: int):
        """(``SectionColumns`` of n rows of the given kind, weights) to draw
        into: views of buffers that every block of the chunk reuses, so that
        blocks do not allocate and free their largest arrays afresh."""
        if self.buf is None or self.buf.shape[1] < n:
            self.buf, self.kinds = np.empty((5, n)), np.empty(n, dtype=np.int8)
        self.kinds[:n] = kind
        return SectionColumns(self.kinds[:n], *self.buf[:4, :n]), self.buf[4, :n]


def _batch_measure(measure: MeasureSpec, draws: _Draws, n: int):
    """The next n weighted rows of a chunk's ``_Draws``, as
    (``SectionColumns``, weights); haar-omega and haar-w rows are views of
    the chunk's buffers (``_Draws.rows``), valid until its next block is
    drawn.

    haar-w draws each point's component first, then the sl rows (marking
    uniform in the period parallelogram) and the sa rows straight into the
    head and the tail of the same columns.
    """
    row, draws.row = draws.row, draws.row + n
    w = None
    if measure.kind == "haar-omega":
        cols, w = _batch_omega(draws.omega, n, out=draws.rows(OMEGA, n))
    elif measure.kind == "haar-w":
        n_sl = min(max(draws.runs[0] - row, 0), n)
        cols, w = draws.rows(SA, n)
        cols.kind[:n_sl], w[:n_sl] = SL, 1.0
        if n_sl:
            a, b, v1, v2 = (c[:n_sl] for c in cols[1:])
            a[:], b[:] = (x[row:row + n_sl] for x in draws.ab)
            if row + n_sl == draws.runs[0]:
                draws.ab = None  # the sa blocks need none of it
            _marking(a, b, *draws.marks, v1, v2)
        if n_sl < n:
            _batch_omega(draws.omega, n - n_sl, out=(SectionColumns(*(c[n_sl:] for c in cols)), w[n_sl:]))
    elif measure.kind == "torsion":
        a, b = draws.tri.take(n)
        cols = _rows(OMEGA, a, b, np.zeros(n), a / measure.q)
    elif measure.kind == "periodic-omega":
        s = draws.shear.random(n) * measure.a ** 2
        cols = _rows(VERTICAL, np.full(n, measure.a), np.full(n, np.nan), s, np.full(n, measure.alpha))
    elif measure.kind == "periodic-point":
        cols = _rows(OMEGA, *(np.full(n, x) for x in FIXED_POINT))
    else:
        raise InvalidInputError(f"unknown measure kind: {measure.kind!r}")
    return cols, np.ones(n) if w is None else w


def _draw_batch(measure: MeasureSpec, rng, n: int):
    """n weighted rows drawn as one chunk from the state of the Generator
    ``rng``, which is then advanced past them, as one draw after another
    would leave it; the rows are the chunk's own arrays."""
    draws = _Draws(measure, rng, n)
    batch = _batch_measure(measure, draws, n)
    rng.bit_generator.advance(draws.stream.pos)
    return batch


def _returns_for_batch(batch, engine: str, o3=None):
    """(weights, returns) of one sampled batch; ``o3``, when given, marks
    its omega rows in O3 (``section_returns``).  The oracle engines take the
    formula returns as cap hints."""
    cols, w = batch
    r = section_returns(cols, o3)
    if engine != FORMULA:
        r = section_oracle_returns(cols, ENGINE_MODES[engine], r)
    return w, r


def _mass_scale(measure: MeasureSpec) -> float:
    return W_MASS_SCALE if measure.kind == "haar-w" else 1.0


def _cells(grid: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The cell of each return r over the sorted ``grid``: the number of
    thresholds below it, so R > t holds at that many leading grid points,
    and 0 for NaN.  Up to ``COUNT_BINS_MAX`` thresholds it is the sum of
    r > t, counted into uint8; a larger grid is binary searched."""
    if grid.size > COUNT_BINS_MAX:
        return np.where(np.isnan(r), 0, np.searchsorted(grid, r, side="left"))
    cell = np.zeros(r.shape, dtype=np.uint8)
    for t in grid:
        cell += r > t
    return cell


def _chunk_stats(measure: MeasureSpec, engine: str, grid: np.ndarray, rng, n: int):
    """Per-cell sums of w and of w^2 (cells as ``_cells``), and per
    component the sums of w and w^2 over its draws, of n fresh draws from
    ``rng`` over the sorted ``grid``.

    The chunk is drawn (``_Draws``), given its returns and binned one block
    of ``BLOCK`` rows at a time, in row order, and no block holds rows of
    two kinds.  The cell sums accumulate row by row (``np.add.at``), as one
    ``np.bincount`` over the chunk would.  Up to the first block with a
    weight other than 1 they are whole numbers below 2^53, which adding 1.0
    keeps exact, so such blocks add their ``np.bincount`` counts instead:
    haar-w's sl rows and every block of torsion and of the periodic
    measures.  The components: haar-w's sl rows,
    whose masses are counts, their weights being 1, and haar-omega's rows
    in O3, whose weights and mask are kept over the chunk for the pairwise
    sums of its masses.
    """
    draws = _Draws(measure, rng, n)
    sums, sums2 = np.zeros((2, grid.size + 1))
    if measure.kind == "haar-omega":
        w_all, o3 = np.empty(n), np.zeros(n, dtype=bool)
    counts = True  # no block so far had a weight other than 1
    for m in draws.blocks():
        row = draws.row
        batch = _batch_measure(measure, draws, m)
        if measure.kind == "haar-omega":
            w, r = _returns_for_batch(batch, engine, o3[row:row + m])
            w_all[row:row + m] = w
        else:
            w, r = _returns_for_batch(batch, engine)
        cell = _cells(grid, r)
        counts = counts and bool((w == 1.0).all())
        if counts:
            c = np.bincount(cell, minlength=sums.size)
            sums += c
            sums2 += c
        else:
            np.add.at(sums, cell, w)
            np.add.at(sums2, cell, w * w)
    if measure.kind == "haar-w":
        return sums, sums2, {"sl": np.full(2, float(draws.runs[0]))}
    if measure.kind == "haar-omega":
        return sums, sums2, {"omega3": np.array([np.sum(w_all, where=o3), np.sum(w_all * w_all, where=o3)])}
    return sums, sums2, {}


def _mass_se(scale: float, s1: float, s2: float, count: int) -> float:
    """Standard error of the mean of count draws with sum s1 and square sum
    s2 (the ddof=1 sample deviation over sqrt(count))."""
    var = max(s2 - s1 * s1 / count, 0.0) / (count - 1)
    return scale * math.sqrt(var) / math.sqrt(count)


def mc_tail(
    measure: MeasureSpec,
    engine: str,
    t_grid: Sequence[float],
    n: int,
    seed: int,
    workers: int = 1,
) -> TailEstimate:
    """Self-normalized importance estimate of P(R > t) over a grid.

    The estimator is sum(w * [R > t]) / sum(w) with a delta-method CI
    half-width of 1.96 standard errors; n_eff = (sum w)^2 / sum(w^2).
    Each chunk of the sample layout (``chunk_streams``) is drawn and reduced
    to per-grid-cell sums one block of ``BLOCK`` rows at a time
    (``_chunk_stats``) in at most ``workers`` processes (``map_chunks``),
    and the sums are added in chunk order, so memory is bounded by one block
    per process whatever n is.  Results are identical for fixed (seed, n),
    whatever ``workers``, ``BLOCK`` and the core count are.  Logs one DEBUG
    line.
    """
    if engine not in ENGINES:
        raise InvalidInputError(f"unknown engine {engine!r}")
    if n < 1000:
        raise InvalidInputError("tail estimation needs at least 10^3 samples")
    t_grid = np.asarray(list(t_grid), dtype=float)
    if t_grid.size == 0:
        raise InvalidInputError("empty t grid")
    if np.isnan(t_grid).any():
        raise InvalidInputError("NaN threshold in t grid")

    order = np.argsort(t_grid, kind="stable")
    grid = t_grid[order]
    sums = sums2 = 0.0
    comps = {}
    for s1, s2, part in map_chunks(lambda k, *s: _chunk_stats(measure, engine, grid, *s), n, seed, workers):
        sums, sums2 = sums + s1, sums2 + s2
        comps = {name: comps.get(name, 0.0) + pair for name, pair in part.items()}

    # above[c] sums cells c..m, so above[k + 1] is the mass with R > t_k
    above = np.cumsum(sums[::-1])[::-1]
    above2 = np.cumsum(sums2[::-1])[::-1]
    below2 = np.cumsum(sums2)
    wsum = float(above[0])
    if not np.isfinite(wsum) or wsum <= 0:
        raise EstimationError("degenerate total weight")
    n_eff = wsum ** 2 / float(above2[0])
    # a haar-w chunk also ends a block at its sl rows' end
    logger.debug("mc_tail %s (%s): %d rows, %d chunks of at most %d blocks of %d rows, %d process(es), "
                 "%d thresholds binned by %s, n_eff %.6g",
                 measure.label(), engine, n, -(-n // CHUNK),
                 -(-min(n, CHUNK) // BLOCK) + (measure.kind == "haar-w"), BLOCK,
                 chunk_workers(n, workers), grid.size, "search" if grid.size > COUNT_BINS_MAX else "count", n_eff)

    p = above[1:] / wsum
    var = (1.0 - p) ** 2 * above2[1:] + p ** 2 * below2[:-1]
    survival, ci = np.empty((2, t_grid.size))
    survival[order], ci[order] = p, 1.96 * np.sqrt(var) / wsum

    scale = _mass_scale(measure)
    masses = {}
    for name, (s1, s2) in comps.items():
        masses[name] = scale * s1 / n
        masses[name + "_se"] = _mass_se(scale, s1, s2, n)
    return TailEstimate(
        t_grid=t_grid,
        survival=survival,
        ci_halfwidth=ci,
        n=n,
        seed=seed,
        engine=engine,
        measure=measure,
        workers=workers,
        n_eff=n_eff,
        total_mass=scale * wsum / n,
        total_mass_se=_mass_se(scale, wsum, float(above2[0]), n),
        component_masses=masses,
    )


# ---------------------------------------------------------------------------
# differential tester: formula against oracle over sampled regions

REGIONS = ("DeltaR", "OmegaR", "WslRho", "WReturn")
V_DOMAINS = ("fundamental", "restricted")
MAX_COUNTEREXAMPLES = 100

# the regions drawn as the rows of a measure; WslRho draws its own
REGION_MEASURES = {
    "DeltaR": MeasureSpec.torsion(1), "OmegaR": MeasureSpec.haar_omega(), "WReturn": MeasureSpec.haar_w(),
}

# worked counterexamples and spot checks, always evaluated first
_PROBES = {
    "DeltaR": row_columns([(OMEGA, 1.0, 1.0, 0.0, 1.0), (OMEGA, 0.5, 0.75, 0.0, 0.5)]),
    "OmegaR": row_columns([(OMEGA, 0.5, 1.0, 0.2, 0.75), (OMEGA, 0.8, 0.5, 1.0, 0.3), (OMEGA, 0.5, 0.6, 2.0, 0.9)]),
    "WslRho": row_columns([(SL, 0.6, 0.5, 0.3, 0.5), (SL, 0.6, 0.9, 0.3, 0.5), (SL, 0.6, 0.5, 0.5, 0.8)]),
    "WReturn": row_columns([(SA, 0.5, 0.6, 2.0, 0.9), (SL, 0.6, 0.5, 0.5, 0.8), (SL, 0.6, 0.5, 0.3, 0.5)]),
}


@dataclass(frozen=True)
class DiffReport:
    region: str
    samples: int
    seed: int
    mode: str
    workers: int
    max_abs_err: float
    max_rel_err: float
    n_discrepant: int
    threshold: float
    counterexamples: tuple
    # OmegaR only: discrepant rows per region O1-O4, and their share of the
    # 1/b (haar-omega importance) weight of all rows
    discrepant_by_region: Optional[dict] = None
    discrepant_weight_fraction: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "region": self.region,
            "samples": self.samples,
            "seed": self.seed,
            "mode": self.mode,
            "workers": self.workers,
            "max_abs_err": self.max_abs_err,
            "max_rel_err": self.max_rel_err,
            "n_discrepant": self.n_discrepant,
            "threshold": self.threshold,
            "counterexamples": [
                {"input": inp, "formula": f, "oracle": o}
                for (inp, f, o) in self.counterexamples
            ],
        }
        if self.discrepant_by_region is not None:
            out["discrepant_by_region"] = dict(self.discrepant_by_region)
            out["discrepant_weight_fraction"] = self.discrepant_weight_fraction
        return out


def _draw_region(region: str, rng, n: int, v_domain: str) -> SectionColumns:
    """n inputs of the region, drawn as one block from the chunk's stream:
    the rows of its measure (``REGION_MEASURES``, DeltaR's torsion:1 rows
    marked at the lattice point), or WslRho's short-lattice rows."""
    if region in REGION_MEASURES:
        return _draw_batch(REGION_MEASURES[region], rng, n)[0]
    stream = _Stream(rng)
    a, b, v1, v2 = _sl_rows(stream, n)
    # WslRho: markings off the domain are drawn again, in rounds, for the
    # same (a, b), each round from where the last one ended
    redo = np.arange(n)
    while (redo := redo[(v1[redo] <= 0) | ((v_domain == "restricted") & (v1[redo] >= a[redo]))]).size:
        _, _, v1[redo], v2[redo] = _sl_rows(stream, redo.size, (a[redo], b[redo]))
    return _rows(SL, a, b, v1, v2)


def _concat(parts: list) -> SectionColumns:
    """Stack ``SectionColumns``."""
    return SectionColumns(*map(np.concatenate, zip(*parts)))


def _region_columns(region: str, rngs, v_domain: str) -> SectionColumns:
    """The probes, then the draws of each (rng, count) in turn."""
    return _concat([_PROBES[region]] + [_draw_region(region, rng, ni, v_domain) for rng, ni in rngs])


def _formula_column(region: str, c: SectionColumns) -> np.ndarray:
    """The closed-form return of every row, in one vectorized call (DeltaR:
    the lattice return 1/(ab); WslRho: the travel time ``rho_sl_to_sa``)."""
    if region == "DeltaR":
        return 1.0 / (c.a * c.b)
    if region == "WslRho":
        return rho_sl_to_sa(*c[1:])
    return section_returns(c)


def _oracle_column(region: str, c: SectionColumns, mode: SurfaceMode, hints) -> np.ndarray:
    """Ground truth of every row, in one batched oracle call.

    DeltaR and OmegaR use their sections' own holonomy (DeltaR's lattice
    scanned once, as the coset at v = 0); WslRho scans the marked coset
    (or the doubled holonomy under doubled mode); WReturn uses the
    slit-cover oracle.
    """
    if region == "DeltaR":
        return oracle_first_return_batch(delta_basis(c.a, c.b), Vec2(0.0, 0.0), SurfaceMode.AFFINE_ONLY, hints)
    if region == "WslRho":
        return oracle_first_return_batch(*section_surfaces(c), mode, hints)
    return section_oracle_returns(c, mode if region == "WReturn" else SurfaceMode.AFFINE_ONLY, hints)


def _omega_breakdown(c: SectionColumns, bad: np.ndarray):
    """Discrepant OmegaR rows per region O1-O4, and their 1/b-weighted mass
    as a fraction of all rows' weight."""
    counts = np.bincount(omega_region_vec(*(col[bad] for col in c[1:])), minlength=5)
    w = 1.0 / c.b
    return {f"O{k}": int(counts[k]) for k in range(1, 5)}, float(w[bad].sum() / w.sum())


def _point_dict(region: str, c: SectionColumns, i: int) -> dict:
    """Row i's input, as the report prints it (DeltaR: a and b)."""
    kind = int(c.kind[i])
    names = ("a", "b") if region == "DeltaR" else ("a", "b", "v1", "v2") if kind == SL else ("a", "b", "s", "alpha")
    point = {k: float(v[i]) for k, v in zip(names, c[1:])}
    return {"kind": SECTION_KINDS[kind], **point} if region == "WReturn" else point


def diff_test(
    region: str,
    n: int,
    seed: int,
    mode: Union[SurfaceMode, str] = SurfaceMode.AFFINE_ONLY,
    workers: int = 1,
    *,
    v_domain: str = "fundamental",
) -> DiffReport:
    """Formula vs oracle over n sampled inputs plus the canonical probes.

    DeltaR and OmegaR compare against their sections' own ground truth and
    ignore ``mode``.  WslRho compares the travel-time formula against the
    marked-coset minimum (or the doubled minimum under doubled mode).
    WReturn compares the slit-cover return against its claimed candidate set,
    or against the full doubled holonomy under doubled mode.  ``v_domain``
    ("fundamental" or "restricted") selects whether short-lattice markings
    range over the whole period parallelogram or only 0 < v1 < a.

    The inputs stay columns of arrays: the formula column is one vectorized
    call, the oracle column one batched scan with the formula values as cap
    hints.  A row is discrepant when its relative error exceeds
    ``REL_ERR_THRESHOLD``; the first ``MAX_COUNTEREXAMPLES`` of them are
    reported, and an OmegaR report also counts them per region O1-O4 and
    gives their 1/b-weighted share (``_omega_breakdown``).  Each chunk of
    the sample layout (``chunk_streams``; chunk 0 after the probes) is
    drawn and gets both columns in at most ``workers`` processes
    (``map_chunks``), as ``mc_tail``'s chunks are, and the chunks are
    joined in chunk order, so reports are byte-identical for fixed
    (seed, n), whatever ``workers`` is.  Every row is held, so n above
    ``SCAN_ROW_LIMIT`` is refused before drawing.
    """
    if region not in REGIONS:
        raise InvalidInputError(f"unknown region {region!r}")
    if not 1 <= n <= SCAN_ROW_LIMIT:
        raise InvalidInputError(f"samples must be from 1 to {SCAN_ROW_LIMIT} (difftest holds every row), got {n}")
    if v_domain not in V_DOMAINS:
        raise InvalidInputError(f"unknown v_domain {v_domain!r}")
    try:
        mode = SurfaceMode(mode)
    except ValueError as exc:
        raise InvalidInputError(f"unknown mode {mode!r}") from exc

    def chunk(k, rng, count):
        c = _draw_region(region, rng, count, v_domain) if k else _region_columns(region, [(rng, count)], v_domain)
        formula = _formula_column(region, c)
        return c, formula, _oracle_column(region, c, mode, formula)

    cols, formula, oracle = zip(*map_chunks(chunk, n, seed, workers))
    cols, formula, oracle = _concat(cols), np.concatenate(formula), np.concatenate(oracle)
    abs_err = np.abs(formula - oracle)
    rel_err = abs_err / np.maximum(np.abs(oracle), 1e-12)
    bad = np.flatnonzero(rel_err > REL_ERR_THRESHOLD)
    by_region, weight_fraction = _omega_breakdown(cols, bad) if region == "OmegaR" else (None, None)

    return DiffReport(
        region=region,
        samples=len(formula),
        seed=seed,
        mode=mode.value,
        workers=workers,
        max_abs_err=float(abs_err.max()),
        max_rel_err=float(rel_err.max()),
        n_discrepant=len(bad),
        threshold=REL_ERR_THRESHOLD,
        counterexamples=tuple(
            (_point_dict(region, cols, i), float(formula[i]), float(oracle[i]))
            for i in bad[:MAX_COUNTEREXAMPLES]
        ),
        discrepant_by_region=by_region,
        discrepant_weight_fraction=weight_fraction,
    )


def _oracle_surface(start: SectionColumns, engine: str):
    """(surface, holonomy mode) that the oracle engine scans at the row of
    ``start``."""
    mode = ENGINE_MODES[engine]
    if mode is SurfaceMode.AFFINE_ONLY and start.kind[0] in (SL, SA):
        raise InvalidInputError("affine-oracle orbits need affine-section coordinates")
    return _first_surface(start), mode


def orbit(start: SectionColumns, engine: str, n_steps: int):
    """Yield the first ``n_steps`` returns from the one row of ``start`` as
    one block of columns: the return times, and the ``SectionColumns`` of
    the point each step reaches.  Nothing is computed until the block is
    asked for; a start out of range then raises its ``check_rows`` error.

    The formula engine steps rows in closed form (``section_step``), each
    step starting where the last one landed, and builds the columns once
    from its rows.  The oracle engines read the whole orbit off one kernel
    pass over the start's surface (``oracle_orbit``): the affine oracle
    stays on the affine section and needs an omega or vertical start, the
    doubled oracle follows the slit-cover section (so a point may be a
    short-lattice state).  Their points agree with flowing and
    recoordinatizing step by step up to rounding.  The block holds every
    step, so more than ``SCAN_ROW_LIMIT`` steps raise ``InvalidInputError``
    before the first.
    """
    if engine not in ENGINES:
        raise InvalidInputError(f"unknown engine {engine!r}")
    if n_steps > SCAN_ROW_LIMIT:
        raise InvalidInputError(f"orbit steps must be at most {SCAN_ROW_LIMIT} (an orbit holds every step), got {n_steps}")
    check_rows(start)
    if engine == FORMULA or n_steps < 1:
        row, returns, rows = tuple(c[0].item() for c in start), [], []
        for _ in range(n_steps):
            u, row = section_step(*row)
            returns.append(u)
            rows.append(row)
        yield np.array(returns, dtype=float), row_columns(rows)
    else:
        yield oracle_orbit(*_oracle_surface(start, engine), n_steps)
