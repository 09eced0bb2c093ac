"""Brute-force return-time oracles: the ground truth that the closed-form
returns are judged against.

The oracle never touches the piecewise return formulas: it enumerates the
holonomy set inside the vertical strip and reads the return time off the
smallest positive slope.  ``oracle_first_return_batch`` scans many
independent surfaces at once, each with its own cap sequence starting just
above its formula hint, through ``geometry``'s one lattice-box kernel, and
takes each surface's minimum slope straight from the kernel's rows.  Sorting
and deduplicating belong to the enumeration behind the gap sequences and
orbits; the oracle borrows the deduplication only for the doubled holonomy,
whose +-v cosets can repeat a point.  ``section_oracle_returns`` scans the
rows of ``SectionColumns`` of any kind.  ``oracle_strip_slopes`` reads a
surface's first strip slopes off one scan, and ``oracle_orbit`` reads the
returns and the section point after every return off one kernel pass over
the start surface (``transversal.orbit_scan``).  The differential tester
that compares the two, ``measures.diff_test``, samples its inputs beside
the Monte Carlo estimators.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import geometry
from .errors import InvalidInputError, NotOnTransversalError
from .geometry import (
    AffineLattice,
    Mat2,
    SurfaceMode,
    Vec2,
    _dedup_batch,
    _in_strip,
    _strip_rows,
    enumerate_strip,
    slopes_and_gaps,
)
from .transversal import (
    SL,
    OrbitScan,
    SectionColumns,
    orbit_scan,
    orbit_section_coords,
    section_surfaces,
)

# relative error past which a formula return disagrees with the oracle; a
# formula hint's first cap is widened by it
REL_ERR_THRESHOLD = 1e-6
DEFAULT_CAP = 8.0
CAP_LIMIT = 1e18
# distinct strip slopes per unit of slope on a generic surface: coset points
# have density 1 in the strip triangle of area T/2, primitive lattice vectors
# 6/pi^2 of that; the mean return times are the inverses
SLOPE_DENSITY = {
    SurfaceMode.AFFINE_ONLY: 0.5,
    SurfaceMode.DOUBLED_SLIT: 1.0 + 3.0 / math.pi ** 2,
}
CAP_MARGIN = 1.25
NO_RETURN = "no positive-slope holonomy vector found below the cap limit"

logger = logging.getLogger(__name__)


def oracle_first_return_batch(
    g: Mat2,
    v: Vec2,
    mode: SurfaceMode,
    cap_hints=None,
    *,
    lattice: bool = False,
) -> np.ndarray:
    """Smallest positive holonomy slope in the strip of each of many
    independent surfaces g_i*Z^2 + v_i: the ground-truth return times.

    The fields of ``g`` and ``v`` (and ``cap_hints``, where given) are
    arrays or scalars broadcast to one entry per surface.  Vectors with
    |y| <= 1e-12 never count: they are the section's own horizontals.  With
    ``lattice`` each ``AFFINE_ONLY`` surface's candidates are its whole
    lattice (as the coset at v = 0, every point) and its coset, scanned as
    two components of one kernel pass with one cap sequence: the slit-cover
    candidate set that the closed-form return claims to minimize over.

    Each surface keeps its own cap sequence: its hint times 1 +
    ``REL_ERR_THRESHOLD``, the smallest window that holds the true return
    whenever the hint is not discrepant (``DEFAULT_CAP`` when ``cap_hints``
    is None or the hint is non-finite or not positive), doubled only while
    its strip window is empty, so the work stays proportional to the answer,
    and ``NotOnTransversalError`` once a cap passes ``CAP_LIMIT``,
    overflows, or is a doubled cap whose scan the kernel refuses as too
    large.  The minimum over any nonempty window is the same point, computed
    with the same floats, so the caps decide only the work.  Each round
    scans all surfaces still without a return in one pass of the kernel's
    raw rows (``geometry._strip_rows``) and takes each surface's minimum
    y/x; a coset holds no point twice, so only ``DOUBLED_SLIT`` rows are
    first deduplicated (``geometry._dedup_batch``).  Each call logs its
    surfaces, rounds, surfaces re-scanned after round 1, largest cap and
    kernel blocks (``_strip_rows`` calls of ``_box_rows``) at DEBUG level."""
    *fields, hints = np.broadcast_arrays(
        *g, *v, np.nan if cap_hints is None else cap_hints
    )
    fields = [np.atleast_1d(f) for f in fields]
    hints = np.atleast_1d(hints).astype(float)
    with np.errstate(over="ignore"):
        cap = np.where(np.isfinite(hints) & (hints > 0), hints * (1.0 + REL_ERR_THRESHOLD), DEFAULT_CAP)
    out = np.full(len(cap), np.inf)
    todo = np.arange(len(cap))
    rounds = rescanned = blocks = 0
    while todo.size:
        if np.any(cap[todo] > CAP_LIMIT):
            raise NotOnTransversalError(NO_RETURN)
        rounds += 1
        blocks += -(-todo.size // geometry.STRIP_BLOCK)
        sub = fields if todo.size == cap.size else [f[todo] for f in fields]
        try:
            for s, x, y in _strip_rows(Mat2(*sub[:4]), Vec2(*sub[4:]), mode, cap[todo], lattice=lattice):
                if len(s):
                    if mode is SurfaceMode.DOUBLED_SLIT:
                        # when 2v is in the lattice the +v and -v cosets hold
                        # the same points, rounded differently: the minimum
                        # is taken over the copy the enumeration keeps
                        s, xy = _dedup_batch(s, x, y)
                        x, y = xy.T
                    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
                    out[todo[s[first]]] = np.minimum.reduceat(y / x, first)
        except InvalidInputError as exc:
            if rounds > 1:  # a scan refused after doubling: the caps ran away
                raise NotOnTransversalError(NO_RETURN) from exc
            raise
        todo = todo[np.isinf(out[todo])]
        cap[todo] *= 2.0
        if rounds == 1:
            rescanned = todo.size
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "oracle batch (%s%s): %d surfaces, %d rounds, %d re-scanned after round 1, largest cap %.6g, %d kernel blocks",
            mode.value, " + lattice" if lattice else "", len(cap), rounds, rescanned,
            cap.max() if len(cap) else 0.0, blocks,
        )
    return out


def section_oracle_returns(cols: SectionColumns, mode: SurfaceMode, hints) -> np.ndarray:
    """Ground-truth return of every row of ``cols``, scanning its
    ``section_surfaces`` with the per-row cap ``hints`` (an array).

    Under ``DOUBLED_SLIT`` every row scans the full doubled holonomy.  Under
    ``AFFINE_ONLY`` omega and vertical rows scan their marked coset, and sl
    and sa rows the slit-cover candidate set (``oracle_first_return_batch``
    with ``lattice``).
    """
    slit = cols.kind >= SL
    if mode is SurfaceMode.AFFINE_ONLY and slit.any() and not slit.all():
        out = np.empty(len(slit))
        for rows in (slit, ~slit):
            out[rows] = section_oracle_returns(SectionColumns(*(c[rows] for c in cols)), mode, hints[rows])
        return out
    g, v = section_surfaces(cols)
    return oracle_first_return_batch(g, v, mode, hints, lattice=mode is SurfaceMode.AFFINE_ONLY and slit.any())


def _cap_rounds(mode: SurfaceMode, count: int, scan):
    """(cap, rounds, scan(cap)) at the first cap of the strip-slope cap
    sequence whose ``scan`` holds ``count`` slopes; ``scan`` returns the
    slopes first.

    The first cap is ``CAP_MARGIN`` times the slope below which a generic
    surface has ``count`` of them (``SLOPE_DENSITY``), at least
    ``DEFAULT_CAP``, so one scan usually suffices; the cap doubles until the
    scan holds ``count`` slopes, up to ``CAP_LIMIT`` or a doubled cap whose
    scan is too large for the kernel (``NotOnTransversalError``)."""
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    first = cap = max(DEFAULT_CAP, CAP_MARGIN * count / SLOPE_DENSITY[mode])
    rounds = 0
    while cap <= CAP_LIMIT:
        rounds += 1
        try:
            out = scan(cap)
        except InvalidInputError as exc:
            if cap > first:
                raise NotOnTransversalError(NO_RETURN) from exc
            raise
        if len(out[0]) >= count:
            return cap, rounds, out
        cap *= 2.0
    raise NotOnTransversalError(NO_RETURN)


def oracle_strip_slopes(
    surface: AffineLattice, mode: SurfaceMode, count: int
) -> np.ndarray:
    """The first ``count`` distinct positive strip slopes, increasing, from
    ``enumerate_strip`` over the cap sequence of ``_cap_rounds`` (ties
    merged at 1e-12 relative by ``slopes_and_gaps``).  Every cap that holds
    them gives the same slopes."""
    _, _, (slopes,) = _cap_rounds(
        mode, count, lambda cap: (slopes_and_gaps(enumerate_strip(surface, mode, cap)).slopes,)
    )
    return slopes[:count]


def _scan_slopes(scan: OrbitScan, mode: SurfaceMode, cap: float) -> np.ndarray:
    """The distinct strip slopes up to ``cap`` of an ``orbit_scan`` at that
    cap, equal to those of ``enumerate_strip`` at it: the rows of the strip
    window (``_in_strip``) of the coset, or under ``DOUBLED_SLIT`` of the
    primitive lattice and both cosets, deduplicated as ``enumerate_strip``
    does.  A coset holds no point twice, so ``AFFINE_ONLY`` rows skip that."""
    x, y, *_ = scan.lattice
    parts = (*scan.cosets, (x, y)) if mode is SurfaceMode.DOUBLED_SLIT else scan.cosets
    x, y = (np.concatenate(c) for c in zip(*parts))
    keep = _in_strip(x, y, cap)
    x, y = x[keep], y[keep]
    if mode is SurfaceMode.DOUBLED_SLIT:
        return slopes_and_gaps(_dedup_batch(np.zeros(len(x), dtype=np.int64), x, y)[1]).slopes
    return slopes_and_gaps(np.column_stack([x, y])).slopes


def oracle_orbit(surface: AffineLattice, mode: SurfaceMode, count: int):
    """(returns, points) of ``count`` successive oracle returns from
    ``surface``: the gaps between its first ``count`` strip slopes (flowing
    by u lowers every slope by u), the first measured from 0, and the
    ``SectionColumns`` of the section point reached by each, all read off
    one kernel pass over the start surface (``orbit_scan``) at the first cap
    of ``_cap_rounds`` that holds ``count`` slopes.

    Return k lands at the k-th strip slope U_k, so its point is the start
    flowed by U_k: on the affine section under ``AFFINE_ONLY``, on the
    slit-cover section (SL or SA, marking carried) under ``DOUBLED_SLIT``
    (``orbit_section_coords``, one array pass over all the slopes).  The
    slopes come from the pass's coset rows (and under ``DOUBLED_SLIT`` its
    primitive lattice rows, ``_scan_slopes``), the lattice anchors from its
    lattice rows and the alphas from its coset rows.  No step scans or
    recoordinatizes a surface of its own.  Each call logs its mode, steps,
    cap rounds, final cap and rows per component at DEBUG level.
    """
    surface.check()
    slit = mode is SurfaceMode.DOUBLED_SLIT

    def scan(cap):
        rows = orbit_scan(surface.g, surface.v, cap, slit)
        return _scan_slopes(rows, mode, cap), rows

    cap, rounds, (slopes, rows) = _cap_rounds(mode, count, scan)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "oracle orbit (%s): %d steps, %d cap rounds, final cap %.6g, rows per component %s",
            mode.value, count, rounds, cap, [len(rows.lattice[0]), *(len(x) for x, _ in rows.cosets)],
        )
    slopes = slopes[:count]
    return np.diff(slopes, prepend=0.0), orbit_section_coords(surface, slopes, rows, slit=slit)

