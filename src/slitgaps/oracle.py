"""Brute-force return-time oracles and a formula-vs-oracle differential
tester.

The oracle never touches the piecewise return formulas: it enumerates the
holonomy set inside the vertical strip and reads the return time off the
smallest positive slope.  ``oracle_first_return_batch`` scans many
independent surfaces at once, each with its own cap sequence starting just
above its formula hint, through ``geometry``'s one lattice-box kernel, and
takes each surface's minimum slope straight from the kernel's rows.  Sorting
and deduplicating belong to the enumeration behind the gap sequences and
orbits; the oracle borrows the deduplication only for the doubled holonomy,
whose +-v cosets can repeat a point.  ``oracle_first_return`` and
``w_oracle_return`` are size-1 calls of the batch forms.
``section_oracle_returns`` scans the rows of ``SectionColumns`` of any kind.
``oracle_gap_sequence`` reads a whole orbit's returns off one scan, and
``oracle_orbit`` reads the returns and the section point after every return
off one kernel pass over the start surface (``transversal.orbit_scan``).  The differential tester samples a region into
``SectionColumns`` (DeltaR: columns a and b), evaluates the vectorized
formula and the batched oracle once each per chunk of rows, and reports any
relative disagreement above 1e-6 as a counterexample.  Two regions are
expected to disagree (the short-lattice travel-time formula, and the
slit-cover return when the mirrored coset is switched on); disagreement
there is a finding to report, not a failure.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import geometry
from .errors import InvalidInputError, NotOnTransversalError
from .geometry import (
    AffineLattice,
    SCAN_ROW_LIMIT,
    Mat2,
    SurfaceMode,
    Vec2,
    _dedup_batch,
    _in_strip,
    _strip_rows,
    enumerate_strip,
    slopes_and_gaps,
)
from .measures import (
    MeasureSpec,
    _batch_measure,
    _batch_omega,
    _Draws,
    _omega_columns,
    _rows,
    _sl_rows,
    _Stream,
    _triangle_uniform,
    map_chunks,
)
from .transversal import (
    SECTION_KINDS,
    SL,
    OmegaCoords,
    OrbitScan,
    SectionColumns,
    WPointSA,
    WPointSL,
    delta_basis,
    omega_region_vec,
    orbit_scan,
    orbit_section_coords,
    rho_sl_to_sa,
    section_columns,
    section_returns,
    section_surfaces,
)

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
REGIONS = ("DeltaR", "OmegaR", "WslRho", "WReturn")
V_DOMAINS = ("fundamental", "restricted")
NO_RETURN = "no positive-slope holonomy vector found below the cap limit"

logger = logging.getLogger(__name__)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def oracle_first_return(
    surface: AffineLattice,
    mode: SurfaceMode,
    *,
    cap_hint: Optional[float] = None,
) -> float:
    """Smallest positive holonomy slope in the strip: the ground-truth
    return time, as the size-1 call of ``oracle_first_return_batch``.

    The slope cap starts just above the hint (the caller's formula
    prediction when it has one), at hint * (1 + ``REL_ERR_THRESHOLD``), and
    doubles until the strip window is nonempty, so the work stays
    proportional to the answer.  Vectors with |y| <= 1e-12 never
    count: they are the section's own horizontals.
    """
    surface.check()
    return float(oracle_first_return_batch(surface.g, surface.v, mode, cap_hint)[0])


def w_oracle_return(
    surface: AffineLattice,
    *,
    doubled: bool,
    cap_hint: Optional[float] = None,
) -> float:
    """Ground-truth slit-cover return, as the size-1 call of
    ``w_oracle_return_batch``.  With ``doubled`` the full holonomy set
    (lattice and both marked cosets) competes; without it only the lattice
    and the forward coset do, which is exactly the candidate set the
    closed-form return claims to minimize over; both are scanned in one pass
    with one cap sequence."""
    surface.check()
    return float(
        w_oracle_return_batch(surface.g, surface.v, doubled=doubled, cap_hints=cap_hint)[0]
    )


def oracle_first_return_batch(
    g: Mat2,
    v: Vec2,
    mode: SurfaceMode,
    cap_hints=None,
) -> np.ndarray:
    """``oracle_first_return`` of many independent surfaces g_i*Z^2 + v_i.

    The fields of ``g`` and ``v`` (and ``cap_hints``, where given) are
    arrays or scalars broadcast to one entry per surface.  Each surface
    keeps its own cap sequence: its hint times 1 + ``REL_ERR_THRESHOLD``,
    the smallest window that holds the true return whenever the hint is not
    discrepant (``DEFAULT_CAP`` when ``cap_hints`` is None or the hint is
    non-finite or not positive), doubled only while its strip window is
    empty, and ``NotOnTransversalError`` once a cap passes ``CAP_LIMIT``,
    overflows, or is a doubled cap whose scan the kernel refuses as too
    large.  The minimum over any nonempty window is the same point, computed
    with the same floats, so the caps decide only the work.  Each round
    scans all surfaces still without a return in one pass of the kernel's
    raw rows (``geometry._strip_rows``) and takes each surface's minimum
    y/x; a coset holds no point twice, so only ``DOUBLED_SLIT`` rows are
    first deduplicated as ``strip_holonomy_batch`` does.  Each call logs its
    surfaces, rounds, surfaces re-scanned after round 1, largest cap and
    kernel blocks (``_strip_rows`` calls of ``_box_rows``) at DEBUG level."""
    return _first_returns(g, v, mode, cap_hints)


def _first_returns(
    g: Mat2, v: Vec2, mode: SurfaceMode, cap_hints, lattice: bool = False
) -> np.ndarray:
    """The body of ``oracle_first_return_batch``; with ``lattice`` each
    ``AFFINE_ONLY`` surface's candidates are its whole lattice and its
    coset, scanned together (``geometry._strip_rows``)."""
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


def w_oracle_return_batch(
    g: Mat2, v: Vec2, *, doubled: bool, cap_hints=None
) -> np.ndarray:
    """``w_oracle_return`` of many independent surfaces.  Without
    ``doubled`` each surface scans the lattice (as the ``AFFINE_ONLY`` coset
    at v = 0, every point) and the forward coset as two components of one
    kernel pass, with one cap sequence; the union's minimum is the smaller
    of the two components' minima."""
    if doubled:
        return oracle_first_return_batch(g, v, SurfaceMode.DOUBLED_SLIT, cap_hints)
    return _first_returns(g, v, SurfaceMode.AFFINE_ONLY, cap_hints, lattice=True)


def section_oracle_returns(cols: SectionColumns, mode: SurfaceMode, hints) -> np.ndarray:
    """Ground-truth return of every row of ``cols``, scanning its
    ``section_surfaces`` with the per-row cap ``hints`` (an array).

    Under ``DOUBLED_SLIT`` every row scans the full doubled holonomy.  Under
    ``AFFINE_ONLY`` omega and vertical rows scan their marked coset, and sl
    and sa rows the slit-cover candidate set (``w_oracle_return_batch``
    without ``doubled``).
    """
    slit = cols.kind >= SL
    if mode is SurfaceMode.AFFINE_ONLY and slit.any() and not slit.all():
        out = np.empty(len(slit))
        for rows in (slit, ~slit):
            out[rows] = section_oracle_returns(SectionColumns(*(c[rows] for c in cols)), mode, hints[rows])
        return out
    g, v = section_surfaces(cols)
    if mode is SurfaceMode.AFFINE_ONLY and slit.any():
        return w_oracle_return_batch(g, v, doubled=False, cap_hints=hints)
    return oracle_first_return_batch(g, v, mode, hints)


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


def oracle_gap_sequence(
    surface: AffineLattice, mode: SurfaceMode, count: int
) -> np.ndarray:
    """Return times of ``count`` successive section visits: flowing by u
    lowers every strip slope by u, so they are the gaps between the start
    surface's distinct strip slopes, the first measured from 0."""
    return np.diff(oracle_strip_slopes(surface, mode, count), prepend=0.0)


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
    ``surface``: the ``oracle_gap_sequence`` return times, and the
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


# ---------------------------------------------------------------------------
# differential tester

# worked counterexamples and spot checks, always evaluated first
_PROBES = {
    "DeltaR": {"a": [1.0, 0.5], "b": [1.0, 0.75]},
    "OmegaR": section_columns([
        OmegaCoords(0.5, 1.0, 0.2, 0.75), OmegaCoords(0.8, 0.5, 1.0, 0.3), OmegaCoords(0.5, 0.6, 2.0, 0.9),
    ]),
    "WslRho": section_columns([
        WPointSL(0.6, 0.5, 0.3, 0.5), WPointSL(0.6, 0.9, 0.3, 0.5), WPointSL(0.6, 0.5, 0.5, 0.8),
    ]),
    "WReturn": section_columns([
        WPointSA(OmegaCoords(0.5, 0.6, 2.0, 0.9)), WPointSL(0.6, 0.5, 0.5, 0.8), WPointSL(0.6, 0.5, 0.3, 0.5),
    ]),
}

MAX_COUNTEREXAMPLES = 100


def _draw_region(region: str, rng, n: int, v_domain: str):
    """n inputs of the region as ``SectionColumns`` (DeltaR: a dict of
    columns a and b), drawn as one block from the chunk's stream."""
    if region == "WReturn":
        measure = MeasureSpec.haar_w()
        return _batch_measure(measure, _Draws(measure, rng, n), n)[0]
    stream = _Stream(rng)
    if region == "DeltaR":
        a, b = _triangle_uniform(stream, n)
        return {"a": a, "b": b}
    if region == "OmegaR":
        return _batch_omega(_omega_columns(stream, n), n)[0]
    a, b, v1, v2 = _sl_rows(stream, n)
    # WslRho: markings off the domain are drawn again, in rounds, for the
    # same (a, b), each round from where the last one ended
    redo = np.arange(n)
    while (redo := redo[(v1[redo] <= 0) | ((v_domain == "restricted") & (v1[redo] >= a[redo]))]).size:
        _, _, v1[redo], v2[redo] = _sl_rows(stream, redo.size, (a[redo], b[redo]))
    return _rows(SL, a, b, v1, v2)


def _concat(parts: list):
    """Stack columns of one layout; a dict keeps the first part's keys."""
    if isinstance(parts[0], dict):
        return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    return SectionColumns(*map(np.concatenate, zip(*parts)))


def _region_columns(region: str, rngs, v_domain: str):
    """The probes, then the draws of each (rng, count) in turn."""
    return _concat([_PROBES[region]] + [_draw_region(region, rng, ni, v_domain) for rng, ni in rngs])


def _formula_column(region: str, c) -> np.ndarray:
    """The closed-form return of every row, in one vectorized call (WslRho:
    the travel time ``rho_sl_to_sa``)."""
    if region == "DeltaR":
        return 1.0 / (c["a"] * c["b"])
    if region == "WslRho":
        return rho_sl_to_sa(*c[1:])
    return section_returns(c)


def _oracle_column(region: str, c, mode: SurfaceMode, hints) -> np.ndarray:
    """Ground truth of every row, in one batched oracle call.

    DeltaR and OmegaR use their sections' own holonomy (DeltaR's lattice
    scanned once, as the coset at v = 0); WslRho scans the marked coset
    (or the doubled holonomy under doubled mode); WReturn uses the
    slit-cover oracle.
    """
    if region == "DeltaR":
        g = delta_basis(c["a"], c["b"])
        return oracle_first_return_batch(g, Vec2(0.0, 0.0), SurfaceMode.AFFINE_ONLY, hints)
    if region == "WslRho":
        return oracle_first_return_batch(*section_surfaces(c), mode, hints)
    return section_oracle_returns(c, mode if region == "WReturn" else SurfaceMode.AFFINE_ONLY, hints)


def _omega_breakdown(c: SectionColumns, bad: np.ndarray):
    """Discrepant OmegaR rows per region O1-O4, and their 1/b-weighted mass
    as a fraction of all rows' weight."""
    counts = np.bincount(omega_region_vec(*(col[bad] for col in c[1:])), minlength=5)
    w = 1.0 / c.b
    return {f"O{k}": int(counts[k]) for k in range(1, 5)}, float(w[bad].sum() / w.sum())


def _point_dict(region: str, c, i: int) -> dict:
    """Row i's input, as the report prints it."""
    if region == "DeltaR":
        return {k: float(v[i]) for k, v in c.items()}
    kind = int(c.kind[i])
    names = ("a", "b", "v1", "v2") if kind == SL else ("a", "b", "s", "alpha")
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
    drawn and gets both columns on at most ``workers`` threads
    (``map_chunks``), and the chunks are joined in chunk order, so reports
    are byte-identical for fixed (seed, n), whatever ``workers`` is.  Every
    row is held, so n above ``SCAN_ROW_LIMIT`` is refused before drawing.
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
