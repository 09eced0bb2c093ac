"""Brute-force return-time oracles and a formula-vs-oracle differential
tester.

The oracle never touches the piecewise return formulas: it enumerates the
holonomy set inside the vertical strip and reads the return time off the
smallest positive slope.  ``oracle_first_return`` scans one surface;
``oracle_first_return_batch`` scans many independent surfaces in one
vectorized pass with the same cap sequences and bit-identical returns;
``oracle_gap_sequence`` reads a whole orbit's returns off one scan, and
``oracle_orbit`` adds the section point after every return, read off scans
of the same start surface.  The
differential tester samples a region into columns of arrays, evaluates the
vectorized formula and the batched oracle once each over all of them, and
reports any relative disagreement above 1e-6 as a counterexample.  Two
regions are expected to disagree (the short-lattice travel-time formula, and
the slit-cover return when the mirrored coset is switched on); disagreement
there is a finding to report, not a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, NotOnTransversalError
from .geometry import (
    AffineLattice,
    Mat2,
    SurfaceMode,
    Vec2,
    enumerate_strip,
    slopes_and_gaps,
    strip_holonomy_batch,
)
from .measures import (
    MeasureSpec,
    _batch_measure,
    _batch_omega,
    _oracle_return_omega,
    _oracle_return_w,
    _triangle_uniform,
    omega_region_vec,
    omega_return_vec,
    w_return_sa_vec,
    w_return_sl_vec,
    worker_streams,
)
from .transversal import delta_basis, flowed_section_coords, rho_sl_to_sa

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
NO_RETURN = "no positive-slope holonomy vector found below the cap limit"


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
    return time.

    The slope cap starts at twice the hint (the caller's formula prediction
    when it has one) and doubles until the strip window is nonempty, so the
    work stays proportional to the answer.  Vectors with |y| <= 1e-12 never
    count: they are the section's own horizontals.
    """
    cap = 2.0 * cap_hint if cap_hint is not None and cap_hint > 0 else DEFAULT_CAP
    if not math.isfinite(cap) or cap <= 0:
        cap = DEFAULT_CAP
    while cap <= CAP_LIMIT:
        pts = enumerate_strip(surface, mode, cap)
        if len(pts):
            return float(pts[0, 1] / pts[0, 0])
        cap *= 2.0
    raise NotOnTransversalError(NO_RETURN)


def w_oracle_return(
    surface: AffineLattice,
    *,
    doubled: bool,
    cap_hint: Optional[float] = None,
) -> float:
    """Ground-truth slit-cover return.  With ``doubled`` the full holonomy
    set (lattice and both marked cosets) competes; without it only the
    lattice and the forward coset do, which is exactly the candidate set the
    closed-form return claims to minimize over."""
    if doubled:
        return oracle_first_return(
            surface, SurfaceMode.DOUBLED_SLIT, cap_hint=cap_hint
        )
    lattice_min = oracle_first_return(
        AffineLattice(surface.g, Vec2(0.0, 0.0)),
        SurfaceMode.DOUBLED_SLIT,
        cap_hint=cap_hint,
    )
    coset_min = oracle_first_return(
        surface, SurfaceMode.AFFINE_ONLY, cap_hint=cap_hint
    )
    return min(lattice_min, coset_min)


def oracle_first_return_batch(
    g: Mat2,
    v: Vec2,
    mode: SurfaceMode,
    cap_hints=None,
) -> np.ndarray:
    """``oracle_first_return`` of many independent surfaces g_i*Z^2 + v_i,
    bit-identical to calling it once per surface.

    The fields of ``g`` and ``v`` (and ``cap_hints``, where given) are
    arrays or scalars broadcast to one entry per surface.  Each surface
    keeps its own cap sequence: twice its hint (``DEFAULT_CAP`` when
    ``cap_hints`` is None or the hint is non-finite or not positive), doubled
    only while its strip window is empty, and ``NotOnTransversalError`` past
    ``CAP_LIMIT``.  Each round scans all surfaces still without a return in
    one ``strip_holonomy_batch`` pass.
    """
    *fields, hints = np.broadcast_arrays(
        *g, *v, np.nan if cap_hints is None else cap_hints
    )
    fields = [np.atleast_1d(f) for f in fields]
    hints = np.atleast_1d(hints).astype(float)
    with np.errstate(over="ignore"):
        cap = np.where(hints > 0, 2.0 * hints, DEFAULT_CAP)
    cap = np.where(np.isfinite(cap) & (cap > 0), cap, DEFAULT_CAP)
    out = np.full(len(cap), np.inf)
    todo = np.arange(len(cap))
    while todo.size:
        if np.any(cap[todo] > CAP_LIMIT):
            raise NotOnTransversalError(NO_RETURN)
        sub = fields if todo.size == cap.size else [f[todo] for f in fields]
        for s, xy in strip_holonomy_batch(
            Mat2(*sub[:4]), Vec2(*sub[4:]), mode, cap[todo]
        ):
            if len(s):
                first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
                out[todo[s[first]]] = np.minimum.reduceat(xy[:, 1] / xy[:, 0], first)
        todo = todo[np.isinf(out[todo])]
        cap[todo] *= 2.0
    return out


def w_oracle_return_batch(
    g: Mat2, v: Vec2, *, doubled: bool, cap_hints=None
) -> np.ndarray:
    """``w_oracle_return`` of many independent surfaces, bit-identical to
    calling it once per surface; the lattice and coset minima keep separate
    cap sequences."""
    if doubled:
        return oracle_first_return_batch(g, v, SurfaceMode.DOUBLED_SLIT, cap_hints)
    lattice_min = oracle_first_return_batch(
        g, Vec2(0.0, 0.0), SurfaceMode.DOUBLED_SLIT, cap_hints
    )
    coset_min = oracle_first_return_batch(g, v, SurfaceMode.AFFINE_ONLY, cap_hints)
    return np.minimum(lattice_min, coset_min)


def oracle_strip_slopes(
    surface: AffineLattice, mode: SurfaceMode, count: int
) -> np.ndarray:
    """The first ``count`` distinct positive strip slopes, increasing.

    The first cap is ``CAP_MARGIN`` times the slope below which a generic
    surface has ``count`` of them (``SLOPE_DENSITY``), at least
    ``DEFAULT_CAP``, so one scan usually suffices; the cap doubles until the
    scan holds ``count`` slopes (ties merged at 1e-12 relative by
    ``slopes_and_gaps``), up to ``CAP_LIMIT``.  Every cap that holds them
    gives the same slopes."""
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    cap = max(DEFAULT_CAP, CAP_MARGIN * count / SLOPE_DENSITY[mode])
    while cap <= CAP_LIMIT:
        slopes = slopes_and_gaps(enumerate_strip(surface, mode, cap)).slopes
        if len(slopes) >= count:
            return slopes[:count]
        cap *= 2.0
    raise NotOnTransversalError(NO_RETURN)


def oracle_gap_sequence(
    surface: AffineLattice, mode: SurfaceMode, count: int
) -> np.ndarray:
    """Return times of ``count`` successive section visits: flowing by u
    lowers every strip slope by u, so they are the gaps between the start
    surface's distinct strip slopes, the first measured from 0."""
    return np.diff(oracle_strip_slopes(surface, mode, count), prepend=0.0)


def oracle_orbit(surface: AffineLattice, mode: SurfaceMode, count: int):
    """(returns, points) of ``count`` successive oracle returns from
    ``surface``: the ``oracle_gap_sequence`` return times, and the section
    point reached by each, read off scans of the start surface.

    Return k lands at the k-th strip slope U_k, so its point is the start
    flowed by U_k: on the affine section under ``AFFINE_ONLY``, on the
    slit-cover section (SL or SA, marking carried) under ``DOUBLED_SLIT``
    (``flowed_section_coords``).  No step scans or recoordinatizes a
    surface of its own.
    """
    slopes = oracle_strip_slopes(surface, mode, count)
    points = flowed_section_coords(
        surface, slopes, slit=mode is SurfaceMode.DOUBLED_SLIT
    )
    return np.diff(slopes, prepend=0.0), points


# ---------------------------------------------------------------------------
# differential tester
#
# A region's inputs are columns of arrays: flat regions map each coordinate
# name to one array; WReturn holds its short-lattice rows in "sl", its
# short-affine rows in "sa" (the haar-w sampler's halves) and each row's
# kind, in report order, in "is_sl".

# worked counterexamples and spot checks, always evaluated first
_PROBES = {
    "DeltaR": {"a": [1.0, 0.5], "b": [1.0, 0.75]},
    "OmegaR": {
        "a": [0.5, 0.8, 0.5],
        "b": [1.0, 0.5, 0.6],
        "s": [0.2, 1.0, 2.0],
        "alpha": [0.75, 0.3, 0.9],
    },
    "WslRho": {
        "a": [0.6, 0.6, 0.6],
        "b": [0.5, 0.9, 0.5],
        "v1": [0.3, 0.3, 0.5],
        "v2": [0.5, 0.5, 0.8],
    },
    "WReturn": {
        "sl": {"a": [0.6, 0.6], "b": [0.5, 0.5], "v1": [0.5, 0.3], "v2": [0.8, 0.5]},
        "sa": {"a": [0.5], "b": [0.6], "s": [2.0], "alpha": [0.9]},
        "is_sl": [False, True, True],
    },
}

MAX_COUNTEREXAMPLES = 100


def _draw_region(region: str, rng, n: int, v_domain: str) -> dict:
    """n inputs of the region as columns."""
    if region == "DeltaR":
        a, b = _triangle_uniform(rng, n)
        return {"a": a, "b": b}
    if region == "OmegaR":
        return _batch_omega(rng, n)
    if region == "WslRho":
        a, b = _triangle_uniform(rng, n)
        v1, v2 = np.empty(n), np.empty(n)
        for i in range(n):
            while True:
                cx, cy = rng.random(), rng.random()
                v1[i] = a[i] * cx + b[i] * cy
                v2[i] = cy / a[i]
                if v1[i] > 0 and (v_domain == "fundamental" or v1[i] < a[i]):
                    break
        return {"a": a, "b": b, "v1": v1, "v2": v2}
    batch = _batch_measure(MeasureSpec.haar_w(), rng, n)
    n_sl = len(batch["sl"]["a"])
    batch["is_sl"] = np.arange(n) < n_sl
    return batch


def _concat(parts: list):
    """Stack column dicts of the same shape, keeping the first part's keys."""
    if isinstance(parts[0], dict):
        return {k: _concat([p[k] for p in parts]) for k in parts[0]}
    return np.concatenate(parts)


def _region_columns(region: str, rngs, v_domain: str) -> dict:
    """The probes, then the draws of each (rng, count) in turn."""
    return _concat(
        [_PROBES[region]] + [_draw_region(region, rng, ni, v_domain) for rng, ni in rngs]
    )


def _by_kind(is_sl, sl, sa) -> np.ndarray:
    out = np.empty(len(is_sl))
    out[is_sl], out[~is_sl] = sl, sa
    return out


def _formula_column(region: str, c: dict) -> np.ndarray:
    """The closed-form return of every row, in one vectorized call."""
    if region == "DeltaR":
        return 1.0 / (c["a"] * c["b"])
    if region == "OmegaR":
        return omega_return_vec(c["a"], c["b"], c["s"], c["alpha"])
    if region == "WslRho":
        return rho_sl_to_sa(c["a"], c["b"], c["v1"], c["v2"])
    sl, sa = c["sl"], c["sa"]
    return _by_kind(
        c["is_sl"],
        w_return_sl_vec(sl["a"], sl["b"], sl["v1"], sl["v2"]),
        w_return_sa_vec(sa["a"], sa["b"], sa["s"], sa["alpha"]),
    )


def _oracle_column(region: str, c: dict, mode: SurfaceMode, hints) -> np.ndarray:
    """Ground truth of every row, in one batched oracle call.

    DeltaR and OmegaR use their sections' own holonomy; WslRho scans the
    marked coset (or the doubled holonomy under doubled mode); WReturn uses
    the slit-cover oracle.
    """
    if region == "DeltaR":
        g = delta_basis(c["a"], c["b"])
        return oracle_first_return_batch(g, Vec2(0.0, 0.0), SurfaceMode.DOUBLED_SLIT, hints)
    if region == "OmegaR":
        return _oracle_return_omega(c, SurfaceMode.AFFINE_ONLY, hints)
    if region == "WslRho":
        g = delta_basis(c["a"], c["b"])
        return oracle_first_return_batch(g, Vec2(c["v1"], c["v2"]), mode, hints)
    is_sl = c["is_sl"]
    return _by_kind(is_sl, *_oracle_return_w(c, mode, hints[is_sl], hints[~is_sl]))


def _omega_breakdown(c: dict, bad: np.ndarray):
    """Discrepant OmegaR rows per region O1-O4, and their 1/b-weighted mass
    as a fraction of all rows' weight."""
    counts = np.bincount(omega_region_vec(c["a"], c["b"], c["s"], c["alpha"])[bad], minlength=5)
    w = 1.0 / c["b"]
    return {f"O{k}": int(counts[k]) for k in range(1, 5)}, float(w[bad].sum() / w.sum())


def _point_dict(region: str, c: dict, i: int) -> dict:
    """Row i's input, as the report prints it."""
    if region != "WReturn":
        return {k: float(v[i]) for k, v in c.items()}
    kind = "sl" if c["is_sl"][i] else "sa"
    k = int(np.count_nonzero(c["is_sl"][:i] == c["is_sl"][i]))
    return {"kind": kind, **{key: float(v[k]) for key, v in c[kind].items()}}


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
    gives their 1/b-weighted share (``_omega_breakdown``).  Sampling runs
    serially in the stream layout of ``worker_streams``, so reports are
    byte-identical for fixed (seed, n, workers).
    """
    if region not in REGIONS:
        raise InvalidInputError(f"unknown region {region!r}")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
    if v_domain not in ("fundamental", "restricted"):
        raise InvalidInputError(f"unknown v_domain {v_domain!r}")
    if isinstance(mode, str):
        mode = SurfaceMode(mode)

    cols = _region_columns(region, worker_streams(n, seed, workers), v_domain)
    formula = _formula_column(region, cols)
    oracle = _oracle_column(region, cols, mode, formula)
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
