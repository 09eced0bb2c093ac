"""Brute-force return-time oracles and a formula-vs-oracle differential
tester.

The oracle never touches the piecewise return formulas: it enumerates the
holonomy set inside the vertical strip and reads the return time off the
smallest positive slope.  ``oracle_first_return`` scans one surface;
``oracle_first_return_batch`` scans many independent surfaces in one
vectorized pass with the same cap sequences and bit-identical returns;
``oracle_gap_sequence`` reads a whole orbit's returns off one scan.  The
differential tester samples a region, evaluates the scalar formula on every
point, runs the batched oracle over blocks of points, and reports any
relative disagreement above 1e-6 as a counterexample.  Two regions are
expected to disagree (the short-lattice travel-time formula, and the
slit-cover return when the mirrored coset is switched on); disagreement there
is a finding to report, not a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, NotOnTransversalError
from .geometry import (
    STRIP_BLOCK,
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
    _triangle_uniform,
    worker_streams,
)
from .transversal import (
    DeltaCoords,
    OmegaCoords,
    VLCoords,
    WPointSA,
    WPointSL,
    bcz_return_time,
    delta_basis,
    omega_return_time,
    rho_sl_to_sa,
    sheared_delta_basis,
    w_return_time,
    w_to_surface,
)

REL_ERR_THRESHOLD = 1e-6
DEFAULT_CAP = 8.0
CAP_LIMIT = 1e18
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

    def to_dict(self) -> dict:
        return {
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
    """The first ``count`` distinct positive strip slopes, increasing.  The
    cap doubles from ``DEFAULT_CAP`` until the scan holds that many (ties
    merged at 1e-12 relative by ``slopes_and_gaps``), up to ``CAP_LIMIT``."""
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    cap = DEFAULT_CAP
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


# ---------------------------------------------------------------------------
# differential tester


def _point_dict(region: str, point) -> dict:
    if region == "DeltaR":
        a, b = point
        return {"a": a, "b": b}
    if region == "OmegaR":
        a, b, s, alpha = point
        return {"a": a, "b": b, "s": s, "alpha": alpha}
    if region == "WslRho":
        a, b, v1, v2 = point
        return {"a": a, "b": b, "v1": v1, "v2": v2}
    if isinstance(point, WPointSL):
        return {
            "kind": "sl",
            "a": point.a,
            "b": point.b,
            "v1": point.v1,
            "v2": point.v2,
        }
    p = point.coords
    if isinstance(p, VLCoords):
        return {"kind": "sa-vl", "a": p.a, "s": p.s, "alpha": p.alpha}
    return {"kind": "sa", "a": p.a, "b": p.b, "s": p.s, "alpha": p.alpha}


def _formula(region: str, point) -> float:
    """The scalar closed-form return of one sampled input."""
    if region == "DeltaR":
        return bcz_return_time(DeltaCoords(*point))
    if region == "OmegaR":
        return omega_return_time(OmegaCoords(*point))
    if region == "WslRho":
        return rho_sl_to_sa(*point)
    return w_return_time(point)


def _oracle_batch(region: str, points: list, mode: SurfaceMode, hints) -> list:
    """Ground truth of every sampled input, in one batched oracle call.

    DeltaR and OmegaR use their sections' own holonomy; WslRho scans the
    marked coset (or the doubled holonomy under doubled mode); WReturn uses
    the slit-cover oracle.
    """
    if region == "WReturn":
        surfaces = [w_to_surface(p) for p in points]
        g = Mat2(*np.array([s.g for s in surfaces]).T)
        v = Vec2(*np.array([s.v for s in surfaces]).T)
        out = w_oracle_return_batch(
            g, v, doubled=mode is SurfaceMode.DOUBLED_SLIT, cap_hints=hints
        )
        return out.tolist()
    cols = np.array(points, dtype=float).T
    if region == "DeltaR":
        a, b = cols
        g, v, mode = delta_basis(a, b), Vec2(0.0, 0.0), SurfaceMode.DOUBLED_SLIT
    elif region == "OmegaR":
        a, b, s, alpha = cols
        g, v, mode = sheared_delta_basis(a, b, s), Vec2(alpha, 0.0), SurfaceMode.AFFINE_ONLY
    else:
        a, b, v1, v2 = cols
        g, v = delta_basis(a, b), Vec2(v1, v2)
    return oracle_first_return_batch(g, v, mode, hints).tolist()


_PROBES = {
    # worked counterexamples and spot checks, always evaluated first
    "DeltaR": [(1.0, 1.0), (0.5, 0.75)],
    "OmegaR": [
        (0.5, 1.0, 0.2, 0.75),
        (0.8, 0.5, 1.0, 0.3),
        (0.5, 0.6, 2.0, 0.9),
    ],
    "WslRho": [
        (0.6, 0.5, 0.3, 0.5),
        (0.6, 0.9, 0.3, 0.5),
        (0.6, 0.5, 0.5, 0.8),
    ],
}


def _w_return_probes():
    return [
        WPointSA(OmegaCoords(0.5, 0.6, 2.0, 0.9)),
        WPointSL(0.6, 0.5, 0.5, 0.8),
        WPointSL(0.6, 0.5, 0.3, 0.5),
    ]


def _sample_region(region: str, rng, n: int, v_domain: str):
    """n inputs of the region, as a list of eval-ready points."""
    if region == "DeltaR":
        a, b = _triangle_uniform(rng, n)
        return list(zip(a.tolist(), b.tolist()))
    if region == "OmegaR":
        batch = _batch_omega(rng, n)
        return list(
            zip(
                batch["a"].tolist(),
                batch["b"].tolist(),
                batch["s"].tolist(),
                batch["alpha"].tolist(),
            )
        )
    if region == "WslRho":
        a, b = _triangle_uniform(rng, n)
        out = []
        for i in range(n):
            while True:
                cx, cy = rng.random(), rng.random()
                v1 = a[i] * cx + b[i] * cy
                v2 = cy / a[i]
                if v1 > 0 and (v_domain == "fundamental" or v1 < a[i]):
                    break
            out.append((float(a[i]), float(b[i]), v1, v2))
        return out
    batch = _batch_measure(MeasureSpec.haar_w(), rng, n)
    sl, sa = batch["sl"], batch["sa"]
    out = [
        WPointSL(sl["a"][i], sl["b"][i], sl["v1"][i], sl["v2"][i])
        for i in range(len(sl["a"]))
    ]
    out.extend(
        WPointSA(OmegaCoords(sa["a"][i], sa["b"][i], sa["s"][i], sa["alpha"][i]))
        for i in range(len(sa["a"]))
    )
    return out


def diff_test(
    region: str,
    n: int,
    seed: int,
    mode: Union[SurfaceMode, str] = SurfaceMode.AFFINE_ONLY,
    workers: int = 1,
    *,
    v_domain: str = "fundamental",
    max_counterexamples: int = 100,
) -> DiffReport:
    """Formula vs oracle over n sampled inputs plus the canonical probes.

    DeltaR and OmegaR compare against their sections' own ground truth and
    ignore ``mode``.  WslRho compares the travel-time formula against the
    marked-coset minimum (or the doubled minimum under doubled mode).
    WReturn compares the slit-cover return against its claimed candidate set,
    or against the full doubled holonomy under doubled mode.  ``v_domain``
    ("fundamental" or "restricted") selects whether short-lattice markings
    range over the whole period parallelogram or only 0 < v1 < a.

    Sampling runs serially in the stream layout of ``worker_streams``, so
    reports are byte-identical for fixed (seed, n, workers).
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

    points = list(_PROBES.get(region, [])) if region != "WReturn" else _w_return_probes()
    for rng, ni in worker_streams(n, seed, workers):
        points.extend(_sample_region(region, rng, ni, v_domain))

    max_abs = 0.0
    max_rel = 0.0
    bad = []
    n_bad = 0
    # one strip-scan block of points per oracle call keeps memory flat in n
    for start in range(0, len(points), STRIP_BLOCK):
        chunk = points[start:start + STRIP_BLOCK]
        formulas = [_formula(region, point) for point in chunk]
        oracles = _oracle_batch(region, chunk, mode, formulas)
        for point, f, o in zip(chunk, formulas, oracles):
            abs_err = abs(f - o)
            rel_err = abs_err / max(abs(o), 1e-12)
            max_abs = max(max_abs, abs_err)
            max_rel = max(max_rel, rel_err)
            if rel_err > REL_ERR_THRESHOLD:
                n_bad += 1
                if len(bad) < max_counterexamples:
                    bad.append((_point_dict(region, point), float(f), float(o)))

    return DiffReport(
        region=region,
        samples=len(points),
        seed=seed,
        mode=mode.value,
        workers=workers,
        max_abs_err=float(max_abs),
        max_rel_err=float(max_rel),
        n_discrepant=n_bad,
        threshold=REL_ERR_THRESHOLD,
        counterexamples=tuple(bad),
    )
