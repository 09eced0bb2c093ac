"""Samplers for the classified invariant measures and self-normalized Monte
Carlo tail estimation.

Measures:

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

Orbits: ``orbit`` iterates the section return map.  The formula engine
steps in closed form; the oracle engines read the whole orbit, returns and
section points, off scans of the start surface (``oracle.oracle_orbit``), and
``ergodic_average`` reads their returns off one strip scan.

Everything downstream is self-normalized, so reported distributions do not
depend on any overall mass convention.  Reproducibility: a run is determined
by (measure, engine, grid, n, seed, workers); ``worker_streams`` fixes the
stream layout and results merge in worker order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EstimationError, InvalidInputError
from .geometry import SurfaceMode, Vec2, horocycle_apply
from .transversal import (
    OmegaCoords,
    VLCoords,
    WPointSA,
    WPointSL,
    advance_omega,
    delta_basis,
    omega_return_time,
    omega_to_surface,
    sheared_delta_basis,
    vertical_basis,
    w_return_time,
    w_section_coords,
    w_to_surface,
)

FORMULA = "formula"
ORACLE_AFFINE = "oracle-affine"
ORACLE_DOUBLED = "oracle-doubled"
ENGINES = (FORMULA, ORACLE_AFFINE, ORACLE_DOUBLED)

FIXED_POINT = (1.0, 1.0, 0.0, 0.5)

# SL draws carry weight 1 against proposal density 2 (triangle x unit
# parallelogram); SA draws carry weight 1/b against proposal density b.  With
# mixture probabilities 1/3 : 2/3 both products equal 2/3, so weighted sums
# are 2/3 of Lebesgue and absolute masses need the inverse scale.
W_SL_PROB = 1.0 / 3.0
W_MASS_SCALE = 1.5


@dataclass(frozen=True)
class MeasureSpec:
    """One of the ergodic invariant measures of the section dynamics."""

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
    def periodic_point() -> "MeasureSpec":
        return MeasureSpec("periodic-point")

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
            return MeasureSpec.periodic_omega(float(parts[0]), float(parts[1]))
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
class WeightedSample:
    point: Union[OmegaCoords, VLCoords, WPointSL, WPointSA]
    weight: float


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

    def rows(self):
        for t, sv, ci in zip(self.t_grid, self.survival, self.ci_halfwidth):
            yield (float(t), float(sv), float(ci), float(self.n_eff))

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# batch samplers (structure-of-arrays; the WeightedSample API wraps them)


def worker_streams(n: int, seed: int, workers: int):
    """Yield (rng, count) per worker: worker i draws its share of the n
    points (n // workers, one more for the first n % workers) from
    default_rng([seed, i]); workers with no share are skipped.

    This split is the stream layout: it fixes every sampled value, so
    results depend on (seed, n, workers).
    """
    for i in range(workers):
        ni = n // workers + (1 if i < n % workers else 0)
        if ni:
            yield np.random.default_rng([seed, i]), ni


def _uniform_open(rng, n: int) -> np.ndarray:
    """Uniform on (0, 1]."""
    return 1.0 - rng.random(n)


def _triangle_uniform(rng, n: int):
    """(a, b) uniform on the section triangle, by rejection from the square.

    Acceptance rate 1/2; draws chunk until n points are kept, so the stream
    consumption is data-dependent but fully determined by the rng state.
    """
    a_out = np.empty(n)
    b_out = np.empty(n)
    got = 0
    while got < n:
        k = max(64, int(1.3 * (n - got) * 2))
        a = _uniform_open(rng, k)
        b = _uniform_open(rng, k)
        keep = b > 1.0 - a
        take = min(int(keep.sum()), n - got)
        idx = np.flatnonzero(keep)[:take]
        a_out[got:got + take] = a[idx]
        b_out[got:got + take] = b[idx]
        got += take
    return a_out, b_out


def _batch_omega(rng, n: int) -> dict:
    """Importance draws for the affine section: uniform proposals, weight 1/b."""
    a = _uniform_open(rng, n)
    alpha = _uniform_open(rng, n)
    b = 1.0 - a * rng.random(n)
    s = rng.random(n) / (a * b)
    return {"a": a, "b": b, "s": s, "alpha": alpha, "w": 1.0 / b}


def _batch_measure(measure: MeasureSpec, rng, n: int) -> dict:
    """Draw n weighted points of the given measure as arrays.

    Omega-type measures return keys (a, b, s, alpha, w) plus optional "vl"
    (a, s, alpha for vertical-lattice points).  haar-w returns a composite
    with "sl" (a, b, v1, v2, w) and "sa" (omega-style) plus "sl_mask" giving
    each draw's component in stream order.
    """
    if measure.kind == "haar-omega":
        return _batch_omega(rng, n)
    if measure.kind == "torsion":
        a, b = _triangle_uniform(rng, n)
        return {
            "a": a,
            "b": b,
            "s": np.zeros(n),
            "alpha": a / measure.q,
            "w": np.ones(n),
        }
    if measure.kind == "periodic-omega":
        s = rng.random(n) * measure.a ** 2
        return {
            "vl": True,
            "a": np.full(n, measure.a),
            "s": s,
            "alpha": np.full(n, measure.alpha),
            "w": np.ones(n),
        }
    if measure.kind == "periodic-point":
        a, b, s, alpha = FIXED_POINT
        return {
            "a": np.full(n, a),
            "b": np.full(n, b),
            "s": np.full(n, s),
            "alpha": np.full(n, alpha),
            "w": np.ones(n),
        }
    if measure.kind == "haar-w":
        sl_mask = rng.random(n) < W_SL_PROB
        n_sl = int(sl_mask.sum())
        a, b = _triangle_uniform(rng, n_sl)
        cx = rng.random(n_sl)
        cy = rng.random(n_sl)
        sl = {
            "a": a,
            "b": b,
            "v1": a * cx + b * cy,
            "v2": cy / a,
            "w": np.ones(n_sl),
        }
        sa = _batch_omega(rng, n - n_sl)
        return {"sl_mask": sl_mask, "sl": sl, "sa": sa}
    raise InvalidInputError(f"unknown measure kind: {measure.kind!r}")


def sample(measure: MeasureSpec, rng) -> WeightedSample:
    """Draw one weighted point (the per-point face of the batch samplers)."""
    batch = _batch_measure(measure, rng, 1)
    if measure.kind == "haar-w":
        if batch["sl_mask"][0]:
            sl = batch["sl"]
            return WeightedSample(
                WPointSL(sl["a"][0], sl["b"][0], sl["v1"][0], sl["v2"][0]), 1.0
            )
        sa = batch["sa"]
        p = OmegaCoords(sa["a"][0], sa["b"][0], sa["s"][0], sa["alpha"][0])
        return WeightedSample(WPointSA(p), float(sa["w"][0]))
    if batch.get("vl"):
        p = VLCoords(batch["a"][0], batch["s"][0], batch["alpha"][0])
        return WeightedSample(p, float(batch["w"][0]))
    p = OmegaCoords(batch["a"][0], batch["b"][0], batch["s"][0], batch["alpha"][0])
    return WeightedSample(p, float(batch["w"][0]))


# ---------------------------------------------------------------------------
# vectorized formula returns


def omega_return_vec(a, b, s, alpha) -> np.ndarray:
    """Vectorized affine-section return time (generic coordinates)."""
    a, b, s, alpha = map(np.asarray, (a, b, s, alpha))
    upper = alpha > a
    with np.errstate(divide="ignore", invalid="ignore"):
        thr = (alpha - a) / (a * b * alpha)
        o1 = upper & (s < thr)
        o3 = ~upper & (b + alpha < 1.0)
        j = np.floor((1.0 + a - alpha) / b + 1e-12)
        out = (j * (1.0 / a - s * b) + s * a) / (alpha - a + j * b)
        out = np.where(o1, s * a / (alpha - a), out)
        out = np.where(o3, (1.0 / a - s * b) / (b + alpha), out)
    return out


def omega_region_vec(a, b, s, alpha) -> np.ndarray:
    """Vectorized region labels 1-4 (generic coordinates)."""
    a, b, s, alpha = map(np.asarray, (a, b, s, alpha))
    upper = alpha > a
    thr = np.where(upper, (alpha - a) / (a * b * alpha), np.inf)
    out = np.where(upper, np.where(s < thr, 1, 2), np.where(b + alpha < 1.0, 3, 4))
    return out


def w_return_sl_vec(a, b, v1, v2) -> np.ndarray:
    """Vectorized slit-cover return on short-lattice points."""
    a, b, v1, v2 = map(np.asarray, (a, b, v1, v2))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(b + v1 <= 1.0, v2 / v1, 1.0 / (a * b))
    return out


def w_return_sa_vec(a, b, s, alpha) -> np.ndarray:
    """Vectorized slit-cover return on short-affine points: the lattice
    return 1/(ab) - s except where the marking lands first."""
    a, b, s, alpha = map(np.asarray, (a, b, s, alpha))
    upper = alpha > a
    with np.errstate(divide="ignore", invalid="ignore"):
        thr = (alpha - a) / (a * b * alpha)
        o1 = upper & (s < thr)
        o3 = ~upper & (b + alpha < 1.0)
        out = 1.0 / (a * b) - s
        out = np.where(o1, s * a / (alpha - a), out)
        out = np.where(o3, (1.0 / a - s * b) / (b + alpha), out)
    return out


# ---------------------------------------------------------------------------
# oracle-engine evaluation (batched strip scans, bit-identical to per point)


def _oracle_return_omega(batch: dict, mode: SurfaceMode, hints) -> np.ndarray:
    """Oracle returns of an omega-type batch, capped from ``hints``."""
    from .oracle import oracle_first_return_batch

    a, s, alpha = batch["a"], batch["s"], batch["alpha"]
    if batch.get("vl"):
        g = vertical_basis(a, s)
    else:
        g = sheared_delta_basis(a, batch["b"], s)
    return oracle_first_return_batch(g, Vec2(alpha, 0.0), mode, hints)


def _oracle_return_w(batch: dict, mode: SurfaceMode, hints_sl, hints_sa):
    """Slit-cover oracle returns of a haar-w batch's SL and SA halves."""
    from .oracle import w_oracle_return_batch

    doubled = mode is SurfaceMode.DOUBLED_SLIT
    sl, sa = batch["sl"], batch["sa"]
    r_sl = w_oracle_return_batch(
        delta_basis(sl["a"], sl["b"]),
        Vec2(sl["v1"], sl["v2"]),
        doubled=doubled,
        cap_hints=hints_sl,
    )
    r_sa = w_oracle_return_batch(
        sheared_delta_basis(sa["a"], sa["b"], sa["s"]),
        Vec2(sa["alpha"], 0.0),
        doubled=doubled,
        cap_hints=hints_sa,
    )
    return r_sl, r_sa


def _returns_for_batch(measure: MeasureSpec, batch: dict, engine: str):
    """(weights, returns, component masks) for one sampled batch.  The
    oracle engines take the formula returns as cap hints."""
    mode = SurfaceMode.DOUBLED_SLIT if engine == ORACLE_DOUBLED else SurfaceMode.AFFINE_ONLY
    if measure.kind == "haar-w":
        sl, sa = batch["sl"], batch["sa"]
        r_sl = w_return_sl_vec(sl["a"], sl["b"], sl["v1"], sl["v2"])
        r_sa = w_return_sa_vec(sa["a"], sa["b"], sa["s"], sa["alpha"])
        if engine != FORMULA:
            r_sl, r_sa = _oracle_return_w(batch, mode, r_sl, r_sa)
        w = np.concatenate([sl["w"], sa["w"]])
        r = np.concatenate([r_sl, r_sa])
        comp = {
            "sl": np.concatenate(
                [np.ones(len(r_sl), bool), np.zeros(len(r_sa), bool)]
            )
        }
        return w, r, comp
    if batch.get("vl"):
        r = batch["a"] / batch["alpha"]
    else:
        r = omega_return_vec(batch["a"], batch["b"], batch["s"], batch["alpha"])
    if engine != FORMULA:
        r = _oracle_return_omega(batch, mode, r)
    comp = {}
    if measure.kind == "haar-omega":
        comp["omega3"] = (
            omega_region_vec(batch["a"], batch["b"], batch["s"], batch["alpha"]) == 3
        )
    return batch["w"], r, comp


def _mass_scale(measure: MeasureSpec) -> float:
    return W_MASS_SCALE if measure.kind == "haar-w" else 1.0


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
    The estimate runs serially; ``workers`` only splits the random streams
    (see ``worker_streams``), so results are identical for fixed (seed,
    workers) and change with ``workers``.
    """
    if engine not in ENGINES:
        raise InvalidInputError(f"unknown engine {engine!r}")
    if n < 1000:
        raise InvalidInputError("tail estimation needs at least 10^3 samples")
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
    t_grid = np.asarray(list(t_grid), dtype=float)
    if t_grid.size == 0:
        raise InvalidInputError("empty t grid")
    if np.isnan(t_grid).any():
        raise InvalidInputError("NaN threshold in t grid")

    ws, rs, comps = [], [], []
    for rng, ni in worker_streams(n, seed, workers):
        batch = _batch_measure(measure, rng, ni)
        w, r, comp = _returns_for_batch(measure, batch, engine)
        ws.append(w)
        rs.append(r)
        comps.append(comp)
    w = np.concatenate(ws)
    r = np.concatenate(rs)
    comp_masks = {
        k: np.concatenate([c[k] for c in comps]) for k in (comps[0] or {})
    }

    wsum = float(w.sum())
    if not np.isfinite(wsum) or wsum <= 0:
        raise EstimationError("degenerate total weight")
    n_eff = wsum ** 2 / float((w * w).sum())

    survival = np.empty(t_grid.shape)
    ci = np.empty(t_grid.shape)
    for k, t in enumerate(t_grid):
        ind = (r > t).astype(float)
        p = float((w * ind).sum()) / wsum
        resid = w * (ind - p)
        se = math.sqrt(float((resid * resid).sum())) / wsum
        survival[k] = p
        ci[k] = 1.96 * se

    scale = _mass_scale(measure)
    total = scale * wsum / len(w)
    total_se = scale * float(w.std(ddof=1)) / math.sqrt(len(w))
    masses = {}
    for name, mask in comp_masks.items():
        masses[name] = scale * float((w * mask).sum()) / len(w)
        masses[name + "_se"] = (
            scale * float((w * mask).std(ddof=1)) / math.sqrt(len(w))
        )
    return TailEstimate(
        t_grid=t_grid,
        survival=survival,
        ci_halfwidth=ci,
        n=len(w),
        seed=seed,
        engine=engine,
        measure=measure,
        workers=workers,
        n_eff=n_eff,
        total_mass=total,
        total_mass_se=total_se,
        component_masses=masses,
    )


def estimate_masses(
    measure: MeasureSpec, n: int, seed: int, workers: int = 1
) -> dict:
    """Weighted-total mass of the measure's support region (and component
    slices), with standard errors.  Formula engine; returns a flat dict."""
    est = mc_tail(measure, FORMULA, [0.0], n, seed, workers)
    out = {"total": est.total_mass, "total_se": est.total_mass_se}
    out.update(est.component_masses)
    return out


def ergodic_average(
    start: Union[OmegaCoords, VLCoords],
    engine: str,
    n_steps: int,
    interval: tuple,
) -> float:
    """Fraction of the first n return times along the orbit lying in
    (lo, hi].  The oracle engines read all n off one strip scan of the start
    surface (``oracle_gap_sequence``), affine or doubled."""
    if engine not in ENGINES:
        raise InvalidInputError(f"unknown engine {engine!r}")
    if n_steps < 1:
        raise InvalidInputError("n_steps must be >= 1")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise InvalidInputError("empty interval")
    if engine == FORMULA:
        returns = np.array([u for _, u, _ in orbit(start, engine, n_steps)])
    else:
        from .oracle import oracle_gap_sequence

        returns = oracle_gap_sequence(*_oracle_surface(start, engine), n_steps)
    return int(np.count_nonzero((returns > lo) & (returns <= hi))) / n_steps


def _oracle_surface(p, engine: str):
    """(surface, holonomy mode) that the oracle engine scans at point p."""
    on_w = isinstance(p, (WPointSL, WPointSA))
    if engine == ORACLE_AFFINE:
        if on_w:
            raise InvalidInputError("affine-oracle orbits need affine-section coordinates")
        return omega_to_surface(p), SurfaceMode.AFFINE_ONLY
    return (w_to_surface(p) if on_w else omega_to_surface(p)), SurfaceMode.DOUBLED_SLIT


def _orbit_step(p):
    """(return time, next point) of the closed-form step: the affine section
    advances by ``advance_omega``; a slit-cover point flows by its formula
    return and is recoordinatized on the slit-cover section."""
    if isinstance(p, (WPointSL, WPointSA)):
        u = w_return_time(p)
        return u, w_section_coords(horocycle_apply(u, w_to_surface(p)), doubled=True)
    return omega_return_time(p), advance_omega(p)


def orbit(start, engine: str, n_steps: int):
    """Yield (step, return_time, point-after-step) along the orbit.

    The formula engine steps in closed form, one return at a time.  The
    oracle engines read the whole orbit off scans of the start surface
    (``oracle_orbit``): the affine oracle stays on the affine section, the
    doubled oracle follows the slit-cover section (so a point may be a
    short-lattice state).  Their points agree with flowing and
    recoordinatizing step by step up to rounding.
    """
    if engine not in ENGINES:
        raise InvalidInputError(f"unknown engine {engine!r}")
    if engine == FORMULA:
        p = start
        for k in range(n_steps):
            u, p = _orbit_step(p)
            yield k, u, p
        return
    if n_steps < 1:
        return
    from .oracle import oracle_orbit

    returns, points = oracle_orbit(*_oracle_surface(start, engine), n_steps)
    yield from zip(range(n_steps), returns.tolist(), points)
