"""The benchmark's workloads: inputs drawn from the seed, the CLI commands
that run them, and the checks that judge their outputs.

Every check is statistical or structural (bands, orderings, identities
between engines), never a digest of one sample stream, so a change that
redraws the samples without changing the law still passes.
"""

import csv
import io
import json
import math

import numpy as np

from slitgaps.closedform import GOLDEN_T, W_TOTAL_MASS, w_tail_closed_form
from slitgaps.geometry import SurfaceMode, enumerate_strip
from slitgaps.transversal import OmegaCoords, OmegaRegion, classify_omega, omega_to_surface

# Expected values the checks compare against.  The test of the benchmark
# swaps one for a wrong value to show the checks can fail.
EXPECT = {
    # OmegaR discrepant fraction measured over 100,003 points (seed 2026)
    "discrepant_p": 4183 / 100003,
    # the k-th orbit return time sums to the (k + offset)-th strip slope
    "slope_offset": 0,
    # total mass normalizing the doubled-torus tail to a survival function
    "tail_mass": W_TOTAL_MASS,
}

OMEGA_PROBES = 3  # canonical OmegaR probes difftest adds to every sweep
DISCREPANT_SIGMAS = 5.0
SLOPE_TOL = 1e-9
CHAIN_CHECKED = 500
CONTINUITY_TOL = 1e-6
CONTINUITY_EPS = 1e-9
TORSION_RATIO_MAX = 3.0
MC_TOL_FLOOR = 0.01
MC_CI_MULTIPLE = 3.0
EXIT_OK, EXIT_REGRESSION = 0, 4

SIZES = {
    "full": {"samples": 25000, "iters": 5000, "mc_samples": 4000000,
             "tail_grid": "0:16:0.5", "bounds_grid": "16:128:8", "torsion_grid": "8:64:4"},
    "smoke": {"samples": 1000, "iters": 300, "mc_samples": 20000,
              "tail_grid": "0:6:1", "bounds_grid": "16:32:8", "torsion_grid": "8:16:4"},
}
MC_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
WORKERS = 2


def _grid_len(spec):
    a, b, step = (float(x) for x in spec.split(":"))
    return int(round((b - a) / step)) + 1


def _csv_rows(text):
    """CSV rows with every numeric cell as a float."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        for k, v in row.items():
            try:
                row[k] = float(v)
            except ValueError:
                pass
        rows.append(row)
    return rows


def haar_omega_point(seed):
    """A haar-omega start point: uniform proposals on the affine section
    (weight 1/b, as in the package's sampler), resampled once by weight."""
    rng = np.random.default_rng(seed)
    n = 64
    a = 1.0 - rng.random(n)
    alpha = 1.0 - rng.random(n)
    b = 1.0 - a * rng.random(n)
    s = rng.random(n) / (a * b)
    w = 1.0 / b
    i = rng.choice(n, p=w / w.sum())
    return float(a[i]), float(b[i]), float(s[i]), float(alpha[i])


class OracleBatch:
    """Formula vs per-point oracle over independent sampled points."""

    name = "oracle-batch"

    def __init__(self, seed, size):
        self.samples = size["samples"]
        self.commands = [["difftest", "OmegaR", "--samples", str(self.samples),
                          "--seed", str(seed), "--workers", str(WORKERS)]]
        self.ops = self.samples + OMEGA_PROBES

    def check(self, outputs, expect):
        ((rc, text),) = outputs
        report = json.loads(text)["results"]
        n, k = report["samples"], report["n_discrepant"]
        bad = []
        # exit 4 is the documented OmegaR finding, not a failure
        want_rc = EXIT_REGRESSION if k > 0 else EXIT_OK
        if rc != want_rc:
            bad.append(f"exit code {rc}, expected {want_rc} with {k} discrepancies")
        if n != self.ops:
            bad.append(f"report has {n} samples, expected {self.ops}")
        p0 = expect["discrepant_p"]
        band = DISCREPANT_SIGMAS * math.sqrt(p0 * (1.0 - p0) / n)
        if abs(k / n - p0) > band:
            bad.append(f"discrepant fraction {k}/{n} outside {p0:.4f} +- {band:.4f}")
        for cx in report["counterexamples"]:
            p = cx["input"]
            region = classify_omega(OmegaCoords(p["a"], p["b"], p["s"], p["alpha"]))
            if not cx["formula"] > cx["oracle"]:
                bad.append(f"undershoot at {p}")
            if region not in (OmegaRegion.O2, OmegaRegion.O4):
                bad.append(f"counterexample in {region.value} at {p}")
        return bad


class OrbitChain:
    """One dependent oracle orbit: no hint, a recoordinatization every step."""

    name = "orbit-chain"

    def __init__(self, seed, size):
        self.start = haar_omega_point(seed)
        self.iters = size["iters"]
        self.commands = [["orbit", "--engine", "oracle-affine", "--iters", str(self.iters),
                          "--start", ",".join(repr(x) for x in self.start)]]
        self.ops = self.iters

    def check(self, outputs, expect):
        ((rc, text),) = outputs
        bad = []
        if rc != EXIT_OK:
            bad.append(f"exit code {rc}")
        u = np.array([row["return_time"] for row in _csv_rows(text)])
        if len(u) != self.iters:
            return bad + [f"{len(u)} orbit rows, expected {self.iters}"]
        if not np.all(u > 0.0):
            bad.append("nonpositive return time")
        # flowing by each return lands on the next strip slope of the start
        # surface, so partial sums of returns are its positive slopes
        sums = np.cumsum(u[:CHAIN_CHECKED])
        offset = expect["slope_offset"]
        surface = omega_to_surface(OmegaCoords(*self.start))
        pts = enumerate_strip(surface, SurfaceMode.AFFINE_ONLY, 1.01 * sums[-1] + 1.0)
        slopes = pts[:, 1] / pts[:, 0]
        slopes = slopes[slopes > 0.0][offset:offset + len(sums)]
        if len(slopes) != len(sums):
            bad.append(f"{len(slopes)} strip slopes for {len(sums)} returns")
        else:
            err = float(np.max(np.abs(sums - slopes)))
            if err > SLOPE_TOL:
                bad.append(f"partial sums of returns miss the strip slopes by {err:.3g}")
        return bad


class TailLaw:
    """Analytic side: quadrature tail, envelope bounds, torsion shells and a
    large formula Monte Carlo, with no oracle."""

    name = "tail-law"

    def __init__(self, seed, size):
        grids = (size["tail_grid"], size["bounds_grid"], size["torsion_grid"])
        self.commands = [
            ["closed-form", "--component", "tail", "--t-grid", grids[0]],
            ["closed-form", "--component", "bounds", "--t-grid", grids[1]],
            ["closed-form", "--component", "torsion:2", "--t-grid", grids[2]],
            ["mc-tail", "--measure", "haar-w", "--engine", "formula",
             "--t-grid", ",".join(str(t) for t in MC_GRID),
             "--samples", str(size["mc_samples"]), "--seed", str(seed), "--workers", str(WORKERS)],
        ]
        self.rows = [_grid_len(g) for g in grids] + [len(MC_GRID)]
        self.ops = sum(self.rows)

    def check(self, outputs, expect):
        bad = []
        tables = []
        for (rc, text), argv, want in zip(outputs, self.commands, self.rows):
            rows = _csv_rows(text)
            if rc != EXIT_OK:
                bad.append(f"{argv[0]} {argv[2]}: exit code {rc}")
            if len(rows) != want:
                bad.append(f"{argv[0]} {argv[2]}: {len(rows)} rows, expected {want}")
            tables.append(rows)
        if bad:
            return bad
        tail, bounds, torsion, mc = tables

        values = [r["tail"] for r in tail]
        if any(b > a for a, b in zip(values, values[1:])):
            bad.append("tail increases on the grid")
        for t in (1.0, 2.0, GOLDEN_T, 4.0):
            jump = abs(w_tail_closed_form(t - CONTINUITY_EPS) - w_tail_closed_form(t + CONTINUITY_EPS))
            if jump > CONTINUITY_TOL:
                bad.append(f"tail jumps by {jump:.3g} at t={t:.6g}")

        for r in bounds:
            if r["lower"] > r["upper"]:
                bad.append(f"lower bound above upper at t={r['t']:g}")

        scaled = [r["t"] ** 2 * r["tail"] for r in torsion]
        if min(scaled) <= 0.0 or max(scaled) / min(scaled) >= TORSION_RATIO_MAX:
            bad.append(f"torsion t^2*tail spans {min(scaled):.3g}..{max(scaled):.3g}")

        for r in mc:
            exact = w_tail_closed_form(r["t"]) / expect["tail_mass"]
            tol = max(MC_TOL_FLOOR, MC_CI_MULTIPLE * r["ci_halfwidth"])
            if abs(r["survival"] - exact) > tol:
                bad.append(f"Monte Carlo survival {r['survival']:.4f} at t={r['t']:g}, closed form {exact:.4f}")
        return bad


WORKLOADS = {w.name: w for w in (OracleBatch, OrbitChain, TailLaw)}
