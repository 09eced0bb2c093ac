"""Benchmark of the slitgaps command line.

    python3 bench/run.py --workload oracle-batch --seed 1 --seconds 30 --trace 0

Runs one workload (``oracle-batch``, ``orbit-chain``, ``tail-law``, or
``all`` for every one) through ``slitgaps.cli.main`` in this process, after
the import, repeating it for ``--seconds``.  Every repetition's
outputs are checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced and traced repetitions and reports the per-layer
metrics and the tracing overhead.  ``--smoke`` shrinks every input so the
benchmark's own test runs in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(environment, host gauge, every repetition) goes to ``.bench_out/`` in the
checkout, beside the gzipped spans of traced runs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import integrate

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7
# The host gauge: a fixed task timed between repetitions.  Repetition times
# are scaled to the host speed at which it takes GAUGE_REF_S (see ``gauge``).
GAUGE_LOOP = 300_000
GAUGE_ARRAYS = 60
GAUGE_ARRAY_LEN = 200_000
GAUGE_QUADS = 120
GAUGE_REF_S = 0.08
SETUP_CHILD = (
    "import time, slitgaps.cli\n"
    "slitgaps.cli.build_parser()\n"
    "print(time.monotonic())\n"
    "print(slitgaps.cli.__file__)\n"
)

# metric names and units come from the benchmark's declaration
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def prepare():
    """Put the checkout's package first on the import path.

    Returns False when the checkout has no package source to benchmark."""
    if not (SRC / "slitgaps" / "cli.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _is_ours(path):
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup(samples):
    """Times from a fresh interpreter until ``slitgaps.cli`` is imported and
    its parser built, ``samples`` of them.

    The child reports ``time.monotonic()``, the same system-wide clock the
    parent read just before starting it.  The parent has imported the package
    already, so the children find its bytecode compiled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        ready, path = child.stdout.splitlines()[-2:]
        if not _is_ours(path):
            raise RuntimeError(f"fresh interpreter imported slitgaps from {path}")
        times.append(float(ready) - start)
    return times


def _gauge_integrand(x, k):
    return math.sin(x + k) ** 2 / (1.0 + x * x)


def gauge():
    """Wall time of a fixed task that does not use the package: a gauge of
    how fast the host runs right now.

    The host this benchmark was written on changes speed by up to 2x over
    seconds to minutes.  Each repetition behind ``ops_per_s`` is taken
    between two gauge readings and scaled by GAUGE_REF_S over their mean,
    which cancels much of that drift; a change to the program leaves the
    gauge alone.  The task has three parts, of about equal length on a
    quiet host, the kinds of work the package does: a pure-Python loop,
    numpy arrays of 1.6 MB allocated and summed, and
    ``scipy.integrate.quad`` calling back into Python.  Of the tasks tried,
    this mix followed the workloads' drift most closely.  It did not follow
    the set-up time of a fresh interpreter, so ``setup_s`` is not scaled."""
    start = time.perf_counter()
    x = 0.0
    for i in range(GAUGE_LOOP):
        x += i * i
    for _ in range(GAUGE_ARRAYS):
        x += float((np.ones(GAUGE_ARRAY_LEN) * 2.0).sum())
    for k in range(GAUGE_QUADS):
        x += integrate.quad(_gauge_integrand, 0.0, 50.0, args=(k,), limit=200)[0]
    return time.perf_counter() - start


def _at_reference(seconds, gauge_s):
    """A timing scaled to the host speed at which the gauge takes GAUGE_REF_S."""
    return seconds * GAUGE_REF_S / gauge_s


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the package's files, naming the code even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "slitgaps").iterdir()):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _cpu_time():
    """CPU seconds of this process and of its children that have ended, so
    that a worker pool the program starts and joins is counted."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _run_commands(wl, tracer, rep):
    """Run the workload's commands once; (outputs, wall, cpu, bytes)."""
    import slitgaps.cli

    outputs, wall, cpu, nbytes = [], 0.0, 0.0, 0
    for i, argv in enumerate(wl.commands):
        buf = io.StringIO()
        c0, t0 = _cpu_time(), time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = slitgaps.cli.main(argv)
            else:
                tracer.run = f"{wl.name}/rep{rep}/cmd{i}"
                rc = tracer.root(slitgaps.cli.main, argv)
        wall += time.perf_counter() - t0
        cpu += _cpu_time() - c0
        text = buf.getvalue()
        nbytes += len(text.encode("utf-8"))
        outputs.append((rc, text))
    return outputs, wall, cpu, nbytes


def _repetition(wl, traced, rep, expect):
    tracer = spans.Tracer() if traced else None
    out = {"traced": traced, "wall_s": None, "tracer": tracer}
    try:
        if tracer is not None:
            tracer.install()
        try:
            outputs, out["wall_s"], out["cpu_s"], out["bytes"] = _run_commands(wl, tracer, rep)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["failures"] = wl.check(outputs, expect)
    except Exception:
        out["failures"] = [traceback.format_exc()]
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(wl, seconds, trace, expect):
    """Repeat the workload for ``seconds``, at least once: a new round
    starts only if a round of the mean length so far still fits.  Traced
    runs alternate untraced and traced repetitions in each round.  The host
    gauge is read before the first repetition and after each one; returns
    the repetitions and the gauge readings."""
    modes = (False, True) if trace else (False,)
    reps = []
    gauges = [gauge()]
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in modes:
            rep = _repetition(wl, traced, len(reps), expect)
            gauges.append(gauge())
            rep["gauge_s"] = (gauges[-2] + gauges[-1]) / 2.0
            reps.append(rep)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return reps, gauges


def _metrics_end_to_end(wl, reps, setup):
    # repetitions are scaled by the host gauge (see ``gauge``); ru_maxrss is
    # the high-water mark of the whole process, so under ``--workload all``
    # it covers every workload run before this one
    plain = [r for r in reps if r["wall_s"] is not None]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "ops_per_s": _median([wl.ops / _at_reference(r["wall_s"], r["gauge_s"]) for r in plain]),
        "setup_s": _median(setup),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
    }


def _metrics_per_layer(reps, gauges, loadavg):
    plain = [r for r in reps if not r["traced"] and r["wall_s"] is not None]
    traced = [r for r in reps if r["traced"] and r["wall_s"] is not None]
    per_rep = [spans.layer_metrics(r["tracer"], r["wall_s"]) for r in traced]
    m = {k: _median([p[k] for p in per_rep]) for k in (per_rep[0] if per_rep else {})}
    m["cli.bytes_written"] = _median([r["bytes"] for r in traced])
    m["proc.cpu_s"] = _median([r["cpu_s"] for r in plain])
    m["proc.cpu_util"] = _median([r["cpu_s"] / r["wall_s"] for r in plain])
    m["trace.wall_s"] = _median([r["wall_s"] for r in traced])
    m["trace.untraced_wall_s"] = _median([r["wall_s"] for r in plain])
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["calib.loop_s"] = _median(gauges)
    m["host.loadavg_1m"] = _median(loadavg)
    if per_rep:
        return {k: m[k] for k in PER_LAYER}  # a declared metric must be measured
    return {k: m.get(k, 0.0) for k in PER_LAYER}  # no traced repetition completed


def run_workload(name, seed, seconds, trace, smoke=False, expect=None, setup=None):
    """Measure one workload; returns the run record (see ``main``).
    ``setup`` is what ``measure_setup`` returned, or None to measure it."""
    import workloads

    expect = workloads.EXPECT if expect is None else expect
    wl = workloads.WORKLOADS[name](seed, workloads.SIZES["smoke" if smoke else "full"])
    if setup is None and not trace:
        setup = measure_setup(1 if smoke else SETUP_SAMPLES)
    loadavg = [os.getloadavg()[0]]
    reps, gauges = measure(wl, seconds, trace, expect)
    loadavg.append(os.getloadavg()[0])

    failed = sum(wl.ops for r in reps if r["failures"])
    attempted = wl.ops * len(reps)
    if trace:
        values = _metrics_per_layer(reps, gauges, loadavg)
        units = PER_LAYER
    else:
        values = _metrics_end_to_end(wl, reps, setup)
        units = END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "commands": wl.commands,
        "ops_per_repetition": wl.ops,
        "environment": environment(),
        "gauge_ref_s": GAUGE_REF_S,
        "gauge_s": gauges,
        "loadavg_1m": loadavg,
        "setup_samples_s": setup or [],
        "repetitions": [
            {k: r.get(k) for k in ("traced", "wall_s", "gauge_s", "cpu_s", "bytes", "failures")}
            for r in reps
        ],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        spans.write_spans(OUT_DIR / f"{stem}.spans.json.gz", [r["tracer"] for r in reps if r["tracer"]])
    return record


def _print_record(rec):
    mode = "traced" if rec["trace"] else "untraced"
    print(f"== {rec['workload']} seed {rec['seed']} ({mode}, {len(rec['repetitions'])} repetitions)")
    print(f"   commands: {json.dumps(rec['commands'])}")
    for k, m in rec["metrics"].items():
        print(f"   {k:34s} {m['value']:.6g} {m['unit']}")
    print(f"   {'error_rate':34s} {rec['error_rate']:.6g} ({rec['failed']}/{rec['attempted']} operations failed)")
    walls = [r["wall_s"] for r in rec["repetitions"] if not r["traced"] and r["wall_s"] is not None]
    if walls:
        raw = rec["ops_per_repetition"] / statistics.median(walls)
        print(f"   unscaled: {raw:.6g} operations per second of wall time (median repetition)")
    gauge_s = rec["gauge_s"]
    load = ", ".join(f"{x:.2f}" for x in rec["loadavg_1m"])
    print(f"   host gauge median {statistics.median(gauge_s):.4f} s, range {min(gauge_s):.4f}..{max(gauge_s):.4f} s "
          f"(reference {rec['gauge_ref_s']} s); load average {load}")
    failures = sorted({msg for r in rec["repetitions"] for msg in r["failures"]})
    for msg in failures[:5]:
        print(f"FAILED {rec['workload']}: {msg.strip()}", file=sys.stderr)


def main(argv=None):
    names = ("oracle-batch", "orbit-chain", "tail-law")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if not prepare():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    import slitgaps.cli

    if not _is_ours(slitgaps.cli.__file__):
        print(f"error: slitgaps imported from {slitgaps.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))

    if args.workload != "all":
        rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        _print_record(rec)
        result = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        # every workload, untraced then traced; keys are workload.metric
        setup = measure_setup(1 if args.smoke else SETUP_SAMPLES)
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in (False, True):
                rec = run_workload(name, args.seed, args.seconds, trace, args.smoke, setup=setup)
                _print_record(rec)
                result["correct"] &= rec["correct"]
                result["attempted"] += rec["attempted"]
                result["failed"] += rec["failed"]
                for k, m in rec["metrics"].items():
                    result["metrics"][f"{name}.{k}"] = m
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
