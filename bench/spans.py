"""In-memory span tracing of the package's layers, from outside the package.

Each probe replaces one public entry point at the binding its caller looks
up (``slitgaps.oracle.enumerate_strip`` is what the oracle calls, so that is
the name that gets wrapped), records a span per call and restores the
original binding afterwards.  Nothing in the package is edited.

A span is ``(name, layer, start, end, parent, run)``, plus a size (rows
returned, draws requested) where the probe defines one.  Self time is a
span's duration minus the durations of its direct children; calls nest
strictly because everything runs on one thread.
"""

import gzip
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, layer, kind, size).  ``kind`` groups probes into the
# per-layer metrics; ``size`` reads a work count off a call.
PROBES = (
    ("slitgaps.cli", "build_parser", "cli", "parse", None),
    ("slitgaps.cli", "_write_csv", "cli", "write", None),
    ("slitgaps.cli", "_write_json", "cli", "write", None),
    ("slitgaps.cli", "diff_test", "oracle", "difftest", None),
    ("slitgaps.cli", "mc_tail", "measures", "estimate", None),
    ("slitgaps.cli", "orbit", "measures", "orbit", None),
    ("slitgaps.oracle", "enumerate_strip", "geometry", "scan", "rows"),
    ("slitgaps.oracle", "oracle_first_return", "oracle", "return", None),
    ("slitgaps.oracle", "w_oracle_return", "oracle", "return", None),
    ("slitgaps.oracle", "_batch_omega", "measures", "sample", "draws"),
    ("slitgaps.measures", "_batch_measure", "measures", "sample", "draws"),
    ("slitgaps.oracle", "omega_return_time", "transversal", "formula", None),
    ("slitgaps.oracle", "w_return_time", "transversal", "formula", None),
    ("slitgaps.oracle", "rho_sl_to_sa", "transversal", "formula", None),
    ("slitgaps.oracle", "bcz_return_time", "transversal", "formula", None),
    ("slitgaps.measures", "omega_return_time", "transversal", "formula", None),
    ("slitgaps.measures", "advance_omega", "transversal", "formula", None),
    ("slitgaps.measures", "w_return_time", "transversal", "formula", None),
    ("slitgaps.measures", "recoordinatize_omega", "transversal", "recoord", None),
    ("slitgaps.measures", "w_section_coords", "transversal", "recoord", None),
    ("slitgaps.closedform", "w_tail_closed_form", "closedform", "tail", None),
    ("slitgaps.closedform", "w_tail_quadrature", "closedform", "tail", None),
    ("slitgaps.closedform", "omega_tail_bounds", "closedform", "tail", None),
    ("slitgaps.closedform", "torsion_tail", "closedform", "tail", None),
    ("slitgaps.closedform", "integrate.quad", "closedform", "quad", None),
)

LAYERS = ("geometry", "oracle", "transversal", "measures", "closedform", "cli")

ROOT = "cli.main"


def _size(how, args, result):
    if how == "rows":
        return len(result)
    if how == "draws":
        return int(args[-1])  # _batch_omega(rng, n), _batch_measure(spec, rng, n)
    return 0


class _Namespace:
    """Stand-in for a module whose one attribute is wrapped; every other
    attribute reads through to the real module."""

    def __init__(self, real, name, value):
        self._real = real
        setattr(self, name, value)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Collects spans while installed; ``run`` tags every new span."""

    def __init__(self):
        self.spans = []
        self.kinds = {}
        self.missing = []
        self.run = ""
        self._stack = []
        self._saved = []

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, layer, start, size):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, layer, start, end, parent, self.run, size)

    def root(self, fn, *args):
        """Call ``fn`` under a root ``cli.main`` span."""
        self.kinds[ROOT] = "main"
        return self._wrap(fn, ROOT, "cli", None)(*args)

    def _wrap(self, fn, name, layer, how):
        def traced(*args, **kwargs):
            idx, parent = self._open()
            size = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                size = _size(how, args, result)
                return result
            finally:
                self._close(idx, parent, name, layer, start, size)

        return traced

    def _wrap_generator(self, fn, name, layer):
        # one span per item, so each orbit step is its own span
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx, parent = self._open()
                start = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(idx, parent, name, layer, start, 0)
                yield item

        return traced

    def _wrap_parser(self, fn, name, layer):
        # parsing happens in the returned parser's parse_args, so wrap it too
        build = self._wrap(fn, name, layer, None)
        self.kinds["cli.parse_args"] = "parse"

        def traced(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = self._wrap(parser.parse_args, "cli.parse_args", layer, None)
            return parser

        return traced

    def install(self):
        for module_name, attr, layer, kind, how in PROBES:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{module_name.split('.')[-1]}.{attr}"
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.kinds[name] = kind
            if kind == "orbit":
                wrapped = self._wrap_generator(fn, name, layer)
            elif kind == "parse":
                wrapped = self._wrap_parser(fn, name, layer)
            else:
                wrapped = self._wrap(fn, name, layer, how)
            if owner_name:
                self._saved.append((module, owner_name, owner))
                setattr(module, owner_name, _Namespace(owner, fn_name, wrapped))
            else:
                self._saved.append((module, fn_name, fn))
                setattr(module, fn_name, wrapped)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def write_spans(path, tracers):
    """Spans of all tracers as gzipped JSON columns; parents index the
    concatenated list."""
    cols = ("name", "layer", "start", "end", "parent", "run", "size")
    data = {c: [] for c in cols}
    offset = 0
    for tracer in tracers:
        for span in tracer.spans:
            for c, v in zip(cols, span):
                data[c].append(v)
            if span[4] >= 0:
                data["parent"][-1] += offset
        offset += len(tracer.spans)
    data["missing_probes"] = tracers[0].missing if tracers else []
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(data, fh)


def layer_metrics(tracer, wall_s):
    """Per-layer counts, times and rates of one traced repetition.

    ``tracer`` holds that repetition's spans and ``wall_s`` its wall time.
    "Outermost" spans of a kind are those whose parent is not of
    the same kind; they give counts and inclusive times without counting
    nested calls (tail -> quadrature tail, quad -> inner quad) twice.
    """
    spans, kinds = tracer.spans, tracer.kinds
    child = defaultdict(float)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    count = defaultdict(int)
    outer_count = defaultdict(int)
    outer_time = defaultdict(float)
    self_by_kind = defaultdict(float)
    size_by_kind = defaultdict(int)
    scans_in_returns = 0
    kind_of = [kinds[s[0]] for s in spans]
    for i, s in enumerate(spans):
        name, layer, start, end, parent, _run, size = s
        kind = kind_of[i]
        dur = end - start
        self_s = dur - child.get(i, 0.0)
        self_by_layer[layer] += self_s
        self_by_kind[kind] += self_s
        count[kind] += 1
        if parent < 0 or kind_of[parent] != kind:
            outer_count[kind] += 1
            outer_time[kind] += dur
            size_by_kind[kind] += size
        if kind == "scan" and parent >= 0 and kind_of[parent] == "return":
            scans_in_returns += 1

    def rate(n, t):
        return n / t if t > 0 else 0.0

    returns = outer_count["return"]
    evals = outer_count["tail"]
    m = {
        "geometry.scan_calls": count["scan"],
        "geometry.scan_s": outer_time["scan"],
        "geometry.points_per_scan": size_by_kind["scan"] / count["scan"] if count["scan"] else 0.0,
        "oracle.returns": returns,
        "oracle.returns_per_s": rate(returns, outer_time["return"]),
        "oracle.scans_per_return": scans_in_returns / returns if returns else 0.0,
        "transversal.recoord_calls": count["recoord"],
        "transversal.recoord_s": outer_time["recoord"],
        "transversal.recoord_points_per_s": rate(outer_count["recoord"], outer_time["recoord"]),
        "transversal.formula_calls": count["formula"],
        "transversal.formula_s": outer_time["formula"],
        "measures.draws": size_by_kind["sample"],
        "measures.sample_s": outer_time["sample"],
        "measures.draws_per_s": rate(size_by_kind["sample"], outer_time["sample"]),
        "measures.estimate_s": self_by_kind["estimate"],
        "measures.orbit_step_s": self_by_kind["orbit"],
        "closedform.tail_evals": evals,
        "closedform.tail_s": outer_time["tail"],
        "closedform.evals_per_s": rate(evals, outer_time["tail"]),
        "closedform.quad_calls": count["quad"],
        "closedform.quad_s": outer_time["quad"],
        "closedform.quad_calls_per_eval": count["quad"] / evals if evals else 0.0,
        "cli.parse_s": outer_time["parse"],
        "cli.write_s": outer_time["write"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    total_self = sum(self_by_layer.values())
    m["trace.self_sum_s"] = total_self
    m["trace.self_coverage"] = total_self / wall_s if wall_s > 0 else 0.0
    return m
