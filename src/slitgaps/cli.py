"""Batch command line tying the package together.

Five subcommands: ``gaps`` (strip slopes and their differences), ``orbit``
(transversal return orbits), ``mc-tail`` (seeded Monte Carlo survival
curves), ``closed-form`` (exact tail/cdf/density/bounds tables), and
``difftest`` (formula-vs-enumeration comparison reports).

Outputs are CSV (UTF-8, header row, LF) or a JSON report; JSON reports
follow the shipped ``report-schema.json``.  Exit codes: 0 success or a
known-discrepancy report, 2 usage or parse failure, 3 invalid state
(off-transversal starts, out-of-regime thresholds), 4 counterexamples in a
region whose formula is checked as ground truth.  The top-level
``--log-level`` (default WARNING) sends the package's log messages at that
level and above to stderr.
"""

import argparse
import csv
import json
import logging
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy

from . import __version__
from .errors import (
    AmbiguityError,
    DegenerateInputError,
    EstimationError,
    InvalidInputError,
    NotOnTransversalError,
    OutOfRegimeError,
    QuadratureError,
    SlitgapsError,
)
from .geometry import AffineLattice, Mat2, SurfaceMode, Vec2, enumerate_strip, slopes_and_gaps
from .measures import ENGINES, FORMULA, ORACLE_DOUBLED, MeasureSpec, mc_tail, orbit
from .oracle import REGIONS, V_DOMAINS, diff_test, oracle_strip_slopes
from .transversal import SECTION_KINDS, OmegaCoords, flowed_section_coords, omega_to_surface, section_columns

SPEC_VERSION = "1.0"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STATE = 3
EXIT_REGRESSION = 4

# regions whose counterexamples are findings to report, not regressions
KNOWN_DISCREPANCY_REGIONS = ("WslRho", "WReturn")
# most points an a:b:step grid may have; it is refused before it is built
T_GRID_LIMIT = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: what ran, with which knobs."""

    command: str
    params: dict

    def to_dict(self) -> dict:
        out = {"command": self.command}
        out.update({k: v for k, v in sorted(self.params.items())})
        return out


def _parse_config_file(path: str) -> dict:
    """key = value lines; # starts a comment; keys match long flag names."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True), **dict.fromkeys(("0", "false", "no", "off"), False)}

_CONVERTERS = {
    "seed": int,
    "workers": int,
    "samples": int,
    "iters": int,
    "slope_max": float,
    "count": int,
    "engine": str,
    "mode": str,
    "out": str,
    "format": str,
    "plot": lambda s: _BOOLEANS[s.lower()],
    "t_grid": str,
    "measure": str,
    "component": str,
    "start": str,
    "omega": str,
    "surface": str,
    "region": str,
    "v_domain": str,
    "h": float,
}

# the values of each choice option, for its flag and its config-file key alike
_CHOICES = {
    "mode": tuple(m.value for m in SurfaceMode),
    "engine": ENGINES,
    "format": ("csv", "json"),
    "v_domain": V_DOMAINS,
}

_DEFAULTS = {
    "gaps": {"mode": SurfaceMode.AFFINE_ONLY.value, "out": None, "format": "csv", "plot": False},
    "orbit": {
        "engine": FORMULA,
        "iters": 100,
        "out": None,
        "format": "csv",
        "plot": False,
    },
    "mc-tail": {
        "engine": FORMULA,
        "samples": 100_000,
        "seed": 0,
        "workers": 1,
        "out": None,
        "format": "csv",
        "plot": False,
    },
    "closed-form": {
        "component": "tail",
        "h": 1e-5,
        "out": None,
        "format": "csv",
        "plot": False,
    },
    "difftest": {
        "samples": 10_000,
        "seed": 0,
        "workers": 1,
        "mode": SurfaceMode.AFFINE_ONLY.value,
        "v_domain": "fundamental",
        "out": None,
    },
}


def _merge_config(command: str, args: argparse.Namespace) -> RunConfig:
    """File values fill flags the user left out; explicit flags win."""
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "func", "log_level")}
    config_path = explicit.pop("config", None)
    params = dict(_DEFAULTS[command])
    if config_path is not None:
        for key, raw in _parse_config_file(config_path).items():
            if key not in _CONVERTERS:
                raise InvalidInputError(f"unknown config key {key!r}")
            try:
                params[key] = _CONVERTERS[key](raw)
            except (ValueError, KeyError) as exc:
                raise InvalidInputError(f"bad config value for {key}: {raw!r}") from exc
            if key in _CHOICES and params[key] not in _CHOICES[key]:
                raise InvalidInputError(
                    f"bad config value for {key}: {raw!r}; choose from {', '.join(_CHOICES[key])}"
                )
    params.update(explicit)
    return RunConfig(command=command, params=params)


def _parse_floats(text: str, n: int, what: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != n:
        raise InvalidInputError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(f"{what}: {exc}") from exc


def parse_t_grid(text: str):
    """`a:b:step` inclusive grid, or an explicit comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidInputError(f"grid must be a:b:step, got {text!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError as exc:
            raise InvalidInputError(f"grid {text!r}: {exc}") from exc
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
            raise InvalidInputError(f"grid {text!r} has non-finite entries")
        if step <= 0.0:
            raise InvalidInputError(f"grid step must be positive, got {step!r}")
        if b < a:
            raise InvalidInputError(f"grid end {b!r} is below start {a!r}")
        end = b + 1e-12 * max(1.0, abs(b))
        span = (end - a) / step  # inf when it overflows
        if not span < T_GRID_LIMIT:
            raise InvalidInputError(f"grid {text!r} has more than {T_GRID_LIMIT} points")
        # one point more than exact arithmetic gives, in case rounding lets one in
        vals = []
        for k in range(math.floor(span) + 2):
            t = a + k * step
            if t > end:
                break
            vals.append(min(t, b))
        return vals
    vals = list(_parse_floats(text, len([p for p in text.split(",") if p.strip()]), "grid"))
    if not vals:
        raise InvalidInputError("empty t grid")
    if not all(math.isfinite(t) for t in vals):
        raise InvalidInputError(f"grid {text!r} has non-finite entries")
    return vals


def _load_surface(path: str) -> AffineLattice:
    """{"g": [[.,.],[.,.]], "v": [.,.]} with unimodular g."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read surface file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"surface file {path}: {exc}") from exc
    try:
        (g11, g12), (g21, g22) = data["g"]
        v1, v2 = data["v"]
        entries = (g11, g12, g21, g22, v1, v2)
        if not all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in entries):
            raise TypeError("entries must be JSON numbers")
        g11, g12, g21, g22, v1, v2 = map(float, entries)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"surface file {path} needs keys g (2x2) and v (2) of numbers") from exc
    return AffineLattice(Mat2(g11, g12, g21, g22), Vec2(v1, v2)).check()


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(out, header, rows, format_rows=None):
    """UTF-8, header row, `.` decimal, LF endings; cells formatted by
    ``_fmt``, or the whole table ``rows`` at once by ``format_rows``."""
    if out is None:
        _emit_csv(sys.stdout, header, rows, format_rows)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        _emit_csv(fh, header, rows, format_rows)


def _emit_csv(fh, header, rows, format_rows=None):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    if format_rows is not None:
        fh.write(format_rows(rows))
        return
    for row in rows:
        writer.writerow([_fmt(c) for c in row])


# an orbit row (step, return_time, kind, a, b, s, alpha) in one `%`-format
# that writes each cell as ``_fmt`` does; the second, for vertical rows,
# takes b and leaves its cell empty
_ORBIT_LINES = ("%d,%.12g,%s,%.12g,%.12g,%.12g,%.12g\n", "%d,%.12g,%s,%.12g,%.0s,%.12g,%.12g\n")


def _format_orbit_columns(table) -> str:
    """The CSV lines of ``cmd_orbit``'s (columns, vertical): one line per
    row of the column lists, in the vertical-row format where b is nan."""
    columns, vertical = table
    return "".join(map(operator.mod, [_ORBIT_LINES[v] for v in vertical], zip(*columns)))


def _write_json(out, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _report(config: RunConfig, results, counterexamples=()) -> dict:
    import scipy  # only a JSON report records its version; a CSV to stdout never loads it

    return {
        "config": config.to_dict(),
        "results": results,
        "counterexamples": list(counterexamples),
        "versions": {
            "spec": SPEC_VERSION,
            "build": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def _sidecar_path(out: str) -> str:
    return out + ".json"


def _write_plot_script(out: str, columns, with_errors=False):
    """Gnuplot companion that renders the CSV next to it."""
    gp = Path(out + ".gp")
    csv_name = Path(out).name
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
        f"set output '{Path(out).stem}.png'",
        "set terminal pngcairo size 900,600",
    ]
    if with_errors:
        lines.append(f"plot '{csv_name}' using 1:2:3 with yerrorlines")
    else:
        using = ", ".join(f"'{csv_name}' using 1:{i} with lines" for i in range(2, 2 + len(columns)))
        lines.append(f"plot {using}")
    gp.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_outputs(
    config, header, rows, summary, plot_columns, *, results=None, with_errors=False, format_rows=None
):
    """The table as CSV (``format_rows`` as in ``_write_csv``), plus a JSON
    sidecar with ``summary`` when written to a file; or a JSON report of
    ``results`` (default: the rows keyed by header); and the gnuplot script
    under --plot."""
    p = config.params
    if p["format"] == "json":
        if results is None:
            results = [dict(zip(header, row)) for row in rows]
        _write_json(p["out"], _report(config, results))
    else:
        _write_csv(p["out"], header, rows, format_rows)
        if p["out"] is not None:
            _write_json(_sidecar_path(p["out"]), _report(config, summary))
    if p["plot"]:
        _write_plot_script(p["out"], plot_columns, with_errors)
    return EXIT_OK


def cmd_gaps(config: RunConfig) -> int:
    p = config.params
    if p.get("omega") is not None and p.get("surface") is not None:
        raise InvalidInputError("pass either --omega or --surface, not both")
    if p.get("omega") is not None:
        a, b, s, alpha = _parse_floats(p["omega"], 4, "--omega")
        surface = omega_to_surface(OmegaCoords(a, b, s, alpha))
    elif p.get("surface") is not None:
        surface = _load_surface(p["surface"])
    else:
        raise InvalidInputError("gaps needs --omega coords or a --surface file")
    mode = SurfaceMode(p["mode"])

    if p.get("slope_max") is None and p.get("count") is None:
        raise InvalidInputError("gaps needs --slope-max or --count")
    if p.get("slope_max") is not None:
        series = slopes_and_gaps(enumerate_strip(surface, mode, float(p["slope_max"])))
        slopes, gaps = list(series.slopes), list(series.gaps)
    else:
        slopes = list(oracle_strip_slopes(surface, mode, int(p["count"])))
        gaps = [hi - lo for lo, hi in zip(slopes, slopes[1:])]

    rows = [(i, s, gaps[i] if i < len(gaps) else "") for i, s in enumerate(slopes)]
    return _write_outputs(
        config, ("index", "slope", "gap"), rows, {"n_slopes": len(slopes)}, ("slope", "gap"),
        results={"slopes": slopes, "gaps": gaps},
    )


def cmd_orbit(config: RunConfig) -> int:
    p = config.params
    if p.get("start") is None:
        raise InvalidInputError("orbit needs --start a,b,s,alpha")
    a, b, s, alpha = _parse_floats(p["start"], 4, "--start")
    try:
        start = OmegaCoords(a, b, s, alpha)
    except SlitgapsError as exc:
        raise NotOnTransversalError(f"start is not on the transversal: {exc}") from exc
    engine = p["engine"]
    iters = int(p["iters"])
    if iters < 0:
        raise InvalidInputError("--iters must be >= 0")

    first = section_columns([start])
    if engine == ORACLE_DOUBLED:
        # the doubled oracle follows the slit-cover section, start included
        first = flowed_section_coords(omega_to_surface(start), (0.0,), slit=True)
    [(returns, points)] = orbit(start, engine, iters)
    # row k shows the point the k-th return leaves from
    kind, a, b, s, alpha = (numpy.concatenate([c0, c])[:iters] for c0, c in zip(first, points))
    vertical = numpy.isnan(b).tolist()  # b is nan on vertical rows, an empty cell
    head = (range(iters), returns.tolist(), [SECTION_KINDS[k] for k in kind.tolist()], a.tolist())
    b, s, alpha = b.tolist(), s.tolist(), alpha.tolist()
    columns = (*head, b, s, alpha)
    header = ("step", "return_time", "kind", "a", "b", "s", "alpha")
    results = None
    if p["format"] == "json":
        rows = zip(*head, ["" if v else x for v, x in zip(vertical, b)], s, alpha)
        results = [dict(zip(header, row)) for row in rows]
    return _write_outputs(
        config, header, (columns, vertical), {"steps": iters}, ("return_time",),
        results=results, format_rows=_format_orbit_columns,
    )


def cmd_mc_tail(config: RunConfig) -> int:
    p = config.params
    if p.get("measure") is None or p.get("t_grid") is None:
        raise InvalidInputError("mc-tail needs --measure and --t-grid")
    measure = MeasureSpec.parse(p["measure"])
    grid = parse_t_grid(p["t_grid"])
    est = mc_tail(measure, p["engine"], grid, int(p["samples"]), int(p["seed"]), int(p["workers"]))
    summary = est.to_dict()
    return _write_outputs(
        config, ("t", "survival", "ci_halfwidth", "n_eff"), list(est.rows()), summary,
        ("survival",), results=summary, with_errors=True,
    )


def _closed_form_rows(component: str, grid, h: float):
    from . import closedform  # scipy's quadrature loads only for this command
    if component == "tail":
        return ("t", "tail"), [(t, closedform.w_tail_closed_form(t)) for t in grid]
    if component == "cdf":
        return ("t", "cdf"), [(t, closedform.w_cdf(t)) for t in grid]
    if component == "density":
        rows = []
        for t in grid:
            try:
                d = closedform.w_density(t, h)
            except AmbiguityError:
                d = closedform.w_density(t, h, one_sided=True)
            lo, hi = d if isinstance(d, tuple) else (d, d)
            rows.append((t, lo, hi))
        return ("t", "density_left", "density_right"), rows
    if component == "bounds":
        return ("t", "lower", "upper"), [(t, *closedform.omega_tail_bounds(t)) for t in grid]
    if component.startswith("torsion:"):
        try:
            q = int(component.split(":", 1)[1])
        except ValueError as exc:
            raise InvalidInputError(f"bad torsion order in {component!r}") from exc
        return ("t", "tail"), [(t, closedform.torsion_tail(q, t)) for t in grid]
    raise InvalidInputError(f"unknown component {component!r}")


def cmd_closed_form(config: RunConfig) -> int:
    p = config.params
    if p.get("t_grid") is None:
        raise InvalidInputError("closed-form needs --t-grid")
    grid = parse_t_grid(p["t_grid"])
    header, rows = _closed_form_rows(p["component"], grid, float(p["h"]))
    return _write_outputs(config, header, rows, {"rows": len(rows)}, header[1:])


def cmd_difftest(config: RunConfig) -> int:
    p = config.params
    region = p.get("region")
    if region is None:
        raise InvalidInputError(f"difftest needs a region: one of {', '.join(REGIONS)}")
    if region not in REGIONS:
        raise InvalidInputError(f"unknown region {region!r}; choose from {', '.join(REGIONS)}")
    report = diff_test(
        region,
        int(p["samples"]),
        int(p["seed"]),
        p["mode"],
        int(p["workers"]),
        v_domain=p["v_domain"],
    )
    results = report.to_dict()
    payload = _report(config, results, results["counterexamples"])
    _write_json(p["out"], payload)
    if region in KNOWN_DISCREPANCY_REGIONS:
        return EXIT_OK
    return EXIT_REGRESSION if report.n_discrepant > 0 else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slitgaps",
        description="gap statistics of strip slopes on marked tori and slit covers",
    )
    parser.add_argument("--version", action="version", version=f"slitgaps {__version__}")
    parser.add_argument(
        "--log-level", dest="log_level", type=str.upper, default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="write the package's log messages at this level and above to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    def common(sp, plot=True):
        sp.add_argument("--config", default=S, help="key = value defaults file; flags win")
        sp.add_argument("--out", default=S, help="output path (default: stdout)")
        sp.add_argument("--format", choices=_CHOICES["format"], default=S)
        if plot:
            sp.add_argument("--plot", action="store_true", default=S, help="emit a gnuplot script next to --out")

    g = sub.add_parser("gaps", help="strip slopes and consecutive gaps")
    g.add_argument("--omega", default=S, help="a,b,s,alpha section coordinates")
    g.add_argument("--surface", default=S, help="JSON file with g (2x2) and v (2)")
    g.add_argument("--mode", choices=_CHOICES["mode"], default=S)
    g.add_argument("--slope-max", dest="slope_max", type=float, default=S)
    g.add_argument("--count", type=int, default=S, help="emit the first N slopes instead")
    common(g)
    g.set_defaults(func=cmd_gaps)

    o = sub.add_parser("orbit", help="iterate the section return map")
    o.add_argument("--start", default=S, help="a,b,s,alpha start point")
    o.add_argument("--engine", choices=_CHOICES["engine"], default=S)
    o.add_argument("--iters", type=int, default=S)
    common(o)
    o.set_defaults(func=cmd_orbit)

    m = sub.add_parser("mc-tail", help="Monte Carlo survival curve")
    m.add_argument("--measure", default=S, help="haar-omega | haar-w | torsion:q | periodic-omega:a,alpha | periodic-point")
    m.add_argument("--engine", choices=_CHOICES["engine"], default=S)
    m.add_argument("--t-grid", dest="t_grid", default=S, help="a:b:step or comma list")
    m.add_argument("--samples", type=int, default=S)
    m.add_argument("--seed", type=int, default=S)
    m.add_argument("--workers", type=int, default=S)
    common(m)
    m.set_defaults(func=cmd_mc_tail)

    c = sub.add_parser("closed-form", help="exact tail law tables")
    c.add_argument("--t-grid", dest="t_grid", default=S, help="a:b:step or comma list")
    c.add_argument("--component", default=S, help="tail | cdf | density | bounds | torsion:q")
    c.add_argument("--h", type=float, default=S, help="finite-difference step for density")
    common(c)
    c.set_defaults(func=cmd_closed_form)

    d = sub.add_parser("difftest", help="formula vs enumeration over sampled inputs")
    d.add_argument("region", nargs="?", default=None, help=" | ".join(REGIONS))
    d.add_argument("--samples", type=int, default=S)
    d.add_argument("--seed", type=int, default=S)
    d.add_argument("--workers", type=int, default=S)
    d.add_argument("--mode", choices=_CHOICES["mode"], default=S)
    d.add_argument("--v-domain", dest="v_domain", choices=_CHOICES["v_domain"], default=S)
    d.add_argument("--config", default=S)
    d.add_argument("--out", default=S)
    d.set_defaults(func=cmd_difftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one process may run main many times (tests, the benchmark), so the
    # handler and level are undone on the way out
    log = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        config = _merge_config(args.command, args)
        if config.params.get("plot") and config.params.get("out") is None:
            raise InvalidInputError("--plot needs --out")
        return args.func(config)
    # the state errors subclass InvalidInputError, so they are caught first
    except (
        NotOnTransversalError,
        DegenerateInputError,
        OutOfRegimeError,
        AmbiguityError,
        QuadratureError,
        EstimationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)


if __name__ == "__main__":
    sys.exit(main())
