"""Batch command line tying the package together.

Five subcommands: ``gaps`` (strip slopes and their differences), ``orbit``
(transversal return orbits), ``mc-tail`` (seeded Monte Carlo survival
curves), ``closed-form`` (exact tail/cdf/density/bounds tables), and
``difftest`` (formula-vs-enumeration comparison reports).

Outputs are CSV (UTF-8, header row, LF) or a JSON report; JSON reports
follow the shipped ``report-schema.json``.  Exit codes: 0 success or a
known-discrepancy report, 2 usage or parse failure, 3 invalid state
(off-transversal starts, out-of-regime thresholds), 4 counterexamples in a
region whose formula is checked as ground truth, 141 when the reader of
standard output closes it early (128 + SIGPIPE).  The top-level
``--log-level`` (default WARNING) sends the package's log messages at that
level and above to stderr.
"""

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy

from . import __version__
from .errors import (
    DegenerateInputError,
    EstimationError,
    InvalidInputError,
    NotOnTransversalError,
    OutOfRegimeError,
    QuadratureError,
    SlitgapsError,
)
from .geometry import AffineLattice, Mat2, SurfaceMode, Vec2, enumerate_strip, slopes_and_gaps
from .measures import ENGINES, FORMULA, ORACLE_DOUBLED, REGIONS, V_DOMAINS, MeasureSpec, diff_test, mc_tail, orbit
from .oracle import oracle_strip_slopes
from .table import write_table
from .transversal import (
    OMEGA, SECTION_KINDS, _first_surface, check_rows, flowed_section_coords, row_columns,
)

SPEC_VERSION = "1.0"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STATE = 3
EXIT_REGRESSION = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that closed the pipe

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


# the config-file words for a flag that takes no value (--plot)
_BOOLEANS = {**dict.fromkeys(("1", "true", "yes", "on"), True), **dict.fromkeys(("0", "false", "no", "off"), False)}

def _config_value(action: argparse.Action, raw: str):
    """A config-file value converted and checked as the flag of ``action``
    converts and checks its argument: a flag that takes no value reads a
    ``_BOOLEANS`` word."""
    key = action.dest
    try:
        value = _BOOLEANS[raw.lower()] if action.nargs == 0 else (action.type or str)(raw)
    except (ValueError, KeyError) as exc:
        raise InvalidInputError(f"bad config value for {key}: {raw!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise InvalidInputError(f"bad config value for {key}: {raw!r}; choose from {', '.join(action.choices)}")
    return value


def _merge_config(command: str, args: argparse.Namespace) -> RunConfig:
    """The command's flag defaults (``args.defaults``, filed beside each
    flag by ``build_parser``), then the config file's values over them,
    then the flags the user gave: explicit flags win.  A file takes the keys
    of the command's own flags (``args.options``, its argparse actions by
    key), each converted and checked as its flag is."""
    explicit = {k: v for k, v in vars(args).items() if k not in ("command", "func", "options", "defaults", "log_level")}
    config_path = explicit.pop("config", None)
    params = dict(args.defaults)
    if config_path is not None:
        for key, raw in _parse_config_file(config_path).items():
            if key not in args.options:
                raise InvalidInputError(f"unknown config key {key!r}")
            params[key] = _config_value(args.options[key], raw)
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
    """`a:b:step` inclusive grid, each value once, or an explicit comma list."""
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
        # one point more than exact arithmetic gives, in case rounding lets
        # one in; a step below the spacing of floats near b gives a point
        # equal to the one before it, which is kept once
        vals = []
        for k in range(math.floor(span) + 2):
            t = a + k * step
            if t > end:
                break
            if not vals or min(t, b) > vals[-1]:
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


@contextlib.contextmanager
def _writing(path, mode="w"):
    """``path`` opened for writing (text as UTF-8); a failure to open or
    write it is a usage error, exit 2."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(out, header, columns, empty=None):
    """The CSV table of ``columns`` (see ``table.write_table``) to the file
    ``out``, or to stdout when it is None."""
    if out is None:
        write_table(lambda data: sys.stdout.write(data.decode("ascii")), header, columns, empty)
        return
    with _writing(out, "wb") as fh:
        write_table(fh.write, header, columns, empty)


def _write_json(out, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    with _writing(out) as fh:
        fh.write(text)


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
    with _writing(out + ".gp") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_outputs(config, header, columns, summary, plot_columns, *, results, with_errors=False, empty=None):
    """The table of ``columns`` as CSV (``empty`` as in ``_write_csv``), plus
    a JSON sidecar with ``summary`` when written to a file, and the gnuplot
    script under --plot; or a JSON report of ``results``.  The files are one
    unit: where the sidecar or the script cannot be written, the files
    written before it are removed."""
    p = config.params
    out = p["out"]
    if p["format"] == "json":
        _write_json(out, _report(config, results))
        return EXIT_OK
    _write_csv(out, header, columns, empty)
    if out is None:
        return EXIT_OK
    written = [out]
    try:
        _write_json(_sidecar_path(out), _report(config, summary))
        written.append(_sidecar_path(out))
        if p["plot"]:
            _write_plot_script(out, plot_columns, with_errors)
    except BaseException:
        for path in written:
            os.remove(path)
        raise
    return EXIT_OK


def cmd_gaps(config: RunConfig) -> int:
    p = config.params
    if p.get("omega") is not None and p.get("surface") is not None:
        raise InvalidInputError("pass either --omega or --surface, not both")
    if p.get("omega") is not None:
        row = row_columns([(OMEGA, *_parse_floats(p["omega"], 4, "--omega"))])
        check_rows(row)
        surface = _first_surface(row)
    elif p.get("surface") is not None:
        surface = _load_surface(p["surface"])
    else:
        raise InvalidInputError("gaps needs --omega coords or a --surface file")
    mode = SurfaceMode(p["mode"])

    if p.get("slope_max") is None and p.get("count") is None:
        raise InvalidInputError("gaps needs --slope-max or --count")
    if p.get("slope_max") is not None and p.get("count") is not None:
        raise InvalidInputError("pass either --slope-max or --count, not both")
    if p.get("slope_max") is not None:
        slopes = slopes_and_gaps(enumerate_strip(surface, mode, float(p["slope_max"]))).slopes
    else:
        slopes = oracle_strip_slopes(surface, mode, int(p["count"]))
    n = len(slopes)
    gaps = numpy.diff(slopes)
    # the last slope has no gap: its cell is empty
    last = numpy.arange(n) == n - 1
    return _write_outputs(
        config, ("index", "slope", "gap"), (numpy.arange(n), slopes, numpy.append(gaps, 0.0)[:n]),
        {"n_slopes": n}, ("slope", "gap"), results={"slopes": slopes.tolist(), "gaps": gaps.tolist()},
        empty=(None, None, last),
    )


def cmd_orbit(config: RunConfig) -> int:
    p = config.params
    if p.get("start") is None:
        raise InvalidInputError("orbit needs --start a,b,s,alpha")
    start = first = row_columns([(OMEGA, *_parse_floats(p["start"], 4, "--start"))])
    try:
        check_rows(start)
    except SlitgapsError as exc:
        raise NotOnTransversalError(f"start is not on the transversal: {exc}") from exc
    engine = p["engine"]
    iters = int(p["iters"])
    if iters < 0:
        raise InvalidInputError("--iters must be >= 0")

    if engine == ORACLE_DOUBLED:
        # the doubled oracle follows the slit-cover section, start included
        first = flowed_section_coords(_first_surface(start), (0.0,), slit=True)
    [(returns, points)] = orbit(start, engine, iters)
    # row k shows the point the k-th return leaves from
    kind, a, b, s, alpha = (numpy.concatenate([c0, c])[:iters] for c0, c in zip(first, points))
    vertical = numpy.isnan(b)  # b is nan on vertical rows, an empty cell
    header = ("step", "return_time", "kind", "a", "b", "s", "alpha")
    results = None
    if p["format"] == "json":
        kinds = [SECTION_KINDS[k] for k in kind.tolist()]
        b_cells = ["" if v else x for v, x in zip(vertical.tolist(), b.tolist())]
        rows = zip(range(iters), returns.tolist(), kinds, a.tolist(), b_cells, s.tolist(), alpha.tolist())
        results = [dict(zip(header, row)) for row in rows]
    labels = numpy.array(SECTION_KINDS, dtype=bytes)[kind]
    return _write_outputs(
        config, header, (numpy.arange(iters), returns, labels, a, b, s, alpha), {"steps": iters},
        ("return_time",), results=results, empty=(None,) * 4 + (vertical, None, None),
    )


def cmd_mc_tail(config: RunConfig) -> int:
    p = config.params
    if p.get("measure") is None or p.get("t_grid") is None:
        raise InvalidInputError("mc-tail needs --measure and --t-grid")
    measure = MeasureSpec.parse(p["measure"])
    grid = parse_t_grid(p["t_grid"])
    est = mc_tail(measure, p["engine"], grid, int(p["samples"]), int(p["seed"]), int(p["workers"]))
    summary = est.to_dict()
    columns = (est.t_grid, est.survival, est.ci_halfwidth, numpy.full(len(est.t_grid), float(est.n_eff)))
    return _write_outputs(
        config, ("t", "survival", "ci_halfwidth", "n_eff"), columns, summary,
        ("survival",), results=summary, with_errors=True,
    )


def _closed_form_rows(component: str, grid):
    from . import closedform  # scipy's quadrature loads only for this command
    law = {"tail": closedform.w_tail_closed_form, "cdf": closedform.w_cdf, "density": closedform.w_density}
    if component in law:
        return ("t", component), [(t, law[component](t)) for t in grid]
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
    header, rows = _closed_form_rows(p["component"], grid)
    return _write_outputs(
        config, header, tuple(zip(*rows)), {"rows": len(rows)}, header[1:],
        results=[dict(zip(header, row)) for row in rows],
    )


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
    """A new parser of the command line (``main`` keeps one of its own,
    ``_parser``)."""
    parser = argparse.ArgumentParser(
        prog="slitgaps",
        description="gap statistics of strip slopes on marked tori and slit covers",
        # no prefixes: a flag that is gone must not resolve as a shorter
        # spelling of another (--h of --help)
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"slitgaps {__version__}")
    parser.add_argument(
        "--log-level", dest="log_level", type=str.upper, default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="write the package's log messages at this level and above to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS
    modes = tuple(m.value for m in SurfaceMode)

    def command(name, func, help):
        """Add the subparser of a command; return its add_argument, which
        also files each option's action, and its ``default`` when it has
        one, under its key for ``_merge_config``.  The parser itself gets
        no defaults, so a namespace holds only the flags the user gave."""
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        options, defaults = {}, {}
        sp.set_defaults(func=func, options=options, defaults=defaults)

        def add(*flags, default=S, **kwargs):
            action = sp.add_argument(*flags, default=S, **kwargs)
            if action.dest != "config":
                options[action.dest] = action
            if default is not S:
                defaults[action.dest] = default

        return add

    def common(add):
        add("--config", help="key = value defaults file; flags win")
        add("--out", default=None, help="output path (default: stdout)")
        add("--format", choices=("csv", "json"), default="csv")
        add("--plot", action="store_true", default=False, help="emit a gnuplot script next to --out")

    add = command("gaps", cmd_gaps, "strip slopes and consecutive gaps")
    add("--omega", help="a,b,s,alpha section coordinates")
    add("--surface", help="JSON file with g (2x2) and v (2)")
    add("--mode", choices=modes, default=SurfaceMode.AFFINE_ONLY.value)
    add("--slope-max", dest="slope_max", type=float)
    add("--count", type=int, help="emit the first N slopes instead")
    common(add)

    add = command("orbit", cmd_orbit, "iterate the section return map")
    add("--start", help="a,b,s,alpha start point")
    add("--engine", choices=ENGINES, default=FORMULA)
    add("--iters", type=int, default=100)
    common(add)

    add = command("mc-tail", cmd_mc_tail, "Monte Carlo survival curve")
    add("--measure", help="haar-omega | haar-w | torsion:q | periodic-omega:a,alpha | periodic-point")
    add("--engine", choices=ENGINES, default=FORMULA)
    add("--t-grid", dest="t_grid", help="a:b:step or comma list")
    add("--samples", type=int, default=100_000)
    add("--seed", type=int, default=0)
    add("--workers", type=int, default=1)
    common(add)

    add = command("closed-form", cmd_closed_form, "exact tail law tables")
    add("--t-grid", dest="t_grid", help="a:b:step or comma list")
    add("--component", default="tail", help="tail | cdf | density | bounds | torsion:q")
    common(add)

    add = command("difftest", cmd_difftest, "formula vs enumeration over sampled inputs")
    add("region", nargs="?", help=" | ".join(REGIONS))
    add("--samples", type=int, default=10_000)
    add("--seed", type=int, default=0)
    add("--workers", type=int, default=1)
    add("--mode", choices=modes, default=SurfaceMode.AFFINE_ONLY.value)
    add("--v-domain", dest="v_domain", choices=V_DOMAINS, default="fundamental")
    add("--config")
    add("--out", default=None)

    return parser


# main's parser, built on first use and kept: the parsers build_parser
# returns are their callers' own, and a caller may change one (a tracer that
# wraps its parse_args) without that reaching main
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code.

    The parser is built once per process, on the first call: every later
    call of ``main`` in the process (tests, the benchmark, scripts) parses
    with the same parser and skips building its argparse actions.  ``main``
    only reads it: each call's values live in a namespace and a config of
    their own, so none carries over to the next call.  A parser that
    ``build_parser`` returns is a new one, so a caller that changes it does
    not change what ``main`` parses with."""
    args = _parser().parse_args(argv)
    # one process may run main many times (tests, the benchmark), so the
    # handler and level are undone on the way out
    log = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        config = _merge_config(args.command, args)
        if config.params.get("plot"):
            if config.params.get("out") is None:
                raise InvalidInputError("--plot needs --out")
            if config.params.get("format") == "json":
                raise InvalidInputError("--plot needs --format csv: it plots the CSV table")
        code = args.func(config)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # exit has nowhere to fail, and exit quietly as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    # the state errors subclass InvalidInputError, so they are caught first
    except (
        NotOnTransversalError,
        DegenerateInputError,
        OutOfRegimeError,
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
