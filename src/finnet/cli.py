"""Command-line pipeline with reproducible seeding.

Every command is deterministic given (inputs, flags, seed): all
randomness flows from one --seed flag through per-task sub-seeds derived
from (seed, index...) pairs. Every output starts with one metadata
record, built by `_meta`: the head every command shares (tool version,
command, seed, then year or years), then the command's resolved
configuration. Its values keep their types until a writer formats them:
`_header` writes the `#` lines of a CSV or the `//` lines of a DOT file,
a list comma-separated, and `_emit_json` writes the record as the
document's `meta` object, a list as an array. The record does not yet
echo ci-table's --t, nor --swap-factor and --correction, although they
change the rows. Each subcommand is declared by one `_command` call, and
every flag type is built by `_checked`. The commands that draw null
networks make every log-normal fit through `_fits` before any seed or
draw: the first seed imports numpy.random, which stays resident, and a
fit's least-squares solve made on top of it set the process's peak
memory. Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .ingest import AssetSlice, DataError, core_slice, read_asset_file, read_gdp_file
from .lgd import (
    COARSE_THRESHOLDS,
    FINE_D1_MAX,
    FINE_D1_POINTS,
    FINE_D2_MAX,
    FINE_D2_POINTS,
    LgdSpec,
    cascade,
    fine_grid,
    grid_axis,
    influence_ranking,
    severity_sorted,
    sweep_grid,
    sweep_specs,
)
from .knockout import DEFAULT_ALPHA, DEFAULT_SAMPLES, MIN_SAMPLES, STRATEGIES, ci_compare, ci_table, ensemble_knockout
from .metrics import measure_vector
from .netbuild import DEFAULT_GDP_THRESHOLD, RULE_NAMES, ThresholdRule, weighted_edges
from .nullmodels import (
    DEFAULT_SIGMA_CORRECTION,
    DEFAULT_SWAP_FACTOR,
    MAX_SWAP_FACTOR,
    NULL_MODEL_KINDS,
    LogNormalFit,
    NullModelSpec,
    fit_lognormal,
    fit_lognormal_pooled,
)
from .seeding import child_seed

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 2000
ENV_DATA_DIR = "FINNET_DATA_DIR"

# The most years one --years list may name; a range is checked before it is expanded.
MAX_YEARS = 10_000

EXIT_OK = 0
EXIT_DATA_ERROR = 1


def _resolve_input(path: str | None, default_name: str) -> str:
    if path is not None:
        return path
    data_dir = os.environ.get(ENV_DATA_DIR)
    if data_dir:
        return os.path.join(data_dir, default_name)
    raise DataError(f"no path given for {default_name} and {ENV_DATA_DIR} is not set")


def _slices(args: argparse.Namespace) -> list[AssetSlice]:
    """The core slice of each year of --years or --year, read before any work, so a missing year fails first."""
    asset_path = _resolve_input(args.assets, "assets.csv")
    gdp_path = _resolve_input(args.gdp, "gdp.csv")
    if asset_path == "-" and gdp_path == "-":
        raise DataError("only one of assets/gdp can come from standard input")
    assets, gdp = read_asset_file(asset_path), read_gdp_file(gdp_path)
    return [core_slice(assets, gdp, year) for year in (args.years if "years" in args else [args.year])]


def _checked(parse, ok=None, requirement: str = ""):
    """Turn a parser that raises ValueError into an argparse type, so a bad
    value is a usage error (exit 2) that names the problem. With ``ok``,
    a parsed value that fails ``ok(value)`` is refused with ``requirement``."""

    def argtype(text: str):
        try:
            value = parse(text)
            if ok is not None and not ok(value):
                raise ValueError(requirement)
            return value
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return argtype


def _parse_years(text: str) -> list[int]:
    years: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (int(v) for v in part.split("-", 1))
            if hi < lo:
                raise ValueError(f"year range {part} runs backwards")
        else:
            lo = hi = int(part)
        if len(years) + hi - lo >= MAX_YEARS:
            raise ValueError(f"{part} takes the year list past {MAX_YEARS} years")
        years.extend(range(lo, hi + 1))
    if len(set(years)) < len(years):
        raise ValueError("repeats a year")
    return years


def _distinct(allowed: tuple[str, ...] | None, text: str) -> list[str]:
    """A comma list of distinct non-empty names, each one of ``allowed`` if given."""
    names = [v.strip() for v in text.split(",")]
    known = set(allowed) if allowed else set(names) - {""}
    if not set(names) <= known or len(set(names)) < len(names):
        raise ValueError(f"expected distinct names from {','.join(allowed)}" if allowed
                         else "expected distinct non-empty names")
    return names


def _meta(args: argparse.Namespace, extra: dict) -> dict:
    """The metadata record every output starts with: the shared head (``years``
    or ``year``, as the command takes), then ``extra``, every value as typed."""
    span = {"years": args.years} if "years" in args else {"year": args.year}
    return {"finnet": __version__, "command": args.command, "seed": args.seed, **span, **extra}


def _header(meta: dict, prefix: str = "#") -> str:
    """The record as `prefix key=value` lines, a list or tuple written comma-separated."""
    text = {k: ",".join(map(str, v)) if isinstance(v, (list, tuple)) else v for k, v in meta.items()}
    return "".join(f"{prefix} {key}={value}\n" for key, value in text.items())


def _emit(path: str, payload: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def _emit_json(path: str, meta: dict, body: dict) -> None:
    _emit(path, json.dumps({"meta": meta, **body}, indent=2, allow_nan=False).encode("utf-8") + b"\n")


def _emit_table(path: str, meta: dict, columns: list[str], rows: list[list], format: str = "csv") -> None:
    """Write a table as CSV under `#` metadata lines or, for json, as a row-object list."""
    if format == "json":
        _emit_json(path, meta, {"rows": [dict(zip(columns, row)) for row in rows]})
        return
    out = io.StringIO()
    out.write(_header(meta))
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(map(str, row)) + "\n")
    _emit(path, out.getvalue().encode("utf-8"))


def _fits(slices: tuple[AssetSlice, ...], models: list[str], correction: float) -> list[LogNormalFit | None]:
    """Each slice's log-normal fit when ``models`` names log-normal, else None; commands call it before any seed."""
    return [fit_lognormal(s, correction_factor=correction) if "log-normal" in models else None for s in slices]


def cmd_build(args: argparse.Namespace, slice_: AssetSlice) -> None:
    net = ThresholdRule(args.rule, args.t).apply(slice_)
    mean_out = net.num_edges / net.n
    extra = {
        "rule": net.rule,
        "n": net.n,
        "edges": net.num_edges,
        "mean_out_degree": mean_out,
        "coverage": slice_.coverage,
    }
    _emit_table(args.out, _meta(args, extra), ["holder", "issuer"], net.edges())
    print(f"build: year={args.year} rule={net.rule} n={net.n} edges={net.num_edges} "
          f"mean_out_degree={mean_out:.4f}", file=sys.stderr)


def cmd_export(args: argparse.Namespace, slice_: AssetSlice) -> None:
    net = ThresholdRule(args.rule, args.t).apply(slice_)
    rows = weighted_edges(net, slice_)
    meta = _meta(args, {"rule": net.rule, "format": args.format})
    if args.format == "edge-list":
        _emit_table(args.out, meta, ["holder", "issuer", "weight_class"], rows)
    else:
        edges = [f'  "{holder}" -> "{issuer}" [class={cls}];\n' for holder, issuer, cls in rows]
        _emit(args.out, "".join([_header(meta, "//"), "digraph {\n", *edges, "}\n"]).encode("utf-8"))


def cmd_fit_lognormal(args: argparse.Namespace, *slices: AssetSlice) -> None:
    if args.pooled:
        fits = [fit_lognormal_pooled(slices, correction_factor=args.correction)]
    else:
        fits = [fit_lognormal(s, correction_factor=args.correction) for s in slices]
    meta = _meta(args, {"pooled": args.pooled})
    _emit_json(args.out, meta, {"fits": [fit.to_json_dict() for fit in fits]})


def cmd_gen_null(args: argparse.Namespace, slice_: AssetSlice) -> None:
    (fit,) = _fits((slice_,), [args.model], args.correction)
    rule = ThresholdRule(args.rule, args.t)
    spec = NullModelSpec(args.model, args.seed, rule.apply(slice_), args.swap_factor, fit, rule)
    rows = []
    for index in range(args.count):
        net = spec.sample(index)
        rows.extend([index, holder, issuer] for holder, issuer in net.edges())
    extra = {"rule": rule.label, "model": args.model, "count": args.count}
    _emit_table(args.out, _meta(args, extra), ["sample", "holder", "issuer"], rows)


def cmd_knockout(args: argparse.Namespace, *slices: AssetSlice) -> None:
    fits = _fits(slices, [args.model], args.correction)
    rule = ThresholdRule(args.rule, args.t)
    sources = [
        rule.apply(s) if args.model == "empirical"
        else NullModelSpec(args.model, child_seed(args.seed, i), rule.apply(s), args.swap_factor, fit, rule)
        for i, (s, fit) in enumerate(zip(slices, fits))
    ]
    summary = ensemble_knockout(sources, args.strategy, args.trials, args.seed, args.jobs)
    extra = {
        "rule": rule.label,
        "model": args.model,
        "strategy": args.strategy,
        "trials": args.trials,
        "samples": args.samples,
        "n_traces": summary.n_traces,
    }
    rows = [[float(g), float(m), float(s)] for g, m, s in zip(summary.grid, summary.mean, summary.std)]
    _emit_table(args.out, _meta(args, extra), ["grid_point", "mean", "std"], rows, args.format)


def cmd_ci_table(args: argparse.Namespace, *slices: AssetSlice) -> None:
    fits = _fits(slices, args.models, args.correction)
    cells = []
    for yi, (slice_, fit) in enumerate(zip(slices, fits)):
        for ri, rule_name in enumerate(args.rules):
            rule = ThresholdRule(rule_name, args.t)
            net = rule.apply(slice_)
            empirical = measure_vector(net)
            for mi, model in enumerate(args.models):
                spec = NullModelSpec(model, child_seed(args.seed, yi, ri, mi), net, args.swap_factor,
                                     fit if model == "log-normal" else None, rule)
                cells.append((empirical, spec))
    reports = ci_compare(cells, args.samples, args.alpha, jobs=args.jobs)
    extra = {"rules": args.rules, "models": args.models, "samples": args.samples, "alpha": args.alpha}
    columns = ["measure", "model", "rule", "score", "below", "within", "above", "undefined", "years"]
    rows = [[r[c] for c in columns] for r in ci_table(reports)]
    _emit_table(args.out, _meta(args, extra), columns, rows, args.format)


def cmd_lgd(args: argparse.Namespace, slice_: AssetSlice) -> None:
    spec = LgdSpec(args.d1, args.d2, args.haircut)
    result = cascade(slice_, set(args.initial), spec)
    meta = _meta(args, {"d1": args.d1, "d2": args.d2, "haircut": args.haircut})
    body = {
        "initial": sorted(result.initial),
        "rounds": [sorted(r) for r in result.rounds],
        "defaulted": sorted(result.defaulted),
        "impact": result.impact,
        "num_rounds": result.num_rounds,
    }
    _emit_json(args.out, meta, {"cascade": body})


def _combo_cell(argmax: tuple[tuple[str, ...], ...], cap: int = 20) -> str:
    shown = ["+".join(combo) for combo in argmax[:cap]]
    if len(argmax) > cap:
        shown.append(f"...{len(argmax) - cap} more")
    return "|".join(shown)


def cmd_lgd_sweep(args: argparse.Namespace, *slices: AssetSlice) -> None:
    summaries = []
    for slice_ in slices:
        summaries.extend(sweep_grid(slice_, args.d1_grid, args.d2_grid, args.k_max, args.haircut))
    ordered = severity_sorted(summaries)
    extra = {"d1_grid": args.d1_grid, "d2_grid": args.d2_grid, "k_max": args.k_max, "haircut": args.haircut}
    rows = [
        [s.year, s.spec.d1, s.spec.d2, s.k, s.mean, s.worst5_mean, s.worst, _combo_cell(s.argmax)]
        for s in ordered
    ]
    columns = ["year", "d1", "d2", "k", "mean", "worst5", "worst", "argmax_combos"]
    _emit_table(args.out, _meta(args, extra), columns, rows)
    if args.ranking_out:
        ranking = influence_ranking(summaries, args.top_n)
        rank_rows = [
            [k, "+".join(combo), count]
            for k, pairs in ranking.items()
            for combo, count in pairs
        ]
        meta = {**_meta(args, {**extra, "top_n": args.top_n}), "command": "lgd-sweep/ranking"}
        _emit_table(args.ranking_out, meta, ["k", "combo", "count"], rank_rows)


def _pigs_axes(args: argparse.Namespace) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The checked (d1, d2) axes of pigs-grid: `points` values from 0 to each max."""
    return (grid_axis(np.linspace(0.0, args.d1_max, args.d1_points), "d1"),
            grid_axis(np.linspace(0.0, args.d2_max, args.d2_points), "d2"))


def cmd_pigs_grid(args: argparse.Namespace, slice_: AssetSlice) -> None:
    cells = fine_grid(slice_, tuple(args.group), *_pigs_axes(args), haircut=args.haircut)
    extra = {
        "group": args.group,
        "d1_max": args.d1_max,
        "d1_points": args.d1_points,
        "d2_max": args.d2_max,
        "d2_points": args.d2_points,
        "haircut": args.haircut,
    }
    rows = [["+".join(c.subset), c.d1, c.d2, c.impact, c.rounds] for c in cells]
    _emit_table(args.out, _meta(args, extra), ["subset", "d1", "d2", "impact", "rounds"], rows)


def _command(sub, name: str, func, summary: str, years: bool = False, check=None) -> argparse.ArgumentParser:
    """Declare one subcommand: its parser, the flags every command shares,
    the function ``main`` runs and the flag check it runs first, if any."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--assets", help=f"asset CSV path, '-' for stdin (default: ${ENV_DATA_DIR}/assets.csv)")
    parser.add_argument("--gdp", help=f"gdp CSV path, '-' for stdin (default: ${ENV_DATA_DIR}/gdp.csv)")
    parser.add_argument("--seed", type=SEED, default=DEFAULT_SEED, help="master seed (default %(default)s)")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    if years:
        parser.add_argument("--years", type=_checked(_parse_years), required=True,
                            help="year list/range, e.g. 2007 or 2001-2009")
    else:
        parser.add_argument("--year", type=int, required=True, help="data year")
    parser.set_defaults(func=func, check=check)
    return parser


def _add_rule(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rule", choices=RULE_NAMES, default="A",
                        help="thresholding rule (default %(default)s)")
    parser.add_argument("--t", type=GDP_THRESHOLD, default=DEFAULT_GDP_THRESHOLD, help=T_HELP)


def _add_null_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--swap-factor", type=SWAP_FACTOR, default=DEFAULT_SWAP_FACTOR,
                        help=f"rewiring swaps attempted per edge, 1 to {MAX_SWAP_FACTOR}; a draw peaks at 32 bytes "
                        "per attempt, about 114 MB at 1000 on a complete 60-node graph (default %(default)s)")
    parser.add_argument("--correction", type=CORRECTION, default=DEFAULT_SIGMA_CORRECTION, help=CORRECTION_HELP)


D1 = _checked(lambda text: grid_axis([text], "d1")[0])
D2 = _checked(lambda text: grid_axis([text], "d2")[0])
HAIRCUT = _checked(lambda text: grid_axis([text], "haircut")[0])
# Parsed to floats, so the record holds the thresholds, not their spelling.
D1_GRID = _checked(lambda text: grid_axis(text.split(","), "d1"))
D2_GRID = _checked(lambda text: grid_axis(text.split(","), "d2"))
POSITIVE = _checked(int, lambda v: v >= 1, "must be >= 1")
SEED = _checked(int, lambda v: v >= 0, "must be >= 0")
SWAP_FACTOR = _checked(int, lambda v: 1 <= v <= MAX_SWAP_FACTOR, f"must be >= 1 and <= {MAX_SWAP_FACTOR}")
NAMES = _checked(partial(_distinct, None))
RULES = _checked(partial(_distinct, RULE_NAMES))
MODELS = _checked(lambda text: list(NULL_MODEL_KINDS) if text == "all" else _distinct(NULL_MODEL_KINDS, text))
SAMPLES = _checked(int, lambda v: v >= MIN_SAMPLES, f"must be >= {MIN_SAMPLES}")
ALPHA = _checked(float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
CORRECTION = _checked(float, lambda v: 0.0 <= v < math.inf, "must be finite and >= 0")
GDP_THRESHOLD = _checked(lambda text: ThresholdRule("B", float(text)).t)
# One help text for each flag that several commands add themselves, so their --help cannot drift.
T_HELP = "rule-B GDP fraction threshold (default %(default)s)"
CORRECTION_HELP = "sigma correction factor (default %(default)s)"
HAIRCUT_HELP = "share of an exposure lost on default, in (0, 1] (default %(default)s)"
FORMAT_HELP = "output format: %(choices)s (default %(default)s)"
MODEL_HELP = "network family: %(choices)s (knockout defaults to the empirical network)"
JOBS_HELP = "max parallel workers, capped at the CPUs this process may use (default %(default)s)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finnet",
        description="Cross-border financial network analysis pipeline",
    )
    parser.add_argument("--version", action="version", version=f"finnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "build", cmd_build, "threshold one year into a binary network")
    _add_rule(p)

    p = _command(sub, "export", cmd_export, "export a network with exposure weight classes")
    _add_rule(p)
    p.add_argument("--format", choices=("edge-list", "dot"), default="edge-list", help=FORMAT_HELP)

    p = _command(sub, "fit-lognormal", cmd_fit_lognormal, "fit the censored log-normal asset model", years=True)
    p.add_argument("--pooled", action="store_true", help="one fit over all years")
    p.add_argument("--correction", type=CORRECTION, default=DEFAULT_SIGMA_CORRECTION, help=CORRECTION_HELP)

    p = _command(sub, "gen-null", cmd_gen_null, "sample networks from a null-model family")
    _add_rule(p)
    p.add_argument("--model", choices=NULL_MODEL_KINDS, required=True, help=MODEL_HELP)
    p.add_argument("--count", type=POSITIVE, default=1, help="number of samples (default %(default)s)")
    _add_null_params(p)

    p = _command(sub, "knockout", cmd_knockout, "error/attack knockout curves", years=True)
    _add_rule(p)
    p.add_argument("--strategy", choices=STRATEGIES, required=True,
                   help="error removes a random node each step, attack one of highest in+out degree")
    p.add_argument("--model", choices=("empirical",) + NULL_MODEL_KINDS, default="empirical", help=MODEL_HELP)
    p.add_argument("--trials", type=POSITIVE, default=DEFAULT_TRIALS,
                   help="knockout traces per network (default %(default)s)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="unused by knockout; only echoed in the output header (default %(default)s)")
    _add_null_params(p)
    p.add_argument("--jobs", type=POSITIVE, default=1, help=JOBS_HELP)
    p.add_argument("--format", choices=("csv", "json"), default="csv", help=FORMAT_HELP)

    p = _command(sub, "ci-table", cmd_ci_table, "confidence-interval comparison table", years=True)
    p.add_argument("--rules", type=RULES, default="A,B", help="comma list of rules (default %(default)s)")
    p.add_argument("--t", type=GDP_THRESHOLD, default=DEFAULT_GDP_THRESHOLD, help=T_HELP)
    p.add_argument("--models", type=MODELS, default="all", help="comma list of null models or 'all'")
    p.add_argument("--samples", type=SAMPLES, default=DEFAULT_SAMPLES,
                   help=f"null networks drawn per (year, rule, model), at least {MIN_SAMPLES} (default %(default)s)")
    p.add_argument("--alpha", type=ALPHA, default=DEFAULT_ALPHA,
                   help="the interval is the central 1 - alpha of the null samples (default %(default)s)")
    _add_null_params(p)
    p.add_argument("--jobs", type=POSITIVE, default=1, help=JOBS_HELP)
    p.add_argument("--format", choices=("csv", "json"), default="csv", help=FORMAT_HELP)

    p = _command(sub, "lgd", cmd_lgd, "single loss-given-default cascade trace")
    p.add_argument("--initial", type=NAMES, required=True, help="comma list of initially defaulting countries")
    p.add_argument("--d1", type=D1, required=True, help="portfolio-fraction threshold")
    p.add_argument("--d2", type=D2, required=True, help="GDP-fraction threshold")
    p.add_argument("--haircut", type=HAIRCUT, default=1.0, help=HAIRCUT_HELP)

    p = _command(sub, "lgd-sweep", cmd_lgd_sweep, "impact summaries over a threshold grid", years=True,
                 check=lambda a: sweep_specs(a.d1_grid, a.d2_grid, a.haircut))
    p.add_argument("--d1-grid", type=D1_GRID, default=",".join(map(str, COARSE_THRESHOLDS)),
                   help="comma list of portfolio-fraction thresholds (default %(default)s)")
    p.add_argument("--d2-grid", type=D2_GRID, default=",".join(map(str, COARSE_THRESHOLDS)),
                   help="comma list of GDP-fraction thresholds (default %(default)s)")
    p.add_argument("--k-max", type=int, default=3, choices=(1, 2, 3),
                   help="largest initial default set: %(choices)s (default %(default)s)")
    p.add_argument("--haircut", type=HAIRCUT, default=1.0, help=HAIRCUT_HELP)
    p.add_argument("--ranking-out", help="optional CSV of influence rankings")
    p.add_argument("--top-n", type=POSITIVE, default=10,
                   help="combinations per set size in the influence ranking (default %(default)s)")

    p = _command(sub, "pigs-grid", cmd_pigs_grid, "fine threshold grid for a country group", check=_pigs_axes)
    p.add_argument("--group", type=NAMES, required=True, help="comma list of group members")
    p.add_argument("--d1-max", type=D1, default=FINE_D1_MAX,
                   help="largest portfolio-fraction threshold of the grid (default %(default)s)")
    p.add_argument("--d1-points", type=POSITIVE, default=FINE_D1_POINTS,
                   help="portfolio-fraction thresholds from 0 to --d1-max (default %(default)s)")
    p.add_argument("--d2-max", type=D2, default=FINE_D2_MAX,
                   help="largest GDP-fraction threshold of the grid (default %(default)s)")
    p.add_argument("--d2-points", type=POSITIVE, default=FINE_D2_POINTS,
                   help="GDP-fraction thresholds from 0 to --d2-max (default %(default)s)")
    p.add_argument("--haircut", type=HAIRCUT, default=1.0, help=HAIRCUT_HELP)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Check the flags (exit 2), read both files and every named year (exit 1), then run the command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse hands over the value of --flag=-- as an empty list and never calls the flag's type.
        for name, value in vars(args).items():
            if value == []:
                raise ValueError(f"argument --{name.replace('_', '-')}: expected one value")
        if args.check is not None:
            args.check(args)
    except ValueError as exc:
        parser.error(f"{args.command}: {exc}")
    try:
        args.func(args, *_slices(args))
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (DataError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DATA_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
