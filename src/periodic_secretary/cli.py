"""Command-line front end wiring the library into reproducible workflows.

One subcommand per workflow stage: generate synthetic streams, run a single
selector, tune the threshold slack, run the full comparison protocol, and
evaluate the theoretical bounds. Each option is declared once, in
``_OPTIONS``, with its type, built-in default and least value. ``main`` reads
a config file's entries as flags put before the command line's own, so
argparse types both and a flag overrides the file, and every invocation
writes a manifest of its typed configuration and seed into the output
directory so runs can be replayed exactly. Errors exit nonzero with a single
``error: ...`` line.
"""

from __future__ import annotations

import argparse
import functools
import platform
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .bounds import BoundInputs, bound_report, format_bound_report, write_bound_report
from .gp import GPHyperparams, load_hyperparams
from .harness import (
    _MONOTONE_NOISE_FLOOR,
    ALGORITHM_NAMES,
    AlgorithmSpec,
    ExperimentConfig,
    run_comparison,
    tune_threshold_slack,
    write_comparison_report,
    write_tuning_csv,
)
from .kv import format_kv, format_value, parse_float_list, read_kv_file, write_kv_file
from .selectors import utility_trace_for, write_selection_csv
from .stream import (
    CsvSchema,
    PeriodicStreamSpec,
    generate_periodic_stream,
    ingest_csv,
    two_sine_waveform,
    write_stream_csv,
)
from .utility import UtilityFunction

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with single-line machine-parsable errors."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


class _Option(NamedTuple):
    """An option, keyed by its config name: its help (one per subcommand where
    the meaning differs), argparse type (bool: a store_true flag), built-in
    default, flag if not the name with dashes, and least accepted value."""

    help: "str | dict[str, str]"
    type: "type | None" = None
    default: object = None
    flag: "str | None" = None
    low: "int | None" = None


_OPTIONS = {
    "out": _Option("output directory", default="."),
    "config": _Option("key-value config file; flags override its values"),
    "seed": _Option("random seed", int, 0, low=0),
    "period": _Option("samples per period", int, low=1),
    "periods": _Option("number of periods (N = periods * period)", int, low=1),
    "noise": _Option("per-sample noise variance", float, 0.0, low=0),
    "amplitude": _Option("waveform amplitude", float, 1.0),
    "input": _Option("input stream CSV"),
    "index_col": _Option("index/time column name", default="t"),
    "feature_cols": _Option("comma-separated feature column names", default="x0"),
    "qoi_col": _Option("optional qoi column name"),
    "algo": _Option(" | ".join(ALGORITHM_NAMES)),
    "algos": _Option(
        "comma-separated algorithms; periodic takes a slack, e.g. periodic:0.5,scheduled"
    ),
    "k": _Option("sampling capacity", int, low=1),
    "threshold_slack": _Option("threshold slack (>= 0)", float, flag="--lambda", low=0),
    "utility": _Option("entropy or modular (weights = first feature column)", default="entropy"),
    "hyper": _Option("GP hyperparameter config file"),
    "grid": _Option("comma-separated slack grid"),
    "runs": _Option({"tune": "simulated streams per grid value", "evaluate": "trial count"}, int, 50,
                    low=1),
    "block_len": _Option("block length for trial permutations (default: period)", int, low=1),
    "test_fraction": _Option("held-out fraction", float, 0.2),
    "no_mse": _Option("skip held-out MSE evaluation", bool, False),
    "sigma_u": _Option("utility noise standard deviation (squared internally)", float, low=0),
    "N": _Option("stream length", int, low=1),
    "T": _Option("period", int, low=1),
    "f_opt": _Option("utility of the optimal set", float),
}


def _flag(name: str) -> str:
    return _OPTIONS[name].flag or f"--{name.replace('_', '-')}"


def _config_flags(parser: _Parser, config: str, names: tuple[str, ...]) -> list[str]:
    """The config file's entries as flags. A bool entry must say true or
    false (in any case) and gives its flag when true; a manifest's
    ``subcommand`` key is skipped."""
    flags = []
    for key, value in read_kv_file(config).items():
        name = key.replace("-", "_")
        if name == "subcommand":
            continue
        if name not in names:
            parser.error(f"unknown config key {key!r} in {config}")
        if _OPTIONS[name].type is not bool:
            flags.append(f"{_flag(name)}={value}")
        elif value.lower() not in ("true", "false"):
            parser.error(f"{name} must be true or false, got {value!r}")
        elif value.lower() == "true":
            flags.append(_flag(name))
    return flags


def _require(parser: _Parser, args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"missing required option {_flag(name)}")


def _check_least(parser: _Parser, args: argparse.Namespace, names: tuple[str, ...]) -> None:
    for name in names:
        low, value = _OPTIONS[name].low, getattr(args, name)
        if low is not None and value is not None and not value >= low:
            parser.error(f"{_flag(name)} must be >= {low}, got {value}")


def _write_manifest(outdir: Path, subcommand: str, args: argparse.Namespace) -> None:
    """Write the resolved options as ``manifest.txt``, after comment lines
    naming the Python and numpy that ran: a ``--config`` replay skips them,
    and they show which numpy produced bits that depend on its internals."""
    entries = {"subcommand": subcommand}
    for key in sorted(vars(args)):
        if key in ("func", "config", "subcommand"):
            continue
        value = getattr(args, key)
        if value is None:
            continue
        entries[key] = str(value)
    versions = (f"python {platform.python_version()}", f"numpy {np.__version__}")
    write_kv_file(entries, outdir / "manifest.txt", comments=versions)


def _outdir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _schema_from_args(args: argparse.Namespace) -> CsvSchema:
    features = tuple(c.strip() for c in args.feature_cols.split(",") if c.strip())
    return CsvSchema(index_col=args.index_col, feature_cols=features, qoi_col=args.qoi_col)


def _non_monotone_flag(hyper: GPHyperparams) -> dict[str, str]:
    """Flag an entropy utility whose noise variance is below 1/(2*pi*e).

    There a conditional variance can fall below 1/(2*pi*e), so a gain can be
    negative: the utility is not monotone, the guarantees do not apply, and
    at zero noise roundoff decides picks. Prints a warning and returns the
    summary entry; returns nothing at or above the floor.
    """
    if not hyper.noise_variance < _MONOTONE_NOISE_FLOOR:
        return {}
    note = (
        f"entropy noise_variance {hyper.noise_variance:g} is below 1/(2*pi*e)"
        f" ({_MONOTONE_NOISE_FLOOR:.4g}): gains can be negative, so the utility is not monotone"
    )
    print(f"warning: {note}", file=sys.stderr)
    return {"non_monotone": note}


def _two_sine_spec(args: argparse.Namespace) -> PeriodicStreamSpec:
    """The synthetic stream that generate and tune share."""
    return PeriodicStreamSpec(
        period_T=args.period,
        noise_cov=np.array([[args.noise]]),
        length_N=args.period * args.periods,
        base_waveform=two_sine_waveform(args.period, amplitude=args.amplitude),
    )


def _cmd_generate(parser: _Parser, args: argparse.Namespace) -> None:
    stream = generate_periodic_stream(_two_sine_spec(args), args.seed)
    out = _outdir(args)
    write_stream_csv(stream, out / "stream.csv")
    print(f"wrote {out / 'stream.csv'} ({len(stream)} rows)")


def _cmd_select(parser: _Parser, args: argparse.Namespace) -> None:
    try:
        algo = AlgorithmSpec(args.algo, threshold_slack=args.threshold_slack)
    except ValueError as exc:
        parser.error(str(exc))
    if args.utility not in ("entropy", "modular"):
        parser.error(f"unknown utility {args.utility!r}")
    if algo.needs_period:
        _require(parser, args, "period")
    stream = ingest_csv(args.input, _schema_from_args(args))

    f = None
    flag = {}
    if algo.reads_utility or args.utility == "modular" or args.hyper is not None:
        if args.utility == "modular":
            f = UtilityFunction.modular(stream.feature_matrix[:, 0])
        else:
            if args.hyper is None:
                parser.error("--hyper config file is required for the entropy utility")
            f = UtilityFunction.entropy(load_hyperparams(args.hyper))
            flag = _non_monotone_flag(f.hyper)

    result = algo.run(stream.observations, f, args.k, args.period, args.seed)
    trace = result.utility_trace
    if not trace and f is not None and result.chosen:
        trace = utility_trace_for(f, stream.observations[result.chosen])

    out = _outdir(args)
    write_selection_csv(result, out / "selection.csv")
    final = format_value(trace[-1]) if trace else "n/a"
    write_kv_file(
        {
            "algorithm": args.algo,
            "selected": len(result.chosen),
            "k": args.k,
            "final_utility": final,
            "terminated": result.terminated,
            **flag,
        },
        out / "summary.txt",
    )
    print(f"selected {len(result.chosen)}/{args.k} samples; final utility {final}; {result.terminated}")


def _cmd_tune(parser: _Parser, args: argparse.Namespace) -> None:
    grid = parse_float_list(args.grid)
    if any(not s >= 0 for s in grid):
        parser.error("slack grid values must be >= 0")
    utility = UtilityFunction.entropy(load_hyperparams(args.hyper))
    flag = _non_monotone_flag(utility.hyper)
    result = tune_threshold_slack(
        _two_sine_spec(args), utility, args.k, grid, runs=args.runs, seed=args.seed
    )
    out = _outdir(args)
    write_tuning_csv(result, out / "tuning.csv")
    write_kv_file({"best_lambda": result.best_slack, **flag}, out / "summary.txt")
    print(
        f"best lambda {result.best_slack:g} "
        f"(mean utility {result.mean_utility[result.best_index]:.6g})"
    )


def _parse_algos(parser: _Parser, raw: str) -> list[AlgorithmSpec]:
    specs = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ":" in token:
                name, _, value = token.partition(":")
                specs.append(AlgorithmSpec(name=name.strip(), threshold_slack=float(value)))
            else:
                specs.append(AlgorithmSpec(name=token))
        except ValueError as exc:
            parser.error(str(exc))
    if not specs:
        parser.error("--algos named no algorithms")
    return specs


def _cmd_evaluate(parser: _Parser, args: argparse.Namespace) -> None:
    mse = not args.no_mse
    if mse and args.qoi_col is None:
        parser.error("MSE evaluation requested but no --qoi-col names the qoi column")
    algorithms = tuple(_parse_algos(parser, args.algos))
    stream = ingest_csv(args.input, _schema_from_args(args))
    hyper = load_hyperparams(args.hyper)
    flag = _non_monotone_flag(hyper)
    cfg = ExperimentConfig(
        algorithms=algorithms,
        k=args.k,
        period_T=args.period,
        runs=args.runs,
        seed=args.seed,
        test_fraction=args.test_fraction,
    )
    report = run_comparison(stream, cfg, hyper, block_len=args.block_len, compute_mse=mse)
    out = _outdir(args)
    paths = write_comparison_report(report, out)
    if flag:
        with (out / "summary.txt").open("a", encoding="utf-8") as fh:
            fh.write(format_kv(flag))
    print(f"wrote {', '.join(str(p) for p in paths)}")


def _cmd_bounds(parser: _Parser, args: argparse.Namespace) -> None:
    inputs = BoundInputs(
        k=args.k,
        threshold_slack=args.threshold_slack,
        utility_noise=args.sigma_u**2,
        stream_len_N=args.N,
        period_T=args.T,
        f_opt=args.f_opt,
    )
    report = bound_report(inputs)
    out = _outdir(args)
    write_bound_report(report, out / "bounds.txt")
    print(format_bound_report(report), end="")


class _Command(NamedTuple):
    run: Callable[[_Parser, argparse.Namespace], None]
    help: str
    options: tuple[str, ...]  # in help order
    required: tuple[str, ...]  # in the order they are checked


_COMMON = ("out", "config", "seed")
_STREAM = ("period", "periods", "noise", "amplitude")
_SCHEMA = ("input", "index_col", "feature_cols", "qoi_col")
_COMMANDS = {
    "generate": _Command(_cmd_generate, "synthesize an approximately periodic stream CSV",
                         (*_STREAM, *_COMMON), ("period", "periods")),
    "select": _Command(_cmd_select, "run one selector over an ingested stream",
                       (*_SCHEMA, "algo", "k", "period", "threshold_slack", "utility", "hyper",
                        *_COMMON), ("input", "algo", "k")),
    "tune": _Command(_cmd_tune, "tune the threshold slack by simulation",
                     (*_STREAM, "k", "grid", "runs", "hyper", *_COMMON),
                     ("period", "periods", "k", "grid", "hyper")),
    "evaluate": _Command(_cmd_evaluate, "multi-algorithm comparison with repeated trials",
                         (*_SCHEMA, "algos", "k", "period", "runs", "block_len", "test_fraction",
                          "no_mse", "hyper", *_COMMON), ("input", "k", "period", "algos", "hyper")),
    "bounds": _Command(_cmd_bounds, "evaluate the theoretical guarantees",
                       ("k", "threshold_slack", "sigma_u", "N", "T", "f_opt", *_COMMON),
                       ("k", "threshold_slack", "sigma_u", "N", "T", "f_opt")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="periodic-secretary", description="streaming sample selection toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for dest in command.options:
            option = _OPTIONS[dest]
            text = option.help[name] if isinstance(option.help, dict) else option.help
            if option.default is not None:
                text = f"{text} (default {option.default})"
            kind = {"action": "store_true"} if option.type is bool else {"type": option.type}
            p.add_argument(_flag(dest), dest=dest, default=option.default, help=text, **kind)
        p.set_defaults(func=command.run)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    command = _COMMANDS[args.subcommand]
    try:
        if args.config is not None:  # parse again, the file's entries before the flags
            rest = argv[argv.index(args.subcommand) + 1:]
            flags = _config_flags(parser, args.config, command.options)
            args = parser.parse_args([args.subcommand, *flags, *rest])
        _require(parser, args, *command.required)
        _check_least(parser, args, command.options)
        args.func(parser, args)
        _write_manifest(Path(args.out), args.subcommand, args)
        return 0
    except SystemExit:
        raise
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
