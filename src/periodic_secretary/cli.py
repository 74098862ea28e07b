"""Command-line front end wiring the library into reproducible workflows.

One subcommand per workflow stage: generate synthetic streams, run a single
selector, tune the threshold slack, run the full comparison protocol, and
evaluate the theoretical bounds. Options resolve in order flag > config file
> built-in default, and every invocation writes a manifest of its resolved
configuration and seed into the output directory so runs can be replayed
exactly. Errors exit nonzero with a single ``error: ...`` line.
"""

from __future__ import annotations

import argparse
import functools
import platform
import sys
from pathlib import Path

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


def _resolve(parser: _Parser, args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Fill unset options from the config file, then from built-in defaults."""
    if getattr(args, "config", None) is not None:
        for key, value in read_kv_file(args.config).items():
            dest = key.replace("-", "_")
            if not hasattr(args, dest):
                parser.error(f"unknown config key {key!r} in {args.config}")
            if getattr(args, dest) is None:
                setattr(args, dest, value)
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    return args


def _require(parser: _Parser, args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            parser.error(f"missing required option --{name.replace('_', '-')}")


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
    features = tuple(c.strip() for c in str(args.feature_cols).split(",") if c.strip())
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


def _capacity(parser: _Parser, args: argparse.Namespace) -> int:
    """The checked sampling capacity --k."""
    k = int(args.k)
    if k < 1:
        parser.error(f"--k must be >= 1, got {k}")
    return k


def _two_sine_spec(parser: _Parser, args: argparse.Namespace) -> PeriodicStreamSpec:
    """The synthetic stream that generate and tune share, from checked options."""
    period, periods, noise = int(args.period), int(args.periods), float(args.noise)
    if period < 1:
        parser.error(f"--period must be >= 1, got {period}")
    if periods < 1:
        parser.error(f"--periods must be >= 1, got {periods}")
    if not noise >= 0:
        parser.error(f"--noise must be >= 0, got {noise}")
    return PeriodicStreamSpec(
        period_T=period,
        noise_cov=np.array([[noise]]),
        length_N=period * periods,
        base_waveform=two_sine_waveform(period, amplitude=float(args.amplitude)),
    )


def _cmd_generate(parser: _Parser, args: argparse.Namespace) -> int:
    args = _resolve(parser, args, {"noise": 0.0, "amplitude": 1.0, "seed": 0, "out": "."})
    _require(parser, args, "period", "periods")
    stream = generate_periodic_stream(_two_sine_spec(parser, args), int(args.seed))
    out = _outdir(args)
    write_stream_csv(stream, out / "stream.csv")
    _write_manifest(out, "generate", args)
    print(f"wrote {out / 'stream.csv'} ({len(stream)} rows)")
    return 0


def _cmd_select(parser: _Parser, args: argparse.Namespace) -> int:
    args = _resolve(
        parser, args,
        {"seed": 0, "out": ".", "utility": "entropy", "index_col": "t", "feature_cols": "x0"},
    )
    _require(parser, args, "input", "algo", "k")
    slack = float(args.threshold_slack) if args.threshold_slack is not None else None
    try:
        algo = AlgorithmSpec(args.algo, threshold_slack=slack)
    except ValueError as exc:
        parser.error(str(exc))
    if args.utility not in ("entropy", "modular"):
        parser.error(f"unknown utility {args.utility!r}")
    k = _capacity(parser, args)
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

    period = int(args.period) if args.period is not None else None
    result = algo.run(stream.observations, f, k, period, int(args.seed))
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
            "k": k,
            "final_utility": final,
            "terminated": result.terminated,
            **flag,
        },
        out / "summary.txt",
    )
    _write_manifest(out, "select", args)
    print(f"selected {len(result.chosen)}/{k} samples; final utility {final}; {result.terminated}")
    return 0


def _cmd_tune(parser: _Parser, args: argparse.Namespace) -> int:
    args = _resolve(
        parser, args,
        {"noise": 0.0, "amplitude": 1.0, "runs": 50, "seed": 0, "out": "."},
    )
    _require(parser, args, "period", "periods", "k", "grid", "hyper")
    k = _capacity(parser, args)
    spec = _two_sine_spec(parser, args)
    grid = parse_float_list(args.grid)
    if any(not s >= 0 for s in grid):
        parser.error("slack grid values must be >= 0")
    utility = UtilityFunction.entropy(load_hyperparams(args.hyper))
    flag = _non_monotone_flag(utility.hyper)
    result = tune_threshold_slack(
        spec, utility, k, grid, runs=int(args.runs), seed=int(args.seed)
    )
    out = _outdir(args)
    write_tuning_csv(result, out / "tuning.csv")
    write_kv_file({"best_lambda": result.best_slack, **flag}, out / "summary.txt")
    _write_manifest(out, "tune", args)
    print(
        f"best lambda {result.best_slack:g} "
        f"(mean utility {result.mean_utility[result.best_index]:.6g})"
    )
    return 0


def _parse_algos(parser: _Parser, raw: str) -> list[AlgorithmSpec]:
    specs = []
    for token in str(raw).split(","):
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


def _cmd_evaluate(parser: _Parser, args: argparse.Namespace) -> int:
    args = _resolve(
        parser, args,
        {
            "runs": 50, "seed": 0, "out": ".", "test_fraction": 0.2,
            "index_col": "t", "feature_cols": "x0", "no_mse": False,
        },
    )
    _require(parser, args, "input", "k", "period", "algos", "hyper")
    k = _capacity(parser, args)
    no_mse = str(args.no_mse).lower()  # a flag, or true/false from a config file
    if no_mse not in ("true", "false"):
        parser.error(f"no_mse must be true or false, got {args.no_mse!r}")
    args.no_mse = no_mse == "true"
    mse = not args.no_mse
    if mse and args.qoi_col is None:
        parser.error("MSE evaluation requested but no --qoi-col names the qoi column")
    algorithms = tuple(_parse_algos(parser, args.algos))
    stream = ingest_csv(args.input, _schema_from_args(args))
    hyper = load_hyperparams(args.hyper)
    flag = _non_monotone_flag(hyper)
    cfg = ExperimentConfig(
        algorithms=algorithms,
        k=k,
        period_T=int(args.period),
        runs=int(args.runs),
        seed=int(args.seed),
        test_fraction=float(args.test_fraction),
    )
    block_len = int(args.block_len) if args.block_len is not None else int(args.period)
    report = run_comparison(stream, cfg, hyper, block_len=block_len, compute_mse=mse)
    out = _outdir(args)
    paths = write_comparison_report(report, out)
    if flag:
        with (out / "summary.txt").open("a", encoding="utf-8") as fh:
            fh.write(format_kv(flag))
    _write_manifest(out, "evaluate", args)
    print(f"wrote {', '.join(str(p) for p in paths)}")
    return 0


def _cmd_bounds(parser: _Parser, args: argparse.Namespace) -> int:
    args = _resolve(parser, args, {"seed": 0, "out": "."})
    _require(parser, args, "k", "threshold_slack", "sigma_u", "N", "T", "f_opt")
    k = _capacity(parser, args)
    slack, sigma_u = float(args.threshold_slack), float(args.sigma_u)
    if not slack >= 0:
        parser.error(f"--lambda must be >= 0, got {slack}")
    if not sigma_u >= 0:
        parser.error(f"--sigma-u must be >= 0, got {sigma_u}")
    inputs = BoundInputs(
        k=k,
        threshold_slack=slack,
        utility_noise=sigma_u**2,
        stream_len_N=int(args.N),
        period_T=int(args.T),
        f_opt=float(args.f_opt),
    )
    report = bound_report(inputs)
    out = _outdir(args)
    write_bound_report(report, out / "bounds.txt")
    _write_manifest(out, "bounds", args)
    print(format_bound_report(report), end="")
    return 0


def _add_common(p: _Parser) -> None:
    p.add_argument("--out", default=None, help="output directory (default: current directory)")
    p.add_argument("--config", default=None, help="key-value config file; flags override its values")
    p.add_argument("--seed", default=None, type=int, help="random seed (default 0)")


def _add_schema_flags(p: _Parser) -> None:
    p.add_argument("--input", default=None, help="input stream CSV")
    p.add_argument("--index-col", default=None, help="index/time column name (default t)")
    p.add_argument("--feature-cols", default=None, help="comma-separated feature column names (default x0)")
    p.add_argument("--qoi-col", default=None, help="optional qoi column name")


def build_parser() -> _Parser:
    parser = _Parser(prog="periodic-secretary", description="streaming sample selection toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="synthesize an approximately periodic stream CSV")
    p.add_argument("--period", default=None, type=int, help="samples per period")
    p.add_argument("--periods", default=None, type=int, help="number of periods (N = periods * period)")
    p.add_argument("--noise", default=None, type=float, help="per-sample noise variance (default 0)")
    p.add_argument("--amplitude", default=None, type=float, help="waveform amplitude (default 1)")
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("select", help="run one selector over an ingested stream")
    _add_schema_flags(p)
    p.add_argument("--algo", default=None, help=" | ".join(ALGORITHM_NAMES))
    p.add_argument("--k", default=None, type=int, help="sampling capacity")
    p.add_argument("--period", default=None, type=int, help="data period (periodic algorithm)")
    p.add_argument("--lambda", dest="threshold_slack", default=None, type=float,
                   help="threshold slack (periodic algorithm, >= 0)")
    p.add_argument("--utility", default=None,
                   help="entropy (default) or modular (weights = first feature column)")
    p.add_argument("--hyper", default=None, help="GP hyperparameter config file (entropy utility)")
    _add_common(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("tune", help="tune the threshold slack by simulation")
    p.add_argument("--period", default=None, type=int)
    p.add_argument("--periods", default=None, type=int)
    p.add_argument("--noise", default=None, type=float, help="per-sample noise variance (default 0)")
    p.add_argument("--amplitude", default=None, type=float)
    p.add_argument("--k", default=None, type=int)
    p.add_argument("--grid", default=None, help="comma-separated slack grid")
    p.add_argument("--runs", default=None, type=int, help="simulated streams per grid value (default 50)")
    p.add_argument("--hyper", default=None, help="GP hyperparameter config file")
    _add_common(p)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("evaluate", help="multi-algorithm comparison with repeated trials")
    _add_schema_flags(p)
    p.add_argument("--algos", default=None,
                   help="comma-separated algorithms; periodic takes a slack, e.g. periodic:0.5,scheduled")
    p.add_argument("--k", default=None, type=int)
    p.add_argument("--period", default=None, type=int, help="data period")
    p.add_argument("--runs", default=None, type=int, help="trial count (default 50)")
    p.add_argument("--block-len", default=None, type=int,
                   help="block length for trial permutations (default: period)")
    p.add_argument("--test-fraction", default=None, type=float, help="held-out fraction (default 0.2)")
    p.add_argument("--no-mse", action="store_true", default=None,
                   help="skip held-out MSE evaluation")
    p.add_argument("--hyper", default=None, help="GP hyperparameter config file")
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bounds", help="evaluate the theoretical guarantees")
    p.add_argument("--k", default=None, type=int)
    p.add_argument("--lambda", dest="threshold_slack", default=None, type=float)
    p.add_argument("--sigma-u", default=None, type=float,
                   help="utility noise standard deviation (squared internally)")
    p.add_argument("--N", default=None, type=int, help="stream length")
    p.add_argument("--T", default=None, type=int, help="period")
    p.add_argument("--f-opt", default=None, type=float, help="utility of the optimal set")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: "list[str] | None" = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except SystemExit:
        raise
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
