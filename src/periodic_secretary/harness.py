"""Experiment harness: threshold tuning, multi-algorithm comparison, bound validation.

Reproduces the evaluation protocol end to end: the comparison runs every
algorithm over seeded block permutations of a base stream, with a held-out
test split for prediction error, and aggregates per-step utility and MSE
curves over the repeated runs; threshold tuning and the Monte-Carlo
validation of the theoretical guarantees run the periodic secretary over
fresh seeded synthetic draws. All randomness derives from one experiment
seed, so reports are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from . import gp
from .kv import write_columns, write_kv_file
from .bounds import BoundInputs, bound_report, estimate_utility_noise
from .gp import GPHyperparams
from .selectors import (
    EXACT_MAX_SUBSETS,
    PeriodicSecretaryConfig,
    SelectionResult,
    exhaustive_optimum,
    offline_greedy,
    periodic_secretary,
    random_sampler,
    scheduled_sampler,
    submodular_secretary,
    utility_trace_for,
)
from .stream import (
    Observation,
    ObservationStream,
    PeriodicStreamSpec,
    block_permute,
    generate_periodic_stream,
)
from .utility import UtilityFunction

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmSpec",
    "ExperimentConfig",
    "ComparisonReport",
    "SlackTuningResult",
    "BoundValidationCell",
    "BoundValidationReport",
    "tune_threshold_slack",
    "run_comparison",
    "evaluate_prediction",
    "validate_bounds",
    "attach_gp_qoi",
    "write_tuning_csv",
    "write_comparison_report",
    "derive_seeds",
]

UtilityOrFactory = Union[UtilityFunction, Callable[[ObservationStream], UtilityFunction]]

# Bound validation enumerates the exact optimum only up to this k (and
# EXACT_MAX_SUBSETS subsets).
_EXACT_MAX_K = 4

# Below this noise variance an entropy gain 0.5*ln(2*pi*e*v) can be negative
# (the conditional variance v can fall below 1/(2*pi*e)), so the entropy
# utility is not monotone and the bounds do not apply.
_MONOTONE_NOISE_FLOOR = 1 / (2 * math.pi * math.e)

# Fixed tags keep every stage of an experiment on its own seed stream.
_TAG_TRIAL = 1
_TAG_TEST = 3
_TAG_ALGO = 4
_TAG_TUNE = 5


def derive_seeds(seed: int, tag: int, n: int) -> list[int]:
    """n reproducible integer seeds for one stage of an experiment."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(tag)))
    return [int(s) for s in ss.generate_state(n, dtype=np.uint64)]


def _final_utility(result: SelectionResult) -> float:
    return result.utility_trace[-1] if result.utility_trace else 0.0


def _spread(runs: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sample standard deviation of ``runs`` along ``axis`` (ddof 1, or 0 for a
    single run), exactly 0 where every run is equal.

    Deviations are taken from the first run, which leaves the spread
    unchanged in exact arithmetic; ``np.std``'s own mean subtraction leaves
    roundoff behind when the runs are identical.
    """
    ddof = 1 if runs.shape[axis] > 1 else 0
    return np.std(runs - np.take(runs, [0], axis=axis), axis=axis, ddof=ddof)


# The algorithm registry: name -> (reads the utility, needs a period and a
# threshold slack, run). Each run names its selector at call time, so a
# rebound module attribute (as a tracer installs) is the one that runs.
_REGISTRY = {
    "periodic": (True, True, lambda a, view, f, k, T, seed: periodic_secretary(
        view, f, PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=a.threshold_slack))),
    "submodular": (True, False, lambda a, view, f, k, T, seed: submodular_secretary(view, f, k)),
    "scheduled": (False, False, lambda a, view, f, k, T, seed: scheduled_sampler(view, k)),
    "random": (False, False, lambda a, view, f, k, T, seed: random_sampler(view, k, seed)),
    "greedy": (True, False, lambda a, view, f, k, T, seed: offline_greedy(view, f, k)),
}
ALGORITHM_NAMES = tuple(_REGISTRY)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One selector from the registry: a name in ``ALGORITHM_NAMES`` plus its
    parameters. The periodic secretary needs a threshold_slack."""

    name: str
    threshold_slack: float | None = None

    def __post_init__(self) -> None:
        if self.name not in _REGISTRY:
            raise ValueError(f"unknown algorithm {self.name!r}; known: {ALGORITHM_NAMES}")
        if self.needs_period and self.threshold_slack is None:
            raise ValueError(f"{self.name} algorithm needs a threshold_slack")
        if self.threshold_slack is not None and not self.threshold_slack >= 0:
            raise ValueError(f"threshold_slack must be non-negative, got {self.threshold_slack}")

    @property
    def reads_utility(self) -> bool:
        return _REGISTRY[self.name][0]

    @property
    def needs_period(self) -> bool:
        return _REGISTRY[self.name][1]

    @property
    def label(self) -> str:
        return f"{self.name}:{self.threshold_slack:g}" if self.needs_period else self.name

    def run(
        self, view: Sequence[Observation], f: UtilityFunction | None, k: int,
        period_T: int | None, seed: int,
    ) -> SelectionResult:
        """Run this selector over ``view``; ``seed`` drives the random sampler."""
        return _REGISTRY[self.name][2](self, view, f, k, period_T, seed)


@dataclass(frozen=True)
class ExperimentConfig:
    """Comparison protocol parameters."""

    algorithms: tuple[AlgorithmSpec, ...]
    k: int
    period_T: int
    runs: int
    seed: int
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        labels = [a.label for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate algorithm labels: {labels}")
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.period_T < 1:
            raise ValueError(f"period_T must be positive, got {self.period_T}")
        if self.runs < 1:
            raise ValueError(f"runs must be positive, got {self.runs}")
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class SlackTuningResult:
    """Per-slack statistics of a tuning sweep, sorted by slack ascending."""

    best_slack: float
    slacks: tuple[float, ...]
    mean_utility: np.ndarray
    sd_utility: np.ndarray
    mean_fill: np.ndarray
    sd_fill: np.ndarray
    runs: int

    @property
    def best_index(self) -> int:
        return self.slacks.index(self.best_slack)


def _seeded_trials(
    spec: PeriodicStreamSpec, utility: UtilityOrFactory, seed: int, tag: int, runs: int
) -> tuple[list[ObservationStream], list[UtilityFunction]]:
    """``runs`` seeded synthetic streams and the utility on each: ``utility``
    itself, or a factory called on the stream."""
    streams = [generate_periodic_stream(spec, s) for s in derive_seeds(seed, tag, runs)]
    return streams, [utility if isinstance(utility, UtilityFunction) else utility(s) for s in streams]


def _periodic_runs(
    streams: Sequence[ObservationStream],
    utilities: Sequence[UtilityFunction],
    ks: Sequence[int],
    period_T: int,
    slacks: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Final utility and fill of one periodic-secretary run per (k, slack, trial).

    Both arrays have shape ``(len(ks), len(slacks), len(streams))``; the runs
    go over each k, then each slack, then each trial.
    """
    finals = np.empty((len(ks), len(slacks), len(streams)))
    fills = np.empty_like(finals)
    for i, k in enumerate(ks):
        for j, slack in enumerate(slacks):
            cfg = PeriodicSecretaryConfig(k=k, period_T=period_T, threshold_slack=slack)
            for r, (stream, f) in enumerate(zip(streams, utilities)):
                result = periodic_secretary(stream.observations, f, cfg)
                finals[i, j, r] = _final_utility(result)
                fills[i, j, r] = len(result.chosen)
    return finals, fills


def tune_threshold_slack(
    spec: PeriodicStreamSpec,
    utility: UtilityOrFactory,
    k: int,
    slack_grid: Sequence[float],
    runs: int,
    seed: int,
) -> SlackTuningResult:
    """Pick the threshold slack maximizing mean final utility over simulated streams.

    The same seeded streams are reused for every grid value (common random
    numbers); ties break toward the smaller slack.
    """
    if len(slack_grid) == 0:
        raise ValueError("slack grid is empty")
    if runs < 1:
        raise ValueError(f"runs must be positive, got {runs}")
    if spec.length_N <= spec.period_T:
        raise ValueError(
            f"the stream has no observation after the reference period"
            f" (length_N={spec.length_N}, period_T={spec.period_T}), so no slack can pick"
        )
    slacks = tuple(sorted(float(s) for s in slack_grid))
    streams, utilities = _seeded_trials(spec, utility, seed, _TAG_TUNE, runs)
    (finals,), (fills,) = _periodic_runs(streams, utilities, [k], spec.period_T, slacks)
    mean_u = finals.mean(axis=1)
    best = int(np.argmax(mean_u))  # first max = smallest slack on ties
    return SlackTuningResult(
        best_slack=slacks[best],
        slacks=slacks,
        mean_utility=mean_u,
        sd_utility=_spread(finals, axis=1),
        mean_fill=fills.mean(axis=1),
        sd_fill=_spread(fills, axis=1),
        runs=runs,
    )


def attach_gp_qoi(stream: ObservationStream, hyper: GPHyperparams, seed: int) -> ObservationStream:
    """Attach a qoi series drawn from the noisy GP prior over the stream's features."""
    X = stream.feature_matrix
    L, _ = gp._noisy_cholesky(gp._check_dim(X, hyper, "X") / hyper.lengthscales, hyper)
    y = L @ np.random.default_rng(seed).standard_normal(len(stream))
    return ObservationStream(X, y, stream.spec)


def evaluate_prediction(
    selection: SelectionResult,
    stream: ObservationStream,
    test_indices: Sequence[int],
    hyper: GPHyperparams,
) -> np.ndarray:
    """Held-out MSE after each prefix of the selection (length len(chosen)+1).

    Entry m is the mean squared error of posterior-mean predictions at the
    test indices when trained on the first m selected (location, qoi) pairs;
    entry 0 is the error of the prior mean. The whole curve costs one GP
    factorisation of the selection (``gp.prefix_means``). ``run_comparison``
    scores a trial's selections together, with the same results.
    """
    return _mse_curves([selection], stream, test_indices, hyper)[0]


def _mse_curves(
    selections: Sequence[SelectionResult],
    stream: ObservationStream,
    test_indices: Sequence[int],
    hyper: GPHyperparams,
) -> list[np.ndarray]:
    """``evaluate_prediction`` of each selection, in one batch per selection length.

    The test side is read once. Each selection is checked in turn, and the
    first that ``evaluate_prediction`` would refuse raises its error. Then
    the selections of each length share one stacked ``gp.prefix_means``
    call, and their curves are the rows of one array; an empty selection's
    curve is the prior mean's error alone.
    """
    if stream.qoi is None:
        raise ValueError("prediction evaluation requires a stream with a qoi series")
    test_indices = sorted(map(int, test_indices))
    test_set = set(test_indices)
    y_test = stream.qoi[test_indices]
    missing_test = bool(np.any(np.isnan(y_test)))
    missing = set(np.flatnonzero(np.isnan(stream.qoi)).tolist())
    by_length: dict[int, list[int]] = {}
    for pos, selection in enumerate(selections):
        if not test_set.isdisjoint(selection.chosen):
            overlap = sorted(test_set.intersection(selection.chosen))
            raise ValueError(f"test indices overlap the selection: {overlap}")
        if missing_test:
            raise ValueError("some test indices have no qoi value")
        if not missing.isdisjoint(selection.chosen):
            raise ValueError("some selected indices have no qoi value")
        by_length.setdefault(len(selection.chosen), []).append(pos)
    X_test = stream.feature_matrix[test_indices]
    mse0 = float(np.mean(y_test**2))
    curves: list[np.ndarray] = [np.empty(0)] * len(selections)
    for m, group in by_length.items():
        rows = np.empty((len(group), m + 1))
        rows[:, 0] = mse0
        if m:
            chosen = np.array([selections[pos].chosen for pos in group], dtype=np.intp)  # (g, m)
            errors = gp.prefix_means(
                stream.feature_matrix[chosen], stream.qoi[chosen], X_test, hyper
            )
            errors -= y_test
            rows[:, 1:] = np.mean(np.square(errors, out=errors), axis=2)
        for pos, row in zip(group, rows):
            curves[pos] = row
    return curves


@dataclass(frozen=True)
class ComparisonReport:
    """Aggregated per-step statistics for each algorithm.

    Utility curves are cumulative utility after m = 1..k selections (carried
    forward when a run stops early); MSE curves cover m = 0..k. Raw per-run
    curves are retained for paired significance checks.
    """

    labels: tuple[str, ...]
    k: int
    runs: int
    seed: int
    utility_mean: dict[str, np.ndarray]
    utility_sd: dict[str, np.ndarray]
    fill_mean: dict[str, float]
    utility_runs: dict[str, np.ndarray]
    mse_mean: dict[str, np.ndarray] | None = None
    mse_sd: dict[str, np.ndarray] | None = None
    mse_runs: dict[str, np.ndarray] | None = None


def _pad_trace(values: Sequence[float], length: int, initial: float) -> np.ndarray:
    """Right-pad by carrying the last value (the set stops changing)."""
    out = np.full(length, initial if len(values) == 0 else values[-1])
    out[: len(values)] = values
    return out


def run_comparison(
    base: ObservationStream,
    cfg: ExperimentConfig,
    hyper: GPHyperparams,
    block_len: int | None = None,
    compute_mse: bool = True,
) -> ComparisonReport:
    """Run every configured algorithm over block-permuted trials of ``base``.

    The utility is the GP entropy under ``hyper``. Each run permutes blocks
    of ``block_len`` observations (default: one period) under its own seed.
    The held-out test split is drawn per trial from positions at or beyond
    one period, and those positions are removed from the selectors' view
    (they are never part of the reference period, so the selection context
    is unchanged). A stream shorter than one period is refused, and so is a
    stream with MSE on whose positions after the reference period cannot
    hold both a test position and k picks: the periodic secretary would be
    left fewer than k positions to pick from.
    """
    if len(base) < cfg.period_T:
        raise ValueError(
            f"the stream has {len(base)} observations, fewer than one period"
            f" (period_T={cfg.period_T})"
        )
    if compute_mse and base.qoi is None:
        raise ValueError("MSE requested but the stream has no qoi column")
    after = len(base) - cfg.period_T
    if compute_mse and after <= cfg.k:
        raise ValueError(
            f"MSE needs a test position after the reference period, but the stream has"
            f" {len(base)} observations and period_T={cfg.period_T}"
            + (f", so the {after} after it cannot also hold k={cfg.k} picks" if after else "")
        )
    if block_len is None:
        block_len = cfg.period_T
    f = UtilityFunction.entropy(hyper)

    trial_seeds = derive_seeds(cfg.seed, _TAG_TRIAL, cfg.runs)
    test_seeds = derive_seeds(cfg.seed, _TAG_TEST, cfg.runs)
    algo_seeds = {
        a.label: derive_seeds(cfg.seed, _TAG_ALGO + 100 * i, cfg.runs)
        for i, a in enumerate(cfg.algorithms)
    }

    labels = tuple(a.label for a in cfg.algorithms)
    utility_runs = {lab: np.zeros((cfg.runs, cfg.k)) for lab in labels}
    mse_runs = {lab: np.zeros((cfg.runs, cfg.k + 1)) for lab in labels} if compute_mse else None
    fills = {lab: np.zeros(cfg.runs) for lab in labels}

    for r in range(cfg.runs):
        trial = block_permute(base, block_len, trial_seeds[r])

        if compute_mse:
            pool = np.arange(cfg.period_T, len(trial))
            n_test = int(round(cfg.test_fraction * pool.shape[0]))
            n_test = max(1, min(n_test, pool.shape[0] - cfg.k))
            test_idx = np.sort(
                np.random.default_rng(test_seeds[r]).choice(pool, size=n_test, replace=False)
            )
            view = trial.observations[np.delete(np.arange(len(trial)), test_idx)]
        else:
            view = trial.observations

        results = [algo.run(view, f, cfg.k, cfg.period_T, algo_seeds[lab][r])
                   for algo, lab in zip(cfg.algorithms, labels)]
        for lab, result in zip(labels, results):
            trace = result.utility_trace
            if not trace:
                trace = utility_trace_for(f, trial.observations[result.chosen])
            utility_runs[lab][r] = _pad_trace(trace, cfg.k, 0.0)
            fills[lab][r] = len(result.chosen)
        if compute_mse:
            for lab, mse in zip(labels, _mse_curves(results, trial, test_idx, hyper)):
                mse_runs[lab][r] = _pad_trace(mse, cfg.k + 1, mse[0])

    report = ComparisonReport(
        labels=labels,
        k=cfg.k,
        runs=cfg.runs,
        seed=cfg.seed,
        utility_mean={lab: utility_runs[lab].mean(axis=0) for lab in labels},
        utility_sd={lab: _spread(utility_runs[lab]) for lab in labels},
        fill_mean={lab: float(fills[lab].mean()) for lab in labels},
        utility_runs=utility_runs,
        mse_mean={lab: mse_runs[lab].mean(axis=0) for lab in labels} if compute_mse else None,
        mse_sd={lab: _spread(mse_runs[lab]) for lab in labels} if compute_mse else None,
        mse_runs=mse_runs,
    )
    return report


@dataclass(frozen=True)
class BoundValidationCell:
    """Empirical vs theoretical numbers for one (k, slack) grid cell."""

    k: int
    threshold_slack: float
    runs: int
    mean_utility: float
    se_utility: float
    mean_successes: float
    se_successes: float
    utility_bound: float
    success_bound: float
    vacuous: bool
    informational: bool
    utility_violation: bool
    success_violation: bool


@dataclass(frozen=True)
class BoundValidationReport:
    cells: tuple[BoundValidationCell, ...]
    utility_noise_estimate: float

    @property
    def violations(self) -> tuple[BoundValidationCell, ...]:
        return tuple(c for c in self.cells if c.utility_violation or c.success_violation)


def validate_bounds(
    spec: PeriodicStreamSpec,
    utility: UtilityOrFactory,
    k_values: Sequence[int],
    slack_values: Sequence[float],
    runs: int,
    seed: int,
) -> BoundValidationReport:
    """Monte-Carlo check of the utility and success-count guarantees.

    Per (k, slack) cell: run the periodic secretary over seeded streams and
    compare mean final utility and mean acceptance count against the
    theoretical lower bounds of ``bounds.bound_report``, flagging any
    non-vacuous bound the empirical mean (minus three standard errors) falls
    below. The optimum f(A*) is exact when k <= 4 and C(N, k) <= 10**6
    (``exhaustive_optimum``: every k-subset under entropy, one stable sort
    under a modular utility); otherwise the greedy value substitutes as a lower
    estimate and the utility check is reported as informational rather than
    pass/fail. A k below 1, and an entropy utility with noise_variance below
    1/(2*pi*e) (its gains can be negative), are refused before any run.

    The periodic secretary runs once per (k, slack, trial). Offline greedy
    runs once per trial, at the largest k whose optimum is not exact, and
    every inexact k reads its optimum from that run's k-prefix, which is
    exact: k only stops greedy, so a run at k makes the first k steps of a
    run at any larger k and records the same utility trace up to there,
    bit for bit.
    """
    if runs < 2:
        raise ValueError("bound validation needs runs >= 2 for standard errors")
    bad_k = [k for k in k_values if not k >= 1]
    if bad_k:
        raise ValueError(f"k must be positive, got {bad_k[0]}")
    streams, utilities = _seeded_trials(spec, utility, seed, _TAG_TRIAL, runs)
    for f in utilities:
        if f.kind == "entropy" and f.hyper.noise_variance < _MONOTONE_NOISE_FLOOR:
            raise ValueError(
                f"entropy utility with noise_variance {f.hyper.noise_variance:g} is not"
                f" monotone below 1/(2*pi*e) = {_MONOTONE_NOISE_FLOOR:.4g}; the bounds do not apply"
            )
    noise_est = float(
        np.mean([estimate_utility_noise(s, u) for s, u in zip(streams, utilities)])
    )
    ks = [int(k) for k in k_values]
    exact = [k <= _EXACT_MAX_K and math.comb(spec.length_N, k) <= EXACT_MAX_SUBSETS for k in ks]
    inexact = [k for k, e in zip(ks, exact) if not e]
    greedy = [
        offline_greedy(s.observations, f, max(inexact)).utility_trace
        for s, f in zip(streams, utilities)
    ] if inexact else []
    finals, succ = _periodic_runs(streams, utilities, ks, spec.period_T, slack_values)
    mean_u, mean_s = finals.mean(axis=-1), succ.mean(axis=-1)
    se_u = _spread(finals, axis=-1) / math.sqrt(runs)
    se_s = _spread(succ, axis=-1) / math.sqrt(runs)

    cells: list[BoundValidationCell] = []
    for i, k in enumerate(ks):
        if exact[i]:
            opt = [_final_utility(exhaustive_optimum(s.observations, f, k))
                   for s, f in zip(streams, utilities)]
        else:
            opt = [trace[k - 1] for trace in greedy]
        f_opt = float(np.mean(opt))
        for j, slack in enumerate(slack_values):
            # Linear in f_opt, so the mean per-trial bound equals the bound at
            # the mean optimum.
            bound = bound_report(
                BoundInputs(
                    k=k,
                    threshold_slack=slack,
                    utility_noise=noise_est,
                    stream_len_N=spec.length_N,
                    period_T=spec.period_T,
                    f_opt=f_opt,
                )
            )
            cells.append(
                BoundValidationCell(
                    k=k,
                    threshold_slack=float(slack),
                    runs=runs,
                    mean_utility=float(mean_u[i, j]),
                    se_utility=float(se_u[i, j]),
                    mean_successes=float(mean_s[i, j]),
                    se_successes=float(se_s[i, j]),
                    utility_bound=bound.utility_lower_bound,
                    success_bound=bound.expected_successes,
                    vacuous=bound.vacuous,
                    informational=not exact[i],
                    utility_violation=(
                        not bound.vacuous
                        and exact[i]
                        and mean_u[i, j] - 3 * se_u[i, j] < bound.utility_lower_bound
                    ),
                    success_violation=mean_s[i, j] - 3 * se_s[i, j] < bound.expected_successes,
                )
            )
    return BoundValidationReport(cells=tuple(cells), utility_noise_estimate=noise_est)


def write_tuning_csv(result: SlackTuningResult, path: "str | Path") -> None:
    header = ["threshold_slack", "mean_utility", "sd_utility", "mean_fill"]
    write_columns(path, header, [result.slacks, result.mean_utility, result.sd_utility, result.mean_fill])


def write_comparison_report(report: ComparisonReport, outdir: "str | Path") -> list[Path]:
    """Emit one CSV per panel (utility, MSE) plus a key-value summary."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    panels = [("utility_curves.csv", 1, report.utility_mean, report.utility_sd)]
    if report.mse_mean is not None:
        panels.append(("mse_curves.csv", 0, report.mse_mean, report.mse_sd))
    paths = []
    for name, first_step, means, sds in panels:
        path = outdir / name
        rows = [(step, lab, mean, sd) for lab in report.labels
                for step, (mean, sd) in enumerate(zip(means[lab], sds[lab]), first_step)]
        write_columns(path, ["step", "algorithm", "mean", "sd"], zip(*rows))
        paths.append(path)

    summary = {
        "k": report.k,
        "runs": report.runs,
        "seed": report.seed,
        "algorithms": ", ".join(report.labels),
    }
    for lab in report.labels:
        prefix = lab.replace(":", "_").replace(" ", "_")
        summary[f"{prefix}.final_utility_mean"] = report.utility_mean[lab][-1]
        summary[f"{prefix}.final_utility_sd"] = report.utility_sd[lab][-1]
        summary[f"{prefix}.fill_mean"] = report.fill_mean[lab]
        if report.mse_mean is not None:
            summary[f"{prefix}.final_mse_mean"] = report.mse_mean[lab][-1]
    path = outdir / "summary.txt"
    write_kv_file(summary, path)
    paths.append(path)
    return paths
