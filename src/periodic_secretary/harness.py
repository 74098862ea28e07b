"""Experiment harness: threshold tuning, multi-algorithm comparison, bound validation.

Reproduces the evaluation protocol end to end: seeded trial streams (fresh
synthetic draws or block permutations of a base stream), a held-out test
split for prediction error, per-step utility and MSE curves aggregated over
repeated runs, and Monte-Carlo validation of the theoretical guarantees.
All randomness derives from one experiment seed, so reports are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from . import gp
from .kv import write_csv, write_kv_file
from .bounds import (
    BoundInputs,
    estimate_utility_noise,
    expected_successes,
    per_step_gap,
)
from .gp import GPHyperparams
from .selectors import (
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
    QoiSample,
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
    "write_bound_validation_csv",
    "derive_seeds",
]

UtilityOrFactory = Union[UtilityFunction, Callable[[ObservationStream], UtilityFunction]]

# Fixed tags keep every stage of an experiment on its own seed stream.
_TAG_TRIAL = 1
_TAG_QOI = 2
_TAG_TEST = 3
_TAG_ALGO = 4
_TAG_TUNE = 5


def derive_seeds(seed: int, tag: int, n: int) -> list[int]:
    """n reproducible integer seeds for one stage of an experiment."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(tag)))
    return [int(s) for s in ss.generate_state(n, dtype=np.uint64)]


def _resolve_utility(utility: UtilityOrFactory, stream: ObservationStream) -> UtilityFunction:
    if isinstance(utility, UtilityFunction):
        return utility
    return utility(stream)


def _final_utility(result: SelectionResult) -> float:
    return result.utility_trace[-1] if result.utility_trace else 0.0


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
    slacks = tuple(sorted(float(s) for s in slack_grid))
    trial_seeds = derive_seeds(seed, _TAG_TUNE, runs)
    streams = [generate_periodic_stream(spec, s) for s in trial_seeds]
    utilities = [_resolve_utility(utility, s) for s in streams]
    finals = np.zeros((len(slacks), runs))
    fills = np.zeros((len(slacks), runs))
    for i, slack in enumerate(slacks):
        cfg = PeriodicSecretaryConfig(k=k, period_T=spec.period_T, threshold_slack=slack)
        for r, stream in enumerate(streams):
            result = periodic_secretary(stream.observations, utilities[r], cfg)
            finals[i, r] = _final_utility(result)
            fills[i, r] = len(result.chosen)
    mean_u = finals.mean(axis=1)
    ddof = 1 if runs > 1 else 0
    best = int(np.argmax(mean_u))  # first max = smallest slack on ties
    return SlackTuningResult(
        best_slack=slacks[best],
        slacks=slacks,
        mean_utility=mean_u,
        sd_utility=finals.std(axis=1, ddof=ddof),
        mean_fill=fills.mean(axis=1),
        sd_fill=fills.std(axis=1, ddof=ddof),
        runs=runs,
    )


def attach_gp_qoi(stream: ObservationStream, hyper: GPHyperparams, seed: int) -> ObservationStream:
    """Attach a qoi series drawn from the noisy GP prior over the stream's features."""
    X = stream.feature_matrix
    L, _ = gp._factor(X, hyper)
    y = L @ np.random.default_rng(seed).standard_normal(len(stream))
    qoi = tuple(QoiSample(i, float(y[i])) for i in range(len(stream)))
    return ObservationStream(observations=stream.observations, qoi=qoi, spec=stream.spec)


def evaluate_prediction(
    selection: SelectionResult,
    stream: ObservationStream,
    test_indices: Sequence[int],
    hyper: GPHyperparams,
) -> np.ndarray:
    """Held-out MSE after each prefix of the selection (length len(chosen)+1).

    Entry m is the mean squared error of posterior-mean predictions at the
    test indices when trained on the first m selected (location, qoi) pairs;
    entry 0 is the error of the prior mean.
    """
    if stream.qoi is None:
        raise ValueError("prediction evaluation requires a stream with a qoi series")
    test_indices = sorted(int(i) for i in test_indices)
    overlap = set(test_indices) & set(selection.chosen)
    if overlap:
        raise ValueError(f"test indices overlap the selection: {sorted(overlap)}")
    y_all = stream.qoi_values()
    if np.any(np.isnan(y_all[test_indices])):
        raise ValueError("some test indices have no qoi value")
    X_test = stream.feature_matrix[test_indices]
    y_test = y_all[test_indices]
    mse = np.empty(len(selection.chosen) + 1)
    mse[0] = float(np.mean(y_test**2))
    train_x = stream.feature_matrix[list(selection.chosen)]
    train_y = y_all[list(selection.chosen)]
    if np.any(np.isnan(train_y)):
        raise ValueError("some selected indices have no qoi value")
    for m in range(1, len(selection.chosen) + 1):
        means, _ = gp.predict_many(train_x[:m], train_y[:m], X_test, hyper)
        mse[m] = float(np.mean((means - y_test) ** 2))
    return mse


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
    fill_sd: dict[str, float]
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
    stream_source: "ObservationStream | PeriodicStreamSpec",
    cfg: ExperimentConfig,
    hyper: GPHyperparams,
    utility: UtilityOrFactory | None = None,
    block_len: int | None = None,
    compute_mse: bool = True,
) -> ComparisonReport:
    """Run every configured algorithm over seeded trial streams and aggregate.

    A base ObservationStream source yields one block-permuted trial per run;
    a PeriodicStreamSpec source yields a fresh synthetic stream per run (with
    a GP-drawn qoi attached when MSE is requested). The held-out test split
    is drawn per trial from positions at or beyond one period, and those
    positions are removed from the selectors' view (they are never part of
    the reference period, so the selection context is unchanged).
    """
    if utility is None:
        utility = UtilityFunction.entropy(hyper)
    synthetic = isinstance(stream_source, PeriodicStreamSpec)
    if not synthetic and compute_mse and stream_source.qoi is None:
        raise ValueError("MSE requested but the stream has no qoi column")
    if not synthetic and block_len is None:
        block_len = cfg.period_T

    trial_seeds = derive_seeds(cfg.seed, _TAG_TRIAL, cfg.runs)
    qoi_seeds = derive_seeds(cfg.seed, _TAG_QOI, cfg.runs)
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
        if synthetic:
            trial = generate_periodic_stream(stream_source, trial_seeds[r])
            if compute_mse:
                trial = attach_gp_qoi(trial, hyper, qoi_seeds[r])
        else:
            trial = block_permute(stream_source, block_len, trial_seeds[r])
        f = _resolve_utility(utility, trial)

        if compute_mse:
            pool = np.arange(cfg.period_T, len(trial))
            n_test = int(round(cfg.test_fraction * pool.shape[0]))
            n_test = max(1, min(n_test, pool.shape[0] - cfg.k))
            test_idx = np.sort(
                np.random.default_rng(test_seeds[r]).choice(pool, size=n_test, replace=False)
            )
            test_set = set(int(i) for i in test_idx)
            view = [o for o in trial.observations if o.index not in test_set]
        else:
            test_idx = np.empty(0, dtype=int)
            view = list(trial.observations)

        for algo in cfg.algorithms:
            result = algo.run(view, f, cfg.k, cfg.period_T, algo_seeds[algo.label][r])
            trace = result.utility_trace
            if not trace:
                trace = utility_trace_for(f, [trial.observations[i] for i in result.chosen])
            utility_runs[algo.label][r] = _pad_trace(trace, cfg.k, 0.0)
            fills[algo.label][r] = len(result.chosen)
            if compute_mse:
                mse = evaluate_prediction(result, trial, test_idx, hyper)
                mse_runs[algo.label][r] = _pad_trace(mse, cfg.k + 1, mse[0])

    ddof = 1 if cfg.runs > 1 else 0
    report = ComparisonReport(
        labels=labels,
        k=cfg.k,
        runs=cfg.runs,
        seed=cfg.seed,
        utility_mean={lab: utility_runs[lab].mean(axis=0) for lab in labels},
        utility_sd={lab: utility_runs[lab].std(axis=0, ddof=ddof) for lab in labels},
        fill_mean={lab: float(fills[lab].mean()) for lab in labels},
        fill_sd={lab: float(fills[lab].std(ddof=ddof)) for lab in labels},
        utility_runs=utility_runs,
        mse_mean={lab: mse_runs[lab].mean(axis=0) for lab in labels} if compute_mse else None,
        mse_sd={lab: mse_runs[lab].std(axis=0, ddof=ddof) for lab in labels} if compute_mse else None,
        mse_runs=mse_runs,
    )
    return report


@dataclass(frozen=True)
class BoundValidationCell:
    """Empirical vs theoretical numbers for one (k, slack) grid cell; the
    fields, in order, are the columns of the bound-validation CSV."""

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
    q_denominator: str = "variance",
    gap_scale: float = 1.0,
    exhaustive_max_k: int = 4,
    exhaustive_cap: int = 10**6,
) -> BoundValidationReport:
    """Monte-Carlo check of the utility and success-count guarantees.

    Per (k, slack) cell: run the periodic secretary over seeded streams and
    compare mean final utility and mean acceptance count against the
    theoretical lower bounds, flagging any non-vacuous bound the empirical
    mean (minus three standard errors) falls below. The optimum f(A*) is
    exact (full enumeration) when the instance is small enough; otherwise
    the greedy value substitutes as a lower estimate and the utility check
    is reported as informational rather than pass/fail. ``gap_scale``
    deliberately rescales the per-step gap so detector tests can corrupt the
    bound.
    """
    if runs < 2:
        raise ValueError("bound validation needs runs >= 2 for standard errors")
    trial_seeds = derive_seeds(seed, _TAG_TRIAL, runs)
    streams = [generate_periodic_stream(spec, s) for s in trial_seeds]
    utilities = [_resolve_utility(utility, s) for s in streams]

    noise_est = float(
        np.mean([estimate_utility_noise(s, u) for s, u in zip(streams, utilities)])
    )

    cells: list[BoundValidationCell] = []
    for k in k_values:
        exact = k <= exhaustive_max_k and math.comb(spec.length_N, k) <= exhaustive_cap
        f_opts = np.empty(runs)
        for r, (stream, f) in enumerate(zip(streams, utilities)):
            if exact:
                opt = exhaustive_optimum(stream.observations, f, k, max_subsets=exhaustive_cap)
            else:
                opt = offline_greedy(stream.observations, f, k)
            f_opts[r] = _final_utility(opt)
        for slack in slack_values:
            finals = np.empty(runs)
            succ = np.empty(runs)
            cfg = PeriodicSecretaryConfig(k=k, period_T=spec.period_T, threshold_slack=slack)
            for r, (stream, f) in enumerate(zip(streams, utilities)):
                result = periodic_secretary(stream.observations, f, cfg)
                finals[r] = _final_utility(result)
                succ[r] = len(result.chosen)
            gap = gap_scale * per_step_gap(slack, noise_est, spec.length_N, spec.period_T)
            inputs = BoundInputs(
                k=k,
                threshold_slack=slack,
                utility_noise=noise_est,
                stream_len_N=spec.length_N,
                period_T=spec.period_T,
                f_opt=float(f_opts.mean()),
            )
            success_bound = expected_successes(inputs, q_denominator)
            factor = success_bound / k
            # Linear in f_opt, so the mean per-trial bound equals the bound at
            # the mean optimum.
            utility_bound = factor * (1.0 - 1.0 / math.e) * (float(f_opts.mean()) - k * gap)
            vacuous = utility_bound <= 0
            se_u = float(finals.std(ddof=1) / math.sqrt(runs))
            se_s = float(succ.std(ddof=1) / math.sqrt(runs))
            cells.append(
                BoundValidationCell(
                    k=int(k),
                    threshold_slack=float(slack),
                    runs=runs,
                    mean_utility=float(finals.mean()),
                    se_utility=se_u,
                    mean_successes=float(succ.mean()),
                    se_successes=se_s,
                    utility_bound=float(utility_bound),
                    success_bound=float(success_bound),
                    vacuous=vacuous,
                    informational=not exact,
                    utility_violation=(
                        not vacuous
                        and exact
                        and finals.mean() - 3 * se_u < utility_bound
                    ),
                    success_violation=succ.mean() - 3 * se_s < success_bound,
                )
            )
    return BoundValidationReport(cells=tuple(cells), utility_noise_estimate=noise_est)


def write_tuning_csv(result: SlackTuningResult, path: "str | Path") -> None:
    write_csv(
        path,
        ["threshold_slack", "mean_utility", "sd_utility", "mean_fill"],
        zip(result.slacks, result.mean_utility, result.sd_utility, result.mean_fill),
    )


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
        write_csv(
            path,
            ["step", "algorithm", "mean", "sd"],
            (
                [step, lab, mean, sd]
                for lab in report.labels
                for step, (mean, sd) in enumerate(zip(means[lab], sds[lab]), first_step)
            ),
        )
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


def write_bound_validation_csv(report: BoundValidationReport, path: "str | Path") -> None:
    write_csv(
        path,
        [f.name for f in fields(BoundValidationCell)],
        (astuple(c) for c in report.cells),
    )
