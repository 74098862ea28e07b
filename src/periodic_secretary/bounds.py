"""Closed-form performance guarantees for periodic-secretary selection.

All quantities are driven by five inputs: capacity k, threshold slack,
utility noise variance, stream length, and period. The headline result is a
lower bound on the expected utility of the selected set relative to the
offline optimum; it decomposes into a per-step suboptimality gap, a
full-selection bound, and an expected-success factor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .kv import format_kv, write_kv_file
from .stream import ObservationStream
from .utility import UtilityFunction

__all__ = [
    "BoundInputs",
    "BoundReport",
    "gaussian_tail_q",
    "expected_max_gap",
    "per_step_gap",
    "expected_successes",
    "full_selection_bound",
    "utility_lower_bound",
    "bound_report",
    "format_bound_report",
    "write_bound_report",
    "estimate_utility_noise",
]


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the bound calculators.

    ``utility_noise`` is the period-to-period utility variance (sigma_u^2);
    ``f_opt`` is the utility of the optimal k-subset, from an exhaustive or
    greedy oracle.
    """

    k: int
    threshold_slack: float
    utility_noise: float
    stream_len_N: int
    period_T: int
    f_opt: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.threshold_slack < 0:
            raise ValueError(f"threshold_slack must be non-negative, got {self.threshold_slack}")
        if self.utility_noise < 0:
            raise ValueError(f"utility_noise must be non-negative, got {self.utility_noise}")
        if self.period_T < 1 or self.stream_len_N < self.period_T:
            raise ValueError(
                f"need 1 <= period_T <= stream_len_N, got T={self.period_T}, N={self.stream_len_N}"
            )
        if self.f_opt < 0:
            raise ValueError(f"f_opt must be non-negative, got {self.f_opt}")

    @property
    def periods(self) -> int:
        return self.stream_len_N // self.period_T


@dataclass(frozen=True)
class BoundReport:
    """Evaluated guarantees for one input configuration.

    ``vacuous`` is set when the utility lower bound is non-positive and
    therefore carries no information.
    """

    per_step_gap: float
    full_selection_bound: float
    expected_successes: float
    utility_lower_bound: float
    vacuous: bool


def gaussian_tail_q(x: float) -> float:
    """Upper-tail probability Q(x) = P(Z > x) of a standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def expected_max_gap(utility_noise: float, periods: float) -> float:
    """Upper bound on the expected maximum of `periods` zero-mean Gaussian draws.

    Evaluates sqrt(2 * utility_noise * ln(periods)); zero for a single period.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if utility_noise < 0:
        raise ValueError(f"utility_noise must be non-negative, got {utility_noise}")
    return math.sqrt(2.0 * utility_noise * math.log(periods))


def per_step_gap(
    threshold_slack: float, utility_noise: float, stream_len_N: int, period_T: int
) -> float:
    """Expected per-acceptance suboptimality of a threshold-accepted sample."""
    return threshold_slack + expected_max_gap(utility_noise, stream_len_N // period_T)


def _success_probability(
    threshold_slack: float, utility_noise: float, q_denominator: str
) -> float:
    """Per-period probability that some observation clears the threshold.

    The default denominator is the noise variance (the literal bound form);
    ``q_denominator="std"`` switches to the standard deviation. The noiseless
    limit is 1 for positive slack and 1/2 at zero slack.
    """
    if q_denominator not in ("variance", "std"):
        raise ValueError(f"q_denominator must be 'variance' or 'std', got {q_denominator!r}")
    if utility_noise == 0:
        return 1.0 if threshold_slack > 0 else 0.5
    denom = utility_noise if q_denominator == "variance" else math.sqrt(utility_noise)
    return gaussian_tail_q(-threshold_slack / denom)


def expected_successes(inputs: BoundInputs, q_denominator: str = "variance") -> float:
    """Expected number of accepted samples: min(k, success probability x periods)."""
    p = _success_probability(inputs.threshold_slack, inputs.utility_noise, q_denominator)
    return min(float(inputs.k), p * inputs.periods)


def full_selection_bound(inputs: BoundInputs) -> float:
    """Utility lower bound assuming all k acceptances succeed:
    (1 - 1/e) * (f_opt - k * per_step_gap)."""
    gap = per_step_gap(
        inputs.threshold_slack, inputs.utility_noise, inputs.stream_len_N, inputs.period_T
    )
    return (1.0 - 1.0 / math.e) * (inputs.f_opt - inputs.k * gap)


def utility_lower_bound(inputs: BoundInputs, q_denominator: str = "variance") -> float:
    """Expected-utility lower bound including the success factor.

    May be negative (vacuous); returned as-is so callers can flag it.
    """
    factor = expected_successes(inputs, q_denominator) / inputs.k
    return factor * full_selection_bound(inputs)


def bound_report(inputs: BoundInputs, q_denominator: str = "variance") -> BoundReport:
    """Evaluate every guarantee for one input configuration."""
    lower = utility_lower_bound(inputs, q_denominator)
    return BoundReport(
        per_step_gap=per_step_gap(
            inputs.threshold_slack, inputs.utility_noise, inputs.stream_len_N, inputs.period_T
        ),
        full_selection_bound=full_selection_bound(inputs),
        expected_successes=expected_successes(inputs, q_denominator),
        utility_lower_bound=lower,
        vacuous=lower <= 0,
    )


def format_bound_report(report: BoundReport) -> str:
    """Key-value text block (consumed by the CLI bounds subcommand)."""
    return format_kv(asdict(report))


def write_bound_report(report: BoundReport, path: "str | Path") -> None:
    write_kv_file(asdict(report), path)


def estimate_utility_noise(
    stream: ObservationStream, f: UtilityFunction, period_T: int | None = None
) -> float:
    """Estimate the period-to-period variance of singleton utilities.

    For each phase, the singleton utility of the observations at that phase
    across periods is collected; the pooled sample variance across phases is
    returned. This is a pragmatic bridge from data noise to utility noise,
    approximately right for near-linear utility responses. It is biased low
    on a generated stream even for a modular utility: the stream's first
    period is noise-free and is pooled with the rest (with ten periods the
    estimate is about 0.9 of the noise variance). A stationary-kernel
    entropy utility has constant singleton utilities, so it estimates to ~0
    there.
    """
    if period_T is None:
        if stream.spec is None:
            raise ValueError("period_T required when the stream has no spec")
        period_T = stream.spec.period_T
    n = len(stream)
    if n // period_T < 2:
        raise ValueError(
            f"need at least 2 full periods to estimate utility noise, have {n}/{period_T}"
        )
    singles = np.array([f.value([o]) for o in stream.observations])
    num = 0.0
    den = 0
    for p in range(period_T):
        u = singles[p::period_T]
        if u.shape[0] >= 2:
            num += (u.shape[0] - 1) * float(np.var(u, ddof=1))
            den += u.shape[0] - 1
    return num / den
