"""Closed-form performance guarantees for periodic-secretary selection.

All quantities are driven by five inputs: capacity k, threshold slack,
utility noise variance, stream length, and period. The headline result is a
lower bound on the expected utility of the selected set relative to the
offline optimum; it decomposes into a per-step suboptimality gap, a
full-selection bound, and an expected-success factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gp import GPConditioner, _entropy_of
from .stream import ObservationStream
from .utility import UtilityFunction, _weights_of

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
        if not self.threshold_slack >= 0:
            raise ValueError(f"threshold_slack must be non-negative, got {self.threshold_slack}")
        if not self.utility_noise >= 0:
            raise ValueError(f"utility_noise must be non-negative, got {self.utility_noise}")
        if self.period_T < 1 or self.stream_len_N < self.period_T:
            raise ValueError(
                f"need 1 <= period_T <= stream_len_N, got T={self.period_T}, N={self.stream_len_N}"
            )
        if not self.f_opt >= 0:
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
    if not utility_noise >= 0:
        raise ValueError(f"utility_noise must be non-negative, got {utility_noise}")
    return math.sqrt(2.0 * utility_noise * math.log(periods))


def per_step_gap(
    threshold_slack: float, utility_noise: float, stream_len_N: int, period_T: int
) -> float:
    """Expected per-acceptance suboptimality of a threshold-accepted sample."""
    return threshold_slack + expected_max_gap(utility_noise, stream_len_N // period_T)


def _success_probability(threshold_slack: float, utility_noise: float) -> float:
    """Per-period probability that some observation clears the threshold.

    Q(-lambda/sigma_u), with sigma_u = sqrt(utility_noise). The slack and
    sigma_u are both in utility units, so rescaling the utility and the slack
    by one factor leaves the picks and this probability unchanged;
    lambda/sigma_u^2 would carry the inverse of that factor. The noiseless
    limit is 1 for positive slack and 1/2 at zero slack.
    """
    if utility_noise == 0:
        return 1.0 if threshold_slack > 0 else 0.5
    return gaussian_tail_q(-threshold_slack / math.sqrt(utility_noise))


def expected_successes(inputs: BoundInputs) -> float:
    """Expected number of accepted samples: min(k, success probability x periods).

    Where success probability x periods reaches k, the bound is capped at k
    and claims E[fill] >= k: every run fills, so a single under-filled run
    falls below it.
    """
    p = _success_probability(inputs.threshold_slack, inputs.utility_noise)
    return min(float(inputs.k), p * inputs.periods)


def full_selection_bound(inputs: BoundInputs) -> float:
    """Utility lower bound assuming all k acceptances succeed:
    (1 - 1/e) * (f_opt - k * per_step_gap)."""
    gap = per_step_gap(
        inputs.threshold_slack, inputs.utility_noise, inputs.stream_len_N, inputs.period_T
    )
    return (1.0 - 1.0 / math.e) * (inputs.f_opt - inputs.k * gap)


def utility_lower_bound(inputs: BoundInputs) -> float:
    """Expected-utility lower bound including the success factor.

    May be negative (vacuous); returned as-is so callers can flag it.
    """
    factor = expected_successes(inputs) / inputs.k
    return factor * full_selection_bound(inputs)


def bound_report(inputs: BoundInputs) -> BoundReport:
    """Evaluate every guarantee for one input configuration."""
    lower = utility_lower_bound(inputs)
    return BoundReport(
        per_step_gap=per_step_gap(
            inputs.threshold_slack, inputs.utility_noise, inputs.stream_len_N, inputs.period_T
        ),
        full_selection_bound=full_selection_bound(inputs),
        expected_successes=expected_successes(inputs),
        utility_lower_bound=lower,
        vacuous=lower <= 0,
    )


def estimate_utility_noise(stream: ObservationStream, f: UtilityFunction) -> float:
    """Estimate the period-to-period variance of singleton utilities.

    For each phase, the singleton utility of the observations at that phase
    across periods is collected; the pooled sample variance across phases is
    returned. This is a pragmatic bridge from data noise to utility noise,
    approximately right for near-linear utility responses. It is biased low
    on a generated stream even for a modular utility: the stream's first
    period is noise-free and is pooled with the rest (with ten periods the
    estimate is about 0.9 of the noise variance). A stationary-kernel
    entropy utility has constant singleton utilities, so it estimates to ~0
    there. The period is the stream's own, so the stream needs a spec.
    """
    if stream.spec is None:
        raise ValueError("the stream has no spec, so its period is unknown")
    period_T = stream.spec.period_T
    n = len(stream)
    if n // period_T < 2:
        raise ValueError(
            f"need at least 2 full periods to estimate utility noise, have {n}/{period_T}"
        )
    if f.kind == "entropy":  # each observation's utility alone
        cond = GPConditioner(f.hyper)
        cond.track(stream.feature_matrix)
        singles = _entropy_of(cond.tracked_variances())
    else:
        singles = _weights_of(f.weights, stream.observations.indices)
    # Row p of a block holds phase p's utilities, singles[p::period_T]. The
    # first n % period_T phases have one more period than the rest, so there
    # are at most two blocks, one per count, in phase order. Each row repeats
    # np.var(u, ddof=1) (contiguous rows keep its summation order) and the
    # phases are pooled in phase order by a sequential sum, so the estimate
    # has the bits of one np.var per phase.
    full, extra = divmod(n, period_T)
    padded = np.zeros((full + 1) * period_T)
    padded[:n] = singles
    by_phase = np.ascontiguousarray(padded.reshape(full + 1, period_T).T)
    blocks = [by_phase[extra:, :full]]  # the last column of these rows is padding
    if extra:
        blocks.insert(0, by_phase[:extra])
    terms = []
    for block in blocks:
        count = block.shape[1]
        dev = block - block.sum(axis=1, keepdims=True) / count
        terms.append((count - 1) * ((dev * dev).sum(axis=1) / (count - 1)))
    return float(np.cumsum(np.concatenate(terms))[-1]) / (n - period_T)
