"""Sample-selection algorithms: streaming secretary variants and offline baselines.

Streaming selectors consume their stream exactly once and make irrevocable
accept/reject decisions in arrival order; rejected observations are never
revisited. Offline selectors (greedy, exhaustive) see the whole ground set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .kv import write_csv
from .stream import Observation
from .utility import UtilityFunction

__all__ = [
    "SelectionResult",
    "PeriodicSecretaryConfig",
    "periodic_secretary",
    "classical_secretary",
    "submodular_secretary",
    "scheduled_sampler",
    "random_sampler",
    "offline_greedy",
    "exhaustive_optimum",
    "utility_trace_for",
    "write_selection_csv",
]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selector run.

    ``chosen`` holds stream indices in selection order (arrival order for
    streaming selectors). ``utility_trace`` is the cumulative utility after
    each acceptance when the selector evaluates a utility; schedule-based
    selectors leave it empty. ``threshold_trace`` records the absolute
    acceptance threshold in force at each acceptance (periodic secretary
    only).
    """

    chosen: tuple[int, ...]
    utility_trace: tuple[float, ...]
    terminated: str
    threshold_trace: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.terminated not in ("filled_k", "end_of_stream"):
            raise ValueError(f"unknown termination reason {self.terminated!r}")
        chosen = tuple(int(i) for i in self.chosen)
        if len(set(chosen)) != len(chosen):
            raise ValueError("chosen indices must be distinct")
        object.__setattr__(self, "chosen", chosen)
        trace = tuple(float(v) for v in self.utility_trace)
        if trace and len(trace) != len(chosen):
            raise ValueError("utility_trace length must match chosen")
        object.__setattr__(self, "utility_trace", trace)
        if self.threshold_trace is not None:
            tt = tuple(float(v) for v in self.threshold_trace)
            if len(tt) != len(chosen):
                raise ValueError("threshold_trace length must match chosen")
            object.__setattr__(self, "threshold_trace", tt)

    @property
    def final_utility(self) -> float:
        if not self.utility_trace:
            raise ValueError("selector recorded no utility trace")
        return self.utility_trace[-1]


@dataclass(frozen=True)
class PeriodicSecretaryConfig:
    """Inputs of the periodic secretary: capacity k, data period, threshold slack.

    ``threshold_slack`` is the amount subtracted from the best reference-set
    utility to form the acceptance threshold; it absorbs period-to-period
    utility noise.
    """

    k: int
    period_T: int
    threshold_slack: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.period_T < 1:
            raise ValueError(f"period_T must be positive, got {self.period_T}")
        if self.threshold_slack < 0:
            raise ValueError(f"threshold_slack must be non-negative, got {self.threshold_slack}")


def periodic_secretary(
    stream: Iterable[Observation],
    f: UtilityFunction,
    cfg: PeriodicSecretaryConfig,
) -> SelectionResult:
    """Threshold-based streaming selection calibrated on one reference period.

    The first period_T observations are stored as the reference set and never
    sampled. The acceptance threshold is the best reference utility (given
    the current sample set) minus the threshold slack; the first scanned
    observation meeting it is accepted, after which the reference utilities
    and threshold are recomputed against the grown set. Stops after k
    acceptances or at end of stream, whichever comes first.
    """
    it = iter(stream)
    reference = list(islice(it, cfg.period_T))
    if len(reference) < cfg.period_T:
        raise ValueError(
            f"stream ended after {len(reference)} observations, before one full period ({cfg.period_T})"
        )
    ev = f.evaluator()
    threshold_gain = float(np.max(ev.gains(reference))) - cfg.threshold_slack
    chosen: list[int] = []
    trace: list[float] = []
    thresholds: list[float] = []
    terminated = "end_of_stream"
    for obs in it:
        if ev.gain(obs) >= threshold_gain:
            thresholds.append(ev.value + threshold_gain)
            ev.accept(obs)
            chosen.append(obs.index)
            trace.append(ev.value)
            if len(chosen) == cfg.k:
                terminated = "filled_k"
                break
            threshold_gain = float(np.max(ev.gains(reference))) - cfg.threshold_slack
    return SelectionResult(
        chosen=tuple(chosen),
        utility_trace=tuple(trace),
        terminated=terminated,
        threshold_trace=tuple(thresholds),
    )


def _classical_pick(
    items: Sequence[Observation], score: Callable[[Observation], float]
) -> Observation | None:
    """Observe the first floor(n/e) items, then take the first strict improvement."""
    n = len(items)
    cutoff = int(n / math.e)
    best = -math.inf
    for obs in items[:cutoff]:
        best = max(best, score(obs))
    for obs in items[cutoff:]:
        if score(obs) > best:
            return obs
    return None


def classical_secretary(
    stream: Sequence[Observation], score: Callable[[Observation], float]
) -> int | None:
    """Single-choice secretary rule; returns the chosen stream index or None.

    No forced pick is made when nothing beats the observation-phase maximum.
    """
    pick = _classical_pick(list(stream), score)
    return None if pick is None else pick.index


def submodular_secretary(
    stream: Sequence[Observation], f: UtilityFunction, k: int
) -> SelectionResult:
    """k-segment secretary: one classical-secretary pass per contiguous segment.

    Items are scored by their marginal gain against the samples accumulated
    in earlier segments; segment lengths differ by at most one.
    """
    items = list(stream)
    n = len(items)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) exceeds stream length ({n})")
    ev = f.evaluator()
    chosen: list[int] = []
    trace: list[float] = []
    for j in range(k):
        segment = items[(j * n) // k : ((j + 1) * n) // k]
        pick = _classical_pick(segment, ev.gain)
        if pick is not None:
            ev.accept(pick)
            chosen.append(pick.index)
            trace.append(ev.value)
    terminated = "filled_k" if len(chosen) == k else "end_of_stream"
    return SelectionResult(chosen=tuple(chosen), utility_trace=tuple(trace), terminated=terminated)


def scheduled_sampler(stream: Sequence[Observation], k: int) -> SelectionResult:
    """Evenly spaced sampling: positions floor(j*N/k) for j = 0..k-1."""
    items = list(stream)
    n = len(items)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) exceeds stream length ({n})")
    chosen = tuple(items[(j * n) // k].index for j in range(k))
    return SelectionResult(chosen=chosen, utility_trace=(), terminated="filled_k")


def random_sampler(stream: Sequence[Observation], k: int, seed: int) -> SelectionResult:
    """k positions drawn uniformly without replacement, returned in stream order."""
    items = list(stream)
    n = len(items)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) exceeds stream length ({n})")
    positions = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
    chosen = tuple(items[int(p)].index for p in positions)
    return SelectionResult(chosen=chosen, utility_trace=(), terminated="filled_k")


def offline_greedy(
    ground: Sequence[Observation], f: UtilityFunction, k: int
) -> SelectionResult:
    """Iterative argmax-of-marginal-gain selection over a known ground set.

    Ties break to the lowest observation index. ``chosen`` is in selection
    order, which is generally not index order.
    """
    remaining = sorted(ground, key=lambda o: o.index)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > len(remaining):
        raise ValueError(f"k ({k}) exceeds ground set size ({len(remaining)})")
    ev = f.evaluator()
    chosen: list[int] = []
    trace: list[float] = []
    for _ in range(k):
        gains = ev.gains(remaining)
        pos = int(np.argmax(gains))  # first max = lowest index after the sort
        obs = remaining.pop(pos)
        ev.accept(obs)
        chosen.append(obs.index)
        trace.append(ev.value)
    return SelectionResult(chosen=tuple(chosen), utility_trace=tuple(trace), terminated="filled_k")


def exhaustive_optimum(
    ground: Sequence[Observation], f: UtilityFunction, k: int, max_subsets: int = 10**6
) -> SelectionResult:
    """Enumerate every k-subset and return the utility maximizer.

    Among ties the lexicographically smallest index set wins. Instances with
    more than ``max_subsets`` subsets are refused outright.
    """
    items = sorted(ground, key=lambda o: o.index)
    n = len(items)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) exceeds ground set size ({n})")
    if math.comb(n, k) > max_subsets:
        raise ValueError(
            f"C({n}, {k}) = {math.comb(n, k)} subsets exceeds the enumeration cap {max_subsets}"
        )
    if k == 0:
        return SelectionResult(chosen=(), utility_trace=(), terminated="filled_k")

    if f.kind == "modular_sum":
        # Still full enumeration; the subset sums are just evaluated in bulk.
        combos = np.array(list(combinations(range(n), k)), dtype=np.intp)
        w = np.array([f.weights[o.index] for o in items])
        best_pos = int(np.argmax(w[combos].sum(axis=1)))  # first max = lex smallest
        best = [items[i] for i in combos[best_pos]]
    else:
        best = None
        best_val = -math.inf
        for combo in combinations(items, k):
            val = f.value(combo)
            if val > best_val:
                best, best_val = list(combo), val
    trace = utility_trace_for(f, best)
    return SelectionResult(
        chosen=tuple(o.index for o in best), utility_trace=trace, terminated="filled_k"
    )


def utility_trace_for(f: UtilityFunction, observations: Sequence[Observation]) -> tuple[float, ...]:
    """Cumulative utility after each prefix of an ordered sample sequence."""
    ev = f.evaluator()
    return tuple(ev.accept(o) for o in observations)


def write_selection_csv(result: SelectionResult, path: "str | Path") -> None:
    """Serialize a selection as CSV: step, stream_index, utility_after, threshold."""
    utils = result.utility_trace or ("",) * len(result.chosen)
    thresholds = result.threshold_trace or ("",) * len(result.chosen)
    write_csv(
        path,
        ["step", "stream_index", "utility_after", "threshold"],
        zip(range(1, len(result.chosen) + 1), result.chosen, utils, thresholds),
    )
