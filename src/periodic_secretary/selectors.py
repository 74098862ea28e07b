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
from collections.abc import Callable, Iterable, Sequence

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
    "EXACT_MAX_SUBSETS",
]

# Exhaustive enumeration refuses instances with more k-subsets than this.
EXACT_MAX_SUBSETS = 10**6


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

    The reference set is the evaluator's tracked pool, so every
    recalibration reads its largest tracked gain. A ``Sequence`` is already
    all there, so it is scanned a period at a time, tracked alongside the
    reference set; each acceptance is the first tracked gain to meet the
    threshold and joins the set from its tracked state (under entropy, one
    step of pivoted Cholesky on the pool). Any other iterable yields only
    the observation that has just arrived; that one is decided by the
    evaluator's arrival test (``meets``: its own one-point gain against the
    threshold, under entropy compared in variance space), is never tracked,
    and nothing is read past the last decision. Gains depend only on the
    accepted set, so both scans make the decisions of a one-at-a-time scan,
    except where a gain ties the threshold within roundoff: a point's
    tracked and one-point gains can differ in the last bits.
    """
    T = cfg.period_T
    it = iter(stream)
    reference = list(islice(it, T))
    if len(reference) < T:
        raise ValueError(
            f"stream ended after {len(reference)} observations, before one full period ({T})"
        )
    ev = f.evaluator()
    if isinstance(stream, Sequence):
        ev.reserve(min(cfg.k, len(stream) - T), 2 * T)
    ev.track(reference)
    threshold_gain = ev.max_tracked_gain(T) - cfg.threshold_slack
    chosen: list[int] = []
    trace: list[float] = []
    thresholds: list[float] = []

    def accept(obs: Observation, threshold_gain: float, pos: int | None = None) -> float:
        """Take obs; return the threshold recalibrated against the grown set."""
        thresholds.append(ev.value + threshold_gain)
        ev.accept(obs, pos)
        chosen.append(obs.index)
        trace.append(ev.value)
        return ev.max_tracked_gain(T) - cfg.threshold_slack

    if not isinstance(stream, Sequence):
        for obs in it:
            if ev.meets(obs, threshold_gain):
                threshold_gain = accept(obs, threshold_gain)
                if len(chosen) == cfg.k:
                    break
    else:
        for batch in iter(lambda: list(islice(it, T)), []):
            ev.track(batch)
            pos = T
            while len(chosen) < cfg.k:
                hit = ev.first_tracked_hit(threshold_gain, pos)
                if hit is None:
                    break
                threshold_gain = accept(batch[hit - T], threshold_gain, hit)
                pos = hit + 1
            if len(chosen) == cfg.k:
                break
            ev.untrack(len(batch))
    return SelectionResult(
        chosen=tuple(chosen),
        utility_trace=tuple(trace),
        terminated="filled_k" if len(chosen) == cfg.k else "end_of_stream",
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
    ev.check(items)
    ev.reserve(k)
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
    items = sorted(ground, key=lambda o: o.index)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > len(items):
        raise ValueError(f"k ({k}) exceeds ground set size ({len(items)})")
    ev = f.evaluator()
    ev.reserve(k, len(items))
    ev.track(items)
    taken = np.zeros(len(items), dtype=bool)
    chosen: list[int] = []
    trace: list[float] = []
    for _ in range(k):
        pos = int(np.argmax(np.where(taken, -np.inf, ev.tracked_gains())))  # first max = lowest index
        taken[pos] = True
        ev.accept(items[pos], pos)
        chosen.append(items[pos].index)
        trace.append(ev.value)
    return SelectionResult(chosen=tuple(chosen), utility_trace=tuple(trace), terminated="filled_k")


def _lex_subsets(m: int, j: int, dtype: np.dtype) -> np.ndarray:
    """Every j-subset of range(m) as rows of ``dtype`` in lexicographic order.

    The rows starting with i are i followed by the last C(m-1-i, j-1) rows
    of the (j-1)-subsets of range(m-1), shifted by one.
    """
    if j == 0:
        return np.zeros((1, 0), dtype=dtype)
    tails = _lex_subsets(m - 1, j - 1, dtype) + 1
    table = np.empty((math.comb(m, j), j), dtype=dtype)
    row = 0
    for i in range(m - j + 1):
        count = math.comb(m - 1 - i, j - 1)
        table[row:row + count, 0] = i
        table[row:row + count, 1:] = tails[len(tails) - count:]
        row += count
    return table


def exhaustive_optimum(
    ground: Sequence[Observation], f: UtilityFunction, k: int
) -> SelectionResult:
    """Enumerate every k-subset and return the utility maximizer.

    Among ties the lexicographically smallest index set wins. A modular
    utility's subset sums add the weights left to right, in index order, so
    ties are judged on exactly those floating-point sums. Instances with more
    than ``EXACT_MAX_SUBSETS`` subsets are refused outright.
    """
    items = sorted(ground, key=lambda o: o.index)
    n = len(items)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) exceeds ground set size ({n})")
    if math.comb(n, k) > EXACT_MAX_SUBSETS:
        raise ValueError(
            f"C({n}, {k}) = {math.comb(n, k)} subsets exceeds the enumeration cap"
            f" {EXACT_MAX_SUBSETS}"
        )
    if k == 0:
        return SelectionResult(chosen=(), utility_trace=(), terminated="filled_k")

    if f.kind == "modular_sum":
        # Chunk i holds the subsets whose first element is i: i followed by the
        # last C(n-1-i, k-1) rows of one (k-1)-subset table of range(1, n).
        # Sums add left to right, one tail column at a time; the first
        # maximum of the chunk maxima, in chunk order, is the first maximum
        # overall, so ties go to the lexicographically smallest subset.
        w = np.array([f.weights[o.index] for o in items])
        tails = _lex_subsets(n - 1, k - 1, np.min_scalar_type(n)) + 1
        cols = w[tails.T]
        buf = np.empty(len(tails))
        tops = np.empty(n - k + 1)
        rows = np.empty(n - k + 1, dtype=np.intp)  # winning row of tails per chunk
        for i in range(n - k + 1):
            start = len(tails) - math.comb(n - 1 - i, k - 1)
            sums = buf[start:]
            sums.fill(w[i])
            for col in cols[:, start:]:
                sums += col
            rows[i] = start + np.argmax(sums)  # first max; NaN counts as the max
            tops[i] = buf[rows[i]]
        first = int(np.argmax(tops))
        best = [items[first], *(items[j] for j in tails[rows[first]])]
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
    ev.reserve(len(observations))
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
