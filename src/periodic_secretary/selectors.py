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
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from .kv import write_columns
from .stream import Observation, Rows
from .gp import _check_dim, _entropy_of
from .utility import UtilityFunction, _chain_variances, _running_sums, _weights_of

__all__ = [
    "SelectionResult",
    "PeriodicSecretaryConfig",
    "periodic_secretary",
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
        if not self.threshold_slack >= 0:
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

    Under entropy the run drives its evaluator's ``conditioner`` directly:
    the ``GPConditioner`` tracks the reference set and decides in variance
    space; each recalibration is one reduction over the tracked variances
    and one log (``GPConditioner.max_tracked_gain``). A ``Sequence`` is
    already all there, so its rows (``Rows.of``) are scanned a period at a
    time, each period's slice of the feature matrix tracked alongside the
    reference set, in one loop over the tracked variances
    (``first_tracked_hit``) that takes a gain only inside the guard band of
    the threshold's variance; each acceptance is the first tracked gain to
    meet the threshold and joins the set by its pool position through
    ``accept`` (one step of pivoted Cholesky on the pool).
    Any other iterable yields only the observation that has just arrived;
    that one is decided by the conditioner's ``arrival_test`` for the
    threshold in force, is never tracked, and nothing is read past the last
    decision. The threshold moves only at an acceptance, so the test is
    built once per threshold and again after each acceptance. Gains depend
    only on the accepted set, so both scans make the decisions of a
    one-at-a-time scan, except where a gain ties the threshold within
    roundoff: a point's tracked and one-point gains can differ in the last
    bits.

    Tie rule: at slack 0 roundoff decides. A gain that ties the threshold
    exactly (a repeat of a reference location, or a point whose kernel
    underflows) can fall either side of it in float, on either scan. In 3000
    random runs against a 60-digit transcription of the rule
    (``tests/test_exact_oracle.py``), 80 of 984 at slack 0 (8%) picked
    differently, each first within 2.7e-16 of the threshold variance; none
    of the 2016 at a positive or infinite slack did.

    Under a modular utility every gain is a fixed weight, so the run is one
    scan at a fixed threshold and builds no evaluator (``_fixed_threshold_scan``).

    k only stops the scan, so a run at capacity k makes exactly the first k
    decisions of a run at any larger capacity: its ``chosen``,
    ``utility_trace`` and ``threshold_trace`` are that run's first k
    entries, bit for bit.
    """
    if f.kind == "modular_sum":
        return _fixed_threshold_scan(stream, f.weights, cfg)
    T = cfg.period_T
    ev = f.evaluator()
    cond = ev.conditioner  # tracks the pools and decides the rule off their variances
    listed = isinstance(stream, Sequence)
    if listed:
        rows = Rows.of(stream)
        _refuse_short(len(rows), T)
        reference = rows[:T]
        cond.reserve(min(cfg.k, len(rows) - T), 2 * T)
    else:
        it = iter(stream)
        reference = Rows.of(_reference_period(it, T))
    chosen, trace, thresholds = [], [], []

    def calibrated() -> float:
        """The threshold gain: the best tracked reference gain against the set, less the slack."""
        return cond.max_tracked_gain(T) - cfg.threshold_slack

    def accept(obs: Observation, threshold_gain: float, pos: int | None = None) -> float:
        """Take obs; return the threshold recalibrated against the grown set."""
        thresholds.append(ev.value + threshold_gain)
        trace.append(ev.accept(obs, pos))
        chosen.append(obs.index)
        return calibrated()

    cond.track(reference.features)
    threshold_gain = calibrated()

    if not listed:
        meets = cond.arrival_test(threshold_gain)
        for obs in it:
            if meets(obs.features):
                threshold_gain = accept(obs, threshold_gain)
                if len(chosen) == cfg.k:
                    break
                meets = cond.arrival_test(threshold_gain)
    else:
        for start in range(T, len(rows), T):
            batch = rows[start : start + T]
            cond.track(batch.features)
            pos = T
            while len(chosen) < cfg.k:
                hit = cond.first_tracked_hit(threshold_gain, pos)
                if hit is None:
                    break
                threshold_gain = accept(batch[hit - T], threshold_gain, hit)
                pos = hit + 1
            if len(chosen) == cfg.k:
                break
            cond.untrack(len(batch))
    return SelectionResult(
        chosen=tuple(chosen),
        utility_trace=tuple(trace),
        terminated="filled_k" if len(chosen) == cfg.k else "end_of_stream",
        threshold_trace=tuple(thresholds),
    )


def _reference_period(it: Iterator[Observation], T: int) -> list[Observation]:
    """The first T observations of ``it``; a stream that ends before them is refused."""
    reference = list(islice(it, T))
    _refuse_short(len(reference), T)
    return reference


def _refuse_short(n: int, T: int) -> None:
    """Refuse a stream of n observations, fewer than one period of T."""
    if n < T:
        raise ValueError(f"stream ended after {n} observations, before one full period ({T})")


def _fixed_threshold_scan(
    stream: Iterable[Observation], weights: np.ndarray, cfg: PeriodicSecretaryConfig
) -> SelectionResult:
    """The periodic secretary under modular ``weights``.

    A modular gain is the observation's own weight, whatever the set holds,
    so the threshold gain max(reference weights) - slack never moves and
    the picks are the first k observations after the reference period whose
    weight meets it. A ``Sequence`` gathers its weights from its index
    column in one go (an index with no weight is refused wherever it sits)
    and finds its picks in one scan. Any other iterable is read lazily, one
    weight per arrival, and nothing past the k-th pick; a repeated pick is
    refused when it arrives. The utility trace is the running sum of the picks' weights,
    added in pick order as acceptance adds them, so it has the bits of
    accepting them one at a time.
    """
    T = cfg.period_T
    if isinstance(stream, Sequence):
        rows = Rows.of(stream)
        _refuse_short(len(rows), T)
        w = _weights_of(weights, rows.indices)
        threshold_gain = float(w[:T].max()) - cfg.threshold_slack
        picks = (w[T:] >= threshold_gain).nonzero()[0][: cfg.k] + T
        chosen = _refuse_repeats(rows.indices[picks].tolist())
        gains = w[picks]
    else:
        it = iter(stream)
        reference = np.array([o.index for o in _reference_period(it, T)])
        threshold_gain = float(_weights_of(weights, reference).max()) - cfg.threshold_slack
        meets = (
            o.index for o in it if _weights_of(weights, np.array([o.index])).item() >= threshold_gain
        )
        chosen = _refuse_repeats(islice(meets, cfg.k))
        gains = weights[chosen]
    values = _running_sums(gains)  # values[j] is the utility before pick j
    return SelectionResult(
        chosen=tuple(chosen),
        utility_trace=tuple(values[1:]),
        terminated="filled_k" if len(chosen) == cfg.k else "end_of_stream",
        threshold_trace=tuple(v + threshold_gain for v in values[:-1]),
    )


def _refuse_repeats(indices: Iterable[int]) -> list[int]:
    """The indices as a list, refusing the first that repeats an earlier
    one, as accepting them in order would, before reading any after it."""
    seen: dict[int, None] = {}
    for i in indices:
        if i in seen:
            raise ValueError(f"observation {i} is already in the sample set")
        seen[i] = None
    return list(seen)


def _check_capacity(k: int, n: int, offline: bool = False) -> None:
    """Refuse a capacity k outside 1..n, the stream length, or, for an
    offline selector, outside 0..n, the ground set size."""
    if k < (0 if offline else 1):
        raise ValueError(f"k must be {'non-negative' if offline else 'positive'}, got {k}")
    if k > n:
        raise ValueError(f"k ({k}) exceeds {'ground set size' if offline else 'stream length'} ({n})")


def _classical_pick(items: Sequence, score: Callable[..., float]) -> object | None:
    """Single-choice secretary rule: observe the first floor(n/e) items
    (observations, or positions of fixed scores), then take the first strict
    improvement on the best score observed, or None if nothing beats it: an
    item that only ties the best is passed over. Its guarantee assumes a
    uniformly random arrival order."""
    it = iter(items)
    best = -math.inf
    for obs in islice(it, int(len(items) / math.e)):
        best = max(best, score(obs))
    for obs in it:
        if score(obs) > best:
            return obs
    return None


def submodular_secretary(
    stream: Sequence[Observation], f: UtilityFunction, k: int
) -> SelectionResult:
    """k-segment secretary: one classical-secretary pass per contiguous segment.

    Items are scored by their marginal gain against the samples accumulated
    in earlier segments; segment lengths differ by at most one. Each segment
    takes only a strict improvement on its observed best (``_classical_pick``).
    So under a stationary entropy kernel, where every location has the same
    gain H(prior) against the empty set, the first segment ties throughout
    and picks nothing, the set stays empty, and so does every later segment:
    an entropy run picks nothing. A modular run gathers every weight first
    (a modular gain never depends on the set), so an index with no weight is
    refused wherever it sits.

    The guarantee of the segment rule assumes a uniformly random arrival
    order (Bateni, Hajiaghayi & Zadimoghaddam, *Submodular secretary problem
    and extensions*, APPROX 2010); a periodic stream does not arrive so.
    """
    rows = Rows.of(stream)
    n = len(rows)
    _check_capacity(k, n)
    if f.kind == "modular_sum":
        w = _weights_of(f.weights, rows.indices)
        score = w.tolist().__getitem__
        picks = [_classical_pick(range((j * n) // k, ((j + 1) * n) // k), score) for j in range(k)]
        picks = [p for p in picks if p is not None]
        chosen = _refuse_repeats(rows.indices[picks].tolist())
        trace = _running_sums(w[picks])[1:]
    else:
        ev = f.evaluator()
        _check_dim(rows.features, f.hyper, "stream")  # once: ev.gain, per arrival, does not check
        ev.conditioner.reserve(k)
        chosen, trace = [], []
        for j in range(k):
            segment = rows[(j * n) // k : ((j + 1) * n) // k]
            pick = _classical_pick(segment, ev.gain)
            if pick is not None:
                ev.accept(pick)
                chosen.append(pick.index)
                trace.append(ev.value)
    terminated = "filled_k" if len(chosen) == k else "end_of_stream"
    return SelectionResult(chosen=tuple(chosen), utility_trace=tuple(trace), terminated=terminated)


def scheduled_sampler(stream: Sequence[Observation], k: int) -> SelectionResult:
    """Evenly spaced sampling: positions floor(j*N/k) for j = 0..k-1."""
    indices = Rows.of(stream).indices
    n = len(indices)
    _check_capacity(k, n)
    chosen = tuple(indices[np.arange(k) * n // k].tolist())
    return SelectionResult(chosen=chosen, utility_trace=(), terminated="filled_k")


def random_sampler(stream: Sequence[Observation], k: int, seed: int) -> SelectionResult:
    """k positions drawn uniformly without replacement, returned in stream order."""
    indices = Rows.of(stream).indices
    n = len(indices)
    _check_capacity(k, n)
    positions = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
    chosen = tuple(indices[positions].tolist())
    return SelectionResult(chosen=chosen, utility_trace=(), terminated="filled_k")


def offline_greedy(
    ground: Sequence[Observation], f: UtilityFunction, k: int
) -> SelectionResult:
    """Iterative argmax-of-marginal-gain selection over a known ground set.

    Ties break to the lowest observation index. ``chosen`` is in selection
    order, which is generally not index order. Each step depends only on the
    steps before it, so a run at k is the first k steps of a run at any
    larger k, with the same utility trace up to there, bit for bit. Modular
    gains never change: a modular run sorts its weights once (``_top_k``).
    """
    rows = _by_index(ground)
    _check_capacity(k, len(rows), offline=True)
    if f.kind == "modular_sum":
        w = _weights_of(f.weights, rows.indices)
        picks = _top_k(w, k)
        chosen = _refuse_repeats(rows.indices[picks].tolist())
        trace = _running_sums(w[picks])[1:]
    else:
        ev = f.evaluator()
        cond = ev.conditioner
        cond.reserve(k, len(rows))
        if len(rows):
            cond.track(rows.features)
        taken = np.zeros(len(rows), dtype=bool)
        chosen, trace = [], []
        for _ in range(k):
            gains = np.where(taken, -np.inf, _entropy_of(cond.tracked_variances()))
            pos = int(np.argmax(gains))  # first max = lowest index
            taken[pos] = True
            pick = rows[pos]
            ev.accept(pick, pos)
            chosen.append(pick.index)
            trace.append(ev.value)
    return SelectionResult(chosen=tuple(chosen), utility_trace=tuple(trace), terminated="filled_k")


def exhaustive_optimum(
    ground: Sequence[Observation], f: UtilityFunction, k: int
) -> SelectionResult:
    """Return the utility maximizer over every k-subset, in index order.

    Among ties the lexicographically smallest index set wins. Instances with
    more than ``EXACT_MAX_SUBSETS`` subsets are refused outright.

    A modular utility is judged on the exact sums of its weights, so no
    subset is enumerated: one stable sort takes the k largest weights, ties
    to the lower index (``_top_k``). A k-set has the largest exact sum only
    if it holds every weight above the k-th largest w_(k) and the rest equal
    to w_(k), and the lowest-index choice among those is the
    lexicographically first.
    """
    rows = _by_index(ground)
    n = len(rows)
    _check_capacity(k, n, offline=True)
    if math.comb(n, k) > EXACT_MAX_SUBSETS:
        raise ValueError(
            f"C({n}, {k}) = {math.comb(n, k)} subsets exceeds the enumeration cap"
            f" {EXACT_MAX_SUBSETS}"
        )
    if f.kind == "modular_sum":
        best = rows[sorted(_top_k(_weights_of(f.weights, rows.indices), k))]
    else:  # k = 0 has one combination, the empty one, of value 0
        best, best_val = None, -math.inf
        for combo in combinations(range(n), k):
            subset = rows[combo]
            val = f.value(subset)
            if val > best_val:
                best, best_val = subset, val
    trace = utility_trace_for(f, best)
    return SelectionResult(
        chosen=tuple(best.indices.tolist()), utility_trace=trace, terminated="filled_k"
    )


def _by_index(ground: Sequence[Observation]) -> Rows:
    """The ground set as rows in index order; one stable sort, so equal
    indices keep their order."""
    rows = Rows.of(ground)
    return rows[np.argsort(rows.indices, kind="stable")]


def _top_k(w: np.ndarray, k: int) -> list[int]:
    """Positions of the k largest of ``w``, largest first; one stable sort,
    so equal weights (0.0 and -0.0 among them) keep position order."""
    return sorted(range(len(w)), key=w.tolist().__getitem__, reverse=True)[:k]


def utility_trace_for(f: UtilityFunction, observations: Sequence[Observation]) -> tuple[float, ...]:
    """Cumulative utility after each prefix of an ordered sample sequence.

    An entropy trace is one cumulative sum of the sequence's chain-rule
    entropies, all read off one Cholesky factor; it agrees with the
    trace of accepting the observations one at a time to roundoff. A
    modular trace is the running sum of the weights, gathered in one go
    and added in order from 0.0, so it has the bits of accepting them one
    at a time. Either way a repeated index is refused; under a modular
    utility an index with no weight is refused first, wherever it sits.
    """
    rows = Rows.of(observations)
    if f.kind != "entropy":
        w = _weights_of(f.weights, rows.indices)
        _refuse_repeats(rows.indices.tolist())
        return tuple(_running_sums(w)[1:])
    _refuse_repeats(rows.indices.tolist())
    if not len(rows):
        return ()
    entropies = _entropy_of(_chain_variances(rows.features, f.hyper))
    return tuple(np.cumsum(entropies).tolist())


def write_selection_csv(result: SelectionResult, path: "str | Path") -> None:
    """Serialize a selection as CSV: step, stream_index, utility_after, threshold."""
    n = len(result.chosen)
    blank = [""] * n  # a selector that keeps no trace
    cols = [range(1, n + 1), result.chosen, result.utility_trace or blank, result.threshold_trace or blank]
    write_columns(path, ["step", "stream_index", "utility_after", "threshold"], cols)
