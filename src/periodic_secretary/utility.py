"""Set utility functions over observation samples.

Two kinds are provided: the GP entropy criterion (joint differential
entropy of the selected locations, computed by the chain rule through
``GPConditioner``) and a modular weighted sum. Both share the convention
f(empty set) = 0 so marginal gains telescope cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gp import GAUSSIAN_ENTROPY_CONST, GPConditioner, GPHyperparams, _check_dim
from .stream import Observation

__all__ = [
    "UtilityFunction",
    "UtilityEvaluator",
    "SubmodularityReport",
    "Counterexample",
    "entropy_criterion",
    "marginal_gain",
    "check_submodular_monotone",
]

SetFunction = Callable[[Sequence[Observation]], float]

# Relative guard band on the threshold variance of the entropy scan, far
# above the few ulps that exp and log can lose between gain and variance.
_GUARD_RTOL = 1e-9


def _features_of(observations: Sequence[Observation]) -> np.ndarray:
    if len(observations) == 0:
        return np.empty((0, 0))
    return np.array([o.features for o in observations], dtype=float)


def _entropy_of(variance):
    """Differential entropy of a scalar Gaussian with the given variance(s)."""
    return GAUSSIAN_ENTROPY_CONST + 0.5 * np.log(variance)


def _variance_of(entropy: float) -> float:
    """The variance whose differential entropy is ``entropy``: inverse of
    ``_entropy_of`` to the roundoff of exp, and inf past the float range."""
    try:
        return math.exp(2.0 * (entropy - GAUSSIAN_ENTROPY_CONST))
    except OverflowError:
        return math.inf


def entropy_criterion(points: np.ndarray, hyper: GPHyperparams) -> float:
    """Joint differential entropy of a set of locations under the GP model.

    Computed by the chain rule: each point contributes the entropy of its
    conditional variance given the points before it, which is the squared
    pivot of that point's Cholesky step, so the result is order-independent
    up to floating-point roundoff. The empty set evaluates to 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        return 0.0
    cond = GPConditioner(hyper)
    cond.reserve(len(points))
    return float(sum(_entropy_of(cond.extend(x)) for x in points))


class UtilityEvaluator:
    """Stateful marginal-gain accumulator for one selector run.

    Tracks the running utility value f(A) and answers gain queries against
    the current set, either for given observations (``gain``, ``gains``) or
    for a tracked pool of observations (``track``, ``untrack``,
    ``tracked_gains``) whose gains stay current as the set grows. ``accept``
    is irrevocable: re-adding an index raises.
    """

    def __init__(self) -> None:
        self._value = 0.0
        self._indices: set[int] = set()

    @property
    def value(self) -> float:
        return self._value

    def __len__(self) -> int:
        return len(self._indices)

    def check(self, observations: Sequence[Observation]) -> None:
        """Raise ValueError if the utility cannot evaluate these observations.

        Selectors check a stream once, where their evaluator first meets it;
        ``gain``, the per-arrival path, does not check. ``track`` checks what
        it tracks.
        """

    def reserve(self, k: int, pool: int = 0) -> None:
        """Make room for k accepted and ``pool`` tracked observations.

        A capacity hint from a selector that knows its sizes; it changes no
        result.
        """

    def gain(self, obs: Observation) -> float:
        raise NotImplementedError

    def meets(self, obs: Observation, threshold: float) -> bool:
        """Whether obs's marginal gain is at least threshold: the arrival test.

        The decision of ``gain(obs) >= threshold`` on the same bits; an
        evaluator may reach it without computing the gain.
        """
        return self.gain(obs) >= threshold

    def gains(self, observations: Sequence[Observation]) -> np.ndarray:
        raise NotImplementedError

    def track(self, observations: Sequence[Observation]) -> None:
        """Append observations to the tracked pool."""
        raise NotImplementedError

    def untrack(self, n: int) -> None:
        """Drop the n most recently tracked observations from the pool."""
        raise NotImplementedError

    def tracked_gains(self) -> np.ndarray:
        """Marginal gain of each tracked observation against the current set, in pool order."""
        raise NotImplementedError

    def max_tracked_gain(self, stop: int) -> float:
        """Largest tracked gain among pool positions 0..stop-1."""
        raise NotImplementedError

    def first_tracked_hit(self, threshold: float, start: int) -> int | None:
        """First pool position at or after ``start`` whose tracked gain is >= threshold."""
        raise NotImplementedError

    def accept(self, obs: Observation, pos: int | None = None) -> float:
        """Add obs to the set irrevocably; return the utility after.

        ``pos``, if given, is obs's position in the tracked pool, which an
        evaluator may use to add it without evaluating it afresh.
        """
        if obs.index in self._indices:
            raise ValueError(f"observation {obs.index} is already in the sample set")
        self._value += self._register(obs, pos)
        self._indices.add(obs.index)
        return self._value

    def _register(self, obs: Observation, pos: int | None) -> float:
        """Add obs to the set; return its marginal gain against the set before."""
        raise NotImplementedError


class _EntropyEvaluator(UtilityEvaluator):
    def __init__(self, hyper: GPHyperparams):
        super().__init__()
        self._cond = GPConditioner(hyper)

    def check(self, observations: Sequence[Observation]) -> None:
        if len(observations):
            _check_dim(_features_of(observations), self._cond.hyper, "stream")

    def reserve(self, k: int, pool: int = 0) -> None:
        self._cond.reserve(k, pool)

    def gain(self, obs: Observation) -> float:
        return self._cond.entropy(obs.features)

    # Entropy increases with variance, so the arrival test and both scans
    # compare variances with the threshold's variance. Points within a guard
    # band of it, wider than the roundoff of exp and log, are confirmed with
    # their exact gain, so every answer is the gain-space rule's on the same
    # bits; the scans take one log per answer rather than one per point.

    def meets(self, obs: Observation, threshold: float) -> bool:
        variance = self._cond.conditional_variance(obs.features)
        at = _variance_of(threshold)
        if variance < at * (1.0 - _GUARD_RTOL):
            return False
        if variance >= at * (1.0 + _GUARD_RTOL):
            return True
        return bool(_entropy_of(variance) >= threshold)

    def gains(self, observations: Sequence[Observation]) -> np.ndarray:
        if len(observations) == 0:
            return np.empty(0)
        return self._cond.entropies(_features_of(observations))

    def track(self, observations: Sequence[Observation]) -> None:
        if len(observations):
            self._cond.track(_features_of(observations))

    def untrack(self, n: int) -> None:
        self._cond.untrack(n)

    def tracked_gains(self) -> np.ndarray:
        return _entropy_of(self._cond.tracked_variances())

    def max_tracked_gain(self, stop: int) -> float:
        return float(_entropy_of(self._cond.max_tracked_variance(stop)))

    def first_tracked_hit(self, threshold: float, start: int) -> int | None:
        # Candidates have variances from the bottom of the guard band up; the
        # first whose own gain meets the threshold is the hit.
        cond = self._cond
        floor = _variance_of(threshold) * (1.0 - _GUARD_RTOL)
        pos = cond.first_tracked_at_least(floor, start)
        while pos is not None and _entropy_of(cond.tracked_variance(pos)) < threshold:
            pos = cond.first_tracked_at_least(floor, pos + 1)
        return pos

    def _register(self, obs: Observation, pos: int | None) -> float:
        return float(_entropy_of(self._cond.extend(obs.features, pos)))


class _ModularEvaluator(UtilityEvaluator):
    def __init__(self, weights: np.ndarray):
        super().__init__()
        self._w = weights
        self._pool = np.empty(0)

    def _weight(self, obs: Observation) -> float:
        if obs.index >= self._w.shape[0]:
            raise ValueError(f"no weight for observation index {obs.index}")
        return float(self._w[obs.index])

    def gain(self, obs: Observation) -> float:
        return self._weight(obs)

    def gains(self, observations: Sequence[Observation]) -> np.ndarray:
        return np.array([self._weight(o) for o in observations])

    def track(self, observations: Sequence[Observation]) -> None:
        self._pool = np.concatenate([self._pool, [self._weight(o) for o in observations]])

    def untrack(self, n: int) -> None:
        if not 0 <= n <= len(self._pool):
            raise ValueError(f"cannot untrack {n} of {len(self._pool)} tracked points")
        self._pool = self._pool[: len(self._pool) - n]

    def tracked_gains(self) -> np.ndarray:
        return self._pool.copy()

    def max_tracked_gain(self, stop: int) -> float:
        return float(self._pool[:stop].max())

    def first_tracked_hit(self, threshold: float, start: int) -> int | None:
        hits = np.flatnonzero(self._pool[start:] >= threshold)
        return start + int(hits[0]) if hits.size else None

    def _register(self, obs: Observation, pos: int | None) -> float:
        return self._weight(obs)


@dataclass(frozen=True)
class UtilityFunction:
    """A monotone set utility over observations, evaluated by kind.

    Use the factories: ``UtilityFunction.entropy(hyper)``,
    ``UtilityFunction.modular(weights)``.
    """

    kind: str
    hyper: GPHyperparams | None = None
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("entropy", "modular_sum"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "entropy" and self.hyper is None:
            raise ValueError("entropy utility requires GP hyperparameters")
        if self.kind == "modular_sum":
            if self.weights is None:
                raise ValueError("modular_sum utility requires per-index weights")
            w = np.asarray(self.weights, dtype=float).ravel()
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)

    @classmethod
    def entropy(cls, hyper: GPHyperparams) -> "UtilityFunction":
        return cls(kind="entropy", hyper=hyper)

    @classmethod
    def modular(cls, weights: np.ndarray) -> "UtilityFunction":
        return cls(kind="modular_sum", weights=weights)

    def value(self, observations: Sequence[Observation]) -> float:
        """f(A) for an explicit sample set."""
        if self.kind == "entropy":
            return entropy_criterion(_features_of(observations), self.hyper)
        return float(sum(self.weights[o.index] for o in observations))

    __call__ = value

    def evaluator(self) -> UtilityEvaluator:
        """Fresh stateful evaluator; one per selector run."""
        if self.kind == "entropy":
            return _EntropyEvaluator(self.hyper)
        return _ModularEvaluator(self.weights)


def marginal_gain(f: UtilityFunction, A: Sequence[Observation], x: Observation) -> float:
    """f(A + {x}) - f(A); rejects re-adding an index already in A."""
    if any(o.index == x.index for o in A):
        raise ValueError(f"observation {x.index} is already in the sample set")
    return f.value([*A, x]) - f.value(A)


@dataclass(frozen=True)
class Counterexample:
    """Witness of a diminishing-returns or monotonicity violation.

    Index tuples refer to observation indices; ``element`` is the added
    observation for a submodularity violation, None for monotonicity.
    """

    property_violated: str
    a_indices: tuple[int, ...]
    b_indices: tuple[int, ...]
    element: int | None = None


@dataclass(frozen=True)
class SubmodularityReport:
    submodular: bool
    monotone: bool
    witness: Counterexample | None


def check_submodular_monotone(
    f: "UtilityFunction | SetFunction",
    ground: Sequence[Observation],
    tol: float = 1e-8,
) -> SubmodularityReport:
    """Exhaustively test diminishing returns and monotonicity on a small ground set.

    Checks f(A + e) - f(A) >= f(B + e) - f(B) for every A subset of B and
    e outside B, and f(A) <= f(B) for every nested pair, both to ``tol``.
    The first violation found (in a fixed bitmask enumeration order) is
    returned as a witness; ground sets above 12 elements are refused.
    """
    n = len(ground)
    if n > 12:
        raise ValueError(f"ground set of {n} elements is too large for exhaustive checking (max 12)")
    fval: SetFunction = f.value if isinstance(f, UtilityFunction) else f

    vals = np.empty(1 << n)
    for mask in range(1 << n):
        subset = [ground[i] for i in range(n) if mask >> i & 1]
        vals[mask] = fval(subset)

    def indices(mask: int) -> tuple[int, ...]:
        return tuple(ground[i].index for i in range(n) if mask >> i & 1)

    submodular = True
    monotone = True
    sub_witness: Counterexample | None = None
    mono_witness: Counterexample | None = None
    for B in range(1 << n):
        outside = [e for e in range(n) if not (B >> e & 1)]
        A = B
        while True:
            if monotone and vals[A] > vals[B] + tol:
                monotone = False
                mono_witness = Counterexample("monotonicity", indices(A), indices(B))
            if submodular and A != B:
                for e in outside:
                    bit = 1 << e
                    if vals[A | bit] - vals[A] < vals[B | bit] - vals[B] - tol:
                        submodular = False
                        sub_witness = Counterexample(
                            "submodularity", indices(A), indices(B), ground[e].index
                        )
                        break
            if A == 0 or not (submodular or monotone):
                break
            A = (A - 1) & B
        if not (submodular or monotone):
            break
    return SubmodularityReport(
        submodular=submodular,
        monotone=monotone,
        witness=sub_witness if sub_witness is not None else mono_witness,
    )
