"""Set utility functions over observation samples.

Two kinds are provided: the GP entropy criterion (joint differential
entropy of the selected locations, computed by the chain rule through
``GPConditioner``) and a modular weighted sum. Both share the convention
f(empty set) = 0 so marginal gains telescope cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .gp import GPConditioner, GPHyperparams, _check_dim, _clamped, _entropy_of, _noisy_cholesky
from .stream import Observation, Rows

__all__ = [
    "UtilityFunction",
    "UtilityEvaluator",
    "entropy_criterion",
]


def _weights_of(weights: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The modular weights at an index array, as one gather; an index with no
    weight is refused, wherever it sits."""
    try:
        return weights[indices]
    except IndexError:  # indices are non-negative: one lies past the weights
        past = indices[indices >= weights.shape[0]]
        raise ValueError(f"no weight for observation index {past[0]}") from None


def _running_sums(gains: np.ndarray) -> list[float]:
    """0.0 and the sum after each of ``gains``, added one at a time from 0.0:
    the utility before and after each acceptance of a modular run, down to
    the sign of a zero."""
    return list(accumulate(gains.tolist(), initial=0.0))


def _chain_variances(points: np.ndarray, hyper: GPHyperparams) -> np.ndarray:
    """Conditional variance of each of the (n, d) locations given the ones
    before it, in row order: the chain-rule variances of the set.

    They are the squared pivots of one Cholesky factor of the noisy Gram
    matrix, clamped as ``GPConditioner.extend`` clamps, and agree with the
    variances that ``extend`` returns to roundoff. Where that factor needs
    jitter (at zero noise, an exact duplicate), they are ``extend``'s, one
    point at a time, so both paths give such a duplicate ``VARIANCE_FLOOR``.
    """
    L, level = _noisy_cholesky(_check_dim(points, hyper, "X") / hyper.lengthscales, hyper)
    if level:
        cond = GPConditioner(hyper)
        cond.reserve(len(points))
        return np.array([cond.extend(x) for x in points])
    return _clamped(np.square(L.diagonal()), hyper.prior_variance)


def entropy_criterion(points: np.ndarray, hyper: GPHyperparams) -> float:
    """Joint differential entropy of a set of locations under the GP model.

    Computed by the chain rule: each point contributes the entropy of its
    conditional variance given the points before it (``_chain_variances``,
    read off one Cholesky factor), so the result is order-independent up to
    floating-point roundoff and equals 0.5 * log det(2 pi e K) for the noisy
    Gram matrix K wherever no jitter or clamp applies. The empty set
    evaluates to 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        return 0.0
    return float(_entropy_of(_chain_variances(points, hyper)).sum())


class UtilityEvaluator:
    """Running entropy utility of one selector run.

    Keeps f(A) of the set accepted so far (``value``) and answers one-off
    gain queries against it (``gain``, ``gains``); ``accept`` is
    irrevocable: re-adding an index raises. The set lives in the public
    ``conditioner``, a ``GPConditioner``, which selectors drive directly for
    capacity, tracked pools and the threshold rule. A modular utility has no
    evaluator: its gains are fixed weights, read directly.
    """

    def __init__(self, hyper: GPHyperparams):
        self._value = 0.0
        self._indices: set[int] = set()
        self.conditioner = GPConditioner(hyper)

    @property
    def value(self) -> float:
        return self._value

    def gain(self, obs: Observation) -> float:
        return self.conditioner.entropy(obs.features)

    def gains(self, observations: Sequence[Observation]) -> np.ndarray:
        rows = Rows.of(observations)
        if len(rows) == 0:
            return np.empty(0)
        return self.conditioner.entropies(rows.features)

    def accept(self, obs: Observation, pos: int | None = None) -> float:
        """Add obs to the set irrevocably; return the utility after. ``pos``,
        if given, is obs's position in the conditioner's tracked pool, where
        its variance is already kept."""
        if obs.index in self._indices:
            raise ValueError(f"observation {obs.index} is already in the sample set")
        self._value += float(_entropy_of(self.conditioner.extend(obs.features, pos)))
        self._indices.add(obs.index)
        return self._value


@dataclass(frozen=True)
class UtilityFunction:
    """A monotone set utility over observations, evaluated by kind.

    Use the factories: ``UtilityFunction.entropy(hyper)``,
    ``UtilityFunction.modular(weights)``. Modular weights must be a finite
    vector, weight i for observation index i: ``exhaustive_optimum`` ranks
    them with a sort, and a NaN has no rank.
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
            w = np.asarray(self.weights, dtype=float).view()  # the caller's array stays writeable
            if w.ndim != 1:
                raise ValueError(f"modular weights must be a vector, got shape {w.shape}")
            bad = np.flatnonzero(~np.isfinite(w))
            if bad.size:
                raise ValueError(f"modular weights must be finite; weight {bad[0]} is {w[bad[0]]}")
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
        rows = Rows.of(observations)
        if self.kind == "entropy":
            return entropy_criterion(rows.features, self.hyper)
        # Added in order from 0.0, as a modular selector's trace adds them: no compensated sum.
        return _running_sums(_weights_of(self.weights, rows.indices))[-1]

    __call__ = value

    def evaluator(self) -> UtilityEvaluator:
        """Fresh stateful entropy evaluator; one per selector run."""
        if self.kind != "entropy":
            raise ValueError("a modular utility has no evaluator: its gains are its weights")
        return UtilityEvaluator(self.hyper)

