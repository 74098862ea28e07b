"""Reference oracles that tests compare the library against.

None of these is part of a workflow: the one-pair SE kernel is the readable
transcription of what ``gp`` computes in batches, the batch-factored
conditioner gives the bits and jitter level of one factorisation of a whole
set, and the exhaustive submodularity checker enumerates all 2^n subsets of
a ground set, so it can check at most 12 elements, never a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from periodic_secretary import GPConditioner, GPHyperparams, Observation, UtilityFunction
from periodic_secretary.gp import _check_dim

SetFunction = Callable[[Sequence[Observation]], float]


def se_kernel(x: np.ndarray, x2: np.ndarray, hyper: GPHyperparams) -> float:
    """Squared-exponential covariance between two feature vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape or x.shape[0] != hyper.dim:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x2.shape} vs lengthscale dim {hyper.dim}")
    z = (x - x2) / hyper.lengthscales
    return hyper.signal_variance * math.exp(-0.5 * float(z @ z))


def batch_conditioner(X: np.ndarray, hyper: GPHyperparams) -> GPConditioner:
    """Conditioner on the rows of X, factored in one batch."""
    cond = GPConditioner(hyper)
    X = _check_dim(X, hyper, "conditioning set")
    m = X.shape[0]
    if m:
        cond.reserve(m)
        np.divide(X, hyper.lengthscales, out=cond._Sbuf[:m])
        cond._refactor(m, 0)
    return cond


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
