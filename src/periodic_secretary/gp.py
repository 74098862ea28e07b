"""Gaussian-process machinery for entropy-driven sample selection.

Everything here works on sample *locations* only, except posterior prediction
which also consumes observed values. Variances follow the noisy-observable
convention: the reported variance at a point is the latent conditional
variance plus the observation noise, so the prior variance is
signal_variance + noise_variance and entropies stay finite whenever
noise_variance > 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from .kv import format_value, read_kv_file, write_kv_file

__all__ = [
    "GPHyperparams",
    "PosteriorPrediction",
    "FactorizationError",
    "GPConditioner",
    "se_kernel",
    "se_cross_covariance",
    "se_gram",
    "conditional_variance",
    "differential_entropy",
    "predict",
    "predict_many",
    "log_marginal_likelihood",
    "fit_hyperparameters",
    "load_hyperparams",
    "save_hyperparams",
    "VARIANCE_FLOOR",
    "GAUSSIAN_ENTROPY_CONST",
]

# Conditional variances are clamped here before any log; keeps the entropy
# finite when a conditioning set nearly interpolates the query.
VARIANCE_FLOOR = 1e-12

# Differential entropy of a unit-variance scalar Gaussian: 0.5*ln(2*pi*e).
GAUSSIAN_ENTROPY_CONST = 0.5 * math.log(2 * math.pi * math.e)

# Diagonal jitter ladder tried before declaring a Gram matrix unfactorizable.
_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)


class FactorizationError(RuntimeError):
    """Gram matrix could not be Cholesky-factorized even with maximum jitter."""

    def __init__(self, msg: str, condition_estimate: float | None = None):
        if condition_estimate is not None:
            msg = f"{msg} (condition estimate {condition_estimate:.3e})"
        super().__init__(msg)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class GPHyperparams:
    """SE-kernel hyperparameters: per-dimension lengthscales, signal and noise variance."""

    lengthscales: np.ndarray
    signal_variance: float
    noise_variance: float

    def __post_init__(self) -> None:
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if ls.ndim != 1 or ls.size == 0:
            raise ValueError("lengthscales must be a non-empty vector")
        if not np.all(ls > 0):
            raise ValueError(f"lengthscales must be strictly positive, got {ls}")
        if not self.signal_variance > 0:
            raise ValueError(f"signal_variance must be strictly positive, got {self.signal_variance}")
        if self.noise_variance < 0:
            raise ValueError(f"noise_variance must be non-negative, got {self.noise_variance}")
        ls.flags.writeable = False
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "signal_variance", float(self.signal_variance))
        object.__setattr__(self, "noise_variance", float(self.noise_variance))

    @property
    def dim(self) -> int:
        return self.lengthscales.shape[0]

    @property
    def prior_variance(self) -> float:
        """Variance of the noisy observable before conditioning."""
        return self.signal_variance + self.noise_variance


@dataclass(frozen=True)
class PosteriorPrediction:
    """Posterior mean and (noisy-observable) variance at a query location."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")


def _check_dim(X: np.ndarray, hyper: GPHyperparams, what: str) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != hyper.dim:
        raise ValueError(f"{what} has dimension {X.shape[1]}, lengthscales have {hyper.dim}")
    return X


def se_kernel(x: np.ndarray, x2: np.ndarray, hyper: GPHyperparams) -> float:
    """Squared-exponential covariance between two feature vectors."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if x.shape != x2.shape or x.shape[0] != hyper.dim:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x2.shape} vs lengthscale dim {hyper.dim}")
    z = (x - x2) / hyper.lengthscales
    return hyper.signal_variance * math.exp(-0.5 * float(z @ z))


def se_cross_covariance(X: np.ndarray, Z: np.ndarray, hyper: GPHyperparams) -> np.ndarray:
    """(n, m) matrix of SE covariances between rows of X and rows of Z (no noise)."""
    X = _check_dim(X, hyper, "X")
    Z = _check_dim(Z, hyper, "Z")
    d2 = cdist(X / hyper.lengthscales, Z / hyper.lengthscales, "sqeuclidean")
    return hyper.signal_variance * np.exp(-0.5 * d2)


def se_gram(X: np.ndarray, hyper: GPHyperparams, noisy: bool = True) -> np.ndarray:
    """SE Gram matrix of X, with noise_variance on the diagonal when noisy."""
    K = se_cross_covariance(X, X, hyper)
    if noisy:
        K = K + hyper.noise_variance * np.eye(K.shape[0])
    return K


def _factor(X: np.ndarray, hyper: GPHyperparams, start_level: int = 0) -> tuple[np.ndarray, int]:
    """Cholesky of the noisy Gram matrix, escalating jitter until it succeeds."""
    K = se_gram(X, hyper)
    eye = np.eye(K.shape[0])
    for level in range(start_level, len(_JITTER_LADDER)):
        try:
            return np.linalg.cholesky(K + _JITTER_LADDER[level] * eye), level
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"Gram matrix of {K.shape[0]} points is singular at maximum jitter {_JITTER_LADDER[-1]:g}",
        condition_estimate=float(np.linalg.cond(K)),
    )


class GPConditioner:
    """Incrementally factorized conditioning set.

    Owns the Cholesky factor of the noisy Gram matrix over the accepted
    locations. Extending by one point and evaluating one candidate both cost
    O(m^2), which is what makes streaming entropy evaluation affordable.
    A conditioner belongs to a single selector run; it is not thread-safe.
    """

    def __init__(self, hyper: GPHyperparams):
        self.hyper = hyper
        self._X = np.empty((0, hyper.dim))
        self._L = np.empty((0, 0))
        self._level = 0  # current position in the jitter ladder

    def __len__(self) -> int:
        return self._X.shape[0]

    @property
    def points(self) -> np.ndarray:
        return self._X.copy()

    @classmethod
    def from_points(cls, X: np.ndarray, hyper: GPHyperparams) -> "GPConditioner":
        cond = cls(hyper)
        X = _check_dim(X, hyper, "conditioning set")
        if X.shape[0]:
            cond._L, cond._level = _factor(X, hyper)
            cond._X = X.copy()
        return cond

    def conditional_variances(self, Q: np.ndarray) -> np.ndarray:
        """Noisy-observable conditional variance at each row of Q given the current set."""
        Q = _check_dim(Q, self.hyper, "query")
        prior = self.hyper.prior_variance
        if len(self) == 0:
            return np.full(Q.shape[0], prior)
        B = se_cross_covariance(self._X, Q, self.hyper)
        Z = solve_triangular(self._L, B, lower=True, check_finite=False)
        v = prior - np.einsum("ij,ij->j", Z, Z)
        return np.clip(v, VARIANCE_FLOOR, prior)

    def conditional_variance(self, x: np.ndarray) -> float:
        return float(self.conditional_variances(np.atleast_2d(x))[0])

    def entropies(self, Q: np.ndarray) -> np.ndarray:
        """Differential entropy of the scalar prediction at each row of Q."""
        return GAUSSIAN_ENTROPY_CONST + 0.5 * np.log(self.conditional_variances(Q))

    def entropy(self, x: np.ndarray) -> float:
        return float(self.entropies(np.atleast_2d(x))[0])

    def extend(self, x: np.ndarray) -> None:
        """Add one location to the conditioning set, updating the factor in place."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] != self.hyper.dim:
            raise ValueError(f"point dimension {x.shape[0]} != {self.hyper.dim}")
        m = len(self)
        diag = self.hyper.prior_variance + _JITTER_LADDER[self._level]
        if m == 0:
            self._L = np.array([[math.sqrt(diag)]])
            self._X = x[None, :].copy()
            return
        b = se_cross_covariance(self._X, x[None, :], self.hyper)[:, 0]
        a = solve_triangular(self._L, b, lower=True, check_finite=False)
        pivot_sq = diag - float(a @ a)
        if pivot_sq <= 0:
            # Near-duplicate location defeated the border update; refactor the
            # whole set with more jitter.
            X_new = np.vstack([self._X, x[None, :]])
            self._L, self._level = _factor(X_new, self.hyper, start_level=self._level + 1)
            self._X = X_new
            return
        grown = np.zeros((m + 1, m + 1))
        grown[:m, :m] = self._L
        grown[m, :m] = a
        grown[m, m] = math.sqrt(pivot_sq)
        self._L = grown
        self._X = np.vstack([self._X, x[None, :]])


def conditional_variance(
    x: np.ndarray, conditioning: "np.ndarray | Sequence[np.ndarray]", hyper: GPHyperparams
) -> float:
    """Noisy-observable variance at x after conditioning on the given locations.

    Uses only locations, never qoi values. An empty conditioning set returns
    the prior variance; results are clamped to [VARIANCE_FLOOR, prior].
    """
    conditioning = np.asarray(conditioning, dtype=float)
    if conditioning.size == 0:
        return hyper.prior_variance
    cond = GPConditioner.from_points(np.atleast_2d(conditioning), hyper)
    return cond.conditional_variance(x)


def differential_entropy(
    x: np.ndarray, conditioning: "np.ndarray | Sequence[np.ndarray]", hyper: GPHyperparams
) -> float:
    """Differential entropy of the scalar prediction at x given the conditioning set."""
    return GAUSSIAN_ENTROPY_CONST + 0.5 * math.log(conditional_variance(x, conditioning, hyper))


def predict_many(
    train_x: np.ndarray, train_y: np.ndarray, query_x: np.ndarray, hyper: GPHyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and noisy-observable variances at each query row."""
    train_x = _check_dim(train_x, hyper, "train_x")
    train_y = np.asarray(train_y, dtype=float).ravel()
    if train_x.shape[0] == 0:
        raise ValueError("predict requires a non-empty training set")
    if train_y.shape[0] != train_x.shape[0]:
        raise ValueError(f"{train_x.shape[0]} training points but {train_y.shape[0]} values")
    if not (np.all(np.isfinite(train_x)) and np.all(np.isfinite(train_y))):
        raise ValueError("training data contain non-finite values")
    Q = _check_dim(query_x, hyper, "query_x")
    L, _ = _factor(train_x, hyper)
    Ks = se_cross_covariance(train_x, Q, hyper)
    alpha = solve_triangular(
        L.T, solve_triangular(L, train_y, lower=True, check_finite=False),
        lower=False, check_finite=False,
    )
    means = Ks.T @ alpha
    Z = solve_triangular(L, Ks, lower=True, check_finite=False)
    variances = np.clip(
        hyper.prior_variance - np.einsum("ij,ij->j", Z, Z), VARIANCE_FLOOR, hyper.prior_variance
    )
    return means, variances


def predict(
    train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray, hyper: GPHyperparams
) -> PosteriorPrediction:
    """Standard GP posterior at one query location."""
    means, variances = predict_many(train_x, train_y, np.atleast_2d(query), hyper)
    return PosteriorPrediction(mean=float(means[0]), variance=float(variances[0]))


def log_marginal_likelihood(train_x: np.ndarray, train_y: np.ndarray, hyper: GPHyperparams) -> float:
    """Exact GP log marginal likelihood of the training values."""
    train_x = _check_dim(train_x, hyper, "train_x")
    train_y = np.asarray(train_y, dtype=float).ravel()
    L, _ = _factor(train_x, hyper)
    z = solve_triangular(L, train_y, lower=True, check_finite=False)
    n = train_y.shape[0]
    return float(-0.5 * (z @ z) - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2 * math.pi))


def fit_hyperparameters(
    train_x: np.ndarray, train_y: np.ndarray, grid: Sequence[GPHyperparams]
) -> GPHyperparams:
    """Pick the grid candidate with the highest exact log marginal likelihood.

    Ties break to the first occurrence; candidates whose Gram matrix cannot
    be factorized are skipped, and it is an error for all of them to fail.
    """
    if len(grid) == 0:
        raise ValueError("hyperparameter grid is empty")
    train_y = np.asarray(train_y, dtype=float).ravel()
    if train_y.shape[0] < 2:
        raise ValueError("hyperparameter fitting needs at least 2 training points")
    best: GPHyperparams | None = None
    best_lml = -math.inf
    failures: list[str] = []
    for cand in grid:
        try:
            lml = log_marginal_likelihood(train_x, train_y, cand)
        except FactorizationError as exc:
            failures.append(str(exc))
            continue
        if lml > best_lml:
            best, best_lml = cand, lml
    if best is None:
        raise FactorizationError(
            f"all {len(grid)} hyperparameter candidates failed factorization: {failures[-1]}"
        )
    return best


def save_hyperparams(hyper: GPHyperparams, path: "str | Path") -> None:
    """Write hyperparameters as a key-value config file (12 significant digits)."""
    write_kv_file(
        {
            "lengthscales": ", ".join(format_value(v) for v in hyper.lengthscales),
            "signal_variance": hyper.signal_variance,
            "noise_variance": hyper.noise_variance,
        },
        path,
    )


def load_hyperparams(path: "str | Path") -> GPHyperparams:
    """Read hyperparameters from a key-value config file."""
    entries = read_kv_file(path)
    missing = {"lengthscales", "signal_variance", "noise_variance"} - entries.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    ls = [float(v) for v in re.split(r"[,\s]+", entries["lengthscales"]) if v]
    return GPHyperparams(
        lengthscales=np.array(ls),
        signal_variance=float(entries["signal_variance"]),
        noise_variance=float(entries["noise_variance"]),
    )
