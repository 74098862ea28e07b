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

import numpy as np

from .kv import format_value, read_kv_file, write_kv_file

__all__ = [
    "GPHyperparams",
    "PosteriorPrediction",
    "FactorizationError",
    "GPConditioner",
    "se_kernel",
    "se_gram",
    "predict",
    "predict_many",
    "prefix_means",
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

# Diagonal jitter ladder tried before declaring a Gram matrix unfactorizable,
# as shares of the prior variance: level l adds _JITTER_LADDER[l] * prior.
_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)

# A squared pivot at or below this share of the prior variance is roundoff,
# not information (about 450 ulps, above the error of a dot product of a few
# hundred terms): both ``extend`` and the batch factorisation treat it as a
# breakdown and escalate jitter.
_PIVOT_RTOL = 1e-13


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
        ls = np.atleast_1d(np.array(self.lengthscales, dtype=float))  # a copy: the caller's stays writeable
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


def _se_scaled(
    A: np.ndarray, B: np.ndarray, signal_variance: float, out: np.ndarray | None = None
) -> np.ndarray:
    """SE covariances between the rows of A and the rows of B, or one point B.

    A and B are already divided by the lengthscales. An (m, d) B gives the
    (n, m) matrix; a (d,) point B gives the (n,) column, the kernel on the
    per-arrival path. Squared distances add the coordinates one at a time in
    order for both shapes, so a column of the matrix equals the one-point
    column bit for bit. ``out``, if given, receives the result, with the
    same bits.
    """
    At = A.T[:, :, None] if B.ndim == 2 else A.T
    Bt = B.T
    sq = np.subtract(At[0], Bt[0], out=out)
    np.square(sq, out=sq)
    for j in range(1, Bt.shape[0]):
        diff = At[j] - Bt[j]
        np.square(diff, out=diff)
        sq += diff
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= signal_variance
    return sq


def se_gram(X: np.ndarray, hyper: GPHyperparams) -> np.ndarray:
    """Noisy SE Gram matrix of X: noise_variance on the diagonal."""
    Xs = _check_dim(X, hyper, "X") / hyper.lengthscales
    return _se_scaled(Xs, Xs, hyper.signal_variance) + hyper.noise_variance * np.eye(len(Xs))


def _cholesky(K: np.ndarray, start_level: int = 0) -> tuple[np.ndarray, int]:
    """Lower Cholesky factor of K, escalating diagonal jitter until it succeeds.

    K's diagonal is the prior variance, so level l adds ``_JITTER_LADDER[l]``
    times the diagonal. A factor with a squared pivot at roundoff level
    (``_PIVOT_RTOL`` of K's diagonal) counts as a failure too: at zero noise
    an exactly singular Gram matrix can factor with such a pivot instead of
    raising.
    """
    diag = np.diagonal(K)
    floor = _PIVOT_RTOL * diag
    for level in range(start_level, len(_JITTER_LADDER)):
        try:
            L = np.linalg.cholesky(K + np.diag(_JITTER_LADDER[level] * diag))
        except np.linalg.LinAlgError:
            continue
        if np.all(np.square(np.diagonal(L)) > floor):
            return L, level
    raise FactorizationError(
        f"Gram matrix of {K.shape[0]} points is singular at maximum jitter"
        f" {_JITTER_LADDER[-1]:g} of the prior variance",
        condition_estimate=float(np.linalg.cond(K)),
    )


def _inverse_factor(L: np.ndarray) -> np.ndarray:
    """W = L^-1 of a lower Cholesky factor, kept lower-triangular."""
    return np.tril(np.linalg.inv(L))


def _with_capacity(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``buf`` if it holds ``shape``, else a larger zero-filled copy (doubling each short axis)."""
    if all(n <= c for n, c in zip(shape, buf.shape)):
        return buf
    grown = np.zeros(tuple(max(n, 2 * c) if n > c else c for n, c in zip(shape, buf.shape)))
    grown[tuple(slice(0, c) for c in buf.shape)] = buf
    return grown


class GPConditioner:
    """Incrementally factorized conditioning set with a tracked candidate pool.

    Owns W = L^-1, the inverse of the lower Cholesky factor L of the noisy
    Gram matrix over the accepted locations S. Every solve L^-1 K(S, Q) is
    then one product W K(S, Q), and evaluating one candidate costs O(m^2).
    Adding a point borders W with one row, so ``extend`` is O(m^2) too.

    It can also track a pool P of candidate locations (``track``/``untrack``):
    it keeps Z = W K(S, P) and the pool's conditional variances, and
    ``extend`` appends one row to Z and subtracts that row's square from the
    variances, so after each acceptance every tracked variance is current at
    O(m |P|) cost. Extending by the pool's largest-variance point is one step
    of pivoted Cholesky, which is greedy entropy maximisation (Krause, Singh &
    Guestrin, JMLR 2008). Posterior prediction (``predict_many``,
    ``prefix_means``) factors its training set through ``from_points`` too.
    A conditioner belongs to a single selector run; it is not thread-safe.
    """

    def __init__(self, hyper: GPHyperparams):
        self.hyper = hyper
        # Accepted locations / lengthscales, in a buffer with spare capacity
        # whose live (m, d) block is _S; _kbuf, as long, receives the
        # one-point kernel column K(S, x).
        self._Sbuf = np.empty((0, hyper.dim))
        self._S = self._Sbuf
        self._kbuf = np.empty(0)
        # W lives in a buffer with spare capacity; _W is its live (m, m) block
        # and everything above its diagonal is zero.
        self._Wbuf = np.zeros((0, 0))
        self._W = self._Wbuf
        self._level = 0  # current position in the jitter ladder
        # Tracked pool, in buffers with spare capacity: scaled locations
        # _Ps[:p], _Z[:m, :p] and unclamped variances _v[:p] are live.
        self._p = 0
        self._Ps = np.empty((0, hyper.dim))
        self._Z = np.empty((0, 0))
        self._v = np.empty(0)

    def __len__(self) -> int:
        return self._S.shape[0]

    @classmethod
    def from_points(cls, X: np.ndarray, hyper: GPHyperparams) -> "GPConditioner":
        """Conditioner on the rows of X, factored in one batch."""
        cond = cls(hyper)
        X = _check_dim(X, hyper, "conditioning set")
        m = X.shape[0]
        if m:
            cond.reserve(m)
            np.divide(X, hyper.lengthscales, out=cond._Sbuf[:m])
            cond._refactor(m, 0)
        return cond

    def reserve(self, m: int, p: int = 0) -> None:
        """Make room for m set points and p tracked points.

        A capacity hint from a caller that knows its sizes: buffers that
        already hold them are kept, shorter ones grow (to at least twice
        their size), and no result changes. ``extend`` and ``track`` call it
        for the sizes they reach.
        """
        n = len(self)
        if m > self._Sbuf.shape[0]:
            self._Sbuf = _with_capacity(self._Sbuf, (m, self.hyper.dim))
            self._S = self._Sbuf[:n]
            self._kbuf = np.empty(self._Sbuf.shape[0])
        if m > self._Wbuf.shape[0]:
            self._Wbuf = _with_capacity(self._Wbuf, (m, m))
            self._W = self._Wbuf[:n, :n]
        if p > self._v.shape[0] or (self._v.shape[0] and m > self._Z.shape[0]):
            # Z needs a row per set point only once the pool has room.
            self._Z = _with_capacity(self._Z, (m, p))
            self._Ps = _with_capacity(self._Ps, (p, self.hyper.dim))
            self._v = _with_capacity(self._v, (p,))

    def _refactor(self, m: int, start_level: int) -> None:
        """Make the first m buffered locations the set, factored afresh from
        ``start_level``, and rebuild the pool's Z. The buffers already hold m
        set points."""
        Xs = self._S = self._Sbuf[:m]
        K = _se_scaled(Xs, Xs, self.hyper.signal_variance)
        L, self._level = _cholesky(K + self.hyper.noise_variance * np.eye(m), start_level)
        self._Wbuf[:m, :m] = _inverse_factor(L)
        self._W = self._Wbuf[:m, :m]
        p = self._p
        if p:
            Z = self._Z[:m, :p]
            Z[...] = self._solve(self._Ps[:p])
            self._v[:p] = self.hyper.prior_variance - np.einsum("ij,ij->j", Z, Z)

    def _solve(self, Qs: np.ndarray) -> np.ndarray:
        """L^-1 K(S, Q) = W K(S, Q) for scaled query rows Qs."""
        return self._W @ _se_scaled(self._S, Qs, self.hyper.signal_variance)

    def conditional_variances(self, Q: np.ndarray) -> np.ndarray:
        """Noisy-observable conditional variance at each row of Q given the current set."""
        Q = _check_dim(Q, self.hyper, "query")
        prior = self.hyper.prior_variance
        Z = self._solve(Q / self.hyper.lengthscales)
        return np.clip(prior - np.einsum("ij,ij->j", Z, Z), VARIANCE_FLOOR, prior)

    def conditional_variance(self, x: np.ndarray) -> float:
        """Conditional variance at one (d,) float point x: the per-arrival path.

        One product W k and the arithmetic of ``track`` plus
        ``tracked_variances``, so the result equals the tracked variance of x
        bit for bit when x is tracked alone against the current set. In a
        larger pool ``einsum`` sums in another order, and after ``extend``
        tracked variances are updated, not recomputed, so there the two can
        differ in the last bits. A point whose shape is not (d,) raises
        ``ValueError``, after one shape comparison with the lengthscales.
        """
        hyper = self.hyper
        ls = hyper.lengthscales
        if x.shape != ls.shape:
            raise ValueError(f"query has dimension {x.size}, lengthscales have {hyper.dim}")
        prior = hyper.prior_variance
        S = self._S
        m = S.shape[0]
        if not m:
            return prior
        a = self._W @ _se_scaled(S, x / ls, hyper.signal_variance, out=self._kbuf[:m])
        v = float(prior - np.einsum("i,i->", a, a))
        return prior if v > prior else VARIANCE_FLOOR if v < VARIANCE_FLOOR else v

    def entropies(self, Q: np.ndarray) -> np.ndarray:
        """Differential entropy of the scalar prediction at each row of Q."""
        return GAUSSIAN_ENTROPY_CONST + 0.5 * np.log(self.conditional_variances(Q))

    def entropy(self, x: np.ndarray) -> float:
        """Differential entropy at one (d,) float point x, as ``conditional_variance``."""
        return float(GAUSSIAN_ENTROPY_CONST + 0.5 * np.log(self.conditional_variance(x)))

    def track(self, Q: np.ndarray) -> None:
        """Append the rows of Q to the tracked pool, after any already tracked."""
        Qs = _check_dim(Q, self.hyper, "pool") / self.hyper.lengthscales
        m, p, b = len(self), self._p, Qs.shape[0]
        self.reserve(m, p + b)
        self._Ps[p : p + b] = Qs
        Z = self._solve(Qs)
        self._Z[:m, p : p + b] = Z
        self._v[p : p + b] = self.hyper.prior_variance - np.einsum("ij,ij->j", Z, Z)
        self._p = p + b

    def untrack(self, n: int) -> None:
        """Drop the n most recently tracked pool points."""
        if not 0 <= n <= self._p:
            raise ValueError(f"cannot untrack {n} of {self._p} tracked points")
        self._p -= n

    def tracked_variances(self) -> np.ndarray:
        """Conditional variance of each tracked point given the current set, in pool order."""
        # np.minimum/np.maximum clamp as np.clip does at about half its call overhead.
        return np.minimum(np.maximum(self._v[: self._p], VARIANCE_FLOOR), self.hyper.prior_variance)

    # The scans below clamp one value rather than the pool: clamping is
    # monotone, so they answer as ``tracked_variances`` would.

    def tracked_variance(self, pos: int) -> float:
        """Conditional variance of the tracked point at pool position ``pos``."""
        return min(max(float(self._v[pos]), VARIANCE_FLOOR), self.hyper.prior_variance)

    def max_tracked_variance(self, stop: int) -> float:
        """Largest conditional variance among pool positions 0..stop-1 (stop >= 1)."""
        return min(max(float(self._v[:stop].max()), VARIANCE_FLOOR), self.hyper.prior_variance)

    def first_tracked_at_least(self, variance: float, start: int) -> int | None:
        """First pool position at or after ``start`` whose conditional variance is >= variance."""
        if start >= self._p or variance > self.hyper.prior_variance:
            return None
        if variance <= VARIANCE_FLOOR:
            return start
        hits = self._v[start : self._p] >= variance
        i = int(hits.argmax())
        return start + i if hits[i] else None

    def extend(self, x: np.ndarray, pos: int | None = None) -> float:
        """Add one location to the conditioning set, updating the factor and the pool.

        Returns the conditional variance of x given the set before the update,
        clamped like ``conditional_variances``: the squared Cholesky pivot
        less the jitter in force, so summing the entropies of these values
        gives the joint entropy by the chain rule.

        ``pos``, if given, is x's position in the tracked pool. Its column of
        Z and its variance are already current, so they stand in for the
        solve against the set: the step is one step of pivoted Cholesky on
        the pool. The result agrees with ``extend(x)`` to roundoff.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.hyper.dim,):
            raise ValueError(f"point dimension {x.shape[0]} != {self.hyper.dim}")
        xs = x / self.hyper.lengthscales
        m, p = len(self), self._p
        prior = self.hyper.prior_variance
        if pos is None:
            a = self._solve(xs)
            variance = prior - float(a @ a)
        else:
            a = self._Z[:m, pos]
            variance = float(self._v[pos])
        pivot_sq = variance + _JITTER_LADDER[self._level] * prior
        self.reserve(m + 1, p)
        self._Sbuf[m] = xs
        if pivot_sq <= _PIVOT_RTOL * prior:
            # Near-duplicate location defeated the border update; refactor the
            # whole set with more jitter.
            self._refactor(m + 1, self._level + 1)
        else:
            # L gains the row [a^T, pivot], so W = L^-1 gains [-a^T W, 1] / pivot.
            pivot = math.sqrt(pivot_sq)
            W = self._Wbuf
            border = W[m, :m]
            np.matmul(a, self._W, out=border)
            border /= -pivot
            W[m, m] = 1.0 / pivot
            self._W = W[: m + 1, : m + 1]
            if p:
                # Z gains the row (K(P, x) - a^T Z) / pivot, and each tracked
                # variance loses that row's square.
                k = _se_scaled(self._Ps[:p], xs, self.hyper.signal_variance)
                row = self._Z[m, :p]
                np.matmul(a, self._Z[:m, :p], out=row)
                np.subtract(k, row, out=row)
                row /= pivot
                self._v[:p] -= np.square(row, out=k)
            self._S = self._Sbuf[: m + 1]
        return min(max(variance, VARIANCE_FLOOR), prior)


def _training_data(
    train_x: np.ndarray, train_y: np.ndarray, hyper: GPHyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Checked training locations and values: dimension, count and finiteness."""
    train_x = _check_dim(train_x, hyper, "train_x")
    train_y = np.asarray(train_y, dtype=float).ravel()
    if train_y.shape[0] != train_x.shape[0]:
        raise ValueError(f"{train_x.shape[0]} training points but {train_y.shape[0]} values")
    if not (np.all(np.isfinite(train_x)) and np.all(np.isfinite(train_y))):
        raise ValueError("training data contain non-finite values")
    return train_x, train_y


def predict_many(
    train_x: np.ndarray, train_y: np.ndarray, query_x: np.ndarray, hyper: GPHyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and noisy-observable variances at each query row.

    The mean is Z^T w = K(Q, S) K^-1 y and the variance prior - |Z_j|^2.
    """
    train_x, train_y = _training_data(train_x, train_y, hyper)
    if train_x.shape[0] == 0:
        raise ValueError("predict requires a non-empty training set")
    cond = GPConditioner.from_points(train_x, hyper)
    Z = cond._solve(_check_dim(query_x, hyper, "query_x") / hyper.lengthscales)
    variances = np.clip(
        hyper.prior_variance - np.einsum("ij,ij->j", Z, Z), VARIANCE_FLOOR, hyper.prior_variance
    )
    return (cond._W @ train_y) @ Z, variances


def prefix_means(
    train_x: np.ndarray, train_y: np.ndarray, query_x: np.ndarray, hyper: GPHyperparams
) -> np.ndarray:
    """Posterior means at each query row after each prefix of the training set.

    Row m - 1 of the (n, |Q|) result holds the means when trained on the
    first m points. The inverse Cholesky factor W of a prefix's Gram matrix
    is the leading block of the full one, and likewise for Z = W K(S, Q) and
    w = W y (Rasmussen & Williams 2006, Alg. 2.1), so the mean after m
    points is Z[:m]^T w[:m] and the rows are one cumulative sum: one
    factorisation for the whole curve.

    Every prefix is therefore factored at the jitter level the full set
    needs. At ``noise_variance = 0`` that can be higher than the level
    ``predict_many`` picks for the prefix alone, and where the prefix's Gram
    matrix is near-singular (such as a near-duplicate location) the two
    answers can differ by O(1): both come from a near-singular system.
    Where the full set needs no jitter, the two agree to roundoff; the last
    row is ``predict_many``'s answer for the full set.
    """
    train_x, train_y = _training_data(train_x, train_y, hyper)
    Q = _check_dim(query_x, hyper, "query_x")
    if train_x.shape[0] == 0:
        return np.empty((0, Q.shape[0]))
    cond = GPConditioner.from_points(train_x, hyper)
    Z = cond._solve(Q / hyper.lengthscales)
    return np.cumsum(Z * (cond._W @ train_y)[:, None], axis=0)


def predict(
    train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray, hyper: GPHyperparams
) -> PosteriorPrediction:
    """Standard GP posterior at one query location."""
    means, variances = predict_many(train_x, train_y, np.atleast_2d(query), hyper)
    return PosteriorPrediction(mean=float(means[0]), variance=float(variances[0]))


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
