"""Gaussian-process machinery for entropy-driven sample selection.

Everything here works on sample *locations* only, except posterior prediction
which also consumes observed values. Variances follow the noisy-observable
convention: the reported variance at a point is the latent conditional
variance plus the observation noise, so the prior variance is
signal_variance + noise_variance and entropies stay finite whenever
noise_variance > 0.

The entropy threshold rule is decided here in variance space: ``GPConditioner``
compares tracked and one-point variances with ``_variance_band``, the guard
band around a threshold's variance, and ``_candidate_meets`` decides each
variance at or above the band's lower edge.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

try:
    # The C routine that np.einsum calls, without its Python wrapper: the
    # one-point variance sums |a|^2 with np.einsum("i,i->")'s bits.
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy < 2.0
    from numpy.core.multiarray import c_einsum as _c_einsum

from .kv import parse_float_list, read_kv_file

__all__ = [
    "GPHyperparams",
    "FactorizationError",
    "GPConditioner",
    "se_gram",
    "predict_many",
    "prefix_means",
    "load_hyperparams",
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

# Relative guard band on the threshold variance of the entropy rule, far
# above the few ulps that exp and log can lose between gain and variance.
_GUARD_RTOL = 1e-9


def _entropy_of(variance):
    """Differential entropy of a scalar Gaussian with the given variance(s)."""
    return GAUSSIAN_ENTROPY_CONST + 0.5 * np.log(variance)


def _variance_band(threshold: float) -> tuple[float, float]:
    """The guard band (lo, hi) around the variance whose entropy is ``threshold``
    (inverse of ``_entropy_of`` to the roundoff of exp, and inf past the
    float range).

    Entropy increases with variance, so a variance below lo has a gain
    below the threshold and one at or above hi meets it; one inside the
    band, wider than the roundoff of exp and log, is decided by its exact
    gain, so every answer is the gain-space rule's on the same bits. A
    lower edge at or below ``VARIANCE_FLOOR`` is -inf: every clamped
    variance meets it.
    """
    try:
        at = math.exp(2.0 * (threshold - GAUSSIAN_ENTROPY_CONST))
    except OverflowError:
        at = math.inf
    lo, hi = at * (1.0 - _GUARD_RTOL), at * (1.0 + _GUARD_RTOL)
    return (-math.inf if lo <= VARIANCE_FLOOR else lo), hi


def _candidate_meets(variance: float, hi: float, threshold: float, prior: float) -> bool:
    """Whether a variance at or above its band's lower edge meets ``threshold``:
    clamped, at or above the upper edge ``hi``, or inside the band by its exact gain."""
    variance = min(max(variance, VARIANCE_FLOOR), prior)
    return bool(variance >= hi or _entropy_of(variance) >= threshold)


def _clamped(variances: np.ndarray, prior: float) -> np.ndarray:
    """Variances clamped to [VARIANCE_FLOOR, prior]: np.clip's bits at about
    half its call overhead."""
    return np.minimum(np.maximum(variances, VARIANCE_FLOOR), prior)


def _residual(Z: np.ndarray, prior: float) -> np.ndarray:
    """prior - |Z_j|^2 for each column of Z = W K(S, Q): the unclamped
    conditional variance of each query given the set."""
    return prior - np.einsum("ij,ij->j", Z, Z)


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
        if not self.noise_variance >= 0:
            raise ValueError(f"noise_variance must be non-negative, got {self.noise_variance}")
        # An inf would give inf entropies or a constant kernel, not an error.
        for name, value in (("lengthscales", ls), ("signal_variance", self.signal_variance),
                            ("noise_variance", self.noise_variance)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
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


def _check_dim(X: np.ndarray, hyper: GPHyperparams, what: str) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[-1] != hyper.dim:
        raise ValueError(f"{what} has dimension {X.shape[-1]}, lengthscales have {hyper.dim}")
    return X


def _se_scaled(A: np.ndarray, B: np.ndarray, signal_variance: float) -> np.ndarray:
    """SE covariances between the rows of A and the rows of B.

    A and B are already divided by the lengthscales. An (..., n, d) A and an
    (..., m, d) B give the (..., n, m) matrices, over leading axes that
    broadcast. Squared distances add the coordinates one at a time in order
    for every shape, so a column of a matrix equals ``_se_point``'s one-point
    column, and a slice of a stack equals its 2-D matrix, bit for bit.
    """
    # Coordinate axis first: At[j] - Bt[j] is the j-th coordinate's difference.
    At = A.transpose(-1, *range(A.ndim - 1))[..., None]
    Bt = B.transpose(-1, *range(B.ndim - 1))[..., None, :]
    sq = At[0] - Bt[0]
    np.square(sq, out=sq)
    for j in range(1, Bt.shape[0]):
        diff = At[j] - Bt[j]
        np.square(diff, out=diff)
        sq += diff
    return _se_of_sq(sq, signal_variance)


def _se_point(
    A: np.ndarray, b: np.ndarray, signal_variance: float, out: np.ndarray | None
) -> np.ndarray:
    """SE covariances between the (n, d) rows of A and one (d,) point b, both
    already divided by the lengthscales: the kernel column of the per-arrival
    path, in ``out`` (a new array if None).

    The ufuncs of ``_se_scaled``'s matrices, one coordinate at a time in
    order, so the column has a matrix column's bits; they run in place with
    positional ``out`` arguments, the cheapest numpy dispatch per call.
    """
    sq = np.subtract(A[:, 0], b[0], out)
    np.square(sq, sq)
    for j in range(1, b.shape[0]):
        diff = np.subtract(A[:, j], b[j])
        np.square(diff, diff)
        np.add(sq, diff, sq)
    return _se_of_sq(sq, signal_variance)


# A 0-d array multiplies without converting a Python float on every call.
_MINUS_HALF = np.array(-0.5)
_MINUS_HALF.flags.writeable = False


def _se_of_sq(sq: np.ndarray, signal_variance: float) -> np.ndarray:
    """signal_variance * exp(-sq / 2), in place in the squared distances sq.

    Multiplying by 1.0 is exact, so a unit signal variance skips it.
    """
    np.multiply(sq, _MINUS_HALF, sq)
    np.exp(sq, sq)
    if signal_variance != 1.0:
        np.multiply(sq, signal_variance, sq)
    return sq


def se_gram(X: np.ndarray, hyper: GPHyperparams) -> np.ndarray:
    """Noisy SE Gram matrix of X: noise_variance on the diagonal."""
    Xs = _check_dim(X, hyper, "X") / hyper.lengthscales
    return _se_scaled(Xs, Xs, hyper.signal_variance) + hyper.noise_variance * np.eye(len(Xs))


def _jittered(K: np.ndarray, diag: np.ndarray, level: int) -> np.ndarray:
    """K with jitter level ``level`` added to its diagonal ``diag``; K itself at level 0."""
    if level == 0:
        return K
    K = K.copy()
    np.einsum("...ii->...i", K)[...] += _JITTER_LADDER[level] * diag
    return K


def _cholesky(K: np.ndarray, start_level: int = 0) -> tuple[np.ndarray, "int | np.ndarray"]:
    """Lower Cholesky factor of K, escalating diagonal jitter until it succeeds.

    K's diagonal is the prior variance, so level l adds ``_JITTER_LADDER[l]``
    times the diagonal. A factor with a squared pivot at roundoff level
    (``_PIVOT_RTOL`` of K's diagonal) counts as a failure too: at zero noise
    an exactly singular Gram matrix can factor with such a pivot instead of
    raising.

    A stack K of shape (g, n, n) is factored in one call at ``start_level``;
    only the slices that fail escalate, each on its own (all of them when
    the stacked call raises, as it does not say which slice failed). Each
    slice gets the factor and level it gets alone, bit for bit, and the
    levels come back as a (g,) array.
    """
    diag = K.diagonal(0, -2, -1)
    floor = _PIVOT_RTOL * diag
    if K.ndim == 3:
        levels = np.full(K.shape[0], start_level)
        try:
            L = np.linalg.cholesky(_jittered(K, diag, start_level))
            failed = ~(np.square(L.diagonal(0, 1, 2)) > floor).all(axis=1)
        except np.linalg.LinAlgError:
            L, failed = np.empty_like(K), np.ones(K.shape[0], dtype=bool)
        for i in np.flatnonzero(failed):
            L[i], levels[i] = _cholesky(K[i], start_level)
        return L, levels
    for level in range(start_level, len(_JITTER_LADDER)):
        try:
            L = np.linalg.cholesky(_jittered(K, diag, level))
        except np.linalg.LinAlgError:
            continue
        if (np.square(L.diagonal()) > floor).all():
            return L, level
    raise FactorizationError(
        f"Gram matrix of {K.shape[0]} points is singular at maximum jitter"
        f" {_JITTER_LADDER[-1]:g} of the prior variance",
        condition_estimate=float(np.linalg.cond(K)),
    )


def _factor(
    Xs: np.ndarray, hyper: GPHyperparams, start_level: int = 0
) -> tuple[np.ndarray, "int | np.ndarray"]:
    """The one batch factorisation: W = L^-1 (kept lower-triangular) for the
    lower Cholesky factor L of the noisy Gram matrix of the scaled rows Xs,
    an (m, d) set or a (g, m, d) stack, and the jitter level."""
    K = _se_scaled(Xs, Xs, hyper.signal_variance)
    np.einsum("...ii->...i", K)[...] += hyper.noise_variance  # K's diagonal, in place
    L, level = _cholesky(K, start_level)
    return np.tril(np.linalg.inv(L)), level


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
    Guestrin, JMLR 2008). The periodic secretary's threshold rule reads the
    tracked variances (``max_tracked_gain``, ``first_tracked_hit``) or a
    point's own (``arrival_test``). Posterior prediction (``predict_many``,
    ``prefix_means``) reads the same batch factor, ``_factor``, with no
    conditioner. A conditioner belongs to a single run; it is not thread-safe.
    """

    def __init__(self, hyper: GPHyperparams):
        self.hyper = hyper
        # The hyperparameters the per-arrival path reads, looked up once.
        self._ls = hyper.lengthscales
        self._signal = hyper.signal_variance
        self._prior = hyper.prior_variance
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
        # _Ps[:p], _Z[:m, :p] and unclamped variances _v[:p] are live; _kp,
        # as long, receives the pool's kernel column K(P, x) in ``extend``.
        self._p = 0
        self._Ps = np.empty((0, hyper.dim))
        self._Z = np.empty((0, 0))
        self._v = np.empty(0)
        self._kp = np.empty(0)

    def __len__(self) -> int:
        return self._S.shape[0]

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
            self._kp = np.empty(self._v.shape[0])

    def _refactor(self, m: int, start_level: int) -> None:
        """Make the first m buffered locations the set, factored afresh from
        ``start_level``, and rebuild the pool's Z. The buffers already hold m
        set points."""
        Xs = self._S = self._Sbuf[:m]
        W, self._level = _factor(Xs, self.hyper, start_level)
        self._Wbuf[:m, :m] = W
        self._W = self._Wbuf[:m, :m]
        p = self._p
        if p:
            Z = self._Z[:m, :p]
            Z[...] = self._solve(self._Ps[:p])
            self._v[:p] = _residual(Z, self._prior)

    def _solve(self, Qs: np.ndarray) -> np.ndarray:
        """L^-1 K(S, Q) = W K(S, Q) for scaled query rows Qs."""
        return self._W @ _se_scaled(self._S, Qs, self.hyper.signal_variance)

    def conditional_variances(self, Q: np.ndarray) -> np.ndarray:
        """Noisy-observable conditional variance at each row of Q given the current set."""
        Z = self._solve(_check_dim(Q, self.hyper, "query") / self._ls)
        return _clamped(_residual(Z, self._prior), self._prior)

    def conditional_variance(self, x: np.ndarray) -> float:
        """Conditional variance at one (d,) float point x: the per-arrival path.

        prior - |a|^2 for a = W k(S, x), with the kernel column from
        ``_se_point`` written into a buffer the conditioner keeps and |a|^2
        summed as ``np.einsum("i,i->")`` sums it (``_c_einsum``). This is
        the arithmetic of ``track`` plus ``tracked_variances``, so the result
        equals the tracked variance of x bit for bit when x is tracked alone
        against the current set, and the batched ``conditional_variances``
        of x alone. In a larger pool ``einsum`` sums in another order, and
        after ``extend`` tracked variances are updated, not recomputed, so
        there the two can differ in the last bits. Each call reads the set
        and its factor afresh. A point whose shape is not (d,) raises
        ``ValueError``, after one shape comparison with the lengthscales.
        """
        ls = self._ls
        if x.shape != ls.shape:
            raise ValueError(f"query has dimension {x.size}, lengthscales have {ls.size}")
        prior = self._prior
        S = self._S
        m = S.shape[0]
        if not m:
            return prior
        a = self._W @ _se_point(S, x / ls, self._signal, self._kbuf[:m])
        v = prior - float(_c_einsum("i,i->", a, a))
        return prior if v > prior else VARIANCE_FLOOR if v < VARIANCE_FLOOR else v

    def entropies(self, Q: np.ndarray) -> np.ndarray:
        """Differential entropy of the scalar prediction at each row of Q."""
        return _entropy_of(self.conditional_variances(Q))

    def entropy(self, x: np.ndarray) -> float:
        """Differential entropy at one (d,) float point x, as ``conditional_variance``."""
        return float(_entropy_of(self.conditional_variance(x)))

    def track(self, Q: np.ndarray) -> None:
        """Append the rows of Q to the tracked pool, after any already tracked."""
        Qs = _check_dim(Q, self.hyper, "pool") / self.hyper.lengthscales
        m, p, b = len(self), self._p, Qs.shape[0]
        self.reserve(m, p + b)
        self._Ps[p : p + b] = Qs
        Z = self._solve(Qs)
        self._Z[:m, p : p + b] = Z
        self._v[p : p + b] = _residual(Z, self._prior)
        self._p = p + b

    def untrack(self, n: int) -> None:
        """Drop the n most recently tracked pool points."""
        if not 0 <= n <= self._p:
            raise ValueError(f"cannot untrack {n} of {self._p} tracked points")
        self._p -= n

    def tracked_variances(self) -> np.ndarray:
        """Conditional variance of each tracked point given the current set, in pool order."""
        return _clamped(self._v[: self._p], self._prior)

    def max_tracked_gain(self, stop: int) -> float:
        """The largest tracked gain among pool positions 0..stop-1: the log of
        their largest variance, clamped (clamp and log are monotone), found by
        ``argmax`` at under half the call cost of ``max``."""
        v = self._v
        return float(_entropy_of(min(max(v.item(v[:stop].argmax()), VARIANCE_FLOOR), self._prior)))

    def first_tracked_hit(self, threshold: float, start: int) -> int | None:
        """First pool position at or after ``start`` whose tracked gain is at
        least ``threshold``, or None.

        Each raw tracked variance is compared with the lower edge of the
        threshold's guard band (``_variance_band``, one exp per call); clamping
        is monotone, so only a candidate is clamped and decided
        (``_candidate_meets``), with the gain-space rule's answer."""
        lo, hi = _variance_band(threshold)
        v = self._v
        for pos in range(start, self._p):
            variance = v.item(pos)
            if variance >= lo and _candidate_meets(variance, hi, threshold, self._prior):
                return pos
        return None

    def arrival_test(self, threshold: float) -> Callable[[np.ndarray], bool]:
        """The per-arrival decision for one threshold: a callable that says,
        as ``entropy(x) >= threshold`` on the same bits, whether a (d,) point
        meets ``threshold`` given the set as it is when called, so only a new
        threshold needs a new test. The one-point variance is compared with
        the lower edge of the threshold's guard band, taken once, and only a
        candidate is decided (``_candidate_meets``)."""
        lo, hi = _variance_band(threshold)
        conditional_variance, prior = self.conditional_variance, self._prior

        def test(x: np.ndarray) -> bool:
            variance = conditional_variance(x)
            return variance >= lo and _candidate_meets(variance, hi, threshold, prior)

        return test

    def extend(self, x: np.ndarray, pos: int | None = None) -> float:
        """Add one location to the conditioning set, updating the factor and the pool.

        Returns the conditional variance of x given the set before the update,
        clamped like ``conditional_variances``: the squared Cholesky pivot
        less the jitter in force, so summing the entropies of these values
        gives the joint entropy by the chain rule. Without ``pos`` it is
        ``conditional_variance(x)`` bit for bit: the same einsum sums |a|^2.

        ``pos``, if given, is the pool position where x is tracked: x's
        scaled row, column of Z and variance there are current, so they
        stand in for converting x and solving against the set, and the step
        is one step of pivoted Cholesky on the pool. The result agrees with
        ``extend(x)`` to roundoff. A ``pos`` outside the live pool raises
        ``ValueError``.
        """
        m, p = self._S.shape[0], self._p
        prior = self._prior
        if pos is None:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            if x.shape != self._ls.shape:
                raise ValueError(f"point dimension {x.shape[0]} != {self.hyper.dim}")
            xs = x / self._ls
            a = self._W @ _se_point(self._S, xs, self._signal, self._kbuf[:m])
            variance = prior - float(_c_einsum("i,i->", a, a))
        elif 0 <= pos < p:
            xs = self._Ps[pos]
            a = self._Z[:m, pos]
            variance = self._v.item(pos)
        else:
            raise ValueError(f"pool position {pos} is outside the {p} tracked points")
        pivot_sq = variance + _JITTER_LADDER[self._level] * prior
        if m >= self._Wbuf.shape[0] or (p and m >= self._Z.shape[0]):
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
                k = _se_point(self._Ps[:p], xs, self._signal, self._kp[:p])
                row = self._Z[m, :p]
                np.matmul(a, self._Z[:m, :p], out=row)
                np.subtract(k, row, out=row)
                row /= pivot
                v = self._v[:p]  # a view: in place, with no write-back
                v -= np.square(row, out=k)
            self._S = self._Sbuf[: m + 1]
        return min(max(variance, VARIANCE_FLOOR), prior)


def _training_data(
    train_x: np.ndarray, train_y: np.ndarray, hyper: GPHyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Checked training locations and values: dimension, count and finiteness.

    An (m, d) set takes m values in any shape; a (g, m, d) stack takes (g, m).
    """
    train_x = _check_dim(train_x, hyper, "train_x")
    train_y = np.asarray(train_y, dtype=float)
    if train_x.ndim == 2:
        train_y = train_y.ravel()
    if train_y.shape != train_x.shape[:-1]:
        if train_x.ndim == 2:
            raise ValueError(f"{train_x.shape[0]} training points but {train_y.shape[0]} values")
        raise ValueError(
            f"training points of shape {train_x.shape[:-1]} but values of shape {train_y.shape}"
        )
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
        raise ValueError("predict_many requires a non-empty training set")
    Xs, Qs = train_x / hyper.lengthscales, _check_dim(query_x, hyper, "query_x") / hyper.lengthscales
    W, _ = _factor(Xs, hyper)
    Z, prior = W @ _se_scaled(Xs, Qs, hyper.signal_variance), hyper.prior_variance
    return (W @ train_y) @ Z, _clamped(_residual(Z, prior), prior)


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

    A stack of g training sets of one length, (g, n, d) locations with
    (g, n) values, gives the (g, n, |Q|) curves from one stacked
    factorisation; each slice equals the 2-D call on that set, bit for bit,
    and a 2-D call is the stack of one.

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
    stacked = train_x.ndim == 3
    if not stacked:
        train_x, train_y = train_x[None], train_y[None]
    g, n = train_x.shape[:2]
    if n == 0:
        means = np.empty((g, 0, Q.shape[0]))
    else:
        Xs = train_x / hyper.lengthscales
        W, _ = _factor(Xs, hyper)
        Z = W @ _se_scaled(Xs, Q / hyper.lengthscales, hyper.signal_variance)
        means = np.cumsum(Z * (W @ train_y[:, :, None]), axis=1)
    return means if stacked else means[0]


def load_hyperparams(path: "str | Path") -> GPHyperparams:
    """Read hyperparameters from a key-value config file."""
    entries = read_kv_file(path)
    missing = {"lengthscales", "signal_variance", "noise_variance"} - entries.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    return GPHyperparams(
        lengthscales=np.array(parse_float_list(entries["lengthscales"])),
        signal_variance=float(entries["signal_variance"]),
        noise_variance=float(entries["noise_variance"]),
    )
