"""Observation streams: types, synthetic generation, CSV ingestion, block permutation.

An observation stream is an ordered sequence of feature vectors indexed by
stream position. Streams may carry a hidden quantity-of-interest (qoi) series
used only for post-hoc evaluation; selectors operate on the observation view
alone and never see qoi values.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path

import numpy as np

from .kv import read_columns, write_columns

__all__ = [
    "Observation",
    "Rows",
    "PeriodicStreamSpec",
    "ObservationStream",
    "CsvSchema",
    "generate_periodic_stream",
    "ingest_csv",
    "write_stream_csv",
    "block_permute",
    "two_sine_waveform",
    "seasonal_waveform",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only float copy of a that the library owns: the caller's array stays writeable."""
    a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, slots=True)
class Observation:
    """One stream element: position index plus its feature vector."""

    index: int
    features: np.ndarray

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"observation index must be non-negative, got {self.index}")
        feats = _readonly(np.atleast_1d(self.features))
        if feats.ndim != 1:
            raise ValueError("features must be a 1-d vector")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"non-finite feature value at index {self.index}")
        object.__setattr__(self, "features", feats)


# Rows builds this many observations at a time while it is iterated.
_CHUNK = 256

_INDEX = attrgetter("index")
_SET_INDEX = Observation.index.__set__  # slot writers, called at C speed by map
_SET_FEATURES = Observation.features.__set__


class Rows(Sequence[Observation]):
    """Read-only observations over the rows of one feature matrix.

    ``features`` is the (n, d) float matrix and ``indices`` the (n,) index
    column; both are read-only. ``rows[i]`` is observation ``indices[i]``
    over a view of row i, built when it is asked for and not kept; a slice
    or an integer array of positions gives ``Rows`` again, and iteration
    builds the observations a bounded chunk at a time. Selectors read the
    two arrays, so a stream's observations exist only while a caller holds
    one. ``Rows.of`` turns any sequence of observations into rows; the
    constructor takes a checked matrix and its index column as they are,
    keeping read-only views of both.
    """

    __slots__ = ("features", "indices")

    def __init__(self, features: np.ndarray, indices: np.ndarray) -> None:
        self._hold(features.view(), indices.view())

    def _hold(self, features: np.ndarray, indices: np.ndarray) -> "Rows":
        """Keep two arrays that no caller holds, made read-only."""
        features.flags.writeable = indices.flags.writeable = False
        self.features, self.indices = features, indices
        return self

    @classmethod
    def of(cls, observations: Iterable[Observation]) -> "Rows":
        """``observations`` as rows: ``Rows`` unchanged, any other sequence
        gathered once, in order; observations of unequal dimension are refused."""
        if isinstance(observations, Rows):
            return observations
        if not isinstance(observations, Sequence):
            observations = tuple(observations)
        n = len(observations)
        indices = np.fromiter(map(_INDEX, observations), dtype=np.intp, count=n)
        if not n:
            return cls(np.empty((0, 0)), indices)
        try:
            features = np.array([o.features for o in observations], dtype=float)
        except ValueError:  # ragged rows
            raise ValueError("observations have features of unequal dimension") from None
        return cls(features, indices)

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __getitem__(self, key):
        # An Observation's slots are filled without its per-row checks, made on the matrix.
        if isinstance(key, (int, np.integer)):
            obs = Observation.__new__(Observation)
            _SET_INDEX(obs, self.indices.item(key))  # IndexError past either end
            _SET_FEATURES(obs, self.features[key])
            return obs
        if not isinstance(key, slice):
            key = np.asarray(key)
            if key.dtype.kind not in "iu":
                if key.size:
                    raise TypeError(f"rows are indexed by integers, not {key.dtype}")
                key = key.astype(np.intp)
        # A slice gives views, and an integer array copies, that no caller holds yet.
        return Rows.__new__(Rows)._hold(self.features[key], self.indices[key])

    def __iter__(self) -> Iterator[Observation]:
        # chain hands out each chunk's observations in C; only _chunk runs in Python.
        return chain.from_iterable(map(self._chunk, range(0, len(self), _CHUNK)))

    def _chunk(self, start: int) -> tuple[Observation, ...]:
        """The observations at positions start..start+_CHUNK-1; each map runs
        its loop in C (deque(..., 0) drains it)."""
        indices = self.indices[start : start + _CHUNK].tolist()
        obs = tuple(map(Observation.__new__, repeat(Observation, len(indices))))
        deque(map(_SET_INDEX, obs, indices), 0)
        deque(map(_SET_FEATURES, obs, self.features[start : start + _CHUNK]), 0)
        return obs


@dataclass(frozen=True)
class PeriodicStreamSpec:
    """Generative description of an approximately periodic stream.

    ``base_waveform`` is the deterministic phase-to-feature map, materialized
    as a (period_T, d) table. Observations at position i >= period_T are the
    phase value at i mod period_T plus zero-mean Gaussian noise with
    covariance ``noise_cov``; the first period is emitted exactly and serves
    as the reference pattern. The covariance is factored once per spec, for
    every stream drawn from it.
    """

    period_T: int
    noise_cov: np.ndarray
    length_N: int
    base_waveform: np.ndarray

    def __post_init__(self) -> None:
        if self.period_T < 1:
            raise ValueError(f"period_T must be positive, got {self.period_T}")
        if self.length_N < self.period_T:
            raise ValueError(
                f"length_N ({self.length_N}) must cover at least one period ({self.period_T})"
            )
        wave = np.atleast_2d(np.asarray(self.base_waveform, dtype=float))
        if wave.shape[0] == 1 and self.period_T > 1:
            wave = wave.T
        if wave.shape[0] != self.period_T:
            raise ValueError(
                f"base_waveform has {wave.shape[0]} rows, expected period_T={self.period_T}"
            )
        if not np.all(np.isfinite(wave)):
            raise ValueError("base_waveform contains non-finite values")
        d = wave.shape[1]
        cov = np.atleast_2d(np.asarray(self.noise_cov, dtype=float))
        if cov.shape == (1, 1) and d > 1:
            cov = cov[0, 0] * np.eye(d)
        if cov.shape != (d, d):
            raise ValueError(f"noise_cov shape {cov.shape} does not match feature dim {d}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("noise_cov contains non-finite values")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("noise_cov must be symmetric")
        cov = _readonly(cov)
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals.min() < -1e-10:
            raise ValueError(f"noise_cov is not positive semi-definite (min eigenvalue {eigvals.min():g})")
        object.__setattr__(self, "base_waveform", _readonly(wave))
        object.__setattr__(self, "noise_cov", cov)
        # PSD-safe factor, F F^T = noise_cov: eigendecomposition handles singular covariances.
        object.__setattr__(self, "_noise_factor", eigvecs * np.sqrt(np.clip(eigvals, 0.0, None)))

    @property
    def dim(self) -> int:
        return self.base_waveform.shape[1]


@dataclass(frozen=True, eq=False)
class ObservationStream:
    """Ordered observations over the rows of one (N, d) feature matrix, with an
    optional hidden qoi series and generative spec.

    The matrix is copied, checked once as a whole, with ``Observation``'s
    messages, and kept read-only; observation i is index i over a view of
    row i, so indices run 0..N-1 and the dimension is uniform by
    construction. ``observations`` is that matrix and its index column as
    ``Rows``, made on first access and kept; it holds no per-row object, and
    an ``Observation`` is built only when a caller takes one. ``qoi`` is None or
    a read-only float array of length N, with NaN for a missing value.
    Selectors receive ``observations`` only; qoi stays on the stream object
    for the evaluation harness. Streams compare by identity: array fields
    have no single truth value.
    """

    feature_matrix: np.ndarray
    qoi: np.ndarray | None = None
    spec: PeriodicStreamSpec | None = None

    def __post_init__(self) -> None:
        feats = _readonly(self.feature_matrix)
        if feats.ndim != 2:
            raise ValueError("feature matrix must be 2-d")
        if not len(feats):
            raise ValueError("stream must contain at least one observation")
        finite = np.isfinite(feats).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite feature value at index {int(np.argmin(finite))}")
        put = object.__setattr__
        put(self, "feature_matrix", feats)
        if self.qoi is not None:
            qoi = _readonly(self.qoi)
            if qoi.shape != (len(feats),):
                raise ValueError(f"qoi has shape {qoi.shape}, the stream has {len(feats)} observations")
            put(self, "qoi", qoi)

    @cached_property
    def observations(self) -> Rows:
        """The rows of the feature matrix, indexed 0..N-1."""
        return Rows(self.feature_matrix, np.arange(len(self)))

    def __len__(self) -> int:
        return self.feature_matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.feature_matrix.shape[1]


def two_sine_waveform(period_T: int, amplitude: float = 1.0) -> np.ndarray:
    """One-dimensional waveform amplitude*(sin(2*pi*t) + sin(3*pi*t)), t = phase/period."""
    t = np.arange(period_T) / period_T
    return (amplitude * (np.sin(2 * np.pi * t) + np.sin(3 * np.pi * t)))[:, None]


def seasonal_waveform(period_T: int, amplitude: float = 1.1) -> np.ndarray:
    """Two-dimensional seasonal pattern: a phase-shifted annual signal plus cos(phase)."""
    t = 2 * np.pi * np.arange(period_T) / period_T
    return np.column_stack([amplitude * np.sin(t - 1.2), np.cos(t)])


def generate_periodic_stream(spec: PeriodicStreamSpec, seed: int) -> ObservationStream:
    """Synthesize an approximately periodic stream.

    The first period_T observations are the base waveform exactly; each later
    observation is the waveform value at its phase plus an i.i.d. zero-mean
    Gaussian draw with covariance noise_cov. A fixed seed reproduces the
    stream bit for bit.
    """
    T, N, d = spec.period_T, spec.length_N, spec.dim
    phases = np.arange(N) % T
    feats = spec.base_waveform[phases].copy()
    if N > T:
        rng = np.random.default_rng(seed)
        feats[T:] += rng.standard_normal((N - T, d)) @ spec._noise_factor.T
    return ObservationStream(feats, spec=spec)


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for stream CSV files."""

    index_col: str
    feature_cols: tuple[str, ...]
    qoi_col: str | None = None

    def __post_init__(self) -> None:
        if not self.feature_cols:
            raise ValueError("schema needs at least one feature column")
        object.__setattr__(self, "feature_cols", tuple(self.feature_cols))


def ingest_csv(path: "str | Path", schema: CsvSchema) -> ObservationStream:
    """Read a stream from CSV with ``kv.read_columns``, which refuses a bad table.

    Rows are sorted by the index/time column (treated as an opaque ordering
    key; equal keys keep file order; a NaN key is refused) and re-indexed 0..N-1.
    """
    cols = [schema.index_col, *schema.feature_cols]
    if schema.qoi_col is not None:
        cols.append(schema.qoi_col)
    table = read_columns(path, cols)
    keys = table[:, 0]
    if np.isnan(keys).any():
        raise ValueError(f"{Path(path)}: NaN in index column '{schema.index_col}'")
    table = table[np.argsort(keys, kind="stable")]
    qoi = table[:, -1] if schema.qoi_col is not None else None
    return ObservationStream(table[:, 1 : 1 + len(schema.feature_cols)], qoi)


def write_stream_csv(stream: ObservationStream, path: "str | Path") -> CsvSchema:
    """Write a stream as CSV (12 significant digits) and return the schema used:
    index column ``t``, features ``x0``, ``x1``, …, then ``qoi`` if it has one."""
    feature_cols = tuple(f"x{j}" for j in range(stream.dim))
    qoi_col = "qoi" if stream.qoi is not None else None
    schema = CsvSchema(index_col="t", feature_cols=feature_cols, qoi_col=qoi_col)
    header = [schema.index_col, *schema.feature_cols]
    columns = [np.arange(len(stream)), *stream.feature_matrix.T]  # indices run 0..N-1
    if schema.qoi_col is not None:
        header.append(schema.qoi_col)
        columns.append(stream.qoi)
    write_columns(path, header, columns)
    return schema


def block_permute(stream: ObservationStream, block_len: int, seed: int) -> ObservationStream:
    """Shuffle whole blocks of ``block_len`` consecutive observations.

    Within-block order is preserved, a trailing partial block stays in place
    at the end, the result is re-indexed 0..N-1, and any qoi series is
    permuted identically so (x, y) pairings survive.
    """
    n = len(stream)
    if block_len <= 0 or block_len > n:
        raise ValueError(f"block_len must be in 1..{n}, got {block_len}")
    n_blocks = n // block_len
    order = np.random.default_rng(seed).permutation(n_blocks)
    old_positions = np.concatenate([
        (order[:, None] * block_len + np.arange(block_len)).ravel(),
        np.arange(n_blocks * block_len, n),
    ])
    qoi = None if stream.qoi is None else stream.qoi[old_positions]
    return ObservationStream(stream.feature_matrix[old_positions], qoi, stream.spec)
