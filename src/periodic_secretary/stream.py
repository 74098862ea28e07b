"""Observation streams: types, synthetic generation, CSV ingestion, block permutation.

An observation stream is an ordered sequence of feature vectors indexed by
stream position. Streams may carry a hidden quantity-of-interest (qoi) series
used only for post-hoc evaluation; selectors operate on the observation view
alone and never see qoi values.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .kv import write_columns

__all__ = [
    "Observation",
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


@dataclass(frozen=True)
class PeriodicStreamSpec:
    """Generative description of an approximately periodic stream.

    ``base_waveform`` is the deterministic phase-to-feature map, materialized
    as a (period_T, d) table. Observations at position i >= period_T are the
    phase value at i mod period_T plus zero-mean Gaussian noise with
    covariance ``noise_cov``; the first period is emitted exactly and serves
    as the reference pattern.
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
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("noise_cov must be symmetric")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -1e-10:
            raise ValueError(f"noise_cov is not positive semi-definite (min eigenvalue {eigvals.min():g})")
        object.__setattr__(self, "base_waveform", _readonly(wave))
        object.__setattr__(self, "noise_cov", _readonly(cov))

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
    construction. The observations are built on first access, so a stream
    whose observations are never read never builds them. ``qoi`` is None or
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
    def observations(self) -> tuple[Observation, ...]:
        """Observation i over a view of row i, for i = 0..N-1."""
        # Observation's slots are filled without its per-row checks, made on
        # the matrix; each map runs its loop in C (deque(..., 0) drains it).
        n = len(self)
        obs = tuple(map(Observation.__new__, repeat(Observation, n)))
        deque(map(Observation.index.__set__, obs, range(n)), 0)
        deque(map(Observation.features.__set__, obs, self.feature_matrix), 0)
        return obs

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
        # PSD-safe factor: eigendecomposition handles singular covariances.
        eigvals, eigvecs = np.linalg.eigh(spec.noise_cov)
        factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        rng = np.random.default_rng(seed)
        feats[T:] += rng.standard_normal((N - T, d)) @ factor.T
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


def _cell(path: Path, lineno: int, col: str, raw: str | None) -> float:
    """One CSV cell as a float; a missing, blank or non-numeric cell is an error."""
    if raw is None or raw.strip() == "":
        raise ValueError(f"{path}: line {lineno}: empty cell in column '{col}'")
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"{path}: line {lineno}: non-numeric value {raw!r} in column '{col}'"
        ) from None


def ingest_csv(path: "str | Path", schema: CsvSchema) -> ObservationStream:
    """Read a stream from CSV.

    Rows are sorted by the index/time column (treated as an opaque ordering
    key; equal keys keep file order) and re-indexed 0..N-1. Blank lines are
    skipped. Malformed cells are reported with their column name and the
    line of the file they are on (the header is line 1; blank lines count).

    The header is read with ``csv.reader``. The data rows go to numpy's C
    reader when they contain no quote character: ``csv.reader`` then only
    splits at commas and line ends, and every cell the C reader accepts,
    ``float`` reads as the same number. Where the C reader refuses the
    rows (a quote, a cell only ``float`` reads such as ``1_0``, or a
    malformed cell), they are read again row by row with ``csv.reader``,
    which gives the table or names the bad cell.
    """
    path = Path(path)
    cols = [schema.index_col, *schema.feature_cols]
    if schema.qoi_col is not None:
        cols.append(schema.qoi_col)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        missing = [c for c in cols if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}; header has {header}")
        where = {name: j for j, name in enumerate(header)}  # a repeated name means its last column
        positions = [where[c] for c in cols]
        header_lines = reader.line_num
        body = fh.read()
    table = None
    if '"' not in body and body.strip("\r\n"):  # no rows at all would make loadtxt warn
        try:
            table = np.loadtxt(
                io.StringIO(body, newline=""), delimiter=",", usecols=positions,
                comments=None, ndmin=2,
            )
        except ValueError:
            pass
    if table is None:
        rows = csv.reader(io.StringIO(body, newline=""))

        def values():
            for row in filter(None, rows):
                try:
                    yield [float(row[j]) for j in positions]
                except (ValueError, IndexError):
                    line = header_lines + rows.line_num
                    for col, j in zip(cols, positions):
                        _cell(path, line, col, row[j] if j < len(row) else None)
                    raise

        table = np.fromiter(chain.from_iterable(values()), dtype=float).reshape(-1, len(cols))
    if not len(table):
        raise ValueError(f"{path}: no data rows")
    keys = table[:, 0]
    if np.isnan(keys).any():
        raise ValueError(f"{path}: NaN in index column '{schema.index_col}'")
    table = table[np.argsort(keys, kind="stable")]
    qoi = table[:, -1] if schema.qoi_col is not None else None
    return ObservationStream(table[:, 1 : 1 + len(schema.feature_cols)], qoi)


def write_stream_csv(
    stream: ObservationStream,
    path: "str | Path",
    schema: CsvSchema | None = None,
) -> CsvSchema:
    """Write a stream as CSV (12 significant digits) and return the schema used."""
    if schema is None:
        feature_cols = tuple(f"x{j}" for j in range(stream.dim))
        qoi_col = "qoi" if stream.qoi is not None else None
        schema = CsvSchema(index_col="t", feature_cols=feature_cols, qoi_col=qoi_col)
    if len(schema.feature_cols) != stream.dim:
        raise ValueError(
            f"schema has {len(schema.feature_cols)} feature columns, stream has dim {stream.dim}"
        )
    if schema.qoi_col is not None and stream.qoi is None:
        raise ValueError(f"schema names qoi column '{schema.qoi_col}' but stream has no qoi")
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
