"""Observation streams: types, synthetic generation, CSV ingestion, block permutation.

An observation stream is an ordered sequence of feature vectors indexed by
stream position. Streams may carry a hidden quantity-of-interest (qoi) series
used only for post-hoc evaluation; selectors operate on the observation view
alone and never see qoi values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .kv import write_columns

__all__ = [
    "Observation",
    "QoiSample",
    "PeriodicStreamSpec",
    "ObservationStream",
    "CsvSchema",
    "generate_periodic_stream",
    "ingest_csv",
    "write_stream_csv",
    "block_permute",
    "standardize_stream",
    "two_sine_waveform",
    "seasonal_waveform",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
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
class QoiSample:
    """Latent quantity-of-interest value paired with an observation index."""

    index: int
    value: float

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"qoi index must be non-negative, got {self.index}")


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


@dataclass(frozen=True)
class ObservationStream:
    """Ordered observations with optional hidden qoi series and generative spec.

    Selectors receive ``observations`` only; qoi stays on the stream object
    for the evaluation harness.
    """

    observations: tuple[Observation, ...]
    qoi: tuple[QoiSample, ...] | None = None
    spec: PeriodicStreamSpec | None = None

    def __post_init__(self) -> None:
        obs = tuple(self.observations)
        if not obs:
            raise ValueError("stream must contain at least one observation")
        d = obs[0].features.shape[0]
        for pos, o in enumerate(obs):
            if o.index != pos:
                raise ValueError(f"observation indices must run 0..N-1; position {pos} has index {o.index}")
            if o.features.shape[0] != d:
                raise ValueError(f"inconsistent feature dimension at index {pos}")
        object.__setattr__(self, "observations", obs)
        if self.qoi is not None:
            q = tuple(self.qoi)
            valid = {o.index for o in obs}
            for s in q:
                if s.index not in valid:
                    raise ValueError(f"qoi index {s.index} refers to no observation")
            object.__setattr__(self, "qoi", q)

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def dim(self) -> int:
        return self.observations[0].features.shape[0]

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """(N, d) matrix of all feature vectors, read-only."""
        return _readonly(np.vstack([o.features for o in self.observations]))

    def qoi_values(self) -> np.ndarray:
        """qoi as an array aligned with observation indices."""
        if self.qoi is None:
            raise ValueError("stream carries no qoi series")
        vals = np.full(len(self.observations), np.nan)
        for s in self.qoi:
            vals[s.index] = s.value
        return vals


def _stream(
    feats: np.ndarray,
    qoi: "tuple[QoiSample, ...] | None" = None,
    spec: PeriodicStreamSpec | None = None,
) -> ObservationStream:
    """Stream of Observation i over row i of an (N, d) feature matrix.

    The matrix is checked once as a whole, with ``Observation``'s messages,
    and made read-only; each observation's features are a view of its row,
    and the matrix itself is the stream's ``feature_matrix``.
    """
    feats = _readonly(feats)
    if feats.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite feature value at index {int(np.argmin(finite))}")
    make, put = Observation.__new__, object.__setattr__
    obs = []
    for i, row in enumerate(feats):
        # Observation's fields without its per-row checks, made above on the
        # matrix; __dict__.update would cost a dict per observation.
        o = make(Observation)
        put(o, "index", i)
        put(o, "features", row)
        obs.append(o)
    stream = ObservationStream(observations=tuple(obs), qoi=qoi, spec=spec)
    stream.__dict__["feature_matrix"] = feats  # where the cached_property keeps its value
    return stream


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
    return _stream(feats, spec=spec)


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

        def values():
            for row in filter(None, reader):
                try:
                    yield [float(row[j]) for j in positions]
                except (ValueError, IndexError):
                    for col, j in zip(cols, positions):
                        _cell(path, reader.line_num, col, row[j] if j < len(row) else None)
                    raise

        table = np.fromiter(chain.from_iterable(values()), dtype=float).reshape(-1, len(cols))
    if not len(table):
        raise ValueError(f"{path}: no data rows")
    keys = table[:, 0]
    if np.isnan(keys).any():
        raise ValueError(f"{path}: NaN in index column '{schema.index_col}'")
    table = table[np.argsort(keys, kind="stable")]
    qoi = None
    if schema.qoi_col is not None:
        qoi = tuple(QoiSample(i, q) for i, q in enumerate(table[:, -1].tolist()))
    return _stream(table[:, 1 : 1 + len(schema.feature_cols)], qoi)


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
        columns.append(stream.qoi_values())
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
    qoi = None
    if stream.qoi is not None:
        qvals = stream.qoi_values()[old_positions].tolist()
        qoi = tuple(QoiSample(new, q) for new, q in enumerate(qvals))
    return _stream(stream.feature_matrix[old_positions], qoi, stream.spec)


def standardize_stream(stream: ObservationStream, period_T: int | None = None) -> ObservationStream:
    """Standardize features to zero mean / unit variance per dimension.

    Statistics come from the reference period only (the first ``period_T``
    observations) so no future information leaks into the transform.
    Constant dimensions are centered but left unscaled. The generative spec,
    when present, is transformed consistently (waveform and noise covariance).
    """
    if period_T is None:
        if stream.spec is None:
            raise ValueError("period_T required when the stream has no spec")
        period_T = stream.spec.period_T
    if period_T < 1 or period_T > len(stream):
        raise ValueError(f"period_T must be in 1..{len(stream)}, got {period_T}")
    ref = stream.feature_matrix[:period_T]
    mean = ref.mean(axis=0)
    std = ref.std(axis=0)
    std = np.where(std > 0, std, 1.0)

    spec = stream.spec
    if spec is not None:
        scale = np.diag(1.0 / std)
        spec = PeriodicStreamSpec(
            period_T=spec.period_T,
            noise_cov=scale @ spec.noise_cov @ scale,
            length_N=spec.length_N,
            base_waveform=(spec.base_waveform - mean) / std,
        )
    return _stream((stream.feature_matrix - mean) / std, stream.qoi, spec)
