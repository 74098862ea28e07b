"""Approximately periodic streams: synthesis, noise model, CSV, block permutation.

A stream repeats a base waveform with period T; every observation after the
first (reference) period is the waveform value at its phase plus zero-mean
Gaussian noise. This script synthesizes one, verifies the noise model
empirically, round-trips it through CSV, and builds permuted evaluation
trials.
"""

import tempfile
from pathlib import Path

import numpy as np

from periodic_secretary import (
    PeriodicStreamSpec,
    block_permute,
    generate_periodic_stream,
    ingest_csv,
    standardize_stream,
    two_sine_waveform,
    write_stream_csv,
)

# A 10-period stream in the sweep regime used throughout: two superimposed
# sines with per-sample noise variance 0.35.
spec = PeriodicStreamSpec(
    period_T=100,
    noise_cov=np.array([[0.35]]),
    length_N=1000,
    base_waveform=two_sine_waveform(100),
)
stream = generate_periodic_stream(spec, seed=7)
print(f"stream: {len(stream)} observations, dim {stream.dim}")
print("first period equals the waveform exactly:",
      bool(np.array_equal(stream.feature_matrix[:100], spec.base_waveform)))

# The deviation of each later observation from its phase value is the noise.
phases = np.arange(1000) % 100
dev = stream.feature_matrix[100:, 0] - spec.base_waveform[phases[100:], 0]
print(f"empirical noise variance {dev.var():.4f} (generating value 0.35)")

# Same seed, same stream - bit for bit.
again = generate_periodic_stream(spec, seed=7)
print("regenerating with the same seed is identical:",
      bool(np.array_equal(again.feature_matrix, stream.feature_matrix)))

# CSV round trip at 12 significant digits, in a private temporary directory.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_stream.csv"
    schema = write_stream_csv(stream, path)
    back = ingest_csv(path, schema)
err = np.abs(back.feature_matrix - stream.feature_matrix).max()
print(f"CSV round-trip max error {err:.2e}")

# Repeated-trial evaluation permutes whole periods ("years") of the stream.
trial = block_permute(stream, block_len=100, seed=1)
print("block-permuted trial keeps the multiset of observations:",
      bool(np.array_equal(np.sort(trial.feature_matrix[:, 0]),
                          np.sort(stream.feature_matrix[:, 0]))))
print("...but reorders the periods:",
      not np.array_equal(trial.feature_matrix, stream.feature_matrix))

# Before GP use, features can be standardized with statistics taken from the
# reference period only, so no future information leaks into the transform.
scaled = standardize_stream(stream)
ref = scaled.feature_matrix[:100]
print(f"standardized reference period: mean {ref.mean():+.1e}, std {ref.std():.3f}")
