import numpy as np
import pytest

from periodic_secretary import (
    CsvSchema,
    Observation,
    ObservationStream,
    PeriodicStreamSpec,
    QoiSample,
    block_permute,
    generate_periodic_stream,
    ingest_csv,
    standardize_stream,
    two_sine_waveform,
    write_stream_csv,
)


def four_step_spec(noise=0.0, length=12):
    return PeriodicStreamSpec(
        period_T=4,
        noise_cov=np.array([[noise]]),
        length_N=length,
        base_waveform=np.array([[0.0], [3.0], [1.0], [2.0]]),
    )


class TestGenerate:
    def test_zero_noise_repeats_waveform_exactly(self):
        stream = generate_periodic_stream(four_step_spec(), seed=7)
        values = stream.feature_matrix[:, 0]
        assert np.array_equal(values, np.tile([0.0, 3.0, 1.0, 2.0], 3))

    def test_same_seed_bit_identical(self):
        spec = four_step_spec(noise=0.5)
        a = generate_periodic_stream(spec, seed=123)
        b = generate_periodic_stream(spec, seed=123)
        assert np.array_equal(a.feature_matrix, b.feature_matrix)

    def test_different_seed_differs(self):
        spec = four_step_spec(noise=0.5)
        a = generate_periodic_stream(spec, seed=1)
        b = generate_periodic_stream(spec, seed=2)
        assert not np.array_equal(a.feature_matrix, b.feature_matrix)

    def test_first_period_is_noiseless_reference(self):
        spec = PeriodicStreamSpec(
            period_T=100,
            noise_cov=np.array([[0.35]]),
            length_N=1000,
            base_waveform=two_sine_waveform(100),
        )
        stream = generate_periodic_stream(spec, seed=5)
        assert len(stream) == 1000
        assert np.array_equal(stream.feature_matrix[:100], spec.base_waveform)
        tail = stream.feature_matrix[100:]
        assert not np.array_equal(tail[:100], spec.base_waveform)

    def test_noise_referenced_to_phase_pattern(self):
        # Deviation from the phase value is pure noise: no drift across periods.
        spec = four_step_spec(noise=0.25, length=4000)
        stream = generate_periodic_stream(spec, seed=11)
        dev = stream.feature_matrix[:, 0] - np.tile([0.0, 3.0, 1.0, 2.0], 1000)
        first_half = dev[4:2000]
        second_half = dev[2000:]
        assert abs(first_half.mean() - second_half.mean()) < 0.1

    def test_empirical_noise_covariance_matches(self):
        # Sigma = sigma^2 I in 2-d: empirical covariance of the deviations
        # converges to it within 3 standard errors.
        sigma2 = 0.4
        T, N = 5, 20005
        wave = np.column_stack([np.sin(np.arange(T)), np.cos(np.arange(T))])
        spec = PeriodicStreamSpec(
            period_T=T, noise_cov=sigma2 * np.eye(2), length_N=N, base_waveform=wave
        )
        stream = generate_periodic_stream(spec, seed=3)
        phases = np.arange(N) % T
        dev = stream.feature_matrix[T:] - wave[phases[T:]]
        n = dev.shape[0]
        emp = dev.T @ dev / n
        se_diag = sigma2 * np.sqrt(2.0 / n)
        se_off = sigma2 * np.sqrt(1.0 / n)
        assert abs(emp[0, 0] - sigma2) < 3 * se_diag
        assert abs(emp[1, 1] - sigma2) < 3 * se_diag
        assert abs(emp[0, 1]) < 3 * se_off

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="at least one period"):
            four_step_spec(length=3)
        with pytest.raises(ValueError, match="positive semi-definite"):
            PeriodicStreamSpec(
                period_T=2,
                noise_cov=np.array([[-1.0, 0.0], [0.0, 1.0]]),
                length_N=4,
                base_waveform=np.zeros((2, 2)),
            )
        with pytest.raises(ValueError, match="symmetric"):
            PeriodicStreamSpec(
                period_T=2,
                noise_cov=np.array([[1.0, 0.5], [0.1, 1.0]]),
                length_N=4,
                base_waveform=np.zeros((2, 2)),
            )


class TestTypes:
    def test_observation_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Observation(0, np.array([np.nan]))

    def test_stream_requires_contiguous_indices(self):
        obs = (Observation(0, np.array([1.0])), Observation(2, np.array([2.0])))
        with pytest.raises(ValueError, match="indices"):
            ObservationStream(observations=obs)

    def test_stream_rejects_mixed_dimensions(self):
        obs = (Observation(0, np.array([1.0])), Observation(1, np.array([2.0, 3.0])))
        with pytest.raises(ValueError, match="dimension"):
            ObservationStream(observations=obs)

    def test_qoi_must_reference_observations(self):
        obs = (Observation(0, np.array([1.0])),)
        with pytest.raises(ValueError, match="qoi index"):
            ObservationStream(observations=obs, qoi=(QoiSample(3, 1.0),))

    def test_features_are_immutable(self):
        stream = generate_periodic_stream(four_step_spec(), seed=0)
        with pytest.raises(ValueError):
            stream.observations[0].features[0] = 99.0


class TestCsv:
    def test_three_row_two_feature_ingest(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,temp,cosday\n0,14.5,0.9\n1,13.2,0.8\n2,12.0,0.7\n")
        stream = ingest_csv(path, CsvSchema(index_col="t", feature_cols=("temp", "cosday")))
        assert len(stream) == 3
        assert stream.dim == 2
        assert stream.qoi is None

    def test_qoi_column_attached(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,temp,cell_count\n0,14.5,3.0\n1,13.2,5.5\n")
        schema = CsvSchema(index_col="t", feature_cols=("temp",), qoi_col="cell_count")
        stream = ingest_csv(path, schema)
        assert stream.qoi is not None
        assert stream.qoi_values().tolist() == [3.0, 5.5]

    def test_rows_sorted_by_index_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n5,2.0\n1,1.0\n9,3.0\n")
        stream = ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))
        assert stream.feature_matrix[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert [o.index for o in stream.observations] == [0, 1, 2]

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n1,oops\n")
        with pytest.raises(ValueError, match=r"line 3.*column 'x'"):
            ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))

    def test_bad_cell_after_a_blank_line_names_its_file_line(self, tmp_path):
        # The blank line 3 is skipped but still counted: the short row is line 4.
        path = tmp_path / "s.csv"
        path.write_text("t,x\n1,2\n\n0\n")
        with pytest.raises(ValueError, match=r": line 4: empty cell in column 'x'"):
            ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))

    def test_non_finite_feature_names_sorted_index(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n5,nan\n1,1.0\n9,3.0\n")
        with pytest.raises(ValueError, match="non-finite feature value at index 1"):
            ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))

    def test_nan_key_rejected(self, tmp_path):
        # NaN has no place in an ordering, so the row order would be arbitrary.
        path = tmp_path / "s.csv"
        path.write_text("t,x\n5,2.0\nnan,1.0\n")
        with pytest.raises(ValueError, match="NaN in index column 't'"):
            ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))

    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n0,1.0\n")
        with pytest.raises(ValueError, match="missing columns.*'y'"):
            ingest_csv(path, CsvSchema(index_col="t", feature_cols=("y",)))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))
        path.write_text("t,x\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))

    def test_round_trip_preserves_12_significant_digits(self, tmp_path):
        spec = PeriodicStreamSpec(
            period_T=7,
            noise_cov=0.9 * np.eye(2),
            length_N=70,
            base_waveform=np.column_stack([np.sin(np.arange(7)), np.cos(np.arange(7))]),
        )
        stream = generate_periodic_stream(spec, seed=42)
        path = tmp_path / "round.csv"
        schema = write_stream_csv(stream, path)
        back = ingest_csv(path, schema)
        np.testing.assert_allclose(back.feature_matrix, stream.feature_matrix, rtol=1e-11)


class TestBlockPermute:
    def test_single_block_is_identity(self):
        stream = generate_periodic_stream(four_step_spec(noise=0.3), seed=1)
        out = block_permute(stream, block_len=len(stream), seed=99)
        assert np.array_equal(out.feature_matrix, stream.feature_matrix)

    def test_within_block_order_preserved(self):
        stream = generate_periodic_stream(four_step_spec(noise=0.3, length=6), seed=2)
        out = block_permute(stream, block_len=2, seed=5)
        pairs = out.feature_matrix[:, 0].reshape(3, 2)
        original = stream.feature_matrix[:, 0].reshape(3, 2)
        # Each output pair must be one of the original pairs, order intact.
        matched = {tuple(p) for p in pairs}
        assert matched == {tuple(p) for p in original}

    def test_multiset_and_pairing_preserved(self):
        stream = generate_periodic_stream(four_step_spec(noise=0.2), seed=3)
        qoi = tuple(QoiSample(i, float(i) * 10) for i in range(len(stream)))
        stream = ObservationStream(observations=stream.observations, qoi=qoi, spec=stream.spec)
        out = block_permute(stream, block_len=4, seed=17)
        pairing = {
            (float(o.features[0]), q.value)
            for o, q in zip(stream.observations, stream.qoi)
        }
        pairing_out = {
            (float(o.features[0]), q.value)
            for o, q in zip(out.observations, out.qoi)
        }
        assert pairing == pairing_out
        assert [o.index for o in out.observations] == list(range(len(stream)))

    def test_trailing_partial_block_stays_in_place(self):
        stream = generate_periodic_stream(four_step_spec(noise=0.2, length=10), seed=4)
        out = block_permute(stream, block_len=4, seed=8)
        assert np.array_equal(out.feature_matrix[8:], stream.feature_matrix[8:])

    def test_fifty_seeds_give_fifty_distinct_trials(self):
        # Seven "years" of data shuffled 50 ways; these fixed seeds happen to
        # avoid any of the 7! = 5040 orderings colliding.
        spec = four_step_spec(noise=0.2, length=28)
        stream = generate_periodic_stream(spec, seed=6)
        seen = {
            block_permute(stream, block_len=4, seed=s).feature_matrix.tobytes()
            for s in range(50)
        }
        assert len(seen) == 50

    def test_rejects_bad_block_len(self):
        stream = generate_periodic_stream(four_step_spec(), seed=0)
        with pytest.raises(ValueError):
            block_permute(stream, block_len=0, seed=0)
        with pytest.raises(ValueError):
            block_permute(stream, block_len=13, seed=0)


class TestStandardize:
    def test_reference_period_statistics(self):
        spec = PeriodicStreamSpec(
            period_T=50,
            noise_cov=0.1 * np.eye(2),
            length_N=500,
            base_waveform=np.column_stack(
                [5 + 3 * np.sin(np.arange(50)), 100 + np.cos(np.arange(50))]
            ),
        )
        stream = generate_periodic_stream(spec, seed=9)
        out = standardize_stream(stream)
        ref = out.feature_matrix[:50]
        np.testing.assert_allclose(ref.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ref.std(axis=0), 1.0, atol=1e-12)
        # Spec transformed consistently with the features.
        np.testing.assert_allclose(out.spec.base_waveform, ref, atol=1e-12)

    def test_constant_dimension_center_only(self):
        wave = np.column_stack([np.arange(4.0), np.full(4, 7.0)])
        spec = PeriodicStreamSpec(period_T=4, noise_cov=np.zeros((2, 2)), length_N=8, base_waveform=wave)
        stream = generate_periodic_stream(spec, seed=0)
        out = standardize_stream(stream)
        assert np.all(out.feature_matrix[:, 1] == 0.0)
