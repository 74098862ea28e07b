import numpy as np
import pytest

from periodic_secretary import (
    CsvSchema,
    Observation,
    ObservationStream,
    PeriodicStreamSpec,
    block_permute,
    generate_periodic_stream,
    ingest_csv,
    two_sine_waveform,
    write_stream_csv,
)
from periodic_secretary.kv import write_columns


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

    def test_stream_checks_its_feature_matrix(self):
        with pytest.raises(ValueError, match="2-d"):
            ObservationStream(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="at least one observation"):
            ObservationStream(np.empty((0, 2)))
        with pytest.raises(ValueError, match="non-finite feature value at index 2"):
            ObservationStream(np.array([[0.0], [1.0], [np.inf]]))

    def test_observations_are_the_rows(self):
        feats = np.arange(6.0).reshape(3, 2)
        stream = ObservationStream(feats)
        assert [o.index for o in stream.observations] == [0, 1, 2]
        assert all(np.shares_memory(o.features, stream.feature_matrix) for o in stream.observations)
        assert np.array_equal(stream.feature_matrix, feats)
        assert (len(stream), stream.dim) == (3, 2)

    def test_callers_arrays_stay_writeable(self):
        # The stream and an observation keep read-only copies of their own.
        feats, qoi, x = np.zeros((3, 1)), np.zeros(3), np.zeros(2)
        stream = ObservationStream(feats, qoi)
        obs = Observation(0, x)
        assert feats.flags.writeable and qoi.flags.writeable and x.flags.writeable
        feats[0, 0] = qoi[0] = x[0] = 1.0
        assert stream.feature_matrix[0, 0] == stream.qoi[0] == obs.features[0] == 0.0
        assert not stream.feature_matrix.flags.writeable and not obs.features.flags.writeable

    def test_observations_built_on_first_access(self):
        stream = generate_periodic_stream(four_step_spec(), seed=0)
        assert "observations" not in vars(stream)
        observations = stream.observations
        assert stream.observations is observations and len(observations) == len(stream)

    def test_qoi_must_reference_observations(self):
        with pytest.raises(ValueError, match=r"qoi has shape \(3,\), the stream has 2 observations"):
            ObservationStream(np.zeros((2, 1)), qoi=np.zeros(3))

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
        assert stream.qoi.tolist() == [3.0, 5.5]

    def test_qoi_values_built_once_and_read_only(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,temp,cell_count\n0,14.5,3.0\n1,13.2,5.5\n")
        stream = ingest_csv(path, CsvSchema(index_col="t", feature_cols=("temp",), qoi_col="cell_count"))
        values = stream.qoi
        assert stream.qoi is values
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            block_permute(stream, block_len=1, seed=0).qoi[0] = 0.0

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
        # The blank line 3 is skipped but still counted: the short row, or
        # the row with an empty last cell, is line 4. A line of spaces is
        # not blank: it is a row whose first cell is empty.
        path = tmp_path / "s.csv"
        schema = CsvSchema(index_col="t", feature_cols=("x",))
        for text, where in [("t,x\n1,2\n\n0\n", "line 4: empty cell in column 'x'"),
                            ("t,x\n1,2\n\n0,\n", "line 4: empty cell in column 'x'"),
                            ("t,x\n0,1\n   \n2,3\n", "line 3: empty cell in column 't'")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=rf": {where}$"):
                ingest_csv(path, schema)

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
        for text in [b"t,x\n", b"t,x\r\n\r\n\n"]:  # and no numpy warning (an error here)
            path.write_bytes(text)
            with pytest.raises(ValueError, match="no data rows"):
                ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))

    def test_cells_only_the_row_reader_accepts(self, tmp_path):
        # numpy's C reader refuses an underscore in a number and a quoted
        # number; the rows are then read as csv.reader and float read them.
        # Split at every comma, the quoted label would shift x to read 7.
        path = tmp_path / "s.csv"
        schema = CsvSchema(index_col="t", feature_cols=("x",), qoi_col="q")
        for text, x, q in [("t,x,q\n0,1.5,3\n1,1_0,2.5\n", [1.5, 10.0], [3.0, 2.5]),
                           ('t,x,q\n0,"1.5",3\n1,2,"2.5"\n', [1.5, 2.0], [3.0, 2.5]),
                           ('t,q,label,x\n0,3,"a,7,b",1.5\n1,4,c,2\n', [1.5, 2.0], [3.0, 4.0])]:
            path.write_text(text)
            stream = ingest_csv(path, schema)
            assert stream.feature_matrix[:, 0].tolist() == x and stream.qoi.tolist() == q

    def test_write_columns_refuses_other_dtypes(self, tmp_path):
        with pytest.raises(TypeError, match="integer and float columns"):
            write_columns(tmp_path / "c.csv", ["flag"], [np.array([True, False])])

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
        qoi = np.arange(len(stream)) * 10.0
        stream = ObservationStream(stream.feature_matrix, qoi, stream.spec)
        out = block_permute(stream, block_len=4, seed=17)
        pairing = {
            (float(o.features[0]), float(q))
            for o, q in zip(stream.observations, stream.qoi)
        }
        pairing_out = {
            (float(o.features[0]), float(q))
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
