import numpy as np
import pytest

import periodic_secretary.bounds
import periodic_secretary.harness
from periodic_secretary import (
    AlgorithmSpec,
    CsvSchema,
    ExperimentConfig,
    GPHyperparams,
    ObservationStream,
    PeriodicStreamSpec,
    SelectionResult,
    UtilityFunction,
    attach_gp_qoi,
    evaluate_prediction,
    generate_periodic_stream,
    ingest_csv,
    predict,
    run_comparison,
    tune_threshold_slack,
    validate_bounds,
)
from periodic_secretary.harness import (
    derive_seeds,
    write_comparison_report,
    write_tuning_csv,
)
from periodic_secretary.stream import two_sine_waveform


@pytest.fixture
def small_spec():
    return PeriodicStreamSpec(
        period_T=8,
        noise_cov=np.array([[0.3]]),
        length_N=64,
        base_waveform=two_sine_waveform(8),
    )


@pytest.fixture
def wide_hyper():
    return GPHyperparams(lengthscales=np.array([0.5]), signal_variance=1.0, noise_variance=0.1)


@pytest.fixture
def base_stream(small_spec, wide_hyper):
    return attach_gp_qoi(generate_periodic_stream(small_spec, seed=5), wide_hyper, seed=6)


def modular_factory(stream):
    return UtilityFunction.modular(stream.feature_matrix[:, 0])


class TestDeriveSeeds:
    def test_deterministic_and_tag_separated(self):
        a = derive_seeds(7, 1, 5)
        assert a == derive_seeds(7, 1, 5)
        assert a != derive_seeds(7, 2, 5)
        assert a != derive_seeds(8, 1, 5)


class TestTuneThresholdSlack:
    def test_singleton_grid_returned(self, small_spec, wide_hyper):
        result = tune_threshold_slack(
            small_spec, UtilityFunction.entropy(wide_hyper), k=4, slack_grid=[0.3], runs=3, seed=1
        )
        assert result.best_slack == 0.3
        assert result.slacks == (0.3,)

    def test_noiseless_stream_prefers_smallest_slack(self, wide_hyper):
        # With no noise to absorb and ample periods per sample, zero slack
        # waits for the exact best phase each time and cannot be beaten.
        spec = PeriodicStreamSpec(
            period_T=8,
            noise_cov=np.zeros((1, 1)),
            length_N=64,
            base_waveform=two_sine_waveform(8),
        )
        result = tune_threshold_slack(
            spec,
            UtilityFunction.entropy(wide_hyper),
            k=3,
            slack_grid=[0.0, 0.4, 1.2],
            runs=2,
            seed=3,
        )
        assert result.best_slack == 0.0

    def test_statistics_shapes_and_grid_sorted(self, small_spec, wide_hyper):
        result = tune_threshold_slack(
            small_spec,
            UtilityFunction.entropy(wide_hyper),
            k=4,
            slack_grid=[0.5, 0.1, 0.9],
            runs=4,
            seed=5,
        )
        assert result.slacks == (0.1, 0.5, 0.9)
        assert result.mean_utility.shape == (3,)
        assert result.mean_fill.shape == (3,)

    def test_empty_grid_rejected(self, small_spec, wide_hyper):
        with pytest.raises(ValueError, match="empty"):
            tune_threshold_slack(
                small_spec, UtilityFunction.entropy(wide_hyper), k=4, slack_grid=[], runs=2, seed=0
            )

    @pytest.mark.parametrize("runs", [0, -1])
    def test_nonpositive_runs_rejected(self, small_spec, wide_hyper, runs):
        with pytest.raises(ValueError, match="runs must be positive"):
            tune_threshold_slack(
                small_spec, UtilityFunction.entropy(wide_hyper), k=4, slack_grid=[0.3],
                runs=runs, seed=0,
            )

    def test_accepts_utility_factory(self, small_spec):
        result = tune_threshold_slack(
            small_spec, modular_factory, k=4, slack_grid=[0.0, 0.5], runs=3, seed=9
        )
        assert result.best_slack in (0.0, 0.5)


class TestAttachQoi:
    def test_deterministic_and_full_coverage(self, small_spec, wide_hyper):
        stream = generate_periodic_stream(small_spec, seed=1)
        a = attach_gp_qoi(stream, wide_hyper, seed=2)
        b = attach_gp_qoi(stream, wide_hyper, seed=2)
        assert a.qoi is not None and len(a.qoi) == len(stream)
        assert np.array_equal(a.qoi, b.qoi)
        assert not np.array_equal(
            a.qoi, attach_gp_qoi(stream, wide_hyper, seed=3).qoi
        )


class TestEvaluatePrediction:
    def test_prior_row_is_mean_square(self, small_spec, wide_hyper):
        stream = attach_gp_qoi(generate_periodic_stream(small_spec, seed=4), wide_hyper, seed=5)
        sel = SelectionResult(chosen=(10, 20), utility_trace=(), terminated="filled_k")
        test_idx = [30, 40, 50]
        mse = evaluate_prediction(sel, stream, test_idx, wide_hyper)
        y = stream.qoi[test_idx]
        assert mse.shape == (3,)
        assert mse[0] == pytest.approx(float(np.mean(y**2)), abs=1e-12)

    def test_empty_selection_gives_the_prior_row_only(self, small_spec, wide_hyper):
        stream = attach_gp_qoi(generate_periodic_stream(small_spec, seed=4), wide_hyper, seed=5)
        sel = SelectionResult(chosen=(), utility_trace=(), terminated="filled_k")
        test_idx = [30, 40, 50]
        mse = evaluate_prediction(sel, stream, test_idx, wide_hyper)
        assert mse.tolist() == [float(np.mean(stream.qoi[test_idx] ** 2))]

    def test_one_point_selection_matches_predict(self, small_spec, wide_hyper):
        stream = attach_gp_qoi(generate_periodic_stream(small_spec, seed=4), wide_hyper, seed=5)
        sel = SelectionResult(chosen=(10,), utility_trace=(), terminated="filled_k")
        test_idx = [30, 40, 50]
        mse = evaluate_prediction(sel, stream, test_idx, wide_hyper)
        X, y = stream.feature_matrix, stream.qoi
        errors = [predict(X[[10]], y[[10]], X[t], wide_hyper).mean - y[t] for t in test_idx]
        assert mse.shape == (2,)
        assert mse[1] == pytest.approx(float(np.mean(np.square(errors))), rel=1e-12)

    def test_duplicate_training_point_drives_error_down(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=1e-6)
        wave = np.array([[0.0], [1.0], [2.0], [3.0]])
        spec = PeriodicStreamSpec(period_T=4, noise_cov=np.zeros((1, 1)), length_N=12, base_waveform=wave)
        stream = generate_periodic_stream(spec, seed=0)
        stream = ObservationStream(stream.feature_matrix, stream.feature_matrix[:, 0] ** 2, spec)
        # Index 5 duplicates the features (and qoi) of test index 9 exactly.
        sel = SelectionResult(chosen=(5,), utility_trace=(), terminated="filled_k")
        mse = evaluate_prediction(sel, stream, [9], hyper)
        assert mse[1] < 1e-6

    def test_overlap_rejected(self, small_spec, wide_hyper):
        stream = attach_gp_qoi(generate_periodic_stream(small_spec, seed=4), wide_hyper, seed=5)
        sel = SelectionResult(chosen=(10, 20), utility_trace=(), terminated="filled_k")
        with pytest.raises(ValueError, match="overlap"):
            evaluate_prediction(sel, stream, [20, 30], wide_hyper)

    def test_requires_qoi(self, small_spec, wide_hyper):
        stream = generate_periodic_stream(small_spec, seed=4)
        sel = SelectionResult(chosen=(10,), utility_trace=(), terminated="filled_k")
        with pytest.raises(ValueError, match="qoi"):
            evaluate_prediction(sel, stream, [30], wide_hyper)

    @pytest.mark.parametrize(
        "chosen, test_idx, what",
        [((0,), [2, 3], "test indices"), ((1, 2), [0], "selected indices")],
    )
    def test_missing_qoi_value_rejected(self, tmp_path, wide_hyper, chosen, test_idx, what):
        # Row t = 2 has a nan qoi cell; ingest keeps it as NaN at index 2.
        path = tmp_path / "s.csv"
        path.write_text("t,x,qoi\n0,0.1,1.0\n1,0.4,2.0\n2,0.7,nan\n3,0.9,4.0\n")
        stream = ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",), qoi_col="qoi"))
        assert np.isnan(stream.qoi[2])
        sel = SelectionResult(chosen=chosen, utility_trace=(), terminated="filled_k")
        with pytest.raises(ValueError, match=f"some {what} have no qoi value"):
            evaluate_prediction(sel, stream, test_idx, wide_hyper)


class TestRunComparison:
    def _config(self, runs=3, k=5, seed=11):
        return ExperimentConfig(
            algorithms=(
                AlgorithmSpec("periodic", threshold_slack=0.3),
                AlgorithmSpec("greedy"),
                AlgorithmSpec("scheduled"),
                AlgorithmSpec("random"),
            ),
            k=k,
            period_T=8,
            runs=runs,
            seed=seed,
        )

    def test_synthetic_source_shapes(self, base_stream, wide_hyper):
        report = run_comparison(base_stream, self._config(), wide_hyper)
        assert report.labels == ("periodic:0.3", "greedy", "scheduled", "random")
        for lab in report.labels:
            assert report.utility_mean[lab].shape == (5,)
            assert report.mse_mean[lab].shape == (6,)
            assert report.utility_runs[lab].shape == (3, 5)
        assert report.fill_mean["scheduled"] == 5.0

    def test_permuted_source_requires_qoi_for_mse(self, small_spec, wide_hyper):
        stream = generate_periodic_stream(small_spec, seed=1)
        with pytest.raises(ValueError, match="no qoi column"):
            run_comparison(stream, self._config(), wide_hyper)
        report = run_comparison(stream, self._config(), wide_hyper, compute_mse=False)
        assert report.mse_mean is None

    def test_reproducible_bit_for_bit(self, base_stream, wide_hyper, tmp_path):
        a = run_comparison(base_stream, self._config(), wide_hyper)
        b = run_comparison(base_stream, self._config(), wide_hyper)
        for lab in a.labels:
            assert np.array_equal(a.utility_runs[lab], b.utility_runs[lab])
            assert np.array_equal(a.mse_runs[lab], b.mse_runs[lab])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        write_comparison_report(a, out_a)
        write_comparison_report(b, out_b)
        for name in ("utility_curves.csv", "mse_curves.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_greedy_mean_dominates_streaming(self, base_stream, wide_hyper):
        report = run_comparison(base_stream, self._config(runs=8, seed=21), wide_hyper)
        greedy_final = report.utility_mean["greedy"][-1]
        for lab in report.labels:
            assert greedy_final >= report.utility_mean[lab][-1] - 1e-9

    def test_utility_curves_non_decreasing(self, base_stream, wide_hyper):
        report = run_comparison(base_stream, self._config(), wide_hyper)
        for lab in report.labels:
            curve = report.utility_mean[lab]
            assert np.all(np.diff(curve) >= -1e-9)

    def test_test_split_disjoint_from_selection(self, base_stream, wide_hyper):
        # Selections must avoid the held-out indices in every run; this is
        # implied by evaluate_prediction not raising inside run_comparison.
        report = run_comparison(base_stream, self._config(runs=5, seed=33), wide_hyper)
        assert report.runs == 5

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            AlgorithmSpec("simulated_annealing")

    def test_periodic_requires_slack(self):
        with pytest.raises(ValueError, match="threshold_slack"):
            AlgorithmSpec("periodic")

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AlgorithmSpec("periodic", threshold_slack=-1.0)


class TestValidateBounds:
    def test_noiseless_modular_zero_violations(self):
        spec = PeriodicStreamSpec(
            period_T=4,
            noise_cov=np.zeros((1, 1)),
            length_N=24,
            base_waveform=np.array([[0.0], [3.0], [1.0], [2.0]]),
        )
        report = validate_bounds(
            spec, modular_factory, k_values=[1, 2], slack_values=[0.0], runs=3, seed=2
        )
        assert report.utility_noise_estimate == pytest.approx(0.0, abs=1e-15)
        assert report.violations == ()
        assert all(not c.informational for c in report.cells)

    def test_corrupted_gap_is_flagged(self, monkeypatch):
        # A gap scaled by -20 pushes the bound above the optimum itself, so
        # a sound detector must flag it (plain halving cannot force a
        # violation here: the true bound is loose by the 1-1/e factor).
        spec = PeriodicStreamSpec(
            period_T=4,
            noise_cov=np.array([[0.2]]),
            length_N=40,
            base_waveform=np.array([[0.0], [3.0], [1.0], [2.0]]),
        )
        honest = validate_bounds(
            spec, modular_factory, k_values=[2], slack_values=[0.3], runs=6, seed=4
        )
        assert honest.violations == ()
        true_gap = periodic_secretary.bounds.per_step_gap
        monkeypatch.setattr(
            periodic_secretary.bounds, "per_step_gap", lambda *a: -20.0 * true_gap(*a)
        )
        corrupted = validate_bounds(
            spec, modular_factory, k_values=[2], slack_values=[0.3], runs=6, seed=4
        )
        assert any(c.utility_violation for c in corrupted.cells)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_non_monotone_entropy_refused_before_any_run(self, monkeypatch, noise):
        # Below noise_variance = 1/(2*pi*e) an entropy gain can be negative, so
        # the utility is not monotone and the bounds do not hold; the check
        # must come before the first selector run.
        def no_runs(*a, **kw):
            raise AssertionError("a selector ran")

        monkeypatch.setattr(periodic_secretary.harness, "_periodic_runs", no_runs)
        monkeypatch.setattr(periodic_secretary.harness, "exhaustive_optimum", no_runs)
        spec = PeriodicStreamSpec(
            period_T=4,
            noise_cov=np.array([[0.1]]),
            length_N=16,
            base_waveform=np.array([[0.0], [3.0], [1.0], [2.0]]),
        )
        hyper = GPHyperparams(lengthscales=np.array([0.5]), signal_variance=1.0, noise_variance=noise)
        for utility in (UtilityFunction.entropy(hyper), lambda s: UtilityFunction.entropy(hyper)):
            with pytest.raises(ValueError, match=r"1/\(2\*pi\*e\) = 0\.05855"):
                validate_bounds(spec, utility, k_values=[1], slack_values=[0.0], runs=2, seed=0)

    def test_large_instances_marked_informational(self):
        spec = PeriodicStreamSpec(
            period_T=4,
            noise_cov=np.array([[0.1]]),
            length_N=32,
            base_waveform=np.array([[0.0], [3.0], [1.0], [2.0]]),
        )
        # k = 5 is above the largest k whose optimum is enumerated exactly.
        report = validate_bounds(
            spec, modular_factory, k_values=[5], slack_values=[0.2], runs=3, seed=5
        )
        assert all(c.informational for c in report.cells)
        assert all(not c.utility_violation for c in report.cells)


class TestWriters:
    def test_tuning_csv(self, small_spec, wide_hyper, tmp_path):
        result = tune_threshold_slack(
            small_spec, UtilityFunction.entropy(wide_hyper), k=3, slack_grid=[0.0, 0.5], runs=2, seed=0
        )
        path = tmp_path / "tuning.csv"
        write_tuning_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold_slack,mean_utility,sd_utility,mean_fill"
        assert len(lines) == 3
