import math

import numpy as np
import pytest

import periodic_secretary.bounds
import periodic_secretary.harness
from periodic_secretary import (
    AlgorithmSpec,
    BoundInputs,
    CsvSchema,
    ExperimentConfig,
    GPHyperparams,
    ObservationStream,
    PeriodicStreamSpec,
    SelectionResult,
    UtilityFunction,
    PeriodicSecretaryConfig,
    attach_gp_qoi,
    bound_report,
    estimate_utility_noise,
    evaluate_prediction,
    generate_periodic_stream,
    ingest_csv,
    predict_many,
    run_comparison,
    tune_threshold_slack,
    validate_bounds,
)
from periodic_secretary.harness import (
    BoundValidationCell,
    BoundValidationReport,
    _mse_curves,
    derive_seeds,
    write_comparison_report,
    write_tuning_csv,
)
from periodic_secretary import selectors
from periodic_secretary.stream import two_sine_waveform

from reference import se_kernel


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


def per_cell_tune_threshold_slack(spec, utility, k, slack_grid, runs, seed):
    """tune_threshold_slack as one periodic run per (slack, trial) in grid
    order, each slack's statistics taken over its own runs. Returns the
    statistics by field name and each run's (config, picks) in call order."""
    seeds = derive_seeds(seed, periodic_secretary.harness._TAG_TUNE, runs)
    streams = [generate_periodic_stream(spec, s) for s in seeds]
    utilities = [utility if isinstance(utility, UtilityFunction) else utility(s) for s in streams]
    slacks = sorted(float(s) for s in slack_grid)
    ddof = 1 if runs > 1 else 0
    calls, rows = [], []
    for slack in slacks:
        cfg = PeriodicSecretaryConfig(k=k, period_T=spec.period_T, threshold_slack=slack)
        results = [selectors.periodic_secretary(s.observations, f, cfg)
                   for s, f in zip(streams, utilities)]
        calls += [(cfg, r.chosen) for r in results]
        finals = np.array([r.utility_trace[-1] if r.chosen else 0.0 for r in results])
        fills = np.array([len(r.chosen) for r in results], dtype=float)
        rows.append((finals.mean(), np.std(finals - finals[0], ddof=ddof),
                     fills.mean(), np.std(fills - fills[0], ddof=ddof)))
    stats = dict(zip(("mean_utility", "sd_utility", "mean_fill", "sd_fill"), map(list, zip(*rows))))
    means = stats["mean_utility"]
    stats["best_slack"] = slacks[means.index(max(means))]  # the first maximum
    return stats, calls


class TestTuneThresholdSlack:
    @pytest.mark.parametrize("runs", [1, 3, 4])
    @pytest.mark.parametrize("entropy", [False, True])
    def test_matches_per_cell_oracle(self, monkeypatch, small_spec, wide_hyper, entropy, runs):
        utility = UtilityFunction.entropy(wide_hyper) if entropy else modular_factory
        calls = []

        def recorded(view, f, cfg):
            result = selectors.periodic_secretary(view, f, cfg)
            calls.append((cfg, result.chosen))
            return result

        monkeypatch.setattr(periodic_secretary.harness, "periodic_secretary", recorded)
        hexes = lambda values: [float(v).hex() for v in values]
        # k = 8 of 56 arrivals: the smallest slacks leave some runs short of
        # k, so fills vary between runs and slacks, and the best slack is not
        # the first.
        for seed in range(3):
            calls.clear()
            args = (small_spec, utility, 8, [0.5, 0.0, 1.2, 0.1], runs, seed)
            result = tune_threshold_slack(*args)
            stats, expected_calls = per_cell_tune_threshold_slack(*args)
            assert calls == expected_calls
            assert result.best_slack == stats.pop("best_slack")
            for name, values in stats.items():
                assert hexes(getattr(result, name)) == hexes(values), name

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

    def test_single_period_refused(self, wide_hyper):
        # A spec cannot be shorter than one period; one period leaves nothing to pick.
        spec = PeriodicStreamSpec(
            period_T=8, noise_cov=np.array([[0.3]]), length_N=8,
            base_waveform=two_sine_waveform(8),
        )
        with pytest.raises(ValueError, match="no observation after the reference period"):
            tune_threshold_slack(
                spec, UtilityFunction.entropy(wide_hyper), k=2, slack_grid=[0.0, 0.5],
                runs=2, seed=0,
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

    def test_draws_from_the_noisy_prior(self, small_spec, wide_hyper):
        # qoi = L z for the Cholesky factor L of K + noise I and the seed's
        # standard normals z; the features are kept as they are.
        stream = generate_periodic_stream(small_spec, seed=1)
        X = stream.feature_matrix
        K = np.array([[se_kernel(a, b, wide_hyper) for b in X] for a in X])
        L = np.linalg.cholesky(K + wide_hyper.noise_variance * np.eye(len(X)))
        z = np.random.default_rng(2).standard_normal(len(X))
        drawn = attach_gp_qoi(stream, wide_hyper, seed=2)
        np.testing.assert_allclose(drawn.qoi, L @ z, rtol=1e-9, atol=1e-12)
        assert np.array_equal(drawn.feature_matrix, X)


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
        errors = [predict_many(X[[10]], y[[10]], X[[t]], wide_hyper)[0][0] - y[t] for t in test_idx]
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


class TestMseCurves:
    """``run_comparison`` scores a trial's selections in one call, stacked by
    length; each curve must be ``evaluate_prediction``'s for that selection
    alone, bit for bit, and each refusal its refusal."""

    def test_batch_equals_each_selection_alone(self, small_spec, wide_hyper):
        stream = attach_gp_qoi(generate_periodic_stream(small_spec, seed=4), wide_hyper, seed=5)
        test_idx = [30, 40, 50, 55]
        chosen = [(10, 20, 3), (), (7,), (1, 2, 4, 5, 6), (11, 12, 13), (), (25, 8, 9)]
        selections = [SelectionResult(chosen=c, utility_trace=(), terminated="filled_k")
                      for c in chosen]
        curves = _mse_curves(selections, stream, test_idx, wide_hyper)
        assert [len(c) for c in curves] == [len(c) + 1 for c in chosen]
        for curve, sel in zip(curves, selections):
            assert np.array_equal(curve, evaluate_prediction(sel, stream, test_idx, wide_hyper))

    @pytest.mark.parametrize(
        "bad, test_idx, what",
        [((1, 3), [3], "test indices overlap the selection: \\[3\\]"),
         ((1,), [2, 3], "some test indices have no qoi value"),
         ((0, 2), [3], "some selected indices have no qoi value")],
    )
    def test_refuses_as_evaluate_prediction(self, tmp_path, wide_hyper, bad, test_idx, what):
        # Row t = 2 has a nan qoi cell; the bad selection sits between good ones.
        path = tmp_path / "s.csv"
        path.write_text("t,x,qoi\n0,0.1,1.0\n1,0.4,2.0\n2,0.7,nan\n3,0.9,4.0\n4,1.2,0.5\n")
        stream = ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",), qoi_col="qoi"))
        good = SelectionResult(chosen=(4,), utility_trace=(), terminated="filled_k")
        sel = SelectionResult(chosen=bad, utility_trace=(), terminated="filled_k")
        with pytest.raises(ValueError, match=what):
            evaluate_prediction(sel, stream, test_idx, wide_hyper)
        with pytest.raises(ValueError, match=what):
            _mse_curves([good, sel, good], stream, test_idx, wide_hyper)


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

    @pytest.mark.parametrize("compute_mse", [True, False])
    def test_stream_shorter_than_a_period_refused(self, base_stream, wide_hyper, compute_mse):
        short = ObservationStream(base_stream.feature_matrix[:5], base_stream.qoi[:5])
        with pytest.raises(ValueError, match=r"5 observations, fewer than one period \(period_T=8\)"):
            run_comparison(short, self._config(), wide_hyper, compute_mse=compute_mse)

    def test_single_period_refused_with_mse_only(self, base_stream, wide_hyper):
        one = ObservationStream(base_stream.feature_matrix[:8], base_stream.qoi[:8])
        with pytest.raises(ValueError, match="MSE needs a test position after the reference period"):
            run_comparison(one, self._config(), wide_hyper)
        report = run_comparison(one, self._config(), wide_hyper, compute_mse=False)
        assert report.fill_mean["periodic:0.3"] == 0.0
        assert report.fill_mean["greedy"] == 5.0

    @pytest.mark.parametrize("after", [1, 5])
    def test_no_room_for_a_test_position_and_k_picks_refused_with_mse_only(
        self, base_stream, wide_hyper, after
    ):
        # k = 5: holding out one of `after` <= 5 positions past the period
        # would leave the periodic secretary fewer than k to pick from.
        n = 8 + after
        short = ObservationStream(base_stream.feature_matrix[:n], base_stream.qoi[:n])
        with pytest.raises(ValueError, match=(
            rf"but the stream has {n} observations and period_T=8, so the {after} after it"
            rf" cannot also hold k=5 picks$"
        )):
            run_comparison(short, self._config(), wide_hyper)
        report = run_comparison(short, self._config(), wide_hyper, compute_mse=False)
        assert report.fill_mean["greedy"] == 5.0

    def test_one_test_position_beside_k_picks_is_enough(self, base_stream, wide_hyper):
        room = ObservationStream(base_stream.feature_matrix[:14], base_stream.qoi[:14])
        report = run_comparison(room, self._config(), wide_hyper)
        assert report.mse_mean is not None

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

    def test_nan_slack_rejected(self):
        with pytest.raises(ValueError, match="non-negative, got nan"):
            AlgorithmSpec("periodic", threshold_slack=float("nan"))


def forbid_selector_runs(monkeypatch):
    """Make every selector run that validate_bounds can start fail the test."""
    def no_runs(*a, **kw):
        raise AssertionError("a selector ran")

    for name in ("_periodic_runs", "periodic_secretary", "offline_greedy", "exhaustive_optimum"):
        monkeypatch.setattr(periodic_secretary.harness, name, no_runs)


def per_cell_validate_bounds(spec, utility, k_values, slack_values, runs, seed):
    """validate_bounds as one optimum per (k, trial) and one periodic run per
    (k, slack, trial), each at its own k."""
    seeds = derive_seeds(seed, periodic_secretary.harness._TAG_TRIAL, runs)
    streams = [generate_periodic_stream(spec, s) for s in seeds]
    utilities = [utility if isinstance(utility, UtilityFunction) else utility(s) for s in streams]
    noise_est = float(np.mean([estimate_utility_noise(s, u) for s, u in zip(streams, utilities)]))
    cells = []
    for k in k_values:
        exact = k <= 4 and math.comb(spec.length_N, k) <= selectors.EXACT_MAX_SUBSETS
        oracle = selectors.exhaustive_optimum if exact else selectors.offline_greedy
        f_opt = float(np.mean(
            [oracle(s.observations, f, k).final_utility for s, f in zip(streams, utilities)]
        ))
        for slack in slack_values:
            cfg = PeriodicSecretaryConfig(k=k, period_T=spec.period_T, threshold_slack=slack)
            results = [selectors.periodic_secretary(s.observations, f, cfg)
                       for s, f in zip(streams, utilities)]
            finals = np.array([r.utility_trace[-1] if r.chosen else 0.0 for r in results])
            succ = np.array([len(r.chosen) for r in results], dtype=float)
            bound = bound_report(BoundInputs(
                k=k, threshold_slack=slack, utility_noise=noise_est,
                stream_len_N=spec.length_N, period_T=spec.period_T, f_opt=f_opt,
            ))
            se_u = float(np.std(finals - finals[0], ddof=1) / math.sqrt(runs))
            se_s = float(np.std(succ - succ[0], ddof=1) / math.sqrt(runs))
            cells.append(BoundValidationCell(
                k=k, threshold_slack=slack, runs=runs,
                mean_utility=float(finals.mean()), se_utility=se_u,
                mean_successes=float(succ.mean()), se_successes=se_s,
                utility_bound=bound.utility_lower_bound, success_bound=bound.expected_successes,
                vacuous=bound.vacuous, informational=not exact,
                utility_violation=(not bound.vacuous and exact
                                   and finals.mean() - 3 * se_u < bound.utility_lower_bound),
                success_violation=succ.mean() - 3 * se_s < bound.expected_successes,
            ))
    return BoundValidationReport(cells=tuple(cells), utility_noise_estimate=noise_est)


class TestValidateBounds:
    @pytest.mark.parametrize("entropy", [False, True])
    def test_matches_per_cell_oracle(self, entropy):
        # Inexact optima are read from one greedy run per trial. Unsorted and
        # repeated k, and exact cells beside inexact ones: under entropy
        # k = 5, 6 exceed the enumerated k; under the modular utility
        # C(120, 4) exceeds the subset cap, so k = 4 is inexact there too.
        if entropy:
            spec = PeriodicStreamSpec(
                period_T=4, noise_cov=np.array([[0.3]]), length_N=24,
                base_waveform=np.array([[0.0], [3.0], [1.0], [2.0]]),
            )
            hyper = GPHyperparams(lengthscales=np.array([0.7]), signal_variance=1.0, noise_variance=0.1)
            utility, k_values = UtilityFunction.entropy(hyper), [6, 1, 2, 6, 5]
        else:
            spec = PeriodicStreamSpec(
                period_T=12, noise_cov=np.array([[0.35]]), length_N=120,
                base_waveform=two_sine_waveform(12),
            )
            utility, k_values = modular_factory, [4, 2, 7, 3, 4, 1]
        slacks = [0.3, 0.0, 1.0]
        for seed in range(3):
            args = (spec, utility, k_values, slacks, 3 + seed, seed)
            report = validate_bounds(*args)
            assert report == per_cell_validate_bounds(*args)
            assert {c.informational for c in report.cells} == {False, True}

    def test_empty_grid_gives_empty_report(self, small_spec):
        for k_values, slacks in (([], [0.1]), ([2], [])):
            report = validate_bounds(small_spec, modular_factory, k_values, slacks, runs=2, seed=1)
            assert report.cells == ()

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused_before_any_run(self, monkeypatch, small_spec, k):
        forbid_selector_runs(monkeypatch)
        with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
            validate_bounds(small_spec, modular_factory, [2, k], [0.0], runs=2, seed=0)

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
        forbid_selector_runs(monkeypatch)
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


class TestRefusals:
    """Each refusal of the comparison protocol, with its exact message."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"algorithms": ()}, "need at least one algorithm"),
            (
                {"algorithms": (AlgorithmSpec("random"), AlgorithmSpec("random"))},
                "duplicate algorithm labels: ['random', 'random']",
            ),
            ({"k": 0}, "k must be positive, got 0"),
            ({"period_T": 0}, "period_T must be positive, got 0"),
            ({"runs": 0}, "runs must be positive, got 0"),
            ({"test_fraction": 1.0}, "test_fraction must be in (0, 1), got 1.0"),
        ],
    )
    def test_experiment_config(self, change, message):
        fields = dict(algorithms=(AlgorithmSpec("scheduled"),), k=2, period_T=8, runs=2, seed=0)
        ExperimentConfig(**fields)  # valid as it stands
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**{**fields, **change})
        assert str(exc.value) == message

    def test_validate_bounds_needs_two_runs(self, small_spec):
        with pytest.raises(ValueError) as exc:
            validate_bounds(small_spec, modular_factory, [1], [0.0], runs=1, seed=0)
        assert str(exc.value) == "bound validation needs runs >= 2 for standard errors"
