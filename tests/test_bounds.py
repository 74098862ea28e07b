import math

import numpy as np
import pytest
from scipy.integrate import quad

from periodic_secretary import (
    BoundInputs,
    CsvSchema,
    GPConditioner,
    PeriodicStreamSpec,
    UtilityFunction,
    bound_report,
    estimate_utility_noise,
    expected_max_gap,
    expected_successes,
    full_selection_bound,
    gaussian_tail_q,
    generate_periodic_stream,
    ingest_csv,
    per_step_gap,
    utility_lower_bound,
)


def quad_tail(x):
    """Oracle: numerically integrate the standard normal density over (x, inf)."""
    val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, np.inf)
    return val


class TestGaussianTail:
    def test_zero_is_exactly_half(self):
        assert gaussian_tail_q(0.0) == 0.5

    @pytest.mark.parametrize("x", [-3.0, -1.0, -0.3, 0.7, 1.0, 3.0])
    def test_matches_integration_oracle(self, x):
        assert gaussian_tail_q(x) == pytest.approx(quad_tail(x), abs=1e-9)

    def test_frozen_reference_points(self):
        assert gaussian_tail_q(-1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
        assert gaussian_tail_q(3.0) == pytest.approx(0.0013498980316300957, abs=1e-12)

    def test_symmetry(self):
        for x in np.linspace(-4, 4, 17):
            assert gaussian_tail_q(x) + gaussian_tail_q(-x) == pytest.approx(1.0, abs=1e-12)


class TestExpectedMaxGap:
    def test_single_period_is_zero(self):
        assert expected_max_gap(2.5, 1) == 0.0

    def test_closed_form_at_e(self):
        assert expected_max_gap(2.0, math.e) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [10, 100])
    def test_upper_bounds_monte_carlo_maximum(self, n):
        sigma2 = 0.7
        rng = np.random.default_rng(123)
        draws = rng.normal(0.0, math.sqrt(sigma2), size=(100_000, n))
        mc_mean_max = draws.max(axis=1).mean()
        assert mc_mean_max <= expected_max_gap(sigma2, n)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expected_max_gap(1.0, 0.5)
        with pytest.raises(ValueError):
            expected_max_gap(-1.0, 10)
        with pytest.raises(ValueError):
            expected_max_gap(math.nan, 10)


class TestPerStepGap:
    def test_noiseless_zero_slack(self):
        assert per_step_gap(0.0, 0.0, 1000, 100) == 0.0

    def test_slack_is_additive(self):
        assert per_step_gap(0.5, 0.0, 777, 31) == 0.5

    def test_composes_with_max_gap(self):
        assert per_step_gap(0.1, 1.0, 40, 10) == pytest.approx(
            0.1 + math.sqrt(2 * math.log(4)), abs=1e-12
        )


class TestExpectedSuccesses:
    def test_zero_slack_halves_periods(self):
        inputs = BoundInputs(
            k=10, threshold_slack=0.0, utility_noise=0.35, stream_len_N=1000, period_T=100, f_opt=1.0
        )
        assert expected_successes(inputs) == 5.0

    def test_noiseless_limit_with_positive_slack(self):
        inputs = BoundInputs(
            k=20, threshold_slack=0.2, utility_noise=0.0, stream_len_N=1000, period_T=100, f_opt=1.0
        )
        assert expected_successes(inputs) == 10.0  # min(k, 1 * periods)

    def test_capped_at_k(self):
        inputs = BoundInputs(
            k=3, threshold_slack=0.0, utility_noise=0.1, stream_len_N=10000, period_T=100, f_opt=1.0
        )
        assert expected_successes(inputs) == 3.0

    def test_slack_is_measured_in_noise_standard_deviations(self):
        inputs = BoundInputs(
            k=50, threshold_slack=0.5, utility_noise=4.0, stream_len_N=400, period_T=10, f_opt=1.0
        )
        assert expected_successes(inputs) == 40 * gaussian_tail_q(-0.5 / 2.0)


class TestUtilityLowerBound:
    def test_noiseless_limit_frozen_value(self):
        inputs = BoundInputs(
            k=5, threshold_slack=0.1, utility_noise=0.0, stream_len_N=1000, period_T=100, f_opt=10.0
        )
        assert utility_lower_bound(inputs) == pytest.approx(6.005145308871298, abs=1e-12)

    def test_equals_full_bound_when_factor_one(self):
        inputs = BoundInputs(
            k=5, threshold_slack=0.3, utility_noise=0.0, stream_len_N=1000, period_T=100, f_opt=10.0
        )
        assert utility_lower_bound(inputs) == pytest.approx(full_selection_bound(inputs), abs=1e-12)

    def test_vacuous_when_opt_below_total_gap(self):
        inputs = BoundInputs(
            k=5, threshold_slack=1.0, utility_noise=0.0, stream_len_N=1000, period_T=100, f_opt=4.0
        )
        report = bound_report(inputs)
        assert report.utility_lower_bound <= 0
        assert report.vacuous

    def test_zero_slack_uses_half_success(self):
        inputs = BoundInputs(
            k=10, threshold_slack=0.0, utility_noise=0.25, stream_len_N=1000, period_T=100, f_opt=50.0
        )
        assert utility_lower_bound(inputs) == pytest.approx(
            0.5 * full_selection_bound(inputs), abs=1e-12
        )

    def test_non_increasing_in_noise(self):
        bounds = [
            full_selection_bound(
                BoundInputs(
                    k=4,
                    threshold_slack=0.1,
                    utility_noise=s2,
                    stream_len_N=1000,
                    period_T=100,
                    f_opt=20.0,
                )
            )
            for s2 in (0.0, 0.1, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_report_never_exceeds_full_bound_when_positive(self):
        inputs = BoundInputs(
            k=10, threshold_slack=0.2, utility_noise=0.3, stream_len_N=900, period_T=100, f_opt=40.0
        )
        report = bound_report(inputs)
        assert report.full_selection_bound > 0
        assert report.utility_lower_bound <= report.full_selection_bound


class TestBoundInputsValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            BoundInputs(k=0, threshold_slack=0.0, utility_noise=0.0, stream_len_N=10, period_T=2, f_opt=1.0)
        with pytest.raises(ValueError):
            BoundInputs(k=1, threshold_slack=-0.1, utility_noise=0.0, stream_len_N=10, period_T=2, f_opt=1.0)
        with pytest.raises(ValueError):
            BoundInputs(k=1, threshold_slack=0.0, utility_noise=0.0, stream_len_N=1, period_T=2, f_opt=1.0)

    @pytest.mark.parametrize("field", ["threshold_slack", "utility_noise", "f_opt"])
    def test_rejects_nan(self, field):
        fields = dict(k=1, threshold_slack=0.0, utility_noise=0.0, stream_len_N=10, period_T=2, f_opt=1.0)
        fields[field] = math.nan
        with pytest.raises(ValueError, match=f"{field} must be non-negative, got nan"):
            BoundInputs(**fields)


class TestEstimateUtilityNoise:
    @staticmethod
    def _spec(noise, length=60, period=6):
        return PeriodicStreamSpec(
            period_T=period,
            noise_cov=np.array([[noise]]),
            length_N=length,
            base_waveform=np.linspace(-1, 1, period)[:, None],
        )

    def test_noiseless_stream_estimates_zero(self):
        stream = generate_periodic_stream(self._spec(0.0), seed=1)
        f = UtilityFunction.modular(stream.feature_matrix[:, 0])
        assert estimate_utility_noise(stream, f) == pytest.approx(0.0, abs=1e-15)

    def test_single_period_rejected(self):
        stream = generate_periodic_stream(self._spec(0.1, length=8, period=6), seed=1)
        f = UtilityFunction.modular(stream.feature_matrix[:, 0])
        with pytest.raises(ValueError, match="2 full periods"):
            estimate_utility_noise(stream, f)

    def test_stream_without_spec_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t,x\n" + "".join(f"{i},{i % 3}\n" for i in range(12)))
        stream = ingest_csv(path, CsvSchema(index_col="t", feature_cols=("x",)))
        f = UtilityFunction.modular(stream.feature_matrix[:, 0])
        with pytest.raises(ValueError, match="no spec"):
            estimate_utility_noise(stream, f)

    def test_monte_carlo_recovers_known_noise(self):
        # Modular utility of a 1-d stream passes data noise straight through,
        # so the estimator should land near the generating variance.
        spec = self._spec(0.35, length=120, period=6)
        estimates = []
        for seed in range(100):
            stream = generate_periodic_stream(spec, seed=seed)
            f = UtilityFunction.modular(stream.feature_matrix[:, 0])
            estimates.append(estimate_utility_noise(stream, f))
        assert abs(np.mean(estimates) - 0.35) < 0.2 * 0.35

    @pytest.mark.parametrize("length", [13, 23, 60, 61, 65])
    def test_pools_each_phase_with_its_own_count(self, length):
        # T = 6 and N = 2T+1, 4T-1, 10T, 10T+1, 11T-1: the phases below N % T
        # have one more sample than the rest, and each phase's variance is
        # weighted by its own degrees of freedom.
        stream = generate_periodic_stream(self._spec(0.35, length=length), seed=length)
        weights = stream.feature_matrix[:, 0]
        num, den = 0.0, 0
        for p in range(6):
            u = weights[p::6]
            num += (len(u) - 1) * float(np.var(u, ddof=1))
            den += len(u) - 1
        assert estimate_utility_noise(stream, UtilityFunction.modular(weights)) == num / den

    def test_stationary_entropy_singletons_estimate_zero(self, unit_hyper):
        stream = generate_periodic_stream(self._spec(0.5), seed=3)
        f = UtilityFunction.entropy(unit_hyper)
        assert estimate_utility_noise(stream, f) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_singletons_come_from_one_conditioner(self, unit_hyper, monkeypatch):
        built = []
        init = GPConditioner.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GPConditioner, "__init__", counting)
        stream = generate_periodic_stream(self._spec(0.5), seed=3)
        estimate_utility_noise(stream, UtilityFunction.entropy(unit_hyper))
        assert len(built) == 1
