import math

import numpy as np
import pytest

from periodic_secretary import (
    GPHyperparams,
    Observation,
    PeriodicSecretaryConfig,
    PeriodicStreamSpec,
    UtilityFunction,
    entropy_criterion,
    estimate_utility_noise,
    exhaustive_optimum,
    generate_periodic_stream,
    offline_greedy,
    periodic_secretary,
    submodular_secretary,
)
from periodic_secretary.selectors import utility_trace_for

from conftest import make_observations, random_hyper
from reference import Counterexample, check_submodular_monotone


def oracle_joint_entropy(points, hyper):
    """Independent oracle: 0.5*ln((2*pi*e)^m det K~) with a hand-built Gram matrix."""
    points = np.atleast_2d(points)
    m = points.shape[0]
    if m == 0:
        return 0.0
    K = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            z = (points[i] - points[j]) / hyper.lengthscales
            K[i, j] = hyper.signal_variance * math.exp(-0.5 * float(z @ z))
            if i == j:
                K[i, j] += hyper.noise_variance
    _, logdet = np.linalg.slogdet(K)
    return 0.5 * (m * math.log(2 * math.pi * math.e) + logdet)


class TestEntropyCriterion:
    def test_empty_set_is_zero(self, unit_hyper):
        assert entropy_criterion(np.empty((0, 1)), unit_hyper) == 0.0

    def test_singleton_with_unit_prior(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=0.9, noise_variance=0.1)
        val = entropy_criterion(np.array([[0.4]]), hyper)
        assert val == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_pair_matches_determinant_oracle(self, unit_hyper):
        pts = np.array([[0.0], [0.7]])
        assert entropy_criterion(pts, unit_hyper) == pytest.approx(
            oracle_joint_entropy(pts, unit_hyper), abs=1e-10
        )

    def test_chain_rule_matches_determinant_up_to_eight_points(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            d = rng.integers(1, 3)
            hyper = random_hyper(rng, d=d)
            pts = rng.normal(size=(rng.integers(1, 9), d))
            assert entropy_criterion(pts, hyper) == pytest.approx(
                oracle_joint_entropy(pts, hyper), abs=1e-8
            )

    def test_order_independence(self):
        rng = np.random.default_rng(8)
        hyper = random_hyper(rng, d=2)
        pts = rng.normal(size=(6, 2))
        base = entropy_criterion(pts, hyper)
        for _ in range(5):
            perm = rng.permutation(6)
            assert entropy_criterion(pts[perm], hyper) == pytest.approx(base, abs=1e-8)


class TestMarginalGain:
    def test_entropy_gain_from_empty(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=0.9, noise_variance=0.1)
        f = UtilityFunction.entropy(hyper)
        obs = make_observations([0.5])
        assert f.value(obs[:1]) - f.value([]) == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_modular_gain_ignores_context(self):
        f = UtilityFunction.modular(np.array([5.0, 1.0, 9.0]))
        obs = make_observations([0.0, 0.0, 0.0])
        assert f.value([obs[2]]) - f.value([]) == 9.0
        assert f.value([obs[0], obs[2]]) - f.value([obs[0]]) == 9.0

    def test_gain_plus_value_equals_joint(self, unit_hyper):
        rng = np.random.default_rng(21)
        f = UtilityFunction.entropy(unit_hyper)
        obs = make_observations(rng.normal(size=5))
        g = f.value(obs) - f.value(obs[:4])
        assert g + f.value(obs[:4]) == pytest.approx(f.value(obs), rel=1e-12)

    def test_diminishing_returns_sampled(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            hyper = random_hyper(rng)
            f = UtilityFunction.entropy(hyper)
            obs = make_observations(rng.normal(size=6))
            x = obs[-1]
            a = rng.integers(1, 4)
            b = rng.integers(a, 5)
            gain_small = f.value([*obs[:a], x]) - f.value(obs[:a])
            gain_large = f.value([*obs[:b], x]) - f.value(obs[:b])
            assert gain_small >= gain_large - 1e-8

    def test_incremental_evaluator_matches_joint_difference(self, unit_hyper):
        rng = np.random.default_rng(45)
        f = UtilityFunction.entropy(unit_hyper)
        obs = make_observations(rng.normal(size=7))
        ev = f.evaluator()
        for i, o in enumerate(obs):
            expected = f.value(obs[: i + 1]) - f.value(obs[:i])
            assert ev.gain(o) == pytest.approx(expected, abs=1e-8)
            ev.accept(o)
        assert ev.value == pytest.approx(f.value(obs), abs=1e-8)

    def test_evaluator_batch_gains_match_loop(self, unit_hyper):
        rng = np.random.default_rng(52)
        f = UtilityFunction.entropy(unit_hyper)
        obs = make_observations(rng.normal(size=8))
        ev = f.evaluator()
        ev.accept(obs[0])
        ev.accept(obs[1])
        batch = ev.gains(obs[2:])
        np.testing.assert_allclose(batch, [ev.gain(o) for o in obs[2:]], atol=1e-12)

    def test_evaluator_rejects_re_accept(self, unit_hyper):
        f = UtilityFunction.entropy(unit_hyper)
        obs = make_observations([0.0])
        ev = f.evaluator()
        ev.accept(obs[0])
        with pytest.raises(ValueError, match="already"):
            ev.accept(obs[0])


class TestSubmodularityCheck:
    def test_modular_is_submodular_and_monotone(self):
        f = UtilityFunction.modular(np.array([1.0, 2.0, 0.5, 3.0]))
        ground = make_observations([0.0, 1.0, 2.0, 3.0])
        report = check_submodular_monotone(f, ground)
        assert report.submodular and report.monotone and report.witness is None

    def test_entropy_criterion_on_random_points(self):
        # Monotonicity of joint differential entropy needs conditional
        # variances >= 1/(2*pi*e), i.e. noise_variance above ~0.0585.
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.15)
        rng = np.random.default_rng(61)
        f = UtilityFunction.entropy(hyper)
        ground = make_observations(rng.normal(size=6))
        report = check_submodular_monotone(f, ground)
        assert report.submodular and report.monotone

    def test_entropy_criterion_submodular_even_with_tiny_noise(self, unit_hyper):
        # With tiny noise, near-duplicate points can make differential entropy
        # negative (non-monotone), but diminishing returns still hold.
        rng = np.random.default_rng(61)
        f = UtilityFunction.entropy(unit_hyper)
        ground = make_observations(rng.normal(size=6) * 0.1)
        report = check_submodular_monotone(f, ground)
        assert report.submodular

    def test_cardinality_squared_fails_with_witness(self):
        ground = make_observations(np.arange(4.0))
        report = check_submodular_monotone(lambda obs: float(len(obs)) ** 2, ground)
        assert not report.submodular
        assert report.monotone
        w = report.witness
        assert w is not None and w.property_violated == "submodularity"
        # The witness really violates diminishing returns.
        by_index = {o.index: o for o in ground}
        A = [by_index[i] for i in w.a_indices]
        B = [by_index[i] for i in w.b_indices]
        e = by_index[w.element]
        fn = lambda obs: float(len(obs)) ** 2
        assert fn([*A, e]) - fn(A) < fn([*B, e]) - fn(B)

    def test_decreasing_function_fails_monotonicity(self):
        ground = make_observations(np.arange(3.0))
        report = check_submodular_monotone(lambda obs: -float(len(obs)), ground)
        assert not report.monotone
        assert report.witness is not None

    def test_oversized_ground_set_refused(self, unit_hyper):
        ground = make_observations(np.arange(13.0))
        with pytest.raises(ValueError, match="12"):
            check_submodular_monotone(UtilityFunction.entropy(unit_hyper), ground)


class TestUtilityFunctionValidation:
    def test_entropy_requires_hyper(self):
        with pytest.raises(ValueError, match="hyperparameters"):
            UtilityFunction(kind="entropy")

    def test_modular_requires_weights(self):
        with pytest.raises(ValueError, match="weights"):
            UtilityFunction(kind="modular_sum")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            UtilityFunction(kind="variance")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_modular_refuses_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match="weight 2 is"):
            UtilityFunction.modular(np.array([1.0, 2.0, bad, bad]))

    @pytest.mark.parametrize("weights, shape", [(np.arange(10.0).reshape(5, 2), "(5, 2)"),
                                                (np.float64(3.0), "()")])
    def test_modular_refuses_weights_that_are_not_a_vector(self, weights, shape):
        # Flattened, the (5, 2) weights would score observation 7 of a 5-row stream.
        with pytest.raises(ValueError) as exc:
            UtilityFunction.modular(weights)
        assert str(exc.value) == f"modular weights must be a vector, got shape {shape}"


class TestModularWeights:
    @pytest.mark.parametrize("run", [offline_greedy, exhaustive_optimum])
    def test_k_zero_still_reads_every_weight(self, run):
        # Picking nothing still gathers the ground set's weights, so an index
        # with no weight is refused at k = 0 as at any k.
        obs = [Observation(0, np.zeros(1)), Observation(5, np.zeros(1))]
        with pytest.raises(ValueError, match=r"^no weight for observation index 5$"):
            run(obs, UtilityFunction.modular(np.ones(2)), 0)

    @pytest.mark.parametrize("run", ["offline_greedy", "submodular_secretary", "estimate_utility_noise"])
    def test_index_past_the_weights_is_named(self, run):
        # The first index past the weights, in the order the run reads them,
        # is the one named: greedy reads its ground set in index order (0, 1,
        # 5, 7), the secretary its stream in arrival order (7, 5, 1, 0) and
        # the noise estimate a stream of indices 0..7.
        f = UtilityFunction.modular(np.ones(3))
        obs = [Observation(i, np.array([0.0])) for i in (7, 5, 1, 0)]
        spec = PeriodicStreamSpec(
            period_T=2, noise_cov=np.zeros((1, 1)), length_N=8, base_waveform=np.zeros((2, 1))
        )
        calls = {
            "offline_greedy": (lambda: offline_greedy(obs, f, 1), 5),
            "submodular_secretary": (lambda: submodular_secretary(obs, f, 1), 7),
            "estimate_utility_noise": (lambda: estimate_utility_noise(generate_periodic_stream(spec, 0), f), 3),
        }
        call, named = calls[run]
        with pytest.raises(ValueError, match=rf"^no weight for observation index {named}$"):
            call()


_PERIODIC = PeriodicSecretaryConfig(k=10, period_T=2, threshold_slack=0.0)


@pytest.mark.parametrize("run", [
    lambda f, obs: f.value(obs),
    lambda f, obs: exhaustive_optimum(obs, f, 2),
    lambda f, obs: check_submodular_monotone(f, obs),
    lambda f, obs: offline_greedy(obs, f, 2),
    lambda f, obs: utility_trace_for(f, obs),
    lambda f, obs: periodic_secretary(obs, f, _PERIODIC),
    lambda f, obs: periodic_secretary(iter(obs), f, _PERIODIC),
], ids=["value", "exhaustive_optimum", "check_submodular_monotone",
        "offline_greedy", "utility_trace_for", "periodic_secretary_list",
        "periodic_secretary_iterator"])
def test_modular_index_without_weight_is_refused_by_name(run):
    # Every modular lookup goes through one gather and refuses an index past
    # the weights with one message, whichever entry point meets it.
    f = UtilityFunction.modular(np.arange(5.0))
    obs = make_observations(np.zeros(6))
    with pytest.raises(ValueError, match=r"^no weight for observation index 5$"):
        run(f, obs)


class TestEdges:
    def test_gains_of_no_observations(self, unit_hyper):
        gains = UtilityFunction.entropy(unit_hyper).evaluator().gains([])
        assert gains.shape == (0,) and gains.dtype == np.float64

    def test_check_stops_once_both_properties_fail(self):
        # |S|^2 - 3|S|: gains 2|A| - 2 grow with A, and f({e}) = -2 < f({}) = 0.
        report = check_submodular_monotone(
            lambda obs: float(len(obs)) ** 2 - 3 * len(obs), make_observations(np.arange(3.0))
        )
        assert (report.submodular, report.monotone) == (False, False)
        assert report.witness == Counterexample("submodularity", (), (0,), 1)
