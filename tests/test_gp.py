import math

import numpy as np
import pytest

from periodic_secretary import (
    GPConditioner,
    GPHyperparams,
    load_hyperparams,
    predict,
    predict_many,
    prefix_means,
    save_hyperparams,
    se_kernel,
)
from periodic_secretary.gp import (
    GAUSSIAN_ENTROPY_CONST,
    VARIANCE_FLOOR,
    se_gram,
)

from conftest import random_hyper


def direct_conditional_variance(x, conditioning, hyper):
    """Oracle: prior - k*^T (K + noise I)^-1 k* by explicit matrix inverse."""
    X = np.atleast_2d(conditioning)
    k_star = np.array([se_kernel(x, row, hyper) for row in X])
    K = np.array([[se_kernel(a, b, hyper) for b in X] for a in X])
    K += hyper.noise_variance * np.eye(len(X))
    return hyper.prior_variance - k_star @ np.linalg.inv(K) @ k_star


class TestSeKernel:
    def test_zero_distance_gives_signal_variance(self, unit_hyper):
        x = np.array([0.7])
        assert se_kernel(x, x, unit_hyper) == unit_hyper.signal_variance

    def test_unit_distance_closed_form(self, unit_hyper):
        val = se_kernel(np.array([0.0]), np.array([1.0]), unit_hyper)
        assert val == pytest.approx(0.6065306597126334, abs=1e-12)

    def test_monotone_decay_to_zero(self, unit_hyper):
        dists = np.linspace(0, 20, 50)
        vals = [se_kernel(np.array([0.0]), np.array([d]), unit_hyper) for d in dists]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        hyper = random_hyper(rng, d=3)
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert se_kernel(x, y, hyper) == pytest.approx(se_kernel(y, x, hyper), abs=1e-15)

    def test_dimension_mismatch(self, unit_hyper):
        with pytest.raises(ValueError, match="dimension"):
            se_kernel(np.array([0.0, 1.0]), np.array([0.0, 1.0]), unit_hyper)


class TestConditionalVariance:
    def test_empty_conditioning_returns_prior(self, unit_hyper):
        assert GPConditioner(unit_hyper).conditional_variance(np.array([0.3])) == 1.01

    def test_conditioning_on_query_point_noiseless(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.0)
        cond = GPConditioner.from_points(np.array([[0.5]]), hyper)
        v = cond.conditional_variance(np.array([0.5]))
        assert VARIANCE_FLOOR <= v < 1e-9

    def test_one_point_path_checks_dimension(self):
        hyper = GPHyperparams(lengthscales=np.array([0.5, 0.5]), signal_variance=1.0, noise_variance=0.1)
        for cond in (GPConditioner(hyper), GPConditioner.from_points(np.array([[0.3, 0.3]]), hyper)):
            with pytest.raises(ValueError, match="query has dimension 1, lengthscales have 2"):
                cond.conditional_variance(np.array([0.3]))
            with pytest.raises(ValueError, match="query has dimension 1, lengthscales have 2"):
                cond.entropy(np.array([0.3]))

    def test_single_point_closed_form(self, unit_hyper):
        cond = GPConditioner.from_points(np.array([[1.0]]), unit_hyper)
        v = cond.conditional_variance(np.array([0.0]))
        expected = 1.01 - math.exp(-0.5) ** 2 / 1.01
        assert v == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6457629295332254, abs=1e-12)

    def test_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = rng.integers(1, 4)
            hyper = random_hyper(rng, d=d)
            m = rng.integers(1, 7)
            X = rng.normal(size=(m, d))
            x = rng.normal(size=d)
            v = GPConditioner.from_points(X, hyper).conditional_variance(x)
            assert v == pytest.approx(direct_conditional_variance(x, X, hyper), abs=1e-9)

    def test_never_exceeds_prior(self):
        rng = np.random.default_rng(7)
        hyper = random_hyper(rng)
        X = rng.normal(size=(5, 1))
        v = GPConditioner.from_points(X, hyper).conditional_variance(rng.normal(size=1))
        assert v <= hyper.prior_variance

    def test_monotone_shrinkage_under_supersets(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = rng.integers(1, 3)
            hyper = random_hyper(rng, d=d)
            nb = rng.integers(2, 9)
            B = rng.normal(size=(nb, d))
            na = rng.integers(1, nb)
            A = B[:na]
            x = rng.normal(size=d)
            vb = GPConditioner.from_points(B, hyper).conditional_variance(x)
            va = GPConditioner.from_points(A, hyper).conditional_variance(x)
            assert vb <= va + 1e-8


class TestDifferentialEntropy:
    def test_unit_variance_value(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=0.75, noise_variance=0.25)
        h = GPConditioner(hyper).entropy(np.array([0.0]))
        assert h == pytest.approx(1.4189385332046727, abs=1e-12)

    def test_doubling_variance_adds_half_log_two(self):
        h1 = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.0)
        h2 = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=2.0, noise_variance=0.0)
        x = np.array([0.0])
        diff = GPConditioner(h2).entropy(x) - GPConditioner(h1).entropy(x)
        assert diff == pytest.approx(0.5 * math.log(2), abs=1e-14)

    def test_monotone_in_conditioning(self, unit_hyper):
        x = np.array([0.0])
        h0 = GPConditioner(unit_hyper).entropy(x)
        h1 = GPConditioner.from_points(np.array([[0.8]]), unit_hyper).entropy(x)
        h2 = GPConditioner.from_points(np.array([[0.8], [0.4]]), unit_hyper).entropy(x)
        assert h0 > h1 > h2


class TestPredict:
    def test_interpolates_training_point_without_noise(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.0)
        X = np.array([[0.0], [1.5]])
        y = np.array([2.0, -1.0])
        p = predict(X, y, np.array([1.5]), hyper)
        assert p.mean == pytest.approx(-1.0, abs=1e-8)
        assert p.variance < 1e-9

    def test_reverts_to_prior_far_away(self, unit_hyper):
        X = np.array([[0.0]])
        y = np.array([3.0])
        p = predict(X, y, np.array([50.0]), unit_hyper)
        assert abs(p.mean) < 1e-8
        assert p.variance == pytest.approx(unit_hyper.prior_variance, abs=1e-8)

    def test_two_point_system_against_hand_solve(self, unit_hyper):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        q = np.array([0.25])
        k01 = se_kernel(X[0], X[1], unit_hyper)
        K = np.array([[1.01, k01], [k01, 1.01]])
        ks = np.array(
            [se_kernel(q, X[0], unit_hyper), se_kernel(q, X[1], unit_hyper)]
        )
        alpha = np.linalg.inv(K) @ y
        p = predict(X, y, q, unit_hyper)
        assert p.mean == pytest.approx(float(ks @ alpha), abs=1e-10)
        assert p.variance == pytest.approx(
            1.01 - float(ks @ np.linalg.inv(K) @ ks), abs=1e-10
        )

    def test_variance_agrees_with_conditional_variance(self):
        # The posterior variance never depends on the observed values.
        rng = np.random.default_rng(3)
        for _ in range(10):
            hyper = random_hyper(rng, d=2)
            X = rng.normal(size=(6, 2))
            q = rng.normal(size=2)
            for y in (rng.normal(size=6), rng.normal(size=6) * 100):
                p = predict(X, y, q, hyper)
                assert p.variance == pytest.approx(
                    GPConditioner.from_points(X, hyper).conditional_variance(q), abs=1e-10
                )

    def test_empty_training_set_rejected(self, unit_hyper):
        with pytest.raises(ValueError, match="non-empty"):
            predict(np.empty((0, 1)), np.empty(0), np.array([0.0]), unit_hyper)

    @pytest.mark.parametrize("fn", [predict_many, prefix_means])
    @pytest.mark.parametrize(
        "X, y, match",
        [
            (np.zeros((2, 2)), np.zeros(2), "dimension 2"),
            (np.zeros((2, 1)), np.zeros(3), "2 training points but 3 values"),
            (np.array([[0.0], [np.inf]]), np.zeros(2), "non-finite"),
            (np.zeros((2, 1)), np.array([0.0, np.nan]), "non-finite"),
        ],
    )
    def test_bad_training_data_rejected(self, unit_hyper, fn, X, y, match):
        with pytest.raises(ValueError, match=match):
            fn(X, y, np.array([[0.0]]), unit_hyper)


class TestGramFactorization:
    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = rng.integers(1, 4)
            hyper = random_hyper(rng, d=d)
            X = rng.normal(size=(rng.integers(2, 11), d))
            eigs = np.linalg.eigvalsh(se_gram(X, hyper))
            assert eigs.min() >= -1e-8

    def test_conditioner_incremental_matches_batch(self):
        rng = np.random.default_rng(23)
        hyper = random_hyper(rng, d=2)
        X = rng.normal(size=(8, 2))
        inc = GPConditioner(hyper)
        for x in X:
            inc.extend(x)
        batch = GPConditioner.from_points(X, hyper)
        Q = rng.normal(size=(5, 2))
        np.testing.assert_allclose(
            inc.conditional_variances(Q), batch.conditional_variances(Q), atol=1e-10
        )

    def test_duplicate_points_survive_via_jitter(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.0)
        cond = GPConditioner(hyper)
        cond.extend(np.array([0.5]))
        cond.extend(np.array([0.5]))  # would make the Gram singular without jitter
        cond.extend(np.array([0.5]))
        v = cond.conditional_variance(np.array([0.5]))
        assert VARIANCE_FLOOR <= v < 1e-5

    @pytest.mark.parametrize(
        "signal_variance", [1.0, 2.0, 1e-3, 1e4] + [10.0**e for e in (-2, -1, 1, 2, 3, 5, 6, 7, 8)]
    )
    def test_roundoff_pivot_escalates_jitter(self, signal_variance):
        # At zero noise a duplicate's squared pivot is 0 in exact arithmetic
        # but can round to +1 ulp of the prior (signal variance 2 gives
        # 4.4e-16, a pivot of 2.1e-8); that is a breakdown too.
        hyper = GPHyperparams(
            lengthscales=np.array([1.0]), signal_variance=signal_variance, noise_variance=0.0
        )
        cond = GPConditioner(hyper)
        cond.extend(np.array([0.5]))
        cond.extend(np.array([0.5]))
        # The refactor takes the first jitter level, 1e-10 of the prior
        # variance, at any prior scale: its squared pivot is twice that
        # jitter, above roundoff of the prior.
        assert cond._level == 1
        pivot = 1.0 / cond._W[1, 1]  # W = L^-1 has the reciprocal pivots on its diagonal
        assert pivot > 1e-6 * math.sqrt(hyper.prior_variance)
        assert pivot**2 / hyper.prior_variance == pytest.approx(2e-10, rel=1e-4)

    def test_noisy_duplicates_keep_jitter_off(self):
        hyper = GPHyperparams(lengthscales=np.array([0.3]), signal_variance=2.0, noise_variance=0.1)
        cond = GPConditioner(hyper)
        for _ in range(5):
            cond.extend(np.array([0.5]))
        assert cond._level == 0


    def test_reserve_changes_no_result_and_stops_regrowth(self):
        # A conditioner sized up front gives the bits of one that grows by
        # doubling, through a jitter refactor too, and keeps its buffers.
        rng = np.random.default_rng(29)
        hyper = GPHyperparams(lengthscales=np.array([0.7, 1.3]), signal_variance=1.5, noise_variance=0.0)
        X = rng.normal(size=(20, 2))
        X[7] = X[3]  # an exact duplicate: the refactor path
        pool, queries = rng.normal(size=(30, 2)), rng.normal(size=(4, 2))
        grown, sized = GPConditioner(hyper), GPConditioner(hyper)
        sized.reserve(20, 30)
        buffers = [sized._Sbuf, sized._kbuf, sized._Wbuf, sized._Ps, sized._Z, sized._v]
        for cond in (grown, sized):
            cond.track(pool)
        for x in X:
            assert grown.extend(x) == sized.extend(x)
            for q in queries:
                assert grown.conditional_variance(q) == sized.conditional_variance(q)
            assert np.array_equal(grown.tracked_variances(), sized.tracked_variances())
        assert sized._level == grown._level == 1
        assert all(a is b for a, b in zip(buffers, [sized._Sbuf, sized._kbuf, sized._Wbuf,
                                                     sized._Ps, sized._Z, sized._v]))

    def test_singular_gram_at_zero_noise_escalates_batch_jitter(self):
        # 4 points in 1-D, one location repeated under two different values:
        # the Gram matrix is exactly singular, and np.linalg.cholesky can
        # still succeed with a roundoff pivot (seeds 6 and 11 do). That pivot
        # escalates the ladder, and every prefix mean comes from one jittered
        # factor, so the last row equals predict_many on the full set.
        for seed in range(12):
            rng = np.random.default_rng(seed)
            hyper = GPHyperparams(
                lengthscales=rng.uniform(0.3, 2.0, size=1),
                signal_variance=rng.uniform(0.5, 2.0),
                noise_variance=0.0,
            )
            X = rng.normal(size=(3, 1))
            X = np.vstack([X, X[1]])
            y = rng.normal(size=4)
            Q = rng.normal(size=(5, 1))
            assert GPConditioner.from_points(X, hyper)._level >= 1
            expected, _ = predict_many(X, y, Q, hyper)
            np.testing.assert_allclose(
                prefix_means(X, y, Q, hyper)[-1], expected, rtol=1e-9, atol=1e-12
            )


class TestHyperparamsConfig:
    def test_round_trip(self, tmp_path):
        hyper = GPHyperparams(
            lengthscales=np.array([0.123456789012, 4.5]),
            signal_variance=2.25,
            noise_variance=0.0625,
        )
        path = tmp_path / "hyper.cfg"
        save_hyperparams(hyper, path)
        back = load_hyperparams(path)
        np.testing.assert_allclose(back.lengthscales, hyper.lengthscales, rtol=1e-11)
        assert back.signal_variance == pytest.approx(hyper.signal_variance, rel=1e-11)
        assert back.noise_variance == pytest.approx(hyper.noise_variance, rel=1e-11)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "hyper.cfg"
        path.write_text("lengthscales = 1.0\nsignal_variance = 1.0\n")
        with pytest.raises(ValueError, match="noise_variance"):
            load_hyperparams(path)

    def test_callers_lengthscales_stay_writeable(self):
        ls = np.array([0.5, 2.0])
        hyper = GPHyperparams(lengthscales=ls, signal_variance=1.0, noise_variance=0.1)
        ls[0] = 9.0
        assert hyper.lengthscales.tolist() == [0.5, 2.0] and not hyper.lengthscales.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GPHyperparams(lengthscales=np.array([0.0]), signal_variance=1.0, noise_variance=0.0)
        with pytest.raises(ValueError, match="positive"):
            GPHyperparams(lengthscales=np.array([1.0]), signal_variance=0.0, noise_variance=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=-0.1)


def test_entropy_constant_value():
    assert GAUSSIAN_ENTROPY_CONST == pytest.approx(1.4189385332046727, abs=1e-15)
