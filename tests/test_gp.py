import math

import numpy as np
import pytest

from periodic_secretary import (
    GPConditioner,
    GPHyperparams,
    load_hyperparams,
    predict_many,
    prefix_means,
)
from periodic_secretary.gp import (
    GAUSSIAN_ENTROPY_CONST,
    VARIANCE_FLOOR,
    FactorizationError,
    _cholesky,
    _entropy_of,
    _variance_band,
)
from periodic_secretary.utility import _chain_variances, entropy_criterion

from conftest import random_hyper
from reference import batch_conditioner, se_kernel


def posterior_at(X, y, q, hyper):
    """``predict_many``'s mean and variance at the one query location q (row 0)."""
    means, variances = predict_many(X, y, np.atleast_2d(q), hyper)
    return float(means[0]), float(variances[0])


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
        cond = batch_conditioner(np.array([[0.5]]), hyper)
        v = cond.conditional_variance(np.array([0.5]))
        assert VARIANCE_FLOOR <= v < 1e-9

    def test_one_point_path_checks_dimension(self):
        hyper = GPHyperparams(lengthscales=np.array([0.5, 0.5]), signal_variance=1.0, noise_variance=0.1)
        for cond in (GPConditioner(hyper), batch_conditioner(np.array([[0.3, 0.3]]), hyper)):
            with pytest.raises(ValueError, match="query has dimension 1, lengthscales have 2"):
                cond.conditional_variance(np.array([0.3]))
            with pytest.raises(ValueError, match="query has dimension 1, lengthscales have 2"):
                cond.entropy(np.array([0.3]))

    def test_single_point_closed_form(self, unit_hyper):
        cond = batch_conditioner(np.array([[1.0]]), unit_hyper)
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
            v = batch_conditioner(X, hyper).conditional_variance(x)
            assert v == pytest.approx(direct_conditional_variance(x, X, hyper), abs=1e-9)

    def test_never_exceeds_prior(self):
        rng = np.random.default_rng(7)
        hyper = random_hyper(rng)
        X = rng.normal(size=(5, 1))
        v = batch_conditioner(X, hyper).conditional_variance(rng.normal(size=1))
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
            vb = batch_conditioner(B, hyper).conditional_variance(x)
            va = batch_conditioner(A, hyper).conditional_variance(x)
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
        h1 = batch_conditioner(np.array([[0.8]]), unit_hyper).entropy(x)
        h2 = batch_conditioner(np.array([[0.8], [0.4]]), unit_hyper).entropy(x)
        assert h0 > h1 > h2

    @pytest.mark.parametrize("variance", [1e-14, VARIANCE_FLOOR, 1e-6, 0.37, 1.0, 1e300])
    def test_variance_band_brackets_the_threshold_variance(self, variance):
        # The band holds the variance whose entropy is the threshold; its
        # lower edge is -inf once it reaches the clamp floor, which every
        # clamped variance meets.
        lo, hi = _variance_band(float(_entropy_of(variance)))
        assert lo < variance < hi
        assert (lo == -math.inf) == (variance <= VARIANCE_FLOOR)
        assert _variance_band(1e3) == (math.inf, math.inf)  # past the float range


class TestPredict:
    def test_interpolates_training_point_without_noise(self):
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.0)
        X = np.array([[0.0], [1.5]])
        y = np.array([2.0, -1.0])
        mean, variance = posterior_at(X, y, np.array([1.5]), hyper)
        assert mean == pytest.approx(-1.0, abs=1e-8)
        assert variance < 1e-9

    def test_reverts_to_prior_far_away(self, unit_hyper):
        X = np.array([[0.0]])
        y = np.array([3.0])
        mean, variance = posterior_at(X, y, np.array([50.0]), unit_hyper)
        assert abs(mean) < 1e-8
        assert variance == pytest.approx(unit_hyper.prior_variance, abs=1e-8)

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
        mean, variance = posterior_at(X, y, q, unit_hyper)
        assert mean == pytest.approx(float(ks @ alpha), abs=1e-10)
        assert variance == pytest.approx(
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
                _, variance = posterior_at(X, y, q, hyper)
                assert variance == pytest.approx(
                    batch_conditioner(X, hyper).conditional_variance(q), abs=1e-10
                )

    def test_empty_training_set_rejected(self, unit_hyper):
        with pytest.raises(ValueError, match="non-empty"):
            posterior_at(np.empty((0, 1)), np.empty(0), np.array([0.0]), unit_hyper)

    @pytest.mark.parametrize("fn", [predict_many, prefix_means])
    @pytest.mark.parametrize(
        "X, y, match",
        [
            (np.zeros((2, 2)), np.zeros(2), "dimension 2"),
            (np.zeros((2, 1)), np.zeros(3), "2 training points but 3 values"),
            (np.array([[0.0], [np.inf]]), np.zeros(2), "non-finite"),
            (np.zeros((2, 1)), np.array([0.0, np.nan]), "non-finite"),
            (np.zeros((2, 3, 1)), np.zeros((2, 4)),
             r"^training points of shape \(2, 3\) but values of shape \(2, 4\)$"),
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
            K = np.array([[se_kernel(a, b, hyper) for b in X] for a in X])
            eigs = np.linalg.eigvalsh(K + hyper.noise_variance * np.eye(len(X)))
            assert eigs.min() >= -1e-8

    def test_conditioner_incremental_matches_batch(self):
        rng = np.random.default_rng(23)
        hyper = random_hyper(rng, d=2)
        X = rng.normal(size=(8, 2))
        inc = GPConditioner(hyper)
        for x in X:
            inc.extend(x)
        batch = batch_conditioner(X, hyper)
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


    def test_zero_noise_duplicate_in_the_batch_and_incremental_chains(self):
        # An exact duplicate at zero noise has conditional variance 0. extend
        # meets it at jitter level 0, clamps it to VARIANCE_FLOOR and then
        # escalates; the one Cholesky factor of the set needs jitter, so the
        # batch chain takes extend's variances and clamps it there too.
        hyper = GPHyperparams(lengthscales=np.array([0.5]), signal_variance=1.0, noise_variance=0.0)
        X = np.array([[0.0], [3.0], [0.0], [1.2]])
        cond = GPConditioner(hyper)
        returned = np.array([cond.extend(x) for x in X])
        assert cond._level == 1
        chain = _chain_variances(X, hyper)
        assert returned[2] == chain[2] == VARIANCE_FLOOR
        assert np.array_equal(chain, returned)
        assert entropy_criterion(X, hyper) == pytest.approx(float(np.sum(_entropy_of(returned))))

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

    def test_extend_refuses_a_position_outside_the_live_pool(self):
        # Past the end, negative, or dropped by untrack (its buffers still
        # hold the dropped point): each is refused before the set changes.
        rng = np.random.default_rng(31)
        hyper = random_hyper(rng, d=2)
        pool = rng.normal(size=(5, 2))
        cond = GPConditioner(hyper)
        cond.track(pool)
        cond.extend(pool[1], 1)
        cond.untrack(2)
        variances = cond.tracked_variances()
        for pos in (3, 4, 5, -1):
            with pytest.raises(ValueError, match=rf"pool position {pos} is outside the 3 tracked"):
                cond.extend(pool[0], pos)
        assert len(cond) == 1
        assert np.array_equal(cond.tracked_variances(), variances)
        assert cond.extend(pool[2], 2) == variances[2]

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
            assert batch_conditioner(X, hyper)._level >= 1
            expected, _ = predict_many(X, y, Q, hyper)
            np.testing.assert_allclose(
                prefix_means(X, y, Q, hyper)[-1], expected, rtol=1e-9, atol=1e-12
            )


class TestHyperparamsConfig:
    def test_reads_a_12_digit_config(self, tmp_path):
        path = tmp_path / "hyper.cfg"
        path.write_text("lengthscales = 0.123456789012, 4.5\nsignal_variance = 2.25\nnoise_variance = 0.0625\n")
        hyper = load_hyperparams(path)
        assert hyper.lengthscales.tolist() == [0.123456789012, 4.5]
        assert (hyper.signal_variance, hyper.noise_variance) == (2.25, 0.0625)

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
        for noise in (-0.1, math.nan):
            with pytest.raises(ValueError, match="noise_variance must be non-negative"):
                GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=noise)
        for name, kwargs in [
            ("lengthscales", dict(lengthscales=np.array([1.0, math.inf]), signal_variance=1.0, noise_variance=0.1)),
            ("signal_variance", dict(lengthscales=np.array([1.0]), signal_variance=math.inf, noise_variance=0.1)),
            ("noise_variance", dict(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=math.inf)),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
                GPHyperparams(**kwargs)


def test_entropy_constant_value():
    assert GAUSSIAN_ENTROPY_CONST == pytest.approx(1.4189385332046727, abs=1e-15)


class TestRefusals:
    """Each refusal of the GP layer, with its exact message."""

    def test_unfactorizable_gram_matrix_names_its_condition(self):
        # Indefinite: eigenvalues 3 and -1, so no jitter on the ladder helps.
        with pytest.raises(FactorizationError) as exc:
            _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert str(exc.value) == (
            "Gram matrix of 2 points is singular at maximum jitter 1e-06 of the prior variance"
            " (condition estimate 3.000e+00)"
        )
        assert exc.value.condition_estimate == pytest.approx(3.0, rel=1e-12)

    def test_empty_lengthscales(self):
        with pytest.raises(ValueError) as exc:
            GPHyperparams(lengthscales=np.array([]), signal_variance=1.0, noise_variance=0.1)
        assert str(exc.value) == "lengthscales must be a non-empty vector"

    @pytest.mark.parametrize("n", [-1, 3])
    def test_untrack_outside_the_pool(self, unit_hyper, n):
        cond = GPConditioner(unit_hyper)
        cond.track(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError) as exc:
            cond.untrack(n)
        assert str(exc.value) == f"cannot untrack {n} of 2 tracked points"
        assert cond.tracked_variances().shape == (2,)

    def test_extend_with_the_wrong_dimension(self, unit_hyper):
        cond = GPConditioner(unit_hyper)
        with pytest.raises(ValueError) as exc:
            cond.extend(np.array([0.0, 1.0]))
        assert str(exc.value) == "point dimension 2 != 1"
        assert len(cond) == 0
