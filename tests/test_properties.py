"""Property tests of the tracked-pool engine over random streams and inputs.

Features are drawn from seeded normal distributions, so candidates are in
general position: ties between gains are exact (such as two points at the
prior variance) or far apart, and no decision turns on roundoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_secretary import (
    GPConditioner,
    GPHyperparams,
    Observation,
    PeriodicSecretaryConfig,
    UtilityFunction,
    offline_greedy,
    periodic_secretary,
)

from conftest import random_hyper

SETTINGS = settings(max_examples=60, deadline=None)


def random_observations(rng, n, d):
    return [Observation(i, x) for i, x in enumerate(rng.normal(size=(n, d)))]


def counting(items, box):
    for item in items:
        box[0] += 1
        yield item


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    T=st.integers(1, 12),
    extra=st.integers(0, 40),
    k=st.integers(1, 15),
    slack=st.floats(0.0, 1.0),
    modular=st.booleans(),
)
def test_list_and_generator_inputs_select_alike(seed, d, T, extra, k, slack, modular):
    # N = T + extra is mostly not a multiple of T, so the last period is partial.
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, T + extra, d)
    if modular:
        f = UtilityFunction.modular(rng.normal(size=len(obs)))
    else:
        f = UtilityFunction.entropy(random_hyper(rng, d))
    cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=slack)
    listed = periodic_secretary(obs, f, cfg)
    pulled = [0]
    streamed = periodic_secretary(counting(obs, pulled), f, cfg)
    assert streamed.chosen == listed.chosen
    assert streamed.terminated == listed.terminated
    np.testing.assert_allclose(streamed.utility_trace, listed.utility_trace, rtol=0, atol=1e-12)
    np.testing.assert_allclose(streamed.threshold_trace, listed.threshold_trace, rtol=0, atol=1e-12)
    if streamed.terminated == "filled_k":
        assert pulled[0] == streamed.chosen[-1] + 1
    else:
        assert pulled[0] == len(obs)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    noise=st.sampled_from([0.0, 1e-6, 0.01, 0.3]),
    steps=st.lists(st.sampled_from(["new", "near", "same"]), max_size=25),
)
def test_tracked_variances_match_fresh_ones(seed, d, noise, steps):
    # Every run opens with a location and its exact duplicate. With unit
    # signal variance and no noise that pivot is exactly 0, which forces the
    # jitter refactor and the rebuild of the pool; "near" (within 1e-9) and
    # "same" then re-add locations already in the set.
    rng = np.random.default_rng(seed)
    hyper = GPHyperparams(
        lengthscales=rng.uniform(0.3, 2.0, size=d), signal_variance=1.0, noise_variance=noise
    )
    cond = GPConditioner(hyper)
    pool = rng.normal(size=(rng.integers(1, 30), d))
    cond.track(pool[: len(pool) // 2])
    added = [rng.normal(size=d)]
    cond.extend(added[0])
    for i, step in enumerate(["same", *steps]):
        if step == "new":
            x = rng.normal(size=d)
        else:
            x = added[rng.integers(len(added))] + (1e-9 if step == "near" else 0.0)
        cond.extend(x)
        added.append(x)
        if i == len(steps) // 2:
            cond.track(pool[len(pool) // 2 :])
    assert noise > 0 or cond._level >= 1
    np.testing.assert_allclose(
        cond.tracked_variances(), cond.conditional_variances(pool), rtol=0, atol=1e-10
    )


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), n=st.integers(1, 40), data=st.data())
def test_offline_greedy_matches_reference_argmax(seed, d, n, data):
    # The reference recomputes every remaining candidate's entropy from its
    # conditional variance given a freshly factored set, and takes the first
    # maximum. Two candidates within roundoff of each other (say, both far
    # enough from the set to sit at the prior variance up to the last digit)
    # may come out in either order; there the pick must still attain the
    # maximum to 1e-12, and the reference continues from the pick made.
    k = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, n, d)
    hyper = random_hyper(rng, d)
    result = offline_greedy(obs[::-1], UtilityFunction.entropy(hyper), k)
    assert len(result.chosen) == k
    remaining = list(obs)
    chosen = []
    for pick in result.chosen:
        cond = GPConditioner.from_points(np.array([o.features for o in chosen]).reshape(-1, d), hyper)
        gains = cond.entropies(np.array([o.features for o in remaining]))
        best = int(np.argmax(gains))
        pos = [o.index for o in remaining].index(pick)
        assert pos == best or gains[pos] >= gains[best] - 1e-12
        chosen.append(remaining.pop(pos))
