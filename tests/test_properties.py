"""Property tests over random streams and inputs: the SE kernel, the
tracked-pool engine, the one-point path and arrival test, the prefix-means
curve, the periodic scan (and its one-scan modular path against the arrival
path), the capacity prefix of the periodic scan and of offline greedy, the
scale invariance of the periodic scan and of its bounds, the noise estimate
against one variance per phase, the entropy criterion, exhaustive
enumeration, the CSV column writer, CSV round trips and block permutation.

Features are drawn from seeded normal distributions, so candidates are in
general position: ties between gains are exact (such as two points at the
prior variance) or far apart, and no decision turns on roundoff. The
enumeration test makes exact ties on purpose, with weights rounded to one
decimal, and float ties that exact arithmetic breaks, with half-integer
weights beside one near 1e16.
"""

import csv
import io
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_secretary import (
    BoundInputs,
    CsvSchema,
    GPConditioner,
    GPHyperparams,
    Observation,
    ObservationStream,
    PeriodicSecretaryConfig,
    PeriodicStreamSpec,
    Rows,
    UtilityFunction,
    block_permute,
    bound_report,
    entropy_criterion,
    estimate_utility_noise,
    exhaustive_optimum,
    generate_periodic_stream,
    ingest_csv,
    offline_greedy,
    periodic_secretary,
    predict_many,
    prefix_means,
    random_sampler,
    scheduled_sampler,
    submodular_secretary,
    two_sine_waveform,
    write_stream_csv,
)
from periodic_secretary.gp import (
    GAUSSIAN_ENTROPY_CONST, _JITTER_LADDER, _entropy_of, _factor, _se_point, _se_scaled,
)
from periodic_secretary.selectors import utility_trace_for
from periodic_secretary.utility import _chain_variances
from periodic_secretary.kv import write_columns

from conftest import random_hyper
from reference import batch_conditioner

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


def bits(values):
    """The bytes of a float sequence, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 12),
    extra=st.integers(0, 60),
    k=st.integers(1, 20),
    slack=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(math.inf)),
    repeat=st.booleans(),
    zero_first=st.booleans(),
)
def test_modular_sequence_scan_equals_the_generator_path_bit_for_bit(
    seed, T, extra, k, slack, repeat, zero_first
):
    # The Sequence path picks in one scan at a fixed threshold; the generator
    # path accepts one arrival at a time. Weights rounded to one decimal tie
    # with the threshold; a first arrival of weight -0.0 makes the utility
    # after it 0.0 + -0.0 = 0.0; N = T + extra leaves a partial last period;
    # a repeated index must be refused by both, with one message.
    rng = np.random.default_rng(seed)
    obs = [Observation(i, np.zeros(1)) for i in range(T + extra)]
    if repeat and extra:
        j = int(rng.integers(T, len(obs)))
        obs[j] = Observation(int(rng.integers(len(obs))), np.zeros(1))
    weights = np.round(rng.normal(size=len(obs)), 1)
    if zero_first and extra:
        weights[obs[T].index] = -0.0
    f = UtilityFunction.modular(weights)
    cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=slack)

    def run(stream):
        try:
            return periodic_secretary(stream, f, cfg)
        except ValueError as exc:
            return str(exc)

    listed, streamed = run(obs), run(iter(obs))
    if isinstance(streamed, str):
        assert listed == streamed
        assert re.fullmatch(r"observation \d+ is already in the sample set", streamed)
        return
    assert listed.chosen == streamed.chosen
    assert listed.terminated == streamed.terminated
    assert bits(listed.utility_trace) == bits(streamed.utility_trace)
    assert bits(listed.threshold_trace) == bits(streamed.threshold_trace)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    repeat=st.booleans(),
    missing=st.booleans(),
    zero_first=st.booleans(),
)
def test_modular_utility_trace_equals_the_accept_loop_bit_for_bit(
    seed, n, repeat, missing, zero_first
):
    # utility_trace_for gathers the weights once and sums them from 0.0; the
    # loop below accepts one observation at a time, adding its weight from
    # 0.0. A first weight of -0.0 makes the utility after it 0.0 + -0.0 =
    # 0.0. A repeated index and an index with no weight are refused with the
    # loop's messages; where one sequence has both, the missing weight is
    # reported, wherever it sits.
    rng = np.random.default_rng(seed)
    weights = np.round(rng.normal(size=n + 1), 1)
    idx = rng.permutation(n + 1)[: rng.integers(0, n + 2)].tolist()
    if zero_first and idx:
        weights[idx[0]] = -0.0
    if repeat and idx:
        idx.insert(int(rng.integers(1, len(idx) + 1)), idx[rng.integers(len(idx))])
    absent = n + 1 + int(rng.integers(3))
    if missing:
        idx.insert(int(rng.integers(len(idx) + 1)), absent)
    obs = [Observation(i, np.zeros(1)) for i in idx]
    f = UtilityFunction.modular(weights)

    def accept_loop():
        value, seen, after = 0.0, set(), []
        for o in obs:
            if o.index in seen:
                return f"observation {o.index} is already in the sample set"
            if o.index >= len(weights):
                return f"no weight for observation index {o.index}"
            value += float(weights[o.index])
            seen.add(o.index)
            after.append(value)
        return after

    try:
        got = utility_trace_for(f, obs)
    except ValueError as exc:
        got = str(exc)
    expected = accept_loop()
    if missing:
        assert got == f"no weight for observation index {absent}"
    if not (missing and repeat):
        if isinstance(expected, str):
            assert got == expected
        else:
            assert bits(got) == bits(expected)


def outcome(run, observations):
    """A selector's picks, traces as hex and termination, or its refusal."""
    try:
        result = run(observations)
    except ValueError as exc:
        assert re.fullmatch(
            r"no weight for observation index \d+|observation \d+ is already in the sample set"
            r"|chosen indices must be distinct",  # a sampler that drew a repeated index
            str(exc),
        ), str(exc)
        return str(exc)
    if isinstance(result, tuple):  # a utility trace
        return [v.hex() for v in result]
    traces = result.utility_trace + (result.threshold_trace or ())
    return result.chosen, [v.hex() for v in traces], result.terminated


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    T=st.integers(1, 8),
    extra=st.integers(0, 40),
    k=st.integers(1, 12),
    slack=st.floats(0.0, 1.0),
    modular=st.booleans(),
    order=st.sampled_from(["stream", "shuffled", "repeats"]),
    short_weights=st.booleans(),
)
def test_rows_select_as_their_observations_do(seed, d, T, extra, k, slack, modular, order, short_weights):
    # Selectors read a Rows' arrays and a plain sequence's observations; both
    # give the same picks, trace bits and termination, or the same refusal.
    # The rows are a stream's, in stream order, shuffled, or drawn with
    # repeated indices; a short weight vector leaves some index unweighted.
    rng = np.random.default_rng(seed)
    n = T + extra
    stream = ObservationStream(rng.normal(size=(n, d)))
    observations = stream.observations
    positions = {
        "stream": np.arange(n), "shuffled": rng.permutation(n), "repeats": rng.integers(n, size=n),
    }[order]
    rows = observations[positions]
    plain = [list(observations)[p] for p in positions.tolist()]
    if modular:
        f = UtilityFunction.modular(rng.normal(size=int(rng.integers(1, n + 1)) if short_weights else n))
    else:
        f = UtilityFunction.entropy(random_hyper(rng, d))
    k = min(k, n)
    cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=slack)
    traced = rng.integers(n, size=int(rng.integers(0, 6)))
    runs = {
        "periodic_secretary": lambda s: periodic_secretary(s, f, cfg),
        "periodic_secretary_iterator": lambda s: periodic_secretary(iter(s), f, cfg),
        "offline_greedy": lambda s: offline_greedy(s, f, k),
        "exhaustive_optimum": lambda s: exhaustive_optimum(s[:9], f, min(k, 3, len(s[:9]))),
        "submodular_secretary": lambda s: submodular_secretary(s, f, k),
        "scheduled_sampler": lambda s: scheduled_sampler(s, k),
        "random_sampler": lambda s: random_sampler(s, k, seed),
        "utility_trace_for": lambda s: utility_trace_for(
            f, s[traced] if isinstance(s, Rows) else [s[p] for p in traced.tolist()]
        ),
    }
    for name, run in runs.items():
        assert outcome(run, rows) == outcome(run, plain), name
    if order != "repeats":  # the index at each scheduled position, read literally
        assert scheduled_sampler(rows, k).chosen == tuple(plain[j * n // k].index for j in range(k))
    if order == "stream":
        for name, run in runs.items():
            assert outcome(run, observations) == outcome(run, list(observations)), name


def per_phase_noise(singles, T):
    """The pooled per-phase sample variance, one np.var per phase."""
    num, den = 0.0, 0
    for p in range(T):
        u = singles[p::T]
        num += (len(u) - 1) * float(np.var(u, ddof=1))
        den += len(u) - 1
    return num / den


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 12),
    periods=st.integers(2, 300),
    extra=st.integers(0, 11),
    scale=st.integers(-6, 6),
    modular=st.booleans(),
)
def test_noise_estimate_equals_one_variance_per_phase_bit_for_bit(seed, T, periods, extra, scale, modular):
    # Counts of 8 and more are summed pairwise by np.var, and above 128 in
    # recursive halves; the blocks must keep that order row by row.
    rng = np.random.default_rng(seed)
    spec = PeriodicStreamSpec(
        period_T=T,
        noise_cov=np.array([[rng.uniform(0.01, 1.0)]]),
        length_N=T * periods + extra % T,
        base_waveform=rng.normal(size=(T, 1)),
    )
    stream = generate_periodic_stream(spec, seed)
    if modular:
        f = UtilityFunction.modular(10.0**scale * stream.feature_matrix[:, 0])
        singles = f.weights  # stream indices run 0..n-1
    else:
        f = UtilityFunction.entropy(random_hyper(rng, 1))
        ev = f.evaluator()
        ev.conditioner.track(Rows.of(stream.observations).features)
        singles = _entropy_of(ev.conditioner.tracked_variances())
    assert bits([estimate_utility_noise(stream, f)]) == bits([per_phase_noise(singles, T)])


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(1, 10),
    noise=st.floats(0.01, 1.0),
)
def test_entropy_criterion_is_order_free_and_a_log_determinant(seed, d, n, noise):
    # H(A) = 1/2 (n ln 2 pi e + ln det K), with K the noisy SE Gram matrix of A.
    rng = np.random.default_rng(seed)
    hyper = GPHyperparams(
        lengthscales=rng.uniform(0.3, 2.0, size=d),
        signal_variance=rng.uniform(0.5, 2.0),
        noise_variance=noise,
    )
    pts = rng.normal(size=(n, d))
    z = (pts[:, None, :] - pts[None, :, :]) / hyper.lengthscales
    K = hyper.signal_variance * np.exp(-0.5 * (z**2).sum(axis=2)) + noise * np.eye(n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign == 1
    value = entropy_criterion(pts, hyper)
    assert value == pytest.approx(0.5 * (n * math.log(2 * math.pi * math.e) + logdet), abs=1e-9)
    assert entropy_criterion(pts[rng.permutation(n)], hyper) == pytest.approx(value, abs=1e-9)


@st.composite
def modular_instances(draw):
    n = draw(st.integers(0, 14))
    k = draw(st.integers(0, n))
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=n)
    style = draw(st.integers(0, 3))
    if style == 0:
        weights = np.round(weights, 1)  # exact ties between subset sums
    elif style == 1 and n:
        # Half-integer weights beside one near 1e16, whose ulp is 2: float sums
        # that hold it round, so they tie where the exact sums differ.
        weights = np.round(2 * weights) / 2
        big = 1e16 + 2 * draw(st.integers(-4, 4))
        weights[draw(st.integers(0, n - 1))] = draw(st.sampled_from([big, -big]))
    return weights, k


def first_best_subset(weights, k):
    """Brute-force oracle: the first subset, in lexicographic order, with the
    largest exact sum of its weights (added as fractions, so no rounding
    merges two sums)."""
    best, best_val = (), None
    for combo in combinations(range(len(weights)), k):
        val = sum(Fraction(weights[i]) for i in combo)
        if best_val is None or val > best_val:
            best, best_val = combo, val
    return best


@SETTINGS
@given(instance=modular_instances())
@example(instance=(np.round(np.linspace(-1.0, 1.0, 12), 1), 1))
@example(instance=(np.round(np.linspace(-1.0, 1.0, 12), 1), 12))
@example(instance=(np.round(np.linspace(-1.0, 1.0, 14), 1), 9))
@example(instance=(np.zeros(13), 8))
@example(instance=(np.array([0.1, 0.1, 0.4, 0.1]), 3))  # exact sums tie; float (.1+.1)+.4 wins
@example(instance=(np.array([1e16, 1.5, 2.0]), 2))  # float sums tie; exactly, (0, 2) wins
def test_modular_exhaustive_optimum_matches_brute_force(instance):
    weights, k = instance
    obs = [Observation(i, np.zeros(1)) for i in range(len(weights))]
    result = exhaustive_optimum(obs, UtilityFunction.modular(weights), k)
    assert result.chosen == first_best_subset(weights, k)


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
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    noise=st.sampled_from([0.0, 1e-6, 0.01, 0.3]),
    kinds=st.lists(st.sampled_from(["new", "near", "same"]), max_size=25),
)
def test_tracked_acceptance_matches_untracked_and_fresh(seed, d, noise, kinds):
    # The pool holds new locations, near-duplicates (within 1e-9) and exact
    # duplicates of earlier pool points. Its points are accepted by position,
    # in random order, while a twin conditioner accepts the same locations
    # without their positions. Every run opens with a location and its exact
    # duplicate, which at zero noise forces the jitter refactor.
    #
    # Both paths are exact up to roundoff, and their roundoff grows as the
    # smallest squared pivot shrinks; noise plus the jitter in force bounds
    # that pivot below. With noise >= 0.01 the tolerances are 1e-12 and
    # 1e-10. At zero noise (jitter 1e-10) the paths differ by up to about
    # 3e-8, and even the untracked path differs from a fresh factor by up to
    # about 3e-9, so there they scale as 1e-15 / (noise + jitter).
    rng = np.random.default_rng(seed)
    hyper = GPHyperparams(
        lengthscales=rng.uniform(0.3, 2.0, size=d), signal_variance=1.0, noise_variance=noise
    )
    pool = [rng.normal(size=d)]
    for kind in ["same", *kinds]:
        if kind == "new":
            pool.append(rng.normal(size=d))
        else:
            pool.append(pool[rng.integers(len(pool))] + (1e-9 if kind == "near" else 0.0))
    pool = np.array(pool)
    order = [0, 1, *(2 + rng.permutation(len(pool) - 2))][: rng.integers(2, len(pool) + 1)]
    cond, twin = GPConditioner(hyper), GPConditioner(hyper)
    cond.track(pool)
    twin.track(pool)

    def roundoff():
        # 0 only for the first point, at zero noise, which the empty set makes exact.
        floor = noise + _JITTER_LADDER[twin._level]
        return 1e-15 / floor if floor else 0.0

    for pos in order:
        expected = twin.extend(pool[pos])
        got = cond.extend(pool[pos], pos)
        assert cond._level == twin._level
        assert got == pytest.approx(expected, rel=0, abs=max(1e-12, roundoff()))
    assert noise > 0 or cond._level >= 1
    fresh = batch_conditioner(pool[order], hyper)
    assert fresh._level == cond._level
    np.testing.assert_allclose(
        cond.tracked_variances(),
        fresh.conditional_variances(pool),
        rtol=0,
        atol=max(1e-10, roundoff()),
    )


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(1, 30),
    m=st.integers(0, 12),
    utility=st.sampled_from(["entropy", "zero-noise entropy"]),
    data=st.data(),
)
def test_tracked_scans_match_gain_space_rule(seed, d, n, m, utility, data):
    # The periodic secretary's recalibration and first-hit scan
    # (GPConditioner.max_tracked_gain and first_tracked_hit), which read an
    # entropy pool's tracked variances directly, give the threshold and the
    # index of np.max and np.flatnonzero over the tracked gains. Thresholds
    # include gains taken from the pool itself, so exact ties are tried, and the
    # next float above the best gain still to scan, whose point lies inside
    # the variance guard band but misses the threshold. At zero noise the
    # accepted points repeat pool locations, whose variances then sit at
    # the clamp floor. The arrival test (GPConditioner.arrival_test), which
    # the conditioner answers from the one-point variance, gives
    # gain >= threshold for a new point or one of the stream, at its exact
    # one-point gain, one ulp either side and the scan's threshold.
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, n + m, d)
    if utility == "entropy":
        f = UtilityFunction.entropy(random_hyper(rng, d))
    else:
        f = UtilityFunction.entropy(GPHyperparams(rng.uniform(0.3, 2.0, size=d), 1.0, 0.0))
        obs[n:] = [Observation(n + j, obs[rng.integers(n)].features) for j in range(m)]
    ev = f.evaluator()
    ev.conditioner.track(Rows.of(obs[:n]).features)
    for o in obs[n:]:
        ev.accept(o)
    gains = _entropy_of(ev.conditioner.tracked_variances())
    stop = data.draw(st.integers(1, n))
    assert ev.conditioner.max_tracked_gain(stop) == float(np.max(gains[:stop]))
    start = data.draw(st.integers(0, n))
    best_left = float(np.max(gains[start:], initial=-np.inf))
    threshold = data.draw(st.sampled_from([
        float(gains[rng.integers(n)]),
        best_left,
        float(np.nextafter(best_left, np.inf)),
        float(np.max(gains)) - rng.uniform(0.0, 1.0),
        float(np.min(gains)) - 1.0,
        float(np.max(gains)) + 1.0,
        -math.inf,
    ]))
    hits = np.flatnonzero(gains[start:] >= threshold)
    assert ev.conditioner.first_tracked_hit(threshold, start) == (start + int(hits[0]) if hits.size else None)
    index = int(rng.integers(n + m))
    features = data.draw(st.sampled_from([obs[index].features, rng.normal(size=d)]))
    arrival = Observation(index, features)
    gain = ev.gain(arrival)
    for t in (gain, float(np.nextafter(gain, -np.inf)), float(np.nextafter(gain, np.inf)), threshold):
        assert ev.conditioner.arrival_test(t)(arrival.features) == (ev.gain(arrival) >= t)


def transcribed_tracked_rule(obs, hyper, k, T, slack):
    """The periodic secretary's tracked rule on a list, in gain space: each
    period is tracked beside the reference one, the first tracked gain at or
    after the scan position that meets the threshold is accepted by its pool
    position, and the threshold is the largest reference gain less the
    slack, read again after every acceptance."""
    ev = UtilityFunction.entropy(hyper).evaluator()
    cond = ev.conditioner
    cond.track(Rows.of(obs[:T]).features)

    def threshold():
        return float(np.max(_entropy_of(cond.tracked_variances())[:T])) - slack

    value, chosen, trace, thresholds = 0.0, [], [], []
    gain = threshold()
    for start in range(T, len(obs), T):
        batch = obs[start : start + T]
        cond.track(Rows.of(batch).features)
        pos = T
        while len(chosen) < k:
            hits = np.flatnonzero(_entropy_of(cond.tracked_variances())[pos:] >= gain)
            if not hits.size:
                break
            pos += int(hits[0])
            thresholds.append(value + gain)
            value += float(GAUSSIAN_ENTROPY_CONST + 0.5 * np.log(cond.extend(batch[pos - T].features, pos)))
            chosen.append(batch[pos - T].index)
            trace.append(value)
            gain = threshold()
            pos += 1
        if len(chosen) == k:
            break
        cond.untrack(len(batch))
    return chosen, trace, thresholds, "filled_k" if len(chosen) == k else "end_of_stream"


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    T=st.integers(1, 12),
    extra=st.integers(0, 40),
    k=st.integers(1, 15),
    slack=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(math.inf)),
    zero_noise=st.booleans(),
)
def test_entropy_sequence_scan_equals_the_tracked_rule_bit_for_bit(
    seed, d, T, extra, k, slack, zero_noise
):
    # The Sequence path decides in variance space, straight off the tracked
    # variances; the transcription takes every tracked gain and decides in
    # gain space. N = T + extra leaves a partial last period. At zero noise
    # a third of the points after the reference period repeat earlier
    # locations, so acceptances meet the variance floor and the jitter
    # refactor; slack inf accepts every position.
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, T + extra, d)
    if zero_noise:
        hyper = GPHyperparams(rng.uniform(0.3, 2.0, size=d), rng.uniform(0.5, 2.0), 0.0)
        for j in range(T, len(obs)):
            if rng.random() < 1 / 3:
                obs[j] = Observation(j, obs[rng.integers(j)].features)
    else:
        hyper = random_hyper(rng, d)
    result = periodic_secretary(obs, UtilityFunction.entropy(hyper), PeriodicSecretaryConfig(k, T, slack))
    chosen, trace, thresholds, terminated = transcribed_tracked_rule(obs, hyper, k, T, slack)
    assert list(result.chosen) == chosen
    assert bits(result.utility_trace) == bits(trace)
    assert bits(result.threshold_trace) == bits(thresholds)
    assert result.terminated == terminated


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
        cond = batch_conditioner(np.array([o.features for o in chosen]).reshape(-1, d), hyper)
        gains = cond.entropies(np.array([o.features for o in remaining]))
        best = int(np.argmax(gains))
        pos = [o.index for o in remaining].index(pick)
        assert pos == best or gains[pos] >= gains[best] - 1e-12
        chosen.append(remaining.pop(pos))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 9),
    n=st.integers(0, 50),
    m=st.integers(1, 40),
)
def test_se_matrix_columns_equal_one_point_columns(seed, d, n, m):
    # The batched kernel and the one-point kernel of the per-arrival path
    # share one squared-distance reduction, so they round alike at every d
    # (a pairwise sum over coordinates would differ from a sequential one
    # from d = 8 on).
    rng = np.random.default_rng(seed)
    A, B = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    sv = rng.uniform(0.5, 2.0)
    K = _se_scaled(A, B, sv)
    assert K.shape == (n, m)
    for j in range(m):
        assert np.array_equal(K[:, j], _se_point(A, B[j], sv, None))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    m=st.integers(0, 30),
    duplicate=st.booleans(),
)
def test_one_point_path_equals_batched_and_tracked(seed, d, noise, m, duplicate):
    # The one-point conditional_variance/entropy must give the bits of the
    # batched path on that one point and of the point tracked alone, for the
    # empty set too.
    rng = np.random.default_rng(seed)
    hyper = GPHyperparams(
        lengthscales=rng.uniform(0.3, 2.0, size=d), signal_variance=rng.uniform(0.5, 2.0),
        noise_variance=noise,
    )
    cond = GPConditioner(hyper)
    points = rng.normal(size=(m, d))
    for x in points:
        cond.extend(x)
    queries = rng.normal(size=(6, d))
    if duplicate and m:
        queries[0] = points[-1]  # a point of the set itself
    for q in queries:
        v = cond.conditional_variances(q[None, :])[0]
        assert cond.conditional_variance(q) == v
        assert cond.entropy(q) == cond.entropies(q[None, :])[0]
        cond.track(q[None, :])
        assert cond.tracked_variances()[-1] == v
        cond.untrack(1)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    n=st.integers(1, 60),
    repeats=st.booleans(),
)
def test_accept_adds_the_gain_taken_just_before_it_bit_for_bit(seed, d, noise, n, repeats):
    # The iterator path accepts an arrival on its one-point gain, so the
    # utility booked for it must grow by that gain, bit for bit: extend
    # without a pool position sums |a|^2 as the one-point variance does. At
    # zero noise repeated locations meet the variance floor and the jitter
    # refactor.
    rng = np.random.default_rng(seed)
    hyper = GPHyperparams(rng.uniform(0.3, 2.0, size=d), rng.uniform(0.5, 2.0), noise)
    points = rng.normal(size=(n, d))
    if repeats:
        points[1::3] = points[rng.integers(n, size=len(points[1::3]))]
    ev = UtilityFunction.entropy(hyper).evaluator()
    for i, x in enumerate(points):
        before, gain = ev.value, ev.gain(Observation(i, x))
        assert bits([ev.accept(Observation(i, x))]) == bits([before + gain])


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    m=st.integers(0, 30),
    duplicate=st.booleans(),
)
def test_unit_signal_one_point_path_and_arrival_test(seed, d, noise, m, duplicate):
    # At signal_variance 1.0, the value of every workload, the kernel skips
    # its multiplication by 1.0. The one-point variance must still give the
    # bits of the batched path on that one point and of the point tracked
    # alone, and the arrival test must decide as gain >= t at the gain and
    # one ulp either side.
    rng = np.random.default_rng(seed)
    hyper = GPHyperparams(
        lengthscales=rng.uniform(0.3, 2.0, size=d), signal_variance=1.0, noise_variance=noise
    )
    ev = UtilityFunction.entropy(hyper).evaluator()
    points = rng.normal(size=(m, d))
    for i, x in enumerate(points):
        ev.accept(Observation(i, x))
    cond = ev.conditioner
    queries = rng.normal(size=(6, d))
    if duplicate and m:
        queries[0] = points[-1]  # a point of the set itself
    for q in queries:
        v = cond.conditional_variances(q[None, :])[0]
        assert cond.conditional_variance(q) == v
        assert cond.entropy(q) == cond.entropies(q[None, :])[0]
        cond.track(q[None, :])
        assert cond.tracked_variances()[-1] == v
        cond.untrack(1)
        arrival = Observation(m, q)
        gain = ev.gain(arrival)
        thresholds = (gain, float(np.nextafter(gain, -np.inf)), float(np.nextafter(gain, np.inf)))
        assert [cond.arrival_test(t)(q) for t in thresholds] == [True, True, False]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    m=st.sampled_from([1, 2, 4, 8]),
    grow=st.sampled_from(["extend", "refactor"]),
)
def test_arrival_test_answers_for_the_set_grown_after_it_was_built(seed, d, m, grow):
    # A test is built against m accepted points; then one more is accepted.
    # Without a reserve, that acceptance moves the set into larger buffers
    # (m + 1 = 2, 3, 5, 9); at zero noise an exact duplicate of a point at
    # least 3 lengthscales from the others forces the jitter refactor
    # instead. Either way the test must answer for the grown set: as its
    # gain, which another evaluator that accepted the same points gives.
    rng = np.random.default_rng(seed)
    ls = rng.uniform(0.3, 2.0, size=d)
    noise = 0.0 if grow == "refactor" else float(rng.choice([0.01, 0.3]))
    f = UtilityFunction.entropy(GPHyperparams(ls, signal_variance=1.0, noise_variance=noise))
    points = ls * (3.0 * rng.permutation(m)[:, None] + rng.uniform(0.0, 0.5, size=(m, d)))
    new = points[rng.integers(m)] if grow == "refactor" else rng.normal(size=d)
    accepted = [Observation(i, x) for i, x in enumerate([*points, new])]
    ev, after = f.evaluator(), f.evaluator()
    for o in accepted[:-1]:
        ev.accept(o)
    for o in accepted:
        after.accept(o)
    arrival = Observation(m + 1, new + 0.3 * ls * rng.normal(size=d))
    gain = after.gain(arrival)
    thresholds = (gain, float(np.nextafter(gain, -np.inf)), float(np.nextafter(gain, np.inf)))
    cond = ev.conditioner
    tests = [cond.arrival_test(t) for t in thresholds]
    level, buffers = cond._level, (cond._Sbuf, cond._kbuf, cond._Wbuf)
    ev.accept(accepted[-1])
    if grow == "refactor":
        assert cond._level > level
    else:
        assert all(a is not b for a, b in zip(buffers, (cond._Sbuf, cond._kbuf, cond._Wbuf)))
    assert ev.gain(arrival) == gain
    assert [test(arrival.features) for test in tests] == [True, True, False]


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    n=st.integers(0, 30),
    q=st.integers(1, 40),
)
def test_prefix_means_match_predict_many_on_each_prefix(seed, d, n, q):
    rng = np.random.default_rng(seed)
    hyper = random_hyper(rng, d)  # noise_variance >= 0.01
    X, y, Q = rng.normal(size=(n, d)), rng.normal(size=n), rng.normal(size=(q, d))
    means = prefix_means(X, y, Q, hyper)
    assert means.shape == (n, q)
    for m in range(1, n + 1):
        expected, _ = predict_many(X[:m], y[:m], Q, hyper)
        np.testing.assert_allclose(means[m - 1], expected, rtol=1e-9, atol=1e-9 * np.abs(y).max())


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    n=st.integers(1, 29),
    q=st.integers(1, 40),
)
def test_prefix_means_at_zero_noise_with_an_exact_duplicate(seed, d, n, q):
    # Distinct points at least 2.5 lengthscales apart in every coordinate,
    # then an exact copy (location and value) of one of them: only the pair
    # is singular. The full set may need jitter its prefixes do not; every
    # row is factored at the full set's level, so the last row is
    # predict_many's answer for the full set.
    rng = np.random.default_rng(seed)
    ls = rng.uniform(0.3, 2.0, size=d)
    hyper = GPHyperparams(lengthscales=ls, signal_variance=rng.uniform(0.5, 2.0), noise_variance=0.0)
    X = ls * (3.0 * rng.permutation(n)[:, None] + rng.uniform(0.0, 0.5, size=(n, d)))
    y = rng.normal(size=n)
    i = rng.integers(n)
    X, y = np.vstack([X, X[i]]), np.append(y, y[i])
    Q = ls * rng.uniform(0.0, 3.0 * n, size=(q, d))
    means = prefix_means(X, y, Q, hyper)
    assert np.all(np.isfinite(means))
    expected, _ = predict_many(X, y, Q, hyper)
    np.testing.assert_allclose(means[-1], expected, rtol=1e-9, atol=1e-9 * np.abs(y).max())


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    g=st.integers(1, 5),
    n=st.integers(0, 20),
    q=st.integers(1, 30),
    zero_noise=st.booleans(),
)
def test_stacked_prefix_means_equal_each_slice(seed, d, g, n, q, zero_noise):
    # One stacked factorisation must give each set's 2-D curve bit for bit.
    # At zero noise the sets are points at least 2.5 lengthscales apart in
    # every coordinate, and the first set repeats one of its points exactly
    # (location and value): that slice alone escalates jitter.
    rng = np.random.default_rng(seed)
    if zero_noise:
        n = max(n, 1)
        ls = rng.uniform(0.3, 2.0, size=d)
        hyper = GPHyperparams(ls, rng.uniform(0.5, 2.0), 0.0)
        X = ls * (3.0 * np.array([rng.permutation(n + 1) for _ in range(g)])[:, :, None]
                  + rng.uniform(0.0, 0.5, size=(g, n + 1, d)))
        Y = rng.normal(size=(g, n + 1))
        i = rng.integers(n)
        X[0, n], Y[0, n] = X[0, i], Y[0, i]
        n += 1
        Q = ls * rng.uniform(0.0, 3.0 * n, size=(q, d))
    else:
        hyper = random_hyper(rng, d)
        X, Y, Q = rng.normal(size=(g, n, d)), rng.normal(size=(g, n)), rng.normal(size=(q, d))
    means = prefix_means(X, Y, Q, hyper)
    assert means.shape == (g, n, q)
    for j in range(g):
        assert np.array_equal(means[j], prefix_means(X[j], Y[j], Q, hyper))
    if zero_noise:
        _, levels = _factor(X / hyper.lengthscales, hyper)
        assert levels[0] >= 1 and not np.any(levels[1:])


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(1, 30),
    noise=st.floats(0.01, 1.0),
    near=st.booleans(),
)
def test_batch_chain_variances_match_extend_and_log_determinant(seed, d, n, noise, near):
    # The chain-rule variances read off one Cholesky factor agree with the
    # variances that extend returns one point at a time, and their logs sum
    # to log det K. At noise >= 0.01 neither path escalates jitter, even for
    # points 1e-9 apart.
    rng = np.random.default_rng(seed)
    hyper = GPHyperparams(rng.uniform(0.3, 2.0, size=d), rng.uniform(0.5, 2.0), noise)
    pts = rng.normal(size=(n, d))
    if near and n > 1:
        pts[-1] = pts[0] + 1e-9
    cond = GPConditioner(hyper)
    incremental = np.array([cond.extend(x) for x in pts])
    assert cond._level == 0
    batch = _chain_variances(pts, hyper)
    prior = hyper.prior_variance
    np.testing.assert_allclose(batch, incremental, rtol=0, atol=1e-10 * prior)
    z = (pts[:, None, :] - pts[None, :, :]) / hyper.lengthscales
    K = hyper.signal_variance * np.exp(-0.5 * (z**2).sum(axis=2)) + noise * np.eye(n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign == 1
    assert float(np.sum(np.log(batch))) == pytest.approx(logdet, abs=1e-9)
    entropies = GAUSSIAN_ENTROPY_CONST + 0.5 * np.log(incremental)
    obs = [Observation(i, x) for i, x in enumerate(pts)]
    trace = utility_trace_for(UtilityFunction.entropy(hyper), obs)
    np.testing.assert_allclose(trace, np.cumsum(entropies), rtol=0, atol=1e-9)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    T=st.integers(1, 12),
    extra=st.integers(0, 60),
    k=st.integers(1, 20),
    slack=st.floats(0.0, 1.0),
    modular=st.booleans(),
    as_list=st.booleans(),
)
def test_periodic_picks_lie_after_the_reference_period(seed, d, T, extra, k, slack, modular, as_list):
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, T + extra, d)
    if modular:
        f = UtilityFunction.modular(rng.normal(size=len(obs)))
    else:
        f = UtilityFunction.entropy(random_hyper(rng, d))
    cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=slack)
    result = periodic_secretary(obs if as_list else iter(obs), f, cfg)
    assert all(i >= T for i in result.chosen)
    assert len(result.chosen) <= k
    assert list(result.chosen) == sorted(set(result.chosen))
    assert (result.terminated == "filled_k") == (len(result.chosen) == k)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    T=st.integers(1, 12),
    extra=st.integers(0, 60),
    k=st.integers(1, 12),
    more=st.integers(1, 12),
    slack=st.floats(0.0, 1.0),
    modular=st.booleans(),
    as_list=st.booleans(),
)
def test_periodic_run_at_k_is_a_prefix_of_a_larger_run(seed, d, T, extra, k, more, slack, modular, as_list):
    # Capacity only stops the scan: the run at k is the first k decisions of
    # the run at k + more, bit for bit.
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, T + extra, d)
    if modular:
        f = UtilityFunction.modular(rng.normal(size=len(obs)))
    else:
        f = UtilityFunction.entropy(random_hyper(rng, d))

    def run(cap):
        cfg = PeriodicSecretaryConfig(k=cap, period_T=T, threshold_slack=slack)
        return periodic_secretary(obs if as_list else iter(obs), f, cfg)

    small, large = run(k), run(k + more)
    fill = min(k, len(large.chosen))
    assert small.chosen == large.chosen[:fill]
    assert small.utility_trace == large.utility_trace[:fill]
    assert small.threshold_trace == large.threshold_trace[:fill]
    assert small.terminated == ("filled_k" if fill == k else "end_of_stream")


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 8),
    periods=st.integers(2, 12),
    noise=st.sampled_from([0.0, 0.05, 0.35, 2.0]),
    k=st.integers(1, 100),
    slack=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),  # 2**j * slack stays a normal float
    j=st.integers(-8, 8),
)
@example(seed=0, T=6, periods=10, noise=0.35, k=30, slack=0.25, j=2)
@example(seed=0, T=6, periods=10, noise=0.35, k=30, slack=0.25, j=-3)
def test_scaled_utility_and_slack_keep_the_picks_and_the_success_bound(
    seed, T, periods, noise, k, slack, j
):
    # Weights and slack times 2**j: every comparison of the scan is the same,
    # the utility-noise estimate is 4**j times as large, and the bounds are
    # in utility units, so the success bound stays put and the utility bound
    # scales by 2**j. Powers of two keep all of it exact.
    spec = PeriodicStreamSpec(
        period_T=T, noise_cov=np.array([[noise]]), length_N=T * periods,
        base_waveform=two_sine_waveform(T),
    )
    stream = generate_periodic_stream(spec, seed)
    weights = stream.feature_matrix[:, 0]

    def run(scale):
        f = UtilityFunction.modular(scale * weights)
        cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=scale * slack)
        result = periodic_secretary(stream.observations, f, cfg)
        sigma2 = estimate_utility_noise(stream, f)
        report = bound_report(BoundInputs(
            k=k, threshold_slack=scale * slack, utility_noise=sigma2, stream_len_N=T * periods,
            period_T=T, f_opt=scale * float(np.abs(weights).sum()),
        ))
        return result, sigma2, report

    scale = 2.0**j
    (base, sigma2, report), (scaled, scaled_sigma2, scaled_report) = run(1.0), run(scale)
    assert scaled.chosen == base.chosen
    assert list(scaled.utility_trace) == [scale * u for u in base.utility_trace]
    assert scaled_sigma2 == scale**2 * sigma2
    assert scaled_report.expected_successes == report.expected_successes
    assert scaled_report.utility_lower_bound == scale * report.utility_lower_bound


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 2),
    n=st.integers(1, 40),
    modular=st.booleans(),
    data=st.data(),
)
def test_greedy_run_at_k_is_a_prefix_of_a_larger_run(seed, d, n, modular, data):
    # validate_bounds reads every inexact optimum of a grid from one run.
    k = data.draw(st.integers(0, n))
    larger = data.draw(st.integers(k, n))
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, n, d)
    if modular:
        f = UtilityFunction.modular(np.round(rng.normal(size=n), 1))  # ties on purpose
    else:
        f = UtilityFunction.entropy(random_hyper(rng, d))
    small, large = offline_greedy(obs, f, k), offline_greedy(obs, f, larger)
    assert small.chosen == large.chosen[:k]
    assert small.utility_trace == large.utility_trace[:k]


def twelve_digit(values):
    """Values that the 12-significant-digit CSV format writes exactly."""
    return np.array([float("%.12g" % v) for v in np.ravel(values)]).reshape(np.shape(values))


def random_stream(rng, n, d, with_qoi):
    feats = twelve_digit(rng.normal(scale=rng.choice([1e-3, 1.0, 1e4]), size=(n, d)))
    qoi = twelve_digit(rng.normal(size=n)) if with_qoi else None
    return ObservationStream(feats, qoi)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    d=st.integers(1, 3),
    with_qoi=st.booleans(),
    shuffled=st.booleans(),
)
def test_csv_round_trip_gives_back_the_stream(tmp_path_factory, seed, n, d, with_qoi, shuffled):
    rng = np.random.default_rng(seed)
    stream = random_stream(rng, n, d, with_qoi)
    path = tmp_path_factory.mktemp("csv") / "stream.csv"
    schema = write_stream_csv(stream, path)
    expected = stream.feature_matrix
    if shuffled:
        # Rewrite the rows in a random order under random keys, some equal.
        # Ingest must order them as a stable sort by key, which is what
        # Python's list.sort gives.
        keys = twelve_digit(rng.integers(0, max(1, n // 2), size=n) * rng.uniform(0.5, 2.0))
        order = rng.permutation(n)
        qvals = stream.qoi if with_qoi else np.empty(n)
        columns = [keys, *expected[order].T, *([qvals[order]] if with_qoi else [])]
        header = [schema.index_col, *schema.feature_cols, *([schema.qoi_col] if with_qoi else [])]
        write_columns(path, header, columns)
        ranked = sorted(range(n), key=lambda i: keys[i])
        expected = expected[order[ranked]]
        expected_qoi = qvals[order[ranked]]
    else:
        expected_qoi = stream.qoi if with_qoi else None
    back = ingest_csv(path, schema)
    assert [o.index for o in back.observations] == list(range(n))
    assert np.array_equal(back.feature_matrix, expected)
    assert all(np.array_equal(o.features, row) for o, row in zip(back.observations, expected))
    if with_qoi:
        assert np.array_equal(back.qoi, expected_qoi)
    else:
        assert back.qoi is None


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    kinds=st.lists(st.sampled_from(["int", "float", "str"]), min_size=1, max_size=4),
)
def test_write_columns_bytes_match_csv_writer(tmp_path_factory, seed, n, kinds):
    # The one-template row writer against csv.writer on the formatted cells:
    # integers and strings as str, floats with 12 significant digits, across
    # magnitudes and the special values, under a header that needs quoting.
    # The strings need no quoting: spaces, tabs, quote-free punctuation and
    # non-ASCII letters, and empty ones beside another column.
    rng = np.random.default_rng(seed)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, 5e-324]
    alphabet = list("ab Z09.:;'\t-_éλ")
    columns = []
    for kind in kinds:
        if kind == "int":
            columns.append(rng.integers(-(10**15), 10**15, size=n))
        elif kind == "str":
            shortest = 0 if len(kinds) > 1 else 1
            columns.append(np.array(["".join(rng.choice(alphabet, size=rng.integers(shortest, 6)))
                                     for _ in range(n)]))
        else:
            col = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            special = rng.random(n) < 0.3
            col[special] = rng.choice(specials, size=int(special.sum()))
            columns.append(col)
    header = ['a,"b"', *(f"c{j}" for j in range(1, len(columns)))]
    path = tmp_path_factory.mktemp("csv") / "columns.csv"
    write_columns(path, header, columns)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(zip(*(
        ["%.12g" % v for v in col.tolist()] if col.dtype.kind == "f" else [str(v) for v in col.tolist()]
        for col in columns
    )))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    d=st.integers(1, 2),
    with_qoi=st.booleans(),
    fault=st.sampled_from(["empty", "blank", "short", "non-numeric"]),
    data=st.data(),
)
def test_ingest_names_the_bad_cell(tmp_path_factory, seed, n, d, with_qoi, fault, data):
    rng = np.random.default_rng(seed)
    stream = random_stream(rng, n, d, with_qoi)
    path = tmp_path_factory.mktemp("csv") / "stream.csv"
    schema = write_stream_csv(stream, path)
    lines = path.read_text().splitlines()
    row = data.draw(st.integers(0, n - 1))
    cols = [schema.index_col, *schema.feature_cols, *([schema.qoi_col] if with_qoi else [])]
    # A row cut before its first cell is blank, and blank rows are skipped.
    col = data.draw(st.integers(1 if fault == "short" else 0, len(cols) - 1))
    cells = lines[row + 1].split(",")
    if fault == "short":
        cells = cells[:col]
    else:
        cells[col] = {"empty": "", "blank": "  ", "non-numeric": "1.2.3"}[fault]
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    if fault == "non-numeric":
        what = f"non-numeric value '1.2.3' in column '{cols[col]}'"
    else:
        what = f"empty cell in column '{cols[col]}'"
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {row + 2}: {what}")):
        ingest_csv(path, schema)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 50),
    d=st.integers(1, 2),
    with_qoi=st.booleans(),
    data=st.data(),
)
def test_block_permute_keeps_pairs_and_blocks(seed, n, d, with_qoi, data):
    rng = np.random.default_rng(seed)
    stream = random_stream(rng, n, d, with_qoi)
    block_len = data.draw(st.integers(1, n))
    out = block_permute(stream, block_len, seed)
    # Normal draws are distinct, so each output row names its source row.
    source = {row.tobytes(): i for i, row in enumerate(stream.feature_matrix)}
    moved = [source[row.tobytes()] for row in out.feature_matrix]
    assert sorted(moved) == list(range(n))
    assert [o.index for o in out.observations] == list(range(n))
    n_blocks = n // block_len
    for b in range(n_blocks):
        block = moved[b * block_len : (b + 1) * block_len]
        assert block[0] % block_len == 0
        assert block == list(range(block[0], block[0] + block_len))
    assert moved[n_blocks * block_len :] == list(range(n_blocks * block_len, n))
    if with_qoi:
        assert np.array_equal(out.qoi, stream.qoi[moved])
    else:
        assert out.qoi is None
