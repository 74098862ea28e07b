"""Property tests over random streams and inputs: the SE kernel, the
tracked-pool engine, the one-point path and arrival test, the prefix-means
curve, the periodic scan, the entropy criterion, exhaustive enumeration,
the CSV column writer, CSV round trips and block permutation.

Features are drawn from seeded normal distributions, so candidates are in
general position: ties between gains are exact (such as two points at the
prior variance) or far apart, and no decision turns on roundoff. The
enumeration test makes exact ties on purpose, with weights rounded to one
decimal.
"""

import csv
import io
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_secretary import (
    CsvSchema,
    GPConditioner,
    GPHyperparams,
    Observation,
    ObservationStream,
    PeriodicSecretaryConfig,
    UtilityFunction,
    block_permute,
    entropy_criterion,
    exhaustive_optimum,
    ingest_csv,
    offline_greedy,
    periodic_secretary,
    predict_many,
    prefix_means,
    write_stream_csv,
)
from periodic_secretary.gp import _JITTER_LADDER, _se_scaled
from periodic_secretary.kv import write_columns, write_csv

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
    if draw(st.integers(0, 2)) == 0:
        weights = np.round(weights, 1)  # exact ties between subset sums
    return weights, k


def first_best_subset(weights, k):
    """Brute-force oracle: the first subset, in lexicographic order, with the
    largest sum, where each sum adds its weights left to right. (An explicit
    loop, since ``sum`` over floats compensates roundoff from Python 3.12.)"""
    best, best_val = (), -math.inf
    for combo in combinations(range(len(weights)), k):
        val = 0.0
        for i in combo:
            val += weights[i]
        if val > best_val:
            best, best_val = combo, val
    return best


@SETTINGS
@given(instance=modular_instances())
@example(instance=(np.round(np.linspace(-1.0, 1.0, 12), 1), 1))
@example(instance=(np.round(np.linspace(-1.0, 1.0, 12), 1), 12))
@example(instance=(np.round(np.linspace(-1.0, 1.0, 14), 1), 9))
@example(instance=(np.zeros(13), 8))
@example(instance=(np.array([0.1, 0.1, 0.4, 0.1]), 3))  # (.1 + .1) + .4 > (.1 + .4) + .1
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
    fresh = GPConditioner.from_points(pool[order], hyper)
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
    utility=st.sampled_from(["modular", "entropy", "zero-noise entropy"]),
    data=st.data(),
)
def test_tracked_scans_match_gain_space_rule(seed, d, n, m, utility, data):
    # max_tracked_gain and first_tracked_hit, which the entropy evaluator
    # answers from the tracked variances, give the threshold and the index
    # of np.max and np.flatnonzero over tracked_gains. Thresholds include
    # gains taken from the pool itself, so exact ties are tried, and the
    # next float above the best gain still to scan, whose point lies inside
    # the variance guard band but misses the threshold. At zero noise the
    # accepted points repeat pool locations, whose variances then sit at
    # the clamp floor. The arrival test ``meets``, which the entropy
    # evaluator answers from the one-point variance, gives gain >= threshold
    # for a new point or one of the stream, at its exact one-point gain, one
    # ulp either side and the scan's threshold.
    rng = np.random.default_rng(seed)
    obs = random_observations(rng, n + m, d)
    if utility == "modular":
        f = UtilityFunction.modular(np.round(rng.normal(size=n + m), 1))
    elif utility == "entropy":
        f = UtilityFunction.entropy(random_hyper(rng, d))
    else:
        f = UtilityFunction.entropy(GPHyperparams(rng.uniform(0.3, 2.0, size=d), 1.0, 0.0))
        obs[n:] = [Observation(n + j, obs[rng.integers(n)].features) for j in range(m)]
    ev = f.evaluator()
    ev.track(obs[:n])
    for o in obs[n:]:
        ev.accept(o)
    gains = ev.tracked_gains()
    stop = data.draw(st.integers(1, n))
    assert ev.max_tracked_gain(stop) == float(np.max(gains[:stop]))
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
    assert ev.first_tracked_hit(threshold, start) == (start + int(hits[0]) if hits.size else None)
    index = int(rng.integers(n + m))
    features = data.draw(st.sampled_from([obs[index].features, rng.normal(size=d)]))
    arrival = Observation(index, features)
    gain = ev.gain(arrival)
    for t in (gain, float(np.nextafter(gain, -np.inf)), float(np.nextafter(gain, np.inf)), threshold):
        assert ev.meets(arrival, t) == (ev.gain(arrival) >= t)


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
        assert np.array_equal(K[:, j], _se_scaled(A, B[j], sv))


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
        rows = [[keys[i], *expected[j], *([qvals[j]] if with_qoi else [])]
                for i, j in enumerate(order)]
        header = [schema.index_col, *schema.feature_cols, *([schema.qoi_col] if with_qoi else [])]
        write_csv(path, header, rows)
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
    kinds=st.lists(st.sampled_from(["int", "float"]), min_size=1, max_size=4),
)
def test_write_columns_bytes_match_csv_writer(tmp_path_factory, seed, n, kinds):
    # The one-template row writer against csv.writer on the formatted cells:
    # integers as str, floats with 12 significant digits, across magnitudes
    # and the special values, under a header that needs quoting.
    rng = np.random.default_rng(seed)
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, 5e-324]
    columns = []
    for kind in kinds:
        if kind == "int":
            columns.append(rng.integers(-(10**15), 10**15, size=n))
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
