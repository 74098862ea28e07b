import math
import tracemalloc

import numpy as np
import pytest

from periodic_secretary import (
    GPHyperparams,
    Observation,
    ObservationStream,
    PeriodicSecretaryConfig,
    PeriodicStreamSpec,
    SelectionResult,
    UtilityFunction,
    estimate_utility_noise,
    exhaustive_optimum,
    generate_periodic_stream,
    offline_greedy,
    periodic_secretary,
    random_sampler,
    scheduled_sampler,
    submodular_secretary,
    two_sine_waveform,
)
from periodic_secretary.selectors import _classical_pick, utility_trace_for, write_selection_csv

from conftest import make_observations, random_hyper


def noiseless_stream(values=(0.0, 3.0, 1.0, 2.0), repeats=3):
    spec = PeriodicStreamSpec(
        period_T=len(values),
        noise_cov=np.zeros((1, 1)),
        length_N=len(values) * repeats,
        base_waveform=np.asarray(values, dtype=float)[:, None],
    )
    return generate_periodic_stream(spec, seed=0)


def value_utility(stream):
    return UtilityFunction.modular(stream.feature_matrix[:, 0])


class TestPeriodicSecretary:
    @pytest.mark.parametrize("slack", [-0.5, math.nan])
    def test_config_refuses_negative_or_nan_slack(self, slack):
        # A NaN slack would make every threshold NaN, so the scan would accept
        # nothing and return an ordinary-looking empty selection.
        with pytest.raises(ValueError, match="threshold_slack must be non-negative"):
            PeriodicSecretaryConfig(k=1, period_T=1, threshold_slack=slack)

    def test_hand_trace_single_pick(self):
        stream = noiseless_stream()
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=1, period_T=4, threshold_slack=0.0)
        result = periodic_secretary(stream.observations, f, cfg)
        assert result.chosen == (5,)
        assert result.utility_trace == (3.0,)
        assert result.threshold_trace == (3.0,)
        assert result.terminated == "filled_k"

    def test_huge_slack_accepts_first_k(self):
        stream = noiseless_stream(repeats=4)
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=5, period_T=4, threshold_slack=1e12)
        result = periodic_secretary(stream.observations, f, cfg)
        assert result.chosen == (4, 5, 6, 7, 8)

    def test_entropy_tie_accepts_first_post_reference(self, unit_hyper):
        # Before any acceptance every candidate carries the prior entropy, so
        # the scan accepts the very first observation after the reference set.
        stream = noiseless_stream(repeats=3)
        f = UtilityFunction.entropy(unit_hyper)
        cfg = PeriodicSecretaryConfig(k=2, period_T=4, threshold_slack=0.0)
        result = periodic_secretary(stream.observations, f, cfg)
        assert result.chosen[0] == 4

    def test_never_selects_reference_indices(self):
        rng = np.random.default_rng(2)
        spec = PeriodicStreamSpec(
            period_T=10,
            noise_cov=np.array([[0.5]]),
            length_N=100,
            base_waveform=rng.normal(size=(10, 1)),
        )
        for seed in range(5):
            stream = generate_periodic_stream(spec, seed=seed)
            f = value_utility(stream)
            cfg = PeriodicSecretaryConfig(k=8, period_T=10, threshold_slack=0.4)
            result = periodic_secretary(stream.observations, f, cfg)
            assert all(i >= 10 for i in result.chosen)

    def test_partial_fill_reports_end_of_stream(self):
        stream = noiseless_stream(repeats=3)
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=6, period_T=4, threshold_slack=0.0)
        result = periodic_secretary(stream.observations, f, cfg)
        # Only one observation per period matches the reference maximum.
        assert result.chosen == (5, 9)
        assert result.terminated == "end_of_stream"

    def test_first_acceptance_matches_reference_maximum(self):
        stream = noiseless_stream()
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=1, period_T=4, threshold_slack=0.0)
        result = periodic_secretary(stream.observations, f, cfg)
        assert result.utility_trace[0] == 3.0  # equals max over the reference set

    def test_stream_shorter_than_period_rejected(self):
        stream = noiseless_stream(repeats=3)
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=1, period_T=13, threshold_slack=0.0)
        with pytest.raises(ValueError, match="before one full period"):
            periodic_secretary(stream.observations, f, cfg)

    def test_single_pass_generator_input(self):
        stream = noiseless_stream()
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=1, period_T=4, threshold_slack=0.0)
        result = periodic_secretary((o for o in stream.observations), f, cfg)
        assert result.chosen == (5,)

    @pytest.mark.parametrize("slack, utility", [
        *(pytest.param(s, "entropy", id=f"{s}") for s in (0.05, 0.35, 2.0)),
        *(pytest.param(s, "modular", id=f"modular-{s}") for s in (0.05, 0.35, 2.0)),
    ])
    def test_generator_is_not_read_past_last_decision(self, slack, utility):
        # A live stream hands over one arrival at a time; a selector that has
        # filled k must not have asked for anything after its last pick.
        spec = PeriodicStreamSpec(
            period_T=24, noise_cov=np.array([[0.35]]), length_N=24 * 20,
            base_waveform=two_sine_waveform(24),
        )
        stream = generate_periodic_stream(spec, seed=11)
        hyper = GPHyperparams(lengthscales=np.array([0.3]), signal_variance=1.0, noise_variance=0.1)
        f = UtilityFunction.entropy(hyper) if utility == "entropy" else value_utility(stream)
        pulled = 0

        def arrivals():
            nonlocal pulled
            for obs in stream.observations:
                pulled += 1
                yield obs

        cfg = PeriodicSecretaryConfig(k=10, period_T=24, threshold_slack=slack)
        result = periodic_secretary(arrivals(), f, cfg)
        assert result.terminated == "filled_k"
        assert pulled == result.chosen[-1] + 1

    def test_modular_run_builds_no_evaluator(self, monkeypatch):
        # A modular gain is a fixed weight, so neither a list nor a generator
        # run needs the per-run evaluator.
        stream = noiseless_stream(repeats=4)
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=3, period_T=4, threshold_slack=1.0)

        def refuse(self):
            raise AssertionError("a modular run built an evaluator")

        monkeypatch.setattr(UtilityFunction, "evaluator", refuse)
        listed = periodic_secretary(stream.observations, f, cfg)
        streamed = periodic_secretary((o for o in stream.observations), f, cfg)
        assert listed.chosen == streamed.chosen == (5, 7, 9)
        assert listed.utility_trace == streamed.utility_trace == (3.0, 5.0, 8.0)

    @pytest.mark.parametrize("run", [
        lambda s, f: offline_greedy(s.observations, f, 3),
        lambda s, f: submodular_secretary(s.observations, f, 3),
        lambda s, f: exhaustive_optimum(s.observations, f, 3),
        estimate_utility_noise,
    ], ids=["offline_greedy", "submodular_secretary", "exhaustive_optimum", "estimate_utility_noise"])
    def test_modular_run_of_every_other_selector_builds_no_evaluator(self, monkeypatch, run):
        # Every selector and the noise estimate read the weights directly;
        # a modular utility refuses to build an evaluator at all.
        stream = noiseless_stream(repeats=4)
        f = value_utility(stream)
        with pytest.raises(ValueError, match="modular utility has no evaluator"):
            f.evaluator()

        def refuse(self):
            raise AssertionError("a modular run built an evaluator")

        monkeypatch.setattr(UtilityFunction, "evaluator", refuse)
        run(stream, f)

    def test_indices_strictly_increasing(self):
        spec = PeriodicStreamSpec(
            period_T=6,
            noise_cov=np.array([[0.4]]),
            length_N=60,
            base_waveform=np.arange(6.0)[:, None],
        )
        stream = generate_periodic_stream(spec, seed=3)
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=6, period_T=6, threshold_slack=1.0)
        result = periodic_secretary(stream.observations, f, cfg)
        assert list(result.chosen) == sorted(result.chosen)
        assert len(result.chosen) > 1


class TestClassicalSecretary:
    def test_hand_simulation(self):
        scores = [3.0, 1.0, 4.0, 1.0, 5.0]
        obs = make_observations(scores)
        assert _classical_pick(obs, lambda o: float(o.features[0])).index == 2

    def test_decreasing_scores_select_nothing(self):
        obs = make_observations([5.0, 4.0, 3.0, 2.0, 1.0])
        assert _classical_pick(obs, lambda o: float(o.features[0])) is None

    def test_single_item_selected(self):
        obs = make_observations([7.0])
        assert _classical_pick(obs, lambda o: float(o.features[0])).index == 0


class TestSubmodularSecretary:
    def test_k_equals_n_selects_everything(self):
        obs = make_observations([2.0, 1.0, 3.0, 0.5])
        f = UtilityFunction.modular(np.array([2.0, 1.0, 3.0, 0.5]))
        result = submodular_secretary(obs, f, k=4)
        assert result.chosen == (0, 1, 2, 3)
        assert result.terminated == "filled_k"

    def test_k_one_reduces_to_classical(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            vals = rng.uniform(size=12)
            obs = make_observations(vals)
            f = UtilityFunction.modular(vals)
            result = submodular_secretary(obs, f, k=1)
            expected = _classical_pick(obs, lambda o: float(vals[o.index]))
            assert (expected is None and result.chosen == ()) or result.chosen == (expected.index,)

    def test_monte_carlo_competitive_ratio(self):
        # Random arrival order, modular utility: the mean utility stays above
        # the (1 - 1/e)/7 fraction of the offline optimum.
        rng = np.random.default_rng(14)
        base = rng.uniform(0.0, 1.0, size=30)
        f_opt = np.sort(base)[-3:].sum()
        total = 0.0
        trials = 500
        for _ in range(trials):
            shuffled = base[rng.permutation(30)]
            obs = make_observations(shuffled)
            f = UtilityFunction.modular(shuffled)
            result = submodular_secretary(obs, f, k=3)
            total += result.utility_trace[-1] if result.utility_trace else 0.0
        assert total / trials >= f_opt * (1 - 1 / math.e) / 7

    def test_k_exceeding_stream_rejected(self):
        obs = make_observations([1.0, 2.0])
        f = UtilityFunction.modular(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="exceeds"):
            submodular_secretary(obs, f, k=3)

    def test_modular_run_refuses_an_unweighted_index_it_never_scores(self):
        # Index 9 arrives after the one segment's pick (1.0 beats the 0.0
        # observed before it), so the rule never scores it. A modular run
        # gathers every weight first and refuses it, as the periodic
        # secretary and utility_trace_for do.
        obs = [Observation(i, np.array([0.0])) for i in (0, 1, 9)]
        f = UtilityFunction.modular(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=r"^no weight for observation index 9$"):
            submodular_secretary(obs, f, k=1)

    def test_indices_strictly_increasing(self):
        rng = np.random.default_rng(17)
        vals = rng.uniform(size=40)
        obs = make_observations(vals)
        f = UtilityFunction.modular(vals)
        result = submodular_secretary(obs, f, k=6)
        assert list(result.chosen) == sorted(result.chosen)


class TestScheduledSampler:
    def test_ten_over_two(self):
        obs = make_observations(np.zeros(10))
        assert scheduled_sampler(obs, 2).chosen == (0, 5)

    def test_k_equals_n(self):
        obs = make_observations(np.zeros(4))
        assert scheduled_sampler(obs, 4).chosen == (0, 1, 2, 3)

    def test_floor_arithmetic(self):
        obs = make_observations(np.zeros(7))
        assert scheduled_sampler(obs, 3).chosen == (0, 2, 4)


class TestRandomSampler:
    def test_k_equals_n(self):
        obs = make_observations(np.zeros(5))
        assert random_sampler(obs, 5, seed=1).chosen == (0, 1, 2, 3, 4)

    def test_same_seed_identical(self):
        obs = make_observations(np.zeros(20))
        a = random_sampler(obs, 6, seed=42)
        b = random_sampler(obs, 6, seed=42)
        assert a.chosen == b.chosen

    def test_inclusion_frequency_binomial(self):
        obs = make_observations(np.zeros(10))
        k, n, trials = 3, 10, 10000
        hits = sum(0 in random_sampler(obs, k, seed=s).chosen for s in range(trials))
        p = k / n
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 3 * se

    def test_k_exceeding_rejected(self):
        obs = make_observations(np.zeros(3))
        with pytest.raises(ValueError, match="exceeds"):
            random_sampler(obs, 4, seed=0)


@pytest.mark.parametrize(
    "sampler", [lambda s: scheduled_sampler(s, 10), lambda s: random_sampler(s, 10, 3)],
    ids=["scheduled", "random"],
)
def test_samplers_read_a_lists_index_column_alone(sampler):
    # A sampler reads no feature: on a plain list of observations it gathers
    # the index column only, not an (n, d) copy of the features.
    n, d = 20_000, 4
    rows = ObservationStream(np.random.default_rng(0).normal(size=(n, d))).observations
    expected = sampler(rows)
    obs = list(rows)
    tracemalloc.start()
    try:
        result = sampler(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak < n * d * 8


class TestOfflineGreedy:
    def test_modular_picks_top_weights(self):
        weights = np.array([5.0, 1.0, 9.0, 3.0])
        obs = make_observations(np.zeros(4))
        result = offline_greedy(obs, UtilityFunction.modular(weights), k=2)
        assert result.chosen == (2, 0)
        assert result.utility_trace[-1] == 14.0

    def test_ties_break_to_lowest_index(self):
        weights = np.array([2.0, 2.0, 2.0])
        obs = make_observations(np.zeros(3))
        result = offline_greedy(obs, UtilityFunction.modular(weights), k=2)
        assert result.chosen == (0, 1)

    def test_entropy_k_zero_on_empty_ground_set(self, unit_hyper):
        # An empty ground set tracks no pool, so k = 0 still selects nothing.
        result = offline_greedy([], UtilityFunction.entropy(unit_hyper), 0)
        assert (result.chosen, result.utility_trace, result.terminated) == ((), (), "filled_k")

    def test_full_ground_set_order_irrelevant(self, unit_hyper):
        rng = np.random.default_rng(25)
        obs = make_observations(rng.normal(size=5))
        f = UtilityFunction.entropy(unit_hyper)
        result = offline_greedy(obs, f, k=5)
        assert sorted(result.chosen) == [0, 1, 2, 3, 4]
        assert result.utility_trace[-1] == pytest.approx(f.value(obs), abs=1e-8)

    def test_guarantee_against_exhaustive(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            d = rng.integers(1, 3)
            hyper = random_hyper(rng, d=d)
            n = rng.integers(5, 9)
            obs = make_observations(rng.normal(size=(n, d)))
            k = int(rng.integers(1, 4))
            f = UtilityFunction.entropy(hyper)
            greedy = offline_greedy(obs, f, k)
            best = exhaustive_optimum(obs, f, k)
            assert greedy.utility_trace[-1] >= (1 - 1 / math.e) * best.utility_trace[-1] - 1e-8


class TestExhaustiveOptimum:
    def test_modular_matches_top_k(self):
        weights = np.array([5.0, 1.0, 9.0, 3.0])
        obs = make_observations(np.zeros(4))
        result = exhaustive_optimum(obs, UtilityFunction.modular(weights), k=2)
        assert set(result.chosen) == {0, 2}
        assert result.utility_trace[-1] == 14.0

    def test_k_zero_empty(self, unit_hyper):
        obs = make_observations([1.0, 2.0])
        result = exhaustive_optimum(obs, UtilityFunction.entropy(unit_hyper), k=0)
        assert result.chosen == ()
        assert result.utility_trace == ()

    def test_lexicographic_tie_break(self):
        weights = np.array([1.0, 1.0, 1.0])
        obs = make_observations(np.zeros(3))
        result = exhaustive_optimum(obs, UtilityFunction.modular(weights), k=2)
        assert result.chosen == (0, 1)

    def test_exact_sum_beats_float_tie(self):
        # 1e16 + 1.5 and 1e16 + 2.0 round to the same float, but the exact
        # sum of (0, 2) is the larger.
        weights = np.array([1e16, 1.5, 2.0])
        obs = make_observations(np.zeros(3))
        result = exhaustive_optimum(obs, UtilityFunction.modular(weights), k=2)
        assert result.chosen == (0, 2)

    def test_c60_4_peaks_below_4_mb(self):
        # C(60, 4) = 487635 subsets: one table of them all, or their gathered
        # weights (15.6 MB), would not fit; a sort of the 60 weights does.
        weights = np.random.default_rng(7).normal(size=60)
        obs = make_observations(np.zeros(60))
        f = UtilityFunction.modular(weights)
        exhaustive_optimum(obs, f, k=4)
        tracemalloc.start()
        try:
            result = exhaustive_optimum(obs, f, k=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10**6
        assert result.chosen == tuple(sorted(np.argsort(weights)[-4:]))

    def test_oversized_instance_refused(self, unit_hyper):
        obs = make_observations(np.zeros(30))
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            exhaustive_optimum(obs, UtilityFunction.entropy(unit_hyper), k=15)

    def test_entropy_instance_beats_greedy_or_ties(self, unit_hyper):
        rng = np.random.default_rng(41)
        obs = make_observations(rng.normal(size=8))
        f = UtilityFunction.entropy(unit_hyper)
        best = exhaustive_optimum(obs, f, k=3)
        greedy = offline_greedy(obs, f, k=3)
        assert best.utility_trace[-1] >= greedy.utility_trace[-1] - 1e-8


class TestSerialization:
    def test_selection_csv_layout(self, tmp_path):
        stream = noiseless_stream()
        f = value_utility(stream)
        cfg = PeriodicSecretaryConfig(k=2, period_T=4, threshold_slack=0.5)
        result = periodic_secretary(stream.observations, f, cfg)
        path = tmp_path / "sel.csv"
        write_selection_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,stream_index,utility_after,threshold"
        assert len(lines) == len(result.chosen) + 1
        first = lines[1].split(",")
        assert first[0] == "1" and int(first[1]) == result.chosen[0]

    def test_schedule_csv_empty_utility_column(self, tmp_path):
        obs = make_observations(np.zeros(6))
        result = scheduled_sampler(obs, 2)
        path = tmp_path / "sel.csv"
        write_selection_csv(result, path)
        row = path.read_text().strip().splitlines()[1].split(",")
        assert row[2] == "" and row[3] == ""

    def test_trace_helper_matches_value(self, unit_hyper):
        rng = np.random.default_rng(50)
        obs = make_observations(rng.normal(size=4))
        f = UtilityFunction.entropy(unit_hyper)
        trace = utility_trace_for(f, obs)
        assert len(trace) == 4
        assert trace[-1] == pytest.approx(f.value(obs), abs=1e-8)


class TestStreamDimension:
    """A 2-d entropy utility fed a 1-d stream is refused where the selector
    first meets the stream, naming both dimensions."""

    def setup_method(self):
        self.f = UtilityFunction.entropy(
            GPHyperparams(lengthscales=np.array([0.5, 0.5]), signal_variance=1.0, noise_variance=0.1)
        )
        self.obs = make_observations(np.linspace(0.0, 1.0, 12))

    def test_periodic_sequence(self):
        cfg = PeriodicSecretaryConfig(k=2, period_T=4, threshold_slack=0.1)
        with pytest.raises(ValueError, match="dimension 1, lengthscales have 2"):
            periodic_secretary(self.obs, self.f, cfg)

    def test_periodic_iterator(self):
        cfg = PeriodicSecretaryConfig(k=2, period_T=4, threshold_slack=0.1)
        with pytest.raises(ValueError, match="dimension 1, lengthscales have 2"):
            periodic_secretary(iter(self.obs), self.f, cfg)

    def test_periodic_iterator_arrival_that_would_be_rejected(self):
        # The 2-d stream accepts its first arrival; the 1-d arrival after it
        # would read as that point again, gain little and be passed over.
        feats = [[5.0, 5.0], [-5.0, -5.0], [0.3, 0.3], [0.3]]
        obs = [Observation(i, np.array(x)) for i, x in enumerate(feats)]
        cfg = PeriodicSecretaryConfig(k=2, period_T=2, threshold_slack=0.0)
        with pytest.raises(ValueError, match="query has dimension 1, lengthscales have 2"):
            periodic_secretary(iter(obs), self.f, cfg)

    def test_submodular(self):
        with pytest.raises(ValueError, match="dimension 1, lengthscales have 2"):
            submodular_secretary(self.obs, self.f, 3)

    def test_greedy(self):
        with pytest.raises(ValueError, match="dimension 1, lengthscales have 2"):
            offline_greedy(self.obs, self.f, 3)


def test_selectors_are_deterministic(unit_hyper):
    spec = PeriodicStreamSpec(
        period_T=5,
        noise_cov=np.array([[0.3]]),
        length_N=40,
        base_waveform=np.linspace(-1, 1, 5)[:, None],
    )
    stream = generate_periodic_stream(spec, seed=77)
    f = UtilityFunction.entropy(unit_hyper)
    cfg = PeriodicSecretaryConfig(k=4, period_T=5, threshold_slack=0.2)
    a = periodic_secretary(stream.observations, f, cfg)
    b = periodic_secretary(stream.observations, f, cfg)
    assert a == b
    assert submodular_secretary(stream.observations, f, 4) == submodular_secretary(
        stream.observations, f, 4
    )


class TestRefusals:
    """Each refusal of the selector types, with its exact message."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(chosen=(0,), utility_trace=(), terminated="stopped"),
             "unknown termination reason 'stopped'"),
            (dict(chosen=(0, 1), utility_trace=(1.0,), terminated="filled_k"),
             "utility_trace length must match chosen"),
            (dict(chosen=(0,), utility_trace=(), terminated="filled_k", threshold_trace=()),
             "threshold_trace length must match chosen"),
        ],
    )
    def test_selection_result(self, fields, message):
        with pytest.raises(ValueError) as exc:
            SelectionResult(**fields)
        assert str(exc.value) == message

    def test_final_utility_without_a_trace(self):
        result = SelectionResult(chosen=(3,), utility_trace=(), terminated="filled_k")
        with pytest.raises(ValueError) as exc:
            result.final_utility
        assert str(exc.value) == "selector recorded no utility trace"

    @pytest.mark.parametrize(
        "k, period, message",
        [(0, 4, "k must be positive, got 0"), (2, 0, "period_T must be positive, got 0")],
    )
    def test_periodic_secretary_config(self, k, period, message):
        with pytest.raises(ValueError) as exc:
            PeriodicSecretaryConfig(k=k, period_T=period, threshold_slack=0.0)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "select, k, message",
        [(submodular_secretary, 0, "k must be positive, got 0"),
         (offline_greedy, -1, "k must be non-negative, got -1")],
    )
    def test_capacity_below_its_range(self, select, k, message):
        obs = make_observations([0.0, 1.0, 2.0])
        with pytest.raises(ValueError) as exc:
            select(obs, UtilityFunction.modular(np.ones(3)), k)
        assert str(exc.value) == message
