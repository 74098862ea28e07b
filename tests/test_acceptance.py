"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavier criteria share module-scoped fixtures; the whole suite is
seeded and deterministic.
"""

import math

import numpy as np
import pytest

from periodic_secretary import (
    AlgorithmSpec,
    ExperimentConfig,
    GPHyperparams,
    Observation,
    PeriodicSecretaryConfig,
    PeriodicStreamSpec,
    SelectionResult,
    UtilityFunction,
    attach_gp_qoi,
    entropy_criterion,
    exhaustive_optimum,
    expected_max_gap,
    gaussian_tail_q,
    generate_periodic_stream,
    offline_greedy,
    periodic_secretary,
    predict_many,
    run_comparison,
    seasonal_waveform,
    tune_threshold_slack,
    two_sine_waveform,
    validate_bounds,
)
from periodic_secretary import harness
from periodic_secretary.cli import main as cli_main
from periodic_secretary.selectors import utility_trace_for

from reference import check_submodular_monotone, se_kernel


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def random_instance(rng, entropy_kind: bool):
    d = int(rng.integers(1, 3))
    n = int(rng.integers(5, 13))
    k = int(rng.integers(1, 5))
    obs = [Observation(j, rng.normal(size=d)) for j in range(n)]
    if entropy_kind:
        hyper = GPHyperparams(
            lengthscales=rng.uniform(0.3, 2.0, size=d),
            signal_variance=rng.uniform(0.5, 2.0),
            noise_variance=rng.uniform(0.02, 0.3),
        )
        f = UtilityFunction.entropy(hyper)
    else:
        f = UtilityFunction.modular(rng.uniform(0.0, 5.0, size=n))
    return obs, f, k


def test_criterion_1_greedy_guarantee():
    rng = np.random.default_rng(101)
    for i in range(100):
        obs, f, k = random_instance(rng, entropy_kind=(i % 2 == 0))
        greedy_val = offline_greedy(obs, f, k).utility_trace[-1]
        best_val = exhaustive_optimum(obs, f, k).utility_trace[-1]
        assert greedy_val >= (1 - 1 / math.e) * best_val - 1e-8, (
            f"instance {i}: greedy {greedy_val} below guarantee of optimum {best_val}"
        )
    report(1, "greedy >= (1-1/e) * exhaustive optimum on 100 random instances")


def test_criterion_2_submodularity_oracle():
    rng = np.random.default_rng(202)
    for i in range(100):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(4, 9))
        # noise_variance >= 0.1 keeps conditional variances above 1/(2*pi*e),
        # where joint differential entropy is provably monotone.
        hyper = GPHyperparams(
            lengthscales=rng.uniform(0.3, 2.0, size=d),
            signal_variance=rng.uniform(0.5, 2.0),
            noise_variance=rng.uniform(0.1, 0.4),
        )
        ground = [Observation(j, rng.normal(size=d)) for j in range(n)]
        rep = check_submodular_monotone(UtilityFunction.entropy(hyper), ground)
        assert rep.submodular and rep.monotone, f"ground set {i}: {rep.witness}"

    fixture = check_submodular_monotone(
        lambda obs: float(len(obs)) ** 2, [Observation(j, np.array([float(j)])) for j in range(5)]
    )
    assert not fixture.submodular
    assert fixture.witness is not None and fixture.witness.property_violated == "submodularity"
    report(2, "entropy criterion submodular+monotone on 100 ground sets; |A|^2 rejected with witness")


def test_criterion_3_hand_traced_selection():
    spec = PeriodicStreamSpec(
        period_T=4,
        noise_cov=np.zeros((1, 1)),
        length_N=12,
        base_waveform=np.array([[0.0], [3.0], [1.0], [2.0]]),
    )
    stream = generate_periodic_stream(spec, seed=0)
    f = UtilityFunction.modular(stream.feature_matrix[:, 0])
    result = periodic_secretary(
        stream.observations, f, PeriodicSecretaryConfig(k=1, period_T=4, threshold_slack=0.0)
    )
    assert result.chosen == (5,)
    assert result.threshold_trace == (3.0,)
    report(3, "noiseless hand trace selects exactly stream index 5 at threshold 3")


def modular_factory(stream):
    return UtilityFunction.modular(stream.feature_matrix[:, 0])


def test_criterion_4_expected_successes_bound():
    # sigma_d^2 = 0.35, ten periods: success counts validated per (k, slack)
    # cell at three standard errors, with the utility noise estimated from
    # the streams themselves.
    spec = PeriodicStreamSpec(
        period_T=100,
        noise_cov=np.array([[0.35]]),
        length_N=1000,
        base_waveform=two_sine_waveform(100),
    )
    rep = validate_bounds(
        spec,
        modular_factory,
        k_values=[3, 9, 15],
        slack_values=[0.0, 0.35, 0.7],
        runs=200,
        seed=404,
    )
    assert len(rep.cells) == 9
    bad = [c for c in rep.cells if c.success_violation]
    assert not bad, f"success-count violations in cells {[(c.k, c.threshold_slack) for c in bad]}"
    report(4, "mean success count >= expected-successes bound - 3 SE in all 9 cells (200 runs each)")


def test_criterion_5_utility_lower_bound():
    # Reduced instances (N=60, k<=4) so the optimum is exact by enumeration.
    spec = PeriodicStreamSpec(
        period_T=6,
        noise_cov=np.array([[0.35]]),
        length_N=60,
        base_waveform=two_sine_waveform(6),
    )
    rep = validate_bounds(
        spec,
        modular_factory,
        k_values=[2, 3, 4],
        slack_values=[0.0, 0.25, 0.5],
        runs=200,
        seed=505,
    )
    assert len(rep.cells) == 9
    assert all(not c.informational for c in rep.cells), "expected exact optima everywhere"
    assert all(not c.vacuous for c in rep.cells), "expected every cell informative"
    bad = [c for c in rep.cells if c.utility_violation]
    assert not bad, f"utility-bound violations in cells {[(c.k, c.threshold_slack) for c in bad]}"
    report(5, "mean utility >= lower bound in all 9 non-vacuous cells with exact optima (200 runs)")


def stand_in_selector(first: bool):
    """A periodic-secretary stand-in that fills k without looking: the k
    arrivals right after the reference period, or the last k of the stream."""
    def run(stream, f, cfg):
        T, k = cfg.period_T, cfg.k
        picks = stream[T : T + k] if first else stream[-k:]
        return SelectionResult(
            chosen=tuple(picks.indices.tolist()),
            utility_trace=utility_trace_for(f, picks),
            terminated="filled_k",
        )
    return run


def test_criterion_5_flags_blind_selectors(monkeypatch):
    """Criterion 5's own check, run with two blind selectors in place of the
    periodic secretary, must flag them in fixed cells, each with its mean
    significantly below the bound (mean + 3 SE < bound): *last k* in all 9
    cells, *first k* at k = 4 with slack 0 and 0.25. A bound check that
    passed them would not tell the rule from no rule.

    Criterion 4 has no such check yet: at N = 1000 every one of its utility
    cells is informational (no exact optimum), so no selector can be
    flagged there until a modular optimum counts as exact at any size.
    """
    spec = PeriodicStreamSpec(
        period_T=6,
        noise_cov=np.array([[0.35]]),
        length_N=60,
        base_waveform=two_sine_waveform(6),
    )

    def flagged(first: bool) -> set[tuple[int, float]]:
        monkeypatch.setattr(harness, "periodic_secretary", stand_in_selector(first))
        rep = validate_bounds(
            spec,
            modular_factory,
            k_values=[2, 3, 4],
            slack_values=[0.0, 0.25, 0.5],
            runs=200,
            seed=505,
        )
        assert len(rep.cells) == 9
        return {
            (c.k, c.threshold_slack)
            for c in rep.cells
            if c.utility_violation and c.mean_utility + 3 * c.se_utility < c.utility_bound
        }

    every_cell = {(k, slack) for k in (2, 3, 4) for slack in (0.0, 0.25, 0.5)}
    assert flagged(first=False) == every_cell
    assert {(4, 0.0), (4, 0.25)} <= flagged(first=True)
    report(5, "last k flagged below the utility bound in all 9 cells, first k at k = 4, slack 0 and 0.25")


def test_criterion_6_threshold_sweep_shape():
    spec = PeriodicStreamSpec(
        period_T=100,
        noise_cov=np.array([[0.35]]),
        length_N=1000,
        base_waveform=two_sine_waveform(100),
    )
    hyper = GPHyperparams(lengthscales=np.array([0.3]), signal_variance=1.0, noise_variance=0.1)
    k, runs = 75, 50
    grid = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.35, 0.75, 2.0]
    result = tune_threshold_slack(
        spec, UtilityFunction.entropy(hyper), k=k, slack_grid=grid, runs=runs, seed=606
    )
    se_u = result.sd_utility / math.sqrt(runs)
    se_fill = result.sd_fill / math.sqrt(runs)
    best = int(np.argmax(result.mean_utility))

    # Smallest slack under-fills (by two standard errors, and grossly so).
    assert result.mean_fill[0] < k - 2 * se_fill[0]
    # The maximum sits strictly inside the grid.
    assert 0 < best < len(grid) - 1, f"best slack at grid edge: index {best}"
    # The largest slack fills k but pays for it in utility.
    assert result.mean_fill[-1] == k
    gap = result.mean_utility[best] - result.mean_utility[-1]
    se_gap = math.sqrt(se_u[best] ** 2 + se_u[-1] ** 2)
    assert gap >= 2 * se_gap, f"interior optimum not separated: gap {gap} vs 2*SE {2 * se_gap}"
    report(
        6,
        f"three-regime sweep shape: under-fill at {grid[0]}, optimum at {result.best_slack}, "
        f"full-but-worse at {grid[-1]}",
    )


@pytest.fixture(scope="module")
def seasonal_ensemble():
    """Seven-period seasonal stream with GP-drawn qoi, tuned slack, 50 permuted trials."""
    T, periods, k = 52, 7, 28
    spec = PeriodicStreamSpec(
        period_T=T,
        noise_cov=np.diag([0.04, 0.005]),
        length_N=T * periods,
        base_waveform=seasonal_waveform(T, amplitude=2.0),
    )
    hyper = GPHyperparams(lengthscales=np.array([0.4, 0.4]), signal_variance=1.0, noise_variance=0.1)
    base = attach_gp_qoi(generate_periodic_stream(spec, seed=1001), hyper, seed=2002)

    # Tune the slack on permuted trials seeded apart from the evaluation runs.
    tune_cfg = ExperimentConfig(
        algorithms=tuple(
            AlgorithmSpec("periodic", threshold_slack=s) for s in (0.1, 0.2, 0.3, 0.45, 0.7)
        ),
        k=k,
        period_T=T,
        runs=12,
        seed=555,
    )
    tune_rep = run_comparison(base, tune_cfg, hyper, block_len=T, compute_mse=False)
    best_label = max(tune_rep.labels, key=lambda lab: tune_rep.utility_mean[lab][-1])
    slack_star = float(best_label.split(":")[1])

    cfg = ExperimentConfig(
        algorithms=(
            AlgorithmSpec("greedy"),
            AlgorithmSpec("periodic", threshold_slack=slack_star),
            AlgorithmSpec("periodic", threshold_slack=0.05),  # poorly tuned: under-fills
            AlgorithmSpec("submodular"),
            AlgorithmSpec("scheduled"),
            AlgorithmSpec("random"),
        ),
        k=k,
        period_T=T,
        runs=50,
        seed=777,
    )
    report = run_comparison(base, cfg, hyper, block_len=T)
    return report, f"periodic:{slack_star:g}"


def paired_diff(runs_a, runs_b):
    d = runs_a[:, -1] - runs_b[:, -1]
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.shape[0]))


def test_criterion_7_entropy_reduction_ordering(seasonal_ensemble):
    rep, star = seasonal_ensemble
    greedy_final = rep.utility_mean["greedy"][-1]
    star_final = rep.utility_mean[star][-1]

    mean_gap, se_gap = paired_diff(rep.utility_runs["greedy"], rep.utility_runs[star])
    assert mean_gap >= se_gap, "greedy does not dominate the tuned selector by 1 SE"
    for other in ("submodular", "scheduled", "random"):
        mean_gap, se_gap = paired_diff(rep.utility_runs[star], rep.utility_runs[other])
        assert mean_gap >= se_gap, f"tuned selector does not beat {other} by 1 SE"
    assert star_final >= 0.9 * greedy_final, (
        f"tuned selector reaches only {star_final / greedy_final:.3f} of greedy"
    )
    # Offline greedy stays an upper bound (within 1 SE) at every step.
    for lab in rep.labels:
        d = rep.utility_runs["greedy"] - rep.utility_runs[lab]
        mean_curve = d.mean(axis=0)
        se_curve = d.std(axis=0, ddof=1) / math.sqrt(rep.runs)
        assert np.all(mean_curve >= -se_curve), f"greedy mean curve dips below {lab}"
    report(
        7,
        f"greedy >= {star} >= submodular/scheduled/random by 1 SE; "
        f"tuned reaches {star_final / greedy_final:.1%} of greedy over 50 permuted runs",
    )


def test_criterion_8_prediction_error_ordering(seasonal_ensemble):
    rep, star = seasonal_ensemble
    for other in ("scheduled", "random"):
        mean_gap, se_gap = paired_diff(rep.mse_runs[other], rep.mse_runs[star])
        assert mean_gap >= se_gap, f"final MSE of {star} not below {other} by 1 SE"
    report(8, f"held-out MSE of {star} below scheduled and random by 1 SE at m = k")


def test_criterion_9_numerical_core():
    rng = np.random.default_rng(909)

    # Chain-rule joint entropy equals the determinant form to 1e-8 (|A| <= 8).
    for _ in range(20):
        d = int(rng.integers(1, 3))
        hyper = GPHyperparams(
            lengthscales=rng.uniform(0.3, 2.0, size=d),
            signal_variance=rng.uniform(0.5, 2.0),
            noise_variance=rng.uniform(0.05, 0.4),
        )
        pts = rng.normal(size=(int(rng.integers(1, 9)), d))
        m = pts.shape[0]
        K = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                K[i, j] = se_kernel(pts[i], pts[j], hyper)
        K += hyper.noise_variance * np.eye(m)
        _, logdet = np.linalg.slogdet(K)
        det_form = 0.5 * (m * math.log(2 * math.pi * math.e) + logdet)
        assert entropy_criterion(pts, hyper) == pytest.approx(det_form, abs=1e-8)

    # Posterior prediction matches a hand-solved 2x2 system to 1e-10.
    hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.01)
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, 2.0])
    q = np.array([0.25])
    K = np.array(
        [[1.01, se_kernel(X[0], X[1], hyper)], [se_kernel(X[0], X[1], hyper), 1.01]]
    )
    ks = np.array([se_kernel(q, X[0], hyper), se_kernel(q, X[1], hyper)])
    Kinv = np.linalg.inv(K)
    means, variances = predict_many(X, y, np.atleast_2d(q), hyper)
    assert float(means[0]) == pytest.approx(float(ks @ Kinv @ y), abs=1e-10)
    assert float(variances[0]) == pytest.approx(1.01 - float(ks @ Kinv @ ks), abs=1e-10)

    # Gaussian tail values (oracle values from numerical integration).
    assert gaussian_tail_q(0.0) == 0.5
    assert gaussian_tail_q(-1.0) == pytest.approx(0.8413447460685429, abs=1e-6)

    # Expected-maximum bound dominates Monte-Carlo means for n in {10, 100}.
    for n in (10, 100):
        draws = rng.normal(0.0, math.sqrt(0.5), size=(100_000, n))
        assert draws.max(axis=1).mean() <= expected_max_gap(0.5, n)

    # Marginal-gain consistency spot check.
    f = UtilityFunction.entropy(hyper)
    obs = [Observation(i, rng.normal(size=1)) for i in range(4)]
    g = f.value(obs) - f.value(obs[:3])
    assert g + f.value(obs[:3]) == pytest.approx(f.value(obs), rel=1e-12)
    report(9, "entropy chain rule, 2x2 posterior, Gaussian tail, and max-gap bound all verified")


def test_criterion_10_workflow_determinism(tmp_path):
    def run(*argv):
        rc = cli_main([str(a) for a in argv])
        assert rc == 0

    hyper_path = tmp_path / "hyper.cfg"
    hyper_path.write_text("lengthscales = 0.4\nsignal_variance = 1\nnoise_variance = 0.1\n")

    outputs = {}
    for tag in ("a", "b"):
        gen = tmp_path / f"gen_{tag}"
        sel = tmp_path / f"sel_{tag}"
        tune = tmp_path / f"tune_{tag}"
        bounds = tmp_path / f"bounds_{tag}"
        ev = tmp_path / f"eval_{tag}"
        run("generate", "--period", 20, "--noise", 0.3, "--periods", 6, "--seed", 9, "--out", gen)
        run(
            "select", "--input", gen / "stream.csv", "--algo", "periodic", "--k", 6,
            "--period", 20, "--lambda", 0.25, "--hyper", hyper_path, "--seed", 3, "--out", sel,
        )
        run(
            "tune", "--period", 12, "--periods", 5, "--noise", 0.2, "--k", 5,
            "--grid", "0.05,0.2,0.6", "--runs", 4, "--seed", 11, "--hyper", hyper_path, "--out", tune,
        )
        run(
            "bounds", "--k", 5, "--lambda", 0.1, "--sigma-u", 1e-9, "--N", 1000, "--T", 100,
            "--f-opt", 10, "--out", bounds,
        )
        # Evaluation needs a qoi column: reuse the generated stream as its own qoi.
        data = (gen / "stream.csv").read_text().splitlines()
        eval_csv = tmp_path / f"data_{tag}.csv"
        eval_csv.write_text(
            "\n".join(
                [data[0] + ",qoi"] + [row + "," + row.split(",")[1] for row in data[1:]]
            )
            + "\n"
        )
        run(
            "evaluate", "--input", eval_csv, "--qoi-col", "qoi", "--algos",
            "periodic:0.3,scheduled,random", "--k", 5, "--period", 20, "--runs", 3,
            "--seed", 21, "--hyper", hyper_path, "--out", ev,
        )
        outputs[tag] = {
            "stream": (gen / "stream.csv").read_bytes(),
            "selection": (sel / "selection.csv").read_bytes(),
            "sel_summary": (sel / "summary.txt").read_bytes(),
            "tuning": (tune / "tuning.csv").read_bytes(),
            "bounds": (bounds / "bounds.txt").read_bytes(),
            "utility_curves": (ev / "utility_curves.csv").read_bytes(),
            "mse_curves": (ev / "mse_curves.csv").read_bytes(),
            "summary": (ev / "summary.txt").read_bytes(),
        }
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], f"{name} differs between reruns"
    report(10, "generate/select/tune/bounds/evaluate reruns are byte-identical")
