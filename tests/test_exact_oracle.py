"""The periodic secretary's decisions against exact arithmetic.

Every other equivalence test compares one float path with another (list
against iterator, tracked against one-point, batch against incremental), so
an error that all the paths share passes them all. Here the rule is
transcribed once more, in exact arithmetic, and both float paths are held to
it:

- under entropy, in 60-digit ``decimal``: the SE kernel, a row-by-row
  Cholesky factor of the accepted set's noisy Gram matrix, the threshold
  max_r v(r | S) * exp(-2 slack) over the reference period in variance
  space (gain >= best gain - slack, with gain = c + log(v) / 2), and the
  first arrival whose variance meets it;
- under a modular utility, in ``fractions.Fraction``: the fixed threshold
  max(reference weights) - slack and the first k arrivals whose weight meets
  it.

A float run must make the exact decisions, or else its first divergent
decision must be a tie that roundoff decides: there the exact margin, the
relative distance of the arrival's exact variance (or weight) from the exact
threshold, is at most ``MARGIN_BOUND``.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_secretary import (
    GPHyperparams,
    PeriodicSecretaryConfig,
    PeriodicStreamSpec,
    UtilityFunction,
    generate_periodic_stream,
    periodic_secretary,
)

DIGITS = 60
MARGIN_BOUND = 1e-12


def exact_entropy_scan(
    X: np.ndarray, hyper: GPHyperparams, T: int, k: int, slack: float
) -> tuple[list[int], list[Decimal]]:
    """The entropy rule on the rows of X in 60-digit arithmetic: the positions
    it picks, and for each arrival it decides (positions T, T + 1, ...) the
    margin v / v_thr - 1 of its variance against the threshold variance."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ls = [Decimal(v) for v in hyper.lengthscales.tolist()]
        Xs = [[Decimal(v) / s for v, s in zip(row, ls)] for row in X.tolist()]
        signal = Decimal(hyper.signal_variance)
        prior = signal + Decimal(hyper.noise_variance)
        factor = (Decimal(-2) * Decimal(slack)).exp() if math.isfinite(slack) else Decimal(0)
        kernel: dict[tuple[int, int], Decimal] = {}

        def k_of(a: int, b: int) -> Decimal:
            if (a, b) not in kernel:
                sq = sum((p - q) ** 2 for p, q in zip(Xs[a], Xs[b]))
                kernel[a, b] = signal * (sq / -2).exp()
            return kernel[a, b]

        S: list[int] = []  # accepted positions
        L: list[list[Decimal]] = []  # rows of the lower Cholesky factor of S's noisy Gram matrix

        def variance(x: int) -> tuple[Decimal, list[Decimal]]:
            """v(x | S) = prior - |a|^2 for a = L^-1 k(S, x), by forward substitution."""
            a: list[Decimal] = []
            for i, s in enumerate(S):
                a.append((k_of(s, x) - sum(L[i][j] * a[j] for j in range(i))) / L[i][i])
            return prior - sum(c * c for c in a), a

        def threshold() -> Decimal:
            return max(variance(r)[0] for r in range(T)) * factor

        v_thr = threshold()
        picks: list[int] = []
        margins: list[Decimal] = []
        for t in range(T, len(Xs)):
            if len(picks) == k:
                break
            v, a = variance(t)
            margins.append(v / v_thr - 1 if v_thr else Decimal("Infinity"))
            if v >= v_thr:
                L.append([*a, v.sqrt()])  # the factor gains the row [a, pivot]
                S.append(t)
                picks.append(t)
                v_thr = threshold()
        return picks, margins


def exact_modular_scan(
    w: np.ndarray, T: int, k: int, slack: float
) -> tuple[list[int], list[Fraction | float]]:
    """The modular rule on weights w in exact rationals: the positions it
    picks, and for each arrival it decides the margin |w - threshold| over
    the larger of |max reference weight| and the slack."""
    if not math.isfinite(slack):  # every arrival meets a threshold of -inf
        decided = min(len(w) - T, k)
        return list(range(T, T + decided)), [math.inf] * decided
    weights = [Fraction(v) for v in w.tolist()]
    best = max(weights[:T])
    threshold = best - Fraction(slack)
    scale = max(abs(best), Fraction(slack)) or Fraction(1)
    picks: list[int] = []
    margins: list[Fraction] = []
    for t in range(T, len(w)):
        if len(picks) == k:
            break
        margins.append(abs(weights[t] - threshold) / scale)
        if weights[t] >= threshold:
            picks.append(t)
    return picks, margins


def first_divergence(exact: list[int], picks: list[int]) -> int | None:
    """The arrival at which ``picks`` first departs from ``exact``: the
    earlier of the first pair of differing picks, or the first pick past the
    shorter list; None where they agree."""
    for a, b in zip(exact, picks):
        if a != b:
            return min(a, b)
    if len(exact) == len(picks):
        return None
    return (exact if len(exact) > len(picks) else picks)[min(len(exact), len(picks))]


def assert_exact_or_tie(exact: list[int], margins: list, T: int, runs: dict) -> None:
    for path, result in runs.items():
        t = first_divergence(exact, list(result.chosen))
        if t is not None:
            margin = abs(margins[t - T])
            assert margin <= MARGIN_BOUND, (
                f"{path} path departs from the exact picks {exact} at arrival {t}"
                f" with exact margin {float(margin):.3e}: {result.chosen}"
            )


def random_instance(seed, T, periods, d, stream_noise, slack_kind):
    rng = np.random.default_rng(seed)
    spec = PeriodicStreamSpec(
        period_T=T,
        noise_cov=stream_noise * np.eye(d),
        length_N=T * periods,
        base_waveform=rng.normal(size=(T, d)),
    )
    slack = {"zero": 0.0, "uniform": float(rng.uniform(0.0, 0.5)), "inf": math.inf}[slack_kind]
    return rng, generate_periodic_stream(spec, seed), slack


INSTANCES = dict(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(2, 7),
    periods=st.integers(2, 5),
    d=st.sampled_from([1, 2]),
    stream_noise=st.sampled_from([0.0, 1e-6, 0.05, 0.35]),
    slack_kind=st.sampled_from(["zero", "uniform", "inf"]),
    k=st.integers(1, 6),
)


@settings(max_examples=150, deadline=None)
@given(gp_noise=st.sampled_from([0.06, 0.1, 0.5]), **INSTANCES)
def test_entropy_decisions_are_exact_or_roundoff_ties(
    seed, T, periods, d, stream_noise, slack_kind, k, gp_noise
):
    # GP noise of at least 0.06 keeps every exact variance above the float
    # path's clamp floor and its Gram matrices clear of jitter, so the
    # oracle needs neither.
    rng, stream, slack = random_instance(seed, T, periods, d, stream_noise, slack_kind)
    hyper = GPHyperparams(rng.uniform(0.3, 2.0, size=d), rng.uniform(0.5, 2.0), gp_noise)
    f = UtilityFunction.entropy(hyper)
    cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=slack)
    rows = stream.observations
    exact, margins = exact_entropy_scan(stream.feature_matrix, hyper, T, k, slack)
    runs = {"rows": periodic_secretary(rows, f, cfg), "iterator": periodic_secretary(iter(rows), f, cfg)}
    assert_exact_or_tie(exact, margins, T, runs)


@settings(max_examples=100, deadline=None)
@given(scale=st.integers(-3, 3), **INSTANCES)
def test_modular_decisions_are_exact_or_roundoff_ties(
    seed, T, periods, d, stream_noise, slack_kind, k, scale
):
    # Weights are the first feature scaled by a power of ten, so the float
    # subtraction max - slack rounds; at zero stream noise every period
    # repeats the reference weights, which tie the threshold at slack 0.
    _rng, stream, slack = random_instance(seed, T, periods, d, stream_noise, slack_kind)
    w = stream.feature_matrix[:, 0] * 10.0**scale
    f = UtilityFunction.modular(w)
    cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=slack)
    rows = stream.observations
    exact, margins = exact_modular_scan(w, T, k, slack)
    runs = {"rows": periodic_secretary(rows, f, cfg), "iterator": periodic_secretary(iter(rows), f, cfg)}
    assert_exact_or_tie(exact, margins, T, runs)
