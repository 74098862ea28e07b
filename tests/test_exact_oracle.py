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
threshold, is at most ``MARGIN_BOUND``, and the float comparison is not
exact. A float comparison is exact, so no departure is forgiven, where
  - under entropy, the exact margin is 0 and the two variances the path
    compares (the arrival's and the best reference's, replayed on a
    ``GPConditioner`` as that path drives it) are bit-equal, such as every
    prior variance given the empty set;
  - under a modular utility, the float threshold max - slack equals the
    exact one: the weights are exact, so then every comparison is.

The numbers a run reports are held to exact arithmetic too, on the run's own
picks, so a threshold or a trace that is off passes no float comparison:

- each entry of ``threshold_trace``: the exact utility of the earlier picks
  (chain-rule entropies in ``decimal``, or the weight sum in ``Fraction``),
  plus the best exact reference gain given them, minus the slack, to within
  ``VALUE_BOUND`` times max(1, |exact|); an infinite slack gives -inf;
- under entropy, each entry of ``utility_trace`` on both paths and of
  ``utility_trace_for`` on the picks (one Cholesky factor): the exact
  cumulative chain-rule entropy, to a relative error of ``VALUE_BOUND``.
"""

import math
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodic_secretary import (
    GPConditioner,
    GPHyperparams,
    ObservationStream,
    PeriodicSecretaryConfig,
    PeriodicStreamSpec,
    UtilityFunction,
    generate_periodic_stream,
    periodic_secretary,
)
from periodic_secretary.selectors import utility_trace_for

DIGITS = 60
MARGIN_BOUND = 1e-12
VALUE_BOUND = 1e-12


def exact_context() -> localcontext:
    """The context every exact computation runs in: 60 significant digits."""
    return localcontext(Context(prec=DIGITS))


def exact_pi() -> Decimal:
    """pi to the current precision: the series 3 + 3 (1/24) + 3 (1/24) (9/80)
    + ..., each term the last times (2n - 1)^2 / (8n (2n + 1)), summed with two
    guard digits until it stops changing."""
    getcontext().prec += 2
    total, term, n = Decimal(3), Decimal(3), 1
    while True:
        term = term * (2 * n - 1) ** 2 / (8 * n * (2 * n + 1))
        if total + term == total:
            break
        total, n = total + term, n + 1
    getcontext().prec -= 2
    return +total


class ExactGP:
    """The noisy SE GP over the rows of X in exact arithmetic (use it inside
    ``exact_context()``), conditioned on the rows that ``add`` has taken, in order."""

    def __init__(self, X: np.ndarray, hyper: GPHyperparams):
        ls = [Decimal(v) for v in hyper.lengthscales.tolist()]
        self.Xs = [[Decimal(v) / s for v, s in zip(row, ls)] for row in X.tolist()]
        self.signal = Decimal(hyper.signal_variance)
        self.prior = self.signal + Decimal(hyper.noise_variance)
        self.kernel: dict[tuple[int, int], Decimal] = {}
        self.S: list[int] = []  # conditioning rows
        self.L: list[list[Decimal]] = []  # rows of the lower Cholesky factor of S's noisy Gram matrix

    def k(self, a: int, b: int) -> Decimal:
        if (a, b) not in self.kernel:
            sq = sum((p - q) ** 2 for p, q in zip(self.Xs[a], self.Xs[b]))
            self.kernel[a, b] = self.signal * (sq / -2).exp()
        return self.kernel[a, b]

    def solve(self, x: int) -> list[Decimal]:
        """a = L^-1 k(S, x), by forward substitution."""
        a: list[Decimal] = []
        for i, s in enumerate(self.S):
            a.append((self.k(s, x) - sum(self.L[i][j] * a[j] for j in range(i))) / self.L[i][i])
        return a

    def variance(self, x: int) -> Decimal:
        """v(x | S) = prior - |a|^2."""
        return self.prior - sum(c * c for c in self.solve(x))

    def add(self, x: int) -> Decimal:
        """Condition on row x; return its variance given the rows before it."""
        a = self.solve(x)
        v = self.prior - sum(c * c for c in a)
        self.L.append([*a, v.sqrt()])  # the factor gains the row [a, pivot]
        self.S.append(x)
        return v

    def best_reference(self, T: int) -> Decimal:
        """The largest variance among rows 0..T-1 given S."""
        return max(self.variance(r) for r in range(T))


def exact_entropy_scan(
    X: np.ndarray, hyper: GPHyperparams, T: int, k: int, slack: float
) -> tuple[list[int], list[Decimal]]:
    """The entropy rule on the rows of X in 60-digit arithmetic: the positions
    it picks, and for each arrival it decides (positions T, T + 1, ...) the
    margin v / v_thr - 1 of its variance against the threshold variance."""
    with exact_context():
        gp = ExactGP(X, hyper)
        factor = (Decimal(-2) * Decimal(slack)).exp() if math.isfinite(slack) else Decimal(0)
        v_thr = gp.best_reference(T) * factor
        picks: list[int] = []
        margins: list[Decimal] = []
        for t in range(T, len(X)):
            if len(picks) == k:
                break
            v = gp.variance(t)
            margins.append(v / v_thr - 1 if v_thr else Decimal("Infinity"))
            if v >= v_thr:
                gp.add(t)
                picks.append(t)
                v_thr = gp.best_reference(T) * factor
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


def exact_entropy_values(
    X: np.ndarray, hyper: GPHyperparams, T: int, slack: float, picks: tuple[int, ...]
) -> tuple[list[Decimal] | None, list[Decimal]]:
    """Along ``picks`` in order, in 60-digit arithmetic: the threshold in
    force at each pick (None for an infinite slack), which is the chain-rule
    utility of the earlier picks plus the best reference gain
    c + log(v_best) / 2 given them, minus the slack; and the chain-rule
    utility after each pick."""
    with exact_context():
        gp = ExactGP(X, hyper)
        c = (2 * exact_pi() * Decimal(1).exp()).ln() / 2  # entropy of a unit-variance Gaussian
        utility = Decimal(0)
        thresholds: list[Decimal] = []
        utilities: list[Decimal] = []
        for p in picks:
            thresholds.append(utility + c + gp.best_reference(T).ln() / 2 - Decimal(slack))
            utility += c + gp.add(p).ln() / 2
            utilities.append(utility)
    return (thresholds if math.isfinite(slack) else None), utilities


def exact_modular_thresholds(
    w: np.ndarray, T: int, slack: float, picks: tuple[int, ...]
) -> list[Fraction] | None:
    """Along ``picks`` in order, in exact rationals: the threshold in force at
    each pick (None for an infinite slack), which is the sum of the earlier
    picks' weights plus the largest reference weight, minus the slack."""
    if not math.isfinite(slack):
        return None
    weights = [Fraction(v) for v in w.tolist()]
    before, best = Fraction(0), max(weights[:T]) - Fraction(slack)
    thresholds: list[Fraction] = []
    for p in picks:
        thresholds.append(before + best)
        before += weights[p]
    return thresholds


def assert_values(what: str, got, exact: list, relative: bool = False) -> None:
    """Each float in ``got`` within ``VALUE_BOUND`` of its exact value: times
    |exact| when ``relative``, else times max(1, |exact|)."""
    with exact_context():
        for j, (value, e) in enumerate(zip(got, exact, strict=True)):
            scale = abs(e) if relative else max(1, abs(e))
            error = abs(type(e)(value) - e)
            assert error <= type(e)(VALUE_BOUND) * scale, (
                f"{what}[{j}] = {value!r} is {float(error):.3e} from the exact {float(e)!r}"
            )


def assert_thresholds(path: str, got: tuple[float, ...], exact: list | None) -> None:
    """A run's threshold trace against the exact thresholds; -inf throughout
    for an infinite slack."""
    if exact is None:
        assert all(t == -math.inf for t in got), f"{path} thresholds {got} at an infinite slack"
    else:
        assert_values(f"{path} threshold_trace", got, exact)


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


def assert_exact_or_tie(exact: list[int], margins: list, T: int, runs: dict, exact_in_floats) -> None:
    """Each run's picks are the exact ones, or depart first at a tie within
    ``MARGIN_BOUND`` that the float comparison of that path, given the picks
    before it, does not make exactly (``exact_in_floats(path, t, picks)``)."""
    for path, result in runs.items():
        t = first_divergence(exact, list(result.chosen))
        if t is not None:
            margin = abs(margins[t - T])
            before = [p for p in result.chosen if p < t]
            assert margin <= MARGIN_BOUND and not exact_in_floats(path, t, before), (
                f"{path} path departs from the exact picks {exact} at arrival {t}"
                f" with exact margin {float(margin):.3e}: {result.chosen}"
            )


def float_compared_variances(
    path: str, X: np.ndarray, hyper: GPHyperparams, T: int, picks: list[int], t: int
) -> tuple[float, float]:
    """The two float variances that the ``path`` run compares at arrival t
    given ``picks`` before it: the arrival's and the largest of the reference
    period's. They are replayed on a ``GPConditioner`` driven as that path
    drives it, which gives the run's bits: the iterator path tracks only the
    reference period, extends by each pick's features and takes an arrival's
    one-point variance; the rows path also tracks each period while it scans
    it and extends by a pick's pool position."""
    cond = GPConditioner(hyper)
    cond.track(X[:T])
    if path == "iterator":
        for p in picks:
            cond.extend(X[p])
        return cond.conditional_variance(X[t]), cond.tracked_variances().max()
    start = T
    while True:
        cond.track(X[start : start + T])
        for p in picks:
            if start <= p < start + T:
                cond.extend(X[p], T + p - start)
        if t < start + T:
            v = cond.tracked_variances()
            return v[T + t - start], v[:T].max()
        cond.untrack(T)
        start += T


def entropy_exact_in_floats(X: np.ndarray, hyper: GPHyperparams, T: int, margins: list):
    """Whether a path compares arrival t exactly: at an exact margin of 0 both
    the exact and the float rule accept where the float variances are bit-equal."""

    def exact_in_floats(path: str, t: int, picks: list[int]) -> bool:
        if margins[t - T] != 0:
            return False
        arrival, best = float_compared_variances(path, X, hyper, T, picks, t)
        return arrival == best

    return exact_in_floats


def modular_exact_in_floats(w: np.ndarray, T: int, slack: float):
    """Whether a path compares an arrival exactly: wherever its float threshold
    max(reference weights) - slack is the exact one."""
    best = float(w[:T].max())
    exact = math.isfinite(slack) and Fraction(best - slack) == Fraction(best) - Fraction(slack)
    return lambda path, t, picks: exact


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
    X = stream.feature_matrix
    exact, margins = exact_entropy_scan(X, hyper, T, k, slack)
    runs = {"rows": periodic_secretary(rows, f, cfg), "iterator": periodic_secretary(iter(rows), f, cfg)}
    assert_exact_or_tie(exact, margins, T, runs, entropy_exact_in_floats(X, hyper, T, margins))
    # On each path's own picks: every threshold in force, every utility
    # after a pick, and the trace utility_trace_for reads off one factor.
    exact_for = {}  # the paths' picks, mostly the same
    for path, result in runs.items():
        if result.chosen not in exact_for:
            exact_for[result.chosen] = exact_entropy_values(
                stream.feature_matrix, hyper, T, slack, result.chosen
            )
        thresholds, utilities = exact_for[result.chosen]
        assert_thresholds(path, result.threshold_trace, thresholds)
        assert_values(f"{path} utility_trace", result.utility_trace, utilities, relative=True)
        batch = utility_trace_for(f, rows[result.chosen])
        assert_values(f"{path} utility_trace_for", batch, utilities, relative=True)


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
    assert_exact_or_tie(exact, margins, T, runs, modular_exact_in_floats(w, T, slack))
    for path, result in runs.items():
        assert_thresholds(path, result.threshold_trace, exact_modular_thresholds(w, T, slack, result.chosen))


GUARD_HYPER = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.1)


def guard_band_instance(slack: float, side: int) -> np.ndarray:
    """Rows r, s, x in one dimension for T = 1 at a threshold slack: r is the
    reference period, s the first arrival, which meets the threshold with
    margin e^(2 slack) - 1 (a tie given the empty set at slack 0), and x is
    placed by closed form so that v(x | {s}) = v(r | {s}) e^(-2 slack)
    (1 + side 1e-10), inside the 1e-9 guard band around the threshold
    variance: one relative step of 1e-10 below it (side -1) or above it
    (side +1)."""
    signal, ls = GUARD_HYPER.signal_variance, GUARD_HYPER.lengthscales[0]
    prior = signal + GUARD_HYPER.noise_variance
    r, s = 1.5, 0.0
    v_r = prior - (signal * math.exp(-((r - s) / ls) ** 2 / 2)) ** 2 / prior
    target = v_r * math.exp(-2 * slack) * (1 + side * 1e-10)
    # v(x | {s}) = prior - k(s, x)^2 / prior, with k(s, x) = signal exp(-(x - s)^2 / (2 ls^2)).
    k_sx = math.sqrt(prior * (prior - target))
    x = s + ls * math.sqrt(-2 * math.log(k_sx / signal))
    return np.array([[r], [s], [x]])



@pytest.mark.parametrize("slack", [0.0, 0.3])
@pytest.mark.parametrize("side", [-1, 1])
def test_guard_band_instances_are_decided_exactly(slack, side):
    # x sits 1e-10 from the threshold variance in relative terms: inside the
    # guard band, so the float rule decides it by its exact gain, and a
    # hundred times the tie margin away, so no roundoff may decide it.
    X = guard_band_instance(slack, side)
    f = UtilityFunction.entropy(GUARD_HYPER)
    cfg = PeriodicSecretaryConfig(k=2, period_T=1, threshold_slack=slack)
    rows = ObservationStream(X).observations
    exact, margins = exact_entropy_scan(X, GUARD_HYPER, 1, 2, slack)
    assert exact == ([1, 2] if side > 0 else [1])
    assert 0.5e-10 < side * margins[1] < 2e-10
    runs = {"rows": periodic_secretary(rows, f, cfg), "iterator": periodic_secretary(iter(rows), f, cfg)}
    assert_exact_or_tie(exact, margins, 1, runs, entropy_exact_in_floats(X, GUARD_HYPER, 1, margins))
    # s's tie at slack 0 is exact in floats too (its variance is the prior,
    # the reference's), so both paths must take it: the picks are the exact ones.
    for path, result in runs.items():
        assert list(result.chosen) == exact, path
