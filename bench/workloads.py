"""The four benchmark workloads: set-up, one timed iteration, and output checks.

Each workload makes all of its inputs from the run seed: iteration ``i`` of
worker ``j`` uses an input seed derived from ``(seed, j, i)``, so a run
measures many different inputs, and the same seed always gives the same
ones. ``run`` is the timed part; ``check`` runs afterwards, untimed, and
returns a JSON-able summary of the outputs plus a list of problems found.
Library calls go through module attributes looked up at call time, so the
tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from itertools import islice
from pathlib import Path

import numpy as np

from periodic_secretary import bounds, cli, gp, harness, selectors, stream, utility
from periodic_secretary.kv import read_kv_file

ENTROPY_CONST = math.log(2 * math.pi * math.e)

# Seed key for inputs shared by every worker of a run; worker indices stay below it.
SHARED = 10**6


def input_seed(seed: int, worker: int, iteration: int) -> int:
    return int(np.random.SeedSequence([seed, worker, iteration]).generate_state(1)[0])


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12


def compare(actual, expected, rtol: float, path: str = "") -> list[str]:
    """Differences between two output summaries: numbers within rtol, the rest exact."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{path}: keys differ"]
        return [p for k in expected for p in compare(actual[k], expected[k], rtol, f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare(a, e, rtol, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(actual, (bool, str)):
        return [] if _rel_close(float(actual), expected, rtol) else [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    # Output keys (dotted prefixes) left out of the reference comparison.
    unpinned: tuple[str, ...] = ()

    def __init__(self, seed: int, worker: int, workdir: Path, smoke: bool) -> None:
        self.seed, self.worker, self.workdir, self.smoke = seed, worker, workdir, smoke
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, iteration: int):
        raise NotImplementedError

    def check(self, raw) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def pinned(self, output: dict) -> dict:
        """The part of an output summary a reference pins (minus byte digests)."""
        out = {k: v for k, v in output.items() if k != "bytes"}
        for key in self.unpinned:
            head, _, rest = key.partition(".")
            if head in out and isinstance(out[head], dict):
                out[head] = {k: v for k, v in out[head].items() if not k.startswith(rest)}
        return out

    def on_selector(self, name, args, kwargs, result, problems: list[str]) -> None:
        """Per-call oracle run by the tracer after each selector call (traced runs only)."""


class TuneSweep(Workload):
    """README ``tune`` command through ``cli.main``: entropy utility, 9-slack grid."""

    name = "tune-sweep"

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        if self.smoke:
            self.period, self.periods, self.k, self.runs = 20, 5, 8, 1
            self.grid = "0,0.05,2"
        else:
            self.period, self.periods, self.k, self.runs = 100, 10, 75, 2
            self.grid = "0,0.005,0.01,0.02,0.05,0.1,0.35,0.75,2"
        self.hyper = self.workdir / "hyper.cfg"
        self.hyper.write_text("lengthscales = 0.3\nsignal_variance = 1\nnoise_variance = 0.1\n")
        self.out = self.workdir / "tune"

    def run(self, iteration: int):
        return _cli([
            "tune", "--period", str(self.period), "--periods", str(self.periods),
            "--noise", "0.35", "--k", str(self.k), "--grid", self.grid,
            "--runs", str(self.runs), "--hyper", str(self.hyper),
            "--seed", str(input_seed(self.seed, self.worker, iteration)), "--out", str(self.out),
        ])

    def check(self, raw):
        rc, stdout, stderr = raw
        if rc != 0:
            return {}, [f"tune exited {rc}: {stderr.strip()}"]
        problems = []
        table = _read_csv(self.out / "tuning.csv")
        rows = [[float(v) for v in r] for r in table[1:]]
        best = read_kv_file(self.out / "summary.txt")["best_lambda"]
        grid = sorted(float(s) for s in self.grid.split(","))
        if table[0] != ["threshold_slack", "mean_utility", "sd_utility", "mean_fill"]:
            problems.append(f"tuning.csv header {table[0]}")
        if [r[0] for r in rows] != grid:
            problems.append("tuning.csv slacks differ from the grid")
        if not all(math.isfinite(v) for r in rows for v in r):
            problems.append("non-finite value in tuning.csv")
        if not all(0 <= r[3] <= self.k and r[2] >= 0 for r in rows):
            problems.append("fill outside [0, k] or negative sd")
        means = [r[1] for r in rows]
        if rows and float(best) != rows[means.index(max(means))][0]:
            problems.append(f"best_lambda {best} is not the first argmax of mean utility")
        if not stdout.startswith("best lambda "):
            problems.append(f"unexpected stdout {stdout!r}")
        output = {"best_lambda": best, "rows": rows,
                  "bytes": _digest(self.out / "tuning.csv", self.out / "summary.txt")}
        return output, problems


class EvaluateSeasonal(Workload):
    """README ``evaluate`` command through ``cli.main`` on a 2-D seasonal CSV with GP qoi."""

    name = "evaluate-seasonal"
    algos = ("greedy", "periodic:0.3", "periodic:0.05", "submodular", "scheduled", "random")
    unpinned = ("utility.submodular", "mse.submodular", "summary.submodular")

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        if self.smoke:
            self.period, self.periods, self.k, self.runs = 12, 4, 4, 2
        else:
            self.period, self.periods, self.k, self.runs = 52, 7, 28, 6
        self.hyper = self.workdir / "hyper.cfg"
        self.hyper.write_text("lengthscales = 0.4, 0.4\nsignal_variance = 1\nnoise_variance = 0.1\n")
        spec = stream.PeriodicStreamSpec(
            period_T=self.period,
            noise_cov=np.diag([0.04, 0.005]),
            length_N=self.period * self.periods,
            base_waveform=stream.seasonal_waveform(self.period, amplitude=2.0),
        )
        hyper = gp.load_hyperparams(self.hyper)
        base = stream.generate_periodic_stream(spec, input_seed(self.seed, SHARED, 0))
        base = harness.attach_gp_qoi(base, hyper, input_seed(self.seed, SHARED, 1))
        self.csv = self.workdir / "seasonal.csv"
        stream.write_stream_csv(base, self.csv)
        self.out = self.workdir / "evaluate"

    def run(self, iteration: int):
        return _cli([
            "evaluate", "--input", str(self.csv), "--feature-cols", "x0,x1", "--qoi-col", "qoi",
            "--algos", ",".join(self.algos), "--k", str(self.k), "--period", str(self.period),
            "--runs", str(self.runs), "--hyper", str(self.hyper),
            "--seed", str(input_seed(self.seed, self.worker, iteration)), "--out", str(self.out),
        ])

    def _curves(self, path: Path, steps: range, problems: list[str]) -> dict:
        curves: dict[str, list[list[float]]] = {}
        seen: dict[str, list[int]] = {}
        for step, label, mean, sd in _read_csv(path)[1:]:
            curves.setdefault(label, []).append([float(mean), float(sd)])
            seen.setdefault(label, []).append(int(step))
        if list(seen) != list(self.algos) or any(s != list(steps) for s in seen.values()):
            problems.append(f"{path.name}: expected steps {steps} for each of {self.algos}")
        return curves

    def check(self, raw):
        rc, stdout, stderr = raw
        if rc != 0:
            return {}, [f"evaluate exited {rc}: {stderr.strip()}"]
        problems: list[str] = []
        util = self._curves(self.out / "utility_curves.csv", range(1, self.k + 1), problems)
        mse = self._curves(self.out / "mse_curves.csv", range(0, self.k + 1), problems)
        summary = read_kv_file(self.out / "summary.txt")
        for label, curve in util.items():
            means = [m for m, _ in curve]
            # noise_variance 0.1 > 1/(2*pi*e) keeps every entropy gain positive.
            if any(b < a for a, b in zip(means, means[1:])):
                problems.append(f"{label}: mean utility curve decreases")
            fill = float(summary[f"{label.replace(':', '_')}.fill_mean"])
            full = label in ("greedy", "scheduled", "random")
            if not (0 <= fill <= self.k) or (full and fill != self.k):
                problems.append(f"{label}: fill_mean {fill} for k={self.k}")
        if not all(math.isfinite(v) and v >= 0 for c in mse.values() for p in c for v in p):
            problems.append("negative or non-finite MSE statistic")
        output = {
            "utility": util,
            "mse": mse,
            "summary": summary,
            "bytes": _digest(*(self.out / n for n in ("utility_curves.csv", "mse_curves.csv",
                                                       "summary.txt"))),
        }
        return output, problems


def modular_first_feature(s):
    """Modular utility weighted by each observation's first feature."""
    return utility.UtilityFunction.modular(s.feature_matrix[:, 0])


class BoundsExact(Workload):
    """``validate_bounds`` with exact optima by enumeration (modular utility)."""

    name = "bounds-exact"

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        if self.smoke:
            length, self.k_values, self.slacks = 30, (2, 3), (0.0, 0.5)
        else:
            length, self.k_values, self.slacks = 60, (2, 3, 4), (0.0, 0.25, 0.5)
        self.runs = 2
        self.spec = stream.PeriodicStreamSpec(
            period_T=6, noise_cov=np.array([[0.35]]), length_N=length,
            base_waveform=stream.two_sine_waveform(6),
        )

    def run(self, iteration: int):
        return harness.validate_bounds(
            self.spec, modular_first_feature, self.k_values, self.slacks, runs=self.runs,
            seed=input_seed(self.seed, self.worker, iteration),
        )

    def check(self, report):
        problems = []
        cells = [[int(c.k)] + [float(v) for v in (
                      c.threshold_slack, c.mean_utility, c.se_utility, c.mean_successes,
                      c.se_successes, c.utility_bound, c.success_bound)]
                 + [bool(v) for v in (c.vacuous, c.informational, c.utility_violation,
                                      c.success_violation)]
                 for c in report.cells]
        grid = [(k, s) for k in self.k_values for s in self.slacks]
        if [(c.k, c.threshold_slack) for c in report.cells] != grid:
            problems.append("cells do not follow the (k, slack) grid")
        f_opt: dict[int, float] = {}
        noise = report.utility_noise_estimate
        for c in report.cells:
            if c.informational:
                problems.append(f"cell k={c.k}: optimum not exact")
            if not (0 <= c.mean_successes <= c.k and c.se_utility >= 0 and c.se_successes >= 0):
                problems.append(f"cell k={c.k} slack={c.threshold_slack}: statistics out of range")
            # utility_bound = (succ/k)(1-1/e)(mean f_opt - k*gap): recover mean f_opt.
            factor = c.success_bound / c.k * (1 - 1 / math.e)
            gap = bounds.per_step_gap(c.threshold_slack, noise, self.spec.length_N, self.spec.period_T)
            fbar = c.utility_bound / factor + c.k * gap
            if c.mean_utility > fbar + 1e-9 * abs(fbar):
                problems.append(f"cell k={c.k}: periodic mean {c.mean_utility} beats optimum {fbar}")
            if not _rel_close(f_opt.setdefault(c.k, fbar), fbar, 1e-9):
                problems.append(f"cell k={c.k}: inconsistent optimum across slacks")
        return {"noise": float(noise), "cells": cells}, problems

    def on_selector(self, name, args, kwargs, result, problems):
        if name != "exhaustive_optimum":
            return
        ground, f, k = args[:3]
        w = np.sort([f.weights[o.index] for o in ground])
        if not _rel_close(result.final_utility, float(w[-k:].sum()), 1e-9):
            problems.append(f"exhaustive_optimum k={k}: {result.final_utility} != top-k sum")


class SelectYear(Workload):
    """generate -> CSV -> ingest -> periodic secretary -> selection CSV, hourly for a year."""

    name = "select-year"

    def __init__(self, *a, **kw) -> None:
        super().__init__(*a, **kw)
        self.period = 24
        length, k = (24 * 20, 20) if self.smoke else (24 * 365, 300)
        self.spec = stream.PeriodicStreamSpec(
            period_T=self.period, noise_cov=np.array([[0.35]]), length_N=length,
            base_waveform=stream.two_sine_waveform(self.period),
        )
        self.hyper = gp.GPHyperparams(
            lengthscales=np.array([0.3]), signal_variance=1.0, noise_variance=0.1
        )
        self.cfg = selectors.PeriodicSecretaryConfig(k=k, period_T=self.period, threshold_slack=0.0)
        self.stream_csv = self.workdir / "year.csv"
        self.selection_csv = self.workdir / "selection.csv"

    def _feed(self, observations, latencies: list[int], box: list):
        """Hand over observations one at a time, timing each decision.

        A decision runs from handing over an observation until the selector
        asks for the next one; the reference period is handed over untimed.
        """
        clock = time.perf_counter_ns
        it = iter(observations)
        yield from islice(it, self.period)
        for obs in it:
            now = clock()
            if box[0] is not None:
                latencies.append(now - box[0])
            box[0] = clock()
            yield obs
        latencies.append(clock() - box[0])
        box[0] = None

    def run(self, iteration: int):
        generated = stream.generate_periodic_stream(
            self.spec, input_seed(self.seed, self.worker, iteration)
        )
        schema = stream.write_stream_csv(generated, self.stream_csv)
        ingested = stream.ingest_csv(self.stream_csv, schema)
        f = utility.UtilityFunction.entropy(self.hyper)
        latencies: list[int] = []
        box = [None]
        result = selectors.periodic_secretary(
            self._feed(ingested.observations, latencies, box), f, self.cfg
        )
        if box[0] is not None:  # stopped at k: the last decision ends here
            latencies.append(time.perf_counter_ns() - box[0])
        selectors.write_selection_csv(result, self.selection_csv)
        return generated, ingested, result, latencies

    def check(self, raw):
        generated, ingested, result, latencies = raw
        problems = []
        a, b = generated.feature_matrix, ingested.feature_matrix
        if a.shape != b.shape or not np.allclose(a, b, rtol=1e-11, atol=1e-12):
            problems.append("ingested stream differs from the generated one")
        chosen = list(result.chosen)
        T, k = self.period, self.cfg.k
        if len(set(chosen)) != len(chosen) or len(chosen) > k or chosen != sorted(chosen):
            problems.append("picks repeat, exceed k or leave arrival order")
        if any(i < T for i in chosen):
            problems.append("pick inside the reference period")
        if (result.terminated == "filled_k") != (len(chosen) == k):
            problems.append(f"terminated={result.terminated} with {len(chosen)} picks")
        decided = (chosen[-1] + 1 if result.terminated == "filled_k" else len(generated)) - T
        if len(latencies) != decided:
            problems.append(f"{len(latencies)} decision timings for {decided} decisions")
        if chosen:
            X = a[chosen]
            h = self.hyper
            d2 = ((X[:, None, :] - X[None, :, :]) / h.lengthscales) ** 2
            K = h.signal_variance * np.exp(-0.5 * d2.sum(-1)) + h.noise_variance * np.eye(len(chosen))
            sign, logdet = np.linalg.slogdet(K)
            oracle = 0.5 * (len(chosen) * ENTROPY_CONST + logdet)
            if sign <= 0 or abs(result.final_utility - oracle) > 1e-8 * max(1.0, abs(oracle)):
                problems.append(f"final utility {result.final_utility} != log-det oracle {oracle}")
            if any(u < t - 1e-9 for u, t in zip(result.utility_trace, result.threshold_trace)):
                problems.append("an accepted sample fell short of its threshold")
        rows = _read_csv(self.selection_csv)[1:]
        if [int(r[1]) for r in rows] != chosen or not all(
            _rel_close(float(r[2]), u, 1e-11) for r, u in zip(rows, result.utility_trace)
        ):
            problems.append("selection CSV does not match the selection")
        output = {
            "chosen": chosen,
            "utility": list(result.utility_trace),
            "threshold": list(result.threshold_trace),
            "terminated": result.terminated,
        }
        return output, problems


WORKLOADS = {w.name: w for w in (TuneSweep, EvaluateSeasonal, BoundsExact, SelectYear)}
