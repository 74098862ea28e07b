"""Benchmark of the periodic-secretary library: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any checkout holding ``src/`` and ``bench/``).
The run starts ``WORKERS`` worker processes one after another, each a fresh
interpreter that imports the library from ``src/``, builds its inputs from
the seed, runs one untimed warm-up iteration and then times iterations for
its share of ``--seconds``. Set-up time is measured by this parent from
starting a worker until the worker reports that warm-up is done, so every
run samples set-up ``WORKERS`` times. Each iteration's outputs are checked;
a failed check or an exception counts against ``failed``.

``wall_s`` is the mean time of a timed iteration (the inverse of throughput
at the workload's fixed input size), not the median: on a shared two-core
machine the speed switches between states lasting seconds, the median of a
run jumps between those modes, and the mean follows their mix smoothly.
Spreading a run over several short-lived processes averages the states
further.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` each worker first runs exactly as untraced, then replays its
first ``TRACED_ITERATIONS`` inputs with tracing on; the last line reports the
per-layer metrics of those replays, the tracing overhead (traced minus
untraced time of the same inputs) and the decision latencies measured
untraced.
Spans and a run record are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 6
DEFAULT_SEED = 0
# Iterations per worker (the warm-up plus the first timed one) pinned by reference.json.
REF_ITERATIONS = 2
REF_RTOL = 1e-9
# Inputs each worker replays with tracing on, after timing them untraced; a
# fixed set, so per-layer counts repeat exactly for a given seed.
TRACED_ITERATIONS = 2
# Workers still running this long after the run started are killed and the run fails.
RUN_TIMEOUT_S = 170
WORKLOAD_NAMES = ("tune-sweep", "evaluate-seasonal", "bounds-exact", "select-year")


def _pct(values, q):
    """Linear-interpolated q-quantile of a sorted sequence."""
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _quartiles(values):
    v = sorted(values)
    return {"n": len(v), "q1": _pct(v, 0.25), "median": _pct(v, 0.5), "q3": _pct(v, 0.75)}


# ---------------------------------------------------------------- per-layer metrics
def _layer_metrics(sums: dict, iterations: int) -> dict[str, float]:
    """Per-layer values per traced iteration, keyed as in BENCHMARK.json."""
    n = max(iterations, 1)

    def it(key):
        return sums.get(key, 0.0) / n

    def self_s(span):
        return sums.get(span + ".self_ns", 0.0) / n / 1e9

    runs = sum(sums.get(f"selectors.{s}.calls", 0.0) for s in (
        "periodic_secretary", "offline_greedy", "exhaustive_optimum",
        "submodular_secretary", "scheduled_sampler", "random_sampler"))
    scanned = sums.get("selectors.periodic_secretary.n", 0.0)
    accepted = sums.get("periodic_secretary.accepted", 0.0)
    exhaustive_s = sums.get("selectors.exhaustive_optimum.total_ns", 0.0) / 1e9
    m = {
        "gp.entropy.calls": it("gp.entropy.calls"),
        "gp.entropy.self_s": self_s("gp.entropy"),
        "gp.entropies.calls": it("gp.entropies.calls"),
        "gp.entropies.points": it("gp.entropies.n"),
        "gp.entropies.self_s": self_s("gp.entropies"),
        "gp.extend.calls": it("gp.extend.calls"),
        "gp.extend.self_s": self_s("gp.extend"),
        "gp.conditioners_per_run": sums.get("gp.conditioners", 0.0) / runs if runs else 0.0,
        "gp.predict_many.calls": it("gp.predict_many.calls"),
        "gp.predict_many.train_points": it("gp.predict_many.n"),
        "gp.predict_many.self_s": self_s("gp.predict_many"),
        "utility.gain.calls": it("utility.gain.calls"),
        "utility.gain.self_s": self_s("utility.gain"),
        "utility.gains.items": it("utility.gains.n"),
        "utility.gains.self_s": self_s("utility.gains"),
        "utility.accept.calls": it("utility.accept.calls"),
        "utility.accept.self_s": self_s("utility.accept"),
        "utility.value.calls": it("utility.value.calls"),
        "utility.value.self_s": self_s("utility.value"),
        "selectors.periodic_secretary.runs": it("selectors.periodic_secretary.calls"),
        "selectors.periodic_secretary.scanned": scanned / n,
        "selectors.periodic_secretary.accepted": accepted / n,
        "selectors.periodic_secretary.accept_ratio": accepted / scanned if scanned else 0.0,
        "selectors.periodic_secretary.self_s": self_s("selectors.periodic_secretary"),
        "selectors.offline_greedy.runs": it("selectors.offline_greedy.calls"),
        "selectors.offline_greedy.gain_evals": it("offline_greedy.gain_evals"),
        "selectors.offline_greedy.self_s": self_s("selectors.offline_greedy"),
        "selectors.exhaustive_optimum.calls": it("selectors.exhaustive_optimum.calls"),
        "selectors.exhaustive_optimum.subsets": it("selectors.exhaustive_optimum.n"),
        "selectors.exhaustive_optimum.subsets_per_s": (
            sums.get("selectors.exhaustive_optimum.n", 0.0) / exhaustive_s if exhaustive_s else 0.0),
        "selectors.exhaustive_optimum.self_s": self_s("selectors.exhaustive_optimum"),
        "selectors.submodular_secretary.accepted": it("submodular_secretary.accepted"),
        "selectors.submodular_secretary.self_s": self_s("selectors.submodular_secretary"),
        "selectors.utility_trace_for.calls": it("selectors.utility_trace_for.calls"),
        "selectors.utility_trace_for.self_s": self_s("selectors.utility_trace_for"),
        "stream.ingest_csv.rows": it("stream.ingest_csv.n"),
        "stream.ingest_csv.self_s": self_s("stream.ingest_csv"),
        "stream.write_stream_csv.rows": it("stream.write_stream_csv.n"),
        "stream.write_stream_csv.self_s": self_s("stream.write_stream_csv"),
        "stream.generate_periodic_stream.self_s": self_s("stream.generate_periodic_stream"),
        "stream.block_permute.self_s": self_s("stream.block_permute"),
        "bounds.estimate_utility_noise.self_s": self_s("bounds.estimate_utility_noise"),
        "bounds.closed_form.calls": it("bounds.closed_form.calls"),
        "harness.evaluate_prediction.calls": it("harness.evaluate_prediction.calls"),
        "harness.evaluate_prediction.self_s": self_s("harness.evaluate_prediction"),
        "harness.attach_gp_qoi.self_s": self_s("harness.attach_gp_qoi"),
        "harness.tune_threshold_slack.self_s": self_s("harness.tune_threshold_slack"),
        "harness.run_comparison.self_s": self_s("harness.run_comparison"),
        "harness.validate_bounds.self_s": self_s("harness.validate_bounds"),
        "cli.main.self_s": self_s("cli.main"),
        "kv.write_kv_file.calls": it("kv.write_kv_file.calls"),
        "kv.write_kv_file.self_s": self_s("kv.write_kv_file"),
        "trace.spans": it("spans"),
    }
    return m


# ---------------------------------------------------------------- worker process
def _worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import resource
    from array import array

    import periodic_secretary

    if Path(periodic_secretary.__file__).resolve().parent != (ROOT / "src" / "periodic_secretary"):
        print(f"error: imported {periodic_secretary.__file__}, not this checkout's src/",
              file=sys.stderr)
        return 3
    from runinfo import run_record
    from tracer import PINNED_SELECTORS, Tracer
    from workloads import WORKLOADS, compare

    j, trace = args.worker, bool(args.trace)
    out = Path(args.out)
    wl = WORKLOADS[args.workload](args.seed, j, out / f"worker{j}", args.smoke)
    reference = {}
    if args.seed == DEFAULT_SEED and not args.smoke:
        ref = json.loads((HERE / "reference.json").read_text())
        reference = ref["workloads"].get(args.workload, {})
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.selector_hook = wl.on_selector

    st = {"attempted": 0, "failed": 0, "wall": [], "traced_wall": [], "layer_sums": {},
          "traced_iterations": 0, "identity_compared": 0, "reference_compared": 0}
    decision_ns, accept_ns = array("q"), array("q")
    untraced_outputs: dict[int, dict] = {}

    def iteration(i: int, traced: bool) -> None:
        st["attempted"] += 1
        problems: list[str] = []
        try:
            if traced:
                tracer.begin_iteration()
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                raw = wl.run(i)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.enabled = False
            output, problems = wl.check(raw)
            if traced:
                sums, digests, violations = tracer.end_iteration()
                problems += violations
                for key, value in sums.items():
                    st["layer_sums"][key] = st["layer_sums"].get(key, 0.0) + value
                st["traced_iterations"] += 1
                st["traced_wall"].append(dt)
                if i in untraced_outputs:
                    st["identity_compared"] += 1
                    if output != untraced_outputs[i]:
                        problems.append("traced outputs differ from the untraced run")
            else:
                if i > 0:
                    st["wall"].append(dt)
                if trace:
                    untraced_outputs[i] = output
                if wl.name == "select-year" and i > 0:
                    latencies = raw[3]
                    decision_ns.extend(latencies)
                    first = wl.period
                    accept_ns.extend(latencies[c - first] for c in raw[2].chosen)
            expected = reference.get(f"{j}.{i}")
            if expected is not None:
                st["reference_compared"] += 1
                problems += compare(wl.pinned(output), expected["output"], REF_RTOL, "output")
                if traced:
                    for sel in PINNED_SELECTORS:
                        if digests.get(sel) != expected["picks"].get(sel):
                            problems.append(f"{sel} picks differ from the reference")
        except Exception:  # an iteration that raises is one failed operation
            traceback.print_exc(file=sys.stderr)
            problems.append("exception")
        if problems:
            st["failed"] += 1
            print(f"{wl.name} worker {j} iteration {i}: " + "; ".join(problems[:5]),
                  file=sys.stderr)

    iteration(0, traced=False)
    print("ready", flush=True)
    i, start = 1, time.perf_counter()
    while i <= TRACED_ITERATIONS or time.perf_counter() - start < args.seconds:
        iteration(i, traced=False)
        i += 1
    if trace:
        tracer.install()
        try:
            for i in range(1, TRACED_ITERATIONS + 1):
                iteration(i, traced=True)
        finally:
            tracer.uninstall()
        tracer.write(out / f"spans-worker{j}.tsv.gz")

    st["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    st["decision_us"] = _quartile_us(decision_ns, (0.5, 0.99))
    st["accept_us"] = _quartile_us(accept_ns, (0.5, 0.9))
    st["decision_ns"] = list(decision_ns) if trace else []
    st["accept_ns"] = list(accept_ns) if trace else []
    st["record"] = run_record(ROOT) if j == 0 else None
    print(json.dumps(st))
    return 0


def _quartile_us(ns_values, qs):
    v = sorted(ns_values)
    return {str(q): _pct(v, q) / 1e3 for q in qs} | {"n": len(v)}


# ---------------------------------------------------------------- parent process
def _readline(proc: subprocess.Popen, timeout: float) -> bytes:
    """One line from the worker's stdout, or whatever arrived before EOF/timeout."""
    fd, buf = proc.stdout.fileno(), b""
    deadline = time.monotonic() + timeout
    while not buf.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            break
        chunk = os.read(fd, 1)
        if not chunk:
            break
        buf += chunk
    return buf


def _worker_env() -> dict[str, str]:
    """Environment for workers: one BLAS thread.

    The matrices here are at most a few hundred rows, too small for BLAS
    threads to help; on a small machine their spinning competes with the
    interpreter thread and only adds run-to-run noise.
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_workers(args, outdir: Path) -> tuple[list[float], list[dict]] | None:
    setups, results = [], []
    env = _worker_env()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for j in range(WORKERS):
        cmd = [sys.executable, str(HERE / "run.py"), "--worker", str(j),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
               "--out", str(outdir)] + (["--smoke"] if args.smoke else [])
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
        try:
            line = _readline(proc, deadline - time.monotonic())
            ready = time.perf_counter()
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            print(f"error: worker {j} still running after {RUN_TIMEOUT_S} s", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0 or not stdout.strip():
            print(f"error: worker {j} failed (exit code {proc.returncode})", file=sys.stderr)
            return None
        setups.append(ready - start)
        results.append(json.loads(stdout.splitlines()[-1]))
    return setups, results


def _parent(args) -> int:
    # Turn SIGTERM into SystemExit so the worker is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "periodic_secretary" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    ran = _run_workers(args, outdir)
    if ran is None:
        return 1
    setups, results = ran
    for j in range(WORKERS):
        shutil.rmtree(outdir / f"worker{j}", ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wall = [w for r in results for w in r["wall"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": WORKERS,
        "record": results[0]["record"],
        "setup_s": {"samples": setups, **_quartiles(setups)},
        "wall_s": {"mean": statistics.fmean(wall), **_quartiles(wall)},
        "wall_s_per_worker": [r["wall"] for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "failed_frac": failed / attempted,
        "reference_compared": sum(r["reference_compared"] for r in results),
    }
    if args.workload == "select-year":
        detail["decision_us_per_worker"] = [r["decision_us"] for r in results]
        detail["accept_us_per_worker"] = [r["accept_us"] for r in results]

    if args.trace:
        sums: dict[str, float] = {}
        for r in results:
            for key, value in r["layer_sums"].items():
                sums[key] = sums.get(key, 0.0) + value
        iterations = sum(r["traced_iterations"] for r in results)
        traced_wall = [w for r in results for w in r["traced_wall"]]
        metrics = _layer_metrics(sums, iterations)
        decisions = sorted(v for r in results for v in r["decision_ns"])
        accepts = sorted(v for r in results for v in r["accept_ns"])
        metrics["decision_us_p50"] = _pct(decisions, 0.5) / 1e3
        metrics["decision_us_p99"] = _pct(decisions, 0.99) / 1e3
        metrics["accept_us_p50"] = _pct(accepts, 0.5) / 1e3
        metrics["accept_us_p90"] = _pct(accepts, 0.9) / 1e3
        metrics["trace.overhead_s"] = statistics.median(
            t - u for r in results for t, u in zip(r["traced_wall"], r["wall"]))
        detail["traced_wall_s"] = _quartiles(traced_wall)
        detail["traced_iterations"] = iterations
        detail["identity_compared"] = sum(r["identity_compared"] for r in results)
        detail["decisions"] = {"n": len(decisions), "accepts": len(accepts)}
        specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.fmean(wall),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    units = {s["name"]: s["unit"] for s in specs}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    (outdir / "result.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1))
    print("run " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimal input sizes (smoke test)")
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return _worker(args) if args.worker is not None else _parent(args)


if __name__ == "__main__":
    sys.exit(main())
