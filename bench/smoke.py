"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at minimal input size, untraced and traced, and asserts
that the metric names and units printed are exactly those in BENCHMARK.json,
that no operation failed, and that the traced replays were compared with
their untraced runs (a mismatch counts as a failure). Finally it checks that
the benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def _result(argv: list[str], cwd=run.ROOT) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, f"{argv}: exit {proc.returncode}\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for workload in run.WORKLOAD_NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(["--workload", workload, "--seed", "1", "--seconds", "0.3",
                              "--trace", str(trace), "--smoke"])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: metric names or units differ"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            if trace:
                detail = json.loads((run.ROOT / ".bench_out" / f"{workload}-seed1-trace1"
                                     / "result.json").read_text())
                assert detail["identity_compared"] == run.WORKERS * run.TRACED_ITERATIONS, detail
            print(f"ok {workload} trace={trace}: {result['attempted']} operations", flush=True)

    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "select-year",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the library sources"
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
