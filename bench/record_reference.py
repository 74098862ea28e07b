"""Record bench/reference.json: outputs and picks of the default seed at this commit.

    python3 bench/record_reference.py

For every workload, worker ``j < run.WORKERS`` and iteration
``i < run.REF_ITERATIONS`` of seed ``run.DEFAULT_SEED``, the iteration is run
untraced and traced. The reference keeps the output summary (minus what a
workload leaves unpinned) and a digest of each pinned selector's picks.
Benchmark runs on the default seed compare against it: chosen indices
exactly, utilities and MSE within ``run.REF_RTOL`` relative. Re-record only
when a change is meant to alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

from tracer import PINNED_SELECTORS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    workdir = run.ROOT / ".bench_out" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    entries: dict[str, dict] = {}
    for name, cls in WORKLOADS.items():
        entries[name] = {}
        for j in range(run.WORKERS):
            wl = cls(run.DEFAULT_SEED, j, workdir / name / str(j), smoke=False)
            for i in range(run.REF_ITERATIONS):
                output, problems = wl.check(wl.run(i))
                tracer = Tracer()
                tracer.selector_hook = wl.on_selector
                tracer.install()
                try:
                    tracer.begin_iteration()
                    tracer.enabled = True
                    raw = wl.run(i)
                    tracer.enabled = False
                finally:
                    tracer.uninstall()
                traced_output, traced_problems = wl.check(raw)
                _, digests, violations = tracer.end_iteration()
                problems += traced_problems + violations
                if traced_output != output:
                    problems.append("traced outputs differ from untraced")
                if problems:
                    print(f"{name} {j}.{i}: {problems}", file=sys.stderr)
                    return 1
                entries[name][f"{j}.{i}"] = {
                    "output": wl.pinned(output),
                    "picks": {s: d for s, d in digests.items() if s in PINNED_SELECTORS},
                }
                print(f"recorded {name} {j}.{i}", flush=True)
    reference = {"seed": run.DEFAULT_SEED, "rtol": run.REF_RTOL, "workloads": entries}
    (run.HERE / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
