"""Mutation gate for the test suite: copy ``src/`` to a temporary directory,
plant each known defect below in the copy, and fail unless the tests named
for it pass on the unmutated copy and fail on the mutated one.

    python tests/mutation_gate.py

It uses the standard library only and never edits the tree. Each mutant is a
file of ``src/periodic_secretary``, one or more (text, replacement) edits
whose text occurs exactly once in that file, and the pytest node IDs that must
fail; a node ID without a parameter fails when any of its cases does. The
gate also fails when a mutant's text no longer occurs exactly once, so a
refactor that moves the code updates the gate in view.

Pytest runs in a subprocess on the copy, under a hypothesis profile that is
derandomized and does not shrink: a failing example is only reported, not
minimized, and two runs try the same examples. The profile is registered by
a ``-p`` plugin written next to the copy; registering it in this process
would import hypothesis before pytest's assertion rewriting is set up, which
the suite's ``filterwarnings = error`` turns into an error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PLUGIN = "mutation_profile"
PLUGIN_SOURCE = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutation", derandomize=True, database=None,
    phases=(Phase.explicit, Phase.generate, Phase.target),
)
settings.load_profile("mutation")
"""


class Mutant(NamedTuple):
    name: str
    file: str
    edits: tuple[tuple[str, str], ...]
    tests: tuple[str, ...]


ORACLE = "tests/test_exact_oracle.py::"
ENTROPY_ORACLE = ORACLE + "test_entropy_decisions_are_exact_or_roundoff_ties"
MODULAR_ORACLE = ORACLE + "test_modular_decisions_are_exact_or_roundoff_ties"
GUARD_BAND = ORACLE + "test_guard_band_instances_are_decided_exactly"
DEFAULTS_TEST = "tests/test_cli.py::test_required_options_alone_write_the_built_in_defaults"

MUTANTS = (
    Mutant(
        "entropy threshold slack scaled by 1.01", "selectors.py",
        (("threshold_gain = cond.max_tracked_gain(T) - cfg.threshold_slack\n",
          "threshold_gain = cond.max_tracked_gain(T) - cfg.threshold_slack * 1.01\n"),
         ("return cond.max_tracked_gain(T) - cfg.threshold_slack\n",
          "return cond.max_tracked_gain(T) - cfg.threshold_slack * 1.01\n")),
        (ENTROPY_ORACLE,),
    ),
    Mutant(
        "modular threshold slack scaled by 1.01", "selectors.py",
        (("threshold_gain = float(w[:T].max()) - cfg.threshold_slack\n",
          "threshold_gain = float(w[:T].max()) - cfg.threshold_slack * 1.01\n"),
         ("threshold_gain = float(_weights_of(weights, reference).max()) - cfg.threshold_slack\n",
          "threshold_gain = float(_weights_of(weights, reference).max())"
          " - cfg.threshold_slack * 1.01\n")),
        (MODULAR_ORACLE,),
    ),
    Mutant(
        "first_tracked_hit rejects inside the guard band", "gp.py",
        (("if variance >= hi or _entropy_of(variance) >= threshold:", "if variance >= hi:"),),
        (ENTROPY_ORACLE, GUARD_BAND),
    ),
    Mutant(
        "arrival_test rejects inside the guard band", "gp.py",
        (("return bool(_entropy_of(variance) >= threshold)", "return False"),),
        (ENTROPY_ORACLE, GUARD_BAND),
    ),
    # Accepting inside the band moves too few decisions for the property's
    # example budget; the hand-built instances at the band's edges catch it.
    Mutant(
        "first_tracked_hit accepts inside the guard band", "gp.py",
        (("if variance >= hi or _entropy_of(variance) >= threshold:", "if True:"),),
        (GUARD_BAND,),
    ),
    Mutant(
        "arrival_test accepts inside the guard band", "gp.py",
        (("return bool(_entropy_of(variance) >= threshold)", "return True"),),
        (GUARD_BAND,),
    ),
    Mutant(
        "fixed-threshold scan takes > for >=", "selectors.py",
        (("(w[T:] >= threshold_gain)", "(w[T:] > threshold_gain)"),
         (".item() >= threshold_gain", ".item() > threshold_gain")),
        (MODULAR_ORACLE,),
    ),
    Mutant(
        "built-in --runs default 49", "cli.py",
        (('"trial count"}, int, 50', '"trial count"}, int, 49'),),
        (DEFAULTS_TEST + "[tune]", DEFAULTS_TEST + "[evaluate]"),
    ),
)


def run_tests(tmp: Path, tests: "list[str] | tuple[str, ...]") -> tuple[int, set[str], str]:
    """Run ``tests`` on the copy in ``tmp``: pytest's exit status, the node
    IDs that failed, and its output."""
    env = {**os.environ, "PYTHONPATH": str(tmp), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-p", PLUGIN,
         "-o", f"pythonpath={tmp / 'src'}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, failed, done.stdout + done.stderr


def failed_named(test: str, failed: set[str]) -> bool:
    return test in failed or any(f.startswith(test + "[") for f in failed)


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (tmp / f"{PLUGIN}.py").write_text(PLUGIN_SOURCE, encoding="utf-8")
        package = tmp / "src" / "periodic_secretary"

        named = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        status, _, output = run_tests(tmp, named)
        if status != 0:
            print(output)
            print(f"mutation gate: FAIL (the named tests fail unmutated, pytest exit status {status})")
            return 1

        for mutant in MUTANTS:
            path = package / mutant.file
            original = path.read_text(encoding="utf-8")
            counts = [original.count(text) for text, _ in mutant.edits]
            if counts != [1] * len(counts):
                problems.append(f"{mutant.name}: its texts occur {counts} times in {mutant.file}")
                continue
            mutated = original
            for text, replacement in mutant.edits:
                mutated = mutated.replace(text, replacement)
            path.write_text(mutated, encoding="utf-8")
            try:
                status, failed, output = run_tests(tmp, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            survivors = [t for t in mutant.tests if not failed_named(t, failed)]
            if status != 1 or survivors:
                print(output)
                problems.append(f"{mutant.name}: survived {survivors or mutant.tests}"
                                f" (pytest exit status {status})")
            else:
                print(f"killed: {mutant.name}")
    for problem in problems:
        print(f"mutation gate: {problem}")
    ok = not problems
    print(f"mutation gate: {'pass' if ok else 'FAIL'} ({len(MUTANTS)} mutants)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
