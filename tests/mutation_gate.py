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
TUNE_ORACLE = "tests/test_harness.py::TestTuneThresholdSlack::test_matches_per_cell_oracle"
IN_BAND_RULE = "variance >= hi or _entropy_of(variance) >= threshold"

MUTANTS = (
    Mutant(
        "entropy threshold slack scaled by 1.01", "selectors.py",
        (("return cond.max_tracked_gain(T) - cfg.threshold_slack\n",
          "return cond.max_tracked_gain(T) - cfg.threshold_slack * 1.01\n"),),
        (ENTROPY_ORACLE,),
    ),
    Mutant(
        "modular threshold slack scaled by 1.01", "selectors.py",
        (("threshold_gain = float(reference.max()) - cfg.threshold_slack\n",
          "threshold_gain = float(reference.max()) - cfg.threshold_slack * 1.01\n"),),
        (MODULAR_ORACLE,),
    ),
    # The in-band rule is one definition that both scans call, and the two
    # oracle tests run both scans on each instance.
    Mutant(
        "both scans reject inside the guard band", "gp.py",
        ((IN_BAND_RULE, "variance >= hi"),),
        (ENTROPY_ORACLE, GUARD_BAND),
    ),
    # Accepting inside the band moves too few decisions for the property's
    # example budget; the hand-built instances at the band's edges catch it.
    Mutant(
        "both scans accept inside the guard band", "gp.py",
        ((IN_BAND_RULE, "True"),),
        (GUARD_BAND,),
    ),
    Mutant(
        "max_tracked_gain takes the reference minimum", "gp.py",
        (("v.item(v[:stop].argmax())", "v.item(v[:stop].argmin())"),),
        (ENTROPY_ORACLE, "tests/test_properties.py::test_tracked_scans_match_gain_space_rule"),
    ),
    Mutant(
        "first_tracked_hit skips a pool position", "gp.py",
        (("for pos in range(start, self._p):", "for pos in range(start + 1, self._p):"),),
        (ENTROPY_ORACLE, GUARD_BAND,
         "tests/test_properties.py::test_list_and_generator_inputs_select_alike"),
    ),
    Mutant(
        "modular threshold drops a reference weight", "selectors.py",
        (("float(reference.max())", "float(reference[1:].max())"),),
        (MODULAR_ORACLE,),
    ),
    Mutant(
        "modular weights flattened, not refused", "utility.py",
        (("            if w.ndim != 1:\n", "            if False:\n"),),
        ("tests/test_utility.py::TestUtilityFunctionValidation"
         "::test_modular_refuses_weights_that_are_not_a_vector",),
    ),
    # The shared factorisation serves the chain-rule entropies, posterior
    # prediction and the qoi draw; a test of each fails without the noise.
    Mutant(
        "noise left off the Gram matrix's diagonal", "gp.py",
        (("[...] += hyper.noise_variance", "[...] += 0.0"),),
        ("tests/test_utility.py::TestEntropyCriterion"
         "::test_chain_rule_matches_determinant_up_to_eight_points",
         "tests/test_gp.py::TestPredict::test_two_point_system_against_hand_solve",
         "tests/test_harness.py::TestAttachQoi::test_draws_from_the_noisy_prior"),
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
    Mutant(
        "declared least --runs of 0", "cli.py",
        (('"trial count"}, int, 50,\n                    low=1)',
          '"trial count"}, int, 50,\n                    low=0)'),),
        ("tests/test_cli.py::test_zero_count_is_usage_error[tune---runs]",
         "tests/test_cli.py::TestTune::test_zero_runs_is_error"),
    ),
    Mutant(
        "declared least --k of 0", "cli.py",
        (('"k": _Option("sampling capacity", int, low=1)',
          '"k": _Option("sampling capacity", int, low=0)'),),
        ("tests/test_cli.py::TestSelect::test_k_below_one_usage_error",
         "tests/test_cli.py::test_k_below_one_is_same_usage_error_as_select"),
    ),
    Mutant(
        "relations between options left unchecked", "cli.py",
        (("if problem := command.relation(args):", "if problem := None:"),),
        ("tests/test_cli.py::TestTune::test_single_period_is_refused",
         "tests/test_cli.py::TestBounds::test_period_past_the_stream_is_usage_error"),
    ),
    Mutant(
        "a config entry left out of the second parse", "cli.py",
        (("for key, value in read_kv_file(config).items():",
          "for key, value in list(read_kv_file(config).items())[1:]:"),),
        ("tests/test_cli.py::TestGenerate::test_config_file_fills_missing_flags",
         "tests/test_cli.py::test_config_file_and_flags_write_the_same_run"),
    ),
    Mutant(
        "_spread with ddof 1 for a single trial", "harness.py",
        (("ddof = 1 if runs.shape[axis] > 1 else 0", "ddof = 1"),),
        (TUNE_ORACLE + "[False-1]", TUNE_ORACLE + "[True-1]"),
    ),
    Mutant(
        "offline_greedy tracks an empty ground set", "selectors.py",
        (("        if len(rows):\n            cond.track(rows.features)\n",
          "        cond.track(rows.features)\n"),),
        ("tests/test_selectors.py::TestOfflineGreedy::test_entropy_k_zero_on_empty_ground_set",),
    ),
    Mutant(
        "periodic runs stored at the previous slack", "harness.py",
        (("finals[i, j, r] = _final_utility(result)", "finals[i, j - 1, r] = _final_utility(result)"),
         ("fills[i, j, r] = len(result.chosen)", "fills[i, j - 1, r] = len(result.chosen)")),
        (TUNE_ORACLE, "tests/test_harness.py::TestValidateBounds::test_matches_per_cell_oracle"),
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
