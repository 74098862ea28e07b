"""The public surface: exported names resolve, the program names each one,
and the benchmark's bindings exist.

A deletion that leaves a stale ``__all__`` entry, or removes a name the
benchmark tracer (``bench/tracer.py``) rebinds, fails here in well under a
second instead of in a benchmark run.
"""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np

import periodic_secretary
from periodic_secretary import GPHyperparams, UtilityFunction

from conftest import make_observations

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

MODULES = [
    importlib.import_module(f"periodic_secretary.{info.name}")
    for info in pkgutil.iter_modules(periodic_secretary.__path__)
]


def test_every_module_all_resolves():
    for module in MODULES:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), f"{module.__name__}: duplicate __all__ entries"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_exports_are_module_exports():
    # Every class and function the package re-exports is in the __all__ of
    # the module that defines it.
    exported = {
        name: obj
        for name, obj in vars(periodic_secretary).items()
        if not name.startswith("_") and hasattr(obj, "__module__") and callable(obj)
    }
    assert exported
    for name, obj in exported.items():
        home = sys.modules[obj.__module__]
        assert name in getattr(home, "__all__", ()), f"{name} is not in {home.__name__}.__all__"


def _without_all(path: Path) -> str:
    """The source of ``path`` with its ``__all__`` list cut out."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            del lines[node.lineno - 1 : node.end_lineno]
    return "\n".join(lines)


def test_every_exported_callable_is_named_by_the_program():
    # A class or function that only tests reach belongs in tests/reference.py,
    # not in the library. The program names it somewhere in a src/ module
    # other than __init__.py, or in a bench/ script (the tracer names what it
    # wraps by string); its own def or class line and its __all__ entry do
    # not count.
    exported = sorted(
        name for name, obj in vars(periodic_secretary).items() if not name.startswith("_") and callable(obj)
    )
    src = [p for p in (ROOT / "src" / "periodic_secretary").glob("*.py") if p.name != "__init__.py"]
    texts = [_without_all(p) for p in [*src, *BENCH.glob("*.py")]]
    assert exported
    unnamed = [
        name
        for name in exported
        if not any(
            re.search(rf"\b{name}\b", re.sub(rf"(?m)^\s*(def|class) {name}\b.*$", "", text))
            for text in texts
        )
    ]
    assert not unnamed, f"exported, but named by no src/ module or bench/ script: {unnamed}"


def _bindings():
    """Identity snapshot of every package-module attribute and traced class attribute."""
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "periodic_secretary"]
    owners += [periodic_secretary.gp.GPConditioner, UtilityFunction]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_install_binds_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer._patches
        # The evaluator wrappers are bound when an evaluator is made with
        # tracing on; exercise the batched gains the tracer wraps by name.
        tracer.enabled = True
        hyper = GPHyperparams(lengthscales=np.array([1.0]), signal_variance=1.0, noise_variance=0.1)
        ev = UtilityFunction.entropy(hyper).evaluator()
        assert ev.gains(make_observations([0.0, 0.5])).shape == (2,)
        assert "utility.gains" in {span[3] for span in tracer.spans}
    finally:
        tracer.enabled = False
        tracer.uninstall()
        sys.modules.pop("tracer", None)
    after = _bindings()
    for key, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[key].get(k) is not v]
        assert not changed, f"not restored: {changed}"


def test_tracer_counts_every_measured_call(monkeypatch):
    # The benchmark's per-layer metrics count calls wherever a selector makes
    # them: each entropy pick is one utility.accept and one gp.extend, on
    # every path, and each observation the segment secretary scores is one
    # utility.gain. A selector that moved one of these calls off the traced
    # evaluator or conditioner would change the metrics without a trace.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    from periodic_secretary import PeriodicSecretaryConfig, PeriodicStreamSpec, selectors, stream

    T, n, k = 6, 60, 4
    spec = PeriodicStreamSpec(
        period_T=T, noise_cov=np.array([[0.05]]), length_N=n, base_waveform=stream.two_sine_waveform(T)
    )
    obs = stream.generate_periodic_stream(spec, seed=7).observations
    hyper = GPHyperparams(lengthscales=np.array([0.5]), signal_variance=1.0, noise_variance=0.1)
    f = UtilityFunction.entropy(hyper)
    cfg = PeriodicSecretaryConfig(k=k, period_T=T, threshold_slack=0.0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_iteration()
        tracer.enabled = True
        runs = [
            selectors.periodic_secretary(obs, f, cfg),
            selectors.periodic_secretary(iter(obs), f, cfg),
            selectors.offline_greedy(obs, f, k),
            selectors.submodular_secretary(obs, f, k),
        ]
        sums, _digests, violations = tracer.end_iteration()
    finally:
        tracer.enabled = False
        tracer.uninstall()
        sys.modules.pop("tracer", None)
    assert not violations
    assert all(r.chosen for r in runs[:3])  # the segment secretary may take none
    picks = sum(len(r.chosen) for r in runs)
    assert sums["utility.accept.calls"] == picks
    assert sums["gp.extend.calls"] == picks
    # A segment's classical pick scores up to and including its pick, or the
    # whole segment when nothing beats the observed prefix; indices are positions.
    scored = 0
    for j in range(k):
        lo, hi = j * n // k, (j + 1) * n // k
        picked = [i for i in runs[3].chosen if lo <= i < hi]
        scored += picked[0] - lo + 1 if picked else hi - lo
    assert sums["utility.gain.calls"] == scored
