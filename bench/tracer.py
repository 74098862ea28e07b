"""In-memory span tracer that instruments the library from outside.

Tracing rebinds public functions and methods of the ``periodic_secretary``
modules to timing wrappers: every module attribute bound to a traced function
is replaced, so callers that imported the name (``from .selectors import
periodic_secretary``) and callers that look it up on its module
(``gp.predict_many``) both go through the wrapper. No library source is
edited, and ``uninstall`` restores every original binding.

A span records its id, parent span, trial id, name, start and end
(``perf_counter_ns``) and one work count (points, rows, subsets, ...). A
trial is one selector run: a selector span starts a new trial id and every
span beneath it inherits that id; spans outside any selector run carry -1.
When a traced method calls another traced method on the same object (for
example ``GPConditioner.entropy`` delegating to ``entropies``, or
``UtilityEvaluator.accept`` calling ``gain``), the inner call is folded into
the outer span, so each span counts one call made by another layer.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import sys
import time
from collections import defaultdict
from collections.abc import Sequence
from pathlib import Path

_SELECTORS = (
    "periodic_secretary",
    "offline_greedy",
    "exhaustive_optimum",
    "submodular_secretary",
    "scheduled_sampler",
    "random_sampler",
)

# Selectors whose picks a change must not alter; the submodular secretary is
# excluded because its tie rule is due to change on purpose.
PINNED_SELECTORS = tuple(s for s in _SELECTORS if s != "submodular_secretary")

# Fold group shared by the closed-form bound calculators, which call each other.
_CLOSED_FORM = object()

_CLOSED_FORM_FUNCS = (
    "gaussian_tail_q",
    "expected_max_gap",
    "per_step_gap",
    "expected_successes",
    "full_selection_bound",
    "utility_lower_bound",
    "bound_report",
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _counted(iterable, box):
    for item in iterable:
        box[0] += 1
        yield item


class Tracer:
    """Span recorder plus the rebinding that feeds it.

    Spans accumulate in memory for the life of the process; ``write`` dumps
    them once at the end of a run. ``begin_iteration``/``end_iteration``
    bracket one benchmark iteration and turn its spans into per-layer sums.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self._stack: list[tuple[int, object, int]] = []  # (span id, fold group, trial)
        self._next_span = 0
        self._next_trial = 0
        self._trial_selector: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._iter_start = 0
        self._counters: dict[str, float] = defaultdict(float)
        self._picks: dict[str, list[tuple[int, ...]]] = defaultdict(list)
        self._violations: list[str] = []
        # Optional oracle called as hook(selector, args, kwargs, result, problems).
        self.selector_hook = None

    # ------------------------------------------------------------ recording
    def _wrap(self, name, fn, *, group=None, method=False, trial_root=False,
              count=None, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            fold = args[0] if method else group
            if fold is not None and stack and stack[-1][1] is fold:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            else:
                state = None
            sid = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][0] if stack else -1
            if trial_root:
                trial = tracer._next_trial
                tracer._next_trial += 1
                tracer._trial_selector[trial] = name
            else:
                trial = stack[-1][2] if stack else -1
            stack.append((sid, fold, trial))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            tracer.enabled = False  # bookkeeping below is not the library's work
            try:
                n = count(args, kwargs, result, state) if count is not None else 0
                tracer.spans.append((sid, parent, trial, name, start, end, n))
                if after is not None:
                    after(args, kwargs, result)
            finally:
                tracer.enabled = True
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _rebind_function(self, module, attr, name, **opts):
        """Replace every package-module binding of ``module.attr``."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, **opts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "periodic_secretary"
                                   or mod_name.startswith("periodic_secretary.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _rebind_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    # ------------------------------------------------------------ hooks
    def _selector_after(self, selector):
        def after(args, kwargs, result):
            chosen = result.chosen
            self._picks[selector].append(chosen)
            if selector == "periodic_secretary":
                cfg = _arg(args, kwargs, 2, "cfg")
                k, low = cfg.k, cfg.period_T
                self._counters["periodic_secretary.accepted"] += len(chosen)
            else:
                k = _arg(args, kwargs, 2 if selector in ("offline_greedy", "exhaustive_optimum",
                                                         "submodular_secretary") else 1, "k")
                low = 0
            if selector == "submodular_secretary":
                self._counters["submodular_secretary.accepted"] += len(chosen)
            if len(set(chosen)) != len(chosen) or len(chosen) > k:
                self._violations.append(f"{selector}: {len(chosen)} picks for k={k} or repeats")
            if any(i < low for i in chosen):
                self._violations.append(f"{selector}: pick inside the reference period (T={low})")
            if self.selector_hook is not None:
                self.selector_hook(selector, args, kwargs, result, self._violations)
        return after

    @staticmethod
    def _periodic_before(args, kwargs):
        stream = _arg(args, kwargs, 0, "stream")
        if isinstance(stream, Sequence):
            return args, kwargs, None
        box = [0]
        wrapped = _counted(stream, box)
        if "stream" in kwargs:
            kwargs = {**kwargs, "stream": wrapped}
        else:
            args = (wrapped, *args[1:])
        return args, kwargs, box

    @staticmethod
    def _periodic_scanned(args, kwargs, result, box):
        """Observations decided on after the reference period."""
        cfg = _arg(args, kwargs, 2, "cfg")
        if box is not None:
            return box[0] - cfg.period_T
        stream = _arg(args, kwargs, 0, "stream")
        if result.terminated != "filled_k":
            return len(stream) - cfg.period_T
        last = result.chosen[-1]
        lo, hi = 0, len(stream) - 1  # stream indices increase along the stream
        while lo < hi:
            mid = (lo + hi) // 2
            if stream[mid].index < last:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1 - cfg.period_T

    # ------------------------------------------------------------ install
    def install(self) -> None:
        from periodic_secretary import bounds, cli, gp, harness, kv, selectors, stream, utility

        tracer = self
        for attr in _SELECTORS:
            opts = {"trial_root": True, "after": self._selector_after(attr)}
            if attr == "periodic_secretary":
                opts["before"] = self._periodic_before
                opts["count"] = self._periodic_scanned
            if attr == "exhaustive_optimum":
                opts["count"] = lambda a, kw, r, s: math.comb(
                    len(_arg(a, kw, 0, "ground")), _arg(a, kw, 2, "k"))
            self._rebind_function(selectors, attr, f"selectors.{attr}", **opts)
        self._rebind_function(selectors, "utility_trace_for", "selectors.utility_trace_for")
        self._rebind_function(selectors, "write_selection_csv", "selectors.write_selection_csv")

        self._rebind_function(stream, "generate_periodic_stream", "stream.generate_periodic_stream")
        self._rebind_function(stream, "block_permute", "stream.block_permute")
        self._rebind_function(stream, "ingest_csv", "stream.ingest_csv",
                              count=lambda a, kw, r, s: len(r))
        self._rebind_function(stream, "write_stream_csv", "stream.write_stream_csv",
                              count=lambda a, kw, r, s: len(_arg(a, kw, 0, "stream")))

        self._rebind_function(gp, "predict_many", "gp.predict_many",
                              count=lambda a, kw, r, s: len(_arg(a, kw, 0, "train_x")))
        Cond = gp.GPConditioner
        self._rebind_method(Cond, "entropy", self._wrap("gp.entropy", Cond.entropy, method=True))
        self._rebind_method(Cond, "entropies", self._wrap(
            "gp.entropies", Cond.entropies, method=True,
            count=lambda a, kw, r, s: len(_arg(a, kw, 1, "Q"))))
        self._rebind_method(Cond, "extend", self._wrap("gp.extend", Cond.extend, method=True))
        cond_init = Cond.__init__

        def counted_init(obj, *args, **kwargs):
            if tracer.enabled:
                tracer._counters["gp.conditioners"] += 1
            cond_init(obj, *args, **kwargs)

        self._rebind_method(Cond, "__init__", counted_init)

        UF = utility.UtilityFunction
        value = self._wrap("utility.value", UF.value, method=True)
        self._rebind_method(UF, "value", value)
        self._rebind_method(UF, "__call__", value)
        make_evaluator = UF.evaluator

        def evaluator(f):
            ev = make_evaluator(f)
            if tracer.enabled:
                ev.gain = tracer._wrap("utility.gain", ev.gain, group=ev)
                ev.gains = tracer._wrap("utility.gains", ev.gains, group=ev,
                                        count=lambda a, kw, r, s: len(a[0]))
                ev.accept = tracer._wrap("utility.accept", ev.accept, group=ev)
            return ev

        self._rebind_method(UF, "evaluator", evaluator)

        for attr in _CLOSED_FORM_FUNCS:
            self._rebind_function(bounds, attr, "bounds.closed_form", group=_CLOSED_FORM)
        self._rebind_function(bounds, "estimate_utility_noise", "bounds.estimate_utility_noise")

        for attr in ("tune_threshold_slack", "run_comparison", "validate_bounds",
                     "evaluate_prediction", "attach_gp_qoi"):
            self._rebind_function(harness, attr, f"harness.{attr}")
        self._rebind_function(cli, "main", "cli.main")
        self._rebind_function(kv, "write_kv_file", "kv.write_kv_file")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ iterations
    def begin_iteration(self) -> None:
        self._iter_start = len(self.spans)
        self._counters = defaultdict(float)
        self._picks = defaultdict(list)
        self._violations = []

    def end_iteration(self) -> tuple[dict[str, float], dict[str, str], list[str]]:
        """Per-layer sums for the spans since ``begin_iteration``.

        Returns (sums, pick digests per selector, invariant violations). Sums
        are keyed ``<span>.calls``, ``<span>.self_ns``, ``<span>.total_ns``,
        ``<span>.n`` plus the hook counters.
        """
        spans = self.spans[self._iter_start:]
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _trial, _name, start, end, _n in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        sums: dict[str, float] = defaultdict(float)
        greedy_evals = 0
        for sid, _parent, trial, name, start, end, n in spans:
            sums[name + ".calls"] += 1
            sums[name + ".total_ns"] += end - start
            sums[name + ".self_ns"] += end - start - child_ns.get(sid, 0)
            sums[name + ".n"] += n
            if self._trial_selector.get(trial) == "selectors.offline_greedy":
                if name == "utility.gains":
                    greedy_evals += n
                elif name == "utility.gain":
                    greedy_evals += 1
        sums["offline_greedy.gain_evals"] = greedy_evals
        sums["spans"] = len(spans)
        sums.update(self._counters)
        digests = {
            name: hashlib.sha256(repr(self._picks.get(name, [])).encode()).hexdigest()
            for name in _SELECTORS
            if name in self._picks
        }
        return dict(sums), digests, list(self._violations)

    def write(self, path: Path) -> None:
        """Dump every recorded span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\ttrial\tname\tstart_ns\tend_ns\tn\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")
