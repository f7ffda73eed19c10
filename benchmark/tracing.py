"""In-memory spans and call counts around the package's public functions.

The tracer wraps functions and methods of ``fhn_gamma`` from the outside:
every module attribute that refers to a wrapped function is replaced (the
package imports functions by name, so ``wave_speeds.width_condition`` and
``limit_energy.width_condition`` are the same object and both must be
swapped), and methods are replaced on their class.  ``uninstall`` puts the
originals back.  Spans are kept in memory and written out once, when the
run ends.

A span is (id, parent id, name, thread id, start, end, thread CPU seconds);
the trace file writes it as [id, parent, name, thread index, start, wall,
CPU], times in microseconds from the first span's start.
The parent is the innermost open span of the same thread, 0 at the top of a
thread.  Hot scalar functions are counted without a span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

#: (module, attribute) wrapped with a span; "Class.method" names a method
SPANNED = (
    ("model", "classify"),
    ("wave_speeds", "front_speed"),
    ("wave_speeds", "pulse_speed"),
    ("limit_energy", "sharp_interface_energy"),
    ("nonlocal_operator", "InhibitorOperator.__init__"),
    ("nonlocal_operator", "InhibitorOperator.solve"),
    ("nonlocal_operator", "InhibitorOperator.solve_transpose"),
    ("weighted_space", "IntervalUnion.indicator"),
    ("epsilon_solver", "build_recovery"),
    ("epsilon_solver", "DiscreteEnergy.value_and_grad"),
    ("epsilon_solver", "DiscreteEnergy.project"),
    ("epsilon_solver", "DiscreteEnergy.preconditioner"),
    ("epsilon_solver", "DiscreteEnergy.report"),
    ("epsilon_solver", "minimize_energy"),
    ("epsilon_solver", "speed_eps"),
    ("cli", "run"),
)

#: (module, attribute) only counted: called thousands of times per pulse
COUNTED = (
    ("limit_energy", "width_condition"),
    ("limit_energy", "interval_energy"),
    ("wave_speeds", "optimal_width"),
)


class Tracer:
    """Spans and counts of one run; safe to use from several threads."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for counter in self._counters:
                total.update(counter)
        return total

    def _span_wrapper(self, name: str, fn):
        perf, cpu, spans = time.perf_counter, time.thread_time, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = cpu()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(),
                              t0, t1, c1 - c0))
        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counter()[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target of SPANNED and COUNTED in the loaded package."""
        for targets, make in ((SPANNED, self._span_wrapper),
                              (COUNTED, self._count_wrapper)):
            for module_name, attr in targets:
                module = importlib.import_module(f"fhn_gamma.{module_name}")
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
                    continue
                orig = getattr(module, attr)
                wrapped = make(name, orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "fhn_gamma"
                                           or mod_name.startswith("fhn_gamma.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def by_name(self, spans=None) -> dict[str, list[tuple]]:
        out = defaultdict(list)
        for span in self.spans if spans is None else spans:
            out[span[2]].append(span)
        return out

    def summary(self, spans) -> dict:
        """Per span name: calls, total and self milliseconds, median
        microseconds per call.  Self time is the span's duration minus the
        durations of its direct children (same thread, so they do not
        overlap)."""
        child_time = defaultdict(float)
        for _sid, parent, _n, _t, t0, t1, _c in spans:
            if parent:
                child_time[parent] += t1 - t0
        out = {}
        for name, group in sorted(self.by_name(spans).items()):
            durations = [s[5] - s[4] for s in group]
            out[name] = {
                "calls": len(group),
                "total_ms": 1e3 * sum(durations),
                "self_ms": 1e3 * sum(s[5] - s[4] - child_time[s[0]] for s in group),
                "median_us": 1e6 * statistics.median(durations),
            }
        return out

    def write(self, path, mark: int, counts: Counter) -> None:
        """One JSON line per span, in order of ending, then one line with the summaries of the
        workload's spans (before ``mark``) and of the probes (after it),
        and the workload's call counts."""
        threads: dict[int, int] = {}
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, thread, t0, t1, cpu in self.spans:
                index = threads.setdefault(thread, len(threads))
                fh.write(json.dumps([sid, parent, name, index,
                                     round(1e6 * (t0 - origin), 3),
                                     round(1e6 * (t1 - t0), 3),
                                     round(1e6 * cpu, 3)]) + "\n")
            fh.write(json.dumps({
                "summary": self.summary(self.spans[:mark]),
                "probe_summary": self.summary(self.spans[mark:]),
                "counts": dict(sorted(counts.items())),
            }) + "\n")
