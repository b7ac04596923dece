"""Spans around the public functions of gaoi's layers, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules by
a wrapper wherever a ``gaoi`` module holds it, so a call is seen whichever
name its caller looks it up by (``gaoi.ensemble.joint_step`` as well as
``gaoi.markov.joint_step``).  Each call leaves one span: name, start, end and
the span that was open when it began.  Spans stay in memory and are written
out once, by ``dump``, when the operation ends.  The program under test is
not edited; a function that a later version removes simply records no span.

The span stack is shared by the whole process: the benchmark runs every
operation in one thread (it never passes ``--workers``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("markov", "ensemble", "schedule", "metrics", "bayes", "oracle", "config", "cli")


def _count_levels(counters, args, kwargs, dist):
    counters["markov.stationary_levels"] += sum(len(levels) for levels in dist.mu)


def _count_kept(counters, args, kwargs, schedule):
    raw = args[0] if args else kwargs["raw"]
    counters["schedule.filter_stale.pairs_in"] += len(raw)
    counters["schedule.filter_stale.pairs_kept"] += len(schedule.samples)


def _count_changes(counters, args, kwargs, delays):
    counters["metrics.changes"] += len(delays)


# Work counts taken from a traced function's arguments and result.
OBSERVERS = {
    "markov.stationary_distribution": _count_levels,
    "schedule.filter_stale": _count_kept,
    "metrics.detection_delays": _count_changes,
}
COUNTERS = (
    "markov.stationary_levels",
    "schedule.filter_stale.pairs_in",
    "schedule.filter_stale.pairs_kept",
    "metrics.changes",
    "trace.observe_errors",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter
        observe = OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                try:
                    observe(counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    counters["trace.observe_errors"] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layers in every gaoi namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gaoi.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "gaoi" or modname.startswith("gaoi.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def dump(self, path: str) -> None:
        """Write the spans and counters to ``path`` (numpy ``.npz``)."""
        header = json.dumps({"names": self.names, "counters": self.counters})
        with open(path, "wb") as fh:
            np.savez(
                fh,
                header=np.array(header),
                name=np.frombuffer(self.span_name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )
