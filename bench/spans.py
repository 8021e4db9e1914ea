"""In-memory span tracing for the benchmark's traced runs.

``Tracer.install`` wraps every public function (no leading underscore,
defined in that module) of the traced ``uavplan`` modules, and rebinds
the wrapper under every ``uavplan`` module namespace that holds the
original, so ``uavplan.cli.plan_both_phases`` and
``uavplan.planner.plan_both_phases`` are both traced, and calls inside
a module go through the wrapper too. Nothing under ``src/`` changes;
``uninstall`` puts the originals back.

A span is ``[name, layer, start, end, parent, job]``; spans live in a
list until the run ends. Self time is a span's duration minus the
durations of its direct children (calls nest and never overlap in one
thread, so the children cover exactly that much of the interval).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Iterable

# span record fields
NAME, LAYER, START, END, PARENT, JOB = range(6)

# the program's layers are its modules; physics is not wrapped, so its
# time is part of costs, its only caller after set-up, and coding only
# runs at set-up
LAYERS = ("cli", "io", "evaluate", "planner", "milp", "scenario", "costs")


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Functions a module defines under a name without a leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records one span per call of a wrapped function.

    ``observers`` maps a qualified name (``"milp.solve_exact"``) to a
    callback ``(args, kwargs, result)`` run after the span closes; the
    benchmark uses them for counts such as branch-and-bound nodes.
    """

    def __init__(self, observers: dict[str, Callable] | None = None) -> None:
        self.spans: list[list] = []
        self.observers = dict(observers or {})
        self._stack: list[int] = []
        self._job = -1
        self._patched: list[tuple[ModuleType, str, Callable]] = []

    # -- spans ----------------------------------------------------------

    def run_job(self, job_id: int, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` under a root span that tags every span
        inside it with ``job_id``."""
        self._job = job_id
        span = [name, "bench", 0.0, 0.0, -1, job_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._job = -1

    def wrap(self, qualname: str, layer: str, fn: Callable) -> Callable:
        observer = self.observers.get(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # kept lean: this runs once per call of every public function
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [qualname, layer, 0.0, 0.0, stack[-1] if stack else -1, self._job]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    # -- patching -------------------------------------------------------

    def install(self, package: ModuleType) -> None:
        """Wrap the public functions of every traced module of ``package``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        layer_modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        modules = [package] + [
            m
            for name, m in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".") and m is not None
        ]
        wrappers: dict[int, Callable] = {}
        for layer, mod in zip(LAYERS, layer_modules):
            for name, fn in public_functions(mod).items():
                wrappers[id(fn)] = self.wrap(f"{layer}.{name}", layer, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_self_by_job(spans: list[list], selfs: list[float]) -> dict[int, dict[str, float]]:
    """job id -> layer -> summed self time."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, st in zip(spans, selfs):
        out[s[JOB]][s[LAYER]] += st
    return {job: dict(layers) for job, layers in out.items()}


def root_durations(spans: list[list]) -> dict[int, float]:
    """job id -> duration of the job's root span."""
    return {s[JOB]: s[END] - s[START] for s in spans if s[PARENT] < 0}


def self_sum_error(spans: list[list]) -> float:
    """Largest |sum of a job's layer self times - its root span| over jobs,
    relative to the root span."""
    selfs = self_times(spans)
    roots = root_durations(spans)
    worst = 0.0
    for job, layers in layer_self_by_job(spans, selfs).items():
        root = roots[job]
        worst = max(worst, abs(sum(layers.values()) - root) / max(root, 1e-12))
    return worst


def sum_self(spans: list[list], selfs: list[float], names: Iterable[str]) -> float:
    wanted = set(names)
    return sum(st for s, st in zip(spans, selfs) if s[NAME] in wanted)
