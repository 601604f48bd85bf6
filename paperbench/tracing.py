"""Per-layer tracing from outside the program.

:func:`traced_calls` wraps the public entry point of every layer in a
span for the duration of a ``with`` block and restores the originals
afterwards; nothing under ``src/`` changes.  Spans stay in memory as
``[name, start, end, parent]`` rows until the run ends.  A span's self
time is its duration minus the time its child spans cover, and a
layer's share is the self time of its spans over the time of the
enclosing ``op`` spans (the workload's timed regions).

:func:`profiled_machine_runs` is the separate cProfile pass: the
profiler is on only inside ``Machine.run``, and :func:`fold_profile`
folds its self time by simulator module.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: span names, one per layer entry point, in report order
SPAN_LAYERS = (
    "workloads.build", "machine.build", "machine.reset", "harness.simulate",
    "harness.validate", "power.energy", "exec.condense", "exec.digest",
    "scenarios.expand", "scenarios.plan", "store.open", "store.get",
    "store.put", "figures.extract", "figures.render",
)

#: cProfile module groups, in report order
PROFILE_GROUPS = (
    "sim.engine", "sim.timeline", "sim.stats", "htm", "gating", "cm",
    "mem.cache", "mem.directory", "mem.bus", "mem.memory", "workloads",
    "builtins", "other",
)

_OWN_MODULES = {
    "sim/engine.py": "sim.engine", "sim/timeline.py": "sim.timeline",
    "sim/stats.py": "sim.stats", "mem/cache.py": "mem.cache",
    "mem/directory.py": "mem.directory", "mem/bus.py": "mem.bus",
    "mem/memory.py": "mem.memory",
}
_OWN_PACKAGES = ("htm", "gating", "cm", "workloads")


class Tracer:
    """In-memory spans plus the simulated counts of traced runs."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: summed simulator counters of every traced ``Machine.run``
        self.counters: Counter[str] = Counter()
        self.events = 0
        self.cycles = 0
        self.runs = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def note_run(self, machine: Any, result: Any) -> None:
        self.runs += 1
        self.events += machine.engine.events_executed
        self.cycles += result.end_cycle
        self.counters.update(result.counters())

    def self_seconds(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        totals: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] = totals.get(name, 0.0) + duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                totals[parent_name] = totals.get(parent_name, 0.0) - duration
        return totals

    def seconds(self, name: str) -> float:
        """Summed full duration of every span called *name*."""
        return sum(end - start for n, start, end, _p in self.spans
                   if n == name)


def _patch(owner: Any, attr: str, tracer: Tracer, name: str,
           undo: list[tuple[Any, str, Any]]) -> None:
    """Swap ``owner.attr`` for a span-wrapped twin, keeping descriptors
    (classmethod, cached_property) intact."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
        owner, attr)
    if isinstance(raw, classmethod):
        new: Any = classmethod(tracer.wrap(name, raw.__func__))
    elif isinstance(raw, functools.cached_property):
        new = functools.cached_property(tracer.wrap(name, raw.func))
        new.__set_name__(owner, attr)
    else:
        new = tracer.wrap(name, raw)
    undo.append((owner, attr, raw))
    setattr(owner, attr, new)


@contextmanager
def traced_calls(tracer: Tracer) -> Iterator[Tracer]:
    """Spans around each layer's public calls while the block runs."""
    import repro.figures.builder as builder
    import repro.harness.runner as runner
    import repro.scenarios.runner as scenario_runner
    from repro.exec.jobs import ExecResult, RunJob
    from repro.exec.store import ResultStore
    from repro.harness.runner import WorkloadSpec
    from repro.htm.machine import Machine
    from repro.scenarios.suite import ScenarioSuite
    from repro.workloads.base import WorkloadInstance

    undo: list[tuple[Any, str, Any]] = []
    targets = [
        (WorkloadSpec, "build", "workloads.build"),
        (Machine, "__init__", "machine.build"),
        (Machine, "reset", "machine.reset"),
        (runner, "verify_tiling", "harness.validate"),
        (WorkloadInstance, "validate_final_memory", "harness.validate"),
        (runner, "compute_energy", "power.energy"),
        (ExecResult, "from_run_result", "exec.condense"),
        (RunJob, "digest", "exec.digest"),
        (ScenarioSuite, "expand", "scenarios.expand"),
        (scenario_runner, "plan_suite", "scenarios.plan"),
        (builder, "plan_suite", "scenarios.plan"),
        (ResultStore, "__init__", "store.open"),
        (ResultStore, "get", "store.get"),
        (ResultStore, "__contains__", "store.get"),
        (ResultStore, "put", "store.put"),
        (builder, "render_json", "figures.render"),
    ]
    try:
        for owner, attr, name in targets:
            _patch(owner, attr, tracer, name, undo)

        original_run = Machine.run

        def run(machine: Any) -> Any:
            with tracer.span("harness.simulate"):
                result = original_run(machine)
            tracer.note_run(machine, result)
            return result

        undo.append((Machine, "run", original_run))
        Machine.run = run  # type: ignore[method-assign]

        original_get_extractor = builder.get_extractor

        def get_extractor(name: str) -> Callable[..., Any]:
            return tracer.wrap("figures.extract",
                               original_get_extractor(name))

        undo.append((builder, "get_extractor", original_get_extractor))
        builder.get_extractor = get_extractor  # type: ignore[assignment]
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


@contextmanager
def profiled_machine_runs() -> Iterator[cProfile.Profile]:
    """cProfile switched on only inside ``Machine.run``."""
    from repro.htm.machine import Machine

    profiler = cProfile.Profile()
    original_run = Machine.run

    def run(machine: Any) -> Any:
        profiler.enable()
        try:
            return original_run(machine)
        finally:
            profiler.disable()

    Machine.run = run  # type: ignore[method-assign]
    try:
        yield profiler
    finally:
        Machine.run = original_run  # type: ignore[method-assign]


def _group(filename: str) -> str:
    if filename == "~" or filename.startswith("<"):
        return "builtins"
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker not in path:
        return "other"
    module = path.rsplit(marker, 1)[1]
    if module in _OWN_MODULES:
        return _OWN_MODULES[module]
    package = module.split("/", 1)[0]
    return package if package in _OWN_PACKAGES else "other"


def fold_profile(profiler: cProfile.Profile | None) -> dict[str, float]:
    """Percent of profiled self time per module group (sums to 100)."""
    shares = {group: 0.0 for group in PROFILE_GROUPS}
    if profiler is None:
        return shares
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    for (filename, _line, _func), row in stats.items():
        shares[_group(filename)] += row[2]  # tottime
    total = sum(shares.values())
    if total > 0:
        for group in shares:
            shares[group] = 100.0 * shares[group] / total
    return shares
