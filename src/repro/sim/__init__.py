"""Discrete-event simulation substrate (system S1 in DESIGN.md).

This subpackage is paper-agnostic: it provides the deterministic event
queue (:mod:`~repro.sim.engine`), per-processor state timelines used by
the energy model (:mod:`~repro.sim.timeline`), statistic counters
(:mod:`~repro.sim.stats`), deterministic RNG plumbing
(:mod:`~repro.sim.rng`) and optional event tracing
(:mod:`~repro.sim.trace`).
"""

from .._lazy import lazy_exports

__all__ = [
    "Engine",
    "Event",
    "StateTimeline",
    "Segment",
    "Counter",
    "StatsRegistry",
    "derive_seed",
    "TraceRecorder",
    "TraceEvent",
    "NullTrace",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".engine": ("Engine", "Event"),
    ".timeline": ("StateTimeline", "Segment"),
    ".stats": ("Counter", "StatsRegistry"),
    ".rng": ("derive_seed",),
    ".trace": ("TraceRecorder", "TraceEvent", "NullTrace"),
})
