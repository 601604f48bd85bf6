"""Thread programs: the software the simulated cores run.

A :class:`ThreadProgram` is the unit of work bound to one processor.
Its :meth:`~ThreadProgram.generate` method receives a
:class:`ThreadContext` (thread id and thread count) and returns the
generator of intents that the processor executes.

Programs are written once per workload and instantiated per thread;
see :mod:`repro.workloads` for the STAMP-equivalent kernels.

A :class:`WarmSweep` declares the cache warming every thread does
before its program starts; the machine runs it (see
:meth:`repro.htm.machine.Machine.run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from ..errors import WorkloadError

__all__ = ["ThreadContext", "ThreadProgram", "WarmSweep"]


@dataclass(frozen=True)
class WarmSweep:
    """Plain loads every thread issues before its program starts.

    Each processor loads every address of ``addrs`` in order (one per
    cache line of the shared arena), then waits at the barrier named
    ``barrier``; its program starts when that barrier releases.  The
    sweep lies outside the measured window: the parallel section opens
    at the first transaction.
    """

    addrs: range
    barrier: str


@dataclass
class ThreadContext:
    """Per-thread execution context handed to the program generator."""

    proc_id: int
    num_threads: int


class ThreadProgram:
    """Binds a generator function to a name.

    ``fn`` must accept a single :class:`ThreadContext` argument and
    return a generator yielding :class:`~repro.htm.ops.Op` intents.
    """

    def __init__(self, fn: Callable[[ThreadContext], Generator], name: str = ""):
        if not callable(fn):
            raise WorkloadError("thread program must be callable")
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "program")

    def generate(self, ctx: ThreadContext) -> Generator:
        gen = self.fn(ctx)
        if not hasattr(gen, "send"):
            raise WorkloadError(
                f"thread program {self.name!r} must return a generator "
                f"(got {type(gen).__name__}); did you forget a yield?"
            )
        return gen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ThreadProgram {self.name}>"
