"""Thread programs: the software the simulated cores run.

A :class:`ThreadProgram` is the unit of work bound to one processor.
Its :meth:`~ThreadProgram.generate` method receives a
:class:`ThreadContext` (thread id, thread count, deterministic RNG,
free-form parameters) and returns the generator of intents that the
processor executes.

Programs are written once per workload and instantiated per thread;
see :mod:`repro.workloads` for the STAMP-equivalent kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..errors import WorkloadError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ThreadContext", "ThreadProgram"]


@dataclass
class ThreadContext:
    """Per-thread execution context handed to the program generator."""

    proc_id: int
    num_threads: int
    rng: np.random.Generator
    params: dict[str, Any] = field(default_factory=dict)


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
