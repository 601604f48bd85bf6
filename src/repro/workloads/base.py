"""Workload plumbing: memory layout, scales, instances and validation.

A workload *builder* produces a :class:`WorkloadInstance`: an initial
memory image, one thread program per processor, and a list of
validators that check end-of-run functional correctness (beyond the
generic serializability invariant, each workload knows what its final
memory state must look like).

:class:`MemoryLayout` is the build-time allocator.  It hands out
word-aligned (optionally line-aligned) regions of the simulated physical
address space and accumulates the initial image.  Since directories
interleave memory at line granularity, a contiguous allocation spreads
naturally across all directories, matching how a NUMA first-touch/
round-robin placement would behave for shared structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import WorkloadError
from ..htm.program import ThreadProgram, WarmSweep
from ..mem.address import WORD_BYTES
from .builtin import SCALES, Scale

__all__ = ["MemoryLayout", "WorkloadInstance", "Scale", "SCALES", "mix64"]


def mix64(x: int) -> int:
    """SplitMix64 finalizer: the deterministic hash used by workloads.

    Stable across processes (unlike ``hash``), well-mixed, cheap.
    """
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class MemoryLayout:
    """Build-time allocator over the simulated physical address space."""

    def __init__(self, base: int = 0x1_0000, line_bytes: int = 64):
        if base % line_bytes:
            raise WorkloadError("layout base must be line-aligned")
        self._base = base
        self._cursor = base
        self._line_bytes = line_bytes
        self.image: dict[int, int] = {}

    @property
    def cursor(self) -> int:
        return self._cursor

    def alloc_words(self, count: int, line_aligned: bool = False) -> int:
        """Reserve ``count`` words; returns the base byte address."""
        if count <= 0:
            raise WorkloadError(f"allocation must be positive, got {count}")
        if line_aligned and self._cursor % self._line_bytes:
            self._cursor += self._line_bytes - self._cursor % self._line_bytes
        base = self._cursor
        self._cursor += count * WORD_BYTES
        return base

    def alloc_lines(self, count: int) -> int:
        """Reserve ``count`` full cache lines (line-aligned)."""
        words_per_line = self._line_bytes // WORD_BYTES
        return self.alloc_words(count * words_per_line, line_aligned=True)

    def poke(self, addr: int, value: int) -> None:
        """Write an initial-image word."""
        if addr % WORD_BYTES:
            raise WorkloadError(f"unaligned initial write at {addr:#x}")
        self.image[addr] = value

    def peek(self, addr: int) -> int:
        return self.image.get(addr, 0)

    def sweep(self, barrier: str) -> WarmSweep:
        """The warm sweep over every line allocated so far.

        The paper measures the *parallel section* (first transaction
        start to last transaction end) of STAMP runs whose shared
        structures were built during a long setup phase, so steady-state
        cache behaviour dominates its measurements.  Our synthetic runs
        are much shorter; without warming, compulsory misses on every
        shared line would dominate the energy profile (observed: 60–90 %
        of time in the MISS state).  Each thread therefore loads one
        word of every shared line before its first transaction --
        outside the measured window by the paper's own definition --
        leaving only coherence misses in the parallel section, as on
        the paper's warmed system.  Call it after the last allocation.
        """
        return WarmSweep(
            range(self._base, self._cursor, self._line_bytes), barrier
        )


@dataclass
class WorkloadInstance:
    """A fully-built workload, ready to run on a machine.

    Instances are *reusable*: programs are pure generator factories and
    the image is copied into the machine, so the same instance can run
    both the gated and the ungated configuration — the paired-run
    methodology of Figs. 4–6.

    The warm-up contract: ``warm`` declares the cache-warming sweep
    (:meth:`MemoryLayout.sweep`) and the programs hold no warm-up code;
    each starts when the sweep's barrier releases.  The machine state at
    that barrier then depends only on the system configuration and the
    swept addresses, so a process simulates each sweep once and later
    runs restore its state (:mod:`repro.htm.machine`).  Within one such
    memo key three config fields may differ, because the sweep reads
    none of them:

    * ``seed`` — seeded draws happen only in programs, transaction
      bodies and the contention manager, none of which has run yet;
    * ``gating`` — only aborts reach the gating tables and policy, and
      no transaction has begun; the capture checks the tables are
      untouched;
    * ``max_cycles`` — it only decides whether a run may pass the
      barrier; a restored run whose barrier lies beyond it fails as the
      simulated one would.

    Memory holds the initial image at the barrier (the sweep only
    loads, and discards what it loads), so the image is not part of
    the key either.
    """

    name: str
    scale: Scale
    num_threads: int
    seed: int
    programs: list[ThreadProgram]
    initial_memory: dict[int, int]
    #: free-form build metadata (sizes, expected counts, ...)
    params: dict[str, Any] = field(default_factory=dict)
    #: callables(final_memory: dict[int, int]) raising on violation
    validators: list[Callable[[dict[int, int]], None]] = field(default_factory=list)
    #: the cache-warming sweep run before the programs (None: programs
    #: start at cycle 0)
    warm: WarmSweep | None = None

    def __post_init__(self) -> None:
        if self.num_threads != len(self.programs):
            raise WorkloadError(
                f"{self.name}: {self.num_threads} threads but "
                f"{len(self.programs)} programs"
            )

    def validate_final_memory(self, memory: dict[int, int]) -> None:
        """Run every workload validator against the final memory image."""
        for validator in self.validators:
            validator(memory)

    def describe(self) -> str:
        parts = [f"{self.name} (scale={self.scale}, threads={self.num_threads})"]
        for key, value in sorted(self.params.items()):
            parts.append(f"  {key} = {value}")
        return "\n".join(parts)


def partition(items: Sequence, num_threads: int, thread: int) -> list:
    """Round-robin partition of build-time work across threads."""
    return [item for idx, item in enumerate(items) if idx % num_threads == thread]


__all__ += ["partition"]
