"""Bounded MPMC FIFO queue in simulated shared memory.

Head and tail counters live on separate cache lines; every ``pop``
reads and writes the head counter, so concurrent consumers conflict on
it — the canonical HTM hot-spot, and the reason the intruder kernel
(whose packet queue all threads drain) exhibits STAMP intruder's high
abort rate.
"""

from __future__ import annotations

from ...errors import WorkloadError
from ...htm.ops import Load, Store
from ...mem.address import WORD_BYTES
from ..base import MemoryLayout

__all__ = ["TQueue"]


class TQueue:
    """Circular buffer with monotonically increasing head/tail counters."""

    def __init__(self, layout: MemoryLayout, capacity: int, name: str = "queue"):
        if capacity < 1:
            raise WorkloadError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        # head and tail each get a private cache line
        self.head_addr = layout.alloc_lines(1)
        self.tail_addr = layout.alloc_lines(1)
        self.buf_base = layout.alloc_words(capacity, line_aligned=True)
        # every push and pop reads both counters: one intent each
        self._load_head = Load(self.head_addr)
        self._load_tail = Load(self.tail_addr)

    def _slot_addr(self, index: int) -> int:
        return self.buf_base + (index % self.capacity) * WORD_BYTES

    # ------------------------------------------------------------------
    # build-time
    # ------------------------------------------------------------------
    def initialize(self, layout: MemoryLayout, values) -> None:
        """Pre-fill the queue in the initial memory image."""
        values = list(values)
        if len(values) > self.capacity:
            raise WorkloadError(
                f"{self.name}: {len(values)} initial items exceed capacity "
                f"{self.capacity}"
            )
        for i, v in enumerate(values):
            layout.poke(self._slot_addr(i), v)
        layout.poke(self.head_addr, 0)
        layout.poke(self.tail_addr, len(values))

    # ------------------------------------------------------------------
    # transactional operations
    # ------------------------------------------------------------------
    def push(self, value: int):
        """Generator: append ``value``; returns False when full."""
        tail = yield self._load_tail
        head = yield self._load_head
        if tail - head >= self.capacity:
            return False
        yield Store(self._slot_addr(tail), value)
        yield Store(self.tail_addr, tail + 1)
        return True

    def pop(self):
        """Generator: remove the oldest value; returns None when empty."""
        head = yield self._load_head
        tail = yield self._load_tail
        if head >= tail:
            return None
        value = yield Load(self._slot_addr(head))
        yield Store(self.head_addr, head + 1)
        return value

    # ------------------------------------------------------------------
    def final_size(self, memory: dict[int, int]) -> int:
        head = memory.get(self.head_addr, 0)
        tail = memory.get(self.tail_addr, 0)
        return tail - head
