"""Sorted singly-linked list with a shared node pool.

Node allocation is a bump pointer in shared memory — itself a (small)
transactional hot-spot, mirroring STAMP's shared allocator traffic.
Traversal reads every node up to the insertion point, so long lists
produce large read-sets: a single commit near the list head aborts all
concurrent traversers, which is what makes linked lists the classic
pathological HTM workload (used here by the ``llist`` microbenchmark
and ablations).
"""

from __future__ import annotations

from ...errors import WorkloadError
from ...htm.ops import Load, Store
from ...mem.address import WORD_BYTES
from ..base import MemoryLayout

__all__ = ["TNodePool", "TSortedList"]

_NODE_WORDS = 4  # key, value, next, pad


class TNodePool:
    """Bump allocator over a fixed arena of list nodes."""

    def __init__(self, layout: MemoryLayout, capacity: int, name: str = "pool"):
        if capacity < 1:
            raise WorkloadError(f"{name}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.counter_addr = layout.alloc_lines(1)
        self.arena = layout.alloc_words(capacity * _NODE_WORDS, line_aligned=True)

    def initialize(self, layout: MemoryLayout, used: int = 0) -> None:
        layout.poke(self.counter_addr, used)

    def node_addr(self, index: int) -> int:
        if not 0 <= index < self.capacity:
            raise WorkloadError(f"{self.name}: node index {index} out of range")
        return self.arena + index * _NODE_WORDS * WORD_BYTES

    def alloc(self):
        """Generator: reserve one node; returns its byte address."""
        index = yield Load(self.counter_addr)
        if index >= self.capacity:
            raise WorkloadError(f"{self.name}: node pool exhausted")
        yield Store(self.counter_addr, index + 1)
        return self.node_addr(index)


class TSortedList:
    """Ascending singly-linked list with a sentinel head."""

    def __init__(self, layout: MemoryLayout, pool: TNodePool, name: str = "list"):
        self.name = name
        self.pool = pool
        #: address of the head pointer (a one-word cell on its own line)
        self.head_addr = layout.alloc_lines(1)

    def initialize(self, layout: MemoryLayout) -> None:
        layout.poke(self.head_addr, 0)  # 0 = null

    # ------------------------------------------------------------------
    def insert(self, key: int, value: int):
        """Generator: insert keeping ascending order; duplicates allowed.

        Returns the new node's address.
        """
        node = yield from self.pool.alloc()
        yield Store(node, key)
        yield Store(node + WORD_BYTES, value)

        prev_addr = self.head_addr  # cell holding the 'next' pointer
        current = yield Load(self.head_addr)
        while current != 0:
            current_key = yield Load(current)
            if current_key >= key:
                break
            prev_addr = current + 2 * WORD_BYTES
            current = yield Load(prev_addr)
        yield Store(node + 2 * WORD_BYTES, current)
        yield Store(prev_addr, node)
        return node

    # ------------------------------------------------------------------
    def final_keys(self, memory: dict[int, int]) -> list[int]:
        """Decode the committed list contents from a memory snapshot."""
        keys: list[int] = []
        current = memory.get(self.head_addr, 0)
        seen = 0
        while current != 0:
            keys.append(memory.get(current, 0))
            current = memory.get(current + 2 * WORD_BYTES, 0)
            seen += 1
            if seen > self.pool.capacity:
                raise WorkloadError(f"{self.name}: cycle in final list")
        return keys
