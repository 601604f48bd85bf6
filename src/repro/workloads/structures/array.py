"""Flat word arrays in simulated shared memory."""

from __future__ import annotations

from ...errors import WorkloadError
from ...htm.ops import LoadCache, Store
from ...mem.address import WORD_BYTES
from ..base import MemoryLayout

__all__ = ["TArray"]


class TArray:
    """A fixed-size array of 64-bit words.

    ``stride_words`` > 1 spaces elements out (e.g. 8 to give every
    element its own cache line, eliminating false sharing — used by the
    yada mesh where one element == one line is the intended conflict
    granularity).
    """

    def __init__(
        self,
        layout: MemoryLayout,
        length: int,
        stride_words: int = 1,
        line_aligned: bool = False,
        name: str = "array",
    ):
        if length <= 0:
            raise WorkloadError(f"{name}: length must be positive")
        if stride_words <= 0:
            raise WorkloadError(f"{name}: stride must be positive")
        self.name = name
        self.length = length
        self.stride_bytes = stride_words * WORD_BYTES
        self.base = layout.alloc_words(length * stride_words, line_aligned)
        self._loads = LoadCache()

    def addr(self, index: int, word: int = 0) -> int:
        """Byte address of ``index`` (+ an intra-element word offset)."""
        if not 0 <= index < self.length:
            raise WorkloadError(
                f"{self.name}[{index}] out of bounds (length {self.length})"
            )
        return self.base + index * self.stride_bytes + word * WORD_BYTES

    # -- build-time -----------------------------------------------------
    def initialize(self, layout: MemoryLayout, values) -> None:
        for i, v in enumerate(values):
            layout.poke(self.addr(i), v)

    def read_final(self, memory: dict[int, int], index: int, word: int = 0) -> int:
        return memory.get(self.addr(index, word), 0)

    # -- transactional --------------------------------------------------
    def get(self, index: int, word: int = 0):
        """Generator: load element ``index``."""
        value = yield self._loads[self.addr(index, word)]
        return value

    def put(self, index: int, value: int, word: int = 0):
        """Generator: store element ``index``."""
        yield Store(self.addr(index, word), value)

    def add(self, index: int, delta: int, word: int = 0):
        """Generator: read-modify-write element ``index``."""
        addr = self.addr(index, word)
        value = yield self._loads[addr]
        yield Store(addr, value + delta)
        return value + delta
