"""Open-addressing hash table in simulated shared memory.

Linear probing over ``(key, value)`` slot pairs; key 0 marks an empty
slot (callers must therefore use non-zero keys — enforced).  Four slots
share one 64-byte line, so nearby probes exhibit the false sharing a
real cache-line-granularity HTM sees: two inserts into neighbouring
slots conflict even though they touch different words.  This is the
dominant conflict source in the genome kernel, exactly as STAMP's
genome contends on its segment hashtable.
"""

from __future__ import annotations

from ...errors import WorkloadError
from ...htm.ops import LoadCache, Store
from ...mem.address import WORD_BYTES
from ..base import MemoryLayout, mix64

__all__ = ["THashTable"]

_SLOT_WORDS = 2  # key, value


class THashTable:
    """Fixed-capacity open-addressing table with linear probing."""

    def __init__(self, layout: MemoryLayout, num_slots: int, name: str = "table"):
        if num_slots < 4:
            raise WorkloadError(f"{name}: need at least 4 slots")
        self.name = name
        self.num_slots = num_slots
        self.base = layout.alloc_words(num_slots * _SLOT_WORDS, line_aligned=True)
        self._loads = LoadCache()

    # ------------------------------------------------------------------
    def _slot_addr(self, slot: int) -> int:
        return self.base + slot * _SLOT_WORDS * WORD_BYTES

    def _home_slot(self, key: int) -> int:
        return mix64(key) % self.num_slots

    @staticmethod
    def _check_key(key: int) -> int:
        if key == 0:
            raise WorkloadError("key 0 is reserved for empty slots")
        return key

    # ------------------------------------------------------------------
    # build-time initialization (writes the initial image directly)
    # ------------------------------------------------------------------
    def initialize(self, layout: MemoryLayout, items: dict[int, int]) -> None:
        """Pre-populate the table in the initial memory image."""
        if len(items) >= self.num_slots:
            raise WorkloadError(
                f"{self.name}: {len(items)} items exceed {self.num_slots} slots"
            )
        for key, value in items.items():
            self._check_key(key)
            slot = self._home_slot(key)
            for _ in range(self.num_slots):
                addr = self._slot_addr(slot)
                existing = layout.peek(addr)
                if existing == 0 or existing == key:
                    layout.poke(addr, key)
                    layout.poke(addr + WORD_BYTES, value)
                    break
                slot = (slot + 1) % self.num_slots
            else:  # pragma: no cover - guarded by the size check
                raise WorkloadError(f"{self.name}: initialization overflow")

    # ------------------------------------------------------------------
    # transactional operations (generators for `yield from`)
    # ------------------------------------------------------------------
    def lookup(self, key: int):
        """Generator: value stored under ``key``, or None."""
        self._check_key(key)
        loads = self._loads
        slot = self._home_slot(key)
        for _ in range(self.num_slots):
            addr = self._slot_addr(slot)
            stored = yield loads[addr]
            if stored == key:
                value = yield loads[addr + WORD_BYTES]
                return value
            if stored == 0:
                return None
            slot = (slot + 1) % self.num_slots
        return None

    def insert(self, key: int, value: int, update: bool = False):
        """Generator: insert ``key`` -> ``value``.

        Returns True if the key was newly inserted, False if it already
        existed (its value is updated only with ``update=True``).
        Raises :class:`WorkloadError` when the table is full — builders
        size tables with headroom, so overflow indicates a sizing bug.
        """
        self._check_key(key)
        loads = self._loads
        slot = self._home_slot(key)
        for _ in range(self.num_slots):
            addr = self._slot_addr(slot)
            stored = yield loads[addr]
            if stored == key:
                if update:
                    yield Store(addr + WORD_BYTES, value)
                return False
            if stored == 0:
                yield Store(addr, key)
                yield Store(addr + WORD_BYTES, value)
                return True
            slot = (slot + 1) % self.num_slots
        raise WorkloadError(f"{self.name}: table full inserting key {key}")

    def increment(self, key: int, delta: int = 1):
        """Generator: add ``delta`` to ``key``'s value (insert if absent).

        Returns the new value.
        """
        self._check_key(key)
        loads = self._loads
        slot = self._home_slot(key)
        for _ in range(self.num_slots):
            addr = self._slot_addr(slot)
            stored = yield loads[addr]
            if stored == key:
                value = yield loads[addr + WORD_BYTES]
                yield Store(addr + WORD_BYTES, value + delta)
                return value + delta
            if stored == 0:
                yield Store(addr, key)
                yield Store(addr + WORD_BYTES, delta)
                return delta
            slot = (slot + 1) % self.num_slots
        raise WorkloadError(f"{self.name}: table full incrementing key {key}")

    # ------------------------------------------------------------------
    # post-run inspection (plain functions over a memory snapshot)
    # ------------------------------------------------------------------
    def final_items(self, memory: dict[int, int]) -> dict[int, int]:
        """Decode the committed table contents from a memory snapshot."""
        items: dict[int, int] = {}
        for slot in range(self.num_slots):
            addr = self._slot_addr(slot)
            key = memory.get(addr, 0)
            if key:
                items[key] = memory.get(addr + WORD_BYTES, 0)
        return items
