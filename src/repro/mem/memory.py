"""Main memory: functional word store plus a timed single port.

Functional state and timing are deliberately decoupled:

* ``read_word`` / ``write_word`` touch the committed architectural
  state instantly.  Only *committed* data ever lives here — speculative
  stores stay in the transaction's store buffer until commit flush, so
  a fill always returns pre-commit values exactly as in TCC.
* ``access`` reserves the (pipelined) memory port and schedules a
  callback when the data would be available, giving the 100-cycle miss
  penalty of Table II plus queueing under contention.

A write-version log (address, value, writer tid) is kept when enabled;
the serializability checker replays it to validate Invariant 1.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Mapping

from ..config import MemoryConfig
from ..errors import MemoryModelError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from .address import WORD_BYTES

__all__ = ["MainMemory"]


class MainMemory:
    """1 GB, 100-cycle, single-read/write-port main memory."""

    def __init__(
        self,
        engine: Engine,
        config: MemoryConfig,
        stats: StatsRegistry,
        record_versions: bool = False,
    ):
        self._engine = engine
        self._data: dict[int, int] = {}
        self._port_busy_until = 0
        self._size_bytes = config.size_bytes
        self._port_occupancy = config.port_occupancy
        self._latency = config.latency
        self._c_accesses = stats.counter("memory.accesses")
        self._c_port_wait = stats.counter("memory.port_wait_cycles")
        self.record_versions = record_versions
        #: (time, word_addr, value, writer_tid) tuples when recording.
        self.version_log: list[tuple[int, int, int, int]] = []

    # ------------------------------------------------------------------
    # functional state
    # ------------------------------------------------------------------
    def _check(self, addr: int) -> int:
        if addr < 0 or addr + WORD_BYTES > self._size_bytes:
            raise MemoryModelError(
                f"address {addr:#x} outside {self._size_bytes}-byte memory"
            )
        if addr % WORD_BYTES:
            raise MemoryModelError(f"address {addr:#x} is not word-aligned")
        return addr

    def read_word(self, addr: int) -> int:
        """Committed value at ``addr`` (zero if never written)."""
        return self._data.get(self._check(addr), 0)

    @property
    def words(self) -> dict[int, int]:
        """The committed store itself: ``addr -> value``, absent is zero.

        For readers whose addresses are validated already — load
        completions bind ``words.get`` once and skip :meth:`read_word`'s
        re-check; the dict is never replaced, so such a binding stays
        valid for the memory's lifetime.  Writes go through
        :meth:`write_word` and :meth:`write_words`.
        """
        return self._data

    def write_word(self, addr: int, value: int, writer_tid: int = -1) -> None:
        """Commit ``value`` at ``addr`` (used by directory flushes)."""
        self._data[self._check(addr)] = value
        if self.record_versions:
            self.version_log.append((self._engine.now, addr, value, writer_tid))

    def write_words(
        self, writes: tuple[tuple[int, int], ...], writer_tid: int = -1
    ) -> None:
        """Commit a batch of ``(addr, value)`` pairs in one pass.

        The batched flush-application path: one dict update instead of
        a checked call per word.  Addresses must already be word-aligned
        and in range — flush writes come from a transaction's store
        buffer, validated word by word at buffer time
        (``AddressMap.check_word_addr``), so re-checking here would only
        re-verify the committer's own invariant on the hot path.
        """
        self._data.update(writes)
        if self.record_versions:
            now = self._engine.now
            self.version_log.extend(
                (now, addr, value, writer_tid) for addr, value in writes
            )

    def load_image(self, image: Mapping[int, int]) -> None:
        """Install a workload's initial memory image (time-free)."""
        for addr, value in image.items():
            self._data[self._check(addr)] = value

    def snapshot(self) -> dict[int, int]:
        """Copy of the committed state (for end-of-run validation)."""
        return dict(self._data)

    # ------------------------------------------------------------------
    # timed port
    # ------------------------------------------------------------------
    def access(self, fn: Callable[..., Any], *args: Any, _push=heappush) -> int:
        """Reserve the port and schedule ``fn`` at data-ready time.

        Returns the completion cycle.  The port accepts a new access
        every ``port_occupancy`` cycles; each access takes ``latency``
        cycles end-to-end (Table II: 100).
        """
        engine = self._engine
        now = engine.now
        busy = self._port_busy_until
        start = busy if busy > now else now
        self._port_busy_until = start + self._port_occupancy
        done = start + self._latency
        # Pushed directly (see Bus.send_ctrl): ``done`` is >= now by
        # construction, so Engine.schedule's past-check is redundant.
        seq = engine._seq
        engine._seq = seq + 1
        _push(engine._queue, (done, seq, fn, args or None))

        # Inlined counter bumps: every fill and flush pays this path.
        self._c_accesses.value += 1
        if start > now:
            self._c_port_wait.value += start - now
        return done
