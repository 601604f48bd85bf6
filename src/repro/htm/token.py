"""The centralized token vendor.

Scalable TCC serializes conflicting commits with a monotonically
increasing *token id* (TID) handed out by a central vendor when a
processor reaches its commit instruction; "the older transaction will
possess low TID and will be able to commit first" (Section II).

Beyond issuing TIDs, this vendor implements the *completion barrier*
that stands in for Scalable TCC's skew/probe machinery (DESIGN.md §5,
substitution list): a committer may flush its write-set only once every
older TID has finished (committed — including delivery of its
invalidations, which the FIFO bus orders before the commit ack — or
aborted and released its token).  This conservatively serializes commit
*completion* in TID order, which is exactly the property the
serializability invariant needs, while still letting a committer flush
to all its directories in parallel.

Waiter callbacks are dispatched through the event engine (at +0 cycles)
rather than synchronously: a retiring commit can release a long chain
of waiting committers, and trampolining through the engine keeps that
iteration instead of recursion.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import ProtocolError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry

__all__ = ["TokenVendor"]


class TokenVendor:
    """Issues TIDs and releases committers in TID order."""

    def __init__(self, engine: Engine, stats: StatsRegistry):
        self._engine = engine
        self._stats = stats
        self._next_tid = 1
        self._live: set[int] = set()
        # min-heap of (tid, callback, args) waiting for their barrier
        # turn; wait_for_turn calls callback(*args) at the turn
        self._waiters: list[tuple[int, Callable[..., None], tuple[Any, ...]]] = []
        self._c_tids_issued = stats.counter("vendor.tids_issued")
        self._c_barrier_waits = stats.counter("vendor.barrier_waits")
        self._c_commits = stats.counter("vendor.commits")
        self._c_releases = stats.counter("vendor.releases")

    # ------------------------------------------------------------------
    def issue(self, proc: int) -> int:
        """Hand out the next TID (the commit timestamp)."""
        tid = self._next_tid
        self._next_tid += 1
        self._live.add(tid)
        self._c_tids_issued.value += 1
        return tid

    def min_live(self) -> int | None:
        return min(self._live) if self._live else None

    def is_live(self, tid: int) -> bool:
        return tid in self._live

    # ------------------------------------------------------------------
    def wait_for_turn(
        self, tid: int, callback: Callable[..., None], *args
    ) -> None:
        """Invoke ``callback(*args)`` once ``tid`` is the smallest live TID.

        The callback fires via a zero-delay engine event; callers guard
        against their own abort in the interim (epoch discipline).
        Accepting args directly saves the per-commit closure the caller
        would otherwise build (every commit passes through here).
        """
        if tid not in self._live:
            raise ProtocolError(f"TID {tid} is not live")
        if min(self._live) == tid:
            self._engine.schedule(0, callback, *args)
            return
        # TIDs are unique, so heap ordering never compares past them.
        heapq.heappush(self._waiters, (tid, callback, args))
        self._c_barrier_waits.value += 1

    # ------------------------------------------------------------------
    def finish(self, tid: int) -> None:
        """Retire a committed TID (its flushes and invals are delivered)."""
        self._retire(tid, self._c_commits)

    def release(self, tid: int) -> None:
        """Retire an aborted TID (its owner rolled back while spinning)."""
        self._retire(tid, self._c_releases)

    def _retire(self, tid: int, counter) -> None:
        live = self._live
        if tid not in live:
            raise ProtocolError(f"retiring TID {tid} that is not live")
        live.remove(tid)
        counter.value += 1
        # Release the waiter whose turn has come, if any.
        waiters = self._waiters
        while waiters:
            tid, callback, args = waiters[0]
            if tid not in live:
                # Waiter aborted after queueing; drop the dead entry.
                heapq.heappop(waiters)
                continue
            if min(live) != tid:
                return
            heapq.heappop(waiters)
            self._engine.schedule(0, callback, *args)
