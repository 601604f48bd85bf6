"""Deterministic discrete-event simulation engine.

The engine is a classic calendar-queue kernel: callbacks are scheduled
at absolute cycle times and executed in ``(time, sequence)`` order, so
two events scheduled for the same cycle fire in scheduling order.  This
total order is what makes whole simulations bit-reproducible — given the
same seed and configuration, every run produces the identical event
history (tested in ``tests/test_determinism.py``).

Design notes
------------
* Every scheduled event is a plain tuple ``(time, seq, fn, args)`` —
  the :data:`Event` type — and is its own heap entry.  ``heapq`` orders
  entries with C-level tuple comparison, which never looks past the
  unique ``seq``; nothing is allocated per event beyond the tuple
  itself.  ``args`` is ``None`` for zero-argument callbacks, which are
  then invoked as ``fn()``.
* The sequence number is taken when an event is *scheduled*, so
  same-cycle ties break by schedule order.  Splitting or merging the
  events of a protocol path therefore changes which same-cycle event
  runs first; keeping results bit-identical means keeping the event
  graph.
* Cancellation is *lazy*: :meth:`Engine.cancel` records the event's
  sequence number in a set, and the event is discarded when it is
  popped.  The drain loop consults the set only while it is non-empty,
  so runs without cancellations pay one truthiness test per event.
  Cancelling an event that already fired (or was never scheduled on
  this engine) is a no-op that records nothing.  The HTM layer cancels
  a processor's pending restart when a Stop-Clock freezes it, and the
  gating units cancel re-armed timers.
* The engine never advances time backwards; scheduling in the past is a
  :class:`~repro.errors.SimulationError` (it would silently reorder
  causality).
* ``run()`` drains the queue; ``step()`` executes one event, for the
  HTM layer's ``max_cycles`` budget.  The HTM layer installs a
  deadlock watchdog on top (see :mod:`repro.htm.machine`).

The hottest senders (processors, bus, memory port, directory service)
push their tuples onto ``_queue`` directly with a sequence number taken
from ``_seq``: their times are at or after ``now`` by construction, so
the past-check and call frame of :meth:`Engine.schedule` buy nothing
there.  ``heappush``/``heappop`` are bound once at import and passed as
default arguments into the hot methods, avoiding a global lookup per
event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import SimulationError

__all__ = ["Event", "Engine"]

#: A scheduled event and the handle :meth:`Engine.schedule` returns:
#: ``(time, seq, fn, args)``, with ``args`` ``None`` when ``fn`` takes
#: no arguments.
Event = tuple[int, int, Callable[..., Any], tuple[Any, ...] | None]


class Engine:
    """The event queue and simulation clock.

    The current simulation time is :attr:`now` (integer cycles).  All
    model components share one engine instance; none of them keep their
    own notion of time.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: list[Event] = []
        self._seq: int = 0
        #: sequence numbers of cancelled events still in the queue
        self._cancelled: set[int] = set()
        self.events_executed: int = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: int, fn: Callable[..., Any], *args: Any, _push=heappush
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay} at t={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = (self.now + delay, seq, fn, args or None)
        _push(self._queue, event)
        return event

    def cancel(self, event: Event) -> None:
        """Discard ``event`` when it is popped, if it is still pending.

        A late cancel — the event already fired, was already dropped,
        or belongs to a queue since cleared by
        :meth:`repro.htm.machine.Machine.close` — is a no-op and leaves
        nothing behind.  The pending check scans the queue by identity;
        cancels are rare, so that is cheaper than keeping an index on
        the scheduling path.
        """
        for pending in self._queue:
            if pending is event:
                self._cancelled.add(event[1])
                return

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, _pop=heappop) -> bool:
        """Execute the next live event.  Returns False when queue is empty."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            time, seq, fn, args = _pop(queue)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self.now = time
            self.events_executed += 1
            if args is None:
                fn()
            else:
                fn(*args)
            return True
        return False

    def run(self, _pop=heappop) -> None:
        """Drain the event queue.

        The dispatch loop is inlined (no per-event method call, no head
        peeking); a callback may stop it by raising.
        """
        queue = self._queue
        cancelled = self._cancelled
        executed = 0
        try:
            while queue:
                time, seq, fn, args = _pop(queue)
                if cancelled and seq in cancelled:
                    cancelled.discard(seq)
                    continue
                self.now = time
                executed += 1
                if args is None:
                    fn()
                else:
                    fn(*args)
        finally:
            self.events_executed += executed

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        # Every recorded cancellation names an event still in the queue.
        return len(self._queue) - len(self._cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self.now} pending={self.pending()}>"
