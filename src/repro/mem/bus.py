"""The common split-transaction bus (Table II interconnect).

Every inter-component message — fill requests/replies, commit flushes,
invalidation broadcasts, token requests and the gating control messages
— crosses this single shared medium.  The model is a classic occupancy
resource:

* a message departs at ``max(now, busy_until)``,
* occupies the bus for ``occupancy`` cycles (``data_occupancy`` for
  data-bearing beats such as fill replies and flush bodies),
* and arrives ``wire_latency`` cycles after its last beat.

Because ``busy_until`` advances monotonically, message *arrival order
equals send order* — the bus is FIFO.  The HTM commit protocol relies
on this ordering guarantee: a commit-completion acknowledgement sent
after an invalidation broadcast can never overtake it, which closes the
validation race discussed in DESIGN.md §5 (a committer only completes
after every conflicting invalidation from older transactions has been
delivered).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from ..config import BusConfig
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry

__all__ = ["Bus"]


class Bus:
    """Shared split-transaction bus with FIFO ordering."""

    def __init__(self, engine: Engine, config: BusConfig, stats: StatsRegistry):
        self._engine = engine
        self._busy_until = 0
        # Hot-path bindings: every message pays these, so the occupancy
        # constants and counter handles are resolved once.
        self._ctrl_occupancy = config.occupancy
        self._data_occupancy = config.data_occupancy
        self._wire_latency = config.wire_latency
        self._c_messages = stats.counter("bus.messages")
        self._c_busy_cycles = stats.counter("bus.busy_cycles")
        self._c_queue_cycles = stats.counter("bus.queue_cycles")

    # ------------------------------------------------------------------
    # send_ctrl and send_data carry the reservation logic inline rather
    # than delegating to a shared helper: every protocol message crosses
    # one of them, and the extra call frame was a measured cost.  Keep
    # the two bodies in sync (they differ only in the occupancy used).
    # Counter bumps go straight to .value, as everywhere, and the
    # event tuple is pushed onto the engine's queue directly: the
    # arrival time is >= now by construction (depart >= now, occupancy
    # and wire latency non-negative), so Engine.schedule's past-check
    # and the *args repack of a delegated call buy nothing here.
    def send_ctrl(
        self, fn: Callable[..., Any], *args: Any, _push=heappush
    ) -> int:
        """Send a control (address-only) message; returns arrival time."""
        occupancy = self._ctrl_occupancy
        engine = self._engine
        now = engine.now
        busy = self._busy_until
        depart = busy if busy > now else now
        self._busy_until = busy = depart + occupancy
        arrival = busy + self._wire_latency
        seq = engine._seq
        engine._seq = seq + 1
        _push(engine._queue, (arrival, seq, fn, args or None))

        self._c_messages.value += 1
        self._c_busy_cycles.value += occupancy
        if depart > now:
            self._c_queue_cycles.value += depart - now
        return arrival

    def send_data(
        self, fn: Callable[..., Any], *args: Any, _push=heappush
    ) -> int:
        """Send a data-bearing message; returns arrival time."""
        occupancy = self._data_occupancy
        engine = self._engine
        now = engine.now
        busy = self._busy_until
        depart = busy if busy > now else now
        self._busy_until = busy = depart + occupancy
        arrival = busy + self._wire_latency
        seq = engine._seq
        engine._seq = seq + 1
        _push(engine._queue, (arrival, seq, fn, args or None))

        self._c_messages.value += 1
        self._c_busy_cycles.value += occupancy
        if depart > now:
            self._c_queue_cycles.value += depart - now
        return arrival
