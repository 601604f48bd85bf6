"""The additional directory table proposed in Section III (Fig. 1).

One entry per processor, holding:

=================  ====================================================
Field              Purpose
=================  ====================================================
aborter_proc       processor id that aborted this victim here
aborter_site       id of the aborting transaction ("Aborter Tx Id" —
                   the PC that began it; filled in by a TxInfoReq
                   round-trip, so transiently ``None``)
abort_count        up-counter of aborts of the victim's current
                   transaction (8-bit, saturating at 255; reset to 0
                   when the victim commits)
renew_count        times the gating period was renewed at the current
                   abort level (reset when abort_count increments)
timer ("Wt")       expiry handled by the protocol layer; the table
                   stores the scheduled engine event
off                current state bit: 1 = this directory believes the
                   processor is clock gated
=================  ====================================================

Counters live per *directory* (local knowledge): the same victim may
hold different counts in different directories, exactly as the paper
allows ("a directory turns off or turns on a processor based on its
local knowledge about the abort behavior of the processor").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.engine import Engine, Event

__all__ = ["GatingEntry", "GatingTable"]


@dataclass(slots=True)
class GatingEntry:
    """Per-(directory, processor) gating state."""

    proc: int
    aborter_proc: int | None = None
    aborter_site: str | None = None
    abort_count: int = 0
    renew_count: int = 0
    off: bool = False
    #: cycle at which the current gating episode began (for filtering
    #: in-flight requests out of stale-OFF recovery)
    gated_at: int = -1
    #: victim's invested work at abort time (momentum-aware policies)
    momentum: int = 0
    #: live timer event, if any (cancelled on re-arm)
    timer_event: Event | None = field(default=None, repr=False)
    #: guards stale timer/TxInfo callbacks after the entry is re-armed
    epoch: int = 0

    def bump_abort(self, saturation: int) -> None:
        """Increment the abort counter (saturating); reset renew count.

        "Renew count field is reset to 0 whenever Abort count field is
        incremented."
        """
        if self.abort_count < saturation:
            self.abort_count += 1
        self.renew_count = 0

    def reset_on_commit(self) -> None:
        """"Abort count field is reset to 0 whenever a thread commits."""
        self.abort_count = 0
        self.renew_count = 0

    def cancel_timer(self, engine: Engine) -> None:
        if self.timer_event is not None:
            engine.cancel(self.timer_event)
            self.timer_event = None
        self.epoch += 1


class GatingTable:
    """All per-processor entries of one directory."""

    def __init__(self, num_procs: int):
        #: public for the protocol layer's hot path: ``notify_access``
        #: runs once per request arrival at a gated-config directory,
        #: and indexing this list directly beats an ``entry()`` call.
        self.entries = [GatingEntry(p) for p in range(num_procs)]
        self._entries = self.entries

    def entry(self, proc: int) -> GatingEntry:
        return self._entries[proc]

    def __iter__(self):
        return iter(self._entries)

    def off_procs(self) -> list[int]:
        """Processors this directory currently believes are gated."""
        return [e.proc for e in self._entries if e.off]
