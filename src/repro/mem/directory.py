"""Directory controller: sharer tracking, fills and TID-ordered commits.

Each directory owns a line-interleaved slice of physical memory
(Table II: full-bit-vector sharer list, 10-cycle service latency) and is
the serialization point of the Scalable-TCC commit protocol: write-set
flushes are applied here, and the invalidations it broadcasts are the
*only* mechanism that aborts transactions (Section III of the paper).

Service model
-------------
The directory is a single pipelined server: every request (fill or
flush) occupies it for its service time, starting at
``max(arrival, busy_until)`` — FIFO among arrivals, which combined with
the FIFO bus gives a deterministic total order.

Commit flushes occupy the server for ``latency + lines × commit_line_cycles``
cycles.  At completion the directory

1. applies the committed words to functional memory,
2. re-homes sharer bits (the committer becomes the only sharer),
3. broadcasts one invalidation message per victim sharer (single bus
   data transaction — the split-transaction bus is a broadcast medium),
   attaching a Stop-Clock command for victims that will abort when the
   gating unit decides to gate them, and
4. acknowledges the committer *after* the invalidations (bus FIFO
   ordering then guarantees a committer never completes before a
   conflicting invalidation has been delivered — see DESIGN.md §5).

Gating integration
------------------
A :class:`repro.gating.protocol.GatingUnit` may be attached.  The
directory notifies it on every abort-causing invalidation it sends
(step 3) and on every request received from a processor its table marks
as OFF (the paper's stale-OFF recovery: "if any load/store request
comes from a processor which is marked as off, directory assumes that
it has been turned on by some other directory").
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Iterable

from ..config import DirectoryConfig
from ..errors import ProtocolError
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.trace import NullTrace
from .address import AddressMap
from .bus import Bus
from .memory import MainMemory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..gating.protocol import GatingUnit

__all__ = ["Directory"]


class Directory:
    """One directory node of the distributed shared memory system."""

    def __init__(
        self,
        dir_id: int,
        engine: Engine,
        bus: Bus,
        memory: MainMemory,
        config: DirectoryConfig,
        addr_map: AddressMap,
        stats: StatsRegistry,
        trace: NullTrace | None = None,
    ):
        self.dir_id = dir_id
        self._engine = engine
        self._bus = bus
        self._memory = memory
        self._trace = trace if trace is not None else NullTrace()

        #: line -> bitmask of processor ids holding (or believed to
        #: hold) the line.  The full-bit-vector sharer list of Table II
        #: kept literally as a bit vector: flush service then re-homes a
        #: line with one int store and victim extraction is bit
        #: arithmetic instead of set iteration (PR 7 batched flush path).
        self._sharers: dict[int, int] = {}
        #: processors with live commit intent here ("Marked" bit, Fig.
        #: 2e); a committer adds itself at TID accept and discards
        #: itself when its commit finishes or aborts
        self.marked: set[int] = set()
        #: per-directory watermark of the last TID whose flush completed here
        self.last_committed_tid = -1

        self._busy_until = 0
        self._machine = None  # set via attach()
        self.gating: "GatingUnit | None" = None
        self._prefix = f"dir{dir_id}"
        # Hot-path bindings (see repro.sim.stats): handles and address
        # constants resolved once, not per request.
        self._num_dirs = addr_map.num_dirs
        self._latency = config.latency
        self._commit_line_cycles = config.commit_line_cycles
        self._trace_on = self._trace.enabled
        self._c_fills = stats.counter(f"{self._prefix}.fills")
        self._c_flushes = stats.counter(f"{self._prefix}.flushes")
        self._c_lines_committed = stats.counter(
            f"{self._prefix}.lines_committed"
        )
        self._c_aborts_caused = stats.counter(f"{self._prefix}.aborts_caused")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, machine, gating: "GatingUnit | None" = None) -> None:
        """Connect to the machine (its ``procs`` list) and gating unit."""
        self._machine = machine
        self.gating = gating

    # ------------------------------------------------------------------
    # sharer bookkeeping
    # ------------------------------------------------------------------
    def sharers_of(self, line: int) -> frozenset[int]:
        mask = self._sharers.get(line, 0)
        sharers = []
        while mask:
            low = mask & -mask
            sharers.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(sharers)

    def _check_home(self, lines: Iterable[int]) -> None:
        num_dirs = self._num_dirs
        dir_id = self.dir_id
        for line in lines:
            if line % num_dirs != dir_id:
                raise ProtocolError(
                    f"line {line} homed at dir {line % num_dirs}, "
                    f"not {dir_id}"
                )

    # ------------------------------------------------------------------
    # fill path
    # ------------------------------------------------------------------
    def receive_fill_request(
        self, proc: int, line: int, sent_at: int, req_id: int
    ) -> None:
        """Bus-arrival handler for ``proc``'s fill of ``line`` after an L1 miss.

        ``sent_at`` is the issue cycle: the gating protocol's stale-OFF
        recovery must ignore requests that were already in flight when
        the sender was gated.  ``req_id`` is the sender's per-processor
        request tag, echoed by the reply so that a reply belonging to
        an aborted attempt cannot satisfy a newer miss on the same line.
        """
        if line % self._num_dirs != self.dir_id:
            self._check_home((line,))  # raises with the full message
        gating = self.gating
        if gating is not None:
            # Stale-OFF recovery (module docstring): any request from a
            # processor the gating table marks OFF proves it is running.
            gating.notify_access(proc, sent_at)
        self._c_fills.value += 1

        engine = self._engine
        now = engine.now
        busy = self._busy_until
        start = busy if busy > now else now
        self._busy_until = done = start + self._latency
        # Pushed directly (see Bus.send_ctrl): ``done`` is >= now by
        # construction, so Engine.schedule's past-check is redundant.
        seq = engine._seq
        engine._seq = seq + 1
        heappush(
            engine._queue, (done, seq, self._fill_serviced, (proc, line, req_id))
        )

    def _fill_serviced(self, proc: int, line: int, req_id: int) -> None:
        # Sharer registration happens at service time, before the data
        # round-trip: any flush applied after this instant invalidates
        # the requester, closing the fill/flush race.
        sharers = self._sharers
        sharers[line] = sharers.get(line, 0) | (1 << proc)
        self._memory.access(self._fill_data_ready, proc, line, req_id)

    def _fill_data_ready(self, proc: int, line: int, req_id: int) -> None:
        self._bus.send_data(
            self._machine.procs[proc].receive_fill_reply, line, req_id
        )

    # ------------------------------------------------------------------
    # commit flush path
    # ------------------------------------------------------------------
    def receive_flush_request(
        self,
        proc: int,
        tid: int,
        lines: tuple[int, ...],
        writes: tuple[tuple[int, int], ...],
        sent_at: int,
        site: str | None,
    ) -> None:
        """Bus-arrival handler for a commit flush (TID-ordered globally).

        ``lines`` are the committer's written lines homed here and
        ``writes`` the address-sorted ``(addr, value)`` pairs in them.
        ``site`` is the committing transaction's identity (its PC).
        The paper obtains it with a TxInfoReq round-trip after gating a
        victim; carrying it in the commit request is an equally
        hardware-plausible simplification that avoids racing against
        the committer's own completion (the renewal-check TxInfoReq of
        Fig. 2e remains).

        The machine's token vendor releases committers in TID order
        (the completion barrier standing in for Scalable TCC's skew
        mechanism), so flush requests reach each directory already
        ordered; this is asserted as a protocol invariant.
        """
        self._check_home(lines)
        gating = self.gating
        if gating is not None:
            gating.notify_access(proc, sent_at)
        if tid <= self.last_committed_tid:
            raise ProtocolError(
                f"dir {self.dir_id}: flush TID {tid} not after watermark "
                f"{self.last_committed_tid} — commit order violated"
            )
        num_lines = len(lines)
        self._c_flushes.value += 1
        self._c_lines_committed.value += num_lines

        service = self._latency + num_lines * self._commit_line_cycles
        engine = self._engine
        now = engine.now
        busy = self._busy_until
        start = busy if busy > now else now
        self._busy_until = done = start + service
        # Pushed directly (see Bus.send_ctrl): ``done`` is >= now by
        # construction, so Engine.schedule's past-check is redundant.
        seq = engine._seq
        engine._seq = seq + 1
        heappush(
            engine._queue,
            (done, seq, self._flush_complete, (proc, tid, lines, writes, site)),
        )

    def _flush_complete(
        self,
        committer: int,
        tid: int,
        flushed: tuple[int, ...],
        writes: tuple[tuple[int, int], ...],
        site: str | None,
    ) -> None:
        now = self._engine.now
        # 1. apply committed words to functional memory — one batched
        #    pass (the words were validated when buffered)
        self._memory.write_words(writes, tid)
        if tid > self.last_committed_tid:
            self.last_committed_tid = tid

        # 2. collect victims and re-home sharer bits.  One pass over the
        #    flushed lines: victims fall out of the sharer bit-vector
        #    with bit arithmetic, and re-homing is a single int store
        #    per line (no per-line set allocation).
        sharers = self._sharers
        procs = self._machine.procs
        committer_bit = 1 << committer
        victims: dict[int, list[int]] = {}
        for line in flushed:
            others = sharers.get(line, 0) & ~committer_bit  # may be stale
            while others:
                low = others & -others
                others ^= low
                victim = low.bit_length() - 1
                lines = victims.get(victim)
                if lines is None:
                    victims[victim] = [line]
                else:
                    lines.append(line)
            sharers[line] = committer_bit

        if victims:
            # 3. gating decisions + one invalidation broadcast per
            #    victim.  The "will this victim abort" probe models the
            #    abort ack the directory would receive a few cycles
            #    later in hardware; it only affects when the
            #    gating-table entry is created (the Stop-Clock command
            #    rides with the invalidation either way).
            ordered = sorted(victims.items())
            gating = self.gating
            stop_clock = 0
            for victim, lines in ordered:
                if procs[victim].would_abort_on(lines):
                    self._c_aborts_caused.value += 1
                    if self._trace_on:
                        self._trace.emit(
                            now,
                            "dir.abort",
                            directory=self.dir_id,
                            victim=victim,
                            committer=committer,
                            lines=tuple(lines),
                        )
                    if gating is not None and gating.on_abort(
                        victim, committer, site
                    ):
                        stop_clock |= 1 << victim

            send_data = self._bus.send_data
            dir_id = self.dir_id
            for victim, lines in ordered:
                send_data(
                    procs[victim].receive_invalidation,
                    committer,
                    dir_id,
                    tuple(lines),
                    bool(stop_clock & (1 << victim)),
                )

        # 4. acknowledge the committer — after the invalidations, so the
        #    FIFO bus guarantees delivery order.
        self._bus.send_ctrl(procs[committer].receive_flush_done, tid)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Directory {self.dir_id} lines={len(self._sharers)} "
            f"marked={sorted(self.marked)}>"
        )
