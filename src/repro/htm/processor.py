"""The processor model: an in-order core executing a thread program.

One :class:`Processor` owns one thread program, one private L1 cache
and one power-state timeline.  Two generators drive it: the thread
program, and the body of the live transaction attempt.  Each has one
step loop — :meth:`Processor._program_step` and
:meth:`Processor._tx_step` — that resumes its generator, executes the
yielded intent with timing against the memory system, and schedules
itself as the intent's continuation.  Protocol traffic (fill replies,
invalidations, flush acknowledgements, Turn-On) arrives as bus-delivered
calls whose fields are plain positional arguments.  A workload's warm
sweep (:class:`~repro.htm.program.WarmSweep`) runs through the program
step loop ahead of the program: its plain loads take the ordinary miss
path, and the warm barrier's release starts the program.

Transactional execution model (TCC)
-----------------------------------
* *Lazy versioning* — stores are buffered in the per-attempt store
  buffer (:class:`~repro.htm.transaction.TxState`); memory and caches
  never see speculative data.
* *Lazy conflict detection* — the only abort source is a directory
  invalidation for a speculatively-read line (plus the wake-up
  self-abort of the gating protocol).
* *Re-execution* — an abort discards the attempt's ``TxState`` and
  re-instantiates the body generator.

Continuations
-------------
Each op schedules exactly one continuation, or one fill request on a
miss; the step loops push the event tuple onto the engine queue
themselves, as the bus, memory and directories do.  The engine breaks
same-cycle ties by scheduling order, so results stay bit-identical
only while that event graph does.  Every abort bumps ``self._epoch``,
and a transactional continuation scheduled in an older epoch is a
no-op: that cancels all in-flight work of an attempt at once.

Clock gating (Section V of the paper)
-------------------------------------
A Stop-Clock command rides with the aborting invalidation; the
processor freezes (no events scheduled, power state GATED) until any
directory delivers Turn-On.  Rollback is performed at freeze time —
while frozen the processor does nothing, so performing the paper's
"Self Abort" at wake-up or at freeze is timing-equivalent; we do it at
freeze and the wake-up merely restarts the attempt.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..errors import ProtocolError, WorkloadError
from ..power.states import ProcState
from ..sim.engine import Event
from .ops import BarrierOp, Compute, Load, Store, TxOp
from .program import ThreadContext, ThreadProgram, WarmSweep
from .transaction import TxHandle, TxState, TxStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine

__all__ = ["Processor"]

# Enum member access is a descriptor call (~0.1 µs on CPython 3.11);
# the step loops and handlers compare against these module constants.
_RUN = ProcState.RUN
_MISS = ProcState.MISS
_COMMIT = ProcState.COMMIT
_GATED = ProcState.GATED
_COMMITTING = TxStatus.COMMITTING
_LIVE = (TxStatus.RUNNING, _COMMITTING)

#: the intent classes the step loops dispatch on by exact type; a
#: subclass is first mapped to the one of them it derives from (their
#: slot layouts conflict, so no class derives from two)
_INTENT_BASES = (Load, Store, Compute, TxOp, BarrierOp)
_INTENTS = frozenset(_INTENT_BASES)


class Processor:
    """One single-issue in-order core with TCC support."""

    def __init__(self, proc_id: int, machine: "Machine"):
        self.proc_id = proc_id
        self._m = machine
        self._engine = machine.engine
        self._memory = machine.memory
        self._vendor = machine.vendor
        self._trace = machine.trace
        self._cm = machine.cm
        self.cache = machine.build_cache(proc_id)
        self.timeline = machine.timeline(proc_id)

        self._program_send = None  # bound .send of the program generator
        self._ctx: ThreadContext | None = None

        # transactional state
        self._txop: TxOp | None = None
        self._tx: TxState | None = None
        self._tx_gen: Generator | None = None
        self._tx_send = None  # bound .send of the live attempt's generator
        self._tx_index = -1
        self._attempt = 0
        self._consecutive_aborts = 0
        self._epoch = 0
        #: footprint of the in-flight commit and the directories homing
        #: it, computed once at TID accept (it is frozen from then on)
        self._commit_footprint: set[int] | None = None
        self._commit_dirs: list[int] | None = None
        #: (line, addr, epoch, in_tx, req_id) of the outstanding miss
        self._awaiting_fill: tuple[int, int, int, bool, int] | None = None
        self._fill_seq = 0
        self._restart_event: Event | None = None

        # gating state
        self.gated = False
        self._gated_by: set[int] = set()

        self.finished = False
        self._prefix = f"proc{proc_id}"

        # Hot-path bindings, resolved once: latencies, address-math
        # constants (the checked slow path re-raises with the full
        # message) and the bound methods every op goes through.
        addr_map = machine.addr_map
        self._hit_latency = machine.config.cache.hit_latency
        self._check_word_addr = addr_map.check_word_addr
        self._mem_bytes = addr_map.memory_bytes
        self._line_bytes = addr_map.line_bytes
        self._num_dirs = addr_map.num_dirs
        self._dirs = machine.dirs
        #: every directory's Marked set, which a commit joins at TID
        #: accept and leaves at finalize or abort
        self._marked = [directory.marked for directory in machine.dirs]
        # Load completions read committed memory with one dict lookup:
        # the address was validated when the load issued.
        self._committed_word = machine.memory.words.get
        self._send_ctrl = machine.bus.send_ctrl
        self._send_data = machine.bus.send_data
        self._tl_set_state = self.timeline.set_state
        # Mirror of the timeline's current state, so a state is recorded
        # only when it changes (most ops run RUN -> RUN).  Must start as
        # the timeline's initial state.
        self._cur_state = _RUN
        self._cache_touch = self.cache.touch
        self._cache_touch_read = self.cache.touch_read
        self._cache_fill = self.cache.fill
        # Tracing is decided per run; a disabled trace must cost
        # nothing, not even the kwargs dict an emit() call builds.
        self._trace_on = self._trace.enabled

        stats = machine.stats
        prefix = self._prefix
        self._c_cache_hits = stats.counter(f"{prefix}.cache.hits")
        self._c_cache_misses = stats.counter(f"{prefix}.cache.misses")
        self._c_stale_fills = stats.counter(f"{prefix}.stale_fills")
        self._c_proc_commits = stats.counter(f"{prefix}.commits")
        self._c_proc_aborts = stats.counter(f"{prefix}.aborts")
        self._c_tx_attempts = stats.counter("tx.attempts")
        self._c_tx_commit_attempts = stats.counter("tx.commit_attempts")
        self._c_tx_commits = stats.counter("tx.commits")
        self._c_aborts_conflict = stats.counter("tx.aborts.conflict")
        self._c_aborts_self = stats.counter("tx.aborts.self")
        self._c_aborts_total = stats.counter("tx.aborts.total")
        self._c_wasted_cycles = stats.counter("tx.wasted_cycles")
        self._c_aborts_while_committing = stats.counter(
            "tx.aborts_while_committing"
        )
        self._c_gated = stats.counter("gating.gated")
        self._c_redundant_on = stats.counter("gating.redundant_on")
        self._c_wakeups = stats.counter("gating.wakeups")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, program: ThreadProgram, ctx: ThreadContext) -> None:
        """Bind the thread program; the next :meth:`_program_step` runs
        its first op."""
        self._ctx = ctx
        self._program_send = program.generate(ctx).send

    def start(
        self, program: ThreadProgram, ctx: ThreadContext,
        warm: WarmSweep | None = None,
    ) -> None:
        """Bind and launch the thread program at the current cycle.

        With ``warm``, the processor first issues the sweep's plain
        loads, through the ordinary miss path, and arrives at its
        barrier; the barrier's release starts the program.
        """
        self.bind(program, ctx)
        if warm is not None:
            self._program_send = self._sweep(warm, self._program_send).send
        self._engine.schedule(0, self._program_step, None)

    def _sweep(
        self, warm: WarmSweep, program_send: Callable[[Any], Any]
    ) -> Generator[Load | BarrierOp, Any, None]:
        """The warm sweep as program-level intents."""
        for addr in warm.addrs:
            yield Load(addr)
        # The barrier's continuation is _program_step: hand it the
        # program before arriving.
        self._program_send = program_send
        yield BarrierOp(warm.barrier)

    def _set_state(self, state: ProcState) -> None:
        if state is not self._cur_state:
            self._cur_state = state
            self._tl_set_state(self._engine.now, state)

    def _finish_program(self) -> None:
        # A finished thread spins at the final synchronization point at
        # full run power until the parallel section ends (Section VII).
        self.finished = True
        self._set_state(_RUN)
        self._m.proc_finished(self.proc_id)

    # ------------------------------------------------------------------
    # the two step loops
    # ------------------------------------------------------------------
    def _program_step(self, value: Any, _push=heappush) -> None:
        """Resume the thread program with ``value`` and run its next op.

        Non-transactional accesses touch setup or thread-private data:
        a plain store is applied to memory directly and cached locally
        (no coherence traffic — the documented restriction).
        """
        try:
            op = self._program_send(value)
        except StopIteration:
            self._finish_program()
            return
        kind = type(op)
        if kind not in _INTENTS:
            kind = next((b for b in _INTENT_BASES if isinstance(op, b)), None)
        if kind is TxOp:
            self._begin_tx(op)
            return
        if kind is Compute:
            if self._cur_state is not _RUN:
                self._cur_state = _RUN
                self._tl_set_state(self._engine.now, _RUN)
            delay = op.cycles
            fn, arg = self._program_step, None
        elif kind is Load:
            addr = op.addr
            if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
                self._check_word_addr(addr)  # raises the detailed error
            line = addr // self._line_bytes
            if not self._cache_touch(line):
                self._c_cache_misses.value += 1
                if self._cur_state is not _MISS:
                    self._cur_state = _MISS
                    self._tl_set_state(self._engine.now, _MISS)
                self._send_fill(line, addr, False)
                return
            self._c_cache_hits.value += 1
            delay = self._hit_latency
            fn, arg = self._plain_load_done, addr
        elif kind is Store:
            addr = op.addr
            if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
                self._check_word_addr(addr)
            self._memory.write_word(addr, op.value, writer_tid=-1)
            self._cache_fill(addr // self._line_bytes, partial=True)
            if self._cur_state is not _RUN:
                self._cur_state = _RUN
                self._tl_set_state(self._engine.now, _RUN)
            delay = self._hit_latency
            fn, arg = self._program_step, None
        elif kind is BarrierOp:
            self._set_state(_RUN)
            self._m.barrier_arrive(op.name, self.proc_id, self._program_step)
            return
        else:
            raise WorkloadError(f"unknown program-level op: {op!r}")
        engine = self._engine
        seq = engine._seq
        engine._seq = seq + 1
        _push(engine._queue, (engine.now + delay, seq, fn, (arg,)))

    def _plain_load_done(self, addr: int) -> None:
        value = self._committed_word(addr, 0)
        if self._cur_state is not _RUN:
            self._cur_state = _RUN
            self._tl_set_state(self._engine.now, _RUN)
        self._program_step(value)

    def _tx_step(
        self, epoch: int, addr: int | None, value: Any, _push=heappush
    ) -> None:
        """Resume the live attempt's body and run its next op.

        ``addr`` names a completing load: its committed word is read
        now, at fire time.  Otherwise ``value`` resumes the body — a
        forwarded store value, or ``None``.
        """
        if epoch != self._epoch:
            return  # continuation of an aborted attempt
        tx = self._tx
        if addr is not None:
            value = self._committed_word(addr, 0)
            if tx.read_log is not None:
                tx.read_log.append((addr, value))
        try:
            op = self._tx_send(value)
        except StopIteration:
            self._begin_commit()
            return
        kind = type(op)
        if kind not in _INTENTS:
            kind = next((b for b in _INTENT_BASES if isinstance(op, b)), None)
        if kind is Load:
            addr = op.addr
            if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
                self._check_word_addr(addr)
            forwarded = tx.writes.get(addr)
            if forwarded is not None:
                # Reading our own buffered store: no read-set
                # registration, no conflict exposure.
                args = (epoch, None, forwarded)
            else:
                line = addr // self._line_bytes
                # Register at issue time: an invalidation arriving
                # between issue and data return must abort this attempt
                # (fill/flush race).
                tx.read_lines.add(line)
                # A partial (store-allocated) line cannot serve loads of
                # words the transaction did not write: the data was never
                # fetched and the processor is not registered as a
                # sharer (the fuzzer found the resulting stale-read
                # serializability hole).  A usable hit sets the SR bit.
                if not self._cache_touch_read(line):
                    self._c_cache_misses.value += 1
                    if self._cur_state is not _MISS:
                        self._cur_state = _MISS
                        self._tl_set_state(self._engine.now, _MISS)
                    self._send_fill(line, addr, True)
                    return
                self._c_cache_hits.value += 1
                args = (epoch, addr, None)
            delay = self._hit_latency
        elif kind is Compute:
            if self._cur_state is not _RUN:
                self._cur_state = _RUN
                self._tl_set_state(self._engine.now, _RUN)
            delay = op.cycles
            args = (epoch, None, None)
        elif kind is Store:
            addr = op.addr
            if addr < 0 or addr + 8 > self._mem_bytes or addr & 7:
                self._check_word_addr(addr)
            line = addr // self._line_bytes
            tx.buffer_store(addr, op.value, line)
            # Write-allocate into the store buffer: the line is installed
            # locally without any directory traffic (hence *partial* — it
            # holds only the written words); data merges at commit.
            self._cache_fill(line, partial=True, spec_written=True)
            delay = self._hit_latency
            args = (epoch, None, None)
        elif kind is TxOp or kind is BarrierOp:
            raise WorkloadError(
                f"{type(op).__name__} is not allowed inside a transaction "
                f"(site {tx.site!r}); TCC transactions are flat"
            )
        else:
            raise WorkloadError(f"unknown transactional op: {op!r}")
        engine = self._engine
        seq = engine._seq
        engine._seq = seq + 1
        _push(engine._queue, (engine.now + delay, seq, self._tx_step, args))

    # ------------------------------------------------------------------
    # L1 misses
    # ------------------------------------------------------------------
    def _send_fill(self, line: int, addr: int, in_tx: bool) -> None:
        """Issue a fill request for an L1 miss (one outstanding at most)."""
        self._fill_seq = req_id = self._fill_seq + 1
        self._awaiting_fill = (line, addr, self._epoch, in_tx, req_id)
        home = self._dirs[line % self._num_dirs]
        self._send_ctrl(
            home.receive_fill_request,
            self.proc_id, line, self._engine.now, req_id,
        )

    def receive_fill_reply(self, line: int, req_id: int, _push=heappush) -> None:
        """Bus-arrival handler for the data of an earlier L1 miss.

        The request-id match is load-bearing: a reply belonging to an
        aborted attempt must not satisfy a newer attempt's miss on the
        same line (its data may predate a commit whose invalidation the
        newer attempt — not yet registered as a sharer — never saw).
        """
        pending = self._awaiting_fill
        if (pending is None or pending[4] != req_id or pending[0] != line
                or pending[2] != self._epoch):
            self._c_stale_fills.value += 1
            return
        _line, addr, epoch, in_tx, _req_id = pending
        self._awaiting_fill = None
        tx = self._tx
        # The line arrives with its SR bit when the load is part of the
        # live read set (registered at issue, see _tx_step).
        self._cache_fill(
            line, spec_read=in_tx and tx is not None and line in tx.read_lines
        )
        engine = self._engine
        now = engine.now
        if self._cur_state is not _RUN:
            self._cur_state = _RUN
            self._tl_set_state(now, _RUN)
        # The consuming load still pays the load-to-use latency after
        # the fill returns (data forwarding into the pipeline).
        seq = engine._seq
        engine._seq = seq + 1
        if in_tx:
            event = (now + self._hit_latency, seq, self._tx_step, (epoch, addr, None))
        else:
            event = (now + self._hit_latency, seq, self._plain_load_done, (addr,))
        _push(engine._queue, event)

    # ------------------------------------------------------------------
    # transaction attempts
    # ------------------------------------------------------------------
    def _begin_tx(self, op: TxOp) -> None:
        self._txop = op
        self._tx_index += 1
        self._attempt = 0
        self._m.note_first_tx(self._engine.now)
        self._start_attempt()

    def _start_attempt(self) -> None:
        # Drop the handle first: once this callback runs (or is reached
        # directly), there is no pending restart left to cancel.
        self._restart_event = None
        if self.gated:
            # A Stop-Clock raced with a scheduled retry; the wake-up
            # will restart the attempt instead.
            return
        op = self._txop
        if op is None:  # pragma: no cover - defensive
            raise ProtocolError(f"proc {self.proc_id}: attempt with no TxOp")
        self._attempt += 1
        self._epoch += 1
        now = self._engine.now
        handle = TxHandle(
            self.proc_id, self._ctx.num_threads, op.site, self._attempt
        )
        tx = TxState(
            self.proc_id, op.site, self._tx_index, self._attempt, now, handle
        )
        if self._m.validation_mode:
            tx.read_log = []
        self._tx = tx
        gen = op.body(handle)
        try:
            self._tx_send = gen.send
        except AttributeError:
            raise WorkloadError(
                f"transaction body for site {op.site!r} must return a "
                f"generator (got {type(gen).__name__})"
            ) from None
        self._tx_gen = gen
        self._c_tx_attempts.value += 1
        if self._trace_on:
            self._trace.emit(
                now, "tx.begin", proc=self.proc_id, site=op.site,
                attempt=self._attempt,
            )
        if self._cur_state is not _RUN:
            self._cur_state = _RUN
            self._tl_set_state(now, _RUN)
        self._tx_step(self._epoch, None, None)

    # ------------------------------------------------------------------
    # commit protocol (processor side)
    # ------------------------------------------------------------------
    def _begin_commit(self) -> None:
        tx = self._tx
        tx.status = _COMMITTING
        if self._cur_state is not _COMMIT:
            self._cur_state = _COMMIT
            self._tl_set_state(self._engine.now, _COMMIT)
        self._c_tx_commit_attempts.value += 1
        if self._trace_on:
            self._trace.emit(
                self._engine.now, "tx.commit_request", proc=self.proc_id,
                site=tx.site,
            )
        self._m.request_tid(self, self._epoch)

    def accept_tid(self, epoch: int, tid: int) -> bool:
        """Token-vendor grant arrival; False rejects a stale grant."""
        tx = self._tx
        if epoch != self._epoch or tx is None or tx.status not in _LIVE:
            return False
        tx.tid = tid
        # The footprint cannot grow once the tx is COMMITTING, so it and
        # the involved-directory set are computed once here and reused
        # by the finalize (and abort-while-spinning) unmark pass.
        footprint = tx.read_lines | tx.write_lines
        self._commit_footprint = footprint
        num_dirs = self._num_dirs
        self._commit_dirs = homes = sorted({line % num_dirs for line in footprint})
        # Record commit intent: the "Marked" bit piggybacked on the
        # commit request (Fig. 2e).
        marked = self._marked
        proc_id = self.proc_id
        for dir_id in homes:
            marked[dir_id].add(proc_id)
        self._vendor.wait_for_turn(tid, self._commit_go, epoch, tid)
        return True

    def _commit_go(self, epoch: int, tid: int) -> None:
        """Completion-barrier release: all older TIDs have finished."""
        if epoch != self._epoch:
            return
        tx = self._tx
        if tx is None or tx.tid != tid:  # pragma: no cover - defensive
            raise ProtocolError(f"commit-go for unknown TID {tid}")
        # One flush per home directory of the write set, in directory
        # order.  The common single-line write set goes as one flush
        # of the whole store buffer; otherwise the written lines and the
        # store buffer are each sorted once and partitioned by home in
        # one pass.
        num_dirs = self._num_dirs
        if len(tx.write_lines) == 1:
            (line,) = tx.write_lines
            tx.flush_acks_pending = 1
            self._send_data(
                self._dirs[line % num_dirs].receive_flush_request,
                self.proc_id, tid, (line,), tuple(sorted(tx.writes.items())),
                self._engine.now, tx.site,
            )
            return
        groups: dict[int, list[int]] = {}
        for line in sorted(tx.write_lines):
            group = groups.get(line % num_dirs)
            if group is None:
                groups[line % num_dirs] = [line]
            else:
                group.append(line)
        if not groups:
            self._commit_finalize()
            return
        tx.flush_acks_pending = len(groups)
        line_bytes = self._line_bytes
        writes: dict[int, list[tuple[int, int]]] = {home: [] for home in groups}
        for pair in sorted(tx.writes.items()):
            writes[pair[0] // line_bytes % num_dirs].append(pair)
        now = self._engine.now
        for home, lines in sorted(groups.items()):
            self._send_data(
                self._dirs[home].receive_flush_request,
                self.proc_id, tid, tuple(lines), tuple(writes[home]), now, tx.site,
            )

    def receive_flush_done(self, tid: int) -> None:
        """Bus-arrival handler for one directory's flush acknowledgement."""
        tx = self._tx
        if tx is None or tx.status is not _COMMITTING or tx.tid != tid:
            raise ProtocolError(
                f"proc {self.proc_id}: FlushDone for TID {tid} but no "
                "matching in-flight commit (post-barrier flushes must not abort)"
            )
        tx.flush_acks_pending -= 1
        if tx.flush_acks_pending == 0:
            self._commit_finalize()

    def _commit_finalize(self) -> None:
        tx = self._tx
        now = self._engine.now
        tx.status = TxStatus.COMMITTED
        self.cache.clear_speculative(self._commit_footprint, commit=True)
        marked = self._marked
        proc_id = self.proc_id
        for dir_id in self._commit_dirs:
            marked[dir_id].discard(proc_id)
        self._commit_dirs = None
        self._commit_footprint = None
        self._m.notify_commit(self.proc_id)
        self._vendor.finish(tx.tid)
        self._m.note_tx_end(now)
        if self._m.validation_mode:
            self._m.record_committed_tx(tx)

        self._c_tx_commits.value += 1
        self._c_proc_commits.value += 1
        if self._trace_on:
            self._trace.emit(
                now, "tx.commit", proc=self.proc_id, site=tx.site, tid=tx.tid,
                attempt=tx.attempt,
            )

        result = tx.handle.result
        self._consecutive_aborts = 0
        self._tx = None
        self._tx_gen = None
        self._tx_send = None
        self._txop = None
        if self._cur_state is not _RUN:
            self._cur_state = _RUN
            self._tl_set_state(now, _RUN)
        self._program_step(result)

    # ------------------------------------------------------------------
    # abort and gating
    # ------------------------------------------------------------------
    def would_abort_on(self, lines) -> bool:
        """Directory-side probe: does ``lines`` conflict with the live tx?"""
        tx = self._tx
        return (
            tx is not None
            and tx.status in _LIVE
            and not tx.read_lines.isdisjoint(lines)
        )

    def receive_invalidation(
        self, committer: int, directory: int, lines: tuple[int, ...], gate: bool
    ) -> None:
        """Bus-arrival handler for ``lines`` just committed by ``committer``.

        ``gate`` is the Stop-Clock command riding with the invalidation.
        Only a committed line this attempt speculatively read aborts it
        (Section III); blind writes merge at word granularity.
        """
        self.cache.invalidate_lines(lines)
        if self.gated:
            # Already frozen; the directory-side table was updated, and
            # our rollback already happened at freeze time.
            if gate:
                self._gated_by.add(directory)
            return
        tx = self._tx
        conflict = (
            tx is not None
            and tx.status in _LIVE
            and not tx.read_lines.isdisjoint(lines)
        )
        if gate or conflict:
            self._abort_tx(
                conflict=conflict, gate=gate, from_dir=directory,
                aborter=committer,
            )

    def _abort_tx(
        self,
        conflict: bool,
        gate: bool,
        from_dir: int | None = None,
        aborter: int | None = None,
    ) -> None:
        now = self._engine.now
        tx = self._tx
        if tx is None or tx.status not in _LIVE:
            # Stop-Clock caught us between attempts (retry scheduled but
            # not started): freeze; the wake-up restarts the attempt.
            if gate:
                self._enter_gated(from_dir)
            return

        if tx.status is _COMMITTING:
            if tx.flush_acks_pending:
                raise ProtocolError(
                    f"proc {self.proc_id} aborted mid-flush (TID {tx.tid}); "
                    "the completion barrier should make this impossible"
                )
            if tx.tid is not None:
                marked = self._marked
                for dir_id in self._commit_dirs:
                    marked[dir_id].discard(self.proc_id)
                self._commit_dirs = None
                self._commit_footprint = None
                self._vendor.release(tx.tid)
                self._c_aborts_while_committing.value += 1

        # Counter semantics (see repro.sim.stats "counts versus sums"):
        # tx.aborts.{conflict,self} and tx.aborts.total are *event
        # counts* (one per abort); tx.wasted_cycles is the paired
        # *cycle sum* — the cycles this attempt had invested when it
        # died.  Rates divide counts by tx.attempts; never divide the
        # cycle sum by anything but its paired count.
        if conflict:
            kind = "conflict"
            self._c_aborts_conflict.value += 1
        else:
            kind = "self"
            self._c_aborts_self.value += 1
        self._c_aborts_total.value += 1
        self._c_proc_aborts.value += 1
        self._c_wasted_cycles.value += now - tx.start_time
        self._consecutive_aborts += 1
        self._epoch += 1
        self._awaiting_fill = None
        if self._tx_gen is not None:
            self._tx_gen.close()
        clear_speculative = self.cache.clear_speculative
        clear_speculative(tx.read_lines, commit=False)
        clear_speculative(tx.write_lines, commit=False)
        tx.status = TxStatus.ABORTED
        self._tx = None
        self._tx_gen = None
        self._tx_send = None
        if self._trace_on:
            self._trace.emit(
                now, "tx.abort", proc=self.proc_id, site=self._txop.site,
                cause=kind, aborter=aborter, directory=from_dir, gated=gate,
            )

        if gate:
            self._enter_gated(from_dir)
        else:
            delay = self._m.config.commit.abort_drain_cycles + max(
                0, self._cm.retry_delay(self.proc_id, self._consecutive_aborts)
            )
            if self._cur_state is not _RUN:
                self._cur_state = _RUN
                self._tl_set_state(now, _RUN)
            self._restart_event = self._engine.schedule(
                max(1, delay), self._start_attempt
            )

    def _enter_gated(self, from_dir: int | None) -> None:
        if self._txop is None:
            raise ProtocolError(
                f"proc {self.proc_id} gated with no transaction in progress"
            )
        if self._restart_event is not None:
            self._engine.cancel(self._restart_event)
            self._restart_event = None
        self.gated = True
        self._gated_by = {from_dir} if from_dir is not None else set()
        self._set_state(_GATED)
        self._c_gated.value += 1
        if self._trace_on:
            self._trace.emit(
                self._engine.now, "gate.off", proc=self.proc_id,
                directory=from_dir,
            )

    def receive_turn_on(self, directory: int) -> None:
        """Bus-arrival handler for ``directory``'s "on" command."""
        if not self.gated:
            self._c_redundant_on.value += 1
            return
        self.gated = False
        self._gated_by.clear()
        self._c_wakeups.value += 1
        if self._trace_on:
            self._trace.emit(
                self._engine.now, "gate.on", proc=self.proc_id,
                directory=directory,
            )
        self._set_state(_RUN)
        # The paper's "Self Abort" happened (timing-equivalently) at
        # freeze; waking simply restarts the transaction.
        self._start_attempt()

    # ------------------------------------------------------------------
    # gating-protocol queries
    # ------------------------------------------------------------------
    def attempt_age(self) -> int:
        """Cycles the live attempt has invested (its *momentum*).

        Zero when no transaction is live.  Sampled by the directory at
        abort time for momentum-aware contention management
        (Section VI's future work).
        """
        tx = self._tx
        if tx is not None and tx.status in _LIVE:
            return self._engine.now - tx.start_time
        return 0

    def current_tx_site(self) -> str | None:
        """TxInfoReq reply: the live transaction's site, or None.

        A gated processor replies null (the paper: "the reply to the
        TxInfoReq message will be null and therefore the comparator
        output will be zero, turning the victim processor on").
        """
        if self.gated:
            return None
        tx = self._tx
        if tx is not None and tx.status in _LIVE:
            return tx.site
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tx = f" tx={self._tx.site}#{self._tx.attempt}" if self._tx else ""
        flags = " GATED" if self.gated else (" done" if self.finished else "")
        return f"<Processor {self.proc_id}{tx}{flags}>"
