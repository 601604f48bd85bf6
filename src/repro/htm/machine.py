"""The machine: wiring, global services and the run loop.

``Machine`` assembles one simulated system from a
:class:`~repro.config.SystemConfig` and a list of thread programs: the
event engine, bus, main memory, directories (with optional gating
units), token vendor, contention manager, per-processor caches and
power-state timelines.

It also provides the few *global* services the models need:

* token-vendor access with bus timing (:meth:`request_tid`),
* ``TxInfoReq`` round-trips for the gating units (:meth:`query_tx_site`),
* program-level barriers,
* the parallel-section window (first transaction begin to last commit
  completion — the measurement interval of Section IV), and
* commit bookkeeping fan-out (gating-counter resets; the paper resets a
  processor's abort counters when it commits).

``run()`` drives the event loop until every thread program finishes,
then finalizes the timelines and returns a :class:`MachineResult`.

Warm-up
-------
A workload may declare a :class:`~repro.htm.program.WarmSweep`: every
processor loads the shared arena and waits at the warm barrier before
its program starts.  The machine state at that barrier depends only on
the system configuration less ``seed``, ``gating`` and ``max_cycles``,
and on the swept addresses (the contract is spelled out on
:class:`~repro.workloads.base.WorkloadInstance`).  So the first run of
each such key in a process simulates the sweep and records the state
when the last processor arrives, when the event queue is empty; later
runs install the recorded state and release the barrier in the
recorded arrival order, with the same engine clock, sequence number
and executed-event count.  :data:`WARM_STATES` holds the records.
Traced runs always simulate the sweep, so their traces stay complete.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from ..cm.base import ContentionManager
from ..cm.registry import create_cm
from ..config import GatingConfig, SystemConfig
from ..errors import ConfigError, DeadlockError, SimulationError
from ..gating.protocol import GatingUnit
from ..gating.table import GatingEntry
from ..mem.address import AddressMap
from ..mem.bus import Bus
from ..mem.cache import L1Cache
from ..mem.directory import Directory
from ..mem.memory import MainMemory
from ..power.states import ProcState
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..sim.timeline import StateTimeline
from ..sim.trace import NullTrace
from .processor import Processor
from .program import ThreadContext, ThreadProgram, WarmSweep
from .token import TokenVendor
from .transaction import TxState

__all__ = ["Machine", "MachineResult", "CommittedTx", "WARM_STATES"]

#: Warm states of this process, least recently used first: (config
#: with seed, gating and max_cycles reset, swept addresses) -> the
#: pickled machine state at the warm barrier.
WARM_STATES: dict[tuple[SystemConfig, range], bytes] = {}
#: entry bound of :data:`WARM_STATES`; a paper grid needs nine keys
#: per scale
WARM_STATES_MAX = 32

_DEFAULT_GATING = GatingConfig()


class _AllThreadsFinished(Exception):
    """Control-flow sentinel: the last thread program completed.

    Raised by :meth:`Machine.proc_finished` (only while
    :meth:`Machine.run` is driving the engine) so the event loop can be
    the engine's inlined drain loop instead of one ``step()`` call —
    and one completion comparison — per event.
    """


@dataclass(frozen=True)
class CommittedTx:
    """Snapshot of one committed transaction (validation mode only)."""

    tid: int
    proc: int
    site: str
    commit_time: int
    reads: tuple[tuple[int, int], ...]
    writes: tuple[tuple[int, int], ...]


@dataclass
class MachineResult:
    """Raw outcome of one simulation run."""

    config: SystemConfig
    end_cycle: int
    parallel_start: int
    parallel_end: int
    timelines: list[StateTimeline]
    stats: StatsRegistry
    commit_log: list[CommittedTx] = field(default_factory=list)
    memory_snapshot: dict[int, int] = field(default_factory=dict)

    @property
    def parallel_time(self) -> int:
        """The paper's N: last transaction end minus first transaction start."""
        return self.parallel_end - self.parallel_start

    def counters(self) -> dict[str, int]:
        return self.stats.counters()


class _BarrierState:
    __slots__ = ("waiters",)

    def __init__(self) -> None:
        self.waiters: list[tuple[int, Callable[[Any], None]]] = []


class Machine:
    """One fully-wired simulated system."""

    def __init__(
        self,
        config: SystemConfig,
        programs: Sequence[ThreadProgram],
        initial_memory: dict[int, int] | None = None,
        trace: NullTrace | None = None,
        validation_mode: bool = False,
        warm: WarmSweep | None = None,
    ):
        if len(programs) != config.num_procs:
            raise ConfigError(
                f"{config.num_procs} processors but {len(programs)} thread "
                "programs; they must match one-to-one"
            )
        self.config = config
        self.validation_mode = validation_mode
        self.engine = Engine()
        self.stats = StatsRegistry()
        self.trace = trace if trace is not None else NullTrace()
        # A disabled trace must cost nothing on machine-level paths
        # (barriers, thread completion) — same guard the processors use.
        self._trace_on = self.trace.enabled
        self.addr_map = AddressMap(
            line_bytes=config.cache.line_bytes,
            num_dirs=config.effective_num_dirs,
            memory_bytes=config.memory.size_bytes,
        )
        self.memory = MainMemory(
            self.engine, config.memory, self.stats, record_versions=validation_mode
        )
        if initial_memory:
            self.memory.load_image(initial_memory)
        self.bus = Bus(self.engine, config.bus, self.stats)
        self.vendor = TokenVendor(self.engine, self.stats)
        self.cm: ContentionManager = create_cm(config.gating, config.seed)

        self._timelines = [
            StateTimeline(ProcState.RUN) for _ in range(config.num_procs)
        ]

        self.dirs: list[Directory] = [
            Directory(
                d,
                self.engine,
                self.bus,
                self.memory,
                config.directory,
                self.addr_map,
                self.stats,
                self.trace,
            )
            for d in range(config.effective_num_dirs)
        ]
        self.gating_units: list[GatingUnit] = []
        for directory in self.dirs:
            unit = None
            if config.gating.enabled:
                unit = GatingUnit(
                    directory, self, self.cm, config, self.stats, self.trace
                )
                self.gating_units.append(unit)
            directory.attach(self, unit)
        # proc id -> that processor's entry in every gating table, for
        # the commit fan-out.
        self._gating_entries: list[list[GatingEntry]] = [
            [unit.table.entry(p) for unit in self.gating_units]
            for p in range(config.num_procs)
        ]

        self.procs: list[Processor] = [
            Processor(p, self) for p in range(config.num_procs)
        ]

        self._c_stale_grants = self.stats.counter("vendor.stale_grants")
        self._c_txinfo_requests = self.stats.counter("gating.txinfo_requests")
        self._vendor_latency = config.commit.token_vendor_latency

        self._programs = list(programs)
        self._warm = warm
        self._barriers: dict[str, _BarrierState] = {}
        #: a barrier whose release run() issues itself (the warm one)
        self._held_barrier: str | None = None
        self._finished = 0
        self._raise_on_complete = False
        self.parallel_start: int | None = None
        self.parallel_end: int | None = None
        self.commit_log: list[CommittedTx] = []

    # ------------------------------------------------------------------
    # rebuild in place (the replicate-pack warm path)
    # ------------------------------------------------------------------
    def reset(
        self,
        config: SystemConfig,
        programs: Sequence[ThreadProgram],
        initial_memory: dict[int, int] | None = None,
        validation_mode: bool = False,
        warm: WarmSweep | None = None,
    ) -> None:
        """Close this machine and rebuild it for a new run of the same
        topology.

        ``config`` must equal the construction config up to ``seed``
        (enforced here); the trace bound at construction stays.  The
        machine is rebuilt by ``__init__``, so a reset machine is a
        fresh one; a previous run's ``MachineResult`` keeps its own
        counters and timelines.
        """
        if replace(config, seed=0) != replace(self.config, seed=0):
            raise ConfigError(
                "Machine.reset() requires a config identical to the "
                "construction config up to `seed`; rebuild for a new topology"
            )
        self.close()
        self.__init__(  # type: ignore[misc]
            config,
            programs,
            initial_memory=initial_memory,
            trace=self.trace,
            validation_mode=validation_mode,
            warm=warm,
        )

    # ------------------------------------------------------------------
    # component access
    # ------------------------------------------------------------------
    def timeline(self, proc_id: int) -> StateTimeline:
        return self._timelines[proc_id]

    def build_cache(self, proc_id: int) -> L1Cache:
        return L1Cache(self.config.cache, proc_id, self.stats)

    # ------------------------------------------------------------------
    # global services
    # ------------------------------------------------------------------
    def request_tid(self, proc: Processor, epoch: int) -> None:
        """Token request: bus to the vendor, vendor latency, bus back.

        The three hops are plain methods taking ``(proc, epoch)`` as
        event args rather than nested closures: every commit walks this
        chain, and closure/cell construction was measurable there.  The
        send/schedule sequence (and hence event ordering) is unchanged.
        """
        self.bus.send_ctrl(self._tid_at_vendor, proc, epoch)

    def _tid_at_vendor(self, proc: Processor, epoch: int) -> None:
        self.engine.schedule(self._vendor_latency, self._tid_grant, proc, epoch)

    def _tid_grant(self, proc: Processor, epoch: int) -> None:
        tid = self.vendor.issue(proc.proc_id)
        self.bus.send_ctrl(self._tid_deliver, proc, epoch, tid)

    def _tid_deliver(self, proc: Processor, epoch: int, tid: int) -> None:
        if not proc.accept_tid(epoch, tid):
            # Processor aborted while the grant was in flight.
            self.vendor.release(tid)
            self._c_stale_grants.value += 1

    def query_tx_site(self, target: int, cont: Callable[[str | None], None]) -> None:
        """TxInfoReq/Reply round-trip over the bus.

        The target's transaction identity is sampled at request-arrival
        time (what the hardware's reply would carry) and handed to
        ``cont`` after the return bus hop.
        """

        def at_target() -> None:
            site = self.procs[target].current_tx_site()
            self.bus.send_ctrl(cont, site)

        self.bus.send_ctrl(at_target)
        self._c_txinfo_requests.value += 1

    # -- barriers --------------------------------------------------------
    def barrier_arrive(
        self, name: str, proc_id: int, cont: Callable[[Any], None]
    ) -> None:
        state = self._barriers.setdefault(name, _BarrierState())
        state.waiters.append((proc_id, cont))
        if self._trace_on:
            self.trace.emit(
                self.engine.now, "barrier.arrive", name=name, proc=proc_id
            )
        if (len(state.waiters) == self.config.num_procs
                and name != self._held_barrier):
            self._release(name)

    def _release(self, name: str) -> None:
        state = self._barriers[name]
        waiters = state.waiters
        state.waiters = []
        for _, waiter_cont in waiters:
            self.engine.schedule(1, waiter_cont, None)
        if self._trace_on:
            self.trace.emit(self.engine.now, "barrier.release", name=name)

    # -- parallel-section window ------------------------------------------
    def note_first_tx(self, time: int) -> None:
        if self.parallel_start is None:
            self.parallel_start = time

    def note_tx_end(self, time: int) -> None:
        if self.parallel_end is None or time > self.parallel_end:
            self.parallel_end = time

    # -- commit fan-out ----------------------------------------------------
    def notify_commit(self, proc_id: int) -> None:
        """Reset the committer's abort counters in every directory.

        Only entries with an abort recorded need it: a renew count is
        nonzero only while the abort count is.
        """
        for entry in self._gating_entries[proc_id]:
            if entry.abort_count:
                entry.reset_on_commit()

    def record_committed_tx(self, tx: TxState) -> None:
        self.commit_log.append(
            CommittedTx(
                tid=tx.tid,
                proc=tx.proc_id,
                site=tx.site,
                commit_time=self.engine.now,
                reads=tuple(tx.read_log or ()),
                writes=tuple(sorted(tx.writes.items())),
            )
        )

    def proc_finished(self, proc_id: int) -> None:
        self._finished += 1
        if self._trace_on:
            self.trace.emit(self.engine.now, "proc.finished", proc=proc_id)
        if self._raise_on_complete and self._finished >= self.config.num_procs:
            raise _AllThreadsFinished

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self) -> MachineResult:
        """Execute until every thread program completes."""
        num = self.config.num_procs
        contexts = [
            ThreadContext(proc_id=proc_id, num_threads=num)
            for proc_id in range(num)
        ]
        max_cycles = self.config.max_cycles
        engine = self.engine
        if self._warm is None:
            for proc, program, ctx in zip(self.procs, self._programs, contexts):
                proc.start(program, ctx)
        else:
            self._warm_up(self._warm, contexts, max_cycles)

        # The dispatch loop is the whole-simulation hot loop.  In the
        # common (unbounded) case the engine's inlined drain loop runs
        # and the last-finishing program stops it via the
        # _AllThreadsFinished sentinel — no per-event method call or
        # completion comparison.  With a cycle budget, fall back to one
        # step() per event so the budget is enforced between events.
        # The sentinel is armed only for the unbounded loop: the step
        # loop must keep the historical ordering where a max_cycles
        # overrun raises even if the offending event finished the last
        # thread.
        self._raise_on_complete = max_cycles is None
        try:
            if max_cycles is None:
                engine.run()
                if self._finished < num:
                    raise DeadlockError(self._deadlock_report())
            else:
                step = engine.step
                while self._finished < num:
                    if not step():
                        raise DeadlockError(self._deadlock_report())
                    if engine.now > max_cycles:
                        raise self._overrun(max_cycles)
        except _AllThreadsFinished:
            pass
        finally:
            self._raise_on_complete = False

        end = engine.now
        for timeline in self._timelines:
            timeline.finalize(end)

        if self.parallel_start is None:
            # No transactions at all: degenerate window.
            self.parallel_start = 0
            self.parallel_end = end
        elif self.parallel_end is None:
            raise SimulationError("transactions began but none committed")

        return MachineResult(
            config=self.config,
            end_cycle=end,
            parallel_start=self.parallel_start,
            parallel_end=self.parallel_end,
            timelines=self._timelines,
            stats=self.stats,
            commit_log=self.commit_log,
            memory_snapshot=self.memory.snapshot(),
        )

    def _overrun(self, max_cycles: int) -> SimulationError:
        return SimulationError(
            f"exceeded max_cycles={max_cycles} with "
            f"{self.config.num_procs - self._finished} threads unfinished"
        )

    # ------------------------------------------------------------------
    # warm-up (see the module docstring)
    # ------------------------------------------------------------------
    def _warm_up(
        self,
        warm: WarmSweep,
        contexts: list[ThreadContext],
        max_cycles: int | None,
    ) -> None:
        """Bring every processor to the warm barrier, then release it.

        The sweep is simulated when no state is recorded for this
        machine's key (or the run is traced), and its state recorded;
        otherwise the recorded state is installed.
        """
        key = blob = None
        if not self._trace_on:
            key = (
                replace(self.config, seed=0, gating=_DEFAULT_GATING, max_cycles=None),
                warm.addrs,
            )
            # popped and put back below: the most recently used is last
            blob = WARM_STATES.pop(key, None)
        engine = self.engine
        if blob is None:
            for proc, program, ctx in zip(self.procs, self._programs, contexts):
                proc.start(program, ctx, warm)
            self._held_barrier = warm.barrier
            if max_cycles is None:
                engine.run()
            else:
                while engine.step():
                    if engine.now > max_cycles:
                        raise self._overrun(max_cycles)
            self._held_barrier = None
            if key is not None:
                blob = self._capture_warm(warm.barrier)
        else:
            for proc, program, ctx in zip(self.procs, self._programs, contexts):
                proc.bind(program, ctx)
            self._restore_warm(blob, warm.barrier)
            if max_cycles is not None and engine.now > max_cycles:
                raise self._overrun(max_cycles)
        if key is not None:
            WARM_STATES[key] = blob
            if len(WARM_STATES) > WARM_STATES_MAX:
                del WARM_STATES[next(iter(WARM_STATES))]
        self._release(warm.barrier)

    def _capture_warm(self, barrier: str) -> bytes:
        """The state every processor left at the warm barrier, pickled.

        Checks what the memo key relies on: nothing is in flight and no
        abort reached a gating table.  Memory is not recorded: the sweep
        only loads.
        """
        engine = self.engine
        if engine._queue or engine._cancelled:
            raise SimulationError("events in flight at the warm barrier")
        for unit in self.gating_units:
            for entry in unit.table:
                if entry != GatingEntry(entry.proc):
                    raise SimulationError(
                        "a gating table changed before the warm barrier"
                    )
        state = (
            engine.now,
            engine._seq,
            engine.events_executed,
            self.bus._busy_until,
            self.memory._port_busy_until,
            [(d._busy_until, list(d._sharers.items())) for d in self.dirs],
            [
                (
                    proc._fill_seq,
                    proc.cache._use_clock,
                    proc.cache.clean_lines(),
                    proc.timeline._times,
                    proc.timeline._states,
                )
                for proc in self.procs
            ],
            [proc_id for proc_id, _ in self._barriers[barrier].waiters],
            list(self.stats.counters().items()),
        )
        return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)

    def _restore_warm(self, blob: bytes, barrier: str) -> None:
        """Install a :meth:`_capture_warm` record on this fresh machine
        and line the processors up at the barrier in recorded order."""
        (now, seq, executed, bus_busy, port_busy, dirs, procs, arrivals,
         counters) = pickle.loads(blob)
        engine = self.engine
        engine.now = now
        engine._seq = seq
        engine.events_executed = executed
        self.bus._busy_until = bus_busy
        self.memory._port_busy_until = port_busy
        for directory, (busy, sharers) in zip(self.dirs, dirs):
            directory._busy_until = busy
            directory._sharers.update(sharers)
        for proc, (fill_seq, use_clock, lines, times, states) in zip(
            self.procs, procs
        ):
            proc._fill_seq = fill_seq
            proc._cur_state = states[-1]
            proc.cache.install_clean(lines, use_clock)
            proc.timeline._times = times
            proc.timeline._states = states
        for name, value in counters:
            self.stats.counter(name).value = value
        waiters = self._barriers.setdefault(barrier, _BarrierState()).waiters
        for proc_id in arrivals:
            waiters.append((proc_id, self.procs[proc_id]._program_step))

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Break this machine's reference cycles; it cannot run again
        until :meth:`reset` rebuilds it.

        Processors, directories and gating units point back at the
        machine and at each other, and queued events and gating timers
        point at their handlers, so a finished machine would otherwise
        wait for a full collection.  The queue and those components'
        attributes are dropped; the machine's own fields (engine,
        memory, stats, timelines) stay readable.
        """
        self.engine._queue.clear()
        self.engine._cancelled.clear()
        for entries in self._gating_entries:
            for entry in entries:
                entry.timer_event = None
        for component in (*self.procs, *self.dirs, *self.gating_units):
            component.__dict__.clear()

    def _deadlock_report(self) -> str:
        lines = [
            "event queue drained with unfinished threads "
            f"({self._finished}/{self.config.num_procs} done at "
            f"t={self.engine.now}):"
        ]
        for proc in self.procs:
            lines.append(f"  {proc!r}")
        for name, state in self._barriers.items():
            if state.waiters:
                lines.append(
                    f"  barrier {name!r} waiting: "
                    f"{sorted(p for p, _ in state.waiters)}"
                )
        return "\n".join(lines)
