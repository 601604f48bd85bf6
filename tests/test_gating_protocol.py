"""Clock-gating protocol: Fig. 1 table semantics and the Section V FSM.

Scenario tests drive two/three-processor machines with deterministic
programs and assert on the gating trace; table-level tests exercise
:class:`~repro.gating.table.GatingEntry` directly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import GatingConfig, SystemConfig
from repro.gating.table import GatingEntry, GatingTable
from repro.htm.machine import Machine
from repro.htm.ops import Compute, Load, Store, TxOp
from repro.htm.program import ThreadProgram
from repro.power.states import ProcState
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder

A = 0x1000
HOT = 0x2000


class TestGatingEntry:
    def test_bump_abort_resets_renew(self):
        entry = GatingEntry(0)
        entry.renew_count = 5
        entry.bump_abort(saturation=255)
        assert entry.abort_count == 1
        assert entry.renew_count == 0  # "reset whenever Abort count incremented"

    def test_abort_counter_saturates(self):
        """8-bit counter saturates at 255 (Section III)."""
        entry = GatingEntry(0)
        for _ in range(300):
            entry.bump_abort(saturation=255)
        assert entry.abort_count == 255

    def test_reset_on_commit(self):
        entry = GatingEntry(0)
        entry.bump_abort(255)
        entry.renew_count = 3
        entry.reset_on_commit()
        assert entry.abort_count == 0
        assert entry.renew_count == 0

    def test_cancel_timer_bumps_epoch(self):
        engine = Engine()
        fired: list[int] = []
        entry = GatingEntry(0)
        entry.timer_event = engine.schedule(5, fired.append, 1)
        epoch = entry.epoch
        entry.cancel_timer(engine)
        assert entry.epoch == epoch + 1
        assert entry.timer_event is None
        engine.run()
        assert fired == []

    def test_table_off_procs(self):
        table = GatingTable(4)
        table.entry(2).off = True
        assert table.off_procs() == [2]


def run_programs(program_fns, num_procs=None, w0=8, seed=0, trace=None, **cfg_kw):
    num_procs = num_procs or len(program_fns)
    config = SystemConfig(
        num_procs=num_procs,
        seed=seed,
        gating=GatingConfig(enabled=True, w0=w0),
        **cfg_kw,
    )
    programs = [ThreadProgram(fn, f"t{i}") for i, fn in enumerate(program_fns)]
    machine = Machine(config, programs, trace=trace)
    return machine, machine.run()


def contended_counter(n, site="inc", work=5):
    def program(ctx):
        def body(tx):
            value = yield Load(HOT)
            yield Compute(work)
            yield Store(HOT, value + 1)

        for _ in range(n):
            yield TxOp(body, site=site)

    return program


class TestGatingScenarios:
    def test_abort_gates_victim_and_wakes_it(self):
        trace = TraceRecorder(kinds=("gate", "tx"))
        _, result = run_programs(
            [contended_counter(10), contended_counter(10)], trace=trace
        )
        c = result.counters()
        assert c["gating.gated"] > 0
        assert c["gating.wakeups"] == c["gating.gated"]
        # every gate.off has a later gate.on for the same proc
        offs = trace.events("gate.off")
        ons = trace.events("gate.on")
        assert len(ons) >= len(offs) > 0

    def test_gated_time_appears_in_timeline(self):
        machine, result = run_programs(
            [contended_counter(10), contended_counter(10)]
        )
        gated_cycles = sum(
            tl.durations().get(ProcState.GATED, 0) for tl in result.timelines
        )
        assert gated_cycles > 0

    def test_no_gating_without_conflicts(self):
        def make(addr):
            def program(ctx):
                def body(tx):
                    value = yield Load(addr)
                    yield Store(addr, value + 1)

                for _ in range(5):
                    yield TxOp(body, site="private")

            return program

        _, result = run_programs([make(A), make(A + 0x1000)])
        assert result.counters().get("gating.gated", 0) == 0

    def test_gating_disabled_never_gates(self):
        config_kw = {}
        config = SystemConfig(
            num_procs=2, seed=0, gating=GatingConfig(enabled=False)
        )
        programs = [
            ThreadProgram(contended_counter(10), "a"),
            ThreadProgram(contended_counter(10), "b"),
        ]
        result = Machine(config, programs).run()
        c = result.counters()
        assert c.get("gating.gated", 0) == 0
        assert c["tx.aborts.conflict"] > 0  # conflicts happen, no gating

    def test_renewals_occur_under_repeated_same_site_commits(self):
        """Short same-site transactions in a loop: the aborter is back
        at the directory when the victim's timer expires -> renew."""
        trace = TraceRecorder(kinds=("gate",))
        _, result = run_programs(
            [contended_counter(40), contended_counter(40), contended_counter(40)],
            trace=trace,
            w0=8,
        )
        assert result.counters().get("gating.renewals", 0) > 0
        renew = trace.events("gate.renew")[0]
        assert renew.renew_count >= 1

    def test_gating_reduces_aborts_under_contention(self):
        base_cfg = SystemConfig(num_procs=4, seed=3)
        programs = lambda: [  # noqa: E731
            ThreadProgram(contended_counter(25), f"t{i}") for i in range(4)
        ]
        ungated = Machine(base_cfg.with_gating(False), programs()).run()
        gated = Machine(base_cfg.with_gating(True), programs()).run()
        assert gated.counters()["tx.aborts.conflict"] < (
            ungated.counters()["tx.aborts.conflict"]
        )

    def test_commit_resets_abort_counters(self):
        machine, _ = run_programs([contended_counter(10), contended_counter(10)])
        # after the run everyone committed last; counters must be reset
        for unit in machine.gating_units:
            for entry in unit.table:
                assert entry.abort_count == 0
                assert entry.renew_count == 0

    def test_all_entries_on_at_end(self):
        machine, _ = run_programs([contended_counter(10), contended_counter(10)])
        for unit in machine.gating_units:
            assert unit.table.off_procs() == []
        for proc in machine.procs:
            assert not proc.gated

    def test_or_circuit_extends_window(self):
        """The Fig. 2e circuit delay postpones the ungate check."""
        trace_fast = TraceRecorder(kinds=("gate",))
        trace_slow = TraceRecorder(kinds=("gate",))
        for or_cycles, trace in ((0, trace_fast), (30, trace_slow)):
            config = SystemConfig(
                num_procs=2,
                seed=0,
                gating=GatingConfig(enabled=True, w0=8, or_circuit_cycles=or_cycles),
            )
            programs = [
                ThreadProgram(contended_counter(10), "a"),
                ThreadProgram(contended_counter(10), "b"),
            ]
            Machine(config, programs, trace=trace).run()

        def first_window(trace):
            offs = {e.proc: e.time for e in trace.events("gate.off")}
            for on in trace.events("gate.turn_on"):
                if on.victim in offs:
                    return on.time - offs[on.victim]
            return None

        w_fast = first_window(trace_fast)
        w_slow = first_window(trace_slow)
        assert w_fast is not None and w_slow is not None
        assert w_slow > w_fast

    def test_deadlock_freedom_every_gate_has_wakeup(self):
        """Invariant 4: all gated processors eventually wake and the
        run completes (the run() returning at all is the main check)."""
        for seed in range(5):
            _, result = run_programs(
                [contended_counter(15), contended_counter(15),
                 contended_counter(15), contended_counter(15)],
                seed=seed,
            )
            c = result.counters()
            assert c["gating.wakeups"] == c["gating.gated"]

    def test_gated_processors_issue_no_requests(self):
        """A gated processor must not load/store (paper, Section V)."""
        trace = TraceRecorder(kinds=("gate",))
        machine, result = run_programs(
            [contended_counter(20), contended_counter(20)], trace=trace
        )
        # Reconstruct gated intervals per proc from the trace and check
        # the timeline never shows MISS/COMMIT inside them.
        events = sorted(
            trace.events("gate.off") + trace.events("gate.on"),
            key=lambda e: e.time,
        )
        gated_since: dict[int, int] = {}
        for event in events:
            if event.kind == "gate.off":
                gated_since[event.proc] = event.time
            else:
                start = gated_since.pop(event.proc, None)
                if start is None or event.time <= start:
                    continue
                timeline = result.timelines[event.proc]
                for seg in timeline.clipped_segments(start, event.time):
                    assert seg.state is ProcState.GATED


class TestCommittedVictimRenewal:
    """Regression: a timer chain outliving the victim's commit must end
    in a Turn-On, not a renewal.

    Stale-OFF recovery can let a victim resume — and commit, resetting
    its abort counter — while its gating timer chain is still in
    flight.  If the renewal check then found the aborter on the same
    transaction, `_renew` queried Eq. 8 with N_a = 0 and the run died
    with "gating window queried with no abort recorded" (first seen on
    the paper figure grid: yada, 16 procs, seed 0, W0 = 16).
    """

    def test_renew_after_commit_turns_on(self):
        from repro.exec.jobs import execute_job
        from repro.scenarios.spec import scenario

        spec = scenario("yada", scale="small", threads=16, seed=0,
                        gating=True, w0=16)
        result = execute_job(spec.to_job())
        assert result.commits > 0
        assert result.parallel_time > 0
