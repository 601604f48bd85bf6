"""Directory-level protocol behaviour and commit-ordering invariants."""

from __future__ import annotations

import pytest

from repro.config import GatingConfig, SystemConfig
from repro.errors import ProtocolError
from repro.htm.machine import Machine
from repro.htm.ops import Compute, Load, Store, TxOp
from repro.htm.program import ThreadProgram
from repro.sim.trace import TraceRecorder

HOT = 0x2000


def idle_program(ctx):
    return
    yield  # pragma: no cover - generator marker


def run_programs(program_fns, gating=False, seed=0, trace=None, num_dirs=None):
    config = SystemConfig(
        num_procs=len(program_fns),
        num_dirs=num_dirs,
        seed=seed,
        gating=GatingConfig(enabled=gating),
    )
    programs = [ThreadProgram(fn, f"t{i}") for i, fn in enumerate(program_fns)]
    machine = Machine(config, programs, trace=trace)
    return machine, machine.run()


def line_and_home(machine, addr):
    """The line holding ``addr`` and its home directory, computed the
    way the processor and directories do (line-interleaved homes)."""
    line = addr // machine.addr_map.line_bytes
    return line, machine.dirs[line % machine.addr_map.num_dirs]


class TestSharerTracking:
    def test_fill_registers_sharer(self):
        def program(ctx):
            yield Load(HOT)

        machine, _ = run_programs([program])
        line, home = line_and_home(machine, HOT)
        assert 0 in home.sharers_of(line)

    def test_commit_rehomes_ownership(self):
        def program(ctx):
            def body(tx):
                yield Store(HOT, 5)

            yield TxOp(body, site="w")

        machine, _ = run_programs([program])
        line, home = line_and_home(machine, HOT)
        assert home.sharers_of(line) == frozenset({0})

    def test_invalidation_drops_other_sharers(self):
        def reader(ctx):
            yield Load(HOT)
            yield Compute(3000)  # outlive the writer's commit

        def writer(ctx):
            yield Compute(400)

            def body(tx):
                yield Store(HOT, 1)

            yield TxOp(body, site="w")

        machine, _ = run_programs([reader, writer])
        line, home = line_and_home(machine, HOT)
        assert home.sharers_of(line) == frozenset({1})
        assert not machine.procs[0].cache.contains(line)

    def test_wrong_home_rejected(self):
        machine, _ = run_programs([idle_program])
        # single proc -> single dir; fabricate a bad-home request on a
        # multi-dir machine instead:
        config = SystemConfig(num_procs=2, seed=0, gating=GatingConfig(enabled=False))
        programs = [ThreadProgram(idle_program, "a") for _ in range(2)]
        m2 = Machine(config, programs)
        wrong = m2.dirs[0]

        with pytest.raises(ProtocolError, match="homed"):
            # proc 0, line 1 (homed at dir 1), sent_at 0, req_id 0
            wrong.receive_fill_request(0, 1, 0, 0)


class TestCommitOrdering:
    def test_flush_tids_monotone_per_directory(self):
        """Invariant 9: directory watermarks only move forward; the
        directory itself raises if a flush arrives out of order."""
        trace = TraceRecorder(kinds=("tx",))

        def make():
            def program(ctx):
                def body(tx):
                    value = yield Load(HOT)
                    yield Store(HOT, value + 1)

                for _ in range(8):
                    yield TxOp(body, site="inc")

            return program

        machine, _ = run_programs([make(), make(), make()], trace=trace)
        for directory in machine.dirs:
            assert directory.last_committed_tid >= -1  # reached without raising

    def test_commit_times_follow_tid_order(self):
        """Completion barrier: commits complete in TID order."""
        def make():
            def program(ctx):
                def body(tx):
                    value = yield Load(HOT)
                    yield Store(HOT, value + 1)

                for _ in range(6):
                    yield TxOp(body, site="inc")

            return program

        config = SystemConfig(num_procs=3, seed=1, gating=GatingConfig(enabled=False))
        programs = [ThreadProgram(make(), f"t{i}") for i in range(3)]
        machine = Machine(config, programs, validation_mode=True)
        result = machine.run()
        log = sorted(result.commit_log, key=lambda t: t.tid)
        times = [tx.commit_time for tx in log]
        assert times == sorted(times)

    def test_stale_flush_rejected_by_watermark(self):
        config = SystemConfig(num_procs=1, seed=0, gating=GatingConfig(enabled=False))
        machine = Machine(config, [ThreadProgram(idle_program, "t0")])
        machine.run()
        directory = machine.dirs[0]
        directory.last_committed_tid = 10
        with pytest.raises(ProtocolError, match="watermark"):
            # proc 0, tid 5, lines (0,), no writes, sent_at 0, no site
            directory.receive_flush_request(0, 5, (0,), (), 0, None)

    def test_marked_set_empty_after_run(self):
        def make():
            def program(ctx):
                def body(tx):
                    value = yield Load(HOT)
                    yield Store(HOT, value + 1)

                for _ in range(5):
                    yield TxOp(body, site="inc")

            return program

        machine, _ = run_programs([make(), make()])
        for directory in machine.dirs:
            assert directory.marked == set()


class TestMultiDirectoryCommit:
    def test_write_set_spanning_directories(self):
        """A transaction writing lines homed at different directories
        flushes to all of them atomically."""
        addrs = [0x2000, 0x2040, 0x2080, 0x20C0]  # four consecutive lines

        def program(ctx):
            def body(tx):
                for i, addr in enumerate(addrs):
                    yield Store(addr, i + 1)

            yield TxOp(body, site="multi")

        machine, result = run_programs([program, idle_program], num_dirs=4)
        for i, addr in enumerate(addrs):
            assert machine.memory.read_word(addr) == i + 1
        # homes really differ
        homes = {line_and_home(machine, a)[1].dir_id for a in addrs}
        assert len(homes) == 4

    def test_futile_spin_abort_while_committing(self):
        """The paper's motivating scenario: a processor spinning at its
        commit instruction is aborted by an older committer."""
        trace = TraceRecorder(kinds=("tx",))

        def make(delay):
            def program(ctx):
                def body(tx):
                    value = yield Load(HOT)
                    yield Compute(60)
                    yield Store(HOT, value + 1)

                yield Compute(delay)
                for _ in range(6):
                    yield TxOp(body, site="inc")

            return program

        machine, result = run_programs(
            [make(0), make(3), make(6), make(9)], trace=trace
        )
        assert result.counters().get("tx.aborts_while_committing", 0) > 0
        assert machine.memory.read_word(HOT) == 24  # still atomic
