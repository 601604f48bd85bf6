"""Processor execution semantics: timing, transactions, conflicts.

These tests build tiny deterministic programs directly on the
:class:`~repro.htm.machine.Machine` (no workload layer) and assert on
functional outcomes, statistics, and protocol-visible behaviour.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import GatingConfig, SystemConfig
from repro.errors import DeadlockError, SimulationError, WorkloadError
from repro.htm.machine import Machine
from repro.htm.ops import BarrierOp, Compute, Load, Store, TxOp
from repro.htm.program import ThreadProgram
from repro.power.states import ProcState

A = 0x1000  # line 64, homed at dir 0 with 4 dirs... (64 % 4 == 0)
B = 0x1040  # next line
C = 0x2000


def run_machine(config, program_fns, **kwargs):
    programs = [ThreadProgram(fn, f"t{i}") for i, fn in enumerate(program_fns)]
    machine = Machine(config, programs, **kwargs)
    result = machine.run()
    return machine, result


def single(config, fn, **kwargs):
    return run_machine(config, [fn], **kwargs)


def cfg1(**kw):
    return SystemConfig(num_procs=1, seed=0, gating=GatingConfig(enabled=False), **kw)


class TestPlainExecution:
    def test_compute_advances_time(self):
        def program(ctx):
            yield Compute(100)

        _, result = single(cfg1(), program)
        assert result.end_cycle == 100

    def test_plain_store_then_load(self):
        def program(ctx):
            yield Store(A, 77)
            value = yield Load(A)
            assert value == 77

        machine, _ = single(cfg1(), program)
        assert machine.memory.read_word(A) == 77

    def test_load_miss_cost_exceeds_hit_cost(self):
        def program(ctx):
            yield Load(A)          # cold miss
            yield Load(A)          # hit

        machine, result = single(cfg1(), program)
        c = result.counters()
        assert c["proc0.cache.misses"] == 1
        assert c["proc0.cache.hits"] == 1
        # miss must pay bus + directory + memory + bus; hit just 1 cycle
        assert result.end_cycle > 100

    def test_initial_memory_image(self):
        def program(ctx):
            value = yield Load(A)
            assert value == 5

        single(cfg1(), program, initial_memory={A: 5})


class TestTransactionBasics:
    def test_tx_commits_and_result_delivered(self):
        seen = []

        def body(tx):
            value = yield Load(A)
            yield Store(A, value + 1)
            tx.set_result(value + 1)

        def program(ctx):
            result = yield TxOp(body, site="inc")
            seen.append(result)

        machine, result = single(cfg1(), program, initial_memory={A: 10})
        assert machine.memory.read_word(A) == 11
        assert seen == [11]
        assert result.counters()["tx.commits"] == 1

    def test_store_forwarding_within_tx(self):
        def body(tx):
            yield Store(A, 5)
            value = yield Load(A)
            assert value == 5
            tx.set_result(value)

        def program(ctx):
            yield TxOp(body, site="fwd")

        machine, _ = single(cfg1(), program)
        assert machine.memory.read_word(A) == 5

    def test_speculative_store_invisible_until_commit(self):
        """Lazy versioning: memory must not change before commit."""
        observations = []

        def body(tx):
            yield Store(A, 99)
            observations.append(("during", tx))

        def program(ctx):
            yield TxOp(body, site="w")

        machine, _ = single(cfg1(), program)
        # After the run it IS committed:
        assert machine.memory.read_word(A) == 99

    def test_read_only_tx_commits(self):
        def body(tx):
            value = yield Load(A)
            tx.set_result(value)

        def program(ctx):
            yield TxOp(body, site="ro")

        _, result = single(cfg1(), program, initial_memory={A: 3})
        assert result.counters()["tx.commits"] == 1

    def test_empty_tx_commits(self):
        def body(tx):
            return
            yield  # pragma: no cover - makes it a generator

        def program(ctx):
            yield TxOp(body, site="empty")

        _, result = single(cfg1(), program)
        assert result.counters()["tx.commits"] == 1

    def test_nested_tx_rejected(self):
        def inner(tx):
            yield Compute(1)

        def body(tx):
            yield TxOp(inner, site="inner")

        def program(ctx):
            yield TxOp(body, site="outer")

        with pytest.raises(WorkloadError, match="flat"):
            single(cfg1(), program)

    def test_barrier_inside_tx_rejected(self):
        def body(tx):
            yield BarrierOp("nope")

        def program(ctx):
            yield TxOp(body, site="b")

        with pytest.raises(WorkloadError):
            single(cfg1(), program)

    def test_non_generator_body_rejected(self):
        def program(ctx):
            yield TxOp(lambda tx: 42, site="bad")

        with pytest.raises(WorkloadError, match="generator"):
            single(cfg1(), program)

    def test_parallel_window_measured_between_txs(self):
        def body(tx):
            yield Compute(10)

        def program(ctx):
            yield Compute(500)           # excluded: before first tx
            yield TxOp(body, site="x")
            yield Compute(300)           # excluded: after last commit

        _, result = single(cfg1(), program)
        assert result.parallel_start == 500
        assert result.parallel_end < result.end_cycle
        assert result.end_cycle >= 800


class TestConflictSemantics:
    """Two-processor conflict scenarios on deterministic schedules."""

    @staticmethod
    def conflict_config():
        return SystemConfig(num_procs=2, seed=0, gating=GatingConfig(enabled=False))

    def test_read_write_conflict_aborts_reader(self):
        def writer(ctx):
            def body(tx):
                yield Store(A, 1)

            yield TxOp(body, site="w")

        def reader(ctx):
            def body(tx):
                value = yield Load(A)
                yield Compute(2000)  # hold the read-set open past w's commit
                tx.set_result(value)

            yield TxOp(body, site="r")

        machine, result = run_machine(self.conflict_config(), [reader, writer])
        c = result.counters()
        assert c["tx.commits"] == 2
        assert c["tx.aborts.conflict"] >= 1

    def test_blind_writers_do_not_abort_each_other(self):
        def make(val):
            def program(ctx):
                def body(tx):
                    yield Store(A, val)   # blind write, no read
                    yield Compute(500)

                yield TxOp(body, site=f"w{val}")

            return program

        machine, result = run_machine(self.conflict_config(), [make(1), make(2)])
        c = result.counters()
        assert c["tx.commits"] == 2
        assert c.get("tx.aborts.conflict", 0) == 0
        assert machine.memory.read_word(A) in (1, 2)

    def test_disjoint_lines_never_conflict(self):
        def make(addr):
            def program(ctx):
                def body(tx):
                    value = yield Load(addr)
                    yield Compute(300)
                    yield Store(addr, value + 1)

                for _ in range(5):
                    yield TxOp(body, site="inc")

            return program

        machine, result = run_machine(self.conflict_config(), [make(A), make(C)])
        assert result.counters().get("tx.aborts.conflict", 0) == 0
        assert machine.memory.read_word(A) == 5
        assert machine.memory.read_word(C) == 5

    def test_false_sharing_on_one_line_conflicts(self):
        """Different words, same 64-byte line: line-granular detection."""
        word0, word1 = A, A + 8

        def make(addr):
            def program(ctx):
                def body(tx):
                    value = yield Load(addr)
                    yield Compute(400)
                    yield Store(addr, value + 1)

                for _ in range(4):
                    yield TxOp(body, site="fs")

            return program

        _, result = run_machine(self.conflict_config(), [make(word0), make(word1)])
        assert result.counters()["tx.aborts.conflict"] >= 1

    def test_lost_update_prevented(self):
        """The canonical atomicity test: concurrent increments all land."""
        def make():
            def program(ctx):
                def body(tx):
                    value = yield Load(A)
                    yield Compute(7)
                    yield Store(A, value + 1)

                for _ in range(20):
                    yield TxOp(body, site="inc")

            return program

        machine, _ = run_machine(self.conflict_config(), [make(), make()])
        assert machine.memory.read_word(A) == 40

    def test_attempts_equal_commits_plus_aborts(self):
        def make():
            def program(ctx):
                def body(tx):
                    value = yield Load(A)
                    yield Store(A, value + 1)

                for _ in range(10):
                    yield TxOp(body, site="inc")

            return program

        _, result = run_machine(self.conflict_config(), [make(), make()])
        c = result.counters()
        aborts = c.get("tx.aborts.conflict", 0) + c.get("tx.aborts.self", 0)
        assert c["tx.attempts"] == c["tx.commits"] + aborts


class TestBarriers:
    def test_barrier_synchronizes(self):
        arrivals = {}

        def make(pid, delay):
            def program(ctx):
                yield Compute(delay)
                yield BarrierOp("sync")
                arrivals[pid] = True
                yield Compute(1)

            return program

        config = SystemConfig(num_procs=2, seed=0, gating=GatingConfig(enabled=False))
        _, result = run_machine(config, [make(0, 10), make(1, 500)])
        assert arrivals == {0: True, 1: True}
        # both resumed only after the slow thread: end >= 501
        assert result.end_cycle >= 501

    def test_missing_barrier_participant_deadlocks(self):
        def waiter(ctx):
            yield BarrierOp("sync")

        def absent(ctx):
            yield Compute(5)  # never reaches the barrier

        config = SystemConfig(num_procs=2, seed=0, gating=GatingConfig(enabled=False))
        with pytest.raises(DeadlockError, match="barrier"):
            run_machine(config, [waiter, absent])

    def test_barrier_reusable_in_loop(self):
        def make():
            def program(ctx):
                for round_ in range(3):
                    yield Compute(10)
                    yield BarrierOp("loop")

            return program

        config = SystemConfig(num_procs=2, seed=0, gating=GatingConfig(enabled=False))
        run_machine(config, [make(), make()])  # must not deadlock


class TestMachineGuards:
    def test_max_cycles(self):
        def program(ctx):
            yield Compute(10_000)

        config = dataclasses.replace(cfg1(), max_cycles=100)
        with pytest.raises(SimulationError, match="max_cycles"):
            single(config, program)

    def test_program_count_mismatch(self):
        from repro.errors import ConfigError

        def program(ctx):
            yield Compute(1)

        with pytest.raises(ConfigError, match="one-to-one"):
            run_machine(SystemConfig(num_procs=2), [program])

    def test_timeline_states_recorded(self):
        def body(tx):
            yield Load(A)

        def program(ctx):
            yield Load(C)  # plain miss
            yield TxOp(body, site="t")

        machine, result = single(cfg1(), program)
        states = {seg.state for seg in result.timelines[0].segments()}
        assert ProcState.RUN in states
        assert ProcState.MISS in states
        assert ProcState.COMMIT in states


class _Load(Load):
    pass


class _Store(Store):
    pass


class _Compute(Compute):
    pass


class _NestedTx(TxOp):
    pass


class _Bogus:
    def __repr__(self):
        return "<bogus op>"


def _intent_program(load, store, compute):
    """Plain and transactional traffic built from the given intent classes."""

    def program(ctx):
        private = 0x8000 + ctx.proc_id * 0x100
        yield store(private, ctx.proc_id + 1)
        seed = yield load(private)        # partial line: a miss
        seed += yield load(private)       # now a hit
        yield compute(0)
        for _ in range(4):
            def body(tx):
                value = yield load(A)
                yield compute(0)
                yield store(A, value + 1)
                forwarded = yield load(A)  # store-to-load forwarding
                yield compute(3)
                yield store(B, forwarded + seed)
                tx.set_result(forwarded)

            yield TxOp(body, site="inc")
            yield compute(seed)

    return program


class TestStepLoop:
    """Paths of the processor's step loops that the paper grid never takes."""

    def _observe(self, load, store, compute):
        config = SystemConfig(num_procs=3, seed=0)
        machine, result = run_machine(
            config, [_intent_program(load, store, compute)] * 3,
            validation_mode=True,
        )
        timelines = [
            [(seg.start, seg.end, seg.state) for seg in tl.segments()]
            for tl in result.timelines
        ]
        return result.counters(), timelines, result.memory_snapshot, result

    def test_intent_subclasses_match_exact_types(self):
        exact = self._observe(Load, Store, Compute)
        subclassed = self._observe(_Load, _Store, _Compute)
        assert subclassed[:3] == exact[:3]
        counters, _, memory, result = exact
        assert counters["tx.commits"] == 12
        assert counters["tx.aborts.total"] >= 1  # contention was exercised
        assert memory[A] == 12
        assert [tx.reads for tx in subclassed[3].commit_log] == [
            tx.reads for tx in result.commit_log
        ]

    def test_zero_cycle_compute_takes_no_time(self):
        def program(ctx):
            yield Compute(0)
            yield _Compute(0)
            yield Compute(5)

        _, result = single(cfg1(), program)
        assert result.end_cycle == 5

    @pytest.mark.parametrize(
        ("op", "message"),
        [
            (TxOp(lambda tx: iter(()), site="inner"),
             "TxOp is not allowed inside a transaction (site 'outer'); "
             "TCC transactions are flat"),
            (_NestedTx(lambda tx: iter(()), site="inner"),
             "_NestedTx is not allowed inside a transaction (site 'outer'); "
             "TCC transactions are flat"),
            (BarrierOp("b"),
             "BarrierOp is not allowed inside a transaction (site 'outer'); "
             "TCC transactions are flat"),
            (_Bogus(), "unknown transactional op: <bogus op>"),
        ],
    )
    def test_bad_op_inside_transaction(self, op, message):
        def body(tx):
            yield op

        def program(ctx):
            yield TxOp(body, site="outer")

        with pytest.raises(WorkloadError) as excinfo:
            single(cfg1(), program)
        assert str(excinfo.value) == message

    def test_unknown_program_level_op(self):
        def program(ctx):
            yield _Bogus()

        with pytest.raises(WorkloadError) as excinfo:
            single(cfg1(), program)
        assert str(excinfo.value) == "unknown program-level op: <bogus op>"

    def test_stale_fill_reply_is_ignored_and_counted(self):
        line = C // 64

        def program(ctx):
            value = yield Load(C)  # cold miss: the fill is outstanding at t=5
            assert value == 9

        config = cfg1()
        programs = [ThreadProgram(program, "t0")]
        machine = Machine(config, programs, initial_memory={C: 9})
        proc = machine.procs[0]
        # A reply to a request never made, and one for another line.
        machine.engine.schedule(5, proc.receive_fill_reply, line, 99)
        machine.engine.schedule(5, proc.receive_fill_reply, line + 1, 1)
        result = machine.run()
        counters = result.counters()
        assert counters["proc0.stale_fills"] == 2
        assert counters["proc0.cache.misses"] == 1
        assert proc.cache.contains(line)
        assert not proc.cache.contains(line + 1)
