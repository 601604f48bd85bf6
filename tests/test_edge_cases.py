"""Edge-case coverage across layers: races, stale messages, odd shapes."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import CacheConfig, GatingConfig, SystemConfig
from repro.harness.runner import run_workload, workload
from repro.htm.machine import Machine
from repro.htm.ops import Compute, Load, Store, TxOp
from repro.htm.program import ThreadProgram
from repro.power.states import ProcState

HOT = 0x2000


def contended(n, work=5):
    def program(ctx):
        def body(tx):
            value = yield Load(HOT)
            yield Compute(work)
            yield Store(HOT, value + 1)

        for _ in range(n):
            yield TxOp(body, site="inc")

    return program


class TestFewerDirectoriesThanProcessors:
    """num_dirs != num_procs exercises the interleaving paths."""

    @pytest.mark.parametrize("num_dirs", [1, 2, 3])
    def test_counter_correct(self, num_dirs):
        config = SystemConfig(num_procs=4, num_dirs=num_dirs, seed=2)
        programs = [ThreadProgram(contended(10), f"t{i}") for i in range(4)]
        machine = Machine(config, programs)
        machine.run()
        assert machine.memory.read_word(HOT) == 40

    def test_more_dirs_than_procs(self):
        config = SystemConfig(num_procs=2, num_dirs=8, seed=2)
        programs = [ThreadProgram(contended(10), f"t{i}") for i in range(2)]
        machine = Machine(config, programs)
        machine.run()
        assert machine.memory.read_word(HOT) == 20


class TestTinyCache:
    """A 2-set cache forces heavy (speculative) eviction traffic; the
    sticky-sharer design must keep everything correct regardless."""

    def test_correct_under_thrashing(self):
        config = dataclasses.replace(
            SystemConfig(num_procs=2, seed=3),
            cache=CacheConfig(size_bytes=256, line_bytes=64, ways=2),
        )

        def make():
            def program(ctx):
                def body(tx):
                    # touch 5 distinct lines: guaranteed evictions
                    values = []
                    for i in range(5):
                        v = yield Load(HOT + 64 * i)
                        values.append(v)
                    yield Store(HOT, values[0] + 1)

                for _ in range(6):
                    yield TxOp(body, site="thrash")

            return program

        machine = Machine(
            config,
            [ThreadProgram(make(), "a"), ThreadProgram(make(), "b")],
            validation_mode=True,
        )
        result = machine.run()
        assert machine.memory.read_word(HOT) == 12
        from repro.harness.validation import check_serializability

        check_serializability({}, result, machine.memory.version_log)
        assert result.counters().get("proc0.cache.evictions", 0) > 0


class TestStaleMessages:
    def test_stale_fill_counted(self):
        """Abort a tx mid-miss; the late reply must be discarded."""
        config = SystemConfig(num_procs=2, seed=4)

        def victim(ctx):
            def body(tx):
                value = yield Load(HOT)        # will be aborted mid-flight
                yield Load(HOT + 0x1000)       # long miss to stay in-flight
                yield Store(HOT, value + 1)

            for _ in range(8):
                yield TxOp(body, site="victim")

        def attacker(ctx):
            def body(tx):
                value = yield Load(HOT)
                yield Store(HOT, value + 1)

            for _ in range(8):
                yield TxOp(body, site="attacker")

        machine = Machine(
            config,
            [ThreadProgram(victim, "v"), ThreadProgram(attacker, "a")],
        )
        machine.run()
        assert machine.memory.read_word(HOT) == 16  # correctness first

    def test_saturating_abort_counter_with_tiny_width(self):
        """1-bit abort counters saturate at 1 and the run still ends."""
        config = dataclasses.replace(
            SystemConfig(num_procs=4, seed=5),
            gating=GatingConfig(enabled=True, w0=4, abort_counter_bits=1),
        )
        programs = [ThreadProgram(contended(8), f"t{i}") for i in range(4)]
        machine = Machine(config, programs)
        machine.run()
        for unit in machine.gating_units:
            for entry in unit.table:
                assert entry.abort_count <= 1
        assert machine.memory.read_word(HOT) == 32


class TestParallelWindowEdges:
    def test_run_with_no_transactions(self):
        def program(ctx):
            yield Compute(100)

        config = SystemConfig(num_procs=1, seed=0)
        machine = Machine(config, [ThreadProgram(program, "t")])
        result = machine.run()
        # degenerate window covers the run; energy still computable
        assert result.parallel_start == 0
        assert result.parallel_end == result.end_cycle
        from repro.power.energy import compute_energy
        from repro.power.model import PowerModel

        breakdown = compute_energy(
            result.timelines,
            (result.parallel_start, result.parallel_end),
            PowerModel.derive(),
            gated_run=True,
        )
        assert breakdown.total == pytest.approx(100.0)

    def test_single_instant_transaction(self):
        def body(tx):
            return
            yield  # pragma: no cover

        def program(ctx):
            yield TxOp(body, site="empty")

        config = SystemConfig(num_procs=1, seed=0)
        machine = Machine(config, [ThreadProgram(program, "t")])
        result = machine.run()
        assert result.parallel_end >= result.parallel_start


class TestGatedStateEnergy:
    def test_gated_cycles_billed_at_leakage(self):
        """Energy of gated intervals must use the 0.20 factor."""
        result = run_workload(
            workload("counter", scale="tiny", seed=8),
            SystemConfig(num_procs=4, seed=8),
        )
        cycles, energy = result.energy.by_state.get(ProcState.GATED, (0, 0.0))
        if cycles:
            assert energy == pytest.approx(cycles * 0.20)

    def test_commit_cycles_billed_at_commit_power(self):
        result = run_workload(
            workload("counter", scale="tiny", seed=8),
            SystemConfig(num_procs=4, seed=8),
        )
        cycles, energy = result.energy.by_state[ProcState.COMMIT]
        assert energy == pytest.approx(cycles * 0.44)


class TestWithW0Sweep:
    @pytest.mark.parametrize("w0", [1, 64])
    def test_extreme_w0_still_correct(self, w0):
        config = SystemConfig(num_procs=4, seed=9).with_gating(True, w0=w0)
        result = run_workload(
            workload("counter", scale="tiny", seed=9), config,
            check_serial=True,
        )
        assert result.commits == 40
