"""Warm-up once per machine shape: restored warm states equal simulated ones.

Every built-in workload declares a warm sweep; the machine simulates it
once per (config less seed, gating and max_cycles; swept addresses) key
and later runs install the recorded state at the warm barrier
(:mod:`repro.htm.machine`).  These tests pin that a restored run is the
simulated run, observable for observable, and that the memo keys,
traces and cycle budgets behave as documented.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import CacheConfig, SystemConfig
from repro.errors import SimulationError
from repro.exec.jobs import ExecResult
from repro.exec.serialize import canonical_json, result_to_dict
from repro.harness.runner import run_workload
from repro.htm import machine as machine_module
from repro.htm.machine import WARM_STATES, Machine
from repro.htm.ops import BarrierOp, Load
from repro.htm.program import ThreadContext
from repro.power.model import PowerModel
from repro.sim.trace import TraceRecorder
from repro.workloads.registry import build_workload

BUILTIN = ("array_walk", "bank", "counter", "genome", "intruder", "kmeans",
           "labyrinth", "llist", "vacation", "yada")

POWER = PowerModel.derive()


@pytest.fixture
def runs(monkeypatch):
    """Every machine run from here on, and how many restored their warm
    state."""
    log = {"machines": [], "restores": 0}
    run, restore = Machine.run, Machine._restore_warm

    def counting_run(self):
        log["machines"].append(self)
        return run(self)

    def counting_restore(self, blob, barrier):
        log["restores"] += 1
        return restore(self, blob, barrier)

    monkeypatch.setattr(Machine, "run", counting_run)
    monkeypatch.setattr(Machine, "_restore_warm", counting_restore)
    WARM_STATES.clear()
    yield log
    WARM_STATES.clear()


def observe(result, machine: Machine) -> dict:
    """What one run shows: the stored payload plus what the store drops."""
    mresult = result.machine_result
    return {
        "payload": canonical_json(
            result_to_dict(ExecResult.from_run_result(result, POWER))
        ),
        "counters": mresult.counters(),
        "timelines": [tl.segments() for tl in mresult.timelines],
        "memory": mresult.memory_snapshot,
        "events": machine.engine.events_executed,
    }


def config_for(procs: int, gated: bool, seed: int = 5) -> SystemConfig:
    return SystemConfig(num_procs=procs, seed=seed).with_gating(gated)


class TestRestoredEqualsSimulated:
    @pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
    @pytest.mark.parametrize("procs", [1, 4])
    @pytest.mark.parametrize("name", BUILTIN)
    def test_parity(self, runs, name, procs, gated):
        instance = build_workload(name, scale="tiny", num_threads=procs, seed=5)
        config = config_for(procs, gated)
        # Record the warm state under another seed and the other gating
        # mode: neither is part of the key.
        run_workload(instance, config_for(procs, not gated, seed=9))
        assert len(WARM_STATES) == 1 and runs["restores"] == 0

        restored = observe(run_workload(instance, config), runs["machines"][-1])
        assert runs["restores"] == 1

        WARM_STATES.clear()
        simulated = observe(run_workload(instance, config), runs["machines"][-1])
        assert runs["restores"] == 1
        assert restored == simulated

    @pytest.mark.parametrize("name", ["genome", "intruder", "yada"])
    def test_parity_when_the_sweep_overflows_the_cache(self, runs, name):
        # A 2 KB cache holds 32 lines: the sweep evicts, and later
        # victims follow the restored LRU stamps.
        instance = build_workload(name, scale="tiny", num_threads=4, seed=5)
        config = replace(config_for(4, True),
                         cache=CacheConfig(size_bytes=2048, ways=2))
        run_workload(instance, config)
        restored = observe(run_workload(instance, config), runs["machines"][-1])
        assert runs["restores"] == 1
        assert restored["counters"]["proc0.cache.evictions"] > 0
        WARM_STATES.clear()
        simulated = observe(run_workload(instance, config), runs["machines"][-1])
        assert restored == simulated

    def test_max_cycles_is_not_part_of_the_key(self, runs):
        instance = build_workload("intruder", scale="tiny", num_threads=2)
        config = config_for(2, True)
        bounded = replace(config, max_cycles=10**9)
        run_workload(instance, config)
        restored = observe(run_workload(instance, bounded), runs["machines"][-1])
        assert runs["restores"] == 1
        WARM_STATES.clear()
        simulated = observe(run_workload(instance, bounded), runs["machines"][-1])
        assert restored == simulated


class TestMemoKeys:
    def test_warm_relevant_field_gets_its_own_entry(self, runs):
        instance = build_workload("genome", scale="tiny", num_threads=4)
        base = config_for(4, True)
        slow_bus = replace(base, bus=replace(base.bus, occupancy=base.bus.occupancy + 3))
        run_workload(instance, base)
        own = observe(run_workload(instance, slow_bus), runs["machines"][-1])
        assert len(WARM_STATES) == 2 and runs["restores"] == 0
        WARM_STATES.clear()
        cold = observe(run_workload(instance, slow_bus), runs["machines"][-1])
        assert own == cold

    def test_bound_evicts_least_recently_used(self, runs, monkeypatch):
        monkeypatch.setattr(machine_module, "WARM_STATES_MAX", 2)
        instance = build_workload("counter", scale="tiny", num_threads=1)
        configs = [replace(config_for(1, False), bus=replace(
            SystemConfig().bus, occupancy=occupancy)) for occupancy in (1, 2, 3)]
        run_workload(instance, configs[0])
        run_workload(instance, configs[1])
        run_workload(instance, configs[0])  # hit: now the most recent
        assert runs["restores"] == 1
        run_workload(instance, configs[2])  # evicts configs[1]
        assert [key[0].bus.occupancy for key in WARM_STATES] == [1, 3]


class TestSmallPointEventGraph:
    """One `small` paper-grid point's simulated counts, pinned.

    Results stay bit-identical only while the event graph does (the
    engine breaks same-cycle ties by scheduling order), so adding,
    merging or reordering an event moves these counts.  Both the run
    that simulates the warm sweep and the one that restores it must
    reach them.
    """

    #: intruder, 16 threads, `small`, seed 0, gated
    COUNTS = {
        "events": 73_942,
        "bus.messages": 33_109,
        "tx.attempts": 4_661,
        "tx.commits": 736,
        "cache.misses": 7_865,
    }

    def test_intruder_16_counts(self, runs):
        instance = build_workload("intruder", scale="small", num_threads=16, seed=0)
        config = SystemConfig(num_procs=16, seed=0).with_gating(True)
        seen = []
        for _ in ("simulated", "restored"):
            counters = run_workload(instance, config).counters
            seen.append({
                "events": runs["machines"][-1].engine.events_executed,
                "bus.messages": counters["bus.messages"],
                "tx.attempts": counters["tx.attempts"],
                "tx.commits": counters["tx.commits"],
                "cache.misses": sum(
                    value for name, value in counters.items()
                    if name.endswith(".cache.misses")
                ),
            })
        assert runs["restores"] == 1
        assert seen == [self.COUNTS, self.COUNTS]


class TestTracedRuns:
    def test_traced_run_simulates_the_sweep(self, runs):
        instance = build_workload("intruder", scale="tiny", num_threads=4)
        config = config_for(4, True)
        untraced = run_workload(instance, config)
        assert len(WARM_STATES) == 1

        trace = TraceRecorder(kinds=("barrier",))
        traced = run_workload(instance, config, trace=trace)
        assert runs["restores"] == 0
        arrivals = [e for e in trace.events("barrier.arrive")
                    if e.name == "intruder.warm"]
        assert sorted(e.proc for e in arrivals) == [0, 1, 2, 3]
        releases = [e for e in trace.events("barrier.release")
                    if e.name == "intruder.warm"]
        assert len(releases) == 1 and releases[0].time == arrivals[-1].time
        assert traced.counters == untraced.counters


class TestCycleBudget:
    def test_budget_below_the_barrier_fails_alike(self, runs):
        instance = build_workload("counter", scale="tiny", num_threads=2)
        config = replace(config_for(2, True), max_cycles=50)
        with pytest.raises(SimulationError) as miss:
            run_workload(instance, config)
        assert len(WARM_STATES) == 0
        run_workload(instance, replace(config, max_cycles=None))
        with pytest.raises(SimulationError) as hit:
            run_workload(instance, config)
        assert runs["restores"] == 1
        assert str(hit.value) == str(miss.value)
        assert "max_cycles=50" in str(hit.value)


class TestCaptureChecks:
    """The capture refuses states the memo key cannot stand for."""

    @pytest.fixture
    def machine(self):
        instance = build_workload("counter", scale="tiny", num_threads=2)
        return Machine(config_for(2, True), instance.programs,
                       initial_memory=instance.initial_memory,
                       warm=instance.warm)

    def test_events_in_flight(self, machine):
        machine.engine.schedule(3, lambda: None)
        with pytest.raises(SimulationError, match="in flight"):
            machine._capture_warm("counter.warm")

    def test_gating_table_touched(self, machine):
        machine.gating_units[0].table.entry(1).abort_count = 1
        with pytest.raises(SimulationError, match="gating table"):
            machine._capture_warm("counter.warm")


@pytest.mark.parametrize("name", BUILTIN)
def test_builtin_programs_hold_no_warm_up(name):
    instance = build_workload(name, scale="tiny", num_threads=2)
    assert instance.warm is not None and instance.warm.barrier.endswith(".warm")
    assert len(instance.warm.addrs) > 0
    for proc_id, program in enumerate(instance.programs):
        first = next(program.generate(ThreadContext(proc_id, 2)))
        assert not isinstance(first, Load)
        assert not (isinstance(first, BarrierOp)
                    and first.name == instance.warm.barrier)
