"""Machine reset: the pack warm path rebuilds each member's machine.

``Machine.reset`` closes the machine and rebuilds it in place, so a
reset machine produces numbers byte-identical to a freshly constructed
one.  These tests pin that at two levels: the raw ``Machine.reset``
parity and topology check, and the :class:`RunReuse` cache policy and
its pack tallies.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.exec.jobs import PackStats, RunJob, execute_pack
from repro.harness.runner import RunReuse, run_workload, workload
from repro.htm.machine import Machine
from repro.workloads.registry import build_workload


def config_for(seed: int, *, procs: int = 2, gated: bool = True) -> SystemConfig:
    return SystemConfig(num_procs=procs, seed=seed).with_gating(gated, w0=8)


def fresh_run(name: str, seed: int, *, gated: bool = True):
    return run_workload(
        workload(name, scale="tiny", seed=seed), config_for(seed, gated=gated)
    )


def fingerprint(result) -> dict:
    """Everything observable from one run, as comparable plain data."""
    m = result.machine_result
    return {
        "counters": dict(result.counters),
        "end_cycle": m.end_cycle,
        "window": (m.parallel_start, m.parallel_end),
        "memory": dict(m.memory_snapshot),
        "energy_total": result.energy.total,
        "energy_by_state": {
            s.name: v for s, v in result.energy.by_state.items()
        },
    }


class TestMachineResetParity:
    """reset() restores pristine state: rebuild and reset agree exactly."""

    @pytest.mark.parametrize("name", ["counter", "bank", "llist"])
    @pytest.mark.parametrize("gated", [True, False])
    def test_reset_matches_rebuild(self, name, gated):
        reuse = RunReuse()
        # Seed 3 warms the machine, seed 4 rides the reset path.
        run_workload(
            workload(name, scale="tiny", seed=3),
            config_for(3, gated=gated),
            reuse=reuse,
        )
        warm = run_workload(
            workload(name, scale="tiny", seed=4),
            config_for(4, gated=gated),
            reuse=reuse,
        )
        assert reuse.machine_resets == 1
        assert fingerprint(warm) == fingerprint(fresh_run(name, 4, gated=gated))

    def test_double_reset_matches_rebuild(self):
        """Reset to a new seed and back again — still pristine."""
        reuse = RunReuse()
        for seed in (5, 6, 5):
            warm = run_workload(
                workload("counter", scale="tiny", seed=seed),
                config_for(seed),
                reuse=reuse,
            )
        assert reuse.machine_resets == 2
        assert fingerprint(warm) == fingerprint(fresh_run("counter", 5))

    def test_reset_rejects_topology_change(self):
        inst2 = build_workload("counter", scale="tiny", num_threads=2, seed=1)
        inst4 = build_workload("counter", scale="tiny", num_threads=4, seed=1)
        machine = Machine(
            config_for(1), inst2.programs, initial_memory=inst2.initial_memory
        )
        with pytest.raises(ConfigError, match="topology"):
            machine.reset(
                config_for(1, procs=4),
                inst4.programs,
                initial_memory=inst4.initial_memory,
            )

    def test_reset_accepts_seed_change_only(self):
        inst = build_workload("counter", scale="tiny", num_threads=2, seed=1)
        machine = Machine(
            config_for(1), inst.programs, initial_memory=inst.initial_memory
        )
        machine.reset(
            config_for(9), inst.programs, initial_memory=inst.initial_memory
        )
        assert machine.config.seed == 9

    def test_reset_rejects_wrong_program_count(self):
        inst = build_workload("counter", scale="tiny", num_threads=2, seed=1)
        machine = Machine(
            config_for(1), inst.programs, initial_memory=inst.initial_memory
        )
        with pytest.raises(ConfigError):
            machine.reset(config_for(1), inst.programs[:1])

    def test_finished_run_keeps_its_counters_across_a_reset(self):
        inst = build_workload("counter", scale="tiny", num_threads=2, seed=1)
        machine = Machine(
            config_for(1), inst.programs, initial_memory=inst.initial_memory
        )
        result = machine.run()
        counters = result.counters()
        assert counters
        machine.reset(
            config_for(2), inst.programs, initial_memory=inst.initial_memory
        )
        assert result.counters() == counters
        machine.close()


class TestRunReuse:
    def test_discard_machine_forces_rebuild(self):
        reuse = RunReuse()
        run_workload(
            workload("counter", scale="tiny", seed=1),
            config_for(1),
            reuse=reuse,
        )
        reuse.discard_machine()
        run_workload(
            workload("counter", scale="tiny", seed=2),
            config_for(2),
            reuse=reuse,
        )
        assert reuse.machine_resets == 0

    def test_different_topology_is_not_reset_reused(self):
        reuse = RunReuse()
        run_workload(
            workload("counter", scale="tiny", seed=1),
            config_for(1),
            reuse=reuse,
        )
        run_workload(
            workload("counter", scale="tiny", seed=1),
            config_for(1, gated=False),
            reuse=reuse,
        )
        assert reuse.machine_resets == 0


class TestPackResetIdentity:
    """A pack's tallies count the members its shared state served.

    Pack results against per-process ones, bit for bit and store for
    store: tests/test_exec.py ``TestReplicatePacks``.
    """

    def seed_family(self, count: int = 4) -> list[RunJob]:
        return [
            RunJob(
                workload("counter", scale="tiny", seed=seed),
                config_for(seed),
            )
            for seed in range(1, count + 1)
        ]

    def test_pack_stats_count_warm_members(self):
        outcomes, stats = execute_pack(self.seed_family())
        assert all(o.error is None for o in outcomes)
        assert stats == PackStats(reset_reuses=3, shared_prep_hits=0)
