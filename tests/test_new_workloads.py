"""kmeans / vacation / labyrinth: build determinism, validators,
serializability, and scenario-spec round-trips.

Together with the generic coverage in ``test_workloads.py`` (which
parametrizes over every registered workload), this is the ISSUE's
acceptance surface for the three new STAMP-style kernels.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.harness.runner import run_workload
from repro.scenarios import ScenarioSpec, scenario
from repro.workloads.base import SCALES
from repro.workloads.kmeans import build_kmeans
from repro.workloads.labyrinth import build_labyrinth
from repro.workloads.registry import build_workload
from repro.workloads.vacation import build_vacation

NEW_APPS = ("kmeans", "vacation", "labyrinth")


class TestBuildDeterminism:
    @pytest.mark.parametrize("name", NEW_APPS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_builds_at_every_scale(self, name, scale):
        inst = build_workload(name, 4, scale=scale, seed=2)
        assert inst.num_threads == 4
        assert inst.scale == scale
        assert inst.validators
        assert inst.params["expected_transactions"] > 0

    @pytest.mark.parametrize("name", NEW_APPS)
    def test_same_seed_same_build(self, name):
        a = build_workload(name, 4, scale="tiny", seed=5)
        b = build_workload(name, 4, scale="tiny", seed=5)
        assert a.initial_memory == b.initial_memory
        assert a.params == b.params

    @pytest.mark.parametrize("name", NEW_APPS)
    def test_different_seed_different_build(self, name):
        a = build_workload(name, 4, scale="tiny", seed=5)
        b = build_workload(name, 4, scale="tiny", seed=6)
        assert a.initial_memory != b.initial_memory or a.params != b.params

    @pytest.mark.parametrize("name", NEW_APPS)
    def test_sixteen_thread_tiny_builds(self, name):
        """The Fig. 7 grid corner: every app must build at 16 threads."""
        inst = build_workload(name, 16, scale="tiny", seed=0)
        assert inst.num_threads == 16


class TestDeterministicRuns:
    """Same seed -> bit-identical metrics, end to end."""

    @pytest.mark.parametrize("name", NEW_APPS)
    def test_run_twice_identical(self, name):
        config = SystemConfig(num_procs=4, seed=8)
        results = [
            run_workload(build_workload(name, 4, scale="tiny", seed=8), config)
            for _ in range(2)
        ]
        assert results[0].parallel_time == results[1].parallel_time
        assert results[0].counters == results[1].counters
        assert results[0].energy.total == results[1].energy.total


class TestSerializabilityUnderBothModes:
    """Tiny-scale runs with full validation + TID-order replay."""

    @pytest.mark.parametrize("name", NEW_APPS)
    @pytest.mark.parametrize("gating", [False, True],
                             ids=["ungated", "gated"])
    def test_validated_serializable(self, name, gating):
        config = SystemConfig(num_procs=4, seed=13).with_gating(gating)
        result = run_workload(
            build_workload(name, 4, scale="tiny", seed=13),
            config,
            check_serial=True,
        )
        assert result.commits > 0


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("name", NEW_APPS)
    def test_spec_json_digest_unchanged(self, name):
        spec = scenario(name, scale="tiny", threads=4, seed=7)
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.digest == spec.digest
        assert restored.to_job().digest == spec.to_job().digest


class TestKmeans:
    def test_centroid_fixpoint_validated(self):
        inst = build_kmeans(4, scale="tiny", seed=3)
        result = run_workload(inst, SystemConfig(num_procs=4, seed=3))
        # validators ran inside run_workload; spot-check the params
        assert inst.params["clusters"] == 4
        assert result.commits == inst.params["expected_transactions"]

    def test_more_clusters_less_contention(self):
        few = build_kmeans(4, scale="tiny", clusters=2, seed=1)
        many = build_kmeans(4, scale="tiny", clusters=8, seed=1)
        assert few.params["clusters"] == 2
        assert many.params["clusters"] == 8

    def test_rejects_bad_shapes(self):
        with pytest.raises(WorkloadError):
            build_kmeans(2, scale="tiny", clusters=0)
        with pytest.raises(WorkloadError):
            build_kmeans(2, scale="tiny", points=3, clusters=8)
        with pytest.raises(WorkloadError):
            build_kmeans(2, scale="tiny", iterations=0)
        with pytest.raises(WorkloadError, match="unknown scale"):
            build_kmeans(2, scale="galactic")

    def test_validator_catches_corruption(self):
        inst = build_kmeans(2, scale="tiny", seed=0)
        result = run_workload(inst, SystemConfig(num_procs=2, seed=0))
        memory = dict(result.machine_result.memory_snapshot)
        # corrupt the first centroid word
        target = next(iter(inst.initial_memory))
        memory[target] = memory.get(target, 0) + 999
        with pytest.raises(WorkloadError):
            inst.validate_final_memory(memory)


class TestVacation:
    def test_aggregate_conservation(self):
        inst = build_vacation(4, scale="tiny", seed=5)
        result = run_workload(inst, SystemConfig(num_procs=4, seed=5))
        assert result.commits == inst.params["expected_transactions"]
        assert inst.params["expected_bookings"] > 0

    def test_query_fraction_extremes(self):
        read_only = build_vacation(2, scale="tiny", query_fraction=1.0, seed=2)
        writers = build_vacation(2, scale="tiny", query_fraction=0.0, seed=2)
        assert read_only.params["expected_bookings"] == 0
        assert writers.params["expected_bookings"] > 0
        for inst in (read_only, writers):
            run_workload(inst, SystemConfig(num_procs=2, seed=2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(WorkloadError):
            build_vacation(2, scale="tiny", query_fraction=1.5)
        with pytest.raises(WorkloadError):
            build_vacation(2, scale="tiny", relations=1)
        with pytest.raises(WorkloadError):
            build_vacation(2, scale="tiny", query_size=0)
        with pytest.raises(WorkloadError):
            build_vacation(2, scale="tiny", max_stock=0)

    def test_oversold_items_stop_at_zero(self):
        """Demand far above stock: stock floors at 0 deterministically."""
        inst = build_vacation(4, scale="tiny", relations=2, max_stock=1,
                              query_fraction=0.0, seed=7)
        run_workload(inst, SystemConfig(num_procs=4, seed=7))


class TestLabyrinth:
    def test_routes_disjoint_and_placed(self):
        inst = build_labyrinth(4, scale="tiny", seed=4)
        result = run_workload(inst, SystemConfig(num_procs=4, seed=4))
        assert result.commits == inst.params["paths"]
        assert inst.params["routed_cells"] > 0

    def test_long_transactions_abort(self):
        """Dense column band: concurrent routes must conflict."""
        inst = build_labyrinth(4, scale="small", seed=1)
        result = run_workload(inst, SystemConfig(num_procs=4, seed=1))
        assert result.aborts > 0  # the worst-case-for-abort-energy profile

    def test_too_many_paths_rejected(self):
        with pytest.raises(WorkloadError, match="distinct columns"):
            build_labyrinth(8, scale="tiny", grid_side=4)

    def test_rejects_bad_shapes(self):
        with pytest.raises(WorkloadError):
            build_labyrinth(2, scale="tiny", grid_side=1)
        with pytest.raises(WorkloadError):
            build_labyrinth(2, scale="tiny", paths_per_thread=0)
        with pytest.raises(WorkloadError):
            build_labyrinth(2, scale="tiny", max_path_length=1)

    def test_validator_catches_stray_write(self):
        inst = build_labyrinth(2, scale="tiny", seed=0)
        result = run_workload(inst, SystemConfig(num_procs=2, seed=0))
        memory = dict(result.machine_result.memory_snapshot)
        # stamp an unowned cell
        from repro.workloads.labyrinth import LABYRINTH_SCALES

        side = LABYRINTH_SCALES["tiny"][0]
        # find a grid address with value 0 and mark it
        for addr in range(0x1_0000, 0x1_0000 + side * side * 8, 8):
            if memory.get(addr, 0) == 0:
                memory[addr] = 77
                break
        with pytest.raises(WorkloadError):
            inst.validate_final_memory(memory)
