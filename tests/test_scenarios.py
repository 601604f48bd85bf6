"""The declarative scenario layer: specs, suites, runner, built-ins."""

from __future__ import annotations

import json

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError, WorkloadError
from repro.exec.executor import Executor
from repro.exec.store import ResultStore
from repro.figures.extract import pair_results
from repro.harness.compare import GatingComparison
from repro.harness.runner import WorkloadSpec
from repro.scenarios import (
    ScenarioSpec,
    ScenarioSuite,
    available_suites,
    get_suite,
    plan_suite,
    run_specs,
    run_suite,
    scenario,
    suite,
)
from repro.workloads.registry import PAPER_APPS, STAMP_APPS


class TestScenarioSpec:
    def test_digest_is_stable(self):
        a = scenario("counter", scale="tiny", threads=2, seed=1)
        b = scenario("counter", scale="tiny", threads=2, seed=1)
        assert a.digest == b.digest
        assert a.digest != a.with_updates(seed=2).digest
        assert a.digest != a.with_updates(w0=16).digest

    def test_json_round_trip_preserves_digest(self):
        spec = scenario(
            "vacation", scale="tiny", threads=4, seed=3,
            params={"relations": 8, "query_fraction": 0.25},
            system={"memory.latency": 50, "cache.ways": 4},
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.digest == spec.digest

    @pytest.mark.parametrize("name", STAMP_APPS)
    def test_every_stamp_app_round_trips(self, name):
        spec = scenario(name, scale="tiny", threads=4, seed=9)
        text = json.dumps(spec.to_dict(), indent=2)
        restored = ScenarioSpec.from_dict(json.loads(text))
        assert restored.digest == spec.digest

    def test_system_overrides_applied(self):
        spec = scenario(
            "counter", scale="tiny",
            system={"memory.latency": 42, "num_dirs": 2,
                    "gating.abort_counter_bits": 4},
        )
        config = spec.system_config()
        assert config.memory.latency == 42
        assert config.num_dirs == 2
        assert config.gating.abort_counter_bits == 4
        assert config.gating.enabled is True and config.gating.w0 == 8

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            scenario("nope")

    def test_unknown_param_rejected_with_listing(self):
        with pytest.raises(WorkloadError, match="valid parameters"):
            scenario("counter", params={"bogus": 1})

    def test_mistyped_param_rejected(self):
        with pytest.raises(WorkloadError, match="expects int"):
            scenario("counter", params={"increments": "ten"})

    def test_unknown_scale_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scale"):
            scenario("counter", scale="galactic")

    def test_unknown_cm_rejected(self):
        with pytest.raises(ConfigError, match="unknown contention manager"):
            scenario("counter", cm="psychic")

    def test_bad_system_key_rejected(self):
        with pytest.raises(WorkloadError, match="unknown system override"):
            scenario("counter", system={"memory.lattency": 10})
        with pytest.raises(WorkloadError, match="unknown system override"):
            scenario("counter", system={"turbo": True})

    def test_shadowed_system_key_rejected(self):
        with pytest.raises(WorkloadError, match="shadows the spec field"):
            scenario("counter", system={"gating.w0": 4})
        with pytest.raises(WorkloadError, match="shadows the spec field"):
            scenario("counter", system={"num_procs": 8})

    def test_whole_section_override_rejected(self):
        with pytest.raises(WorkloadError, match="whole config section"):
            scenario("counter", system={"memory": {}})

    def test_bad_config_value_fails_validation(self):
        with pytest.raises(ConfigError):
            scenario("counter", system={"memory.latency": -5})

    def test_mistyped_system_override_rejected(self):
        """A value the config field cannot hold fails as a WorkloadError
        naming the key and the type, before the config's range checks
        compare it with a number."""
        for system, message in (
            ({"cache.ways": "two"}, r"'cache\.ways' expects int, got str"),
            ({"memory.latency": True}, r"'memory\.latency' expects int, got bool"),
            ({"bus.occupancy": None}, r"'bus\.occupancy' expects int, got NoneType"),
            ({"num_dirs": 2.0}, r"'num_dirs' expects int \| None, got float"),
            ({"max_cycles": False}, r"'max_cycles' expects int \| None, got bool"),
        ):
            with pytest.raises(WorkloadError, match=message):
                scenario("counter", system=system)

    def test_mistyped_system_override_in_a_suite_file(self, capsys, tmp_path):
        from repro.cli import main

        path = tmp_path / "typo.json"
        path.write_text(json.dumps({
            "base": {"workload": "counter", "system": {"cache.ways": "two"}},
            "axes": [],
        }))
        assert main(["suite", "describe", "--file", str(path)]) == 2
        assert "'cache.ways' expects int" in capsys.readouterr().err

    def test_null_system_override_only_where_the_default_is_none(self):
        spec = scenario("counter", system={
            "num_dirs": None, "max_cycles": None,
            "gating.or_circuit_cycles": None,
        })
        assert spec.system_config() == scenario("counter").system_config()

    def test_every_config_field_accepts_its_default(self):
        """The override type check knows every field of every section."""
        from dataclasses import fields

        from repro.scenarios.spec import _SECTIONS, _SHADOWED_KEYS

        config = SystemConfig()
        keys = {
            f.name: getattr(config, f.name)
            for f in fields(SystemConfig) if f.name not in _SECTIONS
        }
        for section in _SECTIONS:
            part = getattr(config, section)
            keys.update({f"{section}.{f.name}": getattr(part, f.name)
                         for f in fields(part)})
        for key, default in keys.items():
            if key not in _SHADOWED_KEYS:
                scenario("counter", system={key: default})

    def test_mistyped_first_class_fields_rejected(self):
        with pytest.raises(WorkloadError, match="expects an integer"):
            ScenarioSpec.from_dict({"workload": "counter", "threads": "4"})
        with pytest.raises(WorkloadError, match="expects a boolean"):
            ScenarioSpec.from_dict({"workload": "counter",
                                    "gating": "false"})
        with pytest.raises(WorkloadError, match="expects an integer"):
            ScenarioSpec.from_dict({"workload": "counter", "w0": 8.5})
        with pytest.raises(WorkloadError, match="expects an integer"):
            ScenarioSpec.from_dict({"workload": "counter", "seed": True})
        with pytest.raises(WorkloadError, match="expects a string"):
            ScenarioSpec.from_dict({"workload": "counter", "cm": 3})

    def test_from_dict_rejects_unknown_fields(self):
        data = scenario("counter").to_dict()
        data["frobnicate"] = 1
        with pytest.raises(WorkloadError, match="unknown scenario field"):
            ScenarioSpec.from_dict(data)

    def test_from_json_rejects_garbage(self):
        # scenario JSON arrives as a suite document's base
        with pytest.raises(WorkloadError, match="invalid suite JSON"):
            ScenarioSuite.from_json('{"base": {nope')
        with pytest.raises(WorkloadError, match="expects an object"):
            ScenarioSuite.from_json('{"base": [1, 2]}')
        with pytest.raises(WorkloadError, match="must be an object"):
            ScenarioSpec.from_dict([1, 2])

    def test_lowering_matches_manual_job(self):
        from repro.exec.jobs import RunJob
        from repro.power.model import PowerModel

        spec = scenario("bank", scale="tiny", threads=4, seed=5,
                        params={"accounts": 8})
        model = PowerModel.derive()
        manual = RunJob(
            WorkloadSpec("bank", "tiny", 5, (("accounts", 8),)),
            SystemConfig(num_procs=4, seed=5),
            model,
        )
        assert spec.to_job(power=model).digest == manual.digest

    def test_ungated_w0_shares_job_digest(self):
        base = scenario("counter", scale="tiny", gating=False)
        assert base.digest != base.with_updates(w0=32).digest  # scenario ids differ
        assert base.to_job().digest == base.with_updates(w0=32).to_job().digest


class TestScenarioSuite:
    def test_expansion_order_and_size(self):
        grid = suite(
            "test", scenario("counter", scale="tiny"),
            axes={"gating": (False, True), "w0": (2, 8)},
        )
        assert grid.size == 4
        specs = grid.expand()
        assert [(s.gating, s.w0) for s in specs] == [
            (False, 2), (False, 8), (True, 2), (True, 8),
        ]

    def test_bare_axis_is_a_workload_param(self):
        grid = suite(
            "test", scenario("bank", scale="tiny"),
            axes={"accounts": (4, 64)},
        )
        specs = grid.expand()
        assert [dict(s.params)["accounts"] for s in specs] == [4, 64]

    def test_params_prefix_axis(self):
        grid = suite(
            "test", scenario("bank", scale="tiny"),
            axes={"params.accounts": (4, 64)},
        )
        assert [dict(s.params)["accounts"] for s in grid.expand()] == [4, 64]

    def test_system_axis(self):
        grid = suite(
            "test", scenario("counter", scale="tiny"),
            axes={"system.memory.latency": (50, 100)},
        )
        assert [
            s.system_config().memory.latency for s in grid.expand()
        ] == [50, 100]

    def test_typo_axis_rejected_at_expansion(self):
        grid = suite(
            "test", scenario("counter", scale="tiny"),
            axes={"threds": (2, 4)},
        )
        with pytest.raises(WorkloadError, match="valid parameters"):
            grid.expand()

    def test_workload_axis_revalidates_params(self):
        # a param valid for the base workload but not for a swept one
        grid = suite(
            "test", scenario("bank", scale="tiny", params={"accounts": 8}),
            axes={"workload": ("bank", "counter")},
        )
        with pytest.raises(WorkloadError, match="unknown parameter"):
            grid.expand()

    def test_duplicate_axis_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate axis"):
            ScenarioSuite(
                name="dup", base=scenario("counter"),
                axes=(("w0", (1, 2)), ("w0", (4,))),
            )

    @pytest.mark.parametrize("first, second", [
        ("increments", "params.increments"),
        ("params.increments", "increments"),
    ])
    def test_aliased_axes_rejected(self, first, second):
        # both spellings set the workload parameter 'increments'
        with pytest.raises(WorkloadError, match=(
            f"duplicate axis '{second}' \\(sets the same field as "
            f"'{first}'\\)"
        )):
            ScenarioSuite(
                name="alias", base=scenario("counter", scale="tiny"),
                axes=((first, (1, 2)), (second, (5,))),
            )

    def test_spec_seed_and_config_seed_are_distinct_axes(self):
        grid = suite(
            "seeds", scenario("counter", scale="tiny"),
            axes={"seed": (1, 2), "system.seed": (7,)},
        )
        specs = grid.expand()
        assert [s.seed for s in specs] == [1, 2]
        assert all(s.system_config().seed == 7 for s in specs)

    def test_empty_axis_rejected(self):
        with pytest.raises(WorkloadError, match="no values"):
            suite("empty", scenario("counter"), axes={"w0": ()})

    def test_from_dict_accepts_mapping_axes(self):
        grid = ScenarioSuite.from_dict({
            "base": {"workload": "counter", "scale": "tiny"},
            "axes": {"w0": [2, 8]},
        })
        assert grid.axes == (("w0", (2, 8)),)
        assert [s.w0 for s in grid.expand()] == [2, 8]

    def test_from_dict_rejects_malformed_axes(self):
        base = {"workload": "counter", "scale": "tiny"}
        with pytest.raises(WorkloadError, match=r"\[name, values\] pairs"):
            ScenarioSuite.from_dict({"base": base, "axes": ["w0"]})
        with pytest.raises(WorkloadError, match="values must be a list"):
            ScenarioSuite.from_dict({"base": base, "axes": [["w0", 8]]})
        with pytest.raises(WorkloadError, match="axis name must be a string"):
            ScenarioSuite.from_dict({"base": base, "axes": [[3, [1]]]})
        with pytest.raises(WorkloadError, match="mapping or a list"):
            ScenarioSuite.from_dict({"base": base, "axes": "w0"})

    def test_json_round_trip(self):
        grid = suite(
            "rt", scenario("counter", scale="tiny"),
            axes={"gating": (False, True), "w0": (2, 8)},
            description="round trip",
        )
        restored = ScenarioSuite.from_json(grid.to_json())
        assert restored.name == grid.name
        assert restored.axes == grid.axes
        assert [s.digest for s in restored.expand()] == [
            s.digest for s in grid.expand()
        ]


class TestRunner:
    def test_run_specs_orders_results(self):
        specs = [
            scenario("counter", scale="tiny", threads=2, gating=False),
            scenario("counter", scale="tiny", threads=2, gating=True),
        ]
        results = run_specs(specs, executor=Executor())
        assert [r.spec for r in results] == specs
        assert all(r.result.commits > 0 for r in results)

    def test_suite_through_cache_zero_reruns(self, tmp_path):
        grid = get_suite("smoke")
        first = run_suite(grid, executor=Executor(store=ResultStore(tmp_path)))
        assert first.report.executed == 3  # 4 scenarios, 1 deduplicated
        second = run_suite(grid, executor=Executor(store=ResultStore(tmp_path)))
        assert second.report.executed == 0
        assert second.report.cache_hits == 3
        assert [r.result for r in first.results] == [
            r.result for r in second.results
        ]

    def test_parallel_matches_serial(self, tmp_path):
        grid = get_suite("smoke")
        serial = run_suite(grid, executor=Executor(jobs=1))
        parallel = run_suite(grid, executor=Executor(jobs=2))
        assert [r.result for r in serial.results] == [
            r.result for r in parallel.results
        ]

    def test_paired_rows_cover_gated_specs(self):
        outcome = run_suite(get_suite("smoke"), executor=Executor())
        paired = outcome.paired_rows()
        gated = [r for r in outcome.results if r.spec.gating]
        assert len(paired) == len(gated)
        for row in paired:
            assert row[3] > 0  # speed-up factor present
        # the same three metrics the figure extractors read
        for row, (hit, baseline) in zip(paired, pair_results(outcome.results)):
            pair = GatingComparison(
                workload=hit.spec.workload, num_procs=hit.spec.threads,
                ungated=baseline.result, gated=hit.result,
            )
            assert row == (
                hit.spec.workload, hit.spec.threads, hit.spec.w0,
                round(pair.speedup, 3), round(pair.energy_reduction, 3),
                round(pair.power_reduction, 3),
            )

    def test_rows_shape(self):
        outcome = run_suite(get_suite("smoke"), executor=Executor())
        rows = outcome.rows()
        assert len(rows) == 4
        assert all(len(row) == len(outcome.ROW_HEADERS) for row in rows)


class TestPlan:
    def test_plan_without_store_is_all_misses(self):
        plan = plan_suite(get_suite("smoke"))
        assert plan.unique_jobs == 3  # 4 scenarios, ungated W0s collapse
        assert plan.total_scenarios == 4
        assert (plan.hits, plan.misses) == (0, 3)
        assert "0 hit(s), 3 miss(es)" in plan.summary()

    def test_plan_counts_store_traffic(self, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(get_suite("smoke"), executor=Executor(store=store))
        probe = ResultStore(tmp_path)
        plan = plan_suite(get_suite("smoke"), store=probe)
        assert (plan.hits, plan.misses) == (3, 0)
        # the documented accounting contract: `in` counts like get()
        assert (probe.hits, probe.misses) == (3, 0)

    def test_plan_to_dict_shape(self):
        data = plan_suite(get_suite("smoke")).to_dict()
        assert set(data) == {
            "suite", "total_scenarios", "unique_jobs", "hits", "misses",
            "entries",
        }
        assert data["suite"] == "smoke"
        assert data["unique_jobs"] == len(data["entries"])
        entry = data["entries"][0]
        assert set(entry) == {"digest", "cached", "scenarios", "label"}


class TestBuiltinSuites:
    def test_registry_contents(self):
        names = available_suites()
        for expected in ("paper-fig7", "paper-eval", "smoke",
                         "stamp-extended", "cm-shootout"):
            assert expected in names

    def test_unknown_suite(self):
        with pytest.raises(WorkloadError, match="unknown suite"):
            get_suite("paper-fig8")

    def test_every_builtin_expands_and_validates(self):
        for name in available_suites():
            grid = get_suite(name, scale="tiny")
            specs = grid.expand()
            assert len(specs) == grid.size

    def test_fig7_grid_shape(self):
        grid = get_suite("paper-fig7", scale="tiny")
        specs = grid.expand()
        assert len(specs) == 108  # 3 apps x 3 procs x 2 modes x 6 W0
        assert {s.workload for s in specs} == set(PAPER_APPS)
        # the exec layer collapses the grid to one baseline + 6 gated
        # runs per (app, procs) point
        assert len({s.to_job().digest for s in specs}) == 63

    def test_stamp_extended_covers_new_apps(self):
        specs = get_suite("stamp-extended", scale="tiny").expand()
        assert {s.workload for s in specs} == set(STAMP_APPS)

    def test_scale_override(self):
        assert all(
            s.scale == "medium"
            for s in get_suite("smoke", scale="medium").expand()
        )

    def test_eval_grid_runs_every_paper_app(self):
        from repro.figures.extract import comparisons_from_results
        from repro.figures.registry import eval_grid_suite
        from repro.figures.spec import FigureParams

        grid = eval_grid_suite(FigureParams(scale="tiny", procs=(2,), seed=4))
        specs = grid.expand()
        assert len(specs) == len(PAPER_APPS) * 1 * 2
        outcome = run_suite(grid, executor=Executor())
        comparisons = comparisons_from_results(outcome.results)
        for app in PAPER_APPS:
            assert comparisons[(app, 2)].speedup > 0


class TestSpecJson:
    """The docs/scenarios.md contract: plain JSON in, identical spec out."""

    def test_minimal_document(self):
        spec = ScenarioSpec.from_dict(json.loads('{"workload": "counter"}'))
        assert spec.scale == "small" and spec.threads == 4
        assert spec.gating is True and spec.cm == "gating-aware"

    def test_full_document(self):
        text = json.dumps({
            "workload": "labyrinth",
            "scale": "tiny",
            "threads": 8,
            "seed": 11,
            "params": {"paths_per_thread": 2},
            "gating": False,
            "w0": 4,
            "cm": "momentum",
            "system": {"directory.latency": 12},
        })
        spec = ScenarioSpec.from_dict(json.loads(text))
        assert spec.workload == "labyrinth"
        assert dict(spec.params) == {"paths_per_thread": 2}
        assert spec.system_config().directory.latency == 12
        assert spec.system_config().gating.contention_manager == "momentum"
