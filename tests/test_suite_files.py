"""User-defined ScenarioSuite JSON files: round-trip, loader, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.scenarios import ScenarioSpec, ScenarioSuite, load_suite_file, suite
from repro.scenarios.builtin import get_suite


def sample_suite() -> ScenarioSuite:
    return suite(
        "my-grid",
        ScenarioSpec(workload="counter", scale="tiny", seed=4, threads=2),
        axes={"gating": (False, True), "w0": (4, 16)},
        description="hand-written test grid",
    )


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        original = sample_suite()
        loaded = ScenarioSuite.from_json(original.to_json())
        assert loaded == original
        assert [s.digest for s in loaded.expand()] == [
            s.digest for s in original.expand()
        ]

    def test_file_round_trip(self, tmp_path):
        original = sample_suite()
        path = tmp_path / "grid.json"
        path.write_text(original.to_json(indent=2))
        loaded = load_suite_file(path)
        assert loaded == original
        assert loaded.size == 4

    def test_builtin_suites_survive_the_file_format(self, tmp_path):
        for name in ("smoke", "paper-eval"):
            original = get_suite(name, scale="tiny")
            path = tmp_path / f"{name}.json"
            path.write_text(original.to_json())
            loaded = load_suite_file(path)
            assert [s.digest for s in loaded.expand()] == [
                s.digest for s in original.expand()
            ]


class TestLoader:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read suite file"):
            load_suite_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(WorkloadError, match="not valid JSON"):
            load_suite_file(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(WorkloadError, match="JSON object"):
            load_suite_file(path)

    def test_unnamed_suite_takes_file_stem(self, tmp_path):
        data = sample_suite().to_dict()
        del data["name"]
        path = tmp_path / "stem-name.json"
        path.write_text(json.dumps(data))
        assert load_suite_file(path).name == "stem-name"

    def test_bad_axis_values_rejected(self, tmp_path):
        data = sample_suite().to_dict()
        data["axes"] = [["w0", "oops"]]
        path = tmp_path / "bad-axis.json"
        path.write_text(json.dumps(data))
        with pytest.raises(WorkloadError, match="must be a list"):
            load_suite_file(path)


    @pytest.mark.parametrize("data, match", [
        ({"base": {"workload": "counter", "params": ["increments", 5]}},
         "scenario field 'params' expects an object, got list"),
        ({"base": {"workload": "counter", "system": "memory.latency"}},
         "scenario field 'system' expects an object, got str"),
        ({"base": "counter"},
         "suite field 'base' expects an object, got str"),
        ({"specs": [{"workload": "counter"}]},
         "suite is missing its base scenario"),
    ], ids=["params-list", "system-str", "base-str", "specs-no-base"])
    def test_malformed_fields_rejected(self, tmp_path, data, match):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        with pytest.raises(WorkloadError, match=match):
            load_suite_file(path)


class TestCli:
    def test_suite_run_from_file(self, capsys, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(sample_suite().to_json())
        assert main(["suite", "run", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "suite my-grid — 4 scenario(s)" in out
        assert "gated vs ungated pairs" in out

    def test_suite_describe_from_file(self, capsys, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(sample_suite().to_json())
        assert main(["suite", "describe", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "axis gating" in out
        assert "expands to 4 scenario(s)" in out

    def test_file_and_suite_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "suite", "run", "--suite", "smoke",
                "--file", str(tmp_path / "x.json"),
            ])

    def test_scale_override_applies_to_file_suite(self, capsys, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(sample_suite().to_json())
        assert main([
            "suite", "describe", "--file", str(path), "--scale", "small",
        ]) == 0
        assert "counter[small]" in capsys.readouterr().out

    def test_seed_zero_override_applies_to_file_suite(self, capsys, tmp_path):
        # the sample suite's base seed is 4; --seed 0 must reset it
        path = tmp_path / "mini.json"
        path.write_text(sample_suite().to_json())
        assert main([
            "suite", "describe", "--file", str(path), "--seed", "0", "--json",
        ]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert {spec["seed"] for spec in specs} == {0}

    def test_no_seed_keeps_file_suite_seed(self, capsys, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(sample_suite().to_json())
        assert main([
            "suite", "describe", "--file", str(path), "--json",
        ]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert {spec["seed"] for spec in specs} == {4}
