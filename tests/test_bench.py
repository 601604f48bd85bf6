"""The repro.bench subsystem: timing discipline, benches, reports, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    available_benchmarks,
    bench_payload,
    compare_payloads,
    load_bench_json,
    run_benchmarks,
    run_timed,
    write_bench_json,
)
from repro.bench.core import BenchResult
from repro.cli import main
from repro.errors import BenchmarkError


class TestRunTimed:
    def test_warmup_and_repeats_discipline(self):
        calls = []

        def fn():
            calls.append(1)
            return 10

        result = run_timed(fn, name="t", unit="ops", repeats=3, warmup=2)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert result.repeats == 3
        assert result.warmup == 2
        assert result.units_per_repeat == 10
        assert result.best_seconds <= result.mean_seconds + 1e-12
        assert result.units_per_second > 0

    def test_rejects_variable_work(self):
        counts = iter([5, 6, 7])
        with pytest.raises(BenchmarkError, match="fixed work"):
            run_timed(lambda: next(counts), name="t", unit="ops",
                      repeats=3, warmup=0)

    def test_rejects_bad_unit_count(self):
        with pytest.raises(BenchmarkError, match="positive unit count"):
            run_timed(lambda: 0, name="t", unit="ops", repeats=1, warmup=0)

    def test_rejects_bad_config(self):
        with pytest.raises(BenchmarkError):
            run_timed(lambda: 1, name="t", unit="ops", repeats=0)
        with pytest.raises(BenchmarkError):
            run_timed(lambda: 1, name="t", unit="ops", repeats=1, warmup=-1)

    def test_result_round_trips(self):
        result = run_timed(lambda: 7, name="t", unit="ops", repeats=2,
                           warmup=0, meta={"k": 1})
        assert BenchResult.from_dict(result.to_dict()) == result


class TestBenchmarks:
    def test_registry_names(self):
        names = available_benchmarks()
        assert "bench_engine" in names
        assert "bench_cache" in names
        assert "bench_e2e_suite" in names

    def test_unknown_name_rejected(self):
        with pytest.raises(BenchmarkError, match="unknown benchmark"):
            run_benchmarks(names=["bench_nope"], check=True)

    def test_check_mode_runs_everything(self):
        results = run_benchmarks(check=True, repeats=1, warmup=0)
        assert [r.name for r in results] == available_benchmarks()
        for r in results:
            assert r.units_per_second > 0
            assert r.meta.get("check") is True

    def test_e2e_suite_counts_cold_executions(self):
        (result,) = run_benchmarks(
            names=["bench_e2e_suite"], check=True
        )
        # the smoke suite dedups 4 scenarios to 3 unique jobs, and the
        # cold-cache contract means all 3 actually execute
        assert result.units_per_repeat == 3
        assert result.unit == "sims"


class TestReports:
    def test_payload_and_comparison(self, tmp_path):
        results = run_benchmarks(names=["bench_cache"], check=True,
                                 repeats=1, warmup=0)
        before = bench_payload(results, label="before")
        after = bench_payload(results, label="after")
        comparison = compare_payloads(before, after)
        assert comparison["kind"] == "comparison"
        assert comparison["speedup"]["bench_cache"] == pytest.approx(1.0)

        path = write_bench_json(tmp_path / "BENCH_test.json", comparison)
        loaded = load_bench_json(path)
        assert loaded["speedup"] == comparison["speedup"]

    def test_comparison_rejects_non_bench(self):
        with pytest.raises(BenchmarkError, match="not a bench session"):
            compare_payloads({"kind": "comparison"}, {"kind": "bench"})

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json")
        with pytest.raises(BenchmarkError):
            load_bench_json(path)


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "bench_engine" in out

    def test_check_run_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_ci.json"
        code = main([
            "bench", "--check", "--bench", "bench_cache",
            "--repeats", "1", "--warmup", "0", "--out", str(out_path),
            "--label", "ci",
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "bench"
        assert payload["label"] == "ci"
        assert "bench_cache" in payload["benchmarks"]
        assert "bench_cache" in capsys.readouterr().out

    def test_baseline_comparison(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        out_path = tmp_path / "BENCH_cmp.json"
        assert main([
            "bench", "--check", "--bench", "bench_cache",
            "--repeats", "1", "--warmup", "0", "--out", str(base),
        ]) == 0
        assert main([
            "bench", "--check", "--bench", "bench_cache",
            "--repeats", "1", "--warmup", "0",
            "--baseline", str(base), "--out", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "comparison"
        assert "bench_cache" in payload["speedup"]
        assert "vs baseline" in capsys.readouterr().out


class TestRegressionGate:
    """`repro bench --compare` — the CI gate against a committed baseline."""

    @staticmethod
    def _payload(rates: dict[str, float]) -> dict:
        return {
            "schema": 1,
            "kind": "bench",
            "benchmarks": {
                name: {"name": name, "unit": "units",
                       "units_per_second": rate}
                for name, rate in rates.items()
            },
        }

    def test_pass_within_threshold(self):
        from repro.bench import regression_failures

        baseline = self._payload({"a": 100.0, "b": 200.0})
        current = self._payload({"a": 80.0, "b": 210.0})
        assert regression_failures(baseline, current,
                                   max_regression_pct=25.0) == []

    def test_fail_beyond_threshold(self):
        from repro.bench import regression_failures

        baseline = self._payload({"a": 100.0, "b": 200.0})
        current = self._payload({"a": 70.0, "b": 210.0})
        failures = regression_failures(baseline, current,
                                       max_regression_pct=25.0)
        assert len(failures) == 1
        assert failures[0].startswith("a:")
        assert "0.70x" in failures[0]

    def test_new_and_retired_benchmarks_are_ignored(self):
        from repro.bench import regression_failures

        baseline = self._payload({"a": 100.0, "gone": 50.0})
        current = self._payload({"a": 100.0, "new": 1.0})
        assert regression_failures(baseline, current) == []

    def test_threshold_validation(self):
        from repro.bench import regression_failures

        with pytest.raises(BenchmarkError, match="max_regression_pct"):
            regression_failures(self._payload({}), self._payload({}),
                                max_regression_pct=100.0)

    def test_cli_gate_passes_against_own_baseline(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        assert main([
            "bench", "--check", "--bench", "bench_cache",
            "--repeats", "1", "--warmup", "0", "--out", str(base),
        ]) == 0
        capsys.readouterr()
        # generous threshold: the same bench re-run cannot drop by 95%
        assert main([
            "bench", "--check", "--bench", "bench_cache",
            "--repeats", "1", "--warmup", "0",
            "--compare", str(base), "--max-regression", "95",
        ]) == 0
        assert "bench gate OK" in capsys.readouterr().out

    def test_cli_bare_compare_is_a_usage_error(self, capsys):
        # the gate needs its baseline named: no bench runs without one
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--check", "--bench", "bench_cache", "--compare"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--compare: expected one argument" in captured.err
        assert "running bench_cache" not in captured.err

    def test_cli_gate_fails_on_regression(self, capsys, tmp_path):
        import json as _json

        base = tmp_path / "base.json"
        assert main([
            "bench", "--check", "--bench", "bench_cache",
            "--repeats", "1", "--warmup", "0", "--out", str(base),
        ]) == 0
        # forge an impossible baseline: current run must look regressed
        payload = _json.loads(base.read_text())
        for entry in payload["benchmarks"].values():
            entry["units_per_second"] *= 1e9
        base.write_text(_json.dumps(payload))
        capsys.readouterr()
        code = main([
            "bench", "--check", "--bench", "bench_cache",
            "--repeats", "1", "--warmup", "0", "--compare", str(base),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "REGRESSION bench_cache" in err
        assert "bench gate FAILED" in err
