"""CLI surface: every subcommand runs and prints what it promises."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def fill_store(capsys, cache_dir) -> None:
    """3 cached counter runs: 1 shared ungated baseline + 2 gated."""
    run_cli(capsys, "suite", "run", "--suite", "smoke",
            "--cache-dir", str(cache_dir))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_list(self, capsys):
        out = run_cli(capsys, "list")
        assert "intruder" in out
        assert "labyrinth" in out
        assert "gating-aware" in out
        assert "momentum" in out
        assert "paper-fig7" in out

    def test_run(self, capsys):
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--seed", "3",
        )
        assert "Run report — counter" in out
        assert "gating:" in out

    def test_run_ungated_with_serial_check(self, capsys):
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--no-gating", "--check-serial",
        )
        assert "ungated" in out
        assert "serializability: OK" in out

    def test_run_csv_export(self, capsys, tmp_path):
        path = tmp_path / "timelines.csv"
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--csv-timelines", str(path),
        )
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "proc,start,end,state"
        assert str(path) in out

    def test_compare(self, capsys):
        out = run_cli(
            capsys, "compare", "counter", "--scale", "tiny", "--procs", "2",
        )
        assert "Eq. 6" in out
        assert "speed-up" in out

    def test_momentum_cm_via_cli(self, capsys):
        out = run_cli(
            capsys, "run", "counter", "--scale", "tiny", "--procs", "2",
            "--cm", "momentum",
        )
        assert "Run report" in out


class TestExecFlags:
    def test_sweep_parallel_matches_serial(self, capsys):
        # the smoke suite is a one-point W0 sweep (W0 = 2, 8)
        argv = ("suite", "run", "--suite", "smoke")
        serial = run_cli(capsys, *argv, "--jobs", "1")
        parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert parallel == serial

    def test_no_cache_flag_re_executes(self, capsys, tmp_path):
        argv = ("compare", "counter", "--scale", "tiny", "--procs", "2",
                "--cache-dir", str(tmp_path))
        run_cli(capsys, *argv)
        assert main([*argv, "--no-cache", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "Eq. 6" in captured.out
        assert "executed 2" in captured.err

    def test_exec_status(self, capsys, tmp_path):
        fill_store(capsys, tmp_path)
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--verbose")
        assert "3 entries" in out
        assert "counter: 3 cached run(s)" in out
        assert "ungated" in out

    def test_exec_status_empty_store(self, capsys, tmp_path):
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path))
        assert "0 entries" in out

    def test_exec_status_missing_dir_is_an_error(self, capsys, tmp_path):
        missing = tmp_path / "typo-cahce"
        assert main(["exec-status", "--cache-dir", str(missing)]) == 2
        assert "repro: error: no result store" in capsys.readouterr().err
        assert not missing.exists()

    def test_exec_status_prune(self, capsys, tmp_path):
        from repro.exec.store import ResultStore

        fill_store(capsys, tmp_path)
        store = ResultStore(tmp_path)
        victim = next(digest for digest, _label in store.labels())
        store.invalidate(victim)
        size_before = store.path.stat().st_size
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune")
        assert "pruned 2 dead line(s)" in out  # dead record + tombstone
        assert "2 entries" in out
        assert store.path.stat().st_size < size_before

    def test_exec_status_prune_is_idempotent(self, capsys, tmp_path):
        run_cli(
            capsys, "compare", "counter", "--scale", "tiny", "--procs", "2",
            "--cache-dir", str(tmp_path),
        )
        first = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                        "--prune")
        second = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                         "--prune")
        assert "pruned 0 dead line(s)" in second
        assert "2 entries" in first and "2 entries" in second


class TestSuiteCommands:
    def test_suite_list(self, capsys):
        out = run_cli(capsys, "suite", "list")
        for name in ("paper-fig7", "paper-eval", "smoke", "stamp-extended"):
            assert name in out

    def test_suite_describe(self, capsys):
        out = run_cli(capsys, "suite", "describe", "--suite", "smoke")
        assert "expands to 4 scenario(s)" in out
        assert "unique jobs after dedup: 3" in out
        assert "counter[tiny]" in out

    def test_suite_describe_json(self, capsys):
        import json

        out = run_cli(capsys, "suite", "describe", "--suite", "smoke",
                      "--json")
        specs = json.loads(out)
        assert len(specs) == 4
        assert all(spec["workload"] == "counter" for spec in specs)
        from repro.scenarios import ScenarioSpec

        restored = [ScenarioSpec.from_dict(spec) for spec in specs]
        assert len({spec.digest for spec in restored}) == 4

    def test_suite_describe_scale_override(self, capsys):
        out = run_cli(capsys, "suite", "describe", "--suite", "smoke",
                      "--scale", "small")
        assert "counter[small]" in out

    def test_suite_run_cached_second_pass_zero_sims(self, capsys, tmp_path):
        argv = ("suite", "run", "--suite", "smoke", "--jobs", "2",
                "--cache-dir", str(tmp_path), "--progress")
        first = run_cli(capsys, *argv)
        assert "suite smoke — 4 scenario(s)" in first
        assert "gated vs ungated pairs" in first
        code = main(list(argv))
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == first  # bit-identical results from cache
        assert "executed 0 of 4 submitted" in captured.err
        assert "3 cache hit(s)" in captured.err

    def test_suite_plan_after_run(self, capsys, tmp_path):
        import json

        out = run_cli(capsys, "suite", "plan", "--suite", "smoke",
                      "--cache-dir", str(tmp_path), "--json")
        assert json.loads(out)["misses"] == 3
        fill_store(capsys, tmp_path)
        out = run_cli(capsys, "suite", "plan", "--suite", "smoke",
                      "--cache-dir", str(tmp_path))
        assert "3 hit(s), 0 miss(es)" in out

    def test_exec_status_digests(self, capsys, tmp_path):
        fill_store(capsys, tmp_path)
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--digests")
        digests = out.split()
        assert len(digests) == 3
        assert digests == sorted(digests)
        assert all(len(d) == 64 for d in digests)

    def test_suite_unknown_name(self, capsys):
        assert main(["suite", "run", "--suite", "paper-fig9"]) == 2
        assert "unknown suite 'paper-fig9'" in capsys.readouterr().err


class TestExecStatusGc:
    """`exec-status --prune --older-than/--label` — store GC policies."""

    def _seed(self, capsys, tmp_path):
        fill_store(capsys, tmp_path)

    def test_label_gc(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)  # 3 entries: 1 ungated + 2 gated
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune", "--label", "ungated")
        assert "1 expired by policy" in out
        assert "2 entries" in out

    def test_age_gc_keeps_fresh_entries(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune", "--older-than", "30")
        assert "expired by policy" not in out
        assert "3 entries" in out

    def test_age_gc_expires_old_entries(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune", "--older-than", "0")
        assert "3 expired by policy" in out
        assert "0 entries" in out

    def test_gc_flags_require_prune(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)
        assert main(["exec-status", "--cache-dir", str(tmp_path),
                     "--older-than", "30"]) == 2
        assert "add --prune" in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["-1", "nan"])
    def test_negative_or_nan_age_is_rejected(self, capsys, tmp_path, days):
        self._seed(capsys, tmp_path)
        assert main(["exec-status", "--cache-dir", str(tmp_path),
                     "--prune", "--older-than", days]) == 2
        assert "--older-than must be >= 0" in capsys.readouterr().err
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path))
        assert "3 entries" in out

    def test_prune_runs_before_digests_print(self, capsys, tmp_path):
        self._seed(capsys, tmp_path)
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path),
                      "--prune", "--older-than", "0", "--digests")
        assert out == ""
        out = run_cli(capsys, "exec-status", "--cache-dir", str(tmp_path))
        assert "0 entries" in out


class TestErrorBoundary:
    """Bad input exits 2 with one ``repro: error:`` line; a simulator
    failure keeps its traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["run", "nope"], "unknown workload 'nope'"),
        (["run", "counter", "--procs", "0"], "num_procs must be in"),
        (["run", "counter", "--cm", "nope"], "unknown contention manager"),
        (["run", "counter", "--w0", "-1"], "W0 must be at least 1"),
        (["compare", "counter", "--jobs", "-2"], "cannot be negative: -2"),
        (["suite", "run", "--file", "{tmp}/missing.json"],
         "cannot read suite file"),
        (["suite", "describe", "--suite", "nope"], "unknown suite 'nope'"),
        (["figures", "build", "--only", "nope"], "unknown figure(s): nope"),
        (["obs", "show", "--obs-dir", "{tmp}"],
         "no observability runs found"),
        (["exec-status", "--cache-dir", "{tmp}/missing"],
         "no result store at"),
        (["exec-status", "--cache-dir", "{tmp}", "--older-than", "30"],
         "add --prune to apply them"),
        (["exec-status", "--cache-dir", "{tmp}", "--prune", "--older-than",
          "-1"], "--older-than must be >= 0 days"),
    ], ids=["workload", "procs", "cm", "w0", "jobs", "suite-file", "suite",
            "figure", "obs-runs", "store-missing", "gc-without-prune",
            "negative-age"])
    def test_bad_input_is_one_line_and_exit_2(
        self, capsys, tmp_path, argv, message
    ):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    def test_simulation_error_keeps_its_traceback(self, monkeypatch):
        from repro import cli
        from repro.errors import DeadlockError

        def deadlock(args):
            raise DeadlockError("event queue drained")

        monkeypatch.setitem(cli._COMMANDS, "run", deadlock)
        with pytest.raises(DeadlockError, match="event queue drained"):
            main(["run", "counter"])
