"""The gain verdict of ``scripts/bench_pairs.py`` on synthetic results,
and the copy of the change it runs from.

No benchmark runs here: each pair is two hand-made closing JSON lines
of ``paperbench/run.py``.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_pairs  # dataclasses look it up by name
_spec.loader.exec_module(bench_pairs)


def result(value, metric="ops_per_s", correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {metric: {"value": value, "unit": "1/s"}}}


def pairs_of(parent, change, metric="ops_per_s"):
    return [(result(p, metric), result(c, metric))
            for p, c in zip(parent, change)]


#: ten parent runs: median 10.45; quartiles 10.175 and 10.725 by
#: ``statistics.quantiles``' default (exclusive) method
PARENT = [10.0, 10.2, 10.4, 10.1, 10.6, 10.3, 10.9, 10.5, 10.8, 10.7]


class TestVerdict:
    def test_nine_of_ten_wins_and_a_gap_beyond_the_spread_hold(self):
        change = [p + 2.0 for p in PARENT]
        change[3] = PARENT[3] - 0.1  # one loss
        outcome = bench_pairs.verdict("ops_per_s", "higher",
                                      pairs_of(PARENT, change))
        assert (outcome.wins, outcome.pairs) == (9, 10)
        assert outcome.spread == pytest.approx(10.725 - 10.175)
        assert outcome.gain > outcome.spread
        assert outcome.holds
        assert outcome.line().endswith(": HOLDS")

    def test_eight_of_ten_wins_do_not_hold(self):
        change = [p + 2.0 for p in PARENT]
        change[0] = change[1] = 9.0
        outcome = bench_pairs.verdict("ops_per_s", "higher",
                                      pairs_of(PARENT, change))
        assert outcome.wins == 8
        assert not outcome.holds

    def test_ties_count_for_neither_side(self):
        change = [p + 2.0 for p in PARENT]
        change[5] = PARENT[5]
        outcome = bench_pairs.verdict("ops_per_s", "higher",
                                      pairs_of(PARENT, change))
        assert outcome.wins == 9
        assert outcome.holds

    def test_every_win_inside_the_parent_spread_does_not_hold(self):
        change = [p + 0.4 for p in PARENT]  # 0.4 < spread 0.55
        outcome = bench_pairs.verdict("ops_per_s", "higher",
                                      pairs_of(PARENT, change))
        assert outcome.wins == 10
        assert outcome.gain == pytest.approx(0.4)
        assert not outcome.holds

    def test_lower_is_better_metrics_count_falls_as_gains(self):
        change = [p - 2.0 for p in PARENT]
        outcome = bench_pairs.verdict("op_p50_ms", "lower",
                                      pairs_of(PARENT, change, "op_p50_ms"))
        assert outcome.wins == 10
        assert outcome.gain == pytest.approx(2.0)
        assert outcome.holds
        worse = bench_pairs.verdict("op_p50_ms", "lower",
                                    pairs_of(change, PARENT, "op_p50_ms"))
        assert worse.wins == 0
        assert not worse.holds

    @pytest.mark.parametrize("bad", [
        {"correct": False}, {"failed": 1}, {"failed": None},
    ])
    def test_a_failed_run_fails_the_verdict(self, bad):
        runs = pairs_of(PARENT, [p + 2.0 for p in PARENT])
        parent, _change = runs[4]
        runs[4] = (parent, result(12.0, **bad))
        outcome = bench_pairs.verdict("ops_per_s", "higher", runs)
        assert outcome.failed_runs == 1
        assert outcome.wins == 10
        assert not outcome.holds
        report = "\n".join(bench_pairs.report(
            "figures-warm", runs, {"ops_per_s": "higher"}))
        assert "FAILED pair 4 change" in report

    def test_a_run_that_did_not_complete_has_no_values(self):
        crashed = {"correct": False, "failed": None, "metrics": {},
                   "error": "exit 1: Traceback"}
        runs = [(result(10.0), crashed)]
        outcome = bench_pairs.verdict("ops_per_s", "higher", runs)
        assert (outcome.wins, outcome.pairs, outcome.failed_runs) == (0, 1, 1)
        assert not outcome.holds
        report = "\n".join(bench_pairs.report(
            "figures-warm", runs, {"ops_per_s": "higher"}))
        assert "FAILED pair 0 change: exit 1: Traceback" in report
        assert "10 / -" in report

    def test_peak_rss_pairs_show_each_runs_attempted_ops(self):
        parent = {**result(52.1, "peak_rss_mb"), "attempted": 1512}
        change = {**result(52.5, "peak_rss_mb"), "attempted": 2016}
        crashed = {"correct": False, "failed": None, "metrics": {}}
        report = bench_pairs.report(
            "seeds-pool", [(parent, change), (parent, crashed)],
            {"peak_rss_mb": "lower", "ops_per_s": "higher"})
        assert ("  peak_rss_mb per pair (parent / change): "
                "52.1 (1512 ops) / 52.5 (2016 ops), "
                "52.1 (1512 ops) / - (- ops)") in report
        assert "  ops_per_s per pair (parent / change): - / -, - / -" in report


def git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=bench", "-c",
         "user.email=bench@example.invalid", "-c", "commit.gpgsign=false",
         *args],
        check=True, capture_output=True,
    )


class TestCopyWorktree:
    def test_copies_what_git_lists_and_what_exists(self, tmp_path):
        repo = tmp_path / "repo"
        (repo / "src").mkdir(parents=True)
        (repo / ".gitignore").write_text("ignored.txt\n")
        (repo / "src" / "tracked.py").write_text("old\n")
        (repo / "gone.txt").write_text("deleted later\n")
        git(repo, "init", "-q")
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", "base")
        (repo / "src" / "tracked.py").write_text("edited\n")
        (repo / "src" / "untracked.py").write_text("new\n")
        (repo / "ignored.txt").write_text("build output\n")
        (repo / "gone.txt").unlink()

        into = tmp_path / "change"
        into.mkdir()
        assert bench_pairs.copy_worktree(repo, into) == into
        copied = sorted(str(p.relative_to(into)) for p in into.rglob("*")
                        if p.is_file())
        assert copied == [".gitignore", "src/tracked.py", "src/untracked.py"]
        assert (into / "src" / "tracked.py").read_text() == "edited\n"
