"""Analysis subpackage: conflict statistics, gating episodes, exports;
and the source rules of tests/test_source_rules.py."""

from __future__ import annotations

import ast
import csv
import io
import textwrap

import pytest

from repro.analysis.conflicts import conflict_stats
from repro.analysis.gating import extract_episodes, gating_summary
from repro.analysis.runreport import run_report
from repro.analysis.timelines import state_shares, timelines_to_csv
from repro.config import SystemConfig
from repro.harness.runner import run_workload, workload
from repro.power.states import ProcState
from repro.sim.trace import TraceRecorder

from .test_source_rules import (
    CHECKS,
    STORE_MODULE,
    lock_balance,
    source_trees,
    store_access,
    untyped_def,
)


@pytest.fixture(scope="module")
def traced_run():
    trace = TraceRecorder(kinds=("tx", "gate"))
    result = run_workload(
        workload("counter", scale="tiny", seed=9),
        SystemConfig(num_procs=4, seed=9),
        trace=trace,
    )
    return result, trace


@pytest.fixture(scope="module")
def quiet_run():
    """Zero-conflict run: analysis must degrade gracefully."""
    trace = TraceRecorder(kinds=("tx", "gate"))
    result = run_workload(
        workload("array_walk", scale="tiny", seed=9),
        SystemConfig(num_procs=2, seed=9),
        trace=trace,
    )
    return result, trace


class TestAbortGraph:
    """Who aborted whom: the aborter->victim edges of
    ``ConflictStats.pair_counts`` and the self-abort tally."""

    def test_graph_structure(self, traced_run):
        _, trace = traced_run
        stats = conflict_stats(trace)
        named = [e for e in trace.events("tx.abort")
                 if e.payload.get("aborter") is not None]
        assert sum(stats.pair_counts.values()) == len(named) > 0

    def test_empty_graph_for_quiet_run(self, quiet_run):
        _, trace = quiet_run
        assert conflict_stats(trace).pair_counts == {}

    def test_reciprocity_metric(self):
        """Reciprocity counts mutual abort pairs (synthetic trace)."""
        trace = TraceRecorder()
        trace.emit(1, "tx.abort", proc=1, aborter=0, cause="conflict", site="s")
        trace.emit(2, "tx.abort", proc=0, aborter=1, cause="conflict", site="s")
        trace.emit(3, "tx.abort", proc=2, aborter=0, cause="conflict", site="s")
        stats = conflict_stats(trace)
        # pairs: (0,1) and (1,0) mutual; (0,2) one-way -> 2 of 3
        assert stats.reciprocity() == pytest.approx(2 / 3)

    def test_self_abort_recorded_on_node(self):
        trace = TraceRecorder()
        trace.emit(1, "tx.abort", proc=3, aborter=None, cause="self", site="s")
        stats = conflict_stats(trace)
        assert stats.self_aborts == 1
        assert stats.pair_counts == {}


class TestConflictStats:
    def test_totals_match_counters(self, traced_run):
        result, trace = traced_run
        stats = conflict_stats(trace)
        assert stats.total_aborts == result.aborts
        assert stats.conflict_aborts == result.counters.get(
            "tx.aborts.conflict", 0
        )
        assert stats.self_aborts == result.counters.get("tx.aborts.self", 0)

    def test_hottest_site(self, traced_run):
        _, trace = traced_run
        stats = conflict_stats(trace)
        assert stats.hottest_site == "counter.inc"
        assert stats.pair_counts

    def test_empty_stats(self, quiet_run):
        _, trace = quiet_run
        stats = conflict_stats(trace)
        assert stats.total_aborts == 0
        assert stats.hottest_site is None
        assert stats.pair_counts == {}
        assert stats.reciprocity() == 0.0


class TestGatingEpisodes:
    def test_episodes_match_counters(self, traced_run):
        result, trace = traced_run
        episodes = extract_episodes(trace)
        assert len(episodes) == result.counters.get("gating.gated", 0)
        completed = [e for e in episodes if e.end is not None]
        assert len(completed) == result.counters.get("gating.wakeups", 0)
        for episode in completed:
            assert episode.duration > 0

    def test_summary(self, traced_run):
        result, trace = traced_run
        summary = gating_summary(trace)
        assert summary.episodes == result.counters.get("gating.gated", 0)
        assert summary.total_gated_cycles > 0
        assert summary.mean_duration > 0
        assert summary.max_duration >= summary.mean_duration
        assert sum(summary.turn_on_reasons.values()) >= summary.completed

    def test_renewals_attributed(self, traced_run):
        result, trace = traced_run
        summary = gating_summary(trace)
        if result.counters.get("gating.renewals", 0) > 0:
            assert summary.episodes_with_renewal > 0
            assert summary.max_renewals >= 1


class TestTimelineExports:
    def test_state_shares_sum_to_one(self, traced_run):
        result, _ = traced_run
        window = (
            result.machine_result.parallel_start,
            result.machine_result.parallel_end,
        )
        shares = state_shares(result.machine_result.timelines, window)
        for proc, by_state in shares.items():
            assert sum(by_state.values()) == pytest.approx(1.0)
            assert set(by_state) == set(ProcState)

    def test_csv_roundtrip(self, traced_run):
        result, _ = traced_run
        text = timelines_to_csv(result.machine_result.timelines)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows
        assert set(rows[0]) == {"proc", "start", "end", "state"}
        # segments per proc tile contiguously
        by_proc: dict[str, list[dict]] = {}
        for row in rows:
            by_proc.setdefault(row["proc"], []).append(row)
        for segments in by_proc.values():
            for a, b in zip(segments, segments[1:]):
                assert int(a["end"]) == int(b["start"])

    def test_csv_windowed(self, traced_run):
        result, _ = traced_run
        window = (
            result.machine_result.parallel_start,
            result.machine_result.parallel_end,
        )
        text = timelines_to_csv(result.machine_result.timelines, window)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert min(int(r["start"]) for r in rows) == window[0]
        assert max(int(r["end"]) for r in rows) == window[1]


class TestRunReport:
    def test_report_sections(self, traced_run):
        result, trace = traced_run
        text = run_report(result, trace)
        assert "Run report — counter" in text
        assert "state shares" in text
        assert "gating:" in text
        assert "wake-up reasons" in text

    def test_report_without_trace(self, traced_run):
        result, _ = traced_run
        text = run_report(result)
        assert "Run report" in text
        assert "gating:" not in text  # trace-derived sections absent

    def test_report_ungated(self):
        trace = TraceRecorder(kinds=("tx", "gate"))
        result = run_workload(
            workload("counter", scale="tiny", seed=9),
            SystemConfig(num_procs=2, seed=9).with_gating(False),
            trace=trace,
        )
        text = run_report(result, trace)
        assert "ungated" in text
        assert "conflicts:" in text


# ======================================================================
# the source rules (tests/test_source_rules.py)
# ======================================================================
def _rule_ids(check, relpath, source):
    """The rule id of each finding ``check`` reports for ``source``
    placed at ``relpath``."""
    findings = check(relpath, ast.parse(textwrap.dedent(source)))
    return [finding.split()[1] for finding in findings]


class TestDigestAndStoreRules:
    STORE_READ = """\
        from pathlib import Path

        def peek(d: Path) -> str:
            with open(d / "results.jsonl") as fh:
                fh.read()
            return (d / "results.jsonl").read_text()
        """

    def test_sto201_flags_direct_store_access(self):
        assert _rule_ids(store_access, "src/repro/cli.py",
                         self.STORE_READ) == ["STO201", "STO201"]

    def test_sto201_exempts_store_module(self):
        assert _rule_ids(store_access, STORE_MODULE, self.STORE_READ) == []

    def test_sto202_flags_unbalanced_flock(self):
        """The release after ``yield`` is skipped when the body raises."""
        assert _rule_ids(lock_balance, STORE_MODULE, """\
            def locked(fh):
                fcntl.flock(fh, fcntl.LOCK_EX)
                yield
                fcntl.flock(fh, fcntl.LOCK_UN)
            """) == ["STO202"]

    def test_sto202_allows_try_finally_release(self):
        assert _rule_ids(lock_balance, STORE_MODULE, """\
            def locked(fh):
                fcntl.flock(fh, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(fh, fcntl.LOCK_UN)
            """) == []


class TestTypedCoreRule:
    def test_typ501_flags_unannotated_def_in_typed_core(self):
        findings = untyped_def(STORE_MODULE, ast.parse(
            "def _line(record):\n    return record\n"))
        assert [finding.split()[1] for finding in findings] == ["TYP501"]
        assert "record, return" in findings[0]

    def test_typ501_skips_self_and_core_packages(self):
        assert _rule_ids(untyped_def, STORE_MODULE, """\
            class C:
                def line(self, x: int) -> int:
                    return x
            """) == []
        assert _rule_ids(untyped_def, "src/repro/sim/engine.py",
                         "def f(x):\n    return x\n") == []


class TestCheckCli:
    def test_tree_is_clean_at_head(self):
        """Every source rule over src, tests and scripts, each file
        parsed once; a finding names its rule, file and line."""
        trees = source_trees()
        assert [finding for relpath, tree in trees.items()
                for check in CHECKS for finding in check(relpath, tree)] == []
