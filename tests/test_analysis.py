"""Analysis subpackage: conflict statistics, gating episodes, exports."""

from __future__ import annotations

import csv
import io

import pytest

from repro.analysis.conflicts import conflict_stats
from repro.analysis.gating import extract_episodes, gating_summary
from repro.analysis.runreport import run_report
from repro.analysis.timelines import state_shares, timelines_to_csv
from repro.config import SystemConfig
from repro.harness.runner import run_workload, workload
from repro.power.states import ProcState
from repro.sim.trace import TraceRecorder


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
# the `repro check` lint engine (repro.analysis.lint / .rules)
# ======================================================================
import json
import textwrap
from pathlib import Path

from repro.analysis.lint import (
    check_source,
    registered_rules,
    render_json,
    run_check,
)


def _check(source, module="sim/example.py", select=None):
    """Run the registered rules over one in-memory module.

    ``module`` is the virtual location below ``src/repro/`` (or any
    non-package path like ``tests/foo.py``), which is what the
    package-scoped rules key on.
    """
    if "/" in module and not module.startswith(("tests/", "scripts/")):
        path = Path("src/repro") / module
    else:
        path = Path(module)
    rules = registered_rules()
    if select:
        rules = [r for r in rules if r.id in select or r.name in select]
    findings, suppressed, errors = check_source(
        textwrap.dedent(source), path, rules
    )
    assert not errors, errors
    return findings, suppressed


def _rule_ids(findings):
    return [f.rule for f in findings]


#: every registered rule, in id order (docs/static-analysis.md, "Why
#: each rule stays, or went")
KEPT_RULES = ["DIG103", "STO201", "STO202", "TYP501"]

#: one STO201 finding, at line 2 (plus a TYP501 one inside the typed core)
BAD_STORE_READ = "def f(d):\n    return open(d + '/results.jsonl').read()\n"


class TestLintEngine:
    def test_registry_has_first_class_rule_set(self):
        assert [rule.id for rule in registered_rules()] == KEPT_RULES
        for rule in registered_rules():
            assert rule.name and rule.rationale

    def test_trailing_suppression(self):
        findings, suppressed = _check(
            """\
            def peek():
                return open("results.jsonl").read()  # repro: allow[STO201]
            """
        )
        assert findings == []
        assert suppressed == 1

    def test_comment_block_suppression_above(self):
        findings, suppressed = _check(
            """\
            def peek():
                # justified: example fixture
                # repro: allow[store-access]
                return open("results.jsonl").read()
            """
        )
        assert findings == []
        assert suppressed == 1

    def test_star_suppression_and_unknown_id(self):
        findings, suppressed = _check(
            """\
            def peek():
                return open("results.jsonl").read()  # repro: allow[*]

            x = 1  # repro: allow[NOPE999]
            """
        )
        assert suppressed == 1
        assert _rule_ids(findings) == ["SUPP"]
        assert "NOPE999" in findings[0].message

    def test_suppression_in_docstring_is_inert(self):
        findings, _ = _check(
            '''\
            def doc():
                """Mentions # repro: allow[NOPE999] in prose only."""
                return 1
            '''
        )
        assert findings == []

    def test_parse_error_is_reported_not_raised(self):
        findings, suppressed, errors = check_source(
            "def broken(:\n", Path("src/repro/sim/x.py"), registered_rules()
        )
        assert findings == [] and suppressed == 0
        assert [e.rule for e in errors] == ["PARSE"]

    def test_run_check_walks_dirs_and_json_round_trips(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(BAD_STORE_READ)
        (tmp_path / "src" / "repro" / "sim" / "__pycache__").mkdir()
        (pkg / "__pycache__" / "skip.py").write_text(BAD_STORE_READ)
        report = run_check([tmp_path / "src"])
        assert report.files_checked == 1
        assert report.exit_code == 1
        assert report.by_rule() == {"STO201": 1}
        payload = json.loads(render_json(report))
        assert payload["schema"] == 1
        assert payload["exit_code"] == 1
        assert payload["by_rule"] == {"STO201": 1}
        assert payload["findings"][0]["rule"] == "STO201"
        assert payload["findings"][0]["line"] == 2

    def test_select_and_ignore(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "exec"
        bad.mkdir(parents=True)
        (bad / "two.py").write_text(BAD_STORE_READ)
        assert run_check([tmp_path], select=["STO201"]).by_rule() == {
            "STO201": 1
        }
        assert run_check([tmp_path], select=["store-access"]).by_rule() == {
            "STO201": 1
        }
        assert run_check([tmp_path], ignore=["STO201"]).by_rule() == {
            "TYP501": 1
        }


class TestDigestAndStoreRules:
    def test_dig103_flags_seed_dependent_cache_value(self):
        findings, _ = _check(
            """\
            def resolve(reuse, spec, config):
                key = (spec.name, spec.scale)
                reuse._prep[key] = spec.build(config.seed)
                return reuse._prep[key]
            """,
            module="harness/example.py",
        )
        assert _rule_ids(findings) == ["DIG103"]
        assert "seed-dependent" in findings[0].message

    def test_dig103_allows_seed_keyed_cache(self):
        findings, _ = _check(
            """\
            def resolve(reuse, spec, config):
                key = (spec.name, spec.seed)
                reuse._prep[key] = spec.build(config.seed)
                return reuse._prep[key]
            """,
            module="harness/example.py",
        )
        assert findings == []

    def test_dig103_flags_mutation_of_cached_value(self):
        findings, _ = _check(
            """\
            def merge(reuse, key, extra):
                cached = reuse._prep.get(key)
                cached.update(extra)
                return cached
            """,
            module="harness/example.py",
        )
        assert _rule_ids(findings) == ["DIG103"]
        assert "immutable after prep" in findings[0].message

    def test_dig103_flags_attribute_write_on_cached_value(self):
        findings, _ = _check(
            """\
            def stamp(reuse, key, seed):
                cached = reuse._prep[key]
                cached.seed = seed
                return cached
            """,
            module="harness/example.py",
        )
        assert _rule_ids(findings) == ["DIG103"]

    def test_dig103_allows_restamp_pattern(self):
        """The sanctioned shape: seed-free key, replace() on read."""
        findings, _ = _check(
            """\
            from dataclasses import replace

            def resolve(reuse, source, config):
                key = (source.name, source.scale)
                instance = reuse._prep.get(key)
                if instance is None:
                    reuse._prep[key] = instance = source.build(config.num_procs)
                if instance.seed != source.seed:
                    instance = replace(instance, seed=source.seed)
                return instance
            """,
            module="harness/example.py",
        )
        assert findings == []

    def test_dig103_covers_self_caches_in_reuse_classes(self):
        findings, _ = _check(
            """\
            class RunReuse:
                def put(self, key, spec, config):
                    self._prep[key] = spec.build(config.seed)
            """,
            module="harness/example.py",
        )
        assert _rule_ids(findings) == ["DIG103"]

    STORE_READ = """\
        from pathlib import Path

        def peek(d: Path) -> str:
            with open(d / "results.jsonl") as fh:
                fh.read()
            return (d / "results.jsonl").read_text()
        """

    def test_sto201_flags_direct_store_access(self):
        findings, _ = _check(self.STORE_READ, module="figures/example.py")
        assert _rule_ids(findings) == ["STO201", "STO201"]

    def test_sto201_exempts_store_module(self):
        findings, _ = _check(self.STORE_READ, module="exec/store.py")
        assert findings == []

    def test_sto202_flags_unbalanced_flock(self):
        findings, _ = _check(
            """\
            import fcntl

            def locked(fh: object) -> None:
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.write("x")
            """,
            module="exec/example.py",
        )
        assert _rule_ids(findings) == ["STO202"]

    def test_sto202_allows_try_finally_release(self):
        findings, _ = _check(
            """\
            import fcntl

            def locked(fh: object) -> None:
                fcntl.flock(fh, fcntl.LOCK_EX)
                try:
                    fh.write("x")
                finally:
                    fcntl.flock(fh, fcntl.LOCK_UN)
            """,
            module="exec/example.py",
        )
        assert findings == []


class TestTypedCoreRule:
    def test_typ501_flags_unannotated_def_in_typed_core(self):
        findings, _ = _check(
            "def f(x):\n    return x\n", module="exec/example.py"
        )
        assert _rule_ids(findings) == ["TYP501"]
        assert "x" in findings[0].message and "return" in findings[0].message

    def test_typ501_skips_self_and_core_packages(self):
        findings, _ = _check(
            """\
            class C:
                def method(self, x: int) -> int:
                    return x
            """,
            module="exec/example.py",
        )
        assert findings == []
        findings, _ = _check(
            "def f(x):\n    return x\n", module="sim/example.py"
        )
        assert findings == []


class TestCheckCli:
    def test_cli_json_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(BAD_STORE_READ)
        exit_code = main(["check", "--json", str(tmp_path / "src")])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["by_rule"] == {"STO201": 1}
        assert payload["schema"] == 1

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if not line.startswith(" ")]
        assert listed == KEPT_RULES
        assert "store-access" in out

    def test_cli_unknown_rule_is_an_error(self, tmp_path, capsys):
        """A typo in --select/--ignore must not switch the gate off."""
        from repro.cli import main

        for option in ("--select", "--ignore"):
            assert main(["check", option, "STO201,NOPE999",
                         str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: error:")
            assert "NOPE999" in err
            assert all(rule_id in err for rule_id in KEPT_RULES)

    def test_cli_missing_path_is_an_error(self, tmp_path, capsys):
        """A path that does not exist is not a tree with 0 findings."""
        from repro.cli import main

        assert main(["check", str(tmp_path / "nonexistent_dir")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "nonexistent_dir" in err

    def test_tree_is_clean_at_head(self):
        """The meta-gate: `repro check` over the real tree reports zero."""
        root = Path(__file__).resolve().parents[1]
        report = run_check(
            [root / "src", root / "tests", root / "scripts"]
        )
        assert report.parse_errors == []
        assert report.findings == [], render_json(report)
