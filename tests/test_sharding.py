"""Suite sharding, store merging, and cache-aware planning."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExecutionError
from repro.exec.executor import Executor
from repro.exec.store import ResultStore
from repro.scenarios.builtin import get_suite
from repro.scenarios.runner import Shard, plan_suite, run_suite
from repro.scenarios.suite import SpecListSuite, load_suite_file
from repro.cli import main


def smoke():
    return get_suite("smoke", scale="tiny")


def job_digests(suite):
    return {spec.to_job().digest for spec in suite.expand()}


class TestShard:
    def test_parse(self):
        shard = Shard.parse("2/4")
        assert (shard.index, shard.count) == (2, 4)
        assert str(shard) == "2/4"

    @pytest.mark.parametrize("text", ["", "3", "0/4", "5/4", "a/b", "1/2/3"])
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ExecutionError):
            Shard.parse(text)

    def test_shards_partition_every_digest_exactly_once(self):
        digests = job_digests(smoke())
        for count in (1, 2, 3, 5):
            shards = [Shard(k, count) for k in range(1, count + 1)]
            owners = {
                digest: [s for s in shards if s.owns(digest)]
                for digest in digests
            }
            assert all(len(own) == 1 for own in owners.values())

    def test_filter_specs_is_digest_stable(self):
        suite = smoke()
        specs = suite.expand()
        parts = [
            Shard(k, 2).filter_specs(specs) for k in (1, 2)
        ]
        assert sum(len(part) for part in parts) == len(specs)
        # scenarios sharing one job digest travel together
        rejoined = {spec.digest for part in parts for spec in part}
        assert rejoined == {spec.digest for spec in specs}


class TestShardedRuns:
    def test_shards_merge_to_the_unsharded_store(self, tmp_path):
        suite = smoke()
        full = ResultStore(tmp_path / "full")
        run_suite(suite, executor=Executor(store=full))

        for k in (1, 2):
            store = ResultStore(tmp_path / f"shard{k}")
            outcome = run_suite(
                suite, executor=Executor(store=store), shard=Shard(k, 2)
            )
            assert outcome.shard == Shard(k, 2)
            # every stored digest belongs to this shard
            assert all(
                Shard(k, 2).owns(digest) for digest, _ in store.labels()
            )

        merged = ResultStore(tmp_path / "merged")
        for k in (1, 2):
            merged.merge_from(ResultStore(tmp_path / f"shard{k}"))
        assert {d for d, _ in merged.labels()} == {d for d, _ in full.labels()}

        # acceptance: a plan over the merged store reports zero misses
        plan = plan_suite(suite, store=merged)
        assert plan.misses == 0
        assert plan.hits == plan.unique_jobs


class TestPlan:
    def test_plan_without_store_is_all_misses(self):
        plan = plan_suite(smoke())
        assert plan.unique_jobs == 3  # 4 scenarios, ungated W0s collapse
        assert plan.total_scenarios == 4
        assert (plan.hits, plan.misses) == (0, 3)
        assert "0 hit(s), 3 miss(es)" in plan.summary()

    def test_plan_counts_store_traffic(self, tmp_path):
        store = ResultStore(tmp_path)
        run_suite(smoke(), executor=Executor(store=store))
        probe = ResultStore(tmp_path)
        plan = plan_suite(smoke(), store=probe)
        assert (plan.hits, plan.misses) == (3, 0)
        # the documented accounting contract: `in` counts like get()
        assert (probe.hits, probe.misses) == (3, 0)

    def test_residual_suite_round_trips_and_completes(self, tmp_path):
        suite = smoke()
        store = ResultStore(tmp_path)
        # execute only shard 1/2, then plan the full grid
        run_suite(suite, executor=Executor(store=store), shard=Shard(1, 2))
        plan = plan_suite(suite, store=ResultStore(tmp_path))
        residual = plan.residual_suite()
        assert isinstance(residual, SpecListSuite)
        assert residual.size == plan.misses
        # JSON round-trip is exact
        assert SpecListSuite.from_json(residual.to_json()) == residual
        # running the residual makes the next plan fully cached
        run_suite(residual, executor=Executor(store=ResultStore(tmp_path)))
        final = plan_suite(suite, store=ResultStore(tmp_path))
        assert final.misses == 0

    def test_sharded_plans_tile_the_full_plan(self):
        full = plan_suite(smoke())
        parts = [plan_suite(smoke(), shard=Shard(k, 2)) for k in (1, 2)]
        assert sum(p.unique_jobs for p in parts) == full.unique_jobs
        assert sum(p.total_scenarios for p in parts) == full.total_scenarios

    def test_plan_to_dict_shape(self):
        data = plan_suite(smoke(), shard=Shard(1, 1)).to_dict()
        assert data["suite"] == "smoke"
        assert data["shard"] == "1/1"
        assert data["unique_jobs"] == len(data["entries"])
        entry = data["entries"][0]
        assert set(entry) == {"digest", "cached", "scenarios", "label"}


class TestSpecListSuite:
    def test_expand_validates(self):
        from repro.scenarios.spec import ScenarioSpec

        good = SpecListSuite("ok", (ScenarioSpec("counter", scale="tiny"),))
        assert [s.workload for s in good.expand()] == ["counter"]
        from repro.errors import WorkloadError

        bad = SpecListSuite("bad", (ScenarioSpec("no-such-workload"),))
        with pytest.raises(WorkloadError):
            bad.expand()

    def test_with_base_updates_touches_every_spec(self):
        from repro.scenarios.spec import ScenarioSpec

        suite = SpecListSuite(
            "s",
            (ScenarioSpec("counter", scale="tiny"),
             ScenarioSpec("bank", scale="tiny")),
        )
        rescaled = suite.with_base_updates(scale="small", seed=7)
        assert all(s.scale == "small" and s.seed == 7 for s in rescaled.specs)

    def test_load_suite_file_accepts_spec_lists(self, tmp_path):
        path = tmp_path / "residual.json"
        residual = plan_suite(smoke()).residual_suite()
        path.write_text(residual.to_json(indent=2))
        loaded = load_suite_file(path)
        assert loaded == residual

    def test_load_suite_file_rejects_mixed_formats(self, tmp_path):
        from repro.errors import WorkloadError

        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(
            {"specs": [], "base": {"workload": "counter"}}
        ))
        with pytest.raises(WorkloadError, match="mixes"):
            load_suite_file(path)


class TestCli:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    def test_shard_merge_plan_cycle(self, capsys, tmp_path):
        for k in (1, 2):
            self.run_cli(
                capsys, "suite", "run", "--suite", "smoke", "--shard", f"{k}/2",
                "--cache-dir", str(tmp_path / f"s{k}"),
            )
        out = self.run_cli(
            capsys, "suite", "merge", str(tmp_path / "s1"), str(tmp_path / "s2"),
            "--into", str(tmp_path / "merged"),
        )
        assert "3 entries" in out
        out = self.run_cli(
            capsys, "suite", "plan", "--suite", "smoke",
            "--cache-dir", str(tmp_path / "merged"),
        )
        assert "3 hit(s), 0 miss(es)" in out

    def test_plan_json_and_out(self, capsys, tmp_path):
        out_file = tmp_path / "residual.json"
        out = self.run_cli(
            capsys, "suite", "plan", "--suite", "smoke", "--json",
            "--out", str(out_file),
        )
        data = json.loads(out)
        assert data["misses"] == 3
        residual = load_suite_file(out_file)
        assert residual.size == 3

    def test_run_accepts_spec_list_files(self, capsys, tmp_path):
        out_file = tmp_path / "residual.json"
        self.run_cli(capsys, "suite", "plan", "--suite", "smoke",
                     "--out", str(out_file))
        out = self.run_cli(
            capsys, "suite", "run", "--file", str(out_file),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert "3 scenario(s)" in out
        out = self.run_cli(
            capsys, "suite", "plan", "--suite", "smoke",
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert "0 miss(es)" in out

    def test_exec_status_digests(self, capsys, tmp_path):
        self.run_cli(capsys, "suite", "run", "--suite", "smoke",
                     "--cache-dir", str(tmp_path / "c"))
        out = self.run_cli(capsys, "exec-status",
                           "--cache-dir", str(tmp_path / "c"), "--digests")
        digests = out.split()
        assert len(digests) == 3
        assert digests == sorted(digests)
        assert all(len(d) == 64 for d in digests)

    def test_merge_missing_source_fails(self, capsys, tmp_path):
        code = main(["suite", "merge", str(tmp_path / "nope"),
                     "--into", str(tmp_path / "merged")])
        assert code == 1
        assert "no result store" in capsys.readouterr().err

    def test_bad_shard_spec_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "run", "--suite", "smoke", "--shard", "9/2"])