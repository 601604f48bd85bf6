"""repro.exec: job digests, dedup, parallel bit-equality, result cache."""

from __future__ import annotations

import json
import os
import pickle
import time

import pytest

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.exec import executor as executor_module
from repro.exec.executor import BatchExecutionError, Executor, usable_cpus
from repro.exec.jobs import SCHEMA_VERSION, ExecResult, RunJob, execute_job
from repro.exec.progress import ConsoleProgress, ProgressListener
from repro.exec.serialize import (
    config_from_dict,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.exec.store import ResultStore
from repro.figures.extract import pair_results
from repro.figures.registry import w0_grid_suite
from repro.figures.spec import FigureParams
from repro.harness.runner import run_workload, workload
from repro.scenarios.runner import run_suite

TINY = SystemConfig(num_procs=2, seed=1)


def tiny_job(name: str = "counter", *, gated: bool = True, w0: int = 8,
             seed: int = 1, procs: int = 2, cm: str = "gating-aware") -> RunJob:
    config = SystemConfig(num_procs=procs, seed=seed).with_gating(
        gated, w0=w0, contention_manager=cm
    )
    return RunJob(workload(name, scale="tiny", seed=seed), config)


class TestDigests:
    def test_digest_is_stable(self):
        assert tiny_job().digest == tiny_job().digest

    def test_digest_distinguishes_every_axis(self):
        base = tiny_job()
        variants = [
            tiny_job(seed=2),
            tiny_job(procs=4),
            tiny_job(w0=16),
            tiny_job(gated=False),
            tiny_job("intruder"),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == 1 + len(variants)

    def test_power_model_is_part_of_the_digest(self):
        from repro.power.model import PowerModel

        a = RunJob(workload("counter", scale="tiny"), TINY)
        b = RunJob(workload("counter", scale="tiny"), TINY,
                   power=PowerModel(gated=0.25))
        assert a.digest != b.digest

    def test_ungated_digest_collapses_w0_for_w0_independent_cm(self):
        """One shared ungated baseline serves a whole W0 sweep."""
        a = tiny_job(gated=False, w0=1)
        b = tiny_job(gated=False, w0=32)
        assert a.digest == b.digest
        # ...and the collapse is empirically sound: identical numbers.
        ra, rb = execute_job(a), execute_job(b)
        da, db = result_to_dict(ra), result_to_dict(rb)
        da.pop("config"), db.pop("config")  # echoes the submitted w0
        assert da == db

    def test_ungated_digest_keeps_w0_for_backoff_cms(self):
        """Exponential back-off derives its ungated delay from w0."""
        a = tiny_job(gated=False, w0=2, cm="exponential")
        b = tiny_job(gated=False, w0=16, cm="exponential")
        assert a.digest != b.digest

    def test_gated_digest_never_collapses_w0(self):
        assert tiny_job(w0=4).digest != tiny_job(w0=16).digest


class TestSerialization:
    def test_config_roundtrip(self):
        config = TINY.with_gating(True, w0=3)
        assert config_from_dict(config_to_dict(config)) == config

    def test_result_roundtrip_is_exact(self):
        result = execute_job(tiny_job())
        via_json = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert via_json == result
        assert via_json.energy.total == result.energy.total

    def test_unpickled_results_share_counter_names(self):
        """Results unpickled one at a time (the pool's landings) share
        one copy of each counter name."""
        result = execute_job(tiny_job())
        first = pickle.loads(pickle.dumps(result))
        second = pickle.loads(pickle.dumps(result))
        assert first == second == result and first.counters
        assert all(
            a is b for a, b in zip(first.counters, second.counters)
        )

    def test_exec_result_mirrors_run_result(self):
        job = tiny_job()
        direct = run_workload(job.spec, job.config, power_model=job.power)
        condensed = execute_job(job)
        assert condensed.parallel_time == direct.parallel_time
        assert condensed.end_cycle == direct.end_cycle
        assert condensed.energy.total == direct.energy.total
        assert condensed.counters == direct.counters
        assert condensed.commits == direct.commits
        assert condensed.aborts == direct.aborts
        assert condensed.abort_rate == direct.abort_rate


class TestExecutor:
    GRID = [
        tiny_job("counter"),
        tiny_job("counter", gated=False),
        tiny_job("intruder"),
        tiny_job("intruder", gated=False),
    ]

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = Executor(jobs=1).run(self.GRID)
        parallel = Executor(jobs=2).run(self.GRID)
        assert [result_to_dict(r) for r in serial] == [
            result_to_dict(r) for r in parallel
        ]

    def test_results_keep_submission_order(self):
        results = Executor(jobs=2).run(self.GRID)
        assert [r.workload for r in results] == [
            "counter", "counter", "intruder", "intruder"
        ]
        assert [r.config.gating.enabled for r in results] == [
            True, False, True, False
        ]

    def test_in_batch_dedup(self):
        exe = Executor()
        results = exe.run([self.GRID[0]] * 3 + [self.GRID[1]])
        assert exe.last_report.total == 4
        assert exe.last_report.executed == 2
        assert exe.last_report.deduplicated == 2
        assert result_to_dict(results[0]) == result_to_dict(results[1])

    def test_baseline_dedup_across_w0_points(self):
        """Ungated baselines at different W0 collapse to one execution."""
        exe = Executor()
        jobs = [tiny_job(gated=False, w0=w0) for w0 in (1, 4, 32)]
        results = exe.run(jobs)
        assert exe.last_report.executed == 1
        # every caller still sees the config it submitted
        assert [r.config.gating.w0 for r in results] == [1, 4, 32]

    def test_worker_failure_is_wrapped(self):
        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)
        with pytest.raises(ExecutionError, match="no-such-workload"):
            Executor(jobs=2).run([bad, tiny_job()])

    @staticmethod
    def probe(monkeypatch, wrapper) -> None:
        """Route the executor's ``execute_job`` calls through
        ``wrapper(original, job)``, patched before the pool forks, as
        paperbench's seeds-pool probe does."""
        original = executor_module.execute_job
        monkeypatch.setattr(executor_module, "execute_job",
                            lambda job: wrapper(original, job))

    def test_pool_lands_each_result_as_it_finishes(
        self, tmp_path, monkeypatch
    ):
        """A finished job reaches the store and the progress listener
        while its sibling still runs: the sibling waits for that."""
        landed = tmp_path / "landed"
        blocked = tiny_job("intruder")

        def wrapper(original, job):
            if job.digest == blocked.digest:
                deadline = time.monotonic() + 20
                while not landed.exists():
                    if time.monotonic() > deadline:
                        raise TimeoutError("no sibling landed meanwhile")
                    time.sleep(0.01)
            return original(job)

        class Marker(ProgressListener):
            def job_finished(self, done, pending, job, seconds):
                landed.touch()

        self.probe(monkeypatch, wrapper)
        store = ResultStore(tmp_path / "store")
        Executor(jobs=2, store=store, progress=Marker()).run(
            [blocked, tiny_job()]
        )
        assert blocked.digest in store and tiny_job().digest in store

    def test_sibling_finishing_after_a_failure_lands(
        self, tmp_path, monkeypatch
    ):
        """A job still running when a sibling fails lands in the store;
        the batch then raises once, naming the failure."""
        good = tiny_job()
        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)

        def wrapper(original, job):
            if job.digest == good.digest:
                time.sleep(0.5)  # finish well after the bad job failed
            return original(job)

        self.probe(monkeypatch, wrapper)
        store = ResultStore(tmp_path)
        with pytest.raises(BatchExecutionError) as excinfo:
            Executor(jobs=2, store=store).run([good, bad])
        assert [f.digest for f in excinfo.value.failures] == [bad.digest]
        assert good.digest in store
        assert bad.digest not in store

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ExecutionError):
            Executor(jobs=-1)

    def test_progress_hooks_fire(self, capsys):
        import sys

        exe = Executor(progress=ConsoleProgress(stream=sys.stderr))
        exe.run([self.GRID[0], self.GRID[0]])
        err = capsys.readouterr().err
        assert "2 job(s) -> 1 unique" in err
        assert "executed 1 of 2 submitted" in err

    def test_null_progress_is_silent(self, capsys):
        Executor(progress=ProgressListener()).run([self.GRID[0]])
        assert capsys.readouterr().err == ""


class TestUsableCpus:
    """``jobs=0`` sizes the pool by affinity and cgroup quota."""

    @pytest.fixture
    def host(self, monkeypatch, tmp_path):
        """An 8-CPU affinity set and a writable fake ``cpu.max``."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        cpu_max = tmp_path / "cpu.max"
        monkeypatch.setattr(executor_module, "CGROUP_CPU_MAX", cpu_max)
        return cpu_max

    def test_quota_caps_affinity(self, host):
        host.write_text("200000 100000\n")
        assert usable_cpus() == 2
        assert Executor(jobs=0).jobs == 2

    def test_unlimited_quota_uses_affinity_not_cpu_count(self, host):
        host.write_text("max 100000\n")
        assert usable_cpus() == 8
        assert Executor(jobs=0).jobs == 8

    def test_missing_cgroup_file_uses_affinity(self, host):
        assert not host.exists()
        assert usable_cpus() == 8

    def test_fractional_quota_rounds_down_to_at_least_one(self, host):
        host.write_text("150000 100000\n")
        assert usable_cpus() == 1
        host.write_text("50000 100000\n")
        assert usable_cpus() == 1

    def test_quota_above_affinity_keeps_affinity(self, host):
        host.write_text("1600000 100000\n")
        assert usable_cpus() == 8

    def test_malformed_cgroup_file_is_ignored(self, host):
        host.write_text("garbage\n")
        assert usable_cpus() == 8

    def test_no_affinity_falls_back_to_cpu_count(self, host, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == 64
        host.write_text("300000 100000\n")
        assert usable_cpus() == 3

    def test_explicit_worker_count_is_kept(self, host):
        host.write_text("100000 100000\n")
        assert Executor(jobs=4).jobs == 4


class TestResultStore:
    def test_cache_hit_miss_roundtrip(self, tmp_path):
        job = tiny_job()
        first = Executor(store=ResultStore(tmp_path))
        fresh = first.run([job])
        assert first.last_report.executed == 1

        second = Executor(store=ResultStore(tmp_path))
        cached = second.run([job])
        assert second.last_report.executed == 0
        assert second.last_report.cache_hits == 1
        assert result_to_dict(cached[0]) == result_to_dict(fresh[0])

    def test_changed_parameters_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        exe = Executor(store=store)
        exe.run([tiny_job(seed=2)])
        assert exe.last_report.executed == 1

    def test_invalidation_forces_reexecution(self, tmp_path):
        job = tiny_job()
        store = ResultStore(tmp_path)
        Executor(store=store).run([job])
        assert store.invalidate(job.digest)
        assert job.digest not in store
        exe = Executor(store=store)
        exe.run([job])
        assert exe.last_report.executed == 1
        # tombstone survives a reload of the same directory
        assert tiny_job().digest in ResultStore(tmp_path)

    def test_corrupt_and_foreign_schema_lines_skipped(self, tmp_path):
        job = tiny_job()
        store = ResultStore(tmp_path)
        Executor(store=store).run([job])
        with store.path.open("a") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"digest": "x", "schema": SCHEMA_VERSION + 1,
                                 "result": {}}) + "\n")
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats().skipped_records == 2
        assert reloaded.get(job.digest) is not None

    def test_clear_and_compact(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job(), tiny_job(gated=False)])
        store.invalidate(tiny_job().digest)
        store.compact()
        assert len(ResultStore(tmp_path)) == 1
        assert store.prune(older_than_seconds=0).expired == 1
        assert len(ResultStore(tmp_path)) == 0

    def test_completed_results_survive_batch_failure(self, tmp_path):
        """Write-through: work done before a failing job is not lost."""
        store = ResultStore(tmp_path)
        good = tiny_job()
        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)
        with pytest.raises(ExecutionError):
            Executor(store=store).run([good, bad])
        assert good.digest in store
        exe = Executor(store=ResultStore(tmp_path))
        exe.run([good])
        assert exe.last_report.cache_hits == 1

    def test_stats_summary_renders(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        text = store.stats().summary()
        assert "1 entries" in text
        assert f"schema v{SCHEMA_VERSION}" in text

    def test_prune_drops_dead_lines_keeps_live_results(self, tmp_path):
        store = ResultStore(tmp_path)
        keep, drop = tiny_job(), tiny_job(gated=False)
        Executor(store=store).run([keep, drop])
        store.invalidate(drop.digest)  # dead record + tombstone line
        with store.path.open("a") as fh:
            fh.write("{crashed mid-append\n")
            fh.write(json.dumps({"digest": "old", "schema": SCHEMA_VERSION - 1,
                                 "result": {}}) + "\n")
        store = ResultStore(tmp_path)
        bytes_before = store.path.stat().st_size
        report = store.prune()
        # 5 lines before (2 results + tombstone + corrupt + stale), 1 live
        assert report.lines_dropped == 4
        assert report.entries == 1
        assert report.bytes_reclaimed == bytes_before - store.path.stat().st_size
        assert "pruned 4 dead line(s)" in report.summary()
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats().skipped_records == 0
        assert reloaded.get(keep.digest) is not None

    def test_prune_on_clean_store_is_a_no_op(self, tmp_path):
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        content = store.path.read_text()
        report = store.prune()
        assert report.lines_dropped == 0
        assert report.bytes_reclaimed == 0
        assert store.path.read_text() == content


def _hammer_store(directory: str, worker: int, payload: dict, n: int) -> None:
    """Child-process entry point: append *n* distinct records to one store."""
    store = ResultStore(directory)
    result = result_from_dict(payload)
    for i in range(n):
        store.put(f"{'0' * 40}worker{worker:04d}rec{i:08d}", result)
    store.close()


class TestStoreConcurrency:
    """Regression: concurrent appends must never tear/lose records."""

    def test_multiprocess_puts_lose_nothing(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        payload = result_to_dict(execute_job(tiny_job()))
        workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_hammer_store, str(tmp_path), w, payload, per_worker)
                for w in range(workers)
            ]
            for future in futures:
                future.result()
        reloaded = ResultStore(tmp_path)
        # Before advisory locking, interleaved appends tore JSONL lines
        # that load() silently dropped as skipped records.
        assert reloaded.stats().skipped_records == 0
        assert len(reloaded) == workers * per_worker

    def test_clear_resets_skipped_counter(self, tmp_path):
        """A prune that expires everything must not report stale
        skipped counts afterwards."""
        store = ResultStore(tmp_path)
        Executor(store=store).run([tiny_job()])
        with store.path.open("a") as fh:
            fh.write("{torn line\n")
        store = ResultStore(tmp_path)
        assert store.stats().skipped_records == 1
        store.prune(older_than_seconds=0)
        assert store.stats().skipped_records == 0
        # ...and the truncated file really is free of the dead line
        assert ResultStore(tmp_path).stats().skipped_records == 0

    def test_contains_counts_hits_and_misses(self, tmp_path):
        """`in` and get() share one accounting contract (exec-status)."""
        job = tiny_job()
        store = ResultStore(tmp_path)
        Executor(store=store).run([job])
        probe = ResultStore(tmp_path)
        assert job.digest in probe
        assert "deadbeef" not in probe
        assert (probe.hits, probe.misses) == (1, 1)
        probe.get(job.digest)
        assert (probe.hits, probe.misses) == (2, 1)
        # len()/labels()/records()/stats() never touch the counters
        len(probe), list(probe.labels()), list(probe.records()), probe.stats()
        assert (probe.hits, probe.misses) == (2, 1)


class TestReplicatePacks:
    """Seed-family packing: identical results, fewer pool dispatches."""

    def seed_family(self, count: int = 4) -> list[RunJob]:
        return [tiny_job(seed=seed) for seed in range(1, count + 1)]

    def test_replicate_key_groups_only_seed_variants(self):
        from repro.exec.jobs import replicate_key

        family = {replicate_key(job) for job in self.seed_family()}
        assert len(family) == 1
        strangers = [
            tiny_job(procs=4),
            tiny_job(w0=16),
            tiny_job(gated=False),
            tiny_job("intruder"),
        ]
        assert all(replicate_key(job) not in family for job in strangers)

    def test_pack_results_match_per_process_bit_for_bit(self):
        """A pack's members (machine reset, shared prep) compute exactly
        what the executor computes, serial or pooled: paperbench's traced
        seeds-pool replay is checked against the pins through this."""
        from repro.exec.jobs import execute_pack

        jobs = self.seed_family()
        outcomes, stats = execute_pack(jobs)
        assert stats.reset_reuses and stats.shared_prep_hits
        packed = [result_to_dict(outcome.result) for outcome in outcomes]
        assert packed == [
            result_to_dict(r) for r in Executor(jobs=1).run(jobs)
        ] == [result_to_dict(r) for r in Executor(jobs=2).run(jobs)]

    def test_execute_pack_isolates_member_exceptions(self):
        from repro.exec.jobs import execute_pack

        bad = RunJob(workload("no-such-workload", scale="tiny"), TINY)
        outcomes, stats = execute_pack([bad, tiny_job()])
        assert outcomes[0].result is None
        assert "no-such-workload" in outcomes[0].error
        assert outcomes[0].traceback
        assert outcomes[1].result is not None and outcomes[1].error is None
        # the failed member dropped the cached machine, and the good
        # member built fresh after it — nothing was reset-reused
        assert stats.reset_reuses == 0


class TestExecutionShape:
    """Where and how jobs run never changes what the store holds."""

    GRID = [tiny_job(seed=seed) for seed in (1, 2)] + [
        tiny_job("intruder"),
        tiny_job("intruder", gated=False),
    ]

    @staticmethod
    def records(directory) -> dict[str, dict]:
        store = ResultStore(directory)
        records = {
            digest: result_to_dict(store.get(digest))
            for digest, _label in store.labels()
        }
        store.close()
        return records

    def test_stores_identical_across_workers_and_obs(self, tmp_path):
        from repro import obs

        stores = {}
        for jobs in (1, 2):
            for observed in (False, True):
                directory = tmp_path / f"store-{jobs}-{observed}"
                if observed:
                    recorder = obs.configure(
                        tmp_path / f"obs-{jobs}", export_env=False
                    )
                try:
                    Executor(jobs=jobs, store=directory).run(self.GRID)
                finally:
                    obs.reset()
                if observed:
                    assert recorder.counters()["store.puts"] == len(self.GRID)
                stores[jobs, observed] = self.records(directory)
        first = stores[1, False]
        assert sorted(first) == sorted(job.digest for job in self.GRID)
        assert all(records == first for records in stores.values())


class TestSweepIntegration:
    """The acceptance criterion: a cached W0 sweep re-runs nothing."""

    @staticmethod
    def sweep(w0_values):
        """The Fig. 7 grid for one (app, procs) point."""
        return w0_grid_suite(FigureParams(
            scale="tiny", seed=2, apps=("counter",), procs=(2,),
            w0_values=w0_values,
        ))

    def test_w0_sweep_is_fully_cached_on_second_run(self, tmp_path):
        w0_values = (2, 8)

        exe1 = Executor(store=ResultStore(tmp_path))
        first = run_suite(self.sweep(w0_values), executor=exe1)
        assert exe1.last_report.executed == 1 + len(w0_values)

        exe2 = Executor(jobs=2, store=ResultStore(tmp_path))
        second = run_suite(self.sweep(w0_values), executor=exe2)
        assert exe2.last_report.executed == 0
        assert exe2.last_report.cache_hits == 1 + len(w0_values)
        assert second.results == first.results

    def test_sweep_matches_legacy_serial_path(self):
        """Suite-backed W0 sweep == direct run_workload loop, exactly."""
        spec = workload("counter", scale="tiny", seed=2)
        config = SystemConfig(num_procs=2, seed=2)
        outcome = run_suite(self.sweep((4, 16)), executor=Executor(jobs=2))
        pairs = {
            gated.spec.w0: (baseline.result, gated.result)
            for gated, baseline in pair_results(outcome.results)
        }
        assert set(pairs) == {4, 16}

        baseline = run_workload(spec, config.with_gating(False))
        for w0 in (4, 16):
            gated = run_workload(spec, config.with_gating(True, w0=w0))
            suite_baseline, suite_gated = pairs[w0]
            assert suite_baseline.parallel_time == baseline.parallel_time
            assert suite_gated.parallel_time == gated.parallel_time
            assert suite_baseline.energy.total == baseline.energy.total
            assert suite_gated.energy.total == gated.energy.total
