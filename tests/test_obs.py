"""repro.obs: spans, run manifests, metrics, and the obs CLI."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro import obs
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.exec.executor import BatchExecutionError, Executor
from repro.exec.jobs import RunJob
from repro.exec.store import ResultStore
from repro.harness.runner import workload
from repro.obs import ObsRecorder, new_run_id
from repro.obs.manifest import percentile
from repro.obs.summary import (
    list_runs,
    load_events,
    load_manifest,
    resolve_run,
    summarize_runs,
    tail_events,
)

TINY = SystemConfig(num_procs=2, seed=1)

_OBS_ENV = ("REPRO_OBS", "REPRO_OBS_DIR", "REPRO_OBS_RUN")


@pytest.fixture(autouse=True)
def obs_isolation(monkeypatch):
    """Every test starts (and ends) with observability fully off."""
    for key in _OBS_ENV:
        monkeypatch.delenv(key, raising=False)
    obs.reset()
    yield
    obs.reset()
    for key in _OBS_ENV:
        os.environ.pop(key, None)


def tiny_job(name: str = "counter", *, gated: bool = True, w0: int = 8,
             seed: int = 1) -> RunJob:
    config = SystemConfig(num_procs=2, seed=seed).with_gating(gated, w0=w0)
    return RunJob(workload(name, scale="tiny", seed=seed), config)


def bad_job() -> RunJob:
    return RunJob(workload("no-such-workload", scale="tiny"), TINY)


# ----------------------------------------------------------------------
# recorder: spans, events, counters, manifests
# ----------------------------------------------------------------------
class TestRecorder:
    def test_run_ids_are_unique_and_sortable(self):
        ids = {new_run_id() for _ in range(5)}
        for run_id in ids:
            assert run_id.endswith(f"-p{os.getpid()}")

    def test_span_parent_child_integrity(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        with rec.span("outer") as outer:
            rec.event("ping", x=1)
            with rec.span("inner") as inner:
                rec.event("pong")
        rec.close()

        records = list(load_events(tmp_path / "obs", rec.run_id))
        by_name = {r["name"]: r for r in records}
        assert set(by_name) == {"outer", "inner", "ping", "pong"}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == outer.id
        assert by_name["ping"]["parent"] == outer.id
        assert by_name["pong"]["parent"] == inner.id
        assert by_name["inner"]["kind"] == "span"
        assert by_name["inner"]["dur_s"] >= 0
        assert by_name["ping"]["kind"] == "event"
        assert by_name["ping"]["attrs"] == {"x": 1}
        # ids are unique across the run
        ids = [r["id"] for r in records if r["kind"] == "span"]
        assert len(ids) == len(set(ids))

    def test_span_error_status_propagates_exception(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        with pytest.raises(ValueError):
            with rec.span("doomed"):
                raise ValueError("boom")
        rec.close()
        (record,) = list(load_events(tmp_path / "obs", rec.run_id))
        assert record["status"] == "error"

    def test_complete_span_honours_explicit_parent(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        rec.complete_span("job", 0.25, parent="7-42", digest="d" * 64)
        rec.close()
        (record,) = list(load_events(tmp_path / "obs", rec.run_id))
        assert record["parent"] == "7-42"
        assert record["dur_s"] == 0.25
        assert record["attrs"]["digest"] == "d" * 64

    def test_counters_accumulate(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        rec.count("store.hits")
        rec.count("store.hits", 2)
        rec.count("store.lock_wait_s", 0.5)
        assert rec.counters() == {"store.hits": 3, "store.lock_wait_s": 0.5}
        rec.close()
        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        assert manifest["counters"]["store.hits"] == 3

    def test_manifest_shape_and_finished_flag(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs", argv=["repro", "x"])
        rec.note_suite("smoke", "a" * 64)
        rec.note_jobs(["d1", "d2"])
        rec.write_manifest()
        partial = load_manifest(tmp_path / "obs", rec.run_id)
        assert partial["finished"] is False
        rec.close()
        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        assert manifest["kind"] == "run-manifest"
        assert manifest["finished"] is True
        assert manifest["argv"] == ["repro", "x"]
        assert manifest["suites"] == {"smoke": "a" * 64}
        assert manifest["jobs"] == {"count": 2, "digests": ["d1", "d2"]}
        assert manifest["metrics"]["job_latency_s"]["count"] == 0

    def test_close_is_idempotent(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        rec.close()
        stamp = (tmp_path / "obs" / f"run-{rec.run_id}.manifest.json").stat()
        rec.close()
        after = (tmp_path / "obs" / f"run-{rec.run_id}.manifest.json").stat()
        assert stamp.st_mtime_ns == after.st_mtime_ns

    def test_attached_recorder_never_writes_the_manifest(self, tmp_path):
        owner = ObsRecorder(tmp_path / "obs")
        child = ObsRecorder(tmp_path / "obs", run_id=owner.run_id)
        assert owner.owner and not child.owner
        child.event("from-child")
        child.close()
        assert not owner.manifest_path.exists()
        owner.close()
        manifest = load_manifest(tmp_path / "obs", owner.run_id)
        # the child's slice is in the shared event log, not the manifest
        assert manifest["record_counts"]["events"] == 0
        names = [r["name"] for r in load_events(tmp_path / "obs",
                                                owner.run_id)]
        assert "from-child" in names

    def test_deleted_directory_is_not_resurrected(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        rec.event("pre-delete")
        shutil.rmtree(tmp_path / "obs")
        rec.event("post-delete")
        rec.close()  # must neither raise nor recreate the directory
        assert not (tmp_path / "obs").exists()

    def test_percentile(self):
        assert percentile([], 50) is None
        assert percentile([3.0], 95) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0


# ----------------------------------------------------------------------
# read side: run resolution, tailing, torn lines
# ----------------------------------------------------------------------
class TestSummaryHelpers:
    def test_resolve_run_latest_exact_prefix_ambiguous(self, tmp_path):
        directory = tmp_path / "obs"
        directory.mkdir()
        for run in ("20260101-aaa", "20260102-bbb", "20260102-bcc"):
            (directory / f"run-{run}.jsonl").write_text("")
        assert list_runs(directory) == ["20260101-aaa", "20260102-bbb",
                                        "20260102-bcc"]
        assert resolve_run(directory, None) == "20260102-bcc"
        assert resolve_run(directory, "latest") == "20260102-bcc"
        assert resolve_run(directory, "20260101-aaa") == "20260101-aaa"
        assert resolve_run(directory, "20260101") == "20260101-aaa"
        with pytest.raises(ReproError, match="ambiguous"):
            resolve_run(directory, "20260102")
        with pytest.raises(ReproError, match="no run matching"):
            resolve_run(directory, "1999")
        with pytest.raises(ReproError, match="no observability runs"):
            resolve_run(tmp_path / "empty", None)

    def test_load_events_skips_torn_lines(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        rec.event("good")
        rec.flush()
        with rec.path.open("a") as fh:
            fh.write('{"half": "a record, torn mid-wri\n')
        rec.event("after")
        rec.close()
        names = [r["name"] for r in load_events(tmp_path / "obs",
                                                rec.run_id)]
        assert names == ["good", "after"]

    def test_tail_events_limit(self, tmp_path):
        rec = ObsRecorder(tmp_path / "obs")
        for i in range(10):
            rec.event("tick", i=i)
        rec.close()
        tail = tail_events(tmp_path / "obs", rec.run_id, limit=3)
        assert [r["attrs"]["i"] for r in tail] == [7, 8, 9]

    def test_summarize_skips_manifestless_runs(self, tmp_path):
        directory = tmp_path / "obs"
        rec = ObsRecorder(directory)
        rec.close()
        (directory / "run-19990101-000-p1.jsonl").write_text("")
        summary = summarize_runs(directory)
        assert summary["kind"] == "obs-summary"
        assert summary["totals"]["runs"] == 1
        assert summary["skipped"] == ["19990101-000-p1"]


# ----------------------------------------------------------------------
# multi-process hammer: same-run appends never tear
# ----------------------------------------------------------------------
def _hammer_obs(directory: str, run_id: str, worker: int, n: int) -> None:
    """Child-process entry point: append *n* records to a shared run."""
    rec = ObsRecorder(directory, run_id=run_id, flush_every=4)
    for i in range(n):
        rec.event("hammer", worker=worker, i=i,
                  pad="x" * 200)  # long lines make torn writes loud
    rec.complete_span("hammer.span", 0.001, worker=worker)
    rec.close()


class TestMultiprocessAppends:
    def test_shared_run_log_has_no_torn_lines(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        owner = ObsRecorder(tmp_path / "obs")
        workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_hammer_obs, str(tmp_path / "obs"),
                            owner.run_id, w, per_worker)
                for w in range(workers)
            ]
            for future in futures:
                future.result()
        owner.event("parent-alive")
        owner.close()

        # every raw line must parse — a torn append would not
        lines = owner.path.read_text().splitlines()
        records = [json.loads(line) for line in lines if line]
        assert len(records) == workers * (per_worker + 1) + 1
        events = [r for r in records if r["name"] == "hammer"]
        assert len(events) == workers * per_worker
        seen = {(r["attrs"]["worker"], r["attrs"]["i"]) for r in events}
        assert len(seen) == workers * per_worker
        assert {r["run"] for r in records} == {owner.run_id}


# ----------------------------------------------------------------------
# executor integration
# ----------------------------------------------------------------------
class TestExecutorObservability:
    def test_job_spans_counters_and_manifest_metrics(self, tmp_path):
        rec = obs.configure(tmp_path / "obs", export_env=False)
        exe = Executor(store=ResultStore(tmp_path / "store"))
        exe.run([tiny_job(), tiny_job(gated=False)])
        report = exe.last_report
        rec.close()

        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        metrics = manifest["metrics"]
        assert metrics["batches"] == 1
        assert metrics["jobs_executed"] == report.executed == 2
        assert metrics["cache_hits"] == 0
        assert metrics["job_latency_s"]["count"] == 2
        assert metrics["job_latency_s"]["p95"] >= metrics["job_latency_s"]["p50"]
        assert manifest["record_counts"]["by_name"]["job"] == 2
        assert manifest["record_counts"]["by_name"]["batch"] == 1
        assert manifest["jobs"]["count"] == 2
        assert manifest["counters"]["store.puts"] == 2
        assert manifest["counters"]["store.misses"] == 2

        records = list(load_events(tmp_path / "obs", rec.run_id))
        batch = next(r for r in records if r["name"] == "batch")
        jobs = [r for r in records if r["name"] == "job"]
        assert all(j["parent"] == batch["id"] for j in jobs)
        assert batch["attrs"]["executed"] == 2
        for job_span in jobs:
            attrs = job_span["attrs"]
            assert attrs["cached"] is False
            assert attrs["worker_pid"] == os.getpid()
            # only the tx/gating namespaces ride along on the span
            assert attrs["counters"]
            assert all(name.startswith(("tx.", "gating."))
                       for name in attrs["counters"])

    def test_cache_hits_become_events_and_hit_rate(self, tmp_path):
        rec = obs.configure(tmp_path / "obs", export_env=False)
        jobs = [tiny_job(), tiny_job(gated=False)]
        Executor(store=ResultStore(tmp_path / "store")).run(jobs)
        exe = Executor(store=ResultStore(tmp_path / "store"))
        exe.run(jobs)
        report = exe.last_report
        rec.close()

        assert report.cache_hits == 2
        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        assert manifest["metrics"]["cache_hits"] == 2
        assert manifest["metrics"]["hit_rate"] == 0.5
        assert manifest["record_counts"]["by_name"]["job.cache_hit"] == 2
        # sims/sec in the manifest is executed work over batch wall time
        wall = sum(b["wall_seconds"] for b in manifest["batches"])
        assert manifest["metrics"]["sims_per_second"] == pytest.approx(
            2 / wall
        )

    def test_failures_surface_with_traceback_and_digest(self, tmp_path):
        rec = obs.configure(tmp_path / "obs", export_env=False)
        good, bad = tiny_job(), bad_job()
        with pytest.raises(BatchExecutionError) as excinfo:
            Executor(store=ResultStore(tmp_path / "store")).run([good, bad])
        rec.close()

        (failure,) = excinfo.value.failures
        assert failure.digest == bad.digest
        assert failure.workload == "no-such-workload"
        assert "Traceback" in failure.traceback
        assert bad.digest[:12] in str(excinfo.value)

        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        assert manifest["failures"]["by_workload"] == {"no-such-workload": 1}
        (detail,) = manifest["failures"]["detail"]
        assert detail["digest"] == bad.digest
        assert manifest["metrics"]["failures"] == 1
        assert manifest["batches"][0]["failed"] == 1
        event = next(r for r in load_events(tmp_path / "obs", rec.run_id)
                     if r["name"] == "job.failed")
        assert "Traceback" in event["attrs"]["traceback"]
        # the batch span closed with an error status
        batch = next(r for r in load_events(tmp_path / "obs", rec.run_id)
                     if r["name"] == "batch")
        assert batch["status"] == "error"

    def test_profile_rows_merge_into_manifest(self, tmp_path):
        rec = obs.configure(tmp_path / "obs", export_env=False)
        Executor(store=ResultStore(tmp_path / "s"), profile=True).run(
            [tiny_job()]
        )
        rec.close()
        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        profile = manifest["profile"]
        assert profile["jobs"] == 1
        assert profile["top"]
        assert any("execute_job" in row["func"] for row in profile["top"])

    def test_disabled_recorder_records_nothing(self, tmp_path):
        exe = Executor(store=ResultStore(tmp_path / "store"))
        exe.run([tiny_job()])
        assert not obs.get_recorder().enabled
        assert obs.get_recorder().counters() == {}
        assert list(tmp_path.glob("**/run-*.jsonl")) == []

    def test_flush_batches_counter_aggregates_directory_flushes(
        self, tmp_path
    ):
        """Every executed job's dirN.flushes land in dir.flush_batches."""
        rec = obs.configure(tmp_path / "obs", export_env=False)
        exe = Executor(store=ResultStore(tmp_path / "store"))
        results = exe.run([tiny_job(), tiny_job(gated=False)])
        rec.close()

        expected = sum(
            value
            for result in results
            for name, value in result.counters.items()
            if name.startswith("dir") and name.endswith(".flushes")
        )
        assert expected > 0  # tiny counter runs really do commit-flush
        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        assert manifest["counters"]["dir.flush_batches"] == expected

    def test_pool_jobs_land_one_span_each_from_their_worker(self, tmp_path):
        rec = obs.configure(tmp_path / "obs", export_env=False)
        family = [tiny_job(seed=seed) for seed in range(1, 5)]
        Executor(jobs=2, store=ResultStore(tmp_path / "store")).run(family)
        rec.close()

        records = list(load_events(tmp_path / "obs", rec.run_id))
        jobs = [r for r in records if r["name"] == "job"]
        assert sorted(j["attrs"]["digest"] for j in jobs) == sorted(
            job.digest for job in family
        )
        assert all(j["attrs"]["worker_pid"] != os.getpid() for j in jobs)
        assert not [r for r in records if r["name"] == "pack"]


# ----------------------------------------------------------------------
# obs on/off byte identity
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_figure_artifacts_identical_with_obs_on(self, tmp_path):
        from repro.figures import FigureBuilder, FigureParams

        params = FigureParams(scale="tiny", seed=0, apps=("counter",),
                              procs=(2,), w0=2, w0_values=(2, 4))

        plain = FigureBuilder(store=tmp_path / "s-off",
                              out_dir=tmp_path / "f-off", params=params)
        plain.build()

        rec = obs.configure(tmp_path / "obs", export_env=False)
        observed = FigureBuilder(store=tmp_path / "s-on",
                                 out_dir=tmp_path / "f-on", params=params)
        observed.build()
        rec.close()

        off = sorted((tmp_path / "f-off").glob("*.json"))
        on = sorted((tmp_path / "f-on").glob("*.json"))
        assert [p.name for p in off] == [p.name for p in on]
        for a, b in zip(off, on):
            assert a.read_bytes() == b.read_bytes(), a.name

        # acceptance: the manifest's job-span count equals the planned
        # residual misses of the build (every simulation became a span)
        manifest = load_manifest(tmp_path / "obs", rec.run_id)
        assert manifest["record_counts"]["by_name"]["job"] == 3
        assert manifest["metrics"]["jobs_executed"] == 3
        assert manifest["record_counts"]["by_name"]["figure"] \
            == len(off)

    def test_store_digests_identical_with_obs_on(self, tmp_path):
        jobs = [tiny_job(), tiny_job(gated=False), tiny_job(w0=4)]
        Executor(store=ResultStore(tmp_path / "s-off")).run(jobs)
        rec = obs.configure(tmp_path / "obs", export_env=False)
        Executor(store=ResultStore(tmp_path / "s-on")).run(jobs)
        rec.close()
        off = ResultStore(tmp_path / "s-off")
        on = ResultStore(tmp_path / "s-on")
        assert sorted(d for d, _ in off.labels()) \
            == sorted(d for d, _ in on.labels())
        for digest, _label in off.labels():
            from repro.exec.serialize import result_to_dict

            assert result_to_dict(off.get(digest)) \
                == result_to_dict(on.get(digest))


# ----------------------------------------------------------------------
# CLI: --obs-dir, REPRO_OBS, obs list/show/summary/tail, exec-status
# ----------------------------------------------------------------------
class TestObsCli:
    def run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def _suite_run(self, capsys, tmp_path, *extra):
        return self.run(
            capsys, "suite", "run", "--suite", "smoke", "--scale", "tiny",
            "--cache-dir", str(tmp_path / "cache"),
            "--obs-dir", str(tmp_path / "obs"), "--jobs", "1", *extra,
        )

    def test_flag_mode_run_and_summary_roundtrip(self, capsys, tmp_path):
        code, _out, err = self._suite_run(capsys, tmp_path)
        assert code == 0
        assert "obs: run manifest" in err
        # flag mode cleans its env exports back up
        assert "REPRO_OBS" not in os.environ

        obs_dir = str(tmp_path / "obs")
        code, out, _err = self.run(capsys, "obs", "list",
                                   "--obs-dir", obs_dir, "--json")
        assert code == 0
        runs = json.loads(out)["runs"]
        assert len(runs) == 1

        # second, fully cached run in the same obs dir
        code, _out, _err = self._suite_run(capsys, tmp_path)
        assert code == 0

        code, out, _err = self.run(capsys, "obs", "summary",
                                   "--obs-dir", obs_dir, "--json")
        assert code == 0
        summary = json.loads(out)
        totals = summary["totals"]
        assert totals["runs"] == 2
        assert totals["jobs_executed"] > 0
        assert totals["cache_hits"] == totals["jobs_executed"]
        assert totals["hit_rate"] == 0.5
        # the summary reproduces the manifests it aggregated
        manifests = [load_manifest(obs_dir, run) for run in
                     list_runs(obs_dir)]
        assert totals["jobs_executed"] == sum(
            m["metrics"]["jobs_executed"] for m in manifests
        )
        wall = sum(m["metrics"]["wall_seconds"] for m in manifests)
        assert totals["sims_per_second"] == pytest.approx(
            totals["jobs_executed"] / wall
        )

        code, out, _err = self.run(capsys, "obs", "summary",
                                   "--obs-dir", obs_dir)
        assert code == 0
        assert "cache hit rate: 50.0%" in out

    def test_show_and_tail(self, capsys, tmp_path):
        assert self._suite_run(capsys, tmp_path)[0] == 0
        obs_dir = str(tmp_path / "obs")

        code, out, _err = self.run(capsys, "obs", "show",
                                   "--obs-dir", obs_dir, "--json")
        assert code == 0
        manifest = json.loads(out)
        assert manifest["kind"] == "run-manifest"
        assert manifest["finished"] is True
        assert manifest["argv"][:3] == ["repro", "suite", "run"]

        code, out, _err = self.run(capsys, "obs", "show",
                                   "--obs-dir", obs_dir)
        assert code == 0
        assert "throughput:" in out
        assert "store.puts" in out

        code, out, _err = self.run(capsys, "obs", "tail",
                                   "--obs-dir", obs_dir, "-n", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

        # run prefix resolution through the CLI
        run = list_runs(obs_dir)[0]
        code, out, _err = self.run(capsys, "obs", "show",
                                   "--obs-dir", obs_dir, run[:8], "--json")
        assert code == 0
        assert json.loads(out)["run"] == run

    def test_list_empty_directory(self, capsys, tmp_path):
        code, _out, err = self.run(capsys, "obs", "list",
                                   "--obs-dir", str(tmp_path / "none"))
        assert code == 1
        assert "no observability runs" in err
        code, out, _err = self.run(capsys, "obs", "list",
                                   "--obs-dir", str(tmp_path / "none"),
                                   "--json")
        assert code == 0
        assert json.loads(out)["runs"] == []

    def test_env_mode_records_and_preserves_env(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        code, _out, err = self.run(
            capsys, "figures", "build", "--only", "table1",
            "--scale", "tiny", "--apps", "counter", "--grid", "2",
            "--w0", "2", "--w0-values", "2", "4",
            "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "figs"),
        )
        assert code == 0
        assert "obs: run manifest" in err
        (run,) = list_runs(tmp_path / "obs")
        assert load_manifest(tmp_path / "obs", run)["finished"] is True
        # env mode leaves the environment for sibling invocations
        assert os.environ["REPRO_OBS"] == "1"

    def test_obs_command_reads_without_recording(self, capsys, tmp_path,
                                                 monkeypatch):
        assert self._suite_run(capsys, tmp_path)[0] == 0
        obs_dir = str(tmp_path / "obs")
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", obs_dir)
        before = list_runs(obs_dir)
        assert self.run(capsys, "obs", "list", "--json")[0] == 0
        assert list_runs(obs_dir) == before

    def test_failed_batch_prints_digests_and_manifests_failure(
        self, capsys, tmp_path, monkeypatch
    ):
        def boom(job):
            raise RuntimeError("injected failure")

        # jobs=1 executes inline, so the serial path sees the patch
        monkeypatch.setattr("repro.exec.executor.execute_job", boom)
        code, _out, err = self._suite_run(capsys, tmp_path)
        assert code == 1
        assert "FAILED" in err
        assert "injected failure" in err
        assert "Traceback" in err
        (run,) = list_runs(tmp_path / "obs")
        manifest = load_manifest(tmp_path / "obs", run)
        assert manifest["metrics"]["failures"] >= 1
        assert sum(manifest["failures"]["by_workload"].values()) >= 1
        (detail, *_rest) = manifest["failures"]["detail"]
        assert detail["error"] == "injected failure"

    def test_exec_status_json(self, capsys, tmp_path):
        assert self._suite_run(capsys, tmp_path)[0] == 0
        code, out, _err = self.run(
            capsys, "exec-status", "--cache-dir", str(tmp_path / "cache"),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] > 0
        assert payload["skipped_records"] == 0
        assert sum(payload["by_workload"].values()) == payload["entries"]
