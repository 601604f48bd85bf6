"""The result store's contract: the ``results.jsonl`` log end to end.

put/get/invalidate/prune/labels/stats, one compact line per record,
tombstone replay, schema skew, torn lines, concurrent appenders,
age/label GC and the lock/compaction observability counters.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import obs
from repro.errors import ExecutionError
from repro.exec.executor import Executor
from repro.exec.jobs import SCHEMA_VERSION, execute_job
from repro.exec.serialize import result_to_dict
from repro.exec.store import ResultStore
from repro.obs.summary import load_events

from .test_exec import tiny_job


@pytest.fixture(scope="module")
def seeded_results():
    """Two distinct executed results, shared across the module."""
    keep, drop = tiny_job(), tiny_job(gated=False)
    return {
        keep.digest: (keep, execute_job(keep)),
        drop.digest: (drop, execute_job(drop)),
    }


def inject(store: ResultStore, record: dict) -> None:
    """Append a raw record through the store's own append (any schema,
    any shape)."""
    store._append(record)


def inject_corrupt(store: ResultStore) -> None:
    """Plant one unparseable line, as a run killed mid-append leaves."""
    with store.path.open("a", encoding="utf-8") as fh:
        fh.write("{torn mid-append\n")


class TestStoreContract:
    def test_put_get_roundtrip(self, tmp_path, seeded_results):
        digest, (job, result) = next(iter(seeded_results.items()))
        store = ResultStore(tmp_path)
        store.put(digest, result, job=job)
        assert result_to_dict(store.get(digest)) == result_to_dict(result)
        reloaded = ResultStore(tmp_path)
        assert result_to_dict(reloaded.get(digest)) == result_to_dict(result)
        assert (store.hits, store.misses) == (1, 0)
        # each record is one compact JSON line on disk
        (record,) = reloaded.records()
        line = json.dumps(record, separators=(",", ":"))
        # a raw read on purpose (RAW_STORE_READERS in
        # tests/test_source_rules.py): only it sees the on-disk bytes
        assert (tmp_path / "results.jsonl").read_text() == line + "\n"

    def test_last_write_wins(self, tmp_path, seeded_results):
        (d1, (j1, r1)), (d2, (j2, r2)) = seeded_results.items()
        store = ResultStore(tmp_path)
        store.put(d1, r1, job=j1)
        store.put(d1, r2, job=j2)  # overwrite under the same digest
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert result_to_dict(reloaded.get(d1)) == result_to_dict(r2)

    def test_tombstone_replay(self, tmp_path, seeded_results):
        digest, (job, result) = next(iter(seeded_results.items()))
        store = ResultStore(tmp_path)
        store.put(digest, result, job=job)
        assert store.invalidate(digest)
        assert not store.invalidate(digest)  # already gone
        # the tombstone survives a reload of the same directory...
        reloaded = ResultStore(tmp_path)
        assert digest not in reloaded
        assert len(reloaded) == 0
        # ...and a later put resurrects the digest
        reloaded.put(digest, result, job=job)
        assert digest in ResultStore(tmp_path)

    def test_schema_skew_is_skipped_and_counted(self, tmp_path, seeded_results):
        digest, (job, result) = next(iter(seeded_results.items()))
        store = ResultStore(tmp_path)
        store.put(digest, result, job=job)
        inject(store, {"digest": "future", "schema": SCHEMA_VERSION + 1,
                       "result": {}})
        inject_corrupt(store)
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats().skipped_records == 2
        assert result_to_dict(reloaded.get(digest)) == result_to_dict(result)

    def test_labels(self, tmp_path, seeded_results):
        store = ResultStore(tmp_path)
        for digest, (job, result) in seeded_results.items():
            store.put(digest, result, job=job)
        labels = dict(ResultStore(tmp_path).labels())
        assert labels == {
            digest: job.label() for digest, (job, _r) in seeded_results.items()
        }

    def test_stats_report_the_schema(self, tmp_path):
        store = ResultStore(tmp_path)
        stats = store.stats()
        assert stats.schema == SCHEMA_VERSION
        assert stats.summary().startswith(f"result store {store.path}: ")

    def test_clear_resets_everything(self, tmp_path, seeded_results):
        digest, (job, result) = next(iter(seeded_results.items()))
        store = ResultStore(tmp_path)
        store.put(digest, result, job=job)
        inject(store, {"digest": "old", "schema": SCHEMA_VERSION - 1,
                       "result": {}})
        store = ResultStore(tmp_path)
        assert store.stats().skipped_records == 1
        assert store.prune(older_than_seconds=0).expired == 1
        assert store.stats().skipped_records == 0
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 0
        assert reloaded.stats().skipped_records == 0

    def test_prune_drops_dead_records_keeps_live(self, tmp_path, seeded_results):
        (d1, (j1, r1)), (d2, (j2, r2)) = seeded_results.items()
        store = ResultStore(tmp_path)
        store.put(d1, r1, job=j1)
        store.put(d2, r2, job=j2)
        store.invalidate(d2)
        inject(store, {"digest": "old", "schema": SCHEMA_VERSION - 1,
                       "result": {}})
        store = ResultStore(tmp_path)
        report = store.prune()
        assert report.entries == 1
        # 2 results + tombstone + stale = 4 lines, 1 live kept
        assert report.lines_dropped == 3
        reloaded = ResultStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.stats().skipped_records == 0
        assert result_to_dict(reloaded.get(d1)) == result_to_dict(r1)

    def test_compact_preserves_concurrent_appends(self, tmp_path, seeded_results):
        """prune/compact must never delete records it did not load."""
        (d1, (j1, r1)), (d2, (j2, r2)) = seeded_results.items()
        stale = ResultStore(tmp_path)
        stale.put(d1, r1, job=j1)
        stale.invalidate(d1)
        stale.put(d1, r1, job=j1)
        # another process appends while `stale`'s index is already loaded
        other = ResultStore(tmp_path)
        other.put(d2, r2, job=j2)
        other.close()
        report = stale.prune()
        assert report.entries == 2  # d1 AND the concurrently-added d2
        assert d2 in stale  # index refreshed from the rewritten storage
        reloaded = ResultStore(tmp_path)
        assert {digest for digest, _ in reloaded.labels()} == {d1, d2}

    def test_executor_cache_roundtrip(self, tmp_path):
        job = tiny_job()
        first = Executor(store=ResultStore(tmp_path))
        fresh = first.run([job])
        assert first.last_report.executed == 1
        second = Executor(store=ResultStore(tmp_path))
        cached = second.run([job])
        assert second.last_report.cache_hits == 1
        assert result_to_dict(cached[0]) == result_to_dict(fresh[0])

    def test_concurrent_multiprocess_puts(self, tmp_path):
        """Concurrent appenders in other processes lose no records."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.exec.serialize import result_from_dict

        from .test_exec import _hammer_store

        payload = result_to_dict(execute_job(tiny_job()))
        # the children append to a log that already exists
        seed = ResultStore(tmp_path)
        seed.put("f" * 64, result_from_dict(payload))
        seed.close()
        workers, per_worker = 3, 10
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_hammer_store, str(tmp_path), w, payload, per_worker)
                for w in range(workers)
            ]
            for future in futures:
                future.result()
        reloaded = ResultStore(tmp_path)
        assert reloaded.stats().skipped_records == 0
        assert len(reloaded) == workers * per_worker + 1


class TestOpen:
    def test_read_only_open_creates_no_store_file(self, tmp_path):
        """Probing a directory must not pollute it."""
        store = ResultStore(tmp_path)
        assert not store.path.exists()
        assert len(store) == 0
        store.prune()
        store.close()
        assert not store.path.exists()


class TestStoreGc:
    """Age/label-based expiry (`exec-status --prune --older-than/--label`)."""

    def _seed(self, tmp_path, seeded_results):
        (d1, (j1, r1)), (d2, (j2, r2)) = seeded_results.items()
        store = ResultStore(tmp_path)
        store.put(d1, r1, job=j1)
        store.put(d2, r2, job=j2)
        return store, (d1, j1), (d2, j2)

    def test_age_expiry(self, tmp_path, seeded_results):
        store, (d1, _j1), (d2, _j2) = self._seed(tmp_path, seeded_results)
        # age one record by rewriting its created timestamp far back
        record = dict(store._index[d1], created=1.0)
        inject(store, record)
        store = ResultStore(tmp_path)
        report = store.prune(older_than_seconds=3600.0)
        assert report.expired == 1
        assert report.entries == 1
        reloaded = ResultStore(tmp_path)
        assert d1 not in reloaded._index and d2 in reloaded._index

    def test_age_expiry_keeps_fresh_records(self, tmp_path, seeded_results):
        store, _one, _two = self._seed(tmp_path, seeded_results)
        report = store.prune(older_than_seconds=3600.0)
        assert report.expired == 0
        assert report.entries == 2

    def test_missing_timestamp_counts_as_ancient(self, tmp_path, seeded_results):
        store, (d1, _j1), _two = self._seed(tmp_path, seeded_results)
        record = dict(store._index[d1])
        record.pop("created")
        inject(store, record)
        store = ResultStore(tmp_path)
        report = store.prune(older_than_seconds=3600.0)
        assert report.expired == 1

    def test_label_expiry(self, tmp_path, seeded_results):
        store, (d1, j1), (d2, j2) = self._seed(tmp_path, seeded_results)
        # the two seeded jobs differ in gating mode (gated vs ungated)
        victim_label = "ungated"
        victims = [d for d, label in store.labels() if victim_label in label]
        assert len(victims) == 1
        report = store.prune(label=victim_label)
        assert report.expired == 1
        survivors = {d for d, _label in ResultStore(tmp_path).labels()}
        assert victims[0] not in survivors
        assert len(survivors) == 1

    def test_both_criteria_are_anded(self, tmp_path, seeded_results):
        store, (d1, _j1), _two = self._seed(tmp_path, seeded_results)
        # everything is ancient, but only one label matches
        for digest in list(store._index):
            inject(store, dict(store._index[digest], created=1.0))
        store = ResultStore(tmp_path)
        report = store.prune(older_than_seconds=3600.0, label="ungated")
        assert report.expired == 1
        assert report.entries == 1

    def test_policy_prune_summary_mentions_expiry(self, tmp_path, seeded_results):
        store, _one, _two = self._seed(tmp_path, seeded_results)
        report = store.prune(older_than_seconds=0.0)
        assert report.expired == 2
        assert "expired by policy" in report.summary()
        assert len(ResultStore(tmp_path)) == 0

    @pytest.mark.parametrize("seconds", [-1.0, -86400.0, math.nan])
    def test_negative_or_nan_age_is_rejected(
        self, tmp_path, seeded_results, seconds
    ):
        store, _one, _two = self._seed(tmp_path, seeded_results)
        with pytest.raises(ExecutionError, match="older_than_seconds"):
            store.prune(older_than_seconds=seconds)
        assert len(ResultStore(tmp_path)) == 2


class TestStoreObservability:
    @pytest.fixture(autouse=True)
    def obs_isolation(self):
        obs.reset()
        yield
        obs.reset()

    def test_lock_counters(self, tmp_path, seeded_results):
        digest, (job, result) = next(iter(seeded_results.items()))
        rec = obs.configure(tmp_path / "obs")
        ResultStore(tmp_path / "store").put(digest, result, job=job)
        assert digest in ResultStore(tmp_path / "store")
        counters = rec.counters()
        assert counters["store.puts"] == 1
        # the put's exclusive lock and the reopen's shared one
        assert counters["store.lock_acquisitions"] >= 2
        assert counters["store.lock_wait_s"] >= 0

    def test_prune_emits_one_compact_span(self, tmp_path, seeded_results):
        digest, (job, result) = next(iter(seeded_results.items()))
        rec = obs.configure(tmp_path / "obs")
        store = ResultStore(tmp_path / "store")
        store.put(digest, result, job=job)
        store.prune()
        rec.close()
        spans = [record for record in load_events(tmp_path / "obs", rec.run_id)
                 if record["name"] == "store.compact"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["entries"] == 1
