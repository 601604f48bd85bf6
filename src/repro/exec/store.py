"""Content-addressed on-disk result cache: one ``results.jsonl`` log.

The store maps a :class:`~repro.exec.jobs.RunJob` digest to its
:class:`~repro.exec.jobs.ExecResult`.  Each cache directory holds one
append-only ``results.jsonl``; every record is one compact JSON line —
``{"digest", "schema", "created", "result", ...}`` for results,
``{"digest", "tombstone"}`` for invalidations.  Replaying the log
builds the in-memory index: the last record per digest wins and a
tombstone drops its digest.

Writes take an advisory ``fcntl`` lock on a sidecar
``results.jsonl.lock`` file, so concurrent appenders — parallel CLI
invocations that share one ``--cache-dir``, processes on different NFS
clients — serialize their appends instead of interleaving them into
torn lines that a load would silently skip.  Loads take the
shared lock, so a reader never observes a half-written compaction.  On
platforms without :mod:`fcntl` (Windows), locking degrades to a no-op
and the log keeps its single-writer guarantees.

Records written under a different :data:`~repro.exec.jobs.SCHEMA_VERSION`
— or that fail to parse (e.g. a run killed mid-append) — are skipped on
load and reported via :meth:`ResultStore.stats`.

Accounting contract: :meth:`ResultStore.get` and ``digest in store``
both count one session hit or miss (so cache-aware planning with ``in``
and executor reads with ``get`` show up identically in ``exec-status``
statistics); ``len()``, :meth:`labels`, :meth:`records` and
:meth:`stats` never touch the counters.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ..errors import ExecutionError
from ..obs import get_recorder
from .jobs import SCHEMA_VERSION, ExecResult, RunJob
from .serialize import result_from_dict, result_to_dict

try:  # POSIX only; the store stays usable (single-writer) without it
    import fcntl
except ImportError:  # pragma: no cover - exercised only on Windows
    fcntl = None  # type: ignore[assignment]

__all__ = ["ResultStore", "StoreStats", "PruneReport"]


def _line(record: dict[str, Any]) -> str:
    """One record as one log line: compact JSON and a newline."""
    return json.dumps(record, separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class PruneReport:
    """Outcome of one :meth:`ResultStore.prune` pass."""

    entries: int
    lines_dropped: int
    bytes_reclaimed: int
    #: live entries invalidated by a GC policy (age/label) before compaction
    expired: int = 0

    def summary(self) -> str:
        policy = f", {self.expired} expired by policy" if self.expired else ""
        return (
            f"pruned {self.lines_dropped} dead line(s) "
            f"({self.bytes_reclaimed} bytes reclaimed{policy}); "
            f"{self.entries} live entries kept"
        )


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of one store's content and session traffic."""

    path: str
    entries: int
    file_bytes: int
    hits: int
    misses: int
    skipped_records: int
    schema: int = SCHEMA_VERSION

    def summary(self) -> str:
        return (
            f"result store {self.path}: "
            f"{self.entries} entries "
            f"({self.file_bytes} bytes, schema v{self.schema}), "
            f"session hits/misses {self.hits}/{self.misses}, "
            f"{self.skipped_records} skipped records"
        )


class ResultStore:
    """Digest-keyed persistent cache of simulation results.

    Parameters
    ----------
    directory:
        The cache directory (created if missing).  Opening never
        creates ``results.jsonl``; the first write does.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ExecutionError(
                f"cannot create cache directory {self.directory}: {exc}"
            ) from exc
        self.path = self.directory / "results.jsonl"
        self._lock_path = self.directory / "results.jsonl.lock"
        self.hits = 0
        self.misses = 0
        self._skipped = 0
        self._index: dict[str, dict[str, Any]] = {}
        self._load()

    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self, exclusive: bool) -> Iterator[None]:
        """Advisory inter-process lock scope (no-op without fcntl)."""
        if fcntl is None:  # pragma: no cover - Windows fallback
            yield
            return
        with open(self._lock_path, "ab") as fh:
            waited = time.perf_counter()
            fcntl.flock(fh, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            waited = time.perf_counter() - waited
            recorder = get_recorder()
            recorder.count("store.lock_acquisitions")
            recorder.count("store.lock_wait_s", waited)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def _replay(self) -> tuple[dict[str, dict[str, Any]], int]:
        """Parse the log into (live index, skipped).  Caller holds a lock."""
        index: dict[str, dict[str, Any]] = {}
        skipped = 0
        if not self.path.exists():
            return index, skipped
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    digest = record["digest"]
                except (ValueError, KeyError, TypeError):
                    skipped += 1
                    continue
                if record.get("tombstone"):
                    index.pop(digest, None)
                    continue
                if record.get("schema") != SCHEMA_VERSION:
                    skipped += 1
                    continue
                index[digest] = record
        return index, skipped

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self._locked(exclusive=False):
            self._index, self._skipped = self._replay()
        if self._skipped:
            recorder = get_recorder()
            recorder.count("store.skipped_records", self._skipped)
            if recorder.enabled:
                recorder.event(
                    "store.skipped_records",
                    path=str(self.path),
                    skipped=self._skipped,
                )

    def _append(self, record: dict[str, Any]) -> None:
        """Durably add one record (result or tombstone) to the log."""
        line = _line(record)
        with self._locked(exclusive=True):
            # One write() of one whole line, flushed before the lock
            # drops: a concurrent appender can never tear it.
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())

    def _line_count(self) -> int:
        """Lines in the log, tombstones and dead records included."""
        if not self.path.exists():
            return 0
        with self._locked(exclusive=False):
            with self.path.open("r", encoding="utf-8") as fh:
                return sum(1 for line in fh if line.strip())

    def _file_bytes(self) -> int:
        return self.path.stat().st_size if self.path.exists() else 0

    # ------------------------------------------------------------------
    def get(self, digest: str) -> ExecResult | None:
        """Look up a result; counts a session hit or miss."""
        record = self._index.get(digest)
        if record is None:
            self.misses += 1
            get_recorder().count("store.misses")
            return None
        self.hits += 1
        get_recorder().count("store.hits")
        return result_from_dict(record["result"])

    def put(self, digest: str, result: ExecResult, job: RunJob | None = None) -> None:
        """Persist one result (idempotent; later writes win on replay)."""
        record: dict[str, Any] = {
            "digest": digest,
            "schema": SCHEMA_VERSION,
            "created": time.time(),
            "result": result_to_dict(result),
        }
        if job is not None:
            record["label"] = job.label()
        self._append(record)
        self._index[digest] = record
        get_recorder().count("store.puts")

    def invalidate(self, digest: str) -> bool:
        """Drop one entry (appends a tombstone). Returns True if present."""
        present = digest in self._index
        if present:
            self._append({"digest": digest, "tombstone": True})
            self._index.pop(digest, None)
            get_recorder().count("store.invalidations")
        return present

    def clear(self) -> int:
        """Drop every entry and truncate the log. Returns entries removed."""
        removed = len(self._index)
        self._index.clear()
        self._skipped = 0  # the skipped records are gone with the file
        with self._locked(exclusive=True):
            if self.path.exists():
                self.path.write_text("")
        return removed

    def compact(self) -> None:
        """Rewrite the log down to only live records (drops tombstones).

        The live set is re-read from the log inside the exclusive lock —
        not taken from this instance's (possibly stale) index — so
        compacting a store that concurrent processes are appending to
        never deletes their records.  The in-memory index refreshes to
        the rewritten state.
        """
        with get_recorder().span("store.compact", path=str(self.path)) as span:
            index: dict[str, dict[str, Any]] = {}
            if self.path.exists():
                with self._locked(exclusive=True):
                    index, _skipped = self._replay()
                    with self.path.open("w", encoding="utf-8") as fh:
                        fh.writelines(_line(record) for record in index.values())
            self._index = index
            span.annotate(entries=len(self._index))

    def prune(
        self,
        older_than_seconds: float | None = None,
        label: str | None = None,
    ) -> "PruneReport":
        """Compact the store — optionally expiring entries first — and
        report what was dropped.

        Append-oriented storage otherwise only grows: invalidations
        leave the dead record *and* a tombstone behind, crashed appends
        leave unparseable fragments, and schema bumps strand whole
        generations of records.  Pruning rewrites storage with exactly
        the live index — every live result survives byte-for-byte.

        GC policies (shared stores grow unboundedly without them):

        * ``older_than_seconds`` — expire entries whose ``created``
          timestamp is older than the cutoff (records written before
          timestamps existed count as infinitely old);
        * ``label`` — expire entries whose job label contains the text
          (e.g. a workload name, ``"[medium]"``, or ``"ungated"``).

        When both are given an entry must match **both** to expire, so
        ``--older-than 30 --label genome`` ages out only one workload's
        records.  Expiry appends tombstones through the normal
        invalidation path (safe against concurrent appenders), then
        compaction drops them from storage.
        """
        if older_than_seconds is not None and not older_than_seconds >= 0:
            # also rejects NaN; a negative age would expire every entry
            raise ExecutionError(
                f"older_than_seconds must be >= 0, got {older_than_seconds!r}"
            )
        expired = 0
        if older_than_seconds is not None or label is not None:
            cutoff = (
                time.time() - older_than_seconds
                if older_than_seconds is not None
                else None
            )
            victims = [
                digest
                for digest, record in self._index.items()
                if (cutoff is None
                    or float(record.get("created", 0.0)) <= cutoff)
                and (label is None or label in str(record.get("label", "")))
            ]
            for digest in victims:
                self.invalidate(digest)
            expired = len(victims)
        # snapshot AFTER expiry: the dropped-line/byte accounting must
        # include the expired records and their just-appended tombstones
        records_before = self._line_count()
        bytes_before = self._file_bytes()
        self.compact()
        self._skipped = 0  # the skipped records are gone from storage now
        return PruneReport(
            entries=len(self._index),
            lines_dropped=records_before - len(self._index),
            bytes_reclaimed=bytes_before - self._file_bytes(),
            expired=expired,
        )

    def close(self) -> None:
        """End the store's use (a no-op: the log holds no open handle
        between calls; safe to call more than once)."""

    # ------------------------------------------------------------------
    def __contains__(self, digest: str) -> bool:
        """Membership probe; counts a session hit or miss, like :meth:`get`."""
        present = digest in self._index
        if present:
            self.hits += 1
            get_recorder().count("store.hits")
        else:
            self.misses += 1
            get_recorder().count("store.misses")
        return present

    def __len__(self) -> int:
        return len(self._index)

    def labels(self) -> Iterator[tuple[str, str]]:
        """(digest, label) pairs for every entry (label may be '')."""
        for digest, record in self._index.items():
            yield digest, record.get("label", "")

    def records(self) -> Iterator[dict[str, Any]]:
        """Live record dicts, exactly as persisted (defensive copies)."""
        for record in self._index.values():
            yield dict(record)

    def stats(self) -> StoreStats:
        return StoreStats(
            path=str(self.path),
            entries=len(self._index),
            file_bytes=self._file_bytes(),
            hits=self.hits,
            misses=self.misses,
            skipped_records=self._skipped,
        )
