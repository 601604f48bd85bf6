"""The structured event recorder: spans, events and counters on JSONL.

One :class:`ObsRecorder` owns one *run*: a ``run-<id>.jsonl`` event log
plus a ``run-<id>.manifest.json`` summary inside an observability
directory.  The process that starts a run is its only writer: pool
workers hand each job's timing and profile rows back in its
``JobOutcome``, and the parent records them as the job lands.
Everything is designed to stay off the execution hot path:

* records are buffered in memory and written in one append per
  :meth:`flush` (one ``fsync`` per executor batch, not per record);
* counters are plain in-memory accumulators snapshotted into the
  manifest — nothing in the simulator's inner loop ever emits a record.

Record schema (one JSON object per line)::

    {"schema": 1, "run": "<run id>", "kind": "span" | "event" | "counters",
     "name": "...", "id": "<pid>-<seq>", "parent": "<id>" | null,
     "ts": <wall clock>, "pid": <emitting pid>,
     "dur_s": <span duration>, "status": "ok" | "error",   # spans only
     "attrs": {...}}

Span ids are ``<pid>-<sequence>``; ``parent`` nests spans (and attaches
events to the enclosing span), giving the event stream a tree per
batch.  The :class:`NullRecorder` twin no-ops every method, which is
what every instrumented call site sees while observability is off.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

__all__ = ["OBS_SCHEMA_VERSION", "Span", "ObsRecorder", "NullRecorder",
           "new_run_id"]

#: bump when the event-record or manifest layout changes incompatibly
OBS_SCHEMA_VERSION = 1

#: how many buffered records force an intermediate (fsync-free) flush
FLUSH_EVERY = 512

#: how many failures keep their full detail in memory for the manifest
MAX_FAILURE_DETAIL = 20


def new_run_id() -> str:
    """A sortable run id: wall clock to the millisecond, then the pid."""
    now = time.time()
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime(now))
    return f"{stamp}-{int((now % 1.0) * 1000):03d}-p{os.getpid()}"


class Span:
    """One open span: annotate attributes while the work runs."""

    __slots__ = ("name", "id", "parent", "attrs", "ts")

    def __init__(self, name: str, id: str, parent: str | None,
                 attrs: dict[str, Any], ts: float) -> None:
        self.name = name
        self.id = id
        self.parent = parent
        self.attrs = attrs
        self.ts = ts

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


class NullRecorder:
    """The disabled recorder: every hook is a no-op.

    Instrumented call sites hold a recorder reference and call it
    unconditionally; when observability is off they get this class, so
    the only cost on any path is an attribute lookup and an early
    return (guard expensive attribute *construction* with
    :attr:`enabled`).
    """

    enabled = False
    run_id: str | None = None
    directory: Path | None = None

    def event(self, name: str, **attrs: Any) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        yield _NULL_SPAN

    def complete_span(self, name: str, seconds: float,
                      **attrs: Any) -> None:
        pass

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def counters(self) -> dict[str, float]:
        return {}

    def note_suite(self, name: str, digest: str) -> None:
        pass

    def note_jobs(self, digests: Any) -> None:
        pass

    def note_job_seconds(self, seconds: float) -> None:
        pass

    def note_batch(self, report: dict[str, Any]) -> None:
        pass

    def note_failure(self, workload: str, digest: str, label: str,
                     error: str) -> None:
        pass

    def add_profile(self, rows: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def write_manifest(self, finished: bool = False) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_SPAN = Span(name="", id="", parent=None, attrs={}, ts=0.0)


class ObsRecorder(NullRecorder):
    """Buffered JSONL recorder for one run, written by one process.

    Parameters
    ----------
    directory:
        The observability directory (created if missing); every run in
        it is one ``run-<id>.jsonl`` + ``run-<id>.manifest.json`` pair.
    argv:
        The command line recorded in the manifest (default
        ``sys.argv``).
    """

    enabled = True

    def __init__(self, directory: str | Path,
                 argv: list[str] | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.run_id = new_run_id()
        self.path = self.directory / f"run-{self.run_id}.jsonl"
        self.manifest_path = self.directory / f"run-{self.run_id}.manifest.json"
        self.argv = list(argv if argv is not None else sys.argv)
        self.started = time.time()
        self._mutex = threading.Lock()
        self._buffer: list[str] = []
        self._seq = 0
        self._stack: list[str] = []
        self._span_count = 0
        self._event_count = 0
        self._by_name: dict[str, int] = {}
        self._counters: dict[str, float] = {}
        self._suites: dict[str, str] = {}
        self._job_digests: set[str] = set()
        self._job_seconds: list[float] = []
        self._batches: list[dict[str, Any]] = []
        self._failures: list[dict[str, str]] = []
        self._failures_by_workload: dict[str, int] = {}
        self._profile: dict[str, list[float]] = {}
        self._profiled_jobs = 0
        self._closed = False

    # ------------------------------------------------------------------
    # record emission
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        # caller holds self._mutex
        self._seq += 1
        return f"{os.getpid()}-{self._seq}"

    def _emit(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True,
                          default=str)
        with self._mutex:
            self._buffer.append(line)
            if len(self._buffer) >= FLUSH_EVERY:
                # intermediate flush: bounded memory, but no fsync —
                # durability is paid once per batch, in flush()
                self._flush_locked(fsync=False)

    def _bump(self, name: str) -> None:
        self._by_name[name] = self._by_name.get(name, 0) + 1

    def event(self, name: str, **attrs: Any) -> None:
        """Emit one instantaneous event under the current span."""
        with self._mutex:
            parent = self._stack[-1] if self._stack else None
            self._event_count += 1
            self._bump(name)
        self._emit({
            "schema": OBS_SCHEMA_VERSION, "run": self.run_id,
            "kind": "event", "name": name, "parent": parent,
            "ts": time.time(), "pid": os.getpid(), "attrs": attrs,
        })

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a span around a block; closes (and records) on exit.

        The span's wall-clock start, duration, outcome status and final
        attributes (annotate more via :meth:`Span.annotate`) land in one
        record when the block exits — half the volume of begin/end pairs
        and immune to interleaving.
        """
        with self._mutex:
            span = Span(name=name, id=self._next_id(),
                        parent=self._stack[-1] if self._stack else None,
                        attrs=dict(attrs), ts=time.time())
            self._stack.append(span.id)
        t0 = time.perf_counter()
        status = "ok"
        try:
            yield span
        except BaseException:
            status = "error"
            raise
        finally:
            with self._mutex:
                if self._stack and self._stack[-1] == span.id:
                    self._stack.pop()
                self._span_count += 1
                self._bump(name)
            self._write_span(span, time.perf_counter() - t0, status)

    def complete_span(self, name: str, seconds: float,
                      **attrs: Any) -> None:
        """Record an already-measured span (e.g. a job timed in a worker)
        under the open span."""
        with self._mutex:
            span = Span(
                name=name, id=self._next_id(),
                parent=self._stack[-1] if self._stack else None,
                attrs=attrs, ts=time.time() - seconds,
            )
            self._span_count += 1
            self._bump(name)
        self._write_span(span, seconds, "ok")

    def _write_span(self, span: Span, seconds: float, status: str) -> None:
        self._emit({
            "schema": OBS_SCHEMA_VERSION, "run": self.run_id,
            "kind": "span", "name": span.name, "id": span.id,
            "parent": span.parent, "ts": span.ts, "dur_s": seconds,
            "status": status, "pid": os.getpid(), "attrs": span.attrs,
        })

    # ------------------------------------------------------------------
    # in-memory aggregation (manifest inputs; no records emitted)
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        """Bump an in-memory counter (snapshotted into the manifest)."""
        with self._mutex:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counters(self) -> dict[str, float]:
        with self._mutex:
            return dict(self._counters)

    def note_suite(self, name: str, digest: str) -> None:
        with self._mutex:
            self._suites[name] = digest

    def note_jobs(self, digests: Any) -> None:
        with self._mutex:
            self._job_digests.update(digests)

    def note_job_seconds(self, seconds: float) -> None:
        with self._mutex:
            self._job_seconds.append(seconds)

    def note_batch(self, report: dict[str, Any]) -> None:
        with self._mutex:
            self._batches.append(dict(report))

    def note_failure(self, workload: str, digest: str, label: str,
                     error: str) -> None:
        with self._mutex:
            self._failures_by_workload[workload] = (
                self._failures_by_workload.get(workload, 0) + 1
            )
            if len(self._failures) < MAX_FAILURE_DETAIL:
                self._failures.append(
                    {"workload": workload, "digest": digest,
                     "label": label, "error": error}
                )

    def add_profile(self, rows: Any) -> None:
        """Merge one profiled job's pstats rows (see :mod:`.profile`)."""
        from .profile import merge_rows

        with self._mutex:
            self._profiled_jobs += 1
            merge_rows(self._profile, rows)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append every buffered record in one fsynced write."""
        with self._mutex:
            self._flush_locked(fsync=True)

    def _flush_locked(self, fsync: bool) -> None:
        # caller holds self._mutex
        if not self._buffer:
            return
        if not self.directory.exists():
            # the observability directory was deleted mid-run (tests,
            # tmp cleanup): drop the records instead of resurrecting it
            self._buffer.clear()
            return
        data = "\n".join(self._buffer) + "\n"
        self._buffer.clear()
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())

    def write_manifest(self, finished: bool = False) -> None:
        """Flush the event log and (re)write the run manifest atomically.

        Called once per executor batch — durable progress after every
        unit of real work — and once more, with ``finished=True``, when
        the run closes.
        """
        from .manifest import build_manifest

        self.flush()
        if not self.directory.exists():
            return
        payload = build_manifest(self, finished=finished)
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self.manifest_path)

    def close(self) -> None:
        """Finalize the run: flush and stamp the manifest as finished."""
        if self._closed:
            return
        self._closed = True
        self.write_manifest(finished=True)
