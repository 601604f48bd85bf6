"""Batch execution of :class:`~repro.exec.jobs.RunJob` values.

The executor turns a batch of jobs into a list of results, in
submission order, through three stages:

1. **Dedup** — jobs are keyed by content digest; identical jobs (e.g.
   the shared ungated baseline of a :math:`W_0` sweep) execute once and
   fan their result out to every submitter.
2. **Cache** — with a :class:`~repro.exec.store.ResultStore` attached,
   unique digests are answered from disk when possible; fresh results
   are written back, so re-running an unchanged figure or sweep is pure
   cache hits.
3. **Execute** — remaining jobs run either inline (``jobs=1``, the
   serial backend) or fanned across a
   :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker wires
   its own deterministic engine from the pickled job, so the parallel
   path produces bit-identical numbers to the serial path, and result
   ordering never depends on completion order.  On the pool path, jobs
   that differ only in their seeds are grouped into *replicate packs*
   (:mod:`repro.exec.jobs`): one warmed worker process runs the whole
   seed family back to back instead of paying one dispatch round-trip
   per job.  Packing never changes results — every member still runs
   the plain ``execute_job`` path and lands under its own digest — and
   can be disabled with ``packs=False`` / ``--no-packs`` /
   ``REPRO_NO_PACKS=1``.

Every ``run`` leaves a :class:`BatchReport` on
:attr:`Executor.last_report` with per-batch totals and the measured
serial-equivalent speed-up.

Observability (:mod:`repro.obs`): each ``run`` is a ``batch`` span;
every executed job lands as a ``job`` span carrying its digest, worker
pid, duration, and the simulator's transaction/gating counters; cache
hits are ``job.cache_hit`` events and failures are ``job.failed``
events with the full worker traceback.  Spans are recorded in the
*parent* process as results land (workers never write the event log on
the pool path), and the run manifest is rewritten after every batch —
so a killed run still documents everything that finished.  All of it
no-ops through :class:`~repro.obs.NullRecorder` when observability is
off, leaving result bytes untouched.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback as _tb
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from ..errors import ExecutionError
from ..obs import get_recorder
from ..workloads.registry import load_builders
from .jobs import (
    ExecResult,
    PackMemberOutcome,
    PackStats,
    RunJob,
    execute_job,
    execute_pack,
    replicate_key,
)
from .progress import ProgressListener
from .store import ResultStore

__all__ = [
    "Executor", "BatchReport", "BatchExecutionError", "JobFailure", "usable_cpus",
]

#: environment switch disabling replicate packing (``--no-packs`` on the
#: CLI); any non-empty value other than ``0``/``false``/``no`` disables
NO_PACKS_ENV = "REPRO_NO_PACKS"

#: a pack smaller than this is not worth a grouped dispatch
MIN_PACK_SIZE = 2

#: never split a pack below this size when balancing across workers
MIN_PACK_SPLIT = 4


#: cgroup v2 CPU quota file: ``"<quota> <period>"`` or ``"max <period>"``
CGROUP_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")


def usable_cpus() -> int:
    """CPUs this process may run on: ``--jobs 0``'s worker count.

    The scheduler-affinity set, capped by the cgroup v2 quota (rounded
    down, at least one) — ``os.cpu_count()`` counts the host's CPUs,
    so a 2-CPU container on a 64-core host would start 64 workers.
    Falls back to ``os.cpu_count()`` where affinity is unavailable.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    try:
        quota, period = CGROUP_CPU_MAX.read_text().split()
        if quota != "max":
            cpus = min(cpus, int(quota) // int(period))
    except (OSError, ValueError, ZeroDivisionError):
        pass
    return max(1, cpus)


def packs_enabled_from_env() -> bool:
    """Replicate packing default: on unless ``REPRO_NO_PACKS`` is set."""
    value = os.environ.get(NO_PACKS_ENV, "").strip().lower()
    return value in ("", "0", "false", "no")

#: sim counter namespaces surfaced into job spans — the abort/retry and
#: clock-gating activity that explains *why* a grid point behaved as it
#: did (everything else in ``counters`` is derivable from the result)
SPAN_COUNTER_PREFIXES = ("tx.", "gating.")


def _timed_execute(
    job: RunJob, profile: bool = False
) -> tuple[ExecResult, float, int, list[tuple[str, int, float, float]] | None]:
    """Pool entry point: run one job, measuring its own wall clock.

    Returns ``(result, seconds, worker pid, profile rows | None)``; the
    pid and optional cProfile rows feed the parent-side job span and
    manifest.
    """
    started = time.perf_counter()
    if profile:
        from ..obs.profile import profile_call

        result, rows = profile_call(execute_job, job)
    else:
        result, rows = execute_job(job), None
    return result, time.perf_counter() - started, os.getpid(), rows


def _timed_execute_pack(
    jobs: list[RunJob], profile: bool = False
) -> tuple[list[PackMemberOutcome], PackStats, float, int]:
    """Pool entry point for a replicate pack: one dispatch, N jobs.

    Returns ``(per-member outcomes, pack amortization stats, pack wall
    seconds, worker pid)``; member failures are already folded into
    their outcomes (see :func:`repro.exec.jobs.execute_pack`), so this
    call only raises on infrastructure-level breakage.
    """
    started = time.perf_counter()
    outcomes, stats = execute_pack(jobs, profile)
    return outcomes, stats, time.perf_counter() - started, os.getpid()


def _span_counters(result: ExecResult) -> dict[str, float]:
    """The tx/gating slice of a result's counters, for its job span."""
    return {
        name: value
        for name, value in result.counters.items()
        if name.startswith(SPAN_COUNTER_PREFIXES)
    }


@dataclass(frozen=True)
class JobFailure:
    """One failed job, with enough context to reproduce and debug it."""

    digest: str
    label: str
    workload: str
    error: str
    traceback: str


class BatchExecutionError(ExecutionError):
    """A batch aborted on job failure(s); carries per-job detail.

    ``failures`` lists every failure observed before the batch stopped
    (the pool can surface several at once); the message stays
    compatible with the plain :class:`ExecutionError` it replaces by
    leading with the first failure.
    """

    def __init__(self, message: str, failures: Sequence[JobFailure]) -> None:
        super().__init__(message)
        self.failures = list(failures)


@dataclass(frozen=True)
class BatchReport:
    """Totals for one :meth:`Executor.run` call."""

    total: int
    unique: int
    deduplicated: int
    cache_hits: int
    executed: int
    workers: int
    wall_seconds: float
    run_seconds: float
    failed: int = 0

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over actual wall clock (>= 1 is a win)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.run_seconds / self.wall_seconds

    @property
    def sims_per_second(self) -> float:
        """Simulations actually executed per wall-clock second.

        The batch-level throughput number ``repro.bench``'s e2e
        benchmark tracks; 0.0 when the batch was answered entirely from
        cache/dedup (no simulation ran, so there is no meaningful rate).
        """
        if self.executed <= 0 or self.wall_seconds <= 0:
            return 0.0
        return self.executed / self.wall_seconds

    def summary(self) -> str:
        return (
            f"executed {self.executed} of {self.total} submitted "
            f"({self.deduplicated} deduplicated, {self.cache_hits} cache "
            f"hit(s)) on {self.workers} worker(s) in {self.wall_seconds:.2f}s"
            + (
                f" (serial-equivalent {self.run_seconds:.2f}s, "
                f"speed-up {self.speedup:.2f}x, "
                f"{self.sims_per_second:.1f} sims/s)"
                if self.executed
                else ""
            )
            + (f" [{self.failed} FAILED]" if self.failed else "")
        )


class Executor:
    """Serial or process-pool job execution with dedup and caching.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) executes inline in this
        process; ``0`` means one per usable CPU (:func:`usable_cpus`).
    store:
        Optional :class:`~repro.exec.store.ResultStore` consulted before
        executing and updated after.  A plain directory path is also
        accepted and opened as ``ResultStore(path)``; the store's own
        locking makes the write-through safe even when parallel CLI
        invocations share the same directory.
    progress:
        Optional :class:`~repro.exec.progress.ProgressListener`.
    profile:
        Wrap each executed job in :mod:`cProfile` and merge the hot
        spots into the observability run manifest.  Meaningful only
        with observability enabled; adds real overhead, so it is strictly
        opt-in.
    packs:
        Group pool-path jobs that differ only in their seeds into
        :class:`~repro.exec.jobs.ReplicatePack` dispatch units — one
        warmed worker process serves a whole seed family instead of one
        pool round-trip per job.  Results, store records and digests
        are bit-identical either way (each member still runs the plain
        ``execute_job`` path).  ``None`` (default) resolves from the
        ``REPRO_NO_PACKS`` environment switch; the serial path never
        packs (there is nothing to amortize in-process).
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | str | Path | None = None,
        progress: ProgressListener | None = None,
        profile: bool = False,
        packs: bool | None = None,
    ) -> None:
        if jobs < 0:
            raise ExecutionError(f"worker count cannot be negative: {jobs}")
        self.jobs = jobs if jobs > 0 else usable_cpus()
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.progress = progress if progress is not None else ProgressListener()
        self.profile = profile
        self.packs = packs_enabled_from_env() if packs is None else packs
        self.last_report: BatchReport | None = None

    # ------------------------------------------------------------------
    def run(self, batch: Sequence[RunJob]) -> list[ExecResult]:
        """Resolve every job; returns results in submission order."""
        recorder = get_recorder()
        try:
            with recorder.span("batch", total=len(batch)) as span:
                return self._run_observed(list(batch), recorder, span)
        finally:
            # one manifest rewrite (and one fsync) per batch, success or
            # not — crashed runs keep everything that finished
            recorder.write_manifest()

    def _run_observed(
        self, batch: list[RunJob], recorder: Any, span: Any
    ) -> list[ExecResult]:
        started = time.perf_counter()
        digests = [job.digest for job in batch]
        recorder.note_jobs(digests)

        unique: dict[str, RunJob] = {}
        for job, digest in zip(batch, digests):
            unique.setdefault(digest, job)

        results: dict[str, ExecResult] = {}
        if self.store is not None:
            for digest in unique:
                cached = self.store.get(digest)
                if cached is not None:
                    results[digest] = cached
                    if recorder.enabled:
                        recorder.event(
                            "job.cache_hit",
                            digest=digest,
                            label=unique[digest].label(),
                        )
        cache_hits = len(results)

        pending = [
            (digest, job)
            for digest, job in unique.items()
            if digest not in results
        ]
        workers = min(self.jobs, len(pending)) if pending else 0
        self.progress.batch_started(
            len(batch), len(unique), cache_hits, max(workers, 1)
        )

        run_seconds = 0.0
        failed = 0
        try:
            if pending:
                if workers <= 1:
                    run_seconds = self._run_serial(pending, results, recorder)
                else:
                    run_seconds = self._run_pool(
                        pending, results, workers, recorder
                    )
        except BatchExecutionError as exc:
            failed = len(exc.failures)
            raise
        finally:
            executed = len(results) - cache_hits
            report = BatchReport(
                total=len(batch),
                unique=len(unique),
                deduplicated=len(batch) - len(unique),
                cache_hits=cache_hits,
                executed=executed if failed else len(pending),
                workers=max(workers, 1),
                wall_seconds=time.perf_counter() - started,
                run_seconds=run_seconds,
                failed=failed,
            )
            self.last_report = report
            span.annotate(**dataclasses.asdict(report))
            recorder.note_batch(dataclasses.asdict(report))
            if not failed:
                self.progress.batch_finished(report)

        # Fan results back out in submission order.  A dedup/cache hit can
        # hand back a result computed under a digest-equivalent but not
        # field-identical config (e.g. an ungated baseline recorded at a
        # different W0); re-stamp it so every caller sees exactly the
        # config it submitted.  The numbers are identical by construction.
        out: list[ExecResult] = []
        for digest, job in zip(digests, batch):
            result = results[digest]
            if result.config != job.config:
                result = dataclasses.replace(result, config=job.config)
            out.append(result)
        return out

    # ------------------------------------------------------------------
    def _record(
        self,
        digest: str,
        job: RunJob,
        result: ExecResult,
        results: dict[str, ExecResult],
        recorder: Any,
        seconds: float,
        pid: int,
        profile_rows: list[tuple[str, int, float, float]] | None,
    ) -> None:
        """Land one finished result — write-through to the store so
        completed work survives even if a later job in the batch fails."""
        results[digest] = result
        if self.store is not None:
            self.store.put(digest, result, job=job)
        recorder.note_job_seconds(seconds)
        if recorder.enabled:
            recorder.complete_span(
                "job",
                seconds,
                digest=digest,
                label=job.label(),
                workload=job.spec.name,
                worker_pid=pid,
                cached=False,
                counters=_span_counters(result),
            )
            # run-level flush-batch tally: how many batched commit
            # flushes the directories serviced across every executed
            # job
            flushes = sum(
                value
                for name, value in result.counters.items()
                if name.startswith("dir") and name.endswith(".flushes")
            )
            if flushes:
                recorder.count("dir.flush_batches", flushes)
        if profile_rows is not None:
            recorder.add_profile(profile_rows)

    def _fail(
        self,
        failures: list[JobFailure],
        recorder: Any,
    ) -> BatchExecutionError:
        """Record failure events and build the batch error (not raised
        here so callers keep their own ``raise ... from exc`` chain)."""
        for failure in failures:
            recorder.event(
                "job.failed",
                digest=failure.digest,
                label=failure.label,
                workload=failure.workload,
                error=failure.error,
                traceback=failure.traceback,
            )
            recorder.note_failure(
                failure.workload, failure.digest, failure.label, failure.error
            )
        first = failures[0]
        message = (
            f"job {first.label} ({first.digest[:12]}) failed in "
            f"worker: {first.error}"
        )
        if len(failures) > 1:
            message += f" (+{len(failures) - 1} more failure(s))"
        return BatchExecutionError(message, failures)

    def _run_serial(
        self,
        pending: list[tuple[str, RunJob]],
        results: dict[str, ExecResult],
        recorder: Any,
    ) -> float:
        run_seconds = 0.0
        for done, (digest, job) in enumerate(pending, start=1):
            try:
                result, seconds, pid, rows = _timed_execute(
                    job, self.profile
                )
            except Exception as exc:
                failure = JobFailure(
                    digest=digest,
                    label=job.label(),
                    workload=job.spec.name,
                    error=str(exc),
                    traceback="".join(_tb.format_exception(exc)),
                )
                raise self._fail([failure], recorder) from exc
            self._record(
                digest, job, result, results, recorder, seconds, pid, rows
            )
            run_seconds += seconds
            self.progress.job_finished(done, len(pending), job, seconds)
        return run_seconds

    def _dispatch_units(
        self, pending: list[tuple[str, RunJob]], workers: int
    ) -> list[list[tuple[str, RunJob]]]:
        """Group pending jobs into pool dispatch units.

        With packing on, jobs sharing a :func:`replicate_key` (same
        spec, different seeds) form one unit; everything else stays a
        singleton.  Oversized packs are split while fewer units than
        workers exist, so a batch that is one big seed family still
        fans across the whole pool.  Grouping is deterministic in
        submission order — it only changes *where* jobs run, never what
        any of them computes.
        """
        if not self.packs:
            return [[entry] for entry in pending]
        groups: dict[str, list[tuple[str, RunJob]]] = {}
        order: list[str] = []
        for digest, job in pending:
            key = replicate_key(job)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((digest, job))
        units = [groups[key] for key in order]
        # keep every worker busy: halve the largest splittable pack
        # until there are enough units (or nothing left worth splitting)
        while len(units) < workers:
            largest = max(units, key=len)
            if len(largest) < MIN_PACK_SPLIT:
                break
            at = units.index(largest)
            half = len(largest) // 2
            units[at:at + 1] = [largest[:half], largest[half:]]
        return units

    def _land_pack(
        self,
        unit: list[tuple[str, RunJob]],
        outcomes: list[PackMemberOutcome],
        pack_stats: PackStats,
        pack_seconds: float,
        pid: int,
        results: dict[str, ExecResult],
        recorder: Any,
        failures: list[JobFailure],
        progress_state: list[int],
        pending_total: int,
    ) -> float:
        """Land every member of one finished pack; returns run seconds."""
        run_seconds = 0.0
        for (digest, job), outcome in zip(unit, outcomes):
            if outcome.result is None:
                failures.append(
                    JobFailure(
                        digest=digest,
                        label=job.label(),
                        workload=job.spec.name,
                        error=outcome.error or "unknown pack member failure",
                        traceback=outcome.traceback or "",
                    )
                )
                continue
            self._record(
                digest, job, outcome.result, results, recorder,
                outcome.seconds, pid, outcome.profile_rows,
            )
            run_seconds += outcome.seconds
            progress_state[0] += 1
            self.progress.job_finished(
                progress_state[0], pending_total, job, outcome.seconds
            )
        if recorder.enabled:
            recorder.complete_span(
                "pack",
                pack_seconds,
                replicates=len(unit),
                label=unit[0][1].label(),
                workload=unit[0][1].spec.name,
                worker_pid=pid,
                failed=sum(1 for o in outcomes if o.result is None),
                reset_reuses=pack_stats.reset_reuses,
                shared_prep_hits=pack_stats.shared_prep_hits,
            )
            # run-level amortization tallies: how many pack members
            # were served by a machine reset / a shared workload build
            # instead of a from-scratch rebuild
            if pack_stats.reset_reuses:
                recorder.count("pack.reset_reuses", pack_stats.reset_reuses)
            if pack_stats.shared_prep_hits:
                recorder.count(
                    "pack.shared_prep_hits", pack_stats.shared_prep_hits
                )
        return run_seconds

    def _run_pool(
        self,
        pending: list[tuple[str, RunJob]],
        results: dict[str, ExecResult],
        workers: int,
        recorder: Any,
    ) -> float:
        # The pool machinery loads only here: serial and warm runs
        # never start a pool.
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

        # Load the simulator and the batch's workload builders here,
        # once: forked workers inherit them instead of each importing
        # them for its first job of the batch.
        from ..harness import runner  # noqa: F401

        load_builders(job.spec.name for _digest, job in pending)

        run_seconds = 0.0
        progress_state = [0]  # mutable done-counter shared with pack landing
        units = self._dispatch_units(pending, workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for unit in units:
                if len(unit) >= MIN_PACK_SIZE:
                    future = pool.submit(
                        _timed_execute_pack,
                        [job for _digest, job in unit],
                        self.profile,
                    )
                else:
                    future = pool.submit(
                        _timed_execute, unit[0][1], self.profile
                    )
                futures[future] = unit
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(
                    remaining, return_when=FIRST_EXCEPTION
                )
                # land every success in this wave first — the store
                # write-through must not lose completed work to a
                # sibling's failure
                failures: list[JobFailure] = []
                first_exc: Exception | None = None
                for future in finished:
                    unit = futures[future]
                    try:
                        payload = future.result()
                    except Exception as exc:
                        # infrastructure failure (e.g. a broken pool):
                        # every job in the unit went down with it
                        if first_exc is None:
                            first_exc = exc
                        for digest, job in unit:
                            failures.append(
                                JobFailure(
                                    digest=digest,
                                    label=job.label(),
                                    workload=job.spec.name,
                                    error=str(exc),
                                    traceback="".join(
                                        _tb.format_exception(exc)
                                    ),
                                )
                            )
                        continue
                    if len(unit) >= MIN_PACK_SIZE:
                        outcomes, pack_stats, pack_seconds, pid = payload
                        run_seconds += self._land_pack(
                            unit, outcomes, pack_stats, pack_seconds, pid,
                            results, recorder, failures, progress_state,
                            len(pending),
                        )
                    else:
                        digest, job = unit[0]
                        result, seconds, pid, rows = payload
                        self._record(
                            digest, job, result, results, recorder, seconds,
                            pid, rows,
                        )
                        run_seconds += seconds
                        progress_state[0] += 1
                        self.progress.job_finished(
                            progress_state[0], len(pending), job, seconds
                        )
                if failures:
                    # repro: allow[DET003] — cancellation of the not-yet-
                    # scheduled futures is order-insensitive: no result
                    # is produced or stored on this path
                    for other in remaining:
                        other.cancel()
                    raise self._fail(failures, recorder) from first_exc
        return run_seconds
