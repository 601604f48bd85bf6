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
3. **Execute** — each remaining job is one unit of work, timed and
   caught by :func:`~repro.exec.jobs.run_job`: called inline
   (``jobs=1``, the serial backend) or submitted on its own to a
   :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker wires
   its own deterministic engine from the pickled job, so the parallel
   path produces bit-identical numbers to the serial path, and result
   ordering never depends on completion order.

Both backends land every outcome through one method, as it finishes:
a result is written through to the store and reported to the progress
listener and the obs log at once, so an interrupted or failing batch
keeps everything that finished.  A failure stops the serial backend
after the failing job; the pool cancels the jobs that have not started,
lands every outcome that still arrives, and the batch then raises one
:class:`BatchExecutionError` naming every failure.

Every ``run`` leaves a :class:`BatchReport` on
:attr:`Executor.last_report` with per-batch totals and the measured
serial-equivalent speed-up.

Observability (:mod:`repro.obs`): each ``run`` is a ``batch`` span;
every executed job lands as a ``job`` span carrying its digest, worker
pid, duration, and the simulator's transaction/gating counters; cache
hits are ``job.cache_hit`` events and failures are ``job.failed``
events with the full worker traceback.  Spans are recorded in the
*parent* process as each job lands (workers never write the event log
on the pool path), and the run manifest is rewritten after every batch
— so a killed run still documents everything that finished.  All of it
no-ops through :class:`~repro.obs.NullRecorder` when observability is
off, leaving result bytes untouched.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..errors import ExecutionError
from ..obs import get_recorder
from ..workloads.registry import load_builders
from .jobs import ExecResult, JobOutcome, RunJob, execute_job, run_job
from .progress import ProgressListener
from .store import ResultStore

__all__ = [
    "Executor", "BatchReport", "BatchExecutionError", "JobFailure", "usable_cpus",
]


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


#: sim counter namespaces surfaced into job spans — the abort/retry and
#: clock-gating activity that explains *why* a grid point behaved as it
#: did (everything else in ``counters`` is derivable from the result)
SPAN_COUNTER_PREFIXES = ("tx.", "gating.")


def _run(job: RunJob, profile: bool) -> JobOutcome:
    """One unit of dispatch: one job, inline or in a pool worker.

    ``execute_job`` is read from this module at call time, so a probe
    that replaces ``repro.exec.executor.execute_job`` before the pool
    forks times every simulation, serial or pooled.
    """
    return run_job(execute_job, job, profile=profile)


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


@dataclass
class _Landing:
    """What one batch's landed outcomes have added up to so far."""

    results: dict[str, ExecResult]
    recorder: Any
    pending: int
    done: int = 0
    run_seconds: float = 0.0
    failures: list[JobFailure] = field(default_factory=list)


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
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | str | Path | None = None,
        progress: ProgressListener | None = None,
        profile: bool = False,
    ) -> None:
        if jobs < 0:
            raise ExecutionError(f"worker count cannot be negative: {jobs}")
        self.jobs = jobs if jobs > 0 else usable_cpus()
        if isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.progress = progress if progress is not None else ProgressListener()
        self.profile = profile
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
        workers = min(self.jobs, len(pending))
        self.progress.batch_started(
            len(batch), len(unique), cache_hits, max(workers, 1)
        )

        landing = _Landing(results, recorder, len(pending))
        try:
            if workers == 1:
                self._run_serial(pending, landing)
            elif workers > 1:
                self._run_pool(pending, landing, workers)
            if landing.failures:
                raise self._batch_error(landing.failures, recorder)
        finally:
            failed = len(landing.failures)
            report = BatchReport(
                total=len(batch),
                unique=len(unique),
                deduplicated=len(batch) - len(unique),
                cache_hits=cache_hits,
                executed=len(results) - cache_hits,
                workers=max(workers, 1),
                wall_seconds=time.perf_counter() - started,
                run_seconds=landing.run_seconds,
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
    def _land(
        self, landing: _Landing, digest: str, job: RunJob, outcome: JobOutcome
    ) -> None:
        """Land one job's outcome, from either backend, as it finishes.

        A result is written through to the store at once, so finished
        work survives a later failure, and reaches the progress
        listener, the obs job span and the profile merge; a failure
        joins the batch's failures.
        """
        result = outcome.result
        if result is None:
            landing.failures.append(
                JobFailure(
                    digest=digest,
                    label=job.label(),
                    workload=job.spec.name,
                    error=outcome.error or "",
                    traceback=outcome.traceback or "",
                )
            )
            return
        landing.results[digest] = result
        if self.store is not None:
            self.store.put(digest, result, job=job)
        recorder = landing.recorder
        recorder.note_job_seconds(outcome.seconds)
        if recorder.enabled:
            recorder.complete_span(
                "job",
                outcome.seconds,
                digest=digest,
                label=job.label(),
                workload=job.spec.name,
                worker_pid=outcome.pid,
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
        if outcome.profile_rows is not None:
            recorder.add_profile(outcome.profile_rows)
        landing.run_seconds += outcome.seconds
        landing.done += 1
        self.progress.job_finished(
            landing.done, landing.pending, job, outcome.seconds
        )

    def _batch_error(
        self, failures: list[JobFailure], recorder: Any
    ) -> BatchExecutionError:
        """Record failure events and build the batch error."""
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
        self, pending: list[tuple[str, RunJob]], landing: _Landing
    ) -> None:
        """Run each job inline, stopping after the first failure."""
        for digest, job in pending:
            self._land(landing, digest, job, _run(job, self.profile))
            if landing.failures:
                return

    def _run_pool(
        self,
        pending: list[tuple[str, RunJob]],
        landing: _Landing,
        workers: int,
    ) -> None:
        """Submit each job to a process pool and land each as it ends.

        After the first failure, the jobs that have not started are
        cancelled and every outcome that still arrives lands.
        """
        # The pool machinery loads only here: serial and warm runs
        # never start a pool.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        # Load the simulator and the batch's workload builders here,
        # once: forked workers inherit them instead of each importing
        # them for its first job of the batch.
        from ..harness import runner  # noqa: F401

        load_builders(job.spec.name for _digest, job in pending)

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run, job, self.profile): (digest, job)
                for digest, job in pending
            }
            while futures:
                for future in wait(futures, return_when=FIRST_COMPLETED).done:
                    digest, job = futures.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        # the pool broke, or the outcome could not
                        # cross the process boundary
                        outcome = JobOutcome.failed(exc)
                    self._land(landing, digest, job, outcome)
                if landing.failures:
                    for future in list(futures):
                        if future.cancel():
                            del futures[future]
