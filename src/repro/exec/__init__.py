"""Parallel experiment execution with content-addressed result caching.

``repro.exec`` turns the paper's evaluation grids — workload × config ×
:math:`W_0` × processor count, Figs. 3–7 — from a serial loop into a
batch of independent, deduplicated, cacheable jobs:

* :mod:`~repro.exec.jobs` — :class:`RunJob`, a picklable, hashable run
  request with a stable SHA-256 content digest, and :class:`ExecResult`,
  the condensed process-boundary result.
* :mod:`~repro.exec.executor` — :class:`Executor`, serial or
  ``ProcessPoolExecutor``-backed fan-out with in-batch dedup and
  deterministic result ordering; :class:`BatchReport` totals.
* :mod:`~repro.exec.store` — :class:`ResultStore`, a digest-keyed
  on-disk cache with tombstone invalidation, persisted as one
  advisory-locked ``results.jsonl`` log per cache directory.
* :mod:`~repro.exec.progress` — per-job status and wall-clock/speed-up
  reporting.

Quickstart::

    from repro import SystemConfig
    from repro.exec import Executor, ResultStore, RunJob
    from repro.harness.runner import workload

    exe = Executor(jobs=4, store=ResultStore(".repro-cache"))
    spec = workload("intruder", scale="small")
    jobs = [RunJob(spec, SystemConfig(num_procs=p)) for p in (4, 8, 16)]
    results = exe.run(jobs)           # parallel, cached, in order
    print(exe.last_report.summary())

:func:`~repro.harness.compare.compare_gating` and
:func:`~repro.scenarios.runner.run_suite` accept an ``executor=``
argument and submit through this subsystem, as does the figure
builder; the CLI exposes it as ``--jobs N``, ``--cache-dir PATH``,
``--no-cache`` and the ``exec-status`` subcommand.
"""

from __future__ import annotations

from .executor import (
    BatchExecutionError,
    BatchReport,
    Executor,
    JobFailure,
    usable_cpus,
)
from .jobs import SCHEMA_VERSION, ExecResult, RunJob, execute_job
from .progress import ConsoleProgress, NullProgress, ProgressListener
from .store import PruneReport, ResultStore, StoreStats

__all__ = [
    "RunJob",
    "ExecResult",
    "execute_job",
    "SCHEMA_VERSION",
    "Executor",
    "BatchReport",
    "BatchExecutionError",
    "JobFailure",
    "usable_cpus",
    "ResultStore",
    "StoreStats",
    "PruneReport",
    "ProgressListener",
    "NullProgress",
    "ConsoleProgress",
]
