"""The job model: one simulation run as a picklable, hashable value.

A :class:`RunJob` captures *everything* that determines a run's outcome
— the workload spec (name, scale, seed, overrides), the full
:class:`~repro.config.SystemConfig`, the power-model fingerprint and
the validation switch — and renders it as a stable content digest
(SHA-256 over a canonical JSON encoding).  Two jobs with equal digests
are guaranteed to produce numerically identical results, which is what
lets the executor deduplicate work inside a batch and the result store
answer repeat runs from disk.

Digest normalization
--------------------
An ungated run cannot depend on gating-only parameters.  When
``config.gating.enabled`` is ``False`` and the configured contention
manager declares its ungated retry schedule independent of :math:`W_0`
(see :attr:`~repro.cm.base.ContentionManager.ungated_w0_independent`),
the digest zeroes out ``gating.w0`` — so one shared ungated baseline
serves an entire Fig. 7 :math:`W_0` sweep instead of one baseline per
sweep point.

:class:`ExecResult` is the condensed, process-boundary-friendly form of
:class:`~repro.harness.runner.RunResult`: the same headline numbers
(parallel time, energy breakdown, counters) without the raw timelines
and memory snapshot, so it pickles cheaply across workers and
round-trips exactly through JSON (see :mod:`repro.exec.serialize`).

:func:`run_job` runs one job and returns a :class:`JobOutcome` holding
the result or the caught failure, with its time and process: the unit
the executor dispatches, inline or to a process pool.

Replicate packs
---------------
:func:`replicate_key` groups seed replicates of one scenario (the job
payload with both seed slots zeroed), and :func:`execute_pack` runs
such a family back to back in one process, sharing a machine rebuilt
by :meth:`~repro.htm.machine.Machine.reset` and the seed-invariant
workload builds.  The executor does not dispatch packs; they exist
for ``paperbench``'s traced ``seeds-pool`` replay, which splits build,
reset and simulation time through them.  Each member runs
:func:`run_job` and lands under its own digest, so pack results equal
the executor's bit for bit.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..cm.registry import policy_class
from ..config import SystemConfig
from ..metrics import TxMetricsMixin
from ..power.energy import EnergyBreakdown
from ..power.model import PowerModel
from .serialize import canonical_json, config_to_dict, power_to_dict

if TYPE_CHECKING:  # the simulator loads on the first execute_job
    from ..harness.runner import RunResult, RunReuse
    from ..workloads.registry import WorkloadSpec

__all__ = [
    "SCHEMA_VERSION",
    "RunJob",
    "ExecResult",
    "execute_job",
    "JobOutcome",
    "run_job",
    "replicate_key",
    "PackStats",
    "execute_pack",
]

#: Bump whenever job semantics or the result encoding change in a way
#: that invalidates previously cached results; the store skips records
#: written under a different schema.
SCHEMA_VERSION = 1


def _ungated_w0_independent(config: SystemConfig) -> bool:
    """Does the configured CM ignore :math:`W_0` when gating is off?

    A class constant, read from the registered class without building
    a contention manager.
    """
    return policy_class(config.gating, config.seed).ungated_w0_independent


@dataclass(frozen=True)
class RunJob:
    """One (workload spec × configuration × power model) run request."""

    spec: "WorkloadSpec"
    config: SystemConfig
    power: PowerModel = field(default_factory=PowerModel.derive)

    def payload(self) -> dict[str, Any]:
        """The canonical content of this job, as plain JSON-able data.

        ``"validate"`` is always ``true``: every run checks its final
        memory and timeline tiling.  The key stays so that no job
        digest moves.
        """
        config = config_to_dict(self.config)
        if not self.config.gating.enabled and _ungated_w0_independent(
            self.config
        ):
            # The gating protocol is off and the CM's ungated retry
            # schedule ignores W0 — normalize it out of the digest so
            # one baseline serves a whole W0 sweep.
            config["gating"]["w0"] = 0
        return {
            "schema": SCHEMA_VERSION,
            "workload": {
                "name": self.spec.name,
                "scale": self.spec.scale,
                "seed": self.spec.seed,
                "overrides": [list(pair) for pair in self.spec.overrides],
            },
            "config": config,
            "power": power_to_dict(self.power),
            "validate": True,
        }

    @cached_property
    def digest(self) -> str:
        """Stable SHA-256 content digest (hex) of the canonical payload."""
        return hashlib.sha256(canonical_json(self.payload()).encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable description for progress reporting."""
        gating = self.config.gating
        mode = f"gated w0={gating.w0}" if gating.enabled else "ungated"
        return (
            f"{self.spec.name}[{self.spec.scale}] "
            f"x{self.config.num_procs} {mode}"
        )


@dataclass(frozen=True)
class ExecResult(TxMetricsMixin):
    """Condensed outcome of one job — everything the harness layers use.

    Mirrors the read API of :class:`~repro.harness.runner.RunResult`
    (``parallel_time``, ``energy``, ``counters``, and the
    :class:`~repro.metrics.TxMetricsMixin` metrics, shared with it) but
    drops the raw timelines, memory snapshot and stats objects, so it is
    cheap to ship across a process pool and serializes exactly to JSON.
    """

    workload: str
    scale: str
    config: SystemConfig
    power: PowerModel
    end_cycle: int
    parallel_start: int
    parallel_end: int
    energy: EnergyBreakdown
    counters: dict[str, int]

    @property
    def parallel_time(self) -> int:
        """The paper's N (N1 ungated, N2 gated)."""
        return self.parallel_end - self.parallel_start

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Unpickle with interned counter names.

        Pool results cross the process boundary one pickle each; with
        the names interned, every landed result shares one copy of its
        ~300 counter names instead of carrying its own.
        """
        state["counters"] = {
            sys.intern(name): value for name, value in state["counters"].items()
        }
        self.__dict__.update(state)

    @classmethod
    def from_run_result(
        cls, result: "RunResult", power: PowerModel
    ) -> "ExecResult":
        return cls(
            workload=result.workload,
            scale=result.scale,
            config=result.config,
            power=power,
            end_cycle=result.machine_result.end_cycle,
            parallel_start=result.machine_result.parallel_start,
            parallel_end=result.machine_result.parallel_end,
            energy=result.energy,
            counters=dict(result.counters),
        )


def execute_job(job: RunJob, reuse: "RunReuse | None" = None) -> ExecResult:
    """Worker entry point: run one job in the current process.

    Each invocation wires a fresh deterministic engine/machine from the
    job's spec and config, so executing in a pool worker produces
    bit-identical numbers to executing inline (the engine has no global
    state and every seed travels inside the job).  With ``reuse`` (the
    pack warm path), the previous member's machine is rebuilt in place
    by :meth:`repro.htm.machine.Machine.reset`.
    """
    from ..harness.runner import run_workload  # lazy: loads the simulator

    result = run_workload(job.spec, job.config, power_model=job.power, reuse=reuse)
    return ExecResult.from_run_result(result, job.power)


@dataclass(frozen=True)
class JobOutcome:
    """One job's result, or its failure, from :func:`run_job`.

    Exactly one of ``result`` and ``error`` is set.  ``seconds`` and
    ``pid`` say how long the job ran and in which process;
    ``profile_rows`` are its cProfile hot spots when asked for.
    """

    result: ExecResult | None
    seconds: float
    pid: int
    error: str | None = None
    traceback: str | None = None
    profile_rows: list[tuple[str, int, float, float]] | None = None

    @classmethod
    def failed(cls, exc: BaseException, seconds: float = 0.0) -> "JobOutcome":
        """The outcome of a job that raised ``exc``."""
        return cls(
            result=None,
            seconds=seconds,
            pid=os.getpid(),
            error=str(exc),
            traceback="".join(traceback.format_exception(exc)),
        )


def run_job(
    execute: Callable[..., ExecResult],
    job: RunJob,
    *args: Any,
    profile: bool = False,
) -> JobOutcome:
    """Run ``execute(job, *args)``, timing it and catching its failure.

    The executor's unit of work, inline or in a pool worker, and each
    member of :func:`execute_pack`.  ``execute`` is :func:`execute_job`,
    which each caller reads from its own module at call time, so a
    probe that replaces that name times every simulation.
    """
    started = time.perf_counter()
    try:
        if profile:
            from ..obs.profile import profile_call

            result, rows = profile_call(execute, job, *args)
        else:
            result, rows = execute(job, *args), None
    except Exception as exc:
        return JobOutcome.failed(exc, time.perf_counter() - started)
    return JobOutcome(
        result=result,
        seconds=time.perf_counter() - started,
        pid=os.getpid(),
        profile_rows=rows,
    )


# ----------------------------------------------------------------------
# replicate packs
# ----------------------------------------------------------------------
def replicate_key(job: RunJob) -> str:
    """The seed-family grouping digest of a job.

    The job's canonical payload with both seed slots — the workload
    seed and ``config.seed`` — zeroed out, hashed like the job digest.
    Jobs that differ *only* in their seeds share a replicate key; any
    other difference (workload, scale, overrides, gating, power model)
    keeps them apart, so packing by this key can never co-schedule
    jobs that are not seed replicates of one another.
    """
    payload = job.payload()
    payload["workload"]["seed"] = 0
    payload["config"]["seed"] = 0
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class PackStats:
    """Amortization tallies of one pack execution."""

    #: members served by :meth:`Machine.reset` instead of a rebuild
    reset_reuses: int = 0
    #: members whose workload build came from the shared prep cache
    shared_prep_hits: int = 0


def execute_pack(
    jobs: Sequence[RunJob],
) -> tuple[list[JobOutcome], PackStats]:
    """Run a seed family back to back in this process.

    Each member runs through :func:`run_job` with one shared
    :class:`~repro.harness.runner.RunReuse`: seed-invariant workload
    builds are cached across the family, and each member's machine is
    rebuilt in place by :meth:`repro.htm.machine.Machine.reset`.  The
    seeds travel inside the jobs, so results are bit-identical to the
    executor's.  A member's failure lands in its outcome and drops the
    cached machine (it may be mid-run), so the next member rebuilds
    from scratch; the machine is closed when the pack ends.
    """
    from ..harness.runner import RunReuse  # lazy: loads the simulator

    reuse = RunReuse()
    outcomes: list[JobOutcome] = []
    for job in jobs:
        outcome = run_job(execute_job, job, reuse)
        if outcome.result is None:
            reuse.discard_machine()
        outcomes.append(outcome)
    reuse.discard_machine()
    stats = PackStats(
        reset_reuses=reuse.machine_resets, shared_prep_hits=reuse.prep_hits
    )
    return outcomes, stats
