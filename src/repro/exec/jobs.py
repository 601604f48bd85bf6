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

Replicate packs
---------------
Seed replicates of one scenario — jobs identical except for the seed
fields — are the common bulk shape of statistical runs.
:func:`replicate_key` is the grouping digest (the job payload with
both seed slots zeroed) and :func:`execute_pack` is the worker-side
shape: all members of a seed family execute sequentially inside ONE
worker process (warm interpreter, warm import graph, one pool
round-trip), while each member still produces its own independently
digest-keyed :class:`ExecResult` — the store, dedup and planning
layers never see packs at all.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Sequence

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
    "replicate_key",
    "PackMemberOutcome",
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
class PackMemberOutcome:
    """One member's result (or failure) from a pack execution.

    Exactly one of ``result`` and ``error`` is set; a member failure
    never discards its siblings' finished work — the executor lands
    every success in the pack before surfacing the failures.
    """

    result: ExecResult | None
    seconds: float
    error: str | None = None
    traceback: str | None = None
    profile_rows: list[tuple[str, int, float, float]] | None = None


@dataclass(frozen=True)
class PackStats:
    """Amortization tallies of one pack execution (obs counters)."""

    #: members served by :meth:`Machine.reset` instead of a rebuild
    reset_reuses: int = 0
    #: members whose workload build came from the shared prep cache
    shared_prep_hits: int = 0


def execute_pack(
    jobs: Sequence[RunJob], profile: bool = False
) -> tuple[list[PackMemberOutcome], PackStats]:
    """Worker entry point: run a seed family sequentially in one process.

    Each member runs through the exact same :func:`execute_job` path a
    standalone dispatch uses — same seeds travelling inside the job —
    so pack results are bit-identical to per-process results by
    construction.  The pack amortizes process/dispatch overhead plus,
    via a shared :class:`~repro.harness.runner.RunReuse`, the per-seed
    constant factor: seed-invariant workload preparation is cached
    across the family, and each member's machine is rebuilt in place
    by :meth:`repro.htm.machine.Machine.reset`.
    Per-member exceptions are caught so one bad seed cannot take down
    the rest of the family; a failure also drops the cached machine
    (it may be mid-run), so the next member rebuilds from scratch.  The
    machine is closed when the pack ends, so a pool worker carries no
    dead machine between packs.
    """
    from ..harness.runner import RunReuse  # lazy: loads the simulator

    reuse = RunReuse()
    outcomes: list[PackMemberOutcome] = []
    for job in jobs:
        started = time.perf_counter()
        try:
            if profile:
                from ..obs.profile import profile_call

                result, rows = profile_call(execute_job, job, reuse)
            else:
                result, rows = execute_job(job, reuse), None
        except Exception as exc:
            reuse.discard_machine()
            outcomes.append(
                PackMemberOutcome(
                    result=None,
                    seconds=time.perf_counter() - started,
                    error=str(exc),
                    traceback="".join(traceback.format_exception(exc)),
                )
            )
        else:
            outcomes.append(
                PackMemberOutcome(
                    result=result,
                    seconds=time.perf_counter() - started,
                    profile_rows=rows,
                )
            )
    reuse.discard_machine()
    stats = PackStats(
        reset_reuses=reuse.machine_resets, shared_prep_hits=reuse.prep_hits
    )
    return outcomes, stats
