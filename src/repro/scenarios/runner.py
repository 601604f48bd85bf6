"""Suite execution: lower scenarios to jobs, run them through the cache.

The runner is a thin, deterministic bridge between the declarative
layer and :mod:`repro.exec`: every spec lowers to a
:class:`~repro.exec.jobs.RunJob`, the whole list goes to the executor
as ONE batch (so shared baselines deduplicate across the entire suite
and the result store answers repeat runs with zero simulations), and
results come back paired with the spec that requested them, in
submission order.

:func:`lower_suite` (and :func:`lower_specs` for an explicit spec list)
is the one place specs become jobs: planning, running and the figure
builder all consume its :class:`LoweredSuite`.  A caller lowering
several suites in one pass shares a ``memo`` dict, so a scenario that
appears in more than one grid is lowered and digested once.

:func:`plan_suite` is the cache-aware scenario search: walk an expanded
grid and probe the result store per job digest *without simulating*.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, NamedTuple, Sequence

from ..errors import ExecutionError
from ..exec.executor import BatchReport, Executor
from ..exec.jobs import ExecResult, RunJob
from ..exec.store import ResultStore
from ..harness.compare import GatingComparison
from ..obs import get_recorder
from ..power.model import PowerModel
from .spec import ScenarioSpec
from .suite import ScenarioSuite

__all__ = [
    "ScenarioResult",
    "SuiteRun",
    "LoweredJob",
    "LoweredSuite",
    "PlanEntry",
    "SuitePlan",
    "lower_specs",
    "lower_suite",
    "plan_suite",
    "run_specs",
    "run_suite",
]


class LoweredJob(NamedTuple):
    """One unique job of a lowered suite."""

    #: the first expanded scenario that lowers to this job
    spec: ScenarioSpec
    job: RunJob
    #: how many expanded scenarios collapse onto this job digest
    scenarios: int


@dataclass(frozen=True)
class LoweredSuite:
    """A suite's scenarios, each paired with the job it lowers to.

    ``specs[i]`` lowers to ``jobs[i]``, in expansion order; distinct
    scenarios may share one job (ungated W0 variants do).
    """

    #: None for a bare spec list (:func:`lower_specs`)
    suite: ScenarioSuite | None
    specs: tuple[ScenarioSpec, ...]
    jobs: tuple[RunJob, ...]

    @cached_property
    def unique(self) -> dict[str, LoweredJob]:
        """Job digest -> :class:`LoweredJob`, in first-seen order."""
        counts = Counter(job.digest for job in self.jobs)
        out: dict[str, LoweredJob] = {}
        for spec, job in zip(self.specs, self.jobs):
            if job.digest not in out:
                out[job.digest] = LoweredJob(spec, job, counts[job.digest])
        return out


def lower_specs(
    specs: Sequence[ScenarioSpec],
    memo: dict[ScenarioSpec, RunJob] | None = None,
) -> LoweredSuite:
    """Lower already-expanded scenarios to jobs, in order (the result's
    ``suite`` is None), under the paper's derived power model.

    ``memo`` maps scenario values to the jobs they lowered to; share one
    dict across the suites of a pass and a scenario that recurs is
    lowered and digested once.
    """
    model = PowerModel.derive()
    cache = memo if memo is not None else {}
    jobs: list[RunJob] = []
    for spec in specs:
        try:
            job = cache[spec]
        except KeyError:
            job = cache[spec] = spec.to_job(power=model)
        except TypeError:  # an unhashable override value (a list)
            job = spec.to_job(power=model)
        jobs.append(job)
    return LoweredSuite(suite=None, specs=tuple(specs), jobs=tuple(jobs))


def lower_suite(
    suite: ScenarioSuite,
    memo: dict[ScenarioSpec, RunJob] | None = None,
) -> LoweredSuite:
    """Expand *suite* (validating every scenario) and lower it to jobs.

    The single lowering step behind :func:`plan_suite`,
    :func:`run_suite` and the figure builder; see :func:`lower_specs`
    for ``memo``.
    """
    lowered = lower_specs(suite.expand(), memo)
    return replace(lowered, suite=suite)


@dataclass(frozen=True)
class ScenarioResult:
    """One executed scenario: what was asked, and what came back."""

    spec: ScenarioSpec
    result: ExecResult


@dataclass
class SuiteRun:
    """Everything one suite execution produced."""

    suite: ScenarioSuite
    results: list[ScenarioResult]
    report: BatchReport | None = None

    def __len__(self) -> int:
        return len(self.results)

    # ------------------------------------------------------------------
    def rows(self) -> list[tuple]:
        """One flat row per scenario, ready for table rendering."""
        rows = []
        for entry in self.results:
            spec, result = entry.spec, entry.result
            rows.append(
                (
                    spec.workload,
                    spec.scale,
                    spec.threads,
                    "gated" if spec.gating else "ungated",
                    spec.w0,
                    spec.cm,
                    result.parallel_time,
                    round(result.energy.total, 1),
                    result.commits,
                    result.aborts,
                )
            )
        return rows

    ROW_HEADERS = (
        "workload", "scale", "threads", "mode", "W0", "cm",
        "N", "energy", "commits", "aborts",
    )

    def paired_rows(self) -> list[tuple]:
        """Gated/ungated pairs with the paper's three reduction metrics.

        Pairing (gated scenario ↔ the ungated scenario identical in
        every other spec field, same W0 point first) is the shared
        :func:`repro.figures.extract.pair_results` derivation, and the
        metrics are :class:`~repro.harness.compare.GatingComparison`'s —
        both exactly what the figure pipeline's extractors use.  Suites
        without such pairs return [].
        """
        # Lazy: repro.figures builds on the scenario layer; importing it
        # here avoids a cycle.
        from ..figures.extract import pair_results

        rows = []
        for gated, baseline in pair_results(self.results):
            pair = GatingComparison(
                workload=gated.spec.workload,
                num_procs=gated.spec.threads,
                ungated=baseline.result,
                gated=gated.result,
            )
            rows.append(
                (
                    gated.spec.workload,
                    gated.spec.threads,
                    gated.spec.w0,
                    round(pair.speedup, 3),
                    round(pair.energy_reduction, 3),
                    round(pair.power_reduction, 3),
                )
            )
        return rows

    PAIRED_HEADERS = (
        "workload", "threads", "W0", "speed-up", "energy red.", "power red.",
    )


def run_specs(
    specs: Sequence[ScenarioSpec], executor: Executor | None = None
) -> list[ScenarioResult]:
    """Execute scenarios as one batch; results in submission order."""
    exe = executor if executor is not None else Executor()
    lowered = lower_specs(specs)
    results = exe.run(list(lowered.jobs))
    return [
        ScenarioResult(spec=spec, result=result)
        for spec, result in zip(lowered.specs, results)
    ]


def run_suite(
    suite: ScenarioSuite, executor: Executor | None = None
) -> SuiteRun:
    """Expand and execute a whole suite through one executor batch."""
    exe = executor if executor is not None else Executor()
    recorder = get_recorder()
    with recorder.span("suite.run", suite=suite.name) as span:
        lowered = lower_suite(suite)
        jobs = list(lowered.jobs)
        span.annotate(scenarios=len(jobs))
        if recorder.enabled and jobs:
            import hashlib

            recorder.note_suite(
                suite.name,
                hashlib.sha256(
                    "\n".join(sorted(job.digest for job in jobs)).encode()
                ).hexdigest(),
            )
        results = exe.run(jobs)
        scenario_results = [
            ScenarioResult(spec=spec, result=result)
            for spec, result in zip(lowered.specs, results)
        ]
        return SuiteRun(
            suite=suite, results=scenario_results, report=exe.last_report
        )


# ----------------------------------------------------------------------
# cache-aware scenario search
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanEntry:
    """One unique job in a plan: its digest, cache state, and scenarios."""

    digest: str
    cached: bool
    #: how many expanded scenarios collapse onto this job digest
    scenarios: int
    #: the first expanded scenario that lowers to this job
    spec: ScenarioSpec
    #: the job it lowered to (what a build hands the executor on a miss)
    job: RunJob

    @property
    def label(self) -> str:
        return self.spec.label()


@dataclass
class SuitePlan:
    """Hit/miss map of a suite against a result store — no simulation.

    This is the cache-aware scenario search the W0 × CM × workload
    grids need: expanding and probing a fig-7-style matrix costs
    milliseconds, so a large grid can be checked for full coverage
    (0 misses) before anything runs.
    """

    suite: ScenarioSuite
    entries: list[PlanEntry] = field(default_factory=list)

    @property
    def total_scenarios(self) -> int:
        return sum(entry.scenarios for entry in self.entries)

    @property
    def unique_jobs(self) -> int:
        return len(self.entries)

    @property
    def hits(self) -> int:
        return sum(1 for entry in self.entries if entry.cached)

    @property
    def misses(self) -> int:
        return sum(1 for entry in self.entries if not entry.cached)

    def summary(self) -> str:
        return (
            f"plan {self.suite.name}: {self.unique_jobs} unique "
            f"job(s) from {self.total_scenarios} scenario(s) — "
            f"{self.hits} hit(s), {self.misses} miss(es)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite.name,
            "total_scenarios": self.total_scenarios,
            "unique_jobs": self.unique_jobs,
            "hits": self.hits,
            "misses": self.misses,
            "entries": [
                {
                    "digest": entry.digest,
                    "cached": entry.cached,
                    "scenarios": entry.scenarios,
                    "label": entry.label,
                }
                for entry in self.entries
            ],
        }


def plan_suite(
    suite: ScenarioSuite | LoweredSuite, store: ResultStore | None = None
) -> SuitePlan:
    """Walk a suite's expanded grid and report hit/miss per job digest.

    Nothing is simulated: the suite is lowered with :func:`lower_suite`
    (unless it already was) and the store is probed with ``in`` once
    per unique job digest (which counts toward the store's session
    hit/miss statistics — the documented accounting contract).
    ``store=None`` plans against an empty cache (everything a miss).
    """
    source = suite.suite if isinstance(suite, LoweredSuite) else suite
    if source is None:
        raise ExecutionError("plan_suite needs a suite, not a bare spec list")
    with get_recorder().span("suite.plan", suite=source.name) as span:
        lowered = (
            suite if isinstance(suite, LoweredSuite) else lower_suite(suite)
        )
        entries = [
            PlanEntry(
                digest=digest,
                cached=(store is not None and digest in store),
                scenarios=unique.scenarios,
                spec=unique.spec,
                job=unique.job,
            )
            for digest, unique in lowered.unique.items()
        ]
        plan = SuitePlan(suite=source, entries=entries)
        span.annotate(
            unique_jobs=plan.unique_jobs, hits=plan.hits, misses=plan.misses
        )
        return plan
