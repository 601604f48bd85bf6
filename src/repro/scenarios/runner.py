"""Suite execution: lower scenarios to jobs, run them through the cache.

The runner is a thin, deterministic bridge between the declarative
layer and :mod:`repro.exec`: every spec lowers to a
:class:`~repro.exec.jobs.RunJob`, the whole list goes to the executor
as ONE batch (so shared baselines deduplicate across the entire suite
and the result store answers repeat runs with zero simulations), and
results come back paired with the spec that requested them, in
submission order.

:func:`lower_suite` (and :func:`lower_specs` for an explicit spec list)
is the one place specs become jobs: planning, running, sharding and the
figure builder all consume its :class:`LoweredSuite`.  A caller lowering
several suites in one pass shares a ``memo`` dict, so a scenario that
appears in more than one grid is lowered and digested once.

Two multi-host primitives live here as well:

* :class:`Shard` — a deterministic ``K/N`` slice of a suite's deduped
  job list, partitioned by job digest, so N hosts each run
  ``suite run --shard k/N`` against the same suite JSON and cover the
  grid exactly once between them (``repro suite merge`` folds their
  stores back together).
* :func:`plan_suite` — cache-aware scenario search: walk an expanded
  grid, probe the result store per job digest *without simulating*,
  and emit the residual misses as a dispatchable
  :class:`~repro.scenarios.suite.SpecListSuite`.
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
from ..obs import get_recorder
from ..power.model import PowerModel
from .spec import ScenarioSpec
from .suite import ScenarioSuite, SpecListSuite

__all__ = [
    "ScenarioResult",
    "SuiteRun",
    "Shard",
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


@dataclass(frozen=True)
class Shard:
    """One deterministic slice, ``index`` of ``count``, of a job list.

    Jobs are assigned by content digest — ``int(digest, 16) % count`` —
    so the partition depends only on *what must be simulated*: every
    host that expands the same suite agrees on the split without
    coordination, and scenarios that collapse onto one job digest
    (e.g. ungated W0 variants) always land in the same shard.
    """

    index: int  # 1-based, as written on the command line
    count: int

    def __post_init__(self) -> None:
        if self.count < 1 or not 1 <= self.index <= self.count:
            raise ExecutionError(
                f"invalid shard {self.index}/{self.count}: need "
                f"1 <= K <= N"
            )

    @classmethod
    def parse(cls, text: str) -> "Shard":
        """Parse the CLI spelling ``K/N`` (e.g. ``2/4``)."""
        try:
            index, count = (int(part) for part in text.split("/"))
        except ValueError:
            raise ExecutionError(
                f"invalid shard spec {text!r}: expected K/N (e.g. 2/4)"
            ) from None
        return cls(index=index, count=count)

    def owns(self, digest: str) -> bool:
        """Does this shard own the job with hex content digest *digest*?"""
        return int(digest, 16) % self.count == self.index - 1

    def filter_specs(
        self,
        specs: Sequence[ScenarioSpec],
        power_model: PowerModel | None = None,
        validate: bool = True,
    ) -> list[ScenarioSpec]:
        """The sub-list of *specs* whose lowered job digest this shard
        owns (``power_model``/``validate`` must match the run's, since
        both enter the digest)."""
        return list(
            lower_specs(specs, power_model, validate).owned_by(self).specs
        )

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


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

    suite: Any  # ScenarioSuite or SpecListSuite; None for a bare spec list
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

    def owned_by(self, shard: Shard | None) -> "LoweredSuite":
        """The scenarios whose job digest *shard* owns (all when None)."""
        if shard is None:
            return self
        kept = [
            (spec, job)
            for spec, job in zip(self.specs, self.jobs)
            if shard.owns(job.digest)
        ]
        return LoweredSuite(
            suite=self.suite,
            specs=tuple(spec for spec, _job in kept),
            jobs=tuple(job for _spec, job in kept),
        )


def lower_specs(
    specs: Sequence[ScenarioSpec],
    power_model: PowerModel | None = None,
    validate: bool = True,
    memo: dict[ScenarioSpec, RunJob] | None = None,
) -> LoweredSuite:
    """Lower already-expanded scenarios to jobs, in order (the result's
    ``suite`` is None).

    ``memo`` maps scenario values to the jobs they lowered to; share one
    dict across the suites of a pass (under one ``power_model`` and
    ``validate``, which both enter the digest) and a scenario that
    recurs is lowered and digested once.
    """
    model = power_model if power_model is not None else PowerModel.derive()
    cache = memo if memo is not None else {}
    jobs: list[RunJob] = []
    for spec in specs:
        try:
            job = cache[spec]
        except KeyError:
            job = cache[spec] = spec.to_job(power=model, validate=validate)
        except TypeError:  # an unhashable override value (a list)
            job = spec.to_job(power=model, validate=validate)
        jobs.append(job)
    return LoweredSuite(suite=None, specs=tuple(specs), jobs=tuple(jobs))


def lower_suite(
    suite: Any,
    power_model: PowerModel | None = None,
    validate: bool = True,
    memo: dict[ScenarioSpec, RunJob] | None = None,
) -> LoweredSuite:
    """Expand *suite* (validating every scenario) and lower it to jobs.

    The single lowering step behind :func:`plan_suite`,
    :func:`run_suite` and the figure builder; see :func:`lower_specs`
    for ``memo``.
    """
    lowered = lower_specs(suite.expand(), power_model, validate, memo)
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
    #: set when the run covered only one shard of the suite's job list
    shard: Shard | None = None

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
        :func:`repro.figures.extract.pair_results` derivation — the one
        the figure pipeline's extractors use.  Suites without such
        pairs return [].
        """
        # Lazy: repro.figures builds on the scenario layer; importing it
        # here avoids a cycle.
        from ..figures.extract import pair_results
        from ..power.energy import average_power_reduction, energy_reduction

        rows = []
        for gated, baseline in pair_results(self.results):
            n1 = baseline.result.parallel_time
            n2 = gated.result.parallel_time
            rows.append(
                (
                    gated.spec.workload,
                    gated.spec.threads,
                    gated.spec.w0,
                    round(n1 / n2, 3),
                    round(
                        energy_reduction(
                            baseline.result.energy, gated.result.energy
                        ),
                        3,
                    ),
                    round(
                        average_power_reduction(
                            baseline.result.energy, gated.result.energy
                        ),
                        3,
                    ),
                )
            )
        return rows

    PAIRED_HEADERS = (
        "workload", "threads", "W0", "speed-up", "energy red.", "power red.",
    )


def run_specs(
    specs: Sequence[ScenarioSpec],
    executor: Executor | None = None,
    power_model: PowerModel | None = None,
    validate: bool = True,
) -> list[ScenarioResult]:
    """Execute scenarios as one batch; results in submission order."""
    exe = executor if executor is not None else Executor()
    lowered = lower_specs(specs, power_model, validate)
    results = exe.run(list(lowered.jobs))
    return [
        ScenarioResult(spec=spec, result=result)
        for spec, result in zip(lowered.specs, results)
    ]


def run_suite(
    suite: ScenarioSuite,
    executor: Executor | None = None,
    power_model: PowerModel | None = None,
    validate: bool = True,
    shard: Shard | None = None,
) -> SuiteRun:
    """Expand and execute a whole suite through one executor batch.

    With ``shard``, only the scenarios whose job digest the shard owns
    are executed — run every shard of the same suite (on as many hosts
    as you like, each with its own cache directory) and ``repro suite
    merge`` the stores to reassemble the full grid.
    """
    exe = executor if executor is not None else Executor()
    recorder = get_recorder()
    with recorder.span(
        "suite.run", suite=suite.name,
        shard=str(shard) if shard is not None else None,
    ) as span:
        # lower once: the same jobs serve the shard filter and the execution
        lowered = lower_suite(suite, power_model, validate).owned_by(shard)
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
            suite=suite, results=scenario_results, report=exe.last_report,
            shard=shard,
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
    milliseconds, so a coordinator can walk large grids, dispatch only
    :meth:`residual_suite` to workers, and re-plan after a merge to
    verify full coverage (0 misses).
    """

    suite: Any  # ScenarioSuite or SpecListSuite (duck-typed)
    entries: list[PlanEntry] = field(default_factory=list)
    shard: Shard | None = None

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

    def miss_specs(self) -> list[ScenarioSpec]:
        """One representative spec per uncached job, in plan order."""
        return [entry.spec for entry in self.entries if not entry.cached]

    def residual_suite(self, name: str | None = None) -> SpecListSuite:
        """The misses as a dispatchable explicit-spec suite."""
        return SpecListSuite(
            name=name if name else f"{self.suite.name}-misses",
            specs=tuple(self.miss_specs()),
            description=(
                f"residual cache misses of suite {self.suite.name!r} "
                f"({self.misses} of {self.unique_jobs} unique jobs)"
            ),
        )

    def summary(self) -> str:
        shard = f" [shard {self.shard}]" if self.shard is not None else ""
        return (
            f"plan {self.suite.name}{shard}: {self.unique_jobs} unique "
            f"job(s) from {self.total_scenarios} scenario(s) — "
            f"{self.hits} hit(s), {self.misses} miss(es)"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite.name,
            "shard": str(self.shard) if self.shard is not None else None,
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
    suite: ScenarioSuite | SpecListSuite | LoweredSuite,
    store: ResultStore | None = None,
    power_model: PowerModel | None = None,
    validate: bool = True,
    shard: Shard | None = None,
) -> SuitePlan:
    """Walk a suite's expanded grid and report hit/miss per job digest.

    Nothing is simulated: the suite is lowered with :func:`lower_suite`
    (unless it already was — ``power_model``/``validate`` are then the
    lowering's) and the store is probed with ``in`` once per unique job
    digest (which counts toward the store's session hit/miss statistics
    — the documented accounting contract).  ``store=None`` plans against
    an empty cache (everything a miss); ``shard`` restricts the plan to
    one slice of the job list, mirroring ``run_suite``'s partition
    exactly.
    """
    source = suite.suite if isinstance(suite, LoweredSuite) else suite
    with get_recorder().span(
        "suite.plan", suite=source.name,
        shard=str(shard) if shard is not None else None,
    ) as span:
        lowered = (
            suite if isinstance(suite, LoweredSuite)
            else lower_suite(suite, power_model, validate)
        )
        entries = [
            PlanEntry(
                digest=digest,
                cached=(store is not None and digest in store),
                scenarios=unique.scenarios,
                spec=unique.spec,
                job=unique.job,
            )
            for digest, unique in lowered.owned_by(shard).unique.items()
        ]
        plan = SuitePlan(suite=source, entries=entries, shard=shard)
        span.annotate(
            unique_jobs=plan.unique_jobs, hits=plan.hits, misses=plan.misses
        )
        return plan
