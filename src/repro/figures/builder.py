"""Incremental, store-driven regeneration of every registered artifact.

The :class:`FigureBuilder` turns "rerun the paper" into one cache-aware
pass:

1. **Resolve + lower** — every requested figure resolves its scenario
   suite under one shared :class:`~repro.figures.spec.FigureParams`;
   each unique suite (Figs. 4–6 + headline share one) is expanded and
   lowered once by :func:`~repro.scenarios.runner.lower_suite`, and a
   scenario shared between suites (the evaluation grid sits inside the
   Fig. 7 grid) is lowered and digested once.
2. **Plan** — each unique suite is planned against the result store
   with :func:`~repro.scenarios.runner.plan_suite` (digest probes, zero
   simulation); the union of residual misses across all suites is the
   only work left.
3. **Execute** — the residual jobs, as already lowered, run as ONE
   executor batch (``--jobs`` workers, write-through to the store).
4. **Extract + render** — each figure's extractor runs over the store's
   records and the JSON artifact is written with full provenance.  Each
   job digest is read from the store once, its result shared by every
   figure and suite that needs it.  Artifacts whose content digest
   already matches on disk are skipped (``fresh``); a warm store plus
   fresh artifacts makes a repeat build report **0 simulations** and
   leave every byte untouched.

Every memo of a pass lives in one :class:`_Pass` and dies with it.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..errors import FigureError
from ..exec.executor import BatchReport, Executor
from ..exec.jobs import ExecResult, RunJob
from ..exec.progress import ProgressListener
from ..exec.store import ResultStore
from ..obs import get_recorder
from ..power.model import PowerModel
from ..scenarios.runner import (
    LoweredSuite,
    ScenarioResult,
    SuitePlan,
    lower_suite,
    plan_suite,
)
from ..scenarios.spec import ScenarioSpec
from .extract import ExtractionContext, get_extractor
from .registry import available_figures, get_figure
from .render import figure_payload, render_csv, render_json, render_png
from .spec import FigureParams, FigureSpec, figure_digest

__all__ = ["FigureBuilder", "FigureStatus", "FigureArtifact", "BuildReport"]


@dataclass(frozen=True)
class FigureStatus:
    """One figure's standing against the store and the output directory."""

    name: str
    kind: str
    digest: str
    #: artifact file state: ``fresh`` (digest matches), ``stale``
    #: (exists, different digest), ``missing``
    artifact: str
    path: Path
    suite: str | None
    total_jobs: int
    hits: int
    misses: int

    def row(self) -> tuple:
        coverage = (
            f"{self.hits}/{self.total_jobs}" if self.suite is not None else "-"
        )
        return (self.name, self.kind, self.suite or "-", coverage,
                self.artifact)

    ROW_HEADERS = ("figure", "kind", "suite", "cached jobs", "artifact")


@dataclass(frozen=True)
class FigureArtifact:
    """Outcome of one figure in a build pass."""

    name: str
    #: ``fresh`` (skipped, digest matched), ``built`` (new file),
    #: ``rebuilt`` (stale file replaced), ``incomplete`` (the store
    #: does not cover the figure's suite; nothing is rendered)
    status: str
    digest: str
    path: Path | None = None


@dataclass
class BuildReport:
    """Everything one :meth:`FigureBuilder.build` pass did."""

    artifacts: list[FigureArtifact] = field(default_factory=list)
    #: unique jobs across every requested figure's suite
    total_jobs: int = 0
    #: residual cache misses the plan found
    planned_misses: int = 0
    #: simulations actually executed by this pass
    executed: int = 0
    batch: BatchReport | None = None

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for artifact in self.artifacts:
            out[artifact.status] = out.get(artifact.status, 0) + 1
        return out

    def summary(self) -> str:
        states = ", ".join(
            f"{count} {status}" for status, count in sorted(self.counts().items())
        ) or "nothing to do"
        return (
            f"figures build: {states}; simulated {self.executed} "
            f"residual job(s) ({self.planned_misses} missing of "
            f"{self.total_jobs} unique)"
        )


#: (figure, resolved suite or None, figure digest)
Resolved = tuple[FigureSpec, Any, str]

#: a suite's scenario results and its sorted unique job digests
Covered = tuple[list[ScenarioResult], list[str]]


@dataclass
class _Pass:
    """What one build or status pass derived from the grid."""

    figures: list[Resolved]
    #: each figure's suite key (its suite JSON), None for analytic ones
    keys: list[str | None]
    #: suite key -> the suite, expanded and lowered once
    lowered: dict[str, LoweredSuite]
    #: suite key -> its plan against the store
    plans: dict[str, SuitePlan]
    #: job digest -> its result (None: not in the store), read once
    results: dict[str, ExecResult | None] = field(default_factory=dict)
    #: suite key -> its scenario results, or None when not covered
    covered: dict[str, Covered | None] = field(default_factory=dict)


class FigureBuilder:
    """Builds declarative figures incrementally against a result store.

    Parameters
    ----------
    store:
        The :class:`~repro.exec.store.ResultStore` (or cache directory
        path) that holds — and receives — every simulation result.
        ``None`` uses a throw-away temporary store (nothing persists).
    out_dir:
        Where ``<name>.json`` (and optional ``.csv``/``.png``)
        artifacts land.
    params:
        The shared :class:`~repro.figures.spec.FigureParams` grid.
    specs:
        Explicit figure set; default is every registered figure.
    jobs / progress:
        Executor fan-out for the residual simulations.
    """

    def __init__(
        self,
        store: ResultStore | str | Path | None = None,
        out_dir: str | Path = "figures",
        params: FigureParams | None = None,
        specs: Sequence[FigureSpec] | None = None,
        jobs: int = 1,
        progress: ProgressListener | None = None,
        profile: bool = False,
    ) -> None:
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if store is None:
            # held on the builder so the throw-away store really is
            # thrown away (removed when the builder is collected)
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-figures-"
            )
            store = ResultStore(self._tmpdir.name)
        elif isinstance(store, (str, Path)):
            store = ResultStore(store)
        self.store = store
        self.out_dir = Path(out_dir)
        self.params = params if params is not None else FigureParams()
        self._specs = list(specs) if specs is not None else None
        self._model = PowerModel.derive()
        self._executor = Executor(
            jobs=jobs, store=store, progress=progress, profile=profile
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def figures(self, names: Sequence[str] | None = None) -> list[FigureSpec]:
        """The build set, in presentation order (optionally filtered)."""
        if self._specs is not None:
            specs = list(self._specs)
        else:
            specs = [get_figure(name) for name in available_figures()]
        if names is None:
            return specs
        by_name = {spec.name: spec for spec in specs}
        unknown = sorted(set(names) - set(by_name))
        if unknown:
            raise FigureError(
                f"unknown figure(s): {', '.join(unknown)}; available: "
                f"{', '.join(by_name)}"
            )
        # preserve presentation order, not request order
        wanted = set(names)
        return [spec for spec in specs if spec.name in wanted]

    def artifact_path(self, name: str) -> Path:
        return self.out_dir / f"{name}.json"

    def _resolved(self, names: Sequence[str] | None) -> list[Resolved]:
        """(figure, resolved suite or None, figure digest) per figure."""
        out = []
        for spec in self.figures(names):
            get_extractor(spec.extractor)  # fail fast on unknown names
            suite = spec.resolve_suite(self.params)
            out.append(
                (spec, suite, figure_digest(spec, suite, self.params,
                                            self._model))
            )
        return out

    def _plan_pass(self, names: Sequence[str] | None) -> _Pass:
        """Resolve the figures, then lower and plan each unique suite
        (keyed by suite JSON) once; scenarios shared between suites share
        one lowered job."""
        figures = self._resolved(names)
        keys = [
            suite.to_json() if suite is not None else None
            for _spec, suite, _digest in figures
        ]
        memo: dict[ScenarioSpec, RunJob] = {}
        lowered: dict[str, LoweredSuite] = {}
        for (_spec, suite, _digest), key in zip(figures, keys):
            if key is not None and key not in lowered:
                lowered[key] = lower_suite(suite, memo=memo)
        plans = {
            key: plan_suite(suite, store=self.store)
            for key, suite in lowered.items()
        }
        return _Pass(figures=figures, keys=keys, lowered=lowered, plans=plans)

    def _artifact_state(self, path: Path, digest: str) -> str:
        if not path.exists():
            return "missing"
        try:
            recorded = json.loads(path.read_text(encoding="utf-8"))[
                "provenance"]["figure_digest"]
        except (ValueError, KeyError, TypeError, OSError):
            return "stale"
        return "fresh" if recorded == digest else "stale"

    @staticmethod
    def _collect_misses(
        plans: dict[str, SuitePlan],
    ) -> tuple[dict[str, RunJob], set[str]]:
        """(uncached digest -> lowered job, all unique digests) across
        every planned suite — figures sharing jobs count once."""
        misses: dict[str, RunJob] = {}
        total: set[str] = set()
        for plan in plans.values():
            for entry in plan.entries:
                total.add(entry.digest)
                if not entry.cached:
                    misses.setdefault(entry.digest, entry.job)
        return misses, total

    # ------------------------------------------------------------------
    # planning / status
    # ------------------------------------------------------------------
    def overview(
        self, names: Sequence[str] | None = None
    ) -> tuple[list[FigureStatus], int, int]:
        """One resolve+plan pass: (statuses, residual jobs, total jobs).

        The job counts are *unique* across the requested figures —
        figures sharing a suite (or individual jobs, like the Fig. 7
        baselines) are deduplicated, unlike the per-figure miss counts
        in the status rows — so "residual" is exactly what a build
        would simulate.
        """
        planned = self._plan_pass(names)
        misses, total = self._collect_misses(planned.plans)
        return self._statuses(planned), len(misses), len(total)

    def _statuses(self, planned: _Pass) -> list[FigureStatus]:
        statuses = []
        for (spec, suite, digest), key in zip(planned.figures, planned.keys):
            plan = planned.plans[key] if key is not None else None
            statuses.append(FigureStatus(
                name=spec.name,
                kind=spec.kind,
                digest=digest,
                artifact=self._artifact_state(self.artifact_path(spec.name),
                                              digest),
                path=self.artifact_path(spec.name),
                suite=suite.name if suite is not None else None,
                total_jobs=plan.unique_jobs if plan is not None else 0,
                hits=plan.hits if plan is not None else 0,
                misses=plan.misses if plan is not None else 0,
            ))
        return statuses

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def build(
        self,
        names: Sequence[str] | None = None,
        force: bool = False,
        csv: bool = False,
        png: bool = False,
    ) -> BuildReport:
        """Simulate only the residual misses, then (re)render stale
        artifacts.  See the module docstring for the four stages."""
        recorder = get_recorder()
        with recorder.span("figures.build") as span:
            planned = self._plan_pass(names)

            # union of residual misses across every suite, deduped by digest
            misses, total_jobs = self._collect_misses(planned.plans)
            residual = list(misses.values())
            span.annotate(
                figures=len(planned.figures),
                total_jobs=len(total_jobs),
                planned_misses=len(misses),
                residual=len(residual),
            )

            executed = 0
            batch = None
            if residual:
                self._executor.run(residual)
                batch = self._executor.last_report
                executed = (
                    batch.executed if batch is not None else len(residual)
                )

            report = BuildReport(
                total_jobs=len(total_jobs),
                planned_misses=len(misses),
                executed=executed,
                batch=batch,
            )
            for (spec, suite, digest), key in zip(planned.figures,
                                                  planned.keys):
                with recorder.span(
                    "figure", figure=spec.name, digest=digest
                ) as fig_span:
                    artifact = self._render_one(
                        spec, suite, digest, force=force,
                        csv=csv, png=png, planned=planned, key=key,
                    )
                    fig_span.annotate(status=artifact.status)
                report.artifacts.append(artifact)
            return report

    def _suite_results(
        self,
        lowered: LoweredSuite,
        results: dict[str, ExecResult | None],
    ) -> Covered | None:
        """Every scenario's result from the store, or ``None`` when
        coverage is incomplete.  ``results`` holds each job digest's
        store read, so a digest is read once however many scenarios,
        suites and figures share it."""
        out: list[ScenarioResult] = []
        for spec, job in zip(lowered.specs, lowered.jobs):
            digest = job.digest
            if digest not in results:
                results[digest] = self.store.get(digest)
            result = results[digest]
            if result is None:
                return None
            out.append(ScenarioResult(spec=spec, result=result))
        return out, sorted(lowered.unique)

    def _fetch_suite(self, planned: _Pass, key: str) -> Covered | None:
        """:meth:`_suite_results`, once per suite per pass — the shared
        evaluation suite is collected once, not once per consuming
        figure."""
        if key not in planned.covered:
            planned.covered[key] = self._suite_results(
                planned.lowered[key], planned.results
            )
        return planned.covered[key]

    def _render_one(
        self,
        spec: FigureSpec,
        suite: Any,
        digest: str,
        force: bool,
        csv: bool,
        png: bool,
        planned: _Pass,
        key: str | None,
    ) -> FigureArtifact:
        path = self.artifact_path(spec.name)
        if force:
            # rewritten whatever its digest: only whether it exists counts
            state = "stale" if path.exists() else "missing"
        else:
            state = self._artifact_state(path, digest)
        if state == "fresh":
            # exports are derived from the (fresh) on-disk payload, so a
            # later `build --csv/--png` still produces them
            if csv or png:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if csv:
                    render_csv(payload, path.with_suffix(".csv"))
                if png:
                    render_png(payload, path.with_suffix(".png"))
            return FigureArtifact(name=spec.name, status="fresh",
                                  digest=digest, path=path)

        results: tuple[ScenarioResult, ...] = ()
        job_digests: list[str] = []
        if key is not None:
            covered = self._fetch_suite(planned, key)
            if covered is None:
                return FigureArtifact(name=spec.name, status="incomplete",
                                      digest=digest)
            listed, job_digests = covered
            results = tuple(listed)

        ctx = ExtractionContext(
            params=self.params, power=self._model, results=results
        )
        data = get_extractor(spec.extractor)(ctx)
        payload = figure_payload(
            spec=spec,
            suite=suite,
            digest=digest,
            data=data,
            job_digests=job_digests,
        )
        self.out_dir.mkdir(parents=True, exist_ok=True)
        render_json(payload, path)
        if csv:
            render_csv(payload, path.with_suffix(".csv"))
        if png:
            render_png(payload, path.with_suffix(".png"))
        status = "built" if state == "missing" else "rebuilt"
        return FigureArtifact(name=spec.name, status=status, digest=digest,
                              path=path)

    # ------------------------------------------------------------------
    def data(self, name: str) -> Any:
        """Extract one figure's data from the store without writing files.

        The store must already cover the figure's suite (e.g. after
        :meth:`build`); raises :class:`~repro.errors.FigureError`
        otherwise.
        """
        for spec, suite, _digest in self._resolved([name]):
            results: tuple[ScenarioResult, ...] = ()
            if suite is not None:
                fetched = self._suite_results(lower_suite(suite), {})
                if fetched is None:
                    raise FigureError(
                        f"figure {name!r}: result store does not cover "
                        f"suite {suite.name!r}; run build() first"
                    )
                results = tuple(fetched[0])
            ctx = ExtractionContext(
                params=self.params, power=self._model, results=results
            )
            return get_extractor(spec.extractor)(ctx)
        raise FigureError(f"unknown figure {name!r}")  # pragma: no cover
