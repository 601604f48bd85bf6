"""The three benchmark workloads, built only from public ``repro`` calls.

Every workload is a closed loop with one client: the runner calls
:meth:`Workload.op_set` back to back until its time is up.  One op set
is one unit of user-visible work and yields one or more *ops*:

* ``paper-cold`` -- one cold ``FigureBuilder.build()`` of all nine
  artifacts at ``small`` on the serial executor and a fresh empty
  store, the ``repro figures build`` defaults.  An op is one of its 63
  simulations, timed by the executor's ``ProgressListener``.  Op set
  ``k`` of a run builds the grid at seed ``GRIDS_PER_SEED * seed + k``:
  the median simulation of one grid moves by about 9% from seed to
  seed, so each run pools several grids.
* ``seeds-pool`` -- the Fig. 7 grid at ``tiny`` crossed with a seed axis
  of :data:`POOL_SEEDS` seeds, run by ``run_suite`` on a process-pool
  ``Executor`` with default replicate packing and a fresh store.  An op
  is one of its 504 simulations, timed in the worker.
* ``figures-warm`` -- one forced ``FigureBuilder(store=ResultStore(dir))
  .build(force=True)`` over a store pre-filled with the ``tiny`` paper
  grid: resolve, plan, read, extract and render, no simulation.  An op
  is one build.

Every op is timed raw and scaled to a reference host (see
``hostspeed.py``): op sets record the ``perf_counter`` interval of
each op, which the runner scales with its host-speed samples; on the
pool path, probes inside the workers bracket each simulation instead.

Outputs are checked through fingerprints: a SHA-256 over the canonical
JSON of every result record (creation stamps and labels left out) and
of the ``data`` section of every artifact built from simulations.  Op
sets whose inputs are pinned in ``pins/`` (those of seed 0) must match
the pins; an op set repeating inputs seen earlier in the run must match
that first op set; and the simulator's own validators and timeline
tiling check run on every simulation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator

from repro.exec.executor import BatchExecutionError, Executor
from repro.exec.jobs import PackStats, RunJob, execute_pack, replicate_key
from repro.exec.progress import ProgressListener
from repro.exec.store import ResultStore
from repro.figures.builder import FigureBuilder
from repro.figures.registry import w0_grid_suite
from repro.figures.spec import FigureParams
from repro.power.model import PowerModel
from repro.scenarios.runner import run_suite
from repro.scenarios.suite import ScenarioSuite

from hostspeed import loop_ms, scale

__all__ = ["WORKLOADS", "OpSet", "Workload", "PINS_DIR"]

PINS_DIR = Path(__file__).resolve().parent / "pins"

#: the artifacts whose ``data`` comes from simulations (fig3, the two
#: tables and perf-trend are analytic or read other inputs)
SIM_ARTIFACTS = ("fig4", "fig5", "fig6", "fig7", "headline")

#: seeds per seed study; 8 seeds x 63 unique jobs = 504 simulations
POOL_SEEDS = 8

#: distinct paper grids per benchmark seed, before op sets repeat them
GRIDS_PER_SEED = 8


def fingerprint(data: Any) -> str:
    """Content hash of plain JSON data (key order and spacing fixed)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def record_fingerprints(store: ResultStore) -> dict[str, str]:
    """Job digest -> fingerprint of its result, for every live record."""
    return {
        record["digest"]: fingerprint(record["result"])
        for record in store.records()
    }


def artifact_fingerprints(out_dir: Path) -> dict[str, str]:
    """Artifact name -> fingerprint of its ``data`` section."""
    out = {}
    for name in SIM_ARTIFACTS:
        payload = json.loads((out_dir / f"{name}.json").read_text("utf-8"))
        out[name] = fingerprint(payload["data"])
    return out


def compare(kind: str, got: dict[str, str],
            want: dict[str, str]) -> list[str]:
    """One line per output whose fingerprint differs or is missing."""
    return [
        f"{kind} {key[:16]}: fingerprint {got.get(key)} != expected "
        f"{want.get(key)}"
        for key in sorted(set(got) | set(want))
        if got.get(key) != want.get(key)
    ]


class OpTimer(ProgressListener):
    """The interval of each simulation, as the executor timed it (on the
    serial path a simulation lands right after it ran)."""

    def __init__(self) -> None:
        self.ops: list[tuple[float, float]] = []

    def job_finished(self, done: int, pending: int, job: Any,
                     seconds: float) -> None:
        landed = time.perf_counter()
        self.ops.append((landed - seconds, landed))


@dataclass
class OpSet:
    """What one closed-loop iteration did, and what it produced."""

    #: names the generated inputs (equal labels, equal outputs)
    inputs: str
    #: ``perf_counter`` interval of the timed region
    region: tuple[float, float]
    #: ``perf_counter`` interval of each op (simulation or build) that
    #: completed
    ops: list[tuple[float, float]]
    #: one line per op that raised
    errors: list[str] = field(default_factory=list)
    records: dict[str, str] = field(default_factory=dict)
    artifacts: dict[str, str] = field(default_factory=dict)
    #: reference-host seconds of the region and of each op, when the op
    #: set was probed where its ops ran (pool workers)
    scaled_wall: float | None = None
    op_scaled: list[float] | None = None

    @property
    def wall(self) -> float:
        return self.region[1] - self.region[0]

    @property
    def op_seconds(self) -> list[float]:
        return [end - start for start, end in self.ops]

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.errors)


class Workload:
    """Shared plumbing: scratch directories, pins and output checks."""

    name = ""

    def __init__(self, scratch: Path, seed: int, workers: int) -> None:
        self.scratch = scratch
        self.seed = seed
        self.workers = workers
        #: inputs label -> the first complete op set on those inputs
        self.reference: dict[str, OpSet] = {}
        #: entered around each op set's timed region (a span when traced)
        self.region: Callable[[], ContextManager[Any]] = contextlib.nullcontext

    @functools.cached_property
    def pins(self) -> dict[str, dict[str, dict[str, str]]]:
        """Inputs label -> pinned ``records``/``artifacts`` fingerprints."""
        path = PINS_DIR / f"{self.name}.json"
        if not path.exists():
            return {}
        return json.loads(path.read_text("utf-8"))["inputs"]

    def fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.scratch))

    def objects(self, directory: Path) -> Any:
        """Build everything the first op needs (timed as set-up)."""
        raise NotImplementedError

    def prepare(self) -> list[str]:
        """Untimed preparation before the loop; returns mismatches."""
        return []

    def op_set(self, index: int = 0) -> OpSet:
        """The ``index``-th op set of a run."""
        raise NotImplementedError

    def timed(self, call: Callable[[], Any]
              ) -> tuple[tuple[float, float], Any, list[str]]:
        """(interval, return value, job failures) of one timed call."""
        value, errors = None, []
        with self.region():
            started = time.perf_counter()
            try:
                value = call()
            except BatchExecutionError as exc:
                errors = [f"{failure.label}: {failure.error}"
                          for failure in exc.failures]
            ended = time.perf_counter()
        return (started, ended), value, errors

    def check(self, result: OpSet) -> list[str]:
        """Mismatches of one op set against the pins of its inputs, or
        else against the run's first complete op set on them."""
        if result.errors:
            return []  # already failed; partial outputs prove nothing
        want = self.pins.get(result.inputs)
        if want is None:
            first = self.reference.setdefault(result.inputs, result)
            if first is result:
                return []
            want = {"records": first.records, "artifacts": first.artifacts}
        problems = []
        for kind in ("records", "artifacts"):
            if getattr(result, kind):  # op sets of some workloads lack one
                problems += compare(f"{self.name} {result.inputs}: "
                                    f"{kind[:-1]}", getattr(result, kind),
                                    want[kind])
        return problems


class PaperCold(Workload):
    name = "paper-cold"

    def grid_seed(self, index: int) -> int:
        return GRIDS_PER_SEED * self.seed + index % GRIDS_PER_SEED

    def objects(self, directory: Path, index: int = 0) -> FigureBuilder:
        self.timer = OpTimer()
        return FigureBuilder(
            store=ResultStore(directory / "store"),
            out_dir=directory / "figures",
            params=FigureParams(seed=self.grid_seed(index)),
            progress=self.timer,
        )

    def op_set(self, index: int = 0) -> OpSet:
        directory = self.fresh_dir("cold")
        try:
            builder = self.objects(directory, index)
            region, _report, errors = self.timed(builder.build)
            result = OpSet(inputs=f"grid-seed-{self.grid_seed(index)}",
                           region=region, ops=self.timer.ops, errors=errors,
                           records=record_fingerprints(builder.store))
            builder.store.close()
            if not errors:
                result.artifacts = artifact_fingerprints(builder.out_dir)
            return result
        finally:
            shutil.rmtree(directory, ignore_errors=True)


def seed_study(seed: int) -> ScenarioSuite:
    """The Fig. 7 grid at ``tiny`` with a seed axis of POOL_SEEDS seeds.

    The seed axis varies fastest, so seed families sit next to each
    other: the shape replicate packing groups.
    """
    grid = w0_grid_suite(FigureParams(scale="tiny", seed=seed))
    seeds = tuple(seed * POOL_SEEDS + k for k in range(POOL_SEEDS))
    return dataclasses.replace(
        grid, name="paper-fig7-seeds", axes=grid.axes + (("seed", seeds),)
    )


@contextlib.contextmanager
def probed_jobs(log_dir: Path) -> Iterator[None]:
    """Bracket every ``execute_job`` with host-speed probes.

    Pool workers fork from this process and inherit the wrapper; each
    appends ``start end probe_before_ms probe_after_ms`` per simulation
    to its own file under ``log_dir`` (``perf_counter`` is one clock
    for every process on Linux).
    """
    import repro.exec.executor as executor_module
    import repro.exec.jobs as jobs_module

    original = jobs_module.execute_job

    def execute_job(job: RunJob, reuse: Any = None) -> Any:
        before = loop_ms()
        started = time.perf_counter()
        result = original(job, reuse)
        ended = time.perf_counter()
        after = loop_ms()
        with open(log_dir / f"{os.getpid()}.log", "a",
                  encoding="utf-8") as log:
            log.write(f"{started!r} {ended!r} {before!r} {after!r}\n")
        return result

    jobs_module.execute_job = execute_job  # type: ignore[assignment]
    executor_module.execute_job = execute_job  # type: ignore[assignment]
    try:
        yield
    finally:
        jobs_module.execute_job = original  # type: ignore[assignment]
        executor_module.execute_job = original  # type: ignore[assignment]


class SeedsPool(Workload):
    name = "seeds-pool"

    def objects(self, directory: Path) -> tuple[Executor, ScenarioSuite]:
        self.store = ResultStore(directory / "store")
        return (Executor(jobs=self.workers, store=self.store),
                seed_study(self.seed))

    def op_set(self, index: int = 0) -> OpSet:
        directory = self.fresh_dir("pool")
        try:
            executor, study = self.objects(directory)
            log_dir = directory / "probes"
            log_dir.mkdir()
            with probed_jobs(log_dir):
                region, _run, errors = self.timed(
                    lambda: run_suite(study, executor=executor))
            samples = [
                [float(value) for value in line.split()]
                for log in sorted(log_dir.iterdir())
                for line in log.read_text("utf-8").splitlines()
            ]
            ops = [(start, end) for start, end, _before, _after in samples]
            scaled = [(end - start) * scale(before, after)
                      for start, end, before, after in samples]
            # the workers' mean slow-down stands for the whole study's
            raw = sum(end - start for start, end in ops)
            result = OpSet(inputs=f"seed-{self.seed}", region=region,
                           ops=ops, errors=errors,
                           records=record_fingerprints(self.store),
                           op_scaled=scaled,
                           scaled_wall=(region[1] - region[0])
                           * (sum(scaled) / raw if raw else 1.0))
            self.store.close()
            return result
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def replay(self, seeds: int = POOL_SEEDS) -> tuple[OpSet, PackStats]:
        """The study run in this process, one ``execute_pack`` per seed
        family, writing to a fresh store: the same public calls the
        pool's workers and parent make, serialized so a traced run can
        split build, reset and simulate time.  ``seeds`` keeps only the
        first seeds of every family."""
        directory = self.fresh_dir("replay")
        store = ResultStore(directory / "store")
        ops: list[tuple[float, float]] = []
        errors: list[str] = []
        resets = prep_hits = 0

        def run() -> None:
            nonlocal resets, prep_hits
            model = PowerModel.derive()
            jobs: dict[str, RunJob] = {}
            for spec in seed_study(self.seed).expand():
                job = spec.to_job(power=model)
                jobs.setdefault(job.digest, job)
            families: dict[str, list[tuple[str, RunJob]]] = {}
            for digest, job in jobs.items():
                if store.get(digest) is None:
                    families.setdefault(replicate_key(job), []).append(
                        (digest, job))
            for family in families.values():
                family = family[:seeds]
                outcomes, stats = execute_pack([job for _d, job in family])
                resets += stats.reset_reuses
                prep_hits += stats.shared_prep_hits
                for (digest, job), outcome in zip(family, outcomes):
                    if outcome.result is None:
                        errors.append(f"{job.label()}: {outcome.error}")
                        continue
                    store.put(digest, outcome.result, job=job)
                    # members report durations only; their order in
                    # time is not needed here
                    ops.append((0.0, outcome.seconds))

        try:
            region, _none, _batch_errors = self.timed(run)
            result = OpSet(inputs=f"seed-{self.seed}", region=region,
                           ops=ops, errors=errors,
                           records=record_fingerprints(store))
            store.close()
            return result, PackStats(resets, prep_hits)
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class FiguresWarm(Workload):
    name = "figures-warm"

    def objects(self, directory: Path) -> FigureBuilder:
        return FigureBuilder(store=ResultStore(directory / "store"),
                             out_dir=directory / "figures",
                             params=FigureParams(scale="tiny",
                                                 seed=self.seed))

    def prepare(self) -> list[str]:
        """Fill the store with the ``tiny`` paper grid (untimed) and
        check the filled records like any other simulation output."""
        self.directory = self.fresh_dir("warm")
        builder = self.objects(self.directory)
        _region, _report, errors = self.timed(builder.build)
        self.records = record_fingerprints(builder.store)
        builder.store.close()
        pinned = self.pins.get(f"seed-{self.seed}")
        if errors or pinned is None:
            return errors
        return compare(f"{self.name} seed-{self.seed}: record",
                       self.records, pinned["records"])

    def op_set(self, index: int = 0) -> OpSet:
        def build() -> Any:
            builder = self.objects(self.directory)
            report = builder.build(force=True)
            builder.store.close()
            return report

        region, report, errors = self.timed(build)
        if not errors and report.executed:
            errors = [f"forced build simulated {report.executed} job(s) "
                      f"over a filled store"]
        inputs = f"seed-{self.seed}"
        if errors:
            return OpSet(inputs=inputs, region=region, ops=[],
                         errors=errors[:1])
        return OpSet(inputs=inputs, region=region, ops=[region], artifacts=
                     artifact_fingerprints(self.directory / "figures"))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperCold, SeedsPool, FiguresWarm)
}
