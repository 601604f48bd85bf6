"""Lowering: the one step from scenario specs to digested jobs.

Three guarantees are pinned here:

* store compatibility — :meth:`RunJob.payload` walks the frozen config
  fields instead of ``dataclasses.asdict`` and reads the contention
  manager's class constant instead of building one, and neither may
  move a byte of any job digest (an existing result store must keep
  answering with zero simulations);
* one derivation per grid point — a suite derives each scenario in
  one ``with_updates`` and each config in one constructor call, with
  the specs, configs and errors of a derivation that applies one axis
  at a time;
* lowering counts — one figure-builder pass expands each unique suite
  once, digests each unique scenario once, reads each job digest from
  the store once, and hands the executor the jobs it already lowered.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import shutil
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.cm.registry as cm_registry
import repro.figures.builder as builder_module
from repro.cm import ImmediateCM, available_cms, policy_class, register_cm
from repro.cm.registry import create_cm
from repro.config import (
    BusConfig,
    CacheConfig,
    CommitConfig,
    DirectoryConfig,
    GatingConfig,
    MemoryConfig,
    SystemConfig,
)
from repro.exec.executor import Executor
from repro.exec.jobs import SCHEMA_VERSION, RunJob
from repro.exec.serialize import canonical_json
from repro.exec.store import ResultStore
from repro.figures import FigureBuilder, FigureParams
from repro.figures.registry import eval_grid_suite, w0_grid_suite
from repro.power.model import PowerModel
from repro.scenarios import (
    LoweredSuite,
    ScenarioSpec,
    ScenarioSuite,
    lower_specs,
    lower_suite,
    plan_suite,
    scenario,
)
from repro.scenarios.suite import _axis_field

DATA = Path(__file__).parent / "data"

#: the grid the committed store at tests/data/figstore covers
GOLDEN_PARAMS = FigureParams(
    scale="tiny", seed=0, procs=(2, 4), w0=8, w0_values=(2, 8)
)

#: a 3-unique-job grid for live simulation
TINY_PARAMS = FigureParams(
    scale="tiny", seed=0, apps=("counter",), procs=(2,), w0=2,
    w0_values=(2, 4),
)


def historical_payload(job: RunJob) -> dict:
    """``RunJob.payload`` as first written: ``dataclasses.asdict`` deep
    copies, and a contention manager built to read its class constant."""
    config = dataclasses.asdict(job.config)
    gating = job.config.gating
    if not gating.enabled and create_cm(
        gating, job.config.seed
    ).ungated_w0_independent:
        config["gating"]["w0"] = 0
    return {
        "schema": SCHEMA_VERSION,
        "workload": {
            "name": job.spec.name,
            "scale": job.spec.scale,
            "seed": job.spec.seed,
            "overrides": [list(pair) for pair in job.spec.overrides],
        },
        "config": config,
        "power": dataclasses.asdict(job.power),
        "validate": True,
    }


# ----------------------------------------------------------------------
# store compatibility
# ----------------------------------------------------------------------
#: dotted system overrides with values every config section accepts
SYSTEM_OVERRIDES = {
    "num_dirs": st.one_of(st.none(), st.integers(1, 16)),
    "max_cycles": st.one_of(st.none(), st.integers(1, 10**9)),
    "seed": st.integers(0, 2**31),
    "cache.ways": st.sampled_from([1, 2, 4, 8]),
    "cache.hit_latency": st.integers(0, 4),
    "bus.occupancy": st.integers(1, 8),
    "bus.wire_latency": st.integers(0, 4),
    "directory.latency": st.integers(0, 40),
    "memory.latency": st.integers(10, 400),
    "commit.abort_drain_cycles": st.integers(0, 8),
    "gating.abort_counter_bits": st.integers(1, 64),
    "gating.or_circuit_cycles": st.one_of(st.none(), st.integers(0, 8)),
}

#: a spec's sorted ``system`` pairs, up to five valid overrides
systems = st.dictionaries(
    st.sampled_from(sorted(SYSTEM_OVERRIDES)), st.none(), max_size=5
).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: SYSTEM_OVERRIDES[key] for key in keys}
    )
).map(lambda system: tuple(sorted(system.items())))

specs = st.builds(
    ScenarioSpec,
    workload=st.sampled_from(["counter", "genome", "intruder"]),
    scale=st.sampled_from(["tiny", "small"]),
    threads=st.integers(1, 32),
    seed=st.integers(0, 2**31),
    gating=st.booleans(),
    w0=st.integers(1, 64),
    cm=st.sampled_from(sorted(available_cms())),
    system=systems,
)

powers = st.sampled_from([
    PowerModel.derive(),
    PowerModel(run=1.0, miss=0.3, commit=0.5, gated=0.1),
])


class TestPayloadCompatibility:
    @settings(max_examples=200, deadline=None)
    @given(spec=specs, power=powers)
    def test_payload_and_digest_match_the_asdict_payload(self, spec, power):
        job = spec.validate().to_job(power=power)
        want = historical_payload(job)
        got = job.payload()
        assert got == want
        # key order too: result records serialize these dicts unsorted
        assert list(got["config"]) == list(want["config"])
        for section in ("cache", "bus", "directory", "memory", "commit",
                        "gating"):
            assert list(got["config"][section]) == \
                list(want["config"][section])
        assert job.digest == hashlib.sha256(
            canonical_json(want).encode()
        ).hexdigest()

    def test_ungated_digest_builds_no_contention_manager(self, monkeypatch):
        job = scenario("counter", scale="tiny", gating=False).to_job()

        def no_cm(*_args, **_kwargs):
            raise AssertionError("a digest built a contention manager")

        monkeypatch.setattr(cm_registry, "create_cm", no_cm)
        assert job.payload()["config"]["gating"]["w0"] == 0

    def test_custom_factories_are_asked_by_building(self, monkeypatch):
        monkeypatch.setattr(cm_registry, "_FACTORIES",
                            dict(cm_registry._FACTORIES))
        monkeypatch.setattr(cm_registry, "_CLASSES",
                            dict(cm_registry._CLASSES))
        register_cm("lowering-test", lambda g, seed: ImmediateCM(w0=g.w0))
        gating = dataclasses.replace(
            scenario("counter").system_config().gating,
            contention_manager="lowering-test",
        )
        assert policy_class(gating) is ImmediateCM
        # re-registering a built-in name drops its known class
        register_cm("linear", lambda g, seed: ImmediateCM(w0=g.w0))
        assert policy_class(
            dataclasses.replace(gating, contention_manager="linear")
        ) is ImmediateCM

    def test_spec_builds_its_config_once(self):
        spec = scenario("counter", scale="tiny",
                        system={"memory.latency": 50})
        assert spec.to_job().config is spec.system_config()


# ----------------------------------------------------------------------
# one derivation per grid point
# ----------------------------------------------------------------------
class PerAxisSpec(ScenarioSpec):
    """The reference model of a spec's config: ``SystemConfig(num_procs,
    seed)`` first, then one ``replace`` per overridden section and one
    for the whole config."""

    @cached_property
    def _system_config(self) -> SystemConfig:
        base = SystemConfig(num_procs=self.threads, seed=self.seed)
        sections: dict = {}
        scalars: dict = {}
        for key, value in self.system:
            self._check_system_key(key, value)
            if "." in key:
                section, attr = key.split(".", 1)
                sections.setdefault(section, {})[attr] = value
            else:
                scalars[key] = value
        gating_overrides = sections.pop("gating", {})
        updates = dict(scalars)
        for section, attrs in sections.items():
            updates[section] = dataclasses.replace(
                getattr(base, section), **attrs)
        updates["gating"] = dataclasses.replace(
            base.gating, enabled=self.gating, w0=self.w0,
            contention_manager=self.cm, **gating_overrides,
        )
        return dataclasses.replace(base, **updates)


def spec_values(spec: ScenarioSpec) -> tuple:
    return tuple(getattr(spec, f.name)
                 for f in dataclasses.fields(ScenarioSpec))


def expand_per_axis(suite: ScenarioSuite) -> list[ScenarioSpec]:
    """The reference expansion: one ``with_updates`` per axis, each
    scenario validated over :class:`PerAxisSpec`'s config."""
    base = PerAxisSpec(*spec_values(suite.base))
    targets = [_axis_field(axis) for axis, _values in suite.axes]
    expanded = []
    for combo in itertools.product(*(values for _a, values in suite.axes)):
        spec = base
        for (field, key), value in zip(targets, combo):
            spec = spec.with_updates(
                **{field: value if key is None else {key: value}})
        expanded.append(spec.validate())
    return expanded


#: axis -> (valid values, faulty values); each axis sets its own target
AXIS_VALUES: dict[str, tuple[list, list]] = {
    "workload": (["counter"], ["intruder", "nosuch"]),
    "scale": (["tiny", "small"], ["huge"]),
    "threads": ([1, 2, 16], [0, 1025, "4"]),
    "seed": ([0, 3], [-1]),
    "gating": ([False, True], [1]),
    "w0": ([1, 8], [0]),
    "cm": (["gating-aware", "linear"], ["nosuch"]),
    "params.work_cycles": ([1, 5], [-1, "5"]),
    "increments": ([2, 7], []),
    "system.seed": ([0, 7], [-1]),
    "system.num_dirs": ([None, 2], [0]),
    "system.max_cycles": ([None, 10**6], [0]),
    "system.cache.ways": ([1, 4], [3]),
    "system.memory.latency": ([100, 400], [5]),
    "system.directory.latency": ([0, 10], ["10"]),
    "system.gating.abort_counter_bits": ([1, 8], [0, 65]),
    "system.gating.or_circuit_cycles": ([None, 3], [-1]),
    "system.gating.w0": ([], [4]),
    "system.cache": ([], [1]),
    "system.cache.nope": ([], [1]),
}


@st.composite
def drawn_suites(draw) -> ScenarioSuite:
    faults = draw(st.booleans())
    names = draw(st.lists(
        st.sampled_from([name for name, (valid, bad) in AXIS_VALUES.items()
                         if valid or faults]),
        unique=True, max_size=4,
    ))
    axes = []
    for name in names:
        valid, bad = AXIS_VALUES[name]
        pool = valid + bad if faults else valid
        axes.append((name, tuple(draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3)))))
    base = ScenarioSpec(
        workload="counter",
        scale="tiny",
        threads=draw(st.sampled_from([1, 4, 8])),
        seed=draw(st.sampled_from([0, 5])),
        params=draw(st.sampled_from([(), (("work_cycles", 3),)])),
        gating=draw(st.booleans()),
        w0=draw(st.sampled_from([2, 8])),
        cm=draw(st.sampled_from(sorted(available_cms()))),
        system=draw(systems),
    )
    return ScenarioSuite(name="drawn", base=base, axes=tuple(axes))


class TestOneStepDerivation:
    @settings(max_examples=120, deadline=None)
    @given(suite=drawn_suites())
    def test_expansion_and_configs_match_the_per_axis_chain(self, suite):
        try:
            want = expand_per_axis(suite)
        except Exception as exc:  # any fault: the same type and message
            with pytest.raises(Exception) as raised:
                suite.expand()
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        got = suite.expand()
        assert all(type(spec) is ScenarioSpec for spec in got)
        assert [spec_values(s) for s in got] == \
            [spec_values(s) for s in want]
        assert [s.system_config() for s in got] == \
            [s.system_config() for s in want]

    def test_default_config_equals_one_of_fresh_sections(self):
        assert SystemConfig() == SystemConfig(
            cache=CacheConfig(), bus=BusConfig(),
            directory=DirectoryConfig(), memory=MemoryConfig(),
            commit=CommitConfig(), gating=GatingConfig(),
        )

    def test_store_reads_return_fresh_counters(self, golden_store):
        store = ResultStore(golden_store)
        digest, _label = next(store.labels())
        counters = store.get(digest).counters
        assert counters
        assert all(type(key) is str and type(value) is int
                   for key, value in counters.items())
        before = dict(counters)
        counters[next(iter(counters))] += 1
        counters["planted"] = 1
        again = store.get(digest).counters
        assert again == before
        assert again is not counters


# ----------------------------------------------------------------------
# the lowering step
# ----------------------------------------------------------------------
class TestLowerSuite:
    def test_specs_pair_with_jobs_and_unique_counts(self):
        lowered = lower_suite(w0_grid_suite(TINY_PARAMS))
        assert len(lowered.specs) == len(lowered.jobs) == 4
        for spec, job in zip(lowered.specs, lowered.jobs):
            assert job.digest == spec.to_job().digest
        # the two ungated W0 points collapse onto one baseline job
        assert sorted(u.scenarios for u in lowered.unique.values()) \
            == [1, 1, 2]
        first = next(iter(lowered.unique.values()))
        assert first.spec == lowered.specs[0]

    def test_memo_shares_jobs_between_suites(self):
        memo: dict = {}
        fig7 = lower_suite(w0_grid_suite(GOLDEN_PARAMS), memo=memo)
        evaluation = lower_suite(eval_grid_suite(GOLDEN_PARAMS), memo=memo)
        by_spec = dict(zip(fig7.specs, fig7.jobs))
        for spec, job in zip(evaluation.specs, evaluation.jobs):
            assert job is by_spec[spec]
        assert len(memo) == len(fig7.specs)

    def test_unhashable_values_skip_the_memo(self):
        spec = ScenarioSpec(workload="counter", scale="tiny",
                            system=(("num_dirs", 2),))
        odd = dataclasses.replace(spec, params=(("tags", [1, 2]),))
        lowered = lower_specs([spec, odd, spec], memo={})
        assert lowered.jobs[0] is lowered.jobs[2]
        assert lowered.jobs[1].spec.overrides == (("tags", [1, 2]),)

    def test_plan_accepts_a_lowered_suite(self, tmp_path):
        suite = w0_grid_suite(TINY_PARAMS)
        store = ResultStore(tmp_path)
        from_suite = plan_suite(suite, store=store)
        from_lowered = plan_suite(lower_suite(suite), store=store)
        assert from_lowered.to_dict() == from_suite.to_dict()
        for entry in from_lowered.entries:
            assert entry.job.digest == entry.digest


# ----------------------------------------------------------------------
# lowering counts through the figure builder
# ----------------------------------------------------------------------
@pytest.fixture()
def golden_store(tmp_path):
    target = tmp_path / "figstore"
    shutil.copytree(DATA / "figstore", target)
    return target


def _count_calls(monkeypatch, owner, attr, log, key=lambda *a: None):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        log.append(key(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


class TestBuilderLowering:
    def test_forced_warm_build_lowers_and_reads_once(
        self, monkeypatch, tmp_path, golden_store
    ):
        suites = (eval_grid_suite(GOLDEN_PARAMS),
                  w0_grid_suite(GOLDEN_PARAMS))
        unique_specs = {spec for suite in suites for spec in suite.expand()}
        unique_digests = {spec.to_job().digest for spec in unique_specs}
        builder = FigureBuilder(store=golden_store, out_dir=tmp_path / "out",
                                params=GOLDEN_PARAMS)
        builder.build()

        expanded: list = []
        payloads: list = []
        reads: list = []
        _count_calls(monkeypatch, ScenarioSuite, "expand", expanded,
                     key=lambda suite: suite.name)
        _count_calls(monkeypatch, RunJob, "payload", payloads)
        _count_calls(monkeypatch, ResultStore, "get", reads,
                     key=lambda _store, digest: digest)
        report = builder.build(force=True)

        assert report.executed == 0
        assert {a.status for a in report.artifacts} == {"rebuilt"}
        assert sorted(expanded) == ["paper-eval", "paper-fig7"]
        assert len(payloads) == len(unique_specs) == 24
        assert sorted(reads) == sorted(unique_digests)
        assert len(reads) == 18

    def test_cold_build_hands_the_executor_the_lowered_jobs(
        self, monkeypatch, tmp_path
    ):
        lowered: list[LoweredSuite] = []
        batches: list = []
        lowerings: list = []
        original_lower = builder_module.lower_suite

        def recording_lower(*args, **kwargs):
            result = original_lower(*args, **kwargs)
            lowered.append(result)
            return result

        monkeypatch.setattr(builder_module, "lower_suite", recording_lower)
        _count_calls(monkeypatch, Executor, "run", batches,
                     key=lambda _exe, batch: list(batch))
        _count_calls(monkeypatch, ScenarioSpec, "to_job", lowerings)

        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        report = builder.build()

        assert report.executed == 3
        assert len(lowered) == 2  # evaluation + Fig. 7 suites
        (batch,) = batches
        ours = [job for suite in lowered for job in suite.jobs]
        assert len(batch) == 3
        assert all(any(job is mine for mine in ours) for job in batch)
        # one lowering per unique scenario: 4 specs, the eval grid's two
        # shared with the Fig. 7 grid
        assert len(lowerings) == 4

    def test_status_goes_through_the_same_lowering(
        self, monkeypatch, tmp_path
    ):
        lowered: list = []
        planned: list = []
        _count_calls(monkeypatch, builder_module, "lower_suite", lowered,
                     key=lambda suite, **_kw: suite.name)
        _count_calls(monkeypatch, builder_module, "plan_suite", planned,
                     key=lambda suite, **_kw: type(suite))
        builder = FigureBuilder(store=tmp_path / "s", out_dir=tmp_path / "f",
                                params=TINY_PARAMS)
        statuses, residual, total = builder.overview()
        assert sorted(lowered) == ["paper-eval", "paper-fig7"]
        assert planned == [LoweredSuite, LoweredSuite]
        assert (residual, total) == (3, 3)
        assert {s.name for s in statuses if s.suite} == {
            "fig4", "fig5", "fig6", "fig7", "headline"}
