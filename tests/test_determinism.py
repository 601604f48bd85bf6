"""Invariant 10: bit-reproducibility of whole simulations.

Two layers of regression protection:

* run-to-run — the same seed and configuration must reproduce every
  observable of a run exactly (fingerprint tests below);
* version-to-version — the PR 3 hot-path rewrite froze the ``smoke``
  suite's pre-refactor job digests and full serialized results into
  ``tests/data/smoke_golden.json``; the golden tests prove the rewrite
  (and any future "make it faster" change) leaves both the cache keys
  and the simulated numbers bit-identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.exec.executor import Executor
from repro.exec.serialize import result_to_dict
from repro.exec.store import ResultStore
from repro.harness.runner import run_workload, workload
from repro.scenarios.builtin import get_suite
from repro.scenarios.runner import run_suite
from repro.workloads.registry import available_workloads

GOLDEN_PATH = Path(__file__).parent / "data" / "smoke_golden.json"
FLUSH_GOLDEN_PATH = Path(__file__).parent / "data" / "flush_golden.json"

#: Counters introduced (deliberately) after the golden was captured.
#: Everything else in a result must match the golden byte for byte.
COUNTERS_ADDED_SINCE_GOLDEN = {"tx.aborts.total"}

#: Same escape hatch for the flush-heavy golden (captured pre-PR7).
FLUSH_COUNTERS_ADDED_SINCE_GOLDEN: set[str] = set()


def fingerprint(result) -> tuple:
    """Everything observable about a run, hashed into a comparable value."""
    return (
        result.parallel_time,
        result.end_cycle,
        result.energy.total,
        tuple(sorted(result.counters.items())),
        tuple(sorted(result.machine_result.memory_snapshot.items())),
    )


@pytest.mark.parametrize("name", ["counter", "intruder", "yada"])
@pytest.mark.parametrize("gating", [False, True], ids=["ungated", "gated"])
def test_same_seed_same_run(name, gating):
    config = SystemConfig(num_procs=4, seed=123).with_gating(gating)
    spec = workload(name, scale="tiny", seed=123)
    a = run_workload(spec, config)
    b = run_workload(spec, config)
    assert fingerprint(a) == fingerprint(b)


def test_different_seed_different_schedule():
    results = []
    for seed in (1, 2):
        config = SystemConfig(num_procs=4, seed=seed)
        results.append(
            run_workload(workload("intruder", scale="tiny", seed=seed), config)
        )
    assert fingerprint(results[0]) != fingerprint(results[1])


def test_timelines_reproduce_exactly():
    config = SystemConfig(num_procs=4, seed=77)
    spec = workload("counter", scale="tiny", seed=77)
    a = run_workload(spec, config)
    b = run_workload(spec, config)
    for tl_a, tl_b in zip(a.machine_result.timelines, b.machine_result.timelines):
        assert tl_a.segments() == tl_b.segments()


def test_all_workloads_reproducible_quick():
    for name in available_workloads():
        config = SystemConfig(num_procs=2, seed=5)
        spec = workload(name, scale="tiny", seed=5)
        assert fingerprint(run_workload(spec, config)) == fingerprint(
            run_workload(spec, config)
        ), name


# ----------------------------------------------------------------------
# version-to-version regression: the pre-refactor golden
# ----------------------------------------------------------------------
def _run_smoke_suite(store: ResultStore | None = None):
    suite = get_suite("smoke", scale="tiny", seed=0)
    return run_suite(suite, executor=Executor(jobs=1, store=store))


def test_smoke_suite_matches_pre_refactor_golden():
    """Digests and results must match the frozen pre-PR3 capture.

    The job digest is the result-cache key: if it moves, every cached
    result in every store silently invalidates.  The result payload is
    the simulation's observable outcome: parallel window, end cycle,
    full energy breakdown (exact floats) and every counter.  Only the
    counters listed in COUNTERS_ADDED_SINCE_GOLDEN may differ — by
    existing — and each addition must be documented there.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    gold = {e["digest"]: e["result"] for e in golden["entries"]}

    outcome = _run_smoke_suite()
    fresh: dict[str, dict] = {}
    for entry in outcome.results:
        fresh[entry.spec.to_job().digest] = result_to_dict(entry.result)

    assert sorted(fresh) == sorted(gold), (
        "RunJob digests changed — cached results would invalidate"
    )
    for digest, golden_result in gold.items():
        result = dict(fresh[digest])
        counters = {
            k: v
            for k, v in result.pop("counters").items()
            if k not in COUNTERS_ADDED_SINCE_GOLDEN
        }
        golden_counters = dict(golden_result)
        expected_counters = golden_counters.pop("counters")
        assert result == golden_counters, f"result fields drifted ({digest[:12]})"
        assert counters == expected_counters, f"counters drifted ({digest[:12]})"


def test_flush_heavy_suite_matches_golden():
    """High-contention capture pinning the directory commit-flush path.

    yada and labyrinth at 16 threads produce long invalidation fan-outs
    and abort/retry flush storms — exactly the path the batched flush
    service rewrote.  Digests and full results must match the frozen
    pre-rewrite capture (``scripts/regen_flush_golden.py``); counters
    added since go in FLUSH_COUNTERS_ADDED_SINCE_GOLDEN, everything
    else byte for byte.
    """
    from repro.scenarios.runner import run_specs
    from repro.scenarios.spec import ScenarioSpec

    golden = json.loads(FLUSH_GOLDEN_PATH.read_text())
    gold = {e["digest"]: e["result"] for e in golden["entries"]}
    specs = [
        ScenarioSpec(
            workload=workload, scale="tiny", threads=16, seed=0, gating=gating
        )
        for workload in ("yada", "labyrinth")
        for gating in (False, True)
    ]

    fresh: dict[str, dict] = {}
    for entry in run_specs(specs, executor=Executor(jobs=1)):
        fresh[entry.spec.to_job().digest] = result_to_dict(entry.result)

    assert sorted(fresh) == sorted(gold), (
        "RunJob digests changed — cached results would invalidate"
    )
    for digest, golden_result in gold.items():
        result = dict(fresh[digest])
        counters = {
            k: v
            for k, v in result.pop("counters").items()
            if k not in FLUSH_COUNTERS_ADDED_SINCE_GOLDEN
        }
        golden_counters = dict(golden_result)
        expected_counters = golden_counters.pop("counters")
        assert result == golden_counters, f"result fields drifted ({digest[:12]})"
        assert counters == expected_counters, f"counters drifted ({digest[:12]})"


def test_smoke_suite_store_jsonl_byte_identical(tmp_path):
    """Two cold runs must write byte-identical ResultStore logs.

    Runs the smoke suite twice into two fresh stores and compares the
    ``results.jsonl`` files record by record: identical digest sets and
    byte-identical serialized results.  Only the ``created`` wall-clock
    stamp (metadata, not content) is excluded from the comparison.
    """
    logs = []
    for name in ("a", "b"):
        store = ResultStore(tmp_path / name)
        _run_smoke_suite(store=store)
        # a raw read on purpose (RAW_STORE_READERS in
        # tests/test_source_rules.py): the byte-level check must bypass
        # the store's parsed view
        lines = (tmp_path / name / "results.jsonl").read_text().splitlines()
        records = []
        for line in lines:
            record = json.loads(line)
            record.pop("created")
            # re-encode canonically so the byte comparison is on content
            records.append(json.dumps(record, sort_keys=True))
        logs.append(records)

    assert logs[0] == logs[1]
    digests = [
        {json.loads(r)["digest"] for r in log} for log in logs
    ]
    assert digests[0] == digests[1] and len(digests[0]) == 3


# ----------------------------------------------------------------------
# interpreter shape: results do not depend on the string hash seed
# ----------------------------------------------------------------------
#: runs the smoke and flush golden grids, printing digest -> result
_GOLDEN_GRIDS_PROBE = """
import json
from repro.exec.executor import Executor
from repro.exec.serialize import result_to_dict
from repro.scenarios.builtin import get_suite
from repro.scenarios.runner import run_specs
from repro.scenarios.spec import ScenarioSpec

specs = list(get_suite("smoke", scale="tiny", seed=0).expand()) + [
    ScenarioSpec(workload=w, scale="tiny", threads=16, seed=0, gating=g)
    for w in ("yada", "labyrinth")
    for g in (False, True)
]
print(json.dumps({
    entry.spec.to_job().digest: result_to_dict(entry.result)
    for entry in run_specs(specs, executor=Executor(jobs=1))
}))
"""


def test_goldens_hold_under_another_hash_seed():
    """Set iteration order follows ``PYTHONHASHSEED`` for strings; no
    simulated number may.  Re-run both golden grids in a fresh
    interpreter under a fixed non-default seed and compare each result
    with the committed capture."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = subprocess.run(
        [sys.executable, "-c", _GOLDEN_GRIDS_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    fresh = json.loads(probe.stdout)
    for path, added in (
        (GOLDEN_PATH, COUNTERS_ADDED_SINCE_GOLDEN),
        (FLUSH_GOLDEN_PATH, FLUSH_COUNTERS_ADDED_SINCE_GOLDEN),
    ):
        for entry in json.loads(path.read_text())["entries"]:
            result = dict(fresh.pop(entry["digest"]))
            counters = {k: v for k, v in result.pop("counters").items()
                        if k not in added}
            golden = dict(entry["result"])
            assert counters == golden.pop("counters"), entry["digest"][:12]
            assert result == golden, entry["digest"][:12]
    assert fresh == {}, "jobs outside the goldens"

