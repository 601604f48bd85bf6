#!/usr/bin/env python3
"""Declarative scenario suites end-to-end.

Builds a custom suite over the three new STAMP-style kernels (kmeans /
vacation / labyrinth), shows that the whole grid is data (JSON +
digests) before anything runs, then executes it twice through the
parallel executor and the content-addressed result cache — the second
pass performs zero simulations.

Usage::

    python examples/scenario_suites.py
"""

import tempfile

from repro import scenario
from repro.exec import Executor, ResultStore
from repro.harness.reporting import format_table
from repro.scenarios import ScenarioSuite, lower_suite, run_suite, suite


def main() -> None:
    grid = suite(
        "new-kernels",
        scenario("kmeans", scale="tiny", threads=4),
        axes={
            "workload": ("kmeans", "vacation", "labyrinth"),
            "gating": (False, True),
        },
        description="the three extended contention profiles, both modes",
    )

    print(grid.describe())
    print()

    # The grid is data before it is work: serialize it, ship it, diff it.
    restored = ScenarioSuite.from_json(grid.to_json())
    lowered = lower_suite(restored)  # expand + validate + lower to jobs
    assert [s.digest for s in lowered.specs] == [
        s.digest for s in grid.expand()
    ]
    print("expanded scenarios (spec digest -> job digest):")
    for spec, job in zip(lowered.specs, lowered.jobs):
        print(f"  {spec.digest[:12]} -> {job.digest[:12]}  {spec.label()}")
    print()

    with tempfile.TemporaryDirectory() as cache_dir:
        print("cold run (parallel, populating the cache)...")
        first = run_suite(grid, executor=Executor(
            jobs=2, store=ResultStore(cache_dir)))
        print(" ", first.report.summary())

        print("warm run (must be pure cache hits)...")
        second = run_suite(grid, executor=Executor(
            jobs=2, store=ResultStore(cache_dir)))
        print(" ", second.report.summary())
        assert second.report.executed == 0
        assert [r.result for r in first.results] == [
            r.result for r in second.results
        ], "cached results must be bit-identical"

    print()
    print(format_table(
        list(first.PAIRED_HEADERS),
        first.paired_rows(),
        title="gated vs ungated, per kernel",
    ))


if __name__ == "__main__":
    main()
