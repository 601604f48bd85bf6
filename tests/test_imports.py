"""Import hygiene: what each entry point loads, and the names others bind.

A command that never simulates must not pay for the simulator: NumPy,
the machine and the harness runner load on the first simulation, not at
``import repro.cli`` or during a warm figure build.  Neither loads the
process-pool machinery, which only a pool batch uses.  A process pool's
parent and ``repro bench`` load them up front instead, so forked
workers inherit them and no benchmark times an import.  The import
checks run in fresh interpreters, so what earlier tests loaded cannot hide a
regression.  The lazy package exports and the names the benchmark
(``paperbench/``) patches are resolved here too, so a typo in a lazy
table or a moved name fails tier-1 instead of a user's import.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_figures import DATA, GOLDEN_PARAMS

ROOT = Path(__file__).resolve().parents[1]

#: modules only a simulation may load
SIMULATOR_ONLY = ("numpy", "networkx", "repro.harness.runner", "repro.htm",
                  "repro.htm.machine", "repro.mem", "repro.gating",
                  "repro.sim.engine")

#: modules only a process pool may load
POOL_ONLY = ("concurrent.futures", "multiprocessing")

#: packages whose ``__init__`` re-exports lazily (repro._lazy)
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.harness", "repro.power",
                 "repro.sim", "repro.workloads")


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; returns its last stdout line
    decoded as JSON."""
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = (f"import json, sys; print(json.dumps("
          f"[m for m in {SIMULATOR_ONLY + POOL_ONLY!r} if m in sys.modules]))")


class TestStartup:
    def test_cli_import_loads_no_simulator(self):
        assert run_fresh("import repro.cli\n" + LOADED) == []

    def test_warm_forced_build_loads_no_simulator(self, tmp_path):
        store = tmp_path / "figstore"
        code = f"""
import json, shutil, sys
from repro.figures.builder import FigureBuilder
from repro.figures.spec import FigureParams
shutil.copytree({str(DATA / "figstore")!r}, {str(store)!r})
report = FigureBuilder(store={str(store)!r}, out_dir={str(tmp_path / "out")!r},
                       params={GOLDEN_PARAMS!r}).build(force=True)
print(json.dumps({{
    "executed": report.executed,
    "written": sum(a.path is not None for a in report.artifacts),
    "loaded": [m for m in {SIMULATOR_ONLY + POOL_ONLY!r} if m in sys.modules],
}}))
"""
        assert run_fresh(code) == {"executed": 0, "written": 8, "loaded": []}

    def test_simulation_loads_the_simulator_on_first_use(self):
        code = """
import json, sys
from repro import SystemConfig, run_workload, workload
result = run_workload(workload("counter", scale="tiny"),
                      SystemConfig(num_procs=2))
print(json.dumps([result.commits, "repro.htm.machine" in sys.modules]))
"""
        commits, machine_loaded = run_fresh(code)
        assert commits > 0 and machine_loaded

    def test_pool_parent_loads_the_batch_builders_before_forking(self):
        # The parent builds nothing in a pool batch, so a builder it
        # holds afterwards was loaded for the workers to inherit.
        code = """
import json, sys
from repro.exec.executor import Executor
from repro.scenarios.spec import ScenarioSpec
jobs = [ScenarioSpec(workload="counter", scale="tiny", threads=2,
                     seed=seed).to_job() for seed in range(2)]
assert len(Executor(jobs=2).run(jobs)) == 2
print(json.dumps([m in sys.modules for m in (
    "repro.harness.runner", "repro.workloads.micro", "repro.workloads.genome")]))
"""
        assert run_fresh(code) == [True, True, False]

    def test_bench_loads_the_simulator_before_timing(self):
        # bench_stats itself loads neither the runner nor a builder.
        code = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["bench", "--check", "--bench", "bench_stats"]) == 0
print(json.dumps([m for m in ("repro.harness.runner", "repro.workloads.micro",
                              "repro.workloads.genome") if m not in sys.modules]))
"""
        assert run_fresh(code) == []


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
            assert export in listed, export

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_star_import(self, name):
        namespace: dict[str, object] = {}
        exec(f"from {name} import *", namespace)
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(namespace)

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(package, "no_such_export")


def test_benchmark_patch_points_resolve():
    """``paperbench/tracing.py`` wraps layer entry points by name; moving
    one breaks only ``paperbench --trace 1``, which nothing runs
    routinely.  Enter and exit its patch block: every target resolves,
    and every original is back afterwards."""
    code = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "paperbench")!r})
import workloads  # noqa: F401  (the benchmark's own repro imports)
from tracing import Tracer, traced_calls
import repro.figures.builder as builder
import repro.harness.runner as runner
from repro.htm.machine import Machine
from repro.workloads.registry import WorkloadSpec

def targets():
    return [Machine.__dict__["run"], Machine.__dict__["__init__"],
            runner.verify_tiling, runner.compute_energy,
            WorkloadSpec.__dict__["build"], builder.get_extractor,
            builder.plan_suite, builder.render_json]

before = targets()
with traced_calls(Tracer()):
    patched = targets()
after = targets()
print(json.dumps([
    all(a is not b for a, b in zip(before, patched)),
    all(a is b for a, b in zip(before, after)),
    runner.WorkloadSpec is WorkloadSpec,
]))
"""
    assert run_fresh(code) == [True, True, True]
