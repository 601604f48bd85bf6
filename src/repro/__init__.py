"""repro — Clock Gate on Abort: energy-efficient hardware TM (IPPS 2009).

A complete architectural reproduction of Sanyal et al.'s clock-gating
HTM study: a Scalable-TCC-style hardware transactional memory on a
directory-based NUMA machine, the clock-gate-on-abort protocol with its
gating-aware contention management (Eq. 8), the Alpha 21264 @ 65 nm
power model (Table I) with interval energy accounting (Eqs. 1–7), and
STAMP-equivalent workloads (genome, yada, intruder).

Quickstart::

    from repro import SystemConfig, run_workload, workload

    wl = workload("intruder", scale="tiny")
    config = SystemConfig(num_procs=4, seed=7)
    result = run_workload(wl, config)
    print(result.parallel_time, result.energy.total)

See ``examples/`` for full scenarios; ``python -m repro figures
build`` regenerates every table and figure of the paper.

Only the configuration and error types load with the package; every
other name imports its module on first use, so a command that never
simulates never loads NumPy or the simulator (see
``docs/performance.md``, "Start-up").
"""

from .config import (
    BusConfig,
    CacheConfig,
    CommitConfig,
    DirectoryConfig,
    GatingConfig,
    MemoryConfig,
    SystemConfig,
)
from .errors import (
    CacheOverflowError,
    ConfigError,
    DeadlockError,
    HarnessError,
    MemoryModelError,
    ProtocolError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    # configuration
    "SystemConfig",
    "CacheConfig",
    "BusConfig",
    "DirectoryConfig",
    "MemoryConfig",
    "CommitConfig",
    "GatingConfig",
    # errors
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeadlockError",
    "ProtocolError",
    "MemoryModelError",
    "CacheOverflowError",
    "WorkloadError",
    "HarnessError",
    # HTM / programs
    "Machine",
    "MachineResult",
    "ThreadProgram",
    "ThreadContext",
    "Load",
    "Store",
    "Compute",
    "TxOp",
    "BarrierOp",
    # power
    "ProcState",
    "PowerModel",
    "PowerModelParams",
    "EnergyBreakdown",
    "compute_energy",
    "format_energy_report",
    "tcc_cache_power_curve",
    "tcc_total_power_factor",
    # high-level API
    "run_workload",
    "compare_gating",
    "workload",
    "available_workloads",
    "RunResult",
    "GatingComparison",
    # parallel execution / caching
    "Executor",
    "RunJob",
    "ExecResult",
    "ResultStore",
    # declarative scenarios
    "ScenarioSpec",
    "ScenarioSuite",
    "scenario",
    "run_suite",
    "get_suite",
    "available_suites",
    "FigureBuilder",
    "FigureParams",
    "FigureSpec",
    "available_figures",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".htm.ops": ("Load", "Store", "Compute", "TxOp", "BarrierOp"),
    ".htm.program": ("ThreadProgram", "ThreadContext"),
    ".htm.machine": ("Machine", "MachineResult"),
    ".power.states": ("ProcState",),
    ".power.model": ("PowerModel", "PowerModelParams"),
    ".power.energy": ("EnergyBreakdown", "compute_energy"),
    ".power.report": ("format_energy_report",),
    ".power.cacti": ("tcc_cache_power_curve", "tcc_total_power_factor"),
    ".harness.runner": ("run_workload", "RunResult"),
    ".harness.compare": ("compare_gating", "GatingComparison"),
    ".workloads.registry": ("workload", "available_workloads"),
    ".exec.executor": ("Executor",),
    ".exec.jobs": ("RunJob", "ExecResult"),
    ".exec.store": ("ResultStore",),
    ".scenarios.spec": ("ScenarioSpec", "scenario"),
    ".scenarios.suite": ("ScenarioSuite",),
    ".scenarios.runner": ("run_suite",),
    ".scenarios.builtin": ("get_suite", "available_suites"),
    ".figures.builder": ("FigureBuilder",),
    ".figures.spec": ("FigureParams", "FigureSpec"),
    ".figures.registry": ("available_figures",),
})
