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
from .htm import (
    BarrierOp,
    Compute,
    Load,
    Machine,
    MachineResult,
    Store,
    ThreadContext,
    ThreadProgram,
    TxOp,
    transaction,
)
from .power import (
    EnergyBreakdown,
    EnergyReport,
    PowerModel,
    PowerModelParams,
    ProcState,
    compute_energy,
    format_energy_report,
    tcc_cache_power_curve,
    tcc_total_power_factor,
)

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
    "transaction",
    # power
    "ProcState",
    "PowerModel",
    "PowerModelParams",
    "EnergyBreakdown",
    "EnergyReport",
    "compute_energy",
    "format_energy_report",
    "tcc_cache_power_curve",
    "tcc_total_power_factor",
    # high-level API (populated below)
    "run_workload",
    "compare_gating",
    "workload",
    "available_workloads",
    "RunResult",
    "GatingComparison",
    # parallel execution / caching (populated below)
    "Executor",
    "RunJob",
    "ExecResult",
    "ResultStore",
    # declarative scenarios (populated below)
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

# High-level harness API; imported last to avoid import cycles.
from .harness import (  # noqa: E402
    GatingComparison,
    RunResult,
    available_workloads,
    compare_gating,
    run_workload,
    workload,
)
from .exec import ExecResult, Executor, ResultStore, RunJob  # noqa: E402
from .scenarios import (  # noqa: E402
    ScenarioSpec,
    ScenarioSuite,
    available_suites,
    get_suite,
    run_suite,
    scenario,
)
from .figures import (  # noqa: E402
    FigureBuilder,
    FigureParams,
    FigureSpec,
    available_figures,
)
