"""Experiment harness (system S10 in DESIGN.md).

High-level entry points:

* :func:`~repro.harness.runner.run_workload` — one workload on one
  configuration, with energy accounting and functional validation.
* :func:`~repro.harness.compare.compare_gating` — the paired
  with/without-clock-gating methodology of Figs. 4–6.

The paper's full grids live in :mod:`repro.figures.registry`; ``repro
figures build`` regenerates every table and figure from them.
"""

from .._lazy import lazy_exports

__all__ = [
    "RunResult",
    "WorkloadSpec",
    "run_workload",
    "workload",
    "GatingComparison",
    "compare_gating",
    "format_table",
    "format_matrix",
    "check_serializability",
    "available_workloads",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".runner": ("RunResult", "run_workload"),
    "..workloads.registry": ("WorkloadSpec", "workload",
                             "available_workloads"),
    ".compare": ("GatingComparison", "compare_gating"),
    ".reporting": ("format_table", "format_matrix"),
    ".validation": ("check_serializability",),
})
