"""Experiment harness (system S10 in DESIGN.md).

High-level entry points:

* :func:`~repro.harness.runner.run_workload` — one workload on one
  configuration, with energy accounting and functional validation.
* :func:`~repro.harness.compare.compare_gating` — the paired
  with/without-clock-gating methodology of Figs. 4–6.

The paper's full grids live in :mod:`repro.figures.registry`; ``repro
figures build`` regenerates every table and figure from them.
"""

from .runner import RunResult, WorkloadSpec, run_workload, workload
from .compare import GatingComparison, compare_gating
from .reporting import format_table, format_matrix
from .validation import check_serializability
from ..workloads.registry import available_workloads

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
