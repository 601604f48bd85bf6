"""Workloads (system S9 in DESIGN.md): STAMP-equivalent kernels.

The paper evaluates three STAMP applications — genome, yada and
intruder — compiled for Alpha and run under M5.  Neither the binaries
nor an Alpha toolchain is available here, so this package implements
*synthetic equivalents*: transactional kernels, built on real shared
data structures over the simulated memory, that reproduce each
application's contention character (see each module's docstring for the
mapping and DESIGN.md §2 for the substitution argument):

* :mod:`~repro.workloads.genome`   — hash-set dedup + segment matching;
  moderate conflicts, medium transactions.
* :mod:`~repro.workloads.yada`     — cavity-expansion mesh refinement;
  long transactions, conflicts repeated inside loops (the renew-counter
  driver the paper calls out for yada/genome).
* :mod:`~repro.workloads.intruder` — shared packet queue + flow
  reassembly; short transactions, high abort rate.
* :mod:`~repro.workloads.kmeans`   — clustering; read-mostly with
  short accumulator write bursts (low contention).
* :mod:`~repro.workloads.vacation` — travel reservations; mixed-size
  transactions over shared tables.
* :mod:`~repro.workloads.labyrinth`— grid routing; the longest
  transactions and largest write sets (worst case for abort energy).
* :mod:`~repro.workloads.micro`    — counter / bank / array / list
  microbenchmarks for tests and ablations.

Each workload registers a typed parameter schema
(:mod:`~repro.workloads.schema`); unknown or mistyped overrides are
rejected by name before anything is simulated.  The built-in schemas
and scale tables live in :mod:`~repro.workloads.builtin`, apart from
their builders, which the registry imports on a workload's first build.
"""

from .._lazy import lazy_exports

__all__ = [
    "MemoryLayout",
    "WorkloadInstance",
    "Scale",
    "SCALES",
    "Param",
    "WorkloadSchema",
    "available_workloads",
    "build_workload",
    "register_workload",
    "workload_schema",
    "build_genome",
    "build_intruder",
    "build_yada",
    "build_kmeans",
    "build_vacation",
    "build_labyrinth",
    "build_counter",
    "build_bank",
    "build_array_walk",
    "build_llist",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("MemoryLayout", "WorkloadInstance"),
    ".builtin": ("Scale", "SCALES"),
    ".registry": ("available_workloads", "build_workload",
                  "register_workload", "workload_schema"),
    ".schema": ("Param", "WorkloadSchema"),
    ".genome": ("build_genome",),
    ".intruder": ("build_intruder",),
    ".yada": ("build_yada",),
    ".kmeans": ("build_kmeans",),
    ".vacation": ("build_vacation",),
    ".labyrinth": ("build_labyrinth",),
    ".micro": ("build_counter", "build_bank", "build_array_walk",
               "build_llist"),
})
