"""Scale tables and parameter schemas of the built-in workloads.

Each builder module (:mod:`~repro.workloads.genome`, ...) imports its
scale table and :class:`~repro.workloads.schema.WorkloadSchema` from
here.  Keeping them apart from the builders, which import NumPy and
the program model, lets :mod:`~repro.workloads.registry` list
and validate every workload without importing a builder: a command
that never builds a workload never loads one.
"""

from __future__ import annotations

from .schema import Param, WorkloadSchema

__all__ = [
    "Scale",
    "SCALES",
    "GENOME_SCALES",
    "GENOME_SCHEMA",
    "YADA_SCALES",
    "YADA_SCHEMA",
    "INTRUDER_SCALES",
    "INTRUDER_SCHEMA",
    "KMEANS_SCALES",
    "KMEANS_SCHEMA",
    "VACATION_SCALES",
    "VACATION_SCHEMA",
    "LABYRINTH_SCALES",
    "LABYRINTH_SCHEMA",
    "MICRO_SCALES",
    "COUNTER_SCHEMA",
    "BANK_SCHEMA",
    "ARRAY_WALK_SCHEMA",
    "LLIST_SCHEMA",
]

#: Scale names accepted by every workload builder.
Scale = str

#: Canonical scales: "tiny" for unit tests, "small" for the benchmark
#: suite (a full Fig. 4–7 regeneration in minutes), "medium" for closer
#: approximations of STAMP's input sizes (longer runs).
SCALES: tuple[Scale, ...] = ("tiny", "small", "medium")


# -- genome ------------------------------------------------------------
#: scale -> (segment stream length, distinct fraction, match probes)
GENOME_SCALES: dict[str, tuple[int, float, int]] = {
    "tiny": (96, 0.6, 2),
    "small": (600, 0.6, 3),
    "medium": (2400, 0.65, 4),
}

GENOME_SCHEMA = WorkloadSchema(
    workload="genome",
    doc="hash-set dedup + segment matching (moderate conflicts)",
    params=(
        Param("segments", "int",
              doc="segment stream length (with duplicates)"),
        Param("distinct_fraction", "float",
              doc="fraction of the stream that is distinct"),
        Param("probes", "int",
              doc="overlap-candidate lookups per match transaction"),
        Param("table_slack", "float", default=1.4,
              doc="hash-table slots per distinct segment"),
    ),
)


# -- yada --------------------------------------------------------------
#: scale -> (mesh elements, initially-bad fraction, max cavity size)
YADA_SCALES: dict[str, tuple[int, float, int]] = {
    "tiny": (64, 0.4, 4),
    "small": (400, 0.5, 8),
    "medium": (1600, 0.5, 12),
}

YADA_SCHEMA = WorkloadSchema(
    workload="yada",
    doc="cavity-expansion mesh refinement (long, loop-repeated conflicts)",
    params=(
        Param("elements", "int",
              doc="mesh elements (rounded to a full square grid)"),
        Param("bad_fraction", "float",
              doc="fraction of elements initially flagged bad"),
        Param("max_cavity", "int",
              doc="cavity size cap (bounds read/write-set growth)"),
    ),
)


# -- intruder ----------------------------------------------------------
#: scale -> (target packet count, flow count, detect cycles per fragment)
INTRUDER_SCALES: dict[str, tuple[int, int, int]] = {
    "tiny": (48, 12, 20),
    "small": (360, 72, 30),
    "medium": (1400, 260, 40),
}

INTRUDER_SCHEMA = WorkloadSchema(
    workload="intruder",
    doc="shared packet queue + flow reassembly (short txs, high aborts)",
    params=(
        Param("packets", "int",
              doc="target packet count (fragments across all flows)"),
        Param("flows", "int",
              doc="number of flows to reassemble"),
        Param("detect_cycles", "int",
              doc="detector compute cycles per reassembled fragment"),
    ),
)


# -- kmeans ------------------------------------------------------------
#: scale -> (points, clusters, iterations)
KMEANS_SCALES: dict[str, tuple[int, int, int]] = {
    "tiny": (48, 4, 1),
    "small": (320, 8, 2),
    "medium": (1280, 12, 3),
}

KMEANS_SCHEMA = WorkloadSchema(
    workload="kmeans",
    doc="clustering; read-mostly centroid updates (low contention)",
    params=(
        Param("points", "int",
              doc="data points to cluster"),
        Param("clusters", "int",
              doc="centroid count k; fewer clusters = more contention"),
        Param("iterations", "int",
              doc="Lloyd iterations (assign + update + reduce each)"),
    ),
)


# -- vacation ----------------------------------------------------------
#: scale -> (operations per thread, items per relation table)
VACATION_SCALES: dict[str, tuple[int, int]] = {
    "tiny": (12, 16),
    "small": (64, 48),
    "medium": (240, 128),
}

VACATION_SCHEMA = WorkloadSchema(
    workload="vacation",
    doc="travel reservations; mixed-size transactions over shared tables",
    params=(
        Param("ops", "int",
              doc="client operations per thread"),
        Param("relations", "int",
              doc="items per relation table; fewer = hotter items"),
        Param("query_fraction", "float", default=0.5,
              doc="fraction of operations that are read-only queries"),
        Param("query_size", "int", default=4,
              doc="items probed by one query transaction"),
        Param("max_stock", "int", default=3,
              doc="maximum initial stock per item (uniform 1..max)"),
    ),
)


# -- labyrinth ---------------------------------------------------------
#: scale -> (grid side, paths per thread, max path length)
LABYRINTH_SCALES: dict[str, tuple[int, int, int]] = {
    "tiny": (32, 1, 8),
    "small": (64, 2, 20),
    "medium": (128, 3, 40),
}

LABYRINTH_SCHEMA = WorkloadSchema(
    workload="labyrinth",
    doc="grid routing; long transactions with large write sets",
    params=(
        Param("grid_side", "int",
              doc="grid is side x side cells"),
        Param("paths_per_thread", "int",
              doc="routes each thread must place"),
        Param("max_path_length", "int",
              doc="cells (= cache lines) per route, drawn in [max/2, max]"),
    ),
)


# -- micro -------------------------------------------------------------
MICRO_SCALES: dict[str, int] = {"tiny": 10, "small": 40, "medium": 150}

COUNTER_SCHEMA = WorkloadSchema(
    workload="counter",
    doc="shared-counter increments (maximum contention)",
    params=(
        Param("increments", "int", doc="increments per thread"),
        Param("work_cycles", "int", default=5,
              doc="compute cycles inside each increment transaction"),
    ),
)

BANK_SCHEMA = WorkloadSchema(
    workload="bank",
    doc="random account transfers (tunable contention)",
    params=(
        Param("accounts", "int", default=32,
              doc="ledger size; fewer accounts = more conflicts"),
        Param("transfers", "int", doc="transfers per thread"),
        Param("initial_balance", "int", default=1000,
              doc="starting balance per account"),
    ),
)

ARRAY_WALK_SCHEMA = WorkloadSchema(
    workload="array_walk",
    doc="disjoint per-thread updates (zero-conflict control)",
    params=(
        Param("updates", "int", doc="updates per thread"),
        Param("slots_per_thread", "int", default=16,
              doc="private slots each thread cycles through"),
    ),
)

LLIST_SCHEMA = WorkloadSchema(
    workload="llist",
    doc="sorted linked-list inserts (large read-sets, head hot-spot)",
    params=(
        Param("inserts", "int", doc="inserts per thread"),
        Param("key_space", "int", default=10_000,
              doc="key range; smaller = denser collisions"),
    ),
)
