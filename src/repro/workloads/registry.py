"""Name-based workload construction with typed parameter schemas.

The harness and benchmarks refer to workloads by name; the registry
maps names to builder functions.  Builders accept
``(num_threads, scale, seed, **overrides)`` and return a
:class:`~repro.workloads.base.WorkloadInstance`.

Every registration carries a :class:`~repro.workloads.schema.WorkloadSchema`
describing the builder's override parameters (names, scalar types,
fixed defaults).  :func:`build_workload` validates
overrides against the schema *before* calling the builder, so an
unknown or mistyped parameter raises :class:`~repro.errors.WorkloadError`
listing the valid parameters — which is what lets the scenario layer
(:mod:`repro.scenarios`) validate and serialize whole evaluation
matrices without running a single simulation.

The built-in schemas live in :mod:`~repro.workloads.builtin`; each
built-in builder module is imported by the first build of its
workload.  Listing, describing and validating workloads therefore
loads neither a builder nor NumPy, and neither does
:class:`WorkloadSpec`, the workload reference every
:class:`~repro.exec.jobs.RunJob` carries.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..errors import WorkloadError
from .builtin import (
    ARRAY_WALK_SCHEMA,
    BANK_SCHEMA,
    COUNTER_SCHEMA,
    GENOME_SCHEMA,
    INTRUDER_SCHEMA,
    KMEANS_SCHEMA,
    LABYRINTH_SCHEMA,
    LLIST_SCHEMA,
    VACATION_SCHEMA,
    YADA_SCHEMA,
)
from .schema import WorkloadSchema

if TYPE_CHECKING:
    from .base import WorkloadInstance

__all__ = [
    "WorkloadSpec",
    "workload",
    "available_workloads",
    "build_workload",
    "load_builders",
    "register_workload",
    "workload_schema",
]

Builder = Callable[..., "WorkloadInstance"]

#: name -> (builder, schema); one dict so they can never drift apart.
#: A built-in's builder is recorded as the name of its module until the
#: first build of that workload imports it.
_REGISTRY: dict[str, tuple[Builder | str, WorkloadSchema]] = {}

#: the paper's evaluation applications, in its presentation order
PAPER_APPS: tuple[str, ...] = ("genome", "yada", "intruder")

#: every STAMP-style application kernel (the paper's three plus the
#: extended contention profiles added on top of the scenario layer)
STAMP_APPS: tuple[str, ...] = (
    "genome", "yada", "intruder", "kmeans", "vacation", "labyrinth",
)

__all__ += ["PAPER_APPS", "STAMP_APPS"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by name, to be built against a configuration.

    The thread count is deliberately absent: it is taken from
    ``SystemConfig.num_procs`` at run time, so the same spec serves a
    4-, 8- and 16-core sweep (Fig. 4's x-axis).
    """

    name: str
    scale: str = "small"
    seed: int = 0
    overrides: tuple[tuple[str, Any], ...] = ()

    def build(self, num_threads: int) -> WorkloadInstance:
        return build_workload(
            self.name,
            num_threads,
            scale=self.scale,
            seed=self.seed,
            **dict(self.overrides),
        )


def workload(
    name: str, scale: str = "small", seed: int = 0, **overrides: Any
) -> WorkloadSpec:
    """Convenience constructor: ``workload("intruder", scale="tiny")``."""
    return WorkloadSpec(name, scale, seed, tuple(sorted(overrides.items())))


def available_workloads() -> list[str]:
    return sorted(_REGISTRY)


def _lookup(name: str) -> tuple[Builder | str, WorkloadSchema]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(available_workloads())}"
        ) from None


def register_workload(
    name: str,
    builder: Builder,
    schema: WorkloadSchema | None = None,
) -> None:
    """Add a custom workload (overwrites allowed).

    Without an explicit ``schema``, one is derived from the builder's
    keyword parameters (:meth:`WorkloadSchema.from_builder`) so unknown
    override keys are still rejected by name.
    """
    if not name:
        raise WorkloadError("workload name must be non-empty")
    if schema is None:
        schema = WorkloadSchema.from_builder(name, builder)
    elif schema.workload != name:
        raise WorkloadError(
            f"schema is for {schema.workload!r}, registered as {name!r}"
        )
    _REGISTRY[name] = (builder, schema)


def workload_schema(name: str) -> WorkloadSchema:
    """The parameter schema of the named workload."""
    return _lookup(name)[1]


def build_workload(
    name: str,
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    **overrides,
) -> WorkloadInstance:
    """Build the named workload, validating overrides against its schema."""
    overrides = _lookup(name)[1].validate(overrides)
    return _builder(name)(num_threads, scale=scale, seed=seed, **overrides)


def load_builders(names: Iterable[str]) -> None:
    """Import the builder modules of the named workloads now instead of
    on their first build, e.g. before forking workers that will build
    them.  Unknown names are left for :func:`build_workload` to report."""
    for name in names:
        if name in _REGISTRY:
            _builder(name)


def _builder(name: str) -> Builder:
    builder, schema = _lookup(name)
    if isinstance(builder, str):
        module = importlib.import_module(f".{builder}", __package__)
        builder = getattr(module, f"build_{name}")
        _REGISTRY[name] = (builder, schema)
    return builder


# The built-in workloads: name -> (module defining build_<name>, schema).
for _name, _module, _schema in (
    ("genome", "genome", GENOME_SCHEMA),
    ("yada", "yada", YADA_SCHEMA),
    ("intruder", "intruder", INTRUDER_SCHEMA),
    ("kmeans", "kmeans", KMEANS_SCHEMA),
    ("vacation", "vacation", VACATION_SCHEMA),
    ("labyrinth", "labyrinth", LABYRINTH_SCHEMA),
    ("counter", "micro", COUNTER_SCHEMA),
    ("bank", "micro", BANK_SCHEMA),
    ("array_walk", "micro", ARRAY_WALK_SCHEMA),
    ("llist", "micro", LLIST_SCHEMA),
):
    _REGISTRY[_name] = (_module, _schema)
del _name, _module, _schema
