"""Typed parameter schemas for workload builders.

Every registered workload carries a :class:`WorkloadSchema`: the set of
override parameters its builder accepts, each with a scalar type, a
fixed default (when the builder has one), and a one-line description.  Schemas are
what make workload specs *data*: the scenario layer
(:mod:`repro.scenarios`) validates a spec's parameter overrides against
the schema before any simulation runs, so a suite of hundreds of runs
fails at expansion time — not three hours in — when a parameter is
misspelled, mistyped, or unknown.

Builders registered without an explicit schema get one derived from
their call signature (:meth:`WorkloadSchema.from_builder`), so
third-party workloads keep working and still reject unknown override
keys.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..errors import WorkloadError

__all__ = ["Param", "WorkloadSchema"]

#: parameter kinds and the Python types each accepts (bool is excluded
#: from the numeric kinds: ``True`` silently becoming ``1`` is exactly
#: the class of spec mistake schemas exist to catch)
_KINDS: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "any": (object,),
}


def _is_valid(kind: str, value: Any) -> bool:
    if isinstance(value, bool) and kind in ("int", "float"):
        return False
    return isinstance(value, _KINDS[kind])


@dataclass(frozen=True)
class Param:
    """One override parameter of a workload builder.

    ``default`` is the builder's fixed default; it is None for a
    parameter whose default comes from the workload's scale table.
    """

    name: str
    kind: str = "int"
    default: Any = None
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("parameter name must be non-empty")
        if self.kind not in _KINDS:
            raise WorkloadError(
                f"parameter {self.name!r}: unknown kind {self.kind!r} "
                f"(choose from {sorted(_KINDS)})"
            )

    def check(self, value: Any, workload: str) -> Any:
        """Validate one override value; returns it unchanged."""
        if not _is_valid(self.kind, value):
            raise WorkloadError(
                f"{workload}: parameter {self.name!r} expects {self.kind}, "
                f"got {type(value).__name__} ({value!r})"
            )
        return value


@dataclass(frozen=True)
class WorkloadSchema:
    """The typed override surface of one workload builder.

    ``permissive`` schemas (derived from builders taking ``**kwargs``)
    still type-check the parameters they know about but let unknown
    keys through — the builder owns their validation.
    """

    workload: str
    params: tuple[Param, ...] = ()
    doc: str = ""
    permissive: bool = False

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise WorkloadError(
                f"{self.workload}: duplicate parameter names in schema"
            )

    # ------------------------------------------------------------------
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise WorkloadError(
            f"{self.workload}: unknown parameter {name!r}; "
            f"valid parameters: {', '.join(self.names()) or '(none)'}"
        )

    def validate(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Check every override key and value; returns a plain dict.

        Raises :class:`WorkloadError` naming the offending key and
        listing the valid parameters — the error a typo'd suite axis or
        spec file surfaces before anything is simulated.
        """
        unknown = sorted(set(overrides) - set(self.names()))
        if unknown and not self.permissive:
            raise WorkloadError(
                f"{self.workload}: unknown parameter(s) "
                f"{', '.join(repr(k) for k in unknown)}; valid parameters: "
                f"{', '.join(self.names()) or '(none)'}"
            )
        return {
            key: (
                self.param(key).check(value, self.workload)
                if key in self.names()
                else value
            )
            for key, value in overrides.items()
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_builder(
        cls, workload: str, builder: Callable[..., Any]
    ) -> "WorkloadSchema":
        """Derive a schema from a builder's keyword parameters.

        Positional-or-keyword parameters after ``num_threads`` /
        ``scale`` / ``seed`` become schema parameters; kinds are
        inferred from the default value (``None`` defaults infer
        ``any``).  Builders taking ``**kwargs`` get a permissive
        schema-less pass-through and are responsible for their own
        validation.
        """
        try:
            signature = inspect.signature(builder)
        except (TypeError, ValueError):
            return cls(workload=workload, params=(), permissive=True)
        params: list[Param] = []
        permissive = False
        skip = {"num_threads", "scale", "seed"}
        for index, (name, parameter) in enumerate(signature.parameters.items()):
            if name in skip or index == 0:
                continue
            if parameter.kind == inspect.Parameter.VAR_KEYWORD:
                permissive = True  # the builder accepts arbitrary keys
                continue
            if parameter.kind == inspect.Parameter.VAR_POSITIONAL:
                continue
            default = (
                None
                if parameter.default is inspect.Parameter.empty
                else parameter.default
            )
            if isinstance(default, bool) or default is None:
                kind = "any"
            elif isinstance(default, int):
                kind = "int"
            elif isinstance(default, float):
                kind = "float"
            else:
                kind = "any"
            params.append(Param(name=name, kind=kind, default=default))
        return cls(workload=workload, params=tuple(params),
                   permissive=permissive)
