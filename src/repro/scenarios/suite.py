"""Parameter-grid expansion: a suite is a base spec plus axes.

A :class:`ScenarioSuite` describes a whole evaluation matrix as data: a
base :class:`~repro.scenarios.spec.ScenarioSpec` and an ordered mapping
of *axes* — each a spec dimension and the values it sweeps.  Expansion
takes the cartesian product (the last axis varies fastest, so related
runs sit next to each other in one executor batch) and validates every
resulting spec before anything is simulated.

Axis names resolve in three namespaces:

* spec fields — ``workload``, ``scale``, ``threads``, ``seed``,
  ``gating``, ``w0``, ``cm``;
* ``system.<dotted path>`` — a :class:`~repro.config.SystemConfig`
  override, e.g. ``system.memory.latency``;
* anything else — a workload parameter override (validated against the
  workload's schema), optionally written ``params.<name>``.

Two axes that set the same field (``increments`` and
``params.increments``) are rejected like a repeated axis name.

This is the layer the ROADMAP's "cache-aware scenario search over
W0 × CM × workload grids" builds on: a suite is a declarative object
that enumerates, serializes, and digests its whole grid without running
it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..errors import WorkloadError
from .spec import ScenarioSpec

__all__ = ["ScenarioSuite", "suite", "load_suite_file"]

_SPEC_FIELDS = ("workload", "scale", "threads", "seed", "gating", "w0", "cm")


@dataclass(frozen=True)
class ScenarioSuite:
    """A named grid of scenarios: base spec × axes."""

    name: str
    base: ScenarioSpec
    #: ordered (axis name, swept values) pairs; last axis varies fastest
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        # axis -> the field it sets; two axes on one field would
        # silently collapse into one sweep
        seen: dict[tuple[str, str | None], str] = {}
        for axis, values in self.axes:
            target = _axis_field(axis)
            if target in seen:
                first = seen[target]
                also = (
                    f" (sets the same field as {first!r})"
                    if first != axis else ""
                )
                raise WorkloadError(
                    f"suite {self.name!r}: duplicate axis {axis!r}{also}"
                )
            seen[target] = axis
            if not values:
                raise WorkloadError(
                    f"suite {self.name!r}: axis {axis!r} has no values"
                )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of scenarios the suite expands to."""
        total = 1
        for _axis, values in self.axes:
            total *= len(values)
        return total

    def expand(self) -> list[ScenarioSpec]:
        """The full grid, validated, in deterministic order.  Each
        scenario is derived from the base in one step: no two axes set
        the same field or override key, so one combination's values
        merge into one change set."""
        specs = []
        targets = [_axis_field(axis) for axis, _values in self.axes]
        value_lists = [values for _axis, values in self.axes]
        for combo in itertools.product(*value_lists):
            changes: dict[str, Any] = {}
            for (field, key), value in zip(targets, combo):
                if key is None:
                    changes[field] = value
                else:
                    changes.setdefault(field, {})[key] = value
            specs.append(self.base.with_updates(**changes).validate())
        return specs

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "base": self.base.to_dict(),
            "axes": [[axis, list(values)] for axis, values in self.axes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSuite":
        if "base" not in data:
            raise WorkloadError("suite is missing its base scenario")
        if not isinstance(data["base"], Mapping):
            raise WorkloadError(
                f"suite field 'base' expects an object, got "
                f"{type(data['base']).__name__}"
            )
        return cls(
            name=data.get("name", "unnamed"),
            base=ScenarioSpec.from_dict(data["base"]),
            axes=_axes_from_data(data.get("axes", [])),
            description=data.get("description", ""),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSuite":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise WorkloadError(f"invalid suite JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise WorkloadError("suite JSON must be an object")
        return cls.from_dict(data)

    def with_base_updates(self, **changes: Any) -> "ScenarioSuite":
        """Copy with base-spec field changes (axes still win at expansion)."""
        return dataclasses.replace(
            self, base=self.base.with_updates(**changes)
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        header = f"suite {self.name}: {self.description}"
        lines = [header.rstrip().rstrip(":")]
        lines.append(f"  base: {self.base.label()}")
        for axis, values in self.axes:
            lines.append(f"  axis {axis}: {list(values)}")
        lines.append(f"  expands to {self.size} scenario(s)")
        return "\n".join(lines)


def _axes_from_data(axes: Any) -> tuple[tuple[str, tuple[Any, ...]], ...]:
    """Decode axes from JSON data: [[name, values], ...] or a mapping."""
    if isinstance(axes, Mapping):
        entries = list(axes.items())
    elif isinstance(axes, Sequence) and not isinstance(axes, str):
        entries = []
        for item in axes:
            if (
                not isinstance(item, Sequence)
                or isinstance(item, str)
                or len(item) != 2
            ):
                raise WorkloadError(
                    f"suite axis entries must be [name, values] pairs, "
                    f"got {item!r}"
                )
            entries.append((item[0], item[1]))
    else:
        raise WorkloadError(
            f"suite axes must be a mapping or a list of [name, values] "
            f"pairs, got {type(axes).__name__}"
        )
    out = []
    for axis, values in entries:
        if not isinstance(axis, str):
            raise WorkloadError(f"axis name must be a string, got {axis!r}")
        if isinstance(values, str) or not isinstance(values, Sequence):
            raise WorkloadError(
                f"axis {axis!r} values must be a list, got {values!r}"
            )
        out.append((axis, tuple(values)))
    return tuple(out)


def _axis_field(axis: str) -> tuple[str, str | None]:
    """The spec field an axis sets: ``(name, None)`` for a first-class
    field, ``("system", key)`` or ``("params", name)`` for an override."""
    if axis in _SPEC_FIELDS:
        return axis, None
    if axis.startswith("system."):
        return "system", axis[len("system."):]
    if axis.startswith("params."):
        return "params", axis[len("params."):]
    # bare name: a workload parameter (schema validation catches typos)
    return "params", axis


def load_suite_file(path: str | Path) -> ScenarioSuite:
    """Load a user-defined suite from a JSON file.

    The format is ``{"name", "description", "base": {spec fields},
    "axes": [[axis, values], ...]}`` — exactly what
    :meth:`ScenarioSuite.to_json` writes; a hand-written grid works the
    same way.  A suite with no ``name`` field is named after the file
    stem.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WorkloadError(f"cannot read suite file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise WorkloadError(f"suite file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise WorkloadError(f"suite file {path} must hold a JSON object")
    if not data.get("name"):
        data = dict(data, name=path.stem)
    return ScenarioSuite.from_dict(data)


def suite(
    name: str,
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]] | None = None,
    description: str = "",
) -> ScenarioSuite:
    """Convenience constructor preserving the mapping's axis order."""
    pairs = tuple(
        (axis, tuple(values)) for axis, values in (axes or {}).items()
    )
    return ScenarioSuite(name=name, base=base, axes=pairs,
                         description=description)
