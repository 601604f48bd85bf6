"""One evaluation scenario as a validatable, serializable value.

A :class:`ScenarioSpec` names everything that defines one simulation
run *declaratively*: the workload (name + schema-validated parameter
overrides + scale + seed), the machine shape (thread count + dotted
:class:`~repro.config.SystemConfig` overrides), and the
contention-management choice (gating switch, :math:`W_0`, policy name).
Unlike :class:`~repro.exec.jobs.RunJob` — which carries live config and
power-model objects — a spec is plain data: it round-trips exactly
through JSON, has a stable content digest, and validates completely
(workload exists, parameters typed, config keys real) *before* any
simulation runs.

Lowering: :meth:`ScenarioSpec.to_job` produces the ``RunJob`` the
executor actually runs.  A spec builds its ``SystemConfig`` once:
validation and lowering share it.

System overrides use dotted paths into the config dataclasses
(``"memory.latency"``, ``"cache.ways"``, ``"num_dirs"``).  The fields
owned by first-class spec attributes — ``num_procs`` (= ``threads``)
and the gating switch/W0/policy — are rejected as dotted keys so a spec
has exactly one spelling.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Mapping

from ..config import MAX_PROCS, GatingConfig, SystemConfig
from ..errors import WorkloadError
from ..exec.serialize import canonical_json
from ..power.model import PowerModel
from ..workloads.builtin import SCALES
from ..workloads.registry import WorkloadSpec

__all__ = ["SCENARIO_SCHEMA_VERSION", "ScenarioSpec", "scenario"]

#: bump when the spec payload layout changes incompatibly
SCENARIO_SCHEMA_VERSION = 1

#: dotted system-override keys shadowed by first-class spec fields
_SHADOWED_KEYS = {
    "num_procs": "threads",
    "gating.enabled": "gating",
    "gating.w0": "w0",
    "gating.contention_manager": "cm",
}

#: SystemConfig fields holding nested config dataclasses
_SECTIONS = ("cache", "bus", "directory", "memory", "commit", "gating")

#: scalar config field annotation -> the JSON values it accepts (bool
#: is excluded from int: ``true`` silently becoming ``1`` is a spec
#: mistake, not a value)
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "int | None": (int, type(None)),
    "bool": (bool,),
    "str": (str,),
}


def _sorted_items(mapping: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    if not mapping:
        return ()
    return tuple(sorted(mapping.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """One (workload × machine × contention management) scenario."""

    workload: str
    scale: str = "small"
    threads: int = 4
    seed: int = 0
    #: schema-validated workload parameter overrides, sorted by name
    params: tuple[tuple[str, Any], ...] = ()
    gating: bool = True
    w0: int = 8
    cm: str = "gating-aware"
    #: dotted SystemConfig overrides, sorted by path
    system: tuple[tuple[str, Any], ...] = ()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check every field against the live registries; returns self.

        Raises :class:`~repro.errors.WorkloadError` (unknown workload,
        bad parameter, unknown scale), :class:`~repro.errors.ConfigError`
        (bad contention manager or config value) — always *before* any
        simulation work.
        """
        from ..cm.registry import create_cm
        from ..workloads.registry import workload_schema

        self._check_field_types()
        if self.scale not in SCALES:
            raise WorkloadError(
                f"unknown scale {self.scale!r}; choose from {sorted(SCALES)}"
            )
        if self.threads < 1:
            raise WorkloadError(f"thread count must be positive: {self.threads}")
        workload_schema(self.workload).validate(dict(self.params))
        config = self.system_config()  # validates dotted keys + values
        create_cm(config.gating, config.seed)  # validates the CM name
        return self

    def _check_field_types(self) -> None:
        """Type-check the first-class fields (JSON is untyped on entry).

        ``"4"`` for ``threads`` or ``"false"`` for ``gating`` must fail
        loudly here — a truthy string silently running a scenario gated
        is exactly the spec mistake this layer exists to catch.
        """
        for name, expected in (
            ("workload", str), ("scale", str), ("cm", str),
        ):
            if not isinstance(getattr(self, name), str):
                raise WorkloadError(
                    f"scenario field {name!r} expects a string, got "
                    f"{type(getattr(self, name)).__name__} "
                    f"({getattr(self, name)!r})"
                )
        for name in ("threads", "seed", "w0"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise WorkloadError(
                    f"scenario field {name!r} expects an integer, got "
                    f"{type(value).__name__} ({value!r})"
                )
        if not isinstance(self.gating, bool):
            raise WorkloadError(
                f"scenario field 'gating' expects a boolean, got "
                f"{type(self.gating).__name__} ({self.gating!r})"
            )

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def workload_spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            name=self.workload,
            scale=self.scale,
            seed=self.seed,
            overrides=_sorted_items(dict(self.params)),
        )

    def system_config(self) -> SystemConfig:
        """The concrete machine configuration this spec names."""
        return self._system_config

    @cached_property
    def _system_config(self) -> SystemConfig:
        # built on first use, in one constructor call over the shared
        # default sections; frozen, like the spec it derives from
        top: dict[str, Any] = {"num_procs": self.threads, "seed": self.seed}
        if not (1 <= self.threads <= MAX_PROCS and self.seed >= 0):
            # the spec's own fields fail first, even under a system.seed
            SystemConfig(**top)
        sections: dict[str, dict[str, Any]] = {}
        for key, value in self.system:
            self._check_system_key(key, value)
            if "." in key:
                section, attr = key.split(".", 1)
                sections.setdefault(section, {})[attr] = value
            else:
                top[key] = value  # a system.seed wins over the spec's seed
        gating_overrides = sections.pop("gating", {})
        for section, attrs in sections.items():
            top[section] = replace(getattr(SystemConfig, section), **attrs)
        top["gating"] = GatingConfig(
            enabled=self.gating,
            w0=self.w0,
            contention_manager=self.cm,
            **gating_overrides,
        )
        return SystemConfig(**top)

    @staticmethod
    def _check_system_key(key: str, value: Any) -> None:
        """Check that ``key`` names a config field and ``value`` fits its
        type, before the config's own range checks compare it."""
        if key in _SHADOWED_KEYS:
            raise WorkloadError(
                f"system override {key!r} shadows the spec field "
                f"{_SHADOWED_KEYS[key]!r}; set that field instead"
            )
        top_fields = {f.name: f for f in fields(SystemConfig)}
        if "." in key:
            section, attr = key.split(".", 1)
            if section not in _SECTIONS or "." in attr:
                raise WorkloadError(
                    f"unknown system override {key!r}; sections: "
                    f"{', '.join(_SECTIONS)}"
                )
            section_fields = {
                f.name: f for f in fields(type(getattr(SystemConfig(), section)))
            }
            if attr not in section_fields:
                raise WorkloadError(
                    f"unknown system override {key!r}; {section} fields: "
                    f"{', '.join(section_fields)}"
                )
            field = section_fields[attr]
        elif key in _SECTIONS:
            raise WorkloadError(
                f"system override {key!r} names a whole config section; "
                f"override individual fields as {key!r}.<field>"
            )
        elif key not in top_fields:
            names = set(top_fields) - {"num_procs"} - set(_SECTIONS)
            raise WorkloadError(
                f"unknown system override {key!r}; top-level fields: "
                f"{', '.join(sorted(names))}"
            )
        else:
            field = top_fields[key]
        expected = _FIELD_TYPES[str(field.type)]
        if not isinstance(value, expected) or (
            isinstance(value, bool) and bool not in expected
        ):
            raise WorkloadError(
                f"system override {key!r} expects {field.type}, got "
                f"{type(value).__name__} ({value!r})"
            )

    def to_job(self, power: PowerModel | None = None) -> "Any":
        """Lower to the :class:`~repro.exec.jobs.RunJob` the executor runs."""
        from ..exec.jobs import RunJob

        model = power if power is not None else PowerModel.derive()
        return RunJob(
            spec=self.workload_spec(), config=self.system_config(), power=model
        )

    # ------------------------------------------------------------------
    # identity / serialization
    # ------------------------------------------------------------------
    def payload(self) -> dict[str, Any]:
        """Canonical plain-data content (the digest input)."""
        return {
            "schema": SCENARIO_SCHEMA_VERSION,
            "workload": self.workload,
            "scale": self.scale,
            "threads": self.threads,
            "seed": self.seed,
            "params": {key: value for key, value in self.params},
            "gating": self.gating,
            "w0": self.w0,
            "cm": self.cm,
            "system": {key: value for key, value in self.system},
        }

    @property
    def digest(self) -> str:
        """Stable SHA-256 content digest (hex) of the canonical payload.

        This is the *scenario* identity (what was asked for).  Distinct
        scenario digests may still lower to one :class:`RunJob` digest —
        e.g. ungated specs differing only in :math:`W_0` — which is
        exactly how suites share baselines through the executor.
        """
        return hashlib.sha256(
            canonical_json(self.payload()).encode()
        ).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return self.payload()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise WorkloadError(
                f"a scenario must be an object, got {type(data).__name__}"
            )
        schema = data.get("schema", SCENARIO_SCHEMA_VERSION)
        if schema != SCENARIO_SCHEMA_VERSION:
            raise WorkloadError(
                f"scenario schema v{schema} not supported "
                f"(current: v{SCENARIO_SCHEMA_VERSION})"
            )
        known = {
            "schema", "workload", "scale", "threads", "seed", "params",
            "gating", "w0", "cm", "system",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise WorkloadError(
                f"unknown scenario field(s): {', '.join(unknown)}"
            )
        if "workload" not in data:
            raise WorkloadError("scenario is missing the workload name")
        for name in ("params", "system"):
            value = data.get(name)
            if value is not None and not isinstance(value, Mapping):
                raise WorkloadError(
                    f"scenario field {name!r} expects an object, got "
                    f"{type(value).__name__}"
                )
        return cls(
            workload=data["workload"],
            scale=data.get("scale", "small"),
            threads=data.get("threads", 4),
            seed=data.get("seed", 0),
            params=_sorted_items(data.get("params")),
            gating=data.get("gating", True),
            w0=data.get("w0", 8),
            cm=data.get("cm", "gating-aware"),
            system=_sorted_items(data.get("system")),
        ).validate()

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise WorkloadError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_updates(self, **changes: Any) -> "ScenarioSpec":
        """Copy with field changes; ``params``/``system`` accept dicts
        that are *merged* into (not substituted for) the current pairs."""
        for key in ("params", "system"):
            if key in changes and isinstance(changes[key], Mapping):
                merged = dict(getattr(self, key))
                merged.update(changes[key])
                changes[key] = _sorted_items(merged)
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    def label(self) -> str:
        mode = f"gated w0={self.w0}" if self.gating else "ungated"
        extras = ""
        if self.params:
            extras = " " + ",".join(f"{k}={v}" for k, v in self.params)
        return (
            f"{self.workload}[{self.scale}] x{self.threads} {mode} "
            f"cm={self.cm}{extras}"
        )


def scenario(
    workload: str,
    scale: str = "small",
    threads: int = 4,
    seed: int = 0,
    gating: bool = True,
    w0: int = 8,
    cm: str = "gating-aware",
    params: Mapping[str, Any] | None = None,
    system: Mapping[str, Any] | None = None,
) -> ScenarioSpec:
    """Convenience constructor taking plain dicts, with validation."""
    return ScenarioSpec(
        workload=workload,
        scale=scale,
        threads=threads,
        seed=seed,
        params=_sorted_items(params),
        gating=gating,
        w0=w0,
        cm=cm,
        system=_sorted_items(system),
    ).validate()
