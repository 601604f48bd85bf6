"""Declarative figure specifications and their content digests.

A :class:`FigureSpec` names everything that defines one paper artifact:
the scenario suite whose simulations feed it (a
:class:`~repro.scenarios.suite.ScenarioSuite` value, a factory over
:class:`FigureParams`, or ``None`` for analytic figures), the
registered metric **extractor** that turns store records into figure
data, and presentation metadata.  Nothing here simulates or
writes files — the :class:`~repro.figures.builder.FigureBuilder` does
both.

Identity: :func:`figure_digest` hashes the figure name, the extractor
name + version, the *resolved* suite's canonical JSON, the grid
parameters and the power-model fingerprint.  Any change that could
alter the artifact — a new workload in the grid, a bumped extractor, a
re-derived power model — changes the digest, which is how
``repro figures status``/``build`` decide an on-disk artifact is stale.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Union

from ..config import GatingConfig, SystemConfig
from ..errors import FigureError
from ..exec.serialize import canonical_json
from ..power.model import PowerModel
from ..scenarios.suite import ScenarioSuite
from ..workloads.registry import PAPER_APPS

__all__ = [
    "FIGURE_SCHEMA_VERSION",
    "FigureParams",
    "FigureSpec",
    "figure_digest",
]

#: bump when the figure JSON payload layout changes incompatibly
FIGURE_SCHEMA_VERSION = 1

SuiteSource = Union[
    ScenarioSuite, Callable[["FigureParams"], ScenarioSuite], None
]


@dataclass(frozen=True)
class FigureParams:
    """The evaluation-grid knobs shared by every figure of one build.

    Defaults reproduce the paper's grid (three applications ×
    {4, 8, 16} processors, W0 = 8, the Fig. 7 W0 sweep); tests, smoke
    scripts and user pipelines shrink it (fewer apps/procs, ``tiny``
    scale) without touching any figure definition.
    """

    scale: str = "small"
    seed: int = 0
    apps: tuple[str, ...] = PAPER_APPS
    procs: tuple[int, ...] = (4, 8, 16)
    #: the evaluation-grid gating window (Figs. 4–6)
    w0: int = 8
    #: the Fig. 7 sensitivity sweep
    w0_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    cm: str = "gating-aware"

    def __post_init__(self) -> None:
        # tuples, not lists: params are hashed into figure digests
        for name in ("apps", "procs", "w0_values"):
            value = tuple(getattr(self, name))
            object.__setattr__(self, name, value)
            # a repeated value duplicates grid points, which the
            # extractors cannot pair; reject it before anything runs
            if len(set(value)) != len(value):
                raise FigureError(
                    f"figure params {name} has duplicate values: "
                    f"{list(value)}"
                )
        if not self.apps or not self.procs or not self.w0_values:
            raise FigureError(
                "figure params need at least one app, processor count "
                "and W0 value"
            )

    def fingerprint(self) -> dict[str, Any]:
        """Plain-data identity (part of every figure digest)."""
        return dataclasses.asdict(self)

    def system_config(self, num_procs: int | None = None) -> SystemConfig:
        """The Table II machine these parameters evaluate on."""
        return dataclasses.replace(
            SystemConfig(),
            num_procs=num_procs if num_procs is not None else self.procs[-1],
            num_dirs=None,
            seed=self.seed,
            gating=GatingConfig(
                enabled=True, w0=self.w0, contention_manager=self.cm
            ),
        )


@dataclass(frozen=True)
class FigureSpec:
    """One declarative paper artifact: suite reference + extractor."""

    name: str
    title: str
    #: registered extractor name (see :mod:`repro.figures.extract`)
    extractor: str
    #: ``"figure"`` or ``"table"`` (presentation only)
    kind: str = "figure"
    #: suite value, ``FigureParams -> suite`` factory, or None (analytic)
    suite: SuiteSource = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FigureError("figure name must be non-empty")
        if self.kind not in ("figure", "table"):
            raise FigureError(
                f"figure {self.name!r}: kind must be 'figure' or 'table', "
                f"got {self.kind!r}"
            )

    def resolve_suite(self, params: FigureParams) -> ScenarioSuite | None:
        """The concrete scenario suite this figure needs (or ``None``)."""
        if self.suite is None:
            return None
        if callable(self.suite):
            return self.suite(params)
        return self.suite

    def label(self) -> str:
        return f"{self.name} ({self.kind}): {self.title}"


def figure_digest(
    spec: FigureSpec,
    suite: ScenarioSuite | None,
    params: FigureParams,
    power: PowerModel,
) -> str:
    """Stable SHA-256 identity of one figure artifact.

    Covers the resolved suite (hence every scenario digest feeding the
    figure), the extractor name and version, the grid parameters and
    the power model — everything that determines the bytes of the
    figure's ``data`` section.
    """
    from .extract import extractor_version

    payload = {
        "schema": FIGURE_SCHEMA_VERSION,
        "figure": spec.name,
        "kind": spec.kind,
        "extractor": [spec.extractor, extractor_version(spec.extractor)],
        "suite": suite.to_dict() if suite is not None else None,
        "params": params.fingerprint(),
        "power": dataclasses.asdict(power),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
