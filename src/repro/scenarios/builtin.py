"""Built-in named suites: the paper's figure grids and extensions, as data.

Each entry is a factory ``(scale, seed) -> ScenarioSuite`` so the same
grid can run at unit-test (``tiny``), benchmark (``small``) or
paper-approximation (``medium``) size.  ``paper-eval`` and
``paper-fig7`` return the figure registry's grids
(:mod:`repro.figures.registry`) at the default figure parameters.
``repro suite list/describe/run`` is the CLI surface; :func:`get_suite`
is the programmatic one.
"""

from __future__ import annotations

from typing import Callable

from ..errors import WorkloadError
from ..workloads.registry import STAMP_APPS
from .spec import ScenarioSpec
from .suite import ScenarioSuite, suite

__all__ = ["available_suites", "get_suite", "suite_help"]


def _base(workload: str, scale: str, seed: int, **kw: object) -> ScenarioSpec:
    return ScenarioSpec(workload=workload, scale=scale, seed=seed, **kw)


def _paper_fig7(scale: str, seed: int) -> ScenarioSuite:
    # lazy: a module-level import cycles through repro.figures.builder
    from ..figures.registry import w0_grid_suite
    from ..figures.spec import FigureParams

    return w0_grid_suite(FigureParams(scale=scale, seed=seed))


def _paper_eval(scale: str, seed: int) -> ScenarioSuite:
    from ..figures.registry import eval_grid_suite
    from ..figures.spec import FigureParams

    return eval_grid_suite(FigureParams(scale=scale, seed=seed))


def _stamp_extended(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "stamp-extended",
        _base("genome", scale, seed, threads=8),
        axes={
            "workload": STAMP_APPS,
            "gating": (False, True),
        },
        description=(
            "all six STAMP-style kernels (the paper's three plus "
            "kmeans/vacation/labyrinth) gated vs ungated at 8 cores — "
            "the contention-profile spread from read-mostly to "
            "long-transaction worst case"
        ),
    )


def _cm_shootout(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "cm-shootout",
        _base("intruder", scale, seed),
        axes={
            "workload": ("intruder", "labyrinth"),
            "cm": ("gating-aware", "immediate", "linear", "exponential",
                   "polite", "momentum"),
            "gating": (False, True),
        },
        description=(
            "contention-manager comparison on the two highest-abort "
            "kernels, gated vs ungated"
        ),
    )


def _micro_contention(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "micro-contention",
        _base("counter", scale, seed),
        axes={
            "workload": ("counter", "bank", "array_walk", "llist"),
            "threads": (4, 8),
            "gating": (False, True),
        },
        description=(
            "microbenchmark contention ladder from zero-conflict "
            "(array_walk) to maximum (counter)"
        ),
    )


def _smoke(scale: str, seed: int) -> ScenarioSuite:
    return suite(
        "smoke",
        _base("counter", scale, seed, threads=2),
        axes={
            "gating": (False, True),
            "w0": (2, 8),
        },
        description=(
            "4 scenarios / 3 unique jobs in seconds — the CI end-to-end "
            "check that suite expansion, dedup and the result cache work"
        ),
    )


_FACTORIES: dict[str, tuple[Callable[[str, int], ScenarioSuite], str]] = {
    "paper-fig7": (_paper_fig7, "small"),
    "paper-eval": (_paper_eval, "small"),
    "stamp-extended": (_stamp_extended, "small"),
    "cm-shootout": (_cm_shootout, "small"),
    "micro-contention": (_micro_contention, "small"),
    "smoke": (_smoke, "tiny"),
}


def available_suites() -> list[str]:
    return sorted(_FACTORIES)


def get_suite(
    name: str, scale: str | None = None, seed: int = 0
) -> ScenarioSuite:
    """Instantiate a named suite (``scale=None`` uses its default)."""
    try:
        factory, default_scale = _FACTORIES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown suite {name!r}; available: "
            f"{', '.join(available_suites())}"
        ) from None
    return factory(scale if scale is not None else default_scale, seed)


def suite_help() -> list[tuple[str, int, str]]:
    """(name, size, description) rows for every registered suite."""
    rows = []
    for name in available_suites():
        instantiated = get_suite(name)
        rows.append((name, instantiated.size, instantiated.description))
    return rows
