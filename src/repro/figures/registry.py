"""The paper's artifact set, registered as declarative figure specs.

Every figure and table of the paper is one :class:`FigureSpec` here:

========  =======  ======================  ==========================
name      kind     suite                   extractor
========  =======  ======================  ==========================
fig3      figure   — (analytic)            fig3-cache-power
fig4      figure   evaluation grid         fig4-execution-time
fig5      figure   evaluation grid         fig5-energy
fig6      figure   evaluation grid         fig6-average-power
fig7      figure   W0 sensitivity grid     fig7-w0-sensitivity
table1    table    — (analytic)            table1-power-model
table2    table    — (analytic)            table2-system-config
headline  table    evaluation grid         headline-averages
========  =======  ======================  ==========================

This module is the one definition of the paper's two grids:
:func:`eval_grid_suite` (Figs. 4–6 and the headline) and
:func:`w0_grid_suite` (Fig. 7).  The built-in ``paper-eval`` and
``paper-fig7`` scenario suites return them too.  Figs. 4–6 and the
headline averages share ONE suite (the paper derives them from the
same simulations), and the Fig. 7 grid shares its ungated baselines
and W0 = 8 gated runs with it by job-digest dedup — so a full
``repro figures build`` plans all suites together and simulates each
unique job exactly once.

``register_figure`` accepts user-defined specs (see
``examples/figures_pipeline.py``); registration order is presentation
order.
"""

from __future__ import annotations

from ..errors import FigureError
from ..scenarios.spec import ScenarioSpec
from ..scenarios.suite import ScenarioSuite, suite
from .spec import FigureParams, FigureSpec

__all__ = [
    "available_figures",
    "get_figure",
    "register_figure",
    "figure_help",
    "eval_grid_suite",
    "w0_grid_suite",
]


def _grid_base(params: FigureParams) -> ScenarioSpec:
    return ScenarioSpec(
        workload=params.apps[0],
        scale=params.scale,
        threads=params.procs[0],
        seed=params.seed,
        w0=params.w0,
        cm=params.cm,
    )


def eval_grid_suite(params: FigureParams) -> ScenarioSuite:
    """The Figs. 4–6 grid: every (app × procs) point, both gating modes.

    Also the built-in ``paper-eval`` suite, so ``repro suite run`` and
    ``repro figures build`` fill one result store with the same jobs.
    """
    return suite(
        "paper-eval",
        _grid_base(params),
        axes={
            "workload": params.apps,
            "threads": params.procs,
            "gating": (False, True),
        },
        description=(
            "Figs. 4-6 evaluation grid: every (application x processor "
            "count) point with and without clock gating"
        ),
    )


def w0_grid_suite(params: FigureParams) -> ScenarioSuite:
    """The Fig. 7 grid: the evaluation matrix crossed with the W0 sweep.

    Ungated scenarios collapse onto one baseline per (app, procs) by
    job-digest normalization, and the W0 = 8 gated runs are shared with
    the evaluation grid when ``params.w0`` is in ``params.w0_values``.
    """
    return suite(
        "paper-fig7",
        _grid_base(params),
        axes={
            "workload": params.apps,
            "threads": params.procs,
            "gating": (False, True),
            "w0": params.w0_values,
        },
        description=(
            "Fig. 7 sensitivity grid: speed-up vs W0 and Np (ungated "
            "baselines shared across the W0 axis by job-digest dedup)"
        ),
    )


_REGISTRY: dict[str, FigureSpec] = {}


def register_figure(spec: FigureSpec, overwrite: bool = False) -> FigureSpec:
    """Add a figure to the registry (presentation order = registration
    order).  Re-registering an existing name requires ``overwrite``."""
    if spec.name in _REGISTRY and not overwrite:
        raise FigureError(
            f"figure {spec.name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def available_figures() -> list[str]:
    """Registered figure names, in registration (presentation) order."""
    return list(_REGISTRY)


def get_figure(name: str) -> FigureSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise FigureError(
            f"unknown figure {name!r}; available: "
            f"{', '.join(available_figures())}"
        ) from None


def figure_help() -> list[tuple[str, str, str, str]]:
    """(name, kind, suite, title) rows for every registered figure."""
    rows = []
    for name in available_figures():
        spec = _REGISTRY[name]
        resolved = spec.resolve_suite(FigureParams())
        rows.append(
            (name, spec.kind,
             resolved.name if resolved is not None else "-", spec.title)
        )
    return rows


# ----------------------------------------------------------------------
# the paper's artifacts
# ----------------------------------------------------------------------
register_figure(FigureSpec(
    name="fig3",
    title="Normalized TCC data-cache power vs RW-bit resolution",
    extractor="fig3-cache-power",
    suite=None,
    description="analytic CACTI-derived curves; no simulation",
))
register_figure(FigureSpec(
    name="fig4",
    title="Total parallel execution time, with/without clock gating",
    extractor="fig4-execution-time",
    suite=eval_grid_suite,
))
register_figure(FigureSpec(
    name="fig5",
    title="Energy consumption with and without clock gating",
    extractor="fig5-energy",
    suite=eval_grid_suite,
))
register_figure(FigureSpec(
    name="fig6",
    title="Average power dissipation with and without clock gating",
    extractor="fig6-average-power",
    suite=eval_grid_suite,
))
register_figure(FigureSpec(
    name="fig7",
    title="Speed-up as a function of W0 and Np",
    extractor="fig7-w0-sensitivity",
    suite=w0_grid_suite,
))
register_figure(FigureSpec(
    name="table1",
    title="Power model of the Alpha 21264 (derived factors)",
    extractor="table1-power-model",
    kind="table",
    suite=None,
    description="derived from the Section VII power model; no simulation",
))
register_figure(FigureSpec(
    name="table2",
    title="Parameters used in the simulation",
    extractor="table2-system-config",
    kind="table",
    suite=None,
    description="the default simulated machine; no simulation",
))
register_figure(FigureSpec(
    name="headline",
    title="Section VIII headline averages over the evaluation grid",
    extractor="headline-averages",
    kind="table",
    suite=eval_grid_suite,
))
