"""Declarative scenarios: specs, suites, and spec-driven execution.

The scenario layer turns evaluation matrices into *data*:

* :class:`~repro.scenarios.spec.ScenarioSpec` — one run, fully
  described (workload + schema-validated parameters + machine shape +
  contention management), with a stable content digest and exact JSON
  round-trip.
* :class:`~repro.scenarios.suite.ScenarioSuite` — a base spec plus
  axes; expansion takes the cartesian product and validates every
  point before anything is simulated.
* :mod:`~repro.scenarios.runner` — lowers specs to
  :class:`~repro.exec.jobs.RunJob` values in one step
  (:func:`~repro.scenarios.runner.lower_suite`) and submits the whole
  grid as one batch through the executor and its content-addressed
  cache.
* :mod:`~repro.scenarios.builtin` — the paper's figure grids (and
  extensions over the new kernels) as named suites:
  ``repro suite run --suite paper-fig7``.
"""

from __future__ import annotations

from .builtin import available_suites, get_suite, suite_help
from .runner import (
    LoweredJob,
    LoweredSuite,
    PlanEntry,
    ScenarioResult,
    SuitePlan,
    SuiteRun,
    lower_specs,
    lower_suite,
    plan_suite,
    run_specs,
    run_suite,
)
from .spec import SCENARIO_SCHEMA_VERSION, ScenarioSpec, scenario
from .suite import ScenarioSuite, load_suite_file, suite

__all__ = [
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioSpec",
    "scenario",
    "ScenarioSuite",
    "suite",
    "load_suite_file",
    "ScenarioResult",
    "SuiteRun",
    "LoweredJob",
    "LoweredSuite",
    "PlanEntry",
    "SuitePlan",
    "lower_specs",
    "lower_suite",
    "plan_suite",
    "run_specs",
    "run_suite",
    "available_suites",
    "get_suite",
    "suite_help",
]
