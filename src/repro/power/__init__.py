"""Power and energy modelling (systems S7+S8 in DESIGN.md).

* :mod:`~repro.power.states` — the four processor power states.
* :mod:`~repro.power.model`  — Alpha 21264 @ 65 nm power factors
  (Table I), *derived* from the paper's Section VII decomposition.
* :mod:`~repro.power.cacti`  — mini-CACTI model of the TCC data cache
  power overhead (Fig. 3).
* :mod:`~repro.power.energy` — the interval energy accounting of
  Eqs. (1)–(7) plus a direct integration cross-check.
* :mod:`~repro.power.report` — human-readable energy reports.
"""

from .._lazy import lazy_exports

__all__ = [
    "ProcState",
    "LOW_POWER_STATES_GATED",
    "LOW_POWER_STATES_UNGATED",
    "PowerModel",
    "PowerModelParams",
    "EnergyBreakdown",
    "IntervalBreakdown",
    "direct_energy",
    "interval_breakdown",
    "energy_from_intervals",
    "energy_reduction",
    "average_power_reduction",
    "compute_energy",
    "CactiCacheModel",
    "tcc_cache_power_curve",
    "tcc_total_power_factor",
    "format_energy_report",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".states": ("ProcState", "LOW_POWER_STATES_GATED",
                "LOW_POWER_STATES_UNGATED"),
    ".model": ("PowerModel", "PowerModelParams"),
    ".energy": ("EnergyBreakdown", "IntervalBreakdown", "direct_energy",
                "interval_breakdown", "energy_from_intervals",
                "energy_reduction", "average_power_reduction",
                "compute_energy"),
    ".cacti": ("CactiCacheModel", "tcc_cache_power_curve",
               "tcc_total_power_factor"),
    ".report": ("format_energy_report",),
})
