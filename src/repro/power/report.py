"""Human-readable energy reports.

Formats one run's :class:`~repro.power.energy.EnergyBreakdown`, or a
gated/ungated pair with the Eq. (6)/(7) reduction factors, as fixed-
width text tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import (
    EnergyBreakdown,
    average_power_reduction,
    energy_reduction,
)
from .states import ProcState

__all__ = ["EnergyReport", "format_energy_report"]

_STATE_ORDER = [ProcState.RUN, ProcState.MISS, ProcState.COMMIT, ProcState.GATED]


@dataclass(frozen=True)
class EnergyReport:
    """Paired gated/ungated accounting for one workload configuration."""

    label: str
    ungated: EnergyBreakdown
    gated: EnergyBreakdown

    @property
    def speedup(self) -> float:
        """N1 / N2 (> 1: clock gating made the run faster)."""
        n2 = self.gated.parallel_time
        return self.ungated.parallel_time / n2 if n2 else float("inf")

    @property
    def energy_reduction(self) -> float:
        """Eq. (6)."""
        return energy_reduction(self.ungated, self.gated)

    @property
    def power_reduction(self) -> float:
        """Eq. (7)."""
        return average_power_reduction(self.ungated, self.gated)


def _breakdown_lines(tag: str, b: EnergyBreakdown) -> list[str]:
    lines = [
        f"  {tag}: N = {b.parallel_time} cycles, E = {b.total:.1f} cycle·Prun, "
        f"avg power = {b.average_power:.3f} Prun/proc"
    ]
    total_cycles = b.parallel_time * b.num_procs
    for state in _STATE_ORDER:
        cycles, energy = b.by_state.get(state, (0, 0.0))
        if cycles == 0 and state is ProcState.GATED and not b.gated_run:
            continue
        share = cycles / total_cycles if total_cycles else 0.0
        lines.append(
            f"    {state.name:<7} {cycles:>12} cycles ({share:6.1%})  "
            f"E = {energy:12.1f}"
        )
    return lines


def format_energy_report(report: EnergyReport) -> str:
    """Render a paired report as fixed-width text."""
    lines = [f"Energy report — {report.label}"]
    lines += _breakdown_lines("without clock gating", report.ungated)
    lines += _breakdown_lines("with clock gating   ", report.gated)
    lines.append(
        f"  speed-up (N1/N2)          = {report.speedup:.4f}x"
    )
    lines.append(
        f"  energy reduction (Eq. 6)  = {report.energy_reduction:.4f}x"
    )
    lines.append(
        f"  avg-power reduction (Eq.7)= {report.power_reduction:.4f}x"
    )
    return "\n".join(lines)
