"""Human-readable energy reports.

Formats a gated/ungated pair — each run's
:class:`~repro.power.energy.EnergyBreakdown` plus the speed-up and the
Eq. (6)/(7) reduction factors of its
:class:`~repro.harness.compare.GatingComparison` — as fixed-width text
tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .energy import EnergyBreakdown
from .states import ProcState

if TYPE_CHECKING:
    from ..harness.compare import GatingComparison

__all__ = ["format_energy_report"]

_STATE_ORDER = [ProcState.RUN, ProcState.MISS, ProcState.COMMIT, ProcState.GATED]


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


def format_energy_report(comparison: GatingComparison) -> str:
    """Render a gated/ungated pair as fixed-width text."""
    # an empty gated window reads as an infinite speed-up
    speedup = comparison.speedup if comparison.n2 else float("inf")
    lines = [
        f"Energy report — {comparison.workload} × {comparison.num_procs} procs"
    ]
    lines += _breakdown_lines("without clock gating", comparison.ungated.energy)
    lines += _breakdown_lines("with clock gating   ", comparison.gated.energy)
    lines.append(
        f"  speed-up (N1/N2)          = {speedup:.4f}x"
    )
    lines.append(
        f"  energy reduction (Eq. 6)  = {comparison.energy_reduction:.4f}x"
    )
    lines.append(
        f"  avg-power reduction (Eq.7)= {comparison.power_reduction:.4f}x"
    )
    return "\n".join(lines)
