"""One-shot textual run report.

Combines energy, conflict and gating analyses into the kind of summary
a simulator prints at the end of a run.  Requires the run to have been
traced with at least the ``tx`` and ``gate`` categories.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..power.states import ProcState
from ..sim.trace import NullTrace
from .conflicts import conflict_stats
from .gating import gating_summary
from .timelines import state_shares

if TYPE_CHECKING:
    from ..harness.runner import RunResult

__all__ = ["run_report"]


def run_report(result: RunResult, trace: NullTrace | None = None) -> str:
    """Render a multi-section report for one run."""
    lines: list[str] = []
    gating_enabled = result.config.gating.enabled
    lines.append(
        f"Run report — {result.workload}[{result.scale}] on "
        f"{result.config.num_procs} processors "
        f"({'gated, W0=' + str(result.config.gating.w0) if gating_enabled else 'ungated'})"
    )
    lines.append(
        f"  parallel section: {result.parallel_time} cycles "
        f"(total run {result.end_cycle})"
    )
    lines.append(
        f"  energy: {result.energy.total:.1f} cycle·Prun, "
        f"avg power {result.energy.average_power:.3f} Prun/proc"
    )
    lines.append(
        f"  transactions: {result.commits} commits, {result.aborts} aborts "
        f"(rate {result.abort_rate:.1%}), {result.wasted_cycles} wasted cycles"
    )

    window = (
        result.machine_result.parallel_start,
        result.machine_result.parallel_end,
    )
    shares = state_shares(result.machine_result.timelines, window)
    mean = {
        state: sum(s[state] for s in shares.values()) / len(shares)
        for state in ProcState
    }
    lines.append(
        "  state shares: "
        + "  ".join(f"{state.name} {mean[state]:.1%}" for state in ProcState)
    )

    if trace is not None and trace.enabled:
        conflicts = conflict_stats(trace)
        lines.append(
            f"  conflicts: {conflicts.conflict_aborts} conflict aborts, "
            f"{conflicts.self_aborts} self-aborts, "
            f"reciprocity {conflicts.reciprocity():.0%}"
        )
        if conflicts.hottest_site is not None:
            lines.append(
                f"  hottest site: {conflicts.hottest_site} "
                f"({conflicts.victims_by_site[conflicts.hottest_site]} aborts)"
            )
        if gating_enabled:
            summary = gating_summary(trace)
            lines.append(
                f"  gating: {summary.episodes} episodes, "
                f"mean window {summary.mean_duration:.1f} cycles "
                f"(max {summary.max_duration}), "
                f"{summary.renewal_fraction():.0%} renewed "
                f"(deepest chain {summary.max_renewals})"
            )
            if summary.turn_on_reasons:
                reasons = ", ".join(
                    f"{k}: {v}" for k, v in sorted(summary.turn_on_reasons.items())
                )
                lines.append(f"  wake-up reasons: {reasons}")
    return "\n".join(lines)
