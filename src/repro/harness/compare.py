"""Paired with/without-clock-gating comparison (Figs. 4–6 methodology).

The paper evaluates every (application, processor count) point twice on
identical hardware — once with the gating protocol, once without — and
reports speed-up (Fig. 4 annotations), the Eq. (6) energy-reduction
factor (Fig. 5) and the Eq. (7) average-power reduction (Fig. 6).
:func:`compare_gating` reproduces exactly that: one workload spec, two
runs differing only in the gating switch.

Both runs are submitted as :class:`~repro.exec.jobs.RunJob` values
through an :class:`~repro.exec.executor.Executor`, so a comparison can
fan across worker processes and hit the content-addressed result cache;
each job builds its workload instance from the same (name, scale, seed)
spec, so the two executions still see byte-identical initial memory and
identical program streams — only the gating switch differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SystemConfig
from ..exec.executor import Executor
from ..exec.jobs import ExecResult, RunJob
from ..power.energy import average_power_reduction, energy_reduction
from ..power.model import PowerModel
from ..workloads.registry import WorkloadSpec

__all__ = ["GatingComparison", "compare_gating"]


@dataclass
class GatingComparison:
    """Both runs of one evaluation point, with the paper's three metrics."""

    workload: str
    num_procs: int
    ungated: ExecResult
    gated: ExecResult

    @property
    def n1(self) -> int:
        """Ungated parallel time (the paper's N1)."""
        return self.ungated.parallel_time

    @property
    def n2(self) -> int:
        """Gated parallel time (the paper's N2)."""
        return self.gated.parallel_time

    @property
    def speedup(self) -> float:
        """Fig. 4 annotation: N1/N2 (> 1 means gating is faster)."""
        return self.n1 / self.n2

    @property
    def energy_reduction(self) -> float:
        """Eq. (6) / Fig. 5 annotation: Eug/Eg."""
        return energy_reduction(self.ungated.energy, self.gated.energy)

    @property
    def power_reduction(self) -> float:
        """Eq. (7) / Fig. 6: (Eug/Eg)·(N2/N1)."""
        return average_power_reduction(self.ungated.energy, self.gated.energy)

    def summary(self) -> str:
        return (
            f"{self.workload} x{self.num_procs}: speed-up {self.speedup:.3f}, "
            f"energy reduction {self.energy_reduction:.3f}, "
            f"power reduction {self.power_reduction:.3f} "
            f"(aborts {self.ungated.aborts} -> {self.gated.aborts})"
        )


def compare_gating(
    source: WorkloadSpec | str,
    config: SystemConfig,
    executor: Executor | None = None,
) -> GatingComparison:
    """Run ``source`` with and without clock gating on identical hardware.

    With ``executor`` supplied, the pair runs through the shared
    :mod:`repro.exec` pipeline (parallel workers, in-batch dedup,
    on-disk result cache); by default an inline serial executor is used
    and the behaviour matches the historical API.
    """
    if isinstance(source, str):
        source = WorkloadSpec(source)
    exe = executor if executor is not None else Executor()
    model = PowerModel.derive()

    ungated, gated = exe.run(
        [
            RunJob(source, config.with_gating(False), model),
            RunJob(source, config.with_gating(True), model),
        ]
    )
    return GatingComparison(
        workload=ungated.workload,
        num_procs=config.num_procs,
        ungated=ungated,
        gated=gated,
    )
