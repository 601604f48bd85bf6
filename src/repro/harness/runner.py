"""Single-run execution: workload × configuration → :class:`RunResult`.

A run builds (or accepts) a workload instance, wires a machine,
executes to completion, verifies the timeline tiling invariant, runs
the workload's functional validators against final memory, optionally
checks TID-order serializability, and computes the energy breakdown
with the paper's accounting (cross-checked interval vs direct).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..config import SystemConfig
from ..errors import HarnessError
from ..htm.machine import Machine, MachineResult
from ..metrics import TxMetricsMixin
from ..power.energy import EnergyBreakdown, compute_energy
from ..power.model import PowerModel
from ..sim.timeline import verify_tiling
from ..sim.trace import NullTrace
from ..workloads.base import WorkloadInstance
from ..workloads.registry import (  # WorkloadSpec and workload re-exported
    WorkloadSpec,
    workload,
    workload_seed_invariant,
)
from .validation import check_serializability

__all__ = [
    "WorkloadSpec", "workload", "RunResult", "RunReuse", "run_workload",
]


@dataclass
class RunResult(TxMetricsMixin):
    """Everything measured in one run.

    Counter-derived metrics (``commits``, ``aborts``, ``abort_rate``,
    ``wasted_cycles``) come from
    :class:`~repro.metrics.TxMetricsMixin`, shared with the condensed
    :class:`~repro.exec.jobs.ExecResult` so both views always agree.
    """

    workload: str
    scale: str
    config: SystemConfig
    machine_result: MachineResult
    energy: EnergyBreakdown
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def parallel_time(self) -> int:
        """The paper's N (N1 ungated, N2 gated)."""
        return self.machine_result.parallel_time

    @property
    def end_cycle(self) -> int:
        return self.machine_result.end_cycle


class RunReuse:
    """Warm state shared across the runs of one replicate pack.

    Holds (a) one wired :class:`~repro.htm.machine.Machine`, rebuilt in
    place between runs by :meth:`~repro.htm.machine.Machine.reset` —
    keyed by the seed-zeroed config and the validation switch, so only
    true seed replicates ever share it — and (b) a prep cache of built
    :class:`WorkloadInstance` values for workloads whose builds are
    seed-invariant (see
    :func:`repro.workloads.registry.register_workload`).

    PACK-SHARING CONTRACT: everything cached here must be independent
    of the seed slots and immutable after preparation (cache keys
    include every seed-relevant input; cached instances are never
    mutated).  Tier-1 holds the prep cache to it: caching a
    seed-dependent build fails ``tests/test_machine_reset.py``'s
    ``test_reset_matches_rebuild`` and
    ``test_seed_dependent_workload_never_prep_cached``, and changing a
    cached instance fails ``tests/test_exec.py``'s
    ``test_pack_results_match_per_process_bit_for_bit``.

    Reuse counters (``machine_resets``, ``prep_hits``) become the
    pack's :class:`~repro.exec.jobs.PackStats`, which ``paperbench``'s
    traced replay reports.
    """

    def __init__(self) -> None:
        self._machine: Machine | None = None
        self._machine_key: tuple[SystemConfig, bool] | None = None
        # (name, scale, overrides, num_threads) -> seed-invariant build
        self._prep: dict[
            tuple[str, str, tuple[tuple[str, Any], ...], int], WorkloadInstance
        ] = {}
        self.machine_resets = 0
        self.prep_hits = 0

    def discard_machine(self) -> None:
        """Close and drop the cached machine (a failed run leaves it
        mid-state; a new topology or a finished pack has no use for
        it)."""
        if self._machine is not None:
            self._machine.close()
        self._machine = None
        self._machine_key = None


def _resolve_instance(
    source: WorkloadInstance | WorkloadSpec | str,
    config: SystemConfig,
    reuse: RunReuse | None = None,
) -> WorkloadInstance:
    if isinstance(source, WorkloadInstance):
        if source.num_threads != config.num_procs:
            raise HarnessError(
                f"workload built for {source.num_threads} threads cannot run "
                f"on {config.num_procs} processors"
            )
        return source
    if isinstance(source, str):
        source = WorkloadSpec(source)
    if isinstance(source, WorkloadSpec):
        if reuse is not None and workload_seed_invariant(source.name):
            # Seed-invariant build: share one construction across the
            # pack.  The key carries every non-seed build input; an
            # instance holds no seed and is never mutated (instances are
            # documented reusable — programs are pure generator
            # factories and the image is copied out).
            key = (source.name, source.scale, source.overrides,
                   config.num_procs)
            instance = reuse._prep.get(key)
            if instance is None:
                reuse._prep[key] = instance = source.build(config.num_procs)
            else:
                reuse.prep_hits += 1
            return instance
        return source.build(config.num_procs)
    raise HarnessError(f"cannot interpret workload source {source!r}")


def run_workload(
    source: WorkloadInstance | WorkloadSpec | str,
    config: SystemConfig,
    power_model: PowerModel | None = None,
    trace: NullTrace | None = None,
    check_serial: bool = False,
    reuse: RunReuse | None = None,
) -> RunResult:
    """Execute one workload under one configuration.

    Every run verifies the timeline tiling invariant and runs the
    workload's functional validators on final memory.

    Parameters
    ----------
    check_serial:
        Record per-transaction read/write logs and verify TID-order
        serializability (Invariant 1; costs memory — used by tests).
    reuse:
        Optional :class:`RunReuse` carrying pack-shared warm state.
        When the cached machine's topology matches (config equal up to
        ``seed``, same validation mode), it is rebuilt in place by
        :meth:`repro.htm.machine.Machine.reset`.  Ignored when a trace
        is requested (a machine binds its trace at construction).
    """
    instance = _resolve_instance(source, config, reuse)
    machine: Machine | None = None
    if reuse is not None and trace is None:
        machine_key = (replace(config, seed=0), check_serial)
        cached = reuse._machine
        if cached is not None and reuse._machine_key == machine_key:
            cached.reset(
                config,
                instance.programs,
                initial_memory=instance.initial_memory,
                validation_mode=check_serial,
                warm=instance.warm,
            )
            reuse.machine_resets += 1
            machine = cached
    if machine is None:
        machine = Machine(
            config,
            instance.programs,
            initial_memory=instance.initial_memory,
            trace=trace,
            validation_mode=check_serial,
            warm=instance.warm,
        )
        if reuse is not None and trace is None:
            reuse.discard_machine()
            reuse._machine, reuse._machine_key = machine, machine_key
    try:
        mresult = machine.run()
        window = (mresult.parallel_start, mresult.parallel_end)
        verify_tiling(mresult.timelines, *window)
        instance.validate_final_memory(mresult.memory_snapshot)
        if check_serial:
            check_serializability(
                instance.initial_memory, mresult, machine.memory.version_log
            )
    finally:
        # A machine the pack keeps is closed when the pack replaces or
        # discards it.
        if reuse is None or reuse._machine is not machine:
            machine.close()

    model = power_model if power_model is not None else PowerModel.derive()
    energy = compute_energy(
        mresult.timelines, window, model, gated_run=config.gating.enabled
    )

    return RunResult(
        workload=instance.name,
        scale=instance.scale,
        config=config,
        machine_result=mresult,
        energy=energy,
        counters=mresult.counters(),
    )
