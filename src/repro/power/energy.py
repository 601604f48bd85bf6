"""Energy accounting: the paper's Eqs. (1)–(7), plus a cross-check.

Two independent formulations are implemented:

**Direct integration** (:func:`direct_energy`) — sum over processors
and timeline segments of ``duration × P(state)``.  This is the
"equivalent way to compute the total energy consumption ... to track
and sum up the individual contribution of each processor in each
state" that the paper mentions at the end of Section IV.

**Interval formulation** (:func:`interval_breakdown` +
:func:`energy_from_intervals`) — the paper's Eqs. (1)–(5) literally:
sweep the global timeline for the intervals :math:`\\Delta_{ik}` during
which exactly *i* processors sit in low-power states, build

.. math::

    X_i = \\sum_k \\Delta_{ik}, \\qquad
    \\alpha_i = \\frac{\\sum_k n^i_{mk} \\Delta_{ik}}{i X_i}, \\qquad
    \\beta_i = \\frac{\\sum_k n^i_{ck} \\Delta_{ik}}{i X_i}

and evaluate Eq. (1) (gated runs; low-power = {gated, miss, commit})
or Eq. (5) (ungated runs; low-power = {miss, commit}, with
:math:`\\delta_i = \\alpha_i` and the commit share as the complement).

The two must agree to floating-point tolerance — property-tested over
random timelines, and asserted by :func:`compute_energy` on every run.

Eq. (6): ``EnergyReduction = Eug / Eg`` — a factor **> 1** means the
gated run saved energy.  Eq. (7): ``AveragePowerReduction =
(Eug / Eg) × (N2 / N1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..errors import SimulationError
from .model import PowerModel
from .states import (
    LOW_POWER_STATES_GATED,
    LOW_POWER_STATES_UNGATED,
    ProcState,
)

# NumPy loads inside the functions that build arrays: decoding a stored
# result (EnergyBreakdown, Eqs. 6-7) must not pay for it.
if TYPE_CHECKING:
    import numpy as np

    from ..sim.timeline import StateTimeline

__all__ = [
    "EnergyBreakdown",
    "IntervalBreakdown",
    "direct_energy",
    "interval_breakdown",
    "energy_from_intervals",
    "compute_energy",
    "energy_reduction",
    "average_power_reduction",
]

#: every power state; timeline segments are coded by index into this
_STATES = tuple(ProcState)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one run over its parallel window.

    ``total`` is in cycle·P_run units.  ``by_state`` maps each state to
    (cycles, energy).  ``interval_total`` is the Eq. (1)/(5) evaluation;
    it must equal ``total``.
    """

    window: tuple[int, int]
    num_procs: int
    gated_run: bool
    total: float
    by_state: dict[ProcState, tuple[int, float]]
    interval_total: float

    @property
    def parallel_time(self) -> int:
        return self.window[1] - self.window[0]

    @property
    def average_power(self) -> float:
        """Mean power per processor in units of P_run."""
        denom = self.parallel_time * self.num_procs
        return self.total / denom if denom else 0.0


@dataclass(frozen=True)
class IntervalBreakdown:
    """The Eq. (2)–(4) quantities.

    Index ``i`` runs from 1 to ``num_procs``; index 0 is unused (the
    paper's sums start at ``i = 1``).
    """

    num_procs: int
    window: tuple[int, int]
    low_states: frozenset[ProcState]
    #: X_i — total time with exactly i processors in low-power states
    x: np.ndarray
    #: Σ_k n^i_mk Δ_ik — miss-weighted interval time
    miss_weight: np.ndarray
    #: Σ_k n^i_ck Δ_ik — commit-weighted interval time
    commit_weight: np.ndarray
    #: Σ_k n^i_gk Δ_ik — gated-weighted interval time
    gate_weight: np.ndarray

    def alpha(self, i: int) -> float:
        """:math:`\\alpha_i` (or :math:`\\delta_i` for ungated runs)."""
        if self.x[i] == 0:
            return 0.0
        return float(self.miss_weight[i] / (i * self.x[i]))

    def beta(self, i: int) -> float:
        if self.x[i] == 0:
            return 0.0
        return float(self.commit_weight[i] / (i * self.x[i]))


def direct_energy(
    timelines: Sequence[StateTimeline],
    window: tuple[int, int],
    model: PowerModel,
) -> tuple[float, dict[ProcState, tuple[int, float]]]:
    """Integrate ``P(state)`` over every processor's clipped timeline.

    Consumes the run's flat segment arrays
    (:func:`~repro.sim.timeline.segment_arrays`) instead of per-segment
    objects: clipped durations come from one vectorised
    ``clip(ends) - clip(starts)``.  The accumulation order (timelines
    in order, segments in time order, zero-length clips skipped) is the
    same as the historical segment-object loop, so totals are
    bit-identical.
    """
    return _direct(_segments(timelines, window), window, model)


def _segments(
    timelines: Sequence[StateTimeline], window: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The timelines' flat segment arrays, coded by :data:`_STATES`."""
    lo, hi = window
    if hi < lo:
        raise SimulationError(f"invalid clip window [{lo}, {hi})")
    from ..sim.timeline import segment_arrays

    return segment_arrays(timelines, _STATES)


def _direct(
    segments: tuple[np.ndarray, np.ndarray, np.ndarray],
    window: tuple[int, int],
    model: PowerModel,
) -> tuple[float, dict[ProcState, tuple[int, float]]]:
    import numpy as np

    lo, hi = window
    starts, ends, codes = segments
    by_state: dict[ProcState, tuple[int, float]] = {}
    durations = np.clip(ends, lo, hi) - np.clip(starts, lo, hi)
    nz = np.nonzero(durations)[0]
    if nz.size == 0:
        return 0.0, by_state
    durations = durations[nz]
    codes = codes[nz]
    powers = np.asarray(
        [model.power_of(s) for s in _STATES], dtype=np.float64
    )
    energies = durations * powers[codes]

    # Bit-identity with the historical per-segment Python loop: cumsum
    # accumulates strictly left to right, and add.at folds repeated
    # indices in element order, so the global total and each state's
    # accumulator perform exactly the float additions — in exactly the
    # order — the sequential walk performed (float addition is not
    # associative; a per-timeline partial-sum merge would NOT match).
    total = float(np.cumsum(energies)[-1])
    acc = np.zeros(len(_STATES), dtype=np.float64)
    np.add.at(acc, codes, energies)
    cycles = np.zeros(len(_STATES), dtype=np.int64)
    np.add.at(cycles, codes, durations)

    # Dict keys in historical order: first nonzero occurrence globally.
    uniq, first = np.unique(codes, return_index=True)
    for code in uniq[np.argsort(first)].tolist():
        by_state[_STATES[code]] = (int(cycles[code]), float(acc[code]))
    return total, by_state


def interval_breakdown(
    timelines: Sequence[StateTimeline],
    window: tuple[int, int],
    low_states: frozenset[ProcState],
) -> IntervalBreakdown:
    """Sweep state-change events to build :math:`X_i, \\alpha_i, \\beta_i`.

    Fully vectorised over the run's flat segment arrays: every
    change-point inside the window contributes *count deltas* (did the
    processor enter/leave a low-power kind), a stable merge sort plus
    cumulative sums reconstruct the low-power population between every
    pair of boundaries, and ``np.add.at`` scatters the interval lengths
    into :math:`X_i` and the weighted sums.  All quantities are int64
    throughout, so the result is exactly the one the historical
    per-event Python sweep produced.
    """
    return _intervals(
        timelines, _segments(timelines, window), window, low_states
    )


def _intervals(
    timelines: Sequence[StateTimeline],
    segments: tuple[np.ndarray, np.ndarray, np.ndarray],
    window: tuple[int, int],
    low_states: frozenset[ProcState],
) -> IntervalBreakdown:
    import numpy as np

    lo, hi = window
    p = len(timelines)
    x = np.zeros(p + 1, dtype=np.int64)
    miss_w = np.zeros(p + 1, dtype=np.int64)
    commit_w = np.zeros(p + 1, dtype=np.int64)
    gate_w = np.zeros(p + 1, dtype=np.int64)

    def classify(state: ProcState) -> int:
        # 0 = not low-power, 1 = miss, 2 = commit, 3 = gated
        if state not in low_states:
            return 0
        if state is ProcState.MISS:
            return 1
        if state is ProcState.COMMIT:
            return 2
        return 3

    # Initial per-kind populations at `lo`.
    n0 = [0, 0, 0, 0]  # [low, miss, commit, gate]
    for timeline in timelines:
        state0 = timeline.state_at(lo) if hi > lo else ProcState.RUN
        k0 = classify(state0)
        if k0:
            n0[0] += 1
            n0[k0] += 1

    if hi > lo:
        # Deltas at every change-point strictly inside (lo, hi).  A
        # selected change-point is never its timeline's first (that one
        # is the timeline start, which cannot exceed `lo`: state_at(lo)
        # above would have raised), so the entry before it carries the
        # kind the processor held just before the change.
        starts, _ends, codes = segments
        kinds = np.asarray([classify(s) for s in _STATES], dtype=np.int64)[codes]
        idx = np.nonzero((starts > lo) & (starts < hi))[0]
        if idx.size:
            new_k = kinds[idx]
            old_k = kinds[idx - 1]
            all_t = starts[idx]
            order = np.argsort(all_t, kind="stable")
            t_sorted = all_t[order]
            d_sorted = np.stack([
                (new_k != 0).astype(np.int64) - (old_k != 0),
                (new_k == 1).astype(np.int64) - (old_k == 1),
                (new_k == 2).astype(np.int64) - (old_k == 2),
                (new_k == 3).astype(np.int64) - (old_k == 3),
            ])[:, order]
            counts = n0[0] + np.cumsum(d_sorted[0])
            n_low = np.concatenate(([n0[0]], counts))
            n_miss = np.concatenate(([n0[1]], n0[1] + np.cumsum(d_sorted[1])))
            n_commit = np.concatenate(([n0[2]], n0[2] + np.cumsum(d_sorted[2])))
            n_gate = np.concatenate(([n0[3]], n0[3] + np.cumsum(d_sorted[3])))
            bounds = np.concatenate(
                (np.asarray([lo], dtype=np.int64), t_sorted,
                 np.asarray([hi], dtype=np.int64))
            )
        else:
            n_low = np.asarray([n0[0]], dtype=np.int64)
            n_miss = np.asarray([n0[1]], dtype=np.int64)
            n_commit = np.asarray([n0[2]], dtype=np.int64)
            n_gate = np.asarray([n0[3]], dtype=np.int64)
            bounds = np.asarray([lo, hi], dtype=np.int64)
        deltas = np.diff(bounds)
        mask = (deltas > 0) & (n_low > 0)
        population = n_low[mask]
        length = deltas[mask]
        np.add.at(x, population, length)
        np.add.at(miss_w, population, n_miss[mask] * length)
        np.add.at(commit_w, population, n_commit[mask] * length)
        np.add.at(gate_w, population, n_gate[mask] * length)

    return IntervalBreakdown(
        num_procs=p,
        window=window,
        low_states=low_states,
        x=x,
        miss_weight=miss_w,
        commit_weight=commit_w,
        gate_weight=gate_w,
    )


def energy_from_intervals(
    intervals: IntervalBreakdown,
    model: PowerModel,
    gated_run: bool,
) -> float:
    """Evaluate Eq. (1) (``gated_run=True``) or Eq. (5) (``False``).

    Using :math:`X_i \\alpha_i i = \\sum_k n^i_{mk} \\Delta_{ik}` the sums
    reduce to the precomputed weights; the run-mode term is
    :math:`(N p - \\sum_i X_i i) P_{run}`.
    """
    import numpy as np

    lo, hi = intervals.window
    n = hi - lo
    p = intervals.num_procs
    i_vec = np.arange(p + 1, dtype=np.int64)
    low_proc_cycles = int(np.dot(intervals.x, i_vec))
    run_term = (n * p - low_proc_cycles) * model.run
    miss_term = float(intervals.miss_weight.sum()) * model.miss
    commit_term = float(intervals.commit_weight.sum()) * model.commit
    if gated_run:
        gate_cycles = low_proc_cycles - int(intervals.miss_weight.sum()) - int(
            intervals.commit_weight.sum()
        )
        gate_term = gate_cycles * model.gated
        return run_term + miss_term + commit_term + gate_term
    if int(intervals.gate_weight.sum()) != 0:
        raise SimulationError(
            "ungated energy (Eq. 5) evaluated on a timeline containing "
            "gated intervals — use gated_run=True"
        )
    # Eq. (5): the non-miss share of Y_i is commit by construction.
    return run_term + miss_term + commit_term


def compute_energy(
    timelines: Sequence[StateTimeline],
    window: tuple[int, int],
    model: PowerModel,
    gated_run: bool,
) -> EnergyBreakdown:
    """Full accounting for one run, cross-checking both formulations
    to a relative tolerance of 1e-6."""
    low = LOW_POWER_STATES_GATED if gated_run else LOW_POWER_STATES_UNGATED
    segments = _segments(timelines, window)  # one pass serves both
    total, by_state = _direct(segments, window, model)
    intervals = _intervals(timelines, segments, window, low)
    via_eq = energy_from_intervals(intervals, model, gated_run)
    if abs(via_eq - total) > 1e-6 * max(1.0, abs(total)):
        raise SimulationError(
            f"energy accounting mismatch: direct={total!r} interval={via_eq!r}"
        )
    return EnergyBreakdown(
        window=window,
        num_procs=len(timelines),
        gated_run=gated_run,
        total=total,
        by_state=by_state,
        interval_total=via_eq,
    )


def energy_reduction(ungated: EnergyBreakdown, gated: EnergyBreakdown) -> float:
    """Eq. (6): :math:`E_{ug} / E_g` (> 1 means the gated run saves)."""
    if gated.total <= 0:
        raise SimulationError("gated run consumed no energy")
    return ungated.total / gated.total


def average_power_reduction(
    ungated: EnergyBreakdown, gated: EnergyBreakdown
) -> float:
    """Eq. (7): :math:`(E_{ug}/E_g) \\times (N_2/N_1)`."""
    n1 = ungated.parallel_time
    n2 = gated.parallel_time
    if n1 <= 0:
        raise SimulationError("ungated run has an empty parallel section")
    return energy_reduction(ungated, gated) * (n2 / n1)
