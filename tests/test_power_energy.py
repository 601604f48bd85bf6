"""Energy accounting: Eqs. (1)–(7) against hand-computed cases and the
direct-integration identity (Invariant 5), property-tested.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.power.energy import (
    average_power_reduction,
    compute_energy,
    direct_energy,
    energy_from_intervals,
    energy_reduction,
    interval_breakdown,
)
from repro.power.model import PowerModel
from repro.power.states import (
    LOW_POWER_STATES_GATED,
    LOW_POWER_STATES_UNGATED,
    ProcState,
)
from repro.sim.timeline import StateTimeline

MODEL = PowerModel.derive()
R, M, C, G = ProcState.RUN, ProcState.MISS, ProcState.COMMIT, ProcState.GATED


def timeline(changes, end, initial=R):
    tl = StateTimeline(initial)
    for t, s in changes:
        tl.set_state(t, s)
    tl.finalize(end)
    return tl


class TestDirectEnergy:
    def test_all_run(self):
        tls = [timeline([], 100), timeline([], 100)]
        total, by_state = direct_energy(tls, (0, 100), MODEL)
        assert total == pytest.approx(200.0)
        assert by_state[R] == (200, 200.0)

    def test_hand_computed_mix(self):
        # proc0: 40 RUN, 30 MISS, 30 COMMIT; proc1: 50 RUN, 50 GATED
        tls = [
            timeline([(40, M), (70, C)], 100),
            timeline([(50, G)], 100),
        ]
        total, _ = direct_energy(tls, (0, 100), MODEL)
        expected = (40 + 0.32 * 30 + 0.44 * 30) + (50 + 0.20 * 50)
        assert total == pytest.approx(expected)

    def test_window_clipping(self):
        tls = [timeline([(40, M)], 100)]
        total, _ = direct_energy(tls, (30, 50), MODEL)
        assert total == pytest.approx(10 * 1.0 + 10 * 0.32)


class TestIntervalFormulation:
    def test_xi_counts_population(self):
        # two procs, both in MISS over [10, 20): X2 = 10; alone over
        # [20, 30) and [0, 10) respectively: X1 = 20.
        tls = [
            timeline([(10, M), (30, R)], 40),
            timeline([(0, M), (20, R)], 40, initial=M),
        ]
        iv = interval_breakdown(tls, (0, 40), LOW_POWER_STATES_UNGATED)
        assert iv.x[2] == 10
        assert iv.x[1] == 20
        assert iv.alpha(2) == pytest.approx(1.0)  # all-low pop is all miss

    def test_alpha_beta_split(self):
        # proc0 MISS and proc1 COMMIT simultaneously over [0, 10)
        tls = [
            timeline([(10, R)], 20, initial=M),
            timeline([(10, R)], 20, initial=C),
        ]
        iv = interval_breakdown(tls, (0, 20), LOW_POWER_STATES_UNGATED)
        assert iv.x[2] == 10
        assert iv.alpha(2) == pytest.approx(0.5)
        assert iv.beta(2) == pytest.approx(0.5)

    def test_eq1_matches_direct_gated(self):
        tls = [
            timeline([(10, M), (25, G), (60, R)], 100),
            timeline([(30, C), (55, R), (70, G)], 100),
        ]
        iv = interval_breakdown(tls, (0, 100), LOW_POWER_STATES_GATED)
        via_eq1 = energy_from_intervals(iv, MODEL, gated_run=True)
        direct, _ = direct_energy(tls, (0, 100), MODEL)
        assert via_eq1 == pytest.approx(direct)

    def test_eq5_rejects_gated_intervals(self):
        tls = [timeline([(10, G)], 20)]
        iv = interval_breakdown(tls, (0, 20), LOW_POWER_STATES_GATED)
        with pytest.raises(SimulationError, match="gated"):
            energy_from_intervals(iv, MODEL, gated_run=False)


@st.composite
def random_timelines(draw):
    num_procs = draw(st.integers(1, 6))
    end = draw(st.integers(10, 300))
    tls = []
    for _ in range(num_procs):
        n_changes = draw(st.integers(0, 12))
        times = sorted(
            draw(
                st.lists(
                    st.integers(0, end - 1),
                    min_size=n_changes,
                    max_size=n_changes,
                )
            )
        )
        states = draw(
            st.lists(
                st.sampled_from([R, M, C, G]),
                min_size=n_changes,
                max_size=n_changes,
            )
        )
        tls.append(timeline(list(zip(times, states)), end))
    lo = draw(st.integers(0, end - 1))
    hi = draw(st.integers(lo + 1, end))
    return tls, (lo, hi)


@settings(max_examples=60)
@given(random_timelines())
def test_interval_equals_direct_gated(data):
    """Invariant 5: Eq. (1) == direct integration on arbitrary timelines."""
    tls, window = data
    iv = interval_breakdown(tls, window, LOW_POWER_STATES_GATED)
    direct, _ = direct_energy(tls, window, MODEL)
    assert energy_from_intervals(iv, MODEL, gated_run=True) == pytest.approx(direct)


@settings(max_examples=60)
@given(random_timelines())
def test_xi_accounting_is_complete(data):
    """Σ_i X_i · i == total low-power processor-cycles."""
    tls, (lo, hi) = data
    iv = interval_breakdown(tls, (lo, hi), LOW_POWER_STATES_GATED)
    expected = sum(
        sum(
            dur
            for state, dur in tl.durations(lo, hi).items()
            if state in LOW_POWER_STATES_GATED
        )
        for tl in tls
    )
    assert sum(int(iv.x[i]) * i for i in range(len(tls) + 1)) == expected


class TestComputeEnergy:
    def test_cross_check_runs(self):
        tls = [timeline([(10, M), (20, C)], 50)]
        breakdown = compute_energy(tls, (0, 50), MODEL, gated_run=False)
        assert breakdown.total == pytest.approx(breakdown.interval_total)
        assert breakdown.parallel_time == 50
        assert breakdown.by_state[M][0] == 10

    def test_average_power(self):
        tls = [timeline([(50, G)], 100)]  # 50 RUN + 50 GATED
        breakdown = compute_energy(tls, (0, 100), MODEL, gated_run=True)
        assert breakdown.average_power == pytest.approx((50 + 10) / 100)


class TestReductions:
    def make(self, total, n, gated_run=False):
        # single proc all-RUN scaled: craft timeline of length n
        tls = [timeline([], n)]
        breakdown = compute_energy(tls, (0, n), MODEL, gated_run=gated_run)
        # scale check
        assert breakdown.total == pytest.approx(n)
        return breakdown

    def test_eq6(self):
        ug = self.make(100, 100)
        g = self.make(80, 80, gated_run=True)
        assert energy_reduction(ug, g) == pytest.approx(100 / 80)

    def test_eq7(self):
        ug = self.make(100, 100)
        g = self.make(80, 80, gated_run=True)
        # (Eug/Eg) * (N2/N1) = (100/80) * (80/100) = 1.0 (same avg power)
        assert average_power_reduction(ug, g) == pytest.approx(1.0)
