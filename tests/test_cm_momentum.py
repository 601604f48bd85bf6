"""Momentum-based contention management (the paper's future work)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.cm.momentum import MomentumCM
from repro.cm.registry import create_cm
from repro.config import GatingConfig, SystemConfig
from repro.errors import ConfigError
from repro.harness.runner import run_workload, workload
from repro.sim.trace import TraceRecorder


class TestMomentumWindows:
    def test_zero_momentum_degrades_to_eq8(self):
        cm = MomentumCM(w0=8)
        assert cm.gating_window_ex(1, 0, momentum=0) == cm.gating_window(1, 0)

    def test_window_scales_with_momentum(self):
        cm = MomentumCM(w0=8, momentum_fraction=0.5)
        low = cm.gating_window_ex(1, 0, momentum=40)
        high = cm.gating_window_ex(1, 0, momentum=400)
        assert high > low
        assert high == 200  # 400 * 0.5

    def test_minimum_window_floor(self):
        cm = MomentumCM(w0=8)
        # tiny momentum still yields at least 2*W0
        assert cm.gating_window_ex(1, 0, momentum=2) == 16

    def test_cap(self):
        cm = MomentumCM(w0=8, cap=100)
        assert cm.gating_window_ex(1, 0, momentum=10_000) == 100

    def test_renewals_escalate(self):
        cm = MomentumCM(w0=8, cap=100_000)
        w0r = cm.gating_window_ex(1, 0, momentum=100)
        w2r = cm.gating_window_ex(1, 2, momentum=100)
        assert w2r == 2 * w0r  # staircase_term(2) == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            MomentumCM(w0=0)
        with pytest.raises(ConfigError):
            MomentumCM(momentum_fraction=0)
        with pytest.raises(ConfigError):
            MomentumCM(w0=8, cap=8)
        with pytest.raises(ConfigError):
            MomentumCM().gating_window(0, 0)

    @given(st.integers(1, 255), st.integers(0, 64), st.integers(0, 100_000))
    def test_bounds_hold_everywhere(self, na, nr, momentum):
        cm = MomentumCM(w0=8, cap=4096)
        window = cm.gating_window_ex(na, nr, momentum)
        assert 1 <= window <= 4096

    def test_registry(self):
        cm = create_cm(GatingConfig(contention_manager="momentum", w0=16))
        assert isinstance(cm, MomentumCM)
        assert cm.w0 == 16


class TestMomentumEndToEnd:
    def test_runs_and_gates(self):
        config = dataclasses.replace(
            SystemConfig(num_procs=4, seed=6),
            gating=GatingConfig(enabled=True, w0=8,
                                contention_manager="momentum"),
        )
        result = run_workload(
            workload("counter", scale="tiny", seed=6), config,
            check_serial=True,
        )
        assert result.counters.get("gating.gated", 0) > 0
        assert result.commits == 40

    def test_momentum_windows_longer_for_long_txs(self):
        """yada's long transactions must produce longer gating windows
        under the momentum policy than under Eq. 8."""
        results = {}
        for cm_name in ("gating-aware", "momentum"):
            config = dataclasses.replace(
                SystemConfig(num_procs=4, seed=6),
                gating=GatingConfig(enabled=True, w0=8,
                                    contention_manager=cm_name),
            )
            trace = TraceRecorder(kinds=("gate.record", "gate.renew"))
            run_workload(
                workload("yada", scale="tiny", seed=6), config, trace=trace
            )
            windows = [event.window for event in trace]
            results[cm_name] = sum(windows) / len(windows) if windows else 0.0
        if results["gating-aware"] and results["momentum"]:
            assert results["momentum"] > results["gating-aware"]
