"""Statistics primitives, RNG plumbing and event tracing."""

from __future__ import annotations

import pytest

from repro.sim.rng import derive_seed
from repro.sim.stats import Counter, StatsRegistry
from repro.sim.trace import NullTrace, TraceRecorder


class TestCounter:
    def test_basic(self):
        c = Counter("x")
        c.value += 1
        c.value += 5
        assert c.value == 6


class TestStatsRegistry:
    def test_counter_reuse(self):
        reg = StatsRegistry()
        handle = reg.counter("a.b")
        handle.value += 1
        reg.counter("a.b").value += 2
        assert reg.counter("a.b") is handle
        reg.counter("missing")  # registered, never bumped
        assert reg.counters() == {"a.b": 3}

    def test_counters_sorted(self):
        reg = StatsRegistry()
        reg.counter("z").value += 1
        reg.counter("a").value += 1
        assert list(reg.counters()) == ["a", "z"]

    def test_late_registration_stays_sorted(self):
        reg = StatsRegistry()
        reg.counter("m.mid").value += 1
        assert list(reg.counters()) == ["m.mid"]
        reg.counter("a.early").value += 1  # registers after the first pass
        assert list(reg.counters()) == ["a.early", "m.mid"]

    def test_counter_names_are_shared_across_registries(self):
        # Every machine builds its per-component names afresh.  One
        # string per name lets pickle share it across a replicate
        # pack's results, which keeps the pack payloads small, and
        # with them the pool parent's memory (seeds-pool peak RSS).
        proc = 0
        first = StatsRegistry().counter(f"proc{proc}.cache.hits").name
        second = StatsRegistry().counter(f"proc{proc}.cache.hits").name
        assert first is second


class TestRng:
    def test_derive_seed_stable(self):
        # Values must be stable across processes/runs (FNV over repr).
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")
        assert derive_seed(0, "tx", 3, 7) != derive_seed(0, "tx", 7, 3)

    def test_derive_seed_in_63_bits(self):
        for ctx in range(50):
            assert 0 <= derive_seed(123, ctx) < 2**63


class TestTrace:
    def test_null_trace_discards(self):
        trace = NullTrace()
        trace.emit(1, "x", a=1)
        assert trace.events() == []
        assert not trace.enabled

    def test_recorder_records_in_order(self):
        trace = TraceRecorder()
        trace.emit(1, "tx.begin", proc=0)
        trace.emit(2, "tx.abort", proc=1)
        assert len(trace) == 2
        assert [e.kind for e in trace] == ["tx.begin", "tx.abort"]
        assert trace.events("tx.abort")[0].proc == 1

    def test_prefix_filtering_on_query(self):
        trace = TraceRecorder()
        trace.emit(1, "gate.off", proc=0)
        trace.emit(2, "gate.on", proc=0)
        trace.emit(3, "tx.begin", proc=0)
        assert len(trace.events("gate")) == 2

    def test_kind_restriction_at_recording(self):
        trace = TraceRecorder(kinds=("gate",))
        trace.emit(1, "gate.off", proc=0)
        trace.emit(2, "tx.begin", proc=0)
        assert len(trace) == 1

    def test_payload_attribute_access(self):
        trace = TraceRecorder()
        trace.emit(5, "x", victim=3)
        event = trace.events()[0]
        assert event.victim == 3
        assert event.time == 5
        with pytest.raises(AttributeError):
            _ = event.missing_field
