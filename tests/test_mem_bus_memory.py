"""Bus occupancy/ordering and main-memory timing semantics."""

from __future__ import annotations

import pytest

from repro.config import BusConfig, MemoryConfig
from repro.errors import MemoryModelError
from repro.mem.bus import Bus
from repro.mem.memory import MainMemory
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


def make_bus(occupancy=2, data=4, wire=1):
    engine = Engine()
    stats = StatsRegistry()
    bus = Bus(engine, BusConfig(occupancy, data, wire), stats)
    return engine, bus, stats


class TestBus:
    def test_single_message_latency(self):
        engine, bus, _ = make_bus(occupancy=2, wire=1)
        arrivals: list[int] = []
        bus.send_ctrl(lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [3]  # 2 occupancy + 1 wire

    def test_data_occupancy(self):
        engine, bus, _ = make_bus(data=4, wire=1)
        arrivals: list[int] = []
        bus.send_data(lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [5]

    def test_back_to_back_messages_queue(self):
        engine, bus, stats = make_bus(occupancy=2, wire=1)
        arrivals: list[tuple[str, int]] = []
        bus.send_ctrl(lambda: arrivals.append(("a", engine.now)))
        bus.send_ctrl(lambda: arrivals.append(("b", engine.now)))
        engine.run()
        # b departs when a's occupancy ends: arrives 2 cycles later
        assert arrivals == [("a", 3), ("b", 5)]
        assert stats.counters()["bus.queue_cycles"] == 2

    def test_fifo_ordering_is_preserved(self):
        """Arrival order equals send order — the commit protocol's
        inval-before-ack guarantee depends on this."""
        engine, bus, _ = make_bus()
        order: list[str] = []
        bus.send_data(lambda: order.append("inval"))
        bus.send_ctrl(lambda: order.append("ack"))
        engine.run()
        assert order == ["inval", "ack"]

    def test_bus_frees_after_idle(self):
        engine, bus, _ = make_bus(occupancy=2, wire=1)
        arrivals: list[int] = []
        bus.send_ctrl(lambda: arrivals.append(engine.now))
        engine.run()
        # bus idle again; next message sees no queueing
        bus.send_ctrl(lambda: arrivals.append(engine.now))
        engine.run()
        assert arrivals == [3, 3 + 3]

    def test_utilization(self):
        """Occupied cycles accumulate in ``bus.busy_cycles``: two
        control messages hold the bus for 4 of the 5 cycles to the
        second one's arrival."""
        engine, bus, stats = make_bus(occupancy=2)
        bus.send_ctrl(lambda: None)
        bus.send_ctrl(lambda: None)
        engine.run()
        assert stats.counters()["bus.busy_cycles"] == 4
        assert engine.now == 5

    def test_message_count_stat(self):
        engine, bus, stats = make_bus()
        for _ in range(5):
            bus.send_ctrl(lambda: None)
        engine.run()
        assert stats.counters()["bus.messages"] == 5


def make_memory(latency=100, occupancy=10, size=1 << 20, record=False):
    engine = Engine()
    memory = MainMemory(
        engine,
        MemoryConfig(size_bytes=size, latency=latency, port_occupancy=occupancy),
        StatsRegistry(),
        record_versions=record,
    )
    return engine, memory


class TestMainMemoryFunctional:
    def test_read_default_zero(self):
        _, memory = make_memory()
        assert memory.read_word(0) == 0

    def test_write_read_roundtrip(self):
        _, memory = make_memory()
        memory.write_word(64, 123)
        assert memory.read_word(64) == 123

    def test_alignment_enforced(self):
        _, memory = make_memory()
        with pytest.raises(MemoryModelError):
            memory.read_word(4)
        with pytest.raises(MemoryModelError):
            memory.write_word(9, 1)

    def test_bounds_enforced(self):
        _, memory = make_memory(size=1024)
        with pytest.raises(MemoryModelError):
            memory.read_word(1024)

    def test_load_image_and_snapshot(self):
        _, memory = make_memory()
        memory.load_image({0: 1, 8: 2})
        snap = memory.snapshot()
        assert snap == {0: 1, 8: 2}
        memory.write_word(16, 3)
        assert 16 not in snap  # snapshot is a copy

    def test_version_log(self):
        engine, memory = make_memory(record=True)
        memory.write_word(0, 5, writer_tid=7)
        memory.write_word(8, 6, writer_tid=-1)
        assert memory.version_log == [(0, 0, 5, 7), (0, 8, 6, -1)]


class TestMainMemoryTiming:
    def test_access_latency(self):
        engine, memory = make_memory(latency=100, occupancy=10)
        done: list[int] = []
        memory.access(lambda: done.append(engine.now))
        engine.run()
        assert done == [100]

    def test_pipelined_port(self):
        engine, memory = make_memory(latency=100, occupancy=10)
        done: list[int] = []
        memory.access(lambda: done.append(engine.now))
        memory.access(lambda: done.append(engine.now))
        memory.access(lambda: done.append(engine.now))
        engine.run()
        # one new access may start every 10 cycles
        assert done == [100, 110, 120]

    def test_blocking_port(self):
        engine, memory = make_memory(latency=20, occupancy=20)
        done: list[int] = []
        memory.access(lambda: done.append(engine.now))
        memory.access(lambda: done.append(engine.now))
        engine.run()
        assert done == [20, 40]
