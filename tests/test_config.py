"""Configuration validation and Table II defaults."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    BusConfig,
    CacheConfig,
    CommitConfig,
    DirectoryConfig,
    GatingConfig,
    MemoryConfig,
    SystemConfig,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_table2_defaults(self):
        cache = CacheConfig()
        assert cache.size_bytes == 64 * 1024
        assert cache.line_bytes == 64
        assert cache.ways == 2
        assert cache.hit_latency == 1

    def test_geometry(self):
        cache = CacheConfig()
        assert cache.num_lines == 1024
        assert cache.num_sets == 512

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(line_bytes=48)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig(ways=0)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, line_bytes=64, ways=2)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig(hit_latency=-1)

    def test_direct_mapped_allowed(self):
        cache = CacheConfig(size_bytes=4096, line_bytes=64, ways=1)
        assert cache.num_sets == 64


class TestBusConfig:
    def test_defaults(self):
        bus = BusConfig()
        assert bus.occupancy >= 1
        assert bus.data_occupancy >= bus.occupancy

    def test_rejects_zero_occupancy(self):
        with pytest.raises(ConfigError):
            BusConfig(occupancy=0)

    def test_rejects_negative_wire(self):
        with pytest.raises(ConfigError):
            BusConfig(wire_latency=-1)


class TestDirectoryConfig:
    def test_table2_latency(self):
        assert DirectoryConfig().latency == 10

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            DirectoryConfig(latency=-1)


class TestMemoryConfig:
    def test_table2_defaults(self):
        mem = MemoryConfig()
        assert mem.size_bytes == 1 << 30
        assert mem.latency == 100
        assert mem.ports == 1

    def test_occupancy_bounded_by_latency(self):
        with pytest.raises(ConfigError):
            MemoryConfig(latency=5, port_occupancy=10)

    def test_rejects_zero_ports(self):
        with pytest.raises(ConfigError):
            MemoryConfig(ports=0)


class TestGatingConfig:
    def test_defaults_match_paper(self):
        gating = GatingConfig()
        assert gating.enabled
        assert gating.w0 == 8  # "For our experiments, we have used W0=8"
        assert gating.abort_counter_bits == 8
        assert gating.abort_counter_max == 255

    def test_rejects_zero_w0(self):
        with pytest.raises(ConfigError):
            GatingConfig(w0=0)

    def test_counter_width_bounds(self):
        with pytest.raises(ConfigError):
            GatingConfig(abort_counter_bits=0)
        with pytest.raises(ConfigError):
            GatingConfig(abort_counter_bits=65)

    def test_counter_max(self):
        assert GatingConfig(abort_counter_bits=4).abort_counter_max == 15


class TestSystemConfig:
    def test_default_dirs_match_procs(self):
        assert SystemConfig(num_procs=8).effective_num_dirs == 8

    def test_explicit_dirs(self):
        assert SystemConfig(num_procs=8, num_dirs=4).effective_num_dirs == 4

    def test_or_circuit_derived(self):
        # ceil(log2(p)) with a floor of 1
        assert SystemConfig(num_procs=16).effective_or_circuit_cycles == 4
        assert SystemConfig(num_procs=4).effective_or_circuit_cycles == 2
        assert SystemConfig(num_procs=1).effective_or_circuit_cycles == 1

    def test_or_circuit_override(self):
        config = SystemConfig(
            num_procs=16, gating=GatingConfig(or_circuit_cycles=7)
        )
        assert config.effective_or_circuit_cycles == 7

    def test_with_gating_flips_only_the_switch(self):
        base = SystemConfig(num_procs=8, seed=42)
        off = base.with_gating(False)
        assert not off.gating.enabled
        assert off.gating.w0 == base.gating.w0
        assert off.num_procs == base.num_procs
        assert off.seed == base.seed
        assert SystemConfig().with_gating(True, w0=32).gating.w0 == 32

    def test_configs_are_frozen(self):
        config = SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.num_procs = 8  # type: ignore[misc]

    def test_rejects_bad_proc_count(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_procs=0)

    def test_table2_rows(self):
        rows = dict(SystemConfig(num_procs=16).table2_rows())
        assert rows["CPU"] == "16 single issue in-order cores"
        assert "64KB 64 byte line size" in rows["L1D"]
        assert "2-way associative" in rows["L1D"]
        assert rows["Interconnect"] == "Common Split-Transaction Bus"
        assert "10 cycle latency" in rows["Directory"]
        assert "1GB" in rows["Main Memory"]
        assert "100 cycle" in rows["Main Memory"]


class TestCommitConfig:
    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            CommitConfig(token_vendor_latency=-1)
        with pytest.raises(ConfigError):
            CommitConfig(abort_drain_cycles=-1)
