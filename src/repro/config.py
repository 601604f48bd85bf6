"""Configuration objects for the simulated system.

The defaults reproduce Table II of the paper:

=============  ===============================================
Feature        Description
=============  ===============================================
CPU            1-16 single-issue in-order cores
L1D            64 KB, 64-byte line, 2-way associative, 1-cycle
Interconnect   common split-transaction bus
Directory      full-bit-vector sharer list, 10-cycle latency
Main memory    1 GB, 100-cycle latency, single read/write port
=============  ===============================================

All latencies are in processor clock cycles; the whole system shares one
clock domain (the paper's directories run timers on a "directory-local
clock tick" — we model a single global clock, which is equivalent for a
single-frequency system).

Every dataclass validates itself in ``__post_init__`` and raises
:class:`repro.errors.ConfigError` on inconsistency, so invalid systems
fail fast at construction rather than deep inside a simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "CacheConfig",
    "BusConfig",
    "DirectoryConfig",
    "MemoryConfig",
    "CommitConfig",
    "GatingConfig",
    "SystemConfig",
    "MAX_PROCS",
]


#: the most processors one simulated machine may have
MAX_PROCS = 1024


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigError` with *message* unless *condition* holds."""
    if not condition:
        raise ConfigError(message)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of the private L1 data cache.

    Defaults follow Table II: 64 KB, 64-byte lines, 2-way set
    associative, 1-cycle hit latency.  The cache additionally carries
    speculative read/write (``RW``) bits per line as required by TCC;
    their power cost is modelled separately in :mod:`repro.power.cacti`.
    """

    size_bytes: int = 64 * 1024
    line_bytes: int = 64
    ways: int = 2
    hit_latency: int = 1

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(_is_pow2(self.line_bytes), "line size must be a power of two")
        _require(self.ways > 0, "cache must have at least one way")
        _require(self.hit_latency >= 0, "hit latency must be non-negative")
        _require(
            self.size_bytes % (self.line_bytes * self.ways) == 0,
            "cache size must be divisible by line_bytes * ways",
        )
        _require(
            _is_pow2(self.num_sets),
            "number of sets must be a power of two (index by bit slice)",
        )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (``lines / ways``)."""
        return self.num_lines // self.ways


@dataclass(frozen=True)
class BusConfig:
    """The common split-transaction bus connecting cores and directories.

    Each message occupies the bus for ``occupancy`` cycles (address or
    data beat) and then takes ``wire_latency`` further cycles to arrive.
    Being split-transaction, a request and its reply are independent bus
    transactions — the bus is never held across a directory or memory
    access.
    """

    occupancy: int = 2
    data_occupancy: int = 4
    wire_latency: int = 1

    def __post_init__(self) -> None:
        _require(self.occupancy >= 1, "bus occupancy must be >= 1 cycle")
        _require(self.data_occupancy >= 1, "data occupancy must be >= 1 cycle")
        _require(self.wire_latency >= 0, "wire latency must be non-negative")


@dataclass(frozen=True)
class DirectoryConfig:
    """Directory timing (full-bit-vector sharer tracking, Table II)."""

    latency: int = 10
    commit_line_cycles: int = 1

    def __post_init__(self) -> None:
        _require(self.latency >= 0, "directory latency must be non-negative")
        _require(
            self.commit_line_cycles >= 0,
            "per-line commit cost must be non-negative",
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory (Table II: 1 GB, 100-cycle, single R/W port).

    ``port_occupancy`` models the single read/write port as a pipelined
    resource: a new access may begin every ``port_occupancy`` cycles
    while each access still takes ``latency`` cycles end-to-end.  Set
    ``port_occupancy = latency`` for a fully blocking port.  ``ports``
    must stay 1: no other count is modelled, and the field is part of
    every job's digest.
    """

    size_bytes: int = 1 << 30
    latency: int = 100
    ports: int = 1
    port_occupancy: int = 10

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "memory size must be positive")
        _require(self.latency >= 0, "memory latency must be non-negative")
        _require(
            self.ports == 1,
            "memory has one read/write port (Table II); ports must be 1",
        )
        _require(self.port_occupancy >= 1, "port occupancy must be >= 1")
        _require(
            self.port_occupancy <= max(1, self.latency),
            "port occupancy cannot exceed access latency",
        )


@dataclass(frozen=True)
class CommitConfig:
    """Timing of the commit path (token vendor and drain behaviour)."""

    token_vendor_latency: int = 1
    abort_drain_cycles: int = 2

    def __post_init__(self) -> None:
        _require(
            self.token_vendor_latency >= 0,
            "token vendor latency must be non-negative",
        )
        _require(
            self.abort_drain_cycles >= 0,
            "abort drain must be non-negative",
        )


@dataclass(frozen=True)
class GatingConfig:
    """Clock-gating-on-abort configuration (Sections III, V and VI).

    Attributes
    ----------
    enabled:
        Master switch.  With ``False`` the system behaves as the paper's
        baseline: aborts retry according to the contention manager
        (immediately, by default) and no processor is ever gated.
    w0:
        The constant :math:`W_0` of Eq. (8).  The paper uses ``8`` for
        its main experiments and sweeps 1–32 in Fig. 7.  "For large
        number of processors this constant should be small; for
        small-scale systems preset to a high value."
    abort_counter_bits:
        Width of the per-(directory, processor) abort up-counter; the
        paper suggests 8 bits, saturating at 255.
    or_circuit_cycles:
        Extra cycles consumed by the high fan-in bitwise-OR ungating
        circuit of Fig. 2(e).  The paper notes this "will take multiple
        cycles ... extending the clock gating period by a small amount".
        ``None`` derives ``ceil(log2(num_procs))`` at system build time.
    contention_manager:
        Name of the contention-management policy used to compute gating
        windows (see :mod:`repro.cm.registry`).  Defaults to the paper's
        gating-aware staircase policy.
    """

    enabled: bool = True
    w0: int = 8
    abort_counter_bits: int = 8
    or_circuit_cycles: int | None = None
    contention_manager: str = "gating-aware"

    def __post_init__(self) -> None:
        _require(self.w0 >= 1, "W0 must be at least 1 cycle")
        _require(
            1 <= self.abort_counter_bits <= 64,
            "abort counter width must be in [1, 64] bits",
        )
        if self.or_circuit_cycles is not None:
            _require(
                self.or_circuit_cycles >= 0,
                "OR-circuit delay must be non-negative",
            )

    @property
    def abort_counter_max(self) -> int:
        """Saturation value of the abort counter (255 for 8 bits)."""
        return (1 << self.abort_counter_bits) - 1


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine.

    ``num_dirs`` defaults to ``num_procs`` (the paper's Fig. 2 example
    pairs four processors with four directories); physical memory is
    interleaved across directories at cache-line granularity.
    """

    num_procs: int = 4
    num_dirs: int | None = None
    # frozen, so one default instance of each section serves every config
    cache: CacheConfig = CacheConfig()
    bus: BusConfig = BusConfig()
    directory: DirectoryConfig = DirectoryConfig()
    memory: MemoryConfig = MemoryConfig()
    commit: CommitConfig = CommitConfig()
    gating: GatingConfig = GatingConfig()
    seed: int = 0
    max_cycles: int | None = None

    def __post_init__(self) -> None:
        _require(1 <= self.num_procs <= MAX_PROCS,
                 f"num_procs must be in [1, {MAX_PROCS}]")
        if self.num_dirs is not None:
            _require(self.num_dirs >= 1, "num_dirs must be >= 1")
        _require(self.seed >= 0, "seed must be non-negative")
        if self.max_cycles is not None:
            _require(self.max_cycles > 0, "max_cycles must be positive")

    @property
    def effective_num_dirs(self) -> int:
        """Directory count actually instantiated (defaults to cores)."""
        return self.num_dirs if self.num_dirs is not None else self.num_procs

    @property
    def effective_or_circuit_cycles(self) -> int:
        """OR-circuit delay, deriving ``ceil(log2(p))`` when unset."""
        if self.gating.or_circuit_cycles is not None:
            return self.gating.or_circuit_cycles
        return max(1, (self.num_procs - 1).bit_length())

    def with_gating(self, enabled: bool, **gating_overrides: object) -> "SystemConfig":
        """Return a copy with gating toggled (and optional field overrides).

        Convenience for the paired "with / without clock-gating" runs of
        Figs. 4–6: the architectural parameters stay identical and only
        the gating switch flips.
        """
        gating = dataclasses.replace(
            self.gating, enabled=enabled, **gating_overrides  # type: ignore[arg-type]
        )
        return dataclasses.replace(self, gating=gating)

    def table2_rows(self) -> list[tuple[str, str]]:
        """Render this configuration as Table II-style (feature, value) rows."""
        cache = self.cache
        return [
            ("CPU", f"{self.num_procs} single issue in-order cores"),
            (
                "L1D",
                f"{cache.size_bytes // 1024}KB {cache.line_bytes} byte line size, "
                f"{cache.ways}-way associative, {cache.hit_latency} cycle latency",
            ),
            ("Interconnect", "Common Split-Transaction Bus"),
            (
                "Directory",
                f"Full-bit vector sharer, {self.directory.latency} cycle latency",
            ),
            (
                "Main Memory",
                f"{self.memory.size_bytes >> 30}GB, {self.memory.latency} cycle "
                "latency, Single Read/Write Port",
            ),
        ]
