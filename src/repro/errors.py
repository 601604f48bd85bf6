"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting genuine programming errors (``TypeError``,
``KeyError`` from internal bugs, ...) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeadlockError",
    "ProtocolError",
    "MemoryModelError",
    "CacheOverflowError",
    "WorkloadError",
    "HarnessError",
    "ExecutionError",
    "BenchmarkError",
    "FigureError",
]


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigError(ReproError, ValueError):
    """Raised when a configuration object is inconsistent or out of range.

    Examples: a processor count that is not positive, a cache whose line
    size does not divide its total size, or a gating configuration that
    requests a zero back-off constant.
    """


class SimulationError(ReproError, RuntimeError):
    """Raised when the discrete-event simulation reaches an invalid state."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while threads are still blocked.

    The clock-gating protocol is proved deadlock-free in the paper
    (Section V: a gated processor cannot abort any other processor), so
    hitting this error indicates a bug in the protocol implementation or
    a malformed workload (e.g. a barrier that not all threads reach).
    """


class ProtocolError(SimulationError):
    """Raised when an HTM/coherence protocol invariant is violated.

    Examples: a directory granting commit access out of TID order, a
    gated processor issuing a load, or a commit for a line with no
    registered owner.
    """


class MemoryModelError(ReproError, ValueError):
    """Raised for invalid memory accesses (unaligned/negative addresses)."""


class CacheOverflowError(SimulationError):
    """Raised internally when speculative state can no longer fit in L1.

    TCC tracks the transactional read/write sets in the private L1 data
    cache.  If every way of a set holds speculative state, the victim
    transaction cannot continue speculating; the simulator converts this
    condition into an *overflow abort* (the transaction retries).  The
    exception type exists so the processor model can distinguish the
    overflow path from a genuine conflict abort.
    """


class WorkloadError(ReproError, ValueError):
    """Raised when a workload is malformed or given invalid parameters."""


class HarnessError(ReproError, RuntimeError):
    """Raised by the experiment harness for invalid experiment requests."""


class ExecutionError(ReproError, RuntimeError):
    """Raised by :mod:`repro.exec` when a job batch cannot be resolved.

    Examples: a worker process failing while executing a job (the
    original exception is chained), an unwritable cache directory, or
    an invalid worker count.
    """


class FigureError(ReproError, RuntimeError):
    """Raised by :mod:`repro.figures` when an artifact cannot be produced.

    Examples: an unknown figure or extractor name, a result store that
    lacks the runs a figure needs, or a renderer whose optional
    dependency (matplotlib) is unavailable.
    """


class BenchmarkError(ReproError, RuntimeError):
    """Raised by :mod:`repro.bench` for misconfigured or broken benchmarks.

    Examples: a non-positive repetition count, a benchmark whose
    repetitions do not perform a fixed amount of work, or a request for
    an unknown benchmark name.
    """
