"""Architectural intents yielded by thread programs.

A thread program is a generator; every ``yield`` hands the processor an
intent and suspends until the processor has executed it with full
timing.  ``Load`` yields back the loaded value (data-dependent control
flow works naturally), the others yield ``None``.

Intents are deliberately minimal — the simulator models *memory system
behaviour*, not an ISA.  Straight-line computation between memory
references is abstracted as ``Compute(cycles)``, the standard
trace/intent-driven simulation idiom (one event instead of one event
per instruction keeps 16-core runs tractable in CPython; see the
optimization guide's "algorithmic optimization first").  The intent
classes are slotted but not frozen: workload bodies construct most of
them per yield, so they sit on the dispatch hot path alongside the
protocol messages, and frozen-dataclass construction
(``object.__setattr__`` per field) was a measured cost there.  They are
immutable by convention — programs hand them to the processor and
never touch them again — so a data structure may yield one ``Load``
per address many times (:class:`LoadCache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Any

from ..errors import WorkloadError

__all__ = ["Op", "Load", "Store", "Compute", "TxOp", "BarrierOp", "LoadCache"]


class Op:
    """Base class for all intents (useful for isinstance dispatch)."""

    __slots__ = ()


@dataclass(slots=True)
class Load(Op):
    """Read the 8-byte word at byte address ``addr``; yields the value.

    Inside a transaction the load is speculative: the line enters the
    transaction's read-set and a later conflicting commit aborts the
    attempt.  Loads see the transaction's own buffered stores
    (store-to-load forwarding).
    """

    addr: int


class LoadCache(dict):
    """``addr -> Load(addr)``, each intent built on first use.

    A data structure keeps one per instance, so its bodies yield one
    ``Load`` per address rather than one per access.  Sharing is safe
    because intents are immutable by convention and the processor
    keeps none of them.
    """

    __slots__ = ()

    def __missing__(self, addr: int) -> Load:
        load = self[addr] = Load(addr)
        return load


@dataclass(slots=True)
class Store(Op):
    """Write ``value`` to the word at ``addr``.

    Inside a transaction the store is buffered in the store-address
    FIFO (the paper's 1024-entry write buffer) and becomes globally
    visible only at commit flush.  Outside transactions it writes
    memory directly and must only target thread-private data.
    """

    addr: int
    value: int


@dataclass(slots=True)
class Compute(Op):
    """Spend ``cycles`` of pure computation (no memory traffic)."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise WorkloadError(f"negative compute time: {self.cycles}")


@dataclass(slots=True)
class TxOp(Op):
    """Run ``body`` as one atomic transaction; yields ``tx.result``.

    ``body`` is called with a fresh :class:`~repro.htm.transaction.TxHandle`
    on *every attempt* and must return a generator yielding
    ``Load``/``Store``/``Compute`` intents.  Re-execution after an abort
    simply re-instantiates the generator, which is why transaction
    bodies must route all shared state through ``Load``/``Store`` and
    keep no external side effects.

    ``site`` is the static identity of the transaction — the program
    counter value of the instruction that started it, in the paper's
    terms (Section III).  The gating renewal check compares sites.
    """

    body: Callable[["Any"], Generator]
    site: str

    def __post_init__(self) -> None:
        if not callable(self.body):
            raise WorkloadError("transaction body must be callable")
        if not self.site:
            raise WorkloadError("transaction site id must be non-empty")


@dataclass(slots=True)
class BarrierOp(Op):
    """Block until every thread has reached the barrier named ``name``.

    Only valid at program level (not inside a transaction body).
    Spinning at a barrier consumes full run-mode power, per the paper's
    power model ("at synchronization points the processor consumes full
    run mode power while executing spin-locks").
    """

    name: str
