"""Scalable-TCC hardware transactional memory (systems S3+S4).

The processor model executes *thread programs* — generator coroutines
yielding architectural intents (:mod:`~repro.htm.ops`) — against the
memory hierarchy, with lazy versioning (stores buffered privately until
commit) and lazy conflict detection (aborts arrive as directory
invalidations at commit time), exactly the TCC execution model the
paper builds on.
"""

from .ops import Load, Store, Compute, TxOp, BarrierOp
from .program import ThreadContext, ThreadProgram
from .transaction import TxHandle, TxState, TxStatus
from .token import TokenVendor
from .processor import Processor
from .machine import Machine, MachineResult

__all__ = [
    "Load",
    "Store",
    "Compute",
    "TxOp",
    "BarrierOp",
    "ThreadContext",
    "ThreadProgram",
    "TxHandle",
    "TxState",
    "TxStatus",
    "TokenVendor",
    "Processor",
    "Machine",
    "MachineResult",
]
