"""Memory-hierarchy substrate (system S2 in DESIGN.md).

Models the Table II machine: private L1 data caches with speculative
read/write tracking, a common split-transaction bus, full-bit-vector
directories that interleave physical memory at cache-line granularity,
and a single-ported main memory.

Protocol messages are not objects.  A message is a bus-delivered call
of the receiver's handler, with the message fields as positional
arguments: a fill request is ``Directory.receive_fill_request(proc,
line, sent_at, req_id)``, a commit flush is
``Directory.receive_flush_request(proc, tid, lines, writes, sent_at,
site)``, and an invalidation is ``Processor.receive_invalidation(
committer, directory, lines, gate)``, whose ``gate`` flag is the
Stop-Clock command that rides with it (Section V).  The bus only
reserves its occupancy and schedules the call.
"""

from .address import AddressMap, WORD_BYTES
from .bus import Bus
from .cache import L1Cache
from .directory import Directory
from .memory import MainMemory

__all__ = [
    "AddressMap",
    "WORD_BYTES",
    "Bus",
    "L1Cache",
    "Directory",
    "MainMemory",
]
