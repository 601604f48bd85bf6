"""Per-attempt transactional state: read/write sets and the store buffer.

``TxState`` is the processor-side bookkeeping for one *attempt* of a
transaction: which lines were speculatively read (conflict detection),
which words were speculatively written (lazy versioning — the paper's
store-address FIFO holds up to 1024 word addresses), and the lifecycle
status.  A fresh ``TxState`` is created for every attempt; aborted
attempts are discarded wholesale, which is precisely TCC's rollback.

``TxHandle`` is the restricted view handed to workload transaction
bodies.
"""

from __future__ import annotations

import enum
from typing import Any

from ..errors import CacheOverflowError

__all__ = ["TxStatus", "TxState", "TxHandle", "STORE_FIFO_DEPTH"]

#: Depth of the store-address FIFO modelled by the paper's power study
#: (Section VII: "a store address FIFO of 1024 words").  A transaction
#: writing more distinct words than this cannot be buffered.
STORE_FIFO_DEPTH = 1024


class TxStatus(enum.Enum):
    RUNNING = "running"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TxHandle:
    """What a transaction body may see: identity and attempt.

    A fresh handle is built for every attempt; bodies that want
    attempt-dependent behaviour can read :attr:`attempt`.
    """

    __slots__ = ("proc_id", "num_threads", "site", "attempt", "_result")

    def __init__(self, proc_id: int, num_threads: int, site: str, attempt: int):
        self.proc_id = proc_id
        self.num_threads = num_threads
        self.site = site
        self.attempt = attempt
        self._result: Any = None

    def set_result(self, value: Any) -> None:
        """Stash a value delivered to the program iff this attempt commits."""
        self._result = value

    @property
    def result(self) -> Any:
        return self._result


class TxState:
    """One attempt of one transaction on one processor."""

    __slots__ = (
        "proc_id",
        "site",
        "index",
        "attempt",
        "start_time",
        "status",
        "tid",
        "read_lines",
        "write_lines",
        "writes",
        "read_log",
        "handle",
        "flush_acks_pending",
    )

    def __init__(
        self,
        proc_id: int,
        site: str,
        index: int,
        attempt: int,
        start_time: int,
        handle: TxHandle,
    ):
        self.proc_id = proc_id
        self.site = site
        #: per-processor static instance counter (which TxOp this is)
        self.index = index
        self.attempt = attempt
        self.start_time = start_time
        self.status = TxStatus.RUNNING
        self.tid: int | None = None
        self.read_lines: set[int] = set()
        self.write_lines: set[int] = set()
        #: word address -> value (the store buffer)
        self.writes: dict[int, int] = {}
        #: (addr, observed value) pairs, recorded in validation mode
        self.read_log: list[tuple[int, int]] | None = None
        self.handle = handle
        self.flush_acks_pending = 0

    # ------------------------------------------------------------------
    def buffer_store(self, addr: int, value: int, line: int) -> None:
        """Record a speculative store, enforcing the FIFO depth."""
        if addr not in self.writes and len(self.writes) >= STORE_FIFO_DEPTH:
            raise CacheOverflowError(
                f"transaction {self.site!r} on proc {self.proc_id} exceeded "
                f"the {STORE_FIFO_DEPTH}-entry store buffer; split the "
                "transaction or reduce its write footprint"
            )
        self.writes[addr] = value
        self.write_lines.add(line)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TxState {self.site}#{self.index} proc={self.proc_id} "
            f"attempt={self.attempt} {self.status.value} "
            f"r={len(self.read_lines)} w={len(self.write_lines)}>"
        )
