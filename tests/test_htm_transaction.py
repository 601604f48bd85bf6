"""Transaction state: store buffer, forwarding, conflicts."""

from __future__ import annotations

import pytest

from repro.config import GatingConfig, SystemConfig
from repro.errors import CacheOverflowError
from repro.htm.machine import Machine
from repro.htm.program import ThreadProgram
from repro.htm.transaction import STORE_FIFO_DEPTH, TxHandle, TxState, TxStatus


def make_tx() -> TxState:
    handle = TxHandle(0, 4, "site", 1)
    return TxState(0, "site", 0, 1, 0, handle)


def live_on_processor(tx: TxState):
    """A processor whose live attempt is ``tx`` (the directory probes
    it with :meth:`~repro.htm.processor.Processor.would_abort_on`)."""

    def idle(ctx):
        return
        yield  # pragma: no cover - generator marker

    config = SystemConfig(num_procs=1, gating=GatingConfig(enabled=False))
    proc = Machine(config, [ThreadProgram(idle)]).procs[0]
    proc._tx = tx
    return proc


class TestStoreBuffer:
    def test_buffer_and_forward(self):
        tx = make_tx()
        tx.buffer_store(64, 42, line=1)
        assert tx.writes.get(64) == 42
        assert tx.writes.get(72) is None
        assert tx.write_lines == {1}

    def test_overwrite_same_word(self):
        tx = make_tx()
        tx.buffer_store(64, 1, line=1)
        tx.buffer_store(64, 2, line=1)
        assert tx.writes.get(64) == 2
        assert len(tx.writes) == 1

    def test_fifo_depth_enforced(self):
        """The paper's store-address FIFO holds 1024 word addresses."""
        tx = make_tx()
        for i in range(STORE_FIFO_DEPTH):
            tx.buffer_store(i * 8, i, line=i // 8)
        with pytest.raises(CacheOverflowError):
            tx.buffer_store(STORE_FIFO_DEPTH * 8, 0, line=STORE_FIFO_DEPTH // 8)

    def test_rewrites_do_not_consume_fifo_entries(self):
        tx = make_tx()
        for _ in range(STORE_FIFO_DEPTH + 10):
            tx.buffer_store(0, 1, line=0)  # same address each time
        assert len(tx.writes) == 1


class TestConflicts:
    def test_read_set_conflicts(self):
        tx = make_tx()
        tx.read_lines.add(5)
        proc = live_on_processor(tx)
        assert proc.would_abort_on([5])
        assert proc.would_abort_on([4, 5, 6])
        assert not proc.would_abort_on([4, 6])

    def test_blind_writes_do_not_conflict(self):
        """Committed writes to lines we only *wrote* must not abort us
        (word-granularity merge in the store buffer)."""
        tx = make_tx()
        tx.buffer_store(64, 1, line=1)
        assert not live_on_processor(tx).would_abort_on([1])

    def test_footprint(self):
        tx = make_tx()
        tx.read_lines.add(1)
        tx.buffer_store(256, 9, line=4)
        assert tx.read_lines | tx.write_lines == {1, 4}


class TestLifecycle:
    def test_initial_status(self):
        tx = make_tx()
        assert tx.status is TxStatus.RUNNING

    def test_committed_not_live(self):
        """The directory's probe ignores an attempt that has committed."""
        tx = make_tx()
        tx.read_lines.add(1)
        proc = live_on_processor(tx)
        assert proc.would_abort_on([1])
        tx.status = TxStatus.COMMITTED
        assert not proc.would_abort_on([1])

    def test_handle_result(self):
        handle = TxHandle(2, 8, "s", 3)
        assert handle.result is None
        handle.set_result(("a", 1))
        assert handle.result == ("a", 1)
        assert handle.proc_id == 2
        assert handle.num_threads == 8
        assert handle.attempt == 3
