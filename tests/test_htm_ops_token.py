"""Op validation and the token vendor."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError, WorkloadError
from repro.htm.ops import Compute, Load, Store, TxOp
from repro.htm.token import TokenVendor
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


class TestOps:
    def test_compute_rejects_negative(self):
        with pytest.raises(WorkloadError):
            Compute(-1)

    def test_txop_requires_callable_body(self):
        with pytest.raises(WorkloadError):
            TxOp("not callable", site="x")  # type: ignore[arg-type]

    def test_txop_requires_site(self):
        with pytest.raises(WorkloadError):
            TxOp(lambda tx: iter(()), site="")

    def test_ops_are_frozen_values(self):
        load = Load(64)
        assert load.addr == 64
        store = Store(8, 5)
        assert (store.addr, store.value) == (8, 5)


def make_vendor():
    engine = Engine()
    return engine, TokenVendor(engine, StatsRegistry())


class TestTokenVendor:
    def test_tids_are_consecutive(self):
        _, vendor = make_vendor()
        assert [vendor.issue(0), vendor.issue(1), vendor.issue(0)] == [1, 2, 3]

    def test_min_live(self):
        # the turn belongs to the smallest live TID: t2 waits until t1
        # retires, and t3, waiting after t2 retired, gets it at once
        engine, vendor = make_vendor()
        t1, t2 = vendor.issue(0), vendor.issue(1)
        fired: list[int] = []
        vendor.wait_for_turn(t2, lambda: fired.append(t2))
        engine.run()
        assert fired == []
        vendor.finish(t1)
        engine.run()
        assert fired == [t2]
        t3 = vendor.issue(0)
        vendor.finish(t2)
        vendor.wait_for_turn(t3, lambda: fired.append(t3))
        engine.run()
        assert fired == [t2, t3]

    def test_wait_fires_immediately_for_min(self):
        engine, vendor = make_vendor()
        t1 = vendor.issue(0)
        fired: list[int] = []
        vendor.wait_for_turn(t1, lambda: fired.append(t1))
        engine.run()
        assert fired == [t1]

    def test_waiters_release_in_tid_order(self):
        engine, vendor = make_vendor()
        t1, t2, t3 = (vendor.issue(p) for p in range(3))
        fired: list[int] = []
        vendor.wait_for_turn(t3, lambda: fired.append(t3))
        vendor.wait_for_turn(t2, lambda: fired.append(t2))
        engine.run()
        assert fired == []  # t1 still live
        vendor.finish(t1)
        engine.run()
        assert fired == [t2]  # t3 still behind t2
        vendor.finish(t2)
        engine.run()
        assert fired == [t2, t3]

    def test_release_unblocks_like_finish(self):
        engine, vendor = make_vendor()
        t1, t2 = vendor.issue(0), vendor.issue(1)
        fired: list[int] = []
        vendor.wait_for_turn(t2, lambda: fired.append(t2))
        vendor.release(t1)  # aborted committer
        engine.run()
        assert fired == [t2]

    def test_dead_waiter_dropped(self):
        engine, vendor = make_vendor()
        t1, t2, t3 = (vendor.issue(p) for p in range(3))
        fired: list[int] = []
        vendor.wait_for_turn(t2, lambda: fired.append(t2))
        vendor.wait_for_turn(t3, lambda: fired.append(t3))
        vendor.release(t2)  # t2 aborts while queued
        vendor.finish(t1)
        engine.run()
        assert fired == [t3]

    def test_wait_for_unknown_tid_rejected(self):
        _, vendor = make_vendor()
        with pytest.raises(ProtocolError):
            vendor.wait_for_turn(99, lambda: None)

    def test_double_retire_rejected(self):
        _, vendor = make_vendor()
        t1 = vendor.issue(0)
        vendor.finish(t1)
        with pytest.raises(ProtocolError):
            vendor.finish(t1)

    def test_is_live(self):
        # an issued TID may wait for its turn; a retired one may not
        engine, vendor = make_vendor()
        t1 = vendor.issue(0)
        vendor.wait_for_turn(t1, lambda: None)
        engine.run()
        vendor.finish(t1)
        with pytest.raises(ProtocolError, match="not live"):
            vendor.wait_for_turn(t1, lambda: None)
