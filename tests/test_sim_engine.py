"""Event-engine semantics: ordering, cancellation, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_events_run_in_time_order():
    engine = Engine()
    order: list[int] = []
    engine.schedule(30, order.append, 3)
    engine.schedule(10, order.append, 1)
    engine.schedule(20, order.append, 2)
    engine.run()
    assert order == [1, 2, 3]
    assert engine.now == 30


def test_same_cycle_events_run_in_schedule_order():
    engine = Engine()
    order: list[str] = []
    engine.schedule(5, order.append, "first")
    engine.schedule(5, order.append, "second")
    engine.schedule(5, order.append, "third")
    engine.run()
    assert order == ["first", "second", "third"]


def test_zero_delay_from_callback_runs_same_cycle():
    engine = Engine()
    order: list[str] = []

    def outer() -> None:
        order.append("outer")
        engine.schedule(0, order.append, "inner")

    engine.schedule(3, outer)
    engine.run()
    assert order == ["outer", "inner"]
    assert engine.now == 3


def test_cancelled_event_is_skipped():
    engine = Engine()
    fired: list[int] = []
    event = engine.schedule(10, fired.append, 1)
    engine.schedule(20, fired.append, 2)
    engine.cancel(event)
    engine.run()
    assert fired == [2]


def test_late_cancel_is_a_no_op():
    """Cancelling an event that already fired must not touch later ones."""
    engine = Engine()
    fired: list[str] = []
    first = engine.schedule(1, fired.append, "a")
    engine.run()
    engine.schedule(1, fired.append, "b")
    engine.cancel(first)
    assert engine.pending() == 1
    engine.run()
    assert fired == ["a", "b"]
    assert engine.pending() == 0


def test_step_and_bounded_run_skip_cancelled():
    engine = Engine()
    fired: list[int] = []
    head = engine.schedule(1, fired.append, 1)
    engine.schedule(2, fired.append, 2)
    later = engine.schedule(3, fired.append, 3)
    engine.schedule(4, fired.append, 4)
    engine.cancel(head)
    engine.cancel(later)
    assert engine.step() is True
    assert fired == [2] and engine.now == 2
    # the machine's max_cycles loop: one step() per event under a budget
    while engine.step():
        assert engine.now <= 10
    assert fired == [2, 4]
    assert engine.events_executed == 2
    assert engine.pending() == 0


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_pending_and_next_event_time():
    engine = Engine()
    assert engine.pending() == 0
    e1 = engine.schedule(7, lambda: None)
    engine.schedule(3, lambda: None)
    assert engine.pending() == 2
    engine.cancel(e1)
    assert engine.pending() == 1
    e3 = engine.schedule(1, lambda: None)
    engine.cancel(e3)
    assert engine.pending() == 1
    # the next live event is the one at 3: both cancelled ones are skipped
    assert engine.step() is True and engine.now == 3
    assert engine.step() is False


def test_step_returns_false_when_empty():
    assert Engine().step() is False


def test_events_executed_counter():
    engine = Engine()
    for t in range(5):
        engine.schedule(t, lambda: None)
    engine.run()
    assert engine.events_executed == 5


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        min_size=1,
        max_size=60,
    )
)
def test_execution_order_is_stable_sort(events):
    """Events fire in (time, schedule-order): a stable sort of delays,
    minus the cancelled events."""
    engine = Engine()
    fired: list[tuple[int, int]] = []
    handles = [
        engine.schedule(delay, lambda d=delay, i=idx: fired.append((d, i)))
        for idx, (delay, _) in enumerate(events)
    ]
    for handle, (_, cancelled) in zip(handles, events):
        if cancelled:
            engine.cancel(handle)
    engine.run()
    expected = sorted(
        ((d, i) for i, (d, cancelled) in enumerate(events) if not cancelled),
        key=lambda pair: (pair[0], pair[1]),
    )
    assert fired == expected
    assert engine.events_executed == len(expected)
