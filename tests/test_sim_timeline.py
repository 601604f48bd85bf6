"""State-timeline recording, clipping and tiling invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.power.states import ProcState
from repro.sim.timeline import (
    Segment,
    StateTimeline,
    segment_arrays,
    verify_tiling,
)


def make(events, end, initial="A", start=0):
    tl = StateTimeline(initial, start=start)
    for t, s in events:
        tl.set_state(t, s)
    tl.finalize(end)
    return tl


class TestRecording:
    def test_single_segment(self):
        tl = make([], 10)
        assert tl.segments() == [Segment(0, 10, "A")]

    def test_basic_segments(self):
        tl = make([(3, "B"), (7, "C")], 10)
        assert tl.segments() == [
            Segment(0, 3, "A"),
            Segment(3, 7, "B"),
            Segment(7, 10, "C"),
        ]

    def test_same_state_is_noop(self):
        tl = make([(3, "A"), (5, "B"), (6, "B")], 10)
        assert tl.segments() == [Segment(0, 5, "A"), Segment(5, 10, "B")]

    def test_same_cycle_last_wins(self):
        tl = make([(4, "B"), (4, "C")], 10)
        assert tl.segments() == [Segment(0, 4, "A"), Segment(4, 10, "C")]

    def test_same_cycle_collapse_back_to_previous(self):
        # A -> B at t=4 then back to A at t=4: the B blip vanishes.
        tl = make([(4, "B"), (4, "A")], 10)
        assert tl.segments() == [Segment(0, 10, "A")]

    def test_rejects_time_travel(self):
        tl = StateTimeline("A")
        tl.set_state(5, "B")
        with pytest.raises(SimulationError):
            tl.set_state(3, "C")

    def test_rejects_recording_after_finalize(self):
        tl = make([], 10)
        with pytest.raises(SimulationError):
            tl.set_state(11, "B")

    def test_finalize_idempotent_same_end(self):
        tl = make([], 10)
        tl.finalize(10)
        assert tl.end == 10

    def test_finalize_conflicting_end_rejected(self):
        tl = make([], 10)
        with pytest.raises(SimulationError):
            tl.finalize(12)

    def test_finalize_before_last_change_rejected(self):
        tl = StateTimeline("A")
        tl.set_state(8, "B")
        with pytest.raises(SimulationError):
            tl.finalize(5)

    def test_current_state(self):
        # the latest recorded state holds from its change onwards
        tl = StateTimeline("A")
        assert tl.state_at(0) == "A"
        tl.set_state(2, "B")
        assert tl.state_at(2) == tl.state_at(100) == "B"


class TestQueries:
    def test_state_at(self):
        tl = make([(3, "B"), (7, "C")], 10)
        assert tl.state_at(0) == "A"
        assert tl.state_at(2) == "A"
        assert tl.state_at(3) == "B"  # segments are [start, end)
        assert tl.state_at(6) == "B"
        assert tl.state_at(7) == "C"
        assert tl.state_at(100) == "C"

    def test_state_at_before_start_rejected(self):
        tl = make([], 10, start=5)
        with pytest.raises(SimulationError):
            tl.state_at(4)

    def test_durations(self):
        tl = make([(3, "B"), (7, "A")], 10)
        assert tl.durations() == {"A": 6, "B": 4}

    def test_clipped_segments(self):
        tl = make([(3, "B"), (7, "C")], 10)
        assert tl.clipped_segments(2, 8) == [
            Segment(2, 3, "A"),
            Segment(3, 7, "B"),
            Segment(7, 8, "C"),
        ]

    def test_clip_empty_window(self):
        tl = make([(3, "B")], 10)
        assert tl.clipped_segments(5, 5) == []

    def test_clip_invalid_window(self):
        tl = make([], 10)
        with pytest.raises(SimulationError):
            tl.clipped_segments(8, 2)

    def test_durations_windowed(self):
        tl = make([(3, "B"), (7, "A")], 10)
        assert tl.durations(2, 8) == {"A": 2, "B": 4}


class TestTiling:
    def test_verify_tiling_accepts_complete(self):
        tls = [make([(3, "B")], 10), make([], 10)]
        verify_tiling(tls, 0, 10)
        verify_tiling(tls, 2, 9)

    def test_verify_tiling_empty_window(self):
        verify_tiling([make([], 10)], 4, 4)


@st.composite
def timeline_ops(draw):
    times = draw(
        st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=30)
    )
    times = sorted(times)
    states = draw(
        st.lists(
            st.sampled_from(["A", "B", "C", "D"]),
            min_size=len(times),
            max_size=len(times),
        )
    )
    end = draw(st.integers(min_value=200, max_value=300))
    return list(zip(times, states)), end


@given(timeline_ops())
def test_segments_tile_and_sum(ops_end):
    """Segments always tile [start, end) and durations sum to the span."""
    ops, end = ops_end
    tl = make(ops, end)
    segs = tl.segments()
    assert segs[0].start == 0
    assert segs[-1].end == end
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start
        assert a.state != b.state  # maximality
    assert sum(s.duration for s in segs) == end
    assert sum(tl.durations().values()) == end


@given(timeline_ops(), st.integers(0, 300), st.integers(0, 300))
def test_clip_consistency(ops_end, a, b):
    """Clipped durations equal state_at-integration over the window."""
    ops, end = ops_end
    lo, hi = min(a, b), max(a, b)
    hi = min(hi, end)
    lo = min(lo, hi)
    tl = make(ops, end)
    clipped = tl.clipped_segments(lo, hi)
    assert sum(s.duration for s in clipped) == hi - lo
    for seg in clipped:
        assert tl.state_at(seg.start) == seg.state


@given(st.lists(timeline_ops(), max_size=4))
def test_segment_arrays_flatten_the_segments(runs):
    """The flat arrays list every timeline's segments in order, states
    coded by their position in the given table (the per-segment
    ``segments()`` walk is the reference)."""
    states = tuple(ProcState)
    letters = dict(zip("ABCD", states))
    timelines = [
        make([(t, letters[s]) for t, s in ops], end, initial=ProcState.RUN)
        for ops, end in runs
    ]
    starts, ends, codes = segment_arrays(timelines, states)
    flat = [
        (start, end, states[code])
        for start, end, code in zip(starts.tolist(), ends.tolist(),
                                    codes.tolist())
        if end > start
    ]
    assert flat == [
        (seg.start, seg.end, seg.state)
        for tl in timelines for seg in tl.segments()
    ]


def test_segment_arrays_reject_unknown_and_unfinalized():
    with pytest.raises(SimulationError, match="'B' is not one of"):
        segment_arrays([make([(3, "B")], 10)], ("A",))
    with pytest.raises(SimulationError, match="not finalized"):
        segment_arrays([StateTimeline("A")], ("A",))
