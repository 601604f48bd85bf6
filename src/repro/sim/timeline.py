"""Per-processor state timelines.

The energy model of the paper (Section IV) is a pure function of *how
long each processor spent in each power state*.  The simulator therefore
records, for every processor, the exact sequence of state changes as
``(cycle, state)`` change-points; the power layer later integrates these
against Table I power factors (directly, and through the paper's
interval formulation Eqs. (1)–(5) — both must agree).

States are deliberately kept as plain strings/enums owned by the caller;
the timeline is a generic change-point recorder so it can be unit- and
property-tested independently of the HTM.

Recording is run-length by construction — only *changes* are stored,
as parallel ``times``/``states`` lists.  :func:`segment_arrays` flattens
the segments of a whole run's finalized timelines into numpy arrays in
one C-level pass per list, which is what the energy layer sweeps
instead of per-segment Python objects (:mod:`repro.power.energy`;
measured by ``repro bench bench_timeline``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Generic, Hashable, Sequence, TypeVar

import numpy as np

from ..errors import SimulationError

__all__ = ["Segment", "StateTimeline", "segment_arrays", "verify_tiling"]

S = TypeVar("S", bound=Hashable)


@dataclass(frozen=True)
class Segment(Generic[S]):
    """A maximal interval ``[start, end)`` during which ``state`` held."""

    start: int
    end: int
    state: S

    @property
    def duration(self) -> int:
        return self.end - self.start


class StateTimeline(Generic[S]):
    """Records state change-points for one entity (one processor).

    Changes must be recorded in non-decreasing time order.  Recording
    the same state again is a no-op (segments stay maximal), and several
    changes at the same cycle collapse to the last one (zero-length
    segments are dropped at finalisation).
    """

    __slots__ = ("_times", "_states", "_finalized_end")

    def __init__(self, initial_state: S, start: int = 0) -> None:
        self._times: list[int] = [start]
        self._states: list[S] = [initial_state]
        self._finalized_end: int | None = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_state(self, time: int, state: S) -> None:
        """Record that the entity is in ``state`` from ``time`` onwards."""
        if self._finalized_end is not None:
            raise SimulationError("cannot record into a finalized timeline")
        last_time = self._times[-1]
        if time < last_time:
            raise SimulationError(
                f"timeline updates must be time-ordered ({time} < {last_time})"
            )
        if state == self._states[-1]:
            return
        if time == last_time:
            # Same-cycle re-decision: the later state wins.
            self._states[-1] = state
            # Collapse with the previous segment if it had the same state.
            if len(self._states) >= 2 and self._states[-2] == state:
                self._times.pop()
                self._states.pop()
            return
        self._times.append(time)
        self._states.append(state)

    @property
    def current_state(self) -> S:
        return self._states[-1]

    def finalize(self, end: int) -> None:
        """Close the timeline at cycle ``end`` (idempotent)."""
        if self._finalized_end is not None:
            if self._finalized_end != end:
                raise SimulationError(
                    f"timeline already finalized at {self._finalized_end}, "
                    f"cannot re-finalize at {end}"
                )
            return
        if end < self._times[-1]:
            raise SimulationError(
                f"finalize({end}) precedes last change at {self._times[-1]}"
            )
        self._finalized_end = end

    @property
    def finalized(self) -> bool:
        return self._finalized_end is not None

    @property
    def end(self) -> int:
        if self._finalized_end is None:
            raise SimulationError("timeline not finalized")
        return self._finalized_end

    @property
    def start(self) -> int:
        return self._times[0]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def segments(self) -> list[Segment[S]]:
        """Maximal constant-state segments tiling ``[start, end)``."""
        end = self.end
        out: list[Segment[S]] = []
        for i, (t, s) in enumerate(zip(self._times, self._states)):
            seg_end = self._times[i + 1] if i + 1 < len(self._times) else end
            if seg_end > t:
                out.append(Segment(t, seg_end, s))
        return out

    def clipped_segments(self, lo: int, hi: int) -> list[Segment[S]]:
        """Segments intersected with the window ``[lo, hi)``.

        The energy equations are evaluated over the *parallel section*
        only (first transaction start to last transaction end), so the
        power layer clips every timeline to that window.
        """
        if hi < lo:
            raise SimulationError(f"invalid clip window [{lo}, {hi})")
        out: list[Segment[S]] = []
        for seg in self.segments():
            start = max(seg.start, lo)
            end = min(seg.end, hi)
            if end > start:
                out.append(Segment(start, end, seg.state))
        return out

    def state_at(self, time: int) -> S:
        """State in effect at cycle ``time`` (segments are [start, end))."""
        if time < self._times[0]:
            raise SimulationError(f"t={time} precedes timeline start")
        # Binary search over change-points.
        lo, hi = 0, len(self._times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._times[mid] <= time:
                lo = mid
            else:
                hi = mid - 1
        return self._states[lo]

    def durations(self, lo: int | None = None, hi: int | None = None) -> dict[S, int]:
        """Total cycles per state, optionally restricted to ``[lo, hi)``."""
        if lo is None:
            lo = self.start
        if hi is None:
            hi = self.end
        totals: dict[S, int] = {}
        for seg in self.clipped_segments(lo, hi):
            totals[seg.state] = totals.get(seg.state, 0) + seg.duration
        return totals

    def __len__(self) -> int:
        return len(self._times)


def segment_arrays(
    timelines: Sequence[StateTimeline[S]], states: Sequence[S]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every segment of ``timelines`` as flat arrays (requires finalization).

    Returns ``(starts, ends, codes)``, one entry per change-point, in
    timeline order and then time order: segment ``j`` spans
    ``[starts[j], ends[j])`` in state ``states[codes[j]]``.  ``ends``
    is the next change-point of the same timeline, or its finalized
    end, so a change at that end gives a zero-length segment.

    States are matched to ``states`` by identity (one ``id`` per
    change-point, no ``__hash__`` call), so ``states`` must hold the
    very objects recorded, as enum members are.
    """
    ends_of = [tl.end for tl in timelines]  # raises if not finalized
    counts = [len(tl._times) for tl in timelines]
    total = sum(counts)
    starts = np.fromiter(
        chain.from_iterable(tl._times for tl in timelines),
        dtype=np.int64, count=total,
    )
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[np.cumsum(counts, dtype=np.intp) - 1] = ends_of
    ids = np.fromiter(
        map(id, chain.from_iterable(tl._states for tl in timelines)),
        dtype=np.uintp, count=total,
    )
    known = np.fromiter(map(id, states), dtype=np.uintp, count=len(states))
    order = np.argsort(known)
    slots = np.searchsorted(known[order], ids).clip(max=len(states) - 1)
    codes = order[slots]
    if not np.array_equal(known[codes], ids):
        known_ids = set(map(id, states))
        stray = next(s for tl in timelines for s in tl._states
                     if id(s) not in known_ids)
        raise SimulationError(f"timeline state {stray!r} is not one of {states!r}")
    return starts, ends, codes


def verify_tiling(timelines: Sequence[StateTimeline], lo: int, hi: int) -> None:
    """Assert that every timeline fully tiles ``[lo, hi)`` without gaps.

    Invariant 6 of DESIGN.md.  Called by the harness after each run when
    self-checks are enabled; also exercised directly by tests.

    The change-point representation makes interior gaps structurally
    impossible — consecutive clipped segments share a boundary by
    construction — so the invariant reduces to a constant-time coverage
    check per timeline: the recording must begin at or before ``lo``
    and be finalized at or after ``hi``.
    """
    if hi < lo:
        raise SimulationError(f"invalid clip window [{lo}, {hi})")
    if hi == lo:
        # Zero-width window: nothing to cover, but still insist the
        # timelines are finalized (matching the historical behaviour of
        # walking their clipped segments).
        for tl in timelines:
            tl.end  # noqa: B018 - raises on an unfinalized timeline
        return
    for idx, tl in enumerate(timelines):
        start, end = tl.start, tl.end
        if start >= hi or end <= lo:
            raise SimulationError(f"timeline {idx} empty over [{lo}, {hi})")
        if start > lo or end < hi:
            raise SimulationError(
                f"timeline {idx} does not cover [{lo}, {hi}): "
                f"covers [{max(start, lo)}, {min(end, hi)})"
            )
