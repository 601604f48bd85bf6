"""Private L1 data cache with TCC speculative state bits.

Table II: 64 KB, 64-byte lines, 2-way set associative, 1-cycle hits.

The cache is a *timing* model: data values live in the functional
memory (committed state) and the transaction's store buffer
(speculative state), exactly mirroring a TCC machine where speculative
stores sit in the store-address FIFO / write buffer rather than being
globally visible.  The cache decides hit-vs-miss, tracks per-line
speculatively-read (SR) and speculatively-modified (SM) bits, and
applies LRU replacement.

Replacement of speculative lines is *allowed* and safe: conflict
detection does not depend on cache residency because (a) the directory
keeps the sharer registration until the next invalidation, so an
evicted speculative reader still receives the abort, and (b) store data
lives in the bounded store buffer (the paper's 1024-entry store-address
FIFO).  Evictions of speculative lines are counted in the statistics;
store-buffer overflow is enforced by the transaction layer.

On abort, speculatively-modified lines are invalidated (their contents
were never architectural); speculatively-read lines stay valid since
they still mirror committed memory.  On commit both kinds survive with
their speculative bits cleared — the committer becomes the line owner.

Each resident line is one int in its set's dict, ``line id -> state``::

    state = last_use << 3 | partial << 2 | SM << 1 | SR

``last_use`` is the LRU stamp, a per-cache use clock that every touch
and fill advances, so no two resident lines share one.  A fill stores
an int and allocates no object, and a dict of ints is never tracked by
the garbage collector.  Replacing a value keeps the key's position in
its dict, so the victim scan walks a set in fill order whatever was
touched since.  :meth:`L1Cache.lookup` decodes a line into a
:class:`LineView` for tests and debugging; no simulated path builds
one.

Sets are allocated lazily: every set starts as one shared, read-only
empty mapping and gets its own dict on its first fill, so building a
cache (512 sets in the Table II geometry) allocates no per-set dict.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from ..config import CacheConfig
from ..sim.stats import StatsRegistry

__all__ = ["L1Cache", "LineView"]

#: what every set reads as until its first fill (never written to)
_EMPTY_SET: Mapping[int, int] = MappingProxyType({})


class LineView(NamedTuple):
    """A decoded copy of one resident line (tags only — data is
    functional).

    ``partial`` marks a line allocated by a *store* without a directory
    fill: it conceptually holds only the written words (per-word valid
    bits in hardware).  Loads of other words in a partial line must
    take the miss path — both for data (the cache never had those
    words) and for conflict tracking (only a directory fill registers
    the processor as a sharer).  A completing fill clears the flag.
    """

    line: int
    spec_read: bool
    spec_written: bool
    partial: bool
    last_use: int


class L1Cache:
    """Set-associative, LRU, write-allocate (into the store buffer)."""

    def __init__(self, config: CacheConfig, proc_id: int, stats: StatsRegistry):
        self._config = config
        self._proc_id = proc_id
        self._set_mask = config.num_sets - 1
        self._ways = config.ways
        # set index -> {line id -> packed state}; _EMPTY_SET until the
        # set's first fill
        self._sets: list[Mapping[int, int]] = [_EMPTY_SET] * config.num_sets
        self._use_clock = 0
        # Counter handles bound once; the access paths must not build
        # per-access dotted-name strings (see repro.sim.stats).
        prefix = f"proc{proc_id}.cache"
        self._c_evictions = stats.counter(f"{prefix}.evictions")
        self._c_spec_evictions = stats.counter(f"{prefix}.spec_evictions")
        self._c_fills = stats.counter(f"{prefix}.fills")
        self._c_invalidations = stats.counter(f"{prefix}.invalidations")

    # ------------------------------------------------------------------
    def lookup(self, line: int) -> LineView | None:
        """Decode the resident line (without touching LRU state)."""
        state = self._sets[line & self._set_mask].get(line)
        if state is None:
            return None
        return LineView(
            line, bool(state & 1), bool(state & 2), bool(state & 4), state >> 3
        )

    def contains(self, line: int) -> bool:
        return line in self._sets[line & self._set_mask]

    # ------------------------------------------------------------------
    # The access paths spell the state layout as literals (module
    # docstring): 1 = SR, 2 = SM, 3 = either, 4 = partial, 7 = all flags.
    def touch(self, line: int) -> bool:
        """LRU-touch ``line`` if resident; True on a usable hit
        (resident and not partial)."""
        set_ = self._sets[line & self._set_mask]
        state = set_.get(line)
        if state is None:
            return False
        self._use_clock = clock = self._use_clock + 1
        set_[line] = (clock << 3) | (state & 7)
        return not state & 4

    def touch_read(self, line: int) -> bool:
        """:meth:`touch` for a transactional load: a usable hit also
        sets the line's SR bit."""
        set_ = self._sets[line & self._set_mask]
        state = set_.get(line)
        if state is None:
            return False
        self._use_clock = clock = self._use_clock + 1
        if state & 4:
            set_[line] = (clock << 3) | (state & 7)
            return False
        set_[line] = (clock << 3) | (state & 7) | 1
        return True

    def fill(
        self,
        line: int,
        partial: bool = False,
        spec_read: bool = False,
        spec_written: bool = False,
    ) -> int | None:
        """Install ``line``; returns the evicted line id, if any.

        ``partial=True`` is the store-allocation path (no data fetched,
        no directory registration — see :class:`LineView`).  A
        completing (non-partial) fill upgrades a resident partial line;
        a partial fill never downgrades a complete one.  ``spec_read``
        and ``spec_written`` set the installed line's SR and SM bits (a
        transactional load's fill, a transactional store's allocation),
        as :meth:`mark_spec_read` and :meth:`mark_spec_written` would
        right after the fill.

        Idempotent for resident lines.  Victim selection prefers an
        empty way, then non-speculative LRU, then speculative LRU (see
        module docstring for why evicting speculative state is safe).
        """
        index = line & self._set_mask
        set_ = self._sets[index]
        state = set_.get(line)
        self._use_clock = clock = self._use_clock + 1
        if state is not None:
            set_[line] = (
                (clock << 3) | (state & (7 if partial else 3))
                | (spec_written << 1) | spec_read
            )
            return None

        victim: int | None = None
        if set_ is _EMPTY_SET:
            set_ = self._sets[index] = {}
        elif len(set_) >= self._ways:
            # Allocation-free victim scan: oldest non-speculative way,
            # falling back to the oldest speculative one.  Ties keep the
            # first-seen line, matching min() over fill order.
            spec_victim: int | None = None
            oldest = spec_oldest = 0
            for other, state in set_.items():
                stamp = state >> 3
                if state & 3:
                    if spec_victim is None or stamp < spec_oldest:
                        spec_victim, spec_oldest = other, stamp
                elif victim is None or stamp < oldest:
                    victim, oldest = other, stamp
            if victim is None:
                victim = spec_victim
                self._c_spec_evictions.value += 1
            del set_[victim]
            self._c_evictions.value += 1

        set_[line] = (
            (clock << 3) | (partial << 2) | (spec_written << 1) | spec_read
        )
        self._c_fills.value += 1
        return victim

    def clean_lines(self) -> list[int]:
        """Resident lines with their LRU stamps, flat: ``[line,
        last_use, ...]`` in set order, each set in fill order.

        The warm-state capture: before any transaction every line is
        clean, so the speculative and partial bits are not recorded.
        """
        out: list[int] = []
        for set_ in self._sets:
            for line, state in set_.items():
                out += (line, state >> 3)
        return out

    def install_clean(self, lines: list[int], use_clock: int) -> None:
        """Refill an empty cache from :meth:`clean_lines` output."""
        sets = self._sets
        mask = self._set_mask
        pairs = iter(lines)
        for line, last_use in zip(pairs, pairs):
            set_ = sets[line & mask]
            if set_ is _EMPTY_SET:
                set_ = sets[line & mask] = {}
            set_[line] = last_use << 3
        self._use_clock = use_clock

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` (coherence invalidation); True if it was resident."""
        return self.invalidate_lines((line,)) == 1

    def invalidate_lines(self, lines) -> int:
        """Drop every resident line of ``lines`` (one invalidation
        message); returns how many were resident."""
        sets = self._sets
        mask = self._set_mask
        dropped = 0
        for line in lines:
            set_ = sets[line & mask]
            if line in set_:
                del set_[line]
                dropped += 1
        if dropped:
            self._c_invalidations.value += dropped
        return dropped

    # ------------------------------------------------------------------
    # speculative state
    # ------------------------------------------------------------------
    def mark_spec_read(self, line: int) -> None:
        set_ = self._sets[line & self._set_mask]
        state = set_.get(line)
        if state is not None:
            set_[line] = state | 1

    def mark_spec_written(self, line: int) -> None:
        set_ = self._sets[line & self._set_mask]
        state = set_.get(line)
        if state is not None:
            set_[line] = state | 2

    def clear_speculative(self, lines, commit: bool) -> None:
        """End-of-transaction cleanup over the transaction's lines.

        ``commit=True`` keeps everything resident (data now matches
        memory); ``commit=False`` invalidates speculatively-modified
        lines whose contents were never architectural.
        """
        sets = self._sets
        mask = self._set_mask
        for line in lines:
            set_ = sets[line & mask]
            state = set_.get(line)
            if state is None or not state & 3:
                continue
            if not commit and state & 2:
                del set_[line]
            else:
                set_[line] = state & -4

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<L1Cache proc={self._proc_id} {self.occupancy()}/"
            f"{self._config.num_lines} lines>"
        )
