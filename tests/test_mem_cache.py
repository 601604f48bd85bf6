"""L1 cache: geometry, LRU, speculative-bit lifecycle."""

from __future__ import annotations

import gc

from hypothesis import given, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import _EMPTY_SET, L1Cache
from repro.sim.stats import StatsRegistry


def make_cache(size=1024, line=64, ways=2, stats=None):
    """Default test cache: 1 KB / 64 B / 2-way = 8 sets.  Pass
    ``stats`` to read its counters."""
    return L1Cache(CacheConfig(size_bytes=size, line_bytes=line, ways=ways), 0,
                   StatsRegistry() if stats is None else stats)


def _speculative(view):
    return view.spec_read or view.spec_written


class TestGeometryAndLookup:
    def test_set_index_wraps(self):
        cache = make_cache()  # 8 sets: a line's low three bits pick its set
        for line in (0, 7, 8, 17):
            cache.fill(line)
        assert [sorted(set_) for set_ in cache._sets] == [
            [0, 8], [17], [], [], [], [], [], [7]
        ]

    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(5) is None
        cache.fill(5)
        assert cache.contains(5)
        assert cache.touch(5) is True

    def test_fill_idempotent(self):
        cache = make_cache()
        cache.fill(5)
        assert cache.fill(5) is None
        assert cache.occupancy() == 1


class TestReplacement:
    def test_lru_eviction_within_set(self):
        cache = make_cache()  # 2 ways
        cache.fill(0)   # set 0
        cache.fill(8)   # set 0
        cache.touch(0)  # 0 is now MRU
        victim = cache.fill(16)  # set 0 again
        assert victim == 8
        assert cache.contains(0)
        assert not cache.contains(8)

    def test_no_cross_set_eviction(self):
        cache = make_cache()
        cache.fill(0)
        cache.fill(1)
        cache.fill(2)
        assert cache.occupancy() == 3

    def test_non_speculative_preferred_as_victim(self):
        cache = make_cache()
        cache.fill(0)
        cache.fill(8)
        cache.mark_spec_read(0)
        cache.touch(0)
        cache.touch(8)  # 8 is MRU and non-spec; 0 is LRU but speculative
        victim = cache.fill(16)
        assert victim == 8  # the non-speculative line goes first

    def test_speculative_eviction_as_last_resort(self):
        stats = StatsRegistry()
        cache = make_cache(stats=stats)
        cache.fill(0)
        cache.fill(8)
        cache.mark_spec_read(0)
        cache.mark_spec_written(8)
        victim = cache.fill(16)
        assert victim in (0, 8)  # allowed: conflict detection survives
        assert stats.counters()["proc0.cache.spec_evictions"] == 1


class TestSpeculativeBits:
    def test_mark_requires_residency(self):
        cache = make_cache()
        cache.mark_spec_read(3)  # absent: silently ignored
        cache.fill(3)
        cache.mark_spec_read(3)
        entry = cache.lookup(3)
        assert entry.spec_read and not entry.spec_written

    def test_fill_with_spec_read_matches_fill_then_mark(self):
        # A transactional load's fill installs the line with its SR bit;
        # that must equal a plain fill followed by mark_spec_read, for a
        # new line and for a resident store-allocated (partial) one.
        for resident_partial in (False, True):
            one, two = make_cache(), make_cache()
            for cache in (one, two):
                cache.fill(8)  # the other way of set 0
                if resident_partial:
                    cache.fill(0, partial=True)
                    cache.mark_spec_written(0)
            one.fill(0, spec_read=True)
            two.fill(0)
            two.mark_spec_read(0)
            assert one.lookup(0) == two.lookup(0)
            assert one.lookup(0).spec_read and not one.lookup(0).partial

    def test_fill_with_spec_written_matches_fill_then_mark(self):
        # A transactional store allocates its line with the SM bit set;
        # that must equal a partial fill followed by mark_spec_written,
        # for a new line and for resident complete and partial ones.
        for resident in (None, "complete", "partial"):
            one, two = make_cache(), make_cache()
            for cache in (one, two):
                cache.fill(8)  # the other way of set 0
                if resident is not None:
                    cache.fill(0, partial=resident == "partial")
                    cache.mark_spec_read(0)
            assert one.fill(0, partial=True, spec_written=True) == two.fill(
                0, partial=True
            )
            two.mark_spec_written(0)
            assert one.lookup(0) == two.lookup(0)
            assert one.lookup(0).spec_written
            assert one.lookup(8) == two.lookup(8)

    def test_clear_on_commit_keeps_lines(self):
        cache = make_cache()
        cache.fill(1)
        cache.fill(2)
        cache.mark_spec_read(1)
        cache.mark_spec_written(2)
        cache.clear_speculative([1, 2], commit=True)
        assert cache.contains(1) and cache.contains(2)
        assert not _speculative(cache.lookup(1))
        assert not _speculative(cache.lookup(2))

    def test_clear_on_abort_drops_written_lines(self):
        cache = make_cache()
        cache.fill(1)
        cache.fill(2)
        cache.mark_spec_read(1)
        cache.mark_spec_written(2)
        cache.clear_speculative([1, 2], commit=False)
        assert cache.contains(1)          # read data still mirrors memory
        assert not cache.contains(2)      # written data was never real
        assert not _speculative(cache.lookup(1))

    def test_clear_tolerates_absent_lines(self):
        cache = make_cache()
        cache.clear_speculative([1, 2, 3], commit=False)


class TestInvalidation:
    def test_invalidate_resident(self):
        cache = make_cache()
        cache.fill(4)
        assert cache.invalidate(4)
        assert not cache.contains(4)

    def test_invalidate_absent(self):
        cache = make_cache()
        assert not cache.invalidate(4)

    def test_invalidate_lines_counts_resident_lines(self):
        stats = StatsRegistry()
        cache = make_cache(stats=stats)
        for line in (1, 2, 9):
            cache.fill(line)
        assert cache.invalidate_lines((1, 3, 9, 1, 17)) == 2  # 3, 17 absent
        assert stats.counters()["proc0.cache.invalidations"] == 2
        assert [line for line in (1, 2, 9) if cache.contains(line)] == [2]
        assert cache.invalidate_lines(()) == 0
        assert stats.counters()["proc0.cache.invalidations"] == 2


class TestLazySets:
    """Every set reads as one shared empty mapping until its first fill."""

    def test_new_cache_allocates_no_set_dict(self):
        for cache in (make_cache(), L1Cache(CacheConfig(), 0, StatsRegistry())):
            assert all(set_ is _EMPTY_SET for set_ in cache._sets)
        assert len(_EMPTY_SET) == 0

    def test_reads_and_drops_leave_untouched_sets_shared(self):
        cache = make_cache()
        cache.fill(1)
        assert cache.lookup(2) is None and cache.touch(2) is False
        assert cache.touch_read(2) is False
        assert not cache.contains(3)
        assert not cache.invalidate(2)
        assert cache.invalidate_lines([2, 3, 4]) == 0
        cache.mark_spec_read(5)
        cache.mark_spec_written(6)
        cache.clear_speculative([2, 3, 7], commit=False)
        cache.clear_speculative([2, 3, 7], commit=True)
        assert [set_ is _EMPTY_SET for set_ in cache._sets] == [
            index != 1 for index in range(8)
        ]
        assert len(_EMPTY_SET) == 0
        assert cache.occupancy() == 1

    def test_first_fill_gives_a_set_its_own_dict(self):
        cache = make_cache()
        cache.fill(3)
        cache.fill(11)  # same set
        assert cache._sets[3] is not _EMPTY_SET
        assert sorted(cache._sets[3]) == [3, 11]
        assert len(_EMPTY_SET) == 0


class _RefCache:
    """Reference model: per-set LRU list of lines with SR/SM/partial
    flags, evicting the oldest non-speculative line first."""

    def __init__(self, sets, ways):
        self.sets = [dict() for _ in range(sets)]  # line -> [sr, sm, partial]
        self.order = [[] for _ in range(sets)]  # LRU order, oldest first
        self.ways = ways
        self.n = sets
        self.counts = dict.fromkeys(
            ("evictions", "spec_evictions", "fills", "invalidations"), 0
        )

    def _use(self, line):
        s = line % self.n
        self.order[s].remove(line)
        self.order[s].append(line)

    def fill(self, line, partial=False, spec_read=False, spec_written=False):
        s = line % self.n
        flags = self.sets[s].get(line)
        if flags is not None:
            self._use(line)
            flags[0] |= spec_read
            flags[1] |= spec_written
            flags[2] &= partial
            return None
        victim = None
        if len(self.sets[s]) >= self.ways:
            non_spec = [
                l for l in self.order[s] if not any(self.sets[s][l][:2])
            ]
            victim = non_spec[0] if non_spec else self.order[s][0]
            del self.sets[s][victim]
            self.order[s].remove(victim)
            self.counts["evictions"] += 1
            self.counts["spec_evictions"] += not non_spec
        self.sets[s][line] = [spec_read, spec_written, partial]
        self.order[s].append(line)
        self.counts["fills"] += 1
        return victim

    def touch(self, line, read=False):
        flags = self.sets[line % self.n].get(line)
        if flags is None:
            return False
        self._use(line)
        if flags[2]:
            return False
        flags[0] |= read
        return True

    def mark(self, line, bit):
        flags = self.sets[line % self.n].get(line)
        if flags is not None:
            flags[bit] = True

    def clear_speculative(self, lines, commit):
        for line in lines:
            s = line % self.n
            flags = self.sets[s].get(line)
            if flags is None:
                continue
            if not commit and flags[1]:
                del self.sets[s][line]
                self.order[s].remove(line)
            else:
                flags[0] = flags[1] = False

    def invalidate_lines(self, lines):
        dropped = 0
        for line in lines:
            s = line % self.n
            if line in self.sets[s]:
                del self.sets[s][line]
                self.order[s].remove(line)
                dropped += 1
        self.counts["invalidations"] += dropped
        return dropped

    def state(self):
        return {
            line: tuple(flags) for set_ in self.sets for line, flags in set_.items()
        }


def _lines(line, bits):
    """The one to four lines a clear or an invalidation names."""
    return [(line + 3 * i) % 16 for i in range(1 + bits % 4)]


def _run(cache, op):
    """Run one generated ``(kind, line, bits)`` op on an L1Cache."""
    kind, line, bits = op
    if kind == "fill":
        return cache.fill(line, bool(bits & 1), bool(bits & 2), bool(bits & 4))
    if kind == "touch":
        return cache.touch(line)
    if kind == "touch_read":
        return cache.touch_read(line)
    if kind == "mark_read":
        return cache.mark_spec_read(line)
    if kind == "mark_written":
        return cache.mark_spec_written(line)
    if kind == "clear":
        return cache.clear_speculative(_lines(line, bits), commit=bits >= 8)
    return cache.invalidate_lines(_lines(line, bits))


def _run_ref(ref, op):
    """The same op on the reference model."""
    kind, line, bits = op
    if kind == "fill":
        return ref.fill(line, bool(bits & 1), bool(bits & 2), bool(bits & 4))
    if kind in ("touch", "touch_read"):
        return ref.touch(line, read=kind == "touch_read")
    if kind in ("mark_read", "mark_written"):
        return ref.mark(line, int(kind == "mark_written"))
    if kind == "clear":
        return ref.clear_speculative(_lines(line, bits), commit=bits >= 8)
    return ref.invalidate_lines(_lines(line, bits))


def _check_same(cache, stats, ref):
    """Residency, flags, LRU order and counters agree; no filled set is
    tracked by the collector."""
    got = {}
    for line in (line for set_ in cache._sets for line in set_):
        view = cache.lookup(line)
        got[line] = (view.spec_read, view.spec_written, view.partial)
    assert got == ref.state()
    for index, set_ in enumerate(cache._sets):
        assert sorted(set_, key=lambda l: cache.lookup(l).last_use) == ref.order[index]
        assert set_ is _EMPTY_SET or not gc.is_tracked(set_)
    counters = stats.counters()
    for name, count in ref.counts.items():
        assert counters.get(f"proc0.cache.{name}", 0) == count, name


_KINDS = ("fill", "touch", "touch_read", "mark_read", "mark_written", "clear",
          "invalidate")


def _ops(blob, kinds=_KINDS):
    """Two drawn bytes per op -> ``(kind, line, bits)``.  16 lines over
    4 sets of 2 ways, so sets overflow and lines recur; ``bits`` holds a
    fill's partial/SR/SM flags, or a clear's commit flag and how many
    lines it names.  One binary draw per sequence keeps long sequences
    cheap to generate."""
    codes = (blob[i] << 8 | blob[i + 1] for i in range(0, len(blob) - 1, 2))
    return [
        (kinds[code % len(kinds)], code // 8 % 16, code // 128 % 16)
        for code in codes
    ]


#: 50 to 120 ops of any kind
_CACHE_OPS = st.binary(min_size=100, max_size=240).map(_ops)
#: what a warm sweep does: complete fills and touches, no speculation,
#: 10 to 60 ops
_CLEAN_OPS = st.binary(min_size=20, max_size=120).map(
    lambda blob: [(kind, line, 0) for kind, line, _ in _ops(blob, ("fill", "touch"))]
)


# Sequences are long because a line must be filled before a later op
# on it shows anything.
@given(_CACHE_OPS)
def test_cache_matches_reference_model(ops):
    """Every result agrees with a straightforward reference LRU, and so
    do flags, LRU order and counters at the end."""
    stats = StatsRegistry()
    cache = make_cache(size=512, line=64, ways=2, stats=stats)  # 4 sets
    ref = _RefCache(sets=4, ways=2)
    for op in ops:
        assert _run(cache, op) == _run_ref(ref, op), op
    _check_same(cache, stats, ref)


@given(_CLEAN_OPS, _CACHE_OPS)
def test_clean_lines_round_trip_picks_the_same_victims(warm, ops):
    """A fresh cache refilled from clean_lines() behaves as the
    original under any follow-up sequence."""
    original = make_cache(size=512, line=64, ways=2)
    for op in warm:
        _run(original, op)
    copy = make_cache(size=512, line=64, ways=2)
    copy.install_clean(original.clean_lines(), original._use_clock)
    for set_ in copy._sets:
        assert set_ is _EMPTY_SET or not gc.is_tracked(set_)
    for op in ops:
        assert _run(copy, op) == _run(original, op), op
    assert [list(s.items()) for s in copy._sets] == [
        list(s.items()) for s in original._sets
    ]


class TestPartialLines:
    """Store-allocated lines hold only written words (per-word valid
    bits in hardware); see the serializability bug note in the class
    docstring of LineView."""

    def test_partial_fill_marks_partial(self):
        cache = make_cache()
        cache.fill(3, partial=True)
        assert cache.lookup(3).partial

    def test_completing_fill_upgrades(self):
        cache = make_cache()
        cache.fill(3, partial=True)
        cache.fill(3)  # data arrives
        assert not cache.lookup(3).partial

    def test_partial_fill_does_not_downgrade(self):
        cache = make_cache()
        cache.fill(3)               # complete line
        cache.fill(3, partial=True)  # a store on a complete line
        assert not cache.lookup(3).partial

    def test_partial_survives_until_completed(self):
        cache = make_cache()
        cache.fill(3, partial=True)
        cache.touch(3)
        assert cache.lookup(3).partial

    def test_touch_reports_a_partial_line_unusable_but_stamps_it(self):
        cache = make_cache()
        cache.fill(0, partial=True)
        cache.fill(8)  # the other way of set 0
        assert cache.touch(0) is False
        assert cache.touch_read(0) is False
        assert not cache.lookup(0).spec_read
        assert cache.fill(16) == 8  # 0 was used more recently

    def test_touch_read_sets_sr_on_a_usable_hit(self):
        cache = make_cache()
        cache.fill(3)
        assert cache.touch_read(3) is True
        assert cache.lookup(3).spec_read and not cache.lookup(3).spec_written
