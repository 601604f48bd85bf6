"""L1 cache: geometry, LRU, speculative-bit lifecycle."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import _EMPTY_SET, L1Cache
from repro.sim.stats import StatsRegistry


def make_cache(size=1024, line=64, ways=2):
    """Default test cache: 1 KB / 64 B / 2-way = 8 sets."""
    return L1Cache(CacheConfig(size_bytes=size, line_bytes=line, ways=ways), 0,
                   StatsRegistry())


class TestGeometryAndLookup:
    def test_set_index_wraps(self):
        cache = make_cache()  # 8 sets
        assert cache.set_index(0) == 0
        assert cache.set_index(7) == 7
        assert cache.set_index(8) == 0
        assert cache.set_index(17) == 1

    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(5) is None
        cache.fill(5)
        assert cache.contains(5)
        assert cache.touch(5) is not None

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
        cache = make_cache()
        cache.fill(0)
        cache.fill(8)
        cache.mark_spec_read(0)
        cache.mark_spec_written(8)
        victim = cache.fill(16)
        assert victim in (0, 8)  # allowed: conflict detection survives
        stats = cache._stats  # noqa: SLF001 - test introspection
        assert stats.counters()["proc0.cache.spec_evictions"] == 1


class TestSpeculativeBits:
    def test_mark_requires_residency(self):
        cache = make_cache()
        cache.mark_spec_read(3)  # absent: silently ignored
        cache.fill(3)
        cache.mark_spec_read(3)
        entry = cache.lookup(3)
        assert entry.spec_read and not entry.spec_written
        assert entry.speculative

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
        assert not cache.lookup(1).speculative
        assert not cache.lookup(2).speculative

    def test_clear_on_abort_drops_written_lines(self):
        cache = make_cache()
        cache.fill(1)
        cache.fill(2)
        cache.mark_spec_read(1)
        cache.mark_spec_written(2)
        cache.clear_speculative([1, 2], commit=False)
        assert cache.contains(1)          # read data still mirrors memory
        assert not cache.contains(2)      # written data was never real
        assert not cache.lookup(1).speculative

    def test_clear_tolerates_absent_lines(self):
        cache = make_cache()
        cache.clear_speculative([1, 2, 3], commit=False)

    def test_speculative_lines_iterator(self):
        cache = make_cache()
        for line in (1, 2, 3):
            cache.fill(line)
        cache.mark_spec_read(1)
        cache.mark_spec_written(3)
        assert sorted(cache.speculative_lines()) == [1, 3]


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
        cache = make_cache()
        for line in (1, 2, 9):
            cache.fill(line)
        assert cache.invalidate_lines((1, 3, 9, 1, 17)) == 2  # 3, 17 absent
        assert cache._stats.counters()["proc0.cache.invalidations"] == 2
        assert sorted(cache.resident_lines()) == [2]
        assert cache.invalidate_lines(()) == 0
        assert cache._stats.counters()["proc0.cache.invalidations"] == 2


class TestLazySets:
    """Every set reads as one shared empty mapping until its first fill."""

    def test_new_cache_allocates_no_set_dict(self):
        for cache in (make_cache(), L1Cache(CacheConfig(), 0, StatsRegistry())):
            assert all(set_ is _EMPTY_SET for set_ in cache._sets)
        assert len(_EMPTY_SET) == 0

    def test_reads_and_drops_leave_untouched_sets_shared(self):
        cache = make_cache()
        cache.fill(1)
        assert cache.lookup(2) is None and cache.touch(2) is None
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
    """Reference model: per-set LRU list, evicting non-spec first."""

    def __init__(self, sets, ways):
        self.sets = [dict() for _ in range(sets)]  # line -> spec flag
        self.order = [[] for _ in range(sets)]  # LRU order, oldest first
        self.ways = ways
        self.n = sets

    def fill(self, line):
        s = line % self.n
        if line in self.sets[s]:
            self.order[s].remove(line)
            self.order[s].append(line)
            return None
        victim = None
        if len(self.sets[s]) >= self.ways:
            non_spec = [l for l in self.order[s] if not self.sets[s][l]]
            victim = non_spec[0] if non_spec else self.order[s][0]
            del self.sets[s][victim]
            self.order[s].remove(victim)
        self.sets[s][line] = False
        self.order[s].append(line)
        return victim

    def touch(self, line):
        s = line % self.n
        if line in self.sets[s]:
            self.order[s].remove(line)
            self.order[s].append(line)
            return True
        return False

    def mark(self, line):
        s = line % self.n
        if line in self.sets[s]:
            self.sets[s][line] = True


@given(
    st.lists(
        st.tuples(st.sampled_from(["fill", "touch", "mark"]), st.integers(0, 31)),
        max_size=200,
    )
)
def test_cache_matches_reference_model(ops):
    """Residency and victims agree with a straightforward reference LRU."""
    cache = make_cache(size=512, line=64, ways=2)  # 4 sets
    ref = _RefCache(sets=4, ways=2)
    for op, line in ops:
        if op == "fill":
            assert cache.fill(line) == ref.fill(line)
        elif op == "touch":
            assert (cache.touch(line) is not None) == ref.touch(line)
        else:
            cache.mark_spec_read(line)
            ref.mark(line)
    resident = sorted(cache.resident_lines())
    ref_resident = sorted(l for s in ref.sets for l in s)
    assert resident == ref_resident


class TestPartialLines:
    """Store-allocated lines hold only written words (per-word valid
    bits in hardware); see the serializability bug note in the class
    docstring of CacheLineState."""

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
