"""Transactional data structures, tested functionally (no simulator).

The generator methods are executed against a plain dict memory by
``run_functional`` — this isolates data-structure logic from HTM
timing, and hypothesis drives them against Python-native references.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.htm.ops import Load, Store
from repro.workloads.base import MemoryLayout
from repro.workloads.structures.array import TArray
from repro.workloads.structures.hashtable import THashTable
from repro.workloads.structures.linkedlist import TNodePool, TSortedList
from repro.workloads.structures.queue import TQueue

from .helpers import collect_ops, run_functional


def fresh():
    return MemoryLayout()


class TestTArray:
    def test_addressing_and_stride(self):
        layout = fresh()
        arr = TArray(layout, 4, stride_words=8, line_aligned=True)
        assert arr.addr(0) % 64 == 0
        assert arr.addr(1) - arr.addr(0) == 64  # one line apart
        assert arr.addr(2, word=3) == arr.addr(2) + 24

    def test_bounds(self):
        arr = TArray(fresh(), 4)
        with pytest.raises(WorkloadError):
            arr.addr(4)
        with pytest.raises(WorkloadError):
            arr.addr(-1)

    def test_get_put_add(self):
        layout = fresh()
        arr = TArray(layout, 3)
        memory: dict[int, int] = {}
        run_functional(arr.put(1, 10), memory)
        assert run_functional(arr.get(1), memory) == 10
        assert run_functional(arr.add(1, 5), memory) == 15
        assert arr.read_final(memory, 1) == 15

    def test_initialize(self):
        layout = fresh()
        arr = TArray(layout, 3)
        arr.initialize(layout, [7, 8, 9])
        assert layout.peek(arr.addr(2)) == 9


class TestTHashTable:
    def test_insert_lookup(self):
        table = THashTable(fresh(), 16)
        memory: dict[int, int] = {}
        assert run_functional(table.insert(5, 50), memory) is True
        assert run_functional(table.insert(5, 99), memory) is False  # present
        assert run_functional(table.lookup(5), memory) == 50
        assert run_functional(table.lookup(6), memory) is None

    def test_update_flag(self):
        table = THashTable(fresh(), 16)
        memory: dict[int, int] = {}
        run_functional(table.insert(5, 50), memory)
        run_functional(table.insert(5, 99, update=True), memory)
        assert run_functional(table.lookup(5), memory) == 99

    def test_increment(self):
        table = THashTable(fresh(), 16)
        memory: dict[int, int] = {}
        assert run_functional(table.increment(7), memory) == 1
        assert run_functional(table.increment(7), memory) == 2
        assert run_functional(table.increment(7, 5), memory) == 7

    def test_key_zero_reserved(self):
        table = THashTable(fresh(), 16)
        with pytest.raises(WorkloadError):
            run_functional(table.insert(0, 1), {})

    def test_full_table_raises(self):
        table = THashTable(fresh(), 4)
        memory: dict[int, int] = {}
        for key in (1, 2, 3, 4):
            run_functional(table.insert(key, key), memory)
        with pytest.raises(WorkloadError, match="full"):
            run_functional(table.insert(5, 5), memory)

    def test_initialize_matches_transactional_inserts(self):
        layout = fresh()
        table = THashTable(layout, 32)
        items = {k: k * 10 for k in (3, 9, 17, 40, 77)}
        table.initialize(layout, items)
        # the image must decode back, and probing must find every key
        assert table.final_items(layout.image) == items
        for key, value in items.items():
            assert run_functional(table.lookup(key), dict(layout.image)) == value

    @settings(max_examples=40)
    @given(st.dictionaries(st.integers(1, 1_000_000), st.integers(0, 1000),
                           max_size=20))
    def test_matches_dict_reference(self, items):
        table = THashTable(fresh(), 64)
        memory: dict[int, int] = {}
        for key, value in items.items():
            run_functional(table.insert(key, value), memory)
        assert table.final_items(memory) == items

    def test_probing_wraps_around(self):
        """Keys colliding near the end of the table wrap to slot 0."""
        table = THashTable(fresh(), 8)
        memory: dict[int, int] = {}
        # Find keys that all hash to the last slot.
        from repro.workloads.base import mix64

        colliders = [k for k in range(1, 4000) if mix64(k) % 8 == 7][:3]
        assert len(colliders) == 3
        for key in colliders:
            run_functional(table.insert(key, key), memory)
        assert table.final_items(memory) == {k: k for k in colliders}


class TestTQueue:
    def test_fifo_order(self):
        layout = fresh()
        queue = TQueue(layout, capacity=8)
        queue.initialize(layout, [])
        memory = dict(layout.image)
        for v in (10, 20, 30):
            assert run_functional(queue.push(v), memory) is True
        assert run_functional(queue.pop(), memory) == 10
        assert run_functional(queue.pop(), memory) == 20
        assert run_functional(queue.pop(), memory) == 30
        assert run_functional(queue.pop(), memory) is None

    def test_capacity_limit(self):
        layout = fresh()
        queue = TQueue(layout, capacity=2)
        queue.initialize(layout, [])
        memory = dict(layout.image)
        assert run_functional(queue.push(1), memory)
        assert run_functional(queue.push(2), memory)
        assert run_functional(queue.push(3), memory) is False

    def test_wraparound(self):
        layout = fresh()
        queue = TQueue(layout, capacity=2)
        queue.initialize(layout, [])
        memory = dict(layout.image)
        for round_ in range(5):
            run_functional(queue.push(round_), memory)
            assert run_functional(queue.pop(), memory) == round_

    def test_prefill(self):
        layout = fresh()
        queue = TQueue(layout, capacity=4)
        queue.initialize(layout, [5, 6])
        memory = dict(layout.image)
        assert queue.final_size(memory) == 2
        assert run_functional(queue.pop(), memory) == 5

    def test_prefill_overflow_rejected(self):
        layout = fresh()
        queue = TQueue(layout, capacity=2)
        with pytest.raises(WorkloadError):
            queue.initialize(layout, [1, 2, 3])

    def test_head_tail_on_distinct_lines(self):
        layout = fresh()
        queue = TQueue(layout, capacity=4)
        assert queue.head_addr // 64 != queue.tail_addr // 64

    @settings(max_examples=40)
    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=60))
    def test_matches_deque_reference(self, ops):
        from collections import deque

        layout = fresh()
        queue = TQueue(layout, capacity=16)
        queue.initialize(layout, [])
        memory = dict(layout.image)
        ref: deque[int] = deque()
        counter = 0
        for op in ops:
            if op == "push":
                counter += 1
                ok = run_functional(queue.push(counter), memory)
                if len(ref) < 16:
                    assert ok
                    ref.append(counter)
                else:
                    assert not ok
            else:
                got = run_functional(queue.pop(), memory)
                expected = ref.popleft() if ref else None
                assert got == expected


class TestSortedList:
    def build(self, capacity=32):
        layout = fresh()
        pool = TNodePool(layout, capacity)
        lst = TSortedList(layout, pool)
        pool.initialize(layout)
        lst.initialize(layout)
        return lst, dict(layout.image)

    def test_sorted_insertion(self):
        lst, memory = self.build()
        for key in (30, 10, 20, 25, 5):
            run_functional(lst.insert(key, key), memory)
        assert lst.final_keys(memory) == [5, 10, 20, 25, 30]

    def test_duplicates_allowed(self):
        lst, memory = self.build()
        for key in (7, 7, 7):
            run_functional(lst.insert(key, 0), memory)
        assert lst.final_keys(memory) == [7, 7, 7]

    def test_pool_exhaustion(self):
        layout = fresh()
        pool = TNodePool(layout, 2)
        lst = TSortedList(layout, pool)
        pool.initialize(layout)
        lst.initialize(layout)
        memory = dict(layout.image)
        run_functional(lst.insert(1, 0), memory)
        run_functional(lst.insert(2, 0), memory)
        with pytest.raises(WorkloadError, match="exhausted"):
            run_functional(lst.insert(3, 0), memory)

    @settings(max_examples=40)
    @given(st.lists(st.integers(1, 100), max_size=25))
    def test_matches_sorted_reference(self, keys):
        lst, memory = self.build(capacity=max(1, len(keys)))
        for key in keys:
            run_functional(lst.insert(key, key), memory)
        assert lst.final_keys(memory) == sorted(keys)

    def test_traversal_reads_prefix(self):
        """Inserting near the tail reads every earlier node (the large
        read-set that makes lists an HTM pathology)."""
        lst, memory = self.build()
        for key in (1, 2, 3, 4):
            run_functional(lst.insert(key, key), memory)
        ops = collect_ops(lst.insert(5, 5), dict(memory))
        loads = [op for op in ops if isinstance(op, Load)]
        assert len(loads) >= 8  # head + 4 nodes x (key, next)


class TestMemoryLayout:
    def test_alloc_is_word_aligned_and_disjoint(self):
        layout = fresh()
        a = layout.alloc_words(3)
        b = layout.alloc_words(5)
        assert a % 8 == 0 and b % 8 == 0
        assert b >= a + 3 * 8

    def test_line_alignment(self):
        layout = fresh()
        layout.alloc_words(1)
        aligned = layout.alloc_words(1, line_aligned=True)
        assert aligned % 64 == 0

    def test_alloc_lines(self):
        layout = fresh()
        base = layout.alloc_lines(2)
        assert base % 64 == 0
        next_base = layout.alloc_words(1, line_aligned=True)
        assert next_base - base == 128

    def test_poke_alignment(self):
        layout = fresh()
        with pytest.raises(WorkloadError):
            layout.poke(3, 1)

    def test_rejects_empty_alloc(self):
        with pytest.raises(WorkloadError):
            fresh().alloc_words(0)
