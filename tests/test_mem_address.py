"""Address geometry, the processor's line math and directory homing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.config import GatingConfig, SystemConfig
from repro.errors import MemoryModelError, ProtocolError
from repro.htm.machine import Machine
from repro.htm.ops import Load, Store, TxOp
from repro.htm.program import ThreadProgram
from repro.mem.address import WORD_BYTES, AddressMap


def make_map(num_dirs=4, line_bytes=64, memory=1 << 20) -> AddressMap:
    return AddressMap(line_bytes=line_bytes, num_dirs=num_dirs, memory_bytes=memory)


class TestValidation:
    def test_rejects_unaligned(self):
        amap = make_map()
        with pytest.raises(MemoryModelError):
            amap.check_word_addr(3)

    def test_rejects_out_of_range(self):
        amap = make_map(memory=1024)
        with pytest.raises(MemoryModelError):
            amap.check_word_addr(1024)
        with pytest.raises(MemoryModelError):
            amap.check_word_addr(-8)

    def test_accepts_last_word(self):
        amap = make_map(memory=1024)
        assert amap.check_word_addr(1016) == 1016

    def test_bad_geometry(self):
        with pytest.raises(MemoryModelError):
            AddressMap(line_bytes=60, num_dirs=4, memory_bytes=1 << 20)
        with pytest.raises(MemoryModelError):
            AddressMap(line_bytes=64, num_dirs=0, memory_bytes=1 << 20)
        with pytest.raises(MemoryModelError):
            AddressMap(line_bytes=64, num_dirs=4, memory_bytes=32)


def one_processor(program, num_dirs):
    config = SystemConfig(
        num_procs=1, num_dirs=num_dirs, gating=GatingConfig(enabled=False)
    )
    return Machine(config, [ThreadProgram(program)])


def run_loads(addrs, num_dirs=4):
    """One processor loading ``addrs`` in order on a ``num_dirs`` machine."""

    def program(ctx):
        for addr in addrs:
            yield Load(addr)

    machine = one_processor(program, num_dirs)
    return machine, machine.run()


def commit_flushes(lines, num_dirs):
    """One transaction writing one word of each of ``lines``: the
    ``(directory, lines)`` flush requests its commit sends."""

    def program(ctx):
        def body(tx):
            for line in lines:
                yield Store(line * 64, 1)

        yield TxOp(body, site="w")

    machine = one_processor(program, num_dirs)
    flushes = []
    for directory in machine.dirs:
        def record(proc, tid, flushed, *rest, _home=directory.dir_id,
                   _receive=directory.receive_flush_request):
            flushes.append((_home, flushed))
            _receive(proc, tid, flushed, *rest)

        directory.receive_flush_request = record
    machine.run()
    return flushes


def homes_accepting(machine, line):
    """Ids of the directories whose home check accepts ``line``."""
    homes = []
    for directory in machine.dirs:
        try:
            directory._check_home((line,))
        except ProtocolError:
            continue
        homes.append(directory.dir_id)
    return homes


class TestLineMath:
    def test_line_of(self):
        """The processor caches the line ``addr // line_bytes``: 0 and 56
        share line 0, 64 starts line 1 and 6400 is line 100."""
        machine, result = run_loads([0, 56, 64, 6400])
        cache = machine.procs[0].cache
        assert all(cache.contains(line) for line in (0, 1, 100))
        counters = result.counters()
        assert counters["proc0.cache.misses"] == 3
        assert counters["proc0.cache.hits"] == 1


class TestHoming:
    def test_lines_by_home_groups_and_sorts(self):
        """A commit sends one flush per home directory, in directory
        order, each carrying its lines sorted."""
        assert commit_flushes([5, 2, 4, 3, 2], num_dirs=2) == [
            (0, (2, 4)), (1, (3, 5))
        ]

    def test_interleaving(self):
        machine, _ = run_loads([], num_dirs=4)
        assert [homes_accepting(machine, line) for line in range(8)] == [
            [0], [1], [2], [3], [0], [1], [2], [3]
        ]

    def test_home_of_addr(self):
        """A miss on ``64 * 5`` registers the sharer at directory 1."""
        machine, _ = run_loads([64 * 5], num_dirs=4)
        assert [d.sharers_of(5) for d in machine.dirs] == [
            frozenset(), frozenset({0}), frozenset(), frozenset()
        ]


@given(
    addr=st.integers(min_value=0, max_value=(1 << 20) - WORD_BYTES).map(
        lambda a: a - a % WORD_BYTES
    ),
    num_dirs=st.integers(min_value=1, max_value=32),
)
def test_every_word_has_exactly_one_home(addr, num_dirs):
    machine, _ = run_loads([], num_dirs=num_dirs)
    line = addr // 64
    (home,) = homes_accepting(machine, line)
    # all words of the line share the home
    for word in range(line * 64, line * 64 + 64, WORD_BYTES):
        assert homes_accepting(machine, word // 64) == [home]


@given(st.lists(st.integers(0, 1023), max_size=60), st.integers(1, 16))
def test_lines_by_home_is_a_partition(lines, num_dirs):
    flushes = commit_flushes(lines, num_dirs)
    flattened = [line for _home, group in flushes for line in group]
    assert sorted(flattened) == sorted(set(lines))
    for home, group in flushes:
        assert list(group) == sorted(group)
        for line in group:
            assert line % num_dirs == home
