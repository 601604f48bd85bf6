"""Microbenchmarks: controlled contention points for tests and ablations.

* ``counter``    — every thread increments one shared counter: maximum
  contention, the minimal futile-abort generator.
* ``bank``       — random transfers between N accounts: tunable
  contention via the account count; conserves total balance.
* ``array_walk`` — disjoint per-thread array updates: zero conflicts,
  the gating protocol must stay entirely idle.
* ``llist``      — sorted linked-list inserts: large read-sets, head
  hot-spot, the classic HTM pathology.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..htm.ops import Compute, TxOp
from ..htm.program import ThreadContext, ThreadProgram
from ..sim.rng import derive_seed
from .base import MemoryLayout, WorkloadInstance
from .builtin import (
    ARRAY_WALK_SCHEMA,
    BANK_SCHEMA,
    COUNTER_SCHEMA,
    LLIST_SCHEMA,
    MICRO_SCALES,
)
from .structures.array import TArray
from .structures.linkedlist import TNodePool, TSortedList

__all__ = [
    "build_counter",
    "build_bank",
    "build_array_walk",
    "build_llist",
    "COUNTER_SCHEMA",
    "BANK_SCHEMA",
    "ARRAY_WALK_SCHEMA",
    "LLIST_SCHEMA",
]


def _ops_for(scale: str, override: int | None) -> int:
    if override is not None:
        if override < 1:
            raise WorkloadError("per-thread op count must be positive")
        return override
    try:
        return MICRO_SCALES[scale]
    except KeyError:
        raise WorkloadError(
            f"unknown scale {scale!r}; choose from {sorted(MICRO_SCALES)}"
        ) from None


def build_counter(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    increments: int | None = None,
    work_cycles: int = 5,
) -> WorkloadInstance:
    """Shared-counter increments (maximum contention)."""
    n = _ops_for(scale, increments)
    layout = MemoryLayout()
    counter = TArray(layout, 1, stride_words=8, line_aligned=True,
                     name="counter.cell")
    counter.initialize(layout, [0])

    def body(tx):
        yield Compute(work_cycles)
        yield from counter.add(0, 1)

    def program(ctx: ThreadContext):
        for _ in range(n):
            yield TxOp(body, site="counter.inc")
            yield Compute(3)

    expected = n * num_threads

    def check_total(memory: dict[int, int]) -> None:
        total = counter.read_final(memory, 0)
        if total != expected:
            raise WorkloadError(f"counter: {total} != expected {expected}")

    return WorkloadInstance(
        name="counter",
        scale=scale,
        num_threads=num_threads,
        programs=[ThreadProgram(program, f"counter.t{t}")
                  for t in range(num_threads)],
        initial_memory=dict(layout.image),
        params={"increments_per_thread": n, "expected_total": expected},
        validators=[check_total],
        warm=layout.sweep("counter.warm"),
    )


def build_bank(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    accounts: int = 32,
    transfers: int | None = None,
    initial_balance: int = 1000,
) -> WorkloadInstance:
    """Random account transfers; validator checks balance conservation."""
    n = _ops_for(scale, transfers)
    if accounts < 2:
        raise WorkloadError("bank needs at least two accounts")
    layout = MemoryLayout()
    # One account per line so conflicts are per-account, not per-line-pair.
    ledger = TArray(layout, accounts, stride_words=8, line_aligned=True,
                    name="bank.ledger")
    ledger.initialize(layout, [initial_balance] * accounts)

    def make_transfer(src: int, dst: int, amount: int):
        def body(tx):
            from_balance = yield from ledger.get(src)
            to_balance = yield from ledger.get(dst)
            yield Compute(4)
            yield from ledger.put(src, from_balance - amount)
            yield from ledger.put(dst, to_balance + amount)

        return body

    def program(ctx: ThreadContext):
        rng = np.random.default_rng(
            derive_seed(seed, "bank", ctx.proc_id)
        )
        for _ in range(n):
            src = int(rng.integers(0, accounts))
            dst = int(rng.integers(0, accounts - 1))
            if dst >= src:
                dst += 1
            amount = int(rng.integers(1, 20))
            yield TxOp(make_transfer(src, dst, amount), site="bank.transfer")
            yield Compute(5)

    expected_total = accounts * initial_balance

    def check_conservation(memory: dict[int, int]) -> None:
        total = sum(ledger.read_final(memory, a) for a in range(accounts))
        if total != expected_total:
            raise WorkloadError(
                f"bank: total balance {total} != {expected_total} "
                "(money created or destroyed)"
            )

    return WorkloadInstance(
        name="bank",
        scale=scale,
        num_threads=num_threads,
        programs=[ThreadProgram(program, f"bank.t{t}")
                  for t in range(num_threads)],
        initial_memory=dict(layout.image),
        params={"accounts": accounts, "transfers_per_thread": n},
        validators=[check_conservation],
        warm=layout.sweep("bank.warm"),
    )


def build_array_walk(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    updates: int | None = None,
    slots_per_thread: int = 16,
) -> WorkloadInstance:
    """Disjoint per-thread updates: the zero-conflict control workload."""
    n = _ops_for(scale, updates)
    layout = MemoryLayout()
    arr = TArray(layout, num_threads * slots_per_thread, stride_words=8,
                 line_aligned=True, name="walk.array")
    arr.initialize(layout, [0] * (num_threads * slots_per_thread))

    def make_update(index: int):
        def body(tx):
            yield from arr.add(index, 1)

        return body

    def program(ctx: ThreadContext):
        base = ctx.proc_id * slots_per_thread
        for i in range(n):
            yield TxOp(make_update(base + i % slots_per_thread),
                       site="walk.update")
            yield Compute(4)

    def check_sums(memory: dict[int, int]) -> None:
        for t in range(num_threads):
            base = t * slots_per_thread
            total = sum(
                arr.read_final(memory, base + s) for s in range(slots_per_thread)
            )
            if total != n:
                raise WorkloadError(
                    f"array_walk: thread {t} wrote {total} updates, expected {n}"
                )

    return WorkloadInstance(
        name="array_walk",
        scale=scale,
        num_threads=num_threads,
        programs=[ThreadProgram(program, f"walk.t{t}")
                  for t in range(num_threads)],
        initial_memory=dict(layout.image),
        params={"updates_per_thread": n, "slots_per_thread": slots_per_thread},
        validators=[check_sums],
        warm=layout.sweep("walk.warm"),
    )


def build_llist(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    inserts: int | None = None,
    key_space: int = 10_000,
) -> WorkloadInstance:
    """Sorted linked-list inserts (large read-sets, head hot-spot)."""
    n = _ops_for(scale, inserts)
    total_nodes = n * num_threads
    layout = MemoryLayout()
    pool = TNodePool(layout, capacity=total_nodes, name="llist.pool")
    lst = TSortedList(layout, pool, name="llist.list")
    pool.initialize(layout)
    lst.initialize(layout)

    keys_by_thread: list[list[int]] = []
    for t in range(num_threads):
        rng = np.random.default_rng(derive_seed(seed, "llist", t))
        keys_by_thread.append(
            [int(k) for k in rng.integers(1, key_space, size=n)]
        )

    def make_insert(key: int):
        def body(tx):
            yield from lst.insert(key, key * 2 + 1)

        return body

    def program(ctx: ThreadContext):
        for key in keys_by_thread[ctx.proc_id]:
            yield TxOp(make_insert(key), site="llist.insert")
            yield Compute(3)

    expected = sorted(k for keys in keys_by_thread for k in keys)

    def check_sorted_and_complete(memory: dict[int, int]) -> None:
        final = lst.final_keys(memory)
        if final != sorted(final):
            raise WorkloadError("llist: final list is not sorted")
        if sorted(final) != expected:
            raise WorkloadError(
                f"llist: {len(final)} keys present, expected {len(expected)}"
            )

    return WorkloadInstance(
        name="llist",
        scale=scale,
        num_threads=num_threads,
        programs=[ThreadProgram(program, f"llist.t{t}")
                  for t in range(num_threads)],
        initial_memory=dict(layout.image),
        params={"inserts_per_thread": n, "key_space": key_space},
        validators=[check_sorted_and_complete],
        warm=layout.sweep("llist.warm"),
    )
