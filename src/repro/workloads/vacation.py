"""vacation — travel reservation system (STAMP-equivalent).

STAMP's vacation emulates an OLTP travel agency: client threads run
transactions against four shared tables (cars, flights, rooms,
customers).  Most operations are *queries* — read-only probes of a
handful of random entries — while the rest are *reservations* that
check availability across several tables, decrement stock, and record
the booking against a customer.  Its HTM profile is *mixed-size
transactions over shared tables*: large read-only transactions that
keep getting killed by small read-write reservations landing on the
same table lines.

Synthetic equivalent:

* Three relation tables (``cars``, ``flights``, ``rooms``), each a
  shared hash table mapping item key -> remaining stock, pre-populated
  at build time.
* ``vacation.query`` — one read-only transaction looking up
  ``query_size`` random items across the tables.
* ``vacation.reserve`` — one transaction reserving a *basket* of 1-3
  random items: for each, look up availability and, when positive,
  decrement it; finally credit the customer's booking counter with the
  number of items actually secured.

Whether an individual reservation succeeds depends on the commit
schedule (late arrivals find sold-out items), but the *aggregate* final
state does not: each item ends at ``max(stock - demand, 0)`` and the
total number of successful bookings is ``sum(min(stock, demand))`` —
both computed at build time and checked exactly by the validators, no
matter how the schedule interleaved.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..htm.ops import Compute, TxOp
from ..htm.program import ThreadContext, ThreadProgram
from ..sim.rng import derive_seed
from .base import MemoryLayout, WorkloadInstance
from .builtin import VACATION_SCALES, VACATION_SCHEMA
from .structures.hashtable import THashTable

__all__ = ["build_vacation", "VACATION_SCALES", "VACATION_SCHEMA"]


_TABLE_NAMES = ("cars", "flights", "rooms")


def build_vacation(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    ops: int | None = None,
    relations: int | None = None,
    query_fraction: float = 0.5,
    query_size: int = 4,
    max_stock: int = 3,
) -> WorkloadInstance:
    """Build a vacation instance (explicit kwargs override the scale)."""
    if scale not in VACATION_SCALES:
        raise WorkloadError(
            f"unknown scale {scale!r}; choose from {sorted(VACATION_SCALES)}"
        )
    n_ops, n_relations = VACATION_SCALES[scale]
    if ops is not None:
        n_ops = ops
    if relations is not None:
        n_relations = relations
    if n_ops < 1:
        raise WorkloadError("need at least one operation per thread")
    if n_relations < 2:
        raise WorkloadError("need at least two items per relation")
    if not 0.0 <= query_fraction <= 1.0:
        raise WorkloadError("query fraction must be in [0, 1]")
    if query_size < 1:
        raise WorkloadError("query size must be positive")
    if max_stock < 1:
        raise WorkloadError("max stock must be positive")

    n_customers = 2 * num_threads

    # Initial stock per (table, item), then every thread's operation
    # stream — all fixed at build time so the aggregate outcome is
    # computable before the first simulated cycle.
    stock_rng = np.random.default_rng(derive_seed(seed, "vacation", scale))
    stock: list[list[int]] = [
        [int(s) for s in stock_rng.integers(1, max_stock + 1,
                                            size=n_relations)]
        for _ in _TABLE_NAMES
    ]

    # op := ("query", [(table, key), ...])
    #     | ("reserve", customer, [(table, key), ...])
    ops_by_thread: list[list[tuple]] = []
    for t in range(num_threads):
        rng = np.random.default_rng(derive_seed(seed, "vacation.ops", t))
        thread_ops: list[tuple] = []
        for _ in range(n_ops):
            if rng.random() < query_fraction:
                probes = [
                    (int(rng.integers(0, len(_TABLE_NAMES))),
                     int(rng.integers(1, n_relations + 1)))
                    for _ in range(query_size)
                ]
                thread_ops.append(("query", probes))
            else:
                customer = int(rng.integers(1, n_customers + 1))
                basket = [
                    (int(rng.integers(0, len(_TABLE_NAMES))),
                     int(rng.integers(1, n_relations + 1)))
                    for _ in range(int(rng.integers(1, 4)))
                ]
                thread_ops.append(("reserve", customer, basket))
        ops_by_thread.append(thread_ops)

    # Aggregate expectations: order-independent by construction.
    demand: dict[tuple[int, int], int] = {}
    for thread_ops in ops_by_thread:
        for op in thread_ops:
            if op[0] == "reserve":
                for table, key in op[2]:
                    demand[(table, key)] = demand.get((table, key), 0) + 1
    expected_stock = [
        {
            key: max(stock[table][key - 1] - demand.get((table, key), 0), 0)
            for key in range(1, n_relations + 1)
        }
        for table in range(len(_TABLE_NAMES))
    ]
    expected_bookings = sum(
        min(stock[table][key - 1], count)
        for (table, key), count in demand.items()
    )

    # --- shared memory layout --------------------------------------------
    layout = MemoryLayout()
    tables = [
        THashTable(layout, num_slots=max(16, 3 * n_relations),
                   name=f"vacation.{name}")
        for name in _TABLE_NAMES
    ]
    for table, t_stock in zip(tables, stock):
        table.initialize(
            layout, {key: t_stock[key - 1] for key in range(1, n_relations + 1)}
        )
    customers = THashTable(layout, num_slots=max(16, 4 * n_customers),
                           name="vacation.customers")

    # --- transaction bodies ----------------------------------------------
    def make_query(probes):
        def body(tx):
            found = 0
            for table, key in probes:
                value = yield from tables[table].lookup(key)
                if value:
                    found += 1
                yield Compute(2)  # price comparison
            tx.set_result(found)

        return body

    def make_reserve(customer, basket):
        def body(tx):
            secured = 0
            for table, key in basket:
                available = yield from tables[table].lookup(key)
                if available and available > 0:
                    yield from tables[table].insert(
                        key, available - 1, update=True
                    )
                    secured += 1
            if secured:
                yield from customers.increment(customer, secured)
            tx.set_result(secured)

        return body

    def program(ctx: ThreadContext):
        for op in ops_by_thread[ctx.proc_id]:
            if op[0] == "query":
                yield TxOp(make_query(op[1]), site="vacation.query")
                yield Compute(6)  # render the results
            else:
                yield TxOp(make_reserve(op[1], op[2]),
                           site="vacation.reserve")
                yield Compute(10)  # issue the itinerary

    programs = [
        ThreadProgram(program, f"vacation.t{t}") for t in range(num_threads)
    ]

    # --- validators ----------------------------------------------------------
    def check_stock(memory: dict[int, int]) -> None:
        for table_index, (table, expected) in enumerate(
            zip(tables, expected_stock)
        ):
            final = table.final_items(memory)
            if final != expected:
                wrong = {
                    k: (final.get(k), expected[k])
                    for k in expected
                    if final.get(k) != expected[k]
                }
                raise WorkloadError(
                    f"vacation: {_TABLE_NAMES[table_index]} stock corrupt "
                    f"(e.g. {dict(list(wrong.items())[:4])})"
                )

    def check_bookings(memory: dict[int, int]) -> None:
        booked = sum(customers.final_items(memory).values())
        if booked != expected_bookings:
            raise WorkloadError(
                f"vacation: {booked} bookings recorded, expected "
                f"{expected_bookings} (reservations lost or duplicated)"
            )

    total_ops = n_ops * num_threads
    return WorkloadInstance(
        name="vacation",
        scale=scale,
        num_threads=num_threads,
        programs=programs,
        initial_memory=dict(layout.image),
        params={
            "ops_per_thread": n_ops,
            "relations": n_relations,
            "customers": n_customers,
            "expected_bookings": expected_bookings,
            "expected_transactions": total_ops,
        },
        validators=[check_stock, check_bookings],
        warm=layout.sweep("vacation.warm"),
    )
