"""labyrinth — path routing (STAMP-equivalent).

STAMP's labyrinth routes wires through a shared 3-D grid: each
transaction reads a private snapshot of the grid, computes a shortest
path, then writes *every cell of the path* back — the longest
transactions and largest write sets in the STAMP suite, and the worst
case for abort energy: an abort near commit throws away hundreds of
cycles of speculative work, which is exactly the window the paper's
clock gate targets.

Synthetic equivalent:

* The grid is a shared 2-D array (row-major, 8 cells per 64-byte
  line).  Each path is one vertical segment — a column interval, like a
  wire in a routing channel — so a path of length *L* touches *L*
  distinct cache lines.
* Paths are assigned *distinct columns* drawn from a deliberately
  narrow band of the grid: semantically disjoint (the final state is
  exactly deterministic), but neighbouring columns share every row
  line, so concurrent routes conflict at HTM line granularity all along
  their overlap — long transactions repeatedly killed near commit.
* ``labyrinth.route`` — verify every cell of the path is free, spend
  the path-cost computation, then claim all of them (write set = path
  length lines).

Validators: every path's cells hold exactly its path id, and no cell
outside any path was ever written.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..htm.ops import Compute, TxOp
from ..htm.program import ThreadContext, ThreadProgram
from ..sim.rng import derive_seed
from .base import MemoryLayout, WorkloadInstance
from .builtin import LABYRINTH_SCALES, LABYRINTH_SCHEMA
from .structures.array import TArray

__all__ = ["build_labyrinth", "LABYRINTH_SCALES", "LABYRINTH_SCHEMA"]


def build_labyrinth(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    grid_side: int | None = None,
    paths_per_thread: int | None = None,
    max_path_length: int | None = None,
) -> WorkloadInstance:
    """Build a labyrinth instance (explicit kwargs override the scale)."""
    if scale not in LABYRINTH_SCALES:
        raise WorkloadError(
            f"unknown scale {scale!r}; choose from {sorted(LABYRINTH_SCALES)}"
        )
    side, per_thread, max_len = LABYRINTH_SCALES[scale]
    if grid_side is not None:
        side = grid_side
    if paths_per_thread is not None:
        per_thread = paths_per_thread
    if max_path_length is not None:
        max_len = max_path_length
    if side < 2:
        raise WorkloadError("grid side must be at least 2")
    if per_thread < 1:
        raise WorkloadError("each thread needs at least one path")
    if max_len < 2:
        raise WorkloadError("paths need at least 2 cells")

    total_paths = num_threads * per_thread
    if total_paths > side:
        raise WorkloadError(
            f"labyrinth: {total_paths} paths need {total_paths} distinct "
            f"columns but the grid is only {side} wide — raise grid_side "
            f"or lower paths_per_thread"
        )
    max_len = min(max_len, side)

    rng = np.random.default_rng(derive_seed(seed, "labyrinth", scale))

    # Columns come from a band twice as wide as the path count: disjoint
    # by construction, but dense enough that every 8-column line is
    # shared by several routes (the conflict source).
    band = min(side, 2 * total_paths)
    columns = [int(c) for c in rng.permutation(band)[:total_paths]]

    routes: list[tuple[int, int, int]] = []  # (column, first row, length)
    for path in range(total_paths):
        length = int(rng.integers(max(2, max_len // 2), max_len + 1))
        first_row = int(rng.integers(0, side - length + 1))
        routes.append((columns[path], first_row, length))

    # --- shared memory layout --------------------------------------------
    layout = MemoryLayout()
    grid = TArray(layout, side * side, stride_words=1, line_aligned=True,
                  name="labyrinth.grid")
    route_cells: list[list[int]] = []
    for column, first_row, length in routes:
        cells = [row * side + column
                 for row in range(first_row, first_row + length)]
        route_cells.append(cells)
        for cell in cells:
            layout.poke(grid.addr(cell), 0)  # explicitly free

    # --- the routing transaction -----------------------------------------
    def make_route(path_id: int, cells: list[int]):
        def body(tx):
            for cell in cells:
                occupied = yield from grid.get(cell)
                if occupied:
                    # Columns are disjoint, so a committed obstruction
                    # is impossible — this is a protocol bug, not a
                    # routing failure.
                    raise WorkloadError(
                        f"labyrinth: cell {cell} already owned by "
                        f"{occupied} while routing path {path_id}"
                    )
            yield Compute(2 * len(cells))  # path-cost evaluation
            for cell in cells:
                yield from grid.put(cell, path_id)
            tx.set_result(len(cells))

        return body

    def program(ctx: ThreadContext):
        for path in range(ctx.proc_id, total_paths, ctx.num_threads):
            yield TxOp(make_route(path + 1, route_cells[path]),
                       site="labyrinth.route")
            yield Compute(20)  # plan the next route

    programs = [
        ThreadProgram(program, f"labyrinth.t{t}") for t in range(num_threads)
    ]

    # --- validators ----------------------------------------------------------
    owner = {
        cell: path + 1
        for path, cells in enumerate(route_cells)
        for cell in cells
    }

    def check_routes_placed(memory: dict[int, int]) -> None:
        for cell, path_id in owner.items():
            value = memory.get(grid.addr(cell), 0)
            if value != path_id:
                raise WorkloadError(
                    f"labyrinth: cell {cell} holds {value}, expected "
                    f"path {path_id}"
                )

    def check_no_stray_writes(memory: dict[int, int]) -> None:
        for cell in range(side * side):
            if cell not in owner and memory.get(grid.addr(cell), 0):
                raise WorkloadError(
                    f"labyrinth: free cell {cell} was written "
                    f"({memory.get(grid.addr(cell))})"
                )

    return WorkloadInstance(
        name="labyrinth",
        scale=scale,
        num_threads=num_threads,
        seed=seed,
        programs=programs,
        initial_memory=dict(layout.image),
        params={
            "grid_side": side,
            "paths": total_paths,
            "max_path_length": max_len,
            "routed_cells": sum(len(cells) for cells in route_cells),
            "expected_transactions": total_paths,
        },
        validators=[check_routes_placed, check_no_stray_writes],
        warm=layout.sweep("labyrinth.warm"),
    )
