"""yada — Delaunay mesh refinement (STAMP-equivalent).

STAMP's yada (Yet Another Delaunay Application) refines a triangular
mesh: threads pull "bad" triangles from worklists, expand a *cavity*
around each (reading a neighbourhood of mesh elements), retriangulate
the cavity (writing all of it), and push newly created bad triangles
back.  Its HTM profile is *long transactions* with overlapping-cavity
conflicts; an aborted cavity expansion is retried and frequently killed
again by the same committing neighbour — the loop-repeated conflicts
the paper credits for yada's high renew counts and large gating
windows.

Synthetic equivalent:

* The mesh is an array of elements, one cache line each
  (``[bad flag, data, n0..n3, pad, pad]``), with a 4-neighbour grid
  topology rewired randomly to make cavity shapes irregular.
* Each thread owns a private worklist seeded with its share of the
  initially-bad elements (STAMP's yada also uses per-thread queues).
* ``yada.refine`` transactions: re-check the bad flag, BFS-expand the
  cavity with data-dependent inclusion, rewrite every cavity element,
  and possibly mark one *higher-numbered* neighbour bad (monotonicity
  bounds the total work); new bad elements return to the spawning
  thread's worklist via the transaction result.

Validator: no element remains flagged bad.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import WorkloadError
from ..htm.ops import Compute, TxOp
from ..htm.program import ThreadContext, ThreadProgram
from ..sim.rng import derive_seed
from .base import MemoryLayout, WorkloadInstance, mix64
from .builtin import YADA_SCALES, YADA_SCHEMA
from .structures.array import TArray

__all__ = ["build_yada", "YADA_SCALES", "YADA_SCHEMA"]


_DATA_MASK = (1 << 32) - 1
#: an expansion candidate joins the cavity unless its data hashes to 0 mod 3
_INCLUDE_MOD = 3
#: a refinement spawns a new bad element when the seed data hashes to 0 mod 4
_SPAWN_MOD = 4


def build_yada(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    elements: int | None = None,
    bad_fraction: float | None = None,
    max_cavity: int | None = None,
) -> WorkloadInstance:
    """Build a yada instance (explicit kwargs override the scale)."""
    if scale not in YADA_SCALES:
        raise WorkloadError(
            f"unknown scale {scale!r}; choose from {sorted(YADA_SCALES)}"
        )
    n_elems, frac, cavity_cap = YADA_SCALES[scale]
    if elements is not None:
        n_elems = elements
    if bad_fraction is not None:
        frac = bad_fraction
    if max_cavity is not None:
        cavity_cap = max_cavity
    if n_elems < 8:
        raise WorkloadError("mesh needs at least 8 elements")
    if not 0.0 < frac <= 1.0:
        raise WorkloadError("bad fraction must be in (0, 1]")
    if cavity_cap < 1:
        raise WorkloadError("cavity cap must be positive")

    rng = np.random.default_rng(derive_seed(seed, "yada", scale))

    # 4-neighbour grid topology with 20% random rewiring.
    side = max(2, int(round(n_elems ** 0.5)))
    n_elems = side * side  # make the grid exact
    neighbors: list[list[int]] = []
    for e in range(n_elems):
        r, c = divmod(e, side)
        nbrs = [
            ((r - 1) % side) * side + c,
            ((r + 1) % side) * side + c,
            r * side + (c - 1) % side,
            r * side + (c + 1) % side,
        ]
        neighbors.append(nbrs)
    n_rewire = int(0.2 * n_elems)
    for _ in range(n_rewire):
        e = int(rng.integers(0, n_elems))
        slot = int(rng.integers(0, 4))
        target = int(rng.integers(0, n_elems))
        if target != e:
            neighbors[e][slot] = target

    initially_bad = sorted(
        int(i) for i in rng.choice(n_elems, size=max(1, int(frac * n_elems)),
                                   replace=False)
    )
    data_init = rng.integers(1, _DATA_MASK, size=n_elems)

    # --- shared memory layout -------------------------------------------
    # One element per cache line: [bad, data, n0, n1, n2, n3, pad, pad].
    layout = MemoryLayout()
    mesh = TArray(layout, n_elems, stride_words=8, line_aligned=True,
                  name="yada.mesh")
    bad_set = set(initially_bad)
    for e in range(n_elems):
        layout.poke(mesh.addr(e, 0), 1 if e in bad_set else 0)
        layout.poke(mesh.addr(e, 1), int(data_init[e]))
        for slot in range(4):
            layout.poke(mesh.addr(e, 2 + slot), neighbors[e][slot] + 1)

    # --- the refinement transaction ----------------------------------------
    def make_refine(elem: int):
        def body(tx):
            still_bad = yield from mesh.get(elem, 0)
            if not still_bad:
                tx.set_result(())
                return

            # Cavity expansion: BFS with data-dependent inclusion.
            seed_data = yield from mesh.get(elem, 1)
            cavity = [elem]
            seen = {elem}
            frontier = deque([elem])
            border: list[int] = []
            while frontier and len(cavity) < cavity_cap:
                e = frontier.popleft()
                for slot in range(4):
                    nb = yield from mesh.get(e, 2 + slot)
                    if nb == 0:
                        continue
                    nb -= 1
                    if nb in seen:
                        continue
                    seen.add(nb)
                    nb_data = yield from mesh.get(nb, 1)
                    if mix64(nb_data + seed_data) % _INCLUDE_MOD != 0:
                        cavity.append(nb)
                        frontier.append(nb)
                        if len(cavity) >= cavity_cap:
                            break
                    else:
                        border.append(nb)

            # Retriangulation: rewrite every cavity element.
            for e in cavity:
                d = yield from mesh.get(e, 1)
                yield from mesh.put(e, mix64(d + e + 1) & _DATA_MASK, 1)
                yield from mesh.put(e, 0, 0)

            # Possibly spawn one new bad element.  Only higher-numbered,
            # not-yet-bad targets are eligible: refinement work strictly
            # moves "up" the mesh, which bounds the total transaction
            # count (no cycles).
            new_bad: list[int] = []
            if mix64(seed_data) % _SPAWN_MOD == 0:
                for candidate in sorted(border) + sorted(seen - set(cavity)):
                    if candidate > elem:
                        cand_bad = yield from mesh.get(candidate, 0)
                        if not cand_bad:
                            yield from mesh.put(candidate, 1, 0)
                            new_bad.append(candidate)
                        break
            tx.set_result(tuple(new_bad))

        return body

    def program(ctx: ThreadContext):
        work = deque(initially_bad[ctx.proc_id :: ctx.num_threads])
        while work:
            elem = work.popleft()
            spawned = yield TxOp(make_refine(elem), site="yada.refine")
            work.extend(spawned)
            yield Compute(15)  # geometric predicates outside the tx

    programs = [ThreadProgram(program, f"yada.t{t}") for t in range(num_threads)]

    # --- validator -----------------------------------------------------------
    def check_no_bad_left(memory: dict[int, int]) -> None:
        left = [
            e for e in range(n_elems) if memory.get(mesh.addr(e, 0), 0) != 0
        ]
        if left:
            raise WorkloadError(
                f"yada: {len(left)} elements still flagged bad, e.g. {left[:5]}"
            )

    return WorkloadInstance(
        name="yada",
        scale=scale,
        num_threads=num_threads,
        programs=programs,
        initial_memory=dict(layout.image),
        params={
            "elements": n_elems,
            "initially_bad": len(initially_bad),
            "max_cavity": cavity_cap,
        },
        validators=[check_no_bad_left],
        warm=layout.sweep("yada.warm"),
    )
