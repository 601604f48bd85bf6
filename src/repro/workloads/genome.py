"""genome — gene sequencing (STAMP-equivalent).

STAMP's genome assembles a genome from overlapping segments in phases:
deduplicate segments through a shared hash set, then repeatedly match
segment suffixes against prefixes in hash tables to link unique
segments into chains.  Its HTM profile is *moderate contention with
medium-length transactions*: most hash inserts succeed without
conflict, but duplicate keys and cache-line false sharing collide, and
the matching phase's multi-probe transactions have sizeable read-sets
that are repeatedly killed by concurrent link insertions — the paper
notes genome/yada have "conflicting transactions which are either long
or repeated several times inside loops", driving the *renew* counter.

Synthetic equivalent:

* Phase 1 (site ``genome.dedup``): each thread inserts its partition of
  the segment stream (with duplicates) into a shared hash set.
* Barrier.
* Phase 2 (site ``genome.match``): for each first-occurrence segment,
  probe the set for several overlap candidates (read-only lookups of
  hashed variants) and insert the found successor link into a shared
  link table.  Successors follow a build-time chain over the distinct
  segments, standing in for the real suffix-prefix relation.

Validators: the dedup set holds exactly the distinct segments; the link
table holds exactly the chain (``distinct - 1`` edges, each correct).
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..htm.ops import BarrierOp, Compute, TxOp
from ..htm.program import ThreadContext, ThreadProgram
from ..sim.rng import derive_seed
from .base import MemoryLayout, WorkloadInstance, mix64
from .builtin import GENOME_SCALES, GENOME_SCHEMA
from .structures.hashtable import THashTable

__all__ = ["build_genome", "GENOME_SCALES", "GENOME_SCHEMA"]


_KEY_MASK = (1 << 48) - 1


def build_genome(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    segments: int | None = None,
    distinct_fraction: float | None = None,
    probes: int | None = None,
    table_slack: float = 1.4,
) -> WorkloadInstance:
    """Build a genome instance (explicit kwargs override the scale)."""
    if scale not in GENOME_SCALES:
        raise WorkloadError(
            f"unknown scale {scale!r}; choose from {sorted(GENOME_SCALES)}"
        )
    n_stream, frac, n_probes = GENOME_SCALES[scale]
    if segments is not None:
        n_stream = segments
    if distinct_fraction is not None:
        frac = distinct_fraction
    if probes is not None:
        n_probes = probes
    if not 0.05 <= frac <= 1.0:
        raise WorkloadError("distinct fraction must be in [0.05, 1]")
    n_distinct = max(2, int(n_stream * frac))

    rng = np.random.default_rng(derive_seed(seed, "genome", scale))

    # Distinct segment keys (non-zero 48-bit), then the duplicated stream.
    distinct: list[int] = []
    seen: set[int] = set()
    while len(distinct) < n_distinct:
        key = int(rng.integers(1, _KEY_MASK))
        if key not in seen:
            seen.add(key)
            distinct.append(key)
    stream = list(distinct)
    while len(stream) < n_stream:
        stream.append(distinct[int(rng.integers(0, n_distinct))])
    order = rng.permutation(len(stream))
    stream = [stream[i] for i in order]

    # First-occurrence marking drives the phase-2 work partition.
    first_owner: dict[int, int] = {}
    for position, key in enumerate(stream):
        first_owner.setdefault(key, position)

    # The overlap chain: distinct segments in mix64 order, each linking
    # to its successor (stands in for suffix->prefix matching).
    chain_order = sorted(distinct, key=mix64)
    successor = {
        chain_order[i]: chain_order[i + 1] for i in range(len(chain_order) - 1)
    }

    # --- shared memory layout --------------------------------------------
    layout = MemoryLayout()
    # High load factors (the paper-era STAMP inputs size their tables
    # tightly) lengthen probe chains, growing read-sets and line overlap
    # between concurrent inserts — the genome conflict source.
    slots = max(16, int(table_slack * n_distinct))
    unique = THashTable(layout, num_slots=slots, name="genome.unique")
    links = THashTable(layout, num_slots=slots, name="genome.links")

    # --- thread program -----------------------------------------------------
    def make_dedup(key: int):
        def body(tx):
            inserted = yield from unique.insert(key, 1)
            tx.set_result(inserted)

        return body

    def make_match(key: int, succ: int):
        def body(tx):
            # Probe overlap candidates of decreasing length (read-only
            # lookups; mostly misses, as in the real matcher).
            for k in range(1, n_probes + 1):
                candidate = (mix64(key + k) & _KEY_MASK) or 1
                yield from unique.lookup(candidate)
            yield from links.insert(key, succ)

        return body

    def program(ctx: ThreadContext):
        my_stream = stream[ctx.proc_id :: ctx.num_threads]
        my_positions = range(ctx.proc_id, len(stream), ctx.num_threads)
        for key in my_stream:
            yield TxOp(make_dedup(key), site="genome.dedup")
            yield Compute(8)  # segment parsing
        yield BarrierOp("genome.phase1")
        for position, key in zip(my_positions, my_stream):
            if first_owner[key] != position:
                continue  # a duplicate: someone else owns the match work
            succ = successor.get(key)
            if succ is None:
                continue  # chain tail
            yield TxOp(make_match(key, succ), site="genome.match")
            yield Compute(12)  # overlap scoring

    programs = [ThreadProgram(program, f"genome.t{t}") for t in range(num_threads)]

    # --- validators ----------------------------------------------------------
    def check_unique(memory: dict[int, int]) -> None:
        final = unique.final_items(memory)
        if set(final) != set(distinct):
            raise WorkloadError(
                f"genome: dedup set has {len(final)} keys, expected "
                f"{len(distinct)} distinct segments"
            )

    def check_links(memory: dict[int, int]) -> None:
        final = links.final_items(memory)
        if final != successor:
            raise WorkloadError(
                f"genome: link table has {len(final)} edges, expected "
                f"{len(successor)} chain edges"
            )

    return WorkloadInstance(
        name="genome",
        scale=scale,
        num_threads=num_threads,
        seed=seed,
        programs=programs,
        initial_memory=dict(layout.image),
        params={
            "stream_length": len(stream),
            "distinct_segments": n_distinct,
            "match_probes": n_probes,
            "expected_transactions": len(stream) + len(successor),
        },
        validators=[check_unique, check_links],
        warm=layout.sweep("genome.warm"),
    )
