"""kmeans — clustering (STAMP-equivalent).

STAMP's kmeans iterates Lloyd's algorithm: threads assign their
partition of the points to the nearest centroid (reading the shared
centroid table) and accumulate each point into per-cluster sums inside
small transactions; at the end of an iteration the centroids are
recomputed from the accumulated sums.  Its HTM profile is *read-mostly
with short write bursts*: the assignment phase is pure shared reads
(conflict-free), while the accumulation transactions are tiny
read-modify-writes that collide only when two threads update the same
cluster — low-to-moderate contention, the opposite corner of the
spectrum from intruder.

Synthetic equivalent (per iteration, barrier-separated phases):

* ``kmeans.assign`` — a read-only transaction loading all *k* centroids
  and computing the nearest (ties to the lowest index); the result
  feeds the next transaction.
* ``kmeans.update`` — add the point into its cluster's accumulator
  (count and sum, one cache line per cluster).
* ``kmeans.reduce`` — clusters are partitioned across threads; each
  reduce transaction recomputes one centroid (floor mean, unchanged
  when the cluster is empty) and resets its accumulator.

The whole fixpoint is replayed in Python at build time, so validators
check the *exact* final centroid table and that every accumulator was
reset — any divergence between the simulated data flow and the
reference computation fails the run.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..htm.ops import BarrierOp, Compute, TxOp
from ..htm.program import ThreadContext, ThreadProgram
from ..sim.rng import derive_seed
from .base import MemoryLayout, WorkloadInstance
from .builtin import KMEANS_SCALES, KMEANS_SCHEMA
from .structures.array import TArray

__all__ = ["build_kmeans", "KMEANS_SCALES", "KMEANS_SCHEMA"]


_VALUE_RANGE = 1 << 16


def _nearest(value: int, centroids: list[int]) -> int:
    """Index of the closest centroid (ties to the lowest index)."""
    best, best_distance = 0, None
    for j, centroid in enumerate(centroids):
        distance = abs(value - centroid)
        if best_distance is None or distance < best_distance:
            best, best_distance = j, distance
    return best


def build_kmeans(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    points: int | None = None,
    clusters: int | None = None,
    iterations: int | None = None,
) -> WorkloadInstance:
    """Build a kmeans instance (explicit kwargs override the scale)."""
    if scale not in KMEANS_SCALES:
        raise WorkloadError(
            f"unknown scale {scale!r}; choose from {sorted(KMEANS_SCALES)}"
        )
    n_points, k, iters = KMEANS_SCALES[scale]
    if points is not None:
        n_points = points
    if clusters is not None:
        k = clusters
    if iterations is not None:
        iters = iterations
    if k < 1:
        raise WorkloadError("kmeans needs at least one cluster")
    if n_points < k:
        raise WorkloadError(f"need at least {k} points for {k} clusters")
    if iters < 1:
        raise WorkloadError("kmeans needs at least one iteration")

    rng = np.random.default_rng(derive_seed(seed, "kmeans", scale))
    values = [int(v) for v in rng.integers(0, _VALUE_RANGE, size=n_points)]
    initial_centroids = [
        int(c) for c in rng.integers(0, _VALUE_RANGE, size=k)
    ]

    # Reference replay of the whole fixpoint: the simulated data flow
    # must reproduce these centroids exactly.
    centroids_ref = list(initial_centroids)
    for _ in range(iters):
        counts = [0] * k
        sums = [0] * k
        for value in values:
            cluster = _nearest(value, centroids_ref)
            counts[cluster] += 1
            sums[cluster] += value
        centroids_ref = [
            sums[j] // counts[j] if counts[j] else centroids_ref[j]
            for j in range(k)
        ]
    expected_centroids = list(centroids_ref)

    # --- shared memory layout --------------------------------------------
    layout = MemoryLayout()
    # Centroids are packed (8 per line): reads share lines for free and
    # the reduce phase's writes exhibit the false sharing a packed
    # centroid table sees on real line-granularity HTM.
    centroids = TArray(layout, k, stride_words=1, line_aligned=True,
                       name="kmeans.centroids")
    centroids.initialize(layout, initial_centroids)
    # One accumulator line per cluster: [count, sum] — update conflicts
    # are per-cluster, not per-line-pair.
    accum = TArray(layout, k, stride_words=8, line_aligned=True,
                   name="kmeans.accum")
    for j in range(k):
        layout.poke(accum.addr(j, 0), 0)
        layout.poke(accum.addr(j, 1), 0)

    # --- transaction bodies ----------------------------------------------
    def make_assign(value: int):
        def body(tx):
            loaded = []
            for j in range(k):
                centroid = yield from centroids.get(j)
                loaded.append(centroid)
            yield Compute(k)  # k distance comparisons
            tx.set_result(_nearest(value, loaded))

        return body

    def make_update(cluster: int, value: int):
        def body(tx):
            yield from accum.add(cluster, 1, word=0)
            yield from accum.add(cluster, value, word=1)

        return body

    def make_reduce(cluster: int):
        def body(tx):
            count = yield from accum.get(cluster, 0)
            total = yield from accum.get(cluster, 1)
            if count:
                new_centroid = total // count
            else:
                new_centroid = yield from centroids.get(cluster)
            yield Compute(8)  # the division
            yield from centroids.put(cluster, new_centroid)
            yield from accum.put(cluster, 0, 0)
            yield from accum.put(cluster, 0, 1)

        return body

    def program(ctx: ThreadContext):
        my_points = list(range(ctx.proc_id, n_points, ctx.num_threads))
        my_clusters = list(range(ctx.proc_id, k, ctx.num_threads))
        for iteration in range(iters):
            for index in my_points:
                cluster = yield TxOp(
                    make_assign(values[index]), site="kmeans.assign"
                )
                yield Compute(4)  # point bookkeeping
                yield TxOp(
                    make_update(cluster, values[index]), site="kmeans.update"
                )
            yield BarrierOp(f"kmeans.accumulated.{iteration}")
            for cluster in my_clusters:
                yield TxOp(make_reduce(cluster), site="kmeans.reduce")
            yield BarrierOp(f"kmeans.reduced.{iteration}")

    programs = [
        ThreadProgram(program, f"kmeans.t{t}") for t in range(num_threads)
    ]

    # --- validators ----------------------------------------------------------
    def check_centroids(memory: dict[int, int]) -> None:
        final = [centroids.read_final(memory, j) for j in range(k)]
        if final != expected_centroids:
            wrong = [
                (j, final[j], expected_centroids[j])
                for j in range(k)
                if final[j] != expected_centroids[j]
            ]
            raise WorkloadError(
                f"kmeans: {len(wrong)} centroid(s) diverged from the "
                f"reference fixpoint, e.g. {wrong[:3]}"
            )

    def check_accumulators_reset(memory: dict[int, int]) -> None:
        for j in range(k):
            count = accum.read_final(memory, j, 0)
            total = accum.read_final(memory, j, 1)
            if count or total:
                raise WorkloadError(
                    f"kmeans: accumulator {j} not reset "
                    f"(count={count}, sum={total})"
                )

    return WorkloadInstance(
        name="kmeans",
        scale=scale,
        num_threads=num_threads,
        seed=seed,
        programs=programs,
        initial_memory=dict(layout.image),
        params={
            "points": n_points,
            "clusters": k,
            "iterations": iters,
            "expected_transactions": iters * (2 * n_points + k),
        },
        validators=[check_centroids, check_accumulators_reset],
        warm=layout.sweep("kmeans.warm"),
    )
