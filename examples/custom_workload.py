#!/usr/bin/env python3
"""Writing your own transactional workload.

Demonstrates the full workload API end-to-end: laying out shared
memory, writing transaction bodies as generators over the transactional
data structures, registering the workload, running it under both gating
modes, and validating its final state.

The example workload is a *work-stealing pipeline*: producers push jobs
into a shared queue, consumers pop and fold the results into a shared
histogram table.

Usage::

    python examples/custom_workload.py
"""

from repro import Compute, SystemConfig, TxOp, compare_gating
from repro.errors import WorkloadError
from repro.htm.program import ThreadContext, ThreadProgram
from repro.workloads.base import MemoryLayout, WorkloadInstance
from repro.workloads.registry import register_workload
from repro.workloads.structures.hashtable import THashTable
from repro.workloads.structures.queue import TQueue
from repro.htm.ops import BarrierOp


def build_pipeline(num_threads: int, scale: str = "small", seed: int = 0,
                   jobs: int | None = None) -> WorkloadInstance:
    """Half the threads produce jobs, half consume and histogram them."""
    if num_threads < 2:
        raise WorkloadError("pipeline needs at least two threads")
    n_jobs = jobs if jobs is not None else {"tiny": 24, "small": 160,
                                            "medium": 640}[scale]
    n_producers = num_threads // 2
    n_buckets = 16

    layout = MemoryLayout()
    queue = TQueue(layout, capacity=n_jobs + 1, name="pipe.queue")
    histogram = THashTable(layout, num_slots=4 * n_buckets, name="pipe.hist")
    queue.initialize(layout, [])

    def make_push(job: int):
        def body(tx):
            ok = yield from queue.push(job)
            tx.set_result(ok)

        return body

    def pop_body(tx):
        job = yield from queue.pop()
        tx.set_result(job)

    def make_fold(job: int):
        def body(tx):
            bucket = 1 + job % n_buckets  # keys must be non-zero
            yield from histogram.increment(bucket)

        return body

    def program(ctx: ThreadContext):
        if ctx.proc_id < n_producers:
            # producer: push my share of jobs (sentinel job 0 excluded)
            for job in range(1 + ctx.proc_id, n_jobs + 1, n_producers):
                yield TxOp(make_push(job), site="pipe.push")
                yield Compute(4)
        yield BarrierOp("pipe.produced")
        if ctx.proc_id >= n_producers:
            while True:
                job = yield TxOp(pop_body, site="pipe.pop")
                if job is None:
                    break
                yield Compute(10)  # process the job
                yield TxOp(make_fold(job), site="pipe.fold")

    def check_histogram(memory):
        total = sum(histogram.final_items(memory).values())
        if total != n_jobs:
            raise WorkloadError(f"pipeline lost jobs: {total} != {n_jobs}")

    def check_queue_empty(memory):
        if queue.final_size(memory) != 0:
            raise WorkloadError("pipeline queue not drained")

    return WorkloadInstance(
        name="pipeline",
        scale=scale,
        num_threads=num_threads,
        seed=seed,
        programs=[ThreadProgram(program, f"pipe.t{t}")
                  for t in range(num_threads)],
        initial_memory=dict(layout.image),
        params={"jobs": n_jobs, "producers": n_producers},
        validators=[check_queue_empty, check_histogram],
        # every thread loads each shared line before its program starts
        warm=layout.sweep("pipe.warm"),
    )


def main() -> None:
    register_workload("pipeline", build_pipeline)

    config = SystemConfig(num_procs=4, seed=7)
    print("Running the custom producer/consumer pipeline (4 cores)...")
    comparison = compare_gating("pipeline", config)

    print()
    print(comparison.summary())
    print(f"  ungated: N={comparison.n1} cycles, "
          f"E={comparison.ungated.energy.total:.0f}")
    print(f"  gated  : N={comparison.n2} cycles, "
          f"E={comparison.gated.energy.total:.0f}")
    print()
    print("Validators passed in both modes — no job lost or duplicated, "
          "under aborts and clock gating alike.")


if __name__ == "__main__":
    main()
