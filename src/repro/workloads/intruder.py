"""intruder — network intrusion detection (STAMP-equivalent).

STAMP's intruder scans packet streams: threads repeatedly (1) grab a
packet from a shared queue, (2) reassemble its flow in a shared
session map, and (3) run the detector over completed flows.  Its HTM
profile is *many short transactions with a high abort rate* — every
consumer conflicts on the queue head, and flow counters collide in the
map (the paper: "for highly-conflicting application like intruder,
abort rate is high and as a result savings in the energy is also
reasonable").

The synthetic equivalent keeps exactly that structure:

* a shared :class:`~repro.workloads.structures.queue.TQueue` pre-filled
  with packet ids (transaction site ``intruder.getPacket``),
* per-packet metadata (flow id, fragment count) in shared memory,
* a shared flow table whose per-flow fragment counters are incremented
  transactionally, plus a global completed-flows counter
  (site ``intruder.reassemble``),
* a non-transactional detection burst per completed flow.

Validators: the queue drains completely, every flow's counter equals
its fragment count, and the completed counter equals the flow count.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..htm.ops import Compute, TxOp
from ..htm.program import ThreadContext, ThreadProgram
from ..sim.rng import derive_seed
from .base import MemoryLayout, WorkloadInstance
from .builtin import INTRUDER_SCALES, INTRUDER_SCHEMA
from .structures.array import TArray
from .structures.queue import TQueue
from .structures.hashtable import THashTable

__all__ = ["build_intruder", "INTRUDER_SCALES", "INTRUDER_SCHEMA"]


def build_intruder(
    num_threads: int,
    scale: str = "small",
    seed: int = 0,
    packets: int | None = None,
    flows: int | None = None,
    detect_cycles: int | None = None,
) -> WorkloadInstance:
    """Build an intruder instance (explicit kwargs override the scale)."""
    if scale not in INTRUDER_SCALES:
        raise WorkloadError(
            f"unknown scale {scale!r}; choose from {sorted(INTRUDER_SCALES)}"
        )
    target_packets, n_flows, detect = INTRUDER_SCALES[scale]
    if packets is not None:
        target_packets = packets
    if flows is not None:
        n_flows = flows
    if detect_cycles is not None:
        detect = detect_cycles
    if n_flows < 1 or target_packets < n_flows * 2:
        raise WorkloadError("need at least two fragments per flow")

    rng = np.random.default_rng(derive_seed(seed, "intruder", scale))

    # Fragment counts per flow: 2..5, adjusted to hit the packet target.
    frag_counts = rng.integers(2, 6, size=n_flows).tolist()
    while sum(frag_counts) < target_packets:
        frag_counts[int(rng.integers(0, n_flows))] += 1
    while sum(frag_counts) > target_packets:
        idx = int(rng.integers(0, n_flows))
        if frag_counts[idx] > 2:
            frag_counts[idx] -= 1
    n_packets = sum(frag_counts)

    # Packet stream: all fragments of all flows, shuffled.
    stream: list[int] = []
    for flow, count in enumerate(frag_counts):
        stream.extend([flow] * count)
    order = rng.permutation(n_packets)
    packet_flows = [stream[i] for i in order]

    # --- shared memory layout ------------------------------------------
    layout = MemoryLayout()
    queue = TQueue(layout, capacity=n_packets, name="intruder.queue")
    # per-packet metadata: word0 = flow key (1-based), word1 = fragment total
    meta = TArray(layout, n_packets, stride_words=2, line_aligned=True,
                  name="intruder.meta")
    flow_table = THashTable(layout, num_slots=max(16, 4 * n_flows),
                            name="intruder.flows")
    completed = TArray(layout, 1, stride_words=8, line_aligned=True,
                       name="intruder.completed")

    queue.initialize(layout, range(1, n_packets + 1))  # packet ids, 1-based
    for pkt in range(n_packets):
        flow = packet_flows[pkt]
        layout.poke(meta.addr(pkt, 0), flow + 1)
        layout.poke(meta.addr(pkt, 1), frag_counts[flow])
    completed.initialize(layout, [0])

    # --- thread program --------------------------------------------------
    def pop_body(tx):
        value = yield from queue.pop()
        tx.set_result(value)

    def make_reassemble(pkt_index: int):
        def body(tx):
            flow_key = yield from meta.get(pkt_index, 0)
            total = yield from meta.get(pkt_index, 1)
            count = yield from flow_table.increment(flow_key)
            if count == total:
                yield from completed.add(0, 1)
                tx.set_result(total)
            else:
                tx.set_result(0)

        return body

    def program(ctx: ThreadContext):
        while True:
            packet = yield TxOp(pop_body, site="intruder.getPacket")
            if packet is None:
                break
            pkt_index = packet - 1
            yield Compute(5)  # header decode
            completed_total = yield TxOp(
                make_reassemble(pkt_index), site="intruder.reassemble"
            )
            if completed_total:
                # run the detector over the reassembled flow
                yield Compute(detect * completed_total)

    programs = [ThreadProgram(program, f"intruder.t{t}") for t in range(num_threads)]

    # --- validators -------------------------------------------------------
    expected_flows = {flow + 1: count for flow, count in enumerate(frag_counts)}

    def check_queue_drained(memory: dict[int, int]) -> None:
        left = queue.final_size(memory)
        if left != 0:
            raise WorkloadError(f"intruder: {left} packets left in the queue")

    def check_flows(memory: dict[int, int]) -> None:
        final = flow_table.final_items(memory)
        if final != expected_flows:
            missing = set(expected_flows) - set(final)
            wrong = {
                k: (final.get(k), expected_flows[k])
                for k in expected_flows
                if final.get(k) != expected_flows[k]
            }
            raise WorkloadError(
                f"intruder: flow table corrupt (missing={missing}, "
                f"wrong={dict(list(wrong.items())[:5])})"
            )

    def check_completed(memory: dict[int, int]) -> None:
        done = completed.read_final(memory, 0)
        if done != n_flows:
            raise WorkloadError(
                f"intruder: {done} flows completed, expected {n_flows}"
            )

    return WorkloadInstance(
        name="intruder",
        scale=scale,
        num_threads=num_threads,
        seed=seed,
        programs=programs,
        initial_memory=dict(layout.image),
        params={
            "packets": n_packets,
            "flows": n_flows,
            "detect_cycles": detect,
            "expected_transactions": 2 * n_packets + num_threads,
        },
        validators=[check_queue_drained, check_flows, check_completed],
        warm=layout.sweep("intruder.warm"),
    )
