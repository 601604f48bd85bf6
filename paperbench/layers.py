"""The traced run: per-layer metrics of one workload on the same inputs.

Passes, in order:

1. an untraced op set (the overhead baseline);
2. the same op set with spans around every layer's public calls
   (``tracing.traced_calls``); for ``seeds-pool`` this pass also turns
   on the ``repro.obs`` manifest for the pool-side counts;
3. ``seeds-pool`` only: the study replayed in this process, one
   ``execute_pack`` per seed family, with spans, to split workload
   build, machine build/reset and simulation;
4. a cProfile pass over ``Machine.run`` for the ``self_share.*`` table
   (the first seed of the replay on ``seeds-pool``; none on
   ``figures-warm``, which never simulates).

Layer shares come from pass 2 (pass 3 on ``seeds-pool``, whose pool
hides the simulation from the parent).  Simulated counts come from the
same pass, summed over every ``Machine.run``.  Every pass's output
fingerprints must equal the untraced pass's: each op set goes through
the workload's check, whose reference is the pins or the untraced op
set on the same inputs.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from tracing import (SPAN_LAYERS, Tracer, fold_profile,
                     profiled_machine_runs, traced_calls)

Metric = tuple[float, str, int]

#: (metric, counter-name test) pairs summed over every traced run
_COUNTS = (
    ("tx.attempts", lambda n: n == "tx.attempts"),
    ("tx.commits", lambda n: n == "tx.commits"),
    ("tx.wasted_cycles", lambda n: n == "tx.wasted_cycles"),
    ("gating.gated", lambda n: n == "gating.gated"),
    ("gating.renewals", lambda n: n == "gating.renewals"),
    ("cache.hits", lambda n: n.endswith(".cache.hits")),
    ("cache.misses", lambda n: n.endswith(".cache.misses")),
    ("dir.fills", lambda n: n.startswith("dir") and n.endswith(".fills")),
    ("dir.lines_committed",
     lambda n: n.startswith("dir") and n.endswith(".lines_committed")),
    ("bus.messages", lambda n: n == "bus.messages"),
    ("bus.queue_cycles", lambda n: n == "bus.queue_cycles"),
    ("memory.accesses", lambda n: n == "memory.accesses"),
    ("memory.port_wait_cycles", lambda n: n == "memory.port_wait_cycles"),
)


@dataclass
class TracedRun:
    metrics: dict[str, Metric] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    #: the untraced op sets and their traced twins, for the overhead
    untraced: list[Any] = field(default_factory=list)
    traced: list[Any] = field(default_factory=list)

    def add(self, bench: Any, op_set: Any) -> Any:
        self.attempted += op_set.attempted
        self.problems += op_set.errors + bench.check(op_set)
        return op_set

    def overhead(self, wall: Callable[[Any], float]) -> Metric:
        """Traced over untraced time of the same op sets, in percent;
        ``wall`` gives an op set's time (scaled to the reference host,
        so a change of host speed between the passes does not count)."""
        untraced = sum(wall(op_set) for op_set in self.untraced)
        traced = sum(wall(op_set) for op_set in self.traced)
        return (100.0 * (traced / untraced - 1.0), "%", len(self.traced))


def _same_outputs(base: Any, others: list[Any]) -> bool:
    return all((base.records, base.artifacts)
               == (other.records, other.artifacts) for other in others)


def _simulated(tracer: Tracer) -> dict[str, Metric]:
    runs = tracer.runs
    out: dict[str, Metric] = {
        "engine.events": (tracer.events, "count", runs),
        "sim.cycles": (tracer.cycles, "count", runs),
    }
    for name, test in _COUNTS:
        total = sum(v for key, v in tracer.counters.items() if test(key))
        out[name] = (total, "count", runs)
    attempts, commits = out["tx.attempts"][0], out["tx.commits"][0]
    hits, misses = out["cache.hits"][0], out["cache.misses"][0]
    out["tx.commit_ratio"] = (commits / attempts if attempts else 0.0,
                              "ratio", runs)
    out["cache.hit_ratio"] = (hits / (hits + misses) if hits + misses
                              else 0.0, "ratio", runs)
    return out


def _shares(tracer: Tracer) -> tuple[dict[str, Metric], list[str]]:
    """Percent of the timed op regions each layer's spans spent in
    themselves, plus a printable ms breakdown."""
    selfs = tracer.self_seconds()
    total = tracer.seconds("op")
    ops = sum(1 for span in tracer.spans if span[0] == "op")
    out: dict[str, Metric] = {}
    lines = [f"traced op time: {total * 1000:.1f} ms over {ops} op set(s)"]
    for name in SPAN_LAYERS + ("op",):
        calls = sum(1 for span in tracer.spans if span[0] == name)
        seconds = selfs.get(name, 0.0)
        metric = "op.unattributed_pct" if name == "op" else f"{name}_pct"
        out[metric] = (100.0 * seconds / total if total else 0.0, "%",
                       calls)
        lines.append(f"  {name:20} self {seconds * 1000:10.2f} ms "
                     f"in {calls} call(s)")
    out["store.gets"] = (sum(1 for s in tracer.spans if s[0] == "store.get"),
                         "count", 1)
    out["store.puts"] = (sum(1 for s in tracer.spans if s[0] == "store.put"),
                         "count", 1)
    out["trace.spans"] = (len(tracer.spans), "count", 1)
    if tracer.events:
        sim_ms = selfs.get("harness.simulate", 0.0) * 1e9 / tracer.events
        lines.append(f"  host ns per simulated event: {sim_ms:.0f}")
    return out, lines


def _pool_counts(recorder: Any, workers: int) -> dict[str, Metric]:
    """Units, reuse counts and worker busy time from the obs run."""
    manifest = json.loads(recorder.manifest_path.read_text("utf-8"))
    records = [json.loads(line) for line in
               recorder.path.read_text("utf-8").splitlines()]
    jobs = [r for r in records if r["kind"] == "span" and r["name"] == "job"]
    packs = [r for r in records if r["kind"] == "span" and r["name"] == "pack"]
    packed = sum(r["attrs"].get("replicates", 0) for r in packs)
    wall = sum(b["wall_seconds"] for b in manifest["batches"])
    busy = sum(r["dur_s"] for r in jobs)
    counters = manifest.get("counters", {})
    return {
        "executor.units": (len(packs) + len(jobs) - packed, "count", 1),
        "executor.busy_frac": (busy / (workers * wall) if wall else 0.0,
                               "ratio", len(jobs)),
        "pack.reset_reuses": (counters.get("pack.reset_reuses", 0),
                              "count", 1),
        "pack.shared_prep_hits": (counters.get("pack.shared_prep_hits", 0),
                                  "count", 1),
    }


def traced_run(bench: Any, seconds: float) -> TracedRun:
    out = TracedRun()
    name = bench.name
    # figures-warm ops are ~0.1 s: repeat them for a steadier overhead
    repeats = 1
    base_sets = [out.add(bench, bench.op_set())]
    if name == "figures-warm":
        deadline = time.perf_counter() + min(seconds, 20.0) / 2
        while time.perf_counter() < deadline:
            base_sets.append(out.add(bench, bench.op_set()))
        repeats = len(base_sets)
    base = base_sets[0]

    tracer = Tracer()
    bench.region = lambda: tracer.span("op")
    recorder = None
    with traced_calls(tracer):
        if name == "seeds-pool":
            from repro import obs

            recorder = obs.configure(bench.fresh_dir("obs"),
                                     argv=["paperbench", name])
            try:
                traced_sets = [out.add(bench, bench.op_set())]
            finally:
                obs.disable()
        else:
            traced_sets = [out.add(bench, bench.op_set())
                           for _ in range(repeats)]
    out.untraced, out.traced = base_sets, traced_sets
    outputs = list(traced_sets)  # every pass whose outputs must match
    out.notes.append(
        f"raw untraced wall {sum(s.wall for s in base_sets):.3f} s, traced "
        f"wall {sum(s.wall for s in traced_sets):.3f} s over "
        f"{len(traced_sets)} op set(s)")

    pool: dict[str, Metric] = {
        "executor.units": (0, "count", 1),
        "executor.busy_frac": (0.0, "ratio", 0),
        "pack.reset_reuses": (0, "count", 1),
        "pack.shared_prep_hits": (0, "count", 1),
        "executor.worker_peak_rss_mb": (0.0, "MB", 0),
    }
    profiler = None
    if name == "seeds-pool":
        pool.update(_pool_counts(recorder, bench.workers))
        pool["executor.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "MB", bench.workers)
        tracer = Tracer()
        bench.region = lambda: tracer.span("op")
        with traced_calls(tracer):
            replay, stats = bench.replay()
        outputs.append(out.add(bench, replay))
        out.notes.append(f"in-process replay: {replay.wall:.3f} s, "
                         f"{stats.reset_reuses} machine resets, "
                         f"{stats.shared_prep_hits} shared-prep hits")
        bench.region = nullcontext
        with profiled_machine_runs() as profiler:
            first_seed, _stats = bench.replay(seeds=1)
        out.attempted += first_seed.attempted
        out.problems += first_seed.errors + [
            f"{name} profiled: record {digest[:16]} differs from the "
            f"untraced pass"
            for digest, value in first_seed.records.items()
            if base.records.get(digest) != value
        ]
    elif name == "paper-cold":
        bench.region = nullcontext
        with profiled_machine_runs() as profiler:
            outputs.append(out.add(bench, bench.op_set()))
    bench.region = nullcontext
    out.notes.append("traced output fingerprints equal the untraced: "
                     f"{_same_outputs(base, outputs)}")

    shares, lines = _shares(tracer)
    out.notes += lines
    out.metrics.update(_simulated(tracer))
    out.metrics.update(shares)
    out.metrics.update(pool)
    for group, share in fold_profile(profiler).items():
        out.metrics[f"self_share.{group}"] = (share, "%", 1)
    return out
