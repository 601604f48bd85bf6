"""Paper-grid benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 paperbench/run.py --workload paper-cold --seed 0 --seconds 20
    python3 paperbench/run.py --workload seeds-pool --trace 1

Workloads (see ``workloads.py``): ``paper-cold`` (a cold serial paper
grid at ``small``), ``seeds-pool`` (a Fig. 7 seed study at ``tiny`` on
the process pool) and ``figures-warm`` (forced figure rebuilds from a
filled store).  ``--seed`` picks the grid seed; ``--seconds`` how long
the closed loop measures (the op set in flight when time is up still
completes).  ``--trace 1`` makes the separate traced run instead, which
reports per-layer metrics and its own tracing overhead.

Timings are scaled to a reference host by host-speed probes (see
``hostspeed.py``); the raw figures are printed too.

Output: the host facts, a table of every metric with its unit and
sample count, each output mismatch, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when the run completed, whether or not outputs matched; a
checkout without ``src/repro`` exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Iterator

from hostspeed import SpeedSampler, loop_ms

HERE = Path(__file__).resolve().parent

Metric = tuple[float, str, int]

#: fresh interpreter starts per run; set-up time is their median
SETUP_PROBES = 5

#: upper bound on pool workers, whatever the host offers
MAX_WORKERS = 4

#: iterations of the drift probe timed before and after each run
CALIB_LOOPS = 1_000_000

#: environment switches that would change what a workload runs
_FOREIGN_ENV = ("REPRO_NO_PACKS", "REPRO_NO_RESET", "REPRO_OBS",
                "REPRO_OBS_DIR", "REPRO_OBS_RUN")


def cgroup_cpus() -> float | None:
    """CPUs granted by the cgroup v2 quota, if one is set."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except (OSError, ValueError):
        return None
    return None if quota == "max" else int(quota) / int(period)


def host_facts() -> dict[str, Any]:
    import numpy

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "cgroup_cpus": cgroup_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def pool_workers(host: dict[str, Any]) -> int:
    """Workers for the pool: every CPU this process may use, capped.
    Never more than ``nproc`` or the cgroup quota allows."""
    limit = host["nproc"]
    if host["cgroup_cpus"] is not None:
        limit = min(limit, max(1, int(host["cgroup_cpus"])))
    return max(1, min(limit, MAX_WORKERS))


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile, 0 < q < 1.

    A Beta-weighted average of all order statistics rather than one or
    two of them: simulation times cluster by application and processor
    count, and a plain sample median jumps across the gap between two
    clusters from one seed to the next, while this estimate moves
    smoothly.  Weights come from the Beta(q(n+1), (1-q)(n+1)) density
    integrated over each rank's slice of [0, 1].
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64  # integration points per rank
    t = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def one_cpu() -> Iterator[None]:
    """Keep this process (and the children it starts) on one CPU, so
    the speed sampler probes the CPU the work runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def measure_setup(workload: str, seed: int, workers: int,
                  scratch: Path) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds from spawn to the first op, over fresh
    interpreters sharing one CPU with the speed sampler.  The child
    prints ``perf_counter``, one clock for every process on Linux."""
    script = HERE / "setup_probe.py"
    intervals = []
    with one_cpu(), SpeedSampler() as sampler:
        for attempt in range(SETUP_PROBES):
            directory = Path(tempfile.mkdtemp(prefix=f"probe{attempt}-",
                                              dir=scratch))
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(script), workload, str(seed),
                 str(workers), str(directory)],
                capture_output=True, text=True, timeout=120, check=False,
            )
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
            intervals.append((started, float(done.stdout.split()[-1])))
            shutil.rmtree(directory, ignore_errors=True)
    return ([end - start for start, end in intervals],
            [sampler.scaled(start, end) for start, end in intervals])


def closed_loop(bench: Any, seconds: float) -> tuple[list[Any], list[str]]:
    """Op sets back to back until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    sets, problems = [], []
    while True:
        result = bench.op_set(len(sets))
        sets.append(result)
        problems += result.errors + bench.check(result)
        if time.perf_counter() >= deadline:
            return sets, problems


def scaled_wall(op_set: Any, sampler: SpeedSampler) -> float:
    """An op set's timed region in reference-host seconds."""
    if op_set.scaled_wall is not None:
        return float(op_set.scaled_wall)
    return sampler.scaled(*op_set.region)


def timings(sets: list[Any], setup: list[float],
            sampler: SpeedSampler | None) -> dict[str, Metric]:
    """The timing metrics: raw without a sampler; otherwise scaled to
    the reference host, by the op set's own probes where it has them
    (pool workers) and by the sampler elsewhere."""
    ops: list[float] = []
    wall = 0.0
    for op_set in sets:
        if sampler is None:
            ops += op_set.op_seconds
            wall += op_set.wall
        else:
            ops += (op_set.op_scaled if op_set.op_scaled is not None
                    else [sampler.scaled(*op) for op in op_set.ops])
            wall += scaled_wall(op_set, sampler)
    return {
        "ops_per_s": (len(ops) / wall, "1/s", len(ops)),
        "op_p50_ms": (1000 * quantile(ops, 0.5), "ms", len(ops)),
        "op_p80_ms": (1000 * quantile(ops, 0.8), "ms", len(ops)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "seeds-pool", "figures-warm"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


@contextmanager
def checkout_sandbox(root: Path) -> Iterator[Path]:
    """A scratch directory inside the checkout for everything a run
    writes (stores, figures, obs output, temp files), removed on exit;
    ``src`` on the import path and the environment pinned."""
    scratch_root = root / ".paperbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    # a fixed perf-trend input: bench files committed later do not
    # change the paper-cold workload
    os.environ["REPRO_BENCH_DIR"] = str(HERE / "bench_series")
    for key in _FOREIGN_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, str(root / "src"))
    try:
        yield scratch
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()  # unless another run still uses it
        except OSError:
            pass


def has_sources(root: Path) -> bool:
    if (root / "src" / "repro" / "__init__.py").is_file():
        return True
    print(f"paperbench: no src/repro under {root}; run from the "
          f"repository root", file=sys.stderr)
    return False


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not has_sources(root):
        return 2
    with checkout_sandbox(root) as scratch:
        return run(args, scratch)


def run(args: argparse.Namespace, scratch: Path) -> int:
    from workloads import WORKLOADS

    host = host_facts()
    workers = pool_workers(host)
    calib_before = loop_ms(CALIB_LOOPS)
    bench = WORKLOADS[args.workload](scratch, args.seed, workers)
    notes: list[str] = []
    # the serial workloads stay on one CPU with the speed sampler; the
    # pool needs every CPU, and its workers probe for themselves
    sampler = SpeedSampler()
    with ExitStack() as stack:
        if args.workload != "seeds-pool":
            stack.enter_context(one_cpu())
            stack.enter_context(sampler)
        problems = bench.prepare()
        if args.trace:
            from layers import traced_run

            traced = traced_run(bench, args.seconds)
        else:
            sets, loop_problems = closed_loop(bench, args.seconds)
    if args.trace:
        problems += traced.problems
        attempted = traced.attempted
        table = {"trace.overhead_pct": traced.overhead(
            lambda op_set: scaled_wall(op_set, sampler))}
        table.update(traced.metrics)
        notes += traced.notes
    else:
        problems += loop_problems
        attempted = sum(op_set.attempted for op_set in sets)
        raw_setup, scaled_setup = measure_setup(args.workload, args.seed,
                                                workers, scratch)
        table = timings(sets, scaled_setup, sampler)
        table["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        raw = timings(sets, raw_setup, None)
        notes += [f"op sets: {len(sets)}", "raw host figures (unscaled): "
                  + ", ".join(f"{name} {value:.6g}"
                              for name, (value, _unit, _n) in raw.items())]
    calib_after = loop_ms(CALIB_LOOPS)
    notes.append(f"host.calib_ms before/after: {calib_before:.2f} / "
                 f"{calib_after:.2f}")
    if args.trace:
        table.update({
            "host.calib_before_ms": (calib_before, "ms", 1),
            "host.calib_after_ms": (calib_after, "ms", 1),
            "host.cpus": (host["nproc"], "count", 1),
        })

    print(f"paperbench {args.workload}: seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} workers={workers}")
    print("host: " + json.dumps(host, sort_keys=True))
    for note in notes:
        print(note)
    print(f"{'metric':34} {'value':>14}  {'unit':6} samples")
    for name, (value, unit, samples) in table.items():
        print(f"{name:34} {value:14.6g}  {unit:6} {samples}")
    for problem in problems:
        print(f"MISMATCH {problem}")
    failed = min(len(problems), attempted)
    print(f"ops: attempted={attempted} failed={failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
