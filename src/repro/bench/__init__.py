"""Micro/meso performance benchmarks with regression tracking.

``repro.bench`` is the measurement infrastructure every "make a hot
path measurably faster" change is judged against:

* :mod:`repro.bench.core` — the timing discipline: explicit warmup,
  fixed repetition counts, best-of/mean/stddev statistics, and
  throughput expressed in work units per second (events/sec for the
  engine, sims/sec for whole suites).
* :mod:`repro.bench.benches` — the benchmark definitions, from the
  event-kernel microbenchmark (``bench_engine``) up to the end-to-end
  smoke-suite run (``bench_e2e_suite``).
* :mod:`repro.bench.report` — machine-readable ``BENCH_*.json`` files
  at the repo root, plus before/after comparison reports.

The CLI surface is ``repro bench`` (see ``docs/performance.md``).
"""

from .benches import BENCHMARKS, available_benchmarks, run_benchmarks
from .core import BenchResult, run_timed
from .report import (
    bench_payload,
    compare_payloads,
    load_bench_json,
    regression_failures,
    write_bench_json,
)

__all__ = [
    "BENCHMARKS",
    "BenchResult",
    "available_benchmarks",
    "bench_payload",
    "compare_payloads",
    "load_bench_json",
    "regression_failures",
    "run_benchmarks",
    "run_timed",
    "write_bench_json",
]
