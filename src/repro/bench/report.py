"""Machine-readable benchmark reports: ``BENCH_*.json`` at the repo root.

Two payload shapes share one file format (discriminated by ``kind``):

* ``"bench"`` — one measurement session: host fingerprint plus a
  ``benchmarks`` mapping of name → :class:`~repro.bench.core.BenchResult`.
* ``"comparison"`` — a before/after pair: both sessions embedded plus a
  per-benchmark ``speedup`` table (after ÷ before throughput), which is
  what PR acceptance gates read (``BENCH_pr3.json``).

Timestamps live only at the top level so two runs of the same code
produce comparable ``benchmarks`` sections.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from ..errors import BenchmarkError
from .core import BenchResult

__all__ = [
    "SCHEMA_VERSION",
    "bench_payload",
    "compare_payloads",
    "load_bench_json",
    "regression_failures",
    "write_bench_json",
    "format_results",
]

SCHEMA_VERSION = 1


def _host_fingerprint() -> dict[str, Any]:
    import os

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def bench_payload(
    results: Sequence[BenchResult], label: str = ""
) -> dict[str, Any]:
    """One measurement session as plain JSON-able data."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench",
        "label": label,
        "created": time.time(),
        "host": _host_fingerprint(),
        "benchmarks": {r.name: r.to_dict() for r in results},
    }


def compare_payloads(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any]:
    """Join two ``bench`` payloads into a before/after comparison.

    ``speedup[name]`` is after-throughput over before-throughput, so a
    value above 1.0 means the change made that benchmark faster.  Only
    benchmarks present in both sessions are compared.
    """
    for payload, role in ((before, "before"), (after, "after")):
        if payload.get("kind") != "bench":
            raise BenchmarkError(
                f"{role} payload is not a bench session "
                f"(kind={payload.get('kind')!r})"
            )
    speedup: dict[str, float] = {}
    for name, entry in after["benchmarks"].items():
        base = before["benchmarks"].get(name)
        if base is None:
            continue
        base_rate = float(base["units_per_second"])
        if base_rate > 0:
            speedup[name] = float(entry["units_per_second"]) / base_rate
    return {
        "schema": SCHEMA_VERSION,
        "kind": "comparison",
        "created": time.time(),
        "host": _host_fingerprint(),
        "before": {k: before[k] for k in ("label", "host", "benchmarks")},
        "after": {k: after[k] for k in ("label", "host", "benchmarks")},
        "speedup": speedup,
    }


def regression_failures(
    baseline: dict[str, Any],
    current: dict[str, Any],
    max_regression_pct: float = 25.0,
) -> list[str]:
    """The CI regression gate: which benchmarks got unacceptably slower?

    Compares per-benchmark throughput (``units_per_second``) of
    *current* against *baseline* and reports every benchmark whose
    throughput dropped by more than ``max_regression_pct`` percent.
    Benchmarks present in only one payload are ignored (adding or
    retiring a benchmark must not fail the gate).  Returns
    human-readable failure lines; an empty list means the gate passes.

    Baselines are only comparable within one runner class — commit one
    ``BENCH_baseline.json`` per class of machine you gate on.
    """
    if not 0.0 <= max_regression_pct < 100.0:
        raise BenchmarkError(
            f"max_regression_pct must be in [0, 100): {max_regression_pct}"
        )
    for payload, role in ((baseline, "baseline"), (current, "current")):
        if payload.get("kind") != "bench":
            # e.g. a comparison-kind BENCH_pr*.json: no 'benchmarks' key,
            # which would make the gate pass vacuously
            raise BenchmarkError(
                f"{role} payload is not a bench session "
                f"(kind={payload.get('kind')!r})"
            )
    floor = 1.0 - max_regression_pct / 100.0
    failures = []
    for name, entry in sorted(current.get("benchmarks", {}).items()):
        base = baseline.get("benchmarks", {}).get(name)
        if base is None:
            continue
        base_rate = float(base["units_per_second"])
        if base_rate <= 0.0:
            continue
        ratio = float(entry["units_per_second"]) / base_rate
        if ratio < floor:
            failures.append(
                f"{name}: {ratio:.2f}x of baseline throughput "
                f"({float(entry['units_per_second']):,.0f} vs "
                f"{base_rate:,.0f} {entry.get('unit', 'units')}/s; "
                f"allowed floor {floor:.2f}x)"
            )
    return failures


def write_bench_json(path: str | Path, payload: dict[str, Any]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def load_bench_json(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read bench file {path}: {exc}") from exc
    if not isinstance(data, dict) or "benchmarks" not in data and data.get(
        "kind"
    ) != "comparison":
        raise BenchmarkError(f"{path} is not a bench report")
    return data


def format_results(results: Sequence[BenchResult]) -> str:
    """Human-readable session summary (one line per benchmark)."""
    return "\n".join(r.summary() for r in results)
