#!/usr/bin/env python
"""Alternating parent/change pairs of the paper-grid benchmark.

Usage (from the repository root)::

    python scripts/bench_pairs.py --base HEAD --workload figures-warm \\
        --pairs 10 --seconds 20 --seed 0 --claim ops_per_s
    make bench-pairs BASE=HEAD~1 WORKLOAD=figures-warm CLAIM=ops_per_s

The parent is the git ref ``--base``, extracted with ``git archive``
into a temporary directory that is removed at the end; the change is
the working tree.  Every run is this tree's ``paperbench/run.py``
started from one side's root, so both sides run the same benchmark
code on their own ``src/``.  Pair *i* runs the parent first when *i*
is even and the change first when it is odd, because the side that
runs first tends to win.

For every end-to-end metric ``BENCHMARK.json`` declares, the report
gives each side's median and quartiles, how many pairs the change won
(ties count for neither side) and every pair's values; each
``peak_rss_mb`` value carries its run's ``attempted`` op count.  ``--claim
METRIC`` adds the verdict a perf claim needs: the change wins at least
nine tenths of the pairs, and its median is better than the parent's
by more than the distance between the parent's quartiles.  A run that
exits non-zero or reads ``correct: false`` or ``failed > 0`` is
reported and fails the verdict.  The exit code is 1 when a run failed
or a claimed verdict does not hold, and 2 when the base ref cannot be
extracted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "paperbench" / "run.py"
SIDES = ("parent", "change")

#: one pair: the parent's and the change's closing JSON lines
Pair = tuple[dict[str, Any], dict[str, Any]]


def declared() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def extract(ref: str, into: Path) -> Path:
    """The tree of git ref *ref*, unpacked into *into*."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(root: Path, workload: str, seed: int,
             seconds: float) -> dict[str, Any]:
    """One benchmark run from *root*: its closing JSON line, or a
    failed record when it did not complete."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", f"{seconds:g}"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {done.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def run_failed(result: dict[str, Any]) -> bool:
    return result.get("correct") is not True or result.get("failed") != 0


def value(result: dict[str, Any], metric: str) -> float | None:
    return result["metrics"].get(metric, {}).get("value")


def shown(number: float | None) -> str:
    return "-" if number is None else f"{number:.4g}"


#: a pool run's parent-process peak grows with the op sets it completes,
#: so this metric's per-pair values carry each run's attempted op count
WITH_ATTEMPTED = "peak_rss_mb"


def pair_cell(result: dict[str, Any], metric: str) -> str:
    """One run's value of *metric* in the per-pair listing."""
    text = shown(value(result, metric))
    if metric == WITH_ATTEMPTED:
        attempted = result.get("attempted")
        text += f" ({'-' if attempted is None else attempted} ops)"
    return text


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


@dataclass(frozen=True)
class Verdict:
    """The gain rule for one metric over the pairs of one workload."""

    metric: str
    wins: int
    pairs: int
    #: how much better the change's median is than the parent's
    gain: float
    #: the distance between the parent's quartiles
    spread: float
    #: runs on either side that failed or read wrong outputs
    failed_runs: int

    @property
    def holds(self) -> bool:
        return (self.failed_runs == 0 and self.pairs > 0
                and 10 * self.wins >= 9 * self.pairs
                and self.gain > self.spread)

    def line(self) -> str:
        return (f"verdict {self.metric}: change won {self.wins} of "
                f"{self.pairs} (needs {-(-9 * self.pairs // 10)}), median "
                f"gain {self.gain:.4g} against parent quartile spread "
                f"{self.spread:.4g}, {self.failed_runs} failed run(s): "
                f"{'HOLDS' if self.holds else 'DOES NOT HOLD'}")


def verdict(metric: str, better: str, pairs: list[Pair]) -> Verdict:
    """The gain rule over (parent, change) results; ``better`` is
    ``"higher"`` or ``"lower"``, as ``BENCHMARK.json`` declares."""
    sign = 1 if better == "higher" else -1
    values = [(value(p, metric), value(c, metric)) for p, c in pairs]
    both = [(p, c) for p, c in values if p is not None and c is not None]
    failed = sum(run_failed(result) for pair in pairs for result in pair)
    if not both:
        return Verdict(metric, 0, len(pairs), 0.0, 0.0, failed)
    parent = [p for p, _c in both]
    q1, q3 = quartiles(parent)
    return Verdict(
        metric=metric,
        wins=sum(sign * (c - p) > 0 for p, c in both),
        pairs=len(pairs),
        gain=sign * (statistics.median([c for _p, c in both])
                     - statistics.median(parent)),
        spread=q3 - q1,
        failed_runs=failed,
    )


def report(workload: str, pairs: list[Pair],
           metrics: dict[str, str]) -> list[str]:
    """Failed runs, then per metric each side's median [q1, q3] and the
    change's wins, then every pair's values."""
    lines = [f"{workload}: {len(pairs)} pair(s)"]
    for index, pair in enumerate(pairs):
        for side, result in zip(SIDES, pair):
            if run_failed(result):
                detail = result.get("error") or (
                    f"correct={result.get('correct')} "
                    f"failed={result.get('failed')}")
                lines.append(f"  FAILED pair {index} {side}: {detail}")
    lines.append(f"  {'metric':12} {'parent median [q1, q3]':28} "
                 f"{'change median [q1, q3]':28} change won")
    for metric, better in metrics.items():
        cells = []
        for side in range(2):
            values = [value(pair[side], metric) for pair in pairs]
            present = [v for v in values if v is not None]
            if present:
                q1, q3 = quartiles(present)
                cells.append(f"{statistics.median(present):.4g} "
                             f"[{q1:.4g}, {q3:.4g}]")
            else:
                cells.append("-")
        outcome = verdict(metric, better, pairs)
        lines.append(f"  {metric:12} {cells[0]:28} {cells[1]:28} "
                     f"{outcome.wins} of {outcome.pairs}")
    for metric in metrics:
        lines.append(f"  {metric} per pair (parent / change): " + ", ".join(
            f"{pair_cell(p, metric)} / {pair_cell(c, metric)}"
            for p, c in pairs))
    return lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    bench = declared()
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the parent, e.g. HEAD or HEAD~1")
    parser.add_argument("--workload", nargs="+", choices=workloads,
                        default=workloads)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--claim", metavar="METRIC",
                        choices=[m["name"] for m in bench["end_to_end"]],
                        help="print the gain verdict for this metric")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    metrics = {m["name"]: m["better"] for m in declared()["end_to_end"]}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        try:
            roots = (extract(args.base, Path(scratch)), ROOT)
        except subprocess.CalledProcessError as exc:
            detail = (exc.stderr or b"").decode().strip()
            print(f"bench_pairs: cannot extract {args.base!r}: {detail}",
                  file=sys.stderr)
            return 2
        for workload in args.workload:
            pairs: list[Pair] = []
            for index in range(args.pairs):
                results: dict[int, dict[str, Any]] = {}
                for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                    results[side] = run_once(roots[side], workload,
                                             args.seed, args.seconds)
                pairs.append((results[0], results[1]))
                print(f"{workload} pair {index} ops_per_s: parent "
                      f"{shown(value(results[0], 'ops_per_s'))} / change "
                      f"{shown(value(results[1], 'ops_per_s'))}",
                      file=sys.stderr, flush=True)
            print(f"seed {args.seed}, {args.seconds:g} s per run, parent "
                  f"{args.base}, change: the working tree")
            print("\n".join(report(workload, pairs, metrics)))
            ok &= not any(run_failed(r) for pair in pairs for r in pair)
            if args.claim:
                outcome = verdict(args.claim, metrics[args.claim], pairs)
                print("  " + outcome.line())
                ok &= outcome.holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
