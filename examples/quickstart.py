#!/usr/bin/env python3
"""Quickstart: simulate one workload with and without clock gating.

Runs the paper's highly-conflicting intruder workload on a 4-core
Scalable-TCC machine (Table II defaults), then prints the three
metrics the paper reports: speed-up (Fig. 4), energy reduction (Eq. 6 /
Fig. 5) and average-power reduction (Eq. 7 / Fig. 6).

Usage::

    python examples/quickstart.py
"""

from repro import SystemConfig, compare_gating, workload
from repro.power.report import format_energy_report


def main() -> None:
    config = SystemConfig(num_procs=4, seed=42)   # Table II machine, W0=8
    spec = workload("intruder", scale="small", seed=42)

    print("Simulating intruder on 4 cores, with and without clock gating...")
    comparison = compare_gating(spec, config)

    print()
    print(format_energy_report(comparison))
    print()
    print("Transaction statistics:")
    for label, run in (("ungated", comparison.ungated),
                       ("gated  ", comparison.gated)):
        print(
            f"  {label}: {run.commits} commits, {run.aborts} aborts "
            f"(abort rate {run.abort_rate:.1%}), "
            f"{run.wasted_cycles} wasted cycles"
        )
    gated = comparison.gated.counters
    print(
        f"  gating: {gated.get('gating.gated', 0)} gate events, "
        f"{gated.get('gating.renewals', 0)} window renewals, "
        f"{gated.get('gating.wakeups', 0)} wake-ups"
    )
    print()
    print(
        f"=> speed-up {comparison.speedup:.3f}x, "
        f"energy reduction {comparison.energy_reduction:.3f}x, "
        f"power reduction {comparison.power_reduction:.3f}x"
    )


if __name__ == "__main__":
    main()
