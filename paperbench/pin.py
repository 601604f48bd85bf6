"""Regenerate ``pins/<workload>.json``: output fingerprints at seed 0.

The benchmark compares every op set on pinned inputs against these
pins, so regenerate them only at a commit whose outputs are known to be
right, and say so in the change that does it.

Usage (from the repository root)::

    python3 paperbench/pin.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import checkout_sandbox, has_sources, host_facts, pool_workers

#: op sets pinned per workload: paper-cold pools a new grid per op set,
#: and a 20-second run completes at most three
PINNED_OP_SETS = {"paper-cold": 4}


def main(names: list[str]) -> int:
    root = Path.cwd()
    if not has_sources(root):
        return 2
    with checkout_sandbox(root) as scratch:
        from workloads import PINS_DIR, WORKLOADS

        workers = pool_workers(host_facts())
        for name in names or list(WORKLOADS):
            bench = WORKLOADS[name](scratch, 0, workers)
            bench.pins = {}  # regenerate, never compare
            errors = bench.prepare()
            pinned = {}
            for index in range(PINNED_OP_SETS.get(name, 1)):
                result = bench.op_set(index)
                errors += result.errors
                pinned[result.inputs] = {
                    # figures-warm builds simulate nothing: its records
                    # are those of the store prepare() filled
                    "records": getattr(bench, "records", result.records),
                    "artifacts": result.artifacts,
                }
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            path = PINS_DIR / f"{name}.json"
            path.write_text(json.dumps({"workload": name, "inputs": pinned},
                                       indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"{path}: {', '.join(pinned)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
