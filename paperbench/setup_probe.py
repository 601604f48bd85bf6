"""One fresh-interpreter set-up: import ``repro``, build the workload's
builder/executor/store, print ``perf_counter`` and exit.

``run.py`` starts this script several times and takes, for each start,
the time from just before the spawn to the printed clock: interpreter
start, ``import repro`` and object construction, up to the first op.

Usage: python3 paperbench/setup_probe.py WORKLOAD SEED WORKERS DIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, workers, directory = sys.argv[1:5]
    scratch = Path(directory)
    WORKLOADS[name](scratch, int(seed), int(workers)).objects(scratch)
    print(repr(time.perf_counter()), flush=True)
