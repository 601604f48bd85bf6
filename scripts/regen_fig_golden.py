#!/usr/bin/env python
"""Regenerate the figure-pipeline golden fixtures.

Produces two committed artifacts (run from the repo root with
``PYTHONPATH=src python scripts/regen_fig_golden.py``):

* ``tests/data/figstore/results.jsonl`` — a small JSONL result store
  covering every registered figure's suite at the golden grid below
  (tiny scale, the paper's three apps, 2/4 processors, W0 ∈ {2, 8});
* ``tests/data/figures_golden/<name>.json`` — the figure artifacts
  built from that store, with ``provenance.git_sha`` nulled so the
  bytes are commit-independent.

``tests/test_figures.py`` rebuilds every figure from the committed
store (asserting ZERO residual simulations) and compares the artifacts
byte-for-byte.  Regenerate ONLY when simulation semantics, the exec
schema, an extractor version, or the golden grid legitimately change —
a diff in these files is a behaviour change and must be explained in
the PR.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.figures import FigureBuilder, FigureParams  # noqa: E402

#: the golden grid — mirrored by tests/test_figures.py
GOLDEN_PARAMS = FigureParams(
    scale="tiny", seed=0, procs=(2, 4), w0=8, w0_values=(2, 8)
)

STORE_DIR = REPO / "tests" / "data" / "figstore"
GOLDEN_DIR = REPO / "tests" / "data" / "figures_golden"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Reuse the committed store by default: the goldens then regenerate
    # without re-simulating (and without churning the store file).
    # Pass --store when simulation semantics or the exec schema changed
    # and the store itself must be rebuilt.
    regen_store = "--store" in argv
    targets = [GOLDEN_DIR] + ([STORE_DIR] if regen_store else [])
    for path in targets:
        if path.exists():
            shutil.rmtree(path)
    builder = FigureBuilder(
        store=STORE_DIR, out_dir=GOLDEN_DIR, params=GOLDEN_PARAMS, jobs=0
    )
    report = builder.build()
    print(report.summary())

    # Null the commit hash: goldens must not change on every commit.
    for artifact in report.artifacts:
        payload = json.loads(artifact.path.read_text(encoding="utf-8"))
        payload["provenance"]["git_sha"] = None
        artifact.path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    # The lock sidecar is a runtime artifact, not part of the fixture.
    lock = STORE_DIR / "results.jsonl.lock"
    if lock.exists():
        lock.unlink()
    print(f"store:   {STORE_DIR} ({len(builder.store)} entries)")
    print(f"goldens: {GOLDEN_DIR} ({len(report.artifacts)} artifacts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
