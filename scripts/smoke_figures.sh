#!/usr/bin/env bash
# Incremental-figures smoke: build the full registered artifact set
# twice against ONE result store.  The second build must perform ZERO
# simulations and leave every figures/*.json byte-identical; a forced
# re-render must also reproduce identical bytes (deterministic
# extraction).  Run from the repo root (or via `make figures-smoke`).
set -euo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
ROOT=${FIG_SMOKE_DIR:-.smoke-figures}
CACHE_DIR="$ROOT/store"
OUT_DIR="$ROOT/figures"
GRID=(--scale tiny --apps counter --grid 2 --w0 2 --w0-values 2 4)
BUILD=(figures build "${GRID[@]}" --jobs 2
       --cache-dir "$CACHE_DIR" --out-dir "$OUT_DIR")

# transcripts live inside $ROOT: gitignored, and cleaned even when an
# assertion below aborts the script before the trailing rm
rm -rf "$ROOT"
mkdir -p "$ROOT"

echo "== figures smoke: cold build (populates the store) =="
python -m repro "${BUILD[@]}" | tee "$ROOT/cold.out"
grep -q "simulated 3 residual job(s)" "$ROOT/cold.out"
grep -q "8 built" "$ROOT/cold.out"
for name in fig3 fig4 fig5 fig6 fig7 table1 table2 headline; do
  [ -f "$OUT_DIR/$name.json" ] || {
    echo "figures smoke FAILED: missing $name.json"; exit 1; }
done
cp -r "$OUT_DIR" "$ROOT/first"

echo "== figures smoke: warm build (0 simulations, untouched bytes) =="
python -m repro "${BUILD[@]}" | tee "$ROOT/warm.out"
grep -q "simulated 0 residual job(s)" "$ROOT/warm.out"
grep -q "8 fresh" "$ROOT/warm.out"
diff -r "$OUT_DIR" "$ROOT/first"

echo "== figures smoke: forced re-render reproduces identical bytes =="
python -m repro "${BUILD[@]}" --force | tee "$ROOT/force.out"
grep -q "simulated 0 residual job(s)" "$ROOT/force.out"
grep -q "8 rebuilt" "$ROOT/force.out"
diff -r "$OUT_DIR" "$ROOT/first"

echo "== figures smoke: status agrees everything is fresh =="
python -m repro figures status "${GRID[@]}" \
  --cache-dir "$CACHE_DIR" --out-dir "$OUT_DIR" | tee "$ROOT/status.out"
grep -q "0 artifact(s) need building" "$ROOT/status.out"

rm -rf "$ROOT"
echo "figures smoke OK: incremental rebuild performed zero simulations"
