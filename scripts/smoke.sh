#!/usr/bin/env bash
# End-to-end smoke: one named scenario suite through the parallel
# executor with the result cache, run twice — the second pass must
# perform ZERO simulation re-executions, exec-status must see the
# cached entries and suite plan must find every job cached.  Run from
# the repo root (or via `make smoke`).
set -euo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
CACHE_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}
SUITE=(suite run --suite smoke --jobs 2 --cache-dir "$CACHE_DIR"
       --progress)

rm -rf "$CACHE_DIR"

echo "== smoke: named suite, cold (expand -> exec cache) =="
suite_cold=$(python -m repro "${SUITE[@]}" 2>suite_cold.err)
cat suite_cold.err
grep -q "executed 3 of 4 submitted" suite_cold.err  # 4 scenarios, 1 deduplicated

echo "== smoke: named suite, warm (must be pure cache hits) =="
suite_warm=$(python -m repro "${SUITE[@]}" 2>suite_warm.err)
cat suite_warm.err
grep -q "executed 0 of 4 submitted" suite_warm.err
grep -q "3 cache hit(s)" suite_warm.err

[ "$suite_cold" = "$suite_warm" ] || {
  echo "smoke FAILED: cached suite output differs"; exit 1; }

echo "== smoke: exec-status =="
status=$(python -m repro exec-status --cache-dir "$CACHE_DIR")
echo "$status"
echo "$status" | grep -q "3 entries"  # 1 shared baseline + 2 gated runs

echo "== smoke: suite plan (every job cached, nothing simulated) =="
plan=$(python -m repro suite plan --suite smoke --cache-dir "$CACHE_DIR")
echo "$plan"
echo "$plan" | grep -q "3 hit(s), 0 miss(es)"

rm -f suite_cold.err suite_warm.err
rm -rf "$CACHE_DIR"
echo "smoke OK: suite cached end-to-end, zero re-executions"

echo "== smoke: incremental figure pipeline =="
bash "$(dirname "$0")/smoke_figures.sh"

echo "== smoke: observability (manifests + obs-on/off store identity) =="
bash "$(dirname "$0")/smoke_obs.sh"
