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

echo "== smoke: static analysis (repro check) =="
python -m repro check src tests scripts

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

echo "== smoke: replicate packs vs per-process (store digest identity) =="
# A seed family (same spec, four seeds) through the pool executor with
# replicate packing on and off: the two result stores must hold exactly
# the same digest-keyed records.
PACK_SUITE=$(mktemp /tmp/smoke_packs_XXXX.json)
cat > "$PACK_SUITE" <<'JSON'
{
  "name": "smoke-packs",
  "description": "seed replicates for the pack identity check",
  "base": {"workload": "counter", "scale": "tiny", "threads": 2},
  "axes": [["seed", [1, 2, 3, 4]]]
}
JSON
PACKS_ON_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}-packs-on
PACKS_OFF_DIR=${SMOKE_CACHE_DIR:-.smoke-cache}-packs-off
rm -rf "$PACKS_ON_DIR" "$PACKS_OFF_DIR"
python -m repro suite run --file "$PACK_SUITE" --jobs 2 \
  --cache-dir "$PACKS_ON_DIR" >/dev/null
python -m repro suite run --file "$PACK_SUITE" --jobs 2 --no-packs \
  --cache-dir "$PACKS_OFF_DIR" >/dev/null
on_digests=$(python -m repro exec-status --cache-dir "$PACKS_ON_DIR" --digests)
off_digests=$(python -m repro exec-status --cache-dir "$PACKS_OFF_DIR" --digests)
[ -n "$on_digests" ] || { echo "smoke FAILED: pack run stored nothing"; exit 1; }
[ "$on_digests" = "$off_digests" ] || {
  echo "smoke FAILED: pack-on and pack-off stores diverge"; exit 1; }
rm -f "$PACK_SUITE"
rm -rf "$PACKS_ON_DIR" "$PACKS_OFF_DIR"
echo "smoke OK: replicate packs store digest-identical results"

echo "== smoke: incremental figure pipeline =="
bash "$(dirname "$0")/smoke_figures.sh"

echo "== smoke: observability (manifests + obs-on/off store identity) =="
bash "$(dirname "$0")/smoke_obs.sh"
