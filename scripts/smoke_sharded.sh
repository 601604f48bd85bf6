#!/usr/bin/env bash
# Sharded end-to-end smoke: run the smoke suite unsharded, then as two
# digest-partitioned shards into separate stores, merge the shard
# stores, and require
#   1. the merged store's digest set == the unsharded store's, and
#   2. `suite plan` over the merged store reports ZERO misses.
# Run from the repo root (or via `make smoke-sharded`).
set -euo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
BASE=${SMOKE_SHARD_DIR:-.smoke-shard}
rm -rf "$BASE"

echo "== sharded smoke: unsharded reference run =="
python -m repro suite run --suite micro-contention --scale tiny --jobs 2 \
    --cache-dir "$BASE/full" >/dev/null

echo "== sharded smoke: shard 1/2 + shard 2/2 =="
python -m repro suite run --suite micro-contention --scale tiny --shard 1/2 \
    --cache-dir "$BASE/shard1" >/dev/null
python -m repro suite run --suite micro-contention --scale tiny --shard 2/2 \
    --cache-dir "$BASE/shard2" >/dev/null

echo "== sharded smoke: merge shard stores =="
python -m repro suite merge "$BASE/shard1" "$BASE/shard2" --into "$BASE/merged"

full=$(python -m repro exec-status --cache-dir "$BASE/full" --digests)
merged=$(python -m repro exec-status --cache-dir "$BASE/merged" --digests)
[ -n "$full" ] || { echo "sharded smoke FAILED: empty reference store"; exit 1; }
[ "$full" = "$merged" ] || {
  echo "sharded smoke FAILED: merged digest set differs from unsharded run"
  exit 1
}
echo "digest sets identical ($(echo "$full" | wc -l) entries)"

echo "== sharded smoke: plan over the merged store =="
plan=$(python -m repro suite plan --suite micro-contention --scale tiny \
    --cache-dir "$BASE/merged")
echo "$plan"
echo "$plan" | grep -q "0 miss(es)" || {
  echo "sharded smoke FAILED: plan reports residual misses"
  exit 1
}

rm -rf "$BASE"
echo "sharded smoke OK: shard+merge == unsharded, plan fully cached"
