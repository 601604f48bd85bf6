#!/usr/bin/env bash
# Observability smoke: run one suite with observability ON and once
# with it OFF.  The result store must be digest-identical either way
# (obs never touches result bytes), the run manifest must account for
# every executed job, and every `repro obs` surface must work against
# the recorded run.  Run from the repo root (or via `make obs-smoke`).
# Set OBS_SMOKE_KEEP=1 to keep the obs directory (CI uploads it).
set -euo pipefail

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
ROOT=${OBS_SMOKE_DIR:-.smoke-obs}
OBS_DIR="$ROOT/obs"
SUITE=(suite run --suite smoke --scale tiny --jobs 2 --progress)

rm -rf "$ROOT"
mkdir -p "$ROOT"

echo "== obs smoke: observed suite run =="
python -m repro "${SUITE[@]}" --cache-dir "$ROOT/cache-on" \
  --obs-dir "$OBS_DIR" 2> "$ROOT/on.err"
cat "$ROOT/on.err"
grep -q "obs: run manifest" "$ROOT/on.err"

echo "== obs smoke: unobserved control run =="
python -m repro "${SUITE[@]}" --cache-dir "$ROOT/cache-off" 2>&1 | tail -2

echo "== obs smoke: stores digest-identical with obs on vs off =="
python -m repro exec-status --cache-dir "$ROOT/cache-on" --digests \
  > "$ROOT/digests-on"
python -m repro exec-status --cache-dir "$ROOT/cache-off" --digests \
  > "$ROOT/digests-off"
diff "$ROOT/digests-on" "$ROOT/digests-off"

echo "== obs smoke: manifest accounts for every executed job =="
python - "$OBS_DIR" <<'EOF'
import json
import sys
from pathlib import Path

obs_dir = Path(sys.argv[1])
(manifest_path,) = obs_dir.glob("run-*.manifest.json")
manifest = json.loads(manifest_path.read_text())
metrics = manifest["metrics"]
assert manifest["finished"], "manifest was not finalized"
assert metrics["jobs_executed"] > 0, metrics
by_name = manifest["record_counts"]["by_name"]
assert by_name.get("job", 0) == metrics["jobs_executed"], by_name
assert by_name.get("batch", 0) == metrics["batches"], by_name
(log_path,) = obs_dir.glob("run-*.jsonl")
records = [json.loads(line)
           for line in log_path.read_text().splitlines() if line]
assert records, "event log is empty"
print(f"manifest OK: {metrics['jobs_executed']} job span(s), "
      f"{len(records)} event-log record(s)")
EOF

echo "== obs smoke: obs CLI surfaces =="
python -m repro obs list --obs-dir "$OBS_DIR" | tee "$ROOT/list.out"
grep -q "finished" "$ROOT/list.out"
python -m repro obs summary --obs-dir "$OBS_DIR" --json \
  > "$ROOT/summary.json"
python - "$ROOT/summary.json" <<'EOF'
import json
import sys

summary = json.load(open(sys.argv[1]))
assert summary["kind"] == "obs-summary"
assert summary["totals"]["runs"] == 1, summary["totals"]
assert summary["totals"]["jobs_executed"] > 0, summary["totals"]
EOF
# grep from files, not pipes: `grep -q` exits on first match and the
# closed pipe would kill the CLI with BrokenPipeError
python -m repro obs show --obs-dir "$OBS_DIR" > "$ROOT/show.out"
grep -q "throughput" "$ROOT/show.out"
python -m repro obs tail --obs-dir "$OBS_DIR" -n 5 > "$ROOT/tail.out"
grep -q "span" "$ROOT/tail.out"

if [ -n "${OBS_SMOKE_KEEP:-}" ]; then
  rm -rf "$ROOT/cache-on" "$ROOT/cache-off"
  echo "keeping $OBS_DIR for artifact upload (OBS_SMOKE_KEEP set)"
else
  rm -rf "$ROOT"
fi
echo "obs smoke OK: manifest complete, stores identical with obs on/off"
