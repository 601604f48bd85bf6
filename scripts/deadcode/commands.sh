#!/usr/bin/env bash
# Every recorded entry point, run from the checkout root with the hook
# on PYTHONPATH.  WORK is a scratch directory for caches and outputs.
set -euo pipefail
W=${WORK:?}
repro() { python -m repro "$@"; }

bash scripts/smoke.sh
for w in paper-cold seeds-pool figures-warm; do
    python3 paperbench/run.py --workload "$w" --seconds 1
    python3 paperbench/run.py --workload "$w" --seconds 1 --trace 1
done
repro list
for app in array_walk bank counter genome intruder kmeans labyrinth llist vacation yada; do
    repro run "$app" --scale tiny --check-serial --csv-timelines "$W/$app.csv"
done
for cm in exponential gating-aware immediate linear momentum polite; do
    repro run counter --scale tiny --cm "$cm"
done
repro compare intruder --scale tiny --profile --obs-dir "$W/obs"
repro suite list
for s in cm-shootout micro-contention paper-eval paper-fig7 smoke stamp-extended; do
    repro suite describe --suite "$s" --scale tiny
done
repro suite describe --suite smoke --json
for s in smoke micro-contention cm-shootout stamp-extended paper-eval; do
    repro suite run --suite "$s" --scale tiny --jobs 2 --cache-dir "$W/cache"
done
repro suite plan --suite paper-eval --scale tiny --cache-dir "$W/cache"
repro figures list
repro figures build --scale tiny --csv --show --cache-dir "$W/cache" --out-dir "$W/figures"
repro figures status --scale tiny --cache-dir "$W/cache"
repro exec-status --cache-dir "$W/cache" --verbose
repro exec-status --cache-dir "$W/cache" --digests
repro exec-status --cache-dir "$W/cache" --prune
for sub in list show summary tail; do repro obs "$sub" --obs-dir "$W/obs"; done
repro bench --check
for example in examples/*.py; do (cd "$W" && TMPDIR="$W" python "$OLDPWD/$example"); done
