#!/usr/bin/env bash
# Find the src/repro functions that no entry point enters: run every
# command of commands.sh with the sitecustomize.py hook first on
# PYTHONPATH, then print count.py's tally and the never-entered list.
# Run from the checkout root (or via `make deadcode`); it takes about
# five minutes on a 2-vCPU VM.  DEADCODE_DIR keeps the records, the
# outputs and the log (default: a fresh temporary directory).
set -euo pipefail
here=scripts/deadcode
dc=${DEADCODE_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/deadcode_XXXX")}
mkdir -p "$dc/rec" "$dc/work"
echo "deadcode: records, outputs and log under $dc" >&2
if ! DEADCODE_OUT="$dc/rec" WORK="$dc/work" PYTHONPATH="$PWD/$here:$PWD/src" \
        bash "$here/commands.sh" > "$dc/log.txt" 2>&1; then
    echo "deadcode: an entry point failed; see $dc/log.txt" >&2
    exit 1
fi
python "$here/count.py" src "$dc/rec" -v
