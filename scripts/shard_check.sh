#!/usr/bin/env bash
# Shard-farm driver: runs mcheck as N shard processes over one shared
# cache directory, then folds them with `mcheck merge`. Each shard parses
# everything but checks only the units it owns (unit fingerprint mod N),
# publishing results into the cache; the merge is an ordinary run that
# finds every unit warm, so its output is byte-identical to a
# single-process check of the same sources.
#
# Usage: scripts/shard_check.sh <shards> <cache-dir> <mcheck-args>...
#   e.g. scripts/shard_check.sh 4 /tmp/cache --builtin --spec spec.json src/*.c
# Set MCHECK=<path> to drive a given binary instead of building one.
#
# The merge output goes to stdout; shard progress goes to stderr. Exits
# with the merge's exit code (0 = clean, 1 = reports emitted).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 3 ]; then
    echo "usage: scripts/shard_check.sh <shards> <cache-dir> <mcheck-args>..." >&2
    exit 2
fi

SHARDS=$1
CACHE=$2
shift 2

# Without an explicit MCHECK, always run the build: cargo makes it a
# no-op when the binary is fresh, and never drives a stale one.
if [ -z "${MCHECK:-}" ]; then
    cargo build --release -p mc-cli --bin mcheck
    MCHECK=target/release/mcheck
fi

# Shards always exit 0 (they render nothing); >= 2 is a real failure.
pids=()
for ((i = 0; i < SHARDS; i++)); do
    "$MCHECK" --cache-dir "$CACHE" --shard "$i/$SHARDS" "$@" &
    pids+=($!)
done
for pid in "${pids[@]}"; do
    wait "$pid"
done

# The merge exits 1 when it emits reports; let the caller see that code
# without tripping `set -e`.
rc=0
"$MCHECK" merge --cache-dir "$CACHE" "$@" || rc=$?
if [ "$rc" -ge 2 ]; then
    echo "FAIL: mcheck merge exited $rc" >&2
fi
exit "$rc"
