#!/usr/bin/env bash
# Daemon equivalence gate: the same edit script driven through every
# transport — batch `mcheck`, `mcheckd check` against a persistent hot
# daemon, and `mcheck --watch --daemon-socket` as a thin client — must
# surface identical report fingerprints at every step. The daemon stays up
# across the whole script, so its in-memory red/green state is exercised
# by the edit and the revert; a fingerprint that appears or disappears on
# one transport only means the daemon's incremental state diverged from a
# cold check.
#
# Usage: scripts/daemon_equivalence.sh [path-to-mcheck]
# (defaults to target/release/mcheck; builds both binaries if missing)
set -euo pipefail
cd "$(dirname "$0")/.."

MCHECK=${1:-target/release/mcheck}
MCHECKD="$(dirname "$MCHECK")/mcheckd"
if [ ! -x "$MCHECK" ] || [ ! -x "$MCHECKD" ]; then
    cargo build --release -p mc-cli --bin mcheck --bin mcheckd
fi
# The watch client spawns the daemon through this override (its default is
# a sibling of the running binary, which is also correct here).
export MCHECKD_BIN="$MCHECKD"

work=$(mktemp -d)
socket="$work/mcheckd.sock"
cleanup() {
    "$MCHECKD" shutdown --socket "$socket" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

"$MCHECK" --emit-corpus "$work/corpus" >/dev/null
# One protocol is enough: the gate is about transport equivalence, not
# corpus coverage (tests/oracle_matrix.rs sweeps every protocol).
pdir=$(find "$work/corpus" -mindepth 1 -maxdepth 1 -type d | sort | head -n 1)
pdir=$(readlink -f "$pdir")
spec="$pdir/spec.json"
probe=$(find "$pdir" -name '*.c' | sort | head -n 1)

# Report fingerprints, normalized across compact/pretty JSON spacing.
fingerprints() {
    grep -o '"fingerprint"[: ]*"[^"]*"' "$1" | tr -d ' \t' | sort
}

# mcheck/mcheckd exit 1 when reports are emitted (the corpus plants bugs,
# so they always are); only >= 2 is a real failure.
run_tool() {
    local out=$1
    shift
    local rc=0
    "$@" "$pdir"/*.c >"$out" || rc=$?
    if [ "$rc" -ge 2 ]; then
        echo "FAIL: '$1' exited $rc" >&2
        exit "$rc"
    fi
}

status=0
step() {
    local label=$1
    run_tool "$work/$label-batch.json" \
        "$MCHECK" --builtin --spec "$spec" --format json
    run_tool "$work/$label-daemon.json" \
        "$MCHECKD" check --socket "$socket" --builtin --spec "$spec"
    run_tool "$work/$label-watch.out" \
        "$MCHECK" --builtin --spec "$spec" --watch --watch-iterations 1 \
        --daemon-socket "$socket"
    fingerprints "$work/$label-batch.json" >"$work/$label-batch.fp"
    fingerprints "$work/$label-daemon.json" >"$work/$label-daemon.fp"
    fingerprints "$work/$label-watch.out" >"$work/$label-watch.fp"
    if [ ! -s "$work/$label-batch.fp" ]; then
        echo "FAIL: $label produced no report fingerprints" >&2
        status=1
    fi
    if diff -u "$work/$label-batch.fp" "$work/$label-daemon.fp"; then
        echo "daemon-equivalence ok: $label (mcheckd check)"
    else
        echo "FAIL: $label mcheckd fingerprints differ from batch" >&2
        status=1
    fi
    if diff -u "$work/$label-batch.fp" "$work/$label-watch.fp"; then
        echo "daemon-equivalence ok: $label (watch client)"
    else
        echo "FAIL: $label watch-client fingerprints differ from batch" >&2
        status=1
    fi
}

# The edit script: pristine -> body edit planting a fresh bug -> revert.
cp "$probe" "$work/pristine.c"
step pristine

cat >>"$probe" <<'EOF'
void daemon_probe(void) { long m; m = MISCBUS_READ_DB(a, b); }
EOF
step edited

cp "$work/pristine.c" "$probe"
step reverted

# The edit must be visible through every transport, and the revert must
# restore the pristine fingerprint set exactly.
if cmp -s "$work/pristine-batch.fp" "$work/edited-batch.fp"; then
    echo "FAIL: the planted probe bug changed no fingerprints" >&2
    status=1
fi
if ! cmp -s "$work/pristine-batch.fp" "$work/reverted-batch.fp"; then
    echo "FAIL: revert did not restore the pristine fingerprints" >&2
    status=1
fi
exit "$status"
