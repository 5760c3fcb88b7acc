#!/usr/bin/env bash
# False-positive regression gate: runs the fp_delta binary over the full
# synthetic corpus and compares its machine-readable `gate:` line against
# the committed baseline (scripts/fp_baseline.txt). Fails if
#
#   * bug recall drops below the baseline (a checker stopped finding a
#     planted bug — never acceptable), or
#   * a false-positive count at any rung (pruned, pruned+interproc,
#     pruned+interproc+refute) rises above the baseline (an analysis got
#     noisier).
#
# Finding *fewer* false positives than the baseline is reported but does
# not fail: update the baseline in the same change to ratchet it down.
#
# Usage: scripts/fp_gate.sh [path-to-fp_delta]
# Without a path it (re)builds and runs target/release/fp_delta. The build
# runs every time, not only when the binary is missing: a target/ restored
# from a cache may hold an fp_delta built from an older commit, and cargo
# leaves a fresh binary untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
    FP_DELTA=$1
else
    FP_DELTA=target/release/fp_delta
    cargo build --release -p mc-bench --bin fp_delta
fi

baseline=scripts/fp_baseline.txt
read -r base_bugs base_fp_pruned base_fp_interproc base_fp_refute < <(
    sed -n 's/^gate: bugs=\([0-9]*\) fp_pruned=\([0-9]*\) fp_interproc=\([0-9]*\) fp_refute=\([0-9]*\)$/\1 \2 \3 \4/p' \
        "$baseline"
)
if [ -z "${base_bugs:-}" ]; then
    echo "FAIL: no gate line in $baseline" >&2
    exit 2
fi

out=$("$FP_DELTA")
echo "$out"
read -r bugs fp_pruned fp_interproc fp_refute < <(
    sed -n 's/^gate: bugs=\([0-9]*\) fp_pruned=\([0-9]*\) fp_interproc=\([0-9]*\) fp_refute=\([0-9]*\)$/\1 \2 \3 \4/p' \
        <<<"$out"
)
if [ -z "${bugs:-}" ]; then
    echo "FAIL: fp_delta printed no gate line" >&2
    exit 2
fi

# Names the exact reports that differ from the baseline inventory at one
# rung, by fingerprint, so a count failure is actionable without rerunning.
name_fp_delta() {
    local rung=$1
    local base_fps cur_fps
    base_fps=$(grep "^fp\[$rung\]" "$baseline" | sort || true)
    cur_fps=$(grep "^fp\[$rung\]" <<<"$out" | sort || true)
    local appeared disappeared
    appeared=$(comm -13 <(echo "$base_fps") <(echo "$cur_fps"))
    disappeared=$(comm -23 <(echo "$base_fps") <(echo "$cur_fps"))
    if [ -n "$appeared" ]; then
        echo "  appeared at rung $rung (not in baseline):" >&2
        sed 's/^/    /' <<<"$appeared" >&2
    fi
    if [ -n "$disappeared" ]; then
        echo "  disappeared at rung $rung (baseline report no longer emitted):" >&2
        sed 's/^/    /' <<<"$disappeared" >&2
    fi
}

status=0
if [ "$bugs" -lt "$base_bugs" ]; then
    echo "FAIL: bug recall regressed: $bugs < baseline $base_bugs" >&2
    status=1
fi
if [ "$fp_pruned" -gt "$base_fp_pruned" ]; then
    echo "FAIL: pruned false positives rose: $fp_pruned > baseline $base_fp_pruned" >&2
    name_fp_delta pruned
    status=1
fi
if [ "$fp_interproc" -gt "$base_fp_interproc" ]; then
    echo "FAIL: interproc false positives rose: $fp_interproc > baseline $base_fp_interproc" >&2
    name_fp_delta interproc
    status=1
fi
if [ "$fp_refute" -gt "$base_fp_refute" ]; then
    echo "FAIL: refute false positives rose: $fp_refute > baseline $base_fp_refute" >&2
    name_fp_delta refute
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "fp-gate ok: bugs=$bugs (>= $base_bugs), fp_pruned=$fp_pruned (<= $base_fp_pruned), fp_interproc=$fp_interproc (<= $base_fp_interproc), fp_refute=$fp_refute (<= $base_fp_refute)"
    if [ "$fp_pruned" -lt "$base_fp_pruned" ] || [ "$fp_interproc" -lt "$base_fp_interproc" ] || [ "$fp_refute" -lt "$base_fp_refute" ]; then
        echo "note: false positives dropped below baseline — ratchet scripts/fp_baseline.txt down"
    fi
fi
exit "$status"
