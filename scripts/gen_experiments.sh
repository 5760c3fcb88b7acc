#!/bin/sh
# Regenerates EXPERIMENTS.md from the measured tables.
set -e
cd "$(dirname "$0")/.."
{
cat <<'EOF'
# EXPERIMENTS — paper vs. measured

Every cell below is printed as `paper/measured`. Measured values come from
running the full checker suite (`mc-checkers`) over the synthetic corpus
(`mc-corpus`, seed `0xF1A5`) and joining reports against the planted-defect
manifest — see `crates/mc-corpus/tests/manifest_exactness.rs` for the test
that pins all of this in CI.

Regenerate this file with `scripts/gen_experiments.sh`, or any single table
with `cargo run -p mc-bench --bin tableN`.

## Methodology

The original FLASH protocol sources are proprietary, so the corpus
generator plants the paper's defects (and false-positive triggers, and
suppression annotations) at the **exact per-protocol counts** of Tables
2–6/§7, inside protocols whose size, routine count, variable count, and
operation mix match Tables 1/5. Because the evaluation joins reports
against ground truth, the "Errors" and "False Pos" columns are measured
facts about the checkers, not assumptions: a checker that missed a planted
bug or reported noise would show up immediately (and does, in the
integration tests, if you break one). The planted counts are exact by
construction; everything else — LOC, path statistics, applied counts,
which checker finds what, and that nothing *extra* is reported — is
measured from the generated code and the reports. Seed-independence of the
exactness property is itself property-tested
(`crates/mc-corpus/tests/proptest_seeds.rs`).

## Table 1 — protocol size

EOF
echo '```'
cargo run -q -p mc-bench --bin table1
echo '```'
cat <<'EOF'

LOC matches the paper within 0.3 % per protocol. Path counts, average
path length, and longest path all match within 2× (ordering preserved
for the extremes: dyn_ptr has by far the most paths, bitvector the
fewest). Each protocol carries one deep straight-line handler calibrated
to the paper's longest-path column; the residual shortfall is metric
skew — we count statements where the paper counted lines. The 2× bound
is pinned by `path_lengths_within_2x_of_table1` in `mc-corpus`.

## Table 2 — buffer race checker (Figure 2)

EOF
echo '```'
cargo run -q -p mc-bench --bin table2
echo '```'
cat <<'EOF'

Exact: 4 bugs, all in bitvector (two of them the "only the first byte is
read early" shape), 1 intentional debug-code false positive in the common
code, 59 reads checked.

## Table 3 — message length checker (Figure 3)

EOF
echo '```'
cargo run -q -p mc-bench --bin table3
echo '```'
cat <<'EOF'

Exact on the paper's numbers, including the headline: this checker finds
the most bugs (18), with both coma false positives produced by the same
run-time-selected send in one function. The one extra measured dyn_ptr
false positive is the summary-engine demonstration site (the length is
assigned in a helper the local analysis cannot see into); `mcheck
--interproc` resolves it — see the delta section below.

## Table 4 — buffer management checker

EOF
echo '```'
cargo run -q -p mc-bench --bin table4
echo '```'
cat <<'EOF'

Exact on the paper's numbers across all four columns. "Useful" counts
planted `has_buffer()` / `no_free_needed()` annotations (which correctly
silence the checker); "Useless" counts false-positive reports from
unpruned correlated branches (2 reports each) and data-dependent frees
(1 report each). The one extra measured sci report is the summary-engine
demonstration site (the free hidden in an un-annotated wrapper), resolved
by `mcheck --interproc`.

## Table 5 — execution restriction checker

EOF
echo '```'
cargo run -q -p mc-bench --bin table5
echo '```'
cat <<'EOF'

All 11 violations are missing simulator hooks, as in the paper; sci's 3
violations sit inside `FATAL_ERROR` stubs and are correctly not counted.
The variable count drifts by 1 in coma (the generator's var-distribution
remainder).

## Table 6 — the three lower-yield checks

EOF
echo '```'
cargo run -q -p mc-bench --bin table6
echo '```'
cat <<'EOF'

Exact, including the directory checker's single real bug (bitvector) and
its 31 false positives decomposed as in §9.1: 14 un-annotated write-back
subroutines, 3 speculative back-outs on the NAK reply path, 14 explicit
address-computation abstraction errors.

## §7 — lane/deadlock checker

Two bugs, zero false positives, reproduced in `table7` and pinned by
`crates/mc-checkers/src/lanes.rs` tests and
`crates/mc-checkers/tests/paper_anecdotes.rs`: the dyn_ptr bug (a hardware
workaround in a helper pushes the handler over its lane allowance —
found **inter-procedurally** with a back trace through the call) and the
bitvector bug (a duplicated request send). Send-free loops and recursion
are fixed points and produce no false positives.

## Table 7 — summary

EOF
echo '```'
cargo run -q -p mc-bench --bin table7
echo '```'
cat <<'EOF'

Bug totals are exact (34/34); the false-positive total measures 71 —
the paper's 69 plus the two summary-engine demonstration sites planted
on top (see the delta section below). Checker sizes differ
where the implementation language differs: the two metal checkers are
*smaller* than the paper's, while native Rust extensions carry Rust's
verbosity (e.g. buffer management ~250 lines vs 94 lines of
metal-with-C-actions). The ordering the paper emphasizes — pattern-based
checkers are 1–2 orders of magnitude smaller than the code they check —
holds. (The paper's "No-float 7" row is folded into our `exec_restrict`;
its slot lists the §11 refcount check.)

## The false-positive ladder — pruning, summaries, refutation

The tables above reproduce the paper's xg++, which explored paths with no
feasibility reasoning and treated every call as opaque; `mcheck` adds an
intraprocedural feasibility domain (DESIGN.md §9) that refutes
correlated-branch paths (**on by default**), a bottom-up function
summary engine (DESIGN.md §11) that resolves call sites (`--interproc`,
opt-in), and a post-pass symbolic refuter (DESIGN.md §14) that slices
each surviving report's witness and solves its path condition over
linear integer constraints (`--refute`, the CLI default). The same
suite run all four ways:

EOF
echo '```'
cargo run -q --release -p mc-bench --bin fp_delta
echo '```'
cat <<'EOF'

Pruning removes 24 of the 71 false positives (the 11 correlated-branch
buffer-management pairs and the 2 coma message-length FPs, which the
paper's manual triage had to discard by hand); call-site resolution then
removes the 16 helper-hidden ones (the 14 un-annotated directory
write-back subroutines of §9.1 plus the two demonstration sites),
leaving 31 — below the paper's 45. The symbolic refuter then demotes
the 25 residual witnesses that ride an infeasible multi-variable
credit/debit guard — all 17 remaining directory FPs (the NAK-path
back-outs and address-computation sites of §9.1) and all 8 send-wait
FPs, three of them correlated through a same-file helper the executor
inlines — leaving **6**, while every one of the 46 planted-bug reports
survives all three analyses. Pinned by
`pruning_cuts_false_positives_and_summaries_cut_them_further`,
`pruning_never_drops_a_planted_bug`,
`interproc_never_drops_a_planted_bug`,
`refutation_matches_the_manifest_end_to_end`, and
`interproc_witness_splice_refutes_through_the_helper` in `mc-corpus`,
seed-independent via `proptest_seeds.rs`, and held in CI by
`scripts/fp_gate.sh` against `scripts/fp_baseline.txt` (all three
rungs, per-fingerprint) and `tests/oracle_matrix.rs` (verdicts
byte-identical across `--jobs 1/4/8`, cache state, and shard farms). The
confidence line shows the ranking the paper did by hand (§9.1's NAK and
debug-print heuristics, automated in `mc-driver`): surviving reports
are sorted most-likely-real first, and planted bugs rank a full
confidence band above the surviving false positives.

## Figures

* **Figure 1** (FLASH node block diagram) is architectural, not a data
  artifact; its structure is realized by `mc-sim` (R10000-side PI
  interface, MAGIC controller with buffer pool + lanes + directory, NI/IO
  interfaces). A complete MSI coherence protocol written in the handler
  idiom runs on it (`crates/mc-sim/tests/msi_coherence.rs`,
  `examples/msi_coherence.rs`).
* **Figures 2 and 3** (metal checker listings) ship as runnable metal
  programs: `crates/mc-checkers/metal/wait_for_db.metal` and
  `crates/mc-checkers/metal/msglen.metal`, exercised by every table above.

## §11 — the "betrayal" incident

The single manual `DB_REFCOUNT_INCR()` call in all ~80 K lines is planted
in bitvector; the post-incident checker finds exactly it (pinned by
`refcount_incident_found_once_in_bitvector`). The simulator replays the
dynamics: with the manual bump, the apparent double free is *correct* and
removing it leaks (`manual_refcount_bump_requires_two_frees` in `mc-sim`).

## Dynamic validation (FlashLite analog)

`crates/mc-sim/tests/corpus_dynamics.rs` shows the statically-found bugs
manifesting at run time, reproducing the paper's motivation:

* the bitvector race bug reads garbage from a not-yet-filled buffer;
* a rac message-length bug corrupts the wire header **only** when its
  rare double corner-case (`gDirtyRemote && gQueueFull`) is armed — and is
  completely silent otherwise, which is why such bugs survive years of
  simulation;
* the sci leak bug drains the buffer pool and wedges the node only after
  many healthy-looking handler runs (the "deadlocks after several days"
  class, scaled to a small pool);
* clean generated handlers sustain hundreds of messages with no events.

## Fleet scale & the shard farm

The paper checked one ~80 K-line protocol suite; DESIGN.md §16 scales
the reproduction out. `mcheck --emit-corpus <dir> --scale 10` generates
a 10-family fleet (family 0 is byte-identical to the seed corpus above,
so every table here is unaffected), the driver fans work out over a
shared-counter worker pool, and `--shard i/N` + `mcheck merge` split a
check across processes sharing one cache with byte-identical folded
output (`tests/shard.rs` pins the {1,2,4}-shard × {1,4}-job matrix;
`tests/oracle_matrix.rs` holds it over both corpora).

Fleet performance is measured by `mc-benchmark` (`bench/`), the one
end-to-end performance record. Its `fleet_interproc` workload generates
the scale-10 fleet at seed 61861 (60 protocols, 853,616 LOC) and times
`mcheck --builtin --jobs 2 --interproc --no-refute --format json` over
one protocol per op, 5 passes of 60 ops. One run of

    cargo run --release --manifest-path bench/Cargo.toml -- run --seed 61861

on a 2-core host (nproc 2, rustc 1.95.0), from a copy of revision
0a26c18 with the shared-counter pool applied (not a git checkout, so the
run records its revision as `unknown`), gave:

| metric | value |
|---|---|
| `setup_s` (median of 3 set-ups) | 4.78 s |
| `op_p50_ms` (300 ops) | 55.2 ms |
| `op_p90_ms` | 76.7 ms |
| `kloc_per_s` (median of 5 passes) | 235.7 kLOC/s |
| `cpu_ms_per_op` | 97.7 ms |
| `peak_rss_mb` | 34.0 MB |
| failed ops | 0 of 300 |

One run has no spread, and on this host op latency drifts by ±20%
between runs; judge a change with `mc-benchmark compare` over
interleaved runs of both sides.

## Benchmarks

`cargo bench -p mc-bench` (Criterion). `framework` measures front end,
CFG construction, each checker end-to-end over bitvector, and simulator
throughput. `scaling` runs the two ablations from DESIGN.md: state-set
worklist vs. exhaustive path enumeration as sequential branching grows
(4→16 branches ≈ 16→65 536 paths; in two runs on a 2-core host,
state-set stayed at 17–58 µs while exhaustive grew from ~87 µs to
0.3–0.5 s), and pattern pre-filtering vs. naive matching beside the
compiled decision program, every bar asserting the interpreter's
reports (the compiled bar ran 2.4–2.8× faster than either interpreter
bar in the same two runs). `parallel` times the corpus at 1/2/4/8
workers with pruning on and off. Full numbers are recorded in
`bench_output.txt`.
EOF
} > EXPERIMENTS.md
echo "EXPERIMENTS.md regenerated"
