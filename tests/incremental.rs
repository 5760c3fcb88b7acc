//! Incremental engine equivalence: warm, disk-warm, and touched re-runs
//! must reproduce the cold report vector exactly — same reports, same
//! order — at every worker count, and an incremental re-check after an
//! edit must match a from-scratch run on the edited sources.
//!
//! Together with `tests/determinism.rs` this pins the property that makes
//! caching safe to leave on: output never depends on what happens to be in
//! the cache or on thread scheduling. The reference every run is held to is
//! [`oracle`]: a cold run of a fresh engine.

use flash_mc::checkers::all_checkers;
use flash_mc::corpus::plan::PLANS;
use flash_mc::corpus::{generate, DEFAULT_SEED};
use flash_mc::driver::cache::DiskCache;
use flash_mc::driver::{CheckEngine, Driver, Report};

fn corpus_sources(
    plan_idx: usize,
) -> (Vec<(String, String)>, flash_mc::checkers::flash::FlashSpec) {
    let proto = generate(&PLANS[plan_idx], DEFAULT_SEED.wrapping_add(plan_idx as u64));
    (proto.sources(), proto.spec.clone())
}

fn driver_for(spec: &flash_mc::checkers::flash::FlashSpec, jobs: usize) -> Driver {
    let mut driver = Driver::new();
    driver.jobs(jobs);
    all_checkers(&mut driver, spec).expect("suite registers");
    driver
}

/// Renders reports the way `mcheck` prints them, so "identical" means
/// byte-identical user-visible output, not just structural equality.
fn rendered(reports: &[Report]) -> String {
    reports
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// A cold check by a fresh in-memory engine.
fn oracle(driver: &Driver, sources: &[(String, String)]) -> Vec<Report> {
    CheckEngine::in_memory()
        .check_sources(driver, sources)
        .expect("parses")
        .0
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mc-incr-test-{tag}-{}", std::process::id()))
}

#[test]
fn cold_warm_disk_and_touch_identical_across_worker_counts() {
    let (sources, spec) = corpus_sources(0);
    let baseline = oracle(&driver_for(&spec, 1), &sources);

    let dir = scratch_dir("jobs");
    let _ = std::fs::remove_dir_all(&dir);

    // One shared cache directory across every worker count: the first run
    // is cold and populates it, each later engine replays from disk.
    let mut first = true;
    for jobs in [1usize, 4, 8] {
        let driver = driver_for(&spec, jobs);
        let disk = DiskCache::open(&dir).expect("cache dir");
        let mut engine = CheckEngine::with_disk(disk);

        let (cold, stats) = engine.check_sources(&driver, &sources).expect("parses");
        assert_eq!(cold, baseline, "jobs={jobs} cold run diverged");
        assert_eq!(rendered(&cold), rendered(&baseline));
        if first {
            assert!(!stats.program_hit, "first run cannot be a cache hit");
            first = false;
        } else {
            assert!(
                stats.program_hit,
                "jobs={jobs} should replay the program record from the shared dir"
            );
        }

        // Warm: same engine, same sources.
        let (warm, stats) = engine.check_sources(&driver, &sources).expect("parses");
        assert_eq!(warm, baseline, "jobs={jobs} warm run diverged");
        assert!(stats.program_hit && stats.parses == 0);

        // "Touch": re-presenting the same bytes (what a watch poll sees
        // after a timestamp-only change) must also be a pure replay.
        let touched: Vec<(String, String)> = sources.clone();
        let (after_touch, stats) = engine.check_sources(&driver, &touched).expect("parses");
        assert_eq!(after_touch, baseline, "jobs={jobs} touched run diverged");
        assert!(stats.program_hit && stats.units_checked == 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_dirty_warm_run_equals_fresh_cold_run() {
    let (sources, spec) = corpus_sources(1);
    let driver = driver_for(&spec, 4);

    let mut engine = CheckEngine::in_memory();
    engine.check_sources(&driver, &sources).expect("parses");

    // Edit one file: a new helper the local checkers flag (it reads the
    // data buffer without the simulator hooks), so the edit changes reports.
    let mut edited = sources.clone();
    edited[0]
        .0
        .push_str("\nvoid incr_probe(void) { long m; m = MISCBUS_READ_DB(a, b); }\n");

    let (incremental, stats) = engine.check_sources(&driver, &edited).expect("parses");
    assert!(!stats.program_hit);
    assert_eq!(
        stats.units_checked, 1,
        "exactly the edited unit should re-check, got {stats:?}"
    );
    assert_eq!(
        stats.source_hits,
        sources.len() - 1,
        "every other unit should replay, got {stats:?}"
    );

    let cold = oracle(&driver, &edited);
    assert_eq!(incremental, cold, "incremental diverged from a cold run");
    assert_eq!(rendered(&incremental), rendered(&cold));
}

/// One edit step of the invalidation matrix: a probe callee/caller pair
/// appended to the first corpus file, each field independently editable so
/// a step can change exactly one invalidation-relevant dimension.
#[derive(Clone, Copy)]
struct ProbeEdit {
    /// Body of `mtx_callee` — editing it changes the callee's summary.
    callee_body: &'static str,
    /// Full signature of the caller — editing it flips the signature hash.
    caller_sig: &'static str,
    /// Body of `mtx_caller` after the `mtx_callee()` call site.
    caller_body: &'static str,
    /// Trailing whitespace after everything: a layout-only edit that
    /// displaces no token.
    trailing_pad: &'static str,
}

const PROBE_BASE: ProbeEdit = ProbeEdit {
    callee_body: "PROC_DEFS();",
    caller_sig: "void mtx_caller(void)",
    caller_body: "PROC_DEFS();",
    trailing_pad: "",
};

/// The matrix: each step differs from its predecessor in exactly one
/// dimension, and the final step reverts to the primed base.
const MATRIX: [(&str, ProbeEdit); 5] = [
    (
        "body-only",
        ProbeEdit {
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            ..PROBE_BASE
        },
    ),
    (
        "signature",
        ProbeEdit {
            caller_sig: "void mtx_caller(int pad)",
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            ..PROBE_BASE
        },
    ),
    (
        "layout-only",
        ProbeEdit {
            caller_sig: "void mtx_caller(int pad)",
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            trailing_pad: "   \n",
            ..PROBE_BASE
        },
    ),
    (
        "callee-summary",
        ProbeEdit {
            callee_body: "PROC_DEFS(); DB_FREE();",
            caller_sig: "void mtx_caller(int pad)",
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            trailing_pad: "   \n",
        },
    ),
    ("revert", PROBE_BASE),
];

fn with_probes(sources: &[(String, String)], e: &ProbeEdit) -> Vec<(String, String)> {
    let mut out = sources.to_vec();
    out[0].0.push_str(&format!(
        "\nvoid mtx_callee(void) {{ {} }}\n{} {{ mtx_callee(); {} }}\n{}",
        e.callee_body, e.caller_sig, e.caller_body, e.trailing_pad
    ));
    out
}

fn interproc_driver(spec: &flash_mc::checkers::flash::FlashSpec, jobs: usize) -> Driver {
    let mut driver = driver_for(spec, jobs);
    driver.interproc(true);
    driver
}

/// The full invalidation matrix, at every worker count: every step's
/// incremental output is byte-identical to a from-scratch oracle run on the
/// same sources, and the per-step stats show the intended tier answered —
/// function replay for a body edit, the AST key for a layout edit, a
/// red caller for a callee-summary change, a program replay for a revert.
#[test]
fn invalidation_matrix_byte_identical_across_jobs() {
    let (sources, spec) = corpus_sources(0);

    // Oracle output is jobs-independent by contract, so one jobs=1 baseline
    // per step also pins cross-job byte identity for the engines below.
    let baseline_driver = interproc_driver(&spec, 1);
    let base_sources = with_probes(&sources, &PROBE_BASE);
    let prime_baseline = oracle(&baseline_driver, &base_sources);
    let baselines: Vec<Vec<Report>> = MATRIX
        .iter()
        .map(|(_, e)| oracle(&baseline_driver, &with_probes(&sources, e)))
        .collect();

    for jobs in [1usize, 4, 8] {
        let driver = interproc_driver(&spec, jobs);
        let mut engine = CheckEngine::in_memory();
        let (prime, _) = engine
            .check_sources(&driver, &base_sources)
            .expect("parses");
        assert_eq!(prime, prime_baseline, "jobs={jobs} prime diverged");

        for ((label, edit), baseline) in MATRIX.iter().zip(&baselines) {
            let step = with_probes(&sources, edit);
            let (got, stats) = engine.check_sources(&driver, &step).expect("parses");
            assert_eq!(got, *baseline, "jobs={jobs} step={label} diverged");
            assert_eq!(
                rendered(&got),
                rendered(baseline),
                "jobs={jobs} step={label} rendering diverged"
            );
            match *label {
                "body-only" => {
                    // Under interproc the edited unit's whole component is
                    // demoted (its callee summaries changed), so the unit
                    // counters reflect the component — the function tier is
                    // where the edit stays small.
                    assert!(
                        stats.functions_replayed >= 10,
                        "{label}: the unchanged functions of the dirty \
                         component should replay green, got {stats:?}"
                    );
                    assert!(
                        stats.functions_rechecked >= 1 && stats.functions_rechecked <= 4,
                        "{label}: only the edited caller (and its red \
                         neighbourhood) should re-check, got {stats:?}"
                    );
                    assert!(
                        stats.functions_rechecked * 10 < stats.functions_replayed,
                        "{label}: a body-only edit must re-check under 10% \
                         of the replayed functions, got {stats:?}"
                    );
                }
                "signature" => {
                    assert!(
                        stats.functions_rechecked >= 1,
                        "{label}: a signature edit must redden the function, \
                         got {stats:?}"
                    );
                }
                "layout-only" => {
                    assert_eq!(stats.ast_hits, 1, "{label}: {stats:?}");
                    assert_eq!(stats.units_checked, 0, "{label}: {stats:?}");
                }
                "callee-summary" => {
                    assert!(
                        stats.functions_rechecked >= 2,
                        "{label}: the callee AND its summary-dependent \
                         caller must both re-check, got {stats:?}"
                    );
                }
                "revert" => {
                    assert!(
                        stats.program_hit,
                        "{label}: the primed program record should replay, \
                         got {stats:?}"
                    );
                    assert_eq!(
                        got, prime,
                        "{label}: revert must restore the primed reports"
                    );
                }
                other => unreachable!("unknown matrix step {other}"),
            }
        }
    }
}

/// Changing a metal program is a suite change: every cached artifact is
/// scoped out, and the next run matches a from-scratch run under the new
/// program.
#[test]
fn metal_program_change_invalidates_and_matches_cold() {
    const SM_V1: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
            ;
        }
    "#;
    // Same machine, different diagnostic text: a one-token program edit.
    const SM_V2: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Raw read of unsynchronized buffer"); }
            ;
        }
    "#;

    let srcs: Vec<(String, String)> = vec![
        (
            "void raw(void) { MISCBUS_READ_DB(x, y); }".into(),
            "raw.c".into(),
        ),
        (
            "void synced(void) { WAIT_FOR_DB_FULL(x); MISCBUS_READ_DB(x, y); }".into(),
            "synced.c".into(),
        ),
    ];

    let mut d1 = Driver::new();
    d1.add_metal_source(SM_V1).expect("v1 compiles");
    let mut d2 = Driver::new();
    d2.add_metal_source(SM_V2).expect("v2 compiles");
    assert_ne!(
        d1.suite_key(),
        d2.suite_key(),
        "a metal edit must change the suite key"
    );

    let mut engine = CheckEngine::in_memory();
    engine.check_sources(&d1, &srcs).expect("parses");

    let (under_v2, stats) = engine.check_sources(&d2, &srcs).expect("parses");
    assert!(!stats.program_hit, "old metal program must not replay");
    assert_eq!(stats.units_checked, srcs.len(), "{stats:?}");
    assert_eq!(
        under_v2,
        oracle(&d2, &srcs),
        "post-edit engine output diverged from cold"
    );
    assert!(
        rendered(&under_v2).contains("Raw read of unsynchronized buffer"),
        "the new diagnostic text should surface: {}",
        rendered(&under_v2)
    );
}

#[test]
fn reverting_an_edit_restores_the_original_reports_from_cache() {
    let (sources, spec) = corpus_sources(2);
    let driver = driver_for(&spec, 2);

    let dir = scratch_dir("revert");
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = CheckEngine::with_disk(DiskCache::open(&dir).expect("cache dir"));

    let (original, _) = engine.check_sources(&driver, &sources).expect("parses");

    let mut edited = sources.clone();
    edited[0].0.push_str("\nvoid transient(void) { }\n");
    engine.check_sources(&driver, &edited).expect("parses");

    // Undo: the original program record is still on disk and in memory, so
    // the revert is a whole-program replay.
    let (reverted, stats) = engine.check_sources(&driver, &sources).expect("parses");
    assert!(stats.program_hit, "revert should hit the program cache");
    assert_eq!(reverted, original);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine partitions units by [`CallInfo`] derived from the callee
/// names its parse query already collected; that must equal a direct walk
/// of every call expression in the unit.
#[test]
fn derived_call_info_matches_a_direct_walk_on_the_seed_corpus() {
    use flash_mc::ast::{parse_translation_unit, walk_function, Expr, Visitor};
    use flash_mc::driver::{CallInfo, CheckedUnit};
    use std::collections::BTreeSet;

    struct Calls(BTreeSet<String>);
    impl Visitor for Calls {
        fn visit_expr(&mut self, expr: &Expr) {
            if let Some((callee, _)) = expr.as_call() {
                self.0.insert(callee.to_string());
            }
        }
    }
    for plan_idx in 0..PLANS.len() {
        let (sources, _) = corpus_sources(plan_idx);
        for (src, file) in &sources {
            let unit = CheckedUnit::new(parse_translation_unit(src, file).expect("parses"));
            let mut calls = Calls(BTreeSet::new());
            let defines = unit
                .unit
                .functions()
                .map(|f| {
                    walk_function(&mut calls, f);
                    f.name.clone()
                })
                .collect();
            let walked = CallInfo {
                defines,
                calls: calls.0.into_iter().collect(),
            };
            assert_eq!(unit.call_info(), walked, "{file}");
        }
    }
}

/// `sources` with one function body edited in place: a global write
/// inserted before the first statement of the first file's first non-empty
/// function, on the same line, so no other function moves.
fn edit_one_body(sources: &[(String, String)]) -> Vec<(String, String)> {
    let mut out = sources.to_vec();
    let (src, file) = &out[0];
    let unit = flash_mc::ast::parse_translation_unit(src, file).expect("parses");
    let span = unit
        .functions()
        .find_map(|f| f.body.first())
        .expect("a non-empty body")
        .span;
    let line_start: usize = src
        .split_inclusive('\n')
        .take(span.line as usize - 1)
        .map(str::len)
        .sum();
    out[0]
        .0
        .insert_str(line_start + span.col as usize - 1, "gSummaryProbe = 1; ");
    out
}

/// The one bottom-up summary engine: after a one-function body edit, the
/// store built from a warm memo equals a fresh computation in every field
/// (compared through the `SummaryRecord` cache form), for every seed
/// protocol, with transfers on and off, at one and four workers.
#[test]
fn memoized_summaries_after_a_body_edit_equal_a_fresh_computation() {
    use flash_mc::ast::parse_translation_unit;
    use flash_mc::driver::cache::SummaryRecord;
    use flash_mc::driver::{CheckedUnit, Summaries};

    let parse = |srcs: &[(String, String)]| -> Vec<CheckedUnit> {
        srcs.iter()
            .map(|(src, file)| CheckedUnit::new(parse_translation_unit(src, file).expect("parses")))
            .collect()
    };
    let record = |s: &Summaries| {
        mc_json::to_string(&SummaryRecord {
            key: 0,
            summaries: s.iter().cloned().collect(),
        })
    };
    for plan_idx in 0..PLANS.len() {
        let (sources, spec) = corpus_sources(plan_idx);
        let edited = edit_one_body(&sources);
        let (before, after) = (parse(&sources), parse(&edited));
        let (before, after): (Vec<&CheckedUnit>, Vec<&CheckedUnit>) =
            (before.iter().collect(), after.iter().collect());
        for interproc in [false, true] {
            for jobs in [1usize, 4] {
                let mut driver = driver_for(&spec, jobs);
                driver.interproc(interproc);
                let mut memo = std::collections::HashMap::new();
                Summaries::compute_memoized(&driver, &before, interproc, &mut memo);
                let warm = Summaries::compute_memoized(&driver, &after, interproc, &mut memo);
                let fresh = Summaries::compute(&driver, &after, interproc);
                let cell = format!("plan {plan_idx}, interproc={interproc}, jobs={jobs}");
                let json = record(&warm);
                assert_eq!(json, record(&fresh), "{cell}");
                let back: SummaryRecord = mc_json::from_str(&json).expect("round trip");
                assert!(back.summaries.iter().eq(fresh.iter()), "{cell}");
                assert!(fresh.stats().call_sites_resolved > 0, "{cell}");
                assert!(
                    warm.stats().computed < fresh.stats().computed,
                    "{cell}: the warm memo should spare the unedited functions"
                );
            }
        }
    }
}
