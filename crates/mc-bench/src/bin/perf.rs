//! Driver throughput trajectory: checks the full corpus at several worker
//! counts and writes the measurements to `BENCH_driver.json`.
//!
//! ```text
//! cargo run --release -p mc-bench --bin perf [-- --jobs-list 1,2,4,8] [--out FILE]
//! ```
//!
//! Every row records wall time, functions checked per second, and the
//! report count; the report count is asserted identical across worker
//! counts (the driver's determinism guarantee), so a row differing in
//! anything but speed is a bug, not noise. The whole trajectory is
//! measured twice: with path-feasibility pruning on (the driver default)
//! and off, so the cost of the feasibility analysis is visible next to
//! the false positives it removes.

//! A second section measures the incremental engine on the same corpus:
//! a cold run into an empty cache, a warm run (nothing changed), a warm
//! run from a fresh process (disk records only), and a one-file-dirty run.
//! The warm and dirty speedups over cold are recorded in the output so the
//! incremental win is part of the tracked perf trajectory.
//!
//! A third section measures the summary engine: the full corpus checked
//! with call-site resolution off and on (pruning on in both), plus how
//! many function summaries the bottom-up pass computes and how many call
//! sites they resolve, so the cost of `--interproc` is tracked next to
//! the false positives it removes.
//!
//! A fourth section races the two metal engines head-to-head: the three
//! built-in metal checkers over every corpus function, interpreted vs
//! compiled, with identical reports asserted and the match-attempt counts
//! recorded so the dispatch index's pruning is visible, not just its
//! wall-clock effect.
//!
//! A fifth section measures the symbolic refutation pass: the full corpus
//! checked with `--refute` off and on (pruning on in both), plus how many
//! reports the pass demoted, so the cost of slicing and solving every
//! witness is tracked next to the false positives it removes.
//!
//! A sixth section measures the fleet-scale corpus (`--scale 10`):
//! generation time, function count, and a cold check, so the scaling
//! trajectory toward the ROADMAP's fleet-sized workloads is tracked. It
//! also records the work-stealing pool's counters over that check (steals,
//! probe attempts, idle time, tasks per worker), so a scheduling
//! regression is diagnosable from the JSON alone.
//!
//! Worker counts above the machine's available parallelism are skipped
//! (and recorded in the output): timing an oversubscribed pool measures
//! scheduler churn, not the driver. Set `MC_BENCH_FORCE_WORKERS=1` to
//! keep them anyway — on a 1-core CI runner that is the only way to
//! exercise the multicore rows at all (expect parity, not speedups, and
//! read the scheduler counters instead of the wall clock).
//!
//! Every check runs through the one executor, a cold
//! `CheckEngine::in_memory()` per protocol.

use mc_bench::checked_units;
use mc_cfg::{run_traversal, Mode, Traversal};
use mc_checkers::all_checkers;
use mc_corpus::plan::PLANS;
use mc_corpus::{generate, DEFAULT_SEED};
use mc_driver::cache::DiskCache;
use mc_driver::{CheckEngine, CheckedUnit, Driver, SchedStats, Summaries, Verdict};
use mc_json::Json;
use mc_metal::{
    CandidatePlan, CompiledMachine, CompiledProgram, MetalMachine, MetalProgram, MetalReport,
};
use std::time::Instant;

/// Timed result of one full-corpus check at a fixed worker count.
struct Row {
    workers: usize,
    prune: bool,
    wall_ms: f64,
    functions: usize,
    reports: usize,
}

/// What one full-corpus check did.
struct CorpusRun {
    /// Functions checked (every function: each protocol's check is cold).
    functions: usize,
    reports: usize,
    /// The pool counters of every protocol's driver, merged.
    sched: SchedStats,
}

fn check_corpus(
    sources: &[Vec<(String, String)>],
    specs: &[mc_checkers::flash::FlashSpec],
    jobs: usize,
    prune: bool,
) -> (usize, usize) {
    let run = check_corpus_full(sources, specs, jobs, prune, false);
    (run.functions, run.reports)
}

fn check_corpus_full(
    sources: &[Vec<(String, String)>],
    specs: &[mc_checkers::flash::FlashSpec],
    jobs: usize,
    prune: bool,
    interproc: bool,
) -> CorpusRun {
    let mut run = CorpusRun {
        functions: 0,
        reports: 0,
        sched: SchedStats::default(),
    };
    for (srcs, spec) in sources.iter().zip(specs) {
        let mut driver = Driver::new();
        driver.jobs(jobs);
        driver.prune(prune);
        driver.interproc(interproc);
        all_checkers(&mut driver, spec).expect("suite registers");
        let (reports, stats) = CheckEngine::in_memory()
            .check_sources(&driver, srcs)
            .expect("corpus parses");
        run.functions += stats.functions_rechecked;
        run.reports += reports.len();
        run.sched.merge(&driver.take_sched_stats());
    }
    run
}

/// Timed result of the fleet-scale corpus section.
struct ScaleBench {
    scale: usize,
    protocols: usize,
    functions: usize,
    loc: usize,
    gen_ms: f64,
    check_ms: f64,
    reports: usize,
    workers: usize,
    /// Pool counters of the cold check.
    sched: SchedStats,
}

/// Generates the `--scale` fleet corpus and measures a cold check of it.
fn bench_scale(scale: usize, jobs: usize) -> ScaleBench {
    let start = Instant::now();
    let fleet = mc_corpus::generate_fleet(DEFAULT_SEED, scale);
    let gen_ms = start.elapsed().as_secs_f64() * 1e3;
    let loc = fleet.iter().map(|p| p.loc()).sum();
    let sources: Vec<Vec<(String, String)>> = fleet.iter().map(|p| p.sources()).collect();
    let specs: Vec<_> = fleet.iter().map(|p| p.spec.clone()).collect();
    let start = Instant::now();
    let run = check_corpus_full(&sources, &specs, jobs, true, false);
    let check_ms = start.elapsed().as_secs_f64() * 1e3;
    ScaleBench {
        scale,
        protocols: fleet.len(),
        functions: run.functions,
        loc,
        gen_ms,
        check_ms,
        reports: run.reports,
        workers: jobs,
        sched: run.sched,
    }
}

/// Timed result of the summary-engine comparison (pruning on in both).
struct InterprocBench {
    workers: usize,
    wall_ms_off: f64,
    wall_ms_on: f64,
    reports_off: usize,
    reports_on: usize,
    summaries_computed: usize,
    call_sites_resolved: usize,
}

/// Measures the corpus with call-site resolution off vs on, and counts
/// what the bottom-up summary pass produces.
fn bench_interproc(
    sources: &[Vec<(String, String)>],
    specs: &[mc_checkers::flash::FlashSpec],
    jobs: usize,
    reps: usize,
) -> InterprocBench {
    let mut wall = [f64::INFINITY; 2];
    let mut reports = [0usize; 2];
    for (slot, interproc) in [false, true].into_iter().enumerate() {
        for _ in 0..reps {
            let start = Instant::now();
            let run = check_corpus_full(sources, specs, jobs, true, interproc);
            wall[slot] = wall[slot].min(start.elapsed().as_secs_f64() * 1e3);
            reports[slot] = run.reports;
        }
    }
    assert!(
        reports[1] <= reports[0],
        "summaries added reports ({} -> {})",
        reports[0],
        reports[1]
    );

    let mut summaries_computed = 0;
    let mut call_sites_resolved = 0;
    for (srcs, spec) in sources.iter().zip(specs) {
        let mut driver = Driver::new();
        driver.prune(true);
        driver.interproc(true);
        all_checkers(&mut driver, spec).expect("suite registers");
        let units = checked_units(srcs);
        let refs: Vec<&CheckedUnit> = units.iter().collect();
        let stats = Summaries::compute(&driver, &refs, true).stats();
        summaries_computed += stats.computed;
        call_sites_resolved += stats.call_sites_resolved;
    }

    InterprocBench {
        workers: jobs,
        wall_ms_off: wall[0],
        wall_ms_on: wall[1],
        reports_off: reports[0],
        reports_on: reports[1],
        summaries_computed,
        call_sites_resolved,
    }
}

/// Timed result of the refutation comparison (pruning on in both).
struct RefuteBench {
    workers: usize,
    wall_ms_off: f64,
    wall_ms_on: f64,
    reports_total: usize,
    reports_refuted: usize,
}

/// Measures the corpus with the symbolic refutation pass off vs on, and
/// counts the reports it demotes.
fn bench_refute(
    sources: &[Vec<(String, String)>],
    specs: &[mc_checkers::flash::FlashSpec],
    jobs: usize,
    reps: usize,
) -> RefuteBench {
    let mut wall = [f64::INFINITY; 2];
    let mut totals = [0usize; 2];
    let mut refuted = 0usize;
    for (slot, refute) in [false, true].into_iter().enumerate() {
        for _ in 0..reps {
            let mut total = 0;
            let mut demoted = 0;
            let start = Instant::now();
            for (srcs, spec) in sources.iter().zip(specs) {
                let mut driver = Driver::new();
                driver.jobs(jobs);
                driver.prune(true);
                driver.refute(refute);
                all_checkers(&mut driver, spec).expect("suite registers");
                let reports = driver.check_sources(srcs).expect("corpus parses");
                total += reports.len();
                demoted += reports
                    .iter()
                    .filter(|r| r.verdict == Verdict::Refuted)
                    .count();
            }
            wall[slot] = wall[slot].min(start.elapsed().as_secs_f64() * 1e3);
            totals[slot] = total;
            if refute {
                refuted = demoted;
            }
        }
    }
    // The pass only demotes: the report set itself is unchanged.
    assert_eq!(
        totals[0], totals[1],
        "refutation changed the report count ({} -> {})",
        totals[0], totals[1]
    );
    RefuteBench {
        workers: jobs,
        wall_ms_off: wall[0],
        wall_ms_on: wall[1],
        reports_total: totals[1],
        reports_refuted: refuted,
    }
}

/// Timed head-to-head of the two metal engines over the corpus functions.
struct MetalDispatchBench {
    functions: usize,
    wall_ms_interp: f64,
    wall_ms_compiled: f64,
    attempts_interp: u64,
    attempts_compiled: u64,
    candidates: u64,
    reports: usize,
    speedup: f64,
}

/// Runs the three built-in metal checkers over every corpus function with
/// each engine, timing only traversal + matching (the corpus is parsed
/// once, outside the clock). Reports must be identical; the compiled
/// engine must be at least 5x faster single-threaded.
fn bench_metal_dispatch(sources: &[Vec<(String, String)>], reps: usize) -> MetalDispatchBench {
    let progs: Vec<MetalProgram> = [
        mc_checkers::WAIT_FOR_DB_METAL,
        mc_checkers::MSGLEN_METAL,
        mc_checkers::REFCOUNT_BUMP_METAL,
    ]
    .iter()
    .map(|src| MetalProgram::parse(src).expect("builtin metal parses"))
    .collect();
    let compiled: Vec<CompiledProgram> = progs
        .iter()
        .map(|p| CompiledProgram::compile(p).expect("builtin metal compiles"))
        .collect();

    let units: Vec<CheckedUnit> = sources
        .iter()
        .flat_map(|srcs| checked_units(srcs))
        .collect();
    let functions: usize = units.iter().map(|u| u.cfgs.len()).sum();
    let traversal = Traversal::new(Mode::StateSet);

    let mut wall_interp = f64::INFINITY;
    let mut interp_reports: Vec<MetalReport> = Vec::new();
    let mut attempts_interp = 0u64;
    let mut candidates = 0u64;
    for _ in 0..reps {
        let mut reports = Vec::new();
        let mut attempts = 0u64;
        let mut cands = 0u64;
        let start = Instant::now();
        for unit in &units {
            for cfg in &unit.cfgs {
                for prog in &progs {
                    let mut m = MetalMachine::new(prog);
                    let init = m.start_state();
                    run_traversal(cfg, &mut m, init, traversal);
                    attempts += m.attempts;
                    cands += m.candidates;
                    reports.append(&mut m.reports);
                }
            }
        }
        wall_interp = wall_interp.min(start.elapsed().as_secs_f64() * 1e3);
        interp_reports = reports;
        attempts_interp = attempts;
        candidates = cands;
    }

    let mut wall_compiled = f64::INFINITY;
    let mut compiled_reports: Vec<MetalReport> = Vec::new();
    let mut attempts_compiled = 0u64;
    let refs: Vec<&CompiledProgram> = compiled.iter().collect();
    for _ in 0..reps {
        let mut reports = Vec::new();
        let mut attempts = 0u64;
        let start = Instant::now();
        for unit in &units {
            for cfg in &unit.cfgs {
                // The driver's compiled path: one plan per program over a
                // shared extraction walk, then plan-replaying traversals.
                let plans = CandidatePlan::build_many(&refs, cfg);
                for (cp, plan) in compiled.iter().zip(&plans) {
                    let mut m = CompiledMachine::with_plan(cp, plan);
                    let init = m.start_state();
                    run_traversal(cfg, &mut m, init, traversal);
                    attempts += m.attempts + plan.attempts;
                    reports.append(&mut m.reports);
                }
            }
        }
        wall_compiled = wall_compiled.min(start.elapsed().as_secs_f64() * 1e3);
        compiled_reports = reports;
        attempts_compiled = attempts;
    }

    assert_eq!(
        interp_reports, compiled_reports,
        "engines disagree on the corpus"
    );
    let speedup = wall_interp / wall_compiled;
    assert!(
        speedup >= 5.0,
        "compiled metal engine is only {speedup:.2}x faster than the \
         interpreter (expected >= 5x; interp {wall_interp:.1} ms, \
         compiled {wall_compiled:.1} ms)"
    );

    MetalDispatchBench {
        functions,
        wall_ms_interp: wall_interp,
        wall_ms_compiled: wall_compiled,
        attempts_interp,
        attempts_compiled,
        candidates,
        reports: compiled_reports.len(),
        speedup,
    }
}

/// Timed result of one incremental-engine phase over the whole corpus.
struct IncPhase {
    phase: &'static str,
    wall_ms: f64,
    reports: usize,
    /// Red functions: full per-function re-checks this phase ran.
    functions_rechecked: usize,
    /// Call-graph components whose program passes re-ran.
    components_rechecked: usize,
}

/// Aggregated engine counters over every protocol of one corpus pass.
#[derive(Default, Clone, Copy)]
struct EngineRun {
    reports: usize,
    functions_rechecked: usize,
    components_rechecked: usize,
}

fn build_drivers(specs: &[mc_checkers::flash::FlashSpec]) -> Vec<Driver> {
    specs
        .iter()
        .map(|spec| {
            let mut driver = Driver::new();
            driver.prune(true);
            all_checkers(&mut driver, spec).expect("suite registers");
            driver
        })
        .collect()
}

fn disk_engines(root: &std::path::Path, n: usize) -> Vec<CheckEngine> {
    (0..n)
        .map(|i| {
            let disk = DiskCache::open(root.join(format!("p{i}"))).expect("cache dir");
            CheckEngine::with_disk(disk)
        })
        .collect()
}

fn check_engines(
    engines: &mut [CheckEngine],
    drivers: &[Driver],
    sources: &[Vec<(String, String)>],
) -> EngineRun {
    let mut run = EngineRun::default();
    for ((e, d), s) in engines.iter_mut().zip(drivers).zip(sources) {
        let (reports, stats) = e.check_sources(d, s).expect("corpus parses");
        run.reports += reports.len();
        run.functions_rechecked += stats.functions_rechecked;
        run.components_rechecked += stats.components_rechecked;
    }
    run
}

/// The bench corpus with a hook-compliant probe function appended to the
/// first protocol's first file, its body `stmts` statements long. Varying
/// `stmts` between runs is a *body-only edit of one existing function in
/// one file* — the editor-save scenario the red/green engine targets.
fn with_probe_body(sources: &[Vec<(String, String)>], stmts: usize) -> Vec<Vec<(String, String)>> {
    let mut out = sources.to_vec();
    let first = out[0].first_mut().expect("protocol has files");
    let body = "PROC_DEFS(); ".to_string() + &"PROC_PROLOGUE(); ".repeat(stmts);
    first
        .0
        .push_str(&format!("\nvoid __bench_probe(void) {{ {body}}}\n"));
    out
}

/// Measures cold / warm / warm-from-disk / one-file-dirty engine runs.
fn bench_incremental(
    sources: &[Vec<(String, String)>],
    specs: &[mc_checkers::flash::FlashSpec],
    reps: usize,
) -> Vec<IncPhase> {
    let drivers = build_drivers(specs);
    let root = std::env::temp_dir().join(format!("mc-bench-cache-{}", std::process::id()));
    // Every phase runs the probed corpus, so the dirty phase measures a
    // body edit of a function that already exists, not a new definition.
    let base = with_probe_body(sources, 1);

    // Cold: fresh engine, empty cache directory (recreated every rep so
    // repetitions stay cold).
    let mut cold_best = f64::INFINITY;
    let mut cold = EngineRun::default();
    let mut engines = Vec::new();
    for _ in 0..reps {
        let _ = std::fs::remove_dir_all(&root);
        engines = disk_engines(&root, base.len());
        let start = Instant::now();
        cold = check_engines(&mut engines, &drivers, &base);
        cold_best = cold_best.min(start.elapsed().as_secs_f64() * 1e3);
    }

    // Warm: same engine, nothing changed — answered from the in-memory
    // program-level memo.
    let mut warm_best = f64::INFINITY;
    let mut warm = EngineRun::default();
    for _ in 0..reps {
        let start = Instant::now();
        warm = check_engines(&mut engines, &drivers, &base);
        warm_best = warm_best.min(start.elapsed().as_secs_f64() * 1e3);
    }

    // Warm from disk: a fresh process (new engine) over the populated
    // cache directory.
    let mut disk_best = f64::INFINITY;
    let mut disk = EngineRun::default();
    for _ in 0..reps {
        let mut fresh = disk_engines(&root, base.len());
        let start = Instant::now();
        disk = check_engines(&mut fresh, &drivers, &base);
        disk_best = disk_best.min(start.elapsed().as_secs_f64() * 1e3);
    }

    // One file dirty: the editor-save scenario — a body-only edit to one
    // function in one file of the whole corpus. The function-granular
    // engine re-checks just the edited probe and replays everything else
    // green; the untouched protocols answer from their program-level
    // memos. The probe body varies per rep so every rep measures a real
    // clean-to-dirty transition instead of hitting the previous rep's
    // memoized dirty result.
    let mut dirty_best = f64::INFINITY;
    let mut dirty = EngineRun::default();
    for rep in 0..reps {
        let dirty_sources = with_probe_body(sources, rep + 2);
        // Re-prime with the clean corpus so every rep starts from the same
        // warm state (cheap: program-level memo hit).
        check_engines(&mut engines, &drivers, &base);
        let start = Instant::now();
        dirty = check_engines(&mut engines, &drivers, &dirty_sources);
        dirty_best = dirty_best.min(start.elapsed().as_secs_f64() * 1e3);
    }

    assert_eq!(warm.reports, cold.reports, "warm run changed the reports");
    assert_eq!(disk.reports, cold.reports, "disk-warm run changed reports");

    // The replay must be byte-identical, not merely count-identical: one
    // more dirty transition, diffed report-by-report against a cold check
    // of the same edited sources.
    check_engines(&mut engines, &drivers, &base);
    let final_sources = with_probe_body(sources, reps + 2);
    for ((e, d), s) in engines.iter_mut().zip(&drivers).zip(&final_sources) {
        let (replayed, _) = e.check_sources(d, s).expect("corpus parses");
        let cold = d.check_sources(s).expect("corpus parses");
        assert_eq!(
            replayed, cold,
            "function-granular replay diverged from a cold check"
        );
    }
    let _ = std::fs::remove_dir_all(&root);

    let phase = |phase: &'static str, wall_ms: f64, run: EngineRun| IncPhase {
        phase,
        wall_ms,
        reports: run.reports,
        functions_rechecked: run.functions_rechecked,
        components_rechecked: run.components_rechecked,
    };
    vec![
        phase("cold", cold_best, cold),
        phase("warm", warm_best, warm),
        phase("warm_disk", disk_best, disk),
        phase("one_dirty", dirty_best, dirty),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut jobs_list: Vec<usize> = vec![1, 2, 4, 8];
    let mut out = "BENCH_driver.json".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs-list" if i + 1 < args.len() => {
                jobs_list = args[i + 1]
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .expect("--jobs-list expects comma-separated integers")
                    })
                    .filter(|&n| n >= 1)
                    .collect();
                if jobs_list.is_empty() {
                    eprintln!("--jobs-list needs at least one worker count >= 1");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out = args[i + 1].clone();
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: perf [--jobs-list 1,2,4,8] [--out BENCH_driver.json]");
                std::process::exit(2);
            }
        }
    }

    // Timing a pool of more workers than the machine has cores measures
    // scheduler churn, not the driver: skip those counts (the earlier
    // workers=4 row regressing on a 1-core runner was exactly this).
    // MC_BENCH_FORCE_WORKERS=1 keeps them — the only way to exercise the
    // multicore rows on a 1-core CI runner; read the scheduler counters,
    // not the wall clock, when forcing.
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let force_workers = std::env::var("MC_BENCH_FORCE_WORKERS").is_ok_and(|v| v != "0");
    let mut skipped_workers: Vec<usize> =
        jobs_list.iter().copied().filter(|&j| j > avail).collect();
    if force_workers {
        if !skipped_workers.is_empty() {
            println!(
                "MC_BENCH_FORCE_WORKERS set: keeping oversubscribed worker counts \
                 {skipped_workers:?} on {avail} core(s)"
            );
        }
        skipped_workers.clear();
    } else {
        jobs_list.retain(|&j| j <= avail);
        if jobs_list.is_empty() {
            jobs_list.push(avail);
        }
        if !skipped_workers.is_empty() {
            println!("skipping worker counts {skipped_workers:?}: only {avail} core(s) available");
        }
    }

    let protocols: Vec<_> = PLANS
        .iter()
        .enumerate()
        .map(|(i, plan)| generate(plan, DEFAULT_SEED.wrapping_add(i as u64)))
        .collect();
    let sources: Vec<Vec<(String, String)>> = protocols.iter().map(|p| p.sources()).collect();
    let specs: Vec<_> = protocols.iter().map(|p| p.spec.clone()).collect();

    // Warm up caches and page in the corpus before timing anything.
    let (functions, _) = check_corpus(&sources, &specs, 1, true);
    println!(
        "corpus: {} protocols, {functions} functions",
        protocols.len()
    );

    const REPS: usize = 3;
    let mut rows = Vec::new();
    for prune in [true, false] {
        let (_, baseline_reports) = check_corpus(&sources, &specs, 1, prune);
        for &jobs in &jobs_list {
            let mut best = f64::INFINITY;
            let mut reports = 0;
            for _ in 0..REPS {
                let start = Instant::now();
                let (_, r) = check_corpus(&sources, &specs, jobs, prune);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                best = best.min(ms);
                reports = r;
            }
            assert_eq!(
                reports, baseline_reports,
                "jobs={jobs} changed the report count — determinism violated"
            );
            println!(
                "prune={} jobs={jobs:<2} wall={best:8.1} ms  {:8.0} functions/s  {reports} reports",
                if prune { "on " } else { "off" },
                functions as f64 / (best / 1e3)
            );
            rows.push(Row {
                workers: jobs,
                prune,
                wall_ms: best,
                functions,
                reports,
            });
        }
    }

    let inc = bench_incremental(&sources, &specs, REPS);
    let cold_ms = inc[0].wall_ms;
    for p in &inc {
        println!(
            "incremental {:<9} wall={:8.2} ms  {:6.1}x vs cold  {} reports  \
             ({} functions re-checked, {} components)",
            p.phase,
            p.wall_ms,
            cold_ms / p.wall_ms,
            p.reports,
            p.functions_rechecked,
            p.components_rechecked
        );
    }
    let warm_speedup = cold_ms / inc[1].wall_ms;
    let one_dirty_speedup = cold_ms / inc[3].wall_ms;
    assert!(
        warm_speedup >= 5.0,
        "warm re-check is only {warm_speedup:.1}x faster than cold (expected >= 5x)"
    );
    assert!(
        one_dirty_speedup >= 10.0,
        "one-dirty re-check is only {one_dirty_speedup:.1}x faster than cold \
         (expected >= 10x with function-granular invalidation)"
    );
    assert!(
        inc[3].functions_rechecked * 10 < functions,
        "a body-only edit re-checked {} of {functions} corpus functions \
         (expected < 10% on the per-function path)",
        inc[3].functions_rechecked
    );

    let ip_jobs = jobs_list.iter().copied().max().unwrap_or(1);
    let ip = bench_interproc(&sources, &specs, ip_jobs, REPS);
    println!(
        "interproc off wall={:8.1} ms  {} reports",
        ip.wall_ms_off, ip.reports_off
    );
    println!(
        "interproc on  wall={:8.1} ms  {} reports  ({} summaries, {} call sites resolved)",
        ip.wall_ms_on, ip.reports_on, ip.summaries_computed, ip.call_sites_resolved
    );

    let rb = bench_refute(&sources, &specs, ip_jobs, REPS);
    println!(
        "refute off wall={:8.1} ms  {} reports",
        rb.wall_ms_off, rb.reports_total
    );
    println!(
        "refute on  wall={:8.1} ms  {} reports  ({} demoted to refuted)",
        rb.wall_ms_on, rb.reports_total, rb.reports_refuted
    );

    let md = bench_metal_dispatch(&sources, REPS);
    println!(
        "metal interp   wall={:8.1} ms  {:10} match attempts over {} candidates",
        md.wall_ms_interp, md.attempts_interp, md.candidates
    );
    println!(
        "metal compiled wall={:8.1} ms  {:10} match attempts  ({:.1}x faster, {} reports both ways)",
        md.wall_ms_compiled, md.attempts_compiled, md.speedup, md.reports
    );

    // Fleet scale: generate the scale-10 corpus and check it cold.
    const SCALE: usize = 10;
    let sc = bench_scale(SCALE, ip_jobs);
    println!(
        "scale {SCALE}: {} protocols, {} functions, {} loc  gen={:8.1} ms  cold check={:8.1} ms  {} reports",
        sc.protocols, sc.functions, sc.loc, sc.gen_ms, sc.check_ms, sc.reports
    );
    println!(
        "scale {SCALE} pool (workers={}): {} steals / {} probes, idle {:.1} ms, tasks/worker {:?}",
        sc.workers,
        sc.sched.steals,
        sc.sched.steal_attempts,
        sc.sched.idle_ns as f64 / 1e6,
        sc.sched.tasks_per_worker
    );

    let json = Json::Object(vec![
        ("benchmark".into(), Json::Str("driver_throughput".into())),
        ("corpus_seed".into(), Json::Int(DEFAULT_SEED as i64)),
        ("protocols".into(), Json::Int(protocols.len() as i64)),
        ("available_parallelism".into(), Json::Int(avail as i64)),
        (
            "skipped_workers".into(),
            Json::Array(
                skipped_workers
                    .iter()
                    .map(|&w| Json::Int(w as i64))
                    .collect(),
            ),
        ),
        (
            "runs".into(),
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::Object(vec![
                            ("workers".into(), Json::Int(r.workers as i64)),
                            ("prune".into(), Json::Bool(r.prune)),
                            (
                                "wall_ms".into(),
                                Json::Float((r.wall_ms * 1e3).round() / 1e3),
                            ),
                            ("functions".into(), Json::Int(r.functions as i64)),
                            (
                                "functions_per_sec".into(),
                                Json::Float((r.functions as f64 / (r.wall_ms / 1e3)).round()),
                            ),
                            ("reports".into(), Json::Int(r.reports as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "incremental".into(),
            Json::Object(vec![
                (
                    "phases".into(),
                    Json::Array(
                        inc.iter()
                            .map(|p| {
                                Json::Object(vec![
                                    ("phase".into(), Json::Str(p.phase.into())),
                                    (
                                        "wall_ms".into(),
                                        Json::Float((p.wall_ms * 1e3).round() / 1e3),
                                    ),
                                    ("reports".into(), Json::Int(p.reports as i64)),
                                    (
                                        "functions_rechecked".into(),
                                        Json::Int(p.functions_rechecked as i64),
                                    ),
                                    (
                                        "components_rechecked".into(),
                                        Json::Int(p.components_rechecked as i64),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "warm_speedup".into(),
                    Json::Float((warm_speedup * 10.0).round() / 10.0),
                ),
                (
                    "one_dirty_speedup".into(),
                    Json::Float((one_dirty_speedup * 10.0).round() / 10.0),
                ),
            ]),
        ),
        (
            "interproc".into(),
            Json::Object(vec![
                ("workers".into(), Json::Int(ip.workers as i64)),
                (
                    "wall_ms_off".into(),
                    Json::Float((ip.wall_ms_off * 1e3).round() / 1e3),
                ),
                (
                    "wall_ms_on".into(),
                    Json::Float((ip.wall_ms_on * 1e3).round() / 1e3),
                ),
                (
                    "overhead".into(),
                    Json::Float(((ip.wall_ms_on / ip.wall_ms_off) * 100.0).round() / 100.0),
                ),
                ("reports_off".into(), Json::Int(ip.reports_off as i64)),
                ("reports_on".into(), Json::Int(ip.reports_on as i64)),
                (
                    "summaries_computed".into(),
                    Json::Int(ip.summaries_computed as i64),
                ),
                (
                    "call_sites_resolved".into(),
                    Json::Int(ip.call_sites_resolved as i64),
                ),
            ]),
        ),
        (
            "refutation".into(),
            Json::Object(vec![
                ("workers".into(), Json::Int(rb.workers as i64)),
                (
                    "wall_ms_off".into(),
                    Json::Float((rb.wall_ms_off * 1e3).round() / 1e3),
                ),
                (
                    "wall_ms_on".into(),
                    Json::Float((rb.wall_ms_on * 1e3).round() / 1e3),
                ),
                (
                    "overhead".into(),
                    Json::Float(((rb.wall_ms_on / rb.wall_ms_off) * 100.0).round() / 100.0),
                ),
                ("reports_total".into(), Json::Int(rb.reports_total as i64)),
                (
                    "reports_refuted".into(),
                    Json::Int(rb.reports_refuted as i64),
                ),
            ]),
        ),
        (
            "metal_dispatch".into(),
            Json::Object(vec![
                ("functions".into(), Json::Int(md.functions as i64)),
                (
                    "wall_ms_interp".into(),
                    Json::Float((md.wall_ms_interp * 1e3).round() / 1e3),
                ),
                (
                    "wall_ms_compiled".into(),
                    Json::Float((md.wall_ms_compiled * 1e3).round() / 1e3),
                ),
                (
                    "attempts_interp".into(),
                    Json::Int(md.attempts_interp as i64),
                ),
                (
                    "attempts_compiled".into(),
                    Json::Int(md.attempts_compiled as i64),
                ),
                ("candidates".into(), Json::Int(md.candidates as i64)),
                ("reports".into(), Json::Int(md.reports as i64)),
                (
                    "speedup".into(),
                    Json::Float((md.speedup * 100.0).round() / 100.0),
                ),
            ]),
        ),
        (
            "scale".into(),
            Json::Object(vec![
                ("scale".into(), Json::Int(sc.scale as i64)),
                ("protocols".into(), Json::Int(sc.protocols as i64)),
                ("functions".into(), Json::Int(sc.functions as i64)),
                ("loc".into(), Json::Int(sc.loc as i64)),
                (
                    "gen_ms".into(),
                    Json::Float((sc.gen_ms * 1e3).round() / 1e3),
                ),
                (
                    "cold_check_ms".into(),
                    Json::Float((sc.check_ms * 1e3).round() / 1e3),
                ),
                ("reports".into(), Json::Int(sc.reports as i64)),
                (
                    "scheduler".into(),
                    Json::Object(vec![
                        ("workers".into(), Json::Int(sc.workers as i64)),
                        ("pools".into(), Json::Int(sc.sched.pools as i64)),
                        ("tasks".into(), Json::Int(sc.sched.tasks as i64)),
                        ("steals".into(), Json::Int(sc.sched.steals as i64)),
                        (
                            "steal_attempts".into(),
                            Json::Int(sc.sched.steal_attempts as i64),
                        ),
                        ("idle_ns".into(), Json::Int(sc.sched.idle_ns as i64)),
                        (
                            "tasks_per_worker".into(),
                            Json::Array(
                                sc.sched
                                    .tasks_per_worker
                                    .iter()
                                    .map(|&t| Json::Int(t as i64))
                                    .collect(),
                            ),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out, json.to_pretty()).expect("write BENCH_driver.json");
    println!("wrote {out}");
}
