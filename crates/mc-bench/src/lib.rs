//! # mc-bench
//!
//! Reproduction harness for the paper's evaluation: one binary per table
//! (`table1` … `table7`, plus `experiments` which prints all of them as
//! the `EXPERIMENTS.md` report), and Criterion benchmarks of the framework
//! (`framework`, `scaling`).
//!
//! All table binaries run the full checker suite over the generated corpus
//! at the canonical seed and classify reports against the corpus manifest,
//! so the printed "Errors" and "False Pos" columns are *measured*, not
//! copied.

use mc_ast::{parse_translation_unit, Function};
use mc_cfg::PathStats;
use mc_checkers::{all_checkers, exec_restrict, flash};
use mc_corpus::eval::{evaluate_full, tally, Outcome, Tally};
use mc_corpus::plan::{ProtoPlan, PLANS};
use mc_corpus::{generate, PlantedKind, Protocol, DEFAULT_SEED};
use mc_driver::{CheckedUnit, Driver, Report, Verdict};

/// Everything measured about one protocol, shared by the table binaries.
pub struct ProtocolRun {
    /// The generated protocol (sources + spec + manifest).
    pub protocol: Protocol,
    /// Its plan (paper targets).
    pub plan: &'static ProtoPlan,
    /// Parsed units with each function's CFG, for the Table 1 path
    /// statistics and the applied counts.
    pub units: Vec<CheckedUnit>,
    /// All reports of the full suite.
    pub reports: Vec<Report>,
    /// Reports joined against the manifest.
    pub outcome: Outcome,
    /// Whether the driver ran with path-feasibility pruning.
    pub prune: bool,
    /// Whether the driver resolved call sites through function summaries.
    pub interproc: bool,
    /// Whether the driver ran the symbolic refutation pass.
    pub refute: bool,
}

impl ProtocolRun {
    /// Iterates over all function definitions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.units.iter().flat_map(|u| u.unit.functions())
    }

    /// Aggregate path statistics (Table 1), from the cached CFGs.
    pub fn path_stats(&self) -> PathStats {
        let mut agg = PathStats::default();
        for u in &self.units {
            for cfg in &u.cfgs {
                agg.merge(&cfg.path_stats());
            }
        }
        agg
    }

    /// Generated lines of code.
    pub fn loc(&self) -> usize {
        self.protocol.loc()
    }

    /// The [`Tally`] for one checker.
    pub fn tally(&self, checker: &str) -> Tally {
        tally(&self.outcome, checker)
    }

    /// Number of planted annotations (Table 4 "Useful").
    pub fn annotations(&self) -> usize {
        self.protocol
            .manifest
            .iter()
            .filter(|p| p.kind == PlantedKind::Annotation)
            .count()
    }

    /// Sums an applied-count metric over all functions.
    pub fn count(&self, f: impl Fn(&Function) -> usize) -> usize {
        self.functions().map(f).sum()
    }

    /// The reports that survived the refutation pass (all of them when the
    /// pass was off). These are what the tables and the FP ladder count.
    pub fn kept_reports(&self) -> impl Iterator<Item = &Report> {
        self.reports
            .iter()
            .filter(|r| r.verdict != Verdict::Refuted)
    }
}

/// Generates, checks, and evaluates all six protocols at the canonical
/// seed, using the machine's available parallelism. This is the shared
/// entry point of every table binary; tables reproduce the paper's xg++,
/// which had no feasibility pruning, so pruning is off here.
pub fn run_all_protocols() -> Vec<ProtocolRun> {
    run_all_protocols_with_jobs(default_jobs())
}

/// [`run_all_protocols`] with an explicit driver worker count.
pub fn run_all_protocols_with_jobs(jobs: usize) -> Vec<ProtocolRun> {
    run_all_protocols_with(jobs, false)
}

/// [`run_all_protocols`] with explicit worker count and pruning setting.
/// `prune = true` is the driver (and `mcheck`) default; `prune = false`
/// reproduces the paper's tables.
pub fn run_all_protocols_with(jobs: usize, prune: bool) -> Vec<ProtocolRun> {
    run_all_protocols_full(jobs, prune, false)
}

/// [`run_all_protocols`] with explicit worker count, pruning, and
/// call-site-resolution settings. `interproc = true` runs the summary
/// engine (`mcheck --interproc`), which resolves the helper-hidden
/// false-positive classes the manifest marks interproc-resolvable.
pub fn run_all_protocols_full(jobs: usize, prune: bool, interproc: bool) -> Vec<ProtocolRun> {
    run_all_protocols_refuted(jobs, prune, interproc, false)
}

/// [`run_all_protocols`] with every analysis setting explicit. `refute =
/// true` runs the symbolic refutation pass (`mcheck --refute`); refuted
/// reports stay in [`ProtocolRun::reports`] with their demoted verdict but
/// are excluded from the manifest join, matching what `mcheck` prints by
/// default.
pub fn run_all_protocols_refuted(
    jobs: usize,
    prune: bool,
    interproc: bool,
    refute: bool,
) -> Vec<ProtocolRun> {
    PLANS
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let protocol = generate(plan, DEFAULT_SEED.wrapping_add(i as u64));
            let mut driver = Driver::new();
            driver.jobs(jobs);
            driver.prune(prune);
            driver.interproc(interproc);
            driver.refute(refute);
            all_checkers(&mut driver, &protocol.spec).expect("suite registers");
            let sources = protocol.sources();
            let reports = driver.check_sources(&sources).expect("corpus parses");
            let units = checked_units(&sources);
            let kept: Vec<Report> = reports
                .iter()
                .filter(|r| r.verdict != Verdict::Refuted)
                .cloned()
                .collect();
            let outcome = evaluate_full(&protocol, &kept, prune, interproc, refute);
            ProtocolRun {
                protocol,
                plan,
                units,
                reports,
                outcome,
                prune,
                interproc,
                refute,
            }
        })
        .collect()
}

/// Parses `(source, file-name)` pairs and builds every function's CFG.
///
/// # Panics
///
/// Panics if a source does not parse (the generated corpus always does).
pub fn checked_units(sources: &[(String, String)]) -> Vec<CheckedUnit> {
    sources
        .iter()
        .map(|(src, file)| {
            CheckedUnit::new(parse_translation_unit(src, file).expect("corpus parses"))
        })
        .collect()
}

/// The machine's available parallelism (the driver's default worker count).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Reads a `--jobs N` override from the command line, for the table and
/// benchmark binaries. Defaults to [`default_jobs`]; rejects `0`.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == "--jobs" {
            match pair[1].parse::<usize>() {
                Ok(n) if n >= 1 => return n,
                _ => {
                    eprintln!("--jobs expects a positive integer, got `{}`", pair[1]);
                    std::process::exit(2);
                }
            }
        }
    }
    default_jobs()
}

/// Applied-count helpers matching the paper's per-table definitions.
pub mod applied {
    use super::*;

    /// Table 2: number of data-buffer reads.
    pub fn reads(run: &ProtocolRun) -> usize {
        run.count(mc_checkers::buffer_race::count_reads)
    }

    /// Table 3: number of sends.
    pub fn sends(run: &ProtocolRun) -> usize {
        run.count(mc_checkers::msglen::count_sends)
    }

    /// Table 6: number of allocations.
    pub fn allocs(run: &ProtocolRun) -> usize {
        run.count(|f| {
            struct V(usize);
            impl mc_ast::Visitor for V {
                fn visit_expr(&mut self, e: &mc_ast::Expr) {
                    if let Some((flash::DB_ALLOC, _)) = e.as_call() {
                        self.0 += 1;
                    }
                }
            }
            let mut v = V(0);
            mc_ast::walk_function(&mut v, f);
            v.0
        })
    }

    /// Table 6: number of directory operations.
    pub fn dir_ops(run: &ProtocolRun) -> usize {
        run.count(mc_checkers::directory::count_dir_ops)
    }

    /// Table 6: waited sends plus wait calls.
    pub fn send_waits(run: &ProtocolRun) -> usize {
        run.count(mc_checkers::send_wait::count_send_waits)
    }

    /// Table 5: routines and variables checked.
    pub fn routines_and_vars(run: &ProtocolRun) -> (usize, usize) {
        let funcs: Vec<&Function> = run.functions().collect();
        exec_restrict::count_routines_and_vars(&funcs)
    }
}

/// Renders one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut s = String::new();
    for (c, w) in cells.iter().zip(widths) {
        s.push_str(&format!("{c:>w$}  ", w = w));
    }
    s.trim_end().to_string()
}

/// Renders `paper/measured` as a compact cell.
pub fn pm(paper: impl std::fmt::Display, measured: impl std::fmt::Display) -> String {
    format!("{paper}/{measured}")
}

/// The number of non-empty source lines of each checker, for Table 7.
/// metal checkers count their metal source; native checkers count their
/// Rust implementation up to the test module.
pub fn checker_loc() -> Vec<(&'static str, usize)> {
    fn rust_loc(src: &str) -> usize {
        src.split("#[cfg(test)]")
            .next()
            .unwrap_or(src)
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//") && !t.starts_with("/*") && !t.starts_with('*')
            })
            .count()
    }
    fn metal_loc(src: &str) -> usize {
        src.lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("/*") && !t.starts_with('*')
            })
            .count()
    }
    vec![
        (
            "buffer_mgmt",
            rust_loc(include_str!("../../mc-checkers/src/buffer_mgmt.rs")),
        ),
        ("msglen_check", metal_loc(mc_checkers::MSGLEN_METAL)),
        (
            "lanes",
            rust_loc(include_str!("../../mc-checkers/src/lanes.rs")),
        ),
        ("wait_for_db", metal_loc(mc_checkers::WAIT_FOR_DB_METAL)),
        (
            "alloc_check",
            rust_loc(include_str!("../../mc-checkers/src/alloc_check.rs")),
        ),
        (
            "directory",
            rust_loc(include_str!("../../mc-checkers/src/directory.rs")),
        ),
        (
            "send_wait",
            rust_loc(include_str!("../../mc-checkers/src/send_wait.rs")),
        ),
        (
            "exec_restrict",
            rust_loc(include_str!("../../mc-checkers/src/exec_restrict.rs")),
        ),
        ("refcount_bump", metal_loc(mc_checkers::REFCOUNT_BUMP_METAL)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_protocols_is_exact() {
        for run in run_all_protocols() {
            assert!(run.outcome.is_exact(), "{}", run.plan.name);
        }
    }

    #[test]
    fn pruned_run_is_exact_too() {
        for run in run_all_protocols_with(default_jobs(), true) {
            assert!(run.outcome.is_exact(), "{} (pruned)", run.plan.name);
        }
    }

    #[test]
    fn interproc_run_is_exact_and_resolves_helper_false_positives() {
        let runs = run_all_protocols_full(default_jobs(), true, true);
        let mut resolvable = 0;
        for run in &runs {
            assert!(run.outcome.is_exact(), "{} (interproc)", run.plan.name);
            resolvable += run
                .protocol
                .manifest
                .iter()
                .filter(|p| p.interproc_resolvable())
                .count();
        }
        // Every un-annotated write-back subroutine site plus the two
        // helper-hidden sites resolves; is_exact above proves the reports
        // are actually gone (a survivor would be unexpected).
        assert_eq!(resolvable, 16);
        // Summaries only remove reports: no protocol gains one.
        for (run, local) in runs
            .iter()
            .zip(run_all_protocols_with(default_jobs(), true))
        {
            assert!(
                run.reports.len() <= local.reports.len(),
                "{}: summaries added reports ({} -> {})",
                run.plan.name,
                local.reports.len(),
                run.reports.len()
            );
        }
    }

    #[test]
    fn refuted_run_is_exact_and_demotes_refutable_false_positives() {
        let runs = run_all_protocols_refuted(default_jobs(), true, true, true);
        let mut refutable = 0;
        for run in &runs {
            assert!(run.outcome.is_exact(), "{} (refuted)", run.plan.name);
            refutable += run
                .protocol
                .manifest
                .iter()
                .filter(|p| p.refutable())
                .count();
            // Soundness spot-check: every report the pass demoted sits in
            // a planted false-positive slot — never on a bug.
            for r in run.reports.iter().filter(|r| r.verdict == Verdict::Refuted) {
                assert!(
                    run.protocol.manifest.iter().any(|p| {
                        p.kind == PlantedKind::FalsePositive
                            && p.checker == r.checker
                            && p.function == r.function
                    }),
                    "{}: refuted a report outside any planted FP slot: {}",
                    run.plan.name,
                    r
                );
            }
        }
        // 14 directory-abstraction + 3 directory-speculative + 8 send-wait
        // sites carry the linearly infeasible guard correlation.
        assert_eq!(refutable, 25);
        // The pass only demotes: the report set itself keeps its size.
        for (run, plain) in runs
            .iter()
            .zip(run_all_protocols_full(default_jobs(), true, true))
        {
            assert_eq!(
                run.reports.len(),
                plain.reports.len(),
                "{}: refutation changed the report count",
                run.plan.name
            );
        }
    }

    #[test]
    fn applied_counts_match_plans() {
        for run in run_all_protocols() {
            assert_eq!(
                applied::reads(&run),
                run.plan.reads,
                "{} reads",
                run.plan.name
            );
            assert_eq!(
                applied::sends(&run),
                run.plan.sends,
                "{} sends",
                run.plan.name
            );
            assert_eq!(
                applied::allocs(&run),
                run.plan.allocs,
                "{} allocs",
                run.plan.name
            );
            assert_eq!(
                applied::dir_ops(&run),
                run.plan.dir_ops,
                "{} dir ops",
                run.plan.name
            );
            let (routines, _) = applied::routines_and_vars(&run);
            assert_eq!(routines, run.plan.routines, "{} routines", run.plan.name);
        }
    }

    #[test]
    fn checker_loc_nonzero_and_small() {
        for (name, loc) in checker_loc() {
            assert!(loc > 5, "{name} has {loc} lines");
            assert!(
                loc < 500,
                "{name} has {loc} lines — checkers must stay small"
            );
        }
    }

    #[test]
    fn row_rendering() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
