//! # mc-cli
//!
//! Library backing the `mcheck` command-line tool, factored out of `main`
//! so it can be tested. [`USAGE`] is the one list of options, subcommands
//! and exit codes.
//!
//! The one-shot paths ([`run`], [`run_full`], `--shard`) build a driver
//! and an engine, check once, and drop the engine before confirmation
//! replays. A `Session` is the long-lived alternative: one driver and one
//! warm engine serving many checks. `mcheck --watch` and the `mcheckd`
//! daemon are its clients; `--watch --daemon-socket` reaches the daemon's
//! session over its socket.

#![warn(missing_docs)]

use mc_checkers::flash::FlashSpec;
use mc_driver::cache::DiskCache;
use mc_driver::{CheckEngine, Driver, Report, RunStats, Severity, Verdict};
use std::fmt;
use std::path::PathBuf;

mod args;
mod baseline;
#[cfg(unix)]
pub mod daemon;
mod render;
mod shard;
mod watch;

pub use args::{parse_args, Options, USAGE};
pub use baseline::{apply_baseline, Baseline, BaselineEntry, BaselineOutcome};
pub use render::{json_envelope, partition_refuted, partition_suppressed, render, Format};
pub use watch::run_watch;

/// A CLI usage or I/O error.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mcheck: {}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<mc_driver::DriverError> for CliError {
    fn from(e: mc_driver::DriverError) -> CliError {
        CliError(e.to_string())
    }
}

/// Builds the driver the options describe: traversal settings, worker
/// count, checkers, and a config epoch hashed from the spec file's bytes
/// (so editing the spec invalidates every cached result).
///
/// # Errors
///
/// Returns [`CliError`] for unreadable or unparsable spec/checker files.
pub fn build_driver(opts: &Options) -> Result<Driver, CliError> {
    let mut epoch = mc_ast::Fnv1a::new();
    let spec = match &opts.spec {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            epoch.write_str("spec:").write_str(&text);
            mc_json::from_str::<FlashSpec>(&text)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?
        }
        None => FlashSpec::new(),
    };

    let mut driver = Driver::new();
    driver.prune(opts.prune);
    driver.interproc(opts.interproc);
    driver.refute(opts.refute);
    if let Some(n) = opts.jobs {
        driver.jobs(n);
    }
    if opts.builtin {
        epoch.write_str("builtin");
        mc_checkers::all_checkers(&mut driver, &spec)?;
    }
    for checker in &opts.checkers {
        let text = std::fs::read_to_string(checker)
            .map_err(|e| CliError(format!("{}: {e}", checker.display())))?;
        driver
            .add_metal_source_from(&text, &checker.display().to_string())
            .map_err(|e| CliError(format!("{}: {e}", checker.display())))?;
    }
    driver.set_config_epoch(epoch.finish());
    Ok(driver)
}

/// Reads every input file into `(source, file-name)` pairs.
pub(crate) fn read_sources(files: &[PathBuf]) -> Result<Vec<(String, String)>, CliError> {
    let mut sources = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError(format!("{}: {e}", file.display())))?;
        sources.push((text, file.display().to_string()));
    }
    Ok(sources)
}

/// The incremental engine the options ask for: disk-backed when
/// `--cache-dir` is set and `--no-cache` is not, memoizing-only otherwise.
///
/// # Errors
///
/// Returns [`CliError`] if the cache directory cannot be created.
pub fn engine_for(opts: &Options) -> Result<CheckEngine, CliError> {
    Ok(match &opts.cache_dir {
        Some(dir) if !opts.no_cache => {
            let mut disk =
                DiskCache::open(dir).map_err(|e| CliError(format!("{}: {e}", dir.display())))?;
            disk.set_cap_bytes(opts.cache_cap_bytes);
            CheckEngine::with_disk(disk)
        }
        _ => CheckEngine::in_memory(),
    })
}

/// The reports of one check after the post-check pipeline, ready to
/// render.
#[derive(Debug)]
pub struct Checked {
    /// The reports to show, most likely real first.
    pub reports: Vec<Report>,
    /// Reports hidden by `// mc-suppress:` comments.
    pub suppressed: usize,
    /// Reports the refutation pass demoted (never shown).
    pub refuted: usize,
    /// The checked sources followed by the metal checker files: where
    /// suppression comments were read and where excerpts come from.
    pub sources: Vec<(String, String)>,
}

/// A long-lived check session: the driver and warm engine `opts` describe,
/// checking whatever files each call names. Unchanged functions replay
/// from the engine's memo tables (and its disk cache with `--cache-dir`).
pub(crate) struct Session {
    pub(crate) driver: Driver,
    pub(crate) engine: CheckEngine,
    pub(crate) opts: Options,
}

impl Session {
    /// Builds the session's driver and engine.
    pub(crate) fn new(opts: &Options) -> Result<Session, CliError> {
        Ok(Session {
            driver: build_driver(opts)?,
            engine: engine_for(opts)?,
            opts: opts.clone(),
        })
    }

    /// Reads and checks `files` at `jobs` workers (the session's `--jobs`
    /// when `None`), then runs [`checked_reports`].
    pub(crate) fn check(
        &mut self,
        files: &[PathBuf],
        jobs: Option<usize>,
    ) -> Result<(Checked, RunStats), CliError> {
        self.driver.set_jobs(jobs.or(self.opts.jobs));
        let sources = read_sources(files)?;
        let (reports, stats) = self.engine.check_sources(&self.driver, &sources)?;
        let checked = checked_reports(&self.driver, &self.opts, &sources, reports)?;
        Ok((checked, stats))
    }
}

/// Ranks one engine check's reports of `sources`: metal load diagnostics
/// folded in, confirmed-verdict promotion, confidence ordering.
fn rank(driver: &Driver, opts: &Options, sources: &[(String, String)], reports: &mut Vec<Report>) {
    // Load-time diagnostics from compiling the metal programs (unreachable
    // states, shadowed rules, ...) ride along as ordinary warning reports.
    reports.extend(driver.metal_load_diagnostics());
    if opts.refute {
        promote_confirmed(reports, sources);
    }
    Report::sort_by_confidence(reports);
}

/// The post-check pipeline every surface shares — [`run_full`] and each
/// check session — over the `reports` one engine check of `sources`
/// returned: ranked as [`run`] ranks them, then the refuted and suppressed
/// partitions. Suppression comments are honored wherever a report can
/// point, including the metal checker files themselves (load-time
/// validation warnings are reported against the checker's own source).
///
/// # Errors
///
/// Returns [`CliError`] for unreadable checker files.
pub fn checked_reports(
    driver: &Driver,
    opts: &Options,
    sources: &[(String, String)],
    mut reports: Vec<Report>,
) -> Result<Checked, CliError> {
    rank(driver, opts, sources, &mut reports);
    let (reports, refuted) = partition_refuted(reports);
    let mut sources = sources.to_vec();
    sources.extend(read_sources(&opts.checkers)?);
    let (reports, suppressed) = partition_suppressed(reports, &sources);
    Ok(Checked {
        reports,
        suppressed,
        refuted,
        sources,
    })
}

/// Executes the parsed options. Returns every report, ranked (refuted and
/// suppressed ones included; empty for `--emit-corpus` runs).
///
/// Every check goes through the incremental [`CheckEngine`] of
/// [`engine_for`]: disk-backed with `--cache-dir`, in memory otherwise;
/// reports are byte-identical either way.
///
/// # Errors
///
/// Returns [`CliError`] for I/O, parse, or metal errors.
pub fn run(opts: &Options) -> Result<Vec<Report>, CliError> {
    if let Some(dir) = &opts.emit_corpus {
        emit_corpus(dir, opts.seed, opts.scale)?;
        return Ok(Vec::new());
    }
    let driver = build_driver(opts)?;
    let sources = read_sources(&opts.files)?;
    // The engine is dropped with this statement, before ranking replays
    // witnesses in the simulator.
    let (mut reports, _) = engine_for(opts)?.check_sources(&driver, &sources)?;
    rank(&driver, opts, &sources, &mut reports);
    Ok(reports)
}

/// Promotes `sat` reports to `confirmed` by replaying each one's solver
/// model concretely in the simulator ([`mc_sim::replay`]). Promotion nudges
/// confidence up rather than pinning it, so the paper's ranking heuristics
/// (NAK paths, debug-guarded code) still order confirmed reports among
/// themselves.
///
/// Replay needs the checked sources as an executable program. They are
/// parsed once, and every `sat` report replays against a clone of that one
/// shared [`mc_sim::Program`] (a reference-count bump, no AST copy). Files
/// the simulator's handler subset cannot parse (or checkers with no
/// dynamic manifestation) simply leave their reports at `sat` — promotion
/// is strictly best-effort and never demotes.
fn promote_confirmed(reports: &mut [Report], sources: &[(String, String)]) {
    if !reports.iter().any(|r| r.verdict == Verdict::Sat) {
        return;
    }
    let Ok(program) = mc_sim::Program::from_sources(sources) else {
        return;
    };
    for r in reports.iter_mut() {
        if r.verdict != Verdict::Sat || !mc_sim::replayable_checker(&r.checker) {
            continue;
        }
        if mc_sim::replay(program.clone(), &r.checker, &r.function, &r.model) {
            r.verdict = Verdict::Confirmed;
            r.confidence = r.confidence.saturating_add(10).min(100);
        }
    }
}

/// Executes the parsed options end-to-end: check, drop reports the
/// refutation pass demoted, apply `// mc-suppress:` comments, apply
/// `--baseline`, render in the selected format, and return the process
/// exit code.
///
/// Report output goes to `out`; human-facing notes (the baseline summary
/// and the error-count footer) go to `err`, so `--format json|sarif`
/// output on stdout stays machine-parseable.
///
/// # Errors
///
/// Returns [`CliError`] for I/O, parse, metal, or baseline-file errors.
pub fn run_full(
    opts: &Options,
    out: &mut dyn std::io::Write,
    err: &mut dyn std::io::Write,
) -> Result<u8, CliError> {
    if let Some(dir) = &opts.emit_corpus {
        emit_corpus(dir, opts.seed, opts.scale)?;
        let _ = writeln!(out, "corpus written");
        return Ok(0);
    }
    if let Some((si, sn)) = opts.shard {
        return shard::run_shard(opts, si, sn, err);
    }
    let driver = build_driver(opts)?;
    if opts.merge {
        let shards = shard::validate_shard_manifests(opts, &driver)?;
        let _ = writeln!(err, "merge: folding {shards} shard manifest(s)");
    }
    let sources = read_sources(&opts.files)?;
    // The engine is dropped with this statement, before the post-check
    // pipeline replays witnesses in the simulator.
    let (reports, _) = engine_for(opts)?.check_sources(&driver, &sources)?;
    let Checked {
        mut reports,
        suppressed,
        refuted,
        sources,
    } = checked_reports(&driver, opts, &sources, reports)?;
    let mut exit = u8::from(!reports.is_empty());
    if let Some(path) = &opts.baseline {
        match apply_baseline(path, &mut reports)? {
            BaselineOutcome::Written(n) => {
                let _ = writeln!(
                    err,
                    "baseline: wrote {n} fingerprint(s) to {}",
                    path.display()
                );
                exit = 0;
            }
            BaselineOutcome::Compared { known, resolved } => {
                let _ = writeln!(
                    err,
                    "baseline: {known} known report(s) hidden, {} new, {resolved} resolved",
                    reports.len()
                );
                exit = u8::from(!reports.is_empty());
            }
        }
    }
    render(opts.format, &reports, &sources, suppressed, refuted, out);
    if !reports.is_empty() && opts.format == Format::Text {
        let errors = reports
            .iter()
            .filter(|r| r.severity == Severity::Error)
            .count();
        let _ = writeln!(err, "\n{errors} error(s), {} report(s)", reports.len());
    }
    Ok(exit)
}

/// Writes the generated protocols (sources, spec JSON, and manifest)
/// under `dir`: the six stock protocols at `scale` 1, `scale` reseeded
/// families of them otherwise (see [`mc_corpus::generate_fleet`]).
fn emit_corpus(dir: &std::path::Path, seed: u64, scale: usize) -> Result<(), CliError> {
    let io = |e: std::io::Error| CliError(e.to_string());
    for proto in mc_corpus::generate_fleet(seed, scale) {
        let pdir = dir.join(&proto.name);
        std::fs::create_dir_all(&pdir).map_err(io)?;
        for f in &proto.files {
            std::fs::write(pdir.join(&f.name), &f.source).map_err(io)?;
        }
        let spec_json = mc_json::to_string_pretty(&proto.spec);
        std::fs::write(pdir.join("spec.json"), spec_json).map_err(io)?;
        let manifest: String = proto
            .manifest
            .iter()
            .map(|p| {
                format!(
                    "{}\t{}\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\n",
                    p.checker,
                    p.file,
                    p.function,
                    p.kind,
                    p.expected_reports,
                    p.expected_reports_pruned,
                    p.expected_reports_interproc,
                    p.expected_reports_refute,
                    p.note
                )
            })
            .collect();
        std::fs::write(pdir.join("MANIFEST.tsv"), manifest).map_err(io)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Options, CliError> {
        parse_args(s.iter().map(|s| s.to_string()))
    }

    // End-to-end: the default `--refute` pass demotes a report whose
    // witness rides the classic infeasible credit/debit guard, and
    // `--no-refute` leaves it unchecked.
    #[test]
    fn refutation_demotes_infeasible_guard_report() {
        let dir = std::env::temp_dir().join(format!("mcheck_refute_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("h.c");
        std::fs::write(
            &src,
            "void h(void)\n{\n    int nak = 0;\n    nak = gNakCredit - gNakDebit;\n    \
             if (gNakCredit == gNakDebit) {\n        if (nak > 0) {\n            \
             MISCBUS_READ_DB(a, b);\n        }\n    }\n}\n",
        )
        .unwrap();
        let sm = dir.join("race.metal");
        std::fs::write(
            &sm,
            "sm race { decl { scalar } a, b; start: { MISCBUS_READ_DB(a, b); } ==> { err(\"raw read\"); } ; }",
        )
        .unwrap();
        let mut opts = args(&["--checker", sm.to_str().unwrap(), src.to_str().unwrap()]).unwrap();
        let reports = run(&opts).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].verdict, Verdict::Refuted);
        opts.refute = false;
        let reports = run(&opts).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].verdict, Verdict::Unchecked);
    }

    #[test]
    fn no_prune_restores_correlated_branch_reports() {
        let dir = std::env::temp_dir().join("mcheck_prune_test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("corr.c");
        // The §6 correlated-branch shape: infeasible interleavings yield a
        // double free and a leak unless the feasibility analysis runs.
        std::fs::write(
            &src,
            "void PIHandler(void) {\n\
             if (gMode) { DB_FREE(); }\n\
             if (!gMode) { DB_FREE(); }\n\
             }\n",
        )
        .unwrap();
        let pruned = run(&args(&["--builtin", src.to_str().unwrap()]).unwrap()).unwrap();
        assert!(
            pruned.iter().all(|r| r.checker != "buffer_mgmt"),
            "default pruning refutes the correlated branches: {pruned:?}"
        );
        let unpruned = run(&args(&["--builtin", "--no-prune", src.to_str().unwrap()]).unwrap())
            .unwrap()
            .into_iter()
            .filter(|r| r.checker == "buffer_mgmt")
            .collect::<Vec<_>>();
        assert!(!unpruned.is_empty(), "--no-prune reports infeasible paths");
    }

    #[test]
    fn run_with_metal_checker_on_temp_files() {
        let dir = std::env::temp_dir().join("mcheck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("h.c");
        std::fs::write(&src, "void h(void) { MISCBUS_READ_DB(a, b); }").unwrap();
        let sm = dir.join("race.metal");
        std::fs::write(
            &sm,
            "sm race { decl { scalar } a, b; start: { MISCBUS_READ_DB(a, b); } ==> { err(\"raw read\"); } ; }",
        )
        .unwrap();
        let opts = args(&["--checker", sm.to_str().unwrap(), src.to_str().unwrap()]).unwrap();
        let reports = run(&opts).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].message, "raw read");
    }

    #[test]
    fn emit_corpus_writes_files() {
        let dir = std::env::temp_dir().join("mcheck_corpus_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = args(&["--emit-corpus", dir.to_str().unwrap(), "--seed", "7"]).unwrap();
        run(&opts).unwrap();
        assert!(dir.join("bitvector").join("spec.json").exists());
        assert!(dir.join("common").join("MANIFEST.tsv").exists());
        let any_c = std::fs::read_dir(dir.join("sci"))
            .unwrap()
            .any(|e| e.unwrap().file_name().to_string_lossy().ends_with(".c"));
        assert!(any_c);
    }

    #[test]
    fn spec_json_roundtrip() {
        let mut spec = FlashSpec::new();
        spec.free_routines.insert("f".into());
        spec.lane_quota.insert("h".into(), [1, 2, 3, 4]);
        let json = mc_json::to_string(&spec);
        let back: FlashSpec = mc_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Options, CliError> {
        parse_args(s.iter().map(|s| s.to_string()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcheck_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cached_run_matches_uncached_and_survives_corruption() {
        let dir = temp_dir("cache_eq");
        let src = dir.join("h.c");
        std::fs::write(
            &src,
            "void h(void) { MISCBUS_READ_DB(a, b); DB_FREE(); DB_FREE(); }",
        )
        .unwrap();
        let cache = dir.join("cache");
        let plain = args(&["--builtin", src.to_str().unwrap()]).unwrap();
        let cached = args(&[
            "--builtin",
            "--cache-dir",
            cache.to_str().unwrap(),
            src.to_str().unwrap(),
        ])
        .unwrap();

        let uncached_reports = run(&plain).unwrap();
        let cold = run(&cached).unwrap();
        let warm = run(&cached).unwrap();
        assert_eq!(cold, uncached_reports);
        assert_eq!(warm, uncached_reports);
        assert!(
            cache.read_dir().unwrap().next().is_some(),
            "records written"
        );

        // Corrupt every record: the run degrades to cold and still succeeds.
        for entry in cache.read_dir().unwrap() {
            std::fs::write(entry.unwrap().path(), "not json {{{").unwrap();
        }
        let after_corruption = run(&cached).unwrap();
        assert_eq!(after_corruption, uncached_reports);

        // --no-cache bypasses the (now re-written) cache entirely.
        let bypass = args(&[
            "--builtin",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--no-cache",
            src.to_str().unwrap(),
        ])
        .unwrap();
        assert_eq!(run(&bypass).unwrap(), uncached_reports);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod format_tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcheck_full_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_full_baseline_roundtrip_exits_zero() {
        let dir = temp_dir("baseline");
        let src = dir.join("h.c");
        std::fs::write(&src, "void h(void) { MISCBUS_READ_DB(a, b); }").unwrap();
        let baseline = dir.join("baseline.json");
        let opts = parse_args(
            [
                "--builtin",
                "--baseline",
                baseline.to_str().unwrap(),
                src.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .unwrap();

        // First run writes the baseline and exits 0 despite reports.
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 0);
        assert!(baseline.exists());
        assert!(String::from_utf8(err).unwrap().contains("baseline: wrote"));
        assert!(String::from_utf8(out).unwrap().contains("wait_for_db"));

        // Unchanged second run: every report is known, exit 0, no output.
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 0, "baseline round-trip must exit 0");
        let err = String::from_utf8(err).unwrap();
        assert!(err.contains("0 new"), "{err}");
        assert!(String::from_utf8(out).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_full_counts_suppressions_and_keeps_exit_zero() {
        let dir = temp_dir("suppress");
        let src = dir.join("s.c");
        std::fs::write(
            &src,
            "void s(void) { // mc-suppress: exec_restrict\n  \
             MISCBUS_READ_DB(a, b); // mc-suppress: wait_for_db\n}\n",
        )
        .unwrap();
        let opts = parse_args(["--builtin", src.to_str().unwrap()].map(String::from)).unwrap();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 0, "every report is suppressed");
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("2 report(s) suppressed"), "{out}");
        assert!(!out.contains("wait_for_db"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Regression: `// mc-suppress: metal-load` comments inside a checker
    // (.metal) file must silence that file's load-time validation warnings.
    // The suppression matcher only saw the checked C sources, so metal-load
    // reports — whose file is the checker path — could never be suppressed.
    #[test]
    fn run_full_honors_suppress_comments_in_metal_checker_files() {
        let dir = temp_dir("metal_suppress");
        let src = dir.join("h.c");
        std::fs::write(&src, "void h(void) { f(a); }\n").unwrap();
        let sm = dir.join("u.metal");
        let orphan = "    orphan: { g(x); } ==> { err(\"never\"); } ;\n}\n";
        let head = "sm u {\n    decl { scalar } x;\n    start: { f(x); } ==> stop ;\n";
        std::fs::write(&sm, format!("{head}{orphan}")).unwrap();
        let opts = parse_args(
            ["--checker", sm.to_str().unwrap(), src.to_str().unwrap()].map(String::from),
        )
        .unwrap();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 1, "the unreachable-state warning must surface");
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("unreachable"), "{shown}");

        std::fs::write(
            &sm,
            format!("{head}    // mc-suppress: metal-load\n{orphan}"),
        )
        .unwrap();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 0, "suppressed warning must not drive the exit code");
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("1 report(s) suppressed"), "{shown}");
        assert!(!shown.contains("unreachable"), "{shown}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // End-to-end refutation through run_full: the refuted report vanishes
    // from the text output, a note states the count, and `--no-refute`
    // restores the report.
    #[test]
    fn run_full_drops_refuted_reports_and_notes_the_count() {
        let dir = temp_dir("refuted");
        let src = dir.join("r.c");
        std::fs::write(
            &src,
            "void r(void)\n{\n    PROC_DEFS();\n    PROC_PROLOGUE();\n    int nak = 0;\n    \
             nak = gNakCredit - gNakDebit;\n    \
             if (gNakCredit == gNakDebit) {\n        if (nak > 0) {\n            \
             MISCBUS_READ_DB(a, b);\n        }\n    }\n}\n",
        )
        .unwrap();
        let base = ["--builtin", src.to_str().unwrap()];
        let opts = parse_args(base.map(String::from)).unwrap();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 0, "the only report is refuted");
        let shown = String::from_utf8(out).unwrap();
        assert!(
            shown.contains("1 report(s) refuted by symbolic witness analysis"),
            "{shown}"
        );
        assert!(!shown.contains("wait_for_db"), "{shown}");

        let mut opts = parse_args(base.map(String::from)).unwrap();
        opts.refute = false;
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 1, "--no-refute keeps the report");
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("wait_for_db"), "{shown}");
        assert!(!shown.contains("report(s) refuted"), "{shown}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_full_text_shows_excerpt_and_witness() {
        let dir = temp_dir("excerpt");
        let src = dir.join("e.c");
        std::fs::write(&src, "void e(void) {\n  MISCBUS_READ_DB(a, b);\n}\n").unwrap();
        let opts = parse_args(["--builtin", src.to_str().unwrap()].map(String::from)).unwrap();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        assert_eq!(code, 1);
        let out = String::from_utf8(out).unwrap();
        assert!(
            out.contains("| MISCBUS_READ_DB") || out.contains("|   MISCBUS_READ_DB"),
            "{out}"
        );
        assert!(out.contains("    1. "), "witness path rendered: {out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reports_serialize_to_json() {
        let r = mc_driver::Report::error("c", "f.c", "g", mc_ast::Span::new(3, 4), "m");
        let json = mc_json::to_string(&r);
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"line\":3"));
        let back: mc_driver::Report = mc_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}

#[cfg(test)]
mod metal_load_tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Options, CliError> {
        parse_args(s.iter().map(|s| s.to_string()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcheck_engine_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A checker whose `limbo` state no rule ever reaches: loading it must
    /// warn, pointing at the offending `sm` rule's file and line.
    const DEAD_STATE_SM: &str = "\
sm dead {
    decl { scalar } x;
    start: { f(x) } ==> { err(\"f\"); } ;
    limbo: { g(x) } ==> { err(\"g\"); } ;
}
";

    #[test]
    fn load_diagnostics_render_as_text_with_file_and_line() {
        let dir = temp_dir("diag_text");
        let src = dir.join("h.c");
        std::fs::write(&src, "void h(void) { f(y); }").unwrap();
        let sm = dir.join("dead.metal");
        std::fs::write(&sm, DEAD_STATE_SM).unwrap();
        let opts = args(&["--checker", sm.to_str().unwrap(), src.to_str().unwrap()]).unwrap();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        run_full(&opts, &mut out, &mut err).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("[unreachable-state]"), "{out}");
        assert!(
            out.contains(&format!("{}:4:", sm.display())),
            "diagnostic points at the `limbo:` rule's file:line — {out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_diagnostics_render_as_json() {
        let dir = temp_dir("diag_json");
        let src = dir.join("h.c");
        std::fs::write(&src, "void h(void) { g(y); }").unwrap();
        let sm = dir.join("dead.metal");
        std::fs::write(&sm, DEAD_STATE_SM).unwrap();
        let opts = args(&[
            "--checker",
            sm.to_str().unwrap(),
            "--format",
            "json",
            src.to_str().unwrap(),
        ])
        .unwrap();
        let (mut out, mut err) = (Vec::new(), Vec::new());
        run_full(&opts, &mut out, &mut err).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("unreachable-state"), "{out}");
        assert!(out.contains("metal-load"), "{out}");
        assert!(
            out.contains("\"line\": 4") || out.contains("\"line\":4"),
            "{out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_surfaces_load_diagnostics() {
        let dir = temp_dir("diag_watch");
        let src = dir.join("h.c");
        std::fs::write(&src, "void h(void) { f(y); }").unwrap();
        let sm = dir.join("dead.metal");
        std::fs::write(&sm, DEAD_STATE_SM).unwrap();
        let mut opts = args(&[
            "--checker",
            sm.to_str().unwrap(),
            "--watch",
            src.to_str().unwrap(),
        ])
        .unwrap();
        opts.watch_iterations = Some(1);
        let mut out = Vec::new();
        run_watch(&opts, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("[unreachable-state]"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
