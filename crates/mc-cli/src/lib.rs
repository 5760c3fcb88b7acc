//! # mc-cli
//!
//! Library backing the `mcheck` command-line tool: argument parsing and
//! the run logic, factored out of `main` so it can be tested.
//!
//! ```text
//! mcheck [OPTIONS] <file.c>...
//!
//!   --checker <file.metal>   add a metal checker (repeatable)
//!   --builtin                add the full built-in FLASH suite
//!   --spec <spec.json>       FlashSpec tables for the native checkers
//!   --mode <state-set|exhaustive>
//!   --jobs <n>               worker threads (default: available parallelism)
//!   --prune / --no-prune     path-feasibility pruning (default on)
//!   --refute / --no-refute   symbolic witness refutation (default on)
//!   --emit-corpus <dir>      write the synthetic FLASH corpus and exit
//!   --seed <n>               corpus seed (default 0xF1A5)
//! ```

#![warn(missing_docs)]

use mc_checkers::flash::FlashSpec;
use mc_driver::cache::DiskCache;
use mc_driver::{CheckEngine, Driver, Report, Severity, Verdict};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

mod baseline;
#[cfg(unix)]
pub mod daemon;
mod render;

pub use baseline::{apply_baseline, Baseline, BaselineEntry, BaselineOutcome};
pub use render::{json_envelope, partition_refuted, partition_suppressed, render, Format};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Metal checker files to load.
    pub checkers: Vec<PathBuf>,
    /// Whether to register the built-in FLASH suite.
    pub builtin: bool,
    /// Optional FlashSpec JSON path.
    pub spec: Option<PathBuf>,
    /// Use exhaustive traversal instead of the state-set worklist.
    pub exhaustive: bool,
    /// Worker threads for parsing and checking (`None`: available
    /// parallelism). Reports are identical at any worker count.
    pub jobs: Option<usize>,
    /// Path-feasibility pruning (`--no-prune` turns it off, reproducing
    /// the paper's unpruned xg++ behaviour).
    pub prune: bool,
    /// Inter-procedural checking: resolve call sites through bottom-up
    /// function summaries instead of treating calls as opaque
    /// (`--interproc` turns it on; off reproduces xg++'s per-function
    /// behaviour, except for the lane checker, which is always summary-
    /// based).
    pub interproc: bool,
    /// Symbolic witness refutation (`--no-refute` turns it off): each
    /// report's witness path is sliced and solved; reports whose path
    /// condition is infeasible are demoted to `refuted` and dropped from
    /// the output, and satisfiable witnesses whose solver model reproduces
    /// the violation in concrete replay are promoted to `confirmed`.
    pub refute: bool,
    /// Write the corpus to this directory instead of checking.
    pub emit_corpus: Option<PathBuf>,
    /// Corpus seed.
    pub seed: u64,
    /// Report output format (`--format text|json|sarif`).
    pub format: Format,
    /// Baseline file: written when missing, compared (by fingerprint)
    /// when present; known reports are filtered and the run exits 0 when
    /// nothing new remains.
    pub baseline: Option<PathBuf>,
    /// Persist check artifacts here; warm runs only re-check changed
    /// files.
    pub cache_dir: Option<PathBuf>,
    /// Ignore `cache_dir` (fully cold run; nothing read or written).
    pub no_cache: bool,
    /// Bound the on-disk cache to this many bytes; the oldest record files
    /// are evicted when a store pushes the total over (`None`: unbounded).
    pub cache_cap_bytes: Option<u64>,
    /// Keep running: poll the input files (mtime + content hash) and
    /// re-check on every change.
    pub watch: bool,
    /// Watch poll interval in milliseconds.
    pub watch_interval_ms: u64,
    /// Stop watching after this many check cycles (`None`: run until
    /// killed). Mainly for scripting and tests.
    pub watch_iterations: Option<usize>,
    /// Drive `--watch` through an `mcheckd` daemon on this unix socket
    /// instead of an in-process engine: the watch loop becomes a thin
    /// client that connects to a running daemon (or spawns one) and sends
    /// a `check` request per settled edit burst. Unix only.
    pub daemon_socket: Option<PathBuf>,
    /// Check only this shard's slice of the dirty units (`--shard i/N`,
    /// 0-based `i` of `N`): units are partitioned by content fingerprint,
    /// results land in the shared `--cache-dir`, and a `shard-i-of-N.json`
    /// manifest records the run so the `merge` subcommand can fold the
    /// shards into one report. A shard run prints a summary instead of
    /// rendering reports (its report set is partial by design).
    pub shard: Option<(u32, u32)>,
    /// Merge mode (the `merge` subcommand): validate every shard manifest
    /// in `--cache-dir` against this invocation's checker suite, then run
    /// the full check over the warm shared cache. The output is
    /// byte-identical to a single-process run of the same options.
    pub merge: bool,
    /// Corpus scale factor for `--emit-corpus` (`--scale N`): emit `N`
    /// protocol families. Family 0 is the stock seed corpus byte-for-byte;
    /// each extra family re-derives the five protocols from a distinct
    /// seed and adds deeper call chains, calibrated against the paper's
    /// Table 1 code sizes.
    pub scale: usize,
    /// C sources to check.
    pub files: Vec<PathBuf>,
}

/// The documented defaults: pruning on, the stock corpus seed. Derived
/// `Default` would give `prune: false` and silently hand programmatic
/// callers the paper's unpruned behaviour.
impl Default for Options {
    fn default() -> Options {
        Options {
            checkers: Vec::new(),
            builtin: false,
            spec: None,
            exhaustive: false,
            jobs: None,
            prune: true,
            interproc: false,
            refute: true,
            emit_corpus: None,
            seed: mc_corpus::DEFAULT_SEED,
            format: Format::Text,
            baseline: None,
            cache_dir: None,
            no_cache: false,
            cache_cap_bytes: None,
            watch: false,
            watch_interval_ms: 500,
            watch_iterations: None,
            daemon_socket: None,
            shard: None,
            merge: false,
            scale: 1,
            files: Vec::new(),
        }
    }
}

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

/// Usage text printed on `--help` or bad arguments.
pub const USAGE: &str = "\
usage: mcheck [OPTIONS] <file.c>...
       mcheck merge [OPTIONS] <file.c>...
  --checker <file.metal>   add a metal checker (repeatable)
  --builtin                add the built-in FLASH checker suite
  --spec <spec.json>       FlashSpec tables (handler classes, lane quotas,
                           routine tables) for the native checkers
  --mode <state-set|exhaustive>   path traversal mode (default state-set)
  --jobs <n>               worker threads for parsing and checking
                           (default: available parallelism; output is
                           identical at any worker count)
  --prune / --no-prune     refute paths whose branch conditions contradict
                           each other (default on; --no-prune reproduces
                           the paper's unpruned behaviour)
  --interproc / --no-interproc
                           resolve call sites through bottom-up function
                           summaries so helpers stop looking opaque
                           (default off; the lane checker is always
                           summary-based)
  --refute / --no-refute   slice each report's witness path and solve its
                           branch conditions symbolically (default on):
                           infeasible witnesses are demoted to `refuted`
                           and hidden; satisfiable ones whose solver model
                           reproduces the violation in concrete replay are
                           promoted to `confirmed` with the input attached
  --format <text|json|sarif>
                           report output format (default text); reports
                           are ordered most-likely-real first (descending
                           confidence). text shows source excerpts and the
                           numbered witness path; json is the documented
                           mcheck-reports envelope; sarif is SARIF 2.1.0
                           with the witness path as codeFlows
  --baseline <file>        if <file> is missing, write the run's report
                           fingerprints to it and exit 0; if it exists,
                           hide reports whose fingerprint it contains and
                           exit 0 exactly when no new report remains
  --cache-dir <dir>        persist check artifacts between runs; a warm
                           run only re-checks files whose content changed
  --no-cache               ignore --cache-dir for this run (fully cold)
  --cache-cap-bytes <n>    bound the on-disk cache: evict the oldest
                           record files when a store pushes the total
                           size over n bytes (default unbounded)
  --watch                  keep running: poll the input files (mtime +
                           content hash) and re-check on every change;
                           bursts of edits inside one poll interval
                           coalesce into a single re-check
  --watch-interval <ms>    watch poll interval (default 500)
  --watch-iterations <n>   exit after n check cycles (for scripting/tests)
  --daemon-socket <path>   drive --watch through an mcheckd daemon on this
                           unix socket: connect to a running daemon (or
                           spawn one) and send a check request per edit
                           instead of checking in-process (unix only)
  --shard <i/N>            check only this shard's slice of the dirty
                           units (0-based i of N, partitioned by content
                           fingerprint); results and a shard manifest go
                           into the shared --cache-dir, and no report is
                           rendered. Run the `merge` subcommand afterwards
                           to fold the shards into the full report —
                           byte-identical to a single-process run
  --emit-corpus <dir>      write the synthetic FLASH corpus and exit
  --seed <n>               corpus seed (default 0xF1A5)
  --scale <n>              with --emit-corpus: emit n protocol families
                           (default 1, the stock corpus; family 0 is
                           always byte-identical to it, extra families
                           add reseeded protocols with deeper call
                           chains)
  --help                   show this message

exit codes: 0 ran clean (no reports), 1 ran and emitted reports,
            2 usage, I/O, or parse error";

/// Parses arguments (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or a run that
/// would do nothing.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, CliError> {
    let mut opts = Options::default();
    let mut it = args.into_iter().peekable();
    // `merge` is a leading subcommand, not a flag: `mcheck merge ...`.
    if it.peek().is_some_and(|a| a == "merge") {
        it.next();
        opts.merge = true;
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--checker" => {
                let v = it.next().ok_or(CliError("--checker needs a file".into()))?;
                opts.checkers.push(PathBuf::from(v));
            }
            "--builtin" => opts.builtin = true,
            "--spec" => {
                let v = it.next().ok_or(CliError("--spec needs a file".into()))?;
                opts.spec = Some(PathBuf::from(v));
            }
            "--mode" => {
                let v = it.next().ok_or(CliError("--mode needs a value".into()))?;
                match v.as_str() {
                    "state-set" => opts.exhaustive = false,
                    "exhaustive" => opts.exhaustive = true,
                    other => {
                        return Err(CliError(format!(
                            "unknown mode `{other}` (state-set | exhaustive)"
                        )))
                    }
                }
            }
            "--jobs" => {
                let v = it.next().ok_or(CliError("--jobs needs a number".into()))?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => opts.jobs = Some(n),
                    _ => {
                        return Err(CliError(format!(
                            "--jobs expects a positive integer, got `{v}`"
                        )))
                    }
                }
            }
            "--prune" => opts.prune = true,
            "--no-prune" => opts.prune = false,
            "--interproc" => opts.interproc = true,
            "--no-interproc" => opts.interproc = false,
            "--refute" => opts.refute = true,
            "--no-refute" => opts.refute = false,
            "--format" => {
                let v = it.next().ok_or(CliError("--format needs a value".into()))?;
                opts.format = Format::parse(&v).ok_or_else(|| {
                    CliError(format!("unknown format `{v}` (text | json | sarif)"))
                })?;
            }
            "--baseline" => {
                let v = it
                    .next()
                    .ok_or(CliError("--baseline needs a file".into()))?;
                opts.baseline = Some(PathBuf::from(v));
            }
            "--cache-dir" => {
                let v = it
                    .next()
                    .ok_or(CliError("--cache-dir needs a directory".into()))?;
                opts.cache_dir = Some(PathBuf::from(v));
            }
            "--no-cache" => opts.no_cache = true,
            "--cache-cap-bytes" => {
                let v = it
                    .next()
                    .ok_or(CliError("--cache-cap-bytes needs a byte count".into()))?;
                match v.parse::<u64>() {
                    Ok(n) if n >= 1 => opts.cache_cap_bytes = Some(n),
                    _ => {
                        return Err(CliError(format!(
                            "--cache-cap-bytes expects a positive byte count, got `{v}`"
                        )))
                    }
                }
            }
            "--watch" => opts.watch = true,
            "--watch-interval" => {
                let v = it
                    .next()
                    .ok_or(CliError("--watch-interval needs milliseconds".into()))?;
                opts.watch_interval_ms = v.parse::<u64>().map_err(|_| {
                    CliError(format!("--watch-interval expects milliseconds, got `{v}`"))
                })?;
            }
            "--watch-iterations" => {
                let v = it
                    .next()
                    .ok_or(CliError("--watch-iterations needs a number".into()))?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => opts.watch_iterations = Some(n),
                    _ => {
                        return Err(CliError(format!(
                            "--watch-iterations expects a positive integer, got `{v}`"
                        )))
                    }
                }
            }
            "--daemon-socket" => {
                let v = it
                    .next()
                    .ok_or(CliError("--daemon-socket needs a path".into()))?;
                opts.daemon_socket = Some(PathBuf::from(v));
            }
            "--emit-corpus" => {
                let v = it
                    .next()
                    .ok_or(CliError("--emit-corpus needs a directory".into()))?;
                opts.emit_corpus = Some(PathBuf::from(v));
            }
            "--seed" => {
                let v = it.next().ok_or(CliError("--seed needs a number".into()))?;
                opts.seed =
                    parse_seed(&v).ok_or_else(|| CliError(format!("invalid seed `{v}`")))?;
            }
            "--scale" => {
                let v = it.next().ok_or(CliError("--scale needs a number".into()))?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => opts.scale = n,
                    _ => {
                        return Err(CliError(format!(
                            "--scale expects a positive integer, got `{v}`"
                        )))
                    }
                }
            }
            "--shard" => {
                let v = it.next().ok_or(CliError("--shard needs i/N".into()))?;
                opts.shard = Some(parse_shard(&v).ok_or_else(|| {
                    CliError(format!("--shard expects `i/N` with 0 <= i < N, got `{v}`"))
                })?);
            }
            "--help" | "-h" => return Err(CliError(USAGE.to_string())),
            other if other.starts_with('-') => {
                return Err(CliError(format!("unknown option `{other}`\n{USAGE}")))
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if opts.emit_corpus.is_none() {
        if opts.files.is_empty() {
            return Err(CliError(format!("no input files\n{USAGE}")));
        }
        if opts.checkers.is_empty() && !opts.builtin {
            return Err(CliError(
                "nothing to do: pass --checker and/or --builtin".into(),
            ));
        }
    }
    if opts.shard.is_some() || opts.merge {
        if opts.shard.is_some() && opts.merge {
            return Err(CliError(
                "the `merge` subcommand and --shard are mutually exclusive".into(),
            ));
        }
        if opts.cache_dir.is_none() || opts.no_cache {
            return Err(CliError(
                "--shard and `merge` need the shared shard cache: pass --cache-dir \
                 (without --no-cache)"
                    .into(),
            ));
        }
        if opts.watch {
            return Err(CliError(
                "--watch cannot be combined with --shard or `merge`".into(),
            ));
        }
    }
    Ok(opts)
}

/// Parses `i/N` shard syntax; `None` unless `0 <= i < N` and `N >= 1`.
fn parse_shard(s: &str) -> Option<(u32, u32)> {
    let (i, n) = s.split_once('/')?;
    let i: u32 = i.parse().ok()?;
    let n: u32 = n.parse().ok()?;
    (n >= 1 && i < n).then_some((i, n))
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
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
    if opts.exhaustive {
        driver.mode = mc_cfg_mode_exhaustive();
    }
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
fn read_sources(files: &[PathBuf]) -> Result<Vec<(String, String)>, CliError> {
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

/// The post-check pipeline every client surface shares — `run_full`, the
/// watch loop and the `mcheckd` daemon — over the `reports` one engine
/// check of `sources` returned: ranked as [`run`] ranks them, then the
/// refuted and suppressed partitions. Suppression comments are honored
/// wherever a report can point, including the metal checker files
/// themselves (load-time validation warnings are reported against the
/// checker's own source).
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
/// Replay needs the checked sources as an executable program; files the
/// simulator's handler subset cannot parse (or checkers with no dynamic
/// manifestation) simply leave their reports at `sat` — promotion is
/// strictly best-effort and never demotes.
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

/// A watched file's last observed state: its stat signature (cheap to
/// re-read every poll) and a hash of its contents (consulted only when the
/// stat changed, so a `touch` that rewrites identical bytes does not
/// trigger a re-check).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileSnap {
    stat: Option<(SystemTime, u64)>,
    hash: u64,
}

fn stat_of(path: &Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

fn snap_of(path: &Path) -> FileSnap {
    let stat = stat_of(path);
    let hash = std::fs::read(path)
        .map(|bytes| mc_ast::fnv1a(&bytes))
        .unwrap_or(0);
    FileSnap { stat, hash }
}

/// One watch poll: returns `true` when any file's *content* changed since
/// the snapshots were taken, updating the snapshots. Transient I/O errors
/// (a file mid-save, briefly missing) never trigger: the old hash is kept
/// until the file is readable again with different bytes.
fn poll_changed(files: &[PathBuf], snaps: &mut [FileSnap]) -> bool {
    let mut changed = false;
    for (file, snap) in files.iter().zip(snaps.iter_mut()) {
        let stat = stat_of(file);
        if stat == snap.stat {
            continue;
        }
        snap.stat = stat;
        if let Ok(bytes) = std::fs::read(file) {
            let hash = mc_ast::fnv1a(&bytes);
            if hash != snap.hash {
                snap.hash = hash;
                changed = true;
            }
        }
    }
    changed
}

/// Runs `mcheck --watch`: check, report, then poll the files and re-check
/// on every content change, reusing the incremental engine so unchanged
/// files are never re-parsed. Parse and read errors are reported and
/// watched through — a broken intermediate save does not kill the session.
///
/// Output goes to `out` (stdout in `main`; a buffer in tests). Runs until
/// killed, or after `opts.watch_iterations` check cycles when set.
///
/// # Errors
///
/// Returns [`CliError`] only for setup failures: unreadable spec/checker
/// files or an unusable cache directory.
pub fn run_watch(opts: &Options, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    #[cfg(unix)]
    if let Some(socket) = &opts.daemon_socket {
        return daemon::run_watch_client(opts, socket, out);
    }
    let driver = build_driver(opts)?;
    let mut engine = engine_for(opts)?;
    let interval = std::time::Duration::from_millis(opts.watch_interval_ms.max(1));
    let mut cycles = 0usize;
    let mut snaps: Vec<FileSnap> = opts.files.iter().map(|f| snap_of(f)).collect();
    loop {
        let cycle = read_sources(&opts.files).and_then(|sources| {
            let (reports, stats) = engine.check_sources(&driver, &sources)?;
            Ok((checked_reports(&driver, opts, &sources, reports)?, stats))
        });
        match cycle {
            Ok((c, stats)) => {
                let _ = writeln!(
                    out,
                    "[watch] checked {} file(s) ({} re-checked, {} replayed): {} report(s)",
                    stats.units,
                    stats.units_checked,
                    stats.units - stats.units_checked,
                    c.reports.len()
                );
                render(
                    opts.format,
                    &c.reports,
                    &c.sources,
                    c.suppressed,
                    c.refuted,
                    out,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
            }
        }
        let _ = out.flush();
        cycles += 1;
        if opts.watch_iterations.is_some_and(|n| cycles >= n) {
            return Ok(());
        }
        wait_for_settled_change(&opts.files, &mut snaps, interval);
    }
}

/// Blocks until the watched files change *and then stop changing*: after
/// the first detected change, polling continues until one full interval
/// passes with no further change, so a burst of rapid edits (an editor
/// save immediately followed by a formatter rewrite) coalesces into a
/// single re-check of the final content instead of one per write.
fn wait_for_settled_change(
    files: &[PathBuf],
    snaps: &mut [FileSnap],
    interval: std::time::Duration,
) {
    loop {
        std::thread::sleep(interval);
        if poll_changed(files, snaps) {
            break;
        }
    }
    loop {
        std::thread::sleep(interval);
        if !poll_changed(files, snaps) {
            return;
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
        return run_shard(opts, si, sn, err);
    }
    let driver = build_driver(opts)?;
    if opts.merge {
        let shards = validate_shard_manifests(opts, &driver)?;
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

/// The process exit code for a completed (non-watch) check run: `0` when
/// no reports were emitted, `1` otherwise. Usage, I/O, and parse errors
/// exit `2` (set in `main`).
pub fn exit_code(reports: &[Report]) -> u8 {
    u8::from(!reports.is_empty())
}

fn mc_cfg_mode_exhaustive() -> mc_cfg::Mode {
    mc_cfg::Mode::Exhaustive {
        max_paths: 1_000_000,
    }
}

/// One `--shard i/N` run: check only the dirty units this shard owns,
/// populating the shared `--cache-dir`, then record a
/// `shard-<i>-of-<N>.json` manifest (shard coordinates, suite key, unit
/// counts) so `mcheck merge` can validate that every shard ran the same
/// checker suite. Prints a one-line summary to `err` and exits 0 — a
/// shard's report set is partial by design, so nothing is rendered.
fn run_shard(
    opts: &Options,
    si: u32,
    sn: u32,
    err: &mut dyn std::io::Write,
) -> Result<u8, CliError> {
    let driver = build_driver(opts)?;
    let sources = read_sources(&opts.files)?;
    let mut engine = engine_for(opts)?;
    engine.set_shard(Some((si, sn)));
    let (_, stats) = engine.check_sources(&driver, &sources)?;
    let dir = opts
        .cache_dir
        .as_ref()
        .expect("parse_args requires --cache-dir with --shard");
    let manifest = mc_json::object(vec![
        ("shard", mc_json::Json::Int(i64::from(si))),
        ("shards", mc_json::Json::Int(i64::from(sn))),
        (
            "suite_key",
            mc_json::Json::Str(format!("{:016x}", driver.suite_key())),
        ),
        ("units", mc_json::Json::Int(stats.units as i64)),
        (
            "units_checked",
            mc_json::Json::Int(stats.units_checked as i64),
        ),
        (
            "units_deferred",
            mc_json::Json::Int(stats.units_deferred as i64),
        ),
    ]);
    let path = dir.join(format!("shard-{si}-of-{sn}.json"));
    std::fs::write(&path, manifest.to_pretty())
        .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
    let _ = writeln!(
        err,
        "shard {si}/{sn}: {} unit(s) checked, {} owned elsewhere; run `mcheck merge` to fold",
        stats.units_checked, stats.units_deferred
    );
    Ok(0)
}

/// Validates every `shard-*.json` manifest in the cache directory against
/// this invocation's suite key, returning how many were found.
///
/// # Errors
///
/// Returns [`CliError`] when no manifest exists (nothing to merge) or any
/// manifest records a different suite key — merging shards checked under a
/// different checker suite would silently mix incompatible cached results.
fn validate_shard_manifests(opts: &Options, driver: &Driver) -> Result<usize, CliError> {
    let dir = opts
        .cache_dir
        .as_ref()
        .expect("parse_args requires --cache-dir with merge");
    let want = format!("{:016x}", driver.suite_key());
    let no_manifests = || {
        CliError(format!(
            "merge: no shard manifests in {}; run `mcheck --shard i/N` first",
            dir.display()
        ))
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(no_manifests()),
        Err(e) => return Err(CliError(format!("{}: {e}", dir.display()))),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("shard-") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(no_manifests());
    }
    for name in &names {
        let path = dir.join(name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        let json = mc_json::Json::parse(&text)
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        let got = json
            .get("suite_key")
            .and_then(|v| v.as_str())
            .ok_or_else(|| CliError(format!("{}: missing suite_key", path.display())))?;
        if got != want {
            return Err(CliError(format!(
                "merge: {name} was produced by a different checker suite \
                 (suite key {got}, this run is {want}); re-run the shards \
                 with the same options"
            )));
        }
    }
    Ok(names.len())
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

    #[test]
    fn default_options_match_documented_defaults() {
        // Programmatic callers of `run()` construct `Options` directly;
        // they must get pruning on and the stock seed, same as the CLI.
        let o = Options::default();
        assert!(o.prune);
        assert!(o.refute, "refutation must default on");
        assert_eq!(o.seed, mc_corpus::DEFAULT_SEED);
    }

    #[test]
    fn parses_typical_invocation() {
        let o = args(&["--builtin", "--mode", "exhaustive", "a.c", "b.c"]).unwrap();
        assert!(o.builtin);
        assert!(o.exhaustive);
        assert_eq!(o.files.len(), 2);
    }

    #[test]
    fn requires_input_files() {
        assert!(args(&["--builtin"]).is_err());
    }

    #[test]
    fn requires_some_checker() {
        assert!(args(&["a.c"]).is_err());
    }

    #[test]
    fn seed_parsing() {
        let o = args(&["--emit-corpus", "/tmp/x", "--seed", "0xF1A5"]).unwrap();
        assert_eq!(o.seed, 0xF1A5);
        let o = args(&["--emit-corpus", "/tmp/x", "--seed", "42"]).unwrap();
        assert_eq!(o.seed, 42);
        assert!(args(&["--emit-corpus", "/tmp/x", "--seed", "zz"]).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(args(&["--frobnicate", "a.c"]).is_err());
    }

    #[test]
    fn jobs_parsing() {
        let o = args(&["--builtin", "--jobs", "4", "a.c"]).unwrap();
        assert_eq!(o.jobs, Some(4));
        let o = args(&["--builtin", "a.c"]).unwrap();
        assert_eq!(o.jobs, None);
    }

    #[test]
    fn jobs_rejects_zero_and_garbage() {
        assert!(args(&["--builtin", "--jobs", "0", "a.c"]).is_err());
        assert!(args(&["--builtin", "--jobs", "four", "a.c"]).is_err());
        assert!(args(&["--builtin", "--jobs", "-2", "a.c"]).is_err());
        assert!(args(&["--builtin", "--jobs"]).is_err());
    }

    #[test]
    fn jobs_documented_in_usage() {
        assert!(USAGE.contains("--jobs"));
    }

    #[test]
    fn shard_parsing() {
        let o = args(&[
            "--builtin",
            "--shard",
            "1/4",
            "--cache-dir",
            "/tmp/c",
            "a.c",
        ])
        .unwrap();
        assert_eq!(o.shard, Some((1, 4)));
        assert!(args(&[
            "--builtin",
            "--shard",
            "4/4",
            "--cache-dir",
            "/tmp/c",
            "a.c"
        ])
        .is_err());
        assert!(args(&[
            "--builtin",
            "--shard",
            "0/0",
            "--cache-dir",
            "/tmp/c",
            "a.c"
        ])
        .is_err());
        assert!(args(&[
            "--builtin",
            "--shard",
            "zebra",
            "--cache-dir",
            "/tmp/c",
            "a.c"
        ])
        .is_err());
        assert!(args(&["--builtin", "--shard"]).is_err());
        assert!(USAGE.contains("--shard"));
    }

    #[test]
    fn shard_and_merge_need_a_shared_cache_dir() {
        assert!(args(&["--builtin", "--shard", "0/2", "a.c"]).is_err());
        assert!(args(&["merge", "--builtin", "a.c"]).is_err());
        assert!(args(&[
            "--builtin",
            "--shard",
            "0/2",
            "--cache-dir",
            "/tmp/c",
            "--no-cache",
            "a.c"
        ])
        .is_err());
    }

    #[test]
    fn merge_subcommand_parses_only_in_leading_position() {
        let o = args(&["merge", "--builtin", "--cache-dir", "/tmp/c", "a.c"]).unwrap();
        assert!(o.merge);
        assert_eq!(o.files, vec![PathBuf::from("a.c")]);
        // Anywhere else, `merge` is an ordinary file argument.
        let o = args(&["--builtin", "merge"]).unwrap();
        assert!(!o.merge);
        assert_eq!(o.files, vec![PathBuf::from("merge")]);
    }

    #[test]
    fn merge_excludes_shard_and_watch() {
        assert!(args(&[
            "merge",
            "--builtin",
            "--cache-dir",
            "/tmp/c",
            "--shard",
            "0/2",
            "a.c"
        ])
        .is_err());
        assert!(args(&[
            "--builtin",
            "--cache-dir",
            "/tmp/c",
            "--shard",
            "0/2",
            "--watch",
            "a.c"
        ])
        .is_err());
    }

    #[test]
    fn scale_parsing() {
        let o = args(&["--emit-corpus", "/tmp/x", "--scale", "10"]).unwrap();
        assert_eq!(o.scale, 10);
        let o = args(&["--emit-corpus", "/tmp/x"]).unwrap();
        assert_eq!(o.scale, 1, "stock corpus by default");
        assert!(args(&["--emit-corpus", "/tmp/x", "--scale", "0"]).is_err());
        assert!(USAGE.contains("--scale"));
    }

    #[test]
    fn prune_flags_parse_and_default_on() {
        let o = args(&["--builtin", "a.c"]).unwrap();
        assert!(o.prune, "pruning must default on");
        let o = args(&["--builtin", "--no-prune", "a.c"]).unwrap();
        assert!(!o.prune);
        let o = args(&["--builtin", "--no-prune", "--prune", "a.c"]).unwrap();
        assert!(o.prune, "later flag wins");
        assert!(USAGE.contains("--no-prune"));
    }

    #[test]
    fn interproc_flags_parse_and_default_off() {
        let o = args(&["--builtin", "a.c"]).unwrap();
        assert!(!o.interproc, "interproc must default off");
        let o = args(&["--builtin", "--interproc", "a.c"]).unwrap();
        assert!(o.interproc);
        let o = args(&["--builtin", "--interproc", "--no-interproc", "a.c"]).unwrap();
        assert!(!o.interproc, "later flag wins");
        assert!(USAGE.contains("--interproc"));
    }

    #[test]
    fn refute_flags_parse_and_default_on() {
        let o = args(&["--builtin", "a.c"]).unwrap();
        assert!(o.refute, "refutation must default on");
        let o = args(&["--builtin", "--no-refute", "a.c"]).unwrap();
        assert!(!o.refute);
        let o = args(&["--builtin", "--no-refute", "--refute", "a.c"]).unwrap();
        assert!(o.refute, "later flag wins");
        assert!(USAGE.contains("--no-refute"));
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
    fn cache_cap_bytes_parses() {
        let o = args(&["--builtin", "--cache-cap-bytes", "65536", "a.c"]).unwrap();
        assert_eq!(o.cache_cap_bytes, Some(65536));
        let o = args(&["--builtin", "a.c"]).unwrap();
        assert_eq!(o.cache_cap_bytes, None, "unbounded by default");
        assert!(args(&["--builtin", "--cache-cap-bytes", "0", "a.c"]).is_err());
        assert!(args(&["--builtin", "--cache-cap-bytes", "big", "a.c"]).is_err());
        assert!(USAGE.contains("--cache-cap-bytes"));
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
    fn cache_and_watch_flags_parse() {
        let o = args(&[
            "--builtin",
            "--cache-dir",
            "/tmp/c",
            "--watch",
            "--watch-interval",
            "50",
            "--watch-iterations",
            "2",
            "a.c",
        ])
        .unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert!(o.watch);
        assert_eq!(o.watch_interval_ms, 50);
        assert_eq!(o.watch_iterations, Some(2));
        assert!(!o.no_cache);

        let o = args(&["--builtin", "--cache-dir", "/tmp/c", "--no-cache", "a.c"]).unwrap();
        assert!(o.no_cache);
        assert!(args(&["--builtin", "--watch-iterations", "0", "a.c"]).is_err());
        assert!(USAGE.contains("--cache-dir") && USAGE.contains("--watch"));
    }

    /// The differential oracles (the metal interpreter, whole-unit
    /// invalidation) are library settings for tests, not product flags.
    #[test]
    fn oracle_modes_are_unknown_options() {
        for flag in [["--metal-engine", "interp"], ["--invalidate", "component"]] {
            let err = args(&["--builtin", flag[0], flag[1], "a.c"]).unwrap_err();
            assert!(err.0.starts_with("unknown option"), "{err}");
            assert!(!USAGE.contains(flag[0]));
        }
    }

    #[test]
    fn daemon_socket_flag_parses() {
        let o = args(&[
            "--builtin",
            "--watch",
            "--daemon-socket",
            "/tmp/mcheckd.sock",
            "a.c",
        ])
        .unwrap();
        assert_eq!(o.daemon_socket, Some(PathBuf::from("/tmp/mcheckd.sock")));
        let o = args(&["--builtin", "a.c"]).unwrap();
        assert_eq!(o.daemon_socket, None);
        assert!(args(&["--builtin", "--daemon-socket"]).is_err());
        assert!(USAGE.contains("--daemon-socket"));
    }

    #[test]
    fn exit_codes_zero_one() {
        assert_eq!(exit_code(&[]), 0);
        let r = Report::warning("c", "f.c", "g", mc_ast::Span::new(1, 1), "m");
        assert_eq!(exit_code(&[r]), 1);
        assert!(USAGE.contains("exit codes"));
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

    #[test]
    fn watch_single_cycle_reports_and_returns() {
        let dir = temp_dir("watch");
        let src = dir.join("w.c");
        std::fs::write(&src, "void w(void) { MISCBUS_READ_DB(a, b); }").unwrap();
        let mut opts = args(&["--builtin", "--watch", src.to_str().unwrap()]).unwrap();
        opts.watch_iterations = Some(1);
        let mut out = Vec::new();
        run_watch(&opts, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("[watch] checked 1 file(s)"), "{text}");
        assert!(text.contains("wait_for_db"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Regression (debounce): an editor save immediately followed by a
    // formatter rewrite must coalesce into ONE re-check that sees the
    // final content — not one re-check per write.
    #[test]
    fn watch_coalesces_rapid_edit_bursts() {
        let dir = temp_dir("debounce");
        let src = dir.join("d.c");
        std::fs::write(&src, "void d(void) { a(); }").unwrap();
        let mut opts = args(&["--builtin", "--watch", src.to_str().unwrap()]).unwrap();
        opts.watch_interval_ms = 50;
        opts.watch_iterations = Some(2);
        let src2 = src.clone();
        let writer = std::thread::spawn(move || {
            // The save...
            std::thread::sleep(std::time::Duration::from_millis(150));
            std::fs::write(&src2, "void d(void) { b(); }").unwrap();
            // ...and the formatter rewrite, well inside the next poll
            // interval.
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::fs::write(&src2, "void d(void) { MISCBUS_READ_DB(a, b); }").unwrap();
        });
        let mut out = Vec::new();
        run_watch(&opts, &mut out).unwrap();
        writer.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.matches("[watch] checked").count(),
            2,
            "initial check + one coalesced re-check: {text}"
        );
        assert!(
            text.contains("wait_for_db"),
            "the re-check saw the burst's final content: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_poll_detects_content_changes_only() {
        let dir = temp_dir("poll");
        let src = dir.join("p.c");
        std::fs::write(&src, "void p(void) { a(); }").unwrap();
        let files = vec![src.clone()];
        let mut snaps = vec![snap_of(&src)];

        assert!(!poll_changed(&files, &mut snaps), "no change yet");

        // Rewrite with identical bytes (a `touch`): stat changes, content
        // does not — no re-check.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&src, "void p(void) { a(); }").unwrap();
        assert!(!poll_changed(&files, &mut snaps), "identical bytes");

        // A transiently missing file does not trigger.
        std::fs::remove_file(&src).unwrap();
        assert!(!poll_changed(&files, &mut snaps), "missing file");

        // Real content change triggers once.
        std::fs::write(&src, "void p(void) { b(); }").unwrap();
        assert!(poll_changed(&files, &mut snaps), "content changed");
        assert!(!poll_changed(&files, &mut snaps), "already seen");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod format_tests {
    use super::*;

    #[test]
    fn format_flag_parses() {
        let o = parse_args(["--builtin", "--format", "json", "a.c"].map(String::from)).unwrap();
        assert_eq!(o.format, Format::Json);
        let o = parse_args(["--builtin", "--format", "text", "a.c"].map(String::from)).unwrap();
        assert_eq!(o.format, Format::Text);
        let o = parse_args(["--builtin", "--format", "sarif", "a.c"].map(String::from)).unwrap();
        assert_eq!(o.format, Format::Sarif);
        assert!(parse_args(["--builtin", "--format", "xml", "a.c"].map(String::from)).is_err());
        assert!(USAGE.contains("sarif"));
    }

    #[test]
    fn baseline_flag_parses() {
        let o = parse_args(["--builtin", "--baseline", "b.json", "a.c"].map(String::from)).unwrap();
        assert_eq!(o.baseline, Some(PathBuf::from("b.json")));
        let o = parse_args(["--builtin", "a.c"].map(String::from)).unwrap();
        assert_eq!(o.baseline, None);
        assert!(parse_args(["--builtin", "--baseline"].map(String::from)).is_err());
        assert!(USAGE.contains("--baseline"));
    }

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
mod metal_engine_tests {
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

    #[test]
    fn both_engines_produce_identical_reports() {
        let dir = temp_dir("parity");
        let src = dir.join("h.c");
        std::fs::write(
            &src,
            "void h(void) { MISCBUS_READ_DB(a, b); DB_FREE(); DB_FREE(); }",
        )
        .unwrap();
        let opts = args(&["--builtin", src.to_str().unwrap()]).unwrap();
        let sources = read_sources(&opts.files).unwrap();
        let check = |engine: mc_driver::MetalEngine| {
            let mut driver = build_driver(&opts).unwrap();
            driver.set_metal_engine(engine);
            let (reports, _) = engine_for(&opts)
                .unwrap()
                .check_sources(&driver, &sources)
                .unwrap();
            checked_reports(&driver, &opts, &sources, reports)
                .unwrap()
                .reports
        };
        let compiled = check(mc_driver::MetalEngine::Compiled);
        assert_eq!(compiled, check(mc_driver::MetalEngine::Interp));
        assert!(!compiled.is_empty(), "the planted bugs are found");
        let _ = std::fs::remove_dir_all(&dir);
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
