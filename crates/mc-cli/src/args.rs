//! The `mcheck` command line: [`Options`], [`USAGE`] and [`parse_args`].

use crate::{CliError, Format};
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Metal checker files to load.
    pub checkers: Vec<PathBuf>,
    /// Whether to register the built-in FLASH suite.
    pub builtin: bool,
    /// Optional FlashSpec JSON path.
    pub spec: Option<PathBuf>,
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
    /// instead of an in-process check session: each settled edit burst
    /// becomes one `check` request to a running daemon (or one this
    /// process spawns). Needs `--watch`; unix only.
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

/// Usage text printed on `--help` or bad arguments.
pub const USAGE: &str = "\
usage: mcheck [OPTIONS] <file.c>...
       mcheck merge [OPTIONS] <file.c>...
  --checker <file.metal>   add a metal checker (repeatable)
  --builtin                add the built-in FLASH checker suite
  --spec <spec.json>       FlashSpec tables (handler classes, lane quotas,
                           routine tables) for the native checkers
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
  --daemon-socket <path>   with --watch: check through an mcheckd daemon on
                           this unix socket (a running one, or one spawned
                           with these options) instead of in-process;
                           output is the same (unix only)
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
        let flag = arg.as_str();
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| CliError(format!("{flag} needs {what}")))
        };
        match flag {
            "--checker" => opts.checkers.push(value("a file")?.into()),
            "--builtin" => opts.builtin = true,
            "--spec" => opts.spec = Some(value("a file")?.into()),
            "--jobs" => opts.jobs = Some(positive(flag, &value("a number")?, "integer")?),
            "--prune" => opts.prune = true,
            "--no-prune" => opts.prune = false,
            "--interproc" => opts.interproc = true,
            "--no-interproc" => opts.interproc = false,
            "--refute" => opts.refute = true,
            "--no-refute" => opts.refute = false,
            "--format" => {
                let v = value("a value")?;
                opts.format = Format::parse(&v).ok_or_else(|| {
                    CliError(format!("unknown format `{v}` (text | json | sarif)"))
                })?;
            }
            "--baseline" => opts.baseline = Some(value("a file")?.into()),
            "--cache-dir" => opts.cache_dir = Some(value("a directory")?.into()),
            "--no-cache" => opts.no_cache = true,
            "--cache-cap-bytes" => {
                let v = value("a byte count")?;
                opts.cache_cap_bytes = Some(positive(flag, &v, "byte count")?);
            }
            "--watch" => opts.watch = true,
            "--watch-interval" => {
                let v = value("milliseconds")?;
                opts.watch_interval_ms = v.parse().map_err(|_| {
                    CliError(format!("--watch-interval expects milliseconds, got `{v}`"))
                })?;
            }
            "--watch-iterations" => {
                let v = value("a number")?;
                opts.watch_iterations = Some(positive(flag, &v, "integer")?);
            }
            "--daemon-socket" => opts.daemon_socket = Some(value("a path")?.into()),
            "--emit-corpus" => opts.emit_corpus = Some(value("a directory")?.into()),
            "--seed" => {
                let v = value("a number")?;
                opts.seed =
                    parse_seed(&v).ok_or_else(|| CliError(format!("invalid seed `{v}`")))?;
            }
            "--scale" => opts.scale = positive(flag, &value("a number")?, "integer")?,
            "--shard" => {
                let v = value("i/N")?;
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
    let sharded = opts.shard.is_some() || opts.merge;
    let conflicts = [
        (
            opts.watch && opts.emit_corpus.is_some(),
            "--watch cannot be combined with --emit-corpus",
        ),
        (
            opts.daemon_socket.is_some() && !opts.watch,
            "--daemon-socket needs --watch (one-shot requests: `mcheckd check`)",
        ),
        (
            opts.daemon_socket.is_some() && cfg!(not(unix)),
            "--daemon-socket needs unix domain sockets; this platform has none",
        ),
        (
            opts.shard.is_some() && opts.merge,
            "the `merge` subcommand and --shard are mutually exclusive",
        ),
        (
            sharded && (opts.cache_dir.is_none() || opts.no_cache),
            "--shard and `merge` need the shared shard cache: pass --cache-dir \
             (without --no-cache)",
        ),
        (
            sharded && opts.watch,
            "--watch cannot be combined with --shard or `merge`",
        ),
    ];
    if let Some((_, msg)) = conflicts.iter().find(|(conflict, _)| *conflict) {
        return Err(CliError(msg.to_string()));
    }
    Ok(opts)
}

/// Parses a value of `flag` that must be a positive `what`.
fn positive<T: std::str::FromStr + Default + PartialOrd>(
    flag: &str,
    v: &str,
    what: &str,
) -> Result<T, CliError> {
    match v.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(CliError(format!(
            "{flag} expects a positive {what}, got `{v}`"
        ))),
    }
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
        let o = args(&["--builtin", "a.c", "b.c"]).unwrap();
        assert!(o.builtin);
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

    /// The removed oracle flags stay unknown: the metal interpreter is
    /// reached only through a test-side checker adapter, invalidation has
    /// one mode, and exhaustive traversal only through `Driver::mode`.
    #[test]
    fn oracle_modes_are_unknown_options() {
        for flag in [
            ["--metal-engine", "interp"],
            ["--invalidate", "component"],
            ["--mode", "exhaustive"],
        ] {
            let err = args(&["--builtin", flag[0], flag[1], "a.c"]).unwrap_err();
            assert!(err.0.starts_with("unknown option"), "{err}");
            assert!(!USAGE.contains(flag[0]));
        }
    }

    #[test]
    fn daemon_socket_flag_parses() {
        let watched = args(&[
            "--builtin",
            "--watch",
            "--daemon-socket",
            "/tmp/mcheckd.sock",
            "a.c",
        ]);
        if cfg!(unix) {
            let o = watched.unwrap();
            assert_eq!(o.daemon_socket, Some(PathBuf::from("/tmp/mcheckd.sock")));
        } else {
            // Refused, not dropped, where there are no unix sockets.
            let err = watched.unwrap_err();
            assert!(err.0.contains("unix domain sockets"), "{err}");
        }
        let o = args(&["--builtin", "a.c"]).unwrap();
        assert_eq!(o.daemon_socket, None);
        assert!(args(&["--builtin", "--daemon-socket"]).is_err());
        // Without --watch the socket would be silently ignored.
        let err = args(&["--builtin", "--daemon-socket", "/tmp/s", "a.c"]).unwrap_err();
        assert!(err.0.contains("--daemon-socket needs --watch"), "{err}");
        assert!(USAGE.contains("--daemon-socket"));
        assert!(USAGE.contains("exit codes"));
    }

    /// `--watch` would poll zero files forever and never write the corpus.
    #[test]
    fn watch_rejects_emit_corpus() {
        let err = args(&["--emit-corpus", "/tmp/x", "--watch"]).unwrap_err();
        assert!(err.0.contains("--emit-corpus"), "{err}");
        assert!(args(&["--emit-corpus", "/tmp/x"]).is_ok());
    }

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
}
