//! The oracle matrix: however `mcheck` is run, it must print the same
//! bytes. For each protocol of the seed corpus plus two scale-10 fleet
//! families, `mc_cli::run_full` runs in-process over
//! {`--jobs` 1/4/8} × {uncached, cold cache, warm cache} ×
//! {single process, 1-shard and 4-shard farm folded by `merge`}, under the
//! default flags and under `--interproc` (refutation is on by default, so
//! verdicts and solver models are in every cell). Every cell's stdout and
//! exit code must equal an uncached single-process run at one worker. The
//! metal interpreter, reachable only through `Driver::set_metal_engine`,
//! is held to the same bytes.

use flash_mc::corpus::{generate_fleet, Protocol, DEFAULT_SEED};
use flash_mc::driver::MetalEngine;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The seed corpus (family 0 of any fleet) plus two scale-10 families,
/// generated once per test binary.
fn corpus() -> &'static [Protocol] {
    static CORPUS: OnceLock<Vec<Protocol>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        generate_fleet(DEFAULT_SEED, 10)
            .into_iter()
            .enumerate()
            .filter(|(i, p)| *i < 6 || p.name == "bitvector_f3" || p.name == "dyn_ptr_f7")
            .map(|(_, p)| p)
            .collect()
    })
}

/// Writes protocol `name` under a fresh scratch directory; returns the
/// directory, the spec path and the source paths.
fn emit(name: &str) -> (PathBuf, String, Vec<String>) {
    let proto = corpus()
        .iter()
        .find(|p| p.name == name)
        .expect("protocol in the corpus slice");
    let dir = std::env::temp_dir().join(format!("mc-oracle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, mc_json::to_string_pretty(&proto.spec)).unwrap();
    let files = proto
        .files
        .iter()
        .map(|f| {
            let path = dir.join(&f.name);
            std::fs::write(&path, &f.source).unwrap();
            path.display().to_string()
        })
        .collect();
    (dir, spec.display().to_string(), files)
}

/// `run_full` over `args`: the exit code and stdout bytes (stderr carries
/// only human-facing notes).
fn run(args: &[String]) -> (u8, Vec<u8>) {
    let opts = mc_cli::parse_args(args.iter().cloned()).expect("args parse");
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = mc_cli::run_full(&opts, &mut out, &mut err).expect("run succeeds");
    (code, out)
}

/// `run_full`'s output for `args` with the metal interpreter swapped in
/// through the library setter.
fn run_interp(args: &[String]) -> (u8, Vec<u8>) {
    let opts = mc_cli::parse_args(args.iter().cloned()).expect("args parse");
    let mut driver = mc_cli::build_driver(&opts).expect("driver builds");
    driver.set_metal_engine(MetalEngine::Interp);
    let sources: Vec<(String, String)> = opts
        .files
        .iter()
        .map(|f| (std::fs::read_to_string(f).unwrap(), f.display().to_string()))
        .collect();
    let (reports, _) = mc_cli::engine_for(&opts)
        .expect("engine")
        .check_sources(&driver, &sources)
        .expect("checks");
    let c = mc_cli::checked_reports(&driver, &opts, &sources, reports).expect("post-check");
    let mut out = Vec::new();
    mc_cli::render(
        opts.format,
        &c.reports,
        &c.sources,
        c.suppressed,
        c.refuted,
        &mut out,
    );
    (u8::from(!c.reports.is_empty()), out)
}

/// Runs the whole matrix for one protocol.
fn matrix(name: &str) {
    let (dir, spec, files) = emit(name);
    for (tag, flags) in [
        ("default", &["--format", "json"][..]),
        ("interproc", &["--interproc", "--format", "text"][..]),
    ] {
        let args = |jobs: usize, extra: &[String]| -> Vec<String> {
            let mut a: Vec<String> = ["--builtin", "--spec", &spec, "--jobs", &jobs.to_string()]
                .iter()
                .chain(flags)
                .map(|s| s.to_string())
                .collect();
            a.extend(extra.iter().cloned());
            a.extend(files.iter().cloned());
            a
        };
        let truth = run(&args(1, &[]));
        assert!(!truth.1.is_empty(), "{name}/{tag}: empty output");
        let same = |cell: &str, got: (u8, Vec<u8>)| {
            assert!(
                got == truth,
                "{name}/{tag}: {cell} differs from the uncached single-process run"
            );
        };
        same("metal interpreter", run_interp(&args(1, &[])));
        for jobs in [1usize, 4, 8] {
            if jobs > 1 {
                same(&format!("uncached, jobs {jobs}"), run(&args(jobs, &[])));
            }
            let cache = dir
                .join(format!("cache-{tag}-{jobs}"))
                .display()
                .to_string();
            let cached = args(jobs, &["--cache-dir".into(), cache]);
            same(&format!("cold cache, jobs {jobs}"), run(&cached));
            same(&format!("warm cache, jobs {jobs}"), run(&cached));
            for shards in [1u32, 4] {
                let cache = dir.join(format!("farm-{tag}-{jobs}-{shards}"));
                let cache_arg = ["--cache-dir".to_string(), cache.display().to_string()];
                for i in 0..shards {
                    let mut shard = cache_arg.to_vec();
                    shard.extend(["--shard".into(), format!("{i}/{shards}")]);
                    assert_eq!(run(&args(jobs, &shard)), (0, Vec::new()), "{name}/{tag}");
                }
                let mut merge = vec!["merge".to_string()];
                merge.extend(args(jobs, &cache_arg));
                let cell = format!("{shards}-shard merge, jobs {jobs}");
                same(&format!("cold {cell}"), run(&merge));
                same(&format!("warm {cell}"), run(&merge));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_bitvector() {
    matrix("bitvector");
}

#[test]
fn seed_dyn_ptr() {
    matrix("dyn_ptr");
}

#[test]
fn seed_sci() {
    matrix("sci");
}

#[test]
fn seed_coma() {
    matrix("coma");
}

#[test]
fn seed_rac() {
    matrix("rac");
}

#[test]
fn seed_common() {
    matrix("common");
}

#[test]
fn fleet_bitvector_f3() {
    matrix("bitvector_f3");
}

#[test]
fn fleet_dyn_ptr_f7() {
    matrix("dyn_ptr_f7");
}
