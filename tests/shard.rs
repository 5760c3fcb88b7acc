//! Shard-farm byte-identity: splitting a check across `--shard i/N`
//! processes that share one cache directory, then folding them with
//! `mcheck merge`, must reproduce the single-process output byte for
//! byte — at every shard count, every worker count, warm or cold. The
//! shard farm is a transport for work, never a second analysis pipeline.
//!
//! Also pins the merge guard: manifests written under a different
//! checker suite are rejected instead of silently mixed.

use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-shard-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(args: &[String]) -> mc_cli::Options {
    mc_cli::parse_args(args.iter().cloned()).expect("args parse")
}

/// Runs the full CLI pipeline, returning the exit code and stdout bytes
/// (stderr carries only human-facing notes and is not compared).
fn run_to_string(o: &mc_cli::Options) -> (u8, String) {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = mc_cli::run_full(o, &mut out, &mut err).expect("run succeeds");
    (code, String::from_utf8(out).unwrap())
}

/// Emits the corpus under `dir` and returns one protocol's sorted source
/// paths plus its spec path. One protocol keeps the 12-cell matrix fast
/// while still spanning multiple translation units per shard split.
fn corpus_protocol(dir: &Path) -> (Vec<String>, String) {
    let corpus = dir.join("corpus");
    let emit = opts(&["--emit-corpus".into(), corpus.display().to_string()]);
    run_to_string(&emit);
    let pdir = corpus.join("bitvector");
    let mut files: Vec<String> = std::fs::read_dir(&pdir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| p.display().to_string())
        .collect();
    files.sort();
    assert!(files.len() >= 2, "need multiple units to shard over");
    (files, pdir.join("spec.json").display().to_string())
}

fn base_args(files: &[String], spec: &str, jobs: usize) -> Vec<String> {
    let mut a: Vec<String> = [
        "--builtin",
        "--spec",
        spec,
        "--format",
        "json",
        "--jobs",
        &jobs.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    a.extend(files.iter().cloned());
    a
}

#[test]
fn shard_merge_matrix_is_byte_identical_to_single_process() {
    let dir = scratch("matrix");
    let (files, spec) = corpus_protocol(&dir);

    // The single-process truth, computed once, uncached, at one worker:
    // every matrix cell must reproduce exactly these bytes.
    let (code, baseline) = run_to_string(&opts(&base_args(&files, &spec, 1)));
    assert_eq!(code, 1, "the corpus has planted bugs");
    assert!(baseline.contains("mcheck-reports"));

    for shards in [1u32, 2, 4] {
        for jobs in [1usize, 4] {
            let cache = dir.join(format!("cache-{shards}x{jobs}"));
            let cache_s = cache.display().to_string();
            for i in 0..shards {
                let mut a = base_args(&files, &spec, jobs);
                a.extend([
                    "--cache-dir".into(),
                    cache_s.clone(),
                    "--shard".into(),
                    format!("{i}/{shards}"),
                ]);
                let (code, out) = run_to_string(&opts(&a));
                assert_eq!(code, 0, "a shard run always exits 0");
                assert!(out.is_empty(), "a shard run renders no reports");
                assert!(
                    cache.join(format!("shard-{i}-of-{shards}.json")).exists(),
                    "shard manifest written"
                );
            }
            let mut m = vec!["merge".to_string()];
            m.extend(base_args(&files, &spec, jobs));
            m.extend(["--cache-dir".into(), cache_s.clone()]);
            let (code, cold) = run_to_string(&opts(&m));
            assert_eq!(code, 1);
            assert_eq!(
                cold, baseline,
                "cold merge differs from single-process ({shards} shards, {jobs} jobs)"
            );
            let (_, warm) = run_to_string(&opts(&m));
            assert_eq!(
                warm, baseline,
                "warm merge differs from single-process ({shards} shards, {jobs} jobs)"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_manifests_from_a_different_suite() {
    let dir = scratch("suite");
    let (files, spec) = corpus_protocol(&dir);
    let cache = dir.join("cache").display().to_string();

    let mut shard = base_args(&files, &spec, 1);
    shard.extend([
        "--cache-dir".into(),
        cache.clone(),
        "--shard".into(),
        "0/2".into(),
    ]);
    let (code, _) = run_to_string(&opts(&shard));
    assert_eq!(code, 0);

    // Same cache, different suite key: --no-refute changes what the
    // checkers compute, so folding those shards would mix incompatible
    // results. The merge must refuse, naming the manifest.
    let mut m = vec!["merge".to_string(), "--no-refute".to_string()];
    m.extend(base_args(&files, &spec, 1));
    m.extend(["--cache-dir".into(), cache.clone()]);
    let err = mc_cli::run_full(&opts(&m), &mut Vec::new(), &mut Vec::new())
        .expect_err("mismatched suite keys must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("different checker suite") && msg.contains("shard-0-of-2.json"),
        "{msg}"
    );

    // With the matching options the same cache merges fine.
    let mut ok = vec!["merge".to_string()];
    ok.extend(base_args(&files, &spec, 1));
    ok.extend(["--cache-dir".into(), cache]);
    let (code, out) = run_to_string(&opts(&ok));
    assert_eq!(code, 1);
    assert!(out.contains("mcheck-reports"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_with_no_manifests_is_an_error() {
    let dir = scratch("empty");
    let (files, spec) = corpus_protocol(&dir);
    let mut m = vec!["merge".to_string()];
    m.extend(base_args(&files, &spec, 1));
    m.extend([
        "--cache-dir".into(),
        dir.join("cache").display().to_string(),
    ]);
    let err = mc_cli::run_full(&opts(&m), &mut Vec::new(), &mut Vec::new())
        .expect_err("nothing to merge");
    assert!(err.to_string().contains("no shard manifests"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one `shards`-way farm over `files` into `cache`, returning the
/// total `units_checked` its manifests record.
fn run_farm(files: &[String], spec: &str, cache: &str, shards: u32) -> i64 {
    let mut checked = 0;
    for i in 0..shards {
        let mut a = base_args(files, spec, 1);
        a.extend([
            "--cache-dir".into(),
            cache.to_string(),
            "--shard".into(),
            format!("{i}/{shards}"),
        ]);
        let (code, _) = run_to_string(&opts(&a));
        assert_eq!(code, 0, "a shard run always exits 0");
        let manifest = Path::new(cache).join(format!("shard-{i}-of-{shards}.json"));
        let m = mc_json::Json::parse(&std::fs::read_to_string(manifest).unwrap()).unwrap();
        checked += m.get("units_checked").and_then(|v| v.as_i64()).unwrap();
    }
    checked
}

/// Claims deduplicate by content, not by file: a second farm over edited
/// files, run right after the first (well within the claim TTL), checks
/// the edited files itself instead of deferring them to the first farm's
/// long-finished claims, and its merge equals a single-process run.
#[test]
fn a_second_farm_over_edited_files_checks_them() {
    let dir = scratch("refarm");
    let (files, spec) = corpus_protocol(&dir);
    let cache = dir.join("cache").display().to_string();
    let shards = 2;

    let checked = run_farm(&files, &spec, &cache, shards);
    assert_eq!(
        checked,
        files.len() as i64,
        "the first farm checks every file"
    );

    for f in &files[..2] {
        let mut src = std::fs::read_to_string(f).unwrap();
        src.push_str("\nvoid refarm_probe(void) { long m; m = MISCBUS_READ_DB(a, b); }\n");
        std::fs::write(f, src).unwrap();
    }
    // Each shard checks the edited files it owns; neither defers to the
    // first farm's claims, which name the old content.
    let checked = run_farm(&files, &spec, &cache, shards);
    assert_eq!(checked, 2, "both edited files are checked by their owners");

    let (_, baseline) = run_to_string(&opts(&base_args(&files, &spec, 1)));
    let mut m = vec!["merge".to_string()];
    m.extend(base_args(&files, &spec, 1));
    m.extend(["--cache-dir".into(), cache]);
    let (_, merged) = run_to_string(&opts(&m));
    assert_eq!(merged, baseline, "merge after the second farm");
    let _ = std::fs::remove_dir_all(&dir);
}
