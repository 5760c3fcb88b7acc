//! End-to-end CLI behaviour that unit tests cannot cover: a real
//! `mcheck --watch` session driven through file edits, the documented
//! process exit codes of the installed binary (on deeply nested input at
//! one and two workers too, beyond the parser's nesting bound, for
//! duplicate checker names and for a misspelt spec table), byte-identical
//! reports from
//! a size-capped cache, and `--interproc` resolving a helper that a
//! per-function run flags.

use mc_cli::{parse_args, run, run_full, run_watch, Options};
use std::path::PathBuf;
use std::process::Command;

fn args(s: &[&str]) -> Options {
    parse_args(s.iter().map(|s| s.to_string())).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcheck_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A watch session across a real edit: the first cycle reports the bug,
/// a timestamp-only rewrite of the *other* file does not trigger a cycle
/// or a re-check, and the cycle triggered by the fix re-checks only the
/// edited file and comes back clean.
#[test]
fn watch_session_recheck_on_edit_but_not_on_touch() {
    let dir = temp_dir("watch_edit");
    let buggy = dir.join("bug.c");
    let other = dir.join("other.c");
    // §5: a raw MISCBUS read without the wait protocol.
    std::fs::write(
        &buggy,
        "void h(void) { PROC_DEFS(); PROC_PROLOGUE(); MISCBUS_READ_DB(a, b); }",
    )
    .unwrap();
    let other_src = "void quiet(void) { PROC_DEFS(); PROC_PROLOGUE(); x = 1; }";
    std::fs::write(&other, other_src).unwrap();

    let cache = dir.join("cache");
    let mut opts = args(&[
        "--builtin",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--watch",
        "--watch-interval",
        "25",
        buggy.to_str().unwrap(),
        other.to_str().unwrap(),
    ]);
    opts.watch_iterations = Some(2);

    let editor = {
        let buggy = buggy.clone();
        let other = other.clone();
        std::thread::spawn(move || {
            // Give the first cycle time to complete and the poll to settle.
            std::thread::sleep(std::time::Duration::from_millis(300));
            // Timestamp-only change: same bytes, new mtime. Must NOT
            // trigger a check cycle.
            std::fs::write(&other, other_src).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(300));
            // The real edit: fix the bug. Triggers the second cycle.
            std::fs::write(
                &buggy,
                "void h(void) { PROC_DEFS(); PROC_PROLOGUE(); x = 1; }",
            )
            .unwrap();
        })
    };

    let mut out = Vec::new();
    run_watch(&opts, &mut out).unwrap();
    editor.join().unwrap();
    let text = String::from_utf8(out).unwrap();

    let cycles: Vec<&str> = text.lines().filter(|l| l.starts_with("[watch]")).collect();
    assert_eq!(
        cycles.len(),
        2,
        "exactly one initial cycle plus one edit-triggered cycle (the \
         timestamp-only touch must not add one): {text}"
    );
    assert!(
        cycles[0].contains("checked 2 file(s) (2 re-checked, 0 replayed): 1 report(s)"),
        "cold cycle checks everything and finds the bug: {text}"
    );
    assert!(
        cycles[1].contains("checked 2 file(s) (1 re-checked, 1 replayed): 0 report(s)"),
        "the fix cycle re-checks only the edited file and is clean: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The documented exit codes, pinned against the real binary:
/// 0 clean, 1 reports emitted, 2 usage error.
#[test]
fn binary_exit_codes_are_0_1_2() {
    let dir = temp_dir("exit_codes");
    let clean = dir.join("clean.c");
    std::fs::write(
        &clean,
        "void quiet(void) { PROC_DEFS(); PROC_PROLOGUE(); x = 1; }",
    )
    .unwrap();
    let buggy = dir.join("bug.c");
    std::fs::write(
        &buggy,
        "void h(void) { PROC_DEFS(); PROC_PROLOGUE(); MISCBUS_READ_DB(a, b); }",
    )
    .unwrap();
    let bin = env!("CARGO_BIN_EXE_mcheck");

    let ran = |extra: &[&str]| {
        Command::new(bin)
            .args(extra)
            .output()
            .expect("run mcheck")
            .status
            .code()
    };
    assert_eq!(ran(&["--builtin", clean.to_str().unwrap()]), Some(0));
    assert_eq!(ran(&["--builtin", buggy.to_str().unwrap()]), Some(1));
    assert_eq!(ran(&["--frobnicate"]), Some(2), "usage error");
    assert_eq!(
        ran(&["--builtin", "/nonexistent/x.c"]),
        Some(2),
        "I/O error"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two checkers of one name would key their summary transfer tables
/// alike and read each other's transfers under `--interproc`, so `mcheck`
/// refuses them at registration with exit 2 and names the duplicate:
/// two `--checker` files that both declare `sm race`, and a user
/// `sm directory` beside the built-in `directory` checker.
#[test]
fn duplicate_checker_names_exit_2_and_name_the_duplicate() {
    let dir = temp_dir("dup_names");
    let src = dir.join("h.c");
    std::fs::write(
        &src,
        "void helper(void) { foo(1); WAIT_FOR_DB_FULL(a); DIR_WRITEBACK(); }\n\
         void h(void) { helper(); MISCBUS_READ_DB(x, y); }\n",
    )
    .unwrap();
    let metal = |file: &str, src: &str| {
        let path = dir.join(file);
        std::fs::write(&path, src).unwrap();
        path.to_str().unwrap().to_string()
    };
    let race = "sm race { decl { scalar } a, b; start: \
                { WAIT_FOR_DB_FULL(a); } ==> stop | \
                { MISCBUS_READ_DB(a, b); } ==> { err(\"raw read\"); } ; }";
    let race1 = metal("race1.metal", race);
    let race2 = metal(
        "race2.metal",
        "sm race { start: { foo(1); } ==> done ; done: { bar(); } ==> start ; }",
    );
    let directory = metal("dir.metal", &race.replace("sm race", "sm directory"));
    let s = src.to_str().unwrap();
    let bin = env!("CARGO_BIN_EXE_mcheck");
    for (argv, name, file) in [
        (
            vec!["--checker", &race1, "--checker", &race2, "--interproc", s],
            "race",
            &race2,
        ),
        (
            vec!["--builtin", "--checker", &directory, "--interproc", s],
            "directory",
            &directory,
        ),
    ] {
        let out = Command::new(bin).args(&argv).output().expect("run mcheck");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?}");
        assert!(
            stderr.contains(&format!(
                "{file}: a checker named `{name}` is already registered"
            )),
            "{argv:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether a deeply nested file fits on the stack does not depend on the
/// worker count: `--jobs 1` checks on the main thread and `--jobs 2` on
/// pool workers, and both print the same reports. Four shapes: 600 nested
/// `if` blocks, a 20,000-term `x + x + …` sum, 2,000 nested parentheses
/// and 5,000 chained unary minus signs. The last two recurse through the
/// parser's whole expression chain per level, so they guard its stack
/// frames.
#[test]
fn deep_nesting_reports_identically_at_one_and_two_workers() {
    let dir = temp_dir("deep");
    let nested = format!(
        "{}MISCBUS_READ_DB(a, b);\n{}",
        "if (c) {\n".repeat(600),
        "}\n".repeat(600)
    );
    let sum = format!(
        "t = {}; MISCBUS_READ_DB(a, b);",
        vec!["x"; 20_000].join(" + ")
    );
    let parens = format!(
        "t = {}x{}; MISCBUS_READ_DB(a, b);",
        "(".repeat(2_000),
        ")".repeat(2_000)
    );
    let negations = format!("t = {}x; MISCBUS_READ_DB(a, b);", "- ".repeat(5_000));
    for (shape, body) in [
        ("nested", &nested),
        ("sum", &sum),
        ("parens", &parens),
        ("negations", &negations),
    ] {
        let files: Vec<PathBuf> = (1..=2)
            .map(|i| {
                let path = dir.join(format!("{shape}{i}.c"));
                std::fs::write(&path, format!("void NIDeep{i}(void) {{\n{body}\n}}\n")).unwrap();
                path
            })
            .collect();
        let at = |jobs: &str| {
            Command::new(env!("CARGO_BIN_EXE_mcheck"))
                .args(["--builtin", "--jobs", jobs])
                .args(&files)
                .output()
                .expect("run mcheck")
        };
        let (one, two) = (at("1"), at("2"));
        for (jobs, out) in [(1, &one), (2, &two)] {
            assert_eq!(
                out.status.code(),
                Some(1),
                "{shape} at --jobs {jobs}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        assert_eq!(
            one.stdout, two.stdout,
            "{shape}: --jobs 2 printed different reports"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Input nested beyond the parser's bound is a located parse error (exit
/// 2, nothing on stdout) at any worker count, never a stack overflow: a
/// handler of 3,000 nested `if` blocks and a `return` of 100,000 nested
/// parentheses.
#[test]
fn nesting_beyond_the_parser_bound_exits_2() {
    let dir = temp_dir("too_deep");
    let ifs = format!(
        "void PIDeep(void) {{\n{}DB_FREE();\n{}}}\n",
        "if (c) {\n".repeat(3_000),
        "}\n".repeat(3_000)
    );
    let parens = format!(
        "int PIDeep(void) {{ return {}x{}; }}\n",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    for (name, src, at) in [("ifs.c", ifs, ":1502:1:"), ("parens.c", parens, ":1:")] {
        let path = dir.join(name);
        std::fs::write(&path, src).unwrap();
        for jobs in ["1", "2"] {
            let out = Command::new(env!("CARGO_BIN_EXE_mcheck"))
                .args(["--builtin", "--jobs", jobs])
                .arg(&path)
                .output()
                .expect("run mcheck");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} --jobs {jobs}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} --jobs {jobs}");
            let located = format!("{}{at}", path.display());
            assert!(stderr.contains(&located), "{name}: {stderr}");
            assert!(stderr.contains("nested too deeply"), "{name}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec file naming a table the checkers do not know is refused (exit 2,
/// nothing on stdout, the field and the file named on stderr). Accepted, a
/// misspelt `free_routines` left the table empty, and `buffer_mgmt` then
/// reported a handler that frees through `releaseBuf()` as still holding
/// its buffer.
#[test]
fn an_unknown_spec_field_exits_2_and_names_it() {
    let dir = temp_dir("spec_field");
    let src = dir.join("h.c");
    std::fs::write(
        &src,
        "void releaseBuf(void) { PROC_DEFS(); PROC_PROLOGUE(); DB_FREE(); }\n\
         void PIRelease(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); releaseBuf(); }\n",
    )
    .unwrap();
    let spec = dir.join("spec.json");
    let check = |json: &str| {
        std::fs::write(&spec, json).unwrap();
        Command::new(env!("CARGO_BIN_EXE_mcheck"))
            .args(["--builtin", "--spec"])
            .args([&spec, &src])
            .output()
            .expect("run mcheck")
    };
    let out = check(r#"{"free_routine": ["releaseBuf"]}"#);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    let named = format!("{}: json: unknown field `free_routine`", spec.display());
    assert!(stderr.contains(&named), "{stderr}");
    // Spelt right, the table takes effect and the handler is clean.
    let out = check(r#"{"free_routines": ["releaseBuf"]}"#);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite of the cache-cap feature: a cache squeezed far below the
/// working-set size keeps evicting records, and the reports stay
/// byte-identical to an uncached run — the cap may only cost speed.
#[test]
fn capped_cache_output_identical_to_uncached() {
    let dir = temp_dir("cap_eq");
    let mut files: Vec<String> = Vec::new();
    for i in 0..6 {
        let p = dir.join(format!("u{i}.c"));
        // Each unit: one §6 double free plus a clean helper.
        std::fs::write(
            &p,
            format!(
                "void helper{i}(void) {{ x = {i}; }}\n\
                 void PIRemoteGet{i}(void) {{ DB_FREE(); DB_FREE(); }}\n"
            ),
        )
        .unwrap();
        files.push(p.display().to_string());
    }
    let file_refs: Vec<&str> = files.iter().map(|s| s.as_str()).collect();

    let plain = {
        let mut a = vec!["--builtin"];
        a.extend(&file_refs);
        run(&args(&a)).unwrap()
    };
    assert!(!plain.is_empty(), "the corpus has reports to compare");

    let cache = dir.join("cache");
    let capped = {
        let mut a = vec![
            "--builtin",
            "--cache-dir",
            cache.to_str().unwrap(),
            // Far below the working set: every store round evicts.
            "--cache-cap-bytes",
            "700",
        ];
        a.extend(&file_refs);
        args(&a)
    };
    let cold = run(&capped).unwrap();
    let warm = run(&capped).unwrap();
    assert_eq!(cold, plain, "capped cold run matches uncached");
    assert_eq!(warm, plain, "capped warm run matches uncached");

    let total: u64 = std::fs::read_dir(&cache)
        .unwrap()
        .flatten()
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert!(total <= 700, "cap enforced on disk, found {total} bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache format migration: records written by an older crate version (a
/// lower `"version"` tag) are silent misses — the run re-checks, never
/// errors — and after that one re-fill the next warm run is byte-identical
/// to the re-filled one.
#[test]
fn old_format_cache_records_are_silent_misses() {
    let dir = temp_dir("migrate");
    let src = dir.join("m.c");
    std::fs::write(
        &src,
        "void h(void) { PROC_DEFS(); PROC_PROLOGUE(); MISCBUS_READ_DB(a, b); }",
    )
    .unwrap();
    let cache = dir.join("cache");
    let opts = args(&[
        "--builtin",
        "--cache-dir",
        cache.to_str().unwrap(),
        src.to_str().unwrap(),
    ]);
    let render_run = || {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = run_full(&opts, &mut out, &mut err).unwrap();
        (code, String::from_utf8(out).unwrap())
    };

    let (code, cold) = render_run();
    assert_eq!(code, 1, "the bug is reported");
    assert!(
        cache.read_dir().unwrap().next().is_some(),
        "records written"
    );

    // Downgrade every record to the previous format version, as if left
    // behind by an older release sharing the cache directory.
    let cur = mc_driver::CACHE_FORMAT_VERSION;
    let prev = cur - 1;
    let mut downgraded = 0usize;
    for entry in cache.read_dir().unwrap().flatten() {
        let path = entry.path();
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text
            .replace(
                &format!("\"version\": {cur}"),
                &format!("\"version\": {prev}"),
            )
            .replace(
                &format!("\"version\":{cur}"),
                &format!("\"version\":{prev}"),
            );
        if old != text {
            downgraded += 1;
        }
        std::fs::write(&path, old).unwrap();
    }
    assert!(downgraded > 0, "version tags found and rewritten");

    // The run over old records must succeed (miss, not error) and agree
    // byte-for-byte with the cold run; it re-fills the cache.
    let (code, refill) = render_run();
    assert_eq!(code, 1);
    assert_eq!(refill, cold, "old records degrade to a cold run");

    // Second warm run after the re-fill: byte-identical again.
    let (code, warm) = render_run();
    assert_eq!(code, 1);
    assert_eq!(warm, refill, "warm output byte-identical after re-fill");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--interproc` sees through a free-wrapper helper that the default
/// per-function run flags as a leak; warm interprocedural runs replay
/// byte-identically.
#[test]
fn interproc_resolves_wrapper_and_caches_identically() {
    let dir = temp_dir("interproc");
    let src = dir.join("w.c");
    std::fs::write(
        &src,
        "void free_wrapper(void) { DB_FREE(); }\n\
         void PILocalGet(void) { NI_SEND(t, F_DATA, k, w, d, n); free_wrapper(); }\n",
    )
    .unwrap();
    let s = src.to_str().unwrap();

    let without = run(&args(&["--builtin", s])).unwrap();
    assert!(
        without
            .iter()
            .any(|r| r.checker == "buffer_mgmt" && r.message.contains("leak")),
        "opaque call: the handler appears to leak: {without:?}"
    );

    let direct = run(&args(&["--builtin", "--interproc", s])).unwrap();
    assert!(
        direct.iter().all(|r| r.checker != "buffer_mgmt"),
        "summary sees the wrapper free: {direct:?}"
    );

    let cache = dir.join("cache");
    let cached = args(&[
        "--builtin",
        "--interproc",
        "--cache-dir",
        cache.to_str().unwrap(),
        s,
    ]);
    let cold = run(&cached).unwrap();
    let warm = run(&cached).unwrap();
    assert_eq!(cold, direct, "cached interproc cold == direct");
    assert_eq!(warm, direct, "cached interproc warm == direct");
    let _ = std::fs::remove_dir_all(&dir);
}
