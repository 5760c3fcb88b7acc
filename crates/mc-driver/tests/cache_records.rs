//! Property tests for the incremental engine's cache records: random
//! reports and records must survive a serialize → parse round trip
//! exactly, and corrupted or mislabeled record files must degrade to a
//! cache miss — never a crash, never a wrong answer.

use mc_ast::Span;
use mc_cfg::PathStep;
use mc_driver::cache::{
    key_hex, ComponentRecord, DiskCache, FnEntry, FnIndexLoad, FnIndexRecord, ProgramRecord,
};
use mc_driver::{Report, Severity, Verdict};
use proptest::prelude::*;

/// Message-like text: printable ASCII (including `"` and `\`, the JSON
/// escape stress cases) plus embedded newlines and tabs.
fn text() -> &'static str {
    "[ -~\\n\\t]{0,40}"
}

fn func_name() -> &'static str {
    "[A-Za-z_][A-Za-z0-9_]{0,10}"
}

fn arb_step() -> impl Strategy<Value = PathStep> {
    ("[a-z_.]{0,10}", (1u32..10_000, 1u32..240), text()).prop_map(|(file, (line, col), note)| {
        PathStep {
            file,
            span: Span::new(line, col),
            note,
        }
    })
}

fn arb_report() -> impl Strategy<Value = Report> {
    (
        ("[a-z_]{1,12}", any::<bool>(), "[a-z_]{1,10}\\.c"),
        (func_name(), (1u32..10_000, 1u32..240), text()),
        (
            prop::collection::vec(arb_step(), 0..4),
            0u8..101,
            any::<u32>(),
        ),
        (
            0u8..4,
            prop::collection::vec(("g[A-Za-z]{1,8}", any::<i64>()), 0..3),
        ),
    )
        .prop_map(
            |(
                (checker, warning, file),
                (function, (line, col), message),
                (steps, confidence, pruned_paths),
                (verdict, mut model),
            )| {
                // The model is (name → value): sorted, unique keys, like
                // the solver produces.
                model.sort();
                model.dedup_by(|a, b| a.0 == b.0);
                Report {
                    checker,
                    severity: if warning {
                        Severity::Warning
                    } else {
                        Severity::Error
                    },
                    file,
                    function,
                    span: Span::new(line, col),
                    message,
                    steps,
                    confidence,
                    pruned_paths,
                    verdict: match verdict {
                        0 => Verdict::Unchecked,
                        1 => Verdict::Refuted,
                        2 => Verdict::Sat,
                        _ => Verdict::Confirmed,
                    },
                    model,
                }
            },
        )
}

fn arb_entry() -> impl Strategy<Value = FnEntry> {
    (
        (func_name(), any::<u64>(), any::<u64>()),
        prop::collection::vec(arb_report(), 0..3),
        prop::collection::vec((func_name(), any::<u64>()), 0..3),
        prop::collection::vec((func_name(), prop::option::of(any::<u64>())), 0..3),
    )
        .prop_map(
            |((name, body_fp, sig_fp), reports, local_deps, summary_deps)| FnEntry {
                name,
                body_fp,
                sig_fp,
                reports,
                local_deps,
                summary_deps,
            },
        )
}

/// A file record: the one record the engine keeps per source file.
fn arb_file() -> impl Strategy<Value = FnIndexRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
        prop::collection::vec(func_name(), 0..5),
        prop::collection::vec(arb_entry(), 0..4),
    )
        .prop_map(
            |((key, src_key, ast_key), (summary_key, env_fp), calls, functions)| FnIndexRecord {
                key,
                src_key,
                ast_key,
                summary_key,
                env_fp,
                calls,
                functions,
            },
        )
}

fn arb_component() -> impl Strategy<Value = ComponentRecord> {
    (any::<u64>(), prop::collection::vec(arb_report(), 0..6))
        .prop_map(|(key, reports)| ComponentRecord { key, reports })
}

fn arb_program() -> impl Strategy<Value = ProgramRecord> {
    (any::<u64>(), prop::collection::vec(arb_report(), 0..6))
        .prop_map(|(key, reports)| ProgramRecord { key, reports })
}

/// A scratch cache directory unique to this test binary run.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mc-cache-prop-{tag}-{}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn file_record_roundtrips_exactly(rec in arb_file()) {
        let compact: FnIndexRecord = mc_json::from_str(&mc_json::to_string(&rec)).unwrap();
        prop_assert_eq!(&compact, &rec);
        let pretty: FnIndexRecord = mc_json::from_str(&mc_json::to_string_pretty(&rec)).unwrap();
        prop_assert_eq!(&pretty, &rec);
    }

    #[test]
    fn component_record_roundtrips_exactly(rec in arb_component()) {
        let back: ComponentRecord = mc_json::from_str(&mc_json::to_string(&rec)).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn program_record_roundtrips_exactly(rec in arb_program()) {
        let back: ProgramRecord = mc_json::from_str(&mc_json::to_string(&rec)).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn truncated_record_rejected_never_panics(
        (rec, cut) in (arb_file(), any::<usize>())
    ) {
        // Every strict prefix of a record document is invalid JSON (the
        // closing brace is the last byte); parsing must error, not panic.
        // Generated text is ASCII, so any byte index is a char boundary.
        let text = mc_json::to_string(&rec);
        let cut = cut % text.len(); // strictly less than len
        prop_assert!(mc_json::from_str::<FnIndexRecord>(&text[..cut]).is_err());
    }

    #[test]
    fn record_kinds_do_not_cross_parse(rec in arb_file()) {
        // A file document must not load as a component or program record
        // even though all three carry a key.
        let text = mc_json::to_string(&rec);
        prop_assert!(mc_json::from_str::<ComponentRecord>(&text).is_err());
        prop_assert!(mc_json::from_str::<ProgramRecord>(&text).is_err());
    }
}

proptest! {
    // Disk cases touch the filesystem; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disk_store_then_load_is_identity(rec in arb_file()) {
        let dir = scratch_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_fn_index(&rec);
        match cache.load_fn_index(rec.key) {
            FnIndexLoad::Hit(back) => prop_assert_eq!(back, rec),
            other => prop_assert!(false, "expected a hit, got {:?}", other),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_or_mislabeled_file_is_a_miss(
        (rec, cut) in (arb_file(), any::<usize>())
    ) {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let text = mc_json::to_string(&rec);

        // Truncated on disk: a (counted) miss.
        let path = dir.join(format!("fnidx-{}.json", key_hex(rec.key)));
        std::fs::write(&path, &text[..cut % text.len()]).unwrap();
        prop_assert!(matches!(cache.load_fn_index(rec.key), FnIndexLoad::Corrupt));

        // Valid record parked under the wrong slot's filename: the embedded
        // key check makes it a miss instead of a wrong answer.
        let other = rec.key.wrapping_add(1);
        let wrong = dir.join(format!("fnidx-{}.json", key_hex(other)));
        std::fs::write(&wrong, &text).unwrap();
        prop_assert!(matches!(cache.load_fn_index(other), FnIndexLoad::Corrupt));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
