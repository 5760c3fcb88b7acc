//! Cross-crate integration tests through the `flash-mc` facade: the full
//! pipeline from protocol text to classified reports, and the interplay
//! between the static checkers and the dynamic simulator.

use flash_mc::checkers::{all_checkers, flash::FlashSpec};
use flash_mc::corpus::eval::evaluate;
use flash_mc::corpus::{generate, generate_all, plan::plan_for, Protocol, DEFAULT_SEED};
use flash_mc::driver::Verdict;
use flash_mc::prelude::*;
use flash_mc::sim::{Machine, Program, SimConfig, SimEvent};

mod common;

#[test]
fn facade_reexports_compose() {
    let tu = parse_translation_unit("void f(void) { g(); }", "t.c").unwrap();
    let cfg = Cfg::build(tu.function("f").unwrap());
    assert_eq!(cfg.path_stats().paths, 1);
    let sm = MetalProgram::parse("sm s { start: { g(); } ==> stop ; }").unwrap();
    assert_eq!(sm.name, "s");
}

#[test]
fn full_pipeline_on_one_protocol() {
    let proto = generate(plan_for("bitvector").unwrap(), DEFAULT_SEED);
    let mut driver = Driver::new();
    all_checkers(&mut driver, &proto.spec).unwrap();
    let reports = driver.check_sources(&proto.sources()).unwrap();
    let outcome = evaluate(&proto, &reports);
    assert!(
        outcome.is_exact(),
        "missed: {:?}\nunexpected: {:?}",
        outcome.missed,
        outcome.unexpected
    );
}

#[test]
fn figures_2_and_3_run_from_their_shipped_sources() {
    // The shipped metal files are the paper's figures; they must parse and
    // find their respective bug classes.
    let mut driver = Driver::new();
    driver
        .add_metal_source(flash_mc::checkers::WAIT_FOR_DB_METAL)
        .unwrap();
    driver
        .add_metal_source(flash_mc::checkers::MSGLEN_METAL)
        .unwrap();
    let reports = driver
        .check_source(
            r#"void h(void) {
                MISCBUS_READ_DB(a, b);
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                NI_SEND(t, F_DATA, k, w, d, n);
            }"#,
            "both.c",
        )
        .unwrap();
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().any(|r| r.checker == "wait_for_db"));
    assert!(reports.iter().any(|r| r.checker == "msglen_check"));
}

#[test]
fn static_finding_reproduces_dynamically() {
    // One source, two tools: the checker flags the leak statically, the
    // simulator wedges on it dynamically.
    let src = r#"
        void NILeaky(void) {
            HANDLER_DEFS();
            HANDLER_PROLOGUE();
            if (gErr) {
                return;
            }
            DB_FREE();
        }
    "#;
    // Static.
    let mut driver = Driver::new();
    all_checkers(&mut driver, &FlashSpec::new()).unwrap();
    let reports = driver.check_source(src, "leaky.c").unwrap();
    assert!(reports
        .iter()
        .any(|r| r.checker == "buffer_mgmt" && r.message.contains("leak")));

    // Dynamic.
    let mut machine = Machine::new(
        Program::parse(src).unwrap(),
        SimConfig {
            buffers_per_node: 4,
            ..Default::default()
        },
    );
    machine.set_global(0, "gErr", 1);
    for _ in 0..8 {
        machine.inject(0, "NILeaky");
    }
    machine.run();
    assert!(machine.deadlocked());
    assert!(machine
        .events()
        .iter()
        .any(|e| matches!(e, SimEvent::BufferExhausted { .. })));
}

#[test]
fn custom_spec_tables_change_checker_behavior() {
    // The same code is a false positive without the table entry and clean
    // with it — the §9.1 annotation mechanism.
    let src = r#"
        void PIHandler(void) {
            HANDLER_DEFS();
            HANDLER_PROLOGUE();
            DIR_LOAD();
            DIR_SET_STATE(DIR_SHARED);
            commit_dir_entry();
            DB_FREE();
        }
    "#;
    let run = |spec: FlashSpec| {
        let mut driver = Driver::new();
        all_checkers(&mut driver, &spec).unwrap();
        driver
            .check_source(src, "t.c")
            .unwrap()
            .into_iter()
            .filter(|r| r.checker == "directory")
            .count()
    };
    assert_eq!(run(FlashSpec::new()), 1, "un-annotated helper is flagged");
    let mut spec = FlashSpec::new();
    spec.writeback_routines.insert("commit_dir_entry".into());
    assert_eq!(run(spec), 0, "annotated helper is trusted");
}

#[test]
fn naive_paths_and_state_set_agree_on_a_protocol() {
    // The traversal's correctness on real protocol code: the built-in
    // suite as the product runs it (compiled metal, state-set traversal)
    // and with its metal programs interpreted down each path separately
    // give the same reports, witnesses included.
    let proto = generate(plan_for("rac").unwrap(), DEFAULT_SEED.wrapping_add(4));
    let mut product = Driver::new();
    all_checkers(&mut product, &proto.spec).unwrap();
    let mut naive = Driver::new();
    common::interp_suite(&mut naive, &proto.spec, Some(200_000));
    let run = |driver: &Driver| {
        let mut reports = driver.check_sources(&proto.sources()).unwrap();
        reports.sort();
        reports
    };
    let a = run(&product);
    assert_eq!(a, run(&naive));
    assert_eq!(a.iter().filter(|r| r.checker == "msglen_check").count(), 8);
}

/// Every report of a product-default `mcheck --builtin --spec` run over
/// one protocol, refuted ones included, with file paths relative to the
/// scratch directory the protocol was written to.
fn check_protocol(proto: &Protocol, tag: &str) -> Vec<Report> {
    let dir = std::env::temp_dir().join(format!("mc-{tag}-{}-{}", proto.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, mc_json::to_string_pretty(&proto.spec)).unwrap();
    let mut args = vec![
        "--builtin".to_string(),
        "--spec".to_string(),
        spec.display().to_string(),
    ];
    for f in &proto.files {
        let path = dir.join(&f.name);
        std::fs::write(&path, &f.source).unwrap();
        args.push(path.display().to_string());
    }
    let opts = mc_cli::parse_args(args).expect("args parse");
    let mut reports = mc_cli::run(&opts).expect("check runs");
    let _ = std::fs::remove_dir_all(&dir);
    let prefix = format!("{}/", dir.display());
    for r in &mut reports {
        r.file = r.file.replace(&prefix, "");
        for step in &mut r.steps {
            step.file = step.file.replace(&prefix, "");
        }
    }
    reports
}

/// Every `confirmed` report of a product-default `mcheck --builtin --spec`
/// run over one seed-corpus protocol, as sorted
/// `(checker, function, model)` rows, plus the protocol's `sat` count.
fn confirmed_verdicts(proto: &Protocol) -> (Vec<String>, usize) {
    let reports = check_protocol(proto, "confirmed-pin");
    let mut confirmed: Vec<String> = reports
        .iter()
        .filter(|r| r.verdict == Verdict::Confirmed)
        .map(|r| format!("{} {} {:?}", r.checker, r.function, r.model))
        .collect();
    confirmed.sort();
    let sat = reports.iter().filter(|r| r.verdict == Verdict::Sat).count();
    (confirmed, sat)
}

/// Per seed protocol: its `sat` count and its sorted `confirmed` rows.
const CONFIRMED_PIN: [(&str, usize, &[&str]); 6] = [
    (
        "bitvector",
        2,
        &[
            "buffer_mgmt IOBvWriteBack11 []",
            "buffer_mgmt PIBvUncachedWrite10 []",
            "buffer_mgmt PIBvUpgrade8 []",
            "directory PIBvLocalPut15 []",
            "msglen_check NIBvInval5 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check NIBvSharing7 [(\"gEagerMode\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIBvAck6 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "refcount_bump NIBvUncachedWrite22 []",
            "wait_for_db NIBvLocalGet1 []",
            "wait_for_db NIBvLocalPut3 []",
            "wait_for_db NIBvRemoteGet2 [(\"gCornerCase\", 1)]",
            "wait_for_db NIBvRemotePut4 [(\"gCornerCase\", 1)]",
        ],
    ),
    (
        "dyn_ptr",
        8,
        &[
            "buffer_mgmt IODpInval17 []",
            "buffer_mgmt NIDpReplace12 [(\"gErrCase\", 1)]",
            "buffer_mgmt PIDpUncachedRead9 []",
            "buffer_mgmt PIDpWriteBack11 []",
            "msglen_check NIDpInval5 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check NIDpLocalGet1 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check NIDpLocalPut3 [(\"gEagerMode\", 1), (\"gQueueFull\", 1)]",
            "msglen_check NIDpSharing7 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIDpAck6 [(\"gEagerMode\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIDpRemoteGet2 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIDpRemotePut4 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
        ],
    ),
    (
        "sci",
        2,
        &[
            "buffer_mgmt NISciInval5 [(\"gErrCase\", 1)]",
            "buffer_mgmt NISciLocalPut3 [(\"gErrCase\", 1)]",
            "buffer_mgmt PISciLocalGet1 []",
            "buffer_mgmt PISciRemotePut4 []",
        ],
    ),
    ("coma", 5, &[]),
    (
        "rac",
        5,
        &[
            "buffer_mgmt PIRacUncachedRead9 []",
            "msglen_check NIRacInval5 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check NIRacLocalGet1 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check NIRacLocalPut3 [(\"gEagerMode\", 1), (\"gQueueFull\", 1)]",
            "msglen_check NIRacSharing7 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIRacAck6 [(\"gEagerMode\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIRacRemoteGet2 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIRacRemotePut4 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
            "msglen_check PIRacUpgrade8 [(\"gDirtyRemote\", 1), (\"gQueueFull\", 1)]",
        ],
    ),
    (
        "common",
        0,
        &[
            "buffer_mgmt IOCmnUncachedRead9 []",
            "buffer_mgmt PICmnRemoteGet2 []",
            "wait_for_db NICmnLocalGet1 []",
        ],
    ),
];

#[test]
fn confirmed_verdicts_are_pinned_on_the_seed_corpus() {
    // No golden file holds a `confirmed` report, so this pins what
    // concrete replay promotes on each seed protocol: a change to the
    // simulator or to promotion that gains or loses a confirmation fails
    // here, not silently in the output.
    let protos = generate_all(DEFAULT_SEED);
    assert_eq!(protos.len(), CONFIRMED_PIN.len());
    let mut total = 0;
    for (proto, (name, sat, confirmed)) in protos.iter().zip(CONFIRMED_PIN) {
        assert_eq!(proto.name, name);
        let (got_confirmed, got_sat) = confirmed_verdicts(proto);
        assert_eq!(got_confirmed, confirmed, "{name}: confirmed reports");
        assert_eq!(got_sat, sat, "{name}: sat reports");
        total += confirmed.len();
    }
    assert_eq!(total, 39);
}

#[test]
fn a_handler_defined_in_two_files_is_not_confirmed_against_the_other_body() {
    // a.c's handler frees its buffer through a helper: the intraprocedural
    // checker flags a leak that never happens. b.c's handler of the same
    // name really leaks, and the simulator resolves the name to it (the
    // last definition), so replaying a.c's report would reproduce b.c's
    // leak. Neither report may be confirmed.
    let dir = std::env::temp_dir().join(format!("mc-dup-handler-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("a.c");
    let leaking = dir.join("b.c");
    std::fs::write(
        &clean,
        "static void release_buf(void) { DB_FREE(); }\n\
         void PIHandler(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); release_buf(); }\n",
    )
    .unwrap();
    std::fs::write(
        &leaking,
        "void PIHandler(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); }\n",
    )
    .unwrap();
    let args = [
        "--builtin".to_string(),
        clean.display().to_string(),
        leaking.display().to_string(),
    ];
    let reports = mc_cli::run(&mc_cli::parse_args(args).unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let verdict_in = |file: &std::path::Path| {
        let r = reports
            .iter()
            .find(|r| r.checker == "buffer_mgmt" && r.file == file.display().to_string())
            .expect("a buffer_mgmt report per file");
        r.verdict
    };
    assert_eq!(verdict_in(&clean), Verdict::Sat);
    assert_eq!(verdict_in(&leaking), Verdict::Sat);
}

#[test]
fn a_handler_is_not_confirmed_through_another_files_helper() {
    // PIHandler frees its buffer through a.c's `release_buf`, so the
    // intraprocedural leak report on it is false. b.c defines a second
    // `release_buf` that frees nothing. Replay resolves a helper by name,
    // so in either file order it could run b.c's body and reproduce a
    // leak that a.c's handler does not have: the report stays `sat`.
    let dir = std::env::temp_dir().join(format!("mc-dup-helper-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.c");
    let b = dir.join("b.c");
    std::fs::write(
        &a,
        "static void release_buf(void) { DB_FREE(); }\n\
         void PIHandler(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); release_buf(); }\n",
    )
    .unwrap();
    std::fs::write(&b, "static void release_buf(void) { }\n").unwrap();
    for order in [[&a, &b], [&b, &a]] {
        let args = ["--builtin".to_string()]
            .into_iter()
            .chain(order.iter().map(|p| p.display().to_string()));
        let reports = mc_cli::run(&mc_cli::parse_args(args).unwrap()).unwrap();
        let leak = reports
            .iter()
            .find(|r| r.checker == "buffer_mgmt" && r.function == "PIHandler")
            .expect("the intraprocedural leak report");
        assert_eq!(leak.verdict, Verdict::Sat, "file order {order:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a digest of the sorted `protocol fingerprint` rows of every report
/// refutation keeps, product defaults, over `generate_fleet(61861, 3)`
/// (222 rows).
const FLEET3_KEPT_DIGEST: u64 = 0xc1fc_c2f1_4c96_528f;

#[test]
fn kept_report_fingerprints_are_pinned_on_the_scale_3_fleet() {
    // Refutation may only move reports between `sat`, `confirmed` and
    // `unchecked` here: a change that refutes or resurrects a report on
    // the fleet changes this digest.
    let mut rows: Vec<String> = Vec::new();
    for proto in flash_mc::corpus::generate_fleet(DEFAULT_SEED, 3) {
        for r in check_protocol(&proto, "fleet-pin") {
            if r.verdict != Verdict::Refuted {
                rows.push(format!("{} {}", proto.name, r.fingerprint()));
            }
        }
    }
    rows.sort();
    assert!(rows.len() > 200, "{} kept reports", rows.len());
    let digest = flash_mc::ast::fnv1a(rows.join("\n").as_bytes());
    assert_eq!(
        digest,
        FLEET3_KEPT_DIGEST,
        "digest {digest:#018x} over {} rows",
        rows.len()
    );
}
