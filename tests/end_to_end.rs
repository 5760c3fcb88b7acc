//! Cross-crate integration tests through the `flash-mc` facade: the full
//! pipeline from protocol text to classified reports, and the interplay
//! between the static checkers and the dynamic simulator.

use flash_mc::checkers::{all_checkers, flash::FlashSpec};
use flash_mc::corpus::eval::evaluate;
use flash_mc::corpus::{generate, generate_all, plan::plan_for, Protocol, DEFAULT_SEED};
use flash_mc::driver::Verdict;
use flash_mc::prelude::*;
use flash_mc::sim::{Machine, Program, SimConfig, SimEvent};

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
fn exhaustive_and_state_set_modes_agree_on_a_protocol() {
    // The ablation's correctness side: both traversal modes produce the
    // same msglen reports on real protocol code.
    let proto = generate(plan_for("rac").unwrap(), DEFAULT_SEED.wrapping_add(4));
    let run = |mode| {
        let mut driver = Driver::new();
        driver.mode = mode;
        driver
            .add_metal_source(flash_mc::checkers::MSGLEN_METAL)
            .unwrap();
        let mut reports = driver.check_sources(&proto.sources()).unwrap();
        reports.sort();
        reports
    };
    let a = run(flash_mc::cfg::Mode::StateSet);
    let b = run(flash_mc::cfg::Mode::Exhaustive { max_paths: 200_000 });
    assert_eq!(a, b);
    assert_eq!(a.iter().filter(|r| r.checker == "msglen_check").count(), 8);
}

/// Every `confirmed` report of a product-default `mcheck --builtin --spec`
/// run over one seed-corpus protocol, as sorted
/// `(checker, function, model)` rows, plus the protocol's `sat` count.
fn confirmed_verdicts(proto: &Protocol) -> (Vec<String>, usize) {
    let dir = std::env::temp_dir().join(format!(
        "mc-confirmed-pin-{}-{}",
        proto.name,
        std::process::id()
    ));
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
    let reports = mc_cli::run(&opts).expect("check runs");
    let _ = std::fs::remove_dir_all(&dir);
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
        7,
        &[
            "buffer_mgmt IOBvWriteBack11 []",
            "buffer_mgmt PIBvUncachedWrite10 []",
            "buffer_mgmt PIBvUpgrade8 []",
            "directory PIBvLocalPut15 []",
            "refcount_bump NIBvUncachedWrite22 []",
            "wait_for_db NIBvLocalGet1 []",
            "wait_for_db NIBvLocalPut3 []",
        ],
    ),
    (
        "dyn_ptr",
        16,
        &[
            "buffer_mgmt IODpInval17 []",
            "buffer_mgmt PIDpUncachedRead9 []",
            "buffer_mgmt PIDpWriteBack11 []",
        ],
    ),
    (
        "sci",
        4,
        &[
            "buffer_mgmt PISciLocalGet1 []",
            "buffer_mgmt PISciRemotePut4 []",
        ],
    ),
    ("coma", 5, &[]),
    ("rac", 13, &["buffer_mgmt PIRacUncachedRead9 []"]),
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
    assert_eq!(total, 16);
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
