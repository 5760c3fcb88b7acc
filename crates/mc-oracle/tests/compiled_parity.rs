//! The compiled metal engine against the interpreter on hand-written
//! programs: identical reports, application and candidate counts, and
//! transfer tables, with fewer match attempts.

use mc_ast::parse_translation_unit;
use mc_cfg::{run_machine, Cfg, Traversal};
use mc_metal::{
    compute_transfers_compiled, CandidatePlan, CompiledMachine, CompiledProgram, MetalProgram,
    MetalReport,
};
use mc_oracle::{compute_transfers, MetalMachine};

const WAIT_SM: &str = r#"
    sm wait_for_db {
        decl { scalar } addr, buf;
        start:
            { WAIT_FOR_DB_FULL(addr); } ==> stop
          | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
        ;
    }
"#;

const MSGLEN_SM: &str = r#"
    sm msglen_check {
        decl { unsigned } keep, swap, wait, dec, null, type;
        pat zero_assign = { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA } ;
        pat nonzero_assign =
            { HANDLER_GLOBALS(header.nh.len) = LEN_WORD }
          | { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE } ;
        pat send_data =
            { PI_SEND(F_DATA, keep, swap, wait, dec, null) }
          | { IO_SEND(F_DATA, keep, swap, wait, dec, null) }
          | { NI_SEND(type, F_DATA, keep, wait, dec, null) } ;
        pat send_nodata =
            { PI_SEND(F_NODATA, keep, swap, wait, dec, null) }
          | { IO_SEND(F_NODATA, keep, swap, wait, dec, null) }
          | { NI_SEND(type, F_NODATA, keep, wait, dec, null) } ;
        all:
            zero_assign ==> zero_len
          | nonzero_assign ==> nonzero_len
        ;
        zero_len:
            send_data ==> { err("data send, zero len"); } ;
        nonzero_len:
            send_nodata ==> { err("nodata send, nonzero len"); } ;
    }
"#;

/// Runs a source through the interpreter and the planned compiled
/// machine and asserts identical reports, application and candidate
/// counts; returns the compiled-engine reports.
fn both(sm_src: &str, c_src: &str) -> Vec<MetalReport> {
    let prog = MetalProgram::parse(sm_src).unwrap();
    let cp = CompiledProgram::compile(&prog).unwrap();
    let tu = parse_translation_unit(c_src, "t.c").unwrap();
    let mut out = Vec::new();
    for f in tu.functions() {
        let cfg = Cfg::build(f);
        let mut interp = MetalMachine::new(&prog);
        let init = interp.start_state();
        run_machine(&cfg, &mut interp, init);
        let plan = CandidatePlan::build(&cp, &cfg);
        let mut comp = CompiledMachine::with_plan(&cp, &plan);
        run_machine(&cfg, &mut comp, init);
        assert_eq!(interp.reports, comp.reports, "engine reports diverge");
        assert_eq!(
            interp.applications, comp.applications,
            "application counts diverge"
        );
        assert_eq!(
            interp.candidates, comp.candidates,
            "candidate counts diverge"
        );
        out.extend(comp.reports);
    }
    out
}

#[test]
fn wait_for_db_parity() {
    let cases = [
        "void h(void) { MISCBUS_READ_DB(a, b); }",
        "void h(void) { WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); }",
        "void h(void) { if (x) { WAIT_FOR_DB_FULL(a); } MISCBUS_READ_DB(a, b); }",
        "void h(void) { if (WAIT_FOR_DB_FULL(a)) { } MISCBUS_READ_DB(a, b); }",
        "void h(void) { x = MISCBUS_READ_DB(a, b) + 1; }",
        "void h(void) { MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(c, d); }",
    ];
    for src in cases {
        both(WAIT_SM, src);
    }
    let r = both(WAIT_SM, "void h(void) { MISCBUS_READ_DB(a, b); }");
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].message, "Buffer not synchronized");
}

#[test]
fn msglen_parity() {
    let cases = [
        r#"void h(void) {
            HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
            PI_SEND(F_DATA, 1, 1, 0, 1, 0);
        }"#,
        r#"void h(void) {
            HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
            NI_SEND(t, F_DATA, 1, 0, 1, 0);
            HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
            NI_SEND(t, F_NODATA, 1, 0, 1, 0);
        }"#,
        r#"void h(void) {
            if (flag) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
            } else {
                HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
            }
            PI_SEND(F_DATA, 1, 1, 0, 1, 0);
        }"#,
        "void h(void) { PI_SEND(F_DATA, 1, 1, 0, 1, 0); }",
    ];
    for src in cases {
        both(MSGLEN_SM, src);
    }
}

#[test]
fn interpolation_parity() {
    let r = both(
        r#"sm x {
            decl { scalar } addr;
            start: { use_buf(addr); } ==> { err("unsynchronized use of %addr"); } ;
        }"#,
        "void h(void) { use_buf(hdr.a); }",
    );
    assert_eq!(r[0].message, "unsynchronized use of hdr.a");
}

#[test]
fn return_and_decl_patterns_parity() {
    both(
        r#"sm r {
            decl { scalar } v;
            start: { return v; } ==> { err("returned %v"); } ;
        }"#,
        "int h(void) { return x + 1; }",
    );
    both(
        r#"sm d {
            decl { scalar } v;
            start: { int len = v; } ==> { err("len decl"); } ;
        }"#,
        "void h(void) { int len = 4; f(len); }",
    );
}

#[test]
fn transfers_parity() {
    let prog = MetalProgram::parse(MSGLEN_SM).unwrap();
    let cp = CompiledProgram::compile(&prog).unwrap();
    let src = r#"void h(void) {
        HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
    }"#;
    let tu = parse_translation_unit(src, "t.c").unwrap();
    let cfg = Cfg::build(tu.function("h").unwrap());
    let t1 = compute_transfers(&prog, &cfg, Traversal::default(), None);
    let plan = CandidatePlan::build(&cp, &cfg);
    let t2 = compute_transfers_compiled(&cp, &plan, &cfg, Traversal::default(), None);
    assert_eq!(t1, t2);
    assert!(t1.contains_key("all"));
}

#[test]
fn dispatch_skips_unrelated_candidates() {
    // A program keyed on two macros should attempt far fewer matches
    // than the interpreter on ident-heavy code that mentions neither.
    let prog = MetalProgram::parse(WAIT_SM).unwrap();
    let cp = CompiledProgram::compile(&prog).unwrap();
    let src = "void h(void) { a = b + c * d; e = f(g, h2) + i; MISCBUS_READ_DB(a, b); }";
    let tu = parse_translation_unit(src, "t.c").unwrap();
    let cfg = Cfg::build(tu.function("h").unwrap());
    let mut interp = MetalMachine::new(&prog);
    let init = interp.start_state();
    run_machine(&cfg, &mut interp, init);
    let plan = CandidatePlan::build(&cp, &cfg);
    let mut comp = CompiledMachine::with_plan(&cp, &plan);
    run_machine(&cfg, &mut comp, init);
    assert_eq!(interp.reports, comp.reports);
    assert_eq!(interp.candidates, comp.candidates);
    assert!(
        plan.attempts <= interp.attempts,
        "compiled dispatch attempted more matches ({}) than interp ({})",
        plan.attempts,
        interp.attempts
    );
}
