//! The metal interpreter: the reference semantics of a metal program.
//!
//! [`MetalMachine`] adapts a parsed [`MetalProgram`] to the
//! [`mc_cfg::PathMachine`] interface so [`mc_cfg::run_machine`] can drive it
//! down every path of a function, exactly as xg++ applied metal extensions.
//! The driver runs the compiled engine ([`mc_metal::CompiledMachine`]); the
//! tests hold it to this one.

use crate::matcher::{match_expr, match_stmt};
use crate::operands;
use mc_ast::{Expr, ExprKind, Initializer, Span, Stmt, StmtKind};
use mc_cfg::{PathEvent, PathMachine, Witness};
use mc_metal::{
    interpolate, Action, Bindings, Candidate, MetalProgram, MetalReport, Pattern, PatternKind,
    Rule, RuleTarget, StateId,
};
use std::collections::HashSet;

/// A metal program bound to a report sink, ready to run over CFGs.
///
/// The machine also counts how many times any pattern matched
/// ([`MetalMachine::applications`]) — the "Applied" columns of the paper's
/// tables use this to show how often each check exercised the code.
#[derive(Debug)]
pub struct MetalMachine<'p> {
    prog: &'p MetalProgram,
    /// Reports produced so far (deduplicated by message and location).
    pub reports: Vec<MetalReport>,
    seen: HashSet<(String, Span)>,
    /// Number of rule firings (pattern matches), including ones with no
    /// action.
    pub applications: usize,
    /// Number of candidate nodes scanned (comparable with
    /// [`mc_metal::CompiledMachine::candidates`]).
    pub candidates: u64,
    /// Number of full structural match attempts (pattern comparisons that
    /// survived the required-identifier pre-filter; comparable with
    /// [`mc_metal::CandidatePlan::attempts`]).
    pub attempts: u64,
}

impl<'p> MetalMachine<'p> {
    /// Creates a machine for `prog` with an empty report sink.
    pub fn new(prog: &'p MetalProgram) -> Self {
        MetalMachine {
            prog,
            reports: Vec::new(),
            seen: HashSet::new(),
            applications: 0,
            candidates: 0,
            attempts: 0,
        }
    }

    /// The program's start state, to pass to [`mc_cfg::run_machine`].
    pub fn start_state(&self) -> StateId {
        self.prog.start_state()
    }

    fn fire(
        &mut self,
        rule: &Rule,
        state: StateId,
        bindings: &Bindings,
        span: Span,
        witness: &Witness<'_>,
    ) {
        self.applications += 1;
        for action in &rule.actions {
            let (msg, is_error) = match action {
                Action::Err(m) => (m, true),
                Action::Warn(m) => (m, false),
            };
            let message = interpolate(msg, bindings);
            if self.seen.insert((message.clone(), span)) {
                // Materialize only when a report is actually born — the
                // common no-violation step never walks the chain.
                self.reports.push(MetalReport {
                    sm_name: self.prog.name.clone(),
                    message,
                    span,
                    is_error,
                    state: self.prog.states[state.0].name.clone(),
                    steps: witness.steps(),
                });
            }
        }
    }

    /// Finds the first rule of `state` (then of `all`) whose pattern matches
    /// the candidate. Returns the rule and the bindings.
    fn find_rule(
        &mut self,
        state: StateId,
        cand: &Candidate<'_>,
        cand_idents: &HashSet<&str>,
    ) -> Option<(&'p Rule, Bindings)> {
        let prog = self.prog;
        let mut try_states: Vec<StateId> = vec![state];
        if let Some(all) = prog.all_state {
            if all != state {
                try_states.push(all);
            }
        }
        for sid in try_states {
            for rule in &prog.states[sid.0].rules {
                for pattern in &rule.patterns {
                    if !pattern
                        .required_idents()
                        .iter()
                        .all(|id| cand_idents.contains(id.as_str()))
                    {
                        continue;
                    }
                    self.attempts += 1;
                    if let Some(b) = match_candidate(pattern, cand, prog) {
                        return Some((rule, b));
                    }
                }
            }
        }
        None
    }

    /// Scans the candidates of one event, firing rules and following
    /// transitions. Returns the successor states (empty = path pruned).
    fn scan(
        &mut self,
        state: StateId,
        cands: &[Candidate<'_>],
        witness: &Witness<'_>,
    ) -> Vec<StateId> {
        let mut cur = state;
        for cand in cands {
            self.candidates += 1;
            let idents = cand_idents(cand);
            if let Some((rule, bindings)) = self.find_rule(cur, cand, &idents) {
                let span = cand.span();
                // `find_rule` returned a rule borrowed from `self.prog`
                // (same lifetime as `'p`), so mutation here is fine.
                self.fire(rule, cur, &bindings, span, witness);
                match rule.target {
                    RuleTarget::Stay => {}
                    RuleTarget::Goto(s) => cur = s,
                    RuleTarget::Stop => return vec![],
                }
            }
        }
        vec![cur]
    }
}

fn cand_idents<'a>(cand: &'a Candidate<'_>) -> HashSet<&'a str> {
    let mut set = HashSet::new();
    fn collect<'a>(e: &'a Expr, set: &mut HashSet<&'a str>) {
        if let ExprKind::Ident(name) = &e.kind {
            set.insert(name.as_str());
        }
        for o in operands(e) {
            collect(o, set);
        }
    }
    let stmt: Option<&Stmt> = match cand {
        Candidate::Expr(e) => {
            collect(e, &mut set);
            None
        }
        Candidate::Stmt(s) => Some(s),
        Candidate::Owned(s) => Some(s),
    };
    if let Some(s) = stmt {
        if let StmtKind::Expr(e) = &s.kind {
            collect(e, &mut set);
        } else if let StmtKind::Decl(d) = &s.kind {
            if let Some(Initializer::Expr(e)) = &d.init {
                collect(e, &mut set);
            }
        } else if let StmtKind::Return(Some(e)) = &s.kind {
            collect(e, &mut set);
        }
    }
    set
}

fn match_candidate(
    pattern: &Pattern,
    cand: &Candidate<'_>,
    prog: &MetalProgram,
) -> Option<Bindings> {
    match (cand, &pattern.kind) {
        (Candidate::Expr(e), PatternKind::Expr(p)) => match_expr(p, e, &prog.wildcards),
        // A statement pattern that is an expression statement also matches
        // bare expressions — `{ WAIT_FOR_DB_FULL(addr); }` must find the
        // macro wherever it is used, e.g. inside a condition.
        (Candidate::Expr(e), PatternKind::Stmt(ps)) => {
            if let StmtKind::Expr(p) = &ps.kind {
                match_expr(p, e, &prog.wildcards)
            } else {
                None
            }
        }
        (Candidate::Stmt(s), PatternKind::Stmt(p)) => match_stmt(p, s, &prog.wildcards),
        (Candidate::Owned(s), PatternKind::Stmt(p)) => match_stmt(p, s, &prog.wildcards),
        _ => None,
    }
}

/// Collects candidates for a statement event: post-order subexpressions,
/// plus the whole statement for declaration forms.
pub(crate) fn stmt_candidates<'a>(s: &'a Stmt, out: &mut Vec<Candidate<'a>>) {
    match &s.kind {
        StmtKind::Expr(e) => postorder(e, out),
        StmtKind::Decl(d) => {
            if let Some(Initializer::Expr(e)) = &d.init {
                postorder(e, out);
            }
            out.push(Candidate::Stmt(s));
        }
        _ => out.push(Candidate::Stmt(s)),
    }
}

/// Post-order (operands before operators) subexpression enumeration:
/// matches evaluation order, so a checker sees `g()` before `f(g())`.
pub(crate) fn postorder<'a>(e: &'a Expr, out: &mut Vec<Candidate<'a>>) {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            postorder(callee, out);
            for a in args {
                postorder(a, out);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            postorder(lhs, out);
            postorder(rhs, out);
        }
        ExprKind::Assign { lhs, rhs, .. } => {
            // RHS evaluates first in C semantics that matter here.
            postorder(rhs, out);
            postorder(lhs, out);
        }
        ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => {
            postorder(operand, out)
        }
        ExprKind::Ternary { cond, then, els } => {
            postorder(cond, out);
            postorder(then, out);
            postorder(els, out);
        }
        ExprKind::Index { base, index } => {
            postorder(base, out);
            postorder(index, out);
        }
        ExprKind::Member { base, .. } => postorder(base, out),
        ExprKind::Cast { expr, .. } => postorder(expr, out),
        ExprKind::Comma(a, b) => {
            postorder(a, out);
            postorder(b, out);
        }
        _ => {}
    }
    out.push(Candidate::Expr(e));
}

impl PathMachine for MetalMachine<'_> {
    type State = StateId;

    fn step(
        &mut self,
        state: &StateId,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
    ) -> Vec<StateId> {
        let mut cands = Vec::new();
        match event {
            PathEvent::Stmt(s) => stmt_candidates(s, &mut cands),
            PathEvent::Branch { cond, .. } => postorder(cond, &mut cands),
            PathEvent::Case { value, .. } => {
                if let Some(v) = value {
                    postorder(v, &mut cands);
                }
            }
            PathEvent::Return { value, span } => {
                if let Some(v) = value {
                    postorder(v, &mut cands);
                }
                cands.push(Candidate::Owned(Stmt::new(
                    StmtKind::Return(value.cloned()),
                    *span,
                )));
            }
            PathEvent::Call { summary, .. } => {
                // The call pattern itself was already offered to `scan` as
                // part of the enclosing statement, so macro-style patterns
                // that match the call expression keep working.
                return mc_cfg::apply_transfer(&Codec(self.prog), summary, state);
            }
        }
        self.scan(*state, &cands, witness)
    }
}

/// The interpreter's state names: a program's table in
/// [`mc_cfg::FnSummary::transfers`] is keyed by its `sm` name and starts
/// from every declared state. A newtype, because both the trait and
/// [`MetalProgram`] live in other crates.
struct Codec<'p>(&'p MetalProgram);

impl mc_cfg::TransferCodec for Codec<'_> {
    type State = StateId;

    fn machine_name(&self) -> &str {
        &self.0.name
    }

    fn start_states(&self) -> Vec<StateId> {
        (0..self.0.states.len()).map(StateId).collect()
    }

    fn state_name(&self, state: &StateId) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.0.states[state.0].name)
    }

    fn parse_state(&self, name: &str) -> Option<StateId> {
        self.0.state_by_name(name)
    }
}

/// Computes the state transfer of one function for `prog`
/// ([`mc_cfg::transfer_table`] over the interpreter) — the reference the
/// compiled engine's [`mc_metal::compute_transfers_compiled`] is held to.
///
/// Reports produced while exploring are discarded: the callee's own errors
/// are found when the callee itself is checked, and a summary application
/// at a call site must not duplicate them in the caller's context.
pub fn compute_transfers(
    prog: &MetalProgram,
    cfg: &mc_cfg::Cfg,
    traversal: mc_cfg::Traversal,
    oracle: Option<&dyn mc_cfg::SummaryLookup>,
) -> std::collections::BTreeMap<String, Vec<String>> {
    mc_cfg::transfer_table(&Codec(prog), cfg, traversal, oracle, || {
        MetalMachine::new(prog)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_naive;
    use mc_ast::parse_translation_unit;
    use mc_cfg::{run_machine, Cfg, Traversal};

    const WAIT_SM: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
            ;
        }
    "#;

    fn run(sm_src: &str, c_src: &str) -> Vec<MetalReport> {
        let prog = MetalProgram::parse(sm_src).unwrap();
        let tu = parse_translation_unit(c_src, "t.c").unwrap();
        let mut all = Vec::new();
        for f in tu.functions() {
            let cfg = Cfg::build(f);
            let mut m = MetalMachine::new(&prog);
            let init = m.start_state();
            run_machine(&cfg, &mut m, init);
            all.extend(m.reports);
        }
        all
    }

    #[test]
    fn detects_read_before_wait() {
        let reports = run(WAIT_SM, "void h(void) { MISCBUS_READ_DB(a, b); }");
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].message, "Buffer not synchronized");
    }

    #[test]
    fn wait_then_read_is_clean() {
        let reports = run(
            WAIT_SM,
            "void h(void) { WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); }",
        );
        assert!(reports.is_empty());
    }

    #[test]
    fn one_unsynchronized_path_detected() {
        // wait only happens on the `then` arm; the else path reads raw.
        let reports = run(
            WAIT_SM,
            "void h(void) { if (x) { WAIT_FOR_DB_FULL(a); } MISCBUS_READ_DB(a, b); }",
        );
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn wait_inside_condition_counts() {
        let reports = run(
            WAIT_SM,
            "void h(void) { if (WAIT_FOR_DB_FULL(a)) { } MISCBUS_READ_DB(a, b); }",
        );
        assert!(reports.is_empty());
    }

    #[test]
    fn read_nested_in_assignment_detected() {
        let reports = run(WAIT_SM, "void h(void) { x = MISCBUS_READ_DB(a, b) + 1; }");
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn continues_checking_after_error() {
        // Rule has no transition, so a second read on the same path is a
        // second (distinct) error.
        let reports = run(
            WAIT_SM,
            "void h(void) { MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(c, d); }",
        );
        assert_eq!(reports.len(), 2);
    }

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

    #[test]
    fn msglen_zero_then_data_send_is_error() {
        let reports = run(
            MSGLEN_SM,
            r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                PI_SEND(F_DATA, 1, 1, 0, 1, 0);
            }"#,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].message, "data send, zero len");
    }

    #[test]
    fn msglen_consistent_sends_clean() {
        let reports = run(
            MSGLEN_SM,
            r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
                NI_SEND(t, F_DATA, 1, 0, 1, 0);
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                NI_SEND(t, F_NODATA, 1, 0, 1, 0);
            }"#,
        );
        assert!(reports.is_empty(), "{reports:?}");
    }

    #[test]
    fn msglen_nonzero_then_nodata_send_is_error() {
        let reports = run(
            MSGLEN_SM,
            r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
                if (queue_full) {
                    IO_SEND(F_NODATA, 1, 1, 0, 1, 0);
                }
            }"#,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].message, "nodata send, nonzero len");
    }

    #[test]
    fn msglen_sends_before_any_assignment_ignored() {
        // The machine starts in `all`, which has no send rules.
        let reports = run(
            MSGLEN_SM,
            "void h(void) { PI_SEND(F_DATA, 1, 1, 0, 1, 0); }",
        );
        assert!(reports.is_empty());
    }

    #[test]
    fn msglen_length_reassignment_switches_state() {
        let reports = run(
            MSGLEN_SM,
            r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
                PI_SEND(F_DATA, 1, 1, 0, 1, 0);
            }"#,
        );
        assert!(reports.is_empty());
    }

    #[test]
    fn path_sensitive_branch_states() {
        // len set to NODATA on one branch only; the data send is an error
        // only on that path.
        let reports = run(
            MSGLEN_SM,
            r#"void h(void) {
                if (flag) {
                    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                } else {
                    HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
                }
                PI_SEND(F_DATA, 1, 1, 0, 1, 0);
            }"#,
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].message, "data send, zero len");
    }

    #[test]
    fn applications_counted() {
        let prog = MetalProgram::parse(WAIT_SM).unwrap();
        let tu = parse_translation_unit(
            "void h(void) { MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(c, d); }",
            "t.c",
        )
        .unwrap();
        let cfg = Cfg::build(tu.function("h").unwrap());
        let mut m = MetalMachine::new(&prog);
        let init = m.start_state();
        run_machine(&cfg, &mut m, init);
        assert_eq!(m.applications, 2);
    }

    #[test]
    fn interpolation_of_bindings() {
        let reports = run(
            r#"sm x {
                decl { scalar } addr;
                start: { use_buf(addr); } ==> { err("unsynchronized use of %addr"); } ;
            }"#,
            "void h(void) { use_buf(hdr.a); }",
        );
        assert_eq!(reports[0].message, "unsynchronized use of hdr.a");
    }

    #[test]
    fn naive_paths_and_state_set_agree() {
        let prog = MetalProgram::parse(MSGLEN_SM).unwrap();
        let src = r#"void h(void) {
            if (a) { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA; }
            else { HANDLER_GLOBALS(header.nh.len) = LEN_WORD; }
            if (b) { PI_SEND(F_DATA, 1, 1, 0, 1, 0); }
            else { PI_SEND(F_NODATA, 1, 1, 0, 1, 0); }
        }"#;
        let tu = parse_translation_unit(src, "t.c").unwrap();
        let cfg = Cfg::build(tu.function("h").unwrap());

        let mut m1 = MetalMachine::new(&prog);
        let init = m1.start_state();
        run_machine(&cfg, &mut m1, init);

        let mut m2 = MetalMachine::new(&prog);
        run_naive(
            &cfg,
            &mut m2,
            init,
            Traversal::without_pruning(),
            None,
            10_000,
        );

        let mut r1: Vec<_> = m1.reports.iter().map(|r| (&r.message, r.span)).collect();
        let mut r2: Vec<_> = m2.reports.iter().map(|r| (&r.message, r.span)).collect();
        r1.sort();
        r2.sort();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), 2); // both inconsistent combinations found
    }
}
