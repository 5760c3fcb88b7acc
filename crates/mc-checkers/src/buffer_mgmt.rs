//! §6 — Buffer management (Table 4).
//!
//! Every FLASH node manages its data buffers with manual reference
//! counting; leaks deadlock the machine days later, double frees corrupt
//! other handlers' messages. The checker enforces the paper's four rules:
//!
//! 1. hardware handlers begin with a buffer they must free;
//! 2. software handlers begin without one and must allocate before
//!    sending;
//! 3. after a free, no send until another allocation;
//! 4. once allocated, a buffer must be freed before allocating again.
//!
//! The checker consults [`FlashSpec`] tables of routines that free or use
//! buffers on the caller's behalf, honours the `has_buffer()` /
//! `no_free_needed()` suppression annotations, and (optionally) is
//! value-sensitive to conditional-free routines — the 12-line addition
//! that removed over twenty useless annotations in the paper.

use crate::flash::{self, FlashSpec, RoutineKind};
use crate::{dedup_found, stamp_witness};
use mc_ast::{Expr, ExprKind, Span, Stmt, StmtKind};
use mc_cfg::{FnSummary, PathEvent, PathMachine, PathStep, Witness};
use mc_driver::{CheckSink, Checker, FunctionContext, Report};
use std::collections::{BTreeMap, HashSet};

/// Buffer-possession state along a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BufState {
    /// A live buffer is held.
    Has,
    /// No live buffer.
    None,
    /// `no_free_needed()` was asserted: end-of-path checks are waived.
    Exempt,
}

/// The name of the summary machine this checker publishes transfers under.
const MACHINE: &str = "buffer_mgmt";

impl BufState {
    /// Stable name used in summary transfer tables.
    fn summary_name(self) -> &'static str {
        match self {
            BufState::Has => "Has",
            BufState::None => "None",
            BufState::Exempt => "Exempt",
        }
    }

    fn from_summary_name(name: &str) -> Option<BufState> {
        match name {
            "Has" => Some(BufState::Has),
            "None" => Some(BufState::None),
            "Exempt" => Some(BufState::Exempt),
            _ => None,
        }
    }
}

/// What a function must look like when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndRule {
    /// Must have freed the buffer (handlers, free-routines).
    MustBeFree,
    /// Must still hold the buffer (use-routines).
    MustHold,
}

/// The buffer-management checker.
#[derive(Debug, Clone)]
pub struct BufferMgmt {
    spec: FlashSpec,
    /// When `true` (default), a conditional-free routine used as a branch
    /// condition frees on the true edge only. When `false`, it is treated
    /// as freeing on both edges — the paper's naive behavior that caused
    /// "a small cascade of errors".
    pub value_sensitive: bool,
}

impl BufferMgmt {
    /// Creates the checker with the given protocol tables.
    pub fn new(spec: FlashSpec) -> BufferMgmt {
        BufferMgmt {
            spec,
            value_sensitive: true,
        }
    }

    /// Should this function be checked, and from which initial state?
    fn plan(&self, name: &str) -> Option<(BufState, EndRule)> {
        if self.spec.free_routines.contains(name) {
            return Some((BufState::Has, EndRule::MustBeFree));
        }
        if self.spec.use_routines.contains(name) {
            return Some((BufState::Has, EndRule::MustHold));
        }
        if self.spec.cond_free_routines.contains(name) {
            // Value-dependent; cannot be checked with a single end rule.
            return None;
        }
        match self.spec.classify(name) {
            RoutineKind::HardwareHandler => Some((BufState::Has, EndRule::MustBeFree)),
            RoutineKind::SoftwareHandler => Some((BufState::None, EndRule::MustBeFree)),
            RoutineKind::Procedure => None,
        }
    }
}

impl Checker for BufferMgmt {
    fn name(&self) -> &str {
        "buffer_mgmt"
    }

    /// Purely local: no program pass, so the incremental engine never
    /// re-runs this checker for call-graph neighbours of an edited unit.
    fn has_program_pass(&self) -> bool {
        false
    }

    fn check_function(&self, ctx: &FunctionContext<'_>, sink: &mut CheckSink) {
        if flash::is_unimplemented(ctx.function) {
            return;
        }
        let Some((init, end_rule)) = self.plan(&ctx.function.name) else {
            return;
        };
        let mut machine = BufMachine {
            checker: self,
            end_rule,
            found: Vec::new(),
            ends: None,
        };
        let oracle = ctx.summaries.map(|s| s as &dyn mc_cfg::SummaryLookup);
        mc_cfg::run_traversal_with(ctx.cfg, &mut machine, init, ctx.traversal, oracle);
        dedup_found(&mut machine.found);
        for (span, message, steps) in machine.found {
            let mut report =
                Report::error("buffer_mgmt", ctx.file, &ctx.function.name, span, message);
            report.steps = steps;
            sink.push(report);
        }
    }

    /// Publishes a buffer-state transfer table for helpers the spec does
    /// not already model, so `--interproc` call sites can see through
    /// wrappers (a helper that frees on the caller's behalf maps
    /// `Has -> None` instead of being opaque).
    fn summarize_function(
        &self,
        ctx: &FunctionContext<'_>,
        summary: &mut FnSummary,
        transfers: bool,
    ) {
        if !transfers || flash::is_unimplemented(ctx.function) {
            return;
        }
        // Functions the spec tables model are applied as ops at the call
        // site; publishing a transfer too would make them act twice.
        let name = &ctx.function.name;
        if self.plan(name).is_some() || self.spec.cond_free_routines.contains(name) {
            return;
        }
        let mut table = BTreeMap::new();
        for start in [BufState::Has, BufState::None, BufState::Exempt] {
            let mut machine = BufMachine {
                checker: self,
                // Unused: `ends` mode records pre-return states instead of
                // applying the end rule.
                end_rule: EndRule::MustBeFree,
                found: Vec::new(),
                ends: Some(HashSet::new()),
            };
            let oracle = ctx.summaries.map(|s| s as &dyn mc_cfg::SummaryLookup);
            mc_cfg::run_traversal_with(ctx.cfg, &mut machine, start, ctx.traversal, oracle);
            let mut ends: Vec<String> = machine
                .ends
                .unwrap()
                .into_iter()
                .map(|s| s.summary_name().to_string())
                .collect();
            ends.sort();
            if ends.len() == 1 && ends[0] == start.summary_name() {
                continue; // identity transfers are left implicit
            }
            table.insert(start.summary_name().to_string(), ends);
        }
        if !table.is_empty() {
            summary.transfers.insert(MACHINE.to_string(), table);
        }
    }
}

/// An operation relevant to buffer state, extracted from an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Free,
    Alloc,
    Use,
    CondFree,
    AnnotHasBuffer,
    AnnotNoFreeNeeded,
}

struct BufMachine<'c> {
    checker: &'c BufferMgmt,
    end_rule: EndRule,
    /// Violations: location, message, and the witness path that produced
    /// them (stamped by the [`PathMachine::step`] wrapper).
    found: Vec<(Span, String, Vec<PathStep>)>,
    /// When `Some`, the machine runs in summarization mode: return events
    /// record the pre-return state here instead of checking the end rule,
    /// and diagnostics accumulated in `found` are discarded by the caller.
    ends: Option<std::collections::HashSet<BufState>>,
}

impl BufMachine<'_> {
    fn classify_call(&self, name: &str) -> Option<Op> {
        if name == flash::DB_FREE || self.checker.spec.free_routines.contains(name) {
            return Some(Op::Free);
        }
        if name == flash::DB_ALLOC {
            return Some(Op::Alloc);
        }
        if name == flash::MISCBUS_READ_DB
            || name == flash::DB_WRITE
            || flash::is_send(name)
            || self.checker.spec.use_routines.contains(name)
        {
            return Some(Op::Use);
        }
        if self.checker.spec.cond_free_routines.contains(name) {
            return Some(Op::CondFree);
        }
        if name == flash::HAS_BUFFER {
            return Some(Op::AnnotHasBuffer);
        }
        if name == flash::NO_FREE_NEEDED {
            return Some(Op::AnnotNoFreeNeeded);
        }
        None
    }

    /// Collects buffer operations from an expression tree in evaluation
    /// order.
    fn collect_ops(&self, e: &Expr, out: &mut Vec<(Op, Span)>) {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.collect_ops(a, out);
                }
                if let ExprKind::Ident(name) = &callee.kind {
                    if let Some(op) = self.classify_call(name) {
                        out.push((op, e.span));
                    }
                }
            }
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                self.collect_ops(rhs, out);
                self.collect_ops(lhs, out);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => {
                self.collect_ops(operand, out)
            }
            ExprKind::Ternary { cond, then, els } => {
                self.collect_ops(cond, out);
                self.collect_ops(then, out);
                self.collect_ops(els, out);
            }
            ExprKind::Index { base, index } => {
                self.collect_ops(base, out);
                self.collect_ops(index, out);
            }
            ExprKind::Member { base, .. } => self.collect_ops(base, out),
            ExprKind::Cast { expr, .. } => self.collect_ops(expr, out),
            ExprKind::Comma(a, b) => {
                self.collect_ops(a, out);
                self.collect_ops(b, out);
            }
            _ => {}
        }
    }

    fn apply(&mut self, state: BufState, op: Op, span: Span) -> BufState {
        match (op, state) {
            (Op::Free, BufState::Has) => BufState::None,
            (Op::Free, BufState::Exempt) => BufState::None,
            (Op::Free, BufState::None) => {
                self.found.push((
                    span,
                    "buffer freed twice (or freed while none is held)".to_string(),
                    Vec::new(),
                ));
                BufState::None
            }
            (Op::Alloc, BufState::None) => BufState::Has,
            (Op::Alloc, BufState::Exempt) => BufState::Has,
            (Op::Alloc, BufState::Has) => {
                self.found.push((
                    span,
                    "allocation overwrites a live buffer (buffer leak)".to_string(),
                    Vec::new(),
                ));
                BufState::Has
            }
            (Op::Use, BufState::None) => {
                self.found.push((
                    span,
                    "buffer used or message sent with no live buffer".to_string(),
                    Vec::new(),
                ));
                BufState::None
            }
            (Op::Use, s) => s,
            // A conditional-free seen outside a branch condition (or with
            // value sensitivity off): conservatively treat as freeing.
            (Op::CondFree, s) => self.apply(s, Op::Free, span),
            (Op::AnnotHasBuffer, _) => BufState::Has,
            (Op::AnnotNoFreeNeeded, _) => BufState::Exempt,
        }
    }

    /// Extracts a conditional-free routine called at the top level of a
    /// branch condition (possibly negated), returning (name, negated).
    fn cond_free_in_branch<'a>(&self, cond: &'a Expr) -> Option<(&'a str, bool)> {
        match &cond.kind {
            ExprKind::Call { .. } => {
                let (name, _) = cond.as_call()?;
                self.checker
                    .spec
                    .cond_free_routines
                    .contains(name)
                    .then_some((name, false))
            }
            ExprKind::Unary {
                op: mc_ast::UnaryOp::Not,
                operand,
            } => self.cond_free_in_branch(operand).map(|(n, neg)| (n, !neg)),
            _ => None,
        }
    }
}

impl BufMachine<'_> {
    /// The transition function proper; the [`PathMachine::step`] wrapper
    /// stamps witness paths onto any violation this pushes.
    fn step_inner(&mut self, state: &BufState, event: &PathEvent<'_>) -> Vec<BufState> {
        let mut ops = Vec::new();
        match event {
            PathEvent::Stmt(s) => collect_stmt_ops(self, s, &mut ops),
            PathEvent::Branch { cond, taken } => {
                if self.checker.value_sensitive {
                    if let Some((_, negated)) = self.cond_free_in_branch(cond) {
                        // `if (cf())`: freed on the true edge (or the false
                        // edge when negated).
                        let freed = *taken != negated;
                        let next = if freed {
                            self.apply(*state, Op::Free, cond.span)
                        } else {
                            *state
                        };
                        return vec![next];
                    }
                }
                self.collect_ops(cond, &mut ops);
            }
            PathEvent::Case { .. } => {}
            PathEvent::Return { span, .. } => {
                if let Some(ends) = &mut self.ends {
                    ends.insert(*state);
                    return vec![];
                }
                match (self.end_rule, *state) {
                    (_, BufState::Exempt) => {}
                    (EndRule::MustBeFree, BufState::Has) => {
                        self.found.push((
                            *span,
                            "exit path still holds a data buffer (buffer leak)".to_string(),
                            Vec::new(),
                        ));
                    }
                    (EndRule::MustHold, BufState::None) => {
                        self.found.push((
                            *span,
                            "buffer-keeping routine freed its buffer".to_string(),
                            Vec::new(),
                        ));
                    }
                    _ => {}
                }
                return vec![];
            }
            PathEvent::Call { name, summary, .. } => {
                // A callee the spec tables already model was handled as an
                // `Op` when the enclosing statement was stepped; applying
                // its summary too would act twice.
                if self.classify_call(name).is_some() {
                    return vec![*state];
                }
                if let Some(per_state) = summary.transfers.get(MACHINE) {
                    if let Some(ends) = per_state.get(state.summary_name()) {
                        return ends
                            .iter()
                            .filter_map(|n| BufState::from_summary_name(n))
                            .collect();
                    }
                }
                return vec![*state];
            }
        }
        let mut cur = *state;
        for (op, span) in ops {
            cur = self.apply(cur, op, span);
        }
        vec![cur]
    }
}

impl PathMachine for BufMachine<'_> {
    type State = BufState;

    fn step(
        &mut self,
        state: &BufState,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
    ) -> Vec<BufState> {
        let before = self.found.len();
        let out = self.step_inner(state, event);
        stamp_witness(&mut self.found[before..], witness);
        out
    }
}

fn collect_stmt_ops(m: &BufMachine<'_>, s: &Stmt, out: &mut Vec<(Op, Span)>) {
    match &s.kind {
        StmtKind::Expr(e) => m.collect_ops(e, out),
        StmtKind::Decl(d) => {
            if let Some(mc_ast::Initializer::Expr(e)) = &d.init {
                m.collect_ops(e, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_cfg::Cfg;

    fn spec() -> FlashSpec {
        let mut s = FlashSpec::new();
        s.free_routines.insert("send_reply_and_free".into());
        s.use_routines.insert("peek_message".into());
        s.cond_free_routines.insert("cf_maybe_release".into());
        s
    }

    fn check(src: &str) -> Vec<Report> {
        let tu = mc_ast::parse_translation_unit(src, "t.c").unwrap();
        let checker = BufferMgmt::new(spec());
        let mut sink = CheckSink::new();
        for f in tu.functions() {
            let cfg = Cfg::build(f);
            let ctx = FunctionContext {
                file: "t.c",
                unit: &tu,
                function: f,
                cfg: &cfg,
                traversal: mc_cfg::Traversal::default(),
                summaries: None,
            };
            checker.check_function(&ctx, &mut sink);
        }
        sink.into_reports()
    }

    #[test]
    fn clean_hardware_handler() {
        let r = check("void PILocalGet(void) { NI_SEND(t, F_DATA, k, w, d, n); DB_FREE(); }");
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn missing_free_is_leak() {
        let r = check("void PILocalGet(void) { NI_SEND(t, F_DATA, k, w, d, n); }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("leak"));
    }

    #[test]
    fn double_free_detected() {
        let r = check("void PILocalGet(void) { DB_FREE(); DB_FREE(); }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("freed twice"));
    }

    #[test]
    fn double_free_via_table_routine() {
        // The shared-legacy bug: an explicit free followed by a call to a
        // routine that also frees.
        let r = check("void PILocalGet(void) { DB_FREE(); send_reply_and_free(); }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("freed twice"));
    }

    #[test]
    fn send_after_free_detected() {
        let r = check("void PILocalGet(void) { DB_FREE(); NI_SEND(t, F_NODATA, k, w, d, n); }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("no live buffer"));
    }

    #[test]
    fn alloc_while_holding_is_leak() {
        let r = check("void PILocalGet(void) { b = DB_ALLOC(); }");
        // Two reports: the overwrite itself, and the still-held buffer at
        // exit.
        assert_eq!(r.len(), 2);
        assert!(r.iter().any(|x| x.message.contains("overwrites")));
    }

    #[test]
    fn software_handler_must_allocate_before_send() {
        let r = check("void SWPageMove(void) { PI_SEND(F_DATA, k, s, w, d, n); }");
        assert_eq!(r.len(), 1);
        let r = check(
            "void SWPageMove(void) { b = DB_ALLOC(); PI_SEND(F_DATA, k, s, w, d, n); DB_FREE(); }",
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn annotations_suppress() {
        let r = check("void PILocalGet(void) { no_free_needed(); }");
        assert!(r.is_empty());
        let r = check(
            "void SWPageMove(void) { has_buffer(); PI_SEND(F_DATA, k, s, w, d, n); DB_FREE(); }",
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn free_routine_checked_for_consistency() {
        // Listed free-routine that forgets to free on one path.
        let r = check("void send_reply_and_free(void) { if (x) { DB_FREE(); } }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("leak"));
    }

    #[test]
    fn use_routine_must_not_free() {
        let r = check("void peek_message(void) { DB_FREE(); }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("buffer-keeping"));
    }

    #[test]
    fn plain_procedures_are_skipped() {
        let r = check("void compute_owner(void) { DB_FREE(); DB_FREE(); }");
        assert!(r.is_empty());
    }

    #[test]
    fn correlated_branches_false_positive() {
        // The dominant false-positive class: two branches on the same
        // condition. Without feasibility pruning the checker explores the
        // infeasible combination and reports; with pruning (the driver
        // default, via ctx.traversal) the correlated paths are refuted.
        let src = r#"void PILocalGet(void) {
                if (c) { DB_FREE(); }
                count++;
                if (c) { return; }
                NI_SEND(t, F_NODATA, k, w, d, n);
                DB_FREE();
            }"#;
        let run = |prune: bool| {
            let tu = mc_ast::parse_translation_unit(src, "t.c").unwrap();
            let checker = BufferMgmt::new(spec());
            let mut sink = CheckSink::new();
            let f = tu.functions().next().unwrap();
            let cfg = Cfg::build(f);
            let traversal = mc_cfg::Traversal {
                prune,
                ..mc_cfg::Traversal::default()
            };
            let ctx = FunctionContext {
                file: "t.c",
                unit: &tu,
                function: f,
                cfg: &cfg,
                traversal,
                summaries: None,
            };
            checker.check_function(&ctx, &mut sink);
            sink.into_reports()
        };
        assert!(
            !run(false).is_empty(),
            "unpruned traversal flags the infeasible path, like xg++"
        );
        assert!(
            run(true).is_empty(),
            "pruning refutes the correlated branches"
        );
    }

    #[test]
    fn value_sensitive_cond_free() {
        let src = r#"void PILocalGet(void) {
            if (cf_maybe_release()) {
                return;
            }
            DB_FREE();
        }"#;
        let r = check(src);
        assert!(
            r.is_empty(),
            "value-sensitive handling should be clean: {r:?}"
        );

        // With sensitivity off, the conservative both-edges-free treatment
        // produces the cascade the paper describes.
        let tu = mc_ast::parse_translation_unit(src, "t.c").unwrap();
        let mut checker = BufferMgmt::new(spec());
        checker.value_sensitive = false;
        let mut sink = CheckSink::new();
        let f = tu.functions().next().unwrap();
        let cfg = Cfg::build(f);
        let ctx = FunctionContext {
            file: "t.c",
            unit: &tu,
            function: f,
            cfg: &cfg,
            traversal: mc_cfg::Traversal::default(),
            summaries: None,
        };
        checker.check_function(&ctx, &mut sink);
        assert!(!sink.is_empty());
    }

    #[test]
    fn negated_cond_free() {
        let r = check(
            r#"void PILocalGet(void) {
                if (!cf_maybe_release()) {
                    DB_FREE();
                }
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn exit_via_multiple_returns() {
        let r = check(
            r#"void PILocalGet(void) {
                if (a) { DB_FREE(); return; }
                if (b) { return; }
                DB_FREE();
            }"#,
        );
        // The `if (b) return;` path leaks.
        assert_eq!(r.len(), 1);
    }
}
