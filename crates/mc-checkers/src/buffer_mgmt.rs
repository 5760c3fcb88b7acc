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
use crate::violations::{self, Found, Transition};
use mc_ast::{Expr, ExprKind, Span};
use mc_cfg::{FnSummary, PathEvent, TransferCodec};
use mc_driver::{CheckSink, Checker, FunctionContext};
use std::borrow::Cow;

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
        let machine = BufMachine {
            checker: self,
            end_rule: Some(end_rule),
        };
        violations::check(MACHINE, ctx, &machine, init, true, sink);
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
        let machine = BufMachine {
            checker: self,
            end_rule: None,
        };
        violations::summarize(ctx, &machine, summary);
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
    /// The obligation at return; `None` for a plain procedure, which has
    /// none.
    end_rule: Option<EndRule>,
}

/// Transfer tables name a state by its variant and start from all three.
impl TransferCodec for BufMachine<'_> {
    type State = BufState;

    fn machine_name(&self) -> &str {
        MACHINE
    }

    fn start_states(&self) -> Vec<BufState> {
        vec![BufState::Has, BufState::None, BufState::Exempt]
    }

    fn state_name(&self, state: &BufState) -> Cow<'_, str> {
        Cow::Owned(format!("{state:?}"))
    }

    fn parse_state(&self, name: &str) -> Option<BufState> {
        self.start_states()
            .into_iter()
            .find(|st| self.state_name(st) == name)
    }
}

impl BufMachine<'_> {
    fn classify_call(&self, name: &str) -> Option<Op> {
        use flash::Effect::*;
        let spec = &self.checker.spec;
        Some(match flash::effect(name) {
            Some(BufFree) => Op::Free,
            _ if spec.free_routines.contains(name) => Op::Free,
            Some(BufAlloc) => Op::Alloc,
            Some(DbRead | BufWrite | Send { .. }) => Op::Use,
            _ if spec.use_routines.contains(name) => Op::Use,
            _ if spec.cond_free_routines.contains(name) => Op::CondFree,
            _ if name == flash::HAS_BUFFER => Op::AnnotHasBuffer,
            _ if name == flash::NO_FREE_NEEDED => Op::AnnotNoFreeNeeded,
            _ => return None,
        })
    }

    /// Collects buffer operations from an expression tree in evaluation
    /// order.
    fn collect_ops(&self, e: &Expr, out: &mut Vec<(Op, Span)>) {
        violations::for_each_operand!(e, |c| self.collect_ops(c, out));
        if let Some(op) = e.as_call().and_then(|(name, _)| self.classify_call(name)) {
            out.push((op, e.span));
        }
    }

    fn apply(&self, state: BufState, op: Op, span: Span, found: &mut Found) -> BufState {
        match (op, state) {
            (Op::Free, BufState::Has) => BufState::None,
            (Op::Free, BufState::Exempt) => BufState::None,
            (Op::Free, BufState::None) => {
                found.push((
                    span,
                    "buffer freed twice (or freed while none is held)".to_string(),
                ));
                BufState::None
            }
            (Op::Alloc, BufState::None) => BufState::Has,
            (Op::Alloc, BufState::Exempt) => BufState::Has,
            (Op::Alloc, BufState::Has) => {
                found.push((
                    span,
                    "allocation overwrites a live buffer (buffer leak)".to_string(),
                ));
                BufState::Has
            }
            (Op::Use, BufState::None) => {
                found.push((
                    span,
                    "buffer used or message sent with no live buffer".to_string(),
                ));
                BufState::None
            }
            (Op::Use, s) => s,
            // A conditional-free seen outside a branch condition (or with
            // value sensitivity off): conservatively treat as freeing.
            (Op::CondFree, s) => self.apply(s, Op::Free, span, found),
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

impl Transition for BufMachine<'_> {
    type State = BufState;

    fn step(&self, state: &BufState, event: &PathEvent<'_>, found: &mut Found) -> Vec<BufState> {
        let mut ops = Vec::new();
        match event {
            PathEvent::Stmt(s) => {
                if let Some(e) = violations::stmt_expr(s) {
                    self.collect_ops(e, &mut ops);
                }
            }
            PathEvent::Branch { cond, taken } => {
                if self.checker.value_sensitive {
                    if let Some((_, negated)) = self.cond_free_in_branch(cond) {
                        // `if (cf())`: freed on the true edge (or the false
                        // edge when negated).
                        let freed = *taken != negated;
                        let next = if freed {
                            self.apply(*state, Op::Free, cond.span, found)
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
                let leak = match (self.end_rule, *state) {
                    (Some(EndRule::MustBeFree), BufState::Has) => {
                        "exit path still holds a data buffer (buffer leak)"
                    }
                    (Some(EndRule::MustHold), BufState::None) => {
                        "buffer-keeping routine freed its buffer"
                    }
                    _ => return vec![*state],
                };
                found.push((*span, leak.to_string()));
                return vec![*state];
            }
            PathEvent::Call { name, summary, .. } => {
                // A callee the spec tables already model was handled as an
                // `Op` when the enclosing statement was stepped; applying
                // its summary too would act twice.
                if self.classify_call(name).is_some() {
                    return vec![*state];
                }
                return mc_cfg::apply_transfer(self, summary, state);
            }
        }
        let mut cur = *state;
        for (op, span) in ops {
            cur = self.apply(cur, op, span, found);
        }
        vec![cur]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_cfg::Cfg;
    use mc_driver::Report;

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
            let traversal = mc_cfg::Traversal { prune };
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
