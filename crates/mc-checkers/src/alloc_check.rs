//! §9 — Data-buffer allocation failure checking (Table 6).
//!
//! `DB_ALLOC()` can fail when no buffers are available, returning
//! `DB_FAIL`. Every allocation must therefore be checked before the buffer
//! is used. The checker tracks variables assigned from `DB_ALLOC()` and
//! flags any use before a comparison against `DB_FAIL`.
//!
//! Debug code that merely *prints* the raw handle before checking it still
//! counts as a use — that is precisely the source of the two dyn_ptr false
//! positives in the paper.

use crate::flash::{self, DB_ALLOC};
use crate::{dedup_found, stamp_witness};
use mc_ast::{Expr, ExprKind, Span, StmtKind};
use mc_cfg::{run_traversal, PathEvent, PathMachine, PathStep, Witness};
use mc_driver::{CheckSink, Checker, FunctionContext, Report};
use std::collections::BTreeSet;

/// The allocation-failure checker.
#[derive(Debug, Clone, Default)]
pub struct AllocCheck;

impl AllocCheck {
    /// Creates the checker.
    pub fn new() -> AllocCheck {
        AllocCheck
    }
}

impl Checker for AllocCheck {
    fn name(&self) -> &str {
        "alloc_check"
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
        let mut machine = AllocMachine { found: Vec::new() };
        run_traversal(ctx.cfg, &mut machine, BTreeSet::new(), ctx.traversal);
        dedup_found(&mut machine.found);
        for (span, var, steps) in machine.found {
            let mut report = Report::error(
                "alloc_check",
                ctx.file,
                &ctx.function.name,
                span,
                format!("buffer `{var}` used before checking {DB_ALLOC} for failure"),
            );
            report.steps = steps;
            sink.push(report);
        }
    }
}

/// State: the set of variables holding unchecked allocations.
struct AllocMachine {
    /// Violations: location, variable name, and the witness path that
    /// produced them (stamped by the [`PathMachine::step`] wrapper).
    found: Vec<(Span, String, Vec<PathStep>)>,
}

impl AllocMachine {
    /// If `e` is `v = DB_ALLOC()`, returns `v`.
    fn alloc_target(e: &Expr) -> Option<&str> {
        if let ExprKind::Assign { op: None, lhs, rhs } = &e.kind {
            if let Some((flash::DB_ALLOC, _)) = rhs.as_call() {
                return lhs.as_ident();
            }
        }
        None
    }

    /// If `e` is a failure check `v == DB_FAIL` / `v != DB_FAIL` (either
    /// side), returns `v`.
    fn checked_var(e: &Expr) -> Option<&str> {
        if let ExprKind::Binary { op, lhs, rhs } = &e.kind {
            use mc_ast::BinaryOp::{Eq, Ne};
            if matches!(op, Eq | Ne) {
                match (lhs.as_ident(), rhs.as_ident()) {
                    (Some(flash::DB_FAIL), Some(v)) | (Some(v), Some(flash::DB_FAIL)) => {
                        return Some(v)
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Records any unchecked-variable uses inside `e`, skipping the
    /// contexts that are not uses (the alloc assignment itself and failure
    /// checks).
    fn find_uses(&mut self, e: &Expr, state: &BTreeSet<String>, out: &mut Vec<(Span, String)>) {
        if Self::checked_var(e).is_some() {
            return;
        }
        match &e.kind {
            ExprKind::Ident(name) if state.contains(name) => {
                out.push((e.span, name.clone()));
            }
            ExprKind::Assign { lhs, rhs, .. } => {
                if Self::alloc_target(e).is_some() {
                    return; // the defining assignment is not a use
                }
                self.find_uses(rhs, state, out);
                self.find_uses(lhs, state, out);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    self.find_uses(a, state, out);
                }
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.find_uses(lhs, state, out);
                self.find_uses(rhs, state, out);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => {
                self.find_uses(operand, state, out)
            }
            ExprKind::Ternary { cond, then, els } => {
                self.find_uses(cond, state, out);
                self.find_uses(then, state, out);
                self.find_uses(els, state, out);
            }
            ExprKind::Index { base, index } => {
                self.find_uses(base, state, out);
                self.find_uses(index, state, out);
            }
            ExprKind::Member { base, .. } => self.find_uses(base, state, out),
            ExprKind::Cast { expr, .. } => self.find_uses(expr, state, out),
            ExprKind::Comma(a, b) => {
                self.find_uses(a, state, out);
                self.find_uses(b, state, out);
            }
            _ => {}
        }
    }

    fn process_expr(&mut self, e: &Expr, state: &BTreeSet<String>) -> BTreeSet<String> {
        let mut next = state.clone();
        let mut uses = Vec::new();
        self.find_uses(e, state, &mut uses);
        self.found
            .extend(uses.into_iter().map(|(span, var)| (span, var, Vec::new())));
        // Remove checked variables anywhere inside the expression.
        remove_checked(e, &mut next);
        if let Some(v) = Self::alloc_target(e) {
            next.insert(v.to_string());
        }
        next
    }
}

fn remove_checked(e: &Expr, state: &mut BTreeSet<String>) {
    if let Some(v) = AllocMachine::checked_var(e) {
        state.remove(v);
        return;
    }
    match &e.kind {
        ExprKind::Call { args, .. } => {
            for a in args {
                remove_checked(a, state);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            remove_checked(lhs, state);
            remove_checked(rhs, state);
        }
        ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => {
            remove_checked(operand, state)
        }
        ExprKind::Ternary { cond, then, els } => {
            remove_checked(cond, state);
            remove_checked(then, state);
            remove_checked(els, state);
        }
        ExprKind::Comma(a, b) => {
            remove_checked(a, state);
            remove_checked(b, state);
        }
        _ => {}
    }
}

impl AllocMachine {
    /// The transition function proper; the [`PathMachine::step`] wrapper
    /// stamps witness paths onto any violation this pushes.
    fn step_inner(
        &mut self,
        state: &BTreeSet<String>,
        event: &PathEvent<'_>,
    ) -> Vec<BTreeSet<String>> {
        match event {
            PathEvent::Stmt(s) => {
                let next = match &s.kind {
                    StmtKind::Expr(e) => self.process_expr(e, state),
                    StmtKind::Decl(d) => {
                        if let Some(mc_ast::Initializer::Expr(e)) = &d.init {
                            let mut next = self.process_expr(e, state);
                            if let Some((flash::DB_ALLOC, _)) = e.as_call() {
                                next.insert(d.name.clone());
                            }
                            next
                        } else {
                            state.clone()
                        }
                    }
                    _ => state.clone(),
                };
                vec![next]
            }
            PathEvent::Branch { cond, .. } => vec![self.process_expr(cond, state)],
            PathEvent::Case { .. } => vec![state.clone()],
            PathEvent::Return { .. } => vec![],
            // Unchecked-handle uses are syntactic (the handle variable is
            // local), so callee summaries carry nothing for this checker.
            PathEvent::Call { .. } => vec![state.clone()],
        }
    }
}

impl PathMachine for AllocMachine {
    type State = BTreeSet<String>;

    fn step(
        &mut self,
        state: &Self::State,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
    ) -> Vec<Self::State> {
        let before = self.found.len();
        let out = self.step_inner(state, event);
        stamp_witness(&mut self.found[before..], witness);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_cfg::Cfg;

    fn check(src: &str) -> Vec<Report> {
        let tu = mc_ast::parse_translation_unit(src, "t.c").unwrap();
        let checker = AllocCheck::new();
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
    fn checked_alloc_is_clean() {
        let r = check(
            r#"void h(void) {
                nb = DB_ALLOC();
                if (nb == DB_FAIL) { return; }
                DB_WRITE(nb, 0, x);
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn use_before_check_flagged() {
        let r = check(
            r#"void h(void) {
                nb = DB_ALLOC();
                DB_WRITE(nb, 0, x);
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("`nb`"));
    }

    #[test]
    fn debug_print_counts_as_use() {
        // The paper's two false positives: debug code printed the handle
        // before checking it.
        let r = check(
            r#"void h(void) {
                nb = DB_ALLOC();
                debug_print("alloc got", nb);
                if (nb == DB_FAIL) { return; }
                DB_WRITE(nb, 0, x);
            }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reversed_comparison_accepted() {
        let r = check(
            r#"void h(void) {
                nb = DB_ALLOC();
                if (DB_FAIL != nb) { DB_WRITE(nb, 0, x); }
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn decl_initializer_alloc_tracked() {
        let r = check(
            r#"void h(void) {
                int nb = DB_ALLOC();
                DB_WRITE(nb, 0, x);
            }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn two_allocs_tracked_independently() {
        let r = check(
            r#"void h(void) {
                a = DB_ALLOC();
                if (a == DB_FAIL) { return; }
                b = DB_ALLOC();
                DB_WRITE(b, 0, x);
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("`b`"));
    }

    #[test]
    fn unchecked_on_one_path_only() {
        let r = check(
            r#"void h(void) {
                nb = DB_ALLOC();
                if (fast_path) {
                    DB_WRITE(nb, 0, x);
                } else {
                    if (nb == DB_FAIL) { return; }
                    DB_WRITE(nb, 0, x);
                }
            }"#,
        );
        assert_eq!(r.len(), 1);
    }
}
