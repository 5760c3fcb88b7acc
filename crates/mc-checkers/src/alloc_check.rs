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
use crate::violations::{self, Found, Transition};
use mc_ast::{Expr, ExprKind, StmtKind};
use mc_cfg::PathEvent;
use mc_driver::{CheckSink, Checker, FunctionContext};
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
        // Unchecked-handle uses are syntactic (the handle variable is
        // local), so callee summaries carry nothing for this checker.
        let init = BTreeSet::new();
        violations::check("alloc_check", ctx, &AllocMachine, init, false, sink);
    }
}

/// State: the set of variables holding unchecked allocations.
struct AllocMachine;

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
    fn find_uses(&self, e: &Expr, state: &BTreeSet<String>, out: &mut Found) {
        if Self::checked_var(e).is_some() || Self::alloc_target(e).is_some() {
            return; // the defining assignment is not a use
        }
        if let Some(name) = e.as_ident().filter(|v| state.contains(*v)) {
            let msg = format!("buffer `{name}` used before checking {DB_ALLOC} for failure");
            out.push((e.span, msg));
        }
        violations::for_each_operand!(e, |c| self.find_uses(c, state, out));
    }

    fn process_expr(
        &self,
        e: &Expr,
        state: &BTreeSet<String>,
        found: &mut Found,
    ) -> BTreeSet<String> {
        let mut next = state.clone();
        self.find_uses(e, state, found);
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
    violations::for_each_operand!(e, |c| remove_checked(c, state));
}

impl Transition for AllocMachine {
    type State = BTreeSet<String>;

    fn step(
        &self,
        state: &BTreeSet<String>,
        event: &PathEvent<'_>,
        found: &mut Found,
    ) -> Vec<BTreeSet<String>> {
        match event {
            PathEvent::Stmt(s) => {
                let Some(e) = violations::stmt_expr(s) else {
                    return vec![state.clone()];
                };
                let mut next = self.process_expr(e, state, found);
                if let (StmtKind::Decl(d), Some((DB_ALLOC, _))) = (&s.kind, e.as_call()) {
                    next.insert(d.name.clone());
                }
                vec![next]
            }
            PathEvent::Branch { cond, .. } => vec![self.process_expr(cond, state, found)],
            PathEvent::Case { .. } => vec![state.clone()],
            PathEvent::Return { .. } => vec![],
            PathEvent::Call { .. } => vec![state.clone()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_cfg::Cfg;
    use mc_driver::Report;

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
    fn a_check_inside_a_cast_counts() {
        let r = check(
            r#"void h(void) {
                nb = DB_ALLOC();
                if ((int)(nb == DB_FAIL)) { return; }
                DB_WRITE(nb, 0, x);
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
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
