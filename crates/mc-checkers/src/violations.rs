//! The native state machines' shared harness.
//!
//! A native machine supplies only its transition function ([`Transition`]):
//! from a state and a path event it returns the successor states and
//! pushes `(span, message)` violations. The harness does the rest:
//!
//! * [`check`] runs the machine over one function, stamps the current
//!   witness onto each violation as it fires, dedups by `(span, message)`
//!   — keeping the first witness, which under StateSet traversal is the
//!   first path that reached the deduplicated state — and pushes the
//!   survivors as errors under the checker's name;
//! * [`summarize`] builds the machine's transfer table with
//!   [`mc_cfg::transfer_table`], dropping violations without materializing
//!   a witness. A `Return` yields the pre-return state, which the
//!   traversal discards and the table collects.
//!
//! [`stmt_expr`] and [`for_each_operand`] are the expression walk the
//! transition functions share.

use mc_ast::{Expr, Initializer, Span, Stmt, StmtKind};
use mc_cfg::{FnSummary, PathEvent, PathMachine, PathStep, SummaryLookup, TransferCodec, Witness};
use mc_driver::{CheckSink, FunctionContext, Report};
use std::hash::Hash;

/// The violations one transition pushes: location and message.
pub(crate) type Found = Vec<(Span, String)>;

/// A native checker's state machine: its transition function alone.
pub(crate) trait Transition {
    /// The path state.
    type State: Clone + Eq + Hash;

    /// Consumes one event in `state`, returning the successor states (none
    /// prunes the path) and pushing any violation onto `found`.
    fn step(
        &self,
        state: &Self::State,
        event: &PathEvent<'_>,
        found: &mut Found,
    ) -> Vec<Self::State>;
}

/// Runs a [`Transition`] as a [`PathMachine`]. `found` is `None` in
/// summary mode, where violations are dropped.
struct Harness<'t, T> {
    machine: &'t T,
    fresh: Found,
    found: Option<Vec<(Span, String, Vec<PathStep>)>>,
}

impl<'t, T> Harness<'t, T> {
    fn new(machine: &'t T, checking: bool) -> Harness<'t, T> {
        Harness {
            machine,
            fresh: Vec::new(),
            found: checking.then(Vec::new),
        }
    }
}

impl<T: Transition> PathMachine for Harness<'_, T> {
    type State = T::State;

    fn step(
        &mut self,
        state: &T::State,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
    ) -> Vec<T::State> {
        let out = self.machine.step(state, event, &mut self.fresh);
        if self.fresh.is_empty() {
            return out;
        }
        match &mut self.found {
            Some(found) => {
                // One witness per firing step; the common no-violation
                // step never materializes it.
                let steps = witness.steps();
                found.extend(self.fresh.drain(..).map(|(s, m)| (s, m, steps.clone())));
            }
            None => self.fresh.clear(),
        }
        out
    }
}

/// Runs `machine` over `ctx`'s function from `init` and pushes its
/// violations as `checker` errors, one per `(span, message)` in that order.
/// With `interproc`, call sites resolve through `ctx.summaries`.
pub(crate) fn check<T: Transition>(
    checker: &str,
    ctx: &FunctionContext<'_>,
    machine: &T,
    init: T::State,
    interproc: bool,
    sink: &mut CheckSink,
) {
    let mut harness = Harness::new(machine, true);
    let oracle = ctx.summaries.filter(|_| interproc);
    let oracle = oracle.map(|s| s as &dyn SummaryLookup);
    mc_cfg::run_traversal_with(ctx.cfg, &mut harness, init, ctx.traversal, oracle);
    let mut found = harness.found.unwrap_or_default();
    dedup_found(&mut found);
    for (span, message, steps) in found {
        let mut report = Report::error(checker, ctx.file, &ctx.function.name, span, message);
        report.steps = steps;
        sink.push(report);
    }
}

/// Records `machine`'s transfer table for `ctx`'s function in `summary`.
pub(crate) fn summarize<T>(ctx: &FunctionContext<'_>, machine: &T, summary: &mut FnSummary)
where
    T: Transition + TransferCodec<State = <T as Transition>::State>,
{
    let oracle = ctx.summaries.map(|s| s as &dyn SummaryLookup);
    let table = mc_cfg::transfer_table(machine, ctx.cfg, ctx.traversal, oracle, || {
        Harness::new(machine, false)
    });
    summary.insert_transfers(machine.machine_name(), table);
}

/// The expression an atomic statement evaluates: an expression
/// statement's, or a declaration's initializer.
pub(crate) fn stmt_expr(s: &Stmt) -> Option<&Expr> {
    match &s.kind {
        StmtKind::Expr(e) => Some(e),
        StmtKind::Decl(d) => match &d.init {
            Some(Initializer::Expr(e)) => Some(e),
            _ => None,
        },
        _ => None,
    }
}

/// Runs `$body` with `$c` bound to each operand of `$e`, in the order the
/// native machines evaluate them: a call's arguments (not its callee), the
/// right side of an assignment or binary operator before the left, and the
/// children of every other compound left to right. A macro rather than a
/// function over a closure or an iterator, so that the walk the machines
/// take at every expression node costs what a hand-written `match` does.
macro_rules! for_each_operand {
    ($e:expr, |$c:ident| $body:expr) => {
        match &$e.kind {
            mc_ast::ExprKind::Call { args, .. } => {
                for $c in args.iter() {
                    $body;
                }
            }
            mc_ast::ExprKind::Binary { lhs, rhs, .. }
            | mc_ast::ExprKind::Assign { lhs, rhs, .. } => {
                for $c in [&**rhs, &**lhs] {
                    $body;
                }
            }
            mc_ast::ExprKind::Unary { operand: x, .. }
            | mc_ast::ExprKind::Postfix { operand: x, .. }
            | mc_ast::ExprKind::Member { base: x, .. }
            | mc_ast::ExprKind::Cast { expr: x, .. } => {
                let $c: &mc_ast::Expr = x;
                $body;
            }
            mc_ast::ExprKind::Ternary { cond, then, els } => {
                for $c in [&**cond, &**then, &**els] {
                    $body;
                }
            }
            mc_ast::ExprKind::Index { base: a, index: b } | mc_ast::ExprKind::Comma(a, b) => {
                for $c in [&**a, &**b] {
                    $body;
                }
            }
            _ => {}
        }
    };
}
pub(crate) use for_each_operand;

/// Sorts by `(span, message)` and drops duplicate violations, keeping the
/// first-recorded witness for each. The sort is stable and the key excludes
/// the steps, so two paths reaching the same violation collapse to one
/// report whose path is the deterministic first arrival.
fn dedup_found(found: &mut Vec<(Span, String, Vec<PathStep>)>) {
    found.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    found.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first_witness_per_key() {
        let step = |n: &str| PathStep::new(Span::new(1, 1), n);
        let mut found = vec![
            (Span::new(5, 1), "b".to_string(), vec![step("late")]),
            (Span::new(3, 1), "a".to_string(), vec![step("first")]),
            (Span::new(3, 1), "a".to_string(), vec![step("second")]),
        ];
        dedup_found(&mut found);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].1, "a");
        assert_eq!(found[0].2[0].note, "first");
        assert_eq!(found[1].1, "b");
    }
}
