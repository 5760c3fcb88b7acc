//! What the compiled engine shares with the reference interpreter: the
//! reports `err(...)`/`warn(...)` actions produce, the candidates patterns
//! are matched against, and message interpolation.

use crate::matcher::Bindings;
use mc_ast::{Expr, Span, Stmt};
use mc_cfg::PathStep;

/// An error or warning produced by a metal `err()`/`warn()` action.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MetalReport {
    /// Name of the state machine that fired.
    pub sm_name: String,
    /// The action message, with `%wildcard` references interpolated.
    pub message: String,
    /// Source location of the matched construct.
    pub span: Span,
    /// `true` for `err`, `false` for `warn`.
    pub is_error: bool,
    /// Name of the state the machine was in when the rule fired.
    pub state: String,
    /// The execution path that drove the machine here, entry-to-violation.
    /// The path of the *first* firing is kept when several paths reach the
    /// same `(message, span)` (dedup ignores the steps).
    pub steps: Vec<PathStep>,
}

/// A matchable unit extracted from a path event.
pub enum Candidate<'a> {
    /// A whole statement (declarations, returns).
    Stmt(&'a Stmt),
    /// A subexpression, in evaluation (post) order.
    Expr(&'a Expr),
    /// A synthesized statement (for `return` events), owned.
    Owned(Stmt),
}

impl Candidate<'_> {
    /// Source location of the candidate.
    pub fn span(&self) -> Span {
        match self {
            Candidate::Stmt(s) => s.span,
            Candidate::Expr(e) => e.span,
            Candidate::Owned(s) => s.span,
        }
    }
}

/// Substitutes each `%wildcard` reference in `msg` with the printed
/// expression it is bound to.
pub fn interpolate(msg: &str, bindings: &Bindings) -> String {
    let mut out = msg.to_string();
    for (name, expr) in bindings {
        let needle = format!("%{name}");
        if out.contains(&needle) {
            out = out.replace(&needle, &mc_ast::print_expr(expr));
        }
    }
    out
}
