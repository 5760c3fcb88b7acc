//! # mc-oracle
//!
//! The reference engines the tests hold the product to. Nothing that
//! `mcheck` links depends on this crate; it is a dev-dependency only.
//!
//! * [`MetalMachine`] interprets a parsed [`mc_metal::MetalProgram`]
//!   directly, walking its pattern ASTs ([`match_expr`], [`match_stmt`]).
//!   The compiled engine ([`mc_metal::CompiledMachine`]) must give
//!   byte-identical reports, and [`mc_metal::compute_transfers_compiled`]
//!   the transfer tables [`compute_transfers`] gives.
//! * [`run_naive`] walks every path of a function separately, as the paper
//!   describes. On loop-free functions the product's state-set traversal
//!   ([`mc_cfg::run_traversal_with`]) must report exactly what it reports.

#![warn(missing_docs)]

mod interp;
mod matcher;
mod naive;

pub use interp::{compute_transfers, MetalMachine};
pub use matcher::{match_expr, match_stmt};
pub use naive::run_naive;

use mc_ast::{Expr, ExprKind};

/// The direct operands of `e`, left to right: a call's callee and then its
/// arguments, both sides of an operator, a ternary's three parts.
fn operands(e: &Expr) -> Vec<&Expr> {
    match &e.kind {
        ExprKind::Call { callee, args } => std::iter::once(&**callee).chain(args).collect(),
        ExprKind::Binary { lhs: a, rhs: b, .. }
        | ExprKind::Assign { lhs: a, rhs: b, .. }
        | ExprKind::Index { base: a, index: b }
        | ExprKind::Comma(a, b) => vec![a, b],
        ExprKind::Unary { operand: x, .. }
        | ExprKind::Postfix { operand: x, .. }
        | ExprKind::Member { base: x, .. }
        | ExprKind::Cast { expr: x, .. } => vec![x],
        ExprKind::Ternary { cond, then, els } => vec![cond, then, els],
        _ => Vec::new(),
    }
}
