//! Wildcard bindings and the structural expression equality the compiled
//! engine matches repeated wildcards with.

use mc_ast::{Expr, ExprKind};
use std::collections::BTreeMap;

/// Wildcard bindings produced by a successful match.
pub type Bindings = BTreeMap<String, Expr>;

/// Structural equality ignoring spans (and literal spelling).
pub fn exprs_equal(a: &Expr, b: &Expr) -> bool {
    use ExprKind::*;
    match (&a.kind, &b.kind) {
        (IntLit(x, _), IntLit(y, _)) => x == y,
        (FloatLit(x, _), FloatLit(y, _)) => x == y,
        (CharLit(x), CharLit(y)) => x == y,
        (StrLit(x), StrLit(y)) => x == y,
        (Ident(x), Ident(y)) | (Wildcard(x), Wildcard(y)) => x == y,
        (
            Call {
                callee: c1,
                args: a1,
            },
            Call {
                callee: c2,
                args: a2,
            },
        ) => {
            exprs_equal(c1, c2)
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| exprs_equal(x, y))
        }
        (
            Binary {
                op: o1,
                lhs: l1,
                rhs: r1,
            },
            Binary {
                op: o2,
                lhs: l2,
                rhs: r2,
            },
        ) => o1 == o2 && exprs_equal(l1, l2) && exprs_equal(r1, r2),
        (
            Unary {
                op: o1,
                operand: e1,
            },
            Unary {
                op: o2,
                operand: e2,
            },
        ) => o1 == o2 && exprs_equal(e1, e2),
        (
            Postfix {
                operand: e1,
                inc: i1,
            },
            Postfix {
                operand: e2,
                inc: i2,
            },
        ) => i1 == i2 && exprs_equal(e1, e2),
        (
            Assign {
                op: o1,
                lhs: l1,
                rhs: r1,
            },
            Assign {
                op: o2,
                lhs: l2,
                rhs: r2,
            },
        ) => o1 == o2 && exprs_equal(l1, l2) && exprs_equal(r1, r2),
        (
            Ternary {
                cond: c1,
                then: t1,
                els: e1,
            },
            Ternary {
                cond: c2,
                then: t2,
                els: e2,
            },
        ) => exprs_equal(c1, c2) && exprs_equal(t1, t2) && exprs_equal(e1, e2),
        (
            Index {
                base: b1,
                index: i1,
            },
            Index {
                base: b2,
                index: i2,
            },
        ) => exprs_equal(b1, b2) && exprs_equal(i1, i2),
        (
            Member {
                base: b1,
                field: f1,
                arrow: a1,
            },
            Member {
                base: b2,
                field: f2,
                arrow: a2,
            },
        ) => f1 == f2 && a1 == a2 && exprs_equal(b1, b2),
        (Cast { ty: t1, expr: e1 }, Cast { ty: t2, expr: e2 }) => t1 == t2 && exprs_equal(e1, e2),
        (SizeofType(t1), SizeofType(t2)) => t1 == t2,
        (Comma(a1, b1), Comma(a2, b2)) => exprs_equal(a1, a2) && exprs_equal(b1, b2),
        _ => false,
    }
}
