//! Backward slicing of a reconstructed witness path.
//!
//! The symbolic executor only needs the statements that can influence the
//! path's branch conditions (the constraints). The slice walks the
//! [`PathOp`] sequence backward from the end, keeping every branch/switch
//! decision and every statement whose definitions can reach a variable the
//! kept suffix reads.
//!
//! The def/use domain is deliberately coarse — three levels:
//!
//! - exact keys (`key_of` lvalues and `HANDLER_GLOBALS(..)` header slots);
//! - *all globals* (a call may write any global, plus any address-taken
//!   local), except a call the FLASH table marks pure;
//! - *everything* (a store through an unresolvable lvalue like `*p`).
//!
//! Coarseness only ever *keeps more*: dropping a statement the executor
//! would have used to havoc state would be unsound (it could refute a
//! feasible path), so the keep-test errs toward keeping. Slicing is a
//! precision-preserving performance pass, nothing else.

use crate::path::PathOp;
use mc_ast::flash::{self, Effect};
use mc_ast::{Expr, ExprKind, Function, Initializer, Stmt, StmtKind, UnaryOp};
use mc_cfg::feasibility::key_of;
use std::collections::BTreeSet;

/// How much of the path the slice kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// Operations in the reconstructed path.
    pub total_ops: usize,
    /// Operations the executor actually runs.
    pub kept_ops: usize,
}

/// The function's name scope, computed once per analysis: declared locals
/// (including parameters) and address-taken keys. A key whose root segment
/// is a non-escaped local is private to the frame; everything else is
/// global-like (a call may read or write it).
#[derive(Debug, Default)]
pub struct Scope {
    /// Parameter and local-declaration names.
    pub locals: BTreeSet<String>,
    /// Keys that appear under `&` anywhere in the function.
    pub escaped: BTreeSet<String>,
}

impl Scope {
    /// Collects the scope of `func`.
    pub fn of(func: &Function) -> Scope {
        let mut scope = Scope::default();
        for p in &func.params {
            if !p.name.is_empty() {
                scope.locals.insert(p.name.clone());
            }
        }
        for s in &func.body {
            collect_stmt(s, &mut scope);
        }
        scope
    }

    /// Whether `key` (an lvalue key like `h->len` or `gCount`) can be
    /// touched from outside the frame.
    pub fn is_globalish(&self, key: &str) -> bool {
        let root = key.split(['.', '-']).next().unwrap_or(key);
        !self.locals.contains(root) || self.escaped.contains(key) || self.escaped.contains(root)
    }
}

fn collect_stmt(s: &Stmt, scope: &mut Scope) {
    match &s.kind {
        StmtKind::Decl(d) => {
            scope.locals.insert(d.name.clone());
            if let Some(Initializer::Expr(e)) = &d.init {
                collect_expr(e, scope);
            }
        }
        StmtKind::Expr(e) => collect_expr(e, scope),
        StmtKind::Block(body) => body.iter().for_each(|s| collect_stmt(s, scope)),
        StmtKind::If { cond, then, els } => {
            collect_expr(cond, scope);
            collect_stmt(then, scope);
            if let Some(els) = els {
                collect_stmt(els, scope);
            }
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
            collect_expr(cond, scope);
            collect_stmt(body, scope);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(init) = init {
                collect_stmt(init, scope);
            }
            if let Some(cond) = cond {
                collect_expr(cond, scope);
            }
            if let Some(step) = step {
                collect_expr(step, scope);
            }
            collect_stmt(body, scope);
        }
        StmtKind::Switch { scrutinee, cases } => {
            collect_expr(scrutinee, scope);
            for c in cases {
                c.body.iter().for_each(|s| collect_stmt(s, scope));
            }
        }
        StmtKind::Return(Some(e)) => collect_expr(e, scope),
        StmtKind::Label(_, inner) => collect_stmt(inner, scope),
        StmtKind::Empty
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Return(None)
        | StmtKind::Goto(_) => {}
    }
}

fn collect_expr(e: &Expr, scope: &mut Scope) {
    if let ExprKind::Unary {
        op: UnaryOp::AddrOf,
        operand,
    } = &e.kind
    {
        if let Some(k) = key_of(operand) {
            scope.escaped.insert(k);
        }
    }
    for_each_child(e, &mut |c| collect_expr(c, scope));
}

/// The store key of an assignment target: a `key_of` lvalue, or a header
/// field `HANDLER_GLOBALS(header.nh.len)`, which is a slot of its own.
pub(crate) fn lvalue_key(lhs: &Expr) -> Option<String> {
    key_of(lhs).or_else(|| match lhs.as_call()? {
        (name, [field]) if flash::effect(name) == Some(Effect::Header) => {
            Some(format!("{name}({})", key_of(field)?))
        }
        _ => None,
    })
}

/// Visits every direct subexpression of `e`.
pub fn for_each_child(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    match &e.kind {
        ExprKind::IntLit(..)
        | ExprKind::FloatLit(..)
        | ExprKind::CharLit(..)
        | ExprKind::StrLit(..)
        | ExprKind::Ident(..) => {}
        ExprKind::Call { callee, args } => {
            f(callee);
            args.iter().for_each(&mut *f);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => f(operand),
        ExprKind::Assign { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        ExprKind::Ternary { cond, then, els } => {
            f(cond);
            f(then);
            f(els);
        }
        ExprKind::Index { base, index } => {
            f(base);
            f(index);
        }
        ExprKind::Member { base, .. } => f(base),
        ExprKind::Cast { expr, .. } => f(expr),
        ExprKind::Comma(a, b) => {
            f(a);
            f(b);
        }
        ExprKind::SizeofType(_) | ExprKind::Wildcard(_) => {}
    }
}

/// Definitions and uses of one statement, in the coarse three-level domain.
#[derive(Debug, Default)]
struct DefUse {
    defs: BTreeSet<String>,
    uses: BTreeSet<String>,
    /// A call occurred: defines and uses every global-like key.
    touches_globals: bool,
    /// A store through an unresolvable lvalue: defines everything.
    defs_all: bool,
}

fn scan_expr(e: &Expr, du: &mut DefUse) {
    match &e.kind {
        ExprKind::Ident(name) => {
            // Manifest-constant names (`key_of == None`) count as uses
            // too: a SHOUTING-named global may still be written, and the
            // havocking store/call must survive the slice for reads on
            // either side of it to be decided soundly.
            du.uses.insert(name.clone());
        }
        ExprKind::Member { base, .. } => {
            if let Some(k) = key_of(e) {
                du.uses.insert(k);
            } else {
                scan_expr(base, du);
            }
        }
        ExprKind::Assign { op, lhs, rhs } => {
            scan_expr(rhs, du);
            match lvalue_key(lhs) {
                Some(k) => {
                    if op.is_some() {
                        du.uses.insert(k.clone());
                    }
                    du.defs.insert(k);
                }
                None => {
                    // `*p = …`, `a[i] = …`: unknown target.
                    du.defs_all = true;
                    scan_expr(lhs, du);
                }
            }
        }
        ExprKind::Unary {
            op: UnaryOp::PreInc | UnaryOp::PreDec,
            operand,
        } => match lvalue_key(operand) {
            Some(k) => {
                du.uses.insert(k.clone());
                du.defs.insert(k);
            }
            None => {
                du.defs_all = true;
                scan_expr(operand, du);
            }
        },
        ExprKind::Postfix { operand, .. } => match lvalue_key(operand) {
            Some(k) => {
                du.uses.insert(k.clone());
                du.defs.insert(k);
            }
            None => {
                du.defs_all = true;
                scan_expr(operand, du);
            }
        },
        ExprKind::Call { callee, args } => {
            du.touches_globals |= !callee.as_ident().is_some_and(flash::is_pure);
            args.iter().for_each(|a| scan_expr(a, du));
        }
        _ => for_each_child(e, &mut |c| scan_expr(c, du)),
    }
}

fn def_use_of(stmt: &Stmt) -> DefUse {
    let mut du = DefUse::default();
    match &stmt.kind {
        StmtKind::Expr(e) => scan_expr(e, &mut du),
        StmtKind::Decl(d) => {
            du.defs.insert(d.name.clone());
            if let Some(Initializer::Expr(e)) = &d.init {
                scan_expr(e, &mut du);
            }
        }
        _ => {}
    }
    du
}

/// What the kept suffix still needs, walking backward.
#[derive(Debug, Default)]
struct Relevant {
    keys: BTreeSet<String>,
    /// A kept statement calls out: every global-like key is relevant.
    all_globals: bool,
}

/// Slices `ops` backward to the statements that can influence its branch
/// and switch conditions. Decisions themselves are always kept.
pub fn backward_slice(ops: &[PathOp], scope: &Scope) -> (Vec<PathOp>, SliceStats) {
    let mut rel = Relevant::default();
    let mut keep = vec![false; ops.len()];
    for (i, op) in ops.iter().enumerate().rev() {
        match op {
            PathOp::Branch { cond, .. } => {
                keep[i] = true;
                let mut du = DefUse::default();
                scan_expr(cond, &mut du);
                rel.keys.extend(du.uses);
                rel.all_globals |= du.touches_globals;
            }
            PathOp::Case {
                scrutinee,
                arm,
                excluded,
            } => {
                keep[i] = true;
                let mut du = DefUse::default();
                scan_expr(scrutinee, &mut du);
                if let Some(arm) = arm {
                    scan_expr(arm, &mut du);
                }
                excluded.iter().for_each(|e| scan_expr(e, &mut du));
                rel.keys.extend(du.uses);
                rel.all_globals |= du.touches_globals;
            }
            PathOp::Return => keep[i] = true,
            PathOp::Stmt(stmt) => {
                let du = def_use_of(stmt);
                let hits_keys = du.defs.iter().any(|k| rel.keys.contains(k))
                    || (rel.all_globals && du.defs.iter().any(|k| scope.is_globalish(k)));
                let hits_globals = du.touches_globals
                    && (rel.all_globals || rel.keys.iter().any(|k| scope.is_globalish(k)));
                let hits_all = du.defs_all && (rel.all_globals || !rel.keys.is_empty());
                if hits_keys || hits_globals || hits_all {
                    keep[i] = true;
                    // Only exact single-key defs kill; the coarse levels are
                    // may-defs and must not remove relevance.
                    if !du.defs_all && !du.touches_globals {
                        for d in &du.defs {
                            rel.keys.remove(d);
                        }
                    }
                    rel.keys.extend(du.uses);
                    rel.all_globals |= du.touches_globals;
                }
            }
        }
    }
    let kept: Vec<PathOp> = ops
        .iter()
        .zip(&keep)
        .filter(|(_, k)| **k)
        .map(|(op, _)| op.clone())
        .collect();
    let stats = SliceStats {
        total_ops: ops.len(),
        kept_ops: kept.len(),
    };
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::{parse_expr, parse_stmt};

    fn stmt(src: &str) -> PathOp {
        PathOp::Stmt(parse_stmt(src).expect("stmt"))
    }

    fn branch(src: &str, taken: bool) -> PathOp {
        PathOp::Branch {
            cond: parse_expr(src).expect("cond"),
            taken,
        }
    }

    #[test]
    fn unrelated_stores_are_sliced_away() {
        let ops = vec![
            stmt("gNoise = 7;"),
            stmt("gNak = gCredit - gDebit;"),
            branch("gCredit == gDebit", true),
            branch("gNak > 0", true),
        ];
        let (kept, stats) = backward_slice(&ops, &Scope::default());
        assert_eq!(stats.total_ops, 4);
        assert_eq!(stats.kept_ops, 3, "kept: {kept:?}");
        assert!(matches!(&kept[0], PathOp::Stmt(s)
            if matches!(&s.kind, StmtKind::Expr(e)
                if matches!(&e.kind, ExprKind::Assign { lhs, .. }
                    if key_of(lhs).as_deref() == Some("gNak")))));
    }

    #[test]
    fn transitive_dependencies_are_kept() {
        let ops = vec![stmt("a = gIn;"), stmt("b = a + 1;"), branch("b > 0", true)];
        let (_, stats) = backward_slice(&ops, &Scope::default());
        assert_eq!(stats.kept_ops, 3);
    }

    #[test]
    fn calls_stay_when_globals_are_relevant() {
        let ops = vec![stmt("HOOK();"), branch("gCount > 0", true)];
        let (_, stats) = backward_slice(&ops, &Scope::default());
        // The call may write gCount: it must survive the slice.
        assert_eq!(stats.kept_ops, 2);
    }

    #[test]
    fn calls_drop_when_only_locals_are_relevant() {
        let mut scope = Scope::default();
        scope.locals.insert("x".into());
        let ops = vec![stmt("HOOK();"), stmt("x = 3;"), branch("x > 0", true)];
        let (kept, stats) = backward_slice(&ops, &scope);
        assert_eq!(stats.kept_ops, 2, "kept: {kept:?}");
    }
}
