//! Structural pattern matching with wildcard binding.
//!
//! A pattern is an AST with [`ExprKind::Wildcard`] holes. Matching compares
//! the pattern and candidate structurally; a wildcard binds the candidate
//! subexpression (subject to its [`TypeClass`]), and a wildcard appearing
//! twice must bind structurally equal expressions.

use crate::operands;
use mc_ast::{Expr, ExprKind, Initializer, Stmt, StmtKind};
use mc_metal::{exprs_equal, Bindings, TypeClass};
use std::collections::BTreeMap;

/// Matches an expression pattern against a candidate expression.
///
/// Returns the bindings on success. `classes` gives each wildcard's type
/// class (wildcards absent from the map behave as [`TypeClass::Any`]).
pub fn match_expr(
    pattern: &Expr,
    candidate: &Expr,
    classes: &BTreeMap<String, TypeClass>,
) -> Option<Bindings> {
    let mut b = Bindings::new();
    if expr_matches(pattern, candidate, classes, &mut b) {
        Some(b)
    } else {
        None
    }
}

/// Matches a statement pattern against a candidate statement.
pub fn match_stmt(
    pattern: &Stmt,
    candidate: &Stmt,
    classes: &BTreeMap<String, TypeClass>,
) -> Option<Bindings> {
    let mut b = Bindings::new();
    if stmt_matches(pattern, candidate, classes, &mut b) {
        Some(b)
    } else {
        None
    }
}

fn bind(
    name: &str,
    candidate: &Expr,
    classes: &BTreeMap<String, TypeClass>,
    b: &mut Bindings,
) -> bool {
    let class = classes.get(name).copied().unwrap_or(TypeClass::Any);
    if !class.admits(candidate) {
        return false;
    }
    match b.get(name) {
        Some(prev) => exprs_equal(prev, candidate),
        None => {
            b.insert(name.to_string(), candidate.clone());
            true
        }
    }
}

fn expr_matches(
    pat: &Expr,
    cand: &Expr,
    classes: &BTreeMap<String, TypeClass>,
    b: &mut Bindings,
) -> bool {
    use ExprKind::*;
    if let Wildcard(name) = &pat.kind {
        return bind(name, cand, classes, b);
    }
    // The nodes themselves, then their operands pairwise in order.
    let same_node = match (&pat.kind, &cand.kind) {
        (IntLit(x, _), IntLit(y, _)) => x == y,
        (FloatLit(x, _), FloatLit(y, _)) => x == y,
        (CharLit(x), CharLit(y)) => x == y,
        (StrLit(x), StrLit(y)) => x == y,
        (Ident(x), Ident(y)) => x == y,
        (Call { args: a1, .. }, Call { args: a2, .. }) => a1.len() == a2.len(),
        (Binary { op: o1, .. }, Binary { op: o2, .. }) => o1 == o2,
        (Unary { op: o1, .. }, Unary { op: o2, .. }) => o1 == o2,
        (Postfix { inc: i1, .. }, Postfix { inc: i2, .. }) => i1 == i2,
        (Assign { op: o1, .. }, Assign { op: o2, .. }) => o1 == o2,
        (Ternary { .. }, Ternary { .. }) | (Index { .. }, Index { .. }) => true,
        (Comma(..), Comma(..)) => true,
        (
            Member {
                field: f1,
                arrow: a1,
                ..
            },
            Member {
                field: f2,
                arrow: a2,
                ..
            },
        ) => f1 == f2 && a1 == a2,
        (Cast { ty: t1, .. }, Cast { ty: t2, .. }) => t1 == t2,
        (SizeofType(t1), SizeofType(t2)) => t1 == t2,
        _ => false,
    };
    same_node
        && operands(pat)
            .into_iter()
            .zip(operands(cand))
            .all(|(p, c)| expr_matches(p, c, classes, b))
}

fn stmt_matches(
    pat: &Stmt,
    cand: &Stmt,
    classes: &BTreeMap<String, TypeClass>,
    b: &mut Bindings,
) -> bool {
    use StmtKind::*;
    match (&pat.kind, &cand.kind) {
        (Expr(p), Expr(c)) => expr_matches(p, c, classes, b),
        (Empty, Empty) | (Break, Break) | (Continue, Continue) => true,
        (Return(None), Return(None)) => true,
        (Return(Some(p)), Return(Some(c))) => expr_matches(p, c, classes, b),
        (Decl(p), Decl(c)) => {
            p.ty == c.ty
                && p.name == c.name
                && match (&p.init, &c.init) {
                    (None, None) => true,
                    (Some(Initializer::Expr(pe)), Some(Initializer::Expr(ce))) => {
                        expr_matches(pe, ce, classes, b)
                    }
                    _ => false,
                }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::{parse_expr, parse_stmt, Lexer, Parser};
    use std::collections::HashSet;

    fn pat(src: &str, wildcards: &[&str]) -> Expr {
        let (tokens, _) = Lexer::new(src).tokenize().unwrap();
        let wc: HashSet<String> = wildcards.iter().map(|s| s.to_string()).collect();
        let mut p = Parser::with_wildcards(tokens, wc);
        p.expr().unwrap()
    }

    fn classes(names: &[&str]) -> BTreeMap<String, TypeClass> {
        names
            .iter()
            .map(|n| (n.to_string(), TypeClass::Scalar))
            .collect()
    }

    #[test]
    fn literal_pattern_matches_exactly() {
        let p = pat("WAIT_FOR_DB_FULL(x)", &[]);
        let c = parse_expr("WAIT_FOR_DB_FULL(x)").unwrap();
        assert!(match_expr(&p, &c, &BTreeMap::new()).is_some());
        let c2 = parse_expr("WAIT_FOR_DB_FULL(y)").unwrap();
        assert!(match_expr(&p, &c2, &BTreeMap::new()).is_none());
    }

    #[test]
    fn wildcard_binds_argument() {
        let p = pat("WAIT_FOR_DB_FULL(addr)", &["addr"]);
        let c = parse_expr("WAIT_FOR_DB_FULL(hdr.address + 4)").unwrap();
        let b = match_expr(&p, &c, &classes(&["addr"])).unwrap();
        assert_eq!(mc_ast::print_expr(&b["addr"]), "hdr.address + 4");
    }

    #[test]
    fn repeated_wildcard_requires_equality() {
        let p = pat("copy(dst, dst)", &["dst"]);
        let same = parse_expr("copy(buf, buf)").unwrap();
        let diff = parse_expr("copy(buf, other)").unwrap();
        let cls = classes(&["dst"]);
        assert!(match_expr(&p, &same, &cls).is_some());
        assert!(match_expr(&p, &diff, &cls).is_none());
    }

    #[test]
    fn scalar_class_rejects_strings() {
        let p = pat("f(x)", &["x"]);
        let c = parse_expr("f(\"hello\")").unwrap();
        assert!(match_expr(&p, &c, &classes(&["x"])).is_none());
        // But Any admits it.
        let mut cls = BTreeMap::new();
        cls.insert("x".to_string(), TypeClass::Any);
        assert!(match_expr(&p, &c, &cls).is_some());
    }

    #[test]
    fn assignment_pattern() {
        let p = pat("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA", &[]);
        let c = parse_expr("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA").unwrap();
        assert!(match_expr(&p, &c, &BTreeMap::new()).is_some());
        let c2 = parse_expr("HANDLER_GLOBALS(header.nh.len) = LEN_WORD").unwrap();
        assert!(match_expr(&p, &c2, &BTreeMap::new()).is_none());
    }

    #[test]
    fn arity_must_match() {
        let p = pat("NI_SEND(t, F_DATA, k, w, d, n)", &["t", "k", "w", "d", "n"]);
        let six = parse_expr("NI_SEND(a, F_DATA, b, c, d, e)").unwrap();
        let five = parse_expr("NI_SEND(a, F_DATA, b, c, d)").unwrap();
        let cls = classes(&["t", "k", "w", "d", "n"]);
        assert!(match_expr(&p, &six, &cls).is_some());
        assert!(match_expr(&p, &five, &cls).is_none());
    }

    #[test]
    fn stmt_pattern_matches_expression_statement() {
        let pstmt = parse_stmt("f();").unwrap();
        let cstmt = parse_stmt("f();").unwrap();
        assert!(match_stmt(&pstmt, &cstmt, &BTreeMap::new()).is_some());
        let other = parse_stmt("g();").unwrap();
        assert!(match_stmt(&pstmt, &other, &BTreeMap::new()).is_none());
    }

    #[test]
    fn spelling_of_literals_ignored() {
        let p = pat("f(255)", &[]);
        let c = parse_expr("f(0xff)").unwrap();
        assert!(match_expr(&p, &c, &BTreeMap::new()).is_some());
    }

    #[test]
    fn nested_member_chains() {
        let p = pat("HANDLER_GLOBALS(header.nh.len)", &[]);
        let deep = parse_expr("HANDLER_GLOBALS(header.nh.len)").unwrap();
        let shallow = parse_expr("HANDLER_GLOBALS(header.len)").unwrap();
        assert!(match_expr(&p, &deep, &BTreeMap::new()).is_some());
        assert!(match_expr(&p, &shallow, &BTreeMap::new()).is_none());
    }
}
