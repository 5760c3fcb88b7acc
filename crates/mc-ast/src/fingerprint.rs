//! Stable structural fingerprints for translation units.
//!
//! The incremental check engine keys cached artifacts by *content*, not by
//! file path or mtime: two sources with the same fingerprint are guaranteed
//! to produce the same parse, the same CFGs, and the same checker reports.
//! Two hashes are computed per unit:
//!
//! * [`Fingerprint::source`] — FNV-1a over the raw source bytes. Cheap
//!   (no parse needed), so a warm run can recognise an unchanged file
//!   without touching the front end at all.
//! * [`Fingerprint::ast`] — FNV-1a over the pretty-printed AST *plus every
//!   node span*, folded item by item (each function contributes its
//!   [`FnFingerprint::body`]). The printer normalises whitespace and the
//!   lexer drops comments, so edits that do not displace any token
//!   (trailing spaces, comment text on an existing line, a comment added
//!   after the last item) hash identically. Edits that *do* shift line or
//!   column numbers change
//!   the span fold and therefore the hash — deliberately, because checker
//!   reports embed source positions, and replaying a cached report with a
//!   stale position would be wrong. Cache-safety policy: any doubt is a
//!   miss.
//!
//! The hasher is the vendored dependency-free FNV-1a (the same
//! splitmix/FNV family the corpus RNG uses); it is not cryptographic, which
//! is fine for a cache whose worst collision outcome is a stale report that
//! the determinism tests would catch.

use crate::ast::{
    Declaration, Expr, ExprKind, ExternalDecl, Function, Initializer, Item, Stmt, StmtKind,
    SwitchCase, TranslationUnit,
};
use crate::printer::{print_external_decl_text, print_function_signature, print_function_text};
use crate::token::Span;

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64-bit hasher.
///
/// Dependency-free and deterministic across platforms and runs (unlike
/// `std::collections::hash_map::DefaultHasher`, which is randomly seeded
/// per process and therefore useless for on-disk cache keys).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a string (as UTF-8 bytes, length-prefixed so that adjacent
    /// fields cannot alias each other's boundaries).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes())
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// The two content hashes of one translation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// FNV-1a over the raw source text.
    pub source: u64,
    /// FNV-1a over the printed AST plus every node span.
    pub ast: u64,
}

impl Fingerprint {
    /// Hashes raw source text (no parse required).
    pub fn of_source(src: &str) -> u64 {
        fnv1a(src.as_bytes())
    }

    /// Hashes a parsed unit: printed form (whitespace/comment-normalised)
    /// plus the span of every node (so cached diagnostics never point at
    /// stale positions).
    pub fn of_unit(unit: &TranslationUnit) -> u64 {
        let fns: Vec<FnFingerprint> = unit.functions().map(Fingerprint::of_function).collect();
        Fingerprint::of_unit_with(unit, &fns)
    }

    /// [`Fingerprint::of_unit`] from the unit's per-function fingerprints
    /// (definition order), for callers that already hold them: the fold of
    /// every preprocessor line and every item's fingerprint in item order,
    /// so each function is printed and span-walked once, not twice.
    ///
    /// # Panics
    ///
    /// Panics if `fns` has fewer entries than the unit has functions.
    pub fn of_unit_with(unit: &TranslationUnit, fns: &[FnFingerprint]) -> u64 {
        let mut h = Fnv1a::new();
        for line in &unit.preprocessor_lines {
            h.write_str(line);
        }
        let mut fns = fns.iter();
        for item in &unit.items {
            match item {
                Item::Function(_) => {
                    let fp = fns.next().expect("one fingerprint per function");
                    h.write_u64(1).write_u64(fp.body);
                }
                Item::Decl(d) => {
                    h.write_u64(2).write_u64(decl_fingerprint(d));
                }
            }
        }
        h.finish()
    }

    /// Both hashes of a parsed unit whose original text is at hand.
    pub fn new(src: &str, unit: &TranslationUnit) -> Fingerprint {
        Fingerprint {
            source: Fingerprint::of_source(src),
            ast: Fingerprint::of_unit(unit),
        }
    }

    /// Both hashes of one function definition (see [`FnFingerprint`]).
    pub fn of_function(f: &Function) -> FnFingerprint {
        let sig = {
            let mut h = Fnv1a::new();
            h.write_str(&print_function_signature(f));
            h.finish()
        };
        let body = {
            let mut h = Fnv1a::new();
            h.write_u64(sig);
            h.write_str(&print_function_text(f));
            fold_function(&mut h, f);
            h.finish()
        };
        FnFingerprint { body, sig }
    }

    /// Hash of a unit's *environment*: everything that can influence a
    /// function's checks other than function bodies themselves —
    /// preprocessor lines and every non-function item (globals with their
    /// initializers, prototypes, struct/enum/typedef definitions), printed
    /// and span-folded. Two units with equal environment hashes present
    /// identical surroundings to any one function body.
    pub fn of_unit_env(unit: &TranslationUnit) -> u64 {
        let mut h = Fnv1a::new();
        for line in &unit.preprocessor_lines {
            h.write_str(line);
        }
        for item in &unit.items {
            if let Item::Decl(d) = item {
                h.write_u64(decl_fingerprint(d));
            }
        }
        h.finish()
    }
}

/// Printed text plus spans of one non-function item.
fn decl_fingerprint(d: &ExternalDecl) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(&print_external_decl_text(d));
    fold_external(&mut h, d);
    h.finish()
}

/// The two content hashes of one function definition, the unit of
/// red/green invalidation in the incremental engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FnFingerprint {
    /// FNV-1a over the signature hash plus the whole printed definition
    /// plus every node span. Any edit that could change this function's
    /// own reports — including pure position shifts — changes this hash.
    pub body: u64,
    /// FNV-1a over the printed interface only (storage class, return type,
    /// name, parameters). Body-only edits leave it unchanged, which is
    /// what lets dependents stay green across them.
    pub sig: u64,
}

fn fold_span(h: &mut Fnv1a, span: Span) {
    h.write_u64((u64::from(span.line) << 32) | u64::from(span.col));
}

fn fold_function(h: &mut Fnv1a, f: &Function) {
    fold_span(h, f.span);
    for s in &f.body {
        fold_stmt(h, s);
    }
}

fn fold_external(h: &mut Fnv1a, d: &ExternalDecl) {
    match d {
        ExternalDecl::Var(decl) => fold_decl(h, decl),
        ExternalDecl::Proto(f) => fold_function(h, f),
        ExternalDecl::Struct(s) => fold_span(h, s.span),
        ExternalDecl::Typedef { span, .. } => fold_span(h, *span),
        ExternalDecl::EnumDef { span, .. } => fold_span(h, *span),
    }
}

fn fold_decl(h: &mut Fnv1a, d: &Declaration) {
    fold_span(h, d.span);
    if let Some(init) = &d.init {
        fold_initializer(h, init);
    }
}

fn fold_initializer(h: &mut Fnv1a, init: &Initializer) {
    match init {
        Initializer::Expr(e) => fold_expr(h, e),
        Initializer::List(items) => {
            for i in items {
                fold_initializer(h, i);
            }
        }
    }
}

fn fold_case(h: &mut Fnv1a, case: &SwitchCase) {
    fold_span(h, case.span);
    if let Some(v) = &case.value {
        fold_expr(h, v);
    }
    for s in &case.body {
        fold_stmt(h, s);
    }
}

fn fold_stmt(h: &mut Fnv1a, s: &Stmt) {
    fold_span(h, s.span);
    match &s.kind {
        StmtKind::Expr(e) => fold_expr(h, e),
        StmtKind::Decl(d) => fold_decl(h, d),
        StmtKind::Empty | StmtKind::Break | StmtKind::Continue | StmtKind::Goto(_) => {}
        StmtKind::Block(body) => {
            for s in body {
                fold_stmt(h, s);
            }
        }
        StmtKind::If { cond, then, els } => {
            fold_expr(h, cond);
            fold_stmt(h, then);
            if let Some(e) = els {
                fold_stmt(h, e);
            }
        }
        StmtKind::While { cond, body } => {
            fold_expr(h, cond);
            fold_stmt(h, body);
        }
        StmtKind::DoWhile { body, cond } => {
            fold_stmt(h, body);
            fold_expr(h, cond);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                fold_stmt(h, i);
            }
            if let Some(c) = cond {
                fold_expr(h, c);
            }
            if let Some(st) = step {
                fold_expr(h, st);
            }
            fold_stmt(h, body);
        }
        StmtKind::Switch { scrutinee, cases } => {
            fold_expr(h, scrutinee);
            for c in cases {
                fold_case(h, c);
            }
        }
        StmtKind::Return(v) => {
            if let Some(e) = v {
                fold_expr(h, e);
            }
        }
        StmtKind::Label(_, inner) => fold_stmt(h, inner),
    }
}

fn fold_expr(h: &mut Fnv1a, e: &Expr) {
    fold_span(h, e.span);
    match &e.kind {
        ExprKind::IntLit(..)
        | ExprKind::FloatLit(..)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Ident(_)
        | ExprKind::SizeofType(_)
        | ExprKind::Wildcard(_) => {}
        ExprKind::Call { callee, args } => {
            fold_expr(h, callee);
            for a in args {
                fold_expr(h, a);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            fold_expr(h, lhs);
            fold_expr(h, rhs);
        }
        ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => {
            fold_expr(h, operand)
        }
        ExprKind::Ternary { cond, then, els } => {
            fold_expr(h, cond);
            fold_expr(h, then);
            fold_expr(h, els);
        }
        ExprKind::Index { base, index } => {
            fold_expr(h, base);
            fold_expr(h, index);
        }
        ExprKind::Member { base, .. } => fold_expr(h, base),
        ExprKind::Cast { expr, .. } => fold_expr(h, expr),
        ExprKind::Comma(a, b) => {
            fold_expr(h, a);
            fold_expr(h, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_translation_unit;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn source_hash_is_deterministic_and_content_addressed() {
        let a = Fingerprint::of_source("void f(void) { g(); }");
        let b = Fingerprint::of_source("void f(void) { g(); }");
        let c = Fingerprint::of_source("void f(void) { h(); }");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    fn ast_fp(src: &str) -> u64 {
        Fingerprint::of_unit(&parse_translation_unit(src, "t.c").unwrap())
    }

    #[test]
    fn layout_neutral_edits_hash_identically() {
        let base = ast_fp("void f(void) { g(); }");
        // Trailing whitespace and a comment after the last token displace
        // no code, so positions — and therefore reports — are unchanged.
        assert_eq!(base, ast_fp("void f(void) { g(); }   "));
        assert_eq!(base, ast_fp("void f(void) { g(); } /* reviewed */"));
        assert_eq!(base, ast_fp("void f(void) { g(); }\n/* trailer */\n"));
    }

    #[test]
    fn edits_that_displace_code_change_the_hash() {
        let base = ast_fp("void f(void) { g(); }");
        // A comment line above the code shifts every line number; cached
        // reports would point at the wrong lines, so this must miss.
        assert_ne!(base, ast_fp("/* new header */\nvoid f(void) { g(); }"));
        // Indentation shifts columns.
        assert_ne!(base, ast_fp("void f(void) {     g(); }"));
        // And, of course, semantic edits miss.
        assert_ne!(base, ast_fp("void f(void) { h(); }"));
    }

    #[test]
    fn ast_hash_covers_nested_constructs() {
        let src = |arm: &str| {
            format!(
                "int g;\nvoid f(int n) {{\n  for (i = 0; i < n; i++) {{\n    switch (n) {{\n      case 1: {arm}; break;\n      default: d();\n    }}\n  }}\n}}\n"
            )
        };
        assert_ne!(ast_fp(&src("a()")), ast_fp(&src("b()")));
    }

    #[test]
    fn ast_hash_sees_every_item_kind_and_item_order() {
        let base = ast_fp("int gLen = 4;\nvoid f(void) { g(); }");
        assert_ne!(base, ast_fp("int gLen = 5;\nvoid f(void) { g(); }"));
        assert_ne!(
            base,
            ast_fp("#define LIMIT 8\nint gLen = 4;\nvoid f(void) { g(); }")
        );
        assert_ne!(
            ast_fp("void a(void) { x(); }\nvoid b(void) { y(); }"),
            ast_fp("void b(void) { y(); }\nvoid a(void) { x(); }")
        );
    }

    #[test]
    fn fingerprint_new_combines_both() {
        let src = "void f(void) { g(); }";
        let unit = parse_translation_unit(src, "t.c").unwrap();
        let fp = Fingerprint::new(src, &unit);
        assert_eq!(fp.source, Fingerprint::of_source(src));
        assert_eq!(fp.ast, Fingerprint::of_unit(&unit));
    }

    fn fn_fp(src: &str) -> FnFingerprint {
        let unit = parse_translation_unit(src, "t.c").unwrap();
        let f = unit.functions().next().unwrap();
        Fingerprint::of_function(f)
    }

    #[test]
    fn body_only_edits_keep_the_signature_hash() {
        let a = fn_fp("void f(int n) { g(); }");
        let b = fn_fp("void f(int n) { h(); }");
        assert_ne!(a.body, b.body);
        assert_eq!(a.sig, b.sig);
    }

    #[test]
    fn signature_edits_change_both_hashes() {
        let a = fn_fp("void f(int n) { g(); }");
        let b = fn_fp("void f(int m) { g(); }");
        assert_ne!(a.sig, b.sig);
        assert_ne!(a.body, b.body);
        let c = fn_fp("int f(int n) { g(); }");
        assert_ne!(a.sig, c.sig);
    }

    #[test]
    fn function_body_hash_covers_spans() {
        // The same tokens at displaced positions must miss: cached reports
        // carry line/col.
        let a = fn_fp("void f(void) { g(); }");
        let b = fn_fp("\nvoid f(void) { g(); }");
        assert_eq!(a.sig, b.sig);
        assert_ne!(a.body, b.body);
    }

    fn env_fp(src: &str) -> u64 {
        Fingerprint::of_unit_env(&parse_translation_unit(src, "t.c").unwrap())
    }

    #[test]
    fn unit_env_hash_ignores_function_bodies() {
        assert_eq!(
            env_fp("int gLen = 4;\nvoid f(void) { g(); }"),
            env_fp("int gLen = 4;\nvoid f(void) { h(); i(); }")
        );
    }

    #[test]
    fn unit_env_hash_sees_globals_and_preprocessor_lines() {
        let base = env_fp("int gLen = 4;\nvoid f(void) { g(); }");
        assert_ne!(base, env_fp("int gLen = 5;\nvoid f(void) { g(); }"));
        assert_ne!(
            base,
            env_fp("#define LIMIT 8\nint gLen = 4;\nvoid f(void) { g(); }")
        );
    }

    #[test]
    fn hasher_field_framing_prevents_aliasing() {
        // "ab" + "c" must not hash like "a" + "bc" (length prefixes).
        let mut h1 = Fnv1a::new();
        h1.write_str("ab").write_str("c");
        let mut h2 = Fnv1a::new();
        h2.write_str("a").write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }
}
