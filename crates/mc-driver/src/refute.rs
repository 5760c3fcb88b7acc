//! The symbolic refutation pass: every report's witness path is replayed
//! through the `mc-symx` slice + SMT-lite executor, and the decision lands
//! on the report as a [`Verdict`].
//!
//! The pass runs inside the per-function check (and once more over
//! program-pass reports), so the incremental engine caches *decided*
//! reports: warm and cold runs carry byte-identical verdicts. Soundness
//! policy is inherited from `mc-symx` — only a proven-UNSAT path condition
//! refutes; anything the executor cannot decide leaves the report
//! [`Verdict::Unchecked`].

use crate::driver::CheckedUnit;
use crate::report::{Report, Verdict};
use mc_ast::{
    Expr, ExprKind, ExternalDecl, Function, Initializer, Item, Stmt, StmtKind, TranslationUnit,
    UnaryOp,
};
use mc_symx::World;
use std::collections::{HashMap, HashSet};

/// A [`World`] over one translation unit: callee bodies by definition,
/// constants from enum variants and integer-initialized globals — the same
/// view `mc-sim` builds for the interpreter, so the symbolic executor and
/// concrete replay agree on what a manifest constant means. A global that
/// is *assigned* (or address-taken) anywhere in the unit is not a constant
/// at all — substituting its initializer for reads after the write would
/// refute feasible paths — so only write-free globals register.
pub(crate) struct UnitWorld<'a> {
    unit: &'a TranslationUnit,
    constants: HashMap<&'a str, i64>,
}

/// Records the written-to name behind an assignment target or `&` operand:
/// a plain identifier, possibly under casts. Member/index/deref targets
/// cannot name a scalar `int` global, so they are ignored here.
fn mark_written(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Ident(n) if !out.contains(n) => {
            out.insert(n.clone());
        }
        ExprKind::Cast { expr, .. } => mark_written(expr, out),
        _ => {}
    }
}

/// Collects every identifier the expression writes (assignments, inc/dec)
/// or lets escape (`&x`, through which a later store may write).
fn scan_writes(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Assign { lhs, .. } => mark_written(lhs, out),
        ExprKind::Unary {
            op: UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::AddrOf,
            operand,
        } => mark_written(operand, out),
        ExprKind::Postfix { operand, .. } => mark_written(operand, out),
        _ => {}
    }
    mc_symx::for_each_child(e, &mut |c| scan_writes(c, out));
}

fn scan_init(init: &Initializer, out: &mut HashSet<String>) {
    match init {
        Initializer::Expr(e) => scan_writes(e, out),
        Initializer::List(items) => items.iter().for_each(|i| scan_init(i, out)),
    }
}

fn scan_stmt(s: &Stmt, out: &mut HashSet<String>) {
    match &s.kind {
        StmtKind::Expr(e) => scan_writes(e, out),
        StmtKind::Decl(d) => {
            if let Some(init) = &d.init {
                scan_init(init, out);
            }
        }
        StmtKind::Block(body) => body.iter().for_each(|s| scan_stmt(s, out)),
        StmtKind::If { cond, then, els } => {
            scan_writes(cond, out);
            scan_stmt(then, out);
            if let Some(els) = els {
                scan_stmt(els, out);
            }
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
            scan_writes(cond, out);
            scan_stmt(body, out);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(init) = init {
                scan_stmt(init, out);
            }
            if let Some(cond) = cond {
                scan_writes(cond, out);
            }
            if let Some(step) = step {
                scan_writes(step, out);
            }
            scan_stmt(body, out);
        }
        StmtKind::Switch { scrutinee, cases } => {
            scan_writes(scrutinee, out);
            for c in cases {
                c.body.iter().for_each(|s| scan_stmt(s, out));
            }
        }
        StmtKind::Return(Some(e)) => scan_writes(e, out),
        StmtKind::Label(_, inner) => scan_stmt(inner, out),
        StmtKind::Empty
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Return(None)
        | StmtKind::Goto(_) => {}
    }
}

/// The sorted set of identifiers assigned or address-taken anywhere in
/// the unit's function bodies — the exact write set [`UnitWorld`] uses to
/// disqualify globals from constant registration. The red/green engine
/// folds it into the unit environment hash: an edit that starts (or
/// stops) writing a global can change the refutation verdicts of *every*
/// function in the unit, not just the edited one.
pub(crate) fn written_globals(unit: &TranslationUnit) -> Vec<String> {
    let mut assigned: HashSet<String> = HashSet::new();
    for item in &unit.items {
        if let Item::Function(f) = item {
            f.body.iter().for_each(|s| scan_stmt(s, &mut assigned));
        }
    }
    let mut names: Vec<String> = assigned.into_iter().collect();
    names.sort_unstable();
    names
}

impl<'a> UnitWorld<'a> {
    /// The world of `unit`, whose [`written_globals`] are `written`.
    pub(crate) fn new(unit: &'a TranslationUnit, written: &[String]) -> UnitWorld<'a> {
        let mut constants = HashMap::new();
        for item in &unit.items {
            match item {
                Item::Decl(ExternalDecl::EnumDef { variants, .. }) => {
                    // C enum semantics: implicit values continue from the
                    // last explicit one.
                    let mut next = 0i64;
                    for (name, value) in variants {
                        let v = value.unwrap_or(next);
                        constants.insert(name.as_str(), v);
                        next = v + 1;
                    }
                }
                Item::Decl(ExternalDecl::Var(d)) => {
                    if let Some(Initializer::Expr(e)) = &d.init {
                        if let ExprKind::IntLit(v, _) = e.kind {
                            if written.binary_search(&d.name).is_err() {
                                constants.insert(d.name.as_str(), v);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        UnitWorld { unit, constants }
    }
}

impl World for UnitWorld<'_> {
    fn function(&self, name: &str) -> Option<&Function> {
        self.unit.function(name)
    }

    fn constant(&self, name: &str) -> Option<i64> {
        self.constants.get(name).copied()
    }
}

/// Decides one report against the function its witness walks.
///
/// Reports with no witness, or reports about a different function (a
/// native checker may attribute a finding elsewhere), stay
/// [`Verdict::Unchecked`]. A refuted report keeps its text but drops to
/// confidence 0 — the path cannot execute, and renderers hide it by
/// default. A satisfiable report records the solver's replayable model so
/// concrete replay (`mc-sim`) can later promote it to
/// [`Verdict::Confirmed`].
pub(crate) fn decide(r: &mut Report, function: &Function, world: &UnitWorld<'_>) {
    if r.verdict != Verdict::Unchecked || r.steps.is_empty() || r.function != function.name {
        return;
    }
    match mc_symx::analyze_witness(function, &r.steps, world).verdict {
        mc_symx::Verdict::Refuted => {
            r.verdict = Verdict::Refuted;
            r.confidence = 0;
        }
        mc_symx::Verdict::Sat { model } => {
            r.verdict = Verdict::Sat;
            r.model = model;
        }
        mc_symx::Verdict::Unknown => {}
    }
}

/// Runs [`decide`] over program-pass reports, resolving each report's
/// function in the component's units by (file, name). Lane-quota traces
/// are not reconstructible (their steps are summary notes, not path
/// steps), so in practice these stay `Unchecked` — the walk is cheap and
/// keeps the policy uniform across report classes.
pub(crate) fn decide_program_reports(units: &[&CheckedUnit], reports: &mut [Report]) {
    for r in reports.iter_mut() {
        if r.steps.is_empty() {
            continue;
        }
        let Some(unit) = units.iter().find(|u| u.unit.file == r.file) else {
            continue;
        };
        let Some(function) = unit.unit.function(&r.function) else {
            continue;
        };
        let world = UnitWorld::new(&unit.unit, unit.written_globals());
        decide(r, function, &world);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::parse_translation_unit;

    #[test]
    fn unit_world_resolves_enum_and_const_globals() {
        let unit = parse_translation_unit(
            "enum Len { LEN_NODATA, LEN_WORD = 4, LEN_CACHELINE };\n\
             int G_LIMIT = 9;\n\
             void helper(void) { a(); }\n",
            "w.c",
        )
        .unwrap();
        let w = UnitWorld::new(&unit, &written_globals(&unit));
        assert_eq!(w.constant("LEN_NODATA"), Some(0));
        assert_eq!(w.constant("LEN_WORD"), Some(4));
        assert_eq!(w.constant("LEN_CACHELINE"), Some(5));
        assert_eq!(w.constant("G_LIMIT"), Some(9));
        assert_eq!(w.constant("UNKNOWN"), None);
        assert!(w.function("helper").is_some());
        assert!(w.function("missing").is_none());
    }

    #[test]
    fn assigned_globals_are_not_manifest_constants() {
        let unit = parse_translation_unit(
            "int G_SET = 9;\nint G_PTR = 7;\nint G_KEPT = 3;\n\
             void f(void) {\n  G_SET = 5;\n  use(&G_PTR);\n}\n",
            "w.c",
        )
        .unwrap();
        let w = UnitWorld::new(&unit, &written_globals(&unit));
        // Assigned or address-taken: the initializer is not the value at
        // every read, so it must not register as a constant.
        assert_eq!(w.constant("G_SET"), None);
        assert_eq!(w.constant("G_PTR"), None);
        assert_eq!(w.constant("G_KEPT"), Some(3));
    }

    #[test]
    fn writes_to_shouting_globals_do_not_refute() {
        use mc_cfg::{Cfg, PathStep, Terminator};
        // `G_LIMIT = 5; if (G_LIMIT == 5)` is concretely feasible; with
        // the initializer registered as a manifest constant the guard
        // would read 9 and the path would be unsoundly refuted.
        let unit = parse_translation_unit(
            "int G_LIMIT = 9;\nvoid f(void) {\n  G_LIMIT = 5;\n  if (G_LIMIT == 5) {\n    G_LIMIT = 0;\n  }\n}\n",
            "w.c",
        )
        .unwrap();
        let w = UnitWorld::new(&unit, &written_globals(&unit));
        let f = unit.function("f").unwrap();
        // Build engine-faithful steps straight off the CFG: the entry
        // statement, the taken branch, the then-block statement.
        let cfg = Cfg::build(f);
        let entry = &cfg.blocks[cfg.entry.0];
        let Terminator::Branch { cond, then_to, .. } = &entry.term else {
            panic!("expected branch terminator, got {:?}", entry.term);
        };
        let steps = vec![
            PathStep::new(entry.nodes[0].stmt.span, "statement"),
            PathStep::new(cond.span, "branch taken"),
            PathStep::new(cfg.blocks[then_to.0].nodes[0].stmt.span, "statement"),
        ];
        let a = mc_symx::analyze_witness(f, &steps, &w);
        assert!(
            !matches!(a.verdict, mc_symx::Verdict::Refuted),
            "feasible write-then-test path was refuted (stats: {:?})",
            a.stats
        );
    }
}
