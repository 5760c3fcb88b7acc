//! The metal program representation.

use mc_ast::{Expr, ExprKind, Span, Stmt, StmtKind};
use std::collections::BTreeMap;

/// The type class of a wildcard variable, from `decl { class } name;`.
///
/// The paper's checkers use `scalar` (any C integer expression) and
/// `unsigned`; metal's classes restrict what a wildcard may bind to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeClass {
    /// Any integer-ish expression (excludes string and float literals).
    Scalar,
    /// Alias of [`TypeClass::Scalar`] in this implementation (we do not run
    /// full type inference; the distinction never changes a match in the
    /// paper's checkers).
    Unsigned,
    /// Any expression at all.
    Any,
}

impl TypeClass {
    /// Whether an expression may bind to a wildcard of this class.
    pub fn admits(self, e: &Expr) -> bool {
        match self {
            TypeClass::Any => true,
            TypeClass::Scalar | TypeClass::Unsigned => {
                !matches!(e.kind, ExprKind::StrLit(_) | ExprKind::FloatLit(..))
            }
        }
    }
}

/// A compiled pattern: a C fragment with wildcard holes.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// The fragment.
    pub kind: PatternKind,
    /// Identifiers (non-wildcard) that must appear in a node for this
    /// pattern to possibly match — a cheap pre-filter index. See
    /// [`Pattern::required_idents`].
    required: Vec<String>,
}

/// The two fragment shapes a `{ ... }` pattern can take.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternKind {
    /// An expression pattern; matches any subexpression of an event.
    Expr(Expr),
    /// A statement pattern; matches a whole statement.
    Stmt(Stmt),
}

impl Pattern {
    /// Creates a pattern from a parsed fragment, computing the ident index.
    pub fn new(kind: PatternKind) -> Pattern {
        let mut required = Vec::new();
        match &kind {
            PatternKind::Expr(e) => collect_idents_expr(e, &mut required),
            PatternKind::Stmt(s) => collect_idents_stmt(s, &mut required),
        }
        required.sort();
        required.dedup();
        Pattern { kind, required }
    }

    /// Non-wildcard identifiers the pattern mentions. A candidate node that
    /// does not contain all of them cannot match, so the engine can skip
    /// the full structural comparison (the "pattern indexing" ablation).
    pub fn required_idents(&self) -> &[String] {
        &self.required
    }
}

fn collect_idents_expr(e: &Expr, out: &mut Vec<String>) {
    struct V<'a>(&'a mut Vec<String>);
    impl mc_ast::Visitor for V<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Ident(name) = &e.kind {
                self.0.push(name.clone());
            }
        }
    }
    let mut v = V(out);
    mc_ast::Visitor::visit_expr(&mut v, e);
    mc_ast::walk_expr(&mut v, e);
}

fn collect_idents_stmt(s: &Stmt, out: &mut Vec<String>) {
    if let StmtKind::Expr(e) = &s.kind {
        collect_idents_expr(e, out);
        return;
    }
    struct V<'a>(&'a mut Vec<String>);
    impl mc_ast::Visitor for V<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprKind::Ident(name) = &e.kind {
                self.0.push(name.clone());
            }
        }
    }
    let mut v = V(out);
    mc_ast::walk_stmt(&mut v, s);
}

/// Index of a state within a [`MetalProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub usize);

/// Where a rule sends the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleTarget {
    /// Stay in the current state (rule had no state after `==>`).
    Stay,
    /// Go to the named state.
    Goto(StateId),
    /// Stop checking this path (the built-in `stop` state).
    Stop,
}

/// An action executed when a rule fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// `err("message")` — report an error at the matched location. The
    /// message may reference wildcard bindings with `%name`.
    Err(String),
    /// `warn("message")` — like `err` but reported at warning severity.
    Warn(String),
}

/// One rule of a state: pattern alternatives, a target, and actions.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Pattern alternatives (`|`-joined in the source, named patterns
    /// already expanded).
    pub patterns: Vec<Pattern>,
    /// Where to transition when a pattern matches.
    pub target: RuleTarget,
    /// Actions to run on a match.
    pub actions: Vec<Action>,
    /// Location of the rule's first token in the metal source, for
    /// load-time diagnostics (shadowed rules, unbound interpolations).
    pub span: Span,
}

/// A named state and its rules.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDef {
    /// State name as written.
    pub name: String,
    /// Rules, in source order (first match wins).
    pub rules: Vec<Rule>,
    /// Location of the state's name token in the metal source, for the
    /// unreachable-state diagnostic.
    pub span: Span,
}

/// A parsed metal program.
#[derive(Debug, Clone, PartialEq)]
pub struct MetalProgram {
    /// Machine name from `sm NAME { ... }`.
    pub name: String,
    /// Raw text of the `{ ... }` prologue before `sm`, if any (the paper's
    /// examples carry `#include "flash-includes.h"` there).
    pub prologue: Option<String>,
    /// Wildcard variables and their classes.
    pub wildcards: BTreeMap<String, TypeClass>,
    /// States in declaration order. The machine starts in the first state
    /// that is not `all`.
    pub states: Vec<StateDef>,
    /// Index of the special `all` state whose rules apply in every state,
    /// if declared.
    pub all_state: Option<StateId>,
}

impl MetalProgram {
    /// The id of the start state: the first declared state. When the first
    /// state is `all` (as in Figure 3 of the paper), the machine starts
    /// there — a neutral state in which only the always-applied rules run
    /// until one of them transitions elsewhere.
    pub fn start_state(&self) -> StateId {
        StateId(0)
    }

    /// Looks up a state id by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states.iter().position(|s| s.name == name).map(StateId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::parse_expr;

    #[test]
    fn typeclass_admits() {
        let int = parse_expr("x + 1").unwrap();
        let s = parse_expr("\"str\"").unwrap();
        assert!(TypeClass::Scalar.admits(&int));
        assert!(!TypeClass::Scalar.admits(&s));
        assert!(TypeClass::Any.admits(&s));
    }

    #[test]
    fn required_idents_collected() {
        let e = parse_expr("PI_SEND(F_DATA, keep, swap)").unwrap();
        let p = Pattern::new(PatternKind::Expr(e));
        let req = p.required_idents();
        assert!(req.contains(&"PI_SEND".to_string()));
        assert!(req.contains(&"F_DATA".to_string()));
    }
}
