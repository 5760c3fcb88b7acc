//! Witness paths: the execution trace that drove a state machine into an
//! error state.
//!
//! The paper stresses that metal reports were triaged by reading the *path*
//! that reaches the violation, not just its location. The traversal
//! therefore records, per in-flight state, a chain of `(span, event)` steps.
//! Paths share long prefixes (every fork copies the history up to the
//! branch), so the chains are stored as parent-pointer nodes in a
//! [`WitnessArena`]: extending a path appends one node, and the worklist
//! keeps carrying a cheap `Option<WitnessId>` next to each `(block, state,
//! facts)` key — the dedup key itself is unchanged, so the first witness to
//! reach a deduplicated state is the one that is kept.
//!
//! A machine only pays for materialization when a violation actually fires:
//! [`Witness::steps`] walks the parent chain once and reverses it into
//! entry-to-violation order.

use mc_ast::Span;
use mc_json::{FromJson, Json, JsonError, ToJson};

/// One step of a diagnostic's witness path, in execution order.
///
/// `file` is empty while the step lives inside a single-function traversal
/// (the function's file is implied); the driver fills it in when the step
/// is attached to a [`Report`]-level diagnostic, and interprocedural
/// summary steps carry their own file from the start.
///
/// [`Report`]: https://docs.rs/mc-driver
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathStep {
    /// File the step is in (may be empty: "same file as the report").
    pub file: String,
    /// Location of the step.
    pub span: Span,
    /// What happened there (`"branch taken"`, `` "call `free_buf`" ``, …).
    pub note: String,
}

impl PathStep {
    /// Creates a step with an empty file (same file as the report).
    pub fn new(span: Span, note: impl Into<String>) -> PathStep {
        PathStep {
            file: String::new(),
            span,
            note: note.into(),
        }
    }
}

/// The transition event recorded at one witness node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// An ordinary statement was executed.
    Stmt,
    /// A branch condition was evaluated; `true` means the then-edge.
    Branch(bool),
    /// A switch dispatched to a labeled case.
    Case,
    /// A switch dispatched to its default / fallthrough edge.
    CaseDefault,
    /// The function returned.
    Return,
    /// A summarized callee was applied at a call site.
    Call(String),
}

impl StepKind {
    /// Human-readable rendering used when a witness is materialized.
    pub fn note(&self) -> String {
        match self {
            StepKind::Stmt => "statement".to_string(),
            StepKind::Branch(true) => "branch taken".to_string(),
            StepKind::Branch(false) => "branch not taken".to_string(),
            StepKind::Case => "switch case".to_string(),
            StepKind::CaseDefault => "switch default".to_string(),
            StepKind::Return => "return".to_string(),
            StepKind::Call(name) => format!("call `{name}`"),
        }
    }
}

impl ToJson for PathStep {
    fn to_json(&self) -> Json {
        mc_json::object(vec![
            ("file", self.file.to_json()),
            ("span", self.span.to_json()),
            ("note", self.note.to_json()),
        ])
    }
}

impl FromJson for PathStep {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(PathStep {
            file: mc_json::field_or_default(v, "file")?,
            span: mc_json::field(v, "span")?,
            note: mc_json::field(v, "note")?,
        })
    }
}

/// Handle to one witness node in a [`WitnessArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WitnessId(u32);

/// Append-only parent-pointer storage for witness chains.
///
/// Cost model: every extension is a fresh node, so the arena grows linearly
/// with the events a traversal steps. The worklist visits each `(block,
/// state, facts)` key once and so never re-extends the same parent with the
/// same step; materialization walks parent chains and never compares ids.
#[derive(Debug)]
pub struct WitnessArena {
    /// `(parent, span, kind)` per node, indexed by [`WitnessId`].
    nodes: Vec<(Option<WitnessId>, Span, StepKind)>,
}

impl WitnessArena {
    /// Creates an empty arena sized for roughly `nodes` extensions.
    pub fn append_only(nodes: usize) -> WitnessArena {
        WitnessArena {
            nodes: Vec::with_capacity(nodes),
        }
    }

    /// Extends `parent` by one step, recording a fresh node.
    pub fn extend(&mut self, parent: Option<WitnessId>, span: Span, kind: StepKind) -> WitnessId {
        let next = WitnessId(u32::try_from(self.nodes.len()).expect("witness arena overflow"));
        self.nodes.push((parent, span, kind));
        next
    }

    /// A borrowing handle for the chain ending at `tip`.
    pub fn witness(&self, tip: Option<WitnessId>) -> Witness<'_> {
        Witness { arena: self, tip }
    }

    /// Materializes the chain ending at `tip` into execution order.
    pub fn steps(&self, tip: Option<WitnessId>) -> Vec<PathStep> {
        let mut out = Vec::new();
        let mut cur = tip;
        while let Some(id) = cur {
            let (parent, span, kind) = &self.nodes[id.0 as usize];
            out.push(PathStep::new(*span, kind.note()));
            cur = *parent;
        }
        out.reverse();
        out
    }
}

/// The witness handed to [`PathMachine::step`]: the path that led to the
/// event being stepped, including the event itself as the final step.
///
/// Materialization is lazy — machines that don't fire pay only for the
/// pointer copy.
///
/// [`PathMachine::step`]: crate::PathMachine::step
#[derive(Debug, Clone, Copy)]
pub struct Witness<'a> {
    arena: &'a WitnessArena,
    tip: Option<WitnessId>,
}

impl Witness<'_> {
    /// The steps from function entry to (and including) the current event.
    pub fn steps(&self) -> Vec<PathStep> {
        self.arena.steps(self.tip)
    }

    /// Whether no step was recorded (only possible before the first event).
    pub fn is_empty(&self) -> bool {
        self.tip.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_materialize_in_execution_order() {
        let mut arena = WitnessArena::append_only(0);
        let a = arena.extend(None, Span::new(1, 1), StepKind::Stmt);
        let b = arena.extend(Some(a), Span::new(2, 3), StepKind::Branch(true));
        let c = arena.extend(Some(b), Span::new(3, 5), StepKind::Return);
        let steps = arena.steps(Some(c));
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].span, Span::new(1, 1));
        assert_eq!(steps[0].note, "statement");
        assert_eq!(steps[1].note, "branch taken");
        assert_eq!(steps[2].note, "return");
        assert!(steps.iter().all(|s| s.file.is_empty()));
    }

    #[test]
    fn empty_witness_has_no_steps() {
        let arena = WitnessArena::append_only(0);
        let w = arena.witness(None);
        assert!(w.is_empty());
        assert!(w.steps().is_empty());
    }

    #[test]
    fn call_steps_name_the_callee() {
        let mut arena = WitnessArena::append_only(0);
        let a = arena.extend(None, Span::new(4, 2), StepKind::Call("free_buf".into()));
        let steps = arena.steps(Some(a));
        assert_eq!(steps[0].note, "call `free_buf`");
    }
}
