//! The naive path enumerator: a state machine applied "down every path" of
//! a function, literally, one path at a time.
//!
//! [`run_naive`] shares no traversal code with
//! [`mc_cfg::run_traversal_with`]. It keeps its own depth-first walk, its
//! own per-path state dedup and its own call enumeration, and each path
//! carries its own [`FactSet`], driven only through the public per-edge
//! API. So a fault in the worklist's fact handling shows up as a
//! difference between the two.

use crate::operands;
use mc_ast::{Expr, Initializer, Span, StmtKind};
use mc_cfg::feasibility::const_of;
use mc_cfg::{
    BlockId, Cfg, FactSet, PathEvent, PathMachine, StepKind, SummaryLookup, Terminator, Traversal,
    TraversalStats, WitnessArena, WitnessId,
};
use std::collections::BTreeSet;

/// Runs `machine` over `cfg` from `init` by walking each path separately,
/// depth-first: the then-arm before the else-arm, switch arms in label
/// order with the no-match edge last. A block appears at most twice on one
/// path, so a loop body runs once and is re-examined at its head. At most
/// `max_paths` paths are explored; a path counts when it returns or is cut
/// at a third visit of a block.
///
/// The other arguments are [`mc_cfg::run_traversal_with`]'s. With
/// `traversal.prune`, an edge whose condition contradicts the facts of its
/// path is not followed; with an `oracle`, a call whose callee it resolves
/// drops the facts the callee's summary clobbers and fires a
/// [`PathEvent::Call`].
pub fn run_naive<M: PathMachine>(
    cfg: &Cfg,
    machine: &mut M,
    init: M::State,
    traversal: Traversal,
    oracle: Option<&dyn SummaryLookup>,
    max_paths: usize,
) -> TraversalStats {
    // Every `&x` of the function escapes before the first step: a store
    // through `*p` clobbers `x` even when the address was taken on another
    // path or after the fact about `x` was learned.
    let mut facts = FactSet::new();
    if traversal.prune {
        for block in &cfg.blocks {
            for node in &block.nodes {
                facts.seed_escapes_stmt(&node.stmt);
            }
            if let Some(e) = term_expr(&block.term) {
                facts.seed_escapes_expr(e);
            }
        }
    }
    let mut walk = Walk {
        cfg,
        machine,
        oracle,
        prune: traversal.prune,
        budget: max_paths,
        on_path: vec![0; cfg.blocks.len()],
        refuted: BTreeSet::new(),
        arena: WitnessArena::append_only(0),
    };
    walk.visit(cfg.entry, vec![init], facts, None);
    TraversalStats {
        refuted_edges: walk.refuted.len(),
    }
}

struct Walk<'a, M: PathMachine> {
    cfg: &'a Cfg,
    machine: &'a mut M,
    oracle: Option<&'a dyn SummaryLookup>,
    prune: bool,
    /// Paths left to explore.
    budget: usize,
    /// How often each block is on the current path.
    on_path: Vec<u8>,
    /// `(block, arm)` of every edge pruning refuted.
    refuted: BTreeSet<(BlockId, usize)>,
    arena: WitnessArena,
}

impl<M: PathMachine> Walk<'_, M> {
    /// Continues the current path into `block` with the states alive on it.
    fn visit(
        &mut self,
        block: BlockId,
        mut states: Vec<M::State>,
        mut facts: FactSet,
        mut wid: Option<WitnessId>,
    ) {
        if self.budget == 0 {
            return;
        }
        if self.on_path[block.0] >= 2 {
            self.budget -= 1;
            return;
        }
        self.on_path[block.0] += 1;
        let cfg = self.cfg;
        let b = cfg.block(block);
        for node in &b.nodes {
            if self.prune {
                facts.invalidate_stmt(&node.stmt);
            }
            wid = Some(self.arena.extend(wid, node.stmt.span, StepKind::Stmt));
            states = self.step(&states, &PathEvent::Stmt(&node.stmt), wid);
            let value = match &node.stmt.kind {
                StmtKind::Expr(e) => Some(e),
                StmtKind::Decl(d) => match &d.init {
                    Some(Initializer::Expr(e)) => Some(e),
                    _ => None,
                },
                _ => None,
            };
            if let (false, Some(e)) = (states.is_empty(), value) {
                states = self.calls(e, states, &mut facts, &mut wid);
            }
            if states.is_empty() {
                break;
            }
        }
        if let (false, Some(e)) = (states.is_empty(), term_expr(&b.term)) {
            states = self.calls(e, states, &mut facts, &mut wid);
        }
        if !states.is_empty() {
            self.leave(block, states, facts, wid);
        }
        self.on_path[block.0] -= 1;
    }

    /// Steps the terminator of `block`, then follows each edge that has
    /// live states in turn.
    fn leave(
        &mut self,
        block: BlockId,
        states: Vec<M::State>,
        mut facts: FactSet,
        wid: Option<WitnessId>,
    ) {
        let cfg = self.cfg;
        let mut edges = Vec::new();
        match &cfg.block(block).term {
            Terminator::Jump(t) => edges.push((*t, states, facts, wid)),
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => {
                if self.prune {
                    facts.invalidate_expr(cond);
                }
                for (arm, (taken, to)) in [(true, *then_to), (false, *else_to)]
                    .into_iter()
                    .enumerate()
                {
                    let Some(f) = self.edge(block, arm, &facts, |f| f.assume(cond, taken)) else {
                        continue;
                    };
                    let w = Some(self.arena.extend(wid, cond.span, StepKind::Branch(taken)));
                    let next = self.step(&states, &PathEvent::Branch { cond, taken }, w);
                    edges.push((to, next, f, w));
                }
            }
            Terminator::Switch {
                scrutinee,
                targets,
                fallthrough,
            } => {
                if self.prune {
                    facts.invalidate_expr(scrutinee);
                }
                let consts: Vec<_> = targets
                    .iter()
                    .filter_map(|(v, _)| v.as_ref().and_then(const_of))
                    .collect();
                let mut arms: Vec<(Option<&Expr>, BlockId)> =
                    targets.iter().map(|(v, to)| (v.as_ref(), *to)).collect();
                if targets.iter().all(|(v, _)| v.is_some()) {
                    arms.push((None, *fallthrough));
                }
                for (arm, (value, to)) in arms.into_iter().enumerate() {
                    let case = |f: &FactSet| f.assume_case(scrutinee, value, &consts);
                    let Some(f) = self.edge(block, arm, &facts, case) else {
                        continue;
                    };
                    let kind = match value {
                        Some(_) => StepKind::Case,
                        None => StepKind::CaseDefault,
                    };
                    let w = Some(self.arena.extend(wid, scrutinee.span, kind));
                    let next = self.step(&states, &PathEvent::Case { scrutinee, value }, w);
                    edges.push((to, next, f, w));
                }
            }
            Terminator::Return { value, span } => {
                let w = Some(self.arena.extend(wid, *span, StepKind::Return));
                let value = value.as_ref();
                self.step(&states, &PathEvent::Return { value, span: *span }, w);
                self.budget = self.budget.saturating_sub(1);
            }
        }
        for (to, states, facts, wid) in edges {
            if !states.is_empty() {
                self.visit(to, states, facts, wid);
            }
        }
    }

    /// The facts on edge `arm` of `block`, or `None` when `assume` refutes it.
    fn edge(
        &mut self,
        block: BlockId,
        arm: usize,
        facts: &FactSet,
        assume: impl FnOnce(&FactSet) -> Option<FactSet>,
    ) -> Option<FactSet> {
        if !self.prune {
            return Some(facts.clone());
        }
        let next = assume(facts);
        if next.is_none() {
            self.refuted.insert((block, arm));
        }
        next
    }

    /// Steps every state through `event`, keeping the first of equal
    /// successors.
    fn step(
        &mut self,
        states: &[M::State],
        event: &PathEvent<'_>,
        wid: Option<WitnessId>,
    ) -> Vec<M::State> {
        let witness = self.arena.witness(wid);
        let mut next: Vec<M::State> = Vec::new();
        for s in states {
            for n in self.machine.step(s, event, &witness) {
                if !next.contains(&n) {
                    next.push(n);
                }
            }
        }
        next
    }

    /// Fires the calls in `e` that the oracle resolves, in evaluation
    /// order, each after dropping the facts its callee clobbers.
    fn calls(
        &mut self,
        e: &Expr,
        mut states: Vec<M::State>,
        facts: &mut FactSet,
        wid: &mut Option<WitnessId>,
    ) -> Vec<M::State> {
        let Some(oracle) = self.oracle else {
            return states;
        };
        let mut calls = Vec::new();
        calls_in(e, &mut calls);
        for (name, span) in calls {
            let Some(summary) = oracle.lookup(name) else {
                continue;
            };
            if self.prune {
                for key in &summary.clobbers {
                    facts.invalidate_key(key);
                }
            }
            *wid = Some(
                self.arena
                    .extend(*wid, span, StepKind::Call(name.to_string())),
            );
            let event = PathEvent::Call {
                name,
                span,
                summary,
            };
            states = self.step(&states, &event, *wid);
            if states.is_empty() {
                break;
            }
        }
        states
    }
}

/// The expression a terminator evaluates, if any.
fn term_expr(term: &Terminator) -> Option<&Expr> {
    match term {
        Terminator::Jump(_) => None,
        Terminator::Branch { cond, .. } => Some(cond),
        Terminator::Switch { scrutinee, .. } => Some(scrutinee),
        Terminator::Return { value, .. } => value.as_ref(),
    }
}

/// The calls in `e`, each after the calls in its operands: the order the
/// callees run in.
fn calls_in<'e>(e: &'e Expr, out: &mut Vec<(&'e str, Span)>) {
    for o in operands(e) {
        calls_in(o, out);
    }
    if let Some((name, _)) = e.as_call() {
        out.push((name, e.span));
    }
}
