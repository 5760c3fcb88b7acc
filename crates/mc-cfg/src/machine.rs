//! Path-sensitive execution of checker state machines over a CFG.
//!
//! This is the engine behind "metal programs ... are applied down every path
//! in each function". A checker implements [`PathMachine`]: given a state
//! and a [`PathEvent`] it returns the successor states (possibly several —
//! metal patterns may fork — or none, which prunes the path, as the `stop`
//! state does).
//!
//! The traversal is a worklist over `(block, state, facts)` keys that
//! merges identical checker states at join points. For a finite-state
//! checker this reports exactly what walking every path separately would,
//! in polynomial time. The literal walk the paper describes lives in the
//! test-only `mc-oracle` crate, which holds this traversal to its reports.

use crate::build::{BlockId, Cfg, Terminator};
use crate::feasibility::{const_of, Const, FactSet};
use crate::summary::{calls_in_expr, calls_in_stmt, FnSummary, SummaryLookup};
use crate::witness::{StepKind, Witness, WitnessArena, WitnessId};
use mc_ast::{Expr, Span, Stmt};
use std::hash::Hash;

/// An observable event along an execution path.
#[derive(Debug, Clone, Copy)]
pub enum PathEvent<'a> {
    /// An atomic statement (expression statement or declaration).
    Stmt(&'a Stmt),
    /// A conditional branch on `cond`; `taken` tells which arm this path
    /// follows.
    Branch {
        /// The branch condition.
        cond: &'a Expr,
        /// `true` on the then-edge, `false` on the else-edge.
        taken: bool,
    },
    /// Entry into a switch arm.
    Case {
        /// The switched expression.
        scrutinee: &'a Expr,
        /// The case label value (`None` for `default` or for the implicit
        /// no-match fallthrough edge).
        value: Option<&'a Expr>,
    },
    /// Function exit via `return` (or the implicit end-of-body return).
    Return {
        /// Returned value, if any.
        value: Option<&'a Expr>,
        /// Location of the return.
        span: Span,
    },
    /// A call to a function whose summary is known. Fired only when the
    /// traversal runs with a summary oracle ([`run_traversal_with`]) *and*
    /// the oracle resolves the callee — without an oracle, calls stay
    /// invisible and machines behave exactly as before summaries existed.
    ///
    /// Call events fire after the [`PathEvent::Stmt`] containing the call
    /// (in evaluation order for multiple calls in one statement), and for
    /// calls inside a terminator expression (branch condition, switch
    /// scrutinee, return value) before the corresponding branch/case/return
    /// events.
    Call {
        /// Callee name.
        name: &'a str,
        /// Location of the call expression.
        span: Span,
        /// The callee's summary, as resolved by the oracle.
        summary: &'a FnSummary,
    },
}

/// A path-sensitive state machine to run over a CFG.
pub trait PathMachine {
    /// Checker state. Must be finite-ish and hashable so the traversal
    /// can merge; metal SM states are.
    type State: Clone + Eq + Hash;

    /// Consumes one event in `state`; returns successor states. Returning
    /// an empty vector prunes this path (metal's `stop` state). Returning
    /// more than one state forks the path analysis.
    ///
    /// `witness` is the execution path that led here, ending with the event
    /// being stepped. Machines that fire a violation materialize it
    /// ([`Witness::steps`]) into the diagnostic; everyone else ignores it
    /// for free.
    ///
    /// Side effects (error reports) are recorded on `&mut self`.
    fn step(
        &mut self,
        state: &Self::State,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
    ) -> Vec<Self::State>;

    /// Buffer-reusing form of [`PathMachine::step`]: pushes the successor
    /// states onto `out` instead of returning a fresh vector. The state-set
    /// traversal calls this from its hot loop with a reused buffer; the
    /// default forwards to [`PathMachine::step`], so existing machines keep
    /// their exact behavior, while allocation-sensitive machines (the
    /// compiled metal engine) override it to step without allocating.
    fn step_into(
        &mut self,
        state: &Self::State,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
        out: &mut Vec<Self::State>,
    ) {
        out.extend(self.step(state, event, witness));
    }
}

/// Traversal settings: whether infeasible edges are pruned by the
/// [`crate::feasibility`] analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal {
    /// When `true`, branch/switch edges whose condition contradicts the
    /// facts accumulated along the path are not followed.
    pub prune: bool,
}

impl Traversal {
    /// A pruning traversal (the driver default).
    pub fn new() -> Traversal {
        Traversal { prune: true }
    }

    /// A traversal that walks every syntactic path, feasible or not —
    /// the paper's original behavior.
    pub fn without_pruning() -> Traversal {
        Traversal { prune: false }
    }

    /// A stable token identifying these settings, for content-addressed
    /// cache keys: pruning changes checker output, so results computed
    /// under different settings must never alias. The `state-set` prefix
    /// is kept so that existing cache records stay valid.
    pub fn cache_token(&self) -> String {
        format!("state-set+{}", if self.prune { "prune" } else { "noprune" })
    }
}

impl Default for Traversal {
    fn default() -> Traversal {
        Traversal::new()
    }
}

/// What a traversal observed about path feasibility.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Number of distinct CFG edges refuted as infeasible (counted once per
    /// edge no matter how many paths reached it).
    pub refuted_edges: usize,
}

/// Runs `machine` over `cfg` starting from `init`, walking every
/// syntactic path without feasibility pruning.
pub fn run_machine<M: PathMachine>(cfg: &Cfg, machine: &mut M, init: M::State) {
    run_traversal(cfg, machine, init, Traversal::without_pruning());
}

/// Runs `machine` over `cfg` starting from `init` with the given traversal
/// settings, returning feasibility statistics.
pub fn run_traversal<M: PathMachine>(
    cfg: &Cfg,
    machine: &mut M,
    init: M::State,
    traversal: Traversal,
) -> TraversalStats {
    run_traversal_with(cfg, machine, init, traversal, None)
}

/// Like [`run_traversal`], but consults `oracle` at call sites: a call whose
/// callee the oracle resolves fires a [`PathEvent::Call`] carrying the
/// summary (after applying the summary's clobber set to the feasibility
/// facts). With `oracle` of `None` this is byte-for-byte [`run_traversal`].
pub fn run_traversal_with<M: PathMachine>(
    cfg: &Cfg,
    machine: &mut M,
    init: M::State,
    traversal: Traversal,
    oracle: Option<&dyn SummaryLookup>,
) -> TraversalStats {
    let prune = traversal.prune;
    let init_facts = initial_facts(cfg, prune);
    let mut refuted: FastSet<(BlockId, usize)> = FastSet::default();
    // A single-state machine visits each event about once, so the node
    // count is the right order of magnitude for the arena; wide state sets
    // merely grow it once more.
    let events: usize = cfg.blocks.iter().map(|b| b.nodes.len() + 1).sum();
    let mut arena = WitnessArena::append_only(events);
    // The fact set is part of the visited key: identical checker states
    // with incompatible facts stay distinct (the sound join — merging them
    // would let facts from one path suppress the other). Without pruning
    // every item carries the empty set and this degenerates to the classic
    // `(block, state)` worklist.
    //
    // The witness id rides along *outside* the key: the first witness to
    // reach a `(block, state, facts)` key is the one whose extension gets
    // explored, and later arrivals are dropped with their histories.
    // Sized for the common one-key-per-block shape so the table doesn't
    // rehash while a single-state machine walks a large function.
    let mut visited: FastSet<(BlockId, M::State, FactSet)> =
        FastSet::with_capacity_and_hasher(cfg.blocks.len(), Default::default());
    type Item<S> = (BlockId, S, FactSet, Option<WitnessId>);
    let mut worklist: Vec<Item<M::State>> = vec![(cfg.entry, init, init_facts, None)];
    // Live-state and successor scratch buffers, reused across all items.
    let mut states: Vec<M::State> = Vec::new();
    let mut scratch: Vec<M::State> = Vec::new();
    let mut succ: Vec<M::State> = Vec::new();
    while let Some((block, state, facts, wid)) = worklist.pop() {
        if !visited.insert((block, state.clone(), facts.clone())) {
            continue;
        }
        let mut facts = facts;
        states.clear();
        states.push(state);
        let mut wid = flow_block(
            cfg,
            machine,
            block,
            &mut states,
            &mut scratch,
            prune.then_some(&mut facts),
            &mut arena,
            wid,
            oracle,
        );
        if states.is_empty() {
            continue;
        }
        // Calls inside the terminator's expression run before the branch
        // outcome / case match / return, so their events fire here.
        let term_calls = terminator_calls(&cfg.block(block).term, oracle);
        if !term_calls.is_empty() {
            let (next, next_wid) = fire_calls(
                machine,
                std::mem::take(&mut states),
                &term_calls,
                oracle.expect("term_calls nonempty implies oracle"),
                prune.then_some(&mut facts),
                &mut arena,
                wid,
            );
            states = next;
            wid = next_wid;
            if states.is_empty() {
                continue;
            }
        }
        match &cfg.block(block).term {
            Terminator::Jump(t) => {
                for s in states.drain(..) {
                    worklist.push((*t, s, facts.clone(), wid));
                }
            }
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => {
                // The condition is evaluated on every path through this
                // block; its side effects (`n--`, embedded assignments)
                // clobber facts before the branch outcome is assumed.
                if prune && !facts.is_empty() {
                    facts.invalidate_expr(cond);
                }
                let mut arm_facts: [Option<FactSet>; 2] = [None, None];
                for (arm, taken) in [true, false].into_iter().enumerate() {
                    arm_facts[arm] = if !prune {
                        Some(facts.clone())
                    } else {
                        let f = facts.assume(cond, taken);
                        if f.is_none() {
                            refuted.insert((block, arm));
                        }
                        f
                    };
                }
                let arm_wids: [Option<WitnessId>; 2] = [
                    Some(arena.extend(wid, cond.span, StepKind::Branch(true))),
                    Some(arena.extend(wid, cond.span, StepKind::Branch(false))),
                ];
                for s in states.drain(..) {
                    for (arm, &taken) in [true, false].iter().enumerate() {
                        let Some(f) = &arm_facts[arm] else { continue };
                        let target = if taken { then_to } else { else_to };
                        let witness = arena.witness(arm_wids[arm]);
                        succ.clear();
                        machine.step_into(
                            &s,
                            &PathEvent::Branch { cond, taken },
                            &witness,
                            &mut succ,
                        );
                        for ns in succ.drain(..) {
                            worklist.push((*target, ns, f.clone(), arm_wids[arm]));
                        }
                    }
                }
            }
            Terminator::Switch {
                scrutinee,
                targets,
                fallthrough,
            } => {
                // Scrutinee side effects apply before any case is matched.
                if prune && !facts.is_empty() {
                    facts.invalidate_expr(scrutinee);
                }
                let has_default = targets.iter().any(|(v, _)| v.is_none());
                let consts = switch_consts(targets);
                let edge_facts = |value: Option<&Expr>,
                                  arm: usize,
                                  refuted: &mut FastSet<(BlockId, usize)>|
                 -> Option<FactSet> {
                    if !prune {
                        return Some(facts.clone());
                    }
                    match facts.assume_case(scrutinee, value, &consts) {
                        Some(f) => Some(f),
                        None => {
                            refuted.insert((block, arm));
                            None
                        }
                    }
                };
                let case_facts: Vec<Option<FactSet>> = targets
                    .iter()
                    .enumerate()
                    .map(|(arm, (value, _))| edge_facts(value.as_ref(), arm, &mut refuted))
                    .collect();
                let fall_facts = if has_default {
                    None
                } else {
                    edge_facts(None, targets.len(), &mut refuted)
                };
                let case_wids: Vec<Option<WitnessId>> = targets
                    .iter()
                    .map(|(value, _)| {
                        let kind = if value.is_some() {
                            StepKind::Case
                        } else {
                            StepKind::CaseDefault
                        };
                        Some(arena.extend(wid, scrutinee.span, kind))
                    })
                    .collect();
                let fall_wid = Some(arena.extend(wid, scrutinee.span, StepKind::CaseDefault));
                for s in states.drain(..) {
                    for (((value, target), f), cw) in
                        targets.iter().zip(&case_facts).zip(&case_wids)
                    {
                        let Some(f) = f else { continue };
                        let ev = PathEvent::Case {
                            scrutinee,
                            value: value.as_ref(),
                        };
                        let witness = arena.witness(*cw);
                        succ.clear();
                        machine.step_into(&s, &ev, &witness, &mut succ);
                        for ns in succ.drain(..) {
                            worklist.push((*target, ns, f.clone(), *cw));
                        }
                    }
                    if let Some(f) = &fall_facts {
                        let ev = PathEvent::Case {
                            scrutinee,
                            value: None,
                        };
                        let witness = arena.witness(fall_wid);
                        succ.clear();
                        machine.step_into(&s, &ev, &witness, &mut succ);
                        for ns in succ.drain(..) {
                            worklist.push((*fallthrough, ns, f.clone(), fall_wid));
                        }
                    }
                }
            }
            Terminator::Return { value, span } => {
                let ret_wid = Some(arena.extend(wid, *span, StepKind::Return));
                let witness = arena.witness(ret_wid);
                for s in states.drain(..) {
                    // Return ends the path: successor states are discarded.
                    succ.clear();
                    machine.step_into(
                        &s,
                        &PathEvent::Return {
                            value: value.as_ref(),
                            span: *span,
                        },
                        &witness,
                        &mut succ,
                    );
                }
            }
        }
    }
    TraversalStats {
        refuted_edges: refuted.len(),
    }
}

/// Steps every state through the resolved calls of one statement or
/// terminator expression, in evaluation order. Each resolved call first
/// drops the facts its summary clobbers, then fires a [`PathEvent::Call`].
/// Unresolved calls are skipped entirely (no event), so machines written
/// before summaries existed keep their exact behavior.
fn fire_calls<M: PathMachine>(
    machine: &mut M,
    states: Vec<M::State>,
    calls: &[(&str, Span)],
    oracle: &dyn SummaryLookup,
    mut facts: Option<&mut FactSet>,
    arena: &mut WitnessArena,
    mut wid: Option<WitnessId>,
) -> (Vec<M::State>, Option<WitnessId>) {
    let mut states = states;
    let mut next: Vec<M::State> = Vec::new();
    for (name, span) in calls {
        let Some(summary) = oracle.lookup(name) else {
            continue;
        };
        if let Some(f) = facts.as_deref_mut() {
            for key in &summary.clobbers {
                f.invalidate_key(key);
            }
        }
        let ev = PathEvent::Call {
            name,
            span: *span,
            summary,
        };
        wid = Some(arena.extend(wid, *span, StepKind::Call(name.to_string())));
        let witness = arena.witness(wid);
        next.clear();
        for s in &states {
            machine.step_into(s, &ev, &witness, &mut next);
        }
        std::mem::swap(&mut states, &mut next);
        dedup_in_place(&mut states);
        if states.is_empty() {
            break;
        }
    }
    (states, wid)
}

/// The calls inside a terminator's expression, in evaluation order —
/// empty without an oracle so no work happens on the common path.
fn terminator_calls<'a>(
    term: &'a Terminator,
    oracle: Option<&dyn SummaryLookup>,
) -> Vec<(&'a str, Span)> {
    let mut calls = Vec::new();
    if oracle.is_none() {
        return calls;
    }
    match term {
        Terminator::Jump(_) => {}
        Terminator::Branch { cond, .. } => calls_in_expr(cond, &mut calls),
        Terminator::Switch { scrutinee, .. } => calls_in_expr(scrutinee, &mut calls),
        Terminator::Return { value, .. } => {
            if let Some(v) = value {
                calls_in_expr(v, &mut calls);
            }
        }
    }
    calls
}

/// Counts how many CFG edges of `cfg` the feasibility analysis refutes,
/// independent of any checker. The driver uses this as the `pruned_paths`
/// evidence on reports: a function with refuted edges is exactly the shape
/// where unpruned traversals manufacture correlated-branch false positives.
pub fn feasibility_stats(cfg: &Cfg) -> TraversalStats {
    /// A stateless machine that just rides along every edge.
    struct Unit;
    impl PathMachine for Unit {
        type State = ();
        fn step(&mut self, _: &(), _: &PathEvent<'_>, _: &Witness<'_>) -> Vec<()> {
            vec![()]
        }
    }
    run_traversal(cfg, &mut Unit, (), Traversal::new())
}

/// Feeds the events of one block to the machine, expanding the state set.
/// Returns the states alive at the terminator. When `facts` is provided,
/// statements with side effects invalidate the feasibility facts they
/// clobber.
#[allow(clippy::too_many_arguments)]
fn flow_block<M: PathMachine>(
    cfg: &Cfg,
    machine: &mut M,
    block: BlockId,
    states: &mut Vec<M::State>,
    scratch: &mut Vec<M::State>,
    mut facts: Option<&mut FactSet>,
    arena: &mut WitnessArena,
    mut wid: Option<WitnessId>,
    oracle: Option<&dyn SummaryLookup>,
) -> Option<WitnessId> {
    for node in &cfg.block(block).nodes {
        // With no facts on the path, invalidation cannot drop anything, and
        // the escape registration it would perform is already covered by the
        // function-wide seed in `initial_facts` — so the AST walk is skipped.
        if let Some(f) = facts.as_deref_mut() {
            if !f.is_empty() {
                f.invalidate_stmt(&node.stmt);
            }
        }
        wid = Some(arena.extend(wid, node.stmt.span, StepKind::Stmt));
        let witness = arena.witness(wid);
        scratch.clear();
        for s in states.iter() {
            machine.step_into(s, &PathEvent::Stmt(&node.stmt), &witness, scratch);
        }
        std::mem::swap(states, scratch);
        dedup_in_place(states);
        if states.is_empty() {
            break;
        }
        if let Some(oracle) = oracle {
            let mut calls = Vec::new();
            calls_in_stmt(&node.stmt, &mut calls);
            if !calls.is_empty() {
                let (next, next_wid) = fire_calls(
                    machine,
                    std::mem::take(states),
                    &calls,
                    oracle,
                    facts.as_deref_mut(),
                    arena,
                    wid,
                );
                *states = next;
                wid = next_wid;
                if states.is_empty() {
                    break;
                }
            }
        }
    }
    wid
}

/// The starting fact set for a pruning traversal: empty facts, but with the
/// escape set seeded from every `&lvalue` in the function. A store through
/// an untracked lvalue (`*p = …`) must clobber a variable's facts even when
/// its address was taken before the fact was established or in a sibling
/// branch, so the seed covers the whole function, not just the current path.
fn initial_facts(cfg: &Cfg, prune: bool) -> FactSet {
    if !prune {
        return FactSet::new();
    }
    // The scan happened once in `Cfg::build`; starting a traversal only
    // bumps the shared escape set's refcount.
    FactSet::from_escapes(cfg.escapes.clone())
}

/// The labelled constants of a switch, for default-edge exclusion facts.
fn switch_consts(targets: &[(Option<Expr>, BlockId)]) -> Vec<Const> {
    targets
        .iter()
        .filter_map(|(v, _)| v.as_ref().and_then(const_of))
        .collect()
}

use crate::hash::FastSet;

/// Keeps the first occurrence of every state, in order. State sets of zero
/// or one element (the overwhelmingly common case — most statements carry a
/// single checker state) return immediately, and small sets use a linear
/// scan, so a hash set is only built for genuinely wide state sets.
fn dedup_in_place<S: Eq + Hash + Clone>(v: &mut Vec<S>) {
    if v.len() <= 1 {
        return;
    }
    if v.len() <= 8 {
        let mut i = 1;
        while i < v.len() {
            if v[..i].contains(&v[i]) {
                v.remove(i);
            } else {
                i += 1;
            }
        }
        return;
    }
    let mut seen = FastSet::with_capacity_and_hasher(v.len(), Default::default());
    v.retain(|s| seen.insert(s.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Cfg;
    use mc_ast::parse_translation_unit;

    /// A machine that records the callee names it sees, in order per path.
    struct Tracer {
        visits: Vec<String>,
        returns: usize,
    }

    impl PathMachine for Tracer {
        type State = u32; // depth counter, to exercise state forking

        fn step(&mut self, state: &u32, event: &PathEvent<'_>, _: &Witness<'_>) -> Vec<u32> {
            match event {
                PathEvent::Stmt(s) => {
                    if let mc_ast::StmtKind::Expr(e) = &s.kind {
                        if let Some((name, _)) = e.as_call() {
                            self.visits.push(name.to_string());
                        }
                    }
                    vec![*state]
                }
                PathEvent::Return { .. } => {
                    self.returns += 1;
                    vec![]
                }
                _ => vec![*state],
            }
        }
    }

    /// A machine whose state is the calls seen so far, so paths with
    /// different histories never merge: one end state per path.
    #[derive(Default)]
    struct Paths {
        ends: Vec<String>,
    }

    impl PathMachine for Paths {
        type State = String;

        fn step(&mut self, state: &String, event: &PathEvent<'_>, _: &Witness<'_>) -> Vec<String> {
            match event {
                PathEvent::Stmt(s) => match &s.kind {
                    mc_ast::StmtKind::Expr(e) => match e.as_call() {
                        Some((name, _)) => vec![format!("{state}{name};")],
                        None => vec![state.clone()],
                    },
                    _ => vec![state.clone()],
                },
                PathEvent::Return { .. } => {
                    self.ends.push(state.clone());
                    vec![]
                }
                _ => vec![state.clone()],
            }
        }
    }

    fn cfg_of(body: &str) -> Cfg {
        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "t.c").unwrap();
        Cfg::build(tu.function("f").unwrap())
    }

    #[test]
    fn state_set_merges_join_states() {
        let cfg = cfg_of("if (x) { a(); } else { b(); } c();");
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        run_machine(&cfg, &mut m, 0);
        // After the join, both paths carry state 0, so c() is seen once.
        assert_eq!(m.visits.iter().filter(|v| *v == "c").count(), 1);
        assert_eq!(m.returns, 1);
    }

    #[test]
    fn loops_terminate() {
        let cfg = cfg_of("while (x) { a(); } b();");
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        run_machine(&cfg, &mut m, 0);
        assert!(m.visits.contains(&"a".to_string()));
        assert!(m.returns >= 1);
    }

    #[test]
    fn pruning_stops_path() {
        /// Stops at the first call to `stop_here`.
        struct Pruner {
            after: usize,
        }
        impl PathMachine for Pruner {
            type State = ();
            fn step(&mut self, _: &(), event: &PathEvent<'_>, _: &Witness<'_>) -> Vec<()> {
                match event {
                    PathEvent::Stmt(s) => {
                        if let mc_ast::StmtKind::Expr(e) = &s.kind {
                            if let Some(("stop_here", _)) = e.as_call() {
                                return vec![];
                            }
                            if let Some(("after", _)) = e.as_call() {
                                self.after += 1;
                            }
                        }
                        vec![()]
                    }
                    _ => vec![()],
                }
            }
        }
        let cfg = cfg_of("stop_here(); after();");
        let mut m = Pruner { after: 0 };
        run_machine(&cfg, &mut m, ());
        assert_eq!(m.after, 0);
    }

    #[test]
    fn switch_cases_all_visited() {
        let cfg =
            cfg_of("switch (op) { case 1: a(); break; case 2: b(); break; default: c(); } d();");
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        run_machine(&cfg, &mut m, 0);
        for callee in ["a", "b", "c", "d"] {
            assert!(m.visits.contains(&callee.to_string()), "missing {callee}");
        }
    }

    #[test]
    fn pruning_drops_correlated_branch_paths() {
        // The canonical paper FP shape: `gMode` cannot be both true and
        // false, so only 2 of the 4 syntactic paths are feasible.
        let cfg = cfg_of("if (gMode) { a(); } mid(); if (!gMode) { b(); } end();");
        let mut m = Paths::default();
        let stats = run_traversal(&cfg, &mut m, String::new(), Traversal::new());
        // a-then-b and neither-a-nor-b are infeasible; every feasible
        // path sees exactly one of a/b.
        m.ends.sort();
        assert_eq!(m.ends, ["a;mid;end;", "mid;b;end;"]);
        assert!(stats.refuted_edges >= 2, "{stats:?}");
    }

    #[test]
    fn no_pruning_keeps_all_syntactic_paths() {
        let cfg = cfg_of("if (gMode) { a(); } if (!gMode) { b(); } end();");
        let mut m = Paths::default();
        let stats = run_traversal(&cfg, &mut m, String::new(), Traversal::without_pruning());
        assert_eq!(m.ends.len(), 4);
        assert_eq!(stats.refuted_edges, 0);
    }

    #[test]
    fn pruning_respects_assignment_between_branches() {
        // The guard is recomputed between the two tests, so no edge may be
        // pruned: all 4 paths are feasible.
        let body = "if (gMode) { a(); } gMode = next(); if (!gMode) { b(); } end();";
        let cfg = cfg_of(body);
        let mut m = Paths::default();
        let stats = run_traversal(&cfg, &mut m, String::new(), Traversal::new());
        assert_eq!(m.ends.len(), 4);
        assert_eq!(stats.refuted_edges, 0);
    }

    #[test]
    fn switch_arms_prune_each_other() {
        // Inside `case 1:` a nested test of the same scrutinee against a
        // different label is infeasible.
        let body =
            "switch (op) { case 1: if (op == 2) { dead(); } a(); break; default: d(); } end();";
        let cfg = cfg_of(body);
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        run_traversal(&cfg, &mut m, 0, Traversal::new());
        assert!(!m.visits.contains(&"dead".to_string()));
        assert!(m.visits.contains(&"a".to_string()));
        assert!(m.visits.contains(&"d".to_string()));
    }

    #[test]
    fn state_set_keeps_incompatible_facts_distinct() {
        // After the first branch the checker state is identical on both
        // arms, but the fact sets differ; a naive merge would then explore
        // the second branch once and miss that each arm is forced. The
        // tracer's return count proves both fact variants survived: exactly
        // the 2 feasible paths return.
        let body = "if (gMode) { a(); } else { b(); } mid(); if (gMode) { c(); } else { d(); }";
        let cfg = cfg_of(body);
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        run_traversal(&cfg, &mut m, 0, Traversal::new());
        assert!(m.visits.contains(&"c".to_string()));
        assert!(m.visits.contains(&"d".to_string()));
        // mid() is seen twice: the two fact sets do not merge.
        assert_eq!(m.visits.iter().filter(|v| *v == "mid").count(), 2);
    }

    #[test]
    fn condition_side_effects_invalidate_facts() {
        // `n--` in the loop condition rewrites `n`, so the later `n != 3`
        // test must not be refuted by the stale `n == 3` fact.
        let body = "if (n == 3) { while (n--) { a(); } if (n != 3) { b(); } } end();";
        let cfg = cfg_of(body);
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        let stats = run_traversal(&cfg, &mut m, 0, Traversal::new());
        assert!(m.visits.contains(&"b".to_string()));
        assert_eq!(stats.refuted_edges, 0);
    }

    #[test]
    fn switch_scrutinee_side_effects_invalidate_facts() {
        // `op++` in the scrutinee clobbers the `op == 1` fact, so the later
        // `op != 1` test stays feasible.
        let body = "if (op == 1) { switch (op++) { case 2: a(); break; default: d(); } \
                    if (op != 1) { b(); } } end();";
        let cfg = cfg_of(body);
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        let stats = run_traversal(&cfg, &mut m, 0, Traversal::new());
        assert!(m.visits.contains(&"b".to_string()));
        assert_eq!(stats.refuted_edges, 0);
    }

    #[test]
    fn aliased_store_invalidates_facts() {
        // The escape of `&gMode` happens in a sibling branch, before the
        // fact is established; the `*p = …` store must still clobber it.
        let body = "if (c) { p = &gMode; } if (gMode) { a(); } *p = next(); \
                    if (!gMode) { b(); } end();";
        let cfg = cfg_of(body);
        let mut m = Tracer {
            visits: vec![],
            returns: 0,
        };
        let stats = run_traversal(&cfg, &mut m, 0, Traversal::new());
        assert!(m.visits.contains(&"a".to_string()));
        assert!(m.visits.contains(&"b".to_string()));
        assert_eq!(stats.refuted_edges, 0);
    }

    #[test]
    fn feasibility_stats_counts_refutable_edges() {
        let cfg = cfg_of("if (gMode) { a(); } if (!gMode) { b(); } end();");
        assert_eq!(feasibility_stats(&cfg).refuted_edges, 2);
        let cfg = cfg_of("if (gOpClass & 1) { a(); } end();");
        assert_eq!(feasibility_stats(&cfg).refuted_edges, 0);
    }

    #[test]
    fn run_machine_never_prunes() {
        let cfg = cfg_of("if (gMode) { a(); } if (!gMode) { b(); } end();");
        let mut m = Paths::default();
        run_machine(&cfg, &mut m, String::new());
        assert_eq!(m.ends.len(), 4);
    }

    #[test]
    fn branch_events_expose_conditions() {
        struct CondSpy {
            conds: Vec<(String, bool)>,
        }
        impl PathMachine for CondSpy {
            type State = ();
            fn step(&mut self, _: &(), event: &PathEvent<'_>, _: &Witness<'_>) -> Vec<()> {
                if let PathEvent::Branch { cond, taken } = event {
                    self.conds.push((mc_ast::print_expr(cond), *taken));
                }
                vec![()]
            }
        }
        let cfg = cfg_of("if (x > 1) a();");
        let mut m = CondSpy { conds: vec![] };
        run_machine(&cfg, &mut m, ());
        assert!(m.conds.contains(&("x > 1".to_string(), true)));
        assert!(m.conds.contains(&("x > 1".to_string(), false)));
    }
}
