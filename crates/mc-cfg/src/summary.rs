//! Per-function summaries: what a call can do to checker state.
//!
//! xg++ handled the one inter-procedural check (lane counting) with a
//! bespoke emit-and-link pass; every other checker treated calls as opaque.
//! This module generalizes that machinery into a reusable summary
//! abstraction:
//!
//! * [`FnSummary`] — everything the framework knows about calling one
//!   function: the state transitions it can trigger in each checker state
//!   machine (`transfers`), the per-key counter contributions it makes
//!   along its worst path (`counters`, with back `traces`), the global
//!   facts it may clobber (`clobbers`), and any cycle warnings found while
//!   summarizing it.
//! * [`summarize_counts`] — the §7 counter analysis over one function's
//!   CFG, resolving callees through a [`Resolved`] lookup instead of
//!   recursing itself. The driver computes summaries bottom-up over the
//!   call graph, so callee summaries exist by the time a caller is
//!   summarized; members of a call-graph cycle see each other as
//!   [`Resolved::Recursive`] and inherit the paper's fixed-point rule:
//!   count-free cycles are ignored, cycles with counts warn.
//! * [`SummaryLookup`] — the oracle the traversal engine consults at call
//!   sites (see [`crate::run_traversal_with`]); a hit fires a
//!   [`crate::PathEvent::Call`] so path machines can apply the callee's
//!   transfers instead of stepping over the call blindly.

use crate::build::Cfg;
use crate::witness::PathStep;
use mc_ast::{Expr, ExprKind, Function, Initializer, Span, Stmt, StmtKind};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A warning produced during summarization when a cycle contributes counts
/// (the paper: "If there were sends, then it warns of a possible error").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleWarning {
    /// Function at which the cycle was detected.
    pub function: String,
    /// Keys whose counts occur inside the cycle.
    pub keys: Vec<String>,
    /// Human-readable description of the cycle.
    pub description: String,
}

/// The summary of one function: everything a checker may assume about a
/// call to it without looking at its body.
///
/// Summaries are computed bottom-up over the call graph by the driver's
/// summary engine, cached per call-graph component, and applied at call
/// sites by the traversal engine ([`crate::run_traversal_with`]) and by
/// whole-program passes (the lane checker reads `counters` directly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FnSummary {
    /// Function name (the link key).
    pub function: String,
    /// Defining file.
    pub file: String,
    /// Names this function's body calls, sorted and deduplicated.
    pub calls: Vec<String>,
    /// Per key: the maximum summed count along any inter-procedural path
    /// through this function (e.g. `"lane2" -> 1`: one send on lane 2).
    pub counters: BTreeMap<String, i64>,
    /// Per key: the back trace for the maximizing path, as structured
    /// steps (one per contributing event or call). Steps carry their own
    /// file, so a caller splicing a callee's trace into a diagnostic keeps
    /// every location exact.
    pub traces: BTreeMap<String, Vec<PathStep>>,
    /// Per checker state machine (outer key is the machine name): for each
    /// start state name, the sorted set of state names the machine can be
    /// in when the callee returns. A missing machine or state entry means
    /// the callee is opaque to that machine in that state (the call leaves
    /// the state unchanged); a present-but-*empty* end set means every
    /// path through the callee stops the machine, pruning the caller path.
    pub transfers: BTreeMap<String, BTreeMap<String, Vec<String>>>,
    /// Feasibility-fact keys (globals and their member chains) the callee
    /// may write, sorted. Applied by the traversal engine to drop stale
    /// facts at call sites.
    pub clobbers: Vec<String>,
    /// Cycle warnings found while summarizing this function's counters.
    pub warnings: Vec<CycleWarning>,
}

/// What a callee name resolves to while summarizing a caller.
#[derive(Debug, Clone, Copy)]
pub enum Resolved<'a> {
    /// The callee's summary was already computed (it is "below" the caller
    /// in bottom-up order).
    Summary(&'a FnSummary),
    /// The callee is defined but not summarized yet: it is in the same
    /// call-graph cycle as the caller. The fixed-point rule applies.
    Recursive,
    /// No definition is known (library macro, external routine). Mirrors
    /// xg++, which could only see code it compiled: contributes nothing.
    Unknown,
}

/// The oracle the traversal engine consults at call sites.
///
/// Returning `Some` fires a [`crate::PathEvent::Call`] carrying the
/// summary; returning `None` leaves the call opaque (no event at all), so
/// an engine run without an oracle behaves exactly as before summaries
/// existed.
pub trait SummaryLookup {
    /// The summary of `callee`, if one is known.
    fn lookup(&self, callee: &str) -> Option<&FnSummary>;
}

/// The counter half of one function's summary, as returned by
/// [`summarize_counts`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountSummary {
    /// Per key: maximum summed count along any path (callee maxima
    /// included).
    pub counters: BTreeMap<String, i64>,
    /// Per key: back trace for the maximizing path, as structured steps.
    pub traces: BTreeMap<String, Vec<PathStep>>,
    /// Cycles with counts found in this function (in-function loops and
    /// recursion through this function).
    pub warnings: Vec<CycleWarning>,
}

/// One event observed while scanning a block's expressions in evaluation
/// order.
enum CountEvent {
    /// `annotate` matched: `amount` is added to `key`'s per-path total.
    Count {
        key: String,
        amount: i64,
        span: Span,
    },
    /// A call expression (collected automatically when `annotate` declined
    /// the expression).
    Call { callee: String, span: Span },
}

/// Computes the per-key maximum path counts of one function (the §7 lane
/// analysis, generalized).
///
/// `annotate` is the client hook: it is offered every expression of the
/// function (post-order, in block order) and may return a `(key, amount)`
/// contribution — e.g. "one send on lane 2". Calls are handled
/// automatically: `resolve` maps each callee name to its already-computed
/// summary ([`Resolved::Summary`], whose `counters` are added where the
/// call occurs, chaining its `traces` into the back trace), to
/// [`Resolved::Recursive`] (same call-graph cycle — the fixed-point rule:
/// ignored if this function is count-free, warned about otherwise), or to
/// [`Resolved::Unknown`] (contributes nothing).
///
/// Branches take the maximum over arms, not the sum; in-function cycles
/// follow the same fixed-point rule as recursion, with the cycle body
/// counted once.
pub fn summarize_counts<'s>(
    file: &str,
    cfg: &Cfg,
    annotate: &mut dyn FnMut(&Expr) -> Option<(String, i64)>,
    resolve: &dyn Fn(&str) -> Resolved<'s>,
) -> CountSummary {
    let n = cfg.blocks.len();
    let adj = block_adjacency(cfg);
    let mut weight: Vec<BTreeMap<String, i64>> = vec![BTreeMap::new(); n];
    let mut block_trace: Vec<BTreeMap<String, Vec<PathStep>>> = vec![BTreeMap::new(); n];
    let mut recursive_callees: Vec<String> = Vec::new();

    for (bi, block) in cfg.blocks.iter().enumerate() {
        let mut events: Vec<CountEvent> = Vec::new();
        for_each_block_expr(block, &mut |e| {
            collect_count_events(e, annotate, &mut events)
        });
        for ev in events {
            match ev {
                CountEvent::Count { key, amount, span } => {
                    *weight[bi].entry(key.clone()).or_insert(0) += amount;
                    let step = PathStep {
                        file: file.to_string(),
                        span,
                        note: format!("{key} in {}", cfg.name),
                    };
                    block_trace[bi].entry(key).or_default().push(step);
                }
                CountEvent::Call { callee, span } => match resolve(&callee) {
                    Resolved::Recursive => recursive_callees.push(callee),
                    Resolved::Unknown => {}
                    Resolved::Summary(sub) => {
                        for (key, amount) in &sub.counters {
                            if *amount != 0 {
                                *weight[bi].entry(key.clone()).or_insert(0) += amount;
                                let t = block_trace[bi].entry(key.clone()).or_default();
                                t.push(PathStep {
                                    file: file.to_string(),
                                    span,
                                    note: format!("call `{callee}` from {}", cfg.name),
                                });
                                // Splice the callee's own maximizing trace
                                // in after the call step: the diagnostic
                                // path reads straight down the call chain.
                                if let Some(sub_t) = sub.traces.get(key) {
                                    t.extend(sub_t.iter().cloned());
                                }
                            }
                        }
                    }
                },
            }
        }
    }

    // In-function cycles: a block inside a non-trivial SCC whose weight is
    // non-zero is a cycle with progress.
    let sccs = tarjan_sccs(&adj);
    let mut cyclic_keys: Vec<String> = Vec::new();
    for scc in &sccs {
        let non_trivial = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
        if !non_trivial {
            continue;
        }
        for &b in scc {
            for (key, amount) in &weight[b] {
                if *amount > 0 {
                    cyclic_keys.push(key.clone());
                }
            }
        }
    }
    if !recursive_callees.is_empty() {
        // Recursion whose body contains counts is also progress.
        let has_counts = weight.iter().any(|w| w.values().any(|v| *v > 0));
        if has_counts {
            cyclic_keys.push("<recursion>".to_string());
        }
    }
    let mut warnings = Vec::new();
    if !cyclic_keys.is_empty() {
        cyclic_keys.sort();
        cyclic_keys.dedup();
        warnings.push(CycleWarning {
            function: cfg.name.clone(),
            keys: cyclic_keys,
            description: format!(
                "cycle with side effects in `{}`: counts inside a loop or recursion \
                 cannot be bounded statically",
                cfg.name
            ),
        });
    }

    // Longest-path DP per key over the back-edge-free DAG.
    let order = topo_order(&adj, cfg.entry.0);
    let keys: HashSet<String> = weight.iter().flat_map(|w| w.keys().cloned()).collect();
    let mut out = CountSummary {
        warnings,
        ..CountSummary::default()
    };
    for key in keys {
        let mut best: Vec<i64> = vec![i64::MIN; n];
        let mut choice: Vec<Option<usize>> = vec![None; n];
        // Process in reverse topological order (successors first).
        for &b in order.iter().rev() {
            let own = weight[b].get(&key).copied().unwrap_or(0);
            let mut m = 0i64;
            let mut ch = None;
            for &s in &adj[b] {
                if best[s] != i64::MIN && best[s] > m {
                    m = best[s];
                    ch = Some(s);
                }
            }
            best[b] = own + m;
            choice[b] = ch;
        }
        let total = if best[cfg.entry.0] == i64::MIN {
            0
        } else {
            best[cfg.entry.0]
        };
        // Build the trace along the chosen chain.
        let mut trace = Vec::new();
        let mut cur = Some(cfg.entry.0);
        while let Some(b) = cur {
            if let Some(t) = block_trace[b].get(&key) {
                trace.extend(t.iter().cloned());
            }
            cur = choice[b];
        }
        out.counters.insert(key.clone(), total);
        out.traces.insert(key, trace);
    }
    out
}

/// Successor indices of every block.
fn block_adjacency(cfg: &Cfg) -> Vec<Vec<usize>> {
    cfg.blocks
        .iter()
        .map(|b| b.term.successors().into_iter().map(|s| s.0).collect())
        .collect()
}

/// Offers every expression of `block` — statements first, then the
/// terminator's expression — to `f`, in evaluation order.
fn for_each_block_expr(block: &crate::build::Block, f: &mut dyn FnMut(&Expr)) {
    use crate::build::Terminator;
    for node in &block.nodes {
        match &node.stmt.kind {
            StmtKind::Expr(e) => f(e),
            StmtKind::Decl(d) => {
                if let Some(Initializer::Expr(e)) = &d.init {
                    f(e);
                }
            }
            _ => {}
        }
    }
    match &block.term {
        Terminator::Branch { cond, .. } => f(cond),
        Terminator::Switch { scrutinee, .. } => f(scrutinee),
        Terminator::Return { value: Some(v), .. } => f(v),
        _ => {}
    }
}

/// Walks `e` post-order, recording client count events and call events.
fn collect_count_events(
    e: &Expr,
    annotate: &mut dyn FnMut(&Expr) -> Option<(String, i64)>,
    out: &mut Vec<CountEvent>,
) {
    for_each_child(e, &mut |c| collect_count_events(c, annotate, out));
    if let Some((key, amount)) = annotate(e) {
        out.push(CountEvent::Count {
            key,
            amount,
            span: e.span,
        });
    } else if let Some((name, _)) = e.as_call() {
        out.push(CountEvent::Call {
            callee: name.to_string(),
            span: e.span,
        });
    }
}

/// Visits the direct sub-expressions of `e` in evaluation order.
fn for_each_child<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            f(callee);
            for a in args {
                f(a);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => f(operand),
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
        _ => {}
    }
}

/// Collects `(callee, span)` for every call in `e`, post-order (arguments
/// before the call itself — the order the callee bodies actually run).
pub(crate) fn calls_in_expr<'a>(e: &'a Expr, out: &mut Vec<(&'a str, Span)>) {
    for_each_child(e, &mut |c| calls_in_expr(c, out));
    if let Some((name, _)) = e.as_call() {
        out.push((name, e.span));
    }
}

/// Collects the calls of one atomic statement in evaluation order.
pub(crate) fn calls_in_stmt<'a>(stmt: &'a Stmt, out: &mut Vec<(&'a str, Span)>) {
    match &stmt.kind {
        StmtKind::Expr(e) => calls_in_expr(e, out),
        StmtKind::Decl(d) => {
            if let Some(Initializer::Expr(e)) = &d.init {
                calls_in_expr(e, out);
            }
        }
        _ => {}
    }
}

/// Sorted, deduplicated callee names of a whole function.
pub fn collect_calls(func: &Function) -> Vec<String> {
    struct Calls(BTreeSet<String>);
    impl mc_ast::Visitor for Calls {
        fn visit_expr(&mut self, e: &Expr) {
            if let Some((name, _)) = e.as_call() {
                self.0.insert(name.to_string());
            }
        }
    }
    let mut v = Calls(BTreeSet::new());
    mc_ast::walk_function(&mut v, func);
    v.0.into_iter().collect()
}

/// The feasibility-fact keys `func` may write through non-local lvalues:
/// assignments and increments whose target's root variable is neither a
/// parameter nor a local declaration. Sorted and deduplicated — the
/// `clobbers` field of the function's summary.
pub fn collect_clobbers(func: &Function) -> Vec<String> {
    struct Scan {
        locals: HashSet<String>,
        writes: BTreeSet<String>,
    }
    impl mc_ast::Visitor for Scan {
        fn visit_stmt(&mut self, stmt: &Stmt) {
            if let StmtKind::Decl(d) = &stmt.kind {
                self.locals.insert(d.name.clone());
            }
        }
        fn visit_expr(&mut self, e: &Expr) {
            let target = match &e.kind {
                ExprKind::Assign { lhs, .. } => Some(lhs.as_ref()),
                ExprKind::Unary {
                    op: mc_ast::UnaryOp::PreInc | mc_ast::UnaryOp::PreDec,
                    operand,
                } => Some(operand.as_ref()),
                ExprKind::Postfix { operand, .. } => Some(operand.as_ref()),
                _ => None,
            };
            if let Some(key) = target.and_then(crate::feasibility::key_of) {
                self.writes.insert(key);
            }
        }
    }
    let mut scan = Scan {
        locals: func.params.iter().map(|p| p.name.clone()).collect(),
        writes: BTreeSet::new(),
    };
    mc_ast::walk_function(&mut scan, func);
    scan.writes
        .into_iter()
        .filter(|key| {
            let root = key
                .split("->")
                .next()
                .and_then(|k| k.split('.').next())
                .unwrap_or(key);
            !scan.locals.contains(root)
        })
        .collect()
}

/// Topological-ish order of blocks reachable from `entry` (back edges
/// ignored by virtue of post-order DFS with a visited set).
fn topo_order(adj: &[Vec<usize>], entry: usize) -> Vec<usize> {
    let mut post = Vec::new();
    if adj.is_empty() {
        return post;
    }
    let mut visited = vec![false; adj.len()];
    let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
    visited[entry] = true;
    while let Some(&mut (u, ref mut i)) = stack.last_mut() {
        if *i < adj[u].len() {
            let v = adj[u][*i];
            *i += 1;
            if !visited[v] {
                visited[v] = true;
                stack.push((v, 0));
            }
        } else {
            post.push(u);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Tarjan's strongly-connected components over an adjacency list,
/// iteratively (call-graph chains can be deep). SCCs are returned in
/// reverse topological order of the condensation: every SCC appears after
/// all SCCs it can reach — exactly the callees-first order the summary
/// engine wants.
pub fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut indices: Vec<Option<usize>> = vec![None; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut index = 0usize;
    // Explicit DFS frames: (node, next child index).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if indices[start].is_some() {
            continue;
        }
        frames.push((start, 0));
        indices[start] = Some(index);
        low[start] = index;
        index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if indices[w].is_none() {
                    indices[w] = Some(index);
                    low[w] = index;
                    index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(indices[w].expect("indexed"));
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == indices[v].expect("indexed") {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack non-empty");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::parse_translation_unit;

    /// Annotates NI_SEND(lane, ...) calls as one count on "lane<k>".
    fn lane_annotate(e: &Expr) -> Option<(String, i64)> {
        let (name, args) = e.as_call()?;
        if name != "NI_SEND" {
            return None;
        }
        let lane = match &args.first()?.kind {
            ExprKind::IntLit(v, _) => *v,
            _ => 0,
        };
        Some((format!("lane{lane}"), 1))
    }

    /// Summarizes every function of `src` bottom-up in source order (the
    /// test sources define callees before callers), mimicking the driver's
    /// engine: summarized names resolve to their summary, defined-but-
    /// unfinished names resolve to `Recursive`, everything else `Unknown`.
    fn summarize_all(src: &str) -> BTreeMap<String, CountSummary> {
        let tu = parse_translation_unit(src, "p.c").unwrap();
        let defined: HashSet<String> = tu.functions().map(|f| f.name.clone()).collect();
        let mut store: BTreeMap<String, FnSummary> = BTreeMap::new();
        let mut out = BTreeMap::new();
        for f in tu.functions() {
            let cfg = Cfg::build(f);
            let s = summarize_counts("p.c", &cfg, &mut lane_annotate, &|callee| {
                if let Some(fs) = store.get(callee) {
                    Resolved::Summary(fs)
                } else if defined.contains(callee) {
                    Resolved::Recursive
                } else {
                    Resolved::Unknown
                }
            });
            store.insert(
                f.name.clone(),
                FnSummary {
                    function: f.name.clone(),
                    file: "p.c".into(),
                    counters: s.counters.clone(),
                    traces: s.traces.clone(),
                    ..FnSummary::default()
                },
            );
            out.insert(f.name.clone(), s);
        }
        out
    }

    #[test]
    fn annotated_counts_and_calls_recorded() {
        let src = "void h(void) { NI_SEND(2, x); helper(); }";
        let s = &summarize_all(src)["h"];
        assert_eq!(s.counters["lane2"], 1);
        let tu = parse_translation_unit(src, "p.c").unwrap();
        let calls = collect_calls(tu.functions().next().unwrap());
        assert!(calls.contains(&"helper".to_string()));
    }

    #[test]
    fn summarize_straight_line() {
        let s =
            &summarize_all("void h(void) { NI_SEND(1, x); NI_SEND(1, y); NI_SEND(2, z); }")["h"];
        assert_eq!(s.counters["lane1"], 2);
        assert_eq!(s.counters["lane2"], 1);
        assert!(s.warnings.is_empty());
    }

    #[test]
    fn summarize_takes_max_over_branches() {
        let s = &summarize_all(
            "void h(void) { if (c) { NI_SEND(1, x); NI_SEND(1, y); } else { NI_SEND(1, z); } }",
        )["h"];
        assert_eq!(s.counters["lane1"], 2);
    }

    #[test]
    fn summarize_crosses_calls() {
        let s = &summarize_all(
            "void helper(void) { NI_SEND(3, a); }\n\
             void h(void) { helper(); NI_SEND(3, b); }",
        )["h"];
        assert_eq!(s.counters["lane3"], 2);
        // Back trace mentions the call and the callee's send.
        let t = &s.traces["lane3"];
        assert!(t.iter().any(|l| l.note.contains("call `helper`")), "{t:?}");
        assert!(t.iter().any(|l| l.note.contains("in helper")), "{t:?}");
        // Every step carries an exact location: file plus line:col.
        assert!(
            t.iter().all(|l| l.file == "p.c" && l.span.col >= 1),
            "{t:?}"
        );
    }

    #[test]
    fn summaries_chain_through_two_levels() {
        let s = &summarize_all(
            "void leaf(void) { NI_SEND(1, a); }\n\
             void mid(void) { leaf(); NI_SEND(1, b); }\n\
             void top(void) { mid(); NI_SEND(1, c); }",
        )["top"];
        assert_eq!(s.counters["lane1"], 3);
        // The chained trace reaches all the way down.
        let t = &s.traces["lane1"];
        assert!(t.iter().any(|l| l.note.contains("call `mid`")), "{t:?}");
        assert!(t.iter().any(|l| l.note.contains("in leaf")), "{t:?}");
    }

    #[test]
    fn unknown_callees_contribute_nothing() {
        let s = &summarize_all("void h(void) { mystery(); NI_SEND(1, a); }")["h"];
        assert_eq!(s.counters["lane1"], 1);
        assert!(s.warnings.is_empty());
    }

    #[test]
    fn sendless_loop_is_fixed_point() {
        let s = &summarize_all("void h(void) { while (x) { spin(); } NI_SEND(1, a); }")["h"];
        assert_eq!(s.counters["lane1"], 1);
        assert!(s.warnings.is_empty(), "sendless cycles must not warn");
    }

    #[test]
    fn loop_with_counts_warns() {
        let s = &summarize_all("void h(void) { while (x) { NI_SEND(1, a); } }")["h"];
        assert_eq!(s.warnings.len(), 1);
        assert_eq!(s.warnings[0].function, "h");
        assert_eq!(s.warnings[0].keys, vec!["lane1".to_string()]);
        // Fixed point: the loop body is counted once, not unboundedly.
        assert_eq!(s.counters["lane1"], 1);
    }

    #[test]
    fn sendless_recursion_is_fixed_point() {
        let all = summarize_all(
            "void r(void) { if (x) { r(); } }\n\
             void h(void) { r(); NI_SEND(1, a); }",
        );
        assert!(all["r"].warnings.is_empty(), "{:?}", all["r"].warnings);
        assert_eq!(all["h"].counters["lane1"], 1);
        assert!(all["h"].warnings.is_empty());
    }

    #[test]
    fn recursion_with_counts_warns() {
        let all = summarize_all("void r(void) { NI_SEND(1, a); if (x) { r(); } }");
        assert!(!all["r"].warnings.is_empty());
        assert!(all["r"].warnings[0].keys.iter().any(|k| k == "<recursion>"));
    }

    #[test]
    fn trace_steps_carry_file_line_and_col() {
        let s = &summarize_all("void h(void) {\n  NI_SEND(1, a);\n}")["h"];
        let t = &s.traces["lane1"];
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].file, "p.c");
        assert_eq!(t[0].span.line, 2);
        assert!(t[0].span.col >= 1, "{t:?}");
        assert_eq!(t[0].note, "lane1 in h");
    }

    #[test]
    fn clobbers_skip_locals_and_params() {
        let tu = parse_translation_unit(
            "void f(int p) { int loc; loc = 1; p = 2; gGlobal = 3; gOther->len = 4; }",
            "p.c",
        )
        .unwrap();
        let c = collect_clobbers(tu.functions().next().unwrap());
        assert!(c.contains(&"gGlobal".to_string()), "{c:?}");
        assert!(!c.iter().any(|k| k.starts_with("loc")), "{c:?}");
        assert!(!c.iter().any(|k| k.starts_with('p')), "{c:?}");
    }
}
