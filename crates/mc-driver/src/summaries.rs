//! The function-summary engine: computes one [`FnSummary`] per definition,
//! bottom-up over the call graph, and serves them to traversals and
//! program passes.
//!
//! This generalizes the lane checker's old bespoke emit-and-link pass (the
//! paper's §7 global framework) into infrastructure every checker shares:
//!
//! * the *emit* half is [`Checker::summarize_function`] plus the metal
//!   transfer computation ([`mc_metal::compute_transfers_compiled`]) — each
//!   checker contributes what it knows about one function to that
//!   function's summary;
//! * the *link* half is the bottom-up order: callees are summarized before
//!   their callers (Tarjan SCCs of the function-level call graph, visited
//!   in reverse topological order), so a caller's summary can fold its
//!   callees' summaries in. Members of one SCC see each other as
//!   [`Resolved::Recursive`] and fall under the §7 fixed-point rule:
//!   count-free cycles are ignored, cycles with counts warn.
//!
//! The store is consulted in two ways: whole-program passes read summaries
//! directly (the lane checker's quota check), and — under
//! [`Driver::interproc`] — local traversals resolve call sites through it
//! via [`mc_cfg::SummaryLookup`], applying callee state transfers instead
//! of stepping over calls blindly.

use crate::driver::{CheckedUnit, Driver, FunctionContext};
use mc_ast::Function;
use mc_cfg::{collect_clobbers, tarjan_sccs, Cfg, FnSummary, Resolved, SummaryLookup};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Counters from one summary-engine run, reported by `mc-bench`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Number of function summaries computed.
    pub computed: usize,
    /// Number of call *sites* (with multiplicity) whose callee has a
    /// summary in the store.
    pub call_sites_resolved: usize,
}

/// A store of function summaries, keyed by function name.
///
/// Built by [`Summaries::compute`] (or reassembled from cached records by
/// the incremental engine) and handed to checkers through
/// [`FunctionContext::summaries`] / [`crate::ProgramContext::summaries`].
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    /// Name → summary. A `BTreeMap` so iteration (and thus serialization)
    /// is deterministic.
    map: BTreeMap<String, FnSummary>,
    /// Every function name *defined* in the analyzed program, whether or
    /// not its summary is present yet — this is what distinguishes
    /// [`Resolved::Recursive`] from [`Resolved::Unknown`].
    defined: BTreeSet<String>,
    stats: SummaryStats,
}

impl SummaryLookup for Summaries {
    fn lookup(&self, callee: &str) -> Option<&FnSummary> {
        self.map.get(callee)
    }
}

impl Summaries {
    /// Creates an empty store.
    pub fn empty() -> Summaries {
        Summaries::default()
    }

    /// The summary of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&FnSummary> {
        self.map.get(name)
    }

    /// Resolves a callee name the way the summary engine does: summary if
    /// present, [`Resolved::Recursive`] if the name is defined but not yet
    /// summarized (same call-graph cycle), [`Resolved::Unknown`] otherwise.
    pub fn resolve(&self, callee: &str) -> Resolved<'_> {
        match self.map.get(callee) {
            Some(s) => Resolved::Summary(s),
            None if self.defined.contains(callee) => Resolved::Recursive,
            None => Resolved::Unknown,
        }
    }

    /// Inserts a summary (used when reassembling a store from cache).
    pub fn insert(&mut self, summary: FnSummary) {
        self.defined.insert(summary.function.clone());
        self.map.insert(summary.function.clone(), summary);
        self.stats.computed = self.map.len();
    }

    /// Iterates summaries in function-name order.
    pub fn iter(&self) -> impl Iterator<Item = &FnSummary> {
        self.map.values()
    }

    /// Number of summaries in the store.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the store holds no summaries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters from the run that built this store.
    pub fn stats(&self) -> SummaryStats {
        self.stats
    }

    /// Computes a summary for every function definition in `units`,
    /// bottom-up over the call graph: [`Summaries::compute_memoized`] with
    /// a fresh memo, plus the `call_sites_resolved` count.
    ///
    /// `with_transfers` enables the state-transfer half (metal machines and
    /// [`Checker::summarize_function`] transfer computation); counter
    /// contributions are computed regardless, since the lane checker's
    /// program pass needs them even when call-site resolution is off.
    /// Duplicate definitions resolve last-wins, matching the old global
    /// linker.
    ///
    /// [`Checker::summarize_function`]: crate::Checker::summarize_function
    pub fn compute(driver: &Driver, units: &[&CheckedUnit], with_transfers: bool) -> Summaries {
        let mut store =
            Summaries::compute_memoized(driver, units, with_transfers, &mut HashMap::new());
        // A call site counts as resolved when its callee ended up in the
        // store.
        store.stats.call_sites_resolved = collect_defs(units)
            .0
            .iter()
            .map(|d| count_resolved_calls(d.function, &store))
            .sum();
        store
    }

    /// [`Summaries::compute`] with a per-function memo: a function whose
    /// *summary inputs* — its own body, its file, the whole checker suite,
    /// and (recursively) the summaries of every callee it can resolve —
    /// are unchanged reuses its previous summary instead of re-running
    /// the emit half.
    ///
    /// SCCs are grouped into topological *waves*: an SCC's level is one
    /// more than the deepest level among its out-of-SCC callees, so no call
    /// edge ever connects two SCCs of the same level. Every definition in a
    /// wave is summarized concurrently over the worker pool — each sees
    /// exactly the store state a sequential bottom-up visit would have
    /// shown it (all lower waves published, its own SCC unpublished, so
    /// mutually-recursive functions still resolve as `Recursive`). Wave
    /// results are keyed by name into the `BTreeMap`, so store contents are
    /// independent of completion order.
    ///
    /// Input keys are built bottom-up over the same SCC order: a member's
    /// key folds the suite key, the cyclic flag, every SCC member's `(name,
    /// file, body fingerprint)` (plus its unit's environment hash when a
    /// registered checker is [`unit_sensitive`]), and each out-of-SCC
    /// callee's *input key* (undefined callees fold as name-only). Equal
    /// keys therefore guarantee the bottom-up computation would replay
    /// identically, so the store is identical to a fresh computation —
    /// only cheaper after an edit, when untouched functions reuse.
    ///
    /// `stats.computed` counts the summaries not taken from the memo;
    /// `stats.call_sites_resolved` is left at zero, as in a store
    /// reassembled from cache records.
    ///
    /// [`unit_sensitive`]: crate::Checker::unit_sensitive
    pub fn compute_memoized(
        driver: &Driver,
        units: &[&CheckedUnit],
        with_transfers: bool,
        memo: &mut HashMap<u64, FnSummary>,
    ) -> Summaries {
        let (defs, adj) = collect_defs(units);

        let mut store = Summaries::empty();
        for def in &defs {
            store.defined.insert(def.function.name.clone());
        }

        let sccs = tarjan_sccs(&adj);
        let mut scc_of = vec![0usize; defs.len()];
        for (si, scc) in sccs.iter().enumerate() {
            for &m in scc {
                scc_of[m] = si;
            }
        }
        // `tarjan_sccs` yields callees before callers, so every callee
        // SCC's level and input keys are final when its caller's are
        // computed.
        let suite = driver.suite_key();
        let unit_sensitive = driver.has_unit_sensitive_checkers();
        let mut level = vec![0usize; sccs.len()];
        let mut key_of: Vec<u64> = vec![0; defs.len()];
        let mut waves: Vec<Vec<(usize, bool)>> = Vec::new();
        for (si, scc) in sccs.iter().enumerate() {
            let mut lv = 0;
            for &m in scc {
                for &c in &adj[m] {
                    if scc_of[c] != si {
                        lv = lv.max(level[scc_of[c]] + 1);
                    }
                }
            }
            level[si] = lv;
            // A lone node with a self-loop is still a cycle.
            let cyclic = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
            // Sort members by name so wave item order never depends on
            // unit order within a cycle.
            let mut members = scc.clone();
            members.sort_by(|&a, &b| defs[a].function.name.cmp(&defs[b].function.name));
            for &m in &members {
                let def = &defs[m];
                let mut h = mc_ast::Fnv1a::new();
                h.write_u64(suite)
                    .write_u64(u64::from(with_transfers))
                    .write_u64(u64::from(cyclic));
                for &s in &members {
                    let member = &defs[s];
                    h.write_str(&member.function.name)
                        .write_str(&member.unit.unit.file)
                        .write_u64(member.unit.fn_fingerprints()[member.fidx].body);
                    if unit_sensitive {
                        h.write_u64(member.unit.env_fp());
                    }
                }
                h.write_str(&def.function.name);
                for callee in &def.unit.fn_call_names()[def.fidx] {
                    h.write_str(callee);
                    match def.callee_index(callee) {
                        Some(c) if scc_of[c] != si => {
                            h.write_u64(1).write_u64(key_of[c]);
                        }
                        // Same-SCC callees are covered by the member fold
                        // above; undefined callees resolve `Unknown` and
                        // fold as name-only.
                        _ => {
                            h.write_u64(0);
                        }
                    }
                }
                key_of[m] = h.finish();
            }
            if waves.len() <= lv {
                waves.resize(lv + 1, Vec::new());
            }
            waves[lv].extend(members.into_iter().map(|m| (m, cyclic)));
        }

        let mut computed = 0;
        for wave in &waves {
            // Summarize the memo misses against the lower waves only, then
            // publish the whole wave: a reused summary must not become
            // visible to a same-SCC member mid-wave.
            let todo: Vec<(usize, bool)> = wave
                .iter()
                .copied()
                .filter(|(m, _)| !memo.contains_key(&key_of[*m]))
                .collect();
            let batch = driver.pool_map(todo.len(), |i| {
                let (m, cyclic) = todo[i];
                summarize_def(driver, &store, &defs[m], cyclic, with_transfers)
            });
            computed += batch.len();
            let mut batch = batch.into_iter();
            for &(m, _) in wave {
                let summary = match memo.get(&key_of[m]) {
                    Some(s) => s.clone(),
                    None => {
                        let s = batch.next().expect("one summary per memo miss");
                        memo.insert(key_of[m], s.clone());
                        s
                    }
                };
                store.map.insert(summary.function.clone(), summary);
            }
        }

        store.stats.computed = computed;
        store
    }
}

/// One function definition inside a component, with enough context to
/// resolve its callees back to definition indices.
struct Def<'a> {
    unit: &'a CheckedUnit,
    function: &'a Function,
    cfg: &'a Cfg,
    /// Index of the function within its unit, in definition order.
    fidx: usize,
    /// Shared name → definition-index map of the whole component.
    index_of: std::sync::Arc<HashMap<String, usize>>,
}

impl Def<'_> {
    fn callee_index(&self, callee: &str) -> Option<usize> {
        self.index_of.get(callee).copied()
    }
}

/// Collects definitions (node per unique name, last definition wins, node
/// indices in first-occurrence order for determinism) and the
/// function-level call graph over defined names.
fn collect_defs<'a>(units: &[&'a CheckedUnit]) -> (Vec<Def<'a>>, Vec<Vec<usize>>) {
    let mut defs: Vec<Def<'a>> = Vec::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for unit in units {
        for (fidx, (function, cfg)) in unit.functions().enumerate() {
            let def = Def {
                unit,
                function,
                cfg,
                fidx,
                index_of: std::sync::Arc::new(HashMap::new()),
            };
            match index_of.entry(function.name.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => defs[*e.get()] = def,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(defs.len());
                    defs.push(def);
                }
            }
        }
    }
    let index_of = std::sync::Arc::new(index_of);
    for def in &mut defs {
        def.index_of = index_of.clone();
    }

    let adj: Vec<Vec<usize>> = defs
        .iter()
        .map(|d| {
            d.unit.fn_call_names()[d.fidx]
                .iter()
                .filter_map(|callee| index_of.get(callee.as_str()).copied())
                .collect()
        })
        .collect();
    (defs, adj)
}

/// Summarizes one definition against the store built so far: the metal
/// transfer computation (when `with_transfers` and acyclic) plus every
/// native checker's [`Checker::summarize_function`].
///
/// [`Checker::summarize_function`]: crate::Checker::summarize_function
fn summarize_def(
    driver: &Driver,
    store: &Summaries,
    def: &Def<'_>,
    cyclic: bool,
    with_transfers: bool,
) -> FnSummary {
    let traversal = driver.traversal();
    let mut summary = FnSummary {
        function: def.function.name.clone(),
        file: def.unit.unit.file.clone(),
        calls: def.unit.fn_call_names()[def.fidx].clone(),
        clobbers: collect_clobbers(def.function),
        ..FnSummary::default()
    };
    let transfers = with_transfers && !cyclic;
    if transfers {
        let programs: Vec<&mc_metal::CompiledProgram> = driver.compiled_programs().iter().collect();
        let plans = mc_metal::CandidatePlan::build_many(&programs, def.cfg);
        for (cp, plan) in programs.into_iter().zip(&plans) {
            let t = mc_metal::compute_transfers_compiled(cp, plan, def.cfg, traversal, Some(store));
            if !t.is_empty() {
                summary.transfers.insert(cp.name().to_string(), t);
            }
        }
    }
    let ctx = FunctionContext {
        file: &def.unit.unit.file,
        unit: &def.unit.unit,
        function: def.function,
        cfg: def.cfg,
        traversal,
        summaries: Some(store),
    };
    for checker in driver.native_checkers() {
        checker.summarize_function(&ctx, &mut summary, transfers);
    }
    summary
}

/// Counts call expressions in `func` (with multiplicity) whose callee has a
/// summary in `store`.
fn count_resolved_calls(func: &Function, store: &Summaries) -> usize {
    struct V<'a> {
        store: &'a Summaries,
        n: usize,
    }
    impl mc_ast::Visitor for V<'_> {
        fn visit_expr(&mut self, e: &mc_ast::Expr) {
            if let Some((name, _)) = e.as_call() {
                if self.store.get(name).is_some() {
                    self.n += 1;
                }
            }
        }
    }
    let mut v = V { store, n: 0 };
    mc_ast::walk_function(&mut v, func);
    v.n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{CheckSink, Checker};
    use mc_ast::parse_translation_unit;

    fn units(srcs: &[(&str, &str)]) -> Vec<CheckedUnit> {
        srcs.iter()
            .map(|(src, file)| CheckedUnit::new(parse_translation_unit(src, file).unwrap()))
            .collect()
    }

    #[test]
    fn bottom_up_order_sees_callee_summaries() {
        /// Counts `PING()` calls transitively via summaries.
        struct Ping;
        impl Checker for Ping {
            fn name(&self) -> &str {
                "ping"
            }
            fn check_function(&self, _: &FunctionContext<'_>, _: &mut CheckSink) {}
            fn needs_summaries(&self) -> bool {
                true
            }
            fn summarize_function(
                &self,
                ctx: &FunctionContext<'_>,
                summary: &mut FnSummary,
                _: bool,
            ) {
                let store = ctx.summaries.expect("engine always passes the store");
                let counts = mc_cfg::summarize_counts(
                    ctx.file,
                    ctx.cfg,
                    &mut |e| {
                        e.as_call()
                            .filter(|(name, _)| *name == "PING")
                            .map(|_| ("ping".to_string(), 1))
                    },
                    &|callee| store.resolve(callee),
                );
                summary.counters = counts.counters;
            }
        }
        let mut d = Driver::new();
        d.add_checker(Box::new(Ping));
        let us = units(&[
            ("void leaf(void) { PING(); }", "leaf.c"),
            ("void mid(void) { leaf(); leaf(); }", "mid.c"),
            ("void top(void) { mid(); PING(); }", "top.c"),
        ]);
        let refs: Vec<&CheckedUnit> = us.iter().collect();
        let store = Summaries::compute(&d, &refs, false);
        assert_eq!(store.get("leaf").unwrap().counters["ping"], 1);
        assert_eq!(store.get("mid").unwrap().counters["ping"], 2);
        assert_eq!(store.get("top").unwrap().counters["ping"], 3);
        assert_eq!(store.stats().computed, 3);
        // mid→leaf twice, top→mid once: three resolved call sites.
        assert_eq!(store.stats().call_sites_resolved, 3);
    }

    #[test]
    fn duplicate_definitions_resolve_last_wins() {
        let d = Driver::new();
        let us = units(&[
            ("void f(void) { a(); }", "first.c"),
            ("void f(void) { b(); }", "second.c"),
        ]);
        let refs: Vec<&CheckedUnit> = us.iter().collect();
        let store = Summaries::compute(&d, &refs, false);
        let f = store.get("f").unwrap();
        assert_eq!(f.file, "second.c");
        assert_eq!(f.calls, ["b"]);
    }

    #[test]
    fn resolve_distinguishes_recursive_from_unknown() {
        let d = Driver::new();
        let us = units(&[("void f(void) { f(); ext(); }", "t.c")]);
        let refs: Vec<&CheckedUnit> = us.iter().collect();
        let store = Summaries::compute(&d, &refs, false);
        assert!(matches!(store.resolve("f"), Resolved::Summary(_)));
        assert!(matches!(store.resolve("ext"), Resolved::Unknown));
        let mut partial = Summaries::empty();
        partial.defined.insert("f".to_string());
        assert!(matches!(partial.resolve("f"), Resolved::Recursive));
    }

    #[test]
    fn clobbers_and_calls_recorded_without_any_checker() {
        let d = Driver::new();
        let us = units(&[("void f(int p) { gState = 1; p = 2; helper(); }", "t.c")]);
        let refs: Vec<&CheckedUnit> = us.iter().collect();
        let store = Summaries::compute(&d, &refs, false);
        let f = store.get("f").unwrap();
        assert_eq!(f.clobbers, ["gState"]);
        assert_eq!(f.calls, ["helper"]);
    }

    #[test]
    fn metal_transfers_skipped_for_cycles_and_without_flag() {
        const SM: &str = r#"
            sm toggle {
                decl { scalar } x;
                start: { FLIP(x); } ==> flipped;
                flipped: { FLIP(x); } ==> start;
            }
        "#;
        let mut d = Driver::new();
        d.add_metal_source(SM).unwrap();
        let us = units(&[
            ("void helper(void) { FLIP(a); }", "h.c"),
            ("void looper(void) { FLIP(a); looper(); }", "l.c"),
        ]);
        let refs: Vec<&CheckedUnit> = us.iter().collect();

        let off = Summaries::compute(&d, &refs, false);
        assert!(off.get("helper").unwrap().transfers.is_empty());

        let on = Summaries::compute(&d, &refs, true);
        let helper = on.get("helper").unwrap();
        let per_state = helper.transfers.get("toggle").expect("toggle transfers");
        assert_eq!(per_state["start"], ["flipped"]);
        assert_eq!(per_state["flipped"], ["start"]);
        // Self-recursive function: no fixed point attempted, stays opaque.
        assert!(on.get("looper").unwrap().transfers.is_empty());
    }
}
