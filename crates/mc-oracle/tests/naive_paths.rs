//! The naive path enumerator on its own: it walks every path separately,
//! respects its path budget, and prunes infeasible edges with the facts of
//! each path — the behaviour the state-set traversal is held to.

use mc_ast::{parse_translation_unit, StmtKind};
use mc_cfg::{Cfg, PathEvent, PathMachine, Traversal, Witness};
use mc_oracle::run_naive;
use proptest::prelude::*;

/// Records the callees of call statements, one entry per visit, and counts
/// the returns: one per explored path.
#[derive(Default)]
struct Tracer {
    visits: Vec<String>,
    returns: usize,
}

impl PathMachine for Tracer {
    type State = ();

    fn step(&mut self, _: &(), event: &PathEvent<'_>, _: &Witness<'_>) -> Vec<()> {
        match event {
            PathEvent::Stmt(s) => {
                if let StmtKind::Expr(e) = &s.kind {
                    if let Some((name, _)) = e.as_call() {
                        self.visits.push(name.to_string());
                    }
                }
                vec![()]
            }
            PathEvent::Return { .. } => {
                self.returns += 1;
                vec![]
            }
            _ => vec![()],
        }
    }
}

impl Tracer {
    fn count(&self, callee: &str) -> usize {
        self.visits.iter().filter(|v| *v == callee).count()
    }
}

fn cfg_of(body: &str) -> Cfg {
    let src = format!("void f(void) {{ {body} }}");
    let tu = parse_translation_unit(&src, "t.c").unwrap();
    Cfg::build(tu.function("f").unwrap())
}

/// Runs a fresh [`Tracer`] down the paths of `body`.
fn trace(body: &str, traversal: Traversal, max_paths: usize) -> (Tracer, usize) {
    let mut m = Tracer::default();
    let stats = run_naive(&cfg_of(body), &mut m, (), traversal, None, max_paths);
    (m, stats.refuted_edges)
}

#[test]
fn naive_visits_both_arms() {
    let (m, _) = trace("if (x) { a(); } else { b(); } c();", Traversal::new(), 100);
    assert_eq!(m.returns, 2);
    assert_eq!((m.count("a"), m.count("b")), (1, 1));
    // c() is seen on both paths: nothing merges at the join.
    assert_eq!(m.count("c"), 2);
}

#[test]
fn naive_terminates_on_loops() {
    let (m, _) = trace("while (x) { a(); } b();", Traversal::new(), 1000);
    assert!(m.returns >= 1);
    assert!(m.visits.contains(&"a".to_string()));
}

#[test]
fn naive_budget_caps_explosion() {
    // 2^20 paths would hang; the budget keeps it bounded.
    let body = "if (a) x(); ".repeat(20) + "z();";
    let (m, _) = trace(&body, Traversal::without_pruning(), 500);
    assert!(m.returns <= 500);
    assert!(m.returns > 0);
}

#[test]
fn pruning_drops_correlated_branch_paths() {
    // `gMode` cannot be both true and false: 2 of the 4 syntactic paths.
    let body = "if (gMode) { a(); } mid(); if (!gMode) { b(); } end();";
    let (m, refuted) = trace(body, Traversal::new(), 100);
    assert_eq!((m.count("a"), m.count("b"), m.returns), (1, 1, 2));
    assert!(refuted >= 2);
    let (m, refuted) = trace(body, Traversal::without_pruning(), 100);
    assert_eq!((m.returns, refuted), (4, 0));
}

#[test]
fn pruning_keeps_every_path_a_write_reopens() {
    for body in [
        // The guard is recomputed between the two tests.
        "if (gMode) { a(); } gMode = next(); if (!gMode) { b(); } end();",
        // The escape of `&gMode` happens in a sibling branch, before the
        // fact is established; the `*p = …` store still clobbers it.
        "if (c) { p = &gMode; } if (gMode) { a(); } *p = next(); if (!gMode) { b(); } end();",
    ] {
        let (m, refuted) = trace(body, Traversal::new(), 100);
        assert_eq!(refuted, 0, "{body}");
        assert!(m.count("a") > 0 && m.count("b") > 0, "{body}");
    }
    let (m, _) = trace(
        "if (gMode) { a(); } gMode = next(); if (!gMode) { b(); } end();",
        Traversal::new(),
        100,
    );
    assert_eq!(m.returns, 4);
}

#[test]
fn side_effects_in_conditions_invalidate_facts() {
    for body in [
        // `n--` in the loop condition rewrites `n`.
        "if (n == 3) { while (n--) { a(); } if (n != 3) { b(); } } end();",
        // `op++` in the scrutinee clobbers the `op == 1` fact.
        "if (op == 1) { switch (op++) { case 2: a(); break; default: d(); } \
         if (op != 1) { b(); } } end();",
    ] {
        let (m, refuted) = trace(body, Traversal::new(), 100);
        assert!(m.visits.contains(&"b".to_string()), "{body}");
        assert_eq!(refuted, 0, "{body}");
    }
}

/// Loop-free and loopy statement trees, as in mc-cfg's own properties.
fn arb_body() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x = x + 1;".to_string()),
        Just("f(x);".to_string()),
        Just("return;".to_string()),
        Just("y = g(x, 2);".to_string()),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(|v| v.join("\n")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("if (c) {{ {a} }} else {{ {b} }}")),
            inner.clone().prop_map(|a| format!("if (c) {{ {a} }}")),
            inner.clone().prop_map(|a| format!("while (c) {{ {a} }}")),
            inner
                .clone()
                .prop_map(|a| format!("for (i = 0; i < 4; i++) {{ {a} }}")),
            (inner.clone(), inner)
                .prop_map(|(a, b)| format!("switch (op) {{ case 1: {a} break; default: {b} }}")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn naive_never_exceeds_budget(body in arb_body()) {
        let (m, _) = trace(&body, Traversal::without_pruning(), 64);
        prop_assert!(m.returns <= 64);
    }
}
