//! Property tests on CFG construction: structural invariants hold for
//! arbitrary loop-free and loopy statement trees.

use mc_ast::parse_translation_unit;
use mc_cfg::{run_machine, Cfg, PathEvent, PathMachine, Terminator, Witness};
use proptest::prelude::*;

/// Generates a random statement-body source text. `depth` bounds nesting.
fn arb_body() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x = x + 1;".to_string()),
        Just("f(x);".to_string()),
        Just("return;".to_string()),
        Just("y = g(x, 2);".to_string()),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // sequence
            prop::collection::vec(inner.clone(), 1..4).prop_map(|v| v.join("\n")),
            // if / if-else
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("if (c) {{ {a} }} else {{ {b} }}")),
            inner.clone().prop_map(|a| format!("if (c) {{ {a} }}")),
            // loops
            inner.clone().prop_map(|a| format!("while (c) {{ {a} }}")),
            inner
                .clone()
                .prop_map(|a| format!("for (i = 0; i < 4; i++) {{ {a} }}")),
            // switch
            (inner.clone(), inner)
                .prop_map(|(a, b)| format!("switch (op) {{ case 1: {a} break; default: {b} }}")),
        ]
    })
}

/// Counts the events a traversal steps.
#[derive(Default)]
struct EventCounter {
    stmts: usize,
    returns: usize,
}

impl PathMachine for EventCounter {
    type State = ();
    fn step(&mut self, _: &(), event: &PathEvent<'_>, _: &Witness<'_>) -> Vec<()> {
        match event {
            PathEvent::Stmt(_) => self.stmts += 1,
            PathEvent::Return { .. } => {
                self.returns += 1;
                return vec![];
            }
            _ => {}
        }
        vec![()]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cfg_structural_invariants(body in arb_body()) {
        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "p.c").unwrap();
        let cfg = Cfg::build(tu.function("f").unwrap());

        // Entry is block 0 and in range.
        prop_assert_eq!(cfg.entry.0, 0);
        // Every successor id is a valid block.
        for (_, block) in cfg.iter() {
            for s in block.term.successors() {
                prop_assert!(s.0 < cfg.blocks.len());
            }
        }
        // At least one exit exists (void functions always fall off the end
        // or return).
        prop_assert!(!cfg.exits().is_empty());
    }

    #[test]
    fn path_stats_sane(body in arb_body()) {
        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "p.c").unwrap();
        let cfg = Cfg::build(tu.function("f").unwrap());
        let stats = cfg.path_stats();
        prop_assert!(stats.paths >= 1);
        prop_assert!(stats.max_len as u128 * stats.paths as u128 >= stats.total_len as u128);
        prop_assert!(stats.avg_len() <= stats.max_len as f64 + 1e-9);
    }

    #[test]
    fn state_set_terminates_and_visits(body in arb_body()) {
        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "p.c").unwrap();
        let cfg = Cfg::build(tu.function("f").unwrap());
        let mut m = EventCounter::default();
        run_machine(&cfg, &mut m, ());
        // With a unit state, every return terminator is visited at most
        // once.
        let return_blocks = cfg
            .iter()
            .filter(|(_, b)| matches!(b.term, Terminator::Return { .. }))
            .count();
        prop_assert!(m.returns <= return_blocks);
        prop_assert!(m.returns >= 1);
    }
}
