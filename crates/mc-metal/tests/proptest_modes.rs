//! Property test: for loop-free functions, the state-set worklist and
//! exhaustive path enumeration produce exactly the same metal reports —
//! the correctness half of the DESIGN.md traversal ablation.

use mc_ast::parse_translation_unit;
use mc_cfg::{run_machine, Cfg, Mode};
use mc_metal::{MetalMachine, MetalProgram};
use proptest::prelude::*;

const SM: &str = r#"
    sm wait_for_db {
        decl { scalar } addr, buf;
        start:
            { WAIT_FOR_DB_FULL(addr); } ==> stop
          | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
        ;
    }
"#;

/// Loop-free bodies mixing reads, waits, and branches.
fn arb_body() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("WAIT_FOR_DB_FULL(a);".to_string()),
        Just("x = MISCBUS_READ_DB(a, 0);".to_string()),
        Just("x = x + 1;".to_string()),
        Just("return;".to_string()),
    ];
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(|v| v.join("\n")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("if (c) {{ {a} }} else {{ {b} }}")),
            inner.clone().prop_map(|a| format!("if (c) {{ {a} }}")),
            (inner.clone(), inner)
                .prop_map(|(a, b)| format!("switch (op) {{ case 1: {a} break; default: {b} }}")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn modes_agree_on_loop_free_functions(body in arb_body()) {
        let prog = MetalProgram::parse(SM).unwrap();
        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "p.c").unwrap();
        let cfg = Cfg::build(tu.function("f").unwrap());

        let mut a = MetalMachine::new(&prog);
        let init = a.start_state();
        run_machine(&cfg, &mut a, init, Mode::StateSet);

        let mut b = MetalMachine::new(&prog);
        run_machine(&cfg, &mut b, init, Mode::Exhaustive { max_paths: 1_000_000 });

        let mut ra: Vec<_> = a.reports.iter().map(|r| (r.span, r.message.clone())).collect();
        let mut rb: Vec<_> = b.reports.iter().map(|r| (r.span, r.message.clone())).collect();
        ra.sort();
        ra.dedup();
        rb.sort();
        rb.dedup();
        prop_assert_eq!(ra, rb);
    }
}
