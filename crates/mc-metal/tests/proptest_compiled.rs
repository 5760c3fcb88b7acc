//! Differential property test for the compiled metal engine: for random
//! metal programs over random loop-free bodies, the compiled dispatcher
//! (with and without a prebuilt candidate plan) must produce reports
//! byte-identical to the interpreter — same messages, same spans, same
//! witness paths, same order — and the same number of rule applications.
//!
//! This is the oracle that keeps the compiled engine — the only one the
//! driver runs — honest: the interpreter is the semantics, the compiler is
//! only allowed to be faster.

use mc_ast::parse_translation_unit;
use mc_cfg::{run_machine, Cfg, Mode};
use mc_metal::{CandidatePlan, CompiledMachine, CompiledProgram, MetalMachine, MetalProgram};
use proptest::prelude::*;

/// The pattern vocabulary random programs draw rules from. Each entry is a
/// metal pattern (using the shared `decl { scalar } a, b;`) paired with the
/// C-side statement the body generator emits to exercise it.
const VOCAB: &[(&str, &str)] = &[
    ("{ WAIT_FOR(a); }", "WAIT_FOR(x);"),
    ("{ READ_DB(a, b); }", "READ_DB(x, y);"),
    ("{ SEND_MSG(a); }", "SEND_MSG(x);"),
    ("{ b = ALLOC(a); }", "y = ALLOC(x);"),
    ("{ FREE(a); }", "FREE(x);"),
];

/// A transition target: another state, or an in-place err/warn action.
fn arb_target() -> BoxedStrategy<String> {
    const STATES: &[&str] = &["start", "mid", "stop"];
    prop_oneof![
        (0..STATES.len()).prop_map(|i| STATES[i].to_string()),
        Just("{ err(\"boom\"); }".to_string()),
        Just("{ warn(\"odd\"); }".to_string()),
    ]
    .boxed()
}

/// One `pattern ==> target` rule over the vocabulary.
fn arb_rule() -> impl Strategy<Value = String> {
    (0..VOCAB.len(), arb_target()).prop_map(|(i, t)| format!("{} ==> {}", VOCAB[i].0, t))
}

/// A whole random metal program: two ordinary states plus sometimes an
/// `all` state, each with 1-3 rules drawn from the vocabulary.
fn arb_program() -> impl Strategy<Value = String> {
    let state_block = || prop::collection::vec(arb_rule(), 1..4).boxed();
    (
        state_block(),
        state_block(),
        prop::option::of(state_block()),
    )
        .prop_map(|(start, mid, all)| {
            let mut sm = String::from("sm diffcheck {\n    decl { scalar } a, b;\n");
            if let Some(all) = all {
                sm.push_str(&format!(
                    "    all:\n        {}\n    ;\n",
                    all.join("\n      | ")
                ));
            }
            sm.push_str(&format!(
                "    start:\n        {}\n    ;\n",
                start.join("\n      | ")
            ));
            sm.push_str(&format!(
                "    mid:\n        {}\n    ;\n}}\n",
                mid.join("\n      | ")
            ));
            sm
        })
}

/// Loop-free bodies mixing vocabulary calls, plain arithmetic, and
/// branch/switch structure.
fn arb_body() -> impl Strategy<Value = String> {
    let mut leaves: Vec<_> = VOCAB
        .iter()
        .map(|(_, stmt)| Just(stmt.to_string()).boxed())
        .collect();
    leaves.push(Just("x = x + 1;".to_string()).boxed());
    leaves.push(Just("return;".to_string()).boxed());
    let leaf = prop::strategy::Union::new(leaves);
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
    fn compiled_engine_matches_interpreter(
        (sm_src, body) in (arb_program(), arb_body())
    ) {
        let prog = MetalProgram::parse(&sm_src)
            .unwrap_or_else(|e| panic!("generator emitted unparsable SM: {e:?}\n{sm_src}"));
        let compiled = CompiledProgram::compile(&prog)
            .unwrap_or_else(|e| panic!("compile failed: {e:?}\n{sm_src}"));

        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "p.c").unwrap();
        let cfg = Cfg::build(tu.function("f").unwrap());

        // Oracle: the interpreter.
        let mut interp = MetalMachine::new(&prog);
        let init = interp.start_state();
        run_machine(&cfg, &mut interp, init, Mode::StateSet);

        // Compiled dispatch without a candidate plan (pure bytecode path).
        let mut plain = CompiledMachine::new(&compiled);
        let cinit = plain.start_state();
        run_machine(&cfg, &mut plain, cinit, Mode::StateSet);

        // Compiled dispatch through a prebuilt candidate plan — the path
        // the driver actually takes.
        let plan = CandidatePlan::build(&compiled, &cfg);
        let mut planned = CompiledMachine::with_plan(&compiled, &plan);
        run_machine(&cfg, &mut planned, cinit, Mode::StateSet);

        prop_assert_eq!(&plain.reports, &interp.reports, "plain compiled diverged\n{}", &sm_src);
        prop_assert_eq!(&planned.reports, &interp.reports, "planned compiled diverged\n{}", &sm_src);
        prop_assert_eq!(plain.applications, interp.applications, "application counts diverged\n{}", &sm_src);
        prop_assert_eq!(planned.applications, interp.applications, "planned application counts diverged\n{}", &sm_src);
    }

    #[test]
    fn compiled_engine_matches_interpreter_exhaustive(
        (sm_src, body) in (arb_program(), arb_body())
    ) {
        let prog = MetalProgram::parse(&sm_src).unwrap();
        let compiled = CompiledProgram::compile(&prog).unwrap();

        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "p.c").unwrap();
        let cfg = Cfg::build(tu.function("f").unwrap());

        let mode = Mode::Exhaustive { max_paths: 100_000 };
        let mut interp = MetalMachine::new(&prog);
        let init = interp.start_state();
        run_machine(&cfg, &mut interp, init, mode);

        let plan = CandidatePlan::build(&compiled, &cfg);
        let mut planned = CompiledMachine::with_plan(&compiled, &plan);
        let cinit = planned.start_state();
        run_machine(&cfg, &mut planned, cinit, mode);

        prop_assert_eq!(&planned.reports, &interp.reports, "{}", &sm_src);
        prop_assert_eq!(planned.applications, interp.applications, "{}", &sm_src);
    }
}
