//! Property tests over random corpus seeds.
//!
//! 1. Manifest exactness is seed-independent: whatever seed the generator
//!    runs with, the checker suite finds every planted defect and nothing
//!    else — with path-feasibility pruning on (the driver default), which
//!    also proves pruning never drops a planted true positive.
//! 2. The traversal agrees with the naive path enumerator: on loop-free
//!    functions (the whole corpus but its spin loops), every built-in metal
//!    program reports the same violations, witnesses included, and refutes
//!    the same number of edges under the state-set traversal with pruning
//!    as when each path is walked separately with its own facts. (The
//!    native machines' half of this property is mc-checkers' own test.)

use mc_cfg::{run_traversal, Cfg, Traversal};
use mc_checkers::{all_checkers, METAL_SOURCES};
use mc_corpus::eval::evaluate;
use mc_corpus::{generate, plan::plan_for, PlantedKind};
use mc_driver::Driver;
use mc_metal::{CandidatePlan, CompiledMachine, CompiledProgram, MetalProgram};
use mc_oracle::run_naive;
use proptest::prelude::*;

fn checked(proto: &mc_corpus::Protocol) -> Vec<mc_driver::Report> {
    let mut driver = Driver::new();
    all_checkers(&mut driver, &proto.spec).unwrap();
    driver.check_sources(&proto.sources()).unwrap()
}

proptest! {
    // Each case checks an ~10 kLOC protocol; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bitvector_manifest_exact_for_any_seed(seed in any::<u64>()) {
        let proto = generate(plan_for("bitvector").unwrap(), seed);
        let reports = checked(&proto);
        let outcome = evaluate(&proto, &reports);
        prop_assert!(outcome.missed.is_empty(), "missed: {:#?}", outcome.missed);
        prop_assert!(
            outcome.unexpected.is_empty(),
            "unexpected: {:#?}",
            outcome.unexpected.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sci_manifest_exact_for_any_seed(seed in any::<u64>()) {
        let proto = generate(plan_for("sci").unwrap(), seed);
        let reports = checked(&proto);
        let outcome = evaluate(&proto, &reports);
        prop_assert!(outcome.missed.is_empty());
        prop_assert!(
            outcome.unexpected.is_empty(),
            "unexpected: {:#?}",
            outcome.unexpected.iter().map(|r| r.to_string()).collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // coma holds the two planted msglen false positives; with pruning on
    // their slot must stay empty while every real bug keeps its full
    // report count.
    #[test]
    fn coma_pruning_drops_msglen_fps_but_no_bugs(seed in any::<u64>()) {
        let proto = generate(plan_for("coma").unwrap(), seed);
        let reports = checked(&proto);
        for p in &proto.manifest {
            let in_slot = reports
                .iter()
                .filter(|r| r.checker == p.checker && r.function == p.function)
                .count();
            if p.kind == PlantedKind::FalsePositive && p.checker == "msglen_check" {
                prop_assert_eq!(in_slot, 0, "msglen FP in {} must be pruned", p.function);
            } else if p.kind != PlantedKind::FalsePositive {
                prop_assert!(
                    in_slot >= p.expected_reports,
                    "{}/{} lost reports to pruning: {in_slot} < {}",
                    p.checker, p.function, p.expected_reports
                );
            }
        }
    }

    // The traversal against the naive path enumerator on loop-free
    // functions: the state-set worklist (facts folded into traversal state
    // with a sound join) and the per-path walk must refute the same number
    // of edges and report the same violations. Functions with back edges
    // (the send-wait FP spin loops) are excluded — there the naive bounded
    // revisit and the worklist join legitimately explore different path
    // sets.
    #[test]
    fn state_set_and_naive_paths_agree_with_pruning_on_loop_free_functions(
        seed in any::<u64>()
    ) {
        let proto = generate(plan_for("bitvector").unwrap(), seed);
        let progs: Vec<CompiledProgram> = METAL_SOURCES
            .iter()
            .map(|src| CompiledProgram::compile(&MetalProgram::parse(src).unwrap()).unwrap())
            .collect();
        let mut loopy = 0;
        for f in &proto.files {
            let unit = mc_ast::parse_translation_unit(&f.source, &f.name).unwrap();
            for func in unit.functions() {
                let cfg = Cfg::build(func);
                if !cfg.back_edges().is_empty() {
                    loopy += 1;
                    continue;
                }
                for prog in &progs {
                    let plan = CandidatePlan::build(prog, &cfg);
                    let mut merged = CompiledMachine::with_plan(prog, &plan);
                    let init = merged.start_state();
                    let a = run_traversal(&cfg, &mut merged, init, Traversal::new());
                    let mut naive = CompiledMachine::with_plan(prog, &plan);
                    let b = run_naive(&cfg, &mut naive, init, Traversal::new(), None, 1_000_000);
                    prop_assert_eq!(a, b, "{} {}", &func.name, prog.name());
                    let mut merged = merged.reports;
                    let mut naive = naive.reports;
                    merged.sort_by(|x, y| (x.span, &x.message).cmp(&(y.span, &y.message)));
                    naive.sort_by(|x, y| (x.span, &x.message).cmp(&(y.span, &y.message)));
                    prop_assert_eq!(merged, naive, "{} {}", &func.name, prog.name());
                }
            }
        }
        prop_assert!(loopy < 4, "only the spin-loop FP sites may loop");
    }
}
