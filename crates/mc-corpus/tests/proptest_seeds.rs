//! Property tests over random corpus seeds.
//!
//! 1. Manifest exactness is seed-independent: whatever seed the generator
//!    runs with, the checker suite finds every planted defect and nothing
//!    else — with path-feasibility pruning on (the driver default), which
//!    also proves pruning never drops a planted true positive.
//! 2. The two traversal modes agree: on loop-free functions (the whole
//!    corpus), StateSet-with-pruning and Exhaustive-with-pruning produce
//!    identical reports.

use mc_checkers::all_checkers;
use mc_corpus::eval::evaluate;
use mc_corpus::{generate, plan::plan_for, PlantedKind};
use mc_driver::Driver;
use proptest::prelude::*;

fn checked(proto: &mc_corpus::Protocol, mode: mc_cfg::Mode) -> Vec<mc_driver::Report> {
    let mut driver = Driver::new();
    driver.mode = mode;
    all_checkers(&mut driver, &proto.spec).unwrap();
    driver.check_sources(&proto.sources()).unwrap()
}

proptest! {
    // Each case checks an ~10 kLOC protocol; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bitvector_manifest_exact_for_any_seed(seed in any::<u64>()) {
        let proto = generate(plan_for("bitvector").unwrap(), seed);
        let reports = checked(&proto, mc_cfg::Mode::StateSet);
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
        let reports = checked(&proto, mc_cfg::Mode::StateSet);
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
        let reports = checked(&proto, mc_cfg::Mode::StateSet);
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

    // Mode equivalence on loop-free functions: the state-set worklist
    // (facts folded into traversal state with a sound join) and the
    // explicit-path stack must refute the same edges and report the same
    // violations. Functions with back edges (the send-wait FP spin
    // loops) are excluded — there the exhaustive bounded revisit and the
    // worklist join legitimately explore different path sets.
    #[test]
    fn state_set_and_exhaustive_agree_with_pruning_on_loop_free_functions(
        seed in any::<u64>()
    ) {
        let proto = generate(plan_for("bitvector").unwrap(), seed);
        let loopy: std::collections::HashSet<String> = proto
            .files
            .iter()
            .flat_map(|f| {
                mc_ast::parse_translation_unit(&f.source, &f.name)
                    .unwrap()
                    .functions()
                    .filter(|func| !mc_cfg::Cfg::build(func).back_edges().is_empty())
                    .map(|func| func.name.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        prop_assert!(loopy.len() < 4, "only the spin-loop FP sites may loop");
        let loop_free = |reports: Vec<mc_driver::Report>| -> Vec<mc_driver::Report> {
            reports
                .into_iter()
                .filter(|r| !loopy.contains(&r.function))
                .collect()
        };
        let state_set = loop_free(checked(&proto, mc_cfg::Mode::StateSet));
        let exhaustive = loop_free(checked(
            &proto,
            mc_cfg::Mode::Exhaustive { max_paths: 1_000_000 },
        ));
        prop_assert_eq!(state_set, exhaustive);
    }
}
