//! Engine-equivalence guarantee: the compiled metal engine is an
//! optimization, never a behavior change. For every corpus protocol and
//! every driver configuration, the built-in suite must produce a report
//! vector byte-identical to the same suite with its metal programs run by
//! the interpreter (registered through the test-side adapter in
//! `common`) — same diagnostics, same witness paths, same order.
//!
//! This is the property that lets the driver run only the compiled engine
//! while the interpreter stays the reference semantics.

mod common;

use flash_mc::checkers::all_checkers;
use flash_mc::corpus::plan::PLANS;
use flash_mc::corpus::{generate, DEFAULT_SEED};
use flash_mc::driver::{Driver, Report};
use proptest::prelude::*;

/// Runs the full built-in checker suite over one protocol's sources, with
/// interpreted or compiled metal, and returns the merged report vector.
fn check_protocol(
    plan_idx: usize,
    seed: u64,
    interp: bool,
    prune: bool,
    interproc: bool,
) -> Vec<Report> {
    let proto = generate(&PLANS[plan_idx], seed);
    let mut driver = Driver::new();
    driver.jobs(1);
    driver.prune(prune);
    driver.interproc(interproc);
    if interp {
        common::interp_suite(&mut driver, &proto.spec, None);
    } else {
        all_checkers(&mut driver, &proto.spec).expect("suite registers");
    }
    driver
        .check_sources(&proto.sources())
        .expect("corpus parses")
}

#[test]
fn full_corpus_identical_across_engines() {
    // Every built-in protocol at the canonical corpus seed, under every
    // prune/interproc combination: the compiled engine must reproduce the
    // interpreter's report vector exactly.
    for (i, _) in PLANS.iter().enumerate() {
        let seed = DEFAULT_SEED.wrapping_add(i as u64);
        for (prune, interproc) in [(true, false), (false, false), (true, true)] {
            let interp = check_protocol(i, seed, true, prune, interproc);
            let compiled = check_protocol(i, seed, false, prune, interproc);
            assert_eq!(
                compiled, interp,
                "protocol #{i} (prune={prune}, interproc={interproc}) \
                 diverged between engines"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_protocols_identical_across_engines(
        (plan_idx, seed_offset, prune) in (0usize..6, 0u64..1024, any::<bool>())
    ) {
        let seed = DEFAULT_SEED.wrapping_add(seed_offset);
        let interp = check_protocol(plan_idx, seed, true, prune, false);
        let compiled = check_protocol(plan_idx, seed, false, prune, false);
        prop_assert_eq!(
            compiled,
            interp,
            "plan {} seed {:#x} prune {} diverged between engines",
            plan_idx,
            seed,
            prune
        );
    }
}
