//! The probe edits the `edit_loop` and `cache_ci` scripts make must not
//! change what the checkers report, or those workloads' references would
//! not hold after the first edit.

use mc_benchmark::scripts::probe_fn;
use mc_driver::{CheckEngine, Driver, Report, Verdict};

fn fingerprints(driver: &Driver, sources: &[(String, String)]) -> Vec<String> {
    let (mut reports, _) = CheckEngine::in_memory()
        .check_sources(driver, sources)
        .expect("corpus parses");
    Report::sort_by_confidence(&mut reports);
    reports
        .iter()
        .filter(|r| r.verdict != Verdict::Refuted)
        .map(Report::fingerprint)
        .collect()
}

#[test]
fn probe_edits_leave_batch_fingerprints_unchanged() {
    // Family 0 is the seed corpus; family 1 is one reseeded fleet family.
    for proto in mc_corpus::generate_fleet(61861, 2) {
        let mut driver = Driver::new();
        driver.refute(true);
        mc_checkers::all_checkers(&mut driver, &proto.spec).expect("suite registers");
        let plain = proto.sources();
        let before = fingerprints(&driver, &plain);
        for stmts in [1, 7] {
            let probed: Vec<(String, String)> = plain
                .iter()
                .map(|(src, name)| {
                    (
                        src.clone() + &probe_fn(name.trim_end_matches(".c"), stmts),
                        name.clone(),
                    )
                })
                .collect();
            assert_eq!(
                fingerprints(&driver, &probed),
                before,
                "{}: a {stmts}-statement probe changed the reports",
                proto.name
            );
        }
    }
}
