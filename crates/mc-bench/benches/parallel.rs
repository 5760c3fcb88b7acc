//! Driver throughput at 1/2/4/8 workers over the full generated corpus,
//! with path-feasibility pruning on (the driver default) and off (the
//! paper's xg++).
//!
//! The work fanned out is the whole check pipeline — parsing, CFG
//! construction, metal machines, native checkers — and the merged report
//! vector is identical at every worker count (asserted here), so the only
//! thing that may vary between bars of one pruning setting is wall time.
//! The two settings report different counts (pruning removes the
//! correlated-branch false positives), so each has its own baseline.
//!
//! End-to-end performance of the `mcheck` binary is measured by
//! `mc-benchmark` (`bench/`), not here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mc_bench::checked_units;
use mc_checkers::all_checkers;
use mc_corpus::plan::PLANS;
use mc_corpus::{generate, Protocol, DEFAULT_SEED};
use mc_driver::Driver;
use std::hint::black_box;

fn corpus() -> Vec<Protocol> {
    PLANS
        .iter()
        .enumerate()
        .map(|(i, plan)| generate(plan, DEFAULT_SEED.wrapping_add(i as u64)))
        .collect()
}

fn check_corpus(protocols: &[Protocol], jobs: usize, prune: bool) -> usize {
    let mut reports = 0;
    for proto in protocols {
        let mut driver = Driver::new();
        driver.jobs(jobs);
        driver.prune(prune);
        all_checkers(&mut driver, &proto.spec).expect("suite registers");
        reports += driver
            .check_sources(&proto.sources())
            .expect("corpus parses")
            .len();
    }
    reports
}

fn bench_worker_counts(c: &mut Criterion) {
    let protocols = corpus();
    let functions: usize = protocols
        .iter()
        .flat_map(|p| checked_units(&p.sources()))
        .map(|u| u.cfgs.len())
        .sum();
    let mut g = c.benchmark_group("driver_jobs");
    g.throughput(Throughput::Elements(functions as u64));
    g.sample_size(10);
    for (label, prune) in [("prune_on", true), ("prune_off", false)] {
        let baseline = check_corpus(&protocols, 1, prune);
        for jobs in [1usize, 2, 4, 8] {
            g.bench_with_input(BenchmarkId::new(label, jobs), &jobs, |b, &jobs| {
                b.iter(|| {
                    let reports = check_corpus(black_box(&protocols), jobs, prune);
                    assert_eq!(
                        reports, baseline,
                        "report count changed at jobs={jobs} ({label})"
                    );
                    reports
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_worker_counts);
criterion_main!(benches);
