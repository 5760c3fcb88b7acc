//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! 1. **State-set worklist vs. exhaustive path enumeration.** The paper
//!    applies SMs "down every path"; with `k` sequential branches a
//!    function has `2^k` paths, so exhaustive walking explodes while the
//!    state-set worklist stays linear (same reports for finite-state
//!    checkers).
//! 2. **Pattern indexing.** The interpreter, which pre-filters patterns by
//!    required identifiers, vs. the compiled decision program the driver
//!    runs. The compiled bar must give the interpreter's reports (asserted
//!    here).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_ast::parse_translation_unit;
use mc_cfg::{run_machine, Cfg, Mode};
use mc_corpus::{generate, plan::plan_for, DEFAULT_SEED};
use mc_metal::{
    CandidatePlan, CompiledMachine, CompiledProgram, MetalMachine, MetalProgram, MetalReport,
};
use std::hint::black_box;

/// A handler with `k` sequential condition-dependent frees — `2^k` paths.
fn branchy_source(k: usize) -> String {
    let mut body = String::new();
    for i in 0..k {
        body.push_str(&format!(
            "if (c{i}) {{ t = t + {i}; }} else {{ t = t - {i}; }}\n"
        ));
    }
    format!("void NIBranchy(void) {{ int t = 0; {body} MISCBUS_READ_DB(a, b); }}")
}

const SM: &str = r#"
    sm wait_for_db {
        decl { scalar } addr, buf;
        start:
            { WAIT_FOR_DB_FULL(addr); } ==> stop
          | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
        ;
    }
"#;

fn bench_traversal_modes(c: &mut Criterion) {
    let prog = MetalProgram::parse(SM).unwrap();
    let mut g = c.benchmark_group("traversal");
    for k in [4usize, 8, 12, 16] {
        let src = branchy_source(k);
        let tu = parse_translation_unit(&src, "b.c").unwrap();
        let cfg = Cfg::build(tu.function("NIBranchy").unwrap());
        g.bench_with_input(BenchmarkId::new("state_set", k), &k, |b, _| {
            b.iter(|| {
                let mut m = MetalMachine::new(&prog);
                let init = m.start_state();
                run_machine(black_box(&cfg), &mut m, init, Mode::StateSet);
                m.reports.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("exhaustive", k), &k, |b, _| {
            b.iter(|| {
                let mut m = MetalMachine::new(&prog);
                let init = m.start_state();
                run_machine(
                    black_box(&cfg),
                    &mut m,
                    init,
                    Mode::Exhaustive {
                        max_paths: 1_000_000,
                    },
                );
                m.reports.len()
            })
        });
    }
    g.finish();
}

fn bench_pattern_index(c: &mut Criterion) {
    let proto = generate(plan_for("bitvector").unwrap(), DEFAULT_SEED);
    let units: Vec<_> = proto
        .files
        .iter()
        .map(|f| parse_translation_unit(&f.source, &f.name).unwrap())
        .collect();
    let prog = MetalProgram::parse(mc_checkers::MSGLEN_METAL).unwrap();
    let compiled = CompiledProgram::compile(&prog).unwrap();
    // `compiled` is the driver's path: a candidate plan per CFG, then plan
    // replay.
    let run = |label: &str| {
        let mut reports: Vec<MetalReport> = Vec::new();
        for u in &units {
            for f in u.functions() {
                let cfg = Cfg::build(f);
                if label == "compiled" {
                    let plan = CandidatePlan::build(&compiled, &cfg);
                    let mut m = CompiledMachine::with_plan(&compiled, &plan);
                    let init = m.start_state();
                    run_machine(&cfg, &mut m, init, Mode::StateSet);
                    reports.append(&mut m.reports);
                } else {
                    let mut m = MetalMachine::new(&prog);
                    let init = m.start_state();
                    run_machine(&cfg, &mut m, init, Mode::StateSet);
                    reports.append(&mut m.reports);
                }
            }
        }
        reports
    };
    let baseline = run("indexed");
    let mut g = c.benchmark_group("pattern_index");
    g.sample_size(20);
    for label in ["indexed", "compiled"] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let reports = run(label);
                assert_eq!(reports, baseline, "{label} disagrees with the interpreter");
                reports.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_traversal_modes, bench_pattern_index);
criterion_main!(benches);
