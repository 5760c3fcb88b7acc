//! Criterion benchmarks of the framework: front end, CFG construction,
//! each checker end-to-end over a full protocol, and simulator throughput.
//!
//! The paper's pitch is that MC checking is cheap enough to run like a
//! compiler pass; these benches quantify that for this implementation.

use criterion::{criterion_group, criterion_main, Criterion};
use mc_ast::parse_translation_unit;
use mc_bench::checked_units;
use mc_cfg::Cfg;
use mc_checkers::{
    alloc_check::AllocCheck, buffer_mgmt::BufferMgmt, directory::Directory,
    exec_restrict::ExecRestrict, lanes::Lanes, send_wait::SendWait,
};
use mc_corpus::{generate, generate_fleet, plan::plan_for, DEFAULT_SEED};
use mc_driver::{CheckSink, CheckedUnit, Checker, Driver, FunctionContext};
use mc_sim::{Machine, Program, SimConfig};
use std::hint::black_box;

fn bitvector() -> mc_corpus::Protocol {
    generate(plan_for("bitvector").unwrap(), DEFAULT_SEED)
}

fn bench_parse(c: &mut Criterion) {
    let proto = bitvector();
    let biggest = proto
        .files
        .iter()
        .max_by_key(|f| f.source.len())
        .unwrap()
        .clone();
    let bytes = biggest.source.len();
    let mut g = c.benchmark_group("frontend");
    g.throughput(criterion::Throughput::Bytes(bytes as u64));
    g.bench_function("parse_protocol_file", |b| {
        b.iter(|| parse_translation_unit(black_box(&biggest.source), &biggest.name).unwrap())
    });
    // Every file of the scale-3 fleet at seed 61861: the input the
    // mc-benchmark `ci_cold` and `cache_ci` workloads check.
    let fleet: Vec<(String, String)> = generate_fleet(61861, 3)
        .iter()
        .flat_map(|p| p.sources())
        .collect();
    let fleet_bytes: usize = fleet.iter().map(|(src, _)| src.len()).sum();
    g.throughput(criterion::Throughput::Bytes(fleet_bytes as u64));
    g.sample_size(10);
    g.bench_function("parse_fleet", |b| {
        b.iter(|| {
            fleet
                .iter()
                .map(|(src, name)| parse_translation_unit(black_box(src), name).unwrap())
                .map(|unit| unit.items.len())
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_cfg(c: &mut Criterion) {
    let proto = bitvector();
    let units: Vec<_> = proto
        .files
        .iter()
        .map(|f| parse_translation_unit(&f.source, &f.name).unwrap())
        .collect();
    c.bench_function("cfg/build_all_functions", |b| {
        b.iter(|| {
            let mut blocks = 0usize;
            for u in &units {
                for f in u.functions() {
                    blocks += Cfg::build(black_box(f)).blocks.len();
                }
            }
            blocks
        })
    });
    c.bench_function("cfg/path_stats_all_functions", |b| {
        b.iter(|| {
            let mut paths = 0u64;
            for u in &units {
                for f in u.functions() {
                    paths += Cfg::build(f).path_stats().paths;
                }
            }
            paths
        })
    });
}

fn bench_checkers(c: &mut Criterion) {
    let proto = bitvector();
    let sources = proto.sources();
    let units: Vec<CheckedUnit> = checked_units(&sources);
    let spec = proto.spec.clone();
    let mut g = c.benchmark_group("checker");
    g.sample_size(20);

    // The two metal checkers, via the driver (parse and CFG included).
    for (label, src) in [
        ("wait_for_db", mc_checkers::WAIT_FOR_DB_METAL),
        ("msglen", mc_checkers::MSGLEN_METAL),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut d = Driver::new();
                d.add_metal_source(src).unwrap();
                d.check_sources(black_box(&sources)).unwrap().len()
            })
        });
    }

    // Native checkers, applied function by function over the cached CFGs.
    fn run_native(units: &[CheckedUnit], checker: Box<dyn Checker>) -> usize {
        let mut sink = CheckSink::new();
        for u in units {
            for (f, cfg) in u.functions() {
                let ctx = FunctionContext {
                    file: &u.unit.file,
                    unit: &u.unit,
                    function: f,
                    cfg,
                    traversal: mc_cfg::Traversal::default(),
                    summaries: None,
                };
                checker.check_function(&ctx, &mut sink);
            }
        }
        sink.len()
    }
    g.bench_function("buffer_mgmt", |b| {
        b.iter(|| run_native(&units, Box::new(BufferMgmt::new(spec.clone()))))
    });
    g.bench_function("exec_restrict", |b| {
        b.iter(|| run_native(&units, Box::new(ExecRestrict::new(spec.clone()))))
    });
    g.bench_function("alloc_check", |b| {
        b.iter(|| run_native(&units, Box::new(AllocCheck::new())))
    });
    g.bench_function("directory", |b| {
        b.iter(|| run_native(&units, Box::new(Directory::new(spec.clone()))))
    });
    g.bench_function("send_wait", |b| {
        b.iter(|| run_native(&units, Box::new(SendWait::new())))
    });
    g.bench_function("lanes_interprocedural", |b| {
        b.iter(|| {
            let mut d = Driver::new();
            d.add_checker(Box::new(Lanes::new(spec.clone()))).unwrap();
            d.check_sources(black_box(&sources)).unwrap().len()
        })
    });
    g.finish();

    let mut g = c.benchmark_group("suite");
    g.sample_size(10);
    g.bench_function("all_checkers_bitvector", |b| {
        b.iter(|| {
            let mut d = Driver::new();
            mc_checkers::all_checkers(&mut d, &spec).unwrap();
            d.check_sources(black_box(&sources)).unwrap().len()
        })
    });
    g.finish();
}

fn bench_sim(c: &mut Criterion) {
    let src = r#"
        void NIBench(void) {
            HANDLER_DEFS();
            HANDLER_PROLOGUE();
            WAIT_FOR_DB_FULL(addr);
            gSum = gSum + MISCBUS_READ_DB(addr, 0);
            DIR_LOAD();
            if (DIR_STATE() == DIR_IDLE) {
                DIR_SET_STATE(DIR_SHARED);
            }
            DIR_WRITEBACK();
            HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
            NI_SEND(MSG_REPLY, F_DATA, 1, W_NOWAIT, 1, 0);
            DB_FREE();
        }
    "#;
    let program = Program::parse(src).unwrap();
    let mut g = c.benchmark_group("sim");
    g.throughput(criterion::Throughput::Elements(1000));
    g.bench_function("handler_runs_per_sec", |b| {
        b.iter(|| {
            let mut m = Machine::new(
                program.clone(),
                SimConfig {
                    lane_capacity: 4096,
                    max_handler_runs: 5000,
                    ..Default::default()
                },
            );
            for _ in 0..1000 {
                m.inject(0, "NIBench");
            }
            m.run();
            m.handler_runs()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_parse, bench_cfg, bench_checkers, bench_sim);
criterion_main!(benches);
