//! `mc-benchmark` command line.

use mc_benchmark::compare;
use mc_benchmark::harness::{run_workload, RunConfig};
use mc_benchmark::runner::{self, RunArgs, DETAIL_PREFIX};
use mc_benchmark::spec::{bench_spec, BenchSpec};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: mc-benchmark --workload <name> --seed <n> --trace <0|1> [--trace-dir <dir>]
       mc-benchmark run [--seed <n>] [--json <file>] [--trace <dir>]
       mc-benchmark compare <A.json>... -- <B.json>...

  --workload   run one workload's fixed script in this process and print its
               result as the last stdout line (traced runs write spans to
               --trace-dir, default .bench_work/trace); a `--seconds <s>`
               argument is accepted and has no effect
  run          run every workload in a child process (default seed 61861)
               and print `workload.metric value unit n=<samples>` lines
  compare      judge set B against set A, pairing runs by position";

const DEFAULT_SEED: u64 = 61861;

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next()
        .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
}

fn number(v: &str, flag: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{v}`"))
}

fn workload_mode(args: &[String], spec: &BenchSpec) -> Result<bool, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: DEFAULT_SEED,
        trace: false,
        trace_dir: PathBuf::from(".bench_work/trace"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => cfg.workload = value(&mut it, flag)?.clone(),
            "--seed" => cfg.seed = number(value(&mut it, flag)?, flag)?,
            // Runners pass a measuring time; each workload's length is
            // its fixed script instead, so that every run of a seed does
            // the same work.
            "--seconds" => {
                number(value(&mut it, flag)?, flag)?;
            }
            "--trace" => {
                cfg.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                }
            }
            "--trace-dir" => cfg.trace_dir = PathBuf::from(value(&mut it, flag)?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !spec.workloads.contains(&cfg.workload) {
        return Err(format!(
            "unknown workload `{}` (one of: {})",
            cfg.workload,
            spec.workloads.join(", ")
        ));
    }
    let outcome = run_workload(&cfg, spec)?;
    for m in &outcome.metrics {
        println!(
            "{}.{} {} {} n={}",
            cfg.workload, m.name, m.value, m.unit, m.n
        );
    }
    println!(
        "{DETAIL_PREFIX}{}",
        outcome.detail_json(&cfg.workload, cfg.seed).to_compact()
    );
    println!("{}", outcome.result_json().to_compact());
    Ok(outcome.failed == 0)
}

fn run_mode(args: &[String], spec: &BenchSpec) -> Result<bool, String> {
    let mut ra = RunArgs {
        seed: DEFAULT_SEED,
        json: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => ra.seed = number(value(&mut it, flag)?, flag)?,
            "--json" => ra.json = Some(PathBuf::from(value(&mut it, flag)?)),
            "--trace" => ra.trace = Some(PathBuf::from(value(&mut it, flag)?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    runner::run(&ra, spec)
}

fn compare_mode(args: &[String], spec: &BenchSpec) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or_else(|| format!("compare needs `--` between the two sets\n{USAGE}"))?;
    let side = |s: &[String]| s.iter().map(PathBuf::from).collect::<Vec<_>>();
    compare::compare(&side(&args[..split]), &side(&args[split + 1..]), spec)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = bench_spec().and_then(|spec| match args.first().map(String::as_str) {
        Some("run") => run_mode(&args[1..], &spec),
        Some("compare") => compare_mode(&args[1..], &spec),
        Some("--help" | "-h") | None => Err(USAGE.to_string()),
        Some(_) => workload_mode(&args, &spec),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
