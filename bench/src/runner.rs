//! `mc-benchmark run`: every workload in its own child process, untraced,
//! then (with `--trace`) once more traced; prints
//! `workload.metric value unit n=<samples>` for every pair.

use crate::host;
use crate::spec::BenchSpec;
use mc_json::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Prefix of the line carrying sample counts and provenance, printed just
/// before the result line.
pub const DETAIL_PREFIX: &str = "mc-benchmark-detail ";

/// Options of `run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Corpus and script seed.
    pub seed: u64,
    /// Write the combined result here.
    pub json: Option<PathBuf>,
    /// Also run traced children, writing spans here.
    pub trace: Option<PathBuf>,
}

/// A child's parsed output.
struct Child {
    result: Json,
    detail: Json,
}

fn spawn(workload: &str, args: &RunArgs, trace_dir: Option<&PathBuf>) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating mc-benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace_dir.is_some() { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = trace_dir {
        cmd.arg("--trace-dir").arg(dir);
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    // A child whose ops failed still prints its result (and exits 1).
    let result = last
        .and_then(|l| Json::parse(l).ok())
        .filter(|r| r.get("correct").is_some())
        .ok_or_else(|| format!("{workload}: child failed ({})", out.status))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("{workload}: child printed no detail line"))?;
    Ok(Child { result, detail })
}

/// `(name, value, unit, n)` for every metric of a child's result.
fn rows(child: &Child) -> Vec<(String, f64, String, i64)> {
    let metrics = child
        .result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default();
    metrics
        .iter()
        .map(|(name, m)| {
            let n = child
                .detail
                .get("samples")
                .and_then(|s| s.get(name))
                .and_then(Json::as_i64)
                .unwrap_or(0);
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                n,
            )
        })
        .collect()
}

fn as_json(rows: &[(String, f64, String, i64)]) -> Json {
    Json::Object(
        rows.iter()
            .map(|(name, value, unit, n)| {
                (
                    name.clone(),
                    mc_json::object(vec![
                        ("value", Json::Float(*value)),
                        ("unit", Json::Str(unit.clone())),
                        ("n", Json::Int(*n)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Runs the workloads; returns `true` when every child succeeded with
/// every op correct.
///
/// # Errors
///
/// Returns a message when a child cannot be started or the result file
/// cannot be written.
pub fn run(args: &RunArgs, spec: &BenchSpec) -> Result<bool, String> {
    host::guard()?;
    let mut all_ok = true;
    let mut results = Vec::new();
    for w in &spec.workloads {
        let child = match spawn(w, args, None) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("mc-benchmark: {e}");
                all_ok = false;
                continue;
            }
        };
        let attempted = child
            .result
            .get("attempted")
            .and_then(Json::as_i64)
            .unwrap_or(0);
        let failed = child
            .result
            .get("failed")
            .and_then(Json::as_i64)
            .unwrap_or(0);
        let mut e2e = rows(&child);
        e2e.push((
            "error_rate".into(),
            failed as f64 / attempted.max(1) as f64,
            "ratio".into(),
            attempted,
        ));
        all_ok &= failed == 0;
        for (name, value, unit, n) in &e2e {
            println!("{w}.{name} {value} {unit} n={n}");
        }
        let mut entry = vec![
            ("name", Json::Str(w.clone())),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            ("metrics", as_json(&e2e)),
        ];
        if let Some(dir) = &args.trace {
            match spawn(w, args, Some(dir)) {
                Ok(traced) => {
                    let layers = rows(&traced);
                    for (name, value, unit, n) in &layers {
                        println!("{w}.{name} {value} {unit} n={n}");
                    }
                    let p50 = |rs: &[(String, f64, String, i64)], key: &str| {
                        rs.iter().find(|r| r.0 == key).map_or(f64::NAN, |r| r.1)
                    };
                    let overhead = p50(&layers, "trace.op_p50_ms") - p50(&e2e, "op_p50_ms");
                    println!("{w}.trace.overhead_ms {overhead} ms n=1");
                    all_ok &= traced.result.get("failed").and_then(Json::as_i64) == Some(0);
                    entry.push(("layers", as_json(&layers)));
                    entry.push(("trace_overhead_ms", Json::Float(overhead)));
                }
                Err(e) => {
                    eprintln!("mc-benchmark: {e}");
                    all_ok = false;
                }
            }
        }
        results.push(mc_json::object(entry));
    }
    if let Some(path) = &args.json {
        let doc = mc_json::object(vec![
            ("provenance", host::provenance(args.seed)),
            ("workloads", Json::Array(results)),
        ]);
        std::fs::write(path, doc.to_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_ok)
}
