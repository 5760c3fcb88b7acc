//! One workload run: set-up repeated and timed, the measured loop, and
//! the result line that `run` and other callers read.

use crate::spec::{BenchSpec, MetricSpec};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{edit, fleet, host};
use mc_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Fewest ops an untraced run may measure, so its p90 has ten samples
/// beyond it. Every workload's fixed script measures more.
pub const MIN_OPS: usize = 100;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Corpus and script seed.
    pub seed: u64,
    /// Run the traced pass instead of the measured script.
    pub trace: bool,
    /// Where the traced pass writes its spans.
    pub trace_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value.
    pub n: usize,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that errored or produced output different from the reference.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and each metric's
    /// value and unit.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    mc_json::object(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        mc_json::object(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Object(metrics)),
        ])
    }

    /// Sample counts per metric and the run's provenance, for `run`.
    pub fn detail_json(&self, workload: &str, seed: u64) -> Json {
        let samples = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Json::Int(m.n as i64)))
            .collect();
        mc_json::object(vec![
            ("workload", Json::Str(workload.into())),
            ("samples", Json::Object(samples)),
            ("provenance", host::provenance(seed)),
        ])
    }
}

/// A scratch directory under the working directory's `.bench_work`,
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates an empty directory for `workload`. The name is the same on
    /// every run because file paths reach report output and cache records,
    /// whose sizes must repeat exactly; so one checkout runs one benchmark
    /// process at a time.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message.
    pub fn new(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(workload);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_work` itself only when empty.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Writes `text` to `path`, creating parent directories.
///
/// # Errors
///
/// Returns the I/O error message.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads `files` as `(source, name)` pairs, the way `mcheck` does.
///
/// # Errors
///
/// Returns the I/O error message.
pub fn read_sources(files: &[PathBuf]) -> Result<Vec<(String, String)>, String> {
    files
        .iter()
        .map(|f| {
            std::fs::read_to_string(f)
                .map(|text| (text, f.display().to_string()))
                .map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// Total bytes of the files under `dir` (0 when it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Collects set-up times, op latencies and per-pass figures for the
/// untraced script.
///
/// `op_p50_ms`, `kloc_per_s` and `cpu_ms_per_op` are medians over passes,
/// so a slow patch of the shared host that covers less than half of a run
/// barely moves them; `op_p90_ms` pools every op, since it needs at least
/// [`MIN_OPS`] samples.
pub struct Recorder {
    setups: Vec<f64>,
    ops_ms: Vec<f64>,
    failed: usize,
    /// The open pass: start time, CPU seconds and op count at its start.
    pass: Option<(Instant, f64, usize)>,
    pass_p50_ms: Vec<f64>,
    pass_kloc_per_s: Vec<f64>,
    pass_cpu_ms_per_op: Vec<f64>,
}

impl Recorder {
    /// A recorder for a run whose set-ups took `setups` seconds each.
    /// `peak_rss_mb` counts from here on, so it covers the measured ops
    /// and not the set-ups' reference runs.
    ///
    /// # Errors
    ///
    /// Returns a message when the peak RSS cannot be reset.
    pub fn new(setups: Vec<f64>) -> Result<Recorder, String> {
        host::reset_peak_rss()?;
        Ok(Recorder {
            setups,
            ops_ms: Vec::new(),
            failed: 0,
            pass: None,
            pass_p50_ms: Vec::new(),
            pass_kloc_per_s: Vec::new(),
            pass_cpu_ms_per_op: Vec::new(),
        })
    }

    /// Opens a pass.
    ///
    /// # Errors
    ///
    /// Returns a message when CPU time cannot be read.
    pub fn begin_pass(&mut self) -> Result<(), String> {
        self.pass = Some((Instant::now(), host::cpu_seconds()?, self.ops_ms.len()));
        Ok(())
    }

    /// Records one op of the open pass.
    pub fn op(&mut self, ms: f64, ok: bool) {
        self.ops_ms.push(ms);
        self.failed += usize::from(!ok);
    }

    /// Closes the open pass, which submitted `loc` lines.
    ///
    /// # Errors
    ///
    /// Returns a message when CPU time cannot be read.
    pub fn end_pass(&mut self, loc: usize) -> Result<(), String> {
        let (start, cpu, first) = self.pass.take().expect("end_pass without begin_pass");
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        let ops = &self.ops_ms[first..];
        let cpu_ms = (host::cpu_seconds()? - cpu) * 1000.0;
        self.pass_p50_ms.push(percentile(ops, 50.0));
        self.pass_kloc_per_s.push(loc as f64 / 1000.0 / wall);
        self.pass_cpu_ms_per_op
            .push(cpu_ms / ops.len().max(1) as f64);
        Ok(())
    }

    /// The end-to-end metrics `specs` names, in that order.
    ///
    /// # Errors
    ///
    /// Returns a message when process counters cannot be read, fewer than
    /// [`MIN_OPS`] ops were measured, or `specs` names a metric the
    /// recorder does not measure.
    pub fn finish(self, specs: &[MetricSpec]) -> Result<Outcome, String> {
        let n = self.ops_ms.len();
        if n < MIN_OPS {
            return Err(format!("{n} ops measured; a p90 needs at least {MIN_OPS}"));
        }
        let rss = host::peak_rss_mb()?;
        let metrics = specs
            .iter()
            .map(|m| {
                let (value, samples) = match m.name.as_str() {
                    "setup_s" => (median(&self.setups), self.setups.len()),
                    "op_p50_ms" => (median(&self.pass_p50_ms), n),
                    "op_p90_ms" => (percentile(&self.ops_ms, 90.0), n),
                    "kloc_per_s" => (median(&self.pass_kloc_per_s), self.pass_kloc_per_s.len()),
                    "cpu_ms_per_op" => (median(&self.pass_cpu_ms_per_op), n),
                    "peak_rss_mb" => (rss, 1),
                    other => return Err(format!("no end-to-end metric `{other}` is measured")),
                };
                Ok(Metric {
                    name: m.name.clone(),
                    value,
                    unit: m.unit.clone(),
                    n: samples,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            attempted: n,
            failed: self.failed,
            metrics,
        })
    }
}

/// What one workload run measured, before its metrics are named.
pub enum Measured {
    /// An untraced run.
    Timed(Recorder),
    /// A traced run's op tallies; its values are in the tracer.
    Traced {
        /// Ops attempted.
        attempted: usize,
        /// Ops that errored or differed from the reference.
        failed: usize,
    },
}

/// Runs `setup` [`SETUP_REPS`] times (once when traced), each in a fresh
/// subdirectory, keeping the last state and every duration in seconds.
/// `retire` releases an earlier set-up's resources.
///
/// # Errors
///
/// Propagates the first set-up error.
pub fn repeat_setup<S>(
    dir: &Path,
    traced: bool,
    mut setup: impl FnMut(&Path) -> Result<S, String>,
    mut retire: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        // Release the previous set-up first, so two never coexist and the
        // peak RSS is one set-up's.
        if let Some(old) = kept.take() {
            retire(old);
        }
        let rep_dir = dir.join(format!("rep{rep}"));
        let t = Instant::now();
        kept = Some(setup(&rep_dir)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// The per-layer metrics `specs` names, from a traced pass.
pub fn layer_metrics(tr: &Tracer, specs: &[MetricSpec]) -> Vec<Metric> {
    specs
        .iter()
        .map(|m| {
            let value = match m.name.as_str() {
                "trace.op_p50_ms" => tr.op_percentile_ms(50.0),
                "mc_sim.replay.confirm_ratio" => {
                    let attempts = tr.total("mc_sim.replay.attempts");
                    if attempts > 0.0 {
                        tr.total("mc_sim.replay.confirmed") / attempts
                    } else {
                        0.0
                    }
                }
                name => tr.median_per_op(name),
            };
            Metric {
                name: m.name.clone(),
                value,
                unit: m.unit.clone(),
                n: tr.ops(),
            }
        })
        .collect()
}

/// Runs one workload and names its metrics as `spec` lists them.
///
/// # Errors
///
/// Returns a message for an unknown workload or any set-up failure.
pub fn run_workload(cfg: &RunConfig, spec: &BenchSpec) -> Result<Outcome, String> {
    host::guard()?;
    let dir = WorkDir::new(&cfg.workload)?;
    let mut tracer = cfg.trace.then(Tracer::new);
    let measured = match cfg.workload.as_str() {
        "ci_cold" => fleet::run(&fleet::CI_COLD, cfg, dir.path(), tracer.as_mut())?,
        "fleet_interproc" => fleet::run(&fleet::FLEET_INTERPROC, cfg, dir.path(), tracer.as_mut())?,
        "cache_ci" => fleet::run(&fleet::CACHE_CI, cfg, dir.path(), tracer.as_mut())?,
        "edit_loop" => edit::run(cfg, dir.path(), tracer.as_mut())?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let (attempted, failed) = match measured {
        Measured::Timed(rec) => return rec.finish(&spec.end_to_end),
        Measured::Traced { attempted, failed } => (attempted, failed),
    };
    let tr = tracer.expect("only a traced run reports Traced");
    tr.write_jsonl(&cfg.trace_dir.join(format!("{}.spans.jsonl", cfg.workload)))?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: layer_metrics(&tr, &spec.per_layer),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::bench_spec;

    #[test]
    fn benchmark_json_names_equal_the_emitted_names() {
        let spec = bench_spec().unwrap();
        assert_eq!(
            spec.workloads,
            ["ci_cold", "fleet_interproc", "edit_loop", "cache_ci"]
        );
        let mut rec = Recorder::new(vec![1.0, 2.0, 3.0]).unwrap();
        rec.begin_pass().unwrap();
        for i in 0..MIN_OPS {
            rec.op(i as f64, true);
        }
        rec.end_pass(1000).unwrap();
        let outcome = rec.finish(&spec.end_to_end).unwrap();
        let emitted: Vec<(&str, &str)> = outcome
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        let listed: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(emitted, listed);

        let mut unknown = spec.end_to_end.clone();
        unknown[0].name = "not_measured".into();
        let mut rec = Recorder::new(vec![1.0]).unwrap();
        rec.begin_pass().unwrap();
        (0..MIN_OPS).for_each(|_| rec.op(1.0, true));
        rec.end_pass(1000).unwrap();
        assert!(
            rec.finish(&unknown).is_err(),
            "an unmeasured name is refused"
        );
    }

    #[test]
    fn bounds_fit_the_benchmark_format() {
        let spec = bench_spec().unwrap();
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(
            spec.end_to_end.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
