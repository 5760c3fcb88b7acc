//! The benchmark definition in the repository's `BENCHMARK.json`, embedded
//! at build time so the harness, `compare` and the tests read one list of
//! workloads, metrics and bounds.

use mc_json::Json;

/// The root `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as emitted.
    pub name: String,
    /// Unit as emitted.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// Metrics an untraced run emits.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics a traced run emits.
    pub per_layer: Vec<MetricSpec>,
}

/// Parses the embedded `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn bench_spec() -> Result<BenchSpec, String> {
    let json = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        json.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))
    };
    let str_of = |v: &Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without string `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: str_of(m, "name")?,
                    unit: str_of(m, "unit")?,
                    lower_is_better: str_of(m, "better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(BenchSpec {
        workloads: list("workloads")?
            .iter()
            .map(|w| str_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
