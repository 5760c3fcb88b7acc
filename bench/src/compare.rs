//! `mc-benchmark compare A.json… -- B.json…`: judges two interleaved sets
//! of `run --json` results, metric by metric, with the bounds from
//! `BENCHMARK.json`.
//!
//! Pair `i` is the `i`th file of each side, so the sets must have been run
//! alternately (A, B, A, B, …); sets taken minutes apart see host drift,
//! not the change.

use crate::spec::BenchSpec;
use crate::stats::{iqr, median};
use mc_json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `setup_s` may always worsen by this many seconds: a set-up of a few
/// tenths of a second moves by more than its share on a shared host.
pub const SETUP_FLOOR_S: f64 = 0.1;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// B wins at least nine tenths of the pairs and the medians differ by
    /// more than A's interquartile range.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Neither, with A's spread inside the bound.
    Unchanged,
    /// A's spread is wider than the bound, so no regression can be ruled
    /// out (unless every B run beats every A run).
    Unresolved,
}

impl Judgement {
    fn as_str(self) -> &'static str {
        match self {
            Judgement::Improved => "improved",
            Judgement::Regressed => "regressed",
            Judgement::Unchanged => "unchanged",
            Judgement::Unresolved => "unresolved",
        }
    }
}

/// The bound `compare` applies to `metric` when the parent's median is
/// `median`: `bound`, except that `setup_s` may also worsen by
/// [`SETUP_FLOOR_S`].
fn bound_for(metric: &str, bound: f64, median: f64) -> f64 {
    if metric == "setup_s" {
        bound.max(SETUP_FLOOR_S / median)
    } else {
        bound
    }
}

/// Judges side `b` (the change) against side `a` (the parent), pairing
/// runs by index.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Judgement {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let (ma, mb) = (median(a), median(b));
    if pairs > 0 && wins * 10 >= pairs * 9 && better(mb, ma) && (mb - ma).abs() > iqr(a) {
        return Judgement::Improved;
    }
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    let relative = |d: f64| {
        if ma == 0.0 {
            if d > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            d / ma.abs()
        }
    };
    if relative(iqr(a)) > bound {
        let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if all_better {
            Judgement::Unchanged
        } else {
            Judgement::Unresolved
        };
    }
    if relative(worse) > bound {
        Judgement::Regressed
    } else {
        Judgement::Unchanged
    }
}

/// One `run --json` file: workload → metric → value, for end-to-end
/// metrics and per-layer metrics separately.
type Side = Vec<BTreeMap<String, (BTreeMap<String, f64>, BTreeMap<String, f64>)>>;

fn load(files: &[PathBuf]) -> Result<Side, String> {
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            let json = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
            let values = |m: Option<&Json>| -> BTreeMap<String, f64> {
                m.and_then(Json::as_object)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect()
            };
            json.get("workloads")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{}: no `workloads` array", f.display()))?
                .iter()
                .map(|w| {
                    let name = w
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{}: workload without a name", f.display()))?;
                    Ok((
                        name.to_string(),
                        (values(w.get("metrics")), values(w.get("layers"))),
                    ))
                })
                .collect()
        })
        .collect()
}

/// Prints the comparison; returns `true` when nothing regressed and every
/// per-layer count repeated exactly.
///
/// # Errors
///
/// Returns a message for unreadable files or an empty side.
pub fn compare(a: &[PathBuf], b: &[PathBuf], spec: &BenchSpec) -> Result<bool, String> {
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one file on each side of `--`".into());
    }
    let (sa, sb) = (load(a)?, load(b)?);
    let mut clean = true;
    for workload in &spec.workloads {
        let column = |side: &Side, metric: &str, layer: bool| -> Vec<f64> {
            side.iter()
                .filter_map(|run| {
                    let (e2e, layers) = run.get(workload)?;
                    if layer { layers } else { e2e }.get(metric).copied()
                })
                .collect()
        };
        let mut metrics: Vec<(&str, bool, f64)> = spec
            .end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.lower_is_better, m.bound.unwrap_or(0.0)))
            .collect();
        metrics.push(("error_rate", true, 0.0));
        for (name, lower, bound) in metrics {
            let (va, vb) = (column(&sa, name, false), column(&sb, name, false));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = bound_for(name, bound, median(&va));
            let verdict = judge(&va, &vb, lower, bound);
            clean &= verdict != Judgement::Regressed;
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|&(&x, &y)| if lower { y < x } else { y > x })
                .count();
            println!(
                "{workload}.{name} A={:.4} (IQR {:.4}) B={:.4} wins={wins}/{} bound={bound:.3} {}",
                median(&va),
                iqr(&va),
                median(&vb),
                va.len().min(vb.len()),
                verdict.as_str()
            );
        }
        for m in spec
            .per_layer
            .iter()
            .filter(|m| m.unit == "count" || m.unit == "bytes")
        {
            let all: Vec<f64> = column(&sa, &m.name, true)
                .into_iter()
                .chain(column(&sb, &m.name, true))
                .collect();
            if all.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                clean = false;
                println!("{workload}.{} count differs across runs: {all:?}", m.name);
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_are_unchanged() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(judge(&a, &a, true, 0.1), Judgement::Unchanged);
    }

    #[test]
    fn a_win_needs_nine_tenths_and_more_than_the_spread() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let b: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        assert_eq!(judge(&a, &b, true, 0.1), Judgement::Improved);
        // Eight wins of ten is not enough.
        let mut c = b.clone();
        c[0] = 200.0;
        c[1] = 200.0;
        assert_ne!(judge(&a, &c, true, 0.1), Judgement::Improved);
        // All wins but inside the parent's spread is not a gain.
        let d: Vec<f64> = a.iter().map(|x| x - 1.0).collect();
        assert_eq!(judge(&a, &d, true, 0.1), Judgement::Unchanged);
        // Higher-is-better metrics win upward.
        let e: Vec<f64> = a.iter().map(|x| x + 20.0).collect();
        assert_eq!(judge(&a, &e, false, 0.1), Judgement::Improved);
    }

    #[test]
    fn regressions_respect_the_bound() {
        let a = [100.0, 100.0, 100.0];
        assert_eq!(
            judge(&a, &[109.0, 109.0, 109.0], true, 0.1),
            Judgement::Unchanged
        );
        assert_eq!(
            judge(&a, &[111.0, 111.0, 111.0], true, 0.1),
            Judgement::Regressed
        );
        assert_eq!(
            judge(&a, &[89.0, 89.0, 89.0], false, 0.1),
            Judgement::Regressed
        );
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let a = [50.0, 100.0, 150.0, 200.0];
        assert_eq!(
            judge(&a, &[120.0, 130.0, 140.0, 150.0], true, 0.1),
            Judgement::Unresolved
        );
        // Every B run beating every A run rules out a regression, but the
        // gap is inside A's spread, so it is no gain either.
        assert_eq!(
            judge(&a, &[10.0, 10.0, 10.0, 10.0], true, 0.1),
            Judgement::Unchanged
        );
    }

    #[test]
    fn short_setups_may_worsen_by_a_tenth_of_a_second() {
        assert_eq!(bound_for("setup_s", 0.2, 5.0), 0.2);
        assert!((bound_for("setup_s", 0.2, 0.25) - 0.4).abs() < 1e-12);
        assert_eq!(bound_for("op_p50_ms", 0.1, 0.25), 0.1);
    }

    #[test]
    fn any_error_rate_increase_regresses() {
        assert_eq!(
            judge(&[0.0, 0.0], &[0.0, 0.01], true, 0.0),
            Judgement::Regressed
        );
        assert_eq!(
            judge(&[0.0, 0.0], &[0.0, 0.0], true, 0.0),
            Judgement::Unchanged
        );
    }
}
