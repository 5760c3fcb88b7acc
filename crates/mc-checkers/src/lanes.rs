//! §7 — Deadlock restrictions on message sends.
//!
//! FLASH avoids network deadlock by running a handler only when its
//! pre-declared output-queue allowance (per virtual "lane") is available.
//! A handler that can send more than its allowance on some path can wedge
//! the whole machine. The check is inherently inter-procedural: sends
//! happen inside helpers, so the checker opts into the driver's shared
//! summary engine ([`mc_driver::summaries`]) — [`Checker::summarize_function`]
//! annotates each send with its lane and folds callee summaries in
//! (bottom-up order guarantees they exist), and the program pass reads the
//! per-handler lane maxima straight from the store, with the fixed-point
//! rule for cycles (send-free cycles are ignored; cycles containing sends
//! are flagged).

use crate::flash::{self, FlashSpec, RoutineKind, NUM_LANES};
use mc_ast::ExprKind;
use mc_cfg::{summarize_counts, FnSummary};
use mc_driver::{CheckSink, Checker, FunctionContext, ProgramContext, Report, Summaries};
use std::collections::HashSet;

/// The lane-quota checker.
#[derive(Debug)]
pub struct Lanes {
    spec: FlashSpec,
    /// When `false`, cycles are not given fixed-point treatment and every
    /// cycle is flagged (the ablation arm showing why the paper added the
    /// fixed point: recursion-based false positives).
    pub fixed_point_cycles: bool,
}

impl Lanes {
    /// Creates the checker with the given protocol spec.
    pub fn new(spec: FlashSpec) -> Lanes {
        Lanes {
            spec,
            fixed_point_cycles: true,
        }
    }

    /// The counter key used for lane `i` in function summaries.
    fn key(i: usize) -> String {
        format!("lane{i}")
    }
}

impl Checker for Lanes {
    fn name(&self) -> &str {
        "lanes"
    }

    /// Inter-procedural: the program pass reads whole-component summaries,
    /// so it must re-run whenever any unit in the component changes.
    fn has_program_pass(&self) -> bool {
        true
    }

    /// The quota analysis cannot run without summaries, so the driver
    /// computes them whenever this checker is registered — with or without
    /// `--interproc`.
    fn needs_summaries(&self) -> bool {
        true
    }

    /// All per-function work happens in [`Checker::summarize_function`];
    /// nothing is emitted here.
    fn check_function(&self, _: &FunctionContext<'_>, _: &mut CheckSink) {}

    /// Emit half: count this function's sends per lane along its worst
    /// path, folding in the already-summarized callees.
    fn summarize_function(&self, ctx: &FunctionContext<'_>, summary: &mut FnSummary, _: bool) {
        let store = ctx
            .summaries
            .expect("the summary engine always provides the store");
        let counts = summarize_counts(
            ctx.file,
            ctx.cfg,
            &mut |e| {
                let (name, args) = e.as_call()?;
                let first_const = args.first().and_then(|a| match &a.kind {
                    ExprKind::Ident(n) => Some(n.as_str()),
                    _ => None,
                });
                let lane = flash::lane_of_send(name, first_const)?;
                Some((Lanes::key(lane), 1))
            },
            &|callee| store.resolve(callee),
        );
        summary.counters.extend(counts.counters);
        summary.traces.extend(counts.traces);
        summary.warnings.extend(counts.warnings);
    }

    /// Link half: for every handler, compare its per-lane maxima against
    /// its allowance and surface cycle warnings from every function the
    /// handler can reach.
    fn check_program(&self, ctx: &ProgramContext<'_>, sink: &mut Vec<Report>) {
        let Some(store) = ctx.summaries else {
            return;
        };
        for (file, func) in ctx.functions() {
            let kind = self.spec.classify(&func.name);
            if kind == RoutineKind::Procedure {
                continue;
            }
            let Some(summary) = store.get(&func.name) else {
                continue;
            };
            let quota = self.spec.quota(&func.name);
            for (lane, &allowance) in quota.iter().enumerate().take(NUM_LANES) {
                let max = summary
                    .counters
                    .get(&Lanes::key(lane))
                    .copied()
                    .unwrap_or(0);
                if max > allowance as i64 {
                    let mut report = Report::error(
                        "lanes",
                        file,
                        &func.name,
                        func.span,
                        format!(
                            "handler can send {max} messages on lane {lane} but its \
                             allowance is {allowance}"
                        ),
                    );
                    if let Some(trace) = summary.traces.get(&Lanes::key(lane)) {
                        // The summary's maximizing path, spliced through
                        // callee traces, becomes the report's witness.
                        report.steps = trace.clone();
                    }
                    sink.push(report);
                }
            }
            for w in reachable_warnings(store, &func.name) {
                if self.fixed_point_cycles && w.keys.iter().all(|k| k == "<recursion>") {
                    // Send-free recursion never produces a warning in the
                    // first place; a <recursion> marker here means sends
                    // exist somewhere in the function, which the per-lane
                    // counting above covers. Skip the duplicate.
                    continue;
                }
                sink.push(Report::warning(
                    "lanes",
                    file,
                    &func.name,
                    func.span,
                    w.description.clone(),
                ));
            }
        }
    }
}

/// Collects the cycle warnings of every function reachable from `root`
/// through summarized calls, in deterministic DFS order (a helper's cycle
/// is the *handler's* problem — it runs under the handler's allowance).
fn reachable_warnings<'a>(store: &'a Summaries, root: &str) -> Vec<&'a mc_cfg::CycleWarning> {
    let mut out = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    let mut stack: Vec<&str> = vec![root];
    while let Some(name) = stack.pop() {
        if !seen.insert(name) {
            continue;
        }
        let Some(summary) = store.get(name) else {
            continue;
        };
        out.extend(summary.warnings.iter());
        // `calls` is sorted; push reversed so DFS visits in sorted order.
        for callee in summary.calls.iter().rev() {
            if !seen.contains(callee.as_str()) {
                stack.push(callee);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use mc_driver::Driver;

    fn check_with(spec: FlashSpec, src: &str) -> Vec<Report> {
        let mut d = Driver::new();
        d.add_checker(Box::new(Lanes::new(spec)));
        d.check_source(src, "p.c").unwrap()
    }

    fn quota_spec(handler: &str, q: [u32; 4]) -> FlashSpec {
        let mut s = FlashSpec::new();
        s.lane_quota.insert(handler.into(), q);
        s
    }

    #[test]
    fn within_quota_is_clean() {
        let r = check_with(
            quota_spec("NILocalGet", [1, 1, 1, 1]),
            "void NILocalGet(void) { NI_SEND(MSG_REQ, F_NODATA, k, w, d, n); PI_SEND(F_DATA, k, s, w, d, n); }",
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn exceeding_quota_is_flagged_with_trace() {
        let r = check_with(
            quota_spec("NILocalGet", [1, 1, 1, 1]),
            r#"void NILocalGet(void) {
                NI_SEND(MSG_REQ, F_NODATA, k, w, d, n);
                NI_SEND(MSG_REQ, F_NODATA, k, w, d, n);
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("lane 2"));
        assert!(!r[0].steps.is_empty());
    }

    #[test]
    fn branches_do_not_add() {
        // Sends on exclusive branches: max, not sum.
        let r = check_with(
            quota_spec("NILocalGet", [0, 0, 1, 1]),
            r#"void NILocalGet(void) {
                if (x) { NI_SEND(MSG_REQ, F_NODATA, k, w, d, n); }
                else { NI_SEND(MSG_REQ, F_NODATA, k, w, d, n); }
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn helper_sends_count_against_caller() {
        // The first real lane bug: a workaround inserted into a helper by a
        // non-author pushed a handler over quota.
        let r = check_with(
            quota_spec("NIRemoteGet", [1, 1, 1, 1]),
            r#"void workaround_helper(void) { NI_SEND(MSG_REQ, F_NODATA, k, w, d, n); }
               void NIRemoteGet(void) {
                   NI_SEND(MSG_REQ, F_NODATA, k, w, d, n);
                   workaround_helper();
               }"#,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].function, "NIRemoteGet");
        assert!(r[0]
            .steps
            .iter()
            .any(|t| t.note.contains("workaround_helper")));
    }

    #[test]
    fn reply_lane_distinct_from_request_lane() {
        let r = check_with(
            quota_spec("NILocalGet", [1, 1, 1, 1]),
            r#"void NILocalGet(void) {
                NI_SEND(MSG_REQ, F_NODATA, k, w, d, n);
                NI_SEND(MSG_REPLY, F_DATA, k, w, d, n);
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn sendless_loops_do_not_warn() {
        let r = check_with(
            quota_spec("NILocalGet", [1, 1, 1, 1]),
            r#"void NILocalGet(void) {
                while (busy) { spin(); }
                NI_SEND(MSG_REQ, F_NODATA, k, w, d, n);
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn loop_with_sends_warns() {
        let r = check_with(
            quota_spec("NILocalGet", [4, 4, 4, 4]),
            r#"void NILocalGet(void) {
                while (more) { NI_SEND(MSG_REQ, F_NODATA, k, w, d, n); }
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("cycle"));
    }

    #[test]
    fn helper_cycle_warns_at_the_handler() {
        // The cycle lives in a helper, but the report belongs to the
        // handler whose allowance the helper runs under.
        let r = check_with(
            quota_spec("NILocalGet", [4, 4, 4, 4]),
            r#"void pump(void) { while (more) { NI_SEND(MSG_REQ, F_NODATA, k, w, d, n); } }
               void NILocalGet(void) { pump(); }"#,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].function, "NILocalGet");
        assert!(r[0].message.contains("pump"));
    }

    #[test]
    fn procedures_not_checked_directly() {
        let r = check_with(
            FlashSpec::new(),
            "void helper(void) { NI_SEND(MSG_REQ, a, b, c, d, e); NI_SEND(MSG_REQ, a, b, c, d, e); }",
        );
        assert!(r.is_empty());
    }
}
