//! §9 — Send-wait pairing (Table 6).
//!
//! A handler can send a message with the "wait" bit set, promising to wait
//! for the interface's reply. Breaking the promise — never waiting, waiting
//! on the wrong interface, or issuing another send first — deadlocks the
//! machine. The checker tracks the pending interface along each path.
//!
//! Code that waits by spinning on raw status registers instead of the
//! interface wait macros "breaks an abstraction barrier": the checker
//! cannot see the wait and reports — these are the paper's eight send-wait
//! false positives (real problems for simulation, since hooks cannot be
//! inserted).

use crate::flash::{self, Effect};
use crate::violations::{self, Found, Transition};
use mc_ast::Expr;
use mc_cfg::PathEvent;
use mc_driver::{CheckSink, Checker, FunctionContext};

/// The send-wait checker.
#[derive(Debug, Clone, Default)]
pub struct SendWait;

impl SendWait {
    /// Creates the checker.
    pub fn new() -> SendWait {
        SendWait
    }
}

impl Checker for SendWait {
    fn name(&self) -> &str {
        "send_wait"
    }

    /// Purely local: no program pass, so the incremental engine never
    /// re-runs this checker for call-graph neighbours of an edited unit.
    fn has_program_pass(&self) -> bool {
        false
    }

    fn check_function(&self, ctx: &FunctionContext<'_>, sink: &mut CheckSink) {
        if flash::is_unimplemented(ctx.function) {
            return;
        }
        // `Pending` carries a `&'static str` interface name that cannot
        // round-trip through a summary's string encoding, so this checker
        // stays intraprocedural (the paper's wait obligations are local to
        // one handler anyway).
        violations::check("send_wait", ctx, &WaitMachine, WaitState::Idle, false, sink);
    }
}

/// Which interface reply, if any, the handler owes a wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WaitState {
    /// No outstanding waited send.
    Idle,
    /// Waiting for the named interface's reply macro.
    Pending(&'static str),
}

struct WaitMachine;

impl WaitMachine {
    fn process(&self, e: &Expr, mut st: WaitState, found: &mut Found) -> WaitState {
        // Operands first (evaluation order).
        violations::for_each_operand!(e, |c| st = self.process(c, st, found));
        let Some((name, args)) = e.as_call() else {
            return st;
        };
        match flash::effect(name) {
            Some(Effect::Send { wait, .. }) => {
                if let WaitState::Pending(iface) = st {
                    found.push((
                        e.span,
                        format!("send issued before waiting for pending {iface}()"),
                    ));
                }
                if waits(args, wait) {
                    if let Some(w) = flash::wait_for_send(name) {
                        st = WaitState::Pending(w);
                    }
                }
            }
            Some(Effect::Wait(_)) => match st {
                WaitState::Pending(expected) if expected == name => {
                    st = WaitState::Idle;
                }
                WaitState::Pending(expected) => {
                    found.push((
                        e.span,
                        format!("wait on wrong interface: expected {expected}(), found {name}()"),
                    ));
                    st = WaitState::Idle;
                }
                WaitState::Idle => {
                    // A wait with nothing outstanding is harmless.
                }
            },
            _ => {}
        }
        st
    }
}

/// Whether a send's `wait` argument asks to wait for the reply.
fn waits(args: &[Expr], wait: usize) -> bool {
    args.get(wait).and_then(Expr::as_ident) == Some(flash::W_WAIT)
}

impl Transition for WaitMachine {
    type State = WaitState;

    fn step(&self, state: &WaitState, event: &PathEvent<'_>, found: &mut Found) -> Vec<WaitState> {
        match event {
            PathEvent::Stmt(s) => {
                let e = violations::stmt_expr(s);
                vec![e.map_or(*state, |e| self.process(e, *state, found))]
            }
            PathEvent::Branch { cond, .. } => vec![self.process(cond, *state, found)],
            PathEvent::Case { .. } => vec![*state],
            PathEvent::Return { span, .. } => {
                if let WaitState::Pending(iface) = state {
                    found.push((
                        *span,
                        format!("send with wait bit never followed by {iface}()"),
                    ));
                }
                vec![]
            }
            PathEvent::Call { .. } => vec![*state],
        }
    }
}

/// Counts sends with the wait bit plus wait-macro calls — the "Applied"
/// column of Table 6's send-wait check.
pub fn count_send_waits(func: &mc_ast::Function) -> usize {
    flash::count_calls(func, |e, args| match e {
        Effect::Wait(_) => true,
        Effect::Send { wait, .. } => waits(args, wait),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_cfg::Cfg;
    use mc_driver::Report;

    fn check(src: &str) -> Vec<Report> {
        let tu = mc_ast::parse_translation_unit(src, "t.c").unwrap();
        let checker = SendWait::new();
        let mut sink = CheckSink::new();
        for f in tu.functions() {
            let cfg = Cfg::build(f);
            let ctx = FunctionContext {
                file: "t.c",
                unit: &tu,
                function: f,
                cfg: &cfg,
                traversal: mc_cfg::Traversal::default(),
                summaries: None,
            };
            checker.check_function(&ctx, &mut sink);
        }
        sink.into_reports()
    }

    #[test]
    fn paired_send_wait_clean() {
        let r = check(
            r#"void PIIntervention(void) {
                PI_SEND(F_NODATA, k, s, W_WAIT, d, n);
                PI_WAIT();
                NI_SEND(MSG_REPLY, F_DATA, k, W_NOWAIT, d, n);
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn missing_wait_detected() {
        let r = check(
            r#"void PIIntervention(void) {
                PI_SEND(F_NODATA, k, s, W_WAIT, d, n);
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("never followed by PI_WAIT"));
    }

    #[test]
    fn wrong_interface_detected() {
        let r = check(
            r#"void IOIntervention(void) {
                IO_SEND(F_NODATA, k, s, W_WAIT, d, n);
                NI_WAIT();
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("wrong interface"));
    }

    #[test]
    fn second_send_before_wait_detected() {
        let r = check(
            r#"void PIIntervention(void) {
                PI_SEND(F_NODATA, k, s, W_WAIT, d, n);
                NI_SEND(MSG_REPLY, F_DATA, k, W_NOWAIT, d, n);
                PI_WAIT();
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("before waiting"));
    }

    #[test]
    fn nowait_sends_do_not_create_obligation() {
        let r = check(
            r#"void h(void) {
                PI_SEND(F_NODATA, k, s, W_NOWAIT, d, n);
                NI_SEND(MSG_REPLY, F_DATA, k, W_NOWAIT, d, n);
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn wait_only_on_one_path_flags_other() {
        let r = check(
            r#"void h(void) {
                PI_SEND(F_NODATA, k, s, W_WAIT, d, n);
                if (fast) {
                    PI_WAIT();
                }
            }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn abstraction_barrier_spin_is_false_positive() {
        // Raw status-register spinning is invisible; the checker reports.
        let r = check(
            r#"void h(void) {
                PI_SEND(F_NODATA, k, s, W_WAIT, d, n);
                while (!MAGIC_PI_STATUS()) {
                    spin();
                }
            }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn counting() {
        let tu = mc_ast::parse_translation_unit(
            "void h(void) { PI_SEND(F_NODATA, k, s, W_WAIT, d, n); PI_WAIT(); }",
            "t.c",
        )
        .unwrap();
        assert_eq!(count_send_waits(tu.functions().next().unwrap()), 2);
    }
}
