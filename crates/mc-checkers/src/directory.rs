//! §9 — Manual directory-entry updates (Table 6).
//!
//! Directory entries are not normal variables: handlers explicitly load
//! them (`DIR_LOAD`), modify the in-memory copy (`DIR_SET_*`), and must
//! explicitly write the copy back (`DIR_WRITEBACK`). The checker verifies
//! that (1) an entry is loaded before it is read or modified and (2) a
//! modified entry is written back before the handler exits.
//!
//! Speculative handlers intentionally drop modifications when they bail
//! out with a negative acknowledgement; the checker suppresses the
//! write-back obligation when it sees a NAK reply
//! (`NI_SEND(MSG_NAK, ...)`), which eliminates most of that false-positive
//! class. Subroutines that write the entry back on the caller's behalf
//! must be listed in [`FlashSpec::writeback_routines`]; un-annotated ones
//! are the paper's main source of directory false positives. Computing the
//! entry address by hand instead of with `DIR_ADDR()` is reported as an
//! abstraction violation.

use crate::flash::{self, FlashSpec, RoutineKind, DIR_ADDR, DIR_LOAD};
use crate::violations::{self, Found, Transition};
use mc_ast::Expr;
use mc_cfg::{FnSummary, PathEvent, TransferCodec};
use mc_driver::{CheckSink, Checker, FunctionContext};
use std::borrow::Cow;

/// The directory-update checker.
#[derive(Debug, Clone)]
pub struct Directory {
    spec: FlashSpec,
}

impl Directory {
    /// Creates the checker with the given protocol tables.
    pub fn new(spec: FlashSpec) -> Directory {
        Directory { spec }
    }
}

impl Checker for Directory {
    fn name(&self) -> &str {
        "directory"
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
        // Handlers are checked; listed write-back subroutines are checked
        // with the entry considered already loaded (they operate on the
        // caller's entry).
        let is_wb_routine = self.spec.writeback_routines.contains(&ctx.function.name);
        let kind = self.spec.classify(&ctx.function.name);
        if kind == RoutineKind::Procedure && !is_wb_routine {
            return;
        }
        let init = DirState {
            loaded: is_wb_routine,
            modified: false,
            naked: false,
        };
        let machine = DirMachine { spec: &self.spec };
        violations::check(MACHINE, ctx, &machine, init, true, sink);
    }

    /// Publishes a directory-state transfer table for plain procedures, so
    /// `--interproc` call sites see through un-annotated helpers that write
    /// the entry back on the caller's behalf (the paper's main §9
    /// false-positive class).
    fn summarize_function(
        &self,
        ctx: &FunctionContext<'_>,
        summary: &mut FnSummary,
        transfers: bool,
    ) {
        if !transfers || flash::is_unimplemented(ctx.function) {
            return;
        }
        // Handlers are roots, and annotated write-back routines are already
        // modeled at the call site; only plain procedures need transfers.
        let name = &ctx.function.name;
        if self.spec.classify(name) != RoutineKind::Procedure
            || self.spec.writeback_routines.contains(name)
        {
            return;
        }
        violations::summarize(ctx, &DirMachine { spec: &self.spec }, summary);
    }
}

/// Path state for the directory discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DirState {
    /// `DIR_LOAD` has happened.
    loaded: bool,
    /// The in-memory copy differs from memory.
    modified: bool,
    /// A NAK reply was sent (speculative bail-out: write-back waived).
    naked: bool,
}

/// The name of the summary machine this checker publishes transfers under.
const MACHINE: &str = "directory";

/// Is `name` one of the directory macros (or NAK-carrying send) the machine
/// models directly? Summaries for these must never be applied on top.
fn is_modeled_call(name: &str) -> bool {
    is_dir_op(flash::effect(name)) || name == flash::NI_SEND
}

/// Is `effect` a directory-entry operation: load, read, set or write-back?
fn is_dir_op(effect: Option<flash::Effect>) -> bool {
    use flash::Effect::*;
    matches!(
        effect,
        Some(DirLoad | DirRead(_) | DirSet(_) | DirWriteback)
    )
}

struct DirMachine<'s> {
    spec: &'s FlashSpec,
}

/// Transfer tables name a state `l{0|1}m{0|1}n{0|1}` (loaded, modified,
/// naked) and start from all eight.
impl TransferCodec for DirMachine<'_> {
    type State = DirState;

    fn machine_name(&self) -> &str {
        MACHINE
    }

    fn start_states(&self) -> Vec<DirState> {
        (0..8u8)
            .map(|bits| DirState {
                loaded: bits & 1 != 0,
                modified: bits & 2 != 0,
                naked: bits & 4 != 0,
            })
            .collect()
    }

    fn state_name(&self, st: &DirState) -> Cow<'_, str> {
        let [l, m, n] = [st.loaded, st.modified, st.naked].map(u8::from);
        Cow::Owned(format!("l{l}m{m}n{n}"))
    }

    fn parse_state(&self, name: &str) -> Option<DirState> {
        self.start_states()
            .into_iter()
            .find(|st| self.state_name(st) == name)
    }
}

impl DirMachine<'_> {
    fn process(&self, e: &Expr, mut st: DirState, found: &mut Found) -> DirState {
        // Operands first (arguments evaluate before the call acts).
        violations::for_each_operand!(e, |c| st = self.process(c, st, found));
        if e.as_ident() == Some(flash::DIR_ADDR_BASE) {
            // Explicit address arithmetic instead of DIR_ADDR(): the
            // §9.1 "abstraction error" class.
            found.push((
                e.span,
                format!("directory address computed explicitly; use {DIR_ADDR}()"),
            ));
        }
        let Some((name, args)) = e.as_call() else {
            return st;
        };
        match name {
            flash::DIR_LOAD => {
                st.loaded = true;
                st.modified = false;
            }
            flash::DIR_STATE | flash::DIR_PTR => {
                if !st.loaded {
                    found.push((e.span, format!("directory entry read before {DIR_LOAD}")));
                }
            }
            flash::DIR_SET_STATE | flash::DIR_SET_PTR => {
                if !st.loaded {
                    found.push((
                        e.span,
                        format!("directory entry modified before {DIR_LOAD}"),
                    ));
                } else {
                    st.modified = true;
                }
            }
            flash::DIR_WRITEBACK => {
                st.modified = false;
            }
            flash::NI_SEND => {
                if let Some(first) = args.first() {
                    if first.as_ident() == Some(flash::MSG_NAK) {
                        st.naked = true;
                    }
                }
            }
            _ => {
                if self.spec.writeback_routines.contains(name) {
                    st.modified = false;
                }
            }
        }
        st
    }
}

impl Transition for DirMachine<'_> {
    type State = DirState;

    fn step(&self, state: &DirState, event: &PathEvent<'_>, found: &mut Found) -> Vec<DirState> {
        match event {
            PathEvent::Stmt(s) => {
                let e = violations::stmt_expr(s);
                vec![e.map_or(*state, |e| self.process(e, *state, found))]
            }
            PathEvent::Branch { cond, .. } => vec![self.process(cond, *state, found)],
            PathEvent::Case { .. } => vec![*state],
            PathEvent::Return { span, .. } => {
                if state.modified && !state.naked {
                    found.push((
                        *span,
                        "modified directory entry not written back on exit path".to_string(),
                    ));
                }
                vec![*state]
            }
            PathEvent::Call { name, summary, .. } => {
                // Directory macros and annotated write-back routines were
                // already modeled by `process` on the enclosing statement.
                if is_modeled_call(name) || self.spec.writeback_routines.contains(*name) {
                    return vec![*state];
                }
                mc_cfg::apply_transfer(self, summary, state)
            }
        }
    }
}

/// Counts directory operations — the "Applied" column of Table 6.
pub fn count_dir_ops(func: &mc_ast::Function) -> usize {
    flash::count_calls(func, |e, _| is_dir_op(Some(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_cfg::Cfg;
    use mc_driver::Report;

    fn check_spec(spec: FlashSpec, src: &str) -> Vec<Report> {
        let tu = mc_ast::parse_translation_unit(src, "t.c").unwrap();
        let checker = Directory::new(spec);
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

    fn check(src: &str) -> Vec<Report> {
        check_spec(FlashSpec::new(), src)
    }

    #[test]
    fn load_modify_writeback_clean() {
        let r = check(
            r#"void PILocalGet(void) {
                DIR_LOAD();
                if (DIR_STATE() == DIRTY) {
                    DIR_SET_STATE(SHARED);
                }
                DIR_WRITEBACK();
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn modify_without_writeback() {
        // The one real bug found in bitvector.
        let r = check(
            r#"void PILocalGet(void) {
                DIR_LOAD();
                DIR_SET_STATE(SHARED);
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("not written back"));
    }

    #[test]
    fn use_before_load() {
        let r = check("void PILocalGet(void) { x = DIR_STATE(); }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("before DIR_LOAD"));
    }

    #[test]
    fn modify_before_load() {
        let r = check("void PILocalGet(void) { DIR_SET_STATE(SHARED); }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("modified before"));
    }

    #[test]
    fn nak_waives_writeback() {
        // Speculative handler: modifies in anticipation, NAKs instead.
        let r = check(
            r#"void NISpecGet(void) {
                DIR_LOAD();
                DIR_SET_STATE(PENDING);
                if (queue_full) {
                    NI_SEND(MSG_NAK, F_NODATA, k, w, d, n);
                    return;
                }
                DIR_WRITEBACK();
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn speculative_backout_without_nak_is_reported() {
        // The 3 false positives: back out without a NAK pattern.
        let r = check(
            r#"void NISpecGet(void) {
                DIR_LOAD();
                DIR_SET_STATE(PENDING);
                if (special_case) {
                    return;
                }
                DIR_WRITEBACK();
            }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn annotated_writeback_routine_trusted() {
        let mut spec = FlashSpec::new();
        spec.writeback_routines
            .insert("update_and_writeback".into());
        let r = check_spec(
            spec,
            r#"void PILocalGet(void) {
                DIR_LOAD();
                DIR_SET_STATE(SHARED);
                update_and_writeback();
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn unannotated_writeback_routine_is_false_positive() {
        // Same code, no table entry: the paper's 14 subroutine FPs.
        let r = check(
            r#"void PILocalGet(void) {
                DIR_LOAD();
                DIR_SET_STATE(SHARED);
                update_and_writeback();
            }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn writeback_routine_itself_checked() {
        let mut spec = FlashSpec::new();
        spec.writeback_routines
            .insert("update_and_writeback".into());
        // It starts "loaded" and must write back what it modifies.
        let r = check_spec(
            spec.clone(),
            "void update_and_writeback(void) { DIR_SET_STATE(SHARED); DIR_WRITEBACK(); }",
        );
        assert!(r.is_empty(), "{r:?}");
        let r = check_spec(
            spec,
            "void update_and_writeback(void) { DIR_SET_STATE(SHARED); }",
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn explicit_address_computation_flagged() {
        let r = check(
            r#"void PILocalGet(void) {
                DIR_LOAD();
                entry = DIR_ADDR_BASE + line * 8;
                DIR_WRITEBACK();
            }"#,
        );
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("DIR_ADDR"));
    }

    #[test]
    fn reload_clears_modified() {
        let r = check(
            r#"void PILocalGet(void) {
                DIR_LOAD();
                DIR_SET_STATE(PENDING);
                DIR_LOAD();
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn op_counting() {
        let tu = mc_ast::parse_translation_unit(
            "void h(void) { DIR_LOAD(); x = DIR_STATE(); DIR_SET_STATE(y); DIR_WRITEBACK(); }",
            "t.c",
        )
        .unwrap();
        assert_eq!(count_dir_ops(tu.functions().next().unwrap()), 4);
    }
}
