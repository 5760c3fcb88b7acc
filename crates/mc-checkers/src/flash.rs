//! The per-protocol tables the checkers consult: handler classification,
//! lane rules, and the routine tables of the buffer-management and
//! directory checkers.
//!
//! The FLASH vocabulary itself — every macro and constant name with its
//! effect — lives in [`mc_ast::flash`] and is re-exported here, so the
//! checkers, the simulator and the symbolic executor read one table. The
//! corpus generator emits code in exactly this vocabulary.

use mc_ast::{walk_function, Expr, Function, Visitor};
use mc_json::{FromJson, Json, JsonError, ToJson};
use std::collections::{BTreeMap, BTreeSet};

pub use mc_ast::flash::*;

/// Number of virtual network lanes (§7 of the paper).
pub const NUM_LANES: usize = 4;

/// Message-type constants and the lane each send class uses.
///
/// `PI_SEND` → lane 0, `IO_SEND` → lane 1, `NI_SEND(MSG_REQ, …)` → lane 2,
/// `NI_SEND` of reply types (including NAKs) → lane 3.
pub fn lane_of_send(callee: &str, first_arg_const: Option<&str>) -> Option<usize> {
    match callee {
        PI_SEND => Some(0),
        IO_SEND => Some(1),
        NI_SEND => match first_arg_const {
            Some(MSG_REQ) => Some(2),
            _ => Some(3),
        },
        _ => None,
    }
}

/// How a routine is classified for buffer/hook rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutineKind {
    /// Invoked by hardware dispatch with a live data buffer.
    HardwareHandler,
    /// Scheduled in software; starts without a buffer.
    SoftwareHandler,
    /// Ordinary subroutine.
    Procedure,
}

/// Per-protocol tables the checkers consult: handler classification, lane
/// quotas, and the routine tables of the buffer-management and directory
/// checkers.
///
/// In the paper these came from the protocol specification plus small
/// checker-maintained tables; here they are built by the corpus generator
/// (or by hand for ad-hoc use) and handed to the checkers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlashSpec {
    /// Names of hardware handlers.
    pub hardware_handlers: BTreeSet<String>,
    /// Names of software handlers.
    pub software_handlers: BTreeSet<String>,
    /// Per-handler lane allowances; handlers absent from the map get
    /// [`FlashSpec::default_quota`].
    pub lane_quota: BTreeMap<String, [u32; NUM_LANES]>,
    /// Default lane allowance.
    pub default_quota: [u32; NUM_LANES],
    /// Routines that expect a live buffer and free it.
    pub free_routines: BTreeSet<String>,
    /// Routines that expect a live buffer and keep it live.
    pub use_routines: BTreeSet<String>,
    /// Routines returning 1 if they freed the buffer and 0 otherwise; the
    /// value-sensitive branch handling for these removed over twenty
    /// useless annotations in the paper.
    pub cond_free_routines: BTreeSet<String>,
    /// Subroutines that write the directory entry back on the caller's
    /// behalf (annotating these removes the §9.1 subroutine false
    /// positives).
    pub writeback_routines: BTreeSet<String>,
}

impl ToJson for FlashSpec {
    fn to_json(&self) -> Json {
        mc_json::object(vec![
            ("hardware_handlers", self.hardware_handlers.to_json()),
            ("software_handlers", self.software_handlers.to_json()),
            ("lane_quota", self.lane_quota.to_json()),
            ("default_quota", self.default_quota.to_json()),
            ("free_routines", self.free_routines.to_json()),
            ("use_routines", self.use_routines.to_json()),
            ("cond_free_routines", self.cond_free_routines.to_json()),
            ("writeback_routines", self.writeback_routines.to_json()),
        ])
    }
}

impl FromJson for FlashSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        // A misspelt table name would otherwise leave that table silently
        // empty, and the checkers would run on defaults. The known names
        // are the ones `to_json` writes.
        let fields = v.as_object().ok_or_else(|| JsonError::expected("object"))?;
        let known = FlashSpec::default().to_json();
        if let Some((key, _)) = fields.iter().find(|(k, _)| known.get(k).is_none()) {
            return Err(JsonError(format!("unknown field `{key}`")));
        }
        // Every field is optional with a `Default` fallback, mirroring the
        // hand-written spec files which usually set only a few tables.
        Ok(FlashSpec {
            hardware_handlers: mc_json::field_or_default(v, "hardware_handlers")?,
            software_handlers: mc_json::field_or_default(v, "software_handlers")?,
            lane_quota: mc_json::field_or_default(v, "lane_quota")?,
            default_quota: mc_json::field_or_default(v, "default_quota")?,
            free_routines: mc_json::field_or_default(v, "free_routines")?,
            use_routines: mc_json::field_or_default(v, "use_routines")?,
            cond_free_routines: mc_json::field_or_default(v, "cond_free_routines")?,
            writeback_routines: mc_json::field_or_default(v, "writeback_routines")?,
        })
    }
}

impl FlashSpec {
    /// A spec with sensible defaults: quota of one send per lane.
    pub fn new() -> FlashSpec {
        FlashSpec {
            default_quota: [1; NUM_LANES],
            ..FlashSpec::default()
        }
    }

    /// Classifies a routine by the spec tables, falling back to the FLASH
    /// naming convention (`PI*`/`NI*`/`IO*` are hardware handlers, `SW*`
    /// software handlers).
    pub fn classify(&self, name: &str) -> RoutineKind {
        if self.hardware_handlers.contains(name) {
            return RoutineKind::HardwareHandler;
        }
        if self.software_handlers.contains(name) {
            return RoutineKind::SoftwareHandler;
        }
        if name.starts_with("PI") || name.starts_with("NI") || name.starts_with("IO") {
            RoutineKind::HardwareHandler
        } else if name.starts_with("SW") {
            RoutineKind::SoftwareHandler
        } else {
            RoutineKind::Procedure
        }
    }

    /// The lane allowance for `handler`.
    pub fn quota(&self, handler: &str) -> [u32; NUM_LANES] {
        self.lane_quota
            .get(handler)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// Returns `true` if the function is an intentionally-unimplemented stub
/// (its body begins with `FATAL_ERROR()`). All checkers skip these, as the
/// paper did when it declined to count sci's violations "in unimplemented
/// routines which caused a fatal error if called".
pub fn is_unimplemented(f: &mc_ast::Function) -> bool {
    match f.body.first().map(|s| &s.kind) {
        Some(mc_ast::StmtKind::Expr(e)) => {
            matches!(e.as_call(), Some((FATAL_ERROR, _)))
        }
        _ => false,
    }
}

/// Counts the calls in `func` to FLASH names whose effect `pick` accepts,
/// given the call's arguments — the "Applied" columns of the paper's
/// tables.
pub fn count_calls(func: &Function, pick: impl Fn(Effect, &[Expr]) -> bool) -> usize {
    struct V<F>(F, usize);
    impl<F: Fn(Effect, &[Expr]) -> bool> Visitor for V<F> {
        fn visit_expr(&mut self, e: &Expr) {
            if let Some((name, args)) = e.as_call() {
                self.1 += usize::from(effect(name).is_some_and(|eff| (self.0)(eff, args)));
            }
        }
    }
    let mut v = V(pick, 0);
    walk_function(&mut v, func);
    v.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_by_table_overrides_convention() {
        let mut spec = FlashSpec::new();
        spec.software_handlers.insert("PIOddball".into());
        assert_eq!(spec.classify("PIOddball"), RoutineKind::SoftwareHandler);
        assert_eq!(spec.classify("PILocalGet"), RoutineKind::HardwareHandler);
        assert_eq!(spec.classify("SWPageMigrate"), RoutineKind::SoftwareHandler);
        assert_eq!(spec.classify("compute_owner"), RoutineKind::Procedure);
    }

    #[test]
    fn lane_mapping() {
        assert_eq!(lane_of_send(PI_SEND, None), Some(0));
        assert_eq!(lane_of_send(IO_SEND, None), Some(1));
        assert_eq!(lane_of_send(NI_SEND, Some("MSG_REQ")), Some(2));
        assert_eq!(lane_of_send(NI_SEND, Some("MSG_REPLY")), Some(3));
        assert_eq!(lane_of_send("memcpy", None), None);
    }

    #[test]
    fn quota_fallback() {
        let mut spec = FlashSpec::new();
        spec.lane_quota.insert("NILocalGet".into(), [2, 0, 1, 1]);
        assert_eq!(spec.quota("NILocalGet"), [2, 0, 1, 1]);
        assert_eq!(spec.quota("other"), [1, 1, 1, 1]);
    }

    #[test]
    fn send_wait_pairing() {
        assert_eq!(wait_for_send(PI_SEND), Some(PI_WAIT));
        assert_eq!(wait_for_send(NI_SEND), Some(NI_WAIT));
        assert!(matches!(effect(IO_SEND), Some(Effect::Send { .. })));
        assert_eq!(effect(IO_WAIT), Some(Effect::Wait(Iface::Io)));
    }

    #[test]
    fn unknown_spec_fields_are_refused() {
        let err = mc_json::from_str::<FlashSpec>(r#"{"free_routine": ["releaseBuf"]}"#);
        assert_eq!(err.unwrap_err().0, "unknown field `free_routine`");
        assert!(mc_json::from_str::<FlashSpec>("[]").is_err());
        let spec = mc_json::from_str::<FlashSpec>(r#"{"free_routines": ["releaseBuf"]}"#);
        assert!(spec.unwrap().free_routines.contains("releaseBuf"));
    }

    #[test]
    fn macro_table() {
        assert_eq!(effect("DB_FREE"), Some(Effect::BufFree));
        assert_eq!(effect("OLD_WAIT_DB"), Some(Effect::Deprecated));
        assert_eq!(effect("compute_owner"), None);
    }
}
