//! §5 — Consistency of decoupled message-length state (Figure 3, Table 3).
//!
//! Each send carries a has-data parameter (`F_DATA`/`F_NODATA`) while the
//! amount of data actually transmitted comes from the separately-assigned
//! header length field. The checker (the metal program in
//! [`crate::MSGLEN_METAL`]) tracks the last length assignment along each
//! path and flags sends whose has-data parameter disagrees. This was the
//! paper's most profitable checker: 18 bugs.

use crate::flash;
use mc_ast::{walk_function, Expr, Function, Visitor};

/// Counts the sends in a function — the "Applied" column of Table 3 (each
/// send reached by the checker is one application of the consistency
/// check).
pub fn count_sends(func: &Function) -> usize {
    struct V(usize);
    impl Visitor for V {
        fn visit_expr(&mut self, e: &Expr) {
            if let Some((name, _)) = e.as_call() {
                if flash::is_send(name) {
                    self.0 += 1;
                }
            }
        }
    }
    let mut v = V(0);
    walk_function(&mut v, func);
    v.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::parse_translation_unit;
    use mc_driver::{Driver, Report};

    /// Runs the Figure 3 checker through the driver's compiled engine over
    /// `src`, walking every syntactic path like the paper's xg++.
    fn check_function(src: &str) -> Vec<Report> {
        let mut d = Driver::new();
        d.prune(false)
            .add_metal_source(crate::MSGLEN_METAL)
            .expect("Figure 3 compiles");
        d.check_source(src, "t.c").unwrap()
    }

    fn func(src: &str) -> mc_ast::Function {
        let tu = parse_translation_unit(src, "t.c").unwrap();
        let f = tu.functions().next().unwrap().clone();
        f
    }

    #[test]
    fn stale_len_from_earlier_branch() {
        // The classic shape: length assigned hundreds of lines before the
        // send that uses it, through intervening control flow.
        let f = r#"void NIUncachedRead(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                if (dirty_remote) {
                    if (queue_full) {
                        NI_SEND(t, F_DATA, k, w, d, n);
                    }
                }
            }"#;
        let r = check_function(f);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].message, "data send, zero len");
    }

    #[test]
    fn incoming_len_reuse_assumption() {
        // Programmers assume the incoming message's length can be reused;
        // with no assignment at all the checker stays in `all` and keeps
        // quiet (it does not do the global analysis for initial values).
        let f = "void h(void) { NI_SEND(t, F_DATA, k, w, d, n); }";
        assert!(check_function(f).is_empty());
    }

    #[test]
    fn nodata_send_with_cacheline_len() {
        let f = r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
                PI_SEND(F_NODATA, k, s, w, d, n);
            }"#;
        let r = check_function(f);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].message, "nodata send, nonzero len");
    }

    #[test]
    fn consistent_pairs_are_clean() {
        let f = r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
                IO_SEND(F_DATA, k, s, w, d, n);
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                IO_SEND(F_NODATA, k, s, w, d, n);
            }"#;
        assert!(check_function(f).is_empty());
    }

    #[test]
    fn runtime_selected_parameter_is_a_false_positive() {
        // The coma false-positive shape: a variable selects the send
        // parameter at run time; the checker cannot prune the impossible
        // combination. It (correctly, per the paper) still reports.
        let f = r#"void h(void) {
                if (has) {
                    HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
                } else {
                    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                }
                if (has) {
                    PI_SEND(F_DATA, k, s, w, d, n);
                } else {
                    PI_SEND(F_NODATA, k, s, w, d, n);
                }
            }"#;
        // Four static paths, two impossible ones both flagged.
        assert_eq!(check_function(f).len(), 2);
    }

    #[test]
    fn send_counting() {
        let f = func(
            "void h(void) { PI_SEND(F_DATA, k, s, w, d, n); NI_SEND(t, F_NODATA, k, w, d, n); }",
        );
        assert_eq!(count_sends(&f), 2);
    }
}
