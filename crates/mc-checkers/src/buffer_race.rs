//! §4 — Buffer fill race conditions (Figure 2, Table 2).
//!
//! When a message arrives, the handler starts running while the hardware is
//! still filling the data buffer. Reading the buffer (`MISCBUS_READ_DB`)
//! without first synchronizing (`WAIT_FOR_DB_FULL`) races the hardware.
//! The checker itself is the metal program in
//! [`crate::WAIT_FOR_DB_METAL`], which the driver compiles like any
//! other; this module provides the statistics helper used by the Table 2
//! reproduction.

use crate::flash;
use mc_ast::{walk_function, Expr, Function, Visitor};

/// Counts the `MISCBUS_READ_DB` uses in a function — the "Applied" column
/// of Table 2 ("the number of reads performed").
pub fn count_reads(func: &Function) -> usize {
    struct V(usize);
    impl Visitor for V {
        fn visit_expr(&mut self, e: &Expr) {
            if let Some((name, _)) = e.as_call() {
                if name == flash::MISCBUS_READ_DB {
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

    /// Runs the Figure 2 checker through the driver's compiled engine over
    /// `src`, walking every syntactic path like the paper's xg++.
    fn check_function(src: &str) -> Vec<Report> {
        let mut d = Driver::new();
        d.prune(false)
            .add_metal_source(crate::WAIT_FOR_DB_METAL)
            .expect("Figure 2 compiles");
        d.check_source(src, "t.c").unwrap()
    }

    fn func(src: &str) -> mc_ast::Function {
        let tu = parse_translation_unit(src, "t.c").unwrap();
        let f = tu.functions().next().unwrap().clone();
        f
    }

    #[test]
    fn race_detected() {
        let f = "void h(void) { MISCBUS_READ_DB(a, b); }";
        let r = check_function(f);
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("not synchronized"));
    }

    #[test]
    fn synchronized_read_clean() {
        let f = "void h(void) { WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); }";
        assert!(check_function(f).is_empty());
    }

    #[test]
    fn late_wait_on_needed_path_only_is_fine() {
        // The paper: WAIT_FOR_DB_FULL is called as late as possible, only
        // on paths that read the buffer.
        let f = "void h(void) { if (needs_data) { WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); } DB_FREE(); }";
        assert!(check_function(f).is_empty());
    }

    #[test]
    fn first_byte_shortcut_is_still_a_race() {
        // One of the real bitvector bugs: only the first byte was read
        // without synchronization.
        let f = "void h(void) { x = MISCBUS_READ_DB(a, 0) & 255; WAIT_FOR_DB_FULL(a); }";
        assert_eq!(check_function(f).len(), 1);
    }

    #[test]
    fn read_counting() {
        let f = func(
            "void h(void) { WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(a, c); }",
        );
        assert_eq!(count_reads(&f), 2);
    }
}
