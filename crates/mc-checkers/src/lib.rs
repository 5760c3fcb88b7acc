//! # mc-checkers
//!
//! The eight FLASH protocol checkers of the paper, plus the §11
//! "manual-refcount" check added after the double-free incident:
//!
//! | module | paper section | kind |
//! |---|---|---|
//! | [`buffer_race`] | §4, Figure 2, Table 2 | metal |
//! | [`msglen`] | §5, Figure 3, Table 3 | metal |
//! | [`buffer_mgmt`] | §6, Table 4 | native SM + tables + annotations |
//! | [`lanes`] | §7 | native, inter-procedural |
//! | [`exec_restrict`] | §8, Table 5 | native AST walks |
//! | [`alloc_check`] | §9, Table 6 | native SM |
//! | [`directory`] | §9, Table 6 | native SM |
//! | [`send_wait`] | §9, Table 6 | native SM |
//! | [`REFCOUNT_BUMP_METAL`] | §11 | metal |
//!
//! The [`flash`] module holds the macro vocabulary and the per-protocol
//! [`flash::FlashSpec`] tables the native checkers consult.
//!
//! Each native state-machine checker supplies only a transition function
//! (from a state and a path event, the successor states plus any
//! `(span, message)` violations). One crate-private harness runs it: it
//! stamps witnesses, dedups and emits the reports, and builds the
//! `buffer_mgmt` and `directory` summary transfer tables with
//! [`mc_cfg::transfer_table`].
//!
//! # Example
//!
//! ```
//! use mc_checkers::{all_checkers, flash::FlashSpec};
//! use mc_driver::Driver;
//!
//! let mut driver = Driver::new();
//! all_checkers(&mut driver, &FlashSpec::new()).unwrap();
//! let reports = driver.check_source(r#"
//!     void NILocalGet(void) {
//!         HANDLER_DEFS();
//!         HANDLER_PROLOGUE();
//!         MISCBUS_READ_DB(addr, tmp);   /* race: no WAIT_FOR_DB_FULL */
//!         DB_FREE();
//!     }
//! "#, "ni.c")?;
//! assert!(reports.iter().any(|r| r.checker == "wait_for_db"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod alloc_check;
pub mod buffer_mgmt;
pub mod buffer_race;
pub mod directory;
pub mod exec_restrict;
pub mod flash;
pub mod lanes;
pub mod msglen;
pub mod send_wait;
mod violations;

use mc_driver::{Checker, Driver, DriverError};

/// The metal source of the buffer-race checker (Figure 2 of the paper).
pub const WAIT_FOR_DB_METAL: &str = include_str!("../metal/wait_for_db.metal");

/// The metal source of the message-length checker (Figure 3 of the paper).
pub const MSGLEN_METAL: &str = include_str!("../metal/msglen.metal");

/// The §11 check added after the "betrayal" incident: aggressively object
/// to the manual reference-count bump that blinded the buffer checker.
pub const REFCOUNT_BUMP_METAL: &str = r#"
sm refcount_bump {
    start:
        { DB_REFCOUNT_INCR(); } ==>
            { err("manual data-buffer refcount increment: invisible to the buffer checker"); }
    ;
}
"#;

/// The suite's metal sources — the two metal checkers and the §11
/// refcount check — in registration order.
pub const METAL_SOURCES: [&str; 3] = [WAIT_FOR_DB_METAL, MSGLEN_METAL, REFCOUNT_BUMP_METAL];

/// The suite's six native extensions, in registration order.
pub fn native_checkers(spec: &flash::FlashSpec) -> Vec<Box<dyn Checker>> {
    vec![
        Box::new(buffer_mgmt::BufferMgmt::new(spec.clone())),
        Box::new(lanes::Lanes::new(spec.clone())),
        Box::new(exec_restrict::ExecRestrict::new(spec.clone())),
        Box::new(alloc_check::AllocCheck::new()),
        Box::new(directory::Directory::new(spec.clone())),
        Box::new(send_wait::SendWait::new()),
    ]
}

/// Registers the full checker suite — [`METAL_SOURCES`], then
/// [`native_checkers`] — on `driver`.
///
/// # Errors
///
/// Returns [`DriverError::Metal`] if an embedded metal source fails to
/// parse (a build-time invariant; the test suite pins it), or
/// [`DriverError::DuplicateChecker`] if `driver` already holds a checker
/// of one of the suite's names.
pub fn all_checkers(driver: &mut Driver, spec: &flash::FlashSpec) -> Result<(), DriverError> {
    for src in METAL_SOURCES {
        driver.add_metal_source(src)?;
    }
    for checker in native_checkers(spec) {
        driver.add_checker(checker)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_metal_sources_parse() {
        assert!(mc_metal::MetalProgram::parse(WAIT_FOR_DB_METAL).is_ok());
        assert!(mc_metal::MetalProgram::parse(MSGLEN_METAL).is_ok());
        assert!(mc_metal::MetalProgram::parse(REFCOUNT_BUMP_METAL).is_ok());
    }

    #[test]
    fn suite_registers_nine_checkers() {
        let mut d = Driver::new();
        all_checkers(&mut d, &flash::FlashSpec::new()).unwrap();
        assert_eq!(d.checker_count(), 9);
    }
}
