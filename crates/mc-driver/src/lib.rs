//! # mc-driver
//!
//! The xg++ analog: an extensible analysis driver that parses protocol
//! sources, builds CFGs, applies every registered checker down every path
//! of every function, and collects [`Report`]s.
//!
//! Checkers come in two forms, mirroring the paper:
//!
//! * **metal programs** ([`mc_metal::MetalProgram`]) — added with
//!   [`Driver::add_metal_checker`]; the driver runs them via the
//!   path-sensitive engine.
//! * **native extensions** — Rust types implementing [`Checker`], for
//!   analyses that need tables, richer state, or the global framework
//!   (buffer management, lane quotas, execution restrictions).
//!
//! The [`summaries`] module generalizes xg++'s inter-procedural support:
//! every checker can *emit* what it knows about one function into that
//! function's [`mc_cfg::FnSummary`] (counters, state transfers, clobbered
//! facts), and the engine *links* by computing summaries bottom-up over
//! the call-graph SCCs with the paper's fixed-point cycle handling. The
//! lane/deadlock checker reads counter summaries in its program pass;
//! under [`Driver::interproc`] every path-sensitive checker resolves call
//! sites through the store.
//!
//! Checking is parallel: the driver parses files and checks functions
//! across a worker pool ([`Driver::jobs`]), tagging every work item with
//! its `(unit, function)` index and merging results in index order, so the
//! report vector is byte-identical at any worker count.
//!
//! # Example
//!
//! ```
//! use mc_driver::Driver;
//! use mc_metal::MetalProgram;
//!
//! let sm = MetalProgram::parse(r#"
//!     sm no_raw_read {
//!         decl { scalar } a, b;
//!         start: { MISCBUS_READ_DB(a, b); } ==> { err("raw read"); } ;
//!     }
//! "#)?;
//! let mut driver = Driver::new();
//! driver.add_metal_checker(sm)?;
//! let reports = driver.check_source(
//!     "void h(void) { MISCBUS_READ_DB(x, y); }", "h.c")?;
//! assert_eq!(reports.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
mod driver;
mod query;
mod refute;
mod report;
pub mod summaries;

pub use driver::{
    call_components, CallInfo, CheckSink, CheckedUnit, Checker, Driver, DriverError, Fact,
    FunctionContext, ProgramContext, CACHE_FORMAT_VERSION, CHECK_STACK_BYTES,
};
pub use query::{CheckEngine, RunStats};
pub use report::{Report, Severity, Verdict};
pub use summaries::{Summaries, SummaryStats};
