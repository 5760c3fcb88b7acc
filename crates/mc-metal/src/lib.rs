//! # mc-metal
//!
//! The **metal** DSL from the paper: a little language for writing
//! system-specific checkers as state machines whose transition triggers are
//! *patterns written in the base language* (C).
//!
//! A metal program declares wildcard variables (`decl { scalar } addr;`),
//! optional named patterns (`pat send_data = { PI_SEND(...) } | ...;`), and
//! states with rules:
//!
//! ```text
//! sm wait_for_db {
//!     decl { scalar } addr, buf;
//!     start:
//!         { WAIT_FOR_DB_FULL(addr); } ==> stop
//!       | { MISCBUS_READ_DB(addr, buf); } ==>
//!             { err("Buffer not synchronized"); }
//!     ;
//! }
//! ```
//!
//! [`MetalProgram::parse`] turns the text into a program;
//! [`MetalMachine`] runs it as an [`mc_cfg::PathMachine`] down every path of
//! a function's CFG, recording [`MetalReport`]s when `err(...)` actions
//! fire.
//!
//! # Example
//!
//! ```
//! use mc_ast::parse_translation_unit;
//! use mc_cfg::{run_machine, Cfg, Mode};
//! use mc_metal::{MetalMachine, MetalProgram};
//!
//! let sm = MetalProgram::parse(r#"
//!     sm wait_for_db {
//!         decl { scalar } addr, buf;
//!         start:
//!             { WAIT_FOR_DB_FULL(addr); } ==> stop
//!           | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
//!         ;
//!     }
//! "#)?;
//! let tu = parse_translation_unit(
//!     "void h(void) { MISCBUS_READ_DB(a, b); }", "h.c").unwrap();
//! let cfg = Cfg::build(tu.function("h").unwrap());
//! let mut machine = MetalMachine::new(&sm);
//! let start = machine.start_state();
//! run_machine(&cfg, &mut machine, start, Mode::StateSet);
//! assert_eq!(machine.reports.len(), 1);
//! # Ok::<(), mc_metal::MetalParseError>(())
//! ```

#![warn(missing_docs)]

mod compile;
mod engine;
mod lang;
mod matcher;
mod parse;

pub use compile::{
    compute_transfers_compiled, CandidatePlan, CompileDiag, CompileDiagKind, CompileError,
    CompiledMachine, CompiledProgram,
};
pub use engine::{compute_transfers, MetalMachine, MetalReport};
pub use lang::{
    Action, MetalProgram, Pattern, PatternKind, Rule, RuleTarget, StateDef, StateId, TypeClass,
};
pub use matcher::{match_expr, match_stmt, Bindings};
pub use parse::MetalParseError;
