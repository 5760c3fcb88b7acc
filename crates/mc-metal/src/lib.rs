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
//! [`MetalProgram::parse`] turns the text into a program, and
//! [`CompiledProgram::compile`] lowers it once into indexed bytecode. For
//! each function, a [`CandidatePlan`] matches every candidate node of its
//! CFG against the program, and [`CompiledMachine::with_plan`] replays
//! that plan as an [`mc_cfg::PathMachine`] down every path, recording
//! [`MetalReport`]s when `err(...)` actions fire. This is the engine the
//! driver runs.
//!
//! [`MetalMachine`] interprets a [`MetalProgram`] directly. It is the
//! reference semantics: the tests hold the compiled engine to its reports.
//!
//! # Example
//!
//! ```
//! use mc_ast::parse_translation_unit;
//! use mc_cfg::{run_machine, Cfg, Mode};
//! use mc_metal::{CandidatePlan, CompiledMachine, CompiledProgram, MetalProgram};
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
//! let compiled = CompiledProgram::compile(&sm)?;
//! let tu = parse_translation_unit(
//!     "void h(void) { MISCBUS_READ_DB(a, b); }", "h.c").unwrap();
//! let cfg = Cfg::build(tu.function("h").unwrap());
//! let plan = CandidatePlan::build(&compiled, &cfg);
//! let mut machine = CompiledMachine::with_plan(&compiled, &plan);
//! let start = machine.start_state();
//! run_machine(&cfg, &mut machine, start, Mode::StateSet);
//! assert_eq!(machine.reports.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
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
pub use parse::MetalParseError;
