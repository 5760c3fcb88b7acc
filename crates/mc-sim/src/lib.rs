//! # mc-sim
//!
//! A FlashLite-analog protocol simulator: a small multi-node machine model
//! (MAGIC-style node controllers with data-buffer pools, four network
//! lanes, and a directory) driving an AST **interpreter** for the FLASH
//! handler subset.
//!
//! The paper motivates the checkers with the observation that protocol
//! bugs "show up sporadically only after days of continuous use" and are
//! then nearly impossible to diagnose. This crate makes that claim
//! demonstrable: run a handler with a seeded buffer leak under message
//! load and watch the node's buffer pool drain until the machine
//! deadlocks — then run the fixed handler and watch it stay healthy. The
//! same bug is found statically by the checkers in milliseconds.
//!
//! A call to a FLASH name runs the effect [`mc_ast::flash`]'s table gives
//! it: the table the checkers and the symbolic executor read too.
//!
//! A [`Program`] is an immutable, shared handle on the parsed protocol:
//! cloning it is O(1) and copies no AST, and the interpreter runs each
//! function body in place. [`replay`], which confirms a checker report by
//! running its witness model, can therefore replay every report of a check
//! against clones of one parsed program. It refuses a handler whose call
//! closure reaches a name defined in more than one source.
//!
//! # Example
//!
//! ```
//! use mc_sim::{Machine, Program, SimConfig, SimEvent};
//!
//! // A handler that leaks its data buffer on the error path.
//! let program = Program::parse(r#"
//!     void NILeaky(void) {
//!         HANDLER_DEFS();
//!         HANDLER_PROLOGUE();
//!         if (gErrCase) {
//!             return;      /* forgot DB_FREE() */
//!         }
//!         DB_FREE();
//!     }
//! "#).unwrap();
//! let mut machine = Machine::new(program, SimConfig { nodes: 2, buffers_per_node: 4, ..Default::default() });
//! machine.set_global(0, "gErrCase", 1);
//! for _ in 0..16 { machine.inject(0, "NILeaky"); }
//! machine.run();
//! assert!(machine
//!     .events()
//!     .iter()
//!     .any(|e| matches!(e, SimEvent::BufferExhausted { .. })));
//! ```

#![warn(missing_docs)]

mod interp;
mod machine;
mod replay;

pub use interp::{InterpError, Outcome, MAX_CALL_DEPTH, MAX_STEPS_PER_HANDLER};
pub use machine::{BufferPool, DirEntry, Machine, Message, Node, Program, SimConfig, SimEvent};
pub use replay::{replay, replayable_checker};
