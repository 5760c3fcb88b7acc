//! # mc-cfg
//!
//! Control-flow graphs over [`mc_ast`] functions, plus the two services the
//! rest of the workspace needs from them:
//!
//! 1. **Path statistics** ([`PathStats`]) — the number of unique
//!    entry-to-exit paths and their lengths, reproducing the methodology of
//!    Table 1 of the paper ("the number of unique exit paths from the
//!    beginning of the function to all returns").
//! 2. **Path-sensitive traversal** ([`run_machine`]) — the engine that
//!    applies a checker state machine "down every path", with a choice
//!    between exhaustive path enumeration (what the paper describes) and a
//!    state-set worklist that merges identical checker states at join
//!    points (same reports, polynomial time). The ablation between the two
//!    is one of the benchmarks.
//! 3. **Path-feasibility pruning** ([`feasibility`], [`run_traversal`]) —
//!    a predicate-tracking domain that refutes branch edges contradicting
//!    facts accumulated along the path, killing the paper's dominant
//!    false-positive class (unpruned correlated branches).
//! 4. **Function summaries** ([`FnSummary`], [`summarize_counts`],
//!    [`run_traversal_with`]) — a per-function abstraction of what a call
//!    can do to checker state (state-machine transfers, counter
//!    contributions, fact clobbers), generalizing the paper's one-off §7
//!    emit-and-link lane pass into a layer any checker can opt into. Every
//!    state machine's transfer table is built by [`transfer_table`] and
//!    applied at call sites by [`apply_transfer`], through its
//!    [`TransferCodec`].
//!
//! # Example
//!
//! ```
//! use mc_ast::parse_translation_unit;
//! use mc_cfg::Cfg;
//!
//! let tu = parse_translation_unit(
//!     "void h(void) { if (x) { f(); } else { g(); } k(); }", "h.c").unwrap();
//! let cfg = Cfg::build(tu.function("h").unwrap());
//! let stats = cfg.path_stats();
//! assert_eq!(stats.paths, 2);
//! ```

#![warn(missing_docs)]

mod build;
pub mod feasibility;
mod hash;
mod machine;
mod stats;
mod summary;
mod transfer;
mod witness;

pub use build::{Block, BlockId, Cfg, Node, Terminator};
pub use feasibility::FactSet;
pub use machine::{
    feasibility_stats, run_machine, run_traversal, run_traversal_with, Mode, PathEvent,
    PathMachine, Traversal, TraversalStats,
};
pub use stats::PathStats;
pub use summary::{
    collect_calls, collect_clobbers, summarize_counts, tarjan_sccs, CountSummary, CycleWarning,
    FnSummary, Resolved, SummaryLookup,
};
pub use transfer::{apply_transfer, transfer_table, TransferCodec};
pub use witness::{PathStep, StepKind, Witness, WitnessArena, WitnessId};
