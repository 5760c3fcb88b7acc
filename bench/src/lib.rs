//! # mc-benchmark
//!
//! The flash-mc benchmark: four workloads that drive the product from
//! outside, through `mc_cli` (`parse_args`, `run_full`, `daemon::serve`,
//! `daemon::Client`), with every output checked against a reference that
//! was itself checked against the corpus's planted-defect manifest.
//!
//! An untraced run reports the end-to-end metrics of `BENCHMARK.json`; a
//! separate traced run calls each crate's public entry points one by one
//! and reports the per-layer metrics. See `bench/README.md`.

#![warn(missing_docs)]

pub mod compare;
pub mod edit;
pub mod fleet;
pub mod harness;
pub mod host;
pub mod layers;
pub mod runner;
pub mod scripts;
pub mod spec;
pub mod stats;
pub mod trace;
