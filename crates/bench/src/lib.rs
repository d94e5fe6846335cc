//! # xtuml-bench — the experiment harness
//!
//! The paper has **no tables or figures** (it is a two-page position
//! paper), so this crate operationalises its *claims* as experiments
//! E1–E6 (see DESIGN.md §6 and EXPERIMENTS.md for the index and recorded
//! results). Each experiment is a pure function returning structured
//! rows; the `experiments` binary prints them as the tables recorded in
//! EXPERIMENTS.md. [`workloads`] holds the scalable models that the
//! experiments, the integration tests and the repository benchmark
//! (`perfbench/`, declared in `BENCHMARK.json`) run.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod experiments;
pub mod report;
pub mod workloads;

pub use experiments::*;
