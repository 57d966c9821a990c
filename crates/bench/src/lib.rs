//! Experiment harness regenerating every table and figure of *"Consensus
//! Inside"* (MIDDLEWARE 2014).
//!
//! Each `fig*`/`tab*`/`sec*`/`exp*` module computes the data behind one
//! paper artifact; the binaries under `src/bin/` print them as aligned
//! tables next to the paper's reference values. See `DESIGN.md` §3 for
//! the experiment index and `EXPERIMENTS.md` for recorded
//! paper-vs-measured results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod netmeas;
pub mod report;
pub mod table;

pub use experiments::{Proto, RunCfg};
