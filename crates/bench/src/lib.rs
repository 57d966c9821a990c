//! Experiment harness regenerating every table and figure of *"Consensus
//! Inside"* (MIDDLEWARE 2014).
//!
//! Each paper artefact is one row of the experiment [`registry`]: a
//! generator that computes its data (in [`experiments`], [`netmeas`] or
//! [`wire`]) next to the row function that prints it as an aligned table
//! beside the paper's reference values. The one binary,
//! `figures <name|all> [--smoke] [--out PATH]`, runs a row by name or
//! every paper artefact in sequence; [`registry::REGISTRY`] is the
//! experiment index.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod netmeas;
pub mod registry;
pub mod report;
pub mod table;
pub mod wire;

pub use experiments::{Proto, RunCfg};
