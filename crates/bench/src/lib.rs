//! Shared experiment machinery for the reproduction benchmarks.
//!
//! Every paper artifact (Table 1 and the protocol Figures 1–4) maps to one
//! experiment in [`experiments`], and `p1` prices the primitives they are
//! built from; the functions there return structured [`table::Table`]s
//! that the `harness` binary prints as EXPERIMENTS.md-style output. All
//! timing goes through [`timing`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod experiments;
pub mod table;
pub mod timing;

/// How much work an experiment run should do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-quick settings (the harness default; CI runs it).
    Quick,
    /// The full parameter sweeps reported in EXPERIMENTS.md.
    Full,
}
