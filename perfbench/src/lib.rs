//! The awareness-loop benchmark.
//!
//! Drives the public API of `trader` and `chaos` from outside the
//! program: three workloads (`session-closed`, `session-diagnose`,
//! `campaign-sweep`) measured end to end with tracing off, and a traced
//! run that times calls into each layer. See `perfbench/README.md`.

pub mod alloc;
pub mod cli;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod session;
pub mod stats;
pub mod timed;
pub mod tracer;
