//! End-to-end and per-layer benchmark of the BoLT engine.
//!
//! The `perfbench` binary runs one named workload on `SimEnv` with the
//! calibrated `bolt_bench::bench_device()` model and
//! `Options::bolt().scaled(1/64)`, checks every read, and prints one JSON
//! line of metrics. `perfbench/run.py` builds and runs it; see
//! `perfbench/src/main.rs` for the workloads and their metrics.

#![warn(missing_docs)]

pub mod env;
pub mod layers;
pub mod oracle;
