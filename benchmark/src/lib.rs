//! # iba-benchmark
//!
//! The repository benchmark. It times calls into the public functions of
//! `iba-topology`, `iba-routing`, `iba-engine`, `iba-sim`,
//! `iba-workloads` and `iba-stats` from its own code, gates every run on
//! correctness and health, and in a separate traced run breaks the cost
//! down per layer. See `README.md` beside this crate for the workloads,
//! the metrics and the measured baseline.

pub mod gate;
pub mod host;
pub mod probes;
pub mod spans;
pub mod summary;
pub mod workload;

pub use gate::{check, Gate, Verdict};
pub use spans::Spans;
pub use summary::Summary;
pub use workload::{run, run_sliced, workload, workloads, Fabric, Outcome, Seeds, Workload};
