//! `sionbench`: one checkpoint → restart → tools benchmark of the SIONlib
//! reproduction. Four workloads, end-to-end and per-layer numbers; see the
//! README beside this package for what each number means and which
//! end-to-end metric each layer metric should move.

pub mod cycle;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod timedfs;
pub mod workload;
