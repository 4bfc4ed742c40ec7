//! Whole-loop benchmark of the ODA stack: simulated site tick → bus and
//! archive → collector shards → runtime pass → HTTP queries. See
//! `perfbench/README.md` for the workloads, the metrics and which layer
//! each one is expected to move.

pub mod run;
pub mod stats;
pub mod trace;
pub mod world;
