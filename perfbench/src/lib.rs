//! `cwelmax-perfbench`: the repository's benchmark. See `RATIONALE.md`
//! for the workloads, the metrics and the layer → metric map.

pub mod check;
pub mod gen;
pub mod live;
pub mod replay;
pub mod stats;
pub mod workload;
