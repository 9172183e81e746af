//! # ldc-workload — YCSB-style workload generation and measurement
//!
//! The LDC paper evaluates with the YCSB benchmark suite (§IV-A): uniform
//! or Zipf key distributions, 16-byte keys with 1-KiB values, and the
//! Table III operation mixes (WO / WH / RWB / RH / RO plus the SCN range-
//! query variants). This crate reproduces that harness as a deterministic
//! generator plus a virtual-time measurement runner:
//!
//! * [`Distribution`] / [`Sampler`] — uniform, zipfian (the Fig 11 sweep),
//!   latest, and hotspot key choosers;
//! * [`KeyCodec`] — scrambled 16-byte keys and sized values;
//! * [`WorkloadSpec`] — the paper's workload mixes as data;
//! * [`ArrivalSchedule`] — deterministic open-loop arrival schedules
//!   (fixed-rate and seeded-Poisson) for driven-load benches;
//! * [`Histogram`] — log-linear latency histogram (P90–P99.99 for Fig 8),
//!   the workspace-wide implementation re-exported from `ldc-obs`;
//! * [`run_workload`] — drives any [`KvInterface`] store and reports
//!   latencies, throughput, and the Fig 1 per-second trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod arrival;
mod distribution;
mod keys;
mod runner;
mod spec;

pub use arrival::{ArrivalProcess, ArrivalSchedule};
pub use distribution::{Distribution, Sampler};
pub use keys::KeyCodec;
/// Latency histogram over u64 nanoseconds: the workspace's one
/// implementation, `ldc-obs`'s, under this crate's historical name, so
/// benchmark-side and engine-side percentiles come out of the same buckets.
pub use ldc_obs::LatencyHistogram as Histogram;
pub use runner::{
    preload_workload, run_measured, run_workload, KvInterface, RunReport, SecondSample,
};
pub use spec::{ReadKind, WorkloadSpec};
