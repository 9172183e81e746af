//! The repository benchmark. See `README.md` beside this crate for what it
//! measures and why; `BENCHMARK.json` at the repository root is its contract
//! with the driver that gates pull requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The repository's clippy.toml bans the wall clock because the engine must
// stay deterministic on the virtual one; host time is what a benchmark reads.
#![allow(clippy::disallowed_methods)]

pub mod compare;
pub mod json;
pub mod machine;
pub mod plan;
pub mod primitives;
pub mod round;
pub mod run;
pub mod spec;
pub mod stats;
pub mod tracing;
