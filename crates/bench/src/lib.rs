//! # ldc-bench — the paper's evaluation, regenerated
//!
//! [`paper::FIGURES`] holds one entry per table/figure of the LDC paper's
//! §IV, plus four ablations (see DESIGN.md for the full index). Each entry
//! builds fresh stores on the simulated SSD, drives them with the same
//! deterministic YCSB-style workloads, and prints the measured series next
//! to the paper's reported numbers.
//!
//! ```text
//! cargo run --release -p ldc-bench -- paper
//! cargo run --release -p ldc-bench -- paper --only fig08_tail_latency
//! cargo run --release -p ldc-bench -- paper --only fig10a_throughput_get --ops 200000
//! ```
//!
//! Defaults are laptop-scale (tens of thousands of ops); pass `--ops` (or
//! `--scale`) for larger runs. Absolute numbers differ from the paper's
//! hardware; the *shapes* — who wins, by what factor, where crossovers sit —
//! are the reproduction target.

pub mod adapter;
pub mod cli;
pub mod experiment;
pub mod paper;
pub mod ycsb_net;

pub use adapter::DbAdapter;
pub use cli::{mib, print_table, CommonArgs, Flags};
pub use experiment::{
    paper_scaled_options, run_both, run_experiment, ExperimentResult, StoreConfig,
};
pub use paper::{run_paper, FIGURES};
pub use ycsb_net::{run_ycsb_net, NetBenchArgs};
