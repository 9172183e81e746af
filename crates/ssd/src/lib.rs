//! # ldc-ssd — simulated SSD substrate
//!
//! The LDC paper (ICDE 2019) evaluates its compaction mechanism on an
//! enterprise PCIe SSD whose defining characteristics are:
//!
//! 1. **asymmetric bandwidth** — reads are roughly an order of magnitude
//!    faster than writes,
//! 2. **internal write amplification** — a flash translation layer (FTL)
//!    relocates live pages during garbage collection, and
//! 3. **limited write endurance** — each erase block survives a bounded
//!    number of program/erase cycles.
//!
//! This crate reproduces those characteristics in a deterministic simulator
//! so that every experiment in the reproduction is a pure function of the
//! I/O schedule the key-value store produces:
//!
//! * [`VirtualClock`] — a shared nanosecond clock that device operations
//!   advance; foreground request latency is measured against it.
//! * [`TimeLedger`] — per-category time accounting used to regenerate the
//!   paper's Table I (where does LevelDB spend its time?).
//! * [`Ftl`] — a page-mapping flash translation layer with greedy garbage
//!   collection, over-provisioning, TRIM, and per-block erase counters.
//! * [`SsdDevice`] — the device front-end: charges virtual time for every
//!   transfer, classifies traffic via [`IoClass`], and exposes wear and
//!   throughput statistics.
//! * [`StorageBackend`] / [`MemStorage`] — the file-level API the LSM engine
//!   is written against; `MemStorage` keeps file contents in memory while
//!   charging all traffic to the device model.
//!
//! The simulator is intentionally single-purpose: it models exactly the
//! quantities the paper's claims depend on (bytes moved, read/write
//! asymmetry, erase counts) and nothing else.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

mod clock;
mod config;
mod device;
mod disk;
mod error;
mod ftl;
mod stats;
mod storage;

pub use clock::{Nanos, TimeCategory, TimeLedger, TimerGuard, VirtualClock};
pub use config::{
    SsdConfig, FS_OP_LATENCY_NS, PAGE_BYTES, READ_BANDWIDTH, READ_LATENCY_NS, SEQ_READ_LATENCY_NS,
    SYSCALL_OVERHEAD_NS, WRITE_BANDWIDTH, WRITE_LATENCY_NS,
};
pub use device::{DeviceSnapshot, SsdDevice};
pub use disk::DiskStorage;
pub use error::{SsdError, SsdResult};
pub use ftl::{Ftl, FtlStats};
pub use stats::{IoClass, IoStats, IoStatsSnapshot};
pub use storage::{MemStorage, StorageBackend};
