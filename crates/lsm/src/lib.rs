//! # ldc-lsm — a LevelDB-class LSM-tree engine
//!
//! A from-scratch reproduction of the LevelDB architecture the LDC paper
//! (ICDE 2019) modifies: skiplist memtable, write-ahead log, leveled
//! SSTables with prefix-compressed blocks and SSTable-level Bloom filters,
//! a versioned manifest, and a pluggable compaction policy.
//!
//! The engine natively understands the two *metadata* primitives LDC needs —
//! **frozen files** and **slice links** (see [`version`]) — and exposes the
//! execution of `Link` / `LdcMerge` tasks alongside classic merges. It also
//! owns the leveled pick UDC and LDC share, [`compaction::pick_leveled`]:
//! the two differ only in what an overfull level does with the file it
//! gives up. The baseline [`compaction::UdcPolicy`] merges it down and never
//! links, so on a store it wrote itself it is exactly upper-level driven
//! LevelDB compaction (on one an LDC session left slices in, it merges
//! those files with their slices first). The LDC policy itself lives in
//! the `ldc-core` crate.
//!
//! All I/O goes through [`ldc_ssd::StorageBackend`], so every run is charged
//! to the simulated SSD's virtual clock and traffic counters.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backup;
pub mod batch;
pub mod block;
pub mod cache;
pub(crate) mod commit;
pub mod compaction;
pub mod crc32c;
pub mod db;
pub mod encoding;
pub mod error;
pub mod filter;
pub mod iterator;
pub mod memtable;
pub mod options;
pub mod repair;
pub mod retry;
pub mod scheduler;
pub mod scrub;
pub mod skiplist;
pub mod table;
pub mod types;
pub mod version;
pub mod wal;

pub use backup::{
    backup_prefix, checkpoint_complete, checkpoint_prefix, restore_backup, restore_checkpoint,
    CheckpointReport, RestoreReport,
};
pub use batch::{BatchOp, WriteBatch};
pub use cache::CacheCounters;
pub use db::{Db, DbStats, PinnedValue, QuarantinedFile, RecoverySummary, Snapshot};
pub use error::{CorruptionInfo, Error, Result};
pub use options::{CorruptionPolicy, Options};
pub use repair::{repair_db, repair_db_with_sink, RepairReport};
pub use retry::RetryStorage;
pub use scrub::ScrubReport;
pub use types::{KeyRange, SequenceNumber, ValueType};
