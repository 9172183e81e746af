//! Versions, version edits, and the manifest.
//!
//! A [`Version`] is the engine's view of which SSTables exist and where.
//! Beyond LevelDB's leveled layout, a version carries the two metadata
//! concepts the LDC mechanism introduces (paper §III):
//!
//! * the **frozen region** — SSTables removed from their level by a *link*
//!   operation; their live data is reachable only through slice links, and
//!   they are reclaimed when their reference count drops to zero, and
//! * **slice links** — per-lower-file records `(source frozen file, user-key
//!   range)` describing the portion of a frozen upper-level SSTable that
//!   will eventually merge into that lower file.
//!
//! Every mutation is expressed as a [`VersionEdit`], logged to the manifest
//! (same record format as the WAL) before being applied, so a reopened
//! database recovers the exact level/frozen/link state.
//!
//! This file is the module root: it re-exports the paths the rest of the
//! workspace uses and fixes the level count. The code lives with its
//! concern, and the first two rows need no storage backend, WAL or backup
//! in scope — a shadow tree can drive them from plain values:
//!
//! | module | owns |
//! |---|---|
//! | `meta` | `SliceLink`, `FileMeta`, `FrozenMeta`, `Version` and its queries (`tables`: every live and frozen table), `check_invariants`, Algorithm 1's refcounts (`recompute_refcounts`); LDC's file layout: the responsible-range partition (`responsible_file`, `responsible_files`, `link_targets`, `scan_start`) and what a linked file reads as (`FileMeta::sources`, `FileMeta::probes`) |
//! | `edit` | `VersionEdit` and its record encoding, `apply_edit`, the `Counters` that travel in edits and the one `absorb` that reads them out, `snapshot_edit` |
//! | `set` | `VersionSet`: file names, `write_manifest` (the one place a manifest file is created), recovery, `log_and_apply` / `apply_remote_edit` on one commit tail, rollover, the backup-stream call-out |

mod edit;
mod meta;
mod set;

pub use edit::VersionEdit;
pub use meta::{FileMeta, FrozenMeta, SliceLink, Version};
pub use set::{
    log_file_name, manifest_file_name, table_file_name, VersionSet, CURRENT_FILE,
    MANIFEST_ROLLOVER_BYTES,
};

// LDC's file layout, for the pick, the executor and the read path.
pub(crate) use meta::{link_targets, responsible_file, responsible_files, scan_start};
// What a checkpoint's manifest is written with (`backup.rs`).
pub(crate) use edit::{snapshot_edit, Counters};
pub(crate) use set::write_manifest;

/// On-device levels, excluding the memtable: LevelDB's `kNumLevels`. Every
/// store has this many, so a backup or a follower never has to be told.
/// [`Version::new`] still takes a count: the policies' unit tests build
/// two- to four-level trees on purpose.
pub(crate) const NUM_LEVELS: usize = 7;

#[cfg(test)]
pub(crate) mod tests;
