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

mod edit;
mod meta;
mod set;

pub use edit::{snapshot_edit, VersionEdit};
pub use meta::{FileMeta, FrozenMeta, SliceLink, Version};
pub use set::{
    log_file_name, manifest_file_name, table_file_name, VersionSet, CURRENT_FILE,
    MANIFEST_ROLLOVER_BYTES,
};

#[cfg(test)]
mod testutil {
    use super::FileMeta;
    use crate::types::{encode_internal_key, ValueType};

    pub(crate) fn ik(key: &[u8]) -> Vec<u8> {
        encode_internal_key(key, 1, ValueType::Value)
    }

    pub(crate) fn meta(number: u64, lo: &[u8], hi: &[u8]) -> FileMeta {
        FileMeta {
            number,
            size: 1000,
            smallest: ik(lo),
            largest: ik(hi),
            slices: Vec::new(),
        }
    }
}
