//! [`VersionSet`]: the current version, the MANIFEST log, and recovery.

use std::sync::Arc;

use ldc_ssd::{IoClass, StorageBackend};

use super::edit::{apply_edit, snapshot_edit, Adopt, Counters, VersionEdit};
use super::meta::{recompute_refcounts, Version};
use super::NUM_LEVELS;
use crate::backup::Shipper;
use crate::error::{corruption, Result};
use crate::types::SequenceNumber;
use crate::wal::{LogReader, LogWriter};

/// Owns the current [`Version`], the manifest log, and the counters that
/// survive restarts.
pub struct VersionSet {
    storage: Arc<dyn StorageBackend>,
    manifest: LogWriter,
    /// Live state, shared with in-flight read views. `log_and_apply`
    /// never mutates a published version in place: it clones, applies the
    /// edit, and swaps the `Arc`, so readers that pinned the old version
    /// keep an immutable, consistent file listing (LevelDB's version-set
    /// MVCC, minus the manual refcounting).
    pub current: Arc<Version>,
    /// File, sequence, WAL, link and stream counters, and the per-level
    /// compaction cursors.
    pub(crate) counters: Counters,
    /// Approximate bytes appended to the current manifest; when this
    /// exceeds [`MANIFEST_ROLLOVER_BYTES`] the manifest is rolled into a
    /// fresh snapshot so recovery time stays bounded.
    manifest_bytes: u64,
    /// Torn-tail bytes discarded from the manifest during the last
    /// [`VersionSet::recover`] (zero for a fresh set or a clean manifest).
    pub recovered_manifest_tail_bytes: u64,
    /// When armed, every edit `log_and_apply` commits is also handed to
    /// this backup-stream writer (see [`Shipper`]).
    shipper: Option<Shipper>,
}

/// Manifest size that triggers a rollover to a fresh snapshot manifest.
pub const MANIFEST_ROLLOVER_BYTES: u64 = 1 << 20;

/// Name of the manifest pointer file.
pub const CURRENT_FILE: &str = "CURRENT";

/// Formats a table file name.
pub fn table_file_name(number: u64) -> String {
    format!("{number:06}.sst")
}

/// Formats a WAL file name.
pub fn log_file_name(number: u64) -> String {
    format!("{number:06}.log")
}

/// Formats a manifest file name.
pub fn manifest_file_name(number: u64) -> String {
    format!("MANIFEST-{number:06}")
}

/// The one place a manifest file is created: `<prefix>MANIFEST-<number>`
/// with `edit` as its only record, synced, and then `<prefix>CURRENT`
/// pointed at it — last, so a `CURRENT` that is there names a complete
/// manifest. The prefix is empty for the store's own manifest and a
/// checkpoint's or backup's name otherwise. Returns the writer, for a
/// caller that goes on appending.
///
/// A crashed incarnation may have left a torn, unreferenced manifest at
/// this name (a previous create that died before `CURRENT` was durable, or
/// a rollover whose number this incarnation re-allocates because the edit
/// consuming it never became durable). Appending after its garbage would
/// wreck the log framing, so start from scratch.
pub(crate) fn write_manifest(
    storage: &Arc<dyn StorageBackend>,
    prefix: &str,
    number: u64,
    edit: &VersionEdit,
) -> Result<LogWriter> {
    let name = manifest_file_name(number);
    let path = format!("{prefix}{name}");
    if storage.exists(&path) {
        storage.delete(&path)?;
    }
    let mut writer = LogWriter::new(Arc::clone(storage), path, IoClass::ManifestWrite);
    writer.add_record(&edit.encode())?;
    writer.sync()?;
    storage.write_file(
        &format!("{prefix}{CURRENT_FILE}"),
        name.as_bytes(),
        IoClass::ManifestWrite,
    )?;
    Ok(writer)
}

/// Starts a fresh manifest under the next file number, holding one
/// snapshot edit of `version` and `counters` (the number it took counted).
fn snapshot_manifest(
    storage: &Arc<dyn StorageBackend>,
    version: &Version,
    counters: &mut Counters,
) -> Result<LogWriter> {
    let number = counters.next_file_number;
    counters.next_file_number += 1;
    write_manifest(storage, "", number, &snapshot_edit(version, counters))
}

impl VersionSet {
    /// The one constructor: settles `version`'s refcounts, checks it, and
    /// writes the snapshot manifest the set will append to *before* the
    /// set exists, so there is never a set without a manifest behind it.
    /// Nothing from any previous manifest is reused: re-appending to a
    /// recovered one would corrupt record framing mid-block.
    fn with_fresh_manifest(
        storage: Arc<dyn StorageBackend>,
        mut version: Version,
        mut counters: Counters,
        recovered_manifest_tail_bytes: u64,
    ) -> Result<VersionSet> {
        recompute_refcounts(&mut version);
        version.check_invariants()?;
        let manifest = snapshot_manifest(&storage, &version, &mut counters)?;
        Ok(VersionSet {
            storage,
            manifest,
            current: Arc::new(version),
            counters,
            manifest_bytes: 0,
            recovered_manifest_tail_bytes,
            shipper: None,
        })
    }

    /// Creates a brand-new version set (fresh database) with an initial
    /// manifest, `MANIFEST-000001`.
    pub fn create(storage: Arc<dyn StorageBackend>) -> Result<VersionSet> {
        let counters = Counters {
            next_file_number: 1,
            ..Counters::new(NUM_LEVELS)
        };
        Self::with_fresh_manifest(storage, Version::new(NUM_LEVELS), counters, 0)
    }

    /// Recovers the version set from an existing `CURRENT` + manifest.
    pub fn recover(storage: Arc<dyn StorageBackend>) -> Result<VersionSet> {
        let manifest_name =
            String::from_utf8(storage.read_all(CURRENT_FILE, IoClass::Other)?.to_vec())
                .map_err(|_| corruption("CURRENT is not utf-8"))?;
        let mut version = Version::new(NUM_LEVELS);
        let mut counters = Counters::new(NUM_LEVELS);
        let mut reader = LogReader::open(storage.as_ref(), &manifest_name)?;
        reader.for_each(|record| {
            let edit = VersionEdit::decode(record)?;
            counters.absorb(&edit, Adopt::Own);
            apply_edit(&mut version, &edit)
        })?;
        // A crash mid-`log_and_apply` leaves a torn final edit; the reader
        // stops at the clean prefix, which is exactly the last committed
        // version. Report the discarded bytes for the recovery summary.
        let tail = reader.truncated_tail_bytes();
        Self::with_fresh_manifest(storage, version, counters, tail)
    }

    /// Whether a database already exists in `storage`.
    pub fn exists(storage: &dyn StorageBackend) -> bool {
        storage.exists(CURRENT_FILE)
    }

    /// Builds a fresh version set around an externally reconstructed
    /// `version` — the final step of `repair_db`. The link counter is
    /// found the way recovery finds it: in the version's own snapshot edit.
    pub fn rebuild(
        storage: Arc<dyn StorageBackend>,
        version: Version,
        last_sequence: SequenceNumber,
        next_file_number: u64,
    ) -> Result<VersionSet> {
        let mut counters = Counters {
            next_file_number: next_file_number.max(2),
            last_sequence,
            ..Counters::new(version.num_levels())
        };
        counters.absorb(&snapshot_edit(&version, &counters), Adopt::Own);
        Self::with_fresh_manifest(storage, version, counters, 0)
    }

    /// Allocates a fresh file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.counters.next_file_number;
        self.counters.next_file_number += 1;
        n
    }

    /// Allocates a fresh link sequence.
    pub fn new_link_seq(&mut self) -> u64 {
        let n = self.counters.link_counter;
        self.counters.link_counter += 1;
        n
    }

    /// Logs `edit` to the manifest, then applies it to the current version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<()> {
        edit.next_file_number = Some(self.counters.next_file_number);
        edit.last_sequence = Some(self.counters.last_sequence);
        self.counters.absorb(&edit, Adopt::Own);
        self.commit(&edit, true)
    }

    /// Applies an edit received from a primary's backup stream: adopts the
    /// primary's counters instead of stamping our own, logs the record to
    /// our manifest (with the advanced replication cursor, so a restart
    /// resumes the stream instead of replaying it), and publishes the new
    /// version. The caller has already materialized any SSTables the edit
    /// references.
    pub fn apply_remote_edit(&mut self, edit: &VersionEdit) -> Result<()> {
        // Counters travel inside the shipped edit (`log_and_apply` stamps
        // them on the primary).
        let mut record = edit.clone();
        record.replication_cursor = Some(self.counters.replication_cursor + 1);
        self.counters.absorb(&record, Adopt::Max);
        // An edit that arrived over a stream is not shipped onward.
        self.commit(&record, false)
    }

    /// The tail both entry points share, once the counters are settled:
    /// append `edit` to the manifest and sync it, publish the version it
    /// produces, tell the armed backup stream (`ship`), and roll the
    /// manifest over once it has grown past [`MANIFEST_ROLLOVER_BYTES`].
    fn commit(&mut self, edit: &VersionEdit, ship: bool) -> Result<()> {
        let record = edit.encode();
        self.manifest.add_record(&record)?;
        self.manifest.sync()?;
        self.manifest_bytes += record.len() as u64;
        // Copy-on-write publish: readers holding the old `Arc<Version>`
        // keep a stable view while the new version becomes current.
        let mut next = Version::clone(&self.current);
        apply_edit(&mut next, edit)?;
        recompute_refcounts(&mut next);
        debug_assert!(next.check_invariants().is_ok());
        self.current = Arc::new(next);
        // Ship after the local manifest sync + publish: the edit is already
        // committed locally, so the backup stream never runs ahead of the
        // primary. A ship failure propagates (the caller latches bg_error)
        // because silently diverging from the stream would hand a follower
        // an undetectably stale history.
        if let (true, Some(shipper)) = (ship, &mut self.shipper) {
            shipper.ship(edit)?;
        }
        if self.manifest_bytes > MANIFEST_ROLLOVER_BYTES {
            let old = self.manifest.name().to_string();
            self.manifest = snapshot_manifest(&self.storage, &self.current, &mut self.counters)?;
            self.manifest_bytes = 0;
            if self.storage.exists(&old) {
                self.storage.delete(&old)?;
            }
        }
        Ok(())
    }

    /// Arms incremental shipping: every subsequent `log_and_apply` also
    /// appends its edit to `shipper`'s stream. Call with the version-set
    /// lock held so no edit slips between the base checkpoint and record 1.
    pub fn arm_shipper(&mut self, shipper: Shipper) {
        self.shipper = Some(shipper);
    }

    /// Disarms incremental shipping, returning the shipper's final stats.
    pub fn disarm_shipper(&mut self) -> Option<Shipper> {
        self.shipper.take()
    }

    /// Whether a backup stream is currently armed.
    pub fn shipping(&self) -> bool {
        self.shipper.is_some()
    }

    /// Stream stats of the armed shipper: (edits, files, bytes shipped).
    pub fn shipper_stats(&self) -> Option<(u64, u64, u64)> {
        self.shipper
            .as_ref()
            .map(|s| (s.edits_shipped, s.files_shipped, s.bytes_shipped))
    }
}

#[cfg(test)]
mod tests {
    use super::super::meta::SliceLink;
    use super::super::tests::meta;
    use super::*;
    use crate::types::KeyRange;
    use ldc_ssd::{MemStorage, SsdConfig, SsdDevice};

    fn storage() -> Arc<MemStorage> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    #[test]
    fn replication_cursor_survives_recovery() {
        let s = storage();
        {
            let mut primary = VersionSet::create(storage()).unwrap();
            let mut follower = VersionSet::create(s.clone()).unwrap();
            let f1 = primary.new_file_number();
            // Primary logs an edit; the follower materializes the file and
            // applies the same edit remotely.
            let edit = VersionEdit {
                new_files: vec![(1, meta(f1, b"a", b"c"))],
                ..Default::default()
            };
            primary.log_and_apply(edit.clone()).unwrap();
            let mut shipped = edit;
            shipped.next_file_number = Some(primary.counters.next_file_number);
            shipped.last_sequence = Some(primary.counters.last_sequence);
            follower.apply_remote_edit(&shipped).unwrap();
            assert_eq!(follower.counters.replication_cursor, 1);
            assert_eq!(follower.current.level_files(1), 1);
            assert!(follower.counters.next_file_number >= primary.counters.next_file_number);
        }
        let follower = VersionSet::recover(s).unwrap();
        assert_eq!(follower.counters.replication_cursor, 1);
        assert_eq!(follower.current.level_files(1), 1);
    }

    #[test]
    fn version_set_create_and_log() {
        let s = storage();
        let mut vs = VersionSet::create(s.clone()).unwrap();
        assert!(VersionSet::exists(s.as_ref()));
        let n1 = vs.new_file_number();
        let edit = VersionEdit {
            new_files: vec![(1, meta(n1, b"a", b"c"))],
            ..Default::default()
        };
        vs.log_and_apply(edit).unwrap();
        assert_eq!(vs.current.level_files(1), 1);
    }

    #[test]
    fn recovery_restores_full_state() {
        let s = storage();
        {
            let mut vs = VersionSet::create(s.clone()).unwrap();
            let f1 = vs.new_file_number();
            let f2 = vs.new_file_number();
            let f3 = vs.new_file_number();
            vs.counters.last_sequence = 555;
            vs.log_and_apply(VersionEdit {
                new_files: vec![
                    (1, meta(f1, b"a", b"m")),
                    (2, meta(f2, b"a", b"h")),
                    (2, meta(f3, b"i", b"z")),
                ],
                compact_pointers: vec![(1, b"m".to_vec())],
                ..Default::default()
            })
            .unwrap();
            let link_seq = vs.new_link_seq();
            vs.log_and_apply(VersionEdit {
                frozen_files: vec![(1, f1)],
                new_links: vec![(
                    f2,
                    SliceLink {
                        source_file: f1,
                        range: KeyRange::new(&b"a"[..], &b"i"[..]),
                        link_seq,
                        approx_bytes: 100,
                    },
                )],
                ..Default::default()
            })
            .unwrap();
        }
        let vs = VersionSet::recover(s.clone()).unwrap();
        assert_eq!(vs.counters.last_sequence, 555);
        assert_eq!(vs.current.level_files(1), 0);
        assert_eq!(vs.current.level_files(2), 2);
        assert_eq!(vs.current.frozen_files(), 1);
        assert_eq!(vs.current.total_slice_links(), 1);
        assert_eq!(vs.counters.compact_pointers[1], b"m".to_vec());
        assert!(vs.counters.link_counter >= 1);
        vs.current.check_invariants().unwrap();
        // The recovered frozen file's refcount was recomputed.
        let frozen = vs.current.frozen.values().next().unwrap();
        assert_eq!(frozen.refcount, 1);
    }

    #[test]
    fn recovery_after_recovery_is_stable() {
        let s = storage();
        {
            let mut vs = VersionSet::create(s.clone()).unwrap();
            let f1 = vs.new_file_number();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(f1, b"a", b"c"))],
                ..Default::default()
            })
            .unwrap();
        }
        {
            let vs = VersionSet::recover(s.clone()).unwrap();
            assert_eq!(vs.current.level_files(1), 1);
        }
        let vs = VersionSet::recover(s).unwrap();
        assert_eq!(vs.current.level_files(1), 1);
    }
}
