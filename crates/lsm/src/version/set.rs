//! [`VersionSet`]: the current version, the MANIFEST log, and recovery.

use std::sync::Arc;

use ldc_ssd::{IoClass, StorageBackend};

use super::edit::{apply_edit, snapshot_edit, VersionEdit};
use super::meta::{recompute_refcounts, Version};
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
    /// Next file number to hand out.
    pub next_file_number: u64,
    /// Highest committed sequence number.
    pub last_sequence: SequenceNumber,
    /// WAL file number currently in use.
    pub log_number: u64,
    /// Per-level round-robin cursors (largest user key compacted so far).
    pub compact_pointers: Vec<Vec<u8>>,
    /// Monotonic counter stamping slice links.
    pub link_counter: u64,
    /// Approximate bytes appended to the current manifest; when this
    /// exceeds [`MANIFEST_ROLLOVER_BYTES`] the manifest is rolled into a
    /// fresh snapshot so recovery time stays bounded.
    manifest_bytes: u64,
    /// Torn-tail bytes discarded from the manifest during the last
    /// [`VersionSet::recover`] (zero for a fresh set or a clean manifest).
    pub recovered_manifest_tail_bytes: u64,
    /// Backup-stream records applied so far (follower-side; stays 0 on a
    /// primary). Persisted with every applied record and in snapshot
    /// manifests so a restarted follower resumes, not replays.
    pub replication_cursor: u64,
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

impl VersionSet {
    /// Creates a brand-new version set (fresh database) with an initial
    /// manifest.
    pub fn create(storage: Arc<dyn StorageBackend>, max_levels: usize) -> Result<VersionSet> {
        let manifest_number = 1;
        let manifest_name = manifest_file_name(manifest_number);
        // A crash during a previous create (before CURRENT became durable)
        // can leave a torn manifest at this name; appending after its
        // garbage would wreck the log framing, so start from scratch.
        if storage.exists(&manifest_name) {
            storage.delete(&manifest_name)?;
        }
        let mut manifest = LogWriter::new(
            Arc::clone(&storage),
            manifest_name.clone(),
            IoClass::ManifestWrite,
        );
        // First record fixes the counters.
        let edit = VersionEdit {
            next_file_number: Some(2),
            last_sequence: Some(0),
            log_number: Some(0),
            ..Default::default()
        };
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        storage.write_file(
            CURRENT_FILE,
            manifest_name.as_bytes(),
            IoClass::ManifestWrite,
        )?;
        Ok(VersionSet {
            storage,
            manifest,
            current: Arc::new(Version::new(max_levels)),
            next_file_number: 2,
            last_sequence: 0,
            log_number: 0,
            compact_pointers: vec![Vec::new(); max_levels],
            link_counter: 0,
            manifest_bytes: 0,
            recovered_manifest_tail_bytes: 0,
            replication_cursor: 0,
            shipper: None,
        })
    }

    /// Recovers the version set from an existing `CURRENT` + manifest.
    pub fn recover(storage: Arc<dyn StorageBackend>, max_levels: usize) -> Result<VersionSet> {
        let manifest_name =
            String::from_utf8(storage.read_all(CURRENT_FILE, IoClass::Other)?.to_vec())
                .map_err(|_| corruption("CURRENT is not utf-8"))?;
        let mut version = Version::new(max_levels);
        let mut next_file_number = 2;
        let mut last_sequence = 0;
        let mut log_number = 0;
        let mut compact_pointers = vec![Vec::new(); max_levels];
        let mut link_counter = 0;
        let mut replication_cursor = 0;
        let mut reader = LogReader::open(storage.as_ref(), &manifest_name)?;
        reader.for_each(|record| {
            let edit = VersionEdit::decode(record)?;
            if let Some(v) = edit.next_file_number {
                next_file_number = v;
            }
            if let Some(v) = edit.last_sequence {
                last_sequence = v;
            }
            if let Some(v) = edit.log_number {
                log_number = v;
            }
            for (level, key) in &edit.compact_pointers {
                if let Some(slot) = compact_pointers.get_mut(*level as usize) {
                    *slot = key.clone();
                }
            }
            for (_, link) in &edit.new_links {
                link_counter = link_counter.max(link.link_seq + 1);
            }
            if let Some(v) = edit.replication_cursor {
                replication_cursor = v;
            }
            apply_edit(&mut version, &edit)
        })?;
        // A crash mid-`log_and_apply` leaves a torn final edit; the reader
        // stops at the clean prefix, which is exactly the last committed
        // version. Report the discarded bytes for the recovery summary.
        let manifest_tail_bytes = reader.truncated_tail_bytes();
        recompute_refcounts(&mut version);
        version.check_invariants()?;
        let manifest = LogWriter::new(Arc::clone(&storage), manifest_name, IoClass::ManifestWrite);
        // Re-appending to the recovered manifest would corrupt record
        // framing mid-block, so start a fresh manifest with a snapshot.
        let mut vs = VersionSet {
            storage,
            manifest,
            current: Arc::new(version),
            next_file_number,
            last_sequence,
            log_number,
            compact_pointers,
            link_counter,
            manifest_bytes: 0,
            recovered_manifest_tail_bytes: manifest_tail_bytes,
            replication_cursor,
            shipper: None,
        };
        vs.write_snapshot_manifest()?;
        Ok(vs)
    }

    /// Whether a database already exists in `storage`.
    pub fn exists(storage: &dyn StorageBackend) -> bool {
        storage.exists(CURRENT_FILE)
    }

    /// Builds a fresh version set around an externally reconstructed
    /// `version` — the final step of `repair_db`. Recomputes frozen
    /// refcounts, checks invariants, then writes a brand-new snapshot
    /// manifest and points `CURRENT` at it; nothing from any previous
    /// manifest is reused.
    pub fn rebuild(
        storage: Arc<dyn StorageBackend>,
        mut version: Version,
        last_sequence: SequenceNumber,
        next_file_number: u64,
    ) -> Result<VersionSet> {
        recompute_refcounts(&mut version);
        version.check_invariants()?;
        let link_counter = version
            .levels
            .iter()
            .flat_map(|files| files.iter())
            .flat_map(|f| f.slices.iter())
            .map(|s| s.link_seq + 1)
            .max()
            .unwrap_or(0);
        let max_levels = version.num_levels();
        // Placeholder writer (never appended to): `write_snapshot_manifest`
        // installs the real manifest before returning.
        let manifest = LogWriter::new(
            Arc::clone(&storage),
            manifest_file_name(0),
            IoClass::ManifestWrite,
        );
        let mut vs = VersionSet {
            storage,
            manifest,
            current: Arc::new(version),
            next_file_number: next_file_number.max(2),
            last_sequence,
            log_number: 0,
            compact_pointers: vec![Vec::new(); max_levels],
            link_counter,
            manifest_bytes: 0,
            recovered_manifest_tail_bytes: 0,
            replication_cursor: 0,
            shipper: None,
        };
        vs.write_snapshot_manifest()?;
        Ok(vs)
    }

    /// Allocates a fresh file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Allocates a fresh link sequence.
    pub fn new_link_seq(&mut self) -> u64 {
        let n = self.link_counter;
        self.link_counter += 1;
        n
    }

    /// Logs `edit` to the manifest, then applies it to the current version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<()> {
        edit.next_file_number = Some(self.next_file_number);
        edit.last_sequence = Some(self.last_sequence);
        for (level, key) in &edit.compact_pointers {
            if let Some(slot) = self.compact_pointers.get_mut(*level as usize) {
                *slot = key.clone();
            }
        }
        if let Some(v) = edit.log_number {
            self.log_number = v;
        }
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
        // them on the primary). Adopt by max: the follower allocates its
        // own numbers for its WAL and manifest rollovers, which may run
        // ahead of the primary's high-water mark.
        if let Some(v) = edit.next_file_number {
            self.next_file_number = self.next_file_number.max(v);
        }
        if let Some(v) = edit.last_sequence {
            self.last_sequence = self.last_sequence.max(v);
        }
        if let Some(v) = edit.log_number {
            self.log_number = self.log_number.max(v);
        }
        for (level, key) in &edit.compact_pointers {
            if let Some(slot) = self.compact_pointers.get_mut(*level as usize) {
                *slot = key.clone();
            }
        }
        for (_, link) in &edit.new_links {
            self.link_counter = self.link_counter.max(link.link_seq + 1);
        }
        self.replication_cursor += 1;
        let mut record_edit = edit.clone();
        record_edit.replication_cursor = Some(self.replication_cursor);
        // An edit that arrived over a stream is not shipped onward.
        self.commit(&record_edit, false)
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
            self.write_snapshot_manifest()?;
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

    /// Rolls the manifest: writes a new manifest containing one snapshot
    /// edit of the entire current state, then points `CURRENT` at it.
    fn write_snapshot_manifest(&mut self) -> Result<()> {
        let manifest_number = self.new_file_number();
        let name = manifest_file_name(manifest_number);
        // A crashed incarnation may have left a torn, unreferenced manifest
        // at a number this incarnation re-allocates (the edit consuming the
        // number never became durable). Appending after its garbage would
        // wreck the log framing, so start from scratch.
        if self.storage.exists(&name) {
            self.storage.delete(&name)?;
        }
        let mut writer = LogWriter::new(
            Arc::clone(&self.storage),
            name.clone(),
            IoClass::ManifestWrite,
        );
        let edit = snapshot_edit(
            &self.current,
            self.next_file_number,
            self.last_sequence,
            self.log_number,
            &self.compact_pointers,
            self.replication_cursor,
        );
        writer.add_record(&edit.encode())?;
        writer.sync()?;
        self.storage
            .write_file(CURRENT_FILE, name.as_bytes(), IoClass::ManifestWrite)?;
        self.manifest = writer;
        self.manifest_bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::meta::SliceLink;
    use super::super::testutil::meta;
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
            let mut primary = VersionSet::create(storage(), 4).unwrap();
            let mut follower = VersionSet::create(s.clone(), 4).unwrap();
            let f1 = primary.new_file_number();
            // Primary logs an edit; the follower materializes the file and
            // applies the same edit remotely.
            let edit = VersionEdit {
                new_files: vec![(1, meta(f1, b"a", b"c"))],
                ..Default::default()
            };
            primary.log_and_apply(edit.clone()).unwrap();
            let mut shipped = edit;
            shipped.next_file_number = Some(primary.next_file_number);
            shipped.last_sequence = Some(primary.last_sequence);
            follower.apply_remote_edit(&shipped).unwrap();
            assert_eq!(follower.replication_cursor, 1);
            assert_eq!(follower.current.level_files(1), 1);
            assert!(follower.next_file_number >= primary.next_file_number);
        }
        let follower = VersionSet::recover(s, 4).unwrap();
        assert_eq!(follower.replication_cursor, 1);
        assert_eq!(follower.current.level_files(1), 1);
    }

    #[test]
    fn version_set_create_and_log() {
        let s = storage();
        let mut vs = VersionSet::create(s.clone(), 4).unwrap();
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
            let mut vs = VersionSet::create(s.clone(), 4).unwrap();
            let f1 = vs.new_file_number();
            let f2 = vs.new_file_number();
            let f3 = vs.new_file_number();
            vs.last_sequence = 555;
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
        let vs = VersionSet::recover(s.clone(), 4).unwrap();
        assert_eq!(vs.last_sequence, 555);
        assert_eq!(vs.current.level_files(1), 0);
        assert_eq!(vs.current.level_files(2), 2);
        assert_eq!(vs.current.frozen_files(), 1);
        assert_eq!(vs.current.total_slice_links(), 1);
        assert_eq!(vs.compact_pointers[1], b"m".to_vec());
        assert!(vs.link_counter >= 1);
        vs.current.check_invariants().unwrap();
        // The recovered frozen file's refcount was recomputed.
        let frozen = vs.current.frozen.values().next().unwrap();
        assert_eq!(frozen.refcount, 1);
    }

    #[test]
    fn recovery_after_recovery_is_stable() {
        let s = storage();
        {
            let mut vs = VersionSet::create(s.clone(), 4).unwrap();
            let f1 = vs.new_file_number();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(f1, b"a", b"c"))],
                ..Default::default()
            })
            .unwrap();
        }
        {
            let vs = VersionSet::recover(s.clone(), 4).unwrap();
            assert_eq!(vs.current.level_files(1), 1);
        }
        let vs = VersionSet::recover(s, 4).unwrap();
        assert_eq!(vs.current.level_files(1), 1);
    }
}
