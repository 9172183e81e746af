//! Checkpoints, incremental backup streams, and restore.
//!
//! The storage namespace is flat, so a "checkpoint directory" is a name
//! prefix: checkpoint `nightly` of a store lives at `ckpt-nightly@CURRENT`,
//! `ckpt-nightly@MANIFEST-000001`, `ckpt-nightly@000005.sst`, ... Backups
//! use `backup-<name>@` and add an append-only edit stream at
//! `backup-<name>@EDITS` (CRC-framed like the WAL), written by [`Shipper`]
//! and read back by [`for_each_stream_edit`].
//!
//! Protocol invariants:
//! * `<prefix>CURRENT` is written **last** during checkpoint creation, so
//!   its presence is the completeness marker — restore refuses a prefix
//!   without it (a crash mid-checkpoint leaves only ignorable garbage).
//! * Stream records are appended and synced one at a time, after their
//!   referenced SSTables are linked into the prefix, so every record on
//!   the stream's clean prefix is fully materialized.
//! * Restore replays the stream's clean prefix on top of the base
//!   checkpoint; a torn tail (crash mid-ship) is a clean end, exactly like
//!   WAL recovery. The result equals the primary's state as of the last
//!   durable record — an acknowledged-history prefix.

use std::collections::BTreeSet;
use std::sync::Arc;

use ldc_obs::{Event, EventKind, NoopSink, SharedSink};
use ldc_ssd::{IoClass, StorageBackend};

use crate::error::{Error, Result};
use crate::types::SequenceNumber;
use crate::version::{
    snapshot_edit, table_file_name, write_manifest, Counters, Version, VersionEdit, VersionSet,
    CURRENT_FILE,
};
use crate::wal::{LogReader, LogWriter};

/// The name prefix under which checkpoint `name`'s files live.
pub fn checkpoint_prefix(name: &str) -> String {
    format!("ckpt-{name}@")
}

/// The name prefix under which backup `name`'s files (base checkpoint +
/// edit stream) live.
pub fn backup_prefix(name: &str) -> String {
    format!("backup-{name}@")
}

/// Validates a checkpoint/backup name: it becomes part of flat file names,
/// so it must be non-empty and restricted to `[A-Za-z0-9_-]`.
pub fn validate_name(name: &str) -> Result<()> {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(Error::InvalidArgument(format!(
            "checkpoint name {name:?} must be non-empty [A-Za-z0-9_-]"
        )));
    }
    Ok(())
}

/// What a checkpoint creation produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// SSTables linked into the checkpoint prefix.
    pub files_linked: u64,
    /// Total bytes of those SSTables.
    pub bytes_linked: u64,
    /// The sequence number the checkpoint is consistent at: every write
    /// acknowledged before the pin is included, nothing after.
    pub last_sequence: SequenceNumber,
}

/// What a restore reconstructed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Files copied out of the checkpoint prefix (tables + manifest +
    /// CURRENT).
    pub files_copied: u64,
    /// Total bytes copied.
    pub bytes_copied: u64,
    /// Incremental stream records replayed on top of the base.
    pub edits_applied: u64,
    /// The restored store's last sequence number.
    pub last_sequence: SequenceNumber,
}

/// Writes the checkpoint itself: links every SSTable reachable from the
/// pinned `version` into `prefix`, synthesizes a single-snapshot manifest
/// for it, and finally writes `<prefix>CURRENT` as the completeness
/// marker. Runs against an immutable pinned version, so it needs no engine
/// lock — the caller holds a checkpoint pin that blocks physical deletion
/// of the linked tables.
pub(crate) fn write_checkpoint_files(
    storage: &Arc<dyn StorageBackend>,
    prefix: &str,
    version: &Version,
    counters: Counters,
) -> Result<CheckpointReport> {
    let mut report = CheckpointReport {
        last_sequence: counters.last_sequence,
        ..Default::default()
    };
    for (number, size) in version.tables() {
        let src = table_file_name(number);
        let dst = format!("{prefix}{src}");
        if !storage.exists(&dst) {
            storage.link_file(&src, &dst, IoClass::Other)?;
        }
        report.files_linked += 1;
        report.bytes_linked += size;
    }
    // The checkpoint's manifest holds one snapshot edit of the pinned
    // state. `log_number` is 0: a checkpoint has no WAL (the caller
    // flushed both memtables before pinning). Nor has it applied any
    // stream record of its own. CURRENT goes last: its durability marks
    // the checkpoint complete.
    let counters = Counters {
        log_number: 0,
        replication_cursor: 0,
        ..counters
    };
    write_manifest(storage, prefix, 1, &snapshot_edit(version, &counters))?;
    Ok(report)
}

/// Whether `prefix` holds a complete checkpoint (its `CURRENT` marker was
/// durably written).
pub fn checkpoint_complete(storage: &dyn StorageBackend, prefix: &str) -> bool {
    storage.exists(&format!("{prefix}{CURRENT_FILE}"))
}

/// Copies the checkpoint at `prefix` on `src` into `dst`, stripping the
/// prefix — afterwards `dst` is an openable database directory. Refuses an
/// incomplete checkpoint (no `CURRENT` marker) and a non-empty `dst`.
pub fn restore_checkpoint(
    src: &Arc<dyn StorageBackend>,
    prefix: &str,
    dst: &Arc<dyn StorageBackend>,
) -> Result<RestoreReport> {
    if !checkpoint_complete(src.as_ref(), prefix) {
        return Err(Error::InvalidState(format!(
            "checkpoint {prefix:?} is incomplete: no CURRENT marker (creation crashed?)"
        )));
    }
    if dst.exists(CURRENT_FILE) {
        return Err(Error::InvalidArgument(
            "restore destination already holds a database".to_string(),
        ));
    }
    let current = format!("{prefix}{CURRENT_FILE}");
    let stream = format!("{prefix}{STREAM_FILE}");
    let mut report = RestoreReport::default();
    let mut copy = |full_name: &str| -> Result<()> {
        let stripped = &full_name[prefix.len()..];
        let data = src.read_all(full_name, IoClass::Other)?;
        dst.write_file(stripped, &data, IoClass::Other)?;
        report.files_copied += 1;
        report.bytes_copied += data.len() as u64;
        Ok(())
    };
    for name in src.list_dir(prefix) {
        // The edit stream is not part of the base image; CURRENT goes
        // last so a crashed restore is never mistaken for a database.
        if name == current || name == stream {
            continue;
        }
        copy(&name)?;
    }
    copy(&current)?;
    Ok(report)
}

/// The stream's writer, armed on a [`VersionSet`] by `backup_begin`:
/// appends every edit the set commits to an incremental backup stream,
/// `<prefix>EDITS`, CRC-framed exactly like the WAL, preceded for each
/// record by links of any referenced new SSTables into the backup prefix.
/// Link-before-append means a durable stream record never references a
/// file the backup is missing; a crash between the two leaves an orphan
/// link that restore simply ignores.
pub struct Shipper {
    storage: Arc<dyn StorageBackend>,
    prefix: String,
    writer: LogWriter,
    /// Where per-record [`EventKind::BackupShip`] events go.
    sink: SharedSink,
    /// Stream records appended (and synced) so far.
    pub edits_shipped: u64,
    /// SSTables linked into the backup prefix so far.
    pub files_shipped: u64,
    /// Total bytes of those SSTables.
    pub bytes_shipped: u64,
}

impl std::fmt::Debug for Shipper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shipper")
            .field("prefix", &self.prefix)
            .field("edits_shipped", &self.edits_shipped)
            .finish_non_exhaustive()
    }
}

/// Name of the edit-stream file inside a backup prefix.
pub const STREAM_FILE: &str = "EDITS";

impl Shipper {
    /// Opens (or continues) the stream at `<prefix>EDITS` on `storage`.
    pub fn new(storage: Arc<dyn StorageBackend>, prefix: String) -> Shipper {
        let writer = LogWriter::new(
            Arc::clone(&storage),
            format!("{prefix}{STREAM_FILE}"),
            IoClass::ManifestWrite,
        );
        Shipper {
            storage,
            prefix,
            writer,
            sink: Arc::new(NoopSink),
            edits_shipped: 0,
            files_shipped: 0,
            bytes_shipped: 0,
        }
    }

    /// Routes per-record ship events to `sink`.
    pub fn with_sink(mut self, sink: SharedSink) -> Shipper {
        self.sink = sink;
        self
    }

    /// The backup prefix this shipper writes under.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Ships one applied edit: links its new SSTables into the backup
    /// prefix, then appends + syncs the encoded edit as one stream record.
    pub fn ship(&mut self, edit: &VersionEdit) -> Result<()> {
        let t0 = self.storage.device().clock().now();
        let mut record_files = 0u64;
        let mut record_bytes = 0u64;
        for (_, meta) in &edit.new_files {
            let src = table_file_name(meta.number);
            let dst = format!("{}{src}", self.prefix);
            // Trivial moves re-add a file the base checkpoint (or an
            // earlier record) already shipped.
            if self.storage.exists(&dst) {
                continue;
            }
            self.storage.link_file(&src, &dst, IoClass::Other)?;
            record_files += 1;
            record_bytes += meta.size;
        }
        self.writer.add_record(&edit.encode())?;
        self.writer.sync()?;
        self.files_shipped += record_files;
        self.bytes_shipped += record_bytes;
        self.edits_shipped += 1;
        if self.sink.enabled() {
            self.sink.record(
                Event::span(
                    EventKind::BackupShip,
                    t0,
                    self.storage.device().clock().now(),
                )
                .files(record_files as u32, 0)
                .bytes(record_bytes, 0),
            );
        }
        Ok(())
    }
}

/// Reads the edit stream at `<prefix>EDITS` on `src`, invoking `f` with
/// `(ordinal, edit)` for every record past the first `skip` (ordinals are
/// 1-based). A missing stream is an empty stream; a torn tail is a clean
/// end. Returns the total number of complete records on the stream.
pub fn for_each_stream_edit(
    src: &dyn StorageBackend,
    prefix: &str,
    skip: u64,
    mut f: impl FnMut(u64, VersionEdit) -> Result<()>,
) -> Result<u64> {
    let stream = format!("{prefix}{STREAM_FILE}");
    if !src.exists(&stream) {
        return Ok(0);
    }
    let mut reader = LogReader::open(src, &stream)?;
    let mut ordinal = 0u64;
    reader.for_each(|record| {
        ordinal += 1;
        if ordinal <= skip {
            return Ok(());
        }
        f(ordinal, VersionEdit::decode(record)?)
    })?;
    Ok(ordinal)
}

/// Restores the backup at `prefix` on `src` into `dst`: base checkpoint,
/// then the edit stream's clean prefix replayed on top. The result is
/// consistent with the primary's acknowledged history as of the last
/// durable stream record.
pub fn restore_backup(
    src: &Arc<dyn StorageBackend>,
    prefix: &str,
    dst: &Arc<dyn StorageBackend>,
) -> Result<RestoreReport> {
    let mut report = restore_checkpoint(src, prefix, dst)?;
    let mut vs = VersionSet::recover(Arc::clone(dst))?;
    let applied_before = vs.counters.replication_cursor;
    for_each_stream_edit(src.as_ref(), prefix, applied_before, |_, edit| {
        for (_, meta) in &edit.new_files {
            let table = table_file_name(meta.number);
            if dst.exists(&table) {
                continue;
            }
            let data = src.read_all(&format!("{prefix}{table}"), IoClass::Other)?;
            dst.write_file(&table, &data, IoClass::Other)?;
            report.files_copied += 1;
            report.bytes_copied += data.len() as u64;
        }
        vs.apply_remote_edit(&edit)
    })?;
    report.edits_applied = vs.counters.replication_cursor - applied_before;
    report.last_sequence = vs.counters.last_sequence;
    // Stream records can delete base files (compaction inputs); their
    // bytes were copied before the replay decided they are garbage.
    let referenced: BTreeSet<u64> = vs.current.tables().map(|(number, _)| number).collect();
    for name in dst.list() {
        let Some(number) = name
            .strip_suffix(".sst")
            .and_then(|stem| stem.parse::<u64>().ok())
        else {
            continue;
        };
        if !referenced.contains(&number) {
            dst.delete(&name)?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::tests::meta;
    use ldc_ssd::{MemStorage, SsdConfig, SsdDevice};

    fn storage() -> Arc<dyn StorageBackend> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    #[test]
    fn names_validate_and_format() {
        assert_eq!(checkpoint_prefix("a-1"), "ckpt-a-1@");
        assert_eq!(backup_prefix("b_2"), "backup-b_2@");
        assert!(validate_name("ok-name_3").is_ok());
        for bad in ["", "a/b", "a@b", "a b", ".."] {
            assert!(validate_name(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn incomplete_checkpoint_is_refused() {
        let src = storage();
        let dst = storage();
        // Tables and manifest present, but no CURRENT marker: the crash
        // hit before the completeness marker, so restore must refuse.
        src.write_file("ckpt-x@000004.sst", b"t", IoClass::Other)
            .unwrap();
        src.write_file("ckpt-x@MANIFEST-000001", b"m", IoClass::Other)
            .unwrap();
        assert!(!checkpoint_complete(src.as_ref(), "ckpt-x@"));
        let err = restore_checkpoint(&src, "ckpt-x@", &dst).unwrap_err();
        assert!(matches!(err, Error::InvalidState(_)));
    }

    #[test]
    fn restore_refuses_nonempty_destination() {
        let src = storage();
        let dst = storage();
        src.write_file("ckpt-x@CURRENT", b"MANIFEST-000001", IoClass::Other)
            .unwrap();
        dst.write_file(CURRENT_FILE, b"MANIFEST-000001", IoClass::Other)
            .unwrap();
        assert!(matches!(
            restore_checkpoint(&src, "ckpt-x@", &dst),
            Err(Error::InvalidArgument(_))
        ));
    }

    #[test]
    fn missing_stream_is_empty() {
        let src = storage();
        let n = for_each_stream_edit(src.as_ref(), "backup-x@", 0, |_, _| {
            panic!("no records expected")
        })
        .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn stream_skip_and_ordinals() {
        let src = storage();
        let mut writer = LogWriter::new(
            Arc::clone(&src),
            "backup-x@EDITS".to_string(),
            IoClass::ManifestWrite,
        );
        for seq in 1..=3u64 {
            let edit = VersionEdit {
                last_sequence: Some(seq),
                ..Default::default()
            };
            writer.add_record(&edit.encode()).unwrap();
        }
        writer.sync().unwrap();
        let mut seen = Vec::new();
        let total = for_each_stream_edit(src.as_ref(), "backup-x@", 1, |ordinal, edit| {
            seen.push((ordinal, edit.last_sequence.unwrap()));
            Ok(())
        })
        .unwrap();
        assert_eq!(total, 3);
        assert_eq!(seen, vec![(2, 2), (3, 3)]);
    }

    #[test]
    fn shipper_links_files_and_streams_edits() {
        let s = storage();
        let mut vs = VersionSet::create(s.clone()).unwrap();
        let f1 = vs.new_file_number();
        s.write_file(&table_file_name(f1), b"sstable bytes", IoClass::Other)
            .unwrap();
        vs.arm_shipper(Shipper::new(s.clone(), "backup-t@".to_string()));
        vs.log_and_apply(VersionEdit {
            new_files: vec![(1, meta(f1, b"a", b"c"))],
            ..Default::default()
        })
        .unwrap();
        assert!(s.exists(&format!("backup-t@{}", table_file_name(f1))));
        assert!(s.exists("backup-t@EDITS"));
        let (edits, files, _) = vs.shipper_stats().unwrap();
        assert_eq!((edits, files), (1, 1));
        // A trivial move re-adds the same file: stream grows, no new link.
        vs.log_and_apply(VersionEdit {
            deleted_files: vec![(1, f1)],
            new_files: vec![(2, meta(f1, b"a", b"c"))],
            ..Default::default()
        })
        .unwrap();
        let (edits, files, _) = vs.shipper_stats().unwrap();
        assert_eq!((edits, files), (2, 1));
        assert!(vs.shipping());
        assert!(vs.disarm_shipper().is_some());
        assert!(!vs.shipping());
    }
}
