//! Durable cuts: explicit flush, online checkpoints, incremental backup,
//! and the follower's replicated-edit apply.

use std::sync::Arc;

use ldc_obs::{Event, EventKind};

use super::{Db, DbCore};
use crate::backup::{self, CheckpointReport, Shipper, STREAM_FILE};
use crate::error::{Error, Result};
use crate::version::VersionEdit;

impl Db {
    // ------------------------------------------------------------------
    // Checkpoints, incremental backup, replication
    // ------------------------------------------------------------------

    /// Flushes both memtables to Level 0 and rotates the WAL, so the
    /// version alone captures every acknowledged write. Public so
    /// harnesses can force a durable cut; checkpoint creation uses it as
    /// its phase 1.
    pub fn flush(&self) -> Result<()> {
        let mut core = self.wait_flush_job(self.core.lock());
        if let Some(e) = &core.bg_error {
            return Err(e.clone());
        }
        let outcome = self.flush_all(&mut core);
        if let Err(e) = &outcome {
            core.latch(e.clone());
        }
        self.publish_and_reap(&mut core);
        outcome
    }

    /// Flushes the pending immutable memtable (if any), then rotates the
    /// WAL and flushes the active memtable — the write path's rotation
    /// sequence, run to completion on the caller's thread.
    fn flush_all(&self, core: &mut DbCore) -> Result<()> {
        self.flush_imm(core, None)?;
        if core.mem.is_empty() {
            return Ok(());
        }
        let new_log_number = self.rotate_memtable(core);
        self.flush_imm(core, Some(new_log_number))
    }

    /// Creates online checkpoint `name`: a crash-consistent image of the
    /// store under the `ckpt-<name>@` prefix on the same storage, openable
    /// after [`backup::restore_checkpoint`] copies it out. Writers keep
    /// running during phase 2 (the bulk of the work); the image reflects
    /// exactly the writes acknowledged before the internal pin.
    pub fn checkpoint(&self, name: &str) -> Result<CheckpointReport> {
        backup::validate_name(name)?;
        self.checkpoint_to(&backup::checkpoint_prefix(name), false)
    }

    /// Starts incremental backup `name`: writes a base checkpoint under
    /// the `backup-<name>@` prefix and arms the edit-stream shipper, so
    /// every subsequent version change is appended to
    /// `backup-<name>@EDITS` (with its new SSTables linked alongside)
    /// until [`Db::backup_end`]. Restore with [`backup::restore_backup`].
    pub fn backup_begin(&self, name: &str) -> Result<CheckpointReport> {
        backup::validate_name(name)?;
        let prefix = backup::backup_prefix(name);
        if self.storage.exists(&format!("{prefix}{STREAM_FILE}")) {
            return Err(Error::InvalidArgument(format!(
                "backup {name:?} already has an edit stream \
                 (complete, or crashed mid-backup; delete its files first)"
            )));
        }
        self.checkpoint_to(&prefix, true)
    }

    /// Stops shipping to the active backup stream, returning its totals
    /// as `(edits_shipped, files_shipped, bytes_shipped)`; `None` if no
    /// stream was armed. The stream stays on storage — restore still
    /// replays everything shipped so far.
    pub fn backup_end(&self) -> Option<(u64, u64, u64)> {
        self.core
            .lock()
            .versions
            .disarm_shipper()
            .map(|s| (s.edits_shipped, s.files_shipped, s.bytes_shipped))
    }

    /// Whether an incremental backup stream is currently armed.
    pub fn shipping(&self) -> bool {
        self.core.lock().versions.shipping()
    }

    /// How many backup-stream records this store has applied (nonzero
    /// only on followers / restored backups).
    pub fn replication_cursor(&self) -> u64 {
        self.core.lock().versions.counters.replication_cursor
    }

    /// Both phases of checkpoint creation. Phase 1 runs under the core
    /// lock: flush everything, pin the resulting version (and arm the
    /// shipper, for backups, in the same critical section — no edit can
    /// slip between the base image and the stream). Phase 2 runs without
    /// the lock, under a read pin that defers physical deletion of
    /// any table it still has to link.
    fn checkpoint_to(&self, prefix: &str, arm_stream: bool) -> Result<CheckpointReport> {
        if backup::checkpoint_complete(self.storage.as_ref(), prefix) {
            return Err(Error::InvalidArgument(format!(
                "checkpoint {prefix:?} already exists"
            )));
        }
        let t0 = self.device.clock().now();
        let (version, counters, _pin) = {
            let mut core = self.wait_flush_job(self.core.lock());
            if let Some(e) = &core.bg_error {
                return Err(e.clone());
            }
            if arm_stream && core.versions.shipping() {
                return Err(Error::InvalidState(
                    "a backup stream is already armed".to_string(),
                ));
            }
            if let Err(e) = self.flush_all(&mut core) {
                core.latch(e.clone());
                return Err(e);
            }
            self.publish_view(&core);
            if arm_stream {
                core.versions.arm_shipper(
                    Shipper::new(Arc::clone(&self.storage), prefix.to_string())
                        .with_sink(Arc::clone(&self.sink)),
                );
            }
            (
                Arc::clone(&core.versions.current),
                core.versions.counters.clone(),
                self.pin_reads(),
            )
        };
        let report = match backup::write_checkpoint_files(&self.storage, prefix, &version, counters)
        {
            Ok(r) => r,
            Err(e) => {
                if arm_stream {
                    // Don't leave the primary shipping onto a dead backup.
                    self.core.lock().versions.disarm_shipper();
                }
                return Err(e);
            }
        };
        self.core.lock().stats.checkpoints += 1;
        if self.sink.enabled() {
            self.sink.record(
                Event::span(EventKind::Checkpoint, t0, self.device.clock().now())
                    .files(u32::try_from(report.files_linked).unwrap_or(u32::MAX), 0)
                    .bytes(report.bytes_linked, 0),
            );
        }
        Ok(report)
    }

    /// Applies one replicated [`VersionEdit`] from a backup stream (the
    /// read-only follower's write path). The caller must have copied any
    /// SSTables the edit adds into this store's storage first; files the
    /// edit removes are reaped like a local compaction's.
    pub fn apply_remote_edit(&self, edit: &VersionEdit) -> Result<()> {
        let t0 = self.device.clock().now();
        let mut core = self.core.lock();
        if let Some(e) = &core.bg_error {
            return Err(e.clone());
        }
        let applied = core.versions.apply_remote_edit(edit);
        core.tables = Arc::new(core.tables.successor(&core.versions.current));
        if let Err(e) = applied {
            core.latch(e.clone());
            return Err(e);
        }
        for (_, number) in &edit.deleted_files {
            // A trivial move carries the same number in deleted_files and
            // new_files (level change only) — the table is still live.
            if edit.new_files.iter().any(|(_, m)| m.number == *number) {
                continue;
            }
            self.drop_table_file(&mut core, *number);
        }
        for number in &edit.deleted_frozen {
            self.drop_table_file(&mut core, *number);
        }
        core.stats.edits_applied += 1;
        self.publish_and_reap(&mut core);
        if self.sink.enabled() {
            self.sink.record(
                Event::span(EventKind::ReplApply, t0, self.device.clock().now())
                    .files(edit.new_files.len() as u32, 0)
                    .bytes(core.versions.counters.replication_cursor, 0),
            );
        }
        Ok(())
    }
}
