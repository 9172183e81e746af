//! Opening a store: manifest recovery, WAL replay, the first flush.

use std::collections::BTreeMap;
use std::sync::Arc;

use ldc_obs::{Event, EventKind, MetricsRegistry, NoopSink, SharedSink};
use ldc_ssd::StorageBackend;

use super::write::fresh_wal;
use super::{Db, DbCore, DbStats, RecoverySummary};
use crate::cache::{BlockCache, TableSet};
use crate::compaction::CompactionPolicy;
use crate::error::Result;
use crate::memtable::MemTable;
use crate::options::{Options, ENGINE_SEED};
use crate::retry::RetryStorage;
use crate::version::{log_file_name, VersionEdit, VersionSet};
use crate::wal::replay_into;

impl Db {
    /// Opens (creating or recovering) a database on `storage` with the given
    /// compaction policy.
    pub fn open(
        storage: Arc<dyn StorageBackend>,
        options: Options,
        policy: Box<dyn CompactionPolicy>,
    ) -> Result<Db> {
        Self::open_with_sink(storage, options, policy, Arc::new(NoopSink))
    }

    /// Like [`Db::open`], but routes events — including the recovery event
    /// emitted during this open — to `sink` from the start.
    pub fn open_with_sink(
        storage: Arc<dyn StorageBackend>,
        options: Options,
        policy: Box<dyn CompactionPolicy>,
        sink: SharedSink,
    ) -> Result<Db> {
        options.validate()?;
        let metrics = Arc::new(MetricsRegistry::new());
        // Transient-read retry wraps the backend before anything reads
        // through it, so manifest recovery and WAL replay get the same
        // bounded-retry protection as steady-state reads.
        let storage = RetryStorage::wrap(
            storage,
            ENGINE_SEED,
            Arc::clone(&sink),
            Arc::clone(&metrics),
        );
        let device = storage.device();
        let open_start = device.clock().now();
        let existed = VersionSet::exists(storage.as_ref());
        let mut versions = if existed {
            VersionSet::recover(Arc::clone(&storage))?
        } else {
            VersionSet::create(Arc::clone(&storage))?
        };
        let mut recovery = RecoverySummary {
            bytes_truncated: versions.recovered_manifest_tail_bytes,
            ..Default::default()
        };

        // Replay every surviving WAL, oldest first, into a fresh memtable.
        // Logs are deleted only once their contents are flushed, so the set
        // of `.log` files on disk is exactly the unflushed data — even if
        // the crash happened between a rotation and its flush.
        let mem = MemTable::new(ENGINE_SEED);
        let mut replayed = 0u64;
        let mut old_logs: Vec<(u64, String)> = storage
            .list()
            .into_iter()
            .filter_map(|name| {
                let number: u64 = name.strip_suffix(".log")?.parse().ok()?;
                Some((number, name))
            })
            .collect();
        old_logs.sort();
        if existed {
            let mut max_seq = versions.counters.last_sequence;
            let mut corrupt_from: Option<usize> = None;
            for (idx, (_, name)) in old_logs.iter().enumerate() {
                let log = replay_into(storage.as_ref(), name, &mem)?;
                replayed += log.entries;
                max_seq = max_seq.max(log.last_sequence);
                // Mid-log corruption: recover to the last consistent
                // point in time. Records before the bad region were
                // already replayed; the rest of this log and every
                // later log are set aside, not served as garbage.
                if log.corrupt {
                    corrupt_from = Some(idx);
                    break;
                }
                recovery.wals_replayed += 1;
                if log.torn_bytes > 0 {
                    // The torn tail is dead bytes: cut it so the log
                    // reads cleanly if this open crashes before the
                    // replayed data is flushed. Backends without
                    // truncate just keep the tail; replay re-skips it.
                    recovery.bytes_truncated += log.torn_bytes;
                    // ldc-lint: allow(must_use_result) — best-effort cleanup; replay re-skips the tail if it survives
                    let _ = storage.truncate(name, log.clean_prefix);
                }
            }
            if let Some(from) = corrupt_from {
                for (_, name) in old_logs.iter().skip(from) {
                    storage.rename(name, &format!("{name}.quarantined"))?;
                    recovery.files_quarantined += 1;
                }
                old_logs.truncate(from);
            }
            versions.counters.last_sequence = max_seq;
        }
        recovery.records_replayed = replayed;

        // Fresh WAL for new writes.
        let (new_log_number, wal) = fresh_wal(&mut versions, &storage);

        let block_cache = Arc::new(BlockCache::new(options.block_cache_bytes));
        let tables = TableSet::new(
            Arc::clone(&storage),
            Arc::clone(&block_cache),
            &versions.current,
        );
        let core = DbCore {
            versions,
            tables: Arc::new(tables),
            mem: Arc::new(mem),
            imm: None,
            policy,
            imm_wal_to_delete: None,
            wal,
            stats: DbStats::default(),
            snapshots: BTreeMap::new(),
            bg_error: None,
            quarantined: Vec::new(),
            pending_deletes: Vec::new(),
        };
        let parts = (core, block_cache);
        let db = Db::assemble(options, storage, sink, metrics, parts, recovery);

        // Persist the replayed data so the old WALs can be dropped, then
        // record the new WAL number.
        let mut core = db.core.lock();
        if replayed > 0 {
            let full = std::mem::replace(&mut core.mem, Arc::new(MemTable::new(ENGINE_SEED)));
            db.flush_memtable(&mut core, &full, Some(new_log_number))?;
        } else {
            core.log_and_apply(VersionEdit {
                log_number: Some(new_log_number),
                ..Default::default()
            })?;
        }
        for (_, name) in &old_logs {
            if *name != log_file_name(new_log_number) && db.storage.exists(name) {
                db.storage.delete(name)?;
            }
        }
        db.publish_view(&core);
        drop(core);
        if db.sink.enabled() {
            let r = db.recovery;
            db.sink.record(
                Event::span(EventKind::Recovery, open_start, db.device.clock().now())
                    .files(
                        u32::try_from(r.records_replayed).unwrap_or(u32::MAX),
                        r.files_quarantined,
                    )
                    .bytes(r.bytes_truncated, 0),
            );
        }
        Ok(db)
    }
}
