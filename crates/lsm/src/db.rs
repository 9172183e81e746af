//! The database engine.
//!
//! `Db` ties everything together: memtable + WAL in front, leveled SSTables
//! behind, a pluggable [`CompactionPolicy`] deciding what to compact, and
//! the engine executing tasks (all I/O charged to the simulated SSD).
//!
//! ## Execution model
//!
//! Flushes and compaction tasks all go through one executor
//! (`crate::compaction::exec`): *plan* a task against the current
//! version, *run* its I/O, *install* the result as one version edit. This
//! module only decides which thread calls those stages and how the core
//! lock is held around them.
//!
//! By default the core runs in virtual time with a modelled background
//! thread: `pump_background` calls the three stages on the caller's
//! thread while it holds the core, so tasks execute *logically*
//! immediately (reads see their results like an installed version), and
//! then books the elapsed device time on a background lane; the
//! foreground feels them only through LevelDB's classic write gates —
//! the 1 ms Level-0 slowdown, the Level-0 stop, and the wait for an
//! immutable-memtable slot at rotation — plus bandwidth contention on
//! reads. Those gates are exactly the paper's tail-latency model
//! (Eq. 3): a write's latency is the memtable insert plus however much
//! compaction work it had to wait for. Throughput is `ops / virtual
//! seconds`. With `Options::background_workers >= 1`, worker threads
//! (`run_one_job`) call the same stages instead, releasing the core
//! around the run stage (`crate::scheduler`, DESIGN.md §15).
//!
//! ## Concurrency model
//!
//! Every public operation takes `&self`. Mutable engine state lives in one
//! a rank-witnessed [`ldc_obs::lockcheck::Mutex`]`<DbCore>`; readers never touch it. Instead they
//! clone the published [`ReadView`] — `Arc`s to the current [`Version`],
//! the live memtable, and the immutable memtable, plus the last published
//! sequence number — and serve the whole operation from that pinned,
//! immutable snapshot. Writers funnel through a leader/follower
//! [`CommitQueue`]: the leader drains *all* queued batches, commits them
//! as one WAL append under the core lock, republishes the view, and hands
//! each follower its result. Virtual-clock determinism is preserved
//! because a single-threaded caller always leads a group of exactly one
//! batch, producing byte- and time-identical traces to the non-grouped
//! path. Multithreaded runs promise linearizable correctness, not timing
//! reproducibility. See DESIGN.md §10 for the full model and lock order.
//!
//! ## LDC-specific read semantics
//!
//! Frozen files (removed from their level by a *link*) are reachable only
//! through the slice links attached to lower-level files. Within a level,
//! lookups gather every candidate version — the file's own entry plus any
//! covering slices — and keep the one with the highest sequence number;
//! across levels, search stops at the first level that produced a result
//! (upper levels always hold newer data). For this to hold at Level 0,
//! policies must freeze the *oldest* Level-0 file first; see
//! `CompactionTask::Link`.
//!
//! ## Responsible ranges
//!
//! When linking a file down to level `L+1`, the target files partition the
//! whole key space by "responsible ranges": file `j` owns
//! `(prev.largest, largest_j]`, the first file's range extends to -inf and
//! the last file's to +inf (paper Example 3.2). Because every slice is
//! scoped to a responsible range and LDC-merge outputs stay within it, slice
//! ranges on distinct files never overlap — which keeps both point reads
//! and range scans single-candidate per level.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ldc_obs::lockcheck::{Mutex, MutexGuard, RwLock};
use ldc_obs::{
    Blame, Event, EventKind, LevelGauge, MetricsRegistry, NoopSink, OpType, SharedSink, Trace,
    TraceCtx, TraceReservoir,
};
use ldc_ssd::{IoClass, Nanos, SsdDevice, StorageBackend, TimeCategory};

use crate::backup::{self, CheckpointReport};
use crate::batch::{BatchOp, WriteBatch};
use crate::cache::{BlockCache, CacheCounters, TableCache};
use crate::commit::{CommitQueue, Role, Ticket};
use crate::compaction::exec::{plan, Planned, Planning, Stale, TaskClock, UnitOutput};
use crate::compaction::{CompactionPolicy, CompactionTask, PickContext};
use crate::error::{CorruptionInfo, Error, Result};
use crate::iterator::{InternalIterator, MergingIterator};
use crate::memtable::{LookupResult, MemTable};
use crate::options::{CorruptionPolicy, Options};
use crate::retry::RetryStorage;
use crate::scheduler::{CompactionScheduler, SubBatch, SubUnit};
use crate::table::Table;
use crate::types::{
    encode_internal_key, parse_trailer, user_key, SequenceNumber, ValueType, MAX_SEQUENCE,
    TYPE_FOR_SEEK,
};
use crate::version::{
    log_file_name, table_file_name, FileMeta, Shipper, Version, VersionEdit, VersionSet,
    STREAM_FILE,
};
use crate::wal::{LogReader, LogWriter};

/// Engine counters (beyond the device's I/O stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Point lookups served.
    pub gets: u64,
    /// Write operations applied (batch entries).
    pub writes: u64,
    /// Range scans served.
    pub scans: u64,
    /// Key+value payload bytes written by the user.
    pub user_bytes_written: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Classic (upper-level driven) merges executed.
    pub merges: u64,
    /// Metadata-only moves.
    pub trivial_moves: u64,
    /// LDC link operations executed.
    pub links: u64,
    /// LDC merge operations executed.
    pub ldc_merges: u64,
    /// Writes that hit the L0 slowdown band.
    pub slowdowns: u64,
    /// Writes that stalled waiting for the background lane to drain.
    pub stalls: u64,
    /// Total virtual nanoseconds spent in those stalls.
    pub stall_nanos: u64,
    /// Bloom-filter negatives that skipped a table probe.
    pub bloom_skips: u64,
    /// Leader commits that coalesced more than one writer's batch.
    pub write_groups: u64,
    /// Batches committed inside those multi-batch groups (sizes summed).
    pub grouped_batches: u64,
    /// Online checkpoints created (including backup base images).
    pub checkpoints: u64,
    /// Replicated version edits applied (follower side).
    pub edits_applied: u64,
}

/// What one [`Db::open`] recovery did: replay volume, torn tails cut, and
/// logs set aside as unreadable. Surfaced by [`Db::recovery_summary`], the
/// stats report, and (as a [`EventKind::Recovery`] event) the event sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// WAL files replayed into the memtable.
    pub wals_replayed: u32,
    /// Batch entries (puts/deletes) replayed from those WALs.
    pub records_replayed: u64,
    /// Torn-tail bytes discarded across WALs and the manifest.
    pub bytes_truncated: u64,
    /// Log files renamed aside because of mid-log corruption — the corrupt
    /// log and everything after it (point-in-time recovery).
    pub files_quarantined: u32,
}

/// Record of one SSTable set aside by the [`CorruptionPolicy::Quarantine`]
/// policy: the file was renamed to `<file>.quarantined` and dropped from
/// the live version, and keys inside `[smallest, largest]` may read as
/// missing or stale until `repair_db` runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// On-device file name (pre-rename, e.g. `000012.sst`).
    pub file: String,
    /// Level the file was serving at.
    pub level: usize,
    /// File size in bytes.
    pub size: u64,
    /// Smallest user key the file covered (keys at risk).
    pub smallest: Vec<u8>,
    /// Largest user key the file covered (keys at risk).
    pub largest: Vec<u8>,
}

/// A value returned by the pinned get path without copying it out of the
/// block cache. `Block` keeps the decoded SSTable block alive for as long
/// as the handle exists; `Inline` carries a memtable hit (the skiplist
/// arena cannot be pinned across the lock, so those bytes are copied
/// once). Copy to an owned `Vec` only at the API boundary that needs one.
#[derive(Debug, Clone)]
pub enum PinnedValue {
    /// A value copied out of the (im)mutable memtable.
    Inline(Vec<u8>),
    /// A zero-copy slice of a cached, immutable SSTable block.
    Block(Bytes),
}

impl PinnedValue {
    /// The value bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            PinnedValue::Inline(v) => v,
            PinnedValue::Block(b) => b,
        }
    }

    /// Copies (or moves, for `Inline`) the value into an owned vector.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            PinnedValue::Inline(v) => v,
            PinnedValue::Block(b) => b.to_vec(),
        }
    }

    /// Value length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl AsRef<[u8]> for PinnedValue {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// The state a read operation pins at entry: `Arc`s to the version and
/// memtables current at some commit boundary, plus the sequence number
/// published with them. Cloning is a few refcount bumps; everything
/// reachable from a view is immutable except the live memtable, whose
/// entries newer than `seq` are invisible to the read (MVCC by sequence).
#[derive(Clone)]
struct ReadView {
    version: Arc<Version>,
    mem: Arc<MemTable>,
    imm: Option<Arc<MemTable>>,
    seq: SequenceNumber,
}

/// All mutable engine state, guarded by one mutex. Writers (and the
/// background work they pump) hold it for the duration of a commit;
/// readers never take it — they go through the published [`ReadView`].
pub(crate) struct DbCore {
    pub(crate) versions: VersionSet,
    mem: Arc<MemTable>,
    /// Immutable memtable awaiting its background flush.
    imm: Option<Arc<MemTable>>,
    /// WAL file to delete once `imm` is flushed.
    imm_wal_to_delete: Option<String>,
    wal: LogWriter,
    /// Engine counters; `gets`/`scans`/`bloom_skips` live in atomics on
    /// `Db` (the read path does not lock the core) and are folded in by
    /// [`Db::stats`].
    pub(crate) stats: DbStats,
    /// Live snapshots: sequence -> handle count. Compaction never drops a
    /// version the oldest live snapshot could observe.
    snapshots: std::collections::BTreeMap<SequenceNumber, usize>,
    /// First background/storage failure. Once set, further writes are
    /// refused: a failed WAL or manifest append leaves the log's record
    /// framing in an unknown state, and writing past it would corrupt it.
    bg_error: Option<Error>,
    /// SSTables set aside by the quarantine corruption policy, in the
    /// order they were quarantined.
    quarantined: Vec<QuarantinedFile>,
    /// Table files dropped from the version but not yet physically
    /// deleted: a concurrent reader's pinned view may still reference
    /// them. Reaped at commit/drain boundaries once no read is in flight.
    pending_deletes: Vec<u64>,
}

impl DbCore {
    /// Latches `e` as the background error unless one is already set: the
    /// first failure is the one worth reporting.
    fn latch(&mut self, e: Error) {
        if self.bg_error.is_none() {
            self.bg_error = Some(e);
        }
    }
}

/// Decrements the in-flight read counter on drop, so pending physical
/// file deletes know when no pinned view can reference them.
pub(crate) struct ReadPin<'a>(&'a AtomicU64);

impl<'a> ReadPin<'a> {
    fn new(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        ReadPin(counter)
    }
}

impl Drop for ReadPin<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// An LSM-tree database over a simulated SSD. All operations take `&self`
/// and the handle is `Send + Sync`: share it across threads behind an
/// `Arc` (see the module docs for the concurrency model).
pub struct Db {
    pub(crate) options: Options,
    pub(crate) storage: Arc<dyn StorageBackend>,
    pub(crate) device: Arc<SsdDevice>,
    policy: Mutex<Box<dyn CompactionPolicy>>,
    /// Open-table handles (pinned index + Bloom filter each), LRU-bounded
    /// by `options.table_cache_entries`; pinned bytes are charged to the
    /// block cache so table metadata and data blocks share one budget.
    tables: TableCache,
    block_cache: Arc<BlockCache>,
    /// Where structured events go; [`NoopSink`] by default, in which case
    /// no event is ever built (`sink.enabled()` gates construction).
    pub(crate) sink: SharedSink,
    /// Per-level gauges and per-op latency histograms.
    metrics: Arc<MetricsRegistry>,
    /// Worst-K trace reservoir; `None` (the default) disables per-op
    /// tracing entirely — the op paths then never construct a
    /// [`TraceCtx`], so the disabled engine is byte- and time-identical
    /// to one built before tracing existed. Tracing only *reads* the
    /// virtual clock, so even enabled runs charge identical time.
    tracer: Option<Arc<TraceReservoir>>,
    core: Mutex<DbCore>,
    /// Background worker pool; dormant unless `options.background_workers`
    /// is at least 1 and the owner called [`Db::start_workers`]. While
    /// active, the write path signals it instead of pumping inline.
    pub(crate) scheduler: CompactionScheduler,
    /// The state readers pin; republished at every commit boundary.
    view: RwLock<ReadView>,
    /// Leader/follower write grouping.
    commit: CommitQueue,
    /// Virtual time until which the background lane (flush + compaction)
    /// is busy. Background work executes eagerly for correctness, but its
    /// device time is re-booked here; foreground requests pay for it only
    /// through rotation stalls and bandwidth contention — which is where
    /// the paper's tail latency comes from.
    bg_until: AtomicU64,
    /// High-water mark (virtual ns) through which foreground reads have
    /// already been charged for background contention. Concurrent readers
    /// claim disjoint `[cursor, window_end)` slices via CAS so the same
    /// overlap is never double-charged — without this, each reader's
    /// contention `advance` inflates the next reader's window and the
    /// clock runs away exponentially under multi-threaded load.
    contended_until: AtomicU64,
    /// Point lookups served (read path is lock-free w.r.t. the core).
    gets: AtomicU64,
    /// Range scans served.
    scans: AtomicU64,
    /// Bloom-filter negatives that skipped a table probe.
    bloom_skips: AtomicU64,
    /// Reads currently in flight (holding a pinned view).
    read_pins: AtomicU64,
    /// Checkpoint creations currently in flight. While nonzero, physical
    /// deletion of dropped tables is deferred: the checkpoint's phase 2
    /// links files from a pinned version without holding the core lock.
    ckpt_pins: AtomicU64,
    /// What the opening recovery replayed/discarded.
    recovery: RecoverySummary,
}

/// `Db` is shared across reader/writer threads behind an `Arc`.
#[allow(dead_code)]
fn assert_send_sync<T: Send + Sync>() {}
const _: fn() = assert_send_sync::<Db>;

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
        let storage: Arc<dyn StorageBackend> = if options.read_retry_attempts > 1 {
            RetryStorage::new(
                storage,
                options.read_retry_attempts,
                options.read_retry_backoff_ns,
                options.seed,
                Arc::clone(&sink),
                Arc::clone(&metrics),
            )
        } else {
            storage
        };
        let device = storage.device();
        let open_start = device.clock().now();
        let block_cache = Arc::new(BlockCache::with_shards(
            options.block_cache_bytes,
            options.block_cache_shards,
        ));
        let tables = TableCache::new(options.table_cache_entries, Arc::clone(&block_cache));
        let existed = VersionSet::exists(storage.as_ref());
        let mut versions = if existed {
            VersionSet::recover(Arc::clone(&storage), options.max_levels)?
        } else {
            VersionSet::create(Arc::clone(&storage), options.max_levels)?
        };
        let mut recovery = RecoverySummary {
            bytes_truncated: versions.recovered_manifest_tail_bytes,
            ..Default::default()
        };

        // Replay every surviving WAL, oldest first, into a fresh memtable.
        // Logs are deleted only once their contents are flushed, so the set
        // of `.log` files on disk is exactly the unflushed data — even if
        // the crash happened between a rotation and its flush.
        let mem = MemTable::new(options.seed);
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
            let mut max_seq = versions.last_sequence;
            let mut corrupt_from: Option<usize> = None;
            for (idx, (_, name)) in old_logs.iter().enumerate() {
                let mut reader = LogReader::open(storage.as_ref(), name)?;
                let replay = reader.for_each(|record| {
                    let batch = WriteBatch::decode(record)?;
                    let base = batch.sequence();
                    for item in batch.iter() {
                        let (offset, op) = item?;
                        let seq = base + u64::from(offset);
                        match op {
                            BatchOp::Put { key, value } => {
                                mem.add(seq, ValueType::Value, key, value)
                            }
                            BatchOp::Delete { key } => mem.add(seq, ValueType::Deletion, key, b""),
                        }
                        max_seq = max_seq.max(seq);
                        replayed += 1;
                    }
                    Ok(())
                });
                match replay {
                    Ok(()) => {
                        recovery.wals_replayed += 1;
                        let torn = reader.truncated_tail_bytes();
                        if torn > 0 {
                            // The torn tail is dead bytes: cut it so the log
                            // reads cleanly if this open crashes before the
                            // replayed data is flushed. Backends without
                            // truncate just keep the tail; replay re-skips it.
                            recovery.bytes_truncated += torn;
                            // ldc-lint: allow(must_use_result) — best-effort cleanup; replay re-skips the tail if it survives
                            let _ = storage.truncate(name, reader.clean_prefix());
                        }
                    }
                    // Mid-log corruption: recover to the last consistent
                    // point in time. Records before the bad region were
                    // already replayed; the rest of this log and every
                    // later log are set aside, not served as garbage.
                    Err(Error::Corruption(_)) => {
                        corrupt_from = Some(idx);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if let Some(from) = corrupt_from {
                for (_, name) in &old_logs[from..] {
                    storage.rename(name, &format!("{name}.quarantined"))?;
                    recovery.files_quarantined += 1;
                }
                old_logs.truncate(from);
            }
            versions.last_sequence = max_seq;
        }
        recovery.records_replayed = replayed;

        // Fresh WAL for new writes. A crashed incarnation may have left a
        // log at a number this incarnation re-allocates (the counter update
        // never became durable); appending to it would shift the writer's
        // block accounting, so keep allocating until the name is free.
        let mut new_log_number = versions.new_file_number();
        while storage.exists(&log_file_name(new_log_number)) {
            new_log_number = versions.new_file_number();
        }
        let wal = LogWriter::new(
            Arc::clone(&storage),
            log_file_name(new_log_number),
            IoClass::WalWrite,
        );

        device.set_event_sink(Arc::clone(&sink));
        let mem = Arc::new(mem);
        let view = ReadView {
            version: Arc::clone(&versions.current),
            mem: Arc::clone(&mem),
            imm: None,
            seq: versions.last_sequence,
        };
        let scheduler = CompactionScheduler::new(options.background_workers);
        let db = Db {
            options,
            storage,
            device,
            policy: Mutex::new("lsm/db::policy", policy),
            tables,
            block_cache,
            sink,
            metrics,
            tracer: None,
            core: Mutex::new(
                "lsm/db::core",
                DbCore {
                    versions,
                    mem,
                    imm: None,
                    imm_wal_to_delete: None,
                    wal,
                    stats: DbStats::default(),
                    snapshots: std::collections::BTreeMap::new(),
                    bg_error: None,
                    quarantined: Vec::new(),
                    pending_deletes: Vec::new(),
                },
            ),
            scheduler,
            view: RwLock::new("lsm/db::view", view),
            commit: CommitQueue::new(),
            bg_until: AtomicU64::new(0),
            contended_until: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            bloom_skips: AtomicU64::new(0),
            read_pins: AtomicU64::new(0),
            ckpt_pins: AtomicU64::new(0),
            recovery,
        };

        // Persist the replayed data so the old WALs can be dropped, then
        // record the new WAL number.
        {
            let mut core = db.core.lock();
            if replayed > 0 {
                let full =
                    std::mem::replace(&mut core.mem, Arc::new(MemTable::new(db.options.seed)));
                db.flush_memtable(&mut core, &full, Some(new_log_number))?;
            } else {
                core.versions.log_and_apply(VersionEdit {
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
        }
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

    /// Publishes the core's current state as the view readers pin. Must be
    /// called (while holding the core lock) at every boundary where a
    /// reader is allowed to observe the new state: end of a leader commit,
    /// end of a background drain, after a quarantine, and at open.
    fn publish_view(&self, core: &DbCore) {
        *self.view.write() = ReadView {
            version: Arc::clone(&core.versions.current),
            mem: Arc::clone(&core.mem),
            imm: core.imm.as_ref().map(Arc::clone),
            seq: core.versions.last_sequence,
        };
        // Order the publish before any subsequent `read_pins` check (see
        // `reap_pending_deletes`): a reader that pins after a zero-pin
        // observation must see this (or a newer) view.
        std::sync::atomic::fence(Ordering::SeqCst);
    }
}

impl Db {
    /// What the opening recovery replayed, truncated, and quarantined.
    pub fn recovery_summary(&self) -> RecoverySummary {
        self.recovery
    }

    /// The engine options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// The device everything is charged to.
    pub fn device(&self) -> &Arc<SsdDevice> {
        &self.device
    }

    /// The compaction policy's name.
    pub fn policy_name(&self) -> String {
        self.policy.lock().name().to_string()
    }

    /// Engine counters.
    pub fn stats(&self) -> DbStats {
        self.fold_stats(self.core.lock().stats)
    }

    /// Fills the atomically-tracked read counters into a core stats copy.
    fn fold_stats(&self, mut stats: DbStats) -> DbStats {
        stats.gets = self.gets.load(Ordering::Relaxed);
        stats.scans = self.scans.load(Ordering::Relaxed);
        stats.bloom_skips = self.bloom_skips.load(Ordering::Relaxed);
        stats
    }

    /// Block-cache counters; misses equal data-block reads from the
    /// device (Fig 13).
    pub fn block_cache_counters(&self) -> CacheCounters {
        self.block_cache.counters()
    }

    /// The shared block cache (tests, experiments).
    pub fn block_cache(&self) -> &Arc<BlockCache> {
        &self.block_cache
    }

    /// Routes structured engine events (flush, merge, link, stall, GC, ...)
    /// to `sink`. The device's GC events follow the same sink. With the
    /// default [`NoopSink`] no event is ever constructed.
    pub fn set_event_sink(&mut self, sink: SharedSink) {
        self.device.set_event_sink(Arc::clone(&sink));
        self.sink = sink;
    }

    /// The engine's metrics registry: per-level gauges plus per-op
    /// latency histograms. Gauges refresh after every flush/compaction
    /// and on [`Db::stats_report`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A human-readable engine report in the spirit of LevelDB's
    /// `GetProperty("leveldb.stats")`: per-level table, compaction and
    /// write-gate counters, block cache, bloom, latency percentiles, and
    /// the simulated SSD's GC/wear state.
    pub fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let (s, version, quarantined, ship, cursor) = {
            let core = self.core.lock();
            (
                self.fold_stats(core.stats),
                Arc::clone(&core.versions.current),
                core.quarantined.clone(),
                core.versions.shipper_stats(),
                core.versions.replication_cursor,
            )
        };
        self.refresh_level_gauges(&version);
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let ms = |nanos: u64| nanos as f64 / 1e6;
        let mut out = String::new();

        let _ = writeln!(out, "                          Level summary");
        let _ = writeln!(out, "Level  Files  Size(MB)  Score");
        let _ = writeln!(out, "------------------------------");
        for (level, g) in self.metrics.level_gauges().iter().enumerate() {
            if g.files == 0 && level > 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{level:>5}  {files:>5}  {size:>8.1}  {score:>5.2}",
                files = g.files,
                size = mb(g.bytes),
                score = g.score,
            );
        }
        let frozen_files = version.frozen.len();
        let _ = writeln!(
            out,
            "Frozen: {frozen_files} files, {:.1} MB",
            mb(version.frozen_bytes())
        );

        let _ = writeln!(
            out,
            "Compactions: {} flushes, {} merges, {} trivial moves, {} links, {} ldc merges",
            s.flushes, s.merges, s.trivial_moves, s.links, s.ldc_merges
        );
        let _ = writeln!(
            out,
            "Write gates: {} stalls ({:.1} ms), {} slowdowns",
            s.stalls,
            ms(s.stall_nanos),
            s.slowdowns
        );
        if s.write_groups > 0 {
            let _ = writeln!(
                out,
                "Write groups: {} groups coalescing {} batches",
                s.write_groups, s.grouped_batches
            );
        }
        // Printed only when the machinery was used, so stores that never
        // checkpoint/replicate emit byte-identical reports to older builds.
        if s.checkpoints + s.edits_applied + cursor > 0 || ship.is_some() {
            if let Some((edits, files, bytes)) = ship {
                self.metrics.set_edits_shipped(edits);
                let _ = writeln!(
                    out,
                    "Replication: {} checkpoints, {} edits shipped \
                     ({} files, {:.1} MB), {} edits applied (cursor {})",
                    s.checkpoints,
                    edits,
                    files,
                    mb(bytes),
                    s.edits_applied,
                    cursor
                );
            } else {
                let _ = writeln!(
                    out,
                    "Replication: {} checkpoints, {} edits applied (cursor {})",
                    s.checkpoints, s.edits_applied, cursor
                );
            }
        }

        let cache = self.block_cache.counters();
        let _ = writeln!(
            out,
            "Block cache: {} hits, {} misses, {} evictions ({:.1}% hit rate)",
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.hit_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "Block cache: {} shards, {:.1} MB cached + {:.1} MB pinned metadata",
            self.block_cache.shard_count(),
            mb(self.block_cache.used_bytes() as u64),
            mb(self.block_cache.pinned_bytes() as u64),
        );
        let _ = writeln!(
            out,
            "Table cache: {} open tables, {} hits, {} misses",
            self.tables.len(),
            self.tables.hits(),
            self.tables.misses(),
        );
        let _ = writeln!(out, "Bloom: {} probes skipped", s.bloom_skips);

        let r = self.recovery;
        let _ = writeln!(
            out,
            "Recovery: {} records replayed from {} logs, {} bytes truncated, \
             {} files quarantined",
            r.records_replayed, r.wals_replayed, r.bytes_truncated, r.files_quarantined
        );

        let d = self.metrics.degraded_counters();
        if d.transient_retries + d.scrub_blocks_verified + d.files_quarantined > 0
            || !quarantined.is_empty()
        {
            let _ = writeln!(
                out,
                "Degraded: {} transient retries, {} blocks scrubbed \
                 ({} corrupt), {} files quarantined",
                d.transient_retries,
                d.scrub_blocks_verified,
                d.scrub_corruptions,
                d.files_quarantined
            );
            for q in &quarantined {
                let _ = writeln!(
                    out,
                    "  quarantined {} (level {}, {:.1} MB, keys {:?}..{:?})",
                    q.file,
                    q.level,
                    mb(q.size),
                    String::from_utf8_lossy(&q.smallest),
                    String::from_utf8_lossy(&q.largest)
                );
            }
        }

        let _ = writeln!(
            out,
            "Op       Count   Mean(us)    P50(us)    P99(us)  P99.9(us) P99.99(us)"
        );
        for op in OpType::ALL {
            let h = self.metrics.latency(op);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<6} {:>7}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}",
                op.label(),
                h.count(),
                h.mean() / 1e3,
                h.percentile(50.0) as f64 / 1e3,
                h.percentile(99.0) as f64 / 1e3,
                h.percentile(99.9) as f64 / 1e3,
                h.percentile(99.99) as f64 / 1e3,
            );
        }
        self.write_blame_breakdown(&mut out);

        let dev = self.device.snapshot();
        let _ = writeln!(
            out,
            "SSD: {:.1} MB host writes, {:.1} MB GC relocation, {} erases, \
             NAND WA {:.2}, wear {:.2}%",
            mb(dev.ftl.host_pages_written * self.device.config().page_bytes),
            mb(dev.ftl.gc_pages_relocated * self.device.config().page_bytes),
            dev.ftl.erases,
            dev.ftl.write_amplification(),
            dev.wear_fraction * 100.0
        );
        let _ = writeln!(
            out,
            "Virtual time: {:.3} s ({} user writes, {} gets, {} scans)",
            dev.now as f64 / 1e9,
            s.writes,
            s.gets,
            s.scans
        );
        out
    }

    /// Appends the per-op blame breakdown (nonzero buckets only) to a
    /// stats report. Silent when tracing never attributed any time.
    fn write_blame_breakdown(&self, out: &mut String) {
        use std::fmt::Write as _;
        let mut wrote_header = false;
        for op in OpType::ALL {
            let totals = self.metrics.blame_totals(op);
            let sum: u64 = totals.iter().sum();
            if sum == 0 {
                continue;
            }
            if !wrote_header {
                let _ = writeln!(out, "Blame breakdown (ms, share of traced op time):");
                wrote_header = true;
            }
            let _ = write!(out, "  {:<6}", op.label());
            for (nanos, blame) in totals.iter().zip(Blame::ALL) {
                if *nanos == 0 {
                    continue;
                }
                let _ = write!(
                    out,
                    " {} {:.3} ({:.1}%)",
                    blame.label(),
                    *nanos as f64 / 1e6,
                    *nanos as f64 * 100.0 / sum as f64,
                );
            }
            let _ = writeln!(out);
        }
    }

    /// Tail-latency report: per-op percentiles through P99.99, the blame
    /// breakdown, and the worst traces captured by the reservoir. Designed
    /// for humans; `ldc-bench tail` emits the machine-readable version.
    pub fn tail_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Op       Count     P50(us)    P99(us)  P99.9(us) P99.99(us)    Max(us)"
        );
        for op in OpType::ALL {
            let h = self.metrics.latency(op);
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<6} {:>7}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}  {:>9.1}",
                op.label(),
                h.count(),
                h.percentile(50.0) as f64 / 1e3,
                h.percentile(99.0) as f64 / 1e3,
                h.percentile(99.9) as f64 / 1e3,
                h.percentile(99.99) as f64 / 1e3,
                h.max() as f64 / 1e3,
            );
        }
        self.write_blame_breakdown(&mut out);
        let worst = self.worst_traces();
        if !worst.is_empty() {
            let _ = writeln!(out, "Worst traces (total us, blame shares):");
            for trace in &worst {
                let _ = write!(
                    out,
                    "  {:<6} #{:<8} {:>9.1}",
                    trace.op.label(),
                    trace.op_index,
                    trace.total as f64 / 1e3
                );
                let breakdown = trace.blame_breakdown();
                for (nanos, blame) in breakdown.iter().zip(Blame::ALL) {
                    if *nanos == 0 {
                        continue;
                    }
                    let _ = write!(out, " {}={:.1}us", blame.label(), *nanos as f64 / 1e3);
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// The current version (tests, experiments). The returned `Arc` is a
    /// stable snapshot: a concurrent compaction installs a *new* version
    /// rather than mutating this one.
    pub fn version(&self) -> Arc<Version> {
        Arc::clone(&self.core.lock().versions.current)
    }

    /// Live bytes in store files (Fig 15's space metric).
    pub fn space_bytes(&self) -> u64 {
        self.storage.total_bytes()
    }

    /// Integrity check over every live and frozen SSTable: verifies all
    /// block checksums and key ordering. Returns the total entries scanned.
    pub fn verify_integrity(&self) -> Result<u64> {
        let version = self.version();
        let numbers: Vec<u64> = version
            .levels
            .iter()
            .flatten()
            .map(|f| f.number)
            .chain(version.frozen.keys().copied())
            .collect();
        let mut total = 0u64;
        for number in numbers {
            let table = self.table(number)?;
            total += table.verify(IoClass::Other)?;
        }
        Ok(total)
    }

    /// SSTables set aside by the [`CorruptionPolicy::Quarantine`] policy
    /// since this handle was opened, oldest first.
    pub fn quarantined(&self) -> Vec<QuarantinedFile> {
        self.core.lock().quarantined.clone()
    }

    /// Enables per-operation tracing with a worst-`k` reservoir per op
    /// type, tie-broken deterministically from the options seed. Call
    /// before sharing the handle (it takes `&mut self`); with tracing off
    /// the op paths never allocate a context, and even with it on the
    /// tracer only *reads* the virtual clock, so traced and untraced runs
    /// are time-identical.
    pub fn enable_tracing(&mut self, worst_k: usize) {
        self.tracer = Some(Arc::new(TraceReservoir::new(worst_k, self.options.seed)));
    }

    /// Whether [`Db::enable_tracing`] was called.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The worst-latency traces captured so far, grouped by op type in
    /// [`OpType::ALL`] order, worst first. Empty when tracing is off.
    pub fn worst_traces(&self) -> Vec<Trace> {
        self.tracer
            .as_ref()
            .map(|t| t.all_worst())
            .unwrap_or_default()
    }

    /// The worst-K reservoir rendered as folded stacks (flamegraph input
    /// format: `get;table_probe 1234` per line). Empty when tracing is off.
    pub fn trace_folded_report(&self) -> String {
        self.tracer
            .as_ref()
            .map(|t| t.folded_report())
            .unwrap_or_default()
    }

    /// Clears the worst-K reservoir and its per-op arrival counters, e.g.
    /// after a preload phase, so op indices restart at zero (keeping
    /// same-seed reruns reproducible). No-op when tracing is off.
    pub fn reset_traces(&self) {
        if let Some(t) = self.tracer.as_ref() {
            t.reset();
        }
    }

    /// Starts a trace for `op` iff tracing is enabled.
    fn trace_start(&self, op: OpType, now: Nanos) -> Option<TraceCtx> {
        self.tracer.as_ref().map(|_| TraceCtx::new(op, now))
    }

    /// Seals `ctx`, folds its blame breakdown into the metrics registry,
    /// and offers it to the worst-K reservoir.
    fn trace_finish(&self, ctx: Option<TraceCtx>, end: Nanos) {
        let Some(ctx) = ctx else { return };
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        let op = ctx.op();
        let trace = ctx.finish(end, tracer.next_op_index(op));
        self.metrics.record_blame(op, &trace.blame_breakdown());
        tracer.offer(trace);
    }

    /// The event sink, for sibling modules (scrub) that emit events.
    pub(crate) fn event_sink(&self) -> &SharedSink {
        &self.sink
    }

    /// Reacts to a permanent corruption report according to the corruption
    /// policy, taking the core lock itself; safe to call from the (lock
    /// free) read path. On success the shrunken version is published so
    /// the caller can re-pin a view and retry. See [`Db::try_quarantine`].
    pub(crate) fn quarantine_corruption(&self, info: &CorruptionInfo) -> Result<bool> {
        let mut core = self.core.lock();
        let quarantined = self.try_quarantine(&mut core, info)?;
        if quarantined {
            self.publish_view(&core);
        }
        Ok(quarantined)
    }

    /// Reacts to a permanent corruption report according to the corruption
    /// policy. Under [`CorruptionPolicy::Quarantine`], if the corrupt file
    /// is a *live* SSTable it is dropped from the version, renamed to
    /// `<name>.quarantined`, and recorded; returns `Ok(true)` and the
    /// caller may retry its operation against the shrunken version.
    ///
    /// Returns `Ok(false)` — caller must surface the original error — when
    /// the policy is fail-stop, the report does not name a table file, or
    /// the file is not live (frozen files stay in place: they are repair's
    /// salvage source, and dropping them would break slice links).
    fn try_quarantine(&self, core: &mut DbCore, info: &CorruptionInfo) -> Result<bool> {
        if self.options.corruption_policy != CorruptionPolicy::Quarantine {
            return Ok(false);
        }
        let number = match info
            .file
            .strip_suffix(".sst")
            .and_then(|stem| stem.parse::<u64>().ok())
        {
            Some(n) => n,
            None => return Ok(false),
        };
        let (level, meta) = match core.versions.current.find_file(number) {
            Some((level, meta)) => (level, meta.clone()),
            None => return Ok(false),
        };
        // Dropping the file also drops its slice links; the frozen sources
        // they referenced stay in the frozen set at refcount 0 (retained on
        // purpose — repair prefers an LDC frozen predecessor over losing
        // the linked data outright).
        core.versions.log_and_apply(VersionEdit {
            deleted_files: vec![(level as u32, number)],
            ..Default::default()
        })?;
        self.tables.remove(number);
        self.block_cache.evict_file(number);
        let name = table_file_name(number);
        self.storage.rename(&name, &format!("{name}.quarantined"))?;
        self.metrics.record_quarantine();
        if self.sink.enabled() {
            let now = self.device.clock().now();
            self.sink.record(
                Event::span(EventKind::Quarantine, now, now)
                    .levels(level as u32, level as u32)
                    .files(1, 0)
                    .bytes(meta.size, 0),
            );
        }
        core.quarantined.push(QuarantinedFile {
            file: name,
            level,
            size: meta.size,
            smallest: meta.smallest_ukey().to_vec(),
            largest: meta.largest_ukey().to_vec(),
        });
        self.refresh_level_gauges(&core.versions.current);
        Ok(true)
    }

    /// Inserts or overwrites `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write_op(OpType::Put, batch)
    }

    /// Deletes `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write_op(OpType::Delete, batch)
    }

    /// The envelope of a single-key foreground write: trace, commit,
    /// record the op's virtual latency.
    fn write_op(&self, op: OpType, batch: WriteBatch) -> Result<()> {
        let t0 = self.device.clock().now();
        let mut ctx = self.trace_start(op, t0);
        let result = self.write_traced(batch, ctx.as_mut());
        let end = self.device.clock().now();
        self.metrics.record_latency(op, end.saturating_sub(t0));
        self.trace_finish(ctx, end);
        result
    }

    /// Applies a batch atomically.
    ///
    /// Concurrent writers coalesce: each enqueues its batch, and the first
    /// to find no leader active commits *every* queued batch as one WAL
    /// append (the deterministic drain-all-queued rule), then distributes
    /// results. A single-threaded caller always leads a group of exactly
    /// one batch, so the WAL bytes and virtual-clock charges are identical
    /// to an ungrouped write.
    ///
    /// This is where the paper's tail latency comes from: a write normally
    /// costs only the WAL append and memtable insert, but when background
    /// flush/compaction lags it absorbs LevelDB's classic brakes — the 1 ms
    /// Level-0 slowdown, the Level-0 stop, and the wait for an immutable
    /// memtable slot at rotation.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_traced(batch, None)
    }

    /// [`Db::write`] with an optional trace context. A follower's entire
    /// wait is one [`Blame::GroupCommitWait`] span (the leader advanced the
    /// clock on its behalf); a leader's commit is broken down inside
    /// [`Db::commit_batches`].
    fn write_traced(&self, batch: WriteBatch, mut trace: Option<&mut TraceCtx>) -> Result<()> {
        let wait_t0 = if trace.is_some() {
            self.device.clock().now()
        } else {
            0
        };
        let ticket = self.commit.enqueue(batch);
        match self.commit.wait(ticket) {
            Role::Done(result) => {
                if let Some(t) = trace.as_deref_mut() {
                    let now = self.device.clock().now();
                    if now > wait_t0 {
                        t.span(Blame::GroupCommitWait, "follower_wait", wait_t0, now);
                    }
                }
                result
            }
            Role::Leader(group) => {
                let results = {
                    let mut core = self.core.lock();
                    if self.scheduler.active() {
                        // Threaded mode: the write gates are condvar waits
                        // on job completion (they must release the core so
                        // workers can install), so they run here where the
                        // guard is owned, before the commit proper.
                        core = self.threaded_write_gates(core, trace.as_deref_mut());
                    }
                    let results = self.commit_group(&mut core, group, trace);
                    self.publish_view(&core);
                    self.reap_pending_deletes(&mut core);
                    results
                };
                self.commit.finish(ticket, results)
            }
        }
    }

    /// The first background/storage error, if the engine has latched one.
    /// While set, writes are refused with this error; reads still work.
    pub fn background_error(&self) -> Option<Error> {
        self.core.lock().bg_error.clone()
    }

    /// Commits one leader-drained group of batches under the core lock and
    /// returns the per-ticket results. Empty batches succeed without side
    /// effects (not even a policy op observation), exactly like the
    /// ungrouped path; the non-empty ones are merged, in ticket order,
    /// into one atomically-committed batch and share one outcome.
    fn commit_group(
        &self,
        core: &mut DbCore,
        group: Vec<(Ticket, WriteBatch)>,
        trace: Option<&mut TraceCtx>,
    ) -> Vec<(Ticket, Result<()>)> {
        if let Some(e) = &core.bg_error {
            let e = e.clone();
            return group
                .into_iter()
                .map(|(t, _)| (t, Err(e.clone())))
                .collect();
        }
        let mut results: Vec<(Ticket, Result<()>)> = Vec::with_capacity(group.len());
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut batches: Vec<WriteBatch> = Vec::new();
        for (ticket, batch) in group {
            if batch.is_empty() {
                results.push((ticket, Ok(())));
            } else {
                tickets.push(ticket);
                batches.push(batch);
            }
        }
        if batches.is_empty() {
            return results;
        }
        let outcome = self.commit_batches(core, batches, trace);
        if let Err(e) = &outcome {
            // Fail-stop: a failed WAL/manifest append leaves that log's
            // record framing unknown, and appending more records after it
            // would make the file unrecoverable. Reads keep working.
            core.bg_error = Some(e.clone());
        }
        for ticket in tickets {
            results.push((ticket, outcome.clone()));
        }
        results
    }

    /// The grouped write path: gates, one WAL append, memtable inserts,
    /// and rotation, all in virtual time. `batches` is non-empty and every
    /// batch in it is non-empty.
    fn commit_batches(
        &self,
        core: &mut DbCore,
        mut batches: Vec<WriteBatch>,
        mut trace: Option<&mut TraceCtx>,
    ) -> Result<()> {
        {
            let mut policy = self.policy.lock();
            for _ in 0..batches.len() {
                policy.observe_op(true);
            }
        }
        // Threaded mode: the stall/slowdown gates already ran in
        // `threaded_write_gates` (they need the core *guard* to wait on);
        // just make sure the pool knows there is work.
        let inline = !self.scheduler.active();
        if !inline {
            self.scheduler_signal();
        }
        if inline {
            self.pump_background(core)?;
        }

        // LevelDB's write gates, in escalating order of pain.
        if inline && core.versions.current.level_files(0) >= self.options.l0_stop_threshold {
            // Hard stop: wait for background tasks until L0 drains below
            // the limit.
            let t0 = self.device.clock().now();
            loop {
                if core.versions.current.level_files(0) < self.options.l0_stop_threshold {
                    break;
                }
                let now = self.device.clock().now();
                let bg = self.bg_until.load(Ordering::SeqCst);
                if bg > now {
                    self.device.clock().advance(bg - now);
                }
                let before = (
                    core.versions.current.level_files(0),
                    self.bg_until.load(Ordering::SeqCst),
                );
                self.pump_background(core)?;
                if before
                    == (
                        core.versions.current.level_files(0),
                        self.bg_until.load(Ordering::SeqCst),
                    )
                {
                    break; // no progress possible (policy is idle)
                }
            }
            let waited = self.device.clock().now().saturating_sub(t0);
            if waited > 0 {
                core.stats.stalls += 1;
                core.stats.stall_nanos += waited;
                if let Some(t) = trace.as_deref_mut() {
                    t.span(Blame::Stall, "l0_stop", t0, t0 + waited);
                }
                if self.sink.enabled() {
                    self.sink
                        .record(Event::span(EventKind::Stall, t0, t0 + waited).levels(0, 0));
                }
            }
        } else if inline
            && core.versions.current.level_files(0) >= self.options.l0_slowdown_threshold
        {
            let t0 = self.device.clock().now();
            self.device.clock().advance(self.options.slowdown_delay_ns);
            core.stats.slowdowns += 1;
            if let Some(t) = trace.as_deref_mut() {
                t.span(
                    Blame::Slowdown,
                    "l0_slowdown",
                    t0,
                    t0 + self.options.slowdown_delay_ns,
                );
            }
            if self.sink.enabled() {
                self.sink.record(
                    Event::span(EventKind::Slowdown, t0, t0 + self.options.slowdown_delay_ns)
                        .levels(0, 0),
                );
            }
        }

        // Coalesce the group into the leader's batch. A group of one is
        // committed as-is — byte-identical WAL framing to the ungrouped
        // engine, which is what keeps single-threaded runs deterministic.
        let group_size = batches.len();
        let mut batch = batches.remove(0);
        for follower in batches {
            for item in follower.iter() {
                let (_, op) = item?;
                match op {
                    BatchOp::Put { key, value } => batch.put(key, value),
                    BatchOp::Delete { key } => batch.delete(key),
                }
            }
        }

        // Foreground write: WAL + memtable. With `wal_sync` off (LevelDB's
        // default), the WAL append lands in the page cache and the device
        // write happens asynchronously — so its device time is booked on
        // the background lane, sharing bandwidth with flush/compaction,
        // while the foreground pays only the syscall-ish cost.
        let fg_start = self.device.clock().now();
        let seq = core.versions.last_sequence + 1;
        batch.set_sequence(seq);
        let count = u64::from(batch.count());
        if self.options.wal_sync {
            let t0 = self.device.clock().now();
            let gc0 = if trace.is_some() {
                self.device.gc_busy_nanos()
            } else {
                0
            };
            core.wal.add_record(batch.encoded())?;
            core.wal.sync()?;
            if let Some(t) = trace.as_deref_mut() {
                let now = self.device.clock().now();
                if now > t0 {
                    t.span(Blame::WalSync, "wal_sync", t0, now);
                    // Any GC relocation the device squeezed into this sync
                    // is its own blame: the paper's write-amplification tax.
                    t.carve_from_last(
                        Blame::SsdGc,
                        "ssd_gc",
                        self.device.gc_busy_nanos().saturating_sub(gc0),
                    );
                }
            }
            if self.sink.enabled() {
                self.sink.record(
                    Event::span(EventKind::WalSync, t0, self.device.clock().now())
                        .bytes(batch.byte_size() as u64, 0),
                );
            }
        } else {
            let t0 = self.device.clock().now();
            core.wal.add_record(batch.encoded())?;
            self.device.clock().rewind_to(t0);
            // The async flush consumes device *bandwidth* (no per-append
            // setup latency — the kernel batches page writes), serialized
            // with flush/compaction on the background lane.
            let lane_cost = (batch.byte_size() as u64).saturating_mul(1_000_000_000)
                / self.device.config().write_bandwidth;
            let bg = self.bg_until.load(Ordering::SeqCst);
            self.bg_until
                .store(bg.max(t0) + lane_cost, Ordering::SeqCst);
            // The buffered append still costs a syscall on the foreground.
            self.device.clock().advance(3_000);
            if let Some(t) = trace.as_deref_mut() {
                t.span(
                    Blame::WalAppend,
                    "wal_append",
                    t0,
                    self.device.clock().now(),
                );
            }
        }
        let mem_t0 = if trace.is_some() {
            self.device.clock().now()
        } else {
            0
        };
        for item in batch.iter() {
            let (offset, op) = item?;
            let op_seq = seq + u64::from(offset);
            match op {
                BatchOp::Put { key, value } => core.mem.add(op_seq, ValueType::Value, key, value),
                BatchOp::Delete { key } => core.mem.add(op_seq, ValueType::Deletion, key, b""),
            }
        }
        self.device
            .clock()
            .advance(self.options.memtable_write_ns * count);
        if let Some(t) = trace.as_deref_mut() {
            t.span(
                Blame::Memtable,
                "memtable_insert",
                mem_t0,
                self.device.clock().now(),
            );
        }
        core.versions.last_sequence = seq + count - 1;
        core.stats.writes += count;
        core.stats.user_bytes_written += batch.user_bytes();
        let fg_end = self.device.clock().now();
        self.device.ledger().record(
            TimeCategory::ForegroundWrite,
            fg_end.saturating_sub(fg_start),
        );
        if group_size > 1 {
            core.stats.write_groups += 1;
            core.stats.grouped_batches += group_size as u64;
            if self.sink.enabled() {
                self.sink.record(
                    Event::span(EventKind::GroupCommit, fg_start, fg_end)
                        .files(group_size as u32, 0)
                        .bytes(batch.byte_size() as u64, 0),
                );
            }
        }

        // Rotate when the memtable is full. If the previous immutable
        // memtable is still waiting for (or in) its flush, the writer must
        // wait for the slot — the paper's Eq. 3 tail event.
        if core.mem.approximate_bytes() >= self.options.memtable_bytes {
            if !inline {
                // Threaded mode: rotate only if the `imm` slot is free and
                // hand the flush to the pool. When the slot is still
                // occupied the memtable simply overshoots its budget for
                // this commit — the next write's entry gate waits for the
                // in-flight flush (releasing the core) before proceeding.
                if core.imm.is_none() {
                    self.rotate_memtable(core);
                }
                self.scheduler_signal();
                return Ok(());
            }
            if core.imm.is_some() {
                let t0 = self.device.clock().now();
                // Let the lane finish its current task, then force the
                // flush through.
                let bg = self.bg_until.load(Ordering::SeqCst);
                if bg > t0 {
                    self.device.clock().advance(bg - t0);
                }
                self.pump_background(core)?; // starts the flush if still pending
                if core.imm.is_some() {
                    // The lane picked something else first (cannot happen
                    // with the flush-first pump, but stay safe): wait again.
                    let now = self.device.clock().now();
                    let bg = self.bg_until.load(Ordering::SeqCst);
                    if bg > now {
                        self.device.clock().advance(bg - now);
                    }
                    self.pump_background(core)?;
                }
                let waited = self.device.clock().now().saturating_sub(t0);
                if waited > 0 {
                    core.stats.stalls += 1;
                    core.stats.stall_nanos += waited;
                    if let Some(t) = trace {
                        t.span(Blame::Stall, "rotation_wait", t0, t0 + waited);
                    }
                    if self.sink.enabled() {
                        self.sink
                            .record(Event::span(EventKind::Stall, t0, t0 + waited));
                    }
                }
            }
            self.rotate_memtable(core);
            self.pump_background(core)?; // start the flush if the lane is idle
        }
        Ok(())
    }

    /// Swaps in a fresh WAL and memtable, parking the full memtable (and
    /// the name of the WAL that covers it) in the `imm` slot, which must
    /// be free. Returns the new WAL's number.
    fn rotate_memtable(&self, core: &mut DbCore) -> u64 {
        // A crashed incarnation may have left a log at a number this one
        // re-allocates; appending to it would shift the writer's block
        // accounting, so keep allocating until the name is free.
        let mut new_log_number = core.versions.new_file_number();
        while self.storage.exists(&log_file_name(new_log_number)) {
            new_log_number = core.versions.new_file_number();
        }
        let old_log = core.wal.name().to_string();
        core.wal = LogWriter::new(
            Arc::clone(&self.storage),
            log_file_name(new_log_number),
            IoClass::WalWrite,
        );
        let seed = self.options.seed ^ core.versions.next_file_number;
        let full = std::mem::replace(&mut core.mem, Arc::new(MemTable::new(seed)));
        core.imm = Some(full);
        core.imm_wal_to_delete = Some(old_log);
        new_log_number
    }
}

impl Db {
    /// One scheduling step of the simulated background thread.
    ///
    /// If the lane is idle, starts the next unit of work — the pending
    /// memtable flush first, otherwise one policy-picked compaction task.
    /// The work executes immediately (so all state changes are visible to
    /// subsequent reads, like a real background thread's results would be
    /// once installed), but its virtual time is booked on the lane: the
    /// clock is rewound and `bg_until` extended. Foreground requests feel
    /// it only through the write gates and read contention.
    fn pump_background(&self, core: &mut DbCore) -> Result<()> {
        let now = self.device.clock().now();
        if self.bg_until.load(Ordering::SeqCst) > now {
            return Ok(()); // lane busy
        }
        let t0 = now;
        if core.imm.is_some() {
            self.flush_imm(core, None)?;
        } else {
            let Some(task) = self.pick_task(core) else {
                return Ok(()); // nothing to do
            };
            let clock = self.task_clock();
            if let Err(e) = self.compact_inline(core, &task, clock) {
                self.abandon(core, clock, e)?;
            }
        }
        let t1 = self.device.clock().now();
        self.device.clock().rewind_to(t0);
        self.bg_until.store(t0 + (t1 - t0), Ordering::SeqCst);
        Ok(())
    }

    /// Asks the policy for the next task against the current version.
    fn pick_task(&self, core: &DbCore) -> Option<CompactionTask> {
        let ctx = PickContext {
            version: &core.versions.current,
            options: &self.options,
            compact_pointers: &core.versions.compact_pointers,
        };
        self.policy.lock().pick(&ctx)
    }

    /// The inline executor: all three stages on the caller's thread, which
    /// holds the core throughout — so a stale pick is a policy bug.
    fn compact_inline(
        &self,
        core: &mut DbCore,
        task: &CompactionTask,
        clock: TaskClock,
    ) -> Result<()> {
        let planned = self
            .plan_task(core, task)
            .map_err(|Stale(why)| Error::InvalidState(why))?;
        let outs = self.run_units(&planned, &mut || core.versions.new_file_number())?;
        self.install(core, &planned, &outs, clock)
    }

    /// Stage 1 against the core's current version and snapshot floor.
    fn plan_task(&self, core: &DbCore, task: &CompactionTask) -> Planning<Arc<Planned>> {
        // The oldest sequence any live snapshot can observe (or the
        // current sequence when none is held). Captured at plan time, this
        // stays a safe lower bound for the whole job: new snapshots always
        // pin a sequence `>=` the one current when they were taken.
        let smallest_snapshot = core
            .snapshots
            .keys()
            .next()
            .copied()
            .unwrap_or(core.versions.last_sequence);
        plan(
            &core.versions.current,
            task,
            &self.options,
            smallest_snapshot,
        )
        .map(Arc::new)
    }

    /// A task failed before it installed. Its device time still counts as
    /// compaction work. If an input turned out to be corrupt and the
    /// quarantine policy is on, the file is set aside and `Ok` returned:
    /// the policy re-plans against the surviving version, and partial
    /// outputs are orphans reclaimed by `repair_db`. Every other error
    /// comes back to the caller.
    fn abandon(&self, core: &mut DbCore, clock: TaskClock, err: Error) -> Result<()> {
        self.record_compaction_time(clock);
        match err {
            Error::Corruption(ref info) if self.try_quarantine(core, info)? => Ok(()),
            e => Err(e),
        }
    }

    /// Flushes the parked immutable memtable, if any, on the caller's
    /// thread: build, install, retire.
    fn flush_imm(&self, core: &mut DbCore, log_number: Option<u64>) -> Result<()> {
        let Some(imm) = core.imm.clone() else {
            return Ok(());
        };
        self.flush_memtable(core, &imm, log_number)?;
        self.retire_imm(core)
    }

    /// Writes `mem` out as a Level-0 table and installs it, recording
    /// `log_number` (if given) as the WAL now in use.
    fn flush_memtable(
        &self,
        core: &mut DbCore,
        mem: &MemTable,
        log_number: Option<u64>,
    ) -> Result<()> {
        let clock = self.task_clock();
        let out = self.build_l0_table(mem, &mut || core.versions.new_file_number())?;
        self.install_flush(core, mem, out, log_number, clock)
    }

    /// Clears the `imm` slot once its table is installed and deletes the
    /// WAL that covered it.
    fn retire_imm(&self, core: &mut DbCore) -> Result<()> {
        core.imm = None;
        if let Some(wal) = core.imm_wal_to_delete.take() {
            if self.storage.exists(&wal) {
                self.storage.delete(&wal)?;
            }
        }
        Ok(())
    }

    /// Physically deletes table files dropped from the version, once no
    /// read holds a pinned view that could still reference them. Runs at
    /// commit and drain boundaries — always *after* `publish_view`, so any
    /// view pinned after the zero-pin check cannot name these files. The
    /// delete cost (a filesystem op per file) is booked on the background
    /// lane, like the compaction work that orphaned the files. A failed
    /// delete latches the background error.
    fn reap_pending_deletes(&self, core: &mut DbCore) {
        if core.pending_deletes.is_empty()
            || self.read_pins.load(Ordering::SeqCst) != 0
            || self.ckpt_pins.load(Ordering::SeqCst) != 0
        {
            return;
        }
        let t0 = self.device.clock().now();
        let pending = std::mem::take(&mut core.pending_deletes);
        for number in pending {
            self.tables.remove(number);
            self.block_cache.evict_file(number);
            let name = table_file_name(number);
            if self.storage.exists(&name) {
                if let Err(e) = self.storage.delete(&name) {
                    core.latch(e.into());
                }
            }
        }
        let t1 = self.device.clock().now();
        if t1 > t0 {
            self.device.clock().rewind_to(t0);
            let bg = self.bg_until.load(Ordering::SeqCst);
            self.bg_until
                .store(bg.max(t0) + (t1 - t0), Ordering::SeqCst);
        }
    }

    /// Charges a foreground read for sharing device bandwidth with active
    /// background work: both streams run at half speed during the overlap,
    /// so the read takes twice as long *and* the background lane's drain is
    /// pushed out by the same amount.
    fn charge_read_contention(&self, op_start: Nanos) {
        let end = self.device.clock().now();
        let window_end = self.bg_until.load(Ordering::SeqCst).min(end);
        // Claim [start, window_end) exactly once across all readers: the
        // cursor CAS hands each slice of the contention window to exactly
        // one op. Single-threaded this is byte-identical to charging
        // `window_end - op_start` directly (the cursor always trails
        // op_start), which keeps same-seed runs reproducible.
        let mut claimed = self.contended_until.load(Ordering::SeqCst);
        loop {
            let start = op_start.max(claimed);
            if window_end <= start {
                return;
            }
            match self.contended_until.compare_exchange(
                claimed,
                window_end,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    let overlap = window_end - start;
                    self.device.clock().advance(overlap);
                    self.bg_until.fetch_add(overlap, Ordering::SeqCst);
                    return;
                }
                Err(current) => claimed = current,
            }
        }
    }

    /// Advances the clock until the background lane is fully idle — the
    /// pending flush is done and the policy has no more work — returning
    /// the total wait. Harnesses call this at measurement boundaries so
    /// compaction debt is not silently dropped from throughput accounting.
    pub fn drain_background(&self) -> Nanos {
        if self.scheduler.active() {
            return self.drain_background_threaded();
        }
        let t0 = self.device.clock().now();
        let mut core = self.core.lock();
        loop {
            let now = self.device.clock().now();
            let bg = self.bg_until.load(Ordering::SeqCst);
            if bg > now {
                self.device.clock().advance(bg - now);
            }
            let before = self.bg_until.load(Ordering::SeqCst);
            if self.pump_background(&mut core).is_err() {
                break;
            }
            if self.bg_until.load(Ordering::SeqCst) == before && core.imm.is_none() {
                break; // lane idle and nothing started
            }
        }
        self.publish_view(&core);
        self.reap_pending_deletes(&mut core);
        // The reap books lane time; absorb it so "drained" means idle.
        let now = self.device.clock().now();
        let bg = self.bg_until.load(Ordering::SeqCst);
        if bg > now {
            self.device.clock().advance(bg - now);
        }
        self.device.clock().now().saturating_sub(t0)
    }

    // ------------------------------------------------------------------
    // Background worker pool (threaded mode)
    // ------------------------------------------------------------------

    /// Spawns the `options.background_workers` worker threads. A no-op if
    /// the option is 0 or the pool already runs. While active, the write
    /// path signals the pool instead of pumping inline; runs are
    /// linearizable but not timing-reproducible. Call
    /// [`Db::shutdown_workers`] before dropping the last handle you plan
    /// to reopen from quickly — otherwise parked threads keep the `Arc`
    /// (and the store) alive until process exit.
    pub fn start_workers(self: &Arc<Self>) {
        if self.scheduler.workers == 0 || self.scheduler.active() {
            return;
        }
        let mut threads = self.scheduler.threads.lock();
        if !threads.is_empty() {
            return;
        }
        for i in 0..self.scheduler.workers {
            let db = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(format!("ldc-bg-{i}"))
                .spawn(move || db.worker_main())
                // ldc-lint: allow(panic_safety) — spawn failing at startup has no degraded mode; an "active" pool with zero workers would deadlock the write gates
                .expect("spawn background worker");
            threads.push(handle);
        }
        self.scheduler.started.store(true, Ordering::SeqCst);
    }

    /// Stops and joins the worker pool. Idempotent. Pending background
    /// work is simply dropped — an unflushed memtable is still covered by
    /// its WAL, and uninstalled compaction outputs are orphans reclaimed
    /// by `repair_db`; nothing acknowledged is lost.
    pub fn shutdown_workers(&self) {
        if self.scheduler.active() {
            self.scheduler.stop();
        }
    }

    /// Whether the background worker pool is running.
    pub fn workers_active(&self) -> bool {
        self.scheduler.active()
    }

    /// Marks work pending and wakes one worker. Called with the core lock
    /// held (rank 60 → state's rank 65 is a legal forward acquisition).
    fn scheduler_signal(&self) {
        let mut st = self.scheduler.state.lock();
        st.work_hint = true;
        self.scheduler.work_cv.notify_one();
    }

    /// Threaded-mode write-entry gates: the L0 stop gate and the
    /// rotation-slot gate become waits on job completion (`done_cv`,
    /// paired with the core mutex — the wait releases the core so workers
    /// can install), attributed to [`Blame::WorkerQueue`]. The soft L0
    /// slowdown brake parks on the same condvar for up to the slowdown
    /// delay. Mirrors the inline gates' "no progress possible" break via
    /// the scheduler's `policy_idle` flag.
    fn threaded_write_gates<'a>(
        &self,
        mut core: MutexGuard<'a, DbCore>,
        mut trace: Option<&mut TraceCtx>,
    ) -> MutexGuard<'a, DbCore> {
        let mut stall_t0: Option<Nanos> = None;
        loop {
            if core.bg_error.is_some() {
                break;
            }
            let over_stop = core.versions.current.level_files(0) >= self.options.l0_stop_threshold;
            let rot_blocked =
                core.imm.is_some() && core.mem.approximate_bytes() >= self.options.memtable_bytes;
            if !over_stop && !rot_blocked {
                break;
            }
            let stuck = {
                let mut st = self.scheduler.state.lock();
                st.work_hint = true;
                self.scheduler.work_cv.notify_all();
                // Nothing running, nothing queued, and the policy had no
                // task for the current version: waiting cannot help.
                st.policy_idle && !st.busy() && core.imm.is_none()
            };
            if stuck {
                break;
            }
            if stall_t0.is_none() {
                stall_t0 = Some(self.device.clock().now());
            }
            // The timeout is a lost-wakeup/progress backstop; installs
            // notify `done_cv` while holding the core, so the normal path
            // wakes immediately.
            let (g, _) = core.wait_timeout(&self.scheduler.done_cv, Duration::from_millis(2));
            core = g;
        }
        if let Some(t0) = stall_t0 {
            let now = self.device.clock().now();
            let waited = now.saturating_sub(t0);
            if waited > 0 {
                core.stats.stalls += 1;
                core.stats.stall_nanos += waited;
                if let Some(t) = trace.as_deref_mut() {
                    t.span(Blame::WorkerQueue, "worker_queue", t0, now);
                }
                if self.sink.enabled() {
                    self.sink
                        .record(Event::span(EventKind::Stall, t0, now).levels(0, 0));
                }
            }
        } else if core.bg_error.is_none()
            && core.versions.current.level_files(0) >= self.options.l0_slowdown_threshold
        {
            // Soft brake: a real host-time pause (bounded by the slowdown
            // delay), released early by any job install. The virtual clock
            // is advanced by the model delay so event spans stay sane.
            let t0 = self.device.clock().now();
            self.scheduler_signal();
            let dur = Duration::from_nanos(self.options.slowdown_delay_ns.min(1_000_000));
            let (g, _) = core.wait_timeout(&self.scheduler.done_cv, dur);
            core = g;
            self.device.clock().advance(self.options.slowdown_delay_ns);
            core.stats.slowdowns += 1;
            let end = self.device.clock().now();
            if let Some(t) = trace {
                t.span(Blame::Slowdown, "l0_slowdown", t0, end);
            }
            if self.sink.enabled() {
                self.sink
                    .record(Event::span(EventKind::Slowdown, t0, end).levels(0, 0));
            }
        }
        core
    }

    /// Waits out an in-flight worker flush job so the caller can run the
    /// inline flush path while holding the core continuously (no worker
    /// can claim `imm` without the core lock). No-op in inline mode.
    fn wait_flush_job<'a>(&self, mut core: MutexGuard<'a, DbCore>) -> MutexGuard<'a, DbCore> {
        if !self.scheduler.active() {
            return core;
        }
        loop {
            let inflight = self.scheduler.state.lock().flush_inflight;
            if !inflight {
                return core;
            }
            let (g, _) = core.wait_timeout(&self.scheduler.done_cv, Duration::from_millis(2));
            core = g;
        }
    }

    /// Threaded-mode drain: signal the pool and wait until nothing is
    /// claimed, nothing is queued, the `imm` slot is clear, and the
    /// policy reported no further work.
    fn drain_background_threaded(&self) -> Nanos {
        let t0 = self.device.clock().now();
        let mut core = self.core.lock();
        loop {
            if core.bg_error.is_some() {
                break;
            }
            let idle = {
                let mut st = self.scheduler.state.lock();
                st.work_hint = true;
                self.scheduler.work_cv.notify_all();
                st.policy_idle && !st.busy()
            };
            if idle && core.imm.is_none() {
                break;
            }
            let (g, _) = core.wait_timeout(&self.scheduler.done_cv, Duration::from_millis(2));
            core = g;
        }
        self.publish_view(&core);
        self.reap_pending_deletes(&mut core);
        self.device.clock().now().saturating_sub(t0)
    }

    /// A worker thread's main loop: park on `work_cv`, then either run a
    /// queued subcompaction unit or take one whole job through the stages.
    fn worker_main(&self) {
        enum Next {
            Exit,
            Job,
            Unit(SubUnit, Arc<Planned>),
        }
        loop {
            let next = {
                let mut st = self.scheduler.state.lock();
                loop {
                    if self.scheduler.shutdown.load(Ordering::SeqCst) {
                        break Next::Exit;
                    }
                    if let Some(u) = st.subqueue.pop_front() {
                        match st.sub.as_ref().map(|b| Arc::clone(&b.planned)) {
                            Some(planned) => break Next::Unit(u, planned),
                            None => continue, // stale unit of a torn-down batch
                        }
                    }
                    if st.work_hint {
                        st.work_hint = false;
                        break Next::Job;
                    }
                    st = st.wait(&self.scheduler.work_cv);
                }
            };
            match next {
                Next::Exit => return,
                Next::Job => self.run_one_job(),
                Next::Unit(unit, planned) => {
                    let alloc = &mut || self.locked_file_number();
                    self.post_unit(unit.idx, self.run(&planned, unit.range.as_ref(), alloc));
                }
            }
            // One scheduling point per job keeps a busy pool from
            // monopolizing a small machine between back-to-back picks.
            std::thread::yield_now();
        }
    }

    /// One job on a worker thread: plan and claim under the core lock,
    /// run without it, re-lock and install. Flush has priority (mirroring
    /// the inline pump); metadata-only tasks (trivial move, link) have
    /// nothing to run and install under the same lock hold that planned
    /// them.
    fn run_one_job(&self) {
        let mut core = self.core.lock();
        if core.bg_error.is_some() {
            return;
        }
        if let Some(imm) = core.imm.clone() {
            let claimed = {
                let mut st = self.scheduler.state.lock();
                let claimed = !st.flush_inflight;
                if claimed {
                    st.flush_inflight = true;
                    st.policy_idle = false;
                }
                claimed
            };
            if claimed {
                // The memtable stays in `core.imm` (readers keep seeing
                // it) until its L0 table installs.
                drop(core);
                let clock = self.task_clock();
                let built = self.build_l0_table(&imm, &mut || self.locked_file_number());
                let mut core = self.core.lock();
                let result = built.and_then(|out| {
                    self.install_flush(&mut core, &imm, out, None, clock)?;
                    self.retire_imm(&mut core)
                });
                self.finish_job(&mut core, result, clock, None, true);
                return;
            }
        }
        let gen = {
            let st = self.scheduler.state.lock();
            st.completed
        };
        let Some(task) = self.pick_task(&core) else {
            {
                let mut st = self.scheduler.state.lock();
                // Only latch idle if no job installed since the pick —
                // an install changes the version the policy judged.
                if st.completed == gen {
                    st.policy_idle = true;
                }
            }
            // Stalled writers re-check `policy_idle` under the core lock
            // (which we hold), so this wake cannot be lost.
            self.scheduler.done_cv.notify_all();
            return;
        };
        let clock = self.task_clock();
        // A stale pick (an input vanished via quarantine or a concurrent
        // install) is dropped; the policy re-picks against the new version.
        let Ok(planned) = self.plan_task(&core, &task) else {
            return;
        };
        let job = {
            let mut st = self.scheduler.state.lock();
            let level = planned.level;
            // A move/link rewires metadata at `level`/`level + 1` without
            // a key range of its own — coarse but safe: defer it while
            // any job claims ranges there (its outputs could interleave).
            let conflict = st.conflicts(&planned.inputs, &planned.claims)
                || (planned.metadata_only()
                    && st
                        .claims
                        .iter()
                        .any(|c| c.level == level || c.level == level + 1));
            if conflict {
                return;
            }
            if planned.metadata_only() {
                None
            } else {
                st.policy_idle = false;
                Some(st.claim(&planned.inputs, planned.claims.clone()))
            }
        };
        let Some(job) = job else {
            let result = self.install(&mut core, &planned, &[], clock);
            self.finish_job(&mut core, result, clock, None, false);
            return;
        };
        drop(core);
        let outs = self.run_units(&planned, &mut || self.locked_file_number());
        let mut core = self.core.lock();
        let result = outs.and_then(|outs| {
            // If an input vanished mid-run (quarantine), the job aborts
            // and its outputs stay as orphans for `repair_db`.
            if planned.inputs_live(&core.versions.current) {
                self.install(&mut core, &planned, &outs, clock)
            } else {
                Ok(())
            }
        });
        self.finish_job(
            &mut core,
            result,
            clock,
            Some((job, &planned.inputs)),
            false,
        );
    }

    /// The file-number allocator for run stages that do not hold the core.
    fn locked_file_number(&self) -> u64 {
        self.core.lock().versions.new_file_number()
    }

    /// The run stage of a whole task: one unit per subcompaction range,
    /// results in range order so the installed file sequence matches an
    /// unsplit merge's. The deterministic inline mode never splits. With
    /// workers, units 1.. are queued for idle workers (when the single
    /// split slot is free) while this thread runs unit 0 and then helps
    /// drain the queue until every unit posted. `alloc` numbers the
    /// outputs of the units this thread runs.
    fn run_units(
        &self,
        planned: &Arc<Planned>,
        alloc: &mut dyn FnMut() -> u64,
    ) -> Result<Vec<UnitOutput>> {
        let ranges = if self.scheduler.active() {
            planned.unit_ranges(self.options.max_subcompactions)
        } else {
            vec![None]
        };
        let k = ranges.len();
        let queued = k > 1 && {
            let mut st = self.scheduler.state.lock();
            let free = st.sub.is_none();
            if free {
                st.sub = Some(SubBatch {
                    planned: Arc::clone(planned),
                    remaining: k,
                    results: Vec::new(),
                });
                for (i, r) in ranges.iter().enumerate().skip(1) {
                    st.subqueue.push_back(SubUnit {
                        idx: i,
                        range: r.clone(),
                    });
                }
                self.scheduler.work_cv.notify_all();
            }
            free
        };
        if !queued {
            // Unsplit, or another split merge holds the slot: run the
            // units sequentially.
            return ranges
                .iter()
                .map(|r| self.run(planned, r.as_ref(), alloc))
                .collect();
        }
        let first = ranges.first().and_then(|r| r.as_ref());
        self.post_unit(0, self.run(planned, first, alloc));
        loop {
            let next = {
                let mut st = self.scheduler.state.lock();
                loop {
                    if st.sub.as_ref().is_none_or(|b| b.remaining == 0) {
                        break None;
                    }
                    match st.subqueue.pop_front() {
                        Some(u) => break Some(u),
                        None => st = st.wait(&self.scheduler.subs_cv),
                    }
                }
            };
            let Some(u) = next else { break };
            self.post_unit(u.idx, self.run(planned, u.range.as_ref(), alloc));
        }
        let batch = {
            let mut st = self.scheduler.state.lock();
            st.sub.take()
        };
        let Some(batch) = batch else {
            return Err(Error::InvalidState(
                "split-merge batch vanished before its coordinator collected it".to_string(),
            ));
        };
        let mut results = batch.results;
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().map(|(_, r)| r).collect()
    }

    /// Posts one subcompaction unit's result to the active split batch
    /// and wakes its coordinator.
    fn post_unit(&self, idx: usize, result: Result<UnitOutput>) {
        let mut st = self.scheduler.state.lock();
        if let Some(b) = st.sub.as_mut() {
            b.remaining -= 1;
            b.results.push((idx, result));
        }
        self.scheduler.subs_cv.notify_all();
    }

    /// The end of a worker's job, under the core lock it installed with:
    /// publish what the install changed — or, if it failed, quarantine a
    /// corrupt input when the policy allows (the policy then re-plans
    /// against the surviving version) and latch `bg_error` otherwise.
    /// Either way release the job's claims, bump `completed`, re-arm the
    /// work hint, and wake both the pool and any stalled writers.
    /// `done_cv` waiters check their predicates under the core, so
    /// notifying while the caller holds it cannot lose a wakeup.
    fn finish_job(
        &self,
        core: &mut DbCore,
        result: Result<()>,
        clock: TaskClock,
        claimed: Option<(u64, &[u64])>,
        flush: bool,
    ) {
        if let Err(e) = result.or_else(|e| self.abandon(core, clock, e)) {
            core.latch(e);
        }
        self.publish_view(core);
        self.reap_pending_deletes(core);
        {
            let mut st = self.scheduler.state.lock();
            if flush {
                st.flush_inflight = false;
            }
            if let Some((job, inputs)) = claimed {
                st.release(job, inputs);
            }
            st.completed += 1;
            st.policy_idle = false;
            st.work_hint = true;
            self.scheduler.work_cv.notify_all();
        }
        self.scheduler.done_cv.notify_all();
    }

    /// Pins the current state for repeatable reads. The snapshot must be
    /// released with [`Db::release_snapshot`]; while held, compaction keeps
    /// every version it could observe.
    pub fn snapshot(&self) -> Snapshot {
        let mut core = self.core.lock();
        let seq = core.versions.last_sequence;
        *core.snapshots.entry(seq).or_insert(0) += 1;
        Snapshot { seq }
    }

    /// Releases a snapshot obtained from [`Db::snapshot`].
    pub fn release_snapshot(&self, snapshot: Snapshot) {
        let mut core = self.core.lock();
        if let Some(count) = core.snapshots.get_mut(&snapshot.seq) {
            *count -= 1;
            if *count == 0 {
                core.snapshots.remove(&snapshot.seq);
            }
        }
    }

    /// Point lookup as of a pinned snapshot.
    pub fn get_at(&self, key: &[u8], snapshot: &Snapshot) -> Result<Option<Vec<u8>>> {
        Ok(self
            .get_with_seq(key, Some(snapshot.seq))?
            .map(PinnedValue::into_vec))
    }

    /// Zero-copy point lookup as of a pinned snapshot.
    pub fn get_pinned_at(&self, key: &[u8], snapshot: &Snapshot) -> Result<Option<PinnedValue>> {
        self.get_with_seq(key, Some(snapshot.seq))
    }

    /// Range scan as of a pinned snapshot.
    pub fn scan_at(
        &self,
        start: &[u8],
        limit: usize,
        snapshot: &Snapshot,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_with_seq(start, limit, Some(snapshot.seq))
    }

    /// Point lookup at the latest sequence number.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.get_with_seq(key, None)?.map(PinnedValue::into_vec))
    }

    /// Zero-copy point lookup at the latest sequence number: an SSTable
    /// hit returns a handle into the cached block instead of copying the
    /// value. Copy at the boundary that needs an owned buffer.
    pub fn get_pinned(&self, key: &[u8]) -> Result<Option<PinnedValue>> {
        self.get_with_seq(key, None)
    }

    /// The shared get path. `seq: None` reads at the latest *published*
    /// sequence (the view's); holding no locks, it pins a view and serves
    /// the whole lookup from it.
    fn get_with_seq(&self, key: &[u8], seq: Option<SequenceNumber>) -> Result<Option<PinnedValue>> {
        self.read_op(OpType::Get, &self.gets, seq, |view, snapshot, trace| {
            self.get_internal(view, key, snapshot, trace)
        })
    }

    /// The envelope every foreground read runs in: policy hint, op
    /// counter, trace, read pin, the read-contention charge, the Table-I
    /// `ForegroundRead` ledger entry and the op's virtual latency. `body`
    /// is one attempt against a pinned view; a failed read is charged and
    /// recorded like a successful one.
    fn read_op<T>(
        &self,
        op: OpType,
        counter: &AtomicU64,
        seq: Option<SequenceNumber>,
        mut body: impl FnMut(&ReadView, SequenceNumber, Option<&mut TraceCtx>) -> Result<T>,
    ) -> Result<T> {
        self.policy.lock().observe_op(false);
        counter.fetch_add(1, Ordering::Relaxed);
        let start = self.device.clock().now();
        let mut ctx = self.trace_start(op, start);
        let fs_before = self.device.ledger().get(TimeCategory::FileSystem);
        let _pin = ReadPin::new(&self.read_pins);
        // Quarantine-retry loop: each successful quarantine publishes a
        // shrunken version, so re-pinning the view lands the retry on the
        // surviving files. Bounded by the number of live files.
        let result = loop {
            let view = { self.view.read().clone() };
            let snapshot = seq.unwrap_or(view.seq);
            match body(&view, snapshot, ctx.as_mut()) {
                Err(Error::Corruption(info)) => {
                    if !self.quarantine_corruption(&info)? {
                        break Err(Error::Corruption(info));
                    }
                }
                other => break other,
            }
        };
        let cont_t0 = if ctx.is_some() {
            self.device.clock().now()
        } else {
            0
        };
        self.charge_read_contention(start);
        let end = self.device.clock().now();
        if let Some(t) = ctx.as_mut() {
            if end > cont_t0 {
                t.span(Blame::CompactionInterference, "bg_contention", cont_t0, end);
            }
        }
        let fs_delta = self
            .device
            .ledger()
            .get(TimeCategory::FileSystem)
            .saturating_sub(fs_before);
        let elapsed = end.saturating_sub(start);
        self.device.ledger().record(
            TimeCategory::ForegroundRead,
            elapsed.saturating_sub(fs_delta),
        );
        self.metrics.record_latency(op, elapsed);
        self.trace_finish(ctx, end);
        result
    }

    fn get_internal(
        &self,
        view: &ReadView,
        key: &[u8],
        snapshot: SequenceNumber,
        mut trace: Option<&mut TraceCtx>,
    ) -> Result<Option<PinnedValue>> {
        match view.mem.get(key, snapshot) {
            LookupResult::Found(v) => return Ok(Some(PinnedValue::Inline(v))),
            LookupResult::Deleted => return Ok(None),
            LookupResult::NotFound => {}
        }
        if let Some(imm) = &view.imm {
            match imm.get(key, snapshot) {
                LookupResult::Found(v) => return Ok(Some(PinnedValue::Inline(v))),
                LookupResult::Deleted => return Ok(None),
                LookupResult::NotFound => {}
            }
        }

        // Level 0: files may overlap, and (with the tiered policy) file
        // numbers do not imply data age, so gather every covering file's
        // hit and keep the highest sequence. Frozen L0 data is reachable
        // via L1 slices and is guaranteed older than any active L0 file
        // (the LDC policy freezes oldest-first).
        let mut best: Option<(SequenceNumber, ValueType, Bytes)> = None;
        for meta in view.version.levels.first().into_iter().flatten().rev() {
            if key < meta.smallest_ukey() || key > meta.largest_ukey() {
                continue;
            }
            if let Some(hit) = self.probe_table(meta.number, key, snapshot, trace.as_deref_mut())? {
                if best.as_ref().is_none_or(|b| hit.0 > b.0) {
                    best = Some(hit);
                }
            }
        }
        if let Some((_, vt, value)) = best {
            return Ok(match vt {
                ValueType::Value => Some(PinnedValue::Block(value)),
                ValueType::Deletion => None,
            });
        }

        // Deeper levels: one candidate file per level (responsible-range
        // partition); resolve file-vs-slices by sequence number.
        for level in 1..view.version.num_levels() {
            let candidate = match candidate_file(&view.version, level, key) {
                Some(meta) => meta,
                None => continue,
            };
            let mut best: Option<(SequenceNumber, ValueType, Bytes)> = None;
            // Slices first (they are newer on average, enabling bloom skips
            // to keep this cheap), then the file itself.
            for slice in candidate.slices.iter().rev() {
                if !slice.range.contains(key) {
                    continue;
                }
                let frozen = view.version.frozen.get(&slice.source_file);
                let Some(frozen) = frozen.map(|f| f.number) else {
                    continue;
                };
                if let Some(hit) = self.probe_table(frozen, key, snapshot, trace.as_deref_mut())? {
                    if best.as_ref().is_none_or(|b| hit.0 > b.0) {
                        best = Some(hit);
                    }
                }
            }
            if key >= candidate.smallest_ukey() && key <= candidate.largest_ukey() {
                if let Some(hit) =
                    self.probe_table(candidate.number, key, snapshot, trace.as_deref_mut())?
                {
                    if best.as_ref().is_none_or(|b| hit.0 > b.0) {
                        best = Some(hit);
                    }
                }
            }
            if let Some((_, vt, value)) = best {
                return Ok(match vt {
                    ValueType::Value => Some(PinnedValue::Block(value)),
                    ValueType::Deletion => None,
                });
            }
        }
        Ok(None)
    }

    /// Bloom-checked point probe of one table file. The returned value is
    /// a zero-copy handle into the table's cached block.
    ///
    /// With tracing on, any probe that cost virtual time becomes a
    /// [`Blame::CacheMissIo`] span (cache hits and bloom skips are free in
    /// virtual time, so they produce no span), with the portion spent in
    /// transient-read backoff carved out as [`Blame::Retry`].
    fn probe_table(
        &self,
        file_number: u64,
        key: &[u8],
        snapshot: SequenceNumber,
        trace: Option<&mut TraceCtx>,
    ) -> Result<Option<(SequenceNumber, ValueType, Bytes)>> {
        let (t0, retry0) = if trace.is_some() {
            (self.device.clock().now(), self.metrics.retry_backoff_ns())
        } else {
            (0, 0)
        };
        let table = self.table(file_number)?;
        let result = if !table.may_contain(key) {
            self.bloom_skips.fetch_add(1, Ordering::Relaxed);
            Ok(None)
        } else {
            table.get(key, snapshot, IoClass::UserRead)
        };
        if let Some(t) = trace {
            let now = self.device.clock().now();
            if now > t0 {
                t.span(Blame::CacheMissIo, "table_probe", t0, now);
                t.carve_from_last(
                    Blame::Retry,
                    "retry_backoff",
                    self.metrics.retry_backoff_ns().saturating_sub(retry0),
                );
            }
        }
        result
    }

    /// Range scan: up to `limit` live entries with key >= `start`.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.scan_with_seq(start, limit, None)
    }

    fn scan_with_seq(
        &self,
        start: &[u8],
        limit: usize,
        seq: Option<SequenceNumber>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.read_op(OpType::Scan, &self.scans, seq, |view, snapshot, trace| {
            let (io_t0, retry0) = if trace.is_some() {
                (self.device.clock().now(), self.metrics.retry_backoff_ns())
            } else {
                (0, 0)
            };
            let attempt = self.scan_collect(view, start, limit, snapshot);
            if let Some(t) = trace {
                let now = self.device.clock().now();
                if now > io_t0 {
                    t.span(Blame::CacheMissIo, "scan_io", io_t0, now);
                    t.carve_from_last(
                        Blame::Retry,
                        "retry_backoff",
                        self.metrics.retry_backoff_ns().saturating_sub(retry0),
                    );
                }
            }
            attempt
        })
    }

    /// The merging-iterator body of a scan, separated out so the quarantine
    /// retry wrapper can re-run it against a re-pinned (shrunken) view.
    fn scan_collect(
        &self,
        view: &ReadView,
        start: &[u8],
        limit: usize,
        snapshot: SequenceNumber,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut children: Vec<Box<dyn InternalIterator + '_>> = Vec::new();
        children.push(Box::new(view.mem.iter()));
        if let Some(imm) = &view.imm {
            children.push(Box::new(imm.iter()));
        }
        for meta in view.version.levels.first().into_iter().flatten().rev() {
            let table = self.table(meta.number)?;
            children.push(Box::new(table.iter(IoClass::UserRead)));
        }
        for level in 1..view.version.num_levels() {
            let files = match view.version.levels.get(level) {
                Some(files) if !files.is_empty() => files.clone(),
                _ => continue,
            };
            children.push(Box::new(LevelIter::new(self, files, IoClass::UserRead)));
        }
        let mut merge = MergingIterator::new(children);
        merge.seek(&encode_internal_key(start, MAX_SEQUENCE, TYPE_FOR_SEEK));
        let mut out = Vec::with_capacity(limit.min(4096));
        let mut last_ukey: Option<Vec<u8>> = None;
        while merge.valid() && out.len() < limit {
            let ikey = merge.key();
            let (entry_seq, vt) = parse_trailer(ikey);
            let ukey = user_key(ikey);
            let visible = entry_seq <= snapshot;
            let shadowed = last_ukey.as_deref() == Some(ukey);
            if visible && !shadowed {
                last_ukey = Some(ukey.to_vec());
                if vt == ValueType::Value {
                    out.push((ukey.to_vec(), merge.value().to_vec()));
                }
            }
            merge.next();
        }
        merge.status()?;
        Ok(out)
    }

    /// Opens (or fetches from cache) the table for `file_number`.
    /// Pins physical file deletion for the returned guard's lifetime
    /// (reap defers while any pin is held). For crate-internal scans that
    /// walk the published version without the core lock — the scrubber's
    /// verify pass races background installs otherwise.
    pub(crate) fn pin_reads(&self) -> ReadPin<'_> {
        ReadPin::new(&self.read_pins)
    }

    pub(crate) fn table(&self, file_number: u64) -> Result<Arc<Table>> {
        self.tables.get_or_open(file_number, || {
            // Opening a handle reads the footer/index/filter — charge a
            // metadata op like a real `open()`.
            crate::table::open_table(
                Arc::clone(&self.storage),
                table_file_name(file_number),
                file_number,
                Arc::clone(&self.block_cache),
            )
        })
    }

    /// Drops a table file from the caches and schedules its physical
    /// delete for the next reap point (a concurrent reader's pinned view
    /// may still reference it until then).
    pub(crate) fn drop_table_file(&self, core: &mut DbCore, file_number: u64) {
        self.tables.remove(file_number);
        self.block_cache.evict_file(file_number);
        core.pending_deletes.push(file_number);
    }
}

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
        self.publish_view(&core);
        self.reap_pending_deletes(&mut core);
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
        let mut core = self.core.lock();
        let stats = core
            .versions
            .disarm_shipper()
            .map(|s| (s.edits_shipped, s.files_shipped, s.bytes_shipped));
        if let Some((edits, _, _)) = stats {
            self.metrics.set_edits_shipped(edits);
        }
        stats
    }

    /// Whether an incremental backup stream is currently armed.
    pub fn shipping(&self) -> bool {
        self.core.lock().versions.shipping()
    }

    /// Progress of the armed backup stream as `(edits, files, bytes)`
    /// shipped, or `None` when no stream is armed.
    pub fn shipper_progress(&self) -> Option<(u64, u64, u64)> {
        self.core.lock().versions.shipper_stats()
    }

    /// How many backup-stream records this store has applied (nonzero
    /// only on followers / restored backups).
    pub fn replication_cursor(&self) -> u64 {
        self.core.lock().versions.replication_cursor
    }

    /// Both phases of checkpoint creation. Phase 1 runs under the core
    /// lock: flush everything, pin the resulting version (and arm the
    /// shipper, for backups, in the same critical section — no edit can
    /// slip between the base image and the stream). Phase 2 runs without
    /// the lock, under a checkpoint pin that defers physical deletion of
    /// any table it still has to link.
    fn checkpoint_to(&self, prefix: &str, arm_stream: bool) -> Result<CheckpointReport> {
        if backup::checkpoint_complete(self.storage.as_ref(), prefix) {
            return Err(Error::InvalidArgument(format!(
                "checkpoint {prefix:?} already exists"
            )));
        }
        let t0 = self.device.clock().now();
        let (version, next_file_number, last_sequence, compact_pointers, _pin) = {
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
                core.bg_error = Some(e.clone());
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
                core.versions.next_file_number,
                core.versions.last_sequence,
                core.versions.compact_pointers.clone(),
                ReadPin::new(&self.ckpt_pins),
            )
        };
        let report = match backup::write_checkpoint_files(
            &self.storage,
            prefix,
            &version,
            next_file_number,
            last_sequence,
            &compact_pointers,
        ) {
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
        self.metrics.record_checkpoint();
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
        if let Err(e) = core.versions.apply_remote_edit(edit) {
            core.bg_error = Some(e.clone());
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
        self.publish_view(&core);
        self.reap_pending_deletes(&mut core);
        self.refresh_level_gauges(&core.versions.current);
        self.metrics.record_repl_apply();
        if self.sink.enabled() {
            self.sink.record(
                Event::span(EventKind::ReplApply, t0, self.device.clock().now())
                    .files(edit.new_files.len() as u32, 0)
                    .bytes(core.versions.replication_cursor, 0),
            );
        }
        Ok(())
    }
}

/// The single file at `level` whose responsible range covers `key`:
/// the first file with `largest >= key`, or the last file (whose range
/// extends to +inf) if none.
fn candidate_file(version: &Version, level: usize, key: &[u8]) -> Option<FileMeta> {
    let files = version.levels.get(level)?;
    if files.is_empty() {
        return None;
    }
    let idx = files.partition_point(|f| f.largest_ukey() < key);
    let meta = files.get(idx).or_else(|| files.last())?;
    Some(meta.clone())
}

impl Db {
    /// Recomputes the per-level gauges from `version`.
    pub(crate) fn refresh_level_gauges(&self, version: &Version) {
        let scores = crate::compaction::level_scores(version, &self.options);
        let gauges = (0..version.num_levels())
            .map(|level| LevelGauge {
                files: version.level_files(level) as u64,
                bytes: version.level_bytes(level),
                score: scores[level],
            })
            .collect();
        self.metrics.set_level_gauges(gauges);
    }
}

/// A pinned read point; obtain via [`Db::snapshot`] and return via
/// [`Db::release_snapshot`].
#[derive(Debug)]
pub struct Snapshot {
    seq: SequenceNumber,
}

impl Snapshot {
    /// The pinned sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

/// Lazily walks one level's files in key order, merging each file with its
/// slice links (the LDC read path for scans). Holds the file list it was
/// constructed with (a pinned view's), so a concurrent compaction cannot
/// change what it iterates.
struct LevelIter<'a> {
    db: &'a Db,
    files: Vec<FileMeta>,
    class: IoClass,
    idx: usize,
    cur: Option<MergingIterator<'static>>,
    error: Option<Error>,
}

impl<'a> LevelIter<'a> {
    fn new(db: &'a Db, files: Vec<FileMeta>, class: IoClass) -> Self {
        Self {
            db,
            files,
            class,
            idx: 0,
            cur: None,
            error: None,
        }
    }

    fn open_current(&mut self) {
        self.cur = None;
        let Some(meta) = self.files.get(self.idx) else {
            return;
        };
        let build = (|| -> Result<MergingIterator<'static>> {
            let mut children: Vec<Box<dyn InternalIterator + 'static>> = Vec::new();
            let table = self.db.table(meta.number)?;
            children.push(Box::new(table.iter(self.class)));
            for slice in &meta.slices {
                let frozen = self.db.table(slice.source_file)?;
                children.push(Box::new(frozen.range_iter(slice.range.clone(), self.class)));
            }
            Ok(MergingIterator::new(children))
        })();
        match build {
            Ok(m) => self.cur = Some(m),
            Err(e) => self.error = Some(e),
        }
    }

    fn advance_until_valid(&mut self) {
        loop {
            if self.error.is_some() {
                return;
            }
            match &self.cur {
                Some(m) if m.valid() => return,
                _ => {}
            }
            self.idx += 1;
            if self.idx >= self.files.len() {
                self.cur = None;
                return;
            }
            self.open_current();
            if let Some(m) = self.cur.as_mut() {
                m.seek_to_first();
            }
        }
    }
}

impl InternalIterator for LevelIter<'_> {
    fn valid(&self) -> bool {
        self.error.is_none() && self.cur.as_ref().map(|m| m.valid()).unwrap_or(false)
    }

    fn seek_to_first(&mut self) {
        self.idx = 0;
        self.open_current();
        if let Some(m) = self.cur.as_mut() {
            m.seek_to_first();
        }
        self.advance_until_valid();
    }

    fn seek(&mut self, target: &[u8]) {
        let ukey = user_key(target);
        let mut idx = self.files.partition_point(|f| f.largest_ukey() < ukey);
        if idx >= self.files.len() {
            // The last file's slices may extend past its largest key.
            if self
                .files
                .last()
                .map(|f| f.slices.iter().any(|s| s.range.hi.is_none()))
                .unwrap_or(false)
            {
                idx = self.files.len() - 1;
            } else {
                self.cur = None;
                self.idx = self.files.len();
                return;
            }
        }
        self.idx = idx;
        self.open_current();
        if let Some(m) = self.cur.as_mut() {
            m.seek(target);
        }
        self.advance_until_valid();
    }

    fn next(&mut self) {
        if let Some(m) = self.cur.as_mut() {
            if m.valid() {
                m.next();
            }
        }
        self.advance_until_valid();
    }

    fn key(&self) -> &[u8] {
        // Contract: only called while `valid()`; empty when misused.
        self.cur.as_ref().map(|m| m.key()).unwrap_or_default()
    }

    fn value(&self) -> &[u8] {
        self.cur.as_ref().map(|m| m.value()).unwrap_or_default()
    }

    fn status(&self) -> Result<()> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if let Some(m) = &self.cur {
            m.status()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::UdcPolicy;
    use ldc_ssd::{MemStorage, SsdConfig};

    fn open_db() -> Db {
        let device = ldc_ssd::SsdDevice::new(SsdConfig::default());
        let storage = MemStorage::new(device);
        Db::open(
            storage,
            Options::small_for_tests(),
            Box::new(UdcPolicy::new()),
        )
        .unwrap()
    }

    fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key{i:08}").into_bytes(),
            format!("value-{i:08}-{}", "x".repeat(64)).into_bytes(),
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let db = open_db();
        db.put(b"hello", b"world").unwrap();
        assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
        assert_eq!(db.get(b"absent").unwrap(), None);
    }

    #[test]
    fn overwrites_and_deletes() {
        let db = open_db();
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.put(b"k", b"v3").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v3".to_vec()));
    }

    #[test]
    fn batch_is_atomic_and_ordered() {
        let db = open_db();
        let mut batch = WriteBatch::new();
        batch.put(b"a", b"1");
        batch.put(b"b", b"2");
        batch.delete(b"a");
        db.write(batch).unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.stats().writes, 3);
    }

    #[test]
    fn data_survives_flushes_and_compactions() {
        let db = open_db();
        let n = 3000u64;
        for i in 0..n {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        let stats = db.stats();
        assert!(stats.flushes > 0, "memtable must have rotated");
        assert!(
            stats.merges + stats.trivial_moves > 0,
            "compactions must have run"
        );
        // Spot-check across the keyspace.
        for i in (0..n).step_by(97) {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v), "key {i} lost");
        }
        db.version().check_invariants().unwrap();
    }

    #[test]
    fn overwritten_values_survive_compaction() {
        let db = open_db();
        for round in 0..4u64 {
            for i in 0..800u64 {
                let (k, _) = kv(i);
                db.put(&k, format!("round{round}").as_bytes()).unwrap();
            }
        }
        for i in (0..800).step_by(53) {
            let (k, _) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(b"round3".to_vec()));
        }
    }

    #[test]
    fn deletes_survive_compaction() {
        let db = open_db();
        for i in 0..1500u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        for i in (0..1500).step_by(2) {
            let (k, _) = kv(i);
            db.delete(&k).unwrap();
        }
        // Push more data to force tombstones through compactions.
        for i in 2000..3500u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        for i in (0..1500u64).step_by(100) {
            let (k, v) = kv(i);
            let got = db.get(&k).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None, "deleted key {i} resurrected");
            } else {
                assert_eq!(got, Some(v));
            }
        }
    }

    #[test]
    fn scan_returns_sorted_live_entries() {
        let db = open_db();
        for i in 0..500u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.delete(&kv(102).0).unwrap();
        let results = db.scan(&kv(100).0, 10).unwrap();
        assert_eq!(results.len(), 10);
        assert_eq!(results[0].0, kv(100).0);
        assert_eq!(results[1].0, kv(101).0);
        // 102 deleted -> 103 next.
        assert_eq!(results[2].0, kv(103).0);
        for w in results.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn scan_spans_levels_after_compaction() {
        let db = open_db();
        for i in 0..4000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        let results = db.scan(&kv(1000).0, 100).unwrap();
        assert_eq!(results.len(), 100);
        for (j, (k, v)) in results.iter().enumerate() {
            let (ek, ev) = kv(1000 + j as u64);
            assert_eq!(k, &ek);
            assert_eq!(v, &ev);
        }
    }

    #[test]
    fn scan_from_before_and_after_keyspace() {
        let db = open_db();
        for i in 0..100u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        let from_start = db.scan(b"", 5).unwrap();
        assert_eq!(from_start.len(), 5);
        assert_eq!(from_start[0].0, kv(0).0);
        let past_end = db.scan(b"zzzz", 5).unwrap();
        assert!(past_end.is_empty());
    }

    #[test]
    fn reopen_recovers_flushed_and_walled_data() {
        let device = ldc_ssd::SsdDevice::new(SsdConfig::default());
        let storage = MemStorage::new(device);
        let n = 2500u64;
        {
            let db = Db::open(
                storage.clone(),
                Options::small_for_tests(),
                Box::new(UdcPolicy::new()),
            )
            .unwrap();
            for i in 0..n {
                let (k, v) = kv(i);
                db.put(&k, &v).unwrap();
            }
            db.delete(&kv(7).0).unwrap();
        } // dropped without explicit shutdown: WAL + manifest must suffice
        let db = Db::open(
            storage,
            Options::small_for_tests(),
            Box::new(UdcPolicy::new()),
        )
        .unwrap();
        for i in (0..n).step_by(111) {
            let (k, v) = kv(i);
            let expect = if i == 7 { None } else { Some(v) };
            assert_eq!(db.get(&k).unwrap(), expect, "key {i} after recovery");
        }
        db.version().check_invariants().unwrap();
    }

    #[test]
    fn io_classes_are_populated() {
        let db = open_db();
        for i in 0..2000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        for i in 0..50 {
            let (k, _) = kv(i);
            db.get(&k).unwrap();
        }
        let io = db.device().io_stats();
        assert!(io.write_bytes_for(IoClass::WalWrite) > 0);
        assert!(io.write_bytes_for(IoClass::FlushWrite) > 0);
        assert!(io.compaction_read_bytes() > 0);
        assert!(io.compaction_write_bytes() > 0);
        assert!(io.read_bytes_for(IoClass::UserRead) > 0);
    }

    #[test]
    fn virtual_time_advances_with_work() {
        let db = open_db();
        let t0 = db.device().clock().now();
        for i in 0..500u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        assert!(db.device().clock().now() > t0);
        let ledger = db.device().ledger();
        assert!(ledger.get(TimeCategory::ForegroundWrite) > 0);
        assert!(ledger.get(TimeCategory::CompactionWork) > 0);
    }

    #[test]
    fn snapshots_pin_old_versions_through_compaction() {
        let db = open_db();
        db.put(b"pinned", b"v1").unwrap();
        let snap = db.snapshot();
        db.put(b"pinned", b"v2").unwrap();
        // Bury the old version under heavy churn (flushes + compactions).
        for i in 0..3000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.drain_background();
        assert_eq!(db.get(b"pinned").unwrap(), Some(b"v2".to_vec()));
        assert_eq!(db.get_at(b"pinned", &snap).unwrap(), Some(b"v1".to_vec()));
        // Scan at the snapshot must also see the old value.
        let rows = db.scan_at(b"pinned", 1, &snap).unwrap();
        assert_eq!(rows, vec![(b"pinned".to_vec(), b"v1".to_vec())]);
        db.release_snapshot(snap);
    }

    #[test]
    fn snapshot_isolates_deletes() {
        let db = open_db();
        db.put(b"k", b"v").unwrap();
        let snap = db.snapshot();
        db.delete(b"k").unwrap();
        for i in 0..2000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        assert_eq!(db.get(b"k").unwrap(), None);
        assert_eq!(db.get_at(b"k", &snap).unwrap(), Some(b"v".to_vec()));
        db.release_snapshot(snap);
    }

    #[test]
    fn released_snapshots_unpin() {
        let db = open_db();
        let a = db.snapshot();
        let b = db.snapshot();
        assert_eq!(db.core.lock().snapshots.len(), 1); // same sequence, two handles
        db.release_snapshot(a);
        assert_eq!(db.core.lock().snapshots.len(), 1);
        db.release_snapshot(b);
        assert!(db.core.lock().snapshots.is_empty());
    }

    #[test]
    fn table_cache_is_bounded() {
        let device = ldc_ssd::SsdDevice::new(SsdConfig::default());
        let storage = MemStorage::new(device);
        let mut options = Options::small_for_tests();
        options.table_cache_entries = 4;
        let db = Db::open(storage, options, Box::new(UdcPolicy::new())).unwrap();
        for i in 0..3000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.drain_background();
        // Touch many files via scattered reads; the handle cache must stay
        // within its bound while reads keep working.
        for i in (0..3000).step_by(17) {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v));
            assert!(db.tables.len() <= 4);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let db = open_db();
        let before = db.core.lock().versions.last_sequence;
        db.write(WriteBatch::new()).unwrap();
        assert_eq!(db.core.lock().versions.last_sequence, before);
    }

    #[test]
    fn pinned_get_matches_owned_get() {
        let db = open_db();
        for i in 0..2000u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.drain_background();
        for i in (0..2000).step_by(71) {
            let (k, v) = kv(i);
            let pinned = db.get_pinned(&k).unwrap().expect("present");
            assert_eq!(pinned.as_slice(), v.as_slice());
            assert_eq!(pinned.len(), v.len());
            assert_eq!(db.get(&k).unwrap(), Some(v));
        }
    }

    #[test]
    fn concurrent_readers_during_writes() {
        use std::sync::Arc;
        let db = Arc::new(open_db());
        for i in 0..500u64 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in (t * 7..500).step_by(13) {
                        let (k, v) = kv(i);
                        assert_eq!(db.get(&k).unwrap(), Some(v));
                    }
                });
            }
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in 500..1500u64 {
                    let (k, v) = kv(i);
                    db.put(&k, &v).unwrap();
                }
            });
        });
        for i in (0..1500).step_by(97) {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v));
        }
    }
}
