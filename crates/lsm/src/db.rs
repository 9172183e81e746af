//! The database engine.
//!
//! `Db` ties everything together: memtable + WAL in front, leveled SSTables
//! behind, a pluggable [`CompactionPolicy`] deciding what to compact, and
//! one executor (`crate::compaction::exec`) carrying tasks out, all I/O
//! charged to the simulated SSD. Every public operation takes `&self`.
//! Mutable engine state lives in one rank-witnessed
//! [`ldc_obs::lockcheck::Mutex`]`<DbCore>`; readers never touch it — they
//! pin the published `ReadView` instead.
//!
//! This file holds what every concern shares: the public value types,
//! `Db` / `DbCore` / `ReadView` (and its `ViewParts`) and the constructor
//! that names their lock ids (`crates/lint/lock_order.toml` keys a lock by
//! its file stem, so `lsm/db::{core,view}` must be built here), accessors,
//! snapshots, view publication, the open-table sets and the corruption
//! quarantine. The `impl Db` blocks live with their concern:
//!
//! | module | owns |
//! |---|---|
//! | `open` | manifest recovery, WAL replay, building the `DbCore`, the first flush |
//! | `write` | group commit, WAL + memtable, rotation, write-gate booking; asks once per commit which driver runs |
//! | `read` | the pinned-view read envelope, gets and `PinnedValue`, scans, `LevelIter`; LDC read semantics and responsible ranges |
//! | `lane` | the inline driver: `BgLane`, the pump, its write gates, drain, deferred deletes |
//! | `checkpoint` | `flush`, checkpoints, backup streams, replicated edits |
//! | `report` | `stats_report`, `tail_report`, `level_gauges`, per-op tracing |
//! | `crate::scheduler` | the pool driver: worker threads, claims, its write gates and drain |
//! | `crate::compaction::exec` | plan → run → install, shared by both drivers |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ldc_obs::lockcheck::{Mutex, RwLock};
use ldc_obs::{Event, EventKind, MetricsRegistry, SharedSink, TraceReservoir};
use ldc_ssd::{SsdDevice, StorageBackend};

use crate::cache::{BlockCache, CacheCounters, TableSet};
use crate::commit::CommitQueue;
use crate::compaction::CompactionPolicy;
use crate::error::{CorruptionInfo, Error, Result};
use crate::memtable::MemTable;
use crate::options::{CorruptionPolicy, Options};
use crate::scheduler::CompactionScheduler;
use crate::types::SequenceNumber;
use crate::version::{table_file_name, Version, VersionEdit, VersionSet};
use crate::wal::LogWriter;

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

/// The state a read operation pins at entry: the parts current at some
/// commit boundary, plus the sequence number published with them. Cloning
/// is one refcount bump; everything reachable from a view is immutable
/// except the live memtable, whose entries newer than `seq` are invisible
/// to the read (MVCC by sequence), and the table slots, which fill once.
#[derive(Clone)]
struct ReadView {
    parts: Arc<ViewParts>,
    seq: SequenceNumber,
}

/// What a view pins besides its sequence: the version, its open tables and
/// the memtables. An ordinary commit changes none of them, so it publishes
/// only its sequence; a rotation, flush, install or quarantine allocates
/// new parts (RocksDB's SuperVersion).
struct ViewParts {
    version: Arc<Version>,
    tables: Arc<TableSet>,
    mem: Arc<MemTable>,
    imm: Option<Arc<MemTable>>,
}

impl ViewParts {
    /// The parts of `core`'s current state.
    fn of(core: &DbCore) -> ViewParts {
        ViewParts {
            version: Arc::clone(&core.versions.current),
            tables: Arc::clone(&core.tables),
            mem: Arc::clone(&core.mem),
            imm: core.imm.clone(),
        }
    }

    /// Whether these are `core`'s current parts.
    fn current_in(&self, core: &DbCore) -> bool {
        Arc::ptr_eq(&self.version, &core.versions.current)
            && Arc::ptr_eq(&self.tables, &core.tables)
            && Arc::ptr_eq(&self.mem, &core.mem)
            && self.imm.as_ref().map(Arc::as_ptr) == core.imm.as_ref().map(Arc::as_ptr)
    }
}

impl ReadView {
    /// The view of `core`'s current state.
    fn of(core: &DbCore) -> ReadView {
        ReadView {
            parts: Arc::new(ViewParts::of(core)),
            seq: core.versions.counters.last_sequence,
        }
    }
}

/// All mutable engine state, guarded by one mutex. Writers (and the
/// background work they pump) hold it for the duration of a commit;
/// readers never take it — they go through the published `ReadView`.
pub(crate) struct DbCore {
    pub(crate) versions: VersionSet,
    /// The open tables of `versions.current`, rebuilt by every
    /// [`DbCore::log_and_apply`].
    pub(crate) tables: Arc<TableSet>,
    pub(crate) mem: Arc<MemTable>,
    /// Immutable memtable awaiting its background flush.
    pub(crate) imm: Option<Arc<MemTable>>,
    /// Decides what to compact; asked by both drivers under this lock.
    pub(crate) policy: Box<dyn CompactionPolicy>,
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
    pub(crate) fn latch(&mut self, e: Error) {
        if self.bg_error.is_none() {
            self.bg_error = Some(e);
        }
    }

    /// Whether an error is latched (writes are refused).
    pub(crate) fn failed(&self) -> bool {
        self.bg_error.is_some()
    }

    /// Logs `edit` to the manifest, applies it, and moves the open tables
    /// over to the new version (see [`TableSet::successor`]).
    pub(crate) fn log_and_apply(&mut self, edit: VersionEdit) -> Result<()> {
        let applied = self.versions.log_and_apply(edit);
        // Rebuilt whatever the outcome: a failed ship or rollover comes
        // after the new version was installed.
        self.tables = Arc::new(self.tables.successor(&self.versions.current));
        applied
    }

    /// Level-0 file count, what both drivers' stop and slowdown gates test.
    pub(crate) fn l0_files(&self) -> usize {
        self.versions.current.level_files(0)
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
    block_cache: Arc<BlockCache>,
    /// Where structured events go; [`ldc_obs::NoopSink`] by default, in
    /// which case no event is ever built (`sink.enabled()` gates it).
    pub(crate) sink: SharedSink,
    /// Per-op latency histograms and blame totals, retry and scrub counts.
    metrics: Arc<MetricsRegistry>,
    /// Worst-K trace reservoir; `None` (the default) disables per-op
    /// tracing entirely — the op paths then never construct an
    /// [`ldc_obs::TraceCtx`], so the disabled engine is byte- and
    /// time-identical to one built before tracing existed. Tracing only *reads* the
    /// virtual clock, so even enabled runs charge identical time.
    tracer: Option<Arc<TraceReservoir>>,
    pub(crate) core: Mutex<DbCore>,
    /// Background worker pool; dormant unless `options.background_workers`
    /// is at least 1 and the owner called [`Db::start_workers`]. While
    /// active, the write path signals it instead of pumping inline.
    pub(crate) scheduler: CompactionScheduler,
    /// The state readers pin; republished at every commit boundary.
    view: RwLock<ReadView>,
    /// Leader/follower write grouping.
    commit: CommitQueue,
    /// The inline driver's timeline. Background work executes eagerly for
    /// correctness, but its device time is re-booked here; foreground
    /// requests pay for it only through the write gates and bandwidth
    /// contention — which is where the paper's tail latency comes from.
    lane: BgLane,
    /// Point lookups served (read path is lock-free w.r.t. the core).
    gets: AtomicU64,
    /// Range scans served.
    scans: AtomicU64,
    /// Bloom-filter negatives that skipped a table probe.
    bloom_skips: AtomicU64,
    /// Reads currently in flight (holding a pinned view).
    read_pins: AtomicU64,
    /// What the opening recovery replayed/discarded.
    recovery: RecoverySummary,
}

/// `Db` is shared across reader/writer threads behind an `Arc`.
#[allow(dead_code)]
fn assert_send_sync<T: Send + Sync>() {}
const _: fn() = assert_send_sync::<Db>;

mod checkpoint;
mod lane;
mod open;
mod read;
mod report;
#[cfg(test)]
mod tests;
mod write;

use lane::BgLane;
pub use read::PinnedValue;
pub(crate) use write::{Gate, L0_SLOWDOWN_DELAY_NS};

impl Db {
    /// Builds the handle around a recovered core. Lives in this file, not
    /// in `open.rs`, because lock ids are `<crate>/<file-stem>::<field>`
    /// (`crates/lint/lock_order.toml`).
    fn assemble(
        options: Options,
        storage: Arc<dyn StorageBackend>,
        sink: SharedSink,
        metrics: Arc<MetricsRegistry>,
        (core, block_cache): (DbCore, Arc<BlockCache>),
        recovery: RecoverySummary,
    ) -> Db {
        let device = storage.device();
        device.set_event_sink(Arc::clone(&sink));
        let view = ReadView::of(&core);
        let scheduler = CompactionScheduler::new(options.background_workers);
        Db {
            options,
            storage,
            device,
            block_cache,
            sink,
            metrics,
            tracer: None,
            core: Mutex::new("lsm/db::core", core),
            scheduler,
            view: RwLock::new("lsm/db::view", view),
            commit: CommitQueue::new(),
            lane: BgLane::default(),
            gets: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            bloom_skips: AtomicU64::new(0),
            read_pins: AtomicU64::new(0),
            recovery,
        }
    }

    /// Publishes the core's current state as the view readers pin. Must be
    /// called (while holding the core lock) at every boundary where a
    /// reader is allowed to observe the new state: end of a leader commit,
    /// after an installed background task, after a quarantine, and at open.
    /// New parts are allocated only when one of them changed; the sequence
    /// is stored with them under the same write guard, so a reader never
    /// pins a sequence without the memtable that holds it.
    pub(crate) fn publish_view(&self, core: &DbCore) {
        let stale = {
            let mut view = self.view.write();
            let stale = (!view.parts.current_in(core))
                .then(|| std::mem::replace(&mut view.parts, Arc::new(ViewParts::of(core))));
            view.seq = core.versions.counters.last_sequence;
            stale
        };
        // Outside the guard: the old parts may hold the last handle to a
        // flushed memtable.
        drop(stale);
        // Order the publish before any subsequent `read_pins` check (see
        // `publish_and_reap`): a reader that pins after a zero-pin
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
        self.core.lock().policy.name().to_string()
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
    /// default [`ldc_obs::NoopSink`] no event is ever constructed.
    pub fn set_event_sink(&mut self, sink: SharedSink) {
        self.device.set_event_sink(Arc::clone(&sink));
        self.sink = sink;
    }

    /// The engine's metrics registry: per-op latency histograms and blame
    /// totals, plus the transient-retry and scrub counters recorded below
    /// the engine. Engine counters are [`Db::stats`]; per-level state is
    /// [`Db::level_gauges`].
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
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

    /// SSTables set aside by the [`CorruptionPolicy::Quarantine`] policy
    /// since this handle was opened, oldest first.
    pub fn quarantined(&self) -> Vec<QuarantinedFile> {
        self.core.lock().quarantined.clone()
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
        core.log_and_apply(VersionEdit {
            deleted_files: vec![(level as u32, number)],
            ..Default::default()
        })?;
        self.block_cache.evict_file(number);
        let name = table_file_name(number);
        self.storage.rename(&name, &format!("{name}.quarantined"))?;
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
        Ok(true)
    }

    /// The first background/storage error, if the engine has latched one.
    /// While set, writes are refused with this error; reads still work.
    pub fn background_error(&self) -> Option<Error> {
        self.core.lock().bg_error.clone()
    }

    /// Pins the current state for repeatable reads. The snapshot must be
    /// released with [`Db::release_snapshot`]; while held, compaction keeps
    /// every version it could observe.
    pub fn snapshot(&self) -> Snapshot {
        let mut core = self.core.lock();
        let seq = core.versions.counters.last_sequence;
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

    /// Pins physical file deletion for the returned guard's lifetime
    /// (reap defers while any pin is held). For crate-internal scans that
    /// walk the published version without the core lock — the scrubber's
    /// verify pass races background installs otherwise.
    pub(crate) fn pin_reads(&self) -> ReadPin<'_> {
        ReadPin::new(&self.read_pins)
    }

    /// Drops a table file's blocks from the cache and schedules its
    /// physical delete for the next reap point (a concurrent reader's
    /// pinned view may still reference it until then). The edit that
    /// removed the file already released its handle's charge.
    pub(crate) fn drop_table_file(&self, core: &mut DbCore, file_number: u64) {
        self.block_cache.evict_file(file_number);
        core.pending_deletes.push(file_number);
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
