//! High-level entry points: build an LDC (or baseline UDC) store in a few
//! lines.
//!
//! ```
//! use ldc_core::LdcDb;
//!
//! let db = LdcDb::builder().build().unwrap();
//! db.put(b"user:42", b"ada").unwrap();
//! assert_eq!(db.get(b"user:42").unwrap(), Some(b"ada".to_vec()));
//! ```

use std::sync::Arc;

use ldc_lsm::compaction::{CompactionPolicy, UdcPolicy};
use ldc_lsm::db::{Db, DbStats};
use ldc_lsm::RecoverySummary;
use ldc_lsm::{CacheCounters, Options, PinnedValue, Result};
use ldc_obs::{MetricsRegistry, NoopSink, SharedSink, Trace};
use ldc_ssd::{MemStorage, SsdConfig, SsdDevice, StorageBackend};

use crate::policy::{LdcConfig, LdcPolicy};

/// Which compaction mechanism a store runs.
#[derive(Debug, Clone, PartialEq)]
pub enum CompactionMode {
    /// Lower-level driven compaction (the paper's contribution).
    Ldc(LdcConfig),
    /// Traditional upper-level driven compaction (the LevelDB baseline).
    Udc,
    /// Size-tiered compaction (the lazy baseline, paper §V): better write
    /// amplification than UDC, far worse tail latency.
    SizeTiered,
}

/// Configures and opens an [`LdcDb`].
pub struct LdcDbBuilder {
    options: Options,
    ssd: SsdConfig,
    mode: CompactionMode,
    storage: Option<Arc<dyn StorageBackend>>,
    sink: Option<SharedSink>,
    trace_worst_k: Option<usize>,
}

impl LdcDbBuilder {
    fn new() -> Self {
        Self {
            options: Options::default(),
            ssd: SsdConfig::default(),
            mode: CompactionMode::Ldc(LdcConfig::default()),
            storage: None,
            sink: None,
            trace_worst_k: None,
        }
    }

    /// Replaces the engine options wholesale.
    pub fn options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// The options the store will open with (read-only; e.g. a follower
    /// bootstrap needs `max_levels` before the store exists).
    pub fn options_ref(&self) -> &Options {
        &self.options
    }

    /// Replaces the simulated-SSD profile.
    pub fn ssd_config(mut self, ssd: SsdConfig) -> Self {
        self.ssd = ssd;
        self
    }

    /// Whether each commit fsyncs the WAL (off by default, like LevelDB).
    /// Crash harnesses turn this on so every acknowledged write is durable.
    pub fn wal_sync(mut self, on: bool) -> Self {
        self.options.wal_sync = on;
        self
    }

    /// Background worker threads for flush/compaction. `0` (the default)
    /// keeps the deterministic inline path; `>= 1` moves background work
    /// onto a dedicated scheduler pool (linearizable, not
    /// timing-reproducible).
    pub fn background_workers(mut self, workers: usize) -> Self {
        self.options.background_workers = workers;
        self
    }

    /// Upper bound on range-partitioned subcompactions per picked merge
    /// when running on the worker pool (`1` disables splitting).
    pub fn max_subcompactions(mut self, n: usize) -> Self {
        self.options.max_subcompactions = n;
        self
    }

    /// Selects the compaction mechanism.
    pub fn mode(mut self, mode: CompactionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the UDC baseline instead of LDC.
    pub fn udc_baseline(mut self) -> Self {
        self.mode = CompactionMode::Udc;
        self
    }

    /// Runs the lazy size-tiered baseline instead of LDC. Raises the
    /// engine's Level-0 gates (tiered stores keep many L0 runs by design).
    pub fn size_tiered(mut self) -> Self {
        self.mode = CompactionMode::SizeTiered;
        self.options.l0_compaction_trigger = 4;
        self.options.l0_slowdown_threshold = 60;
        self.options.l0_stop_threshold = 100;
        self
    }

    /// Fixes the SliceLink threshold (implies LDC mode).
    pub fn slice_link_threshold(mut self, threshold: usize) -> Self {
        self.mode = CompactionMode::Ldc(LdcConfig {
            slice_link_threshold: Some(threshold),
            ..LdcConfig::default()
        });
        self
    }

    /// Enables the self-adaptive threshold controller (implies LDC mode).
    pub fn adaptive_threshold(mut self) -> Self {
        self.mode = CompactionMode::Ldc(LdcConfig {
            adaptive: true,
            ..LdcConfig::default()
        });
        self
    }

    /// Uses an existing storage backend (e.g. to reopen a store, or to share
    /// a device between experiments).
    pub fn storage(mut self, storage: Arc<dyn StorageBackend>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Routes structured events (flush, merge, link, stall, SSD GC,
    /// threshold adaptation, ...) from every layer to `sink`. Without
    /// this, tracing is off and no event is ever constructed.
    pub fn event_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Enables per-operation request tracing with a deterministic
    /// worst-`k` trace reservoir per op type (tie-broken from the engine
    /// seed). Off by default; when off, no trace context is ever built,
    /// and even when on the tracer only reads the virtual clock, so
    /// traced and untraced runs are time-identical.
    pub fn trace_worst_k(mut self, k: usize) -> Self {
        self.trace_worst_k = Some(k);
        self
    }

    /// Opens `shards` independent stores with identical configuration —
    /// the construction path for a hash-range-sharded service (each shard
    /// owns its own simulated device, WAL, and compaction state). A
    /// caller-supplied storage backend cannot be split between shards, so
    /// it is rejected; the shared event sink, if any, receives events from
    /// every shard.
    pub fn build_shards(self, shards: usize) -> Result<Vec<LdcDb>> {
        if shards == 0 {
            return Err(ldc_lsm::Error::InvalidArgument(
                "build_shards: shard count must be >= 1".to_string(),
            ));
        }
        if self.storage.is_some() {
            return Err(ldc_lsm::Error::InvalidArgument(
                "build_shards: a single storage backend cannot back multiple shards".to_string(),
            ));
        }
        let mut out = Vec::with_capacity(shards);
        for _ in 0..shards {
            let builder = LdcDbBuilder {
                options: self.options.clone(),
                ssd: self.ssd.clone(),
                mode: self.mode.clone(),
                storage: None,
                sink: self.sink.clone(),
                trace_worst_k: self.trace_worst_k,
            };
            out.push(builder.build()?);
        }
        Ok(out)
    }

    /// Opens the store.
    pub fn build(self) -> Result<LdcDb> {
        let storage = match self.storage {
            Some(s) => s,
            None => {
                let device = SsdDevice::new(self.ssd.clone());
                MemStorage::new(device) as Arc<dyn StorageBackend>
            }
        };
        let policy: Box<dyn CompactionPolicy> = match &self.mode {
            CompactionMode::Ldc(config) => {
                let mut policy = LdcPolicy::with_config(config.clone());
                if let Some(sink) = &self.sink {
                    policy.set_event_trace(Arc::clone(sink), storage.device().clock().clone());
                }
                Box::new(policy)
            }
            CompactionMode::Udc => Box::new(UdcPolicy::new()),
            CompactionMode::SizeTiered => Box::new(ldc_lsm::compaction::SizeTieredPolicy::new()),
        };
        // Open with the sink already attached so the recovery event emitted
        // during WAL replay / manifest recovery is captured too.
        let sink = self.sink.unwrap_or_else(|| Arc::new(NoopSink));
        let mut inner = Db::open_with_sink(Arc::clone(&storage), self.options, policy, sink)?;
        if let Some(k) = self.trace_worst_k {
            inner.enable_tracing(k);
        }
        let inner = Arc::new(inner);
        // No-op unless `background_workers >= 1`; with workers the engine
        // runs flushes/compactions on its own threads (linearizable, but
        // not timing-reproducible — see Options::background_workers).
        inner.start_workers();
        Ok(LdcDb { inner, storage })
    }
}

/// An SSD-oriented key-value store running lower-level driven compaction
/// (or, for comparison, the UDC baseline).
///
/// The engine lives behind an `Arc` so the background worker pool (when
/// `background_workers >= 1`) can share it; dropping the facade stops and
/// joins the pool.
pub struct LdcDb {
    inner: Arc<Db>,
    storage: Arc<dyn StorageBackend>,
}

impl Drop for LdcDb {
    fn drop(&mut self) {
        // Idempotent; joins the background workers so they release their
        // engine handles (pending work is covered by the WAL / repair).
        self.inner.shutdown_workers();
    }
}

impl LdcDb {
    /// Starts configuring a store.
    pub fn builder() -> LdcDbBuilder {
        LdcDbBuilder::new()
    }

    /// Inserts or overwrites a key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.inner.put(key, value)
    }

    /// Point lookup. The value is copied out of the engine at this
    /// boundary; use [`LdcDb::get_pinned`] to borrow it zero-copy instead.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    /// Zero-copy point lookup: the returned handle borrows the cached
    /// block (or the inline memtable entry) without copying the value.
    pub fn get_pinned(&self, key: &[u8]) -> Result<Option<PinnedValue>> {
        self.inner.get_pinned(key)
    }

    /// Deletes a key.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.inner.delete(key)
    }

    /// Batched point lookups against **one** pinned snapshot: every key is
    /// resolved at the same sequence number, so the results are mutually
    /// consistent even while concurrent writers advance the store (an
    /// atomically written batch is observed either entirely or not at
    /// all). Returns one entry per input key, in order.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        let snapshot = self.inner.snapshot();
        let mut out = Vec::with_capacity(keys.len());
        let mut failed = None;
        for key in keys {
            match self.inner.get_at(key, &snapshot) {
                Ok(value) => out.push(value),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        // Always unpin, error or not — a leaked snapshot pins files forever.
        self.inner.release_snapshot(snapshot);
        match failed {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Range scan: up to `limit` live entries with key >= `start`.
    pub fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan(start, limit)
    }

    /// Applies a write batch atomically. Concurrent callers are group
    /// committed: one leader folds every queued batch into a single WAL
    /// append and sync.
    pub fn write(&self, batch: ldc_lsm::WriteBatch) -> Result<()> {
        self.inner.write(batch)
    }

    /// Pins the current state for repeatable reads (release with
    /// [`LdcDb::release_snapshot`]).
    pub fn snapshot(&self) -> ldc_lsm::db::Snapshot {
        self.inner.snapshot()
    }

    /// Releases a pinned snapshot.
    pub fn release_snapshot(&self, snapshot: ldc_lsm::db::Snapshot) {
        self.inner.release_snapshot(snapshot)
    }

    /// Point lookup as of a pinned snapshot.
    pub fn get_at(&self, key: &[u8], snapshot: &ldc_lsm::db::Snapshot) -> Result<Option<Vec<u8>>> {
        self.inner.get_at(key, snapshot)
    }

    /// Range scan as of a pinned snapshot.
    pub fn scan_at(
        &self,
        start: &[u8],
        limit: usize,
        snapshot: &ldc_lsm::db::Snapshot,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.inner.scan_at(start, limit, snapshot)
    }

    /// Engine counters.
    pub fn stats(&self) -> DbStats {
        self.inner.stats()
    }

    /// What the opening recovery replayed, truncated, and quarantined.
    pub fn recovery_summary(&self) -> RecoverySummary {
        self.inner.recovery_summary()
    }

    /// The simulated device (clock, I/O stats, wear).
    pub fn device(&self) -> &Arc<SsdDevice> {
        self.inner.device()
    }

    /// The storage backend (space accounting, file listing).
    pub fn storage(&self) -> &Arc<dyn StorageBackend> {
        &self.storage
    }

    /// Name of the active compaction policy ("ldc" or "udc").
    pub fn policy_name(&self) -> String {
        self.inner.policy_name()
    }

    /// Live on-device bytes (Fig 15's space metric).
    pub fn space_bytes(&self) -> u64 {
        self.inner.space_bytes()
    }

    /// Block-cache counters (hits, misses, evictions).
    pub fn block_cache_counters(&self) -> CacheCounters {
        self.inner.block_cache_counters()
    }

    /// Routes structured events to `sink` from now on (equivalent to the
    /// builder's [`LdcDbBuilder::event_sink`], minus policy adaptation
    /// events, which need the sink at build time).
    pub fn set_event_sink(&mut self, sink: SharedSink) {
        // The workers each hold an engine handle; park them so the `Arc`
        // is briefly unique, swap the sink, then restart the pool.
        let restart = self.inner.workers_active();
        if restart {
            self.inner.shutdown_workers();
        }
        Arc::get_mut(&mut self.inner)
            .expect("no outstanding engine handles after worker shutdown")
            .set_event_sink(sink);
        if restart {
            self.inner.start_workers();
        }
    }

    /// The engine's metrics registry (per-level gauges, per-op latency
    /// histograms).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.inner.metrics()
    }

    /// Human-readable engine report (LevelDB `leveldb.stats` style).
    pub fn stats_report(&self) -> String {
        self.inner.stats_report()
    }

    /// The worst-latency traces captured by the reservoir, grouped by op
    /// type, worst first. Empty unless the store was built with
    /// [`LdcDbBuilder::trace_worst_k`].
    pub fn worst_traces(&self) -> Vec<Trace> {
        self.inner.worst_traces()
    }

    /// Tail-latency report: per-op percentiles through P99.99, the blame
    /// breakdown, and the worst captured traces.
    pub fn tail_report(&self) -> String {
        self.inner.tail_report()
    }

    /// The worst-K trace reservoir rendered as folded stacks (flamegraph
    /// collapse format). Empty unless tracing was enabled.
    pub fn trace_folded_report(&self) -> String {
        self.inner.trace_folded_report()
    }

    /// Clears the worst-K reservoir and its arrival counters (e.g. after
    /// a preload phase). No-op when tracing is off.
    pub fn reset_traces(&self) {
        self.inner.reset_traces()
    }

    /// Verifies every SSTable's checksums and ordering; returns entries
    /// scanned.
    pub fn verify_integrity(&self) -> Result<u64> {
        self.inner.verify_integrity()
    }

    /// Online scrub: re-reads every reachable SSTable and re-verifies
    /// block CRCs, key order, index/footer consistency, and filter
    /// membership. Under [`ldc_lsm::CorruptionPolicy::Quarantine`] corrupt
    /// live tables are quarantined on the spot.
    pub fn scrub(&self) -> Result<ldc_lsm::ScrubReport> {
        self.inner.scrub()
    }

    /// Files quarantined since open (corrupt tables set aside as
    /// `<name>.quarantined` and dropped from the version).
    pub fn quarantined(&self) -> Vec<ldc_lsm::QuarantinedFile> {
        self.inner.quarantined()
    }

    /// Waits out any pending background flush/compaction debt, returning
    /// the virtual nanoseconds waited. Call at measurement boundaries.
    pub fn drain_background(&self) -> u64 {
        self.inner.drain_background()
    }

    /// Flushes both memtables and rotates the WAL, so the version alone
    /// captures every acknowledged write.
    pub fn flush(&self) -> Result<()> {
        self.inner.flush()
    }

    /// Creates an online, crash-consistent checkpoint named `name` under
    /// the `ckpt-<name>@` prefix on this store's storage. Restore it with
    /// [`ldc_lsm::restore_checkpoint`].
    pub fn checkpoint(&self, name: &str) -> Result<ldc_lsm::CheckpointReport> {
        self.inner.checkpoint(name)
    }

    /// Starts incremental backup `name`: a base checkpoint under
    /// `backup-<name>@` plus an armed edit-stream shipper that appends
    /// every subsequent version change (and links its new SSTables) until
    /// [`LdcDb::backup_end`]. Restore with [`ldc_lsm::restore_backup`].
    pub fn backup_begin(&self, name: &str) -> Result<ldc_lsm::CheckpointReport> {
        self.inner.backup_begin(name)
    }

    /// Stops the active backup stream, returning `(edits, files, bytes)`
    /// shipped, or `None` when no stream was armed.
    pub fn backup_end(&self) -> Option<(u64, u64, u64)> {
        self.inner.backup_end()
    }

    /// Whether an incremental backup stream is currently armed.
    pub fn shipping(&self) -> bool {
        self.inner.shipping()
    }

    /// Progress of the armed backup stream as `(edits, files, bytes)`.
    pub fn shipper_progress(&self) -> Option<(u64, u64, u64)> {
        self.inner.shipper_progress()
    }

    /// How many backup-stream records this store has applied (nonzero
    /// only on followers / restored backups).
    pub fn replication_cursor(&self) -> u64 {
        self.inner.replication_cursor()
    }

    /// Applies one replicated version edit (the read-only follower's
    /// write path; see `ldc-sync`).
    pub fn apply_remote_edit(&self, edit: &ldc_lsm::version::VersionEdit) -> Result<()> {
        self.inner.apply_remote_edit(edit)
    }

    /// Access to the underlying engine (experiments, tests). The engine
    /// API is `&self` throughout, so shared access suffices.
    pub fn engine_ref(&self) -> &Db {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_selects_policy() {
        let ldc = LdcDb::builder().build().unwrap();
        assert_eq!(ldc.policy_name(), "ldc");
        let udc = LdcDb::builder().udc_baseline().build().unwrap();
        assert_eq!(udc.policy_name(), "udc");
    }

    #[test]
    fn basic_crud() {
        let db = LdcDb::builder()
            .options(Options::small_for_tests())
            .build()
            .unwrap();
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.delete(b"a").unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
        let scan = db.scan(b"", 10).unwrap();
        assert_eq!(scan, vec![(b"b".to_vec(), b"2".to_vec())]);
    }

    #[test]
    fn reopen_via_shared_storage() {
        let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
        {
            let db = LdcDb::builder()
                .options(Options::small_for_tests())
                .storage(Arc::clone(&storage))
                .build()
                .unwrap();
            db.put(b"persisted", b"yes").unwrap();
        }
        let db = LdcDb::builder()
            .options(Options::small_for_tests())
            .storage(storage)
            .build()
            .unwrap();
        assert_eq!(db.get(b"persisted").unwrap(), Some(b"yes".to_vec()));
    }
}
