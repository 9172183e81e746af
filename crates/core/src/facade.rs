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
use ldc_lsm::db::Db;
use ldc_lsm::{Options, Result};
use ldc_obs::{NoopSink, SharedSink};
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
            CompactionMode::Ldc(config) => Box::new(LdcPolicy::with_config(config.clone())),
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
/// The handle dereferences to the engine, so the whole [`Db`] API —
/// `put`/`get`/`get_pinned`/`delete`/`scan`/`write`, snapshots, `stats`,
/// `stats_report`/`tail_report`, `scrub`, `flush`, `checkpoint`,
/// `backup_begin`/`backup_end`, `drain_background`, … — is called on it
/// directly. What this type adds is construction ([`LdcDb::builder`]),
/// [`LdcDb::multi_get`], the storage handle, and ownership of the
/// background worker pool: the engine lives behind an `Arc` so the pool
/// (when `background_workers >= 1`) can share it, and dropping the
/// handle stops and joins the pool.
pub struct LdcDb {
    inner: Arc<Db>,
    storage: Arc<dyn StorageBackend>,
}

impl std::ops::Deref for LdcDb {
    type Target = Db;

    fn deref(&self) -> &Db {
        &self.inner
    }
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

    /// Batched point lookups against **one** pinned snapshot: every key is
    /// resolved at the same sequence number, so the results are mutually
    /// consistent even while concurrent writers advance the store (an
    /// atomically written batch is observed either entirely or not at
    /// all). Returns one entry per input key, in order.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        let snapshot = self.snapshot();
        let out = keys.iter().map(|key| self.get_at(key, &snapshot)).collect();
        // Always unpin, error or not — a leaked snapshot pins files forever.
        self.release_snapshot(snapshot);
        out
    }

    /// The storage backend (space accounting, file listing).
    pub fn storage(&self) -> &Arc<dyn StorageBackend> {
        &self.storage
    }

    /// Routes structured events to `sink` from now on (equivalent to the
    /// builder's [`LdcDbBuilder::event_sink`]).
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
