//! Transient-read retry at the storage boundary.
//!
//! Flash devices routinely report *recoverable* read failures (controller
//! busy, ECC retry passes) that succeed on a later attempt. [`RetryStorage`]
//! wraps any [`StorageBackend`] and retries reads that fail with a
//! [`SsdError`] whose [`SsdError::is_transient`] is true, up to a bounded
//! attempt budget. Each retry charges a deterministic backoff — linear in
//! the attempt number plus seeded jitter — to the device's virtual clock,
//! emits an [`EventKind::Retry`] observability event, and bumps the
//! degraded-mode metrics. Permanent errors and write-path operations pass
//! through untouched: only reads are retried.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ldc_obs::{Event, EventKind, MetricsRegistry, SharedSink};
use ldc_ssd::{IoClass, SsdDevice, SsdResult, StorageBackend};

/// Deterministic jitter source (splitmix64). Lock-free so the storage
/// wrapper stays `Sync` without introducing a lock the lint would need to
/// order.
#[derive(Debug)]
struct JitterRng {
    state: AtomicU64,
}

impl JitterRng {
    fn new(seed: u64) -> Self {
        Self {
            state: AtomicU64::new(seed),
        }
    }

    fn next(&self) -> u64 {
        // splitmix64: every call advances the state by the golden-gamma
        // constant; fetch_add keeps concurrent callers deterministic in
        // aggregate (the engine is single-threaded, so in practice the
        // sequence is exactly reproducible per seed).
        let z = self
            .state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Storage decorator that retries transient read errors with bounded,
/// virtual-clock-charged backoff.
pub struct RetryStorage {
    inner: Arc<dyn StorageBackend>,
    /// Read attempts including the first; 1 disables retrying.
    attempts: u32,
    /// Base backoff in nanoseconds; retry `n` waits `base * n + jitter`.
    backoff_ns: u64,
    rng: JitterRng,
    sink: SharedSink,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for RetryStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryStorage")
            .field("attempts", &self.attempts)
            .field("backoff_ns", &self.backoff_ns)
            .finish_non_exhaustive()
    }
}

/// Read attempts, the first included, before the engine treats a transient
/// device error as permanent.
const READ_RETRY_ATTEMPTS: u32 = 4;

/// Base backoff the engine charges to the virtual clock before retry `n`
/// (multiplied by `n`, plus seeded jitter): 100 µs, about one flash read.
const READ_RETRY_BACKOFF_NS: u64 = 100_000;

impl RetryStorage {
    /// Wraps `inner` in the engine's own retry budget: what `Db::open` and
    /// `repair_db` put in front of the device before they read anything.
    pub(crate) fn wrap(
        inner: Arc<dyn StorageBackend>,
        seed: u64,
        sink: SharedSink,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<dyn StorageBackend> {
        Self::new(
            inner,
            READ_RETRY_ATTEMPTS,
            READ_RETRY_BACKOFF_NS,
            seed,
            sink,
            metrics,
        )
    }

    /// Wraps `inner`. `seed` makes the jitter sequence reproducible.
    pub fn new(
        inner: Arc<dyn StorageBackend>,
        attempts: u32,
        backoff_ns: u64,
        seed: u64,
        sink: SharedSink,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        Arc::new(Self {
            inner,
            attempts: attempts.max(1),
            backoff_ns,
            rng: JitterRng::new(seed),
            sink,
            metrics,
        })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &Arc<dyn StorageBackend> {
        &self.inner
    }

    /// Runs `op`, retrying transient failures with backoff. `op` receives
    /// the attempt number (0-based) so callers can log it if useful.
    fn with_retries<T>(&self, mut op: impl FnMut() -> SsdResult<T>) -> SsdResult<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt + 1 < self.attempts => {
                    attempt += 1;
                    let jitter = self
                        .rng
                        .next()
                        .checked_rem(self.backoff_ns / 4 + 1)
                        .unwrap_or_default();
                    let delay = self
                        .backoff_ns
                        .saturating_mul(u64::from(attempt))
                        .saturating_add(jitter);
                    let clock = self.inner.device().clock().clone();
                    let start = clock.now();
                    let end = clock.advance(delay);
                    self.metrics.record_transient_retry();
                    self.metrics.record_retry_backoff(delay);
                    if self.sink.enabled() {
                        self.sink.record(
                            Event::span(EventKind::Retry, start, end)
                                .files(attempt, 0)
                                .bytes(delay, 0),
                        );
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl StorageBackend for RetryStorage {
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        self.inner.write_file(name, data, class)
    }

    fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        self.inner.append(name, data, class)
    }

    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<Bytes> {
        self.with_retries(|| self.inner.read(name, offset, len, class))
    }

    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> SsdResult<Bytes> {
        self.with_retries(|| self.inner.read_sequential(name, offset, len, class))
    }

    fn read_all(&self, name: &str, class: IoClass) -> SsdResult<Bytes> {
        self.with_retries(|| self.inner.read_all(name, class))
    }

    fn size(&self, name: &str) -> SsdResult<u64> {
        self.inner.size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> SsdResult<()> {
        self.inner.delete(name)
    }

    fn rename(&self, from: &str, to: &str) -> SsdResult<()> {
        self.inner.rename(from, to)
    }

    fn sync(&self, name: &str) -> SsdResult<()> {
        self.inner.sync(name)
    }

    fn synced_len(&self, name: &str) -> SsdResult<u64> {
        self.inner.synced_len(name)
    }

    fn truncate(&self, name: &str, len: u64) -> SsdResult<()> {
        self.inner.truncate(name, len)
    }

    fn link_file(&self, from: &str, to: &str, class: IoClass) -> SsdResult<()> {
        // Write-path operation: pass through unretried like the others.
        self.inner.link_file(from, to, class)
    }

    fn list_dir(&self, prefix: &str) -> Vec<String> {
        self.inner.list_dir(prefix)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }

    fn device(&self) -> Arc<SsdDevice> {
        self.inner.device()
    }
}

/// A transient error that exhausts the retry budget is returned unchanged
/// so callers can distinguish "device kept saying retry" from permanent
/// failures; by then the retries have already been charged to the clock.
#[cfg(test)]
mod tests {
    use super::*;
    use ldc_obs::RingBufferSink;
    use ldc_ssd::{MemStorage, SsdConfig, SsdDevice, SsdError};
    use std::sync::Mutex;

    /// Backend whose reads fail transiently until `heal_after` attempts.
    struct Flaky {
        inner: Arc<MemStorage>,
        heal_after: u32,
        seen: Mutex<u32>,
        permanent: bool,
    }

    impl StorageBackend for Flaky {
        fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
            self.inner.write_file(name, data, class)
        }
        fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
            self.inner.append(name, data, class)
        }
        fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<Bytes> {
            let mut seen = self.seen.lock().unwrap();
            if *seen < self.heal_after {
                *seen += 1;
                return if self.permanent {
                    Err(SsdError::Io("hard failure".into()))
                } else {
                    Err(SsdError::TransientIo("ecc retry".into()))
                };
            }
            self.inner.read(name, offset, len, class)
        }
        fn size(&self, name: &str) -> SsdResult<u64> {
            self.inner.size(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn delete(&self, name: &str) -> SsdResult<()> {
            self.inner.delete(name)
        }
        fn rename(&self, from: &str, to: &str) -> SsdResult<()> {
            self.inner.rename(from, to)
        }
        fn sync(&self, name: &str) -> SsdResult<()> {
            self.inner.sync(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
        fn device(&self) -> Arc<SsdDevice> {
            self.inner.device()
        }
    }

    fn flaky(heal_after: u32, permanent: bool) -> Arc<Flaky> {
        let inner = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
        inner
            .write_file("f", b"0123456789", IoClass::Other)
            .unwrap();
        Arc::new(Flaky {
            inner,
            heal_after,
            seen: Mutex::new(0),
            permanent,
        })
    }

    fn retrying(
        backend: Arc<Flaky>,
        attempts: u32,
    ) -> (Arc<RetryStorage>, Arc<RingBufferSink>, Arc<MetricsRegistry>) {
        let sink = Arc::new(RingBufferSink::new(64));
        let metrics = Arc::new(MetricsRegistry::new());
        let shared: SharedSink = sink.clone();
        let storage = RetryStorage::new(backend, attempts, 1_000, 42, shared, metrics.clone());
        (storage, sink, metrics)
    }

    #[test]
    fn transient_errors_heal_within_budget() {
        let (s, sink, metrics) = retrying(flaky(2, false), 4);
        let clock_before = s.device().clock().now();
        let data = s.read("f", 0, 4, IoClass::UserRead).unwrap();
        assert_eq!(data.as_ref(), b"0123");
        assert_eq!(metrics.degraded_counters().transient_retries, 2);
        let events = sink.events();
        let retries: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Retry)
            .collect();
        assert_eq!(retries.len(), 2);
        // Backoff was charged to the virtual clock and grows per attempt.
        assert!(s.device().clock().now() > clock_before);
        assert!(retries[1].input_bytes >= retries[0].input_bytes);
        // Attempt numbers are recorded 1-based.
        assert_eq!(retries[0].input_files, 1);
        assert_eq!(retries[1].input_files, 2);
    }

    #[test]
    fn budget_exhaustion_surfaces_transient_error() {
        let (s, _sink, metrics) = retrying(flaky(100, false), 3);
        let err = s.read("f", 0, 4, IoClass::UserRead).unwrap_err();
        assert!(err.is_transient());
        // 3 attempts = 2 retries charged.
        assert_eq!(metrics.degraded_counters().transient_retries, 2);
    }

    #[test]
    fn permanent_errors_never_retry() {
        let (s, sink, metrics) = retrying(flaky(1, true), 4);
        let err = s.read("f", 0, 4, IoClass::UserRead).unwrap_err();
        assert!(matches!(err, SsdError::Io(_)));
        assert_eq!(metrics.degraded_counters().transient_retries, 0);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let delays = |seed: u64| {
            let sink = Arc::new(RingBufferSink::new(64));
            let metrics = Arc::new(MetricsRegistry::new());
            let s = RetryStorage::new(
                flaky(3, false),
                8,
                1_000,
                seed,
                sink.clone() as SharedSink,
                metrics,
            );
            s.read("f", 0, 4, IoClass::UserRead).unwrap();
            sink.events()
                .iter()
                .map(|e| e.input_bytes)
                .collect::<Vec<_>>()
        };
        assert_eq!(delays(7), delays(7));
        assert_ne!(delays(7), delays(8));
    }

    #[test]
    fn attempts_of_one_disables_retrying() {
        let (s, _sink, metrics) = retrying(flaky(1, false), 1);
        assert!(s.read("f", 0, 4, IoClass::UserRead).is_err());
        assert_eq!(metrics.degraded_counters().transient_retries, 0);
    }
}
