//! Per-operation latency histograms, the registry that holds them, and
//! the per-level gauge value `Db::level_gauges` builds on request.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::lockcheck::Mutex;

use crate::trace::Blame;

/// The operation types the engine times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Point lookup.
    Get,
    /// Insert or overwrite.
    Put,
    /// Range scan.
    Scan,
    /// Tombstone write.
    Delete,
}

impl OpType {
    /// Every op type, in a stable order.
    pub const ALL: [OpType; 4] = [OpType::Get, OpType::Put, OpType::Scan, OpType::Delete];

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            OpType::Get => "get",
            OpType::Put => "put",
            OpType::Scan => "scan",
            OpType::Delete => "delete",
        }
    }

    /// Stable index into [`OpType::ALL`]-shaped arrays.
    pub fn index(&self) -> usize {
        match self {
            OpType::Get => 0,
            OpType::Put => 1,
            OpType::Scan => 2,
            OpType::Delete => 3,
        }
    }
}

/// Point-in-time state of one LSM level, computed from a `Version` when
/// asked (nothing caches it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelGauge {
    /// Live files in the level.
    pub files: u64,
    /// Live bytes in the level.
    pub bytes: u64,
    /// Compaction pressure (>= 1.0 means the level is overfull).
    pub score: f64,
}

const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5;

/// Log-linear latency histogram: 64 power-of-two magnitude bands, each
/// split into 32 linear sub-buckets (<= ~3% relative error). The full
/// range of `u64` nanoseconds is representable, so p999/p9999 queries at
/// any magnitude come out of the same buckets.
///
/// This is the workspace's single histogram implementation: `ldc-workload`
/// re-exports it as `Histogram` (the layering rule allows workload → obs,
/// so the old duplicate there is gone).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn index_for(value: u64) -> usize {
        let v = value.max(1);
        let magnitude = 63 - v.leading_zeros();
        if magnitude < SUB_BITS {
            return v as usize;
        }
        let shift = magnitude - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        ((magnitude - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let band = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let shift = (band - 1) as u32;
        ((SUB_BUCKETS + sub) as u64) << shift
    }

    /// Records one nanosecond sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index_for(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at percentile `p` in [0, 100], to bucket resolution.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Self::bucket_value(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

/// Monotonic counters for the degraded-mode machinery that runs below
/// the engine's own counters: transient-read retries at the storage
/// boundary and the scrubber's coverage and findings. (Quarantined files
/// are `Db::quarantined`.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedCounters {
    /// Transient read errors that were retried at the storage boundary.
    pub transient_retries: u64,
    /// Blocks the online scrubber has CRC-verified.
    pub scrub_blocks_verified: u64,
    /// Corruption findings reported by the scrubber.
    pub scrub_corruptions: u64,
}

/// Shared registry for what no other owner can count: one latency
/// histogram and one blame row per operation type, the retry-backoff
/// total, and the degraded counters recorded by `RetryStorage` and the
/// scrubber. All methods take `&self`; interior locking keeps the
/// registry shareable behind an `Arc` across the whole engine.
pub struct MetricsRegistry {
    latencies: [Mutex<LatencyHistogram>; 4],
    /// Transient retries, scrubbed blocks, scrub corruptions.
    degraded: [AtomicU64; 3],
    /// Per-op × per-blame attributed nanoseconds (fed by the tracing
    /// layer; all zero when tracing is off).
    blame: [[AtomicU64; Blame::COUNT]; 4],
    /// Accumulated transient-retry backoff nanoseconds (lets the tracing
    /// layer carve retry time out of coarser I/O spans).
    retry_backoff_ns: AtomicU64,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: Debug must be safe to call while the
        // registry is being updated.
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self {
            latencies: std::array::from_fn(|_| {
                Mutex::new("obs/metrics::latencies", LatencyHistogram::new())
            }),
            degraded: std::array::from_fn(|_| AtomicU64::new(0)),
            blame: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            retry_backoff_ns: AtomicU64::new(0),
        }
    }

    /// Records one retried transient read error.
    pub fn record_transient_retry(&self) {
        self.degraded[0].fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates `nanos` of transient-retry backoff charged to the
    /// virtual clock.
    pub fn record_retry_backoff(&self, nanos: u64) {
        self.retry_backoff_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total transient-retry backoff nanoseconds so far. Trace hooks read
    /// this before/after an I/O phase to attribute the delta to
    /// [`Blame::Retry`].
    pub fn retry_backoff_ns(&self) -> u64 {
        self.retry_backoff_ns.load(Ordering::Relaxed)
    }

    /// Adds a traced op's blame breakdown (indexed per [`Blame::ALL`]) to
    /// the per-op totals.
    pub fn record_blame(&self, op: OpType, breakdown: &[u64; Blame::COUNT]) {
        if let Some(row) = self.blame.get(op.index()) {
            for (slot, add) in row.iter().zip(breakdown) {
                if *add > 0 {
                    slot.fetch_add(*add, Ordering::Relaxed);
                }
            }
        }
    }

    /// Total attributed nanoseconds per blame bucket for `op`, indexed
    /// per [`Blame::ALL`].
    pub fn blame_totals(&self, op: OpType) -> [u64; Blame::COUNT] {
        let mut out = [0u64; Blame::COUNT];
        if let Some(row) = self.blame.get(op.index()) {
            for (slot, v) in out.iter_mut().zip(row) {
                *slot = v.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Records `blocks` scrubbed blocks.
    pub fn record_scrub_blocks(&self, blocks: u64) {
        self.degraded[1].fetch_add(blocks, Ordering::Relaxed);
    }

    /// Records one scrub corruption finding.
    pub fn record_scrub_corruption(&self) {
        self.degraded[2].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the degraded-mode counters.
    pub fn degraded_counters(&self) -> DegradedCounters {
        DegradedCounters {
            transient_retries: self.degraded[0].load(Ordering::Relaxed),
            scrub_blocks_verified: self.degraded[1].load(Ordering::Relaxed),
            scrub_corruptions: self.degraded[2].load(Ordering::Relaxed),
        }
    }

    /// Records one operation latency.
    pub fn record_latency(&self, op: OpType, nanos: u64) {
        self.latencies[op.index()].lock().record(nanos);
    }

    /// Snapshot of one op type's latency histogram; its
    /// [`LatencyHistogram::count`] is the number of `op`s recorded.
    pub fn latency(&self, op: OpType) -> LatencyHistogram {
        self.latencies[op.index()].lock().clone()
    }

    /// Clears every histogram and counter.
    pub fn reset(&self) {
        for h in &self.latencies {
            *h.lock() = LatencyHistogram::new();
        }
        for c in &self.degraded {
            c.store(0, Ordering::Relaxed);
        }
        for row in &self.blame {
            for c in row {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.retry_backoff_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_tracked_per_op() {
        let reg = MetricsRegistry::new();
        reg.record_latency(OpType::Get, 100);
        reg.record_latency(OpType::Get, 200);
        reg.record_latency(OpType::Put, 5000);
        assert_eq!(reg.latency(OpType::Get).count(), 2);
        assert_eq!(reg.latency(OpType::Put).count(), 1);
        assert_eq!(reg.latency(OpType::Scan).count(), 0);
        assert_eq!(reg.latency(OpType::Delete).count(), 0);
        assert!((reg.latency(OpType::Get).mean() - 150.0).abs() < 1.0);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = MetricsRegistry::new();
        reg.record_latency(OpType::Scan, 42);
        reg.record_transient_retry();
        reg.reset();
        assert_eq!(reg.latency(OpType::Scan).count(), 0);
        assert_eq!(reg.degraded_counters(), DegradedCounters::default());
    }

    #[test]
    fn degraded_counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.record_transient_retry();
        reg.record_transient_retry();
        reg.record_scrub_blocks(10);
        reg.record_scrub_blocks(5);
        reg.record_scrub_corruption();
        let c = reg.degraded_counters();
        assert_eq!(c.transient_retries, 2);
        assert_eq!(c.scrub_blocks_verified, 15);
        assert_eq!(c.scrub_corruptions, 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for magnitude in [5u64, 50, 500, 5_000, 50_000, 500_000, 5_000_000] {
            let mut h = LatencyHistogram::new();
            h.record(magnitude);
            let got = h.percentile(50.0);
            let err = (got as f64 - magnitude as f64).abs() / magnitude as f64;
            assert!(err <= 0.04, "value {magnitude}: got {got} (err {err})");
        }
    }

    #[test]
    fn histogram_edge_cases() {
        let h = LatencyHistogram::new();
        for p in [0.0, 0.1, 50.0, 99.99, 100.0] {
            assert_eq!(h.percentile(p), 0, "p{p} of empty");
        }
        assert_eq!((h.count(), h.mean(), h.max()), (0, 0.0, 0));
        assert_eq!(h.min(), 0, "empty min must not leak the u64::MAX sentinel");
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(100.0) == u64::MAX);
        let mut other = LatencyHistogram::new();
        other.record(1);
        h.merge(&other);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1);
        // Interior ranks stay inside the observed range, and the u128 sum
        // keeps the mean finite.
        let p999 = h.percentile(99.9);
        assert!((h.min()..=h.max()).contains(&p999), "p99.9 = {p999}");
        assert!(h.mean().is_finite() && h.mean() > 0.0);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 50_000u64), (90.0, 90_000), (99.0, 99_000)] {
            let got = h.percentile(p);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.05, "p{p}: got {got}, expect ~{expect}");
        }
        assert_eq!(h.percentile(100.0), 100_000);
    }

    #[test]
    fn tail_is_captured() {
        // 999 fast ops and one slow outlier: with nearest-rank semantics the
        // outlier is the 1000th ordered sample, so p99.95 must surface it
        // while p90 stays clean.
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000);
        let tail = h.percentile(99.95);
        assert!(tail > 900_000, "tail percentile missed the outlier: {tail}");
        let p90 = h.percentile(90.0);
        assert!(p90 <= 110, "p90 polluted by outlier: {p90}");
    }

    #[test]
    fn zero_values_are_recorded() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn op_labels_are_stable() {
        let labels: Vec<_> = OpType::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["get", "put", "scan", "delete"]);
    }

    #[test]
    fn percentile_bounds_p0_p100_single_sample() {
        let mut h = LatencyHistogram::new();
        h.record(12_345);
        assert_eq!((h.count(), h.min(), h.max()), (1, 12_345, 12_345));
        assert_eq!(h.mean(), 12_345.0);
        // A single sample dominates every rank, including the extremes.
        assert_eq!(h.percentile(100.0), 12_345, "p100 is the exact max");
        let p0 = h.percentile(0.0);
        assert!(
            (h.min()..=h.max()).contains(&p0),
            "p0 clamps into the observed range: {p0}"
        );
        let p50 = h.percentile(50.0);
        let err = (p50 as f64 - 12_345.0).abs() / 12_345.0;
        assert!(err <= 0.04, "single-sample p50 within bucket error: {p50}");
    }

    #[test]
    fn merge_with_empty_propagates_min_max() {
        // Non-empty <- empty: nothing changes, and the empty side's
        // u64::MAX min sentinel must not leak through.
        let mut a = LatencyHistogram::new();
        a.record(500);
        a.record(9_000);
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 500);
        assert_eq!(a.max(), 9_000);
        // Empty <- non-empty: adopts the other's extremes.
        let mut b = LatencyHistogram::new();
        b.merge(&a);
        assert_eq!(b.count(), 2);
        assert_eq!(b.min(), 500);
        assert_eq!(b.max(), 9_000);
        assert_eq!(b.percentile(100.0), 9_000);
    }

    #[test]
    fn bucket_boundary_rounding_is_monotone_and_bounded() {
        // Values straddling power-of-two band boundaries: each must land
        // in a bucket whose representative value is within the layout's
        // ~3% relative error, and bucket indices must be monotone.
        let mut last_idx = 0usize;
        for v in [
            31u64,
            32,
            33,
            63,
            64,
            65,
            1_023,
            1_024,
            1_025,
            (1 << 40) - 1,
            1 << 40,
        ] {
            let idx = LatencyHistogram::index_for(v);
            assert!(idx >= last_idx, "index_for must be monotone at {v}");
            last_idx = idx;
            let rep = LatencyHistogram::bucket_value(idx);
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= 0.04,
                "boundary {v}: representative {rep} (err {err})"
            );
        }
        // Sub-32 values are exact (one bucket per integer); zero shares
        // bucket 1 (`index_for` clamps to 1 before taking the magnitude).
        for v in 1u64..32 {
            assert_eq!(
                LatencyHistogram::bucket_value(LatencyHistogram::index_for(v)),
                v
            );
        }
        assert_eq!(
            LatencyHistogram::index_for(0),
            LatencyHistogram::index_for(1)
        );
    }

    #[test]
    fn blame_totals_accumulate_and_reset() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.blame_totals(OpType::Get), [0; Blame::COUNT]);
        let mut bd = [0u64; Blame::COUNT];
        bd[Blame::CacheMissIo.index()] = 1_000;
        bd[Blame::Engine.index()] = 200;
        reg.record_blame(OpType::Get, &bd);
        reg.record_blame(OpType::Get, &bd);
        let got = reg.blame_totals(OpType::Get);
        assert_eq!(got[Blame::CacheMissIo.index()], 2_000);
        assert_eq!(got[Blame::Engine.index()], 400);
        assert_eq!(reg.blame_totals(OpType::Put), [0; Blame::COUNT]);
        reg.record_retry_backoff(77);
        assert_eq!(reg.retry_backoff_ns(), 77);
        reg.reset();
        assert_eq!(reg.blame_totals(OpType::Get), [0; Blame::COUNT]);
        assert_eq!(reg.retry_backoff_ns(), 0);
    }
}
