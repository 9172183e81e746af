//! Virtual time.
//!
//! All experiments in this reproduction run in *virtual time*: the clock only
//! advances when the simulated device (or an explicitly modelled CPU cost)
//! charges time to it. This makes every run deterministic and makes latency
//! and throughput pure functions of the I/O schedule — which is exactly what
//! the paper's comparisons are about.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in (or span of) virtual time, in nanoseconds.
pub type Nanos = u64;

/// A shared, monotonically advancing virtual clock.
///
/// Cloning a `VirtualClock` yields a handle to the *same* underlying clock;
/// the device, the database engine, and the measurement harness all share
/// one instance.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta` nanoseconds and returns the new time.
    pub fn advance(&self, delta: Nanos) -> Nanos {
        self.now.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Convenience: advance by a number of microseconds.
    pub fn advance_micros(&self, micros: u64) -> Nanos {
        self.advance(micros.saturating_mul(1_000))
    }

    /// Rewinds the clock to `t` (no-op if `t` is in the future).
    ///
    /// Simulator-internal: the engine executes background work (flush,
    /// compaction) eagerly for correctness, measures the time it charged,
    /// rewinds, and re-books that time on a background lane so foreground
    /// requests only pay for it through explicit stalls and contention.
    pub fn rewind_to(&self, t: Nanos) {
        let _ = self
            .now
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (t < cur).then_some(t)
            });
    }
}

/// Categories used to reproduce the paper's Table I time breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// Time spent inside compaction work (the paper's `DoCompactionWork`).
    CompactionWork,
    /// Modelled file-system/kernel overhead (open/sync/delete bookkeeping).
    FileSystem,
    /// Foreground write-path time (the paper's `DoWrite`: WAL + memtable).
    ForegroundWrite,
    /// Foreground read-path time (table lookups, block reads).
    ForegroundRead,
    /// Anything else (manifest maintenance, cache management, ...).
    Other,
}

impl TimeCategory {
    /// All categories, in the order used for reports.
    pub const ALL: [TimeCategory; 5] = [
        TimeCategory::CompactionWork,
        TimeCategory::FileSystem,
        TimeCategory::ForegroundWrite,
        TimeCategory::ForegroundRead,
        TimeCategory::Other,
    ];

    /// Human-readable label matching the paper's Table I rows.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::CompactionWork => "DoCompactionWork",
            TimeCategory::FileSystem => "file system",
            TimeCategory::ForegroundWrite => "DoWrite",
            TimeCategory::ForegroundRead => "DoRead",
            TimeCategory::Other => "Others",
        }
    }

    fn index(self) -> usize {
        match self {
            TimeCategory::CompactionWork => 0,
            TimeCategory::FileSystem => 1,
            TimeCategory::ForegroundWrite => 2,
            TimeCategory::ForegroundRead => 3,
            TimeCategory::Other => 4,
        }
    }
}

/// Accumulates virtual time per [`TimeCategory`].
///
/// The engine wraps phases of work in [`TimeLedger::record`] or a
/// [`TimerGuard`]; the Table I experiment reads the totals back out.
#[derive(Debug, Default)]
pub struct TimeLedger {
    buckets: [AtomicU64; 5],
}

impl TimeLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `nanos` of virtual time to `category`.
    pub fn record(&self, category: TimeCategory, nanos: Nanos) {
        self.buckets[category.index()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total time recorded against `category`.
    pub fn get(&self, category: TimeCategory) -> Nanos {
        self.buckets[category.index()].load(Ordering::Relaxed)
    }

    /// Sum over all categories.
    pub fn total(&self) -> Nanos {
        TimeCategory::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Fraction of total time spent in `category` (0.0 if nothing recorded).
    pub fn fraction(&self, category: TimeCategory) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(category) as f64 / total as f64
        }
    }

    /// Resets all buckets to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII guard that records the virtual time elapsed between construction and
/// drop against a [`TimeCategory`].
pub struct TimerGuard<'a> {
    ledger: &'a TimeLedger,
    clock: &'a VirtualClock,
    category: TimeCategory,
    start: Nanos,
}

impl std::fmt::Debug for TimerGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerGuard")
            .field("category", &self.category)
            .field("start", &self.start)
            .finish_non_exhaustive()
    }
}

impl<'a> TimerGuard<'a> {
    /// Starts timing `category` on `clock`, recording into `ledger` on drop.
    pub fn new(ledger: &'a TimeLedger, clock: &'a VirtualClock, category: TimeCategory) -> Self {
        Self {
            ledger,
            clock,
            category,
            start: clock.now(),
        }
    }
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        let elapsed = self.clock.now().saturating_sub(self.start);
        self.ledger.record(self.category, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), 0);
        assert_eq!(clock.advance(5), 5);
        assert_eq!(clock.advance(10), 15);
        assert_eq!(clock.now(), 15);
    }

    #[test]
    fn clock_handles_are_shared() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance(100);
        assert_eq!(b.now(), 100);
        b.advance_micros(1);
        assert_eq!(a.now(), 1_100);
    }

    #[test]
    fn ledger_accumulates_and_fractions() {
        let ledger = TimeLedger::new();
        ledger.record(TimeCategory::CompactionWork, 600);
        ledger.record(TimeCategory::FileSystem, 200);
        ledger.record(TimeCategory::ForegroundWrite, 100);
        ledger.record(TimeCategory::Other, 100);
        assert_eq!(ledger.total(), 1000);
        assert!((ledger.fraction(TimeCategory::CompactionWork) - 0.6).abs() < 1e-12);
        assert_eq!(ledger.get(TimeCategory::ForegroundRead), 0);
        ledger.reset();
        assert_eq!(ledger.total(), 0);
    }

    #[test]
    fn fraction_of_empty_ledger_is_zero() {
        let ledger = TimeLedger::new();
        assert_eq!(ledger.fraction(TimeCategory::Other), 0.0);
    }

    #[test]
    fn timer_guard_records_elapsed_time() {
        let ledger = TimeLedger::new();
        let clock = VirtualClock::new();
        {
            let _guard = TimerGuard::new(&ledger, &clock, TimeCategory::CompactionWork);
            clock.advance(42);
        }
        assert_eq!(ledger.get(TimeCategory::CompactionWork), 42);
    }

    #[test]
    fn category_labels_match_paper_table() {
        assert_eq!(TimeCategory::CompactionWork.label(), "DoCompactionWork");
        assert_eq!(TimeCategory::FileSystem.label(), "file system");
        assert_eq!(TimeCategory::ForegroundWrite.label(), "DoWrite");
    }
}
