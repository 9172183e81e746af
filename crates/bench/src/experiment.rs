//! Experiment harness: build a store, run a workload, collect every metric
//! the paper's figures need.

use std::sync::Arc;

use ldc_core::{CompactionMode, LdcConfig, LdcDb};
use ldc_lsm::db::DbStats;
use ldc_lsm::Options;
use ldc_obs::{Event, RingBufferSink};
use ldc_ssd::{IoStatsSnapshot, TimeCategory};
use ldc_workload::{preload_workload, run_measured, RunReport, WorkloadSpec};

use crate::adapter::DbAdapter;

/// Store configuration for one experiment run, on a fresh default-profile
/// SSD.
#[derive(Clone)]
pub struct StoreConfig {
    /// Compaction mechanism; LDC's threshold, adaptation and frozen-region
    /// budget live in its [`LdcConfig`].
    pub mode: CompactionMode,
    /// Engine options.
    pub options: Options,
    /// Attach a ring-buffer event sink and export the measured window's
    /// compaction/stall timeline in [`ExperimentResult::events`].
    pub trace_events: bool,
}

/// The label tables print for `mode`: "LDC", "UDC" or "size-tiered".
pub(crate) fn mode_label(mode: &CompactionMode) -> &'static str {
    match mode {
        CompactionMode::Ldc(_) => "LDC",
        CompactionMode::Udc => "UDC",
        CompactionMode::SizeTiered => "size-tiered",
    }
}

/// Ring capacity when [`StoreConfig::trace_events`] is on — generous enough
/// that laptop-scale runs never wrap (each event is a small flat record).
const EVENT_RING_CAPACITY: usize = 1 << 20;

/// Engine geometry for experiment runs: the paper's shape (fan-out 10,
/// 10 bits/key, equal memtable/SSTable size) scaled to 1/4 size so that a
/// laptop-scale op count produces the same tree depth and rotation
/// frequency *relative to the data size* as the paper's 10-30 M-request
/// runs. DESIGN.md §1 documents this substitution.
pub fn paper_scaled_options() -> Options {
    Options {
        memtable_bytes: 512 << 10,
        sstable_bytes: 512 << 10,
        l1_capacity_bytes: 2 << 20,
        // The paper's testbed had enough RAM that the OS page cache covered
        // most of the store (reads cost ~RAM once warm); give the block
        // cache the same role at our scale.
        block_cache_bytes: 64 << 20,
        ..Options::default()
    }
}

impl StoreConfig {
    /// Paper-shaped (scaled) configuration for `mode`.
    pub fn new(mode: CompactionMode) -> Self {
        Self {
            mode,
            options: paper_scaled_options(),
            trace_events: false,
        }
    }

    /// Opens the store, with the event ring when [`Self::trace_events`] is
    /// set. Size-tiered raises the L0 gates over [`Self::options`] the way
    /// [`ldc_core::LdcDbBuilder::size_tiered`] does.
    pub(crate) fn build(&self) -> (LdcDb, Option<Arc<RingBufferSink>>) {
        let builder = LdcDb::builder().options(self.options.clone());
        let mut builder = match &self.mode {
            CompactionMode::SizeTiered => builder.size_tiered(),
            mode => builder.mode(mode.clone()),
        };
        let sink = self
            .trace_events
            .then(|| Arc::new(RingBufferSink::new(EVENT_RING_CAPACITY)));
        if let Some(sink) = &sink {
            builder = builder.event_sink(sink.clone());
        }
        (builder.build().expect("store construction"), sink)
    }
}

/// Everything measured over one run's measured window.
pub struct ExperimentResult {
    /// Which mechanism ran.
    pub mode: CompactionMode,
    /// Latency/throughput report from the runner.
    pub report: RunReport,
    /// Device traffic during the measured window only.
    pub io: IoStatsSnapshot,
    /// Device traffic including preload.
    pub total_io: IoStatsSnapshot,
    /// Engine counters.
    pub db_stats: DbStats,
    /// Live file bytes at the end (Fig 15).
    pub space_bytes: u64,
    /// Bytes pinned in the frozen region at the end (LDC only).
    pub frozen_bytes: u64,
    /// Data-block reads from the device during the measured window (Fig 13).
    pub block_reads: u64,
    /// (category label, fraction of virtual time) — Table I.
    pub time_breakdown: Vec<(&'static str, f64)>,
    /// Structured event timeline for the measured window (flushes, merges,
    /// links, stalls, GC, ...). Empty unless [`StoreConfig::trace_events`].
    pub events: Vec<Event>,
}

impl ExperimentResult {
    /// Compaction bytes (read + write) during the measured window.
    pub fn compaction_io_bytes(&self) -> u64 {
        self.io.compaction_read_bytes() + self.io.compaction_write_bytes()
    }

    /// Throughput in operations per virtual second.
    pub fn throughput(&self) -> f64 {
        self.report.throughput()
    }
}

/// Builds a store from `config`, preloads `spec`, then measures the main
/// window. Deterministic for fixed seeds.
pub fn run_experiment(config: &StoreConfig, spec: &WorkloadSpec) -> ExperimentResult {
    let (db, sink) = config.build();
    let mut adapter = DbAdapter::new(db);
    preload_workload(spec, &mut adapter).expect("preload");
    // Settle any compaction debt from the preload so it cannot pollute the
    // measured window.
    adapter.db_mut().drain_background();

    let device = adapter.db().device().clone();
    let io_before = device.io_stats();
    let misses_before = adapter.db().block_cache_counters().misses;
    device.ledger().reset();

    let clock = device.clock().clone();
    let window_start = clock.now();
    let mut report = run_measured(spec, &mut adapter, &clock).expect("measured run");
    // Pending background work belongs to this window's total time.
    report.duration_nanos += adapter.db_mut().drain_background();

    let io_after = device.io_stats();
    let misses_after = adapter.db().block_cache_counters().misses;
    let ledger = device.ledger();
    let mut time_breakdown: Vec<(&'static str, f64)> = TimeCategory::ALL
        .iter()
        .map(|&c| (c.label(), ledger.fraction(c)))
        .collect();
    // Fold anything unaccounted into "Others".
    let accounted: f64 = time_breakdown.iter().map(|(_, f)| f).sum();
    if let Some(last) = time_breakdown.last_mut() {
        last.1 += (1.0 - accounted).max(0.0);
    }

    ExperimentResult {
        mode: config.mode.clone(),
        report,
        io: io_after.delta_since(&io_before),
        total_io: io_after,
        db_stats: adapter.db().stats(),
        space_bytes: adapter.db().space_bytes(),
        frozen_bytes: adapter.db().engine_ref().version().frozen_bytes(),
        block_reads: misses_after - misses_before,
        time_breakdown,
        events: sink
            .map(|s| {
                s.events()
                    .into_iter()
                    .filter(|e| e.end_nanos >= window_start)
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// Runs the same spec on UDC, then on LDC with the paper's settings, for
/// side-by-side tables.
pub fn run_both(options: &Options, spec: &WorkloadSpec) -> (ExperimentResult, ExperimentResult) {
    let run = |mode| {
        let config = StoreConfig {
            options: options.clone(),
            ..StoreConfig::new(mode)
        };
        run_experiment(&config, spec)
    };
    (
        run(CompactionMode::Udc),
        run(CompactionMode::Ldc(LdcConfig::default())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec::read_write_balanced(2000)
            .with_key_space(1000)
            .with_codec(ldc_workload::KeyCodec::new(16, 128))
    }

    fn quick_options() -> Options {
        Options::small_for_tests()
    }

    #[test]
    fn experiment_collects_all_metrics() {
        let mut config = StoreConfig::new(CompactionMode::Ldc(LdcConfig::default()));
        config.options = quick_options();
        let result = run_experiment(&config, &quick_spec());
        assert_eq!(result.report.ops, 2000);
        assert!(result.throughput() > 0.0);
        assert!(result.io.total_write_bytes() > 0);
        assert!(result.space_bytes > 0);
        let total: f64 = result.time_breakdown.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-6, "fractions sum to {total}");
    }

    #[test]
    fn measured_window_excludes_preload_io() {
        let mut config = StoreConfig::new(CompactionMode::Udc);
        config.options = quick_options();
        let result = run_experiment(&config, &quick_spec());
        assert!(
            result.io.total_write_bytes() < result.total_io.total_write_bytes(),
            "window should exclude preload traffic"
        );
    }

    #[test]
    fn traced_run_exports_measured_window_events() {
        let mut config = StoreConfig::new(CompactionMode::Ldc(LdcConfig::default()));
        config.options = quick_options();
        config.trace_events = true;
        let result = run_experiment(&config, &quick_spec());
        assert!(!result.events.is_empty(), "traced run exported no events");
        assert!(
            result.events.iter().any(|e| e.kind.is_compaction()),
            "timeline has no compaction events"
        );
        // The exported timeline covers only the measured window: every
        // event ends at or after the first one begins, and the preload's
        // flush storm (which dwarfs the window's) is filtered out.
        assert!(
            (result
                .events
                .iter()
                .filter(|e| e.kind == ldc_obs::EventKind::Flush)
                .count() as u64)
                <= result.db_stats.flushes,
            "more flush events than lifetime flushes"
        );
        // Untraced runs stay allocation-free: no events.
        config.trace_events = false;
        assert!(run_experiment(&config, &quick_spec()).events.is_empty());
    }

    #[test]
    fn size_tiered_store_keeps_its_raised_l0_gates() {
        let (db, _) = StoreConfig::new(CompactionMode::SizeTiered).build();
        let o = db.options();
        assert_eq!(
            (
                o.l0_compaction_trigger,
                o.l0_slowdown_threshold,
                o.l0_stop_threshold
            ),
            (4, 60, 100)
        );
        assert_eq!(o.memtable_bytes, paper_scaled_options().memtable_bytes);
    }

    #[test]
    fn run_both_returns_matching_workloads() {
        let (udc, ldc) = run_both(&quick_options(), &quick_spec());
        assert_eq!(udc.mode, CompactionMode::Udc);
        assert_eq!(ldc.mode, CompactionMode::Ldc(LdcConfig::default()));
        assert_eq!(udc.report.ops, ldc.report.ops);
        assert!(udc.db_stats.links == 0);
    }
}
