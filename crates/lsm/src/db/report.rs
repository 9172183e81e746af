//! What the engine says about itself: the text reports, the per-level
//! gauges and per-op tracing.

use std::sync::Arc;

use ldc_obs::{Blame, LatencyHistogram, LevelGauge, OpType, Trace, TraceCtx, TraceReservoir};
use ldc_ssd::{Nanos, PAGE_BYTES};

use super::Db;
use crate::options::ENGINE_SEED;
use crate::version::Version;

impl Db {
    /// Files, bytes and compaction score of every level of the current
    /// version, L0 first — computed from the version when asked.
    pub fn level_gauges(&self) -> Vec<LevelGauge> {
        self.gauges_of(&self.version())
    }

    fn gauges_of(&self, version: &Version) -> Vec<LevelGauge> {
        crate::compaction::level_scores(version, &self.options)
            .into_iter()
            .enumerate()
            .map(|(level, score)| LevelGauge {
                files: version.level_files(level) as u64,
                bytes: version.level_bytes(level),
                score,
            })
            .collect()
    }

    /// A human-readable engine report in the spirit of LevelDB's
    /// `GetProperty("leveldb.stats")`: per-level table, compaction and
    /// write-gate counters, block cache, bloom, latency percentiles, and
    /// the simulated SSD's GC/wear state. A pure read: each number comes
    /// from the one place that keeps it.
    pub fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let (s, version, tables, quarantined, ship, cursor) = {
            let core = self.core.lock();
            (
                self.fold_stats(core.stats),
                Arc::clone(&core.versions.current),
                Arc::clone(&core.tables),
                core.quarantined.clone(),
                core.versions.shipper_stats(),
                core.versions.counters.replication_cursor,
            )
        };
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let ms = |nanos: u64| nanos as f64 / 1e6;
        let mut out = String::new();

        let _ = writeln!(out, "                          Level summary");
        let _ = writeln!(out, "Level  Files  Size(MB)  Score");
        let _ = writeln!(out, "------------------------------");
        for (level, g) in self.gauges_of(&version).iter().enumerate() {
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
            "Open tables: {}, {} opened",
            tables.handles().count(),
            tables.opened(),
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
        if d.transient_retries + d.scrub_blocks_verified > 0 || !quarantined.is_empty() {
            let _ = writeln!(
                out,
                "Degraded: {} transient retries, {} blocks scrubbed \
                 ({} corrupt), {} files quarantined",
                d.transient_retries,
                d.scrub_blocks_verified,
                d.scrub_corruptions,
                quarantined.len()
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

        self.write_latency_table(
            &mut out,
            "Op       Count   Mean(us)    P50(us)    P99(us)  P99.9(us) P99.99(us)",
            |h| {
                let p = |q| h.percentile(q) as f64;
                [h.mean(), p(50.0), p(99.0), p(99.9), p(99.99)]
            },
        );
        self.write_blame_breakdown(&mut out);

        let dev = self.device.snapshot();
        let _ = writeln!(
            out,
            "SSD: {:.1} MB host writes, {:.1} MB GC relocation, {} erases, \
             NAND WA {:.2}, wear {:.2}%",
            mb(dev.ftl.host_pages_written * PAGE_BYTES),
            mb(dev.ftl.gc_pages_relocated * PAGE_BYTES),
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

    /// Appends `header` and one row per op type that recorded a latency:
    /// its count, then the five `columns` (nanoseconds) in microseconds.
    fn write_latency_table(
        &self,
        out: &mut String,
        header: &str,
        columns: fn(&LatencyHistogram) -> [f64; 5],
    ) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "{header}");
        for op in OpType::ALL {
            let h = self.metrics.latency(op);
            if h.count() == 0 {
                continue;
            }
            let _ = write!(out, "{:<6} {:>7}", op.label(), h.count());
            for nanos in columns(&h) {
                let _ = write!(out, "  {:>9.1}", nanos / 1e3);
            }
            let _ = writeln!(out);
        }
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
        self.write_latency_table(
            &mut out,
            "Op       Count     P50(us)    P99(us)  P99.9(us) P99.99(us)    Max(us)",
            |h| {
                let p = |q| h.percentile(q) as f64;
                [p(50.0), p(99.0), p(99.9), p(99.99), h.max() as f64]
            },
        );
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

    /// Enables per-operation tracing with a worst-`k` reservoir per op
    /// type, tie-broken deterministically from the engine seed. Call
    /// before sharing the handle (it takes `&mut self`); with tracing off
    /// the op paths never allocate a context, and even with it on the
    /// tracer only *reads* the virtual clock, so traced and untraced runs
    /// are time-identical.
    pub fn enable_tracing(&mut self, worst_k: usize) {
        self.tracer = Some(Arc::new(TraceReservoir::new(worst_k, ENGINE_SEED)));
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
    pub(super) fn trace_start(&self, op: OpType, now: Nanos) -> Option<TraceCtx> {
        self.tracer.as_ref().map(|_| TraceCtx::new(op, now))
    }

    /// Seals `ctx`, folds its blame breakdown into the metrics registry,
    /// and offers it to the worst-K reservoir.
    pub(super) fn trace_finish(&self, ctx: Option<TraceCtx>, end: Nanos) {
        let Some(ctx) = ctx else { return };
        let Some(tracer) = self.tracer.as_ref() else {
            return;
        };
        let op = ctx.op();
        let trace = ctx.finish(end, tracer.next_op_index(op));
        self.metrics.record_blame(op, &trace.blame_breakdown());
        tracer.offer(trace);
    }
}
