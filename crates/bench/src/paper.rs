//! The paper's evaluation (§IV) as one table: every figure, table and
//! ablation this reproduction regenerates, each a function that prints its
//! tables to the caller's writer.
//!
//! `ldc-bench paper [--only ID]` runs them. The output of each entry at its
//! default op count and seed `0x5eed` is committed as
//! `crates/bench/golden/paper/<id>.txt`, and CI's `paper-golden` job `cmp`s
//! a fresh run against every file.

use std::collections::BTreeMap;
use std::io::{self, Write};

use ldc_core::model::{self, ModelParams};
use ldc_core::{CompactionMode, LdcConfig};
use ldc_lsm::Options;
use ldc_obs::Event;
use ldc_ssd::IoClass;
use ldc_workload::{
    preload_workload, run_measured, run_workload, Distribution, Histogram, KeyCodec, KvInterface,
    WorkloadSpec,
};

use crate::adapter::DbAdapter;
use crate::cli::{mib, print_table, CommonArgs, Flags};
use crate::experiment::{
    mode_label, paper_scaled_options, run_both, run_experiment, ExperimentResult, StoreConfig,
};

/// Prints one experiment's tables and commentary.
pub type RunFn = fn(&CommonArgs, &mut dyn Write) -> io::Result<()>;

/// One experiment of the paper's evaluation.
pub struct Figure {
    /// Stable name: the golden's file stem and the value `--only` takes.
    pub id: &'static str,
    /// Measured operations when neither `--ops` nor `--scale` is given.
    pub default_ops: u64,
    /// Prints the experiment's tables and commentary.
    pub run: RunFn,
}

impl Figure {
    const fn new(id: &'static str, default_ops: u64, run: RunFn) -> Self {
        Self {
            id,
            default_ops,
            run,
        }
    }
}

/// Every experiment, in the order `ldc-bench paper` prints them.
pub const FIGURES: &[Figure] = &[
    Figure::new("fig01_latency_fluctuation", 60_000, fig01),
    Figure::new("table1_time_breakdown", 100_000, table1),
    Figure::new("fig07_fanout_udc", 30_000, fig07),
    Figure::new("fig08_tail_latency", 80_000, fig08),
    Figure::new("fig09_avg_latency", 50_000, fig09),
    Figure::new("fig10a_throughput_get", 50_000, fig10a),
    Figure::new("fig10b_throughput_scan", 20_000, fig10b),
    Figure::new("fig10c_compaction_io", 50_000, fig10c),
    Figure::new("fig11_distributions", 40_000, fig11),
    Figure::new("fig12ad_slicelink_threshold", 30_000, fig12ad),
    Figure::new("fig12be_fanout_sweep", 30_000, fig12be),
    Figure::new("fig12cf_bloom_sweep", 30_000, fig12cf),
    Figure::new("fig13_bloom_accuracy", 30_000, fig13),
    Figure::new("fig14_scalability", 20_000, fig14),
    Figure::new("fig15_space", 20_000, fig15),
    Figure::new("abl_adaptive_threshold", 25_000, abl_adaptive_threshold),
    Figure::new("abl_model_check", 40_000, abl_model_check),
    Figure::new("abl_lazy_tiered", 50_000, abl_lazy_tiered),
    Figure::new("abl_read_amplification", 20_000, abl_read_amplification),
];

/// Runs the entry named `only`, or every entry in table order, each with
/// `flags` parsed against its own default op count. The output of a full
/// run is the goldens concatenated in table order.
pub fn run_paper(only: Option<&str>, flags: &Flags, out: &mut dyn Write) -> Result<(), String> {
    let figures: Vec<&Figure> = match only {
        Some(id) => vec![FIGURES.iter().find(|f| f.id == id).ok_or_else(|| {
            let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
            format!("no figure `{id}`; ids: {}", ids.join(", "))
        })?],
        None => FIGURES.iter().collect(),
    };
    for f in figures {
        let args = flags.clone().common(f.default_ops);
        (f.run)(&args, out).map_err(|e| format!("{}: {e}", f.id))?;
    }
    Ok(())
}

/// LDC with `config`, on the paper-scaled geometry.
fn ldc(config: LdcConfig) -> StoreConfig {
    StoreConfig::new(CompactionMode::Ldc(config))
}

/// `f(ldc / udc)` as a one-decimal percentage, or `-` when UDC moved no
/// compaction bytes in the window (a run too short for UDC to compact):
/// the ratio has no denominator then.
fn io_ratio(ldc: u64, udc: u64, f: impl Fn(f64) -> f64) -> String {
    if udc == 0 {
        return "-".into();
    }
    format!("{:.1}%", f(ldc as f64 / udc as f64) * 100.0)
}

// --- Fig 1 ---------------------------------------------------------------
//
// "Serious latency fluctuations caused by batched writing." The paper runs
// a mixed YCSB workload on stock LevelDB (UDC) and plots the per-second
// average latency, observing write-latency fluctuation up to ~49x between
// quiet and compaction-heavy intervals. We regenerate the trace under the
// write-heavy mix (the compaction-bound regime at laptop scale) with 100 ms
// buckets, for UDC and — for contrast — LDC. Each bucket row is annotated
// with the compaction events (flush / merge / stall / ...) active during
// that interval, so the causal chain behind every spike is in the output.

const BUCKET_NS: u64 = 100_000_000; // 100 ms

/// Compact per-bucket annotation: "3 flush, 2 udc_merge, 1 stall".
fn describe_events(events: &[Event], start: u64, end: u64) -> String {
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for e in events.iter().filter(|e| e.overlaps(start, end)) {
        *counts.entry(e.kind.label()).or_insert(0) += 1;
    }
    counts
        .iter()
        .map(|(label, n)| format!("{n} {label}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn fig01(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    for mode in [
        CompactionMode::Udc,
        CompactionMode::Ldc(LdcConfig::default()),
    ] {
        let label = mode_label(&mode);
        let spec = args.workload(WorkloadSpec::write_heavy(args.ops));
        let config = StoreConfig {
            trace_events: true,
            ..StoreConfig::new(mode)
        };
        let (db, sink) = config.build();
        let sink = sink.expect("a traced store has a sink");
        let clock = db.device().clock().clone();
        let mut adapter = DbAdapter::new(db);
        preload_workload(&spec, &mut adapter).unwrap();
        adapter.db_mut().drain_background();
        sink.clear(); // the timeline should cover the measured window only

        // Drive the mixed stream by hand so we can bucket write latencies
        // at 100 ms of virtual time.
        let codec = spec.codec.clone();
        let window_start = clock.now();
        let mut buckets: Vec<(u128, u64, u64)> = Vec::new(); // (sum, count, max)
        for i in 0..spec.ops {
            let t0 = clock.now();
            if i % 10 < 7 {
                adapter
                    .insert(&codec.key(i % spec.key_space), &codec.value(i, 1))
                    .unwrap();
            } else {
                adapter.get(&codec.key(i % spec.key_space)).unwrap();
            }
            let latency = clock.now() - t0;
            let bucket = ((clock.now() - window_start) / BUCKET_NS) as usize;
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, (0, 0, 0));
            }
            buckets[bucket].0 += u128::from(latency);
            buckets[bucket].1 += 1;
            buckets[bucket].2 = buckets[bucket].2.max(latency);
        }

        let events = sink.events();
        let rows: Vec<Vec<String>> = buckets
            .iter()
            .enumerate()
            .filter(|(_, (_, n, _))| *n > 0)
            .map(|(i, (sum, n, max))| {
                let lo = window_start + i as u64 * BUCKET_NS;
                vec![
                    format!("{:.1}", i as f64 * 0.1),
                    format!("{:.1}", *sum as f64 / *n as f64 / 1e3),
                    format!("{:.1}", *max as f64 / 1e3),
                    n.to_string(),
                    describe_events(&events, lo, lo + BUCKET_NS),
                ]
            })
            .collect();
        print_table(
            out,
            args.csv,
            &format!(
                "Fig 1 [{label}]: latency per 100ms of virtual time (WH, {} ops)",
                args.ops
            ),
            "virtual second | mean latency (us) | max latency (us) | ops | events active in bucket",
            &rows,
        )?;
        let means: Vec<f64> = buckets
            .iter()
            .filter(|(_, n, _)| *n > 0)
            .map(|(sum, n, _)| *sum as f64 / *n as f64)
            .collect();
        let max = means.iter().cloned().fold(0.0f64, f64::max);
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst_op = buckets.iter().map(|(_, _, m)| *m).max().unwrap_or(0);
        let calm_op = buckets
            .iter()
            .filter(|(_, n, _)| *n > 0)
            .map(|(_, _, m)| *m)
            .min()
            .unwrap_or(0);
        writeln!(
            out,
            "\n{label}: fluctuation extent (max/min bucket mean) = {:.1}x; \
             worst single op {:.1} us vs calmest bucket's worst {:.1} us = {:.0}x  \
             (paper observes up to 49.1x mean fluctuation for stock LevelDB; \
             our scaled memtables bound stalls at ~tens of ms, so the mean \
             dilutes less than at paper scale — the per-op spread carries \
             the signal)\n",
            if min > 0.0 { max / min } else { f64::NAN },
            worst_op as f64 / 1e3,
            calm_op as f64 / 1e3,
            worst_op as f64 / calm_op.max(1) as f64,
        )?;

        // Name the culprits: every compaction event overlapping the
        // spikiest bucket, with its phase breakdown.
        let spike = buckets
            .iter()
            .enumerate()
            .filter(|(_, (_, n, _))| *n > 0)
            .max_by(|(_, a), (_, b)| {
                (a.0 as f64 / a.1 as f64).total_cmp(&(b.0 as f64 / b.1 as f64))
            })
            .map(|(i, _)| i);
        if let Some(i) = spike {
            let lo = window_start + i as u64 * BUCKET_NS;
            let culprits: Vec<&Event> = events
                .iter()
                .filter(|e| e.kind.is_compaction() && e.overlaps(lo, lo + BUCKET_NS))
                .collect();
            if culprits.is_empty() {
                continue; // run too short for any compaction to start
            }
            writeln!(
                out,
                "{label}: events behind the spike at virtual second {:.1}:",
                i as f64 * 0.1
            )?;
            for e in culprits {
                writeln!(
                    out,
                    "  t={:9.4}s  dur={:8.3}ms  {:<12} L{}  {}->{} files  \
                     {:6.2} MiB in  (read {:.1}ms, write {:.1}ms)",
                    (e.start_nanos - window_start) as f64 / 1e9,
                    e.duration_nanos() as f64 / 1e6,
                    e.kind.label(),
                    e.level.map_or_else(|| "-".into(), |l| l.to_string()),
                    e.input_files,
                    e.output_files,
                    e.input_bytes as f64 / 1048576.0,
                    e.read_nanos as f64 / 1e6,
                    e.write_nanos as f64 / 1e6,
                )?;
            }
            writeln!(out)?;
        }
    }
    writeln!(
        out,
        "Expectation: UDC's trace spikes whenever compaction blocks the \
         writer; LDC's trace stays flat because each merge moves O(1) \
         SSTables instead of O(k)."
    )
}

// --- Table I -------------------------------------------------------------
//
// The most time-consuming modules in LevelDB under a pure insertion load.
// The paper profiles 10 M inserts with `perf`: `DoCompactionWork` 61.4 %,
// kernel file-system code 20.9 %, `DoWrite` 8.04 %, everything else 9.66 %.
// We regenerate the breakdown from the engine's virtual-time ledger under
// the same write-only workload.

fn table1(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let spec = args.workload(WorkloadSpec::write_only(args.ops));
    let result = run_experiment(&StoreConfig::new(CompactionMode::Udc), &spec);

    let paper: &[(&str, f64)] = &[
        ("DoCompactionWork", 0.614),
        ("file system", 0.209),
        ("DoWrite", 0.0804),
        ("DoRead", 0.0),
        ("Others", 0.0966),
    ];
    let rows: Vec<Vec<String>> = result
        .time_breakdown
        .iter()
        .map(|(label, fraction)| {
            let paper_value = paper
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| format!("{:.1}%", v * 100.0))
                .unwrap_or_else(|| "-".into());
            vec![
                label.to_string(),
                format!("{:.1}%", fraction * 100.0),
                paper_value,
            ]
        })
        .collect();
    print_table(
        out,
        args.csv,
        &format!("Table I: time breakdown, {} inserts (UDC)", args.ops),
        "module | measured | paper",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: compaction dominates by a wide margin; the write \
         path itself is a small slice."
    )
}

// --- Fig 7 ---------------------------------------------------------------
//
// "Tuning fan-out cannot reduce amplification and promote throughput" (for
// UDC). The paper sweeps the fan-out from 3 to 100 under UDC alone: small
// fan-outs shrink each round but deepen the tree; large ones flatten the
// tree but inflate each round. Either way total compaction I/O stays high.
//
// The paper sweeps 3..100 on a 10+ GB store; at laptop scale, levels beyond
// the data size never fill, so fan-outs above ~25 degenerate to the same
// tree. Figs 7 and 12b/e sweep where the parameter binds, on a finer
// geometry so that at least three levels are full.

const FANOUTS: [u64; 5] = [3, 5, 10, 15, 25];

fn fanout_options(k: u64) -> Options {
    let mut options = paper_scaled_options();
    options.memtable_bytes = 256 << 10;
    options.sstable_bytes = 256 << 10;
    options.l1_capacity_bytes = 1 << 20;
    options.fan_out = k;
    options
}

fn fig07(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for k in FANOUTS {
        let spec = args.workload(WorkloadSpec::read_write_balanced(args.ops));
        let config = StoreConfig {
            options: fanout_options(k),
            ..StoreConfig::new(CompactionMode::Udc)
        };
        let result = run_experiment(&config, &spec);
        // WAL bytes in the measured window approximate the ingested user
        // payload, so total-writes / wal-writes is the window's write
        // amplification.
        let ingested = result.io.write_bytes_for(IoClass::WalWrite).max(1);
        rows.push(vec![
            k.to_string(),
            format!("{:.0}", result.throughput()),
            mib(result.compaction_io_bytes()),
            format!("{:.2}", result.io.lsm_write_amplification(ingested)),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!("Fig 7: UDC fan-out sweep (RWB, {} ops)", args.ops),
        "fan-out | throughput (ops/s) | compaction I/O (MiB) | write amplification",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: no fan-out setting gives UDC both low amplification \
         and high throughput — the motivation for changing the mechanism \
         instead of the parameter."
    )
}

// --- Fig 8 ---------------------------------------------------------------
//
// P90–P99.99 tail latency, UDC vs LDC. Paper headline: P99.9 drops from
// 469.66 µs (UDC) to 179.53 µs (LDC), 2.62x; P99.99 from 2688.23 µs to
// 1305.96 µs. LDC merges O(1) SSTables per round, so the stall any single
// request can absorb shrinks by ~the fan-out. We drive the write-heavy mix:
// at laptop scale it is the one that keeps the device compaction-bound the
// way the paper's 20 M-request run kept its SSD.

fn fig08(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let spec = args.workload(WorkloadSpec::write_heavy(args.ops));
    let (udc, ldc) = run_both(&paper_scaled_options(), &spec);

    let percentiles = [90.0, 95.0, 99.0, 99.9, 99.99];
    let row = |p: String, u: f64, l: f64| {
        vec![
            p,
            format!("{u:.1}"),
            format!("{l:.1}"),
            format!("{:.2}x", u / l.max(1e-9)),
        ]
    };
    let rows: Vec<Vec<String>> = percentiles
        .iter()
        .map(|&p| {
            let u = udc.report.percentile_us(p);
            let l = ldc.report.percentile_us(p);
            row(format!("P{p}"), u, l)
        })
        .collect();
    let headers = "percentile | UDC (us) | LDC (us) | UDC/LDC";
    print_table(
        out,
        args.csv,
        &format!("Fig 8: tail latency, all ops (us), {} mixed ops", args.ops),
        headers,
        &rows,
    )?;

    // The paper's Eq. 3 models the *write* tail specifically: the stall a
    // write absorbs when compaction blocks its memtable rotation.
    let us = |h: &Histogram, p: f64| h.percentile(p) as f64 / 1e3;
    let mut rows: Vec<Vec<String>> = percentiles
        .iter()
        .map(|&p| {
            let (u, l) = (us(&udc.report.writes, p), us(&ldc.report.writes, p));
            row(format!("P{p}"), u, l)
        })
        .collect();
    rows.push(row(
        "max".into(),
        udc.report.writes.max() as f64 / 1e3,
        ldc.report.writes.max() as f64 / 1e3,
    ));
    print_table(
        out,
        args.csv,
        "Fig 8 (write path): write-op tail latency (us)",
        headers,
        &rows,
    )?;
    for r in [&udc, &ldc] {
        writeln!(
            out,
            "{}: write stalls={} (total {:.1} ms, worst-case mean {:.1} us), \
             max write latency {:.1} us, max read latency {:.1} us",
            mode_label(&r.mode),
            r.db_stats.stalls,
            r.db_stats.stall_nanos as f64 / 1e6,
            r.db_stats.stall_nanos as f64 / 1e3 / r.db_stats.stalls.max(1) as f64,
            r.report.writes.max() as f64 / 1e3,
            r.report.reads.max() as f64 / 1e3,
        )?;
    }
    writeln!(
        out,
        "\nPaper reference: P99.9 469.66us (UDC) -> 179.53us (LDC) = 2.62x; \
         P99.99 2688.23us -> 1305.96us."
    )?;
    writeln!(
        out,
        "Expectation: LDC's high percentiles are several times lower; low \
         percentiles are comparable."
    )
}

// --- Fig 9 ---------------------------------------------------------------
//
// Average latency across workload mixes. Paper: LDC's average latency drops
// to 43.3 % of UDC's on write-heavy and 45.6 % on balanced workloads;
// read-heavy is comparable.

fn fig09(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let specs = [
        WorkloadSpec::write_heavy(args.ops),
        WorkloadSpec::read_write_balanced(args.ops),
        WorkloadSpec::read_heavy(args.ops),
    ];
    let mut rows = Vec::new();
    for spec in specs {
        let spec = args.workload(spec);
        let (udc, ldc) = run_both(&paper_scaled_options(), &spec);
        let u = udc.report.mean_latency_us();
        let l = ldc.report.mean_latency_us();
        rows.push(vec![
            spec.name.clone(),
            format!("{u:.1}"),
            format!("{l:.1}"),
            format!("{:.1}%", 100.0 * l / u.max(1e-9)),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!("Fig 9: average latency (us), {} ops per workload", args.ops),
        "workload | UDC (us) | LDC (us) | LDC/UDC",
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper reference: LDC/UDC = 43.3% (WH), 45.6% (RWB), ~100% (RH)."
    )
}

// --- Fig 10 --------------------------------------------------------------
//
// (a) Throughput on point-lookup mixes. Paper: LDC beats UDC by 78.0 % (WO),
// 73.7 % (WH), 80.2 % (RWB), 16 % (RH) and is on par for RO; 56.7 % on
// average across WH/RWB/RH.
// (b) Throughput on range-query mixes. Paper: +86.2 % (SCN-WH), +81.1 %
// (SCN-RWB), +49.1 % (SCN-RH); +72.3 % on average. Scans cover ~100 pairs
// each, so ops/s is lower than (a) by construction.
// (c) Total compaction I/O. Paper: LDC saves ~half of the compaction
// traffic on every workload; under WH, UDC reads/writes 98.78/107.1 GB
// against LDC's 50.38/58.78 GB. On SSDs with bounded write endurance this
// halving directly extends device lifetime.

/// LDC's throughput gain over UDC in percent, and the row that starts
/// `label | UDC ops/s | LDC ops/s | gain`.
fn gain_row(label: String, udc: &ExperimentResult, ldc: &ExperimentResult) -> (f64, Vec<String>) {
    let gain = 100.0 * (ldc.throughput() / udc.throughput() - 1.0);
    let row = vec![
        label,
        format!("{:.0}", udc.throughput()),
        format!("{:.0}", ldc.throughput()),
        format!("{gain:+.1}%"),
    ];
    (gain, row)
}

fn fig10a(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let specs = [
        WorkloadSpec::write_only(args.ops),
        WorkloadSpec::write_heavy(args.ops),
        WorkloadSpec::read_write_balanced(args.ops),
        WorkloadSpec::read_heavy(args.ops),
        WorkloadSpec::read_only(args.ops),
    ];
    let paper = [78.0, 73.7, 80.2, 16.0, 0.0];
    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for (spec, paper_gain) in specs.into_iter().zip(paper) {
        let spec = args.workload(spec);
        let (udc, ldc) = run_both(&paper_scaled_options(), &spec);
        let (gain, mut row) = gain_row(spec.name.clone(), &udc, &ldc);
        if spec.name != "WO" && spec.name != "RO" {
            improvements.push(gain);
        }
        row.push(format!("{paper_gain:+.1}%"));
        rows.push(row);
    }
    print_table(
        out,
        args.csv,
        &format!("Fig 10a: throughput (ops/s), {} ops per workload", args.ops),
        "workload | UDC | LDC | LDC gain | paper gain",
        &rows,
    )?;
    let avg = improvements.iter().sum::<f64>() / improvements.len() as f64;
    writeln!(
        out,
        "\nAverage LDC gain over WH/RWB/RH: {avg:+.1}% (paper: +56.7%). \
         Expectation: big wins on write-containing mixes, parity on RO."
    )
}

fn fig10b(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let specs = [
        WorkloadSpec::scan_write_heavy(args.ops),
        WorkloadSpec::scan_read_write_balanced(args.ops),
        WorkloadSpec::scan_read_heavy(args.ops),
    ];
    let paper = [86.2, 81.1, 49.1];
    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for (spec, paper_gain) in specs.into_iter().zip(paper) {
        let spec = args.workload(spec);
        let (udc, ldc) = run_both(&paper_scaled_options(), &spec);
        let (gain, mut row) = gain_row(spec.name.clone(), &udc, &ldc);
        gains.push(gain);
        row.push(format!("{paper_gain:+.1}%"));
        rows.push(row);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Fig 10b: throughput with range queries (ops/s), {} ops per workload",
            args.ops
        ),
        "workload | UDC | LDC | LDC gain | paper gain",
        &rows,
    )?;
    writeln!(
        out,
        "\nAverage LDC gain: {:+.1}% (paper: +72.3%).",
        gains.iter().sum::<f64>() / gains.len() as f64
    )
}

fn fig10c(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let specs = [
        WorkloadSpec::write_only(args.ops),
        WorkloadSpec::write_heavy(args.ops),
        WorkloadSpec::read_write_balanced(args.ops),
        WorkloadSpec::read_heavy(args.ops),
        WorkloadSpec::scan_read_write_balanced(args.ops / 2),
    ];
    let mut rows = Vec::new();
    for spec in specs {
        let spec = args.workload(spec);
        let (udc, ldc) = run_both(&paper_scaled_options(), &spec);
        rows.push(vec![
            spec.name.clone(),
            mib(udc.io.compaction_read_bytes()),
            mib(udc.io.compaction_write_bytes()),
            mib(ldc.io.compaction_read_bytes()),
            mib(ldc.io.compaction_write_bytes()),
            io_ratio(ldc.compaction_io_bytes(), udc.compaction_io_bytes(), |r| r),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Fig 10c: compaction I/O (MiB), {} ops per workload",
            args.ops
        ),
        "workload | UDC read | UDC write | LDC read | LDC write | LDC/UDC total",
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper reference (WH, GB): UDC 98.78 read / 107.1 write vs LDC \
         50.38 / 58.78 — about half. Expectation: LDC/UDC total near or \
         below ~50-60% on write-containing mixes."
    )
}

// --- Fig 11 --------------------------------------------------------------
//
// Uniform vs Zipf distributions. Paper: both systems speed up as the Zipf
// constant grows (hotter caches, more concentrated compaction), and LDC's
// advantage widens — +38.7 % under uniform up to +67.3 % under Zipf-5 —
// because concentrated writes reach the SliceLink threshold faster.

fn fig11(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let variants = [
        ("uniform", Distribution::Uniform, "+38.7%"),
        ("zipf-1", Distribution::Zipfian { theta: 1.0 }, "-"),
        ("zipf-2", Distribution::Zipfian { theta: 2.0 }, "-"),
        ("zipf-5", Distribution::Zipfian { theta: 5.0 }, "+67.3%"),
    ];
    let mut rows = Vec::new();
    for (label, dist, paper_gain) in variants {
        let spec = args
            .workload(WorkloadSpec::read_write_balanced(args.ops))
            .with_distribution(dist);
        let (udc, ldc) = run_both(&paper_scaled_options(), &spec);
        let mut row = gain_row(label.into(), &udc, &ldc).1;
        row.push(paper_gain.into());
        rows.push(row);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Fig 11: RWB throughput by key distribution, {} ops",
            args.ops
        ),
        "distribution | UDC ops/s | LDC ops/s | LDC gain | paper gain",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: throughput rises with skew for both systems, and \
         LDC's relative gain grows with the Zipf constant."
    )
}

// --- Fig 12 --------------------------------------------------------------
//
// (a)/(d) The SliceLink threshold `T_s`. Paper: the best threshold equals
// the fan-out (10). Small thresholds merge too early (extra lower-level
// I/O per round); very large ones fragment reads across many slices.
// (b)/(e) Fan-out sweep. Paper: LDC wins at every fan-out (by 8.8 % at k=3
// up to 187.9 % at large k); UDC peaks at small fan-outs while LDC peaks
// around k=25, because LDC removes the per-round O(k) penalty.
// (c)/(f) Bloom filter size on a balanced workload. Paper: from 10 to 200
// bits/key neither throughput nor compaction I/O moves much.

fn fig12ad(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for t in [2usize, 5, 10, 15, 20, 30] {
        let spec = args.workload(WorkloadSpec::read_write_balanced(args.ops));
        let config = ldc(LdcConfig {
            slice_link_threshold: Some(t),
            ..LdcConfig::default()
        });
        let result = run_experiment(&config, &spec);
        rows.push(vec![
            t.to_string(),
            format!("{:.0}", result.throughput()),
            mib(result.io.compaction_read_bytes()),
            mib(result.io.compaction_write_bytes()),
            result.db_stats.ldc_merges.to_string(),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Fig 12a/d: SliceLink threshold sweep (RWB, {} ops, fan-out 10)",
            args.ops
        ),
        "T_s | throughput (ops/s) | compaction read (MiB) | compaction write (MiB) | ldc merges",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: compaction I/O falls monotonically as T_s grows \
         (Fig 12d), while throughput peaks near T_s = fan-out = 10 (Fig 12a)."
    )
}

fn fig12be(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for k in FANOUTS {
        let spec = args.workload(WorkloadSpec::read_write_balanced(args.ops));
        let (udc, ldc) = run_both(&fanout_options(k), &spec);
        let mut row = gain_row(k.to_string(), &udc, &ldc).1;
        row.push(mib(udc.compaction_io_bytes()));
        row.push(mib(ldc.compaction_io_bytes()));
        rows.push(row);
    }
    print_table(
        out,
        args.csv,
        &format!("Fig 12b/e: fan-out sweep (RWB, {} ops)", args.ops),
        "fan-out | UDC ops/s | LDC ops/s | LDC gain | UDC compaction (MiB) | LDC compaction (MiB)",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: LDC leads everywhere and its margin grows with \
         fan-out; UDC degrades fastest as k rises (per-round O(k) I/O)."
    )
}

fn fig12cf(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for b in [10usize, 20, 50, 100, 200] {
        let spec = args.workload(WorkloadSpec::read_write_balanced(args.ops));
        let mut options = paper_scaled_options();
        options.bloom_bits_per_key = b;
        let (udc, ldc) = run_both(&options, &spec);
        rows.push(vec![
            b.to_string(),
            format!("{:.0}", udc.throughput()),
            format!("{:.0}", ldc.throughput()),
            mib(udc.compaction_io_bytes()),
            mib(ldc.compaction_io_bytes()),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Fig 12c/f: Bloom bits-per-key sweep (RWB, {} ops)",
            args.ops
        ),
        "bits/key | UDC ops/s | LDC ops/s | UDC compaction (MiB) | LDC compaction (MiB)",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: flat lines — beyond ~10 bits/key extra filter bits \
         buy nothing for either system."
    )
}

// --- Fig 13 --------------------------------------------------------------
//
// Bloom filter accuracy vs size on a read-only workload. Paper: data-block
// reads drop as bits/key grow, flattening around 16 bits/key; the
// per-SSTable filter grows from 11.3 KB at 8 bits/key to 67.3 KB at 128,
// so 8–16 bits/key (~0.5 % of a 2 MB table) is the sweet spot.

fn fig13(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for b in [0usize, 4, 8, 16, 32, 64, 128] {
        let spec = args.workload(WorkloadSpec::read_only(args.ops));
        let mut config = ldc(LdcConfig::default());
        config.options.bloom_bits_per_key = b;
        // No block cache: every needed block is a device read, matching the
        // paper's block-read counting.
        config.options.block_cache_bytes = 0;
        let result = run_experiment(&config, &spec);
        // Filter size for one SSTable at the paper's geometry: 2 MiB of
        // ~1 KiB entries -> ~2048 keys.
        let keys_per_table = config.options.sstable_bytes / (16 + args.value_bytes);
        let filter_kb = (keys_per_table * b) as f64 / 8.0 / 1024.0;
        rows.push(vec![
            b.to_string(),
            result.block_reads.to_string(),
            format!(
                "{:.2}",
                result.block_reads as f64 / result.report.ops as f64
            ),
            format!("{filter_kb:.1}"),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Fig 13: Bloom accuracy, read-only, {} lookups (LDC)",
            args.ops
        ),
        "bits/key | data-block reads | blocks/lookup | filter KB per 2MiB SSTable",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: block reads fall steeply up to ~16 bits/key then \
         flatten at ~1 block per lookup; filter size grows linearly \
         (paper: 11.3 KB at 8 b/k to 67.3 KB at 128 b/k)."
    )
}

// --- Figs 14 and 15 ------------------------------------------------------
//
// 14: scalability with request count. Paper: from 5 M to 30 M requests LDC
// sustains 39–65 % higher throughput and saves 43.3–46.7 % of compaction
// I/O; the advantage does not erode as the store grows.
// 15: space overhead of LDC's delayed slice garbage collection. Paper: the
// frozen region keeps some already-merged slices around, but total space
// lands only 3.37–10.0 % above UDC (6.78 % average), far below the 25 %
// worst-case bound of §III-D.

const SCALE_STEPS: [u64; 6] = [1, 2, 3, 4, 5, 6];

fn fig14(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for m in SCALE_STEPS {
        let ops = args.ops * m;
        let spec = args.workload(WorkloadSpec::read_write_balanced(ops));
        let (udc, ldc) = run_both(&paper_scaled_options(), &spec);
        let mut row = gain_row(ops.to_string(), &udc, &ldc).1;
        row.push(io_ratio(
            ldc.compaction_io_bytes(),
            udc.compaction_io_bytes(),
            |r| 1.0 - r,
        ));
        rows.push(row);
    }
    print_table(
        out,
        args.csv,
        "Fig 14: scalability with request count (RWB)",
        "requests | UDC ops/s | LDC ops/s | LDC gain | compaction I/O saved",
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper reference: +39%..+65% throughput and 43.3%..46.7% I/O \
         savings across 5M-30M requests. Expectation: the gain holds \
         steady (or grows) with scale."
    )
}

fn fig15(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for m in SCALE_STEPS {
        let ops = args.ops * m;
        let spec = args.workload(WorkloadSpec::read_write_balanced(ops));
        // Finer geometry so several levels are genuinely full: the paper's
        // 3-10% overhead is a deep-tree property (pending frozen data is
        // ~one upper level's worth, i.e. ~1/k of the store).
        let mut options = paper_scaled_options();
        options.memtable_bytes = 128 << 10;
        options.sstable_bytes = 128 << 10;
        options.l1_capacity_bytes = 512 << 10;
        let (udc, ldc_default) = run_both(&options, &spec);
        // A second LDC run with a tight frozen-region budget: trades some
        // reclaimed I/O savings for the paper's single-digit space overhead.
        let tight = StoreConfig {
            options,
            ..ldc(LdcConfig {
                space_gc_ratio: 0.10,
                ..LdcConfig::default()
            })
        };
        let ldc_tight = run_experiment(&tight, &spec);
        let overhead = |r: &ExperimentResult| {
            let x = r.space_bytes as f64 / udc.space_bytes.max(1) as f64 - 1.0;
            format!("{:+.2}%", x * 100.0)
        };
        rows.push(vec![
            ops.to_string(),
            mib(udc.space_bytes),
            mib(ldc_default.space_bytes),
            overhead(&ldc_default),
            mib(ldc_default.frozen_bytes),
            overhead(&ldc_tight),
        ]);
    }
    print_table(
        out,
        args.csv,
        "Fig 15: final space consumption (RWB)",
        "requests | UDC (MiB) | LDC (MiB) | LDC overhead | LDC frozen | tight-GC overhead",
        &rows,
    )?;
    writeln!(
        out,
        "\nPaper reference: +3.37%..+10.0% (avg +6.78%). The default GC \
         budget caps the frozen region at the paper's 25% worst-case bound \
         (S III-D); the tight budget (0.10) lands in the paper's measured \
         single-digit range at the cost of some reclaimed-I/O savings — \
         see EXPERIMENTS.md for the tradeoff discussion."
    )
}

// --- Ablation: adaptive T_s ------------------------------------------------
//
// Not a paper figure: checks the design choice (§III-B4) that the threshold
// should track the read/write ratio. A write-heavy phase is followed by a
// read-heavy phase, under (a) fixed small, (b) fixed large, (c) the paper
// default `T_s = k`, and (d) the adaptive controller.

/// Overall virtual-time throughput and compaction bytes across both phases.
fn run_phases(config: &StoreConfig, ops: u64, codec: &KeyCodec, seed: u64) -> (f64, u64) {
    let (db, _) = config.build();
    let device = db.device().clone();
    let mut adapter = DbAdapter::new(db);

    // Phase 1: write-heavy (preloads via the spec).
    let phase1 = WorkloadSpec::write_heavy(ops)
        .with_codec(codec.clone())
        .with_seed(seed);
    run_workload(&phase1, &mut adapter, device.clock()).unwrap();
    // Phase 2: read-heavy over the same population (no second preload).
    let mut phase2 = WorkloadSpec::read_heavy(ops)
        .with_codec(codec.clone())
        .with_seed(seed ^ 1);
    phase2.preload = phase1.preload.max(phase1.key_space);
    phase2.key_space = phase2.preload;
    let report2 = run_measured(&phase2, &mut adapter, device.clock()).unwrap();
    let total_ops = phase1.ops + report2.ops;
    let elapsed = device.clock().now();
    (
        total_ops as f64 * 1e9 / elapsed as f64,
        device.io_stats().compaction_read_bytes() + device.io_stats().compaction_write_bytes(),
    )
}

fn abl_adaptive_threshold(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let codec = args.codec();
    let fixed = |t| {
        ldc(LdcConfig {
            slice_link_threshold: Some(t),
            ..LdcConfig::default()
        })
    };
    let variants = [
        ("fixed T_s=2", fixed(2)),
        ("fixed T_s=20", fixed(20)),
        ("fixed T_s=k (paper default)", ldc(LdcConfig::default())),
        (
            "adaptive",
            ldc(LdcConfig {
                adaptive: true,
                ..LdcConfig::default()
            }),
        ),
        ("UDC baseline", StoreConfig::new(CompactionMode::Udc)),
    ];
    let mut rows = Vec::new();
    for (label, config) in variants {
        let (throughput, compaction_io) = run_phases(&config, args.ops, &codec, args.seed);
        rows.push(vec![
            label.to_string(),
            format!("{throughput:.0}"),
            mib(compaction_io),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Ablation: adaptive T_s under a shifting mix (WH then RH, {} ops each)",
            args.ops
        ),
        "variant | overall throughput (ops/s) | compaction I/O (MiB)",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: the adaptive controller lands at or near the best \
         fixed setting across the phase change, without hand-tuning."
    )
}

// --- Ablation: the analytical model ----------------------------------------
//
// Checks §II-B and §III-C end to end: UDC/LDC write amplification should
// differ by roughly the fan-out (Theorems 2.1 and 3.1), and Eq. (2) should
// predict the measured mixed throughput from the measured read/write rates.

fn abl_model_check(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let spec = args.workload(WorkloadSpec::write_only(args.ops));
    let options = paper_scaled_options();
    let (udc, ldc) = run_both(&options, &spec);

    let waf = |r: &ExperimentResult| {
        let ingested = r.io.write_bytes_for(IoClass::WalWrite).max(1);
        r.io.lsm_write_amplification(ingested)
    };
    let (measured_waf_udc, measured_waf_ldc) = (waf(&udc), waf(&ldc));

    let params = ModelParams {
        fan_out: options.fan_out as f64,
        sstable_bytes: options.sstable_bytes as f64,
        total_bytes: (args.ops * (16 + args.value_bytes as u64)) as f64,
    };
    let rows = vec![
        vec![
            "write amp (UDC)".into(),
            format!("{:.1}", model::write_amp_udc(&params)),
            format!("{measured_waf_udc:.1}"),
        ],
        vec![
            "write amp (LDC)".into(),
            format!("{:.1}", model::write_amp_ldc(&params)),
            format!("{measured_waf_ldc:.1}"),
        ],
        vec![
            "UDC/LDC write-amp ratio".into(),
            format!("{:.1}", options.fan_out as f64),
            format!("{:.1}", measured_waf_udc / measured_waf_ldc),
        ],
    ];
    print_table(
        out,
        args.csv,
        &format!(
            "Model check: Theorems 2.1/3.1 on a write-only load ({} ops)",
            args.ops
        ),
        "quantity | model (order-of) | measured",
        &rows,
    )?;
    writeln!(
        out,
        "\nNote: the theorems are asymptotic per-entry lifetime bounds; at \
         finite scale entries have not yet migrated through every level, so \
         measured values sit below the model. The *ratio* between UDC and \
         LDC is the reproduction target."
    )?;

    // Eq. (2) sanity on a balanced mix.
    let spec = args.workload(WorkloadSpec::read_write_balanced(args.ops / 2));
    let (udc_b, ldc_b) = run_both(&options, &spec);
    let row = |r: &ExperimentResult| {
        let write_rate = 1e9 / r.report.writes.mean().max(1.0);
        let read_rate = 1e9 / r.report.reads.mean().max(1.0);
        vec![
            mode_label(&r.mode).to_string(),
            format!("{:.0}", model::total_throughput(write_rate, read_rate, 0.5)),
            format!("{:.0}", r.throughput()),
        ]
    };
    print_table(
        out,
        args.csv,
        "Model check: Eq. (2) total throughput on RWB",
        "system | Eq. (2) prediction (ops/s) | measured (ops/s)",
        &[row(&udc_b), row(&ldc_b)],
    )
}

// --- Ablation: lazy vs leveled vs LDC --------------------------------------
//
// The paper's motivation (§I): lazy compaction schemes (size-tiered,
// RocksDB universal, dCompaction) can raise throughput over UDC by merging
// bigger batches, but the enlarged compaction granularity makes the tail
// latency worse. LDC is the only point in this design space improving both.
// One write-heavy workload against UDC, size-tiered and LDC: throughput,
// write amplification and the write-path tail.

fn abl_lazy_tiered(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let spec = args.workload(WorkloadSpec::write_heavy(args.ops));
    let modes = [
        ("UDC (leveled)", CompactionMode::Udc),
        ("size-tiered (lazy)", CompactionMode::SizeTiered),
        ("LDC", CompactionMode::Ldc(LdcConfig::default())),
    ];
    let mut rows = Vec::new();
    for (label, mode) in modes {
        let (db, _) = StoreConfig::new(mode).build();
        let clock = db.device().clock().clone();
        let mut adapter = DbAdapter::new(db);
        preload_workload(&spec, &mut adapter).unwrap();
        adapter.db_mut().drain_background();
        let t0 = clock.now();
        let report = run_measured(&spec, &mut adapter, &clock).unwrap();
        adapter.db_mut().drain_background();
        let _ = adapter.scan(b"", 1); // sanity: store still serves reads
        let io = adapter.db().device().io_stats();
        let ingested = io.write_bytes_for(IoClass::WalWrite).max(1);
        let stats = adapter.db().stats();
        let writes = &report.writes;
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", report.ops as f64 * 1e9 / (clock.now() - t0) as f64),
            format!("{:.2}", io.total_write_bytes() as f64 / ingested as f64),
            format!("{:.1}", writes.percentile(99.0) as f64 / 1e3),
            format!("{:.1}", writes.percentile(99.9) as f64 / 1e3),
            format!("{:.1}", writes.max() as f64 / 1e3),
            format!(
                "{:.1}",
                stats.stall_nanos as f64 / 1e6 / stats.stalls.max(1) as f64
            ),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Motivation ablation: lazy vs leveled vs LDC (WH, {} ops)",
            args.ops
        ),
        "system | throughput (ops/s) | write amp | write P99 (us) | write P99.9 (us) | write max (us) | mean stall (ms)",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation (paper §I): size-tiered beats UDC on write amp and \
         throughput but its giant tier merges inflate the write tail; LDC \
         gets the throughput *and* the small tail."
    )
}

// --- Ablation: read amplification ------------------------------------------
//
// Theorems 2.2 / 3.2. LDC's worst-case read amplification is
// `O(k·log_k(n/b) + u)` (a lookup may consult every covering slice) versus
// UDC's `O(log_k(n/b) + u)`, but §III-C argues Bloom filters bring the
// practical value close to UDC's. We measure device block reads per point
// lookup for both systems, with filters on and off, on an identical
// preloaded store with the cache disabled, so every consulted block is a
// device read.

fn abl_read_amplification(args: &CommonArgs, out: &mut dyn Write) -> io::Result<()> {
    let mut rows = Vec::new();
    for (label, mode, bits) in [
        ("UDC, no filters", CompactionMode::Udc, 0),
        (
            "LDC, no filters",
            CompactionMode::Ldc(LdcConfig::default()),
            0,
        ),
        ("UDC, 10 bits/key", CompactionMode::Udc, 10),
        (
            "LDC, 10 bits/key",
            CompactionMode::Ldc(LdcConfig::default()),
            10,
        ),
    ] {
        let spec = WorkloadSpec::read_only(args.ops)
            .with_codec(KeyCodec::new(16, 512))
            .with_seed(args.seed);
        let mut config = StoreConfig::new(mode);
        config.options.bloom_bits_per_key = bits;
        config.options.block_cache_bytes = 0; // count every block read
        let (db, _) = config.build();
        let mut adapter = DbAdapter::new(db);
        preload_workload(&spec, &mut adapter).unwrap();
        adapter.db_mut().drain_background();
        let misses_before = adapter.db().block_cache_counters().misses;
        let clock = adapter.db().device().clock().clone();
        run_measured(&spec, &mut adapter, &clock).unwrap();
        let blocks = adapter.db().block_cache_counters().misses - misses_before;
        let live_slices = adapter.db().engine_ref().version().total_slice_links();
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", blocks as f64 / args.ops as f64),
            live_slices.to_string(),
        ]);
    }
    print_table(
        out,
        args.csv,
        &format!(
            "Read amplification (Theorems 2.2/3.2): device block reads per GET, {} lookups",
            args.ops
        ),
        "configuration | blocks / lookup | live slice links",
        &rows,
    )?;
    writeln!(
        out,
        "\nExpectation: without filters LDC reads notably more blocks per \
         lookup (it must probe covering slices); with 10 bits/key both \
         systems converge near ~1 block per lookup — the paper's §III-C \
         argument that Bloom filters neutralize LDC's read-amplification \
         penalty in practice."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_ratio_has_no_value_when_udc_moved_no_compaction_bytes() {
        assert_eq!(io_ratio(4_555_000, 0, |r| r), "-");
        assert_eq!(io_ratio(0, 0, |r| 1.0 - r), "-");
        assert_eq!(io_ratio(1, 4, |r| r), "25.0%");
        assert_eq!(io_ratio(1, 4, |r| 1.0 - r), "75.0%");
        assert_eq!(io_ratio(0, 4, |r| r), "0.0%");
    }

    #[test]
    fn every_figure_has_one_golden_and_a_unique_id() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/paper");
        let mut goldens: Vec<String> = std::fs::read_dir(dir)
            .expect("golden/paper exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        goldens.sort();
        let mut ids: Vec<String> = FIGURES.iter().map(|f| format!("{}.txt", f.id)).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "duplicate figure id");
        assert_eq!(ids, goldens);
    }

    #[test]
    fn unknown_ids_are_refused_with_the_list() {
        let err = run_paper(Some("fig99"), &Flags::new([]), &mut Vec::new()).unwrap_err();
        assert!(
            err.contains("fig99") && err.contains("fig10a_throughput_get"),
            "{err}"
        );
    }
}
