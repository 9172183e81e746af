//! `ldc-bench` — multi-tool entry point.
//!
//! The figure/table reproductions live in `src/bin/` (one binary each;
//! `cargo run -p ldc-bench --bin fig08_tail_latency`). This default binary
//! hosts the deterministic operational subcommands that exercise the
//! engine end to end:
//!
//! ```text
//! cargo run -p ldc-bench -- repair --seed 7
//! cargo run -p ldc-bench -- tail --quick --seed 7
//! ```
//!
//! `repair` drives the full degraded-mode pipeline on a fresh simulated
//! store: run a workload, flip one bit in the largest SSTable, scrub
//! (detect), quarantine (keep serving), `repair_db` (rebuild the manifest,
//! salvage WAL remnants), reopen, and verify every served value against
//! the model. It also proves the transient-read retry budget masks
//! heal-after-N read failures. Exits non-zero on any verification failure,
//! printing the `(seed, plan)` replay recipe.
//!
//! Nothing here reads the host clock: `tail`, `trace-report` and
//! `compaction-backlog` are single-threaded replays stamped off the virtual
//! clock, so same-seed outputs are byte-identical and CI compares them with
//! the files under `crates/bench/golden/`. Host time — throughput, host
//! latency percentiles, threads racing the worker pool — is measured only
//! by the repository benchmark (`benchmark/`, workload `rww-threaded`).

use ldc_bench::cli::{CommonArgs, Flags};
use ldc_bench::prelude::*;
use ldc_chaos::{ChaosConfig, ChaosHarness};
use ldc_core::CompactionMode;
use ldc_core::LdcConfig;

fn usage() -> ! {
    eprintln!("usage: ldc-bench <subcommand> [flags]");
    eprintln!();
    eprintln!("subcommands:");
    eprintln!(
        "  repair            degraded-mode pipeline: scrub -> quarantine -> repair -> verify"
    );
    eprintln!("  backup            checkpoint -> incremental stream -> crash -> restore ->");
    eprintln!("                    verify, plus follower apply-crash recovery, UDC and LDC");
    eprintln!("  compaction-backlog  burst-load a flush/compaction backlog, then drain it:");
    eprintln!("                    L0 backlog, virtual drain time, flushes, compactions,");
    eprintln!("                    UDC vs LDC, single-threaded on the virtual clock");
    eprintln!("                    --det-out PATH [--quick] + common flags");
    eprintln!("  tail              deterministic mixed load, UDC vs LDC: P50..P99.99 +");
    eprintln!("                    per-blame breakdown -> BENCH_tail.json");
    eprintln!("                    [--k N] [--quick] [--out PATH] + common flags");
    eprintln!("  trace-report      same load; renders the worst-K trace reservoir as");
    eprintln!("                    folded stacks [--k N] [--quick] + common flags");
    eprintln!("  ycsb-net          YCSB A-F over loopback TCP against ldc-server, UDC vs");
    eprintln!("                    LDC, closed + open loop -> BENCH_net.json");
    eprintln!("                    [--shards N] [--queue-capacity N] [--rate R]");
    eprintln!("                    [--closed-only] [--quick] [--out PATH] + common flags");
    eprintln!();
    eprintln!("figure binaries live under --bin (e.g. --bin fig08_tail_latency)");
    std::process::exit(2);
}

fn run_repair(args: CommonArgs) -> Result<(), String> {
    let config = ChaosConfig {
        ops: args.ops,
        ..ChaosConfig::quick(args.seed, CompactionMode::Ldc(LdcConfig::default()))
    };
    let harness = ChaosHarness::new(config);

    println!("# degraded-mode pipeline (seed {})", args.seed);

    let transient = harness.run_transient_reads(2).map_err(|f| f.to_string())?;
    println!(
        "transient reads: {} injected failures masked by {} retries",
        transient.injected_failures, transient.retries_recorded
    );
    if transient.injected_failures > 0 && transient.retries_recorded == 0 {
        return Err("transient failures were injected but never retried".to_string());
    }

    let report = harness
        .run_scrub_quarantine_repair()
        .map_err(|f| f.to_string())?;
    println!(
        "bit flip: {} byte {} bit {}",
        report.file, report.offset, report.bit
    );
    if report.detected_at_open {
        println!("detection: reopen refused the corrupt store");
    } else {
        println!(
            "detection: scrub reported {} corruption(s), quarantined {} file(s)",
            report.scrub_corruptions, report.files_quarantined
        );
    }
    println!(
        "repair: kept {} table(s), salvaged {}, quarantined {}, thawed {} frozen, {} WAL record(s)",
        report.repair.tables_kept,
        report.repair.tables_salvaged,
        report.repair.tables_quarantined,
        report.repair.frozen_thawed,
        report.repair.wal_records_salvaged
    );
    println!(
        "verify: {} key(s) surviving, {} lost with the quarantined table",
        report.surviving_keys, report.lost_keys
    );
    if report.surviving_keys == 0 {
        return Err("repair lost every key".to_string());
    }
    println!("OK");
    Ok(())
}

/// The crash-mid-backup pipeline from EXPERIMENTS.md, end to end: profile
/// the backup's op timeline, kill the power inside checkpoint creation and
/// mid-ship, restore (or prove the torn checkpoint is refused), bootstrap
/// a follower from the surviving stream, then crash the follower itself
/// mid-apply and recover it via the documented recipe. Every line prints
/// the `(seed, crash op)` pair that replays it.
fn run_backup(args: CommonArgs) -> Result<(), String> {
    println!("# backup pipeline (seed {})", args.seed);
    for (label, mode) in [
        ("UDC", CompactionMode::Udc),
        ("LDC", CompactionMode::Ldc(LdcConfig::default())),
    ] {
        let config = ChaosConfig {
            ops: args.ops,
            ..ChaosConfig::quick(args.seed, mode)
        };
        let harness = ChaosHarness::new(config);
        let profile = harness.measure_backup_ops().map_err(|f| f.to_string())?;
        println!(
            "## {label}: checkpoint spans storage ops {}..={}, pipeline total {}",
            profile.before_checkpoint + 1,
            profile.checkpoint_done,
            profile.total
        );

        // One point inside checkpoint creation, one just before its
        // completeness marker, one in the shipping workload after it.
        let points = [
            profile.before_checkpoint + 1,
            profile.checkpoint_done.saturating_sub(1),
            (profile.checkpoint_done + profile.total) / 2,
        ];
        let reports = harness
            .backup_crash_sweep(points)
            .map_err(|f| f.to_string())?;
        for r in &reports {
            let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
            println!(
                "crash @{}: {} acked writes, backup {}, restored prefix {}, follower cursor {}",
                r.crash_op,
                r.acked_writes,
                if r.backup_complete {
                    "complete"
                } else {
                    "incomplete (restore refused)"
                },
                opt(r.restored_prefix),
                opt(r.follower_cursor),
            );
            if !r.crashed {
                return Err(format!("{label}: crash point {} never fired", r.crash_op));
            }
        }
        let last = reports.last().expect("sweep over three points");
        if !last.backup_complete || last.restored_prefix.is_none() {
            return Err(format!(
                "{label}: a mid-ship crash must leave a restorable backup"
            ));
        }

        // Follower side: crash the apply path, recover per the recipe
        // (reopen from the durable cursor, or wipe and re-bootstrap), and
        // require catch-up to the full stream a clean run reaches.
        let clean = harness.run_apply_crash(0).map_err(|f| f.to_string())?;
        let applies = harness
            .apply_crash_sweep([3, clean.follower_ops.saturating_sub(5)])
            .map_err(|f| f.to_string())?;
        for r in &applies {
            println!(
                "apply crash @{}: durable cursor {} at crash, {} after recovery (stream {})",
                r.crash_op, r.applied_before_crash, r.final_cursor, clean.final_cursor
            );
            if !r.crashed {
                return Err(format!(
                    "{label}: apply crash point {} never fired",
                    r.crash_op
                ));
            }
            if r.final_cursor != clean.final_cursor {
                return Err(format!(
                    "{label}: follower recovered to cursor {}, clean run reaches {}",
                    r.final_cursor, clean.final_cursor
                ));
            }
        }
    }
    println!(
        "replay: ldc-bench backup --seed {} --ops {} reproduces every line",
        args.seed, args.ops
    );
    println!("OK");
    Ok(())
}

/// Tiny xorshift: seedable uniform key choice for the tail load.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Deterministic read-while-writing mixed load for tail attribution:
/// single-threaded (so the virtual clock is exactly reproducible), one
/// write every fourth op over a preloaded keyspace, uniform point gets in
/// between. Returns the store with tracing still enabled so callers can
/// render reports from its reservoir.
fn run_tail_load(udc: bool, args: &CommonArgs, worst_k: usize) -> Result<LdcDb, String> {
    let mut b = LdcDb::builder()
        .options(paper_scaled_options())
        .trace_worst_k(worst_k);
    if udc {
        b = b.udc_baseline();
    }
    let db = b.build().map_err(|e| e.to_string())?;
    let codec = args.codec();
    let preload = (args.ops / 2).max(1);
    for i in 0..preload {
        db.put(&codec.key(i), &codec.value(i, 0))
            .map_err(|e| format!("preload: {e}"))?;
    }
    db.drain_background();
    // Measure only the mixed phase: preload latencies, blame, and traces
    // are cleared so both modes start from identical accounting.
    db.metrics().reset();
    db.reset_traces();

    let mut rng = args.seed | 1;
    for i in 0..args.ops {
        if i % 4 == 0 {
            let idx = i % preload;
            db.put(&codec.key(idx), &codec.value(idx, 1 + i / preload))
                .map_err(|e| format!("write op {i}: {e}"))?;
        } else {
            let idx = xorshift(&mut rng) % preload;
            db.get_pinned(&codec.key(idx))
                .map_err(|e| format!("read op {i}: {e}"))?;
        }
    }
    Ok(db)
}

/// Emits one mode's JSON object for `BENCH_tail.json`: virtual-clock
/// percentiles through P99.99 plus the per-blame nanosecond breakdown for
/// each op type that ran.
fn tail_mode_json(mode: &str, db: &LdcDb) -> Result<String, String> {
    use ldc_obs::{Blame, OpType};
    // Acceptance invariant: every captured trace's blame buckets must sum
    // to its total latency exactly — attribution may never lose or invent
    // a nanosecond.
    for trace in db.worst_traces() {
        let sum: u64 = trace.blame_breakdown().iter().sum();
        if sum != trace.total {
            return Err(format!(
                "{mode}: trace {} #{} blame sum {} != total {}",
                trace.op.label(),
                trace.op_index,
                sum,
                trace.total
            ));
        }
    }
    let metrics = db.metrics();
    let mut ops = Vec::new();
    for op in OpType::ALL {
        let h = metrics.latency(op);
        if h.count() == 0 {
            continue;
        }
        let blame = metrics.blame_totals(op);
        let blame_fields: Vec<String> = Blame::ALL
            .iter()
            .zip(blame.iter())
            .map(|(b, ns)| format!("\"{}\":{}", b.label(), ns))
            .collect();
        ops.push(format!(
            concat!(
                "\"{}\":{{\"count\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},",
                "\"p999_us\":{:.1},\"p9999_us\":{:.1},\"max_us\":{:.1},",
                "\"blame_ns\":{{{}}}}}"
            ),
            op.label(),
            h.count(),
            h.percentile(50.0) as f64 / 1e3,
            h.percentile(99.0) as f64 / 1e3,
            h.percentile(99.9) as f64 / 1e3,
            h.percentile(99.99) as f64 / 1e3,
            h.max() as f64 / 1e3,
            blame_fields.join(",")
        ));
    }
    Ok(format!("{{\"mode\":\"{}\",{}}}", mode, ops.join(",")))
}

fn run_tail(args: CommonArgs, worst_k: usize, out: &str) -> Result<(), String> {
    let udc = run_tail_load(true, &args, worst_k)?;
    let ldc = run_tail_load(false, &args, worst_k)?;

    for (mode, db) in [("UDC", &udc), ("LDC", &ldc)] {
        println!("## {mode}");
        print!("{}", db.tail_report());
        println!();
    }

    let json = format!(
        concat!(
            "{{\"bench\":\"tail\",\"ops\":{},\"value_bytes\":{},\"seed\":{},",
            "\"worst_k\":{},\"modes\":[{},{}]}}\n"
        ),
        args.ops,
        args.value_bytes,
        args.seed,
        worst_k,
        tail_mode_json("UDC", &udc)?,
        tail_mode_json("LDC", &ldc)?
    );
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn run_trace_report(args: CommonArgs, worst_k: usize) -> Result<(), String> {
    for udc in [true, false] {
        let db = run_tail_load(udc, &args, worst_k)?;
        let mode = if udc { "UDC" } else { "LDC" };
        println!("## {mode} worst-{worst_k} traces (folded stacks, virtual ns)");
        print!("{}", db.trace_folded_report());
        println!();
    }
    Ok(())
}

/// One mode's backlog burst and drain: overwrite a preloaded keyspace so
/// flush/compaction debt piles up, then drain it. Single-threaded with
/// `background_workers == 0`, everything stamped off the virtual clock —
/// same-seed runs must emit byte-identical JSON.
fn backlog_det_json(udc: bool, args: &CommonArgs) -> Result<String, String> {
    let mode = if udc { "UDC" } else { "LDC" };
    let mut b = LdcDb::builder()
        .options(paper_scaled_options())
        .background_workers(0);
    if udc {
        b = b.udc_baseline();
    }
    let db = b.build().map_err(|e| e.to_string())?;
    let codec = args.codec();
    let preload = args.ops.max(1);
    for i in 0..preload {
        db.put(&codec.key(i), &codec.value(i, 0))
            .map_err(|e| format!("{mode} det preload: {e}"))?;
    }
    db.drain_background();
    let s0 = db.stats();
    for i in 0..args.ops {
        let idx = i % preload;
        db.put(&codec.key(idx), &codec.value(idx, 1 + i / preload))
            .map_err(|e| format!("{mode} det burst: {e}"))?;
    }
    let backlog_l0_files = db.engine_ref().version().levels[0].len();
    let drain_virtual_nanos = db.drain_background();
    let stats = db.stats();
    Ok(format!(
        concat!(
            "{{\"mode\":\"{}\",\"backlog_l0_files\":{},",
            "\"drain_virtual_nanos\":{},\"flushes\":{},\"compactions\":{}}}"
        ),
        mode,
        backlog_l0_files,
        drain_virtual_nanos,
        stats.flushes - s0.flushes,
        (stats.merges + stats.trivial_moves + stats.links + stats.ldc_merges)
            - (s0.merges + s0.trivial_moves + s0.links + s0.ldc_merges),
    ))
}

fn run_backlog(args: CommonArgs, det_out: &str) -> Result<(), String> {
    let det = format!(
        "{{\"bench\":\"compaction-backlog-det\",\"ops\":{},\"value_bytes\":{},\"seed\":{},\"modes\":[{},{}]}}\n",
        args.ops,
        args.value_bytes,
        args.seed,
        backlog_det_json(true, &args)?,
        backlog_det_json(false, &args)?
    );
    std::fs::write(det_out, &det).map_err(|e| format!("writing {det_out}: {e}"))?;
    println!("wrote {det_out} (single-threaded, virtual clock)");
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sub = match args.next() {
        Some(s) => s,
        None => usage(),
    };
    // Every subcommand-specific flag is pulled out here; what is left goes
    // to `CommonArgs`, which rejects anything it does not know.
    let mut flags = Flags::new(args);
    let result = match sub.as_str() {
        "repair" => run_repair(flags.common(400)),
        "backup" => run_backup(flags.common(300)),
        "compaction-backlog" => {
            let det_out: String = flags.value("--det-out").unwrap_or_else(|| usage());
            let ops = if flags.flag("--quick") { 2_000 } else { 20_000 };
            run_backlog(flags.common(ops), &det_out)
        }
        "tail" | "trace-report" => {
            let worst_k = flags.value("--k").unwrap_or(8usize).max(1);
            let out = flags
                .value("--out")
                .unwrap_or_else(|| "BENCH_tail.json".to_string());
            let ops = if flags.flag("--quick") { 2_000 } else { 20_000 };
            let common = flags.common(ops);
            if sub == "tail" {
                run_tail(common, worst_k, &out)
            } else {
                run_trace_report(common, worst_k)
            }
        }
        "ycsb-net" => {
            let shards = flags.value("--shards").unwrap_or(4usize).max(1);
            let queue_capacity = flags.value("--queue-capacity").unwrap_or(64usize).max(1);
            let rate_per_sec = flags.value("--rate").unwrap_or(20_000.0);
            let closed_only = flags.flag("--closed-only");
            let out = flags
                .value("--out")
                .unwrap_or_else(|| "BENCH_net.json".to_string());
            let ops = if flags.flag("--quick") { 800 } else { 3_000 };
            ldc_bench::run_ycsb_net(&ldc_bench::NetBenchArgs {
                common: flags.common(ops),
                shards,
                queue_capacity,
                rate_per_sec,
                closed_only,
                out,
            })
        }
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown subcommand: {other}");
            usage();
        }
    };
    if let Err(detail) = result {
        eprintln!("{sub} FAILED: {detail}");
        std::process::exit(1);
    }
}
