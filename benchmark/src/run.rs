//! Running workloads: rounds in child processes, their aggregation into
//! one report per workload, and the two output forms (the driver's one-line
//! JSON, and the full table plus `result.json`).
//!
//! Each round is a fresh process, so `peak_rss_mib` and allocator state do
//! not leak from one round into the next. Every round of a run uses the
//! same seed: on the deterministic workloads the virtual-clock and count
//! metrics must come out bit-identical in every round, plain or traced,
//! which the aggregation checks; host metrics are the median over rounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::round::{RoundConfig, RoundResult};
use crate::spec::{Clock, Metric, Tier, Workload, METRICS, STEAL_LIMIT};
use crate::stats::{median, quartiles};

/// When to stop repeating rounds of one kind.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many rounds.
    Rounds(usize),
    /// Once the rounds' measured windows add up to this many seconds.
    Seconds(f64),
}

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Multiplier of every op count.
    pub scale: f64,
    /// Load threads of the threaded workload.
    pub load_threads: usize,
    /// Where trace files and `result.json` go.
    pub out_dir: PathBuf,
}

/// One metric of one workload over a run's rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricValue {
    /// Median over the rounds that measured it; `None` if none did.
    pub value: Option<f64>,
    /// First and third quartile over those rounds (two rounds or more).
    pub quartiles: Option<(f64, f64)>,
    /// How many rounds measured it.
    pub rounds: usize,
}

/// Everything a run learned about one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The workload.
    pub workload: &'static Workload,
    /// Plain and traced rounds aggregated.
    pub rounds: (usize, usize),
    /// Operations issued and keys read back, over all rounds.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// A round stayed above the steal limit even when retried: host
    /// metrics of this row are not to be trusted.
    pub disturbed: bool,
    /// Why the run is not correct (failed ops aside): same-seed rounds
    /// that disagree on a virtual or count metric.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, MetricValue>,
}

impl WorkloadReport {
    /// No op failed and every determinism check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs one round in a child process and reads its result line back.
fn spawn_round(cfg: &RoundConfig, trace_out: Option<&PathBuf>) -> Result<RoundResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("round")
        .args(["--workload", cfg.workload.name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--scale", &cfg.scale.to_string()])
        .args(["--traced", if cfg.traced { "1" } else { "0" }])
        .args(["--load-threads", &cfg.load_threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| format!("start round: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "round of {} ended with {}",
            cfg.workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .and_then(|json| RoundResult::from_json(&json))
        .ok_or_else(|| format!("round of {} printed no result", cfg.workload.name))
}

/// Repeats rounds of one kind until `until`. The first round during which
/// the hypervisor stole more than [`STEAL_LIMIT`] of the CPU time is run
/// again; one retry per call, so that a noisy hour cannot double the run
/// time. Any other disturbed round is kept and sets the flag returned.
fn collect(
    cfg: &RoundConfig,
    until: Until,
    trace_out: Option<&PathBuf>,
) -> Result<(Vec<RoundResult>, bool), String> {
    let mut rounds = Vec::new();
    let mut retried = false;
    let mut disturbed = false;
    let mut measured_s = 0.0;
    loop {
        let mut round = spawn_round(cfg, trace_out)?;
        if round.steal > STEAL_LIMIT && !retried {
            eprintln!(
                "{}: round disturbed ({:.1} % steal), retrying once",
                cfg.workload.name,
                round.steal * 100.0
            );
            retried = true;
            round = spawn_round(cfg, trace_out)?;
        }
        disturbed |= round.steal > STEAL_LIMIT;
        let drain_s = round.metrics.get("lsm.drain_s").copied().flatten();
        let window_s = round.loop_s + drain_s.unwrap_or(0.0);
        measured_s += window_s;
        eprintln!(
            "{} {} round {}: window {window_s:.2} s, steal {:.1} %",
            cfg.workload.name,
            if cfg.traced { "traced" } else { "plain" },
            rounds.len() + 1,
            round.steal * 100.0
        );
        rounds.push(round);
        let done = match until {
            Until::Rounds(n) => rounds.len() >= n,
            Until::Seconds(s) => measured_s >= s,
        };
        if done {
            return Ok((rounds, disturbed));
        }
    }
}

/// Plain rounds until `plain`, then, if `traced` is given, traced rounds
/// until that and the primitives pass; the aggregate of all of it.
pub fn run_workload(
    workload: &'static Workload,
    args: &RunArgs,
    plain: Until,
    traced: Option<Until>,
) -> Result<WorkloadReport, String> {
    let cfg = RoundConfig {
        workload,
        seed: args.seed,
        scale: args.scale,
        traced: false,
        load_threads: args.load_threads,
    };
    let (plain_rounds, mut disturbed) = collect(&cfg, plain, None)?;
    let mut traced_rounds = Vec::new();
    let mut primitives = BTreeMap::new();
    if let Some(until) = traced {
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
        let trace_out = args.out_dir.join(format!("trace-{}.jsonl", workload.name));
        let cfg = RoundConfig {
            traced: true,
            ..cfg
        };
        let (rounds, traced_disturbed) = collect(&cfg, until, Some(&trace_out))?;
        traced_rounds = rounds;
        disturbed |= traced_disturbed;
        primitives = crate::primitives::run();
    }
    let mut report = aggregate(workload, &plain_rounds, &traced_rounds, &primitives);
    report.disturbed = disturbed;
    Ok(report)
}

/// Folds rounds into one report: medians, quartiles, the tracing overhead,
/// and the check that same-seed rounds agree where they must.
pub fn aggregate(
    workload: &'static Workload,
    plain: &[RoundResult],
    traced: &[RoundResult],
    primitives: &BTreeMap<String, Option<f64>>,
) -> WorkloadReport {
    let mut metrics = BTreeMap::new();
    let mut problems = Vec::new();
    let values_of = |rounds: &[RoundResult], name: &str| -> Vec<f64> {
        rounds
            .iter()
            .filter_map(|r| r.metrics.get(name).copied().flatten())
            .collect()
    };
    for metric in METRICS {
        let values = match metric.tier {
            Tier::Primitive => primitives
                .get(metric.name)
                .copied()
                .flatten()
                .into_iter()
                .collect(),
            Tier::Traced if metric.name == "obs.trace_overhead_frac" => {
                let loop_s = |rounds: &[RoundResult]| {
                    median(&rounds.iter().map(|r| r.loop_s).collect::<Vec<_>>())
                };
                match (plain.is_empty(), traced.is_empty()) {
                    (false, false) => vec![loop_s(traced) / loop_s(plain) - 1.0],
                    _ => Vec::new(),
                }
            }
            Tier::Traced => values_of(traced, metric.name),
            _ => values_of(plain, metric.name),
        };
        // Counters and the virtual clock do not depend on the host: on a
        // deterministic workload every same-seed round, traced ones too,
        // must report the very same value.
        if workload.deterministic() && metric.clock != Clock::Host {
            let mut all = values.clone();
            if !matches!(metric.tier, Tier::Traced | Tier::Primitive) {
                all.extend(values_of(traced, metric.name));
            }
            if all.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                problems.push(format!(
                    "{}: same-seed rounds disagree: {all:?}",
                    metric.name
                ));
            }
        }
        metrics.insert(
            metric.name,
            MetricValue {
                value: (!values.is_empty()).then(|| median(&values)),
                quartiles: quartiles(&values),
                rounds: values.len(),
            },
        );
    }
    let all = plain.iter().chain(traced);
    WorkloadReport {
        workload,
        rounds: (plain.len(), traced.len()),
        attempted: all.clone().map(|r| r.attempted).sum(),
        failed: all.map(|r| r.failed).sum(),
        disturbed: false,
        problems,
        metrics,
    }
}

/// The driver's result line: every end-to-end metric of a plain run, or
/// every other metric of a traced run. An end-to-end metric that could not
/// be measured (or measured zero) is an error: the scale is too small for
/// it. A per-layer metric that does not apply reads 0.
pub fn driver_line(report: &WorkloadReport, traced: bool) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for metric in METRICS {
        let is_e2e = metric.tier == Tier::EndToEnd;
        if is_e2e == traced {
            continue;
        }
        let value = report.metrics.get(metric.name).and_then(|m| m.value);
        let value = match (is_e2e, value) {
            (true, Some(v)) if v != 0.0 => v,
            (true, _) => {
                return Err(format!(
                    "{}: {} could not be measured at this scale",
                    report.workload.name, metric.name
                ))
            }
            (false, v) => v.unwrap_or(0.0),
        };
        metrics.push((
            metric.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(metric.unit.into())),
            ]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

fn metric_json(metric: &Metric, value: &MetricValue) -> Json {
    let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj([
        ("value", num(value.value)),
        ("unit", Json::Str(metric.unit.into())),
        ("clock", Json::Str(metric.clock.label().into())),
        ("q1", num(value.quartiles.map(|q| q.0))),
        ("q3", num(value.quartiles.map(|q| q.1))),
        ("rounds", Json::Num(value.rounds as f64)),
    ])
}

/// The result file `compare` reads; `machine` is [`crate::machine::record`].
pub fn result_json(args: &RunArgs, machine: Json, reports: &[WorkloadReport]) -> Json {
    let workloads = reports
        .iter()
        .map(|report| {
            let metrics = METRICS
                .iter()
                .filter_map(|m| Some((m.name, metric_json(m, report.metrics.get(m.name)?))));
            Json::obj([
                ("name", Json::Str(report.workload.name.into())),
                ("disturbed", Json::Bool(report.disturbed)),
                ("rounds_plain", Json::Num(report.rounds.0 as f64)),
                ("rounds_traced", Json::Num(report.rounds.1 as f64)),
                ("ops_attempted", Json::Num(report.attempted as f64)),
                ("ops_failed", Json::Num(report.failed as f64)),
                ("correct", Json::Bool(report.correct())),
                (
                    "problems",
                    Json::Arr(report.problems.iter().cloned().map(Json::Str).collect()),
                ),
                ("metrics", Json::obj(metrics)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("machine", machine),
        ("seed", Json::Num(args.seed as f64)),
        ("scale", Json::Num(args.scale)),
        ("load_threads", Json::Num(args.load_threads as f64)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// The full report of one workload, as text.
pub fn print_report(report: &WorkloadReport) {
    let w = report.workload;
    println!(
        "\n== {} ==  rounds {} plain + {} traced, ops_attempted {}, ops_failed {}{}",
        w.name,
        report.rounds.0,
        report.rounds.1,
        report.attempted,
        report.failed,
        if report.disturbed { ", DISTURBED" } else { "" }
    );
    for problem in &report.problems {
        println!("  PROBLEM {problem}");
    }
    let mut section = "";
    for metric in METRICS {
        let Some(value) = report.metrics.get(metric.name) else {
            continue;
        };
        let (title, shown) = match metric.tier {
            Tier::EndToEnd | Tier::Window => ("end to end", metric.applies_to(w.name)),
            _ => ("per layer", true),
        };
        if !shown {
            continue;
        }
        if title != section {
            println!("  -- {title} --");
            section = title;
        }
        let text = match value.value {
            Some(v) => format!("{v:.6}"),
            // Too few samples beyond the percentile, a ratio over zero, or
            // not part of this run (traced metrics without a traced round).
            None => "-".to_string(),
        };
        let spread = match value.quartiles {
            Some((q1, q3)) if metric.clock == Clock::Host => format!("  [q1 {q1:.6}, q3 {q3:.6}]"),
            _ => String::new(),
        };
        println!(
            "  {:<40} {:>18} {:<6} {}{}",
            metric.name,
            text,
            metric.unit,
            metric.clock.label(),
            spread
        );
    }
}
