//! `compare <old.json> <new.json>`: one row per workload and metric.
//!
//! Direction and bound of the end-to-end metrics come from
//! `BENCHMARK.json`; those of the window metrics (end to end in meaning,
//! defined on some workloads only) from [`crate::spec::METRICS`]. Layer
//! metrics have no bound: their rows show what moved, never a verdict.
//!
//! Virtual-clock and count metrics of a deterministic workload carry no
//! noise, so any difference between same-seed files is real: the row says
//! `same` only for bit-equal values and `changed` for a real difference
//! inside the bound. Host metrics are `unchanged` inside the bound, and
//! `unresolved` (not `unchanged`) when either side was disturbed or its
//! round-to-round spread is wider than the bound.

use crate::json::Json;
use crate::spec::{self, Better, Clock, Tier};

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-equal deterministic values.
    Same,
    /// Deterministic values that differ by no more than the bound.
    Changed,
    /// Host values that differ by no more than the bound.
    Unchanged,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Disturbed, or the spread exceeds the bound: no conclusion.
    Unresolved,
    /// One side did not measure the metric.
    Missing,
    /// A layer metric: no bound, no verdict.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Changed => "changed",
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
            Verdict::Info => "",
        }
    }
}

/// One side of a row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Side {
    /// The median.
    pub value: Option<f64>,
    /// Inter-quartile distance over rounds as a share of the median.
    pub spread: Option<f64>,
    /// The workload's row was marked disturbed.
    pub disturbed: bool,
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Direction of improvement.
    pub better: Better,
    /// Share of the old value by which it may get worse; `None` for layer
    /// metrics.
    pub bound: Option<f64>,
    /// No noise allowance: a deterministic workload's virtual or count
    /// metric.
    pub exact: bool,
}

/// Judges one row.
pub fn judge(rule: Rule, old: Side, new: Side) -> Verdict {
    let (Some(a), Some(b)) = (old.value, new.value) else {
        return Verdict::Missing;
    };
    let Some(bound) = rule.bound else {
        return Verdict::Info;
    };
    if rule.exact && a.to_bits() == b.to_bits() {
        return Verdict::Same;
    }
    if !rule.exact {
        let spread = old.spread.unwrap_or(0.0).max(new.spread.unwrap_or(0.0));
        if old.disturbed || new.disturbed || spread > bound {
            return Verdict::Unresolved;
        }
    }
    // By how much `new` is worse, as a share of `old`.
    let worse_by = (a != 0.0).then(|| match rule.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    });
    match worse_by {
        Some(w) if w > bound => Verdict::Worse,
        Some(w) if w < -bound => Verdict::Better,
        // A zero base admits no ratio; a move off zero is left open.
        None if a != b => Verdict::Unresolved,
        _ if rule.exact => Verdict::Changed,
        _ => Verdict::Unchanged,
    }
}

fn side(workload: &Json, metric: &str) -> Side {
    let m = workload.get("metrics").and_then(|m| m.get(metric));
    let field = |name: &str| m.and_then(|m| m.get(name)).and_then(Json::as_f64);
    let value = field("value");
    let spread = match (field("q1"), field("q3"), value) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => Some((q3 - q1) / v.abs()),
        _ => None,
    };
    Side {
        value,
        spread,
        disturbed: workload
            .get("disturbed")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    }
}

/// Direction and bound of `metric` per the contract file and the spec.
fn rule_for(contract: &Json, metric: &spec::Metric, deterministic: bool) -> Rule {
    let listed = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .and_then(|list| {
            list.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric.name))
        });
    let (better, bound) = match listed {
        Some(entry) => (
            match entry.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            },
            entry.get("bound").and_then(Json::as_f64),
        ),
        None => (metric.better, metric.bound),
    };
    Rule {
        better,
        bound,
        exact: deterministic && metric.clock != Clock::Host,
    }
}

/// Compares two result files; prints the table and returns how many rows
/// are worse.
pub fn compare(contract: &Json, old: &Json, new: &Json) -> Result<usize, String> {
    let scale = |j: &Json| j.get("scale").and_then(Json::as_f64);
    let seed = |j: &Json| j.get("seed").and_then(Json::as_f64);
    if scale(old) != scale(new) {
        return Err(format!(
            "the files were run at different scales ({:?} and {:?}); baselines are per scale",
            scale(old),
            scale(new)
        ));
    }
    let same_seed = seed(old) == seed(new);
    if !same_seed {
        println!(
            "note: different seeds; virtual and count metrics are judged by bound, not exactly"
        );
    }
    let workloads = |j: &'_ Json| -> Vec<Json> {
        j.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let new_workloads = workloads(new);
    let mut worse = 0;
    println!(
        "{:<13} {:<38} {:<6} {:>6} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "better", "bound", "old", "new", "new/old"
    );
    for old_w in workloads(old) {
        let Some(name) = old_w.get("name").and_then(Json::as_str) else {
            continue;
        };
        let (Some(w), Some(new_w)) = (
            spec::workload(name),
            new_workloads
                .iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(name)),
        ) else {
            continue;
        };
        for metric in spec::METRICS {
            let gated = matches!(metric.tier, Tier::EndToEnd | Tier::Window);
            if gated && !metric.applies_to(name) {
                continue;
            }
            let rule = rule_for(contract, metric, w.deterministic() && same_seed);
            let (a, b) = (side(&old_w, metric.name), side(new_w, metric.name));
            let verdict = judge(rule, a, b);
            if verdict == Verdict::Missing && !gated {
                continue;
            }
            worse += usize::from(verdict == Verdict::Worse);
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
            // Every ratio with its base: new/old, the base being old.
            let ratio = match (a.value, b.value) {
                (Some(a), Some(b)) if a != 0.0 => format!("{:.4}", b / a),
                _ => "-".to_string(),
            };
            println!(
                "{:<13} {:<38} {:<6} {:>6} {:>16} {:>16} {:>9}  {}",
                name,
                metric.name,
                rule.better.label(),
                rule.bound.map_or("-".to_string(), |b| format!("{b}")),
                format!("{} {}", show(a.value), metric.unit),
                show(b.value),
                ratio,
                verdict.label()
            );
        }
    }
    println!("{worse} worse");
    Ok(worse)
}
