//! Rounds at `--scale 0.02`: every workload emits every metric declared for
//! it, the deterministic workloads repeat exactly, and tracing changes
//! nothing it measures.

use std::collections::BTreeMap;

use ldc_benchmark::json::Json;
use ldc_benchmark::round::{run_round, RoundConfig, RoundOutput};
use ldc_benchmark::run::{aggregate, driver_line};
use ldc_benchmark::spec::{Clock, Tier, Workload, METRICS, WORKLOADS};
use ldc_benchmark::tracing::{Root, SAMPLE_EVERY, WORST_K};

const SCALE: f64 = 0.02;

fn round(workload: &'static Workload, seed: u64, traced: bool) -> RoundOutput {
    run_round(&RoundConfig {
        workload,
        seed,
        scale: SCALE,
        traced,
        load_threads: 2,
    })
    .expect("round runs")
}

/// The metrics that must repeat exactly: virtual clock and counts.
fn exact(output: &RoundOutput) -> BTreeMap<&str, Option<u64>> {
    METRICS
        .iter()
        .filter(|m| m.clock != Clock::Host && !matches!(m.tier, Tier::Traced | Tier::Primitive))
        .map(|m| (m.name, output.result.metrics[m.name].map(f64::to_bits)))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_declared_for_it() {
    let primitives = ldc_benchmark::primitives::run();
    for workload in &WORKLOADS {
        let plain = round(workload, 7, false);
        let traced = round(workload, 7, true);
        assert_eq!(plain.result.failed, 0, "{}", workload.name);
        assert_eq!(traced.result.failed, 0, "{}", workload.name);
        for metric in METRICS {
            let source = match metric.tier {
                Tier::Primitive => &primitives,
                // Computed from plain and traced rounds together.
                Tier::Traced if metric.name == "obs.trace_overhead_frac" => continue,
                Tier::Traced => &traced.result.metrics,
                _ => &plain.result.metrics,
            };
            assert!(
                source.contains_key(metric.name),
                "{} does not emit {}",
                workload.name,
                metric.name
            );
        }
        // Nothing undeclared either.
        for name in plain
            .result
            .metrics
            .keys()
            .chain(traced.result.metrics.keys())
        {
            assert!(
                METRICS.iter().any(|m| m.name == name),
                "{name} is not declared"
            );
        }

        let report = aggregate(
            workload,
            std::slice::from_ref(&plain.result),
            std::slice::from_ref(&traced.result),
            &primitives,
        );
        assert!(report.correct(), "{}: {:?}", workload.name, report.problems);
        assert_eq!(report.metrics.len(), METRICS.len());
        // End to end: defined and non-zero on every workload. (Except that
        // the few MB a workload writes at this scale may never reach a
        // compaction: the driver's form refuses a zero rather than print it.)
        let mut zero = false;
        for metric in METRICS.iter().filter(|m| m.tier == Tier::EndToEnd) {
            let value = report.metrics[metric.name].value.expect("measured");
            if metric.name == "compaction_io_amp" && value == 0.0 {
                zero = true;
            } else {
                assert!(value > 0.0, "{} {}", workload.name, metric.name);
            }
        }
        match driver_line(&report, false) {
            Ok(line) => {
                let listed = line.get("metrics").and_then(Json::as_obj).expect("metrics");
                assert_eq!(listed.len(), 7);
                assert!(!zero);
            }
            Err(_) => assert!(zero, "{}", workload.name),
        }
        // The traced form lists every other metric, applicable or not.
        let line = driver_line(&report, true).expect("per-layer metrics never refuse");
        let listed = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(
            listed.len(),
            METRICS.iter().filter(|m| m.tier != Tier::EndToEnd).count()
        );
        // What applies to the workload was measured (percentiles beyond
        // P99 aside: they need more samples than this scale has).
        for metric in METRICS.iter().filter(|m| m.tier == Tier::Window) {
            if metric.applies_to(workload.name) && !metric.name.contains("_p99") {
                assert!(
                    report.metrics[metric.name].value.is_some(),
                    "{} {}",
                    workload.name,
                    metric.name
                );
            }
        }
    }
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_does_not() {
    for workload in WORKLOADS.iter().filter(|w| w.deterministic()) {
        let first = round(workload, 11, false);
        let again = round(workload, 11, false);
        let other = round(workload, 12, false);
        assert_eq!(exact(&first), exact(&again), "{}", workload.name);
        assert_ne!(exact(&first), exact(&other), "{}", workload.name);
        // The aggregation's own check sees a disagreement.
        let mixed = aggregate(
            workload,
            &[first.result.clone(), other.result.clone()],
            &[],
            &BTreeMap::new(),
        );
        assert!(!mixed.correct(), "{}", workload.name);
    }
}

#[test]
fn tracing_storage_is_transparent() {
    for workload in WORKLOADS.iter().filter(|w| w.deterministic()) {
        let plain = round(workload, 5, false);
        let traced = round(workload, 5, true);
        // Same clock, same bytes by class, same FTL state, same wear.
        assert_eq!(
            format!("{:?}", plain.device),
            format!("{:?}", traced.device),
            "{}",
            workload.name
        );
        assert_eq!(exact(&plain), exact(&traced), "{}", workload.name);
    }
}

#[test]
fn self_time_and_child_spans_add_up_to_the_op_spans() {
    for workload in &WORKLOADS {
        let trace = round(workload, 3, true)
            .trace
            .expect("a traced round has a trace");
        for (root, totals) in &trace.ops {
            assert_eq!(
                totals.self_ns + totals.child_ns,
                totals.span_ns,
                "{} {root:?}",
                workload.name
            );
            // The children booked per (call, class) are the same children.
            assert_eq!(
                trace.storage(|r, _| r == *root).ns,
                totals.child_ns,
                "{} {root:?}",
                workload.name
            );
        }
        // Only the engine's own threads hang off the bg root.
        if workload.deterministic() {
            assert_eq!(
                trace.storage(|r, _| r == Root::Bg).count,
                0,
                "{}",
                workload.name
            );
        }
        // Kept trees: the worst K per op type plus the sample, each child
        // inside its parent.
        for root in [Root::Put, Root::Get, Root::Scan, Root::Drain] {
            let kept = trace.trees.iter().filter(|t| t.root == root);
            let unsampled = kept
                .clone()
                .filter(|t| !t.index.is_multiple_of(SAMPLE_EVERY))
                .count();
            assert!(unsampled <= WORST_K, "{} {root:?}", workload.name);
            for tree in kept {
                for child in &tree.children {
                    assert!(tree.start_ns <= child.start_ns && child.end_ns <= tree.end_ns);
                }
            }
        }
        // The trace file is one JSON document per line.
        for line in trace
            .to_jsonl(Json::obj([("workload", Json::Str(workload.name.into()))]))
            .lines()
        {
            Json::parse(line).expect("a JSON line");
        }
    }
}
