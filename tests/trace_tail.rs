//! Tail-attribution invariants, end to end.
//!
//! Two properties anchor the tracing layer:
//!
//! 1. **Exact blame accounting** — for any span tree a request can build
//!    (arbitrary nesting, unclosed spans, carve-outs), the per-blame
//!    self-time buckets sum to the trace's total latency *exactly*. The
//!    proptests here drive [`TraceCtx`] through generated operation
//!    sequences; the engine tests check the same invariant on traces the
//!    real read/write paths produced.
//! 2. **Deterministic capture** — the worst-K reservoir is part of the
//!    reproducibility contract: two runs with the same seed and workload
//!    must capture byte-identical reservoirs, and a store built without
//!    tracing must behave identically to one that never heard of it.

use ldc_core::LdcDb;
use ldc_lsm::Options;
use ldc_obs::{Blame, OpType, TraceCtx};
use proptest::prelude::*;

/// One generated step of trace construction.
#[derive(Debug, Clone)]
enum Step {
    /// Open a child span under the innermost open span.
    Enter { blame: usize, dt: u64 },
    /// Close the innermost open span.
    Exit { dt: u64 },
    /// Closed leaf span of the given width.
    Leaf { blame: usize, dt: u64, width: u64 },
    /// Reclassify trailing nanos of the last closed span.
    Carve { blame: usize, nanos: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..Blame::COUNT, 0u64..2_000).prop_map(|(blame, dt)| Step::Enter { blame, dt }),
        (0u64..2_000).prop_map(|dt| Step::Exit { dt }),
        (0..Blame::COUNT, 0u64..2_000, 0u64..2_000).prop_map(|(blame, dt, width)| Step::Leaf {
            blame,
            dt,
            width
        }),
        (0..Blame::COUNT, 0u64..4_000).prop_map(|(blame, nanos)| Step::Carve { blame, nanos }),
    ]
}

proptest! {
    /// Whatever shape the span tree takes — including carves larger than
    /// their parent and spans left open at finish — the blame buckets sum
    /// to the root's duration exactly.
    #[test]
    fn blame_buckets_sum_to_total_for_generated_span_trees(
        start in 0u64..1_000_000,
        steps in prop::collection::vec(step_strategy(), 0..64),
        tail_dt in 0u64..2_000,
    ) {
        let mut now = start;
        let mut ctx = TraceCtx::new(OpType::Get, now);
        for step in steps {
            match step {
                Step::Enter { blame, dt } => {
                    now += dt;
                    ctx.enter(Blame::ALL[blame], "enter", now);
                }
                Step::Exit { dt } => {
                    now += dt;
                    ctx.exit(now);
                }
                Step::Leaf { blame, dt, width } => {
                    now += dt;
                    ctx.span(Blame::ALL[blame], "leaf", now, now + width);
                    now += width;
                }
                Step::Carve { blame, nanos } => {
                    ctx.carve_from_last(Blame::ALL[blame], "carve", nanos);
                }
            }
        }
        now += tail_dt;
        let trace = ctx.finish(now, 0);
        prop_assert_eq!(trace.total, now - start);
        let sum: u64 = trace.blame_breakdown().iter().sum();
        prop_assert_eq!(sum, trace.total, "blame sum must equal total exactly");
    }

    /// Folded stacks carry the same exact accounting: leaf weights are
    /// self-times, so they also sum to the total.
    #[test]
    fn folded_stack_weights_sum_to_total(
        steps in prop::collection::vec(step_strategy(), 0..48),
    ) {
        let mut now = 0u64;
        let mut ctx = TraceCtx::new(OpType::Put, now);
        for step in steps {
            match step {
                Step::Enter { blame, dt } => {
                    now += dt;
                    ctx.enter(Blame::ALL[blame], "enter", now);
                }
                Step::Exit { dt } => {
                    now += dt;
                    ctx.exit(now);
                }
                Step::Leaf { blame, dt, width } => {
                    now += dt;
                    ctx.span(Blame::ALL[blame], "leaf", now, now + width);
                    now += width;
                }
                Step::Carve { blame, nanos } => {
                    ctx.carve_from_last(Blame::ALL[blame], "carve", nanos);
                }
            }
        }
        let trace = ctx.finish(now + 1, 0);
        let folded: u64 = trace.folded_stacks().iter().map(|(_, w)| w).sum();
        prop_assert_eq!(folded, trace.total);
    }
}

/// Runs a small deterministic mixed workload against a traced store.
fn traced_run() -> LdcDb {
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .trace_worst_k(6)
        .build()
        .expect("open");
    for i in 0..400u64 {
        let key = format!("key{:05}", i % 97);
        if i % 3 == 0 {
            db.put(key.as_bytes(), vec![b'v'; 128].as_slice()).unwrap();
        } else {
            db.get(key.as_bytes()).unwrap();
        }
        if i % 31 == 0 {
            db.scan(key.as_bytes(), 5).unwrap();
        }
    }
    db
}

#[test]
fn engine_traces_blame_sums_equal_total_exactly() {
    let db = traced_run();
    let worst = db.worst_traces();
    assert!(!worst.is_empty(), "reservoir captured nothing");
    for trace in &worst {
        let sum: u64 = trace.blame_breakdown().iter().sum();
        assert_eq!(
            sum,
            trace.total,
            "trace {} #{} lost nanoseconds in attribution",
            trace.op.label(),
            trace.op_index
        );
        let span_count = trace.spans.len();
        assert!(span_count >= 1, "root span missing");
    }
}

#[test]
fn same_seed_reruns_reproduce_the_reservoir_byte_identically() {
    let render = |db: &LdcDb| {
        let mut out = String::new();
        for t in db.worst_traces() {
            out.push_str(&format!(
                "{} #{} total={}\n",
                t.op.label(),
                t.op_index,
                t.total
            ));
            for s in &t.spans {
                out.push_str(&format!(
                    "  {} {} {}..{} parent={}\n",
                    s.blame.label(),
                    s.label,
                    s.start,
                    s.end,
                    s.parent
                ));
            }
        }
        out.push_str(&db.trace_folded_report());
        out.push_str(&db.tail_report());
        out
    };
    let a = traced_run();
    let b = traced_run();
    let ra = render(&a);
    assert_eq!(ra, render(&b), "same seed must reproduce the reservoir");
    assert!(!ra.is_empty());
}

#[test]
fn tracing_off_store_knows_nothing_of_traces() {
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .build()
        .expect("open");
    db.put(b"k", b"v").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    assert!(db.worst_traces().is_empty());
    assert!(db.trace_folded_report().is_empty());
    // Blame totals stay zero: nothing traced, nothing attributed.
    let totals = db.metrics().blame_totals(OpType::Get);
    assert_eq!(totals.iter().sum::<u64>(), 0);
}

#[test]
fn reset_traces_clears_reservoir_and_restarts_op_indices() {
    let db = traced_run();
    assert!(!db.worst_traces().is_empty());
    db.reset_traces();
    assert!(db.worst_traces().is_empty());
    db.put(b"after-reset", b"v").unwrap();
    let worst = db.worst_traces();
    assert_eq!(worst.len(), 1);
    assert_eq!(worst[0].op_index, 0, "arrival counters must restart");
}

/// Threaded-mode writes: stall time spent parked on the worker pool's
/// gates lands in the `worker_queue` blame bucket, and the exact-sum
/// invariant holds for traces produced by the threaded write path too.
#[test]
fn threaded_writes_attribute_stalls_to_worker_queue() {
    let db = LdcDb::builder()
        .options(Options {
            memtable_bytes: 4 << 10,
            sstable_bytes: 4 << 10,
            l1_capacity_bytes: 16 << 10,
            block_bytes: 1 << 10,
            ..Options::small_for_tests()
        })
        .background_workers(1)
        .trace_worst_k(8)
        .build()
        .expect("open");

    // Hammer one lagging worker until a write actually parks on a gate
    // (bounded so a fast machine can't spin forever).
    let value = vec![b'w'; 512];
    let mut stalled = false;
    for i in 0..40_000u64 {
        db.put(format!("key{i:08}").as_bytes(), &value).unwrap();
        if i % 256 == 0 && db.stats().stalls > 0 {
            stalled = true;
            break;
        }
    }
    db.drain_background();

    let worst = db.worst_traces();
    assert!(!worst.is_empty(), "reservoir captured nothing");
    for trace in &worst {
        let sum: u64 = trace.blame_breakdown().iter().sum();
        assert_eq!(
            sum, trace.total,
            "threaded trace lost nanoseconds in attribution"
        );
    }
    assert!(
        stalled,
        "one lagging worker never forced a gate stall in 40k writes"
    );
    if stalled {
        let totals = db.metrics().blame_totals(OpType::Put);
        assert!(
            totals[Blame::WorkerQueue.index()] > 0,
            "stalls recorded ({}) but no worker_queue blame: {totals:?}",
            db.stats().stalls
        );
    }
}
