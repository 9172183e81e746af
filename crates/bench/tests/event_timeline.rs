//! Fig 1's causal claim, as a test: write-latency spikes coincide with
//! compaction activity. We regenerate fig01's manual write-heavy loop at
//! test scale, find the spikiest latency bucket, and assert a merge event
//! (UdcMerge / LdcMerge) overlaps that window — the annotation the figure
//! binary prints is therefore guaranteed to be non-vacuous.

use std::sync::Arc;

use ldc_bench::DbAdapter;
use ldc_core::{CompactionMode, LdcConfig, LdcDb};
use ldc_lsm::Options;
use ldc_obs::{Event, EventKind, RingBufferSink};
use ldc_workload::KvInterface;

const BUCKET_NS: u64 = 10_000_000; // 10 ms (test scale: smaller memtables)
const OPS: u64 = 20_000;

fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (
        format!("key{h:016x}").into_bytes(),
        format!("value-{i:08}-{}", "x".repeat(64)).into_bytes(),
    )
}

/// Drives fig01's 70/30 write-heavy mix, returning the recorded events and
/// the spikiest bucket's `[start, end)` window of virtual time.
fn spike_window(mode: CompactionMode) -> (Vec<Event>, u64, u64) {
    let sink = Arc::new(RingBufferSink::new(1 << 20));
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .mode(mode)
        .event_sink(sink.clone())
        .build()
        .unwrap();
    let clock = db.device().clock().clone();
    let mut adapter = DbAdapter::new(db);

    let window_start = clock.now();
    let mut buckets: Vec<(u128, u64)> = Vec::new(); // (latency sum, writes)
    for i in 0..OPS {
        let (k, v) = kv(i % 4096);
        let t0 = clock.now();
        if i % 10 < 7 {
            adapter.insert(&k, &v).unwrap();
            let bucket = ((clock.now() - window_start) / BUCKET_NS) as usize;
            if buckets.len() <= bucket {
                buckets.resize(bucket + 1, (0, 0));
            }
            buckets[bucket].0 += u128::from(clock.now() - t0);
            buckets[bucket].1 += 1;
        } else {
            adapter.get(&k).unwrap();
        }
    }

    let spike = buckets
        .iter()
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .max_by(|(_, a), (_, b)| (a.0 as f64 / a.1 as f64).total_cmp(&(b.0 as f64 / b.1 as f64)))
        .map(|(i, _)| i)
        .expect("no write buckets");
    let lo = window_start + spike as u64 * BUCKET_NS;
    (sink.events(), lo, lo + BUCKET_NS)
}

#[test]
fn udc_spike_window_overlaps_a_merge_event() {
    let (events, lo, hi) = spike_window(CompactionMode::Udc);
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::UdcMerge && e.overlaps(lo, hi)),
        "no UdcMerge overlaps the spike window [{lo}, {hi})"
    );
}

#[test]
fn ldc_spike_window_overlaps_a_merge_event() {
    let (events, lo, hi) = spike_window(CompactionMode::Ldc(LdcConfig::default()));
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::LdcMerge && e.overlaps(lo, hi)),
        "no LdcMerge overlaps the spike window [{lo}, {hi})"
    );
}
