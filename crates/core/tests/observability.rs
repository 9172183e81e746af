//! End-to-end observability: events from every layer arrive at one sink,
//! the metrics registry tracks levels and latencies, and the stats report
//! reads like LevelDB's `leveldb.stats` property.

use std::sync::Arc;

use ldc_core::{LdcDb, LdcDbBuilder};
use ldc_lsm::Options;
use ldc_obs::{Event, EventKind, OpType, RingBufferSink};

fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (
        format!("key{h:016x}").into_bytes(),
        format!("value-{i:08}-{}", "x".repeat(64)).into_bytes(),
    )
}

fn traced_builder(sink: &Arc<RingBufferSink>) -> LdcDbBuilder {
    LdcDb::builder()
        .options(Options::small_for_tests())
        .event_sink(sink.clone())
}

#[test]
fn compaction_lifecycle_is_traced() {
    let sink = Arc::new(RingBufferSink::new(100_000));
    let db = traced_builder(&sink).build().unwrap();
    for i in 0..6000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.drain_background();
    let events = sink.events();
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();

    let stats = db.stats();
    assert_eq!(count(EventKind::Flush) as u64, stats.flushes);
    assert_eq!(count(EventKind::LdcLink) as u64, stats.links);
    assert_eq!(count(EventKind::LdcMerge) as u64, stats.ldc_merges);
    assert_eq!(count(EventKind::TrivialMove) as u64, stats.trivial_moves);
    assert_eq!(count(EventKind::Slowdown) as u64, stats.slowdowns);
    assert!(
        stats.flushes > 0 && stats.ldc_merges > 0,
        "workload too small: {stats:?}"
    );

    for e in &events {
        assert!(e.end_nanos >= e.start_nanos, "inverted span: {e:?}");
    }
    let flush = events.iter().find(|e| e.kind == EventKind::Flush).unwrap();
    assert_eq!(flush.output_level, Some(0));
    assert!(flush.output_files == 1 && flush.output_bytes > 0);
    assert!(flush.write_nanos > 0 && flush.write_nanos <= flush.duration_nanos());

    let merge = events
        .iter()
        .find(|e| e.kind == EventKind::LdcMerge)
        .unwrap();
    assert_eq!(merge.level, merge.output_level, "LDC merges stay in place");
    assert!(
        merge.input_files >= 2,
        "merge must consume file + slices: {merge:?}"
    );
    assert!(merge.output_bytes > 0 && merge.input_bytes > 0);
    assert_eq!(
        merge.duration_nanos(),
        merge.read_nanos + merge.merge_nanos + merge.write_nanos,
        "phases must partition the span: {merge:?}"
    );

    let link = events
        .iter()
        .find(|e| e.kind == EventKind::LdcLink)
        .unwrap();
    assert_eq!(link.output_level, link.level.map(|l| l + 1));
    assert_eq!(link.output_bytes, 0, "links move no data");
}

#[test]
fn events_survive_a_jsonl_roundtrip() {
    let sink = Arc::new(RingBufferSink::new(100_000));
    let db = traced_builder(&sink).build().unwrap();
    for i in 0..3000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    let events = sink.events();
    assert!(!events.is_empty());
    let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let decoded = ldc_obs::parse_jsonl(&jsonl).expect("self-produced JSONL must parse");
    assert_eq!(decoded, events);
}

#[test]
fn metrics_registry_tracks_levels_and_latencies() {
    let sink = Arc::new(RingBufferSink::new(16));
    let db = traced_builder(&sink).build().unwrap();
    for i in 0..4000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    for i in (0..4000u64).step_by(97) {
        let (k, _) = kv(i);
        db.get(&k).unwrap();
    }
    db.scan(b"", 50).unwrap();
    db.delete(b"gone").unwrap();

    let metrics = db.metrics();
    let stats = db.stats();
    assert_eq!(metrics.latency(OpType::Get).count(), stats.gets);
    assert_eq!(metrics.latency(OpType::Scan).count(), stats.scans);
    assert_eq!(metrics.latency(OpType::Delete).count(), 1);
    assert!(metrics.latency(OpType::Put).count() >= 4000);
    assert!(
        metrics.latency(OpType::Get).percentile(99.0)
            >= metrics.latency(OpType::Get).percentile(50.0)
    );
    assert!(metrics.latency(OpType::Put).mean() > 0.0);

    let gauges = db.level_gauges();
    assert_eq!(gauges.len(), db.engine_ref().version().num_levels());
    let version = db.engine_ref().version();
    for (level, g) in gauges.iter().enumerate() {
        assert_eq!(
            g.files,
            version.level_files(level) as u64,
            "level {level} files"
        );
        assert_eq!(g.bytes, version.level_bytes(level), "level {level} bytes");
    }
    assert!(gauges.iter().any(|g| g.files > 0), "no level has files");
}

#[test]
fn stats_report_reads_like_leveldb() {
    let sink = Arc::new(RingBufferSink::new(16));
    let db = traced_builder(&sink).build().unwrap();
    for i in 0..4000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
        if i % 101 == 0 {
            let (k, _) = kv(i / 2);
            db.get(&k).unwrap();
        }
    }
    let report = db.stats_report();
    for needle in [
        "Level  Files  Size(MB)  Score",
        "Frozen:",
        "Compactions:",
        "Write gates:",
        "Block cache:",
        "Bloom:",
        "Op       Count",
        "get",
        "put",
        "SSD:",
        "Virtual time:",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle:?}:\n{report}"
        );
    }
    // The report is stable against a quiet engine too.
    let quiet = LdcDb::builder().build().unwrap().stats_report();
    assert!(quiet.contains("Virtual time:"));
}

/// Runs an all-write workload, which must pull `T_s` upward one step per
/// window, and checks that `sink` saw each step.
fn assert_adaptation_traced(db: &LdcDb, sink: &RingBufferSink) {
    for i in 0..30_000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    let adapts: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::ThresholdAdapt)
        .collect();
    assert!(!adapts.is_empty(), "no ThresholdAdapt events");
    for e in &adapts {
        assert_ne!(e.input_bytes, e.output_bytes, "no-op adapt event: {e:?}");
        assert!(e.output_bytes >= 1);
    }
    // Steps are one unit per window.
    for e in &adapts {
        let delta = e.output_bytes.abs_diff(e.input_bytes);
        assert_eq!(delta, 1, "adaptation must move one step: {e:?}");
    }
}

fn adaptive_builder() -> LdcDbBuilder {
    LdcDb::builder()
        .options(Options::small_for_tests())
        .adaptive_threshold()
}

#[test]
fn adaptive_threshold_changes_are_traced() {
    let sink = Arc::new(RingBufferSink::new(4096));
    let db = adaptive_builder().event_sink(sink.clone()).build().unwrap();
    assert_adaptation_traced(&db, &sink);
}

#[test]
fn a_sink_attached_after_build_sees_threshold_changes() {
    let mut db = adaptive_builder().build().unwrap();
    let sink = Arc::new(RingBufferSink::new(4096));
    db.set_event_sink(sink.clone());
    assert_adaptation_traced(&db, &sink);
}

#[test]
fn noop_sink_records_nothing_but_metrics_still_work() {
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .build()
        .unwrap();
    for i in 0..2000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    // No sink attached: events are never built, but the registry and the
    // report keep working.
    assert!(db.metrics().latency(OpType::Put).count() >= 2000);
    assert!(db.stats_report().contains("Compactions:"));
    let cache = db.block_cache_counters();
    assert!(cache.hit_rate() >= 0.0 && cache.hit_rate() <= 1.0);
}
