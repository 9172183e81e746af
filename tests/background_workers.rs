//! Threaded background execution: the `background_workers >= 1` pool must
//! preserve every logical guarantee of the inline pump — same store
//! contents as an unsplit inline run (subcompactions are invisible),
//! checkpoint/scrub safety under concurrent installs, and clean recovery
//! from crashes that tear mid-subcompaction output files.
//!
//! Threaded runs promise linearizability, not timing reproducibility
//! (DESIGN.md §10/§15), so these tests assert values and invariants,
//! never virtual-clock readings.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ldc_chaos::{FaultPlan, FaultStorage};
use ldc_core::{LdcDb, LdcDbBuilder};
use ldc_lsm::{repair_db, Options};
use ldc_obs::{EventKind, RingBufferSink};
use ldc_ssd::{MemStorage, SsdConfig, SsdDevice, StorageBackend, TimeCategory};
use proptest::prelude::*;

fn tiny_options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        l1_capacity_bytes: 16 << 10,
        block_bytes: 1 << 10,
        ..Options::default()
    }
}

fn key(k: u32) -> Vec<u8> {
    // Hash-spread so upper files overlap several lower files and merges
    // have real split boundaries.
    format!("{:08x}", (k as u64).wrapping_mul(0x9e37_79b9)).into_bytes()
}

fn value(k: u32, v: u32) -> Vec<u8> {
    let mut out = format!("v{v:05}k{k:05}").into_bytes();
    out.resize(160, b'.');
    out
}

fn builder(udc: bool, workers: usize) -> LdcDbBuilder {
    let b = LdcDb::builder()
        .options(tiny_options())
        .background_workers(workers)
        .max_subcompactions(4);
    if udc {
        b.udc_baseline()
    } else {
        b
    }
}

fn build(udc: bool, workers: usize, storage: Option<Arc<dyn StorageBackend>>) -> LdcDb {
    let mut b = builder(udc, workers);
    if let Some(s) = storage {
        b = b.storage(s);
    }
    b.build().expect("open")
}

/// Applies a deterministic workload of puts, overwrites, and deletes and
/// returns the model contents.
fn apply_workload(db: &LdcDb, rounds: u32, keys: u32) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut model = BTreeMap::new();
    for r in 0..rounds {
        for k in 0..keys {
            if (k + r) % 13 == 0 {
                db.delete(&key(k)).unwrap();
                model.remove(&key(k));
            } else {
                db.put(&key(k), &value(k, r)).unwrap();
                model.insert(key(k), value(k, r));
            }
        }
    }
    model
}

/// Full logical contents via an unbounded scan from the empty prefix.
fn contents(db: &LdcDb) -> BTreeMap<Vec<u8>, Vec<u8>> {
    db.scan(b"", usize::MAX).unwrap().into_iter().collect()
}

/// Workers run real flushes and compactions off the write path, and the
/// store ends exactly at the model. The bookkeeping the single install
/// stage owns must come out the same whichever thread drove it: one event
/// per counted task, and the Table-I ledger sees the compaction work.
/// Returns the ledger's `CompactionWork` nanos.
fn smoke(udc: bool, workers: usize) -> u64 {
    let sink = Arc::new(RingBufferSink::new(1 << 16));
    let db = builder(udc, workers)
        .event_sink(sink.clone())
        .build()
        .expect("open");
    let model = apply_workload(&db, 6, 700);
    db.drain_background();
    let stats = db.stats();
    assert!(stats.flushes > 0, "workload must force flushes: {stats:?}");
    let tasks = stats.merges + stats.trivial_moves + stats.links + stats.ldc_merges;
    assert!(tasks > 0, "workload must force compactions: {stats:?}");
    assert_eq!(contents(&db), model);
    db.engine_ref().version().check_invariants().unwrap();

    assert_eq!(sink.dropped(), 0);
    let count = |kinds: &[EventKind]| {
        sink.events()
            .iter()
            .filter(|e| kinds.contains(&e.kind))
            .count() as u64
    };
    assert_eq!(
        count(&[EventKind::Flush]),
        stats.flushes,
        "workers={workers}"
    );
    assert_eq!(
        count(&[
            EventKind::UdcMerge,
            EventKind::LdcMerge,
            EventKind::LdcLink,
            EventKind::TrivialMove
        ]),
        tasks,
        "workers={workers}: {stats:?}"
    );
    db.device().ledger().get(TimeCategory::CompactionWork)
}

/// Flushes and merges run by workers reach the ledger like inline ones.
/// Threaded timing is not reproducible (and concurrent jobs each see the
/// other's clock charges), so only the order of magnitude is compared:
/// before the pipeline was shared, workers booked only their
/// metadata-only tasks — 1/16 of the inline total in LDC, 1/600 in UDC.
fn threaded_smoke(udc: bool) {
    let threaded = smoke(udc, 2);
    let inline = smoke(udc, 0);
    assert!(
        inline > 0,
        "merges ran but the ledger saw no compaction work"
    );
    assert!(
        threaded.saturating_mul(4) >= inline,
        "ledger under-reports threaded compaction: {threaded} ns vs {inline} ns inline"
    );
}

#[test]
fn threaded_smoke_udc() {
    threaded_smoke(true);
}

#[test]
fn threaded_smoke_ldc() {
    threaded_smoke(false);
}

/// The subcompaction boundary contract: a store grown with split merges
/// (workers + max_subcompactions) holds exactly the same logical contents
/// as one grown inline, where every merge is a single unsplit stream.
fn split_matches_unsplit(udc: bool, rounds: u32, keys: u32) {
    let inline_db = build(udc, 0, None);
    let threaded_db = build(udc, 3, None);
    let model = apply_workload(&inline_db, rounds, keys);
    let model2 = apply_workload(&threaded_db, rounds, keys);
    assert_eq!(model, model2);
    inline_db.drain_background();
    threaded_db.drain_background();
    assert_eq!(contents(&inline_db), model, "inline diverged from model");
    assert_eq!(
        contents(&threaded_db),
        model,
        "threaded diverged from model"
    );
    inline_db.engine_ref().version().check_invariants().unwrap();
    threaded_db
        .engine_ref()
        .version()
        .check_invariants()
        .unwrap();
}

#[test]
fn subcompactions_match_inline_udc() {
    split_matches_unsplit(true, 8, 900);
}

#[test]
fn subcompactions_match_inline_ldc() {
    split_matches_unsplit(false, 8, 900);
}

/// `LdcDb::set_event_sink` parks the pool to swap the sink and restarts
/// it. The restarted workers must actually run: a pool that is "active"
/// with no live worker deadlocks the first write gate that waits on it.
#[test]
fn pool_restarts_after_set_event_sink() {
    let mut db = build(true, 2, None);
    let sink = Arc::new(RingBufferSink::new(4096));
    db.set_event_sink(sink.clone());
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        apply_workload(&db, 4, 400);
        db.drain_background();
        // Ignored on purpose: the receiver is gone only if it timed out.
        let _ = done.send(db.stats());
    });
    let stats = finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("writes hung: the restarted pool has no live workers");
    assert!(stats.flushes > 0 && stats.merges > 0, "{stats:?}");
    assert!(sink.events().iter().any(|e| e.kind == EventKind::Flush));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Property form of the boundary contract over random workload shapes,
    /// in both compaction modes.
    #[test]
    fn split_merge_equivalence(
        udc in any::<bool>(),
        rounds in 2u32..6,
        keys in 200u32..700,
    ) {
        split_matches_unsplit(udc, rounds, keys);
    }
}

/// A checkpoint taken while workers are mid-compaction must capture every
/// write acknowledged before the checkpoint call, and restore into a
/// consistent store.
#[test]
fn checkpoint_races_threaded_compaction() {
    let db = build(false, 3, None);
    let before = apply_workload(&db, 4, 600);
    // Kick off a fresh burst so compactions are in flight while the
    // checkpoint's flush phase runs.
    let ckpt = std::thread::scope(|s| {
        let db = &db;
        s.spawn(move || {
            for k in 0..600u32 {
                db.put(&key(k + 10_000), &value(k, 99)).unwrap();
            }
        });
        db.checkpoint("racy").unwrap()
    });
    assert!(ckpt.files_linked > 0);
    db.drain_background();

    // Restore into a fresh store and verify the pre-checkpoint state.
    let restored_storage: Arc<dyn StorageBackend> =
        MemStorage::new(SsdDevice::new(SsdConfig::default()));
    ldc_lsm::restore_checkpoint(
        db.storage(),
        &ldc_lsm::checkpoint_prefix("racy"),
        &restored_storage,
    )
    .unwrap();
    let restored = build(false, 0, Some(restored_storage));
    restored.engine_ref().version().check_invariants().unwrap();
    for (k, v) in &before {
        assert_eq!(
            restored.get(k).unwrap().as_deref(),
            Some(v.as_slice()),
            "checkpoint lost a pre-checkpoint key"
        );
    }
}

/// Scrubbing while workers install compactions: the pass must never trip
/// over a concurrently reaped file, and a store with no injected faults
/// always scrubs clean.
#[test]
fn scrub_races_threaded_compaction() {
    let db = build(false, 3, None);
    apply_workload(&db, 3, 500);
    std::thread::scope(|s| {
        let db = &db;
        s.spawn(move || {
            for r in 0..4u32 {
                for k in 0..500u32 {
                    db.put(&key(k), &value(k, 10 + r)).unwrap();
                }
            }
        });
        for _ in 0..6 {
            let report = db.scrub().expect("scrub must not race the reaper");
            assert!(report.is_clean(), "no faults injected: {report:?}");
        }
    });
    db.drain_background();
    let report = db.scrub().unwrap();
    assert!(report.is_clean());
    assert!(report.tables_scanned > 0);
}

/// Crash mid-run (including mid-subcompaction chunked writes): after a
/// power cycle and repair, the reopened store must be consistent — no
/// SSTable referenced twice, no orphan files left behind, and every
/// surviving key maps to a value that was actually written.
fn crash_sweep_point(udc: bool, crash_op: u64, seed: u64) {
    let mem: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::new(SsdConfig::default()));
    let fault = FaultStorage::new(mem, FaultPlan::crash_at(seed, crash_op));
    let storage: Arc<dyn StorageBackend> = fault.clone();

    let db = build(udc, 3, Some(Arc::clone(&storage)));
    let mut acked: BTreeMap<Vec<u8>, BTreeSet<Vec<u8>>> = BTreeMap::new();
    'outer: for r in 0..6u32 {
        for k in 0..500u32 {
            match db.put(&key(k), &value(k, r)) {
                Ok(()) => acked.entry(key(k)).or_default().insert(value(k, r)),
                Err(_) => break 'outer, // power went off
            };
        }
    }
    drop(db); // "crash": workers join, nothing is flushed on purpose
    fault.power_cycle().unwrap();

    let repair = repair_db(Arc::clone(&storage), &tiny_options()).unwrap();
    let reopened = build(udc, 0, Some(Arc::clone(&storage)));
    let version = reopened.engine_ref().version();
    version.check_invariants().unwrap();

    // No SSTable may be referenced by two version slots.
    let mut seen = BTreeSet::new();
    for files in &version.levels {
        for f in files {
            assert!(seen.insert(f.number), "file {} referenced twice", f.number);
        }
    }
    for number in version.frozen.keys() {
        assert!(seen.insert(*number), "frozen {number} referenced twice");
    }

    // Surviving values must be values we actually wrote (prefix-of-history
    // consistency; durability of unsynced tails is out of scope here).
    for (k, versions) in &acked {
        if let Some(v) = reopened.get(k).unwrap() {
            assert!(
                versions.contains(&v),
                "key {k:?} holds a value that was never written"
            );
        }
    }

    // Repair reclaimed whatever the crash orphaned; a second pass over the
    // repaired store must find nothing left to do.
    let again = repair_db(Arc::clone(&storage), &tiny_options()).unwrap();
    assert_eq!(
        again.orphans_deleted, 0,
        "first repair (orphans={}) left orphans behind",
        repair.orphans_deleted
    );
}

#[test]
fn crash_mid_subcompaction_sweep_udc() {
    for (i, crash_op) in [120u64, 600, 1800, 4200].into_iter().enumerate() {
        crash_sweep_point(true, crash_op, 0x0BAD_5EED + i as u64);
    }
}

#[test]
fn crash_mid_subcompaction_sweep_ldc() {
    for (i, crash_op) in [120u64, 600, 1800, 4200].into_iter().enumerate() {
        crash_sweep_point(false, crash_op, 0xFEED_BEEF + i as u64);
    }
}
