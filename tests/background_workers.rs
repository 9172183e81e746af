//! Threaded background execution: the `background_workers >= 1` pool must
//! preserve every logical guarantee of the inline pump — same store
//! contents as an inline run, checkpoint/scrub safety under concurrent
//! installs, and clean recovery from crashes that tear a worker's output
//! files mid-run.
//!
//! Threaded runs promise linearizability, not timing reproducibility
//! (DESIGN.md §10/§15), so these tests assert values and invariants,
//! never virtual-clock readings.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ldc_chaos::{FaultPlan, FaultStorage};
use ldc_core::{LdcConfig, LdcDb, LdcDbBuilder, LdcPolicy};
use ldc_lsm::compaction::{CompactionPolicy, CompactionTask, PickContext};
use ldc_lsm::{repair_db, Db, Options};
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
    // Hash-spread so upper files overlap several lower files and every
    // merge reads many inputs.
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
        .background_workers(workers);
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

/// The two drivers' contract: a store grown on the worker pool, where
/// jobs on disjoint key ranges run concurrently, holds exactly the same
/// logical contents as one grown inline.
fn pool_matches_inline(udc: bool, rounds: u32, keys: u32) {
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
fn pool_matches_inline_udc() {
    pool_matches_inline(true, 8, 900);
}

#[test]
fn pool_matches_inline_ldc() {
    pool_matches_inline(false, 8, 900);
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

/// LDC, observed: counts the `LdcMerge`s its `pick` returns.
struct CountingPolicy {
    inner: LdcPolicy,
    ldc_merges: Arc<AtomicU64>,
}

impl CompactionPolicy for CountingPolicy {
    fn name(&self) -> &str {
        "counting"
    }

    fn pick(&mut self, ctx: &PickContext<'_>) -> Option<CompactionTask> {
        let task = self.inner.pick(ctx)?;
        if let CompactionTask::LdcMerge { .. } = task {
            self.ldc_merges.fetch_add(1, Ordering::Relaxed);
        }
        Some(task)
    }
}

fn mem_storage() -> Arc<dyn StorageBackend> {
    MemStorage::new(SsdDevice::new(SsdConfig::default()))
}

/// LDC with a frozen-region budget of `space_gc_ratio`: at `0.0` any
/// frozen byte a slice still references is over budget, so `pick` has
/// work until the frozen region is empty; at `1.0` reclamation is off.
fn ldc(space_gc_ratio: f64) -> LdcPolicy {
    LdcPolicy::with_config(LdcConfig {
        space_gc_ratio,
        ..LdcConfig::default()
    })
}

/// What a fresh [`ldc`]`(space_gc_ratio)` picks against the store's
/// current version.
fn picks_now(db: &Db, space_gc_ratio: f64) -> Option<CompactionTask> {
    let version = db.version();
    let pointers = vec![Vec::new(); version.num_levels()];
    ldc(space_gc_ratio).pick(&PickContext::new(&version, db.options(), &pointers))
}

/// A store whose frozen region is over budget with nothing else to do,
/// reopened on a two-worker pool under a [`CountingPolicy`] around
/// [`ldc`]`(0.0)`; returns it with the count of `LdcMerge`s the policy has
/// picked — on this tree every one of them is a reclamation. The caller
/// owns the pool: `shutdown_workers` before dropping.
///
/// The tree is built inline — deterministically — by an LDC policy with
/// reclamation switched off, and drained: three levels, two dozen lower
/// files, a dozen frozen files still pinned by links below `T_s`. Nothing
/// but reclamation will free them (a dozen reclamation merges).
fn over_budget_pool() -> (Arc<Db>, Arc<AtomicU64>) {
    let storage = mem_storage();
    let db = Db::open(
        Arc::clone(&storage),
        Options::small_for_tests(),
        Box::new(ldc(1.0)),
    )
    .expect("open");
    for r in 0..4u32 {
        for k in 0..1500u32 {
            db.put(&key(k), &value(k, r)).unwrap();
            if k % 500 == 499 {
                db.drain_background();
            }
        }
    }
    // Nothing left in the WAL, so the reopen has no recovery flush to add.
    db.flush().unwrap();
    db.drain_background();
    drop(db);
    let ldc_merges = Arc::new(AtomicU64::new(0));
    let policy = CountingPolicy {
        inner: ldc(0.0),
        ldc_merges: Arc::clone(&ldc_merges),
    };
    let options = Options {
        background_workers: 2,
        ..Options::small_for_tests()
    };
    let db = Arc::new(Db::open(storage, options, Box::new(policy)).expect("open"));
    let (needed, reclaim) = (picks_now(&db, 1.0), picks_now(&db, 0.0));
    assert!(
        needed.is_none() && reclaim.is_some() && db.version().frozen_files() >= 10,
        "set-up must leave only reclamation work: {needed:?} {reclaim:?}"
    );
    db.start_workers();
    assert!(db.workers_active());
    (db, ldc_merges)
}

/// "Drained" names the same tree under both drivers: the inline drain pumps
/// `pick` dry, reclamation included, so the pool's drain must not return
/// while the frozen region is still over budget.
#[test]
fn pool_drain_reclaims_the_frozen_region() {
    let (db, ldc_merges) = over_budget_pool();
    db.drain_background();
    assert_eq!(picks_now(&db, 0.0), None, "the inline post-drain condition");
    assert_eq!(db.version().frozen_bytes(), 0);
    assert!(
        ldc_merges.load(Ordering::Relaxed) > 0,
        "the frozen region can only have been emptied by reclamation merges"
    );
    db.version().check_invariants().unwrap();
    db.shutdown_workers();
}

/// Liveness without a write or a drain: a pool started on a tree that has
/// work does it on its own, because starting the pool arms a work hint.
#[test]
fn started_pool_reclaims_without_a_write() {
    let (db, ldc_merges) = over_budget_pool();
    let (done, finished) = std::sync::mpsc::channel();
    let watched = Arc::clone(&db);
    std::thread::spawn(move || {
        while picks_now(&watched, 0.0).is_some() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Ignored on purpose: the receiver is gone only if it timed out.
        let _ = done.send(());
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .unwrap_or_else(|_| {
            panic!(
                "a started pool left work undone with no write to wake it: {:?}",
                picks_now(&db, 0.0)
            )
        });
    assert_eq!(db.version().frozen_bytes(), 0);
    assert!(
        ldc_merges.load(Ordering::Relaxed) > 0,
        "the frozen region can only have been emptied by reclamation merges"
    );
    db.shutdown_workers();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Property form of the pool/inline contract over random workload
    /// shapes, in both compaction modes.
    #[test]
    fn pool_inline_equivalence(
        udc in any::<bool>(),
        rounds in 2u32..6,
        keys in 200u32..700,
    ) {
        pool_matches_inline(udc, rounds, keys);
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

/// Crash mid-run (including mid-table chunked writes): after a
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
fn crash_mid_pool_run_sweep_udc() {
    for (i, crash_op) in [120u64, 600, 1800, 4200].into_iter().enumerate() {
        crash_sweep_point(true, crash_op, 0x0BAD_5EED + i as u64);
    }
}

#[test]
fn crash_mid_pool_run_sweep_ldc() {
    for (i, crash_op) in [120u64, 600, 1800, 4200].into_iter().enumerate() {
        crash_sweep_point(false, crash_op, 0xFEED_BEEF + i as u64);
    }
}
