//! Full-stack chaos tests: deterministic crash points, bit flips, and
//! injected I/O errors driven through `ldc-chaos`, for both the LDC
//! mechanism and the UDC baseline.
//!
//! Every run derives from a pinned seed; a failure's panic message
//! carries the `(seed, crash point)` replay recipe. To replay locally:
//!
//! ```text
//! ChaosHarness::new(ChaosConfig::quick(SEED, mode)).run_crash_point(K)
//! ```

use std::sync::Arc;

use proptest::prelude::*;

use ldc::lsm::db::Db;
use ldc::ssd::{IoClass, MemStorage, SsdDevice, StorageBackend};
use ldc::{CompactionMode, LdcConfig, LdcDb, LdcPolicy, Options};
use ldc_chaos::{
    BitFlipOutcome, BitFlipTarget, ChaosConfig, ChaosHarness, FaultPlan, FaultStorage,
};

fn mode(ldc: bool) -> CompactionMode {
    if ldc {
        CompactionMode::Ldc(LdcConfig::default())
    } else {
        CompactionMode::Udc
    }
}

fn harness(seed: u64, ldc: bool) -> ChaosHarness {
    ChaosHarness::new(ChaosConfig::quick(seed, mode(ldc)))
}

/// Crash points to test for one workload: the first few storage ops (db
/// creation and first appends) plus points spread across the whole run.
fn sweep_points(total_ops: u64) -> Vec<u64> {
    let mut points: Vec<u64> = (1..=6).collect();
    let step = (total_ops / 12).max(1);
    points.extend((1..=12).map(|i| i * step));
    points.push(total_ops + 100); // past the end: no crash fires
    points
}

fn run_sweep(ldc: bool, seed: u64) {
    let h = harness(seed, ldc);
    let total = h.measure_storage_ops().unwrap_or_else(|f| panic!("{f}"));
    let reports = h
        .crash_sweep(sweep_points(total))
        .unwrap_or_else(|f| panic!("{f}"));
    // The sweep must include real crashes mid-data, and the past-the-end
    // point must complete the workload.
    assert!(reports.iter().any(|r| r.crashed && r.acked_writes > 0));
    let last = reports.last().unwrap();
    assert!(!last.crashed);
    assert_eq!(last.acked_writes, h.config().ops);
    // Some crash point must exercise torn/un-synced tail discarding.
    assert!(
        reports
            .iter()
            .any(|r| r.crashed && r.power_cycle.bytes_discarded > 0),
        "no crash point discarded un-synced bytes"
    );
}

#[test]
fn crash_sweep_udc() {
    run_sweep(false, 0xC0FFEE);
}

#[test]
fn crash_sweep_ldc() {
    run_sweep(true, 0xC0FFEE);
}

#[test]
fn crash_point_replay_is_deterministic() {
    for ldc in [false, true] {
        let a = harness(7, ldc)
            .run_crash_point(33)
            .unwrap_or_else(|f| panic!("{f}"));
        let b = harness(7, ldc)
            .run_crash_point(33)
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a.acked_writes, b.acked_writes);
        assert_eq!(a.power_cycle, b.power_cycle);
        assert_eq!(a.recovery, b.recovery);
    }
}

#[test]
fn bit_flip_in_wal_is_detected_or_masked() {
    for seed in [1u64, 2, 3] {
        for ldc in [false, true] {
            harness(seed, ldc)
                .run_bit_flip(BitFlipTarget::Wal)
                .unwrap_or_else(|f| panic!("{f}"));
        }
    }
}

#[test]
fn bit_flip_in_sstable_never_serves_wrong_data() {
    for seed in [4u64, 5, 6] {
        for ldc in [false, true] {
            let report = harness(seed, ldc)
                .run_bit_flip(BitFlipTarget::Sstable)
                .unwrap_or_else(|f| panic!("{f}"));
            // A flipped SSTable bit always lands in some checksummed
            // region, so the damage must be *detectable* somewhere even
            // when every point read happens to dodge it.
            let detected = match &report.outcome {
                BitFlipOutcome::DetectedAtOpen(_) => true,
                BitFlipOutcome::Reopened {
                    detected_reads,
                    integrity_ok,
                    ..
                } => *detected_reads > 0 || !integrity_ok,
            };
            assert!(
                detected,
                "sstable flip in {} (byte {}, bit {}) went undetected",
                report.file, report.offset, report.bit
            );
        }
    }
}

#[test]
fn bit_flip_in_manifest_is_detected_or_masked() {
    for seed in [8u64, 9, 10] {
        for ldc in [false, true] {
            harness(seed, ldc)
                .run_bit_flip(BitFlipTarget::Manifest)
                .unwrap_or_else(|f| panic!("{f}"));
        }
    }
}

#[test]
fn injected_io_errors_fail_stop_and_recover() {
    for ldc in [false, true] {
        let report = harness(11, ldc)
            .run_io_errors(0.02)
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(report.injected_errors > 0, "no error was injected");
        assert!(report.first_error_op.is_some());
    }
}

/// Mid-log WAL corruption must quarantine the bad log (and everything
/// after it) and recover to the last consistent point in time — here the
/// corruption hits the first record, so that point is "before this log".
#[test]
fn mid_wal_corruption_quarantines_and_recovers_point_in_time() {
    let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
    let options = Options::small_for_tests();
    let open = |storage: &Arc<dyn StorageBackend>| {
        LdcDb::builder()
            .options(options.clone())
            .udc_baseline()
            .storage(Arc::clone(storage))
            .build()
    };
    {
        let db = open(&storage).unwrap();
        for k in 0..10u32 {
            db.put(format!("k{k}").as_bytes(), b"unflushed").unwrap();
        }
    } // crash with all writes in the WAL only
    let log = storage
        .list()
        .into_iter()
        .find(|n| n.ends_with(".log"))
        .expect("a WAL must exist");
    // Corrupt the first record's payload (header is 7 bytes).
    let mut data = storage.read_all(&log, IoClass::Other).unwrap().to_vec();
    data[10] ^= 0xff;
    storage.write_file(&log, &data, IoClass::Other).unwrap();

    let db = open(&storage).unwrap();
    let recovery = db.recovery_summary();
    assert_eq!(
        recovery.records_replayed, 0,
        "corrupt head must stop replay"
    );
    assert_eq!(recovery.files_quarantined, 1);
    assert!(
        storage.list().iter().any(|n| n.ends_with(".quarantined")),
        "bad log must be set aside, not deleted: {:?}",
        storage.list()
    );
    // Point-in-time state: the store is empty, not serving garbage.
    for k in 0..10u32 {
        assert_eq!(db.get(format!("k{k}").as_bytes()).unwrap(), None);
    }
    // And the recovery is reported in the stats block.
    let report = db.stats_report();
    assert!(report.contains("Recovery:"), "{report}");
    assert!(report.contains("1 files quarantined"), "{report}");
}

/// The per-recovery summary line surfaces real counts after a normal
/// (torn-tail) crash recovery.
#[test]
fn recovery_summary_surfaces_in_stats_report() {
    let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
    let open = |storage: &Arc<dyn StorageBackend>| {
        LdcDb::builder()
            .options(Options::small_for_tests())
            .storage(Arc::clone(storage))
            .build()
            .unwrap()
    };
    {
        let db = open(&storage);
        for k in 0..25u32 {
            db.put(format!("key{k:04}").as_bytes(), b"wal-resident")
                .unwrap();
        }
    }
    let db = open(&storage);
    let summary = db.recovery_summary();
    assert_eq!(summary.records_replayed, 25);
    assert!(summary.wals_replayed >= 1);
    let report = db.stats_report();
    assert!(
        report.contains(&format!(
            "Recovery: {} records replayed from {} logs",
            summary.records_replayed, summary.wals_replayed
        )),
        "{report}"
    );
}

/// A store on a fault-injecting storage, filled inline with enough data
/// that a drain still has hundreds of storage ops of flush and compaction
/// debt to work off. The pool (if `workers > 0`) is *not* started: the
/// fill runs on the deterministic inline driver either way, so the op
/// count at which the drain begins is the same for every `plan`.
fn filled_store(plan: FaultPlan, workers: usize) -> (Arc<Db>, Arc<FaultStorage>) {
    let storage = FaultStorage::new(MemStorage::new(SsdDevice::with_defaults()), plan);
    let options = Options {
        background_workers: workers,
        ..Options::small_for_tests()
    };
    let db = Db::open(storage.clone(), options, Box::new(LdcPolicy::new())).unwrap();
    let value = vec![b'v'; 900];
    for k in 0..3_000u32 {
        db.put(format!("key{k:06}").as_bytes(), &value).unwrap();
    }
    assert!(!storage.powered_off(), "the fault fired before the drain");
    (Arc::new(db), storage)
}

/// The fail-stop contract both background drivers owe a drain: whichever
/// storage op fails inside it, the engine latches the error and the next
/// write is refused with it.
fn assert_drain_latched(db: &Db, storage: &FaultStorage, what: &str) {
    assert!(storage.powered_off(), "{what}: the fault never fired");
    let latched = db
        .background_error()
        .unwrap_or_else(|| panic!("{what}: a failed drain left no background error"));
    assert_eq!(db.put(b"after", b"drain"), Err(latched), "{what}");
}

/// Sweeps a power loss over the storage ops one inline drain performs
/// (strided: every point replays the fill). A failed flush write or
/// MANIFEST append inside the drain must fail-stop exactly like one on the
/// commit path.
#[test]
fn failed_drain_latches_inline() {
    let (db, storage) = filled_store(FaultPlan::new(5), 0);
    let first = storage.mutating_ops() + 1;
    db.drain_background();
    let last = storage.mutating_ops();
    assert!(last >= first + 500, "drain did only {first}..={last}");
    for op in (first..=last).step_by(((last - first) / 12) as usize) {
        let (db, storage) = filled_store(FaultPlan::crash_at(5, op), 0);
        db.drain_background();
        assert_drain_latched(&db, &storage, &format!("inline drain, crash at op {op}"));
    }
}

/// The same contract on the worker pool. Op indices are not reproducible
/// once threads run, so one failure early in the drain stands for all.
#[test]
fn failed_drain_latches_threaded() {
    let (_, probe) = filled_store(FaultPlan::new(5), 2);
    let op = probe.mutating_ops() + 40;
    let (db, storage) = filled_store(FaultPlan::crash_at(5, op), 2);
    db.start_workers();
    db.drain_background();
    db.shutdown_workers();
    assert_drain_latched(&db, &storage, &format!("pool drain, crash at op {op}"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Any crash point under any seed recovers to exactly the
    /// acknowledged state (the harness panics with a replay recipe
    /// otherwise). The offline proptest shim generates fresh cases per
    /// run; failures found here get pinned as plain tests.
    #[test]
    fn any_crash_point_recovers_exactly(
        seed in 0u64..1_000,
        crash_op in 1u64..700,
        ldc in any::<bool>(),
    ) {
        let h = ChaosHarness::new(ChaosConfig {
            ops: 150,
            ..ChaosConfig::quick(seed, mode(ldc))
        });
        let report = h.run_crash_point(crash_op);
        prop_assert!(report.is_ok(), "{}", report.err().unwrap());
    }
}
