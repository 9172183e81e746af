//! End-to-end behaviour of the LDC mechanism under real write pressure:
//! link/merge lifecycles, read correctness through slices, recovery of the
//! frozen region, and the headline I/O comparison against UDC.

use std::sync::Arc;

use ldc_core::{LdcDb, LdcPolicy};
use ldc_lsm::compaction::CompactionPolicy;
use ldc_lsm::{Options, WriteBatch};
use ldc_ssd::{MemStorage, SsdConfig, SsdDevice, StorageBackend};

fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    // Spread keys over the space so files overlap like a hashed workload.
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (
        format!("key{h:016x}").into_bytes(),
        format!("value-{i:08}-{}", "x".repeat(64)).into_bytes(),
    )
}

fn ldc_db() -> LdcDb {
    LdcDb::builder()
        .options(Options::small_for_tests())
        .build()
        .unwrap()
}

#[test]
fn ldc_store_serves_reads_after_heavy_writes() {
    let db = ldc_db();
    let n = 5000u64;
    for i in 0..n {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    let stats = db.stats();
    assert!(stats.links > 0, "link phase never ran: {stats:?}");
    assert!(stats.ldc_merges > 0, "merge phase never ran: {stats:?}");
    assert_eq!(stats.merges, 0, "LDC must not run UDC merges");
    for i in (0..n).step_by(131) {
        let (k, v) = kv(i);
        assert_eq!(db.get(&k).unwrap(), Some(v), "key {i} lost");
    }
    db.engine_ref().version().check_invariants().unwrap();
}

#[test]
fn frozen_region_appears_and_drains() {
    let db = ldc_db();
    let mut saw_frozen = false;
    for i in 0..8000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
        if db.engine_ref().version().frozen_files() > 0 {
            saw_frozen = true;
        }
    }
    assert!(saw_frozen, "frozen region never materialized");
    let stats = db.stats();
    // Every link freezes one file; merges reclaim them once drained.
    assert!(stats.ldc_merges > 0);
    let v = db.engine_ref().version();
    // All remaining frozen files are still referenced.
    for frozen in v.frozen.values() {
        assert!(frozen.refcount > 0, "unreferenced frozen file survived");
    }
}

#[test]
fn overwrites_and_deletes_resolve_through_slices() {
    let db = ldc_db();
    // Two full passes over the same keys, then deletes of half of them,
    // with enough churn that many lookups must travel through slices.
    for round in 0..2u64 {
        for i in 0..2500u64 {
            let (k, _) = kv(i);
            db.put(&k, format!("v{round}").as_bytes()).unwrap();
        }
    }
    for i in (0..2500u64).step_by(2) {
        let (k, _) = kv(i);
        db.delete(&k).unwrap();
    }
    // More pressure so tombstones sink through links/merges.
    for i in 10_000..13_000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    for i in (0..2500u64).step_by(97) {
        let (k, _) = kv(i);
        let got = db.get(&k).unwrap();
        if i % 2 == 0 {
            assert_eq!(got, None, "deleted key {i} resurrected");
        } else {
            assert_eq!(got, Some(b"v1".to_vec()), "key {i} stale");
        }
    }
}

#[test]
fn scans_merge_slice_data_correctly() {
    // Sequential keys make level files and slices overlap predictably.
    let db = ldc_db();
    let n = 6000u64;
    for i in 0..n {
        db.put(format!("key{i:08}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    assert!(db.stats().links > 0);
    let results = db.scan(b"key00002000", 200).unwrap();
    assert_eq!(results.len(), 200);
    for (j, (k, v)) in results.iter().enumerate() {
        assert_eq!(k, format!("key{:08}", 2000 + j).as_bytes());
        assert_eq!(v, format!("v{}", 2000 + j).as_bytes());
    }
}

#[test]
fn scan_sees_newest_version_through_slices() {
    let db = ldc_db();
    for round in 0..3u64 {
        for i in 0..2000u64 {
            db.put(
                format!("key{i:08}").as_bytes(),
                format!("round{round}-{i}").as_bytes(),
            )
            .unwrap();
        }
    }
    let results = db.scan(b"key00000500", 50).unwrap();
    assert_eq!(results.len(), 50);
    for (j, (k, v)) in results.iter().enumerate() {
        let i = 500 + j;
        assert_eq!(k, format!("key{i:08}").as_bytes());
        assert_eq!(v, format!("round2-{i}").as_bytes(), "stale value at {i}");
    }
}

#[test]
fn ldc_state_survives_reopen() {
    let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::new(SsdConfig::default()));
    let n = 6000u64;
    {
        let db = LdcDb::builder()
            .options(Options::small_for_tests())
            .storage(Arc::clone(&storage))
            .build()
            .unwrap();
        for i in 0..n {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        let v = db.engine_ref().version();
        assert!(
            v.frozen_files() > 0 || v.total_slice_links() > 0 || db.stats().ldc_merges > 0,
            "test needs live LDC state to be meaningful"
        );
    }
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .storage(storage)
        .build()
        .unwrap();
    db.engine_ref().version().check_invariants().unwrap();
    for i in (0..n).step_by(173) {
        let (k, v) = kv(i);
        assert_eq!(db.get(&k).unwrap(), Some(v), "key {i} after reopen");
    }
    // And the store keeps working with the recovered link state.
    for i in n..n + 2000 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.engine_ref().version().check_invariants().unwrap();
}

#[test]
fn ldc_halves_compaction_io_versus_udc() {
    let run = |udc: bool| {
        let mut builder = LdcDb::builder().options(Options::small_for_tests());
        if udc {
            builder = builder.udc_baseline();
        }
        let db = builder.build().unwrap();
        for i in 0..20_000u64 {
            let (k, v) = kv(i % 8000); // overwrites force real merging
            db.put(&k, &v).unwrap();
        }
        let io = db.device().io_stats();
        io.compaction_read_bytes() + io.compaction_write_bytes()
    };
    let udc_io = run(true);
    let ldc_io = run(false);
    assert!(
        (ldc_io as f64) < 0.75 * udc_io as f64,
        "LDC compaction I/O ({ldc_io}) should be well below UDC ({udc_io})"
    );
}

#[test]
fn ldc_improves_virtual_time_on_write_heavy_load() {
    // Realistic (if scaled) geometry: at the micro test geometry the fixed
    // per-task costs (manifest syncs) swamp the I/O savings.
    let options = Options {
        memtable_bytes: 256 << 10,
        sstable_bytes: 256 << 10,
        l1_capacity_bytes: 1 << 20,
        ..Options::default()
    };
    let run = |udc: bool| {
        let mut builder = LdcDb::builder().options(options.clone());
        if udc {
            builder = builder.udc_baseline();
        }
        let db = builder.build().unwrap();
        // Enough volume that compaction (not the foreground path) is the
        // bottleneck: ~15 MiB ingested over an 8k-key space.
        let value = vec![b'v'; 512];
        for i in 0..30_000u64 {
            let (k, _) = kv(i % 8000);
            db.put(&k, &value).unwrap();
        }
        db.engine_ref().drain_background();
        db.device().clock().now()
    };
    let udc_time = run(true);
    let ldc_time = run(false);
    assert!(
        ldc_time < udc_time,
        "LDC ({ldc_time} ns) should finish before UDC ({udc_time} ns)"
    );
}

#[test]
fn batched_writes_under_ldc() {
    let db = ldc_db();
    for chunk in 0..200u64 {
        let mut batch = WriteBatch::new();
        for j in 0..20 {
            let (k, v) = kv(chunk * 20 + j);
            batch.put(&k, &v);
        }
        db.write(batch).unwrap();
    }
    assert_eq!(db.stats().writes, 4000);
    let (k, v) = kv(1234);
    assert_eq!(db.get(&k).unwrap(), Some(v));
}

#[test]
fn policy_contract_l0_links_oldest_first() {
    // Structural check on the policy itself (the read path depends on it).
    use ldc_lsm::compaction::{CompactionTask, PickContext};
    use ldc_lsm::types::{encode_internal_key, ValueType};
    use ldc_lsm::version::{FileMeta, Version};

    let options = Options::default();
    let pointers = vec![Vec::new(); 4];
    let mut v = Version::new(4);
    for number in [7, 3, 9, 5] {
        v.levels[0].push(FileMeta {
            number,
            size: 1000,
            smallest: encode_internal_key(b"a", 1, ValueType::Value),
            largest: encode_internal_key(b"z", 1, ValueType::Value),
            slices: Vec::new(),
        });
    }
    v.levels[0].sort_by_key(|f| f.number);
    v.levels[1].push(FileMeta {
        number: 100,
        size: 1000,
        smallest: encode_internal_key(b"a", 1, ValueType::Value),
        largest: encode_internal_key(b"z", 1, ValueType::Value),
        slices: Vec::new(),
    });
    let mut policy = LdcPolicy::new();
    let task = policy
        .pick(&PickContext::new(&v, &options, &pointers))
        .unwrap();
    assert_eq!(task, CompactionTask::Link { level: 0, file: 3 });
}
