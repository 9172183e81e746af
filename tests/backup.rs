//! Integration tests for the backup/replication tier: a restored backup
//! equals the primary's acknowledged model for arbitrary histories, a
//! follower's storage is byte-deterministic across identical runs, and an
//! online checkpoint taken while compactions are in flight snapshots
//! exactly the acknowledged state — in both compaction modes.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use ldc::lsm::{backup_prefix, restore_backup, restore_checkpoint};
use ldc::ssd::{IoClass, MemStorage, SsdConfig, SsdDevice, StorageBackend};
use ldc::sync::Follower;
use ldc::{CompactionMode, LdcConfig, LdcDb, Options};

fn storage() -> Arc<dyn StorageBackend> {
    MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
}

fn tiny_options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        l1_capacity_bytes: 16 << 10,
        block_bytes: 1 << 10,
        ..Options::default()
    }
}

fn modes() -> [CompactionMode; 2] {
    [
        CompactionMode::Udc,
        CompactionMode::Ldc(LdcConfig::default()),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("{:08x}", (k as u64).wrapping_mul(0x9e37_79b9)).into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    let mut out = format!("v{v:03}k{k:05}").into_bytes();
    out.resize(200, b'.');
    out
}

fn full_scan(db: &LdcDb) -> BTreeMap<Vec<u8>, Vec<u8>> {
    db.scan(&[], usize::MAX).unwrap().into_iter().collect()
}

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u16>().prop_map(Op::Delete),
        1 => Just(Op::Flush),
    ]
}

/// Applies `ops` to `db` and the model; `backup_at` starts the stream
/// mid-history so the restore exercises base checkpoint + incremental
/// records together.
fn drive(db: &LdcDb, ops: &[Op], backup_at: usize, model: &mut BTreeMap<Vec<u8>, Vec<u8>>) {
    for (i, op) in ops.iter().enumerate() {
        if i == backup_at {
            db.drain_background();
            db.backup_begin("prop").unwrap();
        }
        match op {
            Op::Put(k, v) => {
                db.put(&key(*k), &value(*k, *v)).unwrap();
                model.insert(key(*k), value(*k, *v));
            }
            Op::Delete(k) => {
                db.delete(&key(*k)).unwrap();
                model.remove(&key(*k));
            }
            Op::Flush => db.flush().unwrap(),
        }
    }
    // The final flush puts every acknowledged write into the version, so
    // the shipped stream captures the entire history.
    db.flush().unwrap();
    db.drain_background();
    db.backup_end().expect("stream was armed");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For arbitrary histories, restoring the backup (base checkpoint +
    /// incremental stream) yields exactly the primary's acknowledged
    /// key space, under both compaction modes.
    #[test]
    fn restore_equals_model(
        ops in prop::collection::vec(op_strategy(), 1..120),
        backup_frac in 0u32..1000,
    ) {
        let backup_at = ops.len() * backup_frac as usize / 1000;
        for mode in modes() {
            let src = storage();
            let db = LdcDb::builder()
                .options(tiny_options())
                .mode(mode.clone())
                .storage(Arc::clone(&src))
                .build()
                .unwrap();
            let mut model = BTreeMap::new();
            drive(&db, &ops, backup_at, &mut model);
            prop_assert_eq!(&full_scan(&db), &model, "primary diverged ({:?})", mode);

            let dst = storage();
            restore_backup(&src, &backup_prefix("prop"), &dst).unwrap();
            let restored = LdcDb::builder()
                .options(tiny_options())
                .mode(mode.clone())
                .storage(dst)
                .build()
                .unwrap();
            prop_assert_eq!(&full_scan(&restored), &model, "restore diverged ({:?})", mode);
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

type StorageImage = Vec<(String, Vec<u8>)>;

/// One seeded primary+follower run; returns the follower's complete
/// storage image (every file name and its bytes) plus its final state.
fn follower_run(seed: u64, mode: &CompactionMode) -> (StorageImage, BTreeMap<Vec<u8>, Vec<u8>>) {
    let src = storage();
    let db = LdcDb::builder()
        .options(tiny_options())
        .mode(mode.clone())
        .storage(Arc::clone(&src))
        .build()
        .unwrap();
    let mut rng = seed | 1;
    for _ in 0..150 {
        let k = (xorshift(&mut rng) % 512) as u16;
        db.put(&key(k), &value(k, (rng % 199) as u8)).unwrap();
    }
    db.drain_background();
    db.backup_begin("det").unwrap();

    let dst = storage();
    let follower = Follower::bootstrap(
        &src,
        "det",
        LdcDb::builder().options(tiny_options()).mode(mode.clone()),
        Arc::clone(&dst),
    )
    .unwrap();

    for burst in 0..4 {
        for _ in 0..60 {
            let k = (xorshift(&mut rng) % 512) as u16;
            if rng.is_multiple_of(5) {
                db.delete(&key(k)).unwrap();
            } else {
                db.put(&key(k), &value(k, (burst + 1) as u8)).unwrap();
            }
        }
        db.flush().unwrap();
        db.drain_background();
        follower.poll().unwrap();
    }
    assert_eq!(follower.lag(), 0);

    let state = full_scan(follower.db());
    let mut image: Vec<(String, Vec<u8>)> = dst
        .list_dir("")
        .into_iter()
        .map(|name| {
            let bytes = dst.read_all(&name, IoClass::Other).unwrap().to_vec();
            (name, bytes)
        })
        .collect();
    image.sort();
    (image, state)
}

/// Two identically-seeded runs leave the follower with byte-identical
/// storage — every file name and every byte — in both modes.
#[test]
fn follower_catch_up_is_byte_deterministic() {
    for mode in modes() {
        let (image_a, state_a) = follower_run(0xBACC_0FF5, &mode);
        let (image_b, state_b) = follower_run(0xBACC_0FF5, &mode);
        assert_eq!(state_a, state_b, "follower state diverged ({mode:?})");
        assert_eq!(
            image_a.len(),
            image_b.len(),
            "file counts diverged ({mode:?})"
        );
        for ((name_a, bytes_a), (name_b, bytes_b)) in image_a.iter().zip(&image_b) {
            assert_eq!(name_a, name_b, "file sets diverged ({mode:?})");
            assert_eq!(bytes_a, bytes_b, "{name_a} bytes diverged ({mode:?})");
        }
    }
}

/// An online checkpoint taken while compaction debt is outstanding must
/// capture exactly the acknowledged state at the call — not a torn
/// mid-compaction view — and later primary writes must not leak into it.
#[test]
fn checkpoint_while_compacting_is_consistent() {
    for mode in modes() {
        let src = storage();
        let db = LdcDb::builder()
            .options(tiny_options())
            .mode(mode.clone())
            .storage(Arc::clone(&src))
            .build()
            .unwrap();
        let mut model = BTreeMap::new();
        // Enough overlapping overwrites under the tiny geometry to leave
        // flush and compaction debt pending at the checkpoint call.
        for round in 0..3u8 {
            for k in 0..300u16 {
                db.put(&key(k), &value(k, round)).unwrap();
                model.insert(key(k), value(k, round));
            }
        }
        let report = db.checkpoint("racy").unwrap();
        assert!(
            report.files_linked > 0,
            "checkpoint linked no files ({mode:?})"
        );
        let snapshot = model.clone();

        // Keep mutating the primary after the checkpoint returns.
        for k in 0..300u16 {
            db.put(&key(k), &value(k, 9)).unwrap();
            model.insert(key(k), value(k, 9));
        }
        db.drain_background();
        assert_eq!(full_scan(&db), model, "primary diverged ({mode:?})");

        let dst = storage();
        restore_checkpoint(&src, &ldc::lsm::checkpoint_prefix("racy"), &dst).unwrap();
        let restored = LdcDb::builder()
            .options(tiny_options())
            .mode(mode.clone())
            .storage(dst)
            .build()
            .unwrap();
        assert_eq!(
            full_scan(&restored),
            snapshot,
            "checkpoint is not the acknowledged snapshot ({mode:?})"
        );
    }
}
