//! A store written under LDC and reopened under UDC keeps working.
//!
//! LDC leaves lower-level files carrying slice links. UDC never links, but
//! it must still compact such a store: a merge-down whose lower overlaps
//! carry slices first merges those files with their slices (`LdcMerge`),
//! because the classic merge cannot take a file that still pins frozen
//! data. Without that, the first UDC compaction over a sliced file fails,
//! and so does every put after it.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use ldc::ssd::{DiskStorage, SsdDevice, StorageBackend};
use ldc::{LdcDb, Options};

struct TempRoot(PathBuf);

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn open(root: &TempRoot, udc: bool) -> LdcDb {
    let storage: Arc<dyn StorageBackend> =
        DiskStorage::open(root.0.clone(), SsdDevice::with_defaults()).unwrap();
    let mut builder = LdcDb::builder()
        .options(Options {
            memtable_bytes: 8 << 10,
            sstable_bytes: 8 << 10,
            l1_capacity_bytes: 32 << 10,
            block_bytes: 1 << 10,
            ..Options::default()
        })
        .storage(storage);
    if udc {
        builder = builder.udc_baseline();
    }
    builder.build().unwrap()
}

fn key(i: u32) -> Vec<u8> {
    format!("{:08x}", i.wrapping_mul(0x9e37_79b9)).into_bytes()
}

fn check(db: &LdcDb, model: &BTreeMap<Vec<u8>, Vec<u8>>, session: &str) {
    db.engine_ref().version().check_invariants().unwrap();
    for (k, v) in model {
        assert_eq!(db.get(k).unwrap().as_ref(), Some(v), "{session}: key {k:?}");
    }
    let scanned = db.scan(b"", usize::MAX).unwrap();
    assert!(
        scanned.iter().map(|(k, v)| (k, v)).eq(model.iter()),
        "{session}: full scan differs from the model"
    );
}

#[test]
fn ldc_store_keeps_working_under_udc() {
    let root =
        TempRoot(std::env::temp_dir().join(format!("ldc-mode-switch-{}", std::process::id())));
    let mut model = BTreeMap::new();
    let mut put = |db: &LdcDb, i: u32, session: &str| {
        let (k, v) = (key(i), format!("value-{i}").into_bytes());
        db.put(&k, &v)
            .unwrap_or_else(|e| panic!("{session}: put #{i} failed: {e:?}"));
        model.insert(k, v);
    };
    {
        let db = open(&root, false);
        for i in 0..3_000 {
            put(&db, i, "ldc");
        }
        assert!(
            db.engine_ref().version().total_slice_links() > 0,
            "the LDC session must leave slices behind"
        );
    }
    {
        let db = open(&root, true);
        for i in 3_000..20_000 {
            put(&db, i, "udc");
        }
        check(&db, &model, "udc");
    }
    let db = open(&root, false);
    check(&db, &model, "ldc again");
}
