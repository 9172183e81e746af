use super::*;
use crate::batch::WriteBatch;
use crate::commit::{Role, Ticket};
use crate::compaction::UdcPolicy;
use crate::version::FileMeta;
use ldc_ssd::{IoClass, MemStorage, SsdConfig, TimeCategory};

fn open_db() -> Db {
    let device = ldc_ssd::SsdDevice::new(SsdConfig::default());
    let storage = MemStorage::new(device);
    Db::open(
        storage,
        Options::small_for_tests(),
        Box::new(UdcPolicy::new()),
    )
    .unwrap()
}

fn kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key{i:08}").into_bytes(),
        format!("value-{i:08}-{}", "x".repeat(64)).into_bytes(),
    )
}

#[test]
fn put_get_roundtrip() {
    let db = open_db();
    db.put(b"hello", b"world").unwrap();
    assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
    assert_eq!(db.get(b"absent").unwrap(), None);
}

#[test]
fn overwrites_and_deletes() {
    let db = open_db();
    db.put(b"k", b"v1").unwrap();
    db.put(b"k", b"v2").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
    db.delete(b"k").unwrap();
    assert_eq!(db.get(b"k").unwrap(), None);
    db.put(b"k", b"v3").unwrap();
    assert_eq!(db.get(b"k").unwrap(), Some(b"v3".to_vec()));
}

#[test]
fn batch_is_atomic_and_ordered() {
    let db = open_db();
    let mut batch = WriteBatch::new();
    batch.put(b"a", b"1");
    batch.put(b"b", b"2");
    batch.delete(b"a");
    db.write(batch).unwrap();
    assert_eq!(db.get(b"a").unwrap(), None);
    assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
    assert_eq!(db.stats().writes, 3);
}

#[test]
fn data_survives_flushes_and_compactions() {
    let db = open_db();
    let n = 3000u64;
    for i in 0..n {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    let stats = db.stats();
    assert!(stats.flushes > 0, "memtable must have rotated");
    assert!(
        stats.merges + stats.trivial_moves > 0,
        "compactions must have run"
    );
    // Spot-check across the keyspace.
    for i in (0..n).step_by(97) {
        let (k, v) = kv(i);
        assert_eq!(db.get(&k).unwrap(), Some(v), "key {i} lost");
    }
    db.version().check_invariants().unwrap();
}

#[test]
fn overwritten_values_survive_compaction() {
    let db = open_db();
    for round in 0..4u64 {
        for i in 0..800u64 {
            let (k, _) = kv(i);
            db.put(&k, format!("round{round}").as_bytes()).unwrap();
        }
    }
    for i in (0..800).step_by(53) {
        let (k, _) = kv(i);
        assert_eq!(db.get(&k).unwrap(), Some(b"round3".to_vec()));
    }
}

#[test]
fn deletes_survive_compaction() {
    let db = open_db();
    for i in 0..1500u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    for i in (0..1500).step_by(2) {
        let (k, _) = kv(i);
        db.delete(&k).unwrap();
    }
    // Push more data to force tombstones through compactions.
    for i in 2000..3500u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    for i in (0..1500u64).step_by(100) {
        let (k, v) = kv(i);
        let got = db.get(&k).unwrap();
        if i % 2 == 0 {
            assert_eq!(got, None, "deleted key {i} resurrected");
        } else {
            assert_eq!(got, Some(v));
        }
    }
}

#[test]
fn scan_returns_sorted_live_entries() {
    let db = open_db();
    for i in 0..500u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.delete(&kv(102).0).unwrap();
    let results = db.scan(&kv(100).0, 10).unwrap();
    assert_eq!(results.len(), 10);
    assert_eq!(results[0].0, kv(100).0);
    assert_eq!(results[1].0, kv(101).0);
    // 102 deleted -> 103 next.
    assert_eq!(results[2].0, kv(103).0);
    for w in results.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
}

#[test]
fn scan_spans_levels_after_compaction() {
    let db = open_db();
    for i in 0..4000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    let results = db.scan(&kv(1000).0, 100).unwrap();
    assert_eq!(results.len(), 100);
    for (j, (k, v)) in results.iter().enumerate() {
        let (ek, ev) = kv(1000 + j as u64);
        assert_eq!(k, &ek);
        assert_eq!(v, &ev);
    }
}

#[test]
fn scan_from_before_and_after_keyspace() {
    let db = open_db();
    for i in 0..100u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    let from_start = db.scan(b"", 5).unwrap();
    assert_eq!(from_start.len(), 5);
    assert_eq!(from_start[0].0, kv(0).0);
    let past_end = db.scan(b"zzzz", 5).unwrap();
    assert!(past_end.is_empty());
}

#[test]
fn reopen_recovers_flushed_and_walled_data() {
    let device = ldc_ssd::SsdDevice::new(SsdConfig::default());
    let storage = MemStorage::new(device);
    let n = 2500u64;
    {
        let db = Db::open(
            storage.clone(),
            Options::small_for_tests(),
            Box::new(UdcPolicy::new()),
        )
        .unwrap();
        for i in 0..n {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.delete(&kv(7).0).unwrap();
    } // dropped without explicit shutdown: WAL + manifest must suffice
    let db = Db::open(
        storage,
        Options::small_for_tests(),
        Box::new(UdcPolicy::new()),
    )
    .unwrap();
    for i in (0..n).step_by(111) {
        let (k, v) = kv(i);
        let expect = if i == 7 { None } else { Some(v) };
        assert_eq!(db.get(&k).unwrap(), expect, "key {i} after recovery");
    }
    db.version().check_invariants().unwrap();
}

#[test]
fn io_classes_are_populated() {
    let db = open_db();
    for i in 0..2000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    for i in 0..50 {
        let (k, _) = kv(i);
        db.get(&k).unwrap();
    }
    let io = db.device().io_stats();
    assert!(io.write_bytes_for(IoClass::WalWrite) > 0);
    assert!(io.write_bytes_for(IoClass::FlushWrite) > 0);
    assert!(io.compaction_read_bytes() > 0);
    assert!(io.compaction_write_bytes() > 0);
    assert!(io.read_bytes_for(IoClass::UserRead) > 0);
}

#[test]
fn virtual_time_advances_with_work() {
    let db = open_db();
    let t0 = db.device().clock().now();
    for i in 0..500u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    assert!(db.device().clock().now() > t0);
    let ledger = db.device().ledger();
    assert!(ledger.get(TimeCategory::ForegroundWrite) > 0);
    assert!(ledger.get(TimeCategory::CompactionWork) > 0);
}

#[test]
fn snapshots_pin_old_versions_through_compaction() {
    let db = open_db();
    db.put(b"pinned", b"v1").unwrap();
    let snap = db.snapshot();
    db.put(b"pinned", b"v2").unwrap();
    // Bury the old version under heavy churn (flushes + compactions).
    for i in 0..3000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.drain_background();
    assert_eq!(db.get(b"pinned").unwrap(), Some(b"v2".to_vec()));
    assert_eq!(db.get_at(b"pinned", &snap).unwrap(), Some(b"v1".to_vec()));
    // Scan at the snapshot must also see the old value.
    let rows = db.scan_at(b"pinned", 1, &snap).unwrap();
    assert_eq!(rows, vec![(b"pinned".to_vec(), b"v1".to_vec())]);
    db.release_snapshot(snap);
}

#[test]
fn snapshot_isolates_deletes() {
    let db = open_db();
    db.put(b"k", b"v").unwrap();
    let snap = db.snapshot();
    db.delete(b"k").unwrap();
    for i in 0..2000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    assert_eq!(db.get(b"k").unwrap(), None);
    assert_eq!(db.get_at(b"k", &snap).unwrap(), Some(b"v".to_vec()));
    db.release_snapshot(snap);
}

#[test]
fn released_snapshots_unpin() {
    let db = open_db();
    let a = db.snapshot();
    let b = db.snapshot();
    assert_eq!(db.core.lock().snapshots.len(), 1); // same sequence, two handles
    db.release_snapshot(a);
    assert_eq!(db.core.lock().snapshots.len(), 1);
    db.release_snapshot(b);
    assert!(db.core.lock().snapshots.is_empty());
}

/// Counts the footer reads of every table file: one per open.
struct FooterReads {
    inner: Arc<MemStorage>,
    opens: std::sync::Mutex<std::collections::HashMap<String, u32>>,
}

impl StorageBackend for FooterReads {
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> ldc_ssd::SsdResult<()> {
        self.inner.write_file(name, data, class)
    }
    fn append(&self, name: &str, data: &[u8], class: IoClass) -> ldc_ssd::SsdResult<()> {
        self.inner.append(name, data, class)
    }
    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> ldc_ssd::SsdResult<Bytes> {
        if class == IoClass::Other && len == crate::table::FOOTER_SIZE as u64 {
            let mut opens = self.opens.lock().unwrap_or_else(|e| e.into_inner());
            *opens.entry(name.to_string()).or_default() += 1;
        }
        self.inner.read(name, offset, len, class)
    }
    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> ldc_ssd::SsdResult<Bytes> {
        self.inner.read_sequential(name, offset, len, class)
    }
    fn size(&self, name: &str) -> ldc_ssd::SsdResult<u64> {
        self.inner.size(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn delete(&self, name: &str) -> ldc_ssd::SsdResult<()> {
        self.inner.delete(name)
    }
    fn rename(&self, from: &str, to: &str) -> ldc_ssd::SsdResult<()> {
        self.inner.rename(from, to)
    }
    fn sync(&self, name: &str) -> ldc_ssd::SsdResult<()> {
        self.inner.sync(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn device(&self) -> Arc<ldc_ssd::SsdDevice> {
        self.inner.device()
    }
}

/// A version's open tables live exactly as long as their files: a stale
/// view still reads the files compactions dropped under it, every charge
/// is released once the files go, and no table opens twice.
#[test]
fn table_handles_open_once_and_release_with_their_file() {
    let storage = Arc::new(FooterReads {
        inner: MemStorage::new(ldc_ssd::SsdDevice::new(SsdConfig::default())),
        opens: Default::default(),
    });
    let options = Options::small_for_tests();
    let backend: Arc<dyn StorageBackend> = storage.clone();
    let db = Db::open(backend, options, Box::new(UdcPolicy::new())).unwrap();
    for i in 0..3000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.drain_background();
    for i in (0..3000).step_by(7) {
        let (k, v) = kv(i);
        assert_eq!(db.get(&k).unwrap(), Some(v));
    }

    // A reader pins the view, and with it its files, across compactions
    // that rewrite every key.
    let stale = db.view.read().clone();
    let pin = db.pin_reads();
    for i in 0..3000u64 {
        db.put(&kv(i).0, b"rewritten").unwrap();
    }
    db.drain_background();
    let current = db.version();
    let dropped: Vec<&FileMeta> = stale
        .version
        .levels
        .iter()
        .flatten()
        .filter(|f| current.find_file(f.number).is_none())
        .collect();
    assert!(!dropped.is_empty(), "the rewrite must drop files");
    for meta in &dropped {
        let key = meta.smallest_ukey();
        let table = stale.tables.table(meta.number).unwrap();
        let (_, _, value) = table
            .get(key, stale.seq, IoClass::UserRead)
            .unwrap()
            .expect("a dropped file still holds its keys");
        assert!(value.starts_with(b"value-"));
        let got = db.get_internal(&stale, key, stale.seq, None).unwrap();
        assert!(got.unwrap().as_slice().starts_with(b"value-"));
    }
    assert!(db.current_tables().1.table(dropped[0].number).is_err());

    drop((stale, pin));
    db.drain_background();
    assert!(db.core.lock().pending_deletes.is_empty(), "deletes reaped");
    for i in (0..3000).step_by(7) {
        assert_eq!(db.get(&kv(i).0).unwrap(), Some(b"rewritten".to_vec()));
    }
    let tables = db.current_tables().1;
    let held: usize = tables.handles().map(|t| t.pinned_bytes()).sum();
    assert!(held > 0);
    assert_eq!(db.block_cache().pinned_bytes(), held);

    let opens = storage.opens.lock().unwrap();
    assert!(
        opens.values().all(|&n| n == 1),
        "a table opened twice: {opens:?}"
    );
    assert_eq!(opens.len() as u64, tables.opened());
}

#[test]
fn empty_batch_is_a_noop() {
    let db = open_db();
    let before = db.core.lock().versions.counters.last_sequence;
    db.write(WriteBatch::new()).unwrap();
    assert_eq!(db.core.lock().versions.counters.last_sequence, before);
}

/// Queues the group `[empty, put a, empty, put b]` and lets its first
/// (empty) ticket take the lead: the group the leader drains is exactly it.
fn hand_built_group(db: &Db, a: &[u8], b: &[u8]) -> (Vec<Ticket>, Vec<(Ticket, WriteBatch)>) {
    let put = |key: &[u8]| {
        let mut batch = WriteBatch::new();
        batch.put(key, b"v");
        batch
    };
    let tickets: Vec<Ticket> = [WriteBatch::new(), put(a), WriteBatch::new(), put(b)]
        .into_iter()
        .map(|batch| db.commit.enqueue(batch))
        .collect();
    let Role::Leader(group) = db.commit.wait(tickets[0]) else {
        panic!("the first ticket leads");
    };
    let drained: Vec<Ticket> = group.iter().map(|(t, _)| *t).collect();
    assert_eq!(drained, tickets);
    (tickets, group)
}

#[test]
fn group_commit_answers_every_ticket_in_order() {
    let db = open_db();
    let before = db.core.lock().versions.counters.last_sequence;
    let stats = db.stats();

    // Both puts commit as one group at consecutive sequences, in ticket
    // order; every ticket, the empty ones included, is told `Ok`.
    let (tickets, group) = hand_built_group(&db, b"a", b"b");
    db.lead(tickets[0], group, None).unwrap();
    for &t in &tickets[1..] {
        assert!(matches!(db.commit.wait(t), Role::Done(Ok(()))));
    }
    {
        let core = db.core.lock();
        assert_eq!(core.versions.counters.last_sequence, before + 2);
        let mut it = core.mem.iter();
        it.seek_to_first();
        let mut entries = Vec::new();
        while it.valid() {
            let (seq, _) = crate::types::parse_trailer(it.key());
            entries.push((crate::types::user_key(it.key()).to_vec(), seq));
            it.next();
        }
        assert_eq!(
            entries,
            vec![(b"a".to_vec(), before + 1), (b"b".to_vec(), before + 2)]
        );
    }
    assert_eq!(db.stats().write_groups, stats.write_groups + 1);
    assert_eq!(db.stats().grouped_batches, stats.grouped_batches + 2);
    assert_eq!(db.stats().writes, stats.writes + 2);

    // With a background error latched, every ticket gets the error, the
    // empty ones included, and nothing is applied.
    db.core
        .lock()
        .latch(Error::InvalidState("latched for the test".into()));
    let (tickets, group) = hand_built_group(&db, b"c", b"d");
    assert!(db.lead(tickets[0], group, None).is_err());
    for &t in &tickets[1..] {
        assert!(matches!(db.commit.wait(t), Role::Done(Err(_))));
    }
    assert_eq!(db.core.lock().versions.counters.last_sequence, before + 2);
    assert_eq!(db.get(b"c").unwrap(), None);
    assert_eq!(db.get(b"b").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn pinned_get_matches_owned_get() {
    let db = open_db();
    for i in 0..2000u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    db.drain_background();
    for i in (0..2000).step_by(71) {
        let (k, v) = kv(i);
        let pinned = db.get_pinned(&k).unwrap().expect("present");
        assert_eq!(pinned.as_slice(), v.as_slice());
        assert_eq!(pinned.len(), v.len());
        assert_eq!(db.get(&k).unwrap(), Some(v));
    }
}

#[test]
fn concurrent_readers_during_writes() {
    use std::sync::Arc;
    let db = Arc::new(open_db());
    for i in 0..500u64 {
        let (k, v) = kv(i);
        db.put(&k, &v).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for i in (t * 7..500).step_by(13) {
                    let (k, v) = kv(i);
                    assert_eq!(db.get(&k).unwrap(), Some(v));
                }
            });
        }
        let db = Arc::clone(&db);
        s.spawn(move || {
            for i in 500..1500u64 {
                let (k, v) = kv(i);
                db.put(&k, &v).unwrap();
            }
        });
    });
    for i in (0..1500).step_by(97) {
        let (k, v) = kv(i);
        assert_eq!(db.get(&k).unwrap(), Some(v));
    }
}
