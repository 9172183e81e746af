//! The in-memory write buffer (`C_0` in the paper's Definition 2.2).
//!
//! The skiplist sits behind an `RwLock` so a reader holding a pinned
//! `Arc<MemTable>` snapshot can probe it while the committing writer
//! appends: the arena-backed skiplist reallocates its node vector on
//! insert, so lock-free concurrent reads would be a data race. Point
//! lookups hold the read lock for one seek; scans hold it for the
//! iterator's lifetime (writers queue behind long scans, readers never
//! queue behind readers). MVCC comes from sequence numbers, not the lock:
//! entries newer than a reader's snapshot sequence are simply invisible,
//! so publishing writes into a shared memtable is safe before the new
//! sequence is published.
//!
//! A point lookup first asks the skiplist's key filter (see
//! [`crate::skiplist`]) under the same read lock: a key that was never
//! written to this memtable — any version, tombstones included — is answered
//! `NotFound` without a seek.

use ldc_obs::lockcheck::{RwLock, RwLockReadGuard};

use crate::batch::{BatchOp, WriteBatch};
use crate::error::Result;
use crate::filter::bloom_hash;
use crate::skiplist::SkipList;
use crate::types::{
    append_internal_key, compare_internal_keys, encode_internal_key, parse_trailer, user_key,
    SequenceNumber, ValueType, TYPE_FOR_SEEK,
};

/// Sentinel "null pointer" for the iterator cursor (mirrors the skiplist's
/// arena NIL).
const NIL: u32 = u32::MAX;

/// Outcome of a memtable point lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// The key is live with this value.
    Found(Vec<u8>),
    /// The key was deleted (tombstone) — stop searching older levels.
    Deleted,
    /// The memtable knows nothing about this key.
    NotFound,
}

/// Ordered in-memory buffer of recent writes.
pub struct MemTable {
    list: RwLock<SkipList>,
}

impl MemTable {
    /// Creates an empty memtable; `seed` determinizes skiplist heights.
    pub fn new(seed: u64) -> Self {
        Self {
            list: RwLock::new("lsm/memtable::list", SkipList::new(seed)),
        }
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.list.read().len()
    }

    /// Whether no entries exist.
    pub fn is_empty(&self) -> bool {
        self.list.read().is_empty()
    }

    /// Approximate memory footprint, compared against the flush threshold.
    pub fn approximate_bytes(&self) -> usize {
        self.list.read().approximate_bytes()
    }

    /// Records a put or delete at sequence `seq`.
    pub fn add(&self, seq: SequenceNumber, vt: ValueType, key: &[u8], value: &[u8]) {
        // The skiplist node's one buffer: the internal key, then the value.
        let key_len = key.len() + 8;
        let mut entry = Vec::with_capacity(key_len + value.len());
        append_internal_key(&mut entry, key, seq, vt);
        entry.extend_from_slice(value);
        self.list.write().insert(entry.into_boxed_slice(), key_len);
    }

    /// Inserts every op of `batch`, the i-th at sequence
    /// `batch.sequence() + i`, and returns the highest sequence used
    /// (`None` for an empty batch).
    pub(crate) fn apply(&self, batch: &WriteBatch) -> Result<Option<SequenceNumber>> {
        let base = batch.sequence();
        let mut last = None;
        for item in batch.iter() {
            let (offset, op) = item?;
            let seq = base + u64::from(offset);
            match op {
                BatchOp::Put { key, value } => self.add(seq, ValueType::Value, key, value),
                BatchOp::Delete { key } => self.add(seq, ValueType::Deletion, key, b""),
            }
            last = Some(seq);
        }
        Ok(last)
    }

    /// Looks up `key` as of `snapshot` (inclusive).
    pub fn get(&self, key: &[u8], snapshot: SequenceNumber) -> LookupResult {
        let probe = encode_internal_key(key, snapshot, TYPE_FOR_SEEK);
        self.get_probe(&probe, bloom_hash(key))
    }

    /// [`MemTable::get`] for a caller that already holds the seek key
    /// `probe` = `(key, snapshot, TYPE_FOR_SEEK)` and `hash`, the
    /// [`bloom_hash`] of its user key: a point read builds both once and
    /// asks every memtable and table with them.
    pub(crate) fn get_probe(&self, probe: &[u8], hash: u32) -> LookupResult {
        let list = self.list.read();
        if !list.may_contain_hash(hash) {
            return LookupResult::NotFound;
        }
        let node = list.lower_bound(probe);
        if node == NIL || user_key(list.node_key(node)) != user_key(probe) {
            return LookupResult::NotFound;
        }
        match parse_trailer(list.node_key(node)).1 {
            ValueType::Value => LookupResult::Found(list.node_value(node).to_vec()),
            ValueType::Deletion => LookupResult::Deleted,
        }
    }

    /// Iterator over internal entries in sorted order. Holds the memtable's
    /// read lock for its lifetime: concurrent writers queue behind it.
    pub fn iter(&self) -> MemTableIter<'_> {
        MemTableIter {
            guard: self.list.read(),
            node: NIL,
        }
    }
}

/// Iterator over a memtable's internal entries. Owns a read guard on the
/// skiplist, so the view is stable even while the shared memtable keeps
/// accepting writes between this iterator's method calls.
pub struct MemTableIter<'a> {
    guard: RwLockReadGuard<'a, SkipList>,
    node: u32,
}

impl MemTableIter<'_> {
    /// Whether positioned at an entry.
    pub fn valid(&self) -> bool {
        self.node != NIL
    }

    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = self.guard.first();
    }

    /// Positions at the first entry with internal key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        self.node = self.guard.lower_bound(target);
    }

    /// Advances.
    pub fn next(&mut self) {
        debug_assert!(self.valid());
        self.node = self.guard.successor(self.node);
    }

    /// Current internal key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid());
        self.guard.node_key(self.node)
    }

    /// Current value (empty for tombstones).
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid());
        self.guard.node_value(self.node)
    }
}

/// Checks memtable iteration order in tests and debug assertions.
pub fn assert_sorted(mem: &MemTable) {
    let mut it = mem.iter();
    it.seek_to_first();
    let mut prev: Option<Vec<u8>> = None;
    while it.valid() {
        if let Some(p) = &prev {
            assert!(
                compare_internal_keys(p, it.key()).is_lt(),
                "memtable out of order"
            );
        }
        prev = Some(it.key().to_vec());
        it.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What `get` must answer, by walking every entry in order: the first
    /// entry of `key` at or below `snapshot` decides.
    fn linear_get(mem: &MemTable, key: &[u8], snapshot: SequenceNumber) -> LookupResult {
        let mut it = mem.iter();
        it.seek_to_first();
        while it.valid() {
            let (seq, vt) = parse_trailer(it.key());
            if user_key(it.key()) == key && seq <= snapshot {
                return match vt {
                    ValueType::Value => LookupResult::Found(it.value().to_vec()),
                    ValueType::Deletion => LookupResult::Deleted,
                };
            }
            it.next();
        }
        LookupResult::NotFound
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The key filter has no false negatives, whatever was written: for
        /// every key written (a tombstone sets the bits too; an old snapshot
        /// still finds the old version) and 200 keys never written, at three
        /// snapshots, `get` answers what a walk over the entries answers.
        #[test]
        fn filtered_get_equals_a_linear_scan(
            ops in prop::collection::vec(
                (
                    prop::collection::vec(
                        prop_oneof![Just(0x00u8), Just(0xffu8), Just(b'a'), Just(b'b')],
                        0..11,
                    ),
                    any::<bool>(),
                ),
                1..80,
            ),
        ) {
            let mem = MemTable::new(3);
            for (i, (key, put)) in ops.iter().enumerate() {
                let seq = i as u64 + 1;
                if *put {
                    mem.add(seq, ValueType::Value, key, &seq.to_le_bytes());
                } else {
                    mem.add(seq, ValueType::Deletion, key, b"");
                }
            }
            let last = ops.len() as u64;
            // No written key starts with 'z'.
            let absent: Vec<Vec<u8>> = (0..200).map(|i| format!("z{i:03}").into_bytes()).collect();
            for snapshot in [last / 3, 2 * last / 3, crate::types::MAX_SEQUENCE] {
                for key in ops.iter().map(|(key, _)| key).chain(&absent) {
                    prop_assert_eq!(
                        mem.get(key, snapshot),
                        linear_get(&mem, key, snapshot),
                        "key {:?} at snapshot {}", key, snapshot
                    );
                }
            }
        }
    }

    #[test]
    fn an_overfull_filter_costs_seeks_not_answers() {
        // Four times the keys the filter is sized for: a third of the absent
        // keys now pass it, and the seek behind it still says NotFound.
        let mem = MemTable::new(5);
        let n = 100_000u64;
        for i in 0..n {
            mem.add(i + 1, ValueType::Value, &i.to_be_bytes(), b"v");
        }
        for i in (0..n).step_by(97) {
            assert_eq!(
                mem.get(&i.to_be_bytes(), n),
                LookupResult::Found(b"v".to_vec())
            );
            assert_eq!(mem.get(&(n + i).to_be_bytes(), n), LookupResult::NotFound);
        }
    }

    #[test]
    fn get_returns_latest_visible_version() {
        let mem = MemTable::new(1);
        mem.add(1, ValueType::Value, b"k", b"v1");
        mem.add(5, ValueType::Value, b"k", b"v2");
        assert_eq!(mem.get(b"k", 100), LookupResult::Found(b"v2".to_vec()));
        // A snapshot between the two versions sees the old value.
        assert_eq!(mem.get(b"k", 3), LookupResult::Found(b"v1".to_vec()));
        // A snapshot before the first write sees nothing.
        assert_eq!(mem.get(b"k", 0), LookupResult::NotFound);
    }

    #[test]
    fn tombstones_shadow_older_values() {
        let mem = MemTable::new(1);
        mem.add(1, ValueType::Value, b"k", b"v");
        mem.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(mem.get(b"k", 100), LookupResult::Deleted);
        assert_eq!(mem.get(b"k", 1), LookupResult::Found(b"v".to_vec()));
    }

    #[test]
    fn unknown_key_is_not_found() {
        let mem = MemTable::new(1);
        mem.add(1, ValueType::Value, b"a", b"v");
        assert_eq!(mem.get(b"b", 100), LookupResult::NotFound);
        // Prefix of an existing key is a different key.
        assert_eq!(mem.get(b"", 100), LookupResult::NotFound);
    }

    #[test]
    fn iterator_walks_all_versions_sorted() {
        let mem = MemTable::new(1);
        mem.add(3, ValueType::Value, b"b", b"b3");
        mem.add(1, ValueType::Value, b"a", b"a1");
        mem.add(2, ValueType::Deletion, b"a", b"");
        assert_sorted(&mem);
        let mut it = mem.iter();
        it.seek_to_first();
        // a@2 (deletion, newer) precedes a@1, then b@3.
        assert_eq!(user_key(it.key()), b"a");
        assert_eq!(parse_trailer(it.key()), (2, ValueType::Deletion));
        it.next();
        assert_eq!(parse_trailer(it.key()), (1, ValueType::Value));
        it.next();
        assert_eq!(user_key(it.key()), b"b");
        it.next();
        assert!(!it.valid());
    }

    #[test]
    fn approximate_bytes_grows() {
        let mem = MemTable::new(1);
        let before = mem.approximate_bytes();
        mem.add(1, ValueType::Value, b"key", &vec![0u8; 1000]);
        assert!(mem.approximate_bytes() >= before + 1000);
        assert_eq!(mem.len(), 1);
        assert!(!mem.is_empty());
    }

    #[test]
    fn shared_reads_see_writes_made_after_pinning() {
        // Sequence visibility, not the lock, is the isolation mechanism: a
        // reader probing with an old snapshot sequence must not see entries
        // added afterwards, even though they share one skiplist.
        let mem = std::sync::Arc::new(MemTable::new(1));
        mem.add(1, ValueType::Value, b"k", b"old");
        let pinned = std::sync::Arc::clone(&mem);
        mem.add(2, ValueType::Value, b"k", b"new");
        assert_eq!(pinned.get(b"k", 1), LookupResult::Found(b"old".to_vec()));
        assert_eq!(pinned.get(b"k", 2), LookupResult::Found(b"new".to_vec()));
    }
}
