//! An arena-backed skiplist keyed by internal keys.
//!
//! This is the memtable's core ordered structure. It is insert-only (the
//! memtable never deletes in place; tombstones are ordinary entries) which
//! lets us use a simple index-based arena with no `unsafe`.
//!
//! ## Node layout
//!
//! A seek visits a few dozen nodes and at each asks two things: "is your key
//! below the target?" and "who is next at this height?". Both answers sit in
//! the node itself: `word` is the first eight user-key bytes as a big-endian
//! integer (`types::user_key_word`), which decides most comparisons without
//! touching the entry's heap buffer, and `next` is the whole tower inline
//! (`[u32; MAX_HEIGHT]`, unused heights `NIL`). A step therefore reads one
//! arena slot; the entry buffer is followed only when two words tie, and
//! `insert` makes no allocation for the tower.
//!
//! A node owns one heap buffer, the entry: its internal key, then its
//! value, split at `key_len`. The memtable builds that buffer once per put
//! and hands it over, so an insert costs one allocation (and the arena's
//! occasional doubling).
//!
//! ## The key filter
//!
//! The list also keeps a fixed-size Bloom filter over the *user* keys
//! inserted (`SkipList::may_contain_hash`): a point read for a key that
//! was never written here (in a read-mostly store, nearly every read) is
//! answered by at most four bit tests instead of a seek. It lives and dies
//! with the list, is written by `insert` and read by `&self`, so whatever
//! guards the list guards it; it is not part of [`SkipList::approximate_bytes`]
//! (a constant would only shift every flush by the same amount).

use std::cmp::Ordering;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::filter::{bloom_hash, probe_bits};
use crate::types::{compare_internal_keys, user_key, user_key_word};

const MAX_HEIGHT: usize = 12;
const BRANCHING: u32 = 4;
/// Sentinel "null pointer" in the arena.
const NIL: u32 = u32::MAX;

/// Bits of the key filter: 32 KiB, ten bits per key for the ~26 000 keys of
/// 64 bytes that fill a 2 MiB memtable and far more for the paper's 1 KiB
/// values. A list holding more keys than that only sees more false
/// positives — every one of them falls through to the seek.
const FILTER_BITS: usize = 1 << 18;
const FILTER_WORDS: usize = FILTER_BITS / 64;
const FILTER_PROBES: usize = 4;

struct Node {
    /// [`user_key_word`] of the key.
    word: u64,
    /// The internal key, then the value.
    entry: Box<[u8]>,
    /// Where the key ends in `entry`.
    key_len: u32,
    /// next[h] = arena index of the successor at height h; `NIL` at and
    /// above the node's own height.
    next: [u32; MAX_HEIGHT],
}

impl Node {
    /// The internal key and the value.
    fn parts(&self) -> (&[u8], &[u8]) {
        self.entry.split_at(self.key_len as usize)
    }

    fn key(&self) -> &[u8] {
        self.parts().0
    }
}

/// Insert-only skiplist ordered by [`compare_internal_keys`].
pub struct SkipList {
    /// `arena[0]` is the head sentinel (empty key, full height).
    arena: Vec<Node>,
    height: usize,
    rng: SmallRng,
    len: usize,
    approximate_bytes: usize,
    filter: Box<[u64; FILTER_WORDS]>,
}

/// The filter positions of a user key with Bloom hash `hash`, as (word,
/// mask) pairs.
fn filter_probes(hash: u32) -> impl Iterator<Item = (usize, u64)> {
    probe_bits(hash, FILTER_PROBES, FILTER_BITS as u32).map(|bit| (bit / 64, 1u64 << (bit % 64)))
}

impl SkipList {
    /// Creates an empty list. `seed` keeps runs deterministic.
    pub fn new(seed: u64) -> Self {
        let head = Node {
            word: 0,
            entry: Box::default(),
            key_len: 0,
            next: [NIL; MAX_HEIGHT],
        };
        let filter = vec![0u64; FILTER_WORDS].into_boxed_slice();
        Self {
            arena: vec![head],
            height: 1,
            rng: SmallRng::seed_from_u64(seed),
            len: 0,
            approximate_bytes: 0,
            filter: filter.try_into().expect("FILTER_WORDS words allocated"),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rough memory footprint of stored keys+values plus per-node overhead;
    /// used for the memtable flush threshold.
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes
    }

    /// Whether an entry for the user key with [`bloom_hash`] `hash` may have
    /// been inserted. `false` is definitive, for every version and for
    /// tombstones alike.
    pub(crate) fn may_contain_hash(&self, hash: u32) -> bool {
        filter_probes(hash).all(|(word, mask)| self.filter[word] & mask != 0)
    }

    fn random_height(&mut self) -> usize {
        let mut h = 1;
        while h < MAX_HEIGHT && self.rng.gen_ratio(1, BRANCHING) {
            h += 1;
        }
        h
    }

    // Arena indices come only from the towers, which hold nothing but `NIL`
    // and indices of pushed nodes; callers test for `NIL` first.
    fn node(&self, index: u32) -> &Node {
        &self.arena[index as usize]
    }

    fn node_mut(&mut self, index: u32) -> &mut Node {
        &mut self.arena[index as usize]
    }

    /// Whether `node`'s key sorts before `key`, whose word is `word`.
    fn node_is_before(&self, node: u32, word: u64, key: &[u8]) -> bool {
        let node = self.node(node);
        match node.word.cmp(&word) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => compare_internal_keys(node.key(), key) == Ordering::Less,
        }
    }

    /// Finds the node >= `key`, filling `prev` with the predecessor at every
    /// height. Returns the arena index or `NIL`.
    fn find_greater_or_equal(&self, key: &[u8], mut prev: Option<&mut [u32; MAX_HEIGHT]>) -> u32 {
        let word = user_key_word(key);
        let mut x = 0u32; // head
        let mut level = self.height - 1;
        loop {
            let next = self.node(x).next[level];
            if next != NIL && self.node_is_before(next, word, key) {
                x = next;
            } else {
                if let Some(prev) = prev.as_deref_mut() {
                    prev[level] = x;
                }
                if level == 0 {
                    return next;
                }
                level -= 1;
            }
        }
    }

    /// Inserts an entry: `entry` holds its internal key in the first
    /// `key_len` bytes and its value after them. Keys must be unique
    /// (internal keys carry a unique sequence number, so the memtable
    /// guarantees this).
    pub fn insert(&mut self, entry: Box<[u8]>, key_len: usize) {
        let key = entry.split_at(key_len).0;
        // Every height starts at the head, so raising `self.height` below
        // needs no fix-up.
        let mut prev = [0u32; MAX_HEIGHT];
        let found = self.find_greater_or_equal(key, Some(&mut prev));
        debug_assert!(
            found == NIL || compare_internal_keys(self.node(found).key(), key) != Ordering::Equal,
            "duplicate internal key inserted"
        );
        let height = self.random_height();
        self.height = self.height.max(height);
        self.approximate_bytes += entry.len() + 32;
        for (word, mask) in filter_probes(bloom_hash(user_key(key))) {
            self.filter[word] |= mask;
        }
        let word = user_key_word(key);
        let idx = self.arena.len() as u32;
        let mut next = [NIL; MAX_HEIGHT];
        for (h, (slot, &p)) in next.iter_mut().zip(&prev).enumerate().take(height) {
            *slot = std::mem::replace(&mut self.node_mut(p).next[h], idx);
        }
        self.arena.push(Node {
            word,
            entry,
            key_len: key_len as u32,
            next,
        });
        self.len += 1;
    }

    /// Iterator positioned before the first entry.
    pub fn iter(&self) -> SkipListIter<'_> {
        SkipListIter {
            list: self,
            node: NIL,
        }
    }

    // Raw cursor surface: arena indices instead of a borrowing iterator, so
    // a caller that owns a lock guard on the list (the memtable) can keep a
    // cursor across guard-mediated accesses. `u32::MAX` is the "invalid"
    // cursor, matching the arena NIL sentinel.

    /// Arena index of the first entry, or `u32::MAX` when empty.
    pub fn first(&self) -> u32 {
        self.node(0).next[0]
    }

    /// Arena index of the first entry with key >= `target`, or `u32::MAX`.
    pub fn lower_bound(&self, target: &[u8]) -> u32 {
        self.find_greater_or_equal(target, None)
    }

    /// Arena index of the entry after `node` (which must be valid).
    pub fn successor(&self, node: u32) -> u32 {
        debug_assert!(node != NIL);
        self.node(node).next[0]
    }

    /// Internal key stored at `node` (which must be valid).
    pub fn node_key(&self, node: u32) -> &[u8] {
        debug_assert!(node != NIL);
        self.node(node).key()
    }

    /// Value stored at `node` (which must be valid).
    pub fn node_value(&self, node: u32) -> &[u8] {
        debug_assert!(node != NIL);
        self.node(node).parts().1
    }
}

/// Cursor over a [`SkipList`].
pub struct SkipListIter<'a> {
    list: &'a SkipList,
    node: u32,
}

impl<'a> SkipListIter<'a> {
    /// Whether the cursor points at an entry.
    pub fn valid(&self) -> bool {
        self.node != NIL
    }

    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        self.node = self.list.first();
    }

    /// Positions at the first entry with key >= `target` (internal key).
    pub fn seek(&mut self, target: &[u8]) {
        self.node = self.list.lower_bound(target);
    }

    /// Advances to the next entry.
    pub fn next(&mut self) {
        debug_assert!(self.valid());
        self.node = self.list.successor(self.node);
    }

    /// Current internal key.
    pub fn key(&self) -> &'a [u8] {
        debug_assert!(self.valid());
        self.list.node_key(self.node)
    }

    /// Current value.
    pub fn value(&self) -> &'a [u8] {
        debug_assert!(self.valid());
        self.list.node_value(self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{encode_internal_key, ValueType};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    fn ik(key: &[u8], seq: u64) -> Vec<u8> {
        encode_internal_key(key, seq, ValueType::Value)
    }

    /// Inserts `ikey -> value` as one entry buffer.
    fn insert(list: &mut SkipList, ikey: Vec<u8>, value: &[u8]) {
        let key_len = ikey.len();
        let mut entry = ikey;
        entry.extend_from_slice(value);
        list.insert(entry.into_boxed_slice(), key_len);
    }

    #[test]
    fn empty_list() {
        let list = SkipList::new(7);
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        let mut it = list.iter();
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(&ik(b"x", 1));
        assert!(!it.valid());
    }

    #[test]
    fn insert_and_scan_in_order() {
        let mut list = SkipList::new(7);
        // Insert in shuffled order; iteration must be sorted.
        for (i, k) in [b"d", b"a", b"c", b"e", b"b"].iter().enumerate() {
            insert(&mut list, ik(*k, i as u64 + 1), *k);
        }
        assert_eq!(list.len(), 5);
        let mut it = list.iter();
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            seen.push(crate::types::user_key(it.key()).to_vec());
            it.next();
        }
        assert_eq!(
            seen,
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"c".to_vec(),
                b"d".to_vec(),
                b"e".to_vec()
            ]
        );
    }

    #[test]
    fn same_user_key_orders_by_descending_sequence() {
        let mut list = SkipList::new(7);
        insert(&mut list, ik(b"k", 1), b"old");
        insert(&mut list, ik(b"k", 9), b"new");
        insert(&mut list, ik(b"k", 5), b"mid");
        let mut it = list.iter();
        it.seek_to_first();
        assert_eq!(it.value(), b"new");
        it.next();
        assert_eq!(it.value(), b"mid");
        it.next();
        assert_eq!(it.value(), b"old");
    }

    #[test]
    fn seek_finds_first_at_or_after() {
        let mut list = SkipList::new(7);
        for k in [b"b", b"d", b"f"] {
            insert(&mut list, ik(k, 1), &[]);
        }
        let mut it = list.iter();
        // Seek with a high sequence number: positions at (b,1) because higher
        // seq sorts before lower seq for the same user key.
        it.seek(&ik(b"b", 100));
        assert!(it.valid());
        assert_eq!(crate::types::user_key(it.key()), b"b");
        it.seek(&ik(b"c", 100));
        assert_eq!(crate::types::user_key(it.key()), b"d");
        it.seek(&ik(b"g", 100));
        assert!(!it.valid());
    }

    #[test]
    fn large_insert_stays_sorted() {
        let mut list = SkipList::new(42);
        let mut keys: Vec<u64> = (0..2000).collect();
        // Deterministic shuffle via multiplication by an odd constant.
        keys.sort_by_key(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for (seq, k) in keys.iter().enumerate() {
            insert(&mut list, ik(&k.to_be_bytes(), seq as u64 + 1), &[0u8; 8]);
        }
        assert_eq!(list.len(), 2000);
        let mut it = list.iter();
        it.seek_to_first();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0;
        while it.valid() {
            if let Some(p) = &prev {
                assert_eq!(
                    compare_internal_keys(p, it.key()),
                    Ordering::Less,
                    "out of order at {count}"
                );
            }
            prev = Some(it.key().to_vec());
            count += 1;
            it.next();
        }
        assert_eq!(count, 2000);
        assert!(list.approximate_bytes() > 2000 * 16);
    }

    /// The internal-key order spelled out as a tuple order: user key
    /// ascending, then sequence descending (types do not tie here: every
    /// sequence is used once).
    type OracleKey = (Vec<u8>, Reverse<u64>);

    fn oracle_ikey((ukey, Reverse(seq)): &OracleKey) -> Vec<u8> {
        ik(ukey, *seq)
    }

    /// User keys of 0 to 11 bytes over an alphabet with both extremes: the
    /// node word is sometimes padded and often tied, and the key space is
    /// small enough that several versions pile up on one key.
    fn ukeys() -> impl Strategy<Value = Vec<u8>> {
        let byte = prop_oneof![Just(0x00u8), Just(0xffu8), Just(b'a'), Just(b'b')];
        prop::collection::vec(byte, 0..12)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// After every insert the list iterates in the oracle's order and
        /// `lower_bound` lands where the oracle's `range` does.
        #[test]
        fn agrees_with_a_btreemap_at_every_step(
            seed in 0..1000u64,
            inserts in prop::collection::vec(ukeys(), 1..48),
            probes in prop::collection::vec((ukeys(), 0..60u64), 1..8),
        ) {
            let mut list = SkipList::new(seed);
            let mut oracle: BTreeMap<OracleKey, Vec<u8>> = BTreeMap::new();
            for (i, ukey) in inserts.iter().enumerate() {
                let seq = i as u64 + 1;
                let value = seq.to_le_bytes().to_vec();
                insert(&mut list, ik(ukey, seq), &value);
                oracle.insert((ukey.clone(), Reverse(seq)), value);
                prop_assert_eq!(list.len(), oracle.len());
                prop_assert!(list.may_contain_hash(bloom_hash(ukey)));

                let mut node = list.first();
                for (key, value) in &oracle {
                    prop_assert!(node != NIL, "list ended early after insert {}", i);
                    prop_assert_eq!(list.node_key(node).to_vec(), oracle_ikey(key));
                    prop_assert_eq!(list.node_value(node), value.as_slice());
                    node = list.successor(node);
                }
                prop_assert_eq!(node, NIL);

                let own = (ukey.clone(), seq);
                for (ukey, seq) in probes.iter().chain(std::iter::once(&own)) {
                    let node = list.lower_bound(&ik(ukey, *seq));
                    let got = (node != NIL).then(|| list.node_key(node).to_vec());
                    let want = oracle
                        .range((ukey.clone(), Reverse(*seq))..)
                        .next()
                        .map(|(key, _)| oracle_ikey(key));
                    prop_assert_eq!(got, want, "probe {:?}@{} after insert {}", ukey, seq, i);
                }
            }
        }
    }
}
