//! Internal iterators and k-way merging.
//!
//! Everything below the user API iterates *internal* entries: `(internal
//! key, value)` pairs including every version and tombstone, ordered by
//! [`compare_internal_keys`]. A [`MergingIterator`] combines children from
//! the memtable, Level-0 tables, per-level file chains, and LDC slice
//! ranges; the user-visible collapse (visibility, shadowing, tombstones)
//! happens in `db`.

use crate::error::Result;
use crate::memtable::MemTableIter;
use crate::table::TableIter;
use crate::types::compare_internal_keys;

/// Common interface over internal-entry cursors.
pub trait InternalIterator {
    /// Whether positioned at an entry.
    fn valid(&self) -> bool;
    /// Positions at the first entry.
    fn seek_to_first(&mut self);
    /// Positions at the first entry with internal key >= `target`.
    fn seek(&mut self, target: &[u8]);
    /// Advances by one entry.
    fn next(&mut self);
    /// Current internal key (valid only when `valid()`).
    fn key(&self) -> &[u8];
    /// Current value.
    fn value(&self) -> &[u8];
    /// First error encountered, if any.
    fn status(&self) -> Result<()> {
        Ok(())
    }
}

impl InternalIterator for MemTableIter<'_> {
    fn valid(&self) -> bool {
        MemTableIter::valid(self)
    }
    fn seek_to_first(&mut self) {
        MemTableIter::seek_to_first(self)
    }
    fn seek(&mut self, target: &[u8]) {
        MemTableIter::seek(self, target)
    }
    fn next(&mut self) {
        MemTableIter::next(self)
    }
    fn key(&self) -> &[u8] {
        MemTableIter::key(self)
    }
    fn value(&self) -> &[u8] {
        MemTableIter::value(self)
    }
}

impl InternalIterator for TableIter {
    fn valid(&self) -> bool {
        TableIter::valid(self)
    }
    fn seek_to_first(&mut self) {
        TableIter::seek_to_first(self)
    }
    fn seek(&mut self, target: &[u8]) {
        TableIter::seek(self, target)
    }
    fn next(&mut self) {
        TableIter::next(self)
    }
    fn key(&self) -> &[u8] {
        TableIter::key(self)
    }
    fn value(&self) -> &[u8] {
        TableIter::value(self)
    }
    fn status(&self) -> Result<()> {
        TableIter::status(self)
    }
}

/// An in-memory iterator over pre-sorted `(internal key, value)` pairs.
///
/// Used by compaction tests and as a cheap adapter in experiments.
pub struct VecIterator {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
    positioned: bool,
}

impl VecIterator {
    /// Wraps `entries`, which must already be sorted by internal key.
    pub fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        debug_assert!(entries
            .windows(2)
            .all(|w| compare_internal_keys(&w[0].0, &w[1].0).is_lt()));
        Self {
            entries,
            pos: 0,
            positioned: false,
        }
    }
}

impl InternalIterator for VecIterator {
    fn valid(&self) -> bool {
        self.positioned && self.pos < self.entries.len()
    }
    fn seek_to_first(&mut self) {
        self.pos = 0;
        self.positioned = true;
    }
    fn seek(&mut self, target: &[u8]) {
        self.pos = self
            .entries
            .partition_point(|(k, _)| compare_internal_keys(k, target).is_lt());
        self.positioned = true;
    }
    fn next(&mut self) {
        debug_assert!(self.valid());
        self.pos += 1;
    }
    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }
    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

/// K-way merge over child iterators.
///
/// Children may contain the same user key at different sequences (or even
/// byte-identical internal keys from pathological inputs); merge order is by
/// internal key with child index as the tiebreak, so output is
/// deterministic. The valid children sit in a binary min-heap on that
/// order, so `next` costs at most `2 log2 K` key compares and usually
/// fewer, where a linear minimum scan cost `K - 1` compares and `K` calls
/// to `valid`. Compactions merge one file with up to about ten it overlaps
/// and scans merge about ten children. Measured against that scan with
/// everything else equal (8 alternating pairs each, benchmark scale 0.25,
/// 2-vCPU Xeon 2.1 GHz), the heap raised `fill-udc` throughput 4.8 % and
/// `scan-rh` 4.0 %, winning every pair. The order is total, so the
/// children advance — and their blocks load and enter the block cache —
/// exactly as they did under the scan.
pub struct MergingIterator<'a> {
    children: Vec<Box<dyn InternalIterator + 'a>>,
    /// Indices of the valid children; `heap[0]` is the current one.
    heap: Vec<usize>,
}

impl<'a> MergingIterator<'a> {
    /// Builds a merge over `children` (unpositioned).
    pub fn new(children: Vec<Box<dyn InternalIterator + 'a>>) -> Self {
        let heap = Vec::with_capacity(children.len());
        Self { children, heap }
    }

    /// Whether child `a` is ahead of child `b` in merge order.
    fn before(&self, a: usize, b: usize) -> bool {
        compare_internal_keys(self.children[a].key(), self.children[b].key())
            .then(a.cmp(&b))
            .is_lt()
    }

    /// Restores the heap order below `pos`, whose child may have moved back.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let mut child = left;
            if right < self.heap.len() && self.before(self.heap[right], self.heap[left]) {
                child = right;
            }
            if !self.before(self.heap[child], self.heap[pos]) {
                return;
            }
            self.heap.swap(pos, child);
            pos = child;
        }
    }

    /// Rebuilds the heap from every valid child, after they were all moved.
    fn rebuild(&mut self) {
        self.heap.clear();
        self.heap
            .extend((0..self.children.len()).filter(|&i| self.children[i].valid()));
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos);
        }
    }

    fn current(&self) -> &(dyn InternalIterator + 'a) {
        self.children[*self.heap.first().expect("valid")].as_ref()
    }
}

impl InternalIterator for MergingIterator<'_> {
    fn valid(&self) -> bool {
        !self.heap.is_empty()
    }

    fn seek_to_first(&mut self) {
        for child in &mut self.children {
            child.seek_to_first();
        }
        self.rebuild();
    }

    fn seek(&mut self, target: &[u8]) {
        for child in &mut self.children {
            child.seek(target);
        }
        self.rebuild();
    }

    fn next(&mut self) {
        let cur = *self.heap.first().expect("next on invalid merging iterator");
        self.children[cur].next();
        if !self.children[cur].valid() {
            self.heap.swap_remove(0);
        }
        self.sift_down(0);
    }

    fn key(&self) -> &[u8] {
        self.current().key()
    }

    fn value(&self) -> &[u8] {
        self.current().value()
    }

    fn status(&self) -> Result<()> {
        for child in &self.children {
            child.status()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{encode_internal_key, user_key, ValueType};
    use proptest::prelude::*;

    fn ik(key: &[u8], seq: u64) -> Vec<u8> {
        encode_internal_key(key, seq, ValueType::Value)
    }

    fn entries(keys: &[(&[u8], u64)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        keys.iter()
            .map(|(k, s)| {
                (
                    ik(k, *s),
                    format!("{}@{s}", String::from_utf8_lossy(k)).into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn vec_iterator_seeks() {
        let mut it = VecIterator::new(entries(&[(b"a", 1), (b"c", 1), (b"e", 1)]));
        it.seek_to_first();
        assert_eq!(user_key(it.key()), b"a");
        it.seek(&ik(b"b", 100));
        assert_eq!(user_key(it.key()), b"c");
        it.seek(&ik(b"z", 100));
        assert!(!it.valid());
    }

    #[test]
    fn merge_interleaves_sorted_children() {
        let a = VecIterator::new(entries(&[(b"a", 1), (b"d", 1), (b"g", 1)]));
        let b = VecIterator::new(entries(&[(b"b", 1), (b"e", 1)]));
        let c = VecIterator::new(entries(&[(b"c", 1), (b"f", 1), (b"h", 1)]));
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b), Box::new(c)]);
        m.seek_to_first();
        let mut seen = Vec::new();
        while m.valid() {
            seen.push(user_key(m.key()).to_vec());
            m.next();
        }
        let expect: Vec<Vec<u8>> = [b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h"]
            .iter()
            .map(|k| k.to_vec())
            .collect();
        assert_eq!(seen, expect);
        m.status().unwrap();
    }

    #[test]
    fn merge_orders_same_user_key_by_sequence() {
        // Newer versions (higher seq) must come out first.
        let newer = VecIterator::new(entries(&[(b"k", 9)]));
        let older = VecIterator::new(entries(&[(b"k", 3)]));
        let mut m = MergingIterator::new(vec![Box::new(older), Box::new(newer)]);
        m.seek_to_first();
        assert_eq!(m.value(), b"k@9");
        m.next();
        assert_eq!(m.value(), b"k@3");
        m.next();
        assert!(!m.valid());
    }

    #[test]
    fn merge_seek_positions_all_children() {
        let a = VecIterator::new(entries(&[(b"a", 1), (b"m", 1)]));
        let b = VecIterator::new(entries(&[(b"c", 1), (b"x", 1)]));
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b)]);
        m.seek(&ik(b"d", 100));
        assert_eq!(user_key(m.key()), b"m");
        m.next();
        assert_eq!(user_key(m.key()), b"x");
        m.next();
        assert!(!m.valid());
    }

    #[test]
    fn merge_with_empty_children() {
        let a = VecIterator::new(Vec::new());
        let b = VecIterator::new(entries(&[(b"only", 1)]));
        let c = VecIterator::new(Vec::new());
        let mut m = MergingIterator::new(vec![Box::new(a), Box::new(b), Box::new(c)]);
        m.seek_to_first();
        assert_eq!(user_key(m.key()), b"only");
        m.next();
        assert!(!m.valid());
    }

    #[test]
    fn merge_of_nothing_is_invalid() {
        let mut m = MergingIterator::new(Vec::new());
        m.seek_to_first();
        assert!(!m.valid());
    }

    /// Internal keys over four user keys and four sequences, so children
    /// share user keys and often hold byte-identical internal keys.
    fn small_ikey((ukey, seq, deletion): (u8, u64, bool)) -> Vec<u8> {
        let vt = if deletion {
            ValueType::Deletion
        } else {
            ValueType::Value
        };
        encode_internal_key(&[b'a' + ukey], seq, vt)
    }

    proptest! {
        /// The merge yields exactly the children's entries sorted by
        /// (internal key, child index), from `seek_to_first` and from any
        /// `seek`, and keeps that order across `next`s that follow a seek.
        #[test]
        fn merge_equals_sort_by_key_then_child(
            raw in prop::collection::vec(
                prop::collection::vec((0u8..4, 0u64..4, any::<bool>()), 0..12),
                0..9,
            ),
            targets in prop::collection::vec((0u8..5, 0u64..5, any::<bool>()), 1..6),
        ) {
            let runs: Vec<Vec<Vec<u8>>> = raw
                .into_iter()
                .map(|run| {
                    let mut keys: Vec<Vec<u8>> = run.into_iter().map(small_ikey).collect();
                    keys.sort_by(|a, b| compare_internal_keys(a, b));
                    keys.dedup();
                    keys
                })
                .collect();
            let mut oracle: Vec<(Vec<u8>, usize, Vec<u8>)> = Vec::new();
            for (child, run) in runs.iter().enumerate() {
                for (pos, k) in run.iter().enumerate() {
                    oracle.push((k.clone(), child, format!("{child}:{pos}").into_bytes()));
                }
            }
            oracle.sort_by(|a, b| compare_internal_keys(&a.0, &b.0).then(a.1.cmp(&b.1)));
            let children: Vec<Box<dyn InternalIterator>> = runs
                .iter()
                .enumerate()
                .map(|(child, run)| {
                    let entries = run
                        .iter()
                        .enumerate()
                        .map(|(pos, k)| (k.clone(), format!("{child}:{pos}").into_bytes()))
                        .collect();
                    Box::new(VecIterator::new(entries)) as Box<dyn InternalIterator>
                })
                .collect();
            let mut m = MergingIterator::new(children);
            let drain = |m: &mut MergingIterator<'_>| {
                let mut seen = Vec::new();
                while m.valid() {
                    seen.push((m.key().to_vec(), m.value().to_vec()));
                    m.next();
                }
                seen
            };
            let want = |from: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
                oracle[from..].iter().map(|(k, _, v)| (k.clone(), v.clone())).collect()
            };
            m.seek_to_first();
            prop_assert_eq!(drain(&mut m), want(0));
            for target in targets {
                let target = small_ikey(target);
                let from = oracle.partition_point(|e| compare_internal_keys(&e.0, &target).is_lt());
                m.seek(&target);
                prop_assert_eq!(drain(&mut m), want(from));
            }
            m.status().unwrap();
        }
    }
}
