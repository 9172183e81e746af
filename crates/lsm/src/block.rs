//! Data blocks: prefix-compressed, restart-pointed key/value runs.
//!
//! Format matches LevelDB. Entries are `varint(shared) varint(non_shared)
//! varint(value_len) key_delta value`; every `restart_interval`-th key is
//! stored whole and its offset recorded in a trailer of fixed32 restart
//! offsets followed by their count. Restarts give binary-searchable seeks.
//!
//! A restart entry shares nothing with its predecessor (`shared == 0`), so
//! its key lies whole and contiguous in the block: the binary search of
//! [`BlockIter::seek`] compares the target against those bytes where they
//! are and allocates nothing. The same holds for the cursor itself:
//! [`BlockIter::key`] serves an entry with `shared == 0` straight from the
//! block — every entry of a restart-interval-1 block (a table's index), and
//! the first entry after each restart of any other — and the iterator's key
//! buffer is filled only when a later entry has to be rebuilt from its
//! predecessor's prefix. A seek that ends on a restart entry allocates
//! nothing; any other seek allocates that one buffer.
//!
//! A cursor either owns a handle to its block ([`Block::iter`], what a
//! table iterator keeps across calls) or borrows it (`Block::cursor`):
//! a point read seeks its table's index block and the cached data block in
//! place, touching no reference count.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::ops::Range;

use bytes::Bytes;

use crate::encoding::{get_fixed32, get_varint32, put_fixed32, put_varint32};
use crate::error::{corruption, Result};
use crate::types::compare_internal_keys;

/// Builds one block in a buffer it owns. Keys must be appended in sorted
/// order.
pub struct BlockBuilder {
    buf: Vec<u8>,
    writer: BlockWriter,
    last_key: Vec<u8>,
}

impl BlockBuilder {
    /// Creates a builder storing a whole key every `restart_interval`
    /// entries.
    pub fn new(restart_interval: usize) -> Self {
        Self {
            buf: Vec::new(),
            writer: BlockWriter::new(restart_interval),
            last_key: Vec::new(),
        }
    }

    /// Appends an entry. `key` must sort after every previously added key.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        self.writer
            .add(&mut self.buf, 0, &self.last_key, key, value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
    }

    /// Bytes the finished block will occupy (approximately, pre-trailer).
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.writer.trailer_bytes()
    }

    /// Number of entries added.
    pub fn entries(&self) -> usize {
        self.writer.entries
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.writer.entries == 0
    }

    /// Serializes the block and resets the builder, handing out its buffer.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = std::mem::take(&mut self.buf);
        self.writer.finish(&mut out);
        self.last_key.clear();
        out
    }

    /// Appends the serialized block to `out` and resets the builder, which
    /// keeps its buffers: the next block is built in the capacity this one
    /// grew. A table's index block is sealed this way.
    pub fn finish_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf);
        self.buf.clear();
        self.writer.finish(out);
        self.last_key.clear();
    }
}

/// The restart bookkeeping of one block whose entries go into a buffer the
/// caller owns, from offset `start` on: [`BlockBuilder`]'s own buffer, or
/// the table image a table builder writes its data blocks straight into.
#[derive(Debug)]
pub(crate) struct BlockWriter {
    restarts: Vec<u32>,
    counter: usize,
    restart_interval: usize,
    entries: usize,
}

impl BlockWriter {
    /// A writer storing a whole key every `restart_interval` entries.
    pub(crate) fn new(restart_interval: usize) -> Self {
        Self {
            restarts: vec![0],
            counter: 0,
            restart_interval: restart_interval.max(1),
            entries: 0,
        }
    }

    /// Appends an entry to `out`, whose block begins at `start`. `prev` is
    /// the key added before this one (ignored for a block's first entry);
    /// `key` must sort after it.
    pub(crate) fn add(
        &mut self,
        out: &mut Vec<u8>,
        start: usize,
        prev: &[u8],
        key: &[u8],
        value: &[u8],
    ) {
        debug_assert!(
            self.entries == 0 || compare_internal_keys(prev, key) == Ordering::Less,
            "block keys must be added in strictly increasing order"
        );
        let shared = if self.counter >= self.restart_interval {
            self.restarts.push((out.len() - start) as u32);
            self.counter = 0;
            0
        } else if self.entries == 0 {
            0
        } else {
            common_prefix_len(prev, key)
        };
        let non_shared = key.len() - shared;
        put_varint32(out, shared as u32);
        put_varint32(out, non_shared as u32);
        put_varint32(out, value.len() as u32);
        out.extend_from_slice(&key[shared..]);
        out.extend_from_slice(value);
        self.counter += 1;
        self.entries += 1;
    }

    /// Bytes the restart trailer will add after the entries.
    pub(crate) fn trailer_bytes(&self) -> usize {
        self.restarts.len() * 4 + 4
    }

    /// Entries added to the block being built.
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// Appends the restart array and its count to `out`, which already
    /// holds the entries, and resets for the next block.
    pub(crate) fn finish(&mut self, out: &mut Vec<u8>) {
        for &r in &self.restarts {
            put_fixed32(out, r);
        }
        put_fixed32(out, self.restarts.len() as u32);
        self.restarts.clear();
        self.restarts.push(0);
        self.counter = 0;
        self.entries = 0;
    }
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Whether `offset` (within `entries`) starts a decodable restart entry:
/// three varints with `shared == 0` and the whole key in bounds.
fn valid_restart_entry(entries: &[u8], mut offset: usize) -> bool {
    let header = |off: &mut usize| -> Option<u32> {
        let (v, n) = get_varint32(&entries[*off..])?;
        *off += n;
        Some(v)
    };
    let Some(shared) = header(&mut offset) else {
        return false;
    };
    let Some(non_shared) = header(&mut offset) else {
        return false;
    };
    if header(&mut offset).is_none() {
        return false;
    }
    shared == 0 && offset + non_shared as usize <= entries.len()
}

/// An immutable, parsed block.
#[derive(Debug, Clone)]
pub struct Block {
    data: Bytes,
    restarts_offset: usize,
    num_restarts: usize,
}

impl Block {
    /// Validates the trailer and wraps `data`.
    pub fn new(data: Bytes) -> Result<Self> {
        if data.len() < 4 {
            return Err(corruption("block too small for restart count"));
        }
        let num_restarts = get_fixed32(&data, data.len() - 4) as usize;
        let trailer = num_restarts
            .checked_mul(4)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| corruption("restart count overflow"))?;
        if trailer > data.len() {
            return Err(corruption("block restart array out of bounds"));
        }
        let restarts_offset = data.len() - trailer;
        // Blocks arrive checksum-verified, but validate every restart offset
        // anyway so the seek path's restart decoding is infallible: each
        // restart must point at a parseable whole-key entry (shared == 0)
        // inside the entry area. The only exception is the initial restart
        // of an empty block, which points at offset 0 of an empty area.
        let entries = &data[..restarts_offset];
        for i in 0..num_restarts {
            let offset = get_fixed32(&data, restarts_offset + 4 * i) as usize;
            if offset == 0 && entries.is_empty() {
                continue;
            }
            if offset >= restarts_offset || !valid_restart_entry(entries, offset) {
                return Err(corruption("block restart points at invalid entry"));
            }
        }
        Ok(Self {
            restarts_offset,
            data,
            num_restarts,
        })
    }

    /// Size of the raw block, for cache accounting.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn restart_point(&self, i: usize) -> usize {
        get_fixed32(&self.data, self.restarts_offset + 4 * i) as usize
    }

    /// Number of restart points: every entry of a table's index block.
    pub(crate) fn num_restarts(&self) -> usize {
        self.num_restarts
    }

    /// The key of restart entry `i` (`i < num_restarts`), borrowed from the
    /// block.
    pub(crate) fn restart_key(&self, i: usize) -> &[u8] {
        let mut offset = self.restart_point(i);
        let data = &self.data[..self.restarts_offset];
        // Infallible: every restart entry was validated by `Block::new`
        // (three varints, `shared == 0`, the whole key in bounds), so a
        // failure here is an engine invariant violation, not bad input.
        let (_, n) = get_varint32(&data[offset..]).expect("restart validated at Block::new");
        offset += n;
        let (non_shared, n) =
            get_varint32(&data[offset..]).expect("restart validated at Block::new");
        offset += n;
        let (_, n) = get_varint32(&data[offset..]).expect("restart validated at Block::new");
        offset += n;
        &data[offset..offset + non_shared as usize]
    }

    /// The bytes at `range` of the block, which must lie inside it (a
    /// [`BlockIter::value_range`] of a cursor over this block).
    pub(crate) fn bytes(&self, range: Range<usize>) -> &[u8] {
        self.data.get(range).unwrap_or_default()
    }

    /// [`Block::bytes`] as a zero-copy handle that keeps the block's backing
    /// buffer alive.
    pub(crate) fn slice(&self, range: Range<usize>) -> Bytes {
        self.data.slice(range)
    }

    /// Creates an unpositioned iterator that holds its own handle to the
    /// block.
    pub fn iter(&self) -> BlockIter {
        self.iter_with_buffer(Vec::new())
    }

    /// [`Block::iter`] with a key buffer to reuse, typically
    /// [`BlockIter::into_buffer`] of the iterator over the previous block.
    pub(crate) fn iter_with_buffer(&self, buf: Vec<u8>) -> BlockIter {
        BlockIter::over(self.clone(), buf)
    }

    /// An unpositioned cursor that borrows the block in place, with a key
    /// buffer to reuse.
    pub(crate) fn cursor(&self, buf: Vec<u8>) -> BlockIter<&Block> {
        BlockIter::over(self, buf)
    }
}

/// Cursor over a [`Block`], which it owns (`B = Block`) or borrows
/// (`B = &Block`).
pub struct BlockIter<B = Block> {
    block: B,
    /// Offset of the *next* entry to decode.
    offset: usize,
    /// Where the current key lies in the block, when `!key_in_buf`: the
    /// entry shared nothing with its predecessor. `(0, 0)`, the empty key,
    /// before the first entry.
    key_range: (usize, usize),
    /// Whether the current key had to be rebuilt in `buf`.
    key_in_buf: bool,
    buf: Vec<u8>,
    value_range: (usize, usize),
    valid: bool,
}

impl<B: Borrow<Block>> BlockIter<B> {
    fn over(block: B, buf: Vec<u8>) -> Self {
        BlockIter {
            block,
            offset: 0,
            key_range: (0, 0),
            key_in_buf: false,
            buf,
            value_range: (0, 0),
            valid: false,
        }
    }

    fn block(&self) -> &Block {
        self.block.borrow()
    }

    /// Whether positioned at an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Current internal key.
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid);
        if self.key_in_buf {
            &self.buf
        } else {
            &self.block().data[self.key_range.0..self.key_range.1]
        }
    }

    /// Gives up the iterator for its key buffer, for the next block's
    /// iterator to reuse.
    pub(crate) fn into_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// Unpositions the cursor at `offset`, which must start a restart entry.
    fn rewind_to(&mut self, offset: usize) {
        self.offset = offset;
        self.key_range = (0, 0);
        self.key_in_buf = false;
        self.valid = false;
    }

    /// Current value.
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid);
        &self.block().data[self.value_range.0..self.value_range.1]
    }

    /// Where the current value lies in the block: a point read keeps the
    /// range and the block's handle, and copies or slices the value only
    /// once it knows the entry is the one returned.
    pub(crate) fn value_range(&self) -> Range<usize> {
        debug_assert!(self.valid);
        self.value_range.0..self.value_range.1
    }

    /// Positions at the first entry.
    pub fn seek_to_first(&mut self) {
        self.rewind_to(0);
        self.parse_next();
    }

    /// Positions at the first entry with key >= `target`.
    pub fn seek(&mut self, target: &[u8]) {
        // Binary search restarts for the last restart whose key < target.
        let block = self.block();
        let (mut lo, mut hi) = (0usize, block.num_restarts.saturating_sub(1));
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if compare_internal_keys(block.restart_key(mid), target) == Ordering::Less {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        self.seek_from_restart(lo, target);
    }

    /// Positions at the first entry with key >= `target`, scanning forward
    /// from restart `restart`: the last restart whose key is below
    /// `target`, or restart 0 when none is. [`BlockIter::seek`] finds it by
    /// binary search; a table's index finds it from its key prefixes.
    pub(crate) fn seek_from_restart(&mut self, restart: usize, target: &[u8]) {
        let block = self.block();
        if restart >= block.num_restarts {
            self.valid = false;
            return;
        }
        self.rewind_to(block.restart_point(restart));
        loop {
            if !self.parse_next() {
                return;
            }
            if compare_internal_keys(self.key(), target) != Ordering::Less {
                return;
            }
        }
    }

    /// Advances; becomes invalid at the end.
    pub fn next(&mut self) {
        debug_assert!(self.valid);
        self.parse_next();
    }

    fn parse_next(&mut self) -> bool {
        // The field alone, not `self.block()`: the cursor's other fields are
        // written while the block is borrowed.
        let block: &Block = self.block.borrow();
        let data_end = block.restarts_offset;
        if self.offset >= data_end {
            self.valid = false;
            return false;
        }
        let data = &block.data[..data_end];
        let mut off = self.offset;
        let (shared, n) = match get_varint32(&data[off..]) {
            Some(v) => v,
            None => {
                self.valid = false;
                return false;
            }
        };
        off += n;
        let (non_shared, n) = match get_varint32(&data[off..]) {
            Some(v) => v,
            None => {
                self.valid = false;
                return false;
            }
        };
        off += n;
        let (value_len, n) = match get_varint32(&data[off..]) {
            Some(v) => v,
            None => {
                self.valid = false;
                return false;
            }
        };
        off += n;
        let shared = shared as usize;
        let key_end = off + non_shared as usize;
        let value_end = key_end + value_len as usize;
        let prev_len = if self.key_in_buf {
            self.buf.len()
        } else {
            self.key_range.1 - self.key_range.0
        };
        if value_end > data_end || shared > prev_len {
            self.valid = false;
            return false;
        }
        if shared == 0 {
            self.key_range = (off, key_end);
            self.key_in_buf = false;
        } else {
            if self.key_in_buf {
                self.buf.truncate(shared);
            } else {
                // The previous key lies in the block: copy out the prefix
                // this entry builds on, into room for the whole key.
                let start = self.key_range.0;
                self.buf.clear();
                self.buf.reserve(shared + non_shared as usize);
                self.buf.extend_from_slice(&data[start..start + shared]);
                self.key_in_buf = true;
            }
            self.buf.extend_from_slice(&data[off..key_end]);
        }
        self.value_range = (key_end, value_end);
        self.offset = value_end;
        self.valid = true;
        true
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

    fn build(entries: &[(Vec<u8>, Vec<u8>)], restart_interval: usize) -> Block {
        let mut b = BlockBuilder::new(restart_interval);
        for (k, v) in entries {
            b.add(k, v);
        }
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    fn sample_entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    ik(format!("key{i:05}").as_bytes(), 1),
                    format!("value{i}").into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let block = build(&[], 16);
        let mut it = block.iter();
        it.seek_to_first();
        assert!(!it.valid());
        it.seek(&ik(b"anything", 1));
        assert!(!it.valid());
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        for interval in [1, 2, 16] {
            let entries = sample_entries(100);
            let block = build(&entries, interval);
            let mut it = block.iter();
            it.seek_to_first();
            for (k, v) in &entries {
                assert!(it.valid());
                assert_eq!(it.key(), k.as_slice());
                assert_eq!(it.value(), v.as_slice());
                it.next();
            }
            assert!(!it.valid());
        }
    }

    #[test]
    fn seek_lands_on_first_at_or_after() {
        let entries = sample_entries(100);
        let block = build(&entries, 4);
        let mut it = block.iter();
        // Exact hit.
        it.seek(&ik(b"key00042", 1));
        assert_eq!(user_key(it.key()), b"key00042");
        // Between keys: key00042x -> key00043.
        it.seek(&ik(b"key00042x", 1));
        assert_eq!(user_key(it.key()), b"key00043");
        // Before everything.
        it.seek(&ik(b"a", 1));
        assert_eq!(user_key(it.key()), b"key00000");
        // After everything.
        it.seek(&ik(b"z", 1));
        assert!(!it.valid());
    }

    #[test]
    fn seek_respects_sequence_ordering() {
        // Same user key at different sequences: newest (highest seq) first.
        let entries = vec![
            (ik(b"k", 9), b"new".to_vec()),
            (ik(b"k", 3), b"old".to_vec()),
        ];
        let block = build(&entries, 16);
        let mut it = block.iter();
        it.seek(&ik(b"k", 100)); // snapshot above both
        assert_eq!(it.value(), b"new");
        it.seek(&ik(b"k", 5)); // snapshot between
        assert_eq!(it.value(), b"old");
    }

    #[test]
    fn prefix_compression_shrinks_blocks() {
        let entries = sample_entries(1000);
        let compressed = build(&entries, 16);
        let uncompressed = build(&entries, 1);
        assert!(compressed.size() < uncompressed.size());
    }

    #[test]
    fn corrupt_trailer_is_rejected() {
        assert!(Block::new(Bytes::from_static(&[1, 2])).is_err());
        // Restart count claiming more restarts than the block can hold.
        let mut data = vec![0u8; 8];
        data.extend_from_slice(&1000u32.to_le_bytes());
        assert!(Block::new(Bytes::from(data)).is_err());
    }

    #[test]
    fn corrupt_restart_offsets_are_rejected() {
        let entries = sample_entries(20);
        let mut b = BlockBuilder::new(4);
        for (k, v) in &entries {
            b.add(k, v);
        }
        let good = b.finish();
        let restarts_offset = good.len() - 4 - {
            let n = u32::from_le_bytes(good[good.len() - 4..].try_into().unwrap()) as usize;
            n * 4
        };
        // Point the second restart past the entry area.
        let mut bad = good.clone();
        bad[restarts_offset + 4..restarts_offset + 8]
            .copy_from_slice(&(restarts_offset as u32).to_le_bytes());
        assert!(Block::new(Bytes::from(bad)).is_err());
        // Point it mid-entry where the header cannot parse a whole key.
        let mut bad = good.clone();
        bad[restarts_offset + 4..restarts_offset + 8]
            .copy_from_slice(&(restarts_offset as u32 - 1).to_le_bytes());
        assert!(Block::new(Bytes::from(bad)).is_err());
        // The untouched block still parses and seeks.
        let block = Block::new(Bytes::from(good)).unwrap();
        let mut it = block.iter();
        it.seek(&entries[7].0);
        assert_eq!(it.key(), entries[7].0.as_slice());
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut b = BlockBuilder::new(4);
        b.add(&ik(b"a", 1), b"1");
        let first = b.finish();
        assert!(b.is_empty());
        b.add(&ik(b"a", 1), b"1");
        let second = b.finish();
        assert_eq!(first, second);
    }

    #[test]
    fn finish_into_appends_what_finish_returns() {
        let entries = sample_entries(40);
        let mut a = BlockBuilder::new(4);
        let mut b = BlockBuilder::new(4);
        let mut image = b"already here".to_vec();
        for round in 0..2 {
            for (k, v) in &entries[round * 20..(round + 1) * 20] {
                a.add(k, v);
                b.add(k, v);
            }
            let start = image.len();
            b.finish_into(&mut image);
            assert_eq!(a.finish(), image[start..], "round {round}");
            assert!(b.is_empty());
        }
        assert!(image.starts_with(b"already here"));
    }

    /// Index in `entries` of the first key at or after `target`: the
    /// definition `seek` has to agree with, taken from the entries the block
    /// was built from, not from the iterator under test.
    fn linear_seek(entries: &[(Vec<u8>, Vec<u8>)], target: &[u8]) -> usize {
        entries.partition_point(|(k, _)| compare_internal_keys(k, target) == Ordering::Less)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// `seek` binary-searches keys borrowed from the block and then
        /// walks; it must land where the walk alone does, whatever the
        /// restart interval, for targets before, between, equal to and after
        /// the stored keys — and from there `next` must serve every later
        /// key and value unchanged, through each restart → shared → restart
        /// transition, whether `key()` borrows from the block or rebuilds in
        /// its buffer. A two-letter alphabet makes long shared prefixes
        /// (what restarts cut) and frequent exact matches.
        #[test]
        fn seek_lands_where_a_linear_scan_does(
            interval in prop_oneof![Just(1usize), Just(2usize), Just(16usize)],
            ukeys in prop::collection::btree_map(
                prop::collection::vec(0..2u8, 0..9),
                (1..50u64, 0..40usize),
                0..60,
            ),
            probes in prop::collection::vec((prop::collection::vec(0..3u8, 0..10), 0..60u64), 1..40),
        ) {
            // Two versions of every third key, newest first as the engine stores them.
            let mut entries = Vec::new();
            for (i, (ukey, (seq, value_len))) in ukeys.iter().enumerate() {
                if i % 3 == 0 {
                    entries.push((ik(ukey, seq + 50), vec![b'n'; *value_len]));
                }
                entries.push((ik(ukey, *seq), vec![b'o'; *value_len]));
            }
            let block = build(&entries, interval);
            let stored = entries.iter().map(|(k, _)| k.clone());
            let random = probes.iter().map(|(ukey, seq)| ik(ukey, *seq));
            let mut it = block.iter();
            for target in stored.chain(random) {
                it.seek(&target);
                for (i, (k, v)) in entries.iter().enumerate().skip(linear_seek(&entries, &target)) {
                    prop_assert!(it.valid(), "target {:?}: ended before entry {}", target, i);
                    prop_assert_eq!(it.key(), k.as_slice(), "target {:?}, entry {}", target, i);
                    prop_assert_eq!(it.value(), v.as_slice(), "target {:?}, entry {}", target, i);
                    it.next();
                }
                prop_assert!(!it.valid(), "target {:?}: entries past the last", target);
            }
        }
    }
}
