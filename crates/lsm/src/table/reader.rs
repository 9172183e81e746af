//! SSTable reading.
//!
//! A point read does no heap allocation of its own once the blocks it needs
//! are cached: the index entry is found by a binary search over integers
//! ([`IndexPrefix`]), the index block serves its keys in place, and the
//! data block's iterator rebuilds prefix-compressed keys in one buffer per
//! thread. The value comes back as a slice of the cached block.

use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use ldc_ssd::{IoClass, StorageBackend};

use crate::block::{Block, BlockIter};
use crate::cache::BlockCache;
use crate::crc32c;
use crate::error::{corruption_at, corruption_in, Error, Result};
use crate::filter::BloomFilter;
use crate::table::{decode_footer, BlockHandle, BLOCK_TRAILER_SIZE, FOOTER_SIZE};
use crate::types::{
    compare_internal_keys, encode_internal_key, parse_trailer, user_key, KeyRange, SequenceNumber,
    ValueType, MAX_SEQUENCE, TYPE_FOR_SEEK,
};

thread_local! {
    /// The key buffer of this thread's point-read data-block seeks: an
    /// entry that shares a prefix with its predecessor is rebuilt here.
    static SEEK_KEY: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// An open SSTable: pinned index + Bloom filter, data blocks via the cache.
pub struct Table {
    storage: Arc<dyn StorageBackend>,
    name: String,
    file_number: u64,
    size: u64,
    index: Block,
    /// Not charged to the cache: 8 bytes per data block, next to an index
    /// entry's key and handle.
    prefix: IndexPrefix,
    filter: BloomFilter,
    cache: Arc<BlockCache>,
}

/// The index block's restart keys as integers: for each, the 8 user-key
/// bytes that follow the prefix all of them share, zero-padded and read
/// big-endian. Codes sort like the keys they come from, except that keys
/// agreeing in those 8 bytes tie. So the index entry a probe seeks is found
/// by a binary search over the codes, and whole keys are compared only
/// within a run of ties — none, when the table's keys differ within 8 bytes
/// of their shared prefix, as hashed and counter keys do.
struct IndexPrefix {
    /// The user-key prefix every index key shares.
    shared: Vec<u8>,
    /// One code per restart of the index block.
    codes: Vec<u64>,
}

impl IndexPrefix {
    fn of(index: &Block) -> IndexPrefix {
        let n = index.num_restarts();
        // The keys are sorted, so what the first and last share, all share.
        let shared = match n {
            0 => Vec::new(),
            _ => {
                let (first, last) = (
                    user_key(index.restart_key(0)),
                    user_key(index.restart_key(n - 1)),
                );
                let len = first.iter().zip(last).take_while(|(a, b)| a == b).count();
                first.get(..len).unwrap_or_default().to_vec()
            }
        };
        let codes = (0..n)
            .map(|i| {
                code(
                    user_key(index.restart_key(i))
                        .get(shared.len()..)
                        .unwrap_or_default(),
                )
            })
            .collect();
        IndexPrefix { shared, codes }
    }

    /// The first restart of `index` (the block this was built from) whose
    /// key is at or after `probe`; the restart count when there is none.
    fn seek(&self, index: &Block, probe: &[u8]) -> usize {
        let ukey = user_key(probe);
        let Some(rest) = ukey.strip_prefix(self.shared.as_slice()) else {
            // Outside the shared prefix: before every key or after all.
            return match ukey.cmp(&self.shared) {
                Ordering::Less => 0,
                _ => self.codes.len(),
            };
        };
        let probe_code = code(rest);
        let lo = self.codes.partition_point(|&c| c < probe_code);
        let ties = self
            .codes
            .get(lo..)
            .map_or(0, |after| after.partition_point(|&c| c == probe_code));
        let (mut lo, mut hi) = (lo, lo + ties);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if compare_internal_keys(index.restart_key(mid), probe) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The first 8 bytes of `rest`, zero-padded, as a big-endian integer. A
/// smaller code means a smaller key; equal codes decide nothing.
fn code(rest: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    for (to, from) in bytes.iter_mut().zip(rest) {
        *to = *from;
    }
    u64::from_be_bytes(bytes)
}

impl Table {
    /// Opens `name`, reading footer, index, and filter (charged as
    /// [`IoClass::Other`] metadata traffic).
    pub fn open(
        storage: Arc<dyn StorageBackend>,
        name: impl Into<String>,
        file_number: u64,
        cache: Arc<BlockCache>,
    ) -> Result<Arc<Table>> {
        let name = name.into();
        let size = storage.size(&name)?;
        if size < FOOTER_SIZE as u64 {
            return Err(corruption_in(&name, "table shorter than footer"));
        }
        let footer = storage.read(
            &name,
            size - FOOTER_SIZE as u64,
            FOOTER_SIZE as u64,
            IoClass::Other,
        )?;
        let (filter_handle, index_handle) = decode_footer(&footer)
            .map_err(|e| attribute_file(e, &name, size - FOOTER_SIZE as u64))?;
        let index_bytes =
            read_verified_block(storage.as_ref(), &name, index_handle, IoClass::Other)?;
        let index =
            Block::new(index_bytes).map_err(|e| attribute_file(e, &name, index_handle.offset))?;
        let filter_bytes =
            read_verified_block(storage.as_ref(), &name, filter_handle, IoClass::Other)?;
        let filter = BloomFilter::from_bytes(filter_bytes.to_vec());
        Ok(Arc::new(Table {
            storage,
            name,
            file_number,
            size,
            prefix: IndexPrefix::of(&index),
            index,
            filter,
            cache,
        }))
    }

    /// File name backing this table.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// File number backing this table.
    pub fn file_number(&self) -> u64 {
        self.file_number
    }

    /// File size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bloom filter check for the user key whose
    /// [`bloom_hash`](crate::filter::bloom_hash) is `hash`; `false` means
    /// the key is definitely absent.
    pub(crate) fn may_contain_hash(&self, hash: u32) -> bool {
        self.filter.may_contain_hash(hash)
    }

    /// Bytes this open handle pins in memory (decoded index block plus
    /// Bloom filter) — charged against the block-cache budget by the
    /// engine's open-table sets so open-table memory and cached-block
    /// memory share one pool.
    pub fn pinned_bytes(&self) -> usize {
        self.index.size() + self.filter.size_bytes()
    }

    /// Point lookup: the newest version of `ukey` with sequence <=
    /// `snapshot`, or `None`. The Bloom filter is consulted first. The
    /// value is a zero-copy [`Bytes`] slice of the cached block's backing
    /// buffer: it pins the decoded block and is never memcpy'd on the read
    /// path (callers copy only at the public facade boundary).
    pub fn get(
        &self,
        ukey: &[u8],
        snapshot: SequenceNumber,
        class: IoClass,
    ) -> Result<Option<(SequenceNumber, ValueType, Bytes)>> {
        if !self.filter.may_contain(ukey) {
            return Ok(None);
        }
        self.get_probe(&encode_internal_key(ukey, snapshot, TYPE_FOR_SEEK), class)
    }

    /// The search half of [`Table::get`], for the engine's read path: `probe`
    /// is the seek key `(ukey, snapshot, TYPE_FOR_SEEK)`, built once per get
    /// and shared by every table it searches. The Bloom filter is *not*
    /// consulted: the caller has asked [`Table::may_contain_hash`] (it
    /// counts the skips).
    pub(crate) fn get_probe(
        &self,
        probe: &[u8],
        class: IoClass,
    ) -> Result<Option<(SequenceNumber, ValueType, Bytes)>> {
        // The restart before the first one at or after `probe` holds a key
        // below it (or is restart 0): the seek starts there.
        let first_at_or_after = self.prefix.seek(&self.index, probe);
        let mut index_iter = self.index.iter();
        index_iter.seek_from_restart(first_at_or_after.saturating_sub(1), probe);
        if !index_iter.valid() {
            return Ok(None);
        }
        let (handle, _) = BlockHandle::decode_from(index_iter.value())?;
        let block = self.read_data_block(handle, class)?;
        let mut it = block.iter_with_buffer(SEEK_KEY.take());
        it.seek(probe);
        let hit = (it.valid() && user_key(it.key()) == user_key(probe)).then(|| {
            let (seq, vt) = parse_trailer(it.key());
            (seq, vt, it.value_bytes())
        });
        SEEK_KEY.set(it.into_buffer());
        Ok(hit)
    }

    /// Iterator over the whole table.
    pub fn iter(self: &Arc<Self>, class: IoClass) -> TableIter {
        self.range_iter(KeyRange::all(), class)
    }

    /// Iterator restricted to a user-key range (the slice read path).
    pub fn range_iter(self: &Arc<Self>, range: KeyRange, class: IoClass) -> TableIter {
        TableIter {
            table: Arc::clone(self),
            class,
            index_iter: self.index.iter(),
            data_iter: None,
            range,
            error: None,
            exhausted: false,
        }
    }

    /// Integrity check: walks the index and re-reads every data block,
    /// verifying each CRC and the key ordering inside and across blocks.
    /// Returns the number of entries verified.
    pub fn verify(&self, class: IoClass) -> Result<u64> {
        self.verify_deep(class).map(|s| s.entries)
    }

    /// Exhaustive integrity check for the online scrubber. On top of
    /// [`Table::verify`]'s per-block CRC and ordering checks, it verifies
    /// index/footer consistency (every handle stays inside the file, index
    /// separators bound their block's keys) and filter-vs-key agreement
    /// (every stored user key passes the Bloom filter — a false negative
    /// means the filter block and data blocks disagree).
    pub fn verify_deep(&self, class: IoClass) -> Result<TableScrubStats> {
        let mut index_iter = self.index.iter();
        index_iter.seek_to_first();
        let mut stats = TableScrubStats::default();
        let mut prev: Option<Vec<u8>> = None;
        while index_iter.valid() {
            let (handle, _) = BlockHandle::decode_from(index_iter.value())?;
            let block_end = handle
                .offset
                .checked_add(handle.size)
                .and_then(|e| e.checked_add(BLOCK_TRAILER_SIZE as u64));
            if block_end.is_none_or(|end| end > self.size) {
                return Err(corruption_at(
                    &self.name,
                    handle.offset,
                    "index handle out of file bounds",
                ));
            }
            let block = read_verified_block(self.storage.as_ref(), &self.name, handle, class)
                .and_then(Block::new)
                .map_err(|e| attribute_file(e, &self.name, handle.offset))?;
            let separator = index_iter.key().to_vec();
            let mut it = block.iter();
            it.seek_to_first();
            while it.valid() {
                if let Some(p) = &prev {
                    if crate::types::compare_internal_keys(p, it.key()).is_ge() {
                        return Err(corruption_at(
                            &self.name,
                            handle.offset,
                            "keys out of order",
                        ));
                    }
                }
                if crate::types::compare_internal_keys(it.key(), &separator).is_gt() {
                    return Err(corruption_at(
                        &self.name,
                        handle.offset,
                        "index separator below block keys",
                    ));
                }
                if !self.filter.may_contain(user_key(it.key())) {
                    return Err(corruption_at(
                        &self.name,
                        handle.offset,
                        "filter excludes a stored key",
                    ));
                }
                prev = Some(it.key().to_vec());
                stats.entries += 1;
                it.next();
            }
            stats.blocks += 1;
            stats.bytes += handle.size + BLOCK_TRAILER_SIZE as u64;
            index_iter.next();
        }
        Ok(stats)
    }

    fn read_data_block(&self, handle: BlockHandle, class: IoClass) -> Result<Arc<Block>> {
        self.read_data_block_inner(handle, class, false)
    }

    fn read_data_block_inner(
        &self,
        handle: BlockHandle,
        class: IoClass,
        sequential: bool,
    ) -> Result<Arc<Block>> {
        self.cache
            .get_or_load((self.file_number, handle.offset), || {
                let bytes =
                    read_block_bytes(self.storage.as_ref(), &self.name, handle, class, sequential)?;
                Block::new(bytes)
            })
            .map_err(|e| attribute_file(e, &self.name, handle.offset))
    }
}

/// Attributes an unattributed corruption error to `name` at `offset`.
/// Errors that already name a file (or are not corruption) pass through.
fn attribute_file(err: Error, name: &str, offset: u64) -> Error {
    match err {
        Error::Corruption(mut info) if info.file.is_empty() => {
            info.file = name.to_string();
            if info.offset.is_none() {
                info.offset = Some(offset);
            }
            Error::Corruption(info)
        }
        e => e,
    }
}

/// What one deep verification pass over a table covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableScrubStats {
    /// Entries whose ordering and filter membership were checked.
    pub entries: u64,
    /// Data blocks whose CRCs were re-verified.
    pub blocks: u64,
    /// Bytes read and verified (payload + trailers).
    pub bytes: u64,
}

/// Reads a block plus trailer and verifies its CRC.
fn read_verified_block(
    storage: &dyn StorageBackend,
    name: &str,
    handle: BlockHandle,
    class: IoClass,
) -> Result<Bytes> {
    read_block_bytes(storage, name, handle, class, false)
}

/// Reads a block plus trailer (optionally as a sequential-stream
/// continuation) and verifies its CRC.
fn read_block_bytes(
    storage: &dyn StorageBackend,
    name: &str,
    handle: BlockHandle,
    class: IoClass,
    sequential: bool,
) -> Result<Bytes> {
    let len = handle.size + BLOCK_TRAILER_SIZE as u64;
    let raw = if sequential {
        storage.read_sequential(name, handle.offset, len, class)?
    } else {
        storage.read(name, handle.offset, len, class)?
    };
    if (raw.len() as u64) < len {
        return Err(corruption_at(
            name,
            handle.offset,
            format!("short block read: got {} of {len} bytes", raw.len()),
        ));
    }
    // The crc covers the payload and the type byte after it: one pass.
    let (covered, crc_bytes) = raw.split_at(handle.size as usize + 1);
    let (&[.., compression], Some(stored_bytes)) = (covered, crc_bytes.first_chunk::<4>()) else {
        return Err(corruption_at(
            name,
            handle.offset,
            "truncated block trailer",
        ));
    };
    if compression != 0 {
        return Err(corruption_at(
            name,
            handle.offset,
            format!("unsupported compression tag {compression}"),
        ));
    }
    let stored = u32::from_le_bytes(*stored_bytes);
    if crc32c::unmask(stored) != crc32c::crc32c(covered) {
        return Err(corruption_at(name, handle.offset, "block crc mismatch"));
    }
    Ok(raw.slice(0..handle.size as usize))
}

/// Two-level iterator (index block -> data blocks), optionally bounded to a
/// user-key range.
pub struct TableIter {
    table: Arc<Table>,
    class: IoClass,
    index_iter: BlockIter,
    data_iter: Option<BlockIter>,
    range: KeyRange,
    error: Option<Error>,
    /// Set once the exclusive upper bound is crossed; `next` is then a no-op.
    exhausted: bool,
}

impl TableIter {
    /// Whether positioned at an entry inside the range.
    pub fn valid(&self) -> bool {
        self.error.is_none()
            && !self.exhausted
            && self
                .data_iter
                .as_ref()
                .map(|it| it.valid())
                .unwrap_or(false)
    }

    /// Any I/O or corruption error hit while iterating.
    pub fn status(&self) -> Result<()> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Positions at the first entry of the range.
    pub fn seek_to_first(&mut self) {
        self.exhausted = false;
        if self.range.lo.is_empty() {
            self.index_iter.seek_to_first();
            self.init_data_block(false);
            if let Some(it) = self.data_iter.as_mut() {
                it.seek_to_first();
            }
            self.skip_empty_blocks_forward();
            self.enforce_upper_bound();
        } else {
            let probe = encode_internal_key(&self.range.lo, MAX_SEQUENCE, TYPE_FOR_SEEK);
            self.seek(&probe);
        }
    }

    /// Positions at the first entry >= `target` (internal key) within range.
    pub fn seek(&mut self, target: &[u8]) {
        self.exhausted = false;
        // A target at or past the exclusive upper bound cannot match: skip
        // the index/block reads entirely (this keeps slice iterators whose
        // range lies left of a scan's start from costing any I/O).
        if let Some(hi) = self.range.hi.as_deref() {
            if user_key(target) >= hi {
                self.exhausted = true;
                self.data_iter = None;
                return;
            }
        }
        // Clamp to the range's lower bound.
        let lo_probe;
        let target = if user_key(target) < self.range.lo.as_slice() {
            lo_probe = encode_internal_key(&self.range.lo, MAX_SEQUENCE, TYPE_FOR_SEEK);
            lo_probe.as_slice()
        } else {
            target
        };
        self.index_iter.seek(target);
        self.init_data_block(false);
        if let Some(it) = self.data_iter.as_mut() {
            it.seek(target);
        }
        self.skip_empty_blocks_forward();
        self.enforce_upper_bound();
    }

    /// Advances to the next entry within range.
    pub fn next(&mut self) {
        if self.exhausted || self.error.is_some() {
            return;
        }
        if let Some(it) = self.data_iter.as_mut() {
            if it.valid() {
                it.next();
            }
        }
        self.skip_empty_blocks_forward();
        self.enforce_upper_bound();
    }

    /// Current internal key (empty unless [`TableIter::valid`]).
    pub fn key(&self) -> &[u8] {
        debug_assert!(self.valid(), "key() on invalid iterator");
        self.data_iter.as_ref().map(|it| it.key()).unwrap_or(&[])
    }

    /// Current value (empty unless [`TableIter::valid`]).
    pub fn value(&self) -> &[u8] {
        debug_assert!(self.valid(), "value() on invalid iterator");
        self.data_iter.as_ref().map(|it| it.value()).unwrap_or(&[])
    }

    fn init_data_block(&mut self, sequential: bool) {
        // The outgoing block's key buffer serves the incoming one.
        let buf = self.data_iter.take().map(BlockIter::into_buffer);
        if !self.index_iter.valid() {
            return;
        }
        match BlockHandle::decode_from(self.index_iter.value())
            .and_then(|(h, _)| self.table.read_data_block_inner(h, self.class, sequential))
        {
            Ok(block) => self.data_iter = Some(block.iter_with_buffer(buf.unwrap_or_default())),
            Err(e) => self.error = Some(e),
        }
    }

    /// While the data iterator is exhausted, move to the next data block.
    fn skip_empty_blocks_forward(&mut self) {
        loop {
            if self.error.is_some() {
                return;
            }
            match self.data_iter.as_ref() {
                Some(it) if it.valid() => return,
                _ => {}
            }
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.index_iter.next();
            if !self.index_iter.valid() {
                self.data_iter = None;
                return;
            }
            self.init_data_block(true);
            if let Some(it) = self.data_iter.as_mut() {
                it.seek_to_first();
            }
        }
    }

    /// Marks the iterator exhausted once it crosses the upper bound.
    fn enforce_upper_bound(&mut self) {
        if let (Some(hi), Some(it)) = (self.range.hi.as_deref(), self.data_iter.as_ref()) {
            if it.valid() && user_key(it.key()) >= hi {
                self.exhausted = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::builder::TableBuilder;
    use ldc_ssd::{MemStorage, SsdConfig, SsdDevice};
    use proptest::prelude::*;

    fn ik(key: &[u8], seq: u64) -> Vec<u8> {
        encode_internal_key(key, seq, ValueType::Value)
    }

    fn build_table(n: usize) -> (Arc<MemStorage>, Arc<Table>) {
        let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
        let mut b = TableBuilder::new(512, 4, 10);
        for i in 0..n {
            b.add(
                &ik(format!("key{i:05}").as_bytes(), 1),
                format!("value{i}").as_bytes(),
            );
        }
        let finished = b.finish();
        storage
            .write_file("000001.sst", &finished.bytes, IoClass::FlushWrite)
            .unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let table = Table::open(storage.clone(), "000001.sst", 1, cache).unwrap();
        (storage, table)
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let (_s, table) = build_table(500);
        let hit = table
            .get(b"key00042", MAX_SEQUENCE, IoClass::UserRead)
            .unwrap();
        let (seq, vt, value) = hit.unwrap();
        assert_eq!(seq, 1);
        assert_eq!(vt, ValueType::Value);
        assert_eq!(&value[..], b"value42");
        assert!(table
            .get(b"nokey", MAX_SEQUENCE, IoClass::UserRead)
            .unwrap()
            .is_none());
        // Key beyond the table's range.
        assert!(table
            .get(b"zzz", MAX_SEQUENCE, IoClass::UserRead)
            .unwrap()
            .is_none());
    }

    #[test]
    fn snapshot_visibility_in_tables() {
        let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
        let mut b = TableBuilder::new(512, 4, 10);
        // Newest first within a user key.
        b.add(&encode_internal_key(b"k", 9, ValueType::Value), b"new");
        b.add(&encode_internal_key(b"k", 4, ValueType::Deletion), b"");
        b.add(&encode_internal_key(b"k", 2, ValueType::Value), b"old");
        let finished = b.finish();
        storage
            .write_file("t.sst", &finished.bytes, IoClass::FlushWrite)
            .unwrap();
        let table = Table::open(storage, "t.sst", 1, Arc::new(BlockCache::new(1 << 20))).unwrap();

        let (seq, vt, v) = table.get(b"k", 100, IoClass::UserRead).unwrap().unwrap();
        assert_eq!((seq, vt, &v[..]), (9, ValueType::Value, &b"new"[..]));
        let (seq, vt, _) = table.get(b"k", 5, IoClass::UserRead).unwrap().unwrap();
        assert_eq!((seq, vt), (4, ValueType::Deletion));
        let (seq, _, v) = table.get(b"k", 2, IoClass::UserRead).unwrap().unwrap();
        assert_eq!((seq, &v[..]), (2, &b"old"[..]));
    }

    #[test]
    fn full_iteration_in_order() {
        let (_s, table) = build_table(300);
        let mut it = table.iter(IoClass::UserRead);
        it.seek_to_first();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while it.valid() {
            if let Some(p) = &prev {
                assert!(crate::types::compare_internal_keys(p, it.key()).is_lt());
            }
            prev = Some(it.key().to_vec());
            count += 1;
            it.next();
        }
        assert_eq!(count, 300);
        it.status().unwrap();
    }

    #[test]
    fn seek_positions_across_blocks() {
        let (_s, table) = build_table(300);
        let mut it = table.iter(IoClass::UserRead);
        it.seek(&encode_internal_key(
            b"key00150",
            MAX_SEQUENCE,
            TYPE_FOR_SEEK,
        ));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key00150");
        it.seek(&ik(b"key00150x", MAX_SEQUENCE));
        assert_eq!(user_key(it.key()), b"key00151");
        it.seek(&ik(b"zzz", MAX_SEQUENCE));
        assert!(!it.valid());
    }

    #[test]
    fn range_iterator_honors_bounds() {
        let (_s, table) = build_table(300);
        let range = KeyRange::new(&b"key00100"[..], &b"key00110"[..]);
        let mut it = table.range_iter(range, IoClass::UserRead);
        it.seek_to_first();
        let mut seen = Vec::new();
        while it.valid() {
            seen.push(user_key(it.key()).to_vec());
            it.next();
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(seen.first().unwrap().as_slice(), b"key00100");
        assert_eq!(seen.last().unwrap().as_slice(), b"key00109");
    }

    #[test]
    fn range_iterator_clamps_seeks_below_lo() {
        let (_s, table) = build_table(300);
        let range = KeyRange::new(&b"key00100"[..], &b"key00110"[..]);
        let mut it = table.range_iter(range, IoClass::UserRead);
        it.seek(&ik(b"key00000", MAX_SEQUENCE));
        assert!(it.valid());
        assert_eq!(user_key(it.key()), b"key00100");
    }

    #[test]
    fn bloom_filter_skips_block_reads() {
        let (s, table) = build_table(300);
        let reads_before = s.device().io_stats().total_read_bytes();
        for i in 0..100 {
            let key = format!("absent{i:05}");
            let r = table
                .get(key.as_bytes(), MAX_SEQUENCE, IoClass::UserRead)
                .unwrap();
            assert!(r.is_none());
        }
        let reads_after = s.device().io_stats().total_read_bytes();
        // With ~1% fp rate, at most a couple of the 100 probes read a block.
        assert!(
            reads_after - reads_before < 5 * 512,
            "bloom should avoid almost all reads: {}",
            reads_after - reads_before
        );
    }

    #[test]
    fn corruption_is_detected() {
        let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
        let mut b = TableBuilder::new(512, 4, 10);
        for i in 0..50 {
            b.add(&ik(format!("k{i:03}").as_bytes(), 1), b"v");
        }
        let finished = b.finish();
        let mut bytes = finished.bytes;
        // Corrupt a byte inside the first data block.
        bytes[5] ^= 0xff;
        storage
            .write_file("bad.sst", &bytes, IoClass::FlushWrite)
            .unwrap();
        let table = Table::open(storage, "bad.sst", 1, Arc::new(BlockCache::new(0))).unwrap();
        let err = table.get(b"k000", MAX_SEQUENCE, IoClass::UserRead);
        assert!(matches!(err, Err(Error::Corruption(_))));
    }

    /// Bytes keys are built from: `0x00` makes a key and its zero-padded
    /// code agree, `0xff` sorts last, and a small alphabet makes long shared
    /// prefixes and equal codes likely.
    const ALPHABET: [u8; 4] = [0x00, b'a', b'b', 0xff];

    /// A user key of 0–24 bytes: `keep` bytes of `shared`, then `tail`.
    fn user_key_of(shared: &[u8], keep: usize, tail: &[usize]) -> Vec<u8> {
        let mut key: Vec<u8> = shared.iter().take(keep).copied().collect();
        key.extend(tail.iter().map(|&i| ALPHABET[i]));
        key.truncate(24);
        key
    }

    /// `(keep, tail)` of one generated key; see [`user_key_of`].
    fn key_parts() -> impl Strategy<Value = (usize, Vec<usize>)> {
        (0..17usize, prop::collection::vec(0..4usize, 0..14))
    }

    /// The index entry `BlockIter::seek` lands on, and the one the
    /// prefix search's restart leads to, as `(key, handle)`.
    fn index_entries(table: &Table, probe: &[u8]) -> [Option<(Vec<u8>, Vec<u8>)>; 2] {
        let entry = |it: &BlockIter| it.valid().then(|| (it.key().to_vec(), it.value().to_vec()));
        let mut by_block = table.index.iter();
        by_block.seek(probe);
        let mut by_prefix = table.index.iter();
        let restart = table.prefix.seek(&table.index, probe);
        by_prefix.seek_from_restart(restart.saturating_sub(1), probe);
        [entry(&by_block), entry(&by_prefix)]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Over tables whose keys share long prefixes, are shorter than 8
        /// bytes or end in zero bytes, and carry several versions each,
        /// the prefix search picks the index restart a linear scan picks,
        /// and the entry it leads to is the one `BlockIter::seek` finds:
        /// for every separator at three sequences around its own, for
        /// random keys, and for keys before, after and outside the
        /// table's shared prefix.
        #[test]
        fn prefix_search_lands_where_the_block_search_does(
            shared in prop::collection::vec(0..4usize, 0..16),
            parts in prop::collection::vec(key_parts(), 1..120),
            versions in prop::collection::vec(1..5u64, 120..121),
            block_bytes in 24..200usize,
            probes in prop::collection::vec((key_parts(), 0..12u64), 0..40),
        ) {
            let shared: Vec<u8> = shared.iter().map(|&i| ALPHABET[i]).collect();
            let mut ukeys: Vec<Vec<u8>> = parts
                .iter()
                .map(|(keep, tail)| user_key_of(&shared, *keep, tail))
                .collect();
            ukeys.sort();
            ukeys.dedup();
            let mut builder = TableBuilder::new(block_bytes, 4, 10);
            for (ukey, &n) in ukeys.iter().zip(&versions) {
                // Newest first: sequences 10, 8, 6, ... for `n` versions.
                for v in 0..n {
                    builder.add(&ik(ukey, 10 - 2 * v), b"value");
                }
            }
            let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
            storage
                .write_file("p.sst", &builder.finish().bytes, IoClass::FlushWrite)
                .unwrap();
            let cache = Arc::new(BlockCache::new(1 << 20));
            let table = Table::open(storage, "p.sst", 1, cache).unwrap();

            let n = table.index.num_restarts();
            let mut targets: Vec<Vec<u8>> = Vec::new();
            for i in 0..n {
                let separator = table.index.restart_key(i);
                let (seq, _) = parse_trailer(separator);
                for seq in [seq + 1, seq, seq.saturating_sub(1)] {
                    targets.push(ik(user_key(separator), seq));
                }
            }
            for ((keep, tail), seq) in &probes {
                targets.push(ik(&user_key_of(&shared, *keep, tail), *seq));
            }
            let mut outside = shared.clone();
            if let Some(last) = outside.last_mut() {
                *last = if *last == 0xff { b'a' } else { 0xff };
            }
            for ukey in [&b""[..], &[0xff; 25][..], &outside, &shared] {
                targets.push(ik(ukey, MAX_SEQUENCE));
                targets.push(ik(ukey, 0));
            }

            for probe in &targets {
                let linear = (0..n)
                    .position(|i| compare_internal_keys(table.index.restart_key(i), probe).is_ge())
                    .unwrap_or(n);
                prop_assert_eq!(table.prefix.seek(&table.index, probe), linear, "probe {:?}", probe);
                let [by_block, by_prefix] = index_entries(&table, probe);
                prop_assert_eq!(by_block, by_prefix, "probe {:?}", probe);
            }
        }
    }

    #[test]
    fn missing_file_fails_to_open() {
        let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
        assert!(Table::open(storage, "nope.sst", 1, Arc::new(BlockCache::new(0))).is_err());
    }
}
