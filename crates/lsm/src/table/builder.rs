//! SSTable construction.

use crate::block::{BlockBuilder, BlockWriter};
use crate::crc32c;
use crate::filter::{bloom_hash, BloomFilter};
use crate::table::{encode_footer, BlockHandle};
use crate::types::{compare_internal_keys, user_key};

/// A fully built table image, ready to be written as one file.
#[derive(Debug, Clone)]
pub struct FinishedTable {
    /// Serialized file contents.
    pub bytes: Vec<u8>,
    /// Smallest internal key in the table.
    pub smallest: Vec<u8>,
    /// Largest internal key in the table.
    pub largest: Vec<u8>,
    /// Number of entries.
    pub entries: u64,
}

/// Streams sorted internal entries into an SSTable image.
///
/// The builder accumulates the file in memory (tables are bounded by the
/// target file size, 2 MiB by default) and the caller persists it with one
/// `write_file`, which matches how the simulated device charges time.
/// Data-block entries are encoded straight into that image, so each key
/// and value is copied once; only the index block is built aside.
pub struct TableBuilder {
    block_bytes: usize,
    bits_per_key: usize,
    /// The image: sealed blocks, then the entries of the open data block.
    data: Vec<u8>,
    /// Where the open data block begins in `data`.
    block_start: usize,
    block: BlockWriter,
    index: BlockBuilder,
    /// The encoded handle of the index entry being added.
    handle: Vec<u8>,
    /// [`bloom_hash`] of each distinct user key, in order.
    filter_hashes: Vec<u32>,
    smallest: Option<Vec<u8>>,
    /// The last key added, which is the largest so far.
    largest: Vec<u8>,
    entries: u64,
}

/// Entries between prefix-compression restarts in the data blocks of every
/// table the engine writes (LevelDB's `block_restart_interval`).
pub(crate) const BLOCK_RESTART_INTERVAL: usize = 16;

impl TableBuilder {
    /// Creates a builder emitting ~`block_bytes` data blocks with
    /// `restart_interval` prefix-compression restarts and a Bloom filter at
    /// `bits_per_key`.
    pub fn new(block_bytes: usize, restart_interval: usize, bits_per_key: usize) -> Self {
        Self::with_capacity(block_bytes, restart_interval, bits_per_key, 0)
    }

    /// [`TableBuilder::new`] with room for a `file_bytes` image reserved up
    /// front, so a table cut at a known size never regrows its buffer.
    pub fn with_capacity(
        block_bytes: usize,
        restart_interval: usize,
        bits_per_key: usize,
        file_bytes: usize,
    ) -> Self {
        Self {
            block_bytes: block_bytes.max(64),
            bits_per_key,
            data: Vec::with_capacity(file_bytes),
            block_start: 0,
            block: BlockWriter::new(restart_interval),
            index: BlockBuilder::new(1),
            handle: Vec::with_capacity(20),
            filter_hashes: Vec::new(),
            smallest: None,
            largest: Vec::new(),
            entries: 0,
        }
    }

    /// Appends an entry; internal keys must arrive in strictly increasing
    /// order.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || compare_internal_keys(&self.largest, ikey).is_lt(),
            "table keys must be strictly increasing"
        );
        if self.smallest.is_none() {
            self.smallest = Some(ikey.to_vec());
        }
        // Filter on user keys, hashed as they arrive; skip consecutive
        // duplicates (multiple versions of one key share a filter probe).
        let ukey = user_key(ikey);
        if self.entries == 0 || user_key(&self.largest) != ukey {
            self.filter_hashes.push(bloom_hash(ukey));
        }
        self.block
            .add(&mut self.data, self.block_start, &self.largest, ikey, value);
        self.largest.clear();
        self.largest.extend_from_slice(ikey);
        self.entries += 1;
        if self.data.len() - self.block_start + self.block.trailer_bytes() >= self.block_bytes {
            self.flush_data_block();
        }
    }

    /// Bytes the file occupies so far (data blocks already flushed plus the
    /// in-progress block and its trailer); used to cut tables at the target
    /// file size.
    pub fn estimated_file_bytes(&self) -> usize {
        self.data.len() + self.block.trailer_bytes()
    }

    /// Number of entries added so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Whether nothing was added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Seals the table. Panics if empty (callers must not create empty
    /// tables).
    pub fn finish(mut self) -> FinishedTable {
        assert!(self.entries > 0, "refusing to build an empty table");
        if self.block.entries() > 0 {
            self.flush_data_block();
        }
        // Filter block.
        let filter =
            BloomFilter::from_hashes(self.filter_hashes.iter().copied(), self.bits_per_key);
        let offset = self.data.len();
        self.data.extend_from_slice(filter.as_bytes());
        let filter_handle = seal_block(&mut self.data, offset);
        // Index block.
        let offset = self.data.len();
        self.index.finish_into(&mut self.data);
        let index_handle = seal_block(&mut self.data, offset);
        // Footer.
        let footer = encode_footer(filter_handle, index_handle);
        self.data.extend_from_slice(&footer);
        FinishedTable {
            bytes: self.data,
            smallest: self.smallest.expect("nonempty table"),
            largest: self.largest,
            entries: self.entries,
        }
    }

    /// Seals the open data block, whose entries already lie in the image
    /// from `block_start` on, and indexes it.
    fn flush_data_block(&mut self) {
        debug_assert!(self.block.entries() > 0);
        self.block.finish(&mut self.data);
        let handle = seal_block(&mut self.data, self.block_start);
        self.block_start = self.data.len();
        self.handle.clear();
        handle.encode_to(&mut self.handle);
        // Index key: the last key of the block (a simple, correct separator).
        self.index.add(&self.largest, &self.handle);
    }
}

/// Makes one block of the image's bytes from `offset` on: appends the type
/// byte, checksums the block and the type byte in one pass where they lie,
/// appends the crc and returns the block's handle.
fn seal_block(data: &mut Vec<u8>, offset: usize) -> BlockHandle {
    let size = data.len() - offset;
    // Compression type: none.
    data.push(0);
    // ldc-lint: allow(panic_safety) — every caller passes an offset it read from `data.len()` before appending
    let crc = crc32c::mask(crc32c::crc32c(&data[offset..]));
    data.extend_from_slice(&crc.to_le_bytes());
    BlockHandle {
        offset: offset as u64,
        size: size as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{decode_footer, FOOTER_SIZE};
    use crate::types::{encode_internal_key, ValueType};
    use proptest::prelude::*;

    fn ik(key: &[u8], seq: u64) -> Vec<u8> {
        encode_internal_key(key, seq, ValueType::Value)
    }

    #[test]
    fn builds_a_wellformed_file() {
        let mut b = TableBuilder::new(256, 4, 10);
        for i in 0..100 {
            b.add(&ik(format!("k{i:04}").as_bytes(), 1), b"value");
        }
        assert_eq!(b.entries(), 100);
        let t = b.finish();
        assert_eq!(t.entries, 100);
        assert_eq!(user_key(&t.smallest), b"k0000");
        assert_eq!(user_key(&t.largest), b"k0099");
        // Footer parses.
        let footer = &t.bytes[t.bytes.len() - FOOTER_SIZE..];
        let (filter, index) = decode_footer(footer).unwrap();
        assert!(filter.size > 0);
        assert!(index.size > 0);
        assert!(index.offset > filter.offset);
    }

    #[test]
    fn small_blocks_produce_many_index_entries() {
        let mut small = TableBuilder::new(128, 4, 10);
        let mut large = TableBuilder::new(1 << 20, 4, 10);
        for i in 0..200 {
            let k = ik(format!("key{i:05}").as_bytes(), 1);
            small.add(&k, &[0u8; 32]);
            large.add(&k, &[0u8; 32]);
        }
        let small = small.finish();
        let large = large.finish();
        // More blocks -> more index entries + trailers -> bigger file.
        assert!(small.bytes.len() > large.bytes.len());
    }

    #[test]
    fn estimated_size_tracks_growth() {
        let mut b = TableBuilder::new(1 << 20, 16, 10);
        let before = b.estimated_file_bytes();
        b.add(&ik(b"k", 1), &vec![0u8; 1000]);
        assert!(b.estimated_file_bytes() >= before + 1000);
    }

    #[test]
    #[should_panic(expected = "empty table")]
    fn finishing_empty_table_panics() {
        TableBuilder::new(256, 4, 10).finish();
    }

    /// Appends `contents` as one block of `image`: the bytes, the type
    /// byte, and the masked crc of both.
    fn seal_standalone(image: &mut Vec<u8>, contents: &[u8]) -> BlockHandle {
        let handle = BlockHandle {
            offset: image.len() as u64,
            size: contents.len() as u64,
        };
        let mut covered = contents.to_vec();
        covered.push(0);
        let crc = crc32c::mask(crc32c::crc32c(&covered));
        image.extend_from_slice(&covered);
        image.extend_from_slice(&crc.to_le_bytes());
        handle
    }

    /// The image a table of `entries` must have, composed from standalone
    /// blocks: each data block from [`BlockBuilder::finish`], cut where
    /// its size estimate reaches the block size, then the filter, the
    /// index and the footer. Also returns the file size estimate after each
    /// entry, which decides where the engine cuts its tables.
    fn reference_image(
        entries: &[(Vec<u8>, Vec<u8>)],
        block_bytes: usize,
        restart_interval: usize,
        bits_per_key: usize,
    ) -> (Vec<u8>, Vec<usize>) {
        let block_bytes = block_bytes.max(64);
        let mut image = Vec::new();
        let mut block = BlockBuilder::new(restart_interval);
        let mut index = BlockBuilder::new(1);
        let mut flush = |image: &mut Vec<u8>, block: &mut BlockBuilder, last: &[u8]| {
            let mut handle = Vec::new();
            seal_standalone(image, &block.finish()).encode_to(&mut handle);
            index.add(last, &handle);
        };
        let mut hashes = Vec::new();
        let mut estimates = Vec::new();
        let mut last: &[u8] = &[];
        for (ikey, value) in entries {
            if last.is_empty() || user_key(last) != user_key(ikey) {
                hashes.push(bloom_hash(user_key(ikey)));
            }
            block.add(ikey, value);
            last = ikey;
            if block.size_estimate() >= block_bytes {
                flush(&mut image, &mut block, last);
            }
            estimates.push(image.len() + block.size_estimate());
        }
        if !block.is_empty() {
            flush(&mut image, &mut block, last);
        }
        let filter = BloomFilter::from_hashes(hashes.into_iter(), bits_per_key);
        let filter_handle = seal_standalone(&mut image, filter.as_bytes());
        let index_handle = seal_standalone(&mut image, &index.finish());
        image.extend_from_slice(&encode_footer(filter_handle, index_handle));
        (image, estimates)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The builder encodes data blocks in place in the image; byte for
        /// byte, that image must be the one composed from standalone blocks,
        /// whatever the block size and restart interval, with empty values,
        /// values larger than a block, and several versions of a key
        /// straddling block boundaries.
        #[test]
        fn in_place_image_equals_standalone_blocks(
            keys in prop::collection::btree_map(
                prop::collection::vec(prop_oneof![Just(0u8), Just(b'a'), Just(0xffu8)], 0..12),
                (
                    1..4u64,
                    prop_oneof![Just(0usize), 1..80usize, 300..3000usize],
                ),
                1..60,
            ),
            block_bytes in prop_oneof![Just(0usize), 64..600usize, 4096..4097usize],
            restart_interval in 1..20usize,
            bits_per_key in 1..12usize,
        ) {
            let mut entries = Vec::new();
            for (i, (ukey, &(versions, value_len))) in keys.iter().enumerate() {
                for seq in (1..=versions).rev() {
                    let value = vec![(i as u8).wrapping_add(seq as u8); value_len];
                    entries.push((ik(ukey, seq), value));
                }
            }
            let mut builder = TableBuilder::new(block_bytes, restart_interval, bits_per_key);
            let mut estimates = Vec::new();
            for (ikey, value) in &entries {
                builder.add(ikey, value);
                estimates.push(builder.estimated_file_bytes());
            }
            let table = builder.finish();
            let (want, want_estimates) =
                reference_image(&entries, block_bytes, restart_interval, bits_per_key);
            prop_assert_eq!(estimates, want_estimates);
            prop_assert_eq!(table.bytes.len(), want.len());
            prop_assert!(table.bytes == want, "images differ");
            prop_assert_eq!(&table.smallest, &entries[0].0);
            prop_assert_eq!(&table.largest, &entries[entries.len() - 1].0);
        }
    }
}
