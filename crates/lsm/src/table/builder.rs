//! SSTable construction.

use crate::block::BlockBuilder;
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
pub struct TableBuilder {
    block_bytes: usize,
    bits_per_key: usize,
    data: Vec<u8>,
    block: BlockBuilder,
    index: BlockBuilder,
    /// [`bloom_hash`] of each distinct user key, in order.
    filter_hashes: Vec<u32>,
    smallest: Option<Vec<u8>>,
    largest: Vec<u8>,
    entries: u64,
    last_key: Vec<u8>,
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
            block: BlockBuilder::new(restart_interval),
            index: BlockBuilder::new(1),
            filter_hashes: Vec::new(),
            smallest: None,
            largest: Vec::new(),
            entries: 0,
            last_key: Vec::new(),
        }
    }

    /// Appends an entry; internal keys must arrive in strictly increasing
    /// order.
    pub fn add(&mut self, ikey: &[u8], value: &[u8]) {
        debug_assert!(
            self.entries == 0 || compare_internal_keys(&self.last_key, ikey).is_lt(),
            "table keys must be strictly increasing"
        );
        if self.smallest.is_none() {
            self.smallest = Some(ikey.to_vec());
        }
        // Filter on user keys, hashed as they arrive; skip consecutive
        // duplicates (multiple versions of one key share a filter probe).
        let ukey = user_key(ikey);
        if self.entries == 0 || user_key(&self.last_key) != ukey {
            self.filter_hashes.push(bloom_hash(ukey));
        }
        self.largest.clear();
        self.largest.extend_from_slice(ikey);
        self.last_key.clear();
        self.last_key.extend_from_slice(ikey);
        self.block.add(ikey, value);
        self.entries += 1;
        if self.block.size_estimate() >= self.block_bytes {
            self.flush_data_block();
        }
    }

    /// Bytes the file occupies so far (data blocks already flushed plus the
    /// in-progress block); used to cut tables at the target file size.
    pub fn estimated_file_bytes(&self) -> usize {
        self.data.len() + self.block.size_estimate()
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
        if !self.block.is_empty() {
            self.flush_data_block();
        }
        // Filter block.
        let filter =
            BloomFilter::from_hashes(self.filter_hashes.iter().copied(), self.bits_per_key);
        let filter_handle = seal_block(&mut self.data, |out| {
            out.extend_from_slice(filter.as_bytes());
        });
        // Index block.
        let index_handle = seal_block(&mut self.data, |out| self.index.finish_into(out));
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

    fn flush_data_block(&mut self) {
        debug_assert!(!self.block.is_empty());
        let handle = seal_block(&mut self.data, |out| self.block.finish_into(out));
        let mut encoded = Vec::with_capacity(20);
        handle.encode_to(&mut encoded);
        // Index key: the last key of the block (a simple, correct separator).
        self.index.add(&self.last_key, &encoded);
    }
}

/// Makes one block of whatever `write` appends to the table image `data`:
/// adds the type byte, checksums the appended bytes and the type byte in
/// one pass where they lie, appends the crc and returns the block's handle.
fn seal_block(data: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> BlockHandle {
    let offset = data.len();
    write(data);
    let size = data.len() - offset;
    // Compression type: none.
    data.push(0);
    // ldc-lint: allow(panic_safety) — `offset` was the image's length before `write`, which only appends
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
}
