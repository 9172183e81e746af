//! SSTables: sorted, immutable on-device tables.
//!
//! Layout (LevelDB-shaped):
//!
//! ```text
//! [data block 0][type+crc]
//! [data block 1][type+crc]
//! ...
//! [filter block][type+crc]        SSTable-level Bloom filter
//! [index block][type+crc]         last-key-of-block -> BlockHandle
//! [footer: filter handle, index handle, padding, magic]  (48 bytes)
//! ```
//!
//! Every block carries a one-byte compression tag (always `0` = none) and a
//! masked CRC32C. The footer is fixed-size so a reader can bootstrap from
//! the file tail.

mod builder;
mod reader;

pub(crate) use builder::BLOCK_RESTART_INTERVAL;
pub use builder::{FinishedTable, TableBuilder};
pub(crate) use reader::BlockHit;
pub use reader::{Table, TableIter, TableScrubStats};

use std::sync::Arc;

use ldc_ssd::StorageBackend;

use crate::cache::BlockCache;
use crate::encoding::{get_varint64, put_varint64};
use crate::error::{corruption, Result};

/// Opens the SSTable `name`; free-function form of [`Table::open`].
pub fn open_table(
    storage: Arc<dyn StorageBackend>,
    name: impl Into<String>,
    file_number: u64,
    cache: Arc<BlockCache>,
) -> Result<Arc<Table>> {
    Table::open(storage, name, file_number, cache)
}

/// Magic number identifying our table footer.
pub const TABLE_MAGIC: u64 = 0x4c44_435f_5353_5431; // "LDC_SST1"

/// Fixed footer size.
pub const FOOTER_SIZE: usize = 48;

/// Per-block trailer: compression tag byte + 4-byte masked CRC.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Location of a block within a table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block start.
    pub offset: u64,
    /// Length of the block payload (excluding its trailer).
    pub size: u64,
}

impl BlockHandle {
    /// Appends the varint encoding.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    /// Decodes from the front of `src`, returning the handle and bytes used.
    pub fn decode_from(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let (offset, n1) = get_varint64(src).ok_or_else(|| corruption("bad handle offset"))?;
        let (size, n2) = get_varint64(&src[n1..]).ok_or_else(|| corruption("bad handle size"))?;
        Ok((BlockHandle { offset, size }, n1 + n2))
    }
}

/// Serializes the footer (filter handle, index handle, padding, magic).
pub fn encode_footer(filter: BlockHandle, index: BlockHandle) -> Vec<u8> {
    let mut out = Vec::with_capacity(FOOTER_SIZE);
    filter.encode_to(&mut out);
    index.encode_to(&mut out);
    out.resize(FOOTER_SIZE - 8, 0);
    out.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
    out
}

/// Parses a footer into (filter handle, index handle).
pub fn decode_footer(data: &[u8]) -> Result<(BlockHandle, BlockHandle)> {
    if data.len() != FOOTER_SIZE {
        return Err(corruption("footer has wrong size"));
    }
    let magic = u64::from_le_bytes(data[FOOTER_SIZE - 8..].try_into().expect("8 bytes"));
    if magic != TABLE_MAGIC {
        return Err(corruption("bad table magic"));
    }
    let (filter, n) = BlockHandle::decode_from(data)?;
    let (index, _) = BlockHandle::decode_from(&data[n..])?;
    Ok((filter, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip() {
        let h = BlockHandle {
            offset: 123456789,
            size: 4096,
        };
        let mut buf = Vec::new();
        h.encode_to(&mut buf);
        let (decoded, n) = BlockHandle::decode_from(&buf).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(n, buf.len());
    }

    #[test]
    fn footer_roundtrip() {
        let filter = BlockHandle {
            offset: 1000,
            size: 64,
        };
        let index = BlockHandle {
            offset: 1069,
            size: 256,
        };
        let footer = encode_footer(filter, index);
        assert_eq!(footer.len(), FOOTER_SIZE);
        let (f, i) = decode_footer(&footer).unwrap();
        assert_eq!(f, filter);
        assert_eq!(i, index);
    }

    #[test]
    fn footer_rejects_bad_magic_and_size() {
        let mut footer = encode_footer(BlockHandle::default(), BlockHandle::default());
        assert!(decode_footer(&footer[1..]).is_err());
        footer[FOOTER_SIZE - 1] ^= 0xff;
        assert!(decode_footer(&footer).is_err());
    }
}
