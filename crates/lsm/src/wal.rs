//! Write-ahead log, LevelDB record format.
//!
//! The log is a sequence of 32 KiB blocks. Each record carries a masked
//! CRC32C, a 16-bit length, and a type byte (`FULL`, or `FIRST`/`MIDDLE`/
//! `LAST` for records spanning blocks). A block's unusable tail (< 7 bytes)
//! is zero-padded. The same format backs both the WAL and the manifest.

use std::sync::Arc;

use ldc_ssd::{IoClass, StorageBackend};

use crate::batch::WriteBatch;
use crate::crc32c;
use crate::error::{corruption, CorruptionInfo, Error, Result};
use crate::memtable::MemTable;
use crate::types::SequenceNumber;

/// Log block size.
pub const BLOCK_SIZE: usize = 32 * 1024;
/// Record header: crc(4) + length(2) + type(1).
pub const HEADER_SIZE: usize = 7;

const FULL: u8 = 1;
const FIRST: u8 = 2;
const MIDDLE: u8 = 3;
const LAST: u8 = 4;

/// A block tail too short for a header is zero-filled from here.
static PADDING: [u8; HEADER_SIZE] = [0; HEADER_SIZE];

/// Appends length-prefixed, checksummed records to a log file.
pub struct LogWriter {
    storage: Arc<dyn StorageBackend>,
    name: String,
    class: IoClass,
    block_offset: usize,
    /// One physical record (header and fragment), rebuilt in place for
    /// every fragment.
    record: Vec<u8>,
}

impl LogWriter {
    /// Creates a writer for `name` (created on first append). `class` tags
    /// the traffic (WAL vs manifest).
    pub fn new(storage: Arc<dyn StorageBackend>, name: impl Into<String>, class: IoClass) -> Self {
        Self {
            storage,
            name: name.into(),
            class,
            block_offset: 0,
            record: Vec::new(),
        }
    }

    /// File this writer appends to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one record (atomically recoverable as a unit).
    pub fn add_record(&mut self, payload: &[u8]) -> Result<()> {
        let mut left = payload;
        let mut begin = true;
        // A zero-length record still emits one FULL header.
        loop {
            let leftover = BLOCK_SIZE - self.block_offset;
            if leftover < HEADER_SIZE {
                if leftover > 0 {
                    let (zeros, _) = PADDING.split_at(leftover);
                    self.storage.append(&self.name, zeros, self.class)?;
                }
                self.block_offset = 0;
            }
            let avail = BLOCK_SIZE - self.block_offset - HEADER_SIZE;
            let fragment_len = left.len().min(avail);
            let end = fragment_len == left.len();
            let record_type = match (begin, end) {
                (true, true) => FULL,
                (true, false) => FIRST,
                (false, true) => LAST,
                (false, false) => MIDDLE,
            };
            self.emit(record_type, &left[..fragment_len])?;
            left = &left[fragment_len..];
            begin = false;
            if end {
                break;
            }
        }
        Ok(())
    }

    /// Durably flushes buffered pages (an `fsync`).
    pub fn sync(&self) -> Result<()> {
        self.storage.sync(&self.name)?;
        Ok(())
    }

    fn emit(&mut self, record_type: u8, data: &[u8]) -> Result<()> {
        let buf = &mut self.record;
        buf.clear();
        buf.extend_from_slice(&[0; 4]); // the crc, once what it covers is in place
        buf.extend_from_slice(&(data.len() as u16).to_le_bytes());
        buf.push(record_type);
        buf.extend_from_slice(data);
        // The crc covers the type byte and the payload after it: one pass.
        let (head, covered) = buf.split_at_mut(HEADER_SIZE - 1);
        let crc = crc32c::mask(crc32c::crc32c(covered));
        head.split_at_mut(4).0.copy_from_slice(&crc.to_le_bytes());
        self.storage.append(&self.name, buf, self.class)?;
        self.block_offset += buf.len();
        debug_assert!(self.block_offset <= BLOCK_SIZE);
        if self.block_offset == BLOCK_SIZE {
            self.block_offset = 0;
        }
        Ok(())
    }
}

/// Reads records back, tolerating a truncated tail (crash recovery).
pub struct LogReader {
    data: Vec<u8>,
    /// File the bytes came from (empty for in-memory readers); names the
    /// log in corruption reports.
    name: String,
    offset: usize,
    /// Offset just past the last complete logical record returned.
    last_complete_end: usize,
    /// Set when the log ended in a partially-written record rather than a
    /// clean boundary.
    torn: bool,
}

impl LogReader {
    /// Opens `name` and buffers its contents for replay.
    pub fn open(storage: &dyn StorageBackend, name: &str) -> Result<Self> {
        let data = storage.read_all(name, IoClass::Other)?;
        let mut reader = Self::from_bytes(data.to_vec());
        reader.name = name.to_string();
        Ok(reader)
    }

    /// Builds a reader over raw bytes (testing).
    pub fn from_bytes(data: Vec<u8>) -> Self {
        Self {
            data,
            name: String::new(),
            offset: 0,
            last_complete_end: 0,
            torn: false,
        }
    }

    /// Bytes of torn tail discarded so far: everything past the last
    /// complete record when the log ended mid-record, zero on a clean end.
    /// Meaningful once `read_record` has returned `Ok(None)`.
    pub fn truncated_tail_bytes(&self) -> u64 {
        if self.torn {
            (self.data.len() - self.last_complete_end) as u64
        } else {
            0
        }
    }

    /// Offset of the clean log prefix — the point a recovery should
    /// truncate the file back to when a torn tail was found.
    pub fn clean_prefix(&self) -> u64 {
        if self.torn {
            self.last_complete_end as u64
        } else {
            self.data.len() as u64
        }
    }

    /// Returns the next record, `Ok(None)` at a clean end of log, or an
    /// error for mid-log corruption. A torn final record (crash during
    /// append) is treated as end-of-log, matching LevelDB recovery.
    pub fn read_record(&mut self) -> Result<Option<Vec<u8>>> {
        let mut assembled: Option<Vec<u8>> = None;
        loop {
            let fragment = match self.read_physical_record()? {
                Some(f) => f,
                None => {
                    if assembled.is_some() {
                        // Torn multi-fragment record at the tail: the FIRST/
                        // MIDDLE fragments read so far are discarded too.
                        self.torn = true;
                    }
                    return Ok(None);
                }
            };
            match fragment.record_type {
                FULL => {
                    if assembled.is_some() {
                        return Err(corruption("FULL record inside fragmented record"));
                    }
                    self.last_complete_end = self.offset;
                    return Ok(Some(fragment.data));
                }
                FIRST => {
                    if assembled.is_some() {
                        return Err(corruption("FIRST record inside fragmented record"));
                    }
                    assembled = Some(fragment.data);
                }
                MIDDLE => match assembled.as_mut() {
                    Some(buf) => buf.extend_from_slice(&fragment.data),
                    None => return Err(corruption("MIDDLE record without FIRST")),
                },
                LAST => match assembled.take() {
                    Some(mut buf) => {
                        buf.extend_from_slice(&fragment.data);
                        self.last_complete_end = self.offset;
                        return Ok(Some(buf));
                    }
                    None => return Err(corruption("LAST record without FIRST")),
                },
                t => return Err(corruption(format!("unknown record type {t}"))),
            }
        }
    }

    /// Replays every record through `f`.
    pub fn for_each(&mut self, mut f: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
        while let Some(record) = self.read_record()? {
            f(&record)?;
        }
        Ok(())
    }

    fn read_physical_record(&mut self) -> Result<Option<PhysicalRecord>> {
        loop {
            let block_remaining = BLOCK_SIZE - (self.offset % BLOCK_SIZE);
            if block_remaining < HEADER_SIZE {
                // Padding zone; skip to next block.
                self.offset += block_remaining;
                continue;
            }
            if self.offset + HEADER_SIZE > self.data.len() {
                // A partial header is a torn write; ending exactly on a
                // record boundary is a clean end.
                if self.offset < self.data.len() {
                    self.torn = true;
                }
                return Ok(None);
            }
            let Some(header) = self.data.get(self.offset..self.offset + HEADER_SIZE) else {
                // Unreachable: the length check above guarantees the range.
                self.torn = true;
                return Ok(None);
            };
            let (crc_bytes, rest) = header.split_at(4);
            let (len_bytes, type_byte) = rest.split_at(2);
            let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap_or_default());
            let len = u16::from_le_bytes(len_bytes.try_into().unwrap_or_default()) as usize;
            let record_type = type_byte.first().copied().unwrap_or_default();
            if record_type == 0 && len == 0 && stored_crc == 0 {
                // Zero padding written by a block switch; move to next block.
                self.offset += block_remaining;
                if self.offset >= self.data.len() {
                    return Ok(None);
                }
                continue;
            }
            let data_start = self.offset + HEADER_SIZE;
            let data_end = data_start + len;
            if data_end > self.data.len() {
                self.torn = true; // torn record at tail
                return Ok(None);
            }
            // The crc covers the type byte and the payload after it: one pass.
            let Some(covered @ [_, data @ ..]) = self.data.get(data_start - 1..data_end) else {
                // Unreachable: data_end was checked against len above.
                self.torn = true;
                return Ok(None);
            };
            if crc32c::unmask(stored_crc) != crc32c::crc32c(covered) {
                // A bad checksum on the very last record is indistinguishable
                // from a torn sector write: treat it as end-of-log so a crash
                // mid-append never blocks recovery. Anywhere earlier it is
                // real corruption.
                if data_end == self.data.len() {
                    self.torn = true;
                    return Ok(None);
                }
                return Err(Error::Corruption(CorruptionInfo {
                    file: self.name.clone(),
                    offset: Some(self.offset as u64),
                    detail: "log record crc mismatch".to_string(),
                }));
            }
            let record = PhysicalRecord {
                record_type,
                data: data.to_vec(),
            };
            self.offset = data_end;
            return Ok(Some(record));
        }
    }
}

struct PhysicalRecord {
    record_type: u8,
    data: Vec<u8>,
}

/// What replaying one write-ahead log into a memtable found.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Replayed {
    /// Batch entries applied.
    pub(crate) entries: u64,
    /// Highest sequence number applied; 0, which no entry carries, if
    /// none was.
    pub(crate) last_sequence: SequenceNumber,
    /// A record before the tail failed its checksum, its framing or its
    /// batch decode. Every record before it was applied; what the caller
    /// does with the rest of the log is its own policy.
    pub(crate) corrupt: bool,
    /// Bytes of a torn final record (a crash mid-append), which is a clean
    /// end of log and not corruption; zero when the log ends on a record.
    pub(crate) torn_bytes: u64,
    /// Where the log's complete records end: what to truncate a torn log
    /// back to.
    pub(crate) clean_prefix: u64,
}

/// Replays the log `name` into `mem`: every record is a [`WriteBatch`],
/// applied at the sequence numbers it carries. Recovery and repair both
/// start here. Mid-log corruption is an outcome, not an error; only a
/// failure to read the file at all comes back as `Err`.
pub(crate) fn replay_into(
    storage: &dyn StorageBackend,
    name: &str,
    mem: &MemTable,
) -> Result<Replayed> {
    let mut reader = LogReader::open(storage, name)?;
    let mut entries = 0u64;
    let mut last_sequence = 0;
    let outcome = reader.for_each(|record| {
        let batch = WriteBatch::decode(record)?;
        last_sequence = last_sequence.max(mem.apply(&batch)?.unwrap_or(0));
        entries += u64::from(batch.count());
        Ok(())
    });
    let corrupt = match outcome {
        Ok(()) => false,
        Err(Error::Corruption(_)) => true,
        Err(e) => return Err(e),
    };
    Ok(Replayed {
        entries,
        last_sequence,
        corrupt,
        torn_bytes: reader.truncated_tail_bytes(),
        clean_prefix: reader.clean_prefix(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_ssd::{MemStorage, SsdConfig, SsdDevice};

    fn storage() -> Arc<MemStorage> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    fn roundtrip(records: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "test.log", IoClass::WalWrite);
        for r in records {
            w.add_record(r).unwrap();
        }
        w.sync().unwrap();
        let mut reader = LogReader::open(s.as_ref(), "test.log").unwrap();
        let mut out = Vec::new();
        while let Some(r) = reader.read_record().unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn small_records_roundtrip() {
        let records = vec![
            b"one".to_vec(),
            b"two".to_vec(),
            Vec::new(),
            b"four".to_vec(),
        ];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn large_record_spans_blocks() {
        let big = vec![0xabu8; BLOCK_SIZE * 3 + 123];
        let records = vec![b"before".to_vec(), big.clone(), b"after".to_vec()];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn records_filling_block_boundary() {
        // Craft records so a header lands exactly at the block edge.
        let first = vec![1u8; BLOCK_SIZE - HEADER_SIZE - HEADER_SIZE - 3];
        let records = vec![first, b"abc".to_vec(), b"def".to_vec()];
        assert_eq!(roundtrip(&records), records);
    }

    #[test]
    fn torn_tail_is_end_of_log() {
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "test.log", IoClass::WalWrite);
        w.add_record(b"complete").unwrap();
        w.add_record(&vec![7u8; 1000]).unwrap();
        w.sync().unwrap();
        let bytes = s.read_all("test.log", IoClass::Other).unwrap().to_vec();
        // Chop the second record in half.
        let truncated = bytes[..bytes.len() - 500].to_vec();
        let torn_len = truncated.len();
        let mut reader = LogReader::from_bytes(truncated);
        assert_eq!(reader.read_record().unwrap().unwrap(), b"complete");
        assert_eq!(reader.read_record().unwrap(), None);
        // The torn record's bytes are accounted and the clean prefix ends
        // after "complete"'s record.
        let clean = (HEADER_SIZE + b"complete".len()) as u64;
        assert_eq!(reader.clean_prefix(), clean);
        assert_eq!(reader.truncated_tail_bytes(), torn_len as u64 - clean);
    }

    #[test]
    fn torn_header_is_end_of_log() {
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "test.log", IoClass::WalWrite);
        w.add_record(b"complete").unwrap();
        w.add_record(b"doomed").unwrap();
        w.sync().unwrap();
        let bytes = s.read_all("test.log", IoClass::Other).unwrap().to_vec();
        // Cut inside the second record's 7-byte header.
        let cut = HEADER_SIZE + b"complete".len() + 3;
        let mut reader = LogReader::from_bytes(bytes[..cut].to_vec());
        assert_eq!(reader.read_record().unwrap().unwrap(), b"complete");
        assert_eq!(reader.read_record().unwrap(), None);
        assert_eq!(reader.truncated_tail_bytes(), 3);
        assert_eq!(reader.clean_prefix(), cut as u64 - 3);
    }

    #[test]
    fn torn_fragmented_record_is_end_of_log() {
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "test.log", IoClass::WalWrite);
        w.add_record(b"complete").unwrap();
        w.add_record(&vec![9u8; BLOCK_SIZE * 2]).unwrap(); // FIRST..LAST
        w.sync().unwrap();
        let bytes = s.read_all("test.log", IoClass::Other).unwrap().to_vec();
        // Keep the FIRST fragment (fills block 0) but tear inside a later one.
        let mut reader = LogReader::from_bytes(bytes[..BLOCK_SIZE + 100].to_vec());
        assert_eq!(reader.read_record().unwrap().unwrap(), b"complete");
        assert_eq!(reader.read_record().unwrap(), None);
        assert!(reader.truncated_tail_bytes() > 0);
        assert_eq!(
            reader.clean_prefix(),
            (HEADER_SIZE + b"complete".len()) as u64
        );
    }

    #[test]
    fn clean_end_reports_no_tear() {
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "test.log", IoClass::WalWrite);
        w.add_record(b"one").unwrap();
        w.add_record(b"two").unwrap();
        w.sync().unwrap();
        let bytes = s.read_all("test.log", IoClass::Other).unwrap().to_vec();
        let len = bytes.len() as u64;
        let mut reader = LogReader::from_bytes(bytes);
        while reader.read_record().unwrap().is_some() {}
        assert_eq!(reader.truncated_tail_bytes(), 0);
        assert_eq!(reader.clean_prefix(), len);
    }

    #[test]
    fn corrupt_crc_mid_log_is_detected() {
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "test.log", IoClass::WalWrite);
        w.add_record(b"payload-payload").unwrap();
        w.add_record(b"a-later-record-so-the-flip-is-mid-log")
            .unwrap();
        w.sync().unwrap();
        let mut bytes = s.read_all("test.log", IoClass::Other).unwrap().to_vec();
        // Flip a payload byte of the FIRST record without touching headers.
        bytes[HEADER_SIZE + 2] ^= 0xff;
        let mut reader = LogReader::from_bytes(bytes);
        assert!(matches!(reader.read_record(), Err(Error::Corruption(_))));
    }

    #[test]
    fn corrupt_crc_on_final_record_reads_as_torn_tail() {
        // A flipped byte in the very last record is indistinguishable from
        // a torn sector write: recovery treats it as end-of-log and reports
        // the discarded bytes instead of failing the open.
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "test.log", IoClass::WalWrite);
        w.add_record(b"good").unwrap();
        w.add_record(b"flipped").unwrap();
        w.sync().unwrap();
        let mut bytes = s.read_all("test.log", IoClass::Other).unwrap().to_vec();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        let mut reader = LogReader::from_bytes(bytes);
        assert_eq!(reader.read_record().unwrap().unwrap(), b"good");
        assert_eq!(reader.read_record().unwrap(), None);
        assert_eq!(
            reader.truncated_tail_bytes(),
            (HEADER_SIZE + b"flipped".len()) as u64
        );
    }

    #[test]
    fn for_each_visits_all() {
        let s = storage();
        let mut w = LogWriter::new(s.clone(), "log", IoClass::WalWrite);
        for i in 0..10u8 {
            w.add_record(&[i]).unwrap();
        }
        let mut reader = LogReader::open(s.as_ref(), "log").unwrap();
        let mut sum = 0u32;
        reader
            .for_each(|r| {
                sum += u32::from(r[0]);
                Ok(())
            })
            .unwrap();
        assert_eq!(sum, 45);
    }

    #[test]
    fn empty_log_reads_cleanly() {
        let mut reader = LogReader::from_bytes(Vec::new());
        assert_eq!(reader.read_record().unwrap(), None);
    }
}
