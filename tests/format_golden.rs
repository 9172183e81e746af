//! Tier-1 golden for the checksummed on-disk formats. One SSTable image
//! and one write-ahead log, each built from a fixed seeded input, are
//! pinned by length and digest, then read back through the engine's own
//! readers. Every data, filter and index block ends in a type byte and a
//! masked CRC32C, and every log record begins with one: a change to how
//! those checksums are computed, to which bytes they cover, or to the
//! Bloom filter's bits shows up here as a changed digest, and a reader
//! that stops accepting what the writer wrote fails the read-back.
//!
//! The digest is FNV-1a, not CRC32C, so it shares no code with what it
//! checks. The constants were recorded before the checksum kernel was
//! rewritten; the bytes on disk must not move with it. When a PR's stated
//! purpose is to change a format, re-record from the assertion's `left`
//! side and say why.

use std::sync::Arc;

use ldc::lsm::cache::BlockCache;
use ldc::lsm::table::{open_table, TableBuilder};
use ldc::lsm::types::{encode_internal_key, ValueType};
use ldc::lsm::wal::{LogReader, LogWriter};
use ldc::ssd::{IoClass, MemStorage, StorageBackend};

const SEED: u64 = 0x0F0E_2019;

/// splitmix64: the input must not depend on any crate's RNG stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bytes_of(rng: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| next(rng) as u8).collect()
}

/// Sorted internal entries: 1 200 user keys of 16 bytes, one to three
/// versions each (a tombstone among them now and then), values of 0 to
/// 2 KiB so data blocks seal at many lengths around the 4 KiB target.
fn table_entries(rng: &mut u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries = Vec::new();
    for k in 0..1_200u64 {
        let ukey = format!("user{:012}", k * 7 + next(rng) % 7).into_bytes();
        let versions = 1 + next(rng) % 3;
        for v in 0..versions {
            let seq = 10_000 - k * 4 - v;
            let r = next(rng);
            let (vt, value) = if r.is_multiple_of(11) {
                (ValueType::Deletion, Vec::new())
            } else {
                (ValueType::Value, bytes_of(rng, (r >> 8) as usize % 2_049))
            };
            entries.push((encode_internal_key(&ukey, seq, vt), value));
        }
    }
    entries
}

/// Log records from empty to three log blocks long, so `FULL`, `FIRST`,
/// `MIDDLE` and `LAST` fragments and block-tail padding all occur.
fn log_records(rng: &mut u64) -> Vec<Vec<u8>> {
    (0..400)
        .map(|i| {
            let r = next(rng);
            let len = match i % 50 {
                0 => 0,
                7 => 70_000 + r as usize % 30_000,
                _ => r as usize % 1_300,
            };
            bytes_of(rng, len)
        })
        .collect()
}

#[test]
fn sealed_table_image_matches_golden() {
    let mut rng = SEED;
    let entries = table_entries(&mut rng);
    let mut builder = TableBuilder::new(4 << 10, 16, 10);
    for (k, v) in &entries {
        builder.add(k, v);
    }
    let image = builder.finish().bytes;
    assert_eq!(
        format!("len={} fnv1a={:016x}", image.len(), fnv1a(&image)),
        "len=2284980 fnv1a=9d387710857a2943"
    );

    let storage = MemStorage::with_default_device();
    storage
        .write_file("000001.sst", &image, IoClass::Other)
        .expect("fresh device has room");
    let table = open_table(
        Arc::clone(&storage) as Arc<dyn StorageBackend>,
        "000001.sst",
        1,
        Arc::new(BlockCache::new(0)),
    )
    .expect("table just written");
    assert_eq!(
        table.verify(IoClass::Other).expect("every block verifies"),
        entries.len() as u64
    );
    let mut it = table.iter(IoClass::Other);
    it.seek_to_first();
    for (k, v) in &entries {
        assert!(it.valid());
        assert_eq!((it.key(), it.value()), (&k[..], &v[..]));
        it.next();
    }
    assert!(!it.valid());
    it.status().expect("no read error");
}

#[test]
fn write_ahead_log_matches_golden() {
    let mut rng = SEED ^ 0x106;
    let records = log_records(&mut rng);
    let storage = MemStorage::with_default_device();
    let mut log = LogWriter::new(
        Arc::clone(&storage) as Arc<dyn StorageBackend>,
        "000002.log",
        IoClass::WalWrite,
    );
    for r in &records {
        log.add_record(r).expect("fresh device has room");
    }
    let file = storage
        .read_all("000002.log", IoClass::Other)
        .expect("log just written");
    assert_eq!(
        format!("len={} fnv1a={:016x}", file.len(), fnv1a(&file)),
        "len=921109 fnv1a=3d586a2f965553bc"
    );

    let mut reader = LogReader::open(storage.as_ref(), "000002.log").expect("log just written");
    for r in &records {
        assert_eq!(
            reader
                .read_record()
                .expect("every record verifies")
                .as_ref(),
            Some(r)
        );
    }
    assert_eq!(reader.read_record().expect("clean end"), None);
    assert_eq!(reader.truncated_tail_bytes(), 0);
}
