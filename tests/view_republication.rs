//! Readers beside a writer whose puts rotate the memtable, flush it and
//! compact the tables below: the view a read pins must carry a sequence
//! number only together with the memtables, version and open tables that
//! hold everything up to it.
//!
//! A commit that changes none of those parts republishes only its
//! sequence; a rotation, flush or install publishes new parts with it.
//! Were a sequence ever published ahead of the parts that hold it, a put
//! could return while its value sat in a memtable no reader's view named
//! yet. So:
//!
//! * every get that starts after a put returned sees that put's value or a
//!   newer one of the same key, never an older one and never a value that
//!   no put had begun to write;
//! * every scan returns exactly the store as of one prefix of the put
//!   sequence, and a prefix no shorter than the puts that had returned
//!   when it started.
//!
//! Put `i` (counting from 1) writes key `i % KEYS` with a value that
//! carries `i`, so the expected value of any key after any prefix of puts
//! is a formula, not a model to lock. The threaded engine promises values
//! and invariants, not timings: nothing here reads the virtual clock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ldc_core::LdcDb;
use ldc_lsm::Options;

const KEYS: u64 = 48;
const PUTS: u64 = 1_500;
const READERS: usize = 2;

fn options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        l1_capacity_bytes: 16 << 10,
        block_bytes: 1 << 10,
        ..Options::default()
    }
}

fn key(k: u64) -> Vec<u8> {
    format!("key{k:04}").into_bytes()
}

fn value(i: u64) -> Vec<u8> {
    let mut out = format!("{i:010}").into_bytes();
    out.resize(200, b'.');
    out
}

/// The put number a value carries.
fn put_of(value: &[u8]) -> u64 {
    let digits = value.get(..10).expect("value shorter than its put number");
    std::str::from_utf8(digits)
        .ok()
        .and_then(|s| s.parse().ok())
        .expect("value without a put number")
}

/// The newest of puts `1..=n` that wrote key `k`, if any did.
fn newest(k: u64, n: u64) -> Option<u64> {
    let back = (n + KEYS - k % KEYS) % KEYS;
    n.checked_sub(back).filter(|&i| i >= 1)
}

/// Puts that have begun and puts that have returned, in order.
struct Progress {
    begun: AtomicU64,
    returned: AtomicU64,
    done: AtomicBool,
}

/// One get of key `k`, checked against the puts around it.
fn checked_get(db: &LdcDb, progress: &Progress, k: u64) {
    let floor = newest(k, progress.returned.load(Ordering::SeqCst));
    let got = db.get(&key(k)).expect("get").map(|v| put_of(&v));
    let ceiling = progress.begun.load(Ordering::SeqCst);
    match (got, floor) {
        (None, None) => {}
        (None, Some(want)) => panic!("key {k}: put {want} returned, the get found nothing"),
        (Some(i), floor) => {
            assert_eq!(
                i % KEYS,
                k % KEYS,
                "key {k} read put {i}, which wrote another key"
            );
            assert!(
                i <= ceiling,
                "key {k} read put {i}, but only {ceiling} had begun"
            );
            if let Some(want) = floor {
                assert!(
                    i >= want,
                    "key {k}: put {want} returned, the get found put {i}"
                );
            }
        }
    }
}

/// One scan from key `from` to the end of the key space, checked to be the
/// store as of one prefix of the puts.
fn checked_scan(db: &LdcDb, progress: &Progress, from: u64) {
    let returned = progress.returned.load(Ordering::SeqCst);
    let rows = db.scan(&key(from), KEYS as usize).expect("scan");
    let ceiling = progress.begun.load(Ordering::SeqCst);
    let got: Vec<(Vec<u8>, u64)> = rows.iter().map(|(k, v)| (k.clone(), put_of(v))).collect();
    // The prefix the scan shows ends at its newest put: later puts, if the
    // scan's snapshot holds any, wrote keys before `from`.
    let n = got.iter().map(|&(_, i)| i).max().unwrap_or(0);
    assert!(
        n <= ceiling,
        "scan read put {n}, but only {ceiling} had begun"
    );
    let want: Vec<(Vec<u8>, u64)> = (from..KEYS)
        .filter_map(|k| Some((key(k), newest(k, n)?)))
        .collect();
    assert_eq!(
        got, want,
        "scan from key {from} is no prefix of the puts (newest put {n})"
    );
    for k in from..KEYS {
        if let Some(floor) = newest(k, returned) {
            assert!(
                newest(k, n) >= Some(floor),
                "scan from key {from}: put {floor} returned, the scan showed the store as of put {n}"
            );
        }
    }
}

/// Runs the writer and the readers to the end, then checks that the run
/// did rotate, flush and compact.
fn run(db: LdcDb) {
    let progress = Progress {
        begun: AtomicU64::new(0),
        returned: AtomicU64::new(0),
        done: AtomicBool::new(false),
    };
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        for reader in 0..READERS as u64 {
            let (db, progress, reads) = (&db, &progress, &reads);
            s.spawn(move || {
                let mut step = reader;
                while !progress.done.load(Ordering::SeqCst) {
                    step = step
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1 + reader);
                    let k = (step >> 33) % KEYS;
                    if step >> 63 == 0 {
                        checked_get(db, progress, k);
                    } else {
                        checked_scan(db, progress, k);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for i in 1..=PUTS {
            progress.begun.store(i, Ordering::SeqCst);
            db.put(&key(i % KEYS), &value(i)).expect("put");
            progress.returned.store(i, Ordering::SeqCst);
        }
        progress.done.store(true, Ordering::SeqCst);
    });
    for k in 0..KEYS {
        checked_get(&db, &progress, k);
    }
    checked_scan(&db, &progress, 0);
    let stats = db.stats();
    println!("{} reads; {stats:?}", reads.load(Ordering::Relaxed));
    assert!(
        stats.flushes >= 10,
        "the run must rotate and flush: {stats:?}"
    );
    let compactions = stats.merges + stats.trivial_moves + stats.links + stats.ldc_merges;
    assert!(compactions >= 5, "the run must compact: {stats:?}");
    assert!(reads.load(Ordering::Relaxed) > 0, "the readers must read");
}

#[test]
fn reads_beside_an_inline_writer_see_whole_views() {
    let db = LdcDb::builder()
        .options(options())
        .background_workers(0)
        .build()
        .expect("open");
    run(db);
}

#[test]
fn reads_beside_pool_installs_see_whole_views() {
    let db = LdcDb::builder()
        .options(options())
        .background_workers(2)
        .build()
        .expect("open");
    run(db);
}

#[test]
fn reads_beside_a_udc_writer_see_whole_views() {
    let db = LdcDb::builder()
        .options(options())
        .udc_baseline()
        .background_workers(2)
        .build()
        .expect("open");
    run(db);
}

#[test]
fn newest_names_the_last_put_of_a_key() {
    assert_eq!(newest(0, 0), None);
    assert_eq!(newest(0, KEYS - 1), None);
    assert_eq!(newest(0, KEYS), Some(KEYS));
    assert_eq!(newest(5, 4), None);
    assert_eq!(newest(5, 5), Some(5));
    assert_eq!(newest(5, KEYS + 4), Some(5));
    assert_eq!(newest(5, KEYS + 5), Some(KEYS + 5));
    assert_eq!(put_of(&value(1234)), 1234);
}
