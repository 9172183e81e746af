//! Tier-1 budgets for heap allocations on the cached read path and on the
//! put path.
//!
//! A point read served entirely from open tables and the block cache does
//! no I/O, so what is left of its cost is CPU — and the allocator was the
//! largest avoidable part of it: at commit 945820e a cached `get` made 14.2
//! allocations, nine of them one `Vec` per binary-search step of a block
//! seek, and at commit d9f7da3 it still made two or three: a probe key for
//! the whole get, the key buffer of every data-block iterator that had to
//! undo prefix compression, and the owned value. The budget below is what
//! the path needs today: the owned value `get` returns, and nothing per
//! table searched.
//!
//! A put into a fresh store made 12.3 allocations at commit 630665c: four
//! for a batch that regrew three times, four for the commit queue's group
//! and its per-ticket result vectors, one for the WAL record, two for the
//! memtable node's key and value, and one for the level scores of every
//! compaction pick. It now makes two: the batch, built at its final size,
//! and the memtable entry, one buffer holding the internal key and the
//! value. What is left above two is the skiplist arena doubling and the
//! first put's buffers. Lower a constant when a change earns it; raising
//! one needs a reason in CHANGES.md.
//!
//! The counter is process-wide, so every test here holds `SERIAL` while it
//! counts: a test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ldc_core::LdcDb;
use ldc_lsm::Options;

/// Allocations of a fully cached `get` that do not depend on how many
/// tables it searches: the owned value. The probe key `(key, snapshot,
/// TYPE_FOR_SEEK)`, which the memtables and every table are searched with,
/// is built on the stack. (The memtable allocates nothing: its key filter
/// answers for a key it never held, and a seek borrows the probe.)
const PER_GET: u64 = 1;
/// Allocations per table searched (one whose Bloom filter does not rule the
/// key out). A table resolves through the pinned version's open tables
/// without a lock or a reference count; the index block restarts at every
/// entry, so its iterator serves each key from the block; and the data
/// block's iterator rebuilds keys in one buffer per thread, which stops
/// growing once it holds the longest key. So a get allocates once, however
/// many tables it searches.
const PER_TABLE: u64 = 0;

/// Mean allocations of a 1 KiB put into a fresh inline store: the batch
/// and the memtable entry, plus the amortised arena growth.
const PUT_MEAN: f64 = 2.05;
const PUTS: u64 = 1_000;

const PRELOAD: u64 = 8_000;
const HOT: u64 = 500;
const PASSES: u64 = 4;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by each test for as long as it counts.
static SERIAL: Mutex<()> = Mutex::new(());

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed counter
// bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn key(k: u64) -> [u8; 16] {
    let mut out = [b'0'; 16];
    let digits = format!("{:016}", k.wrapping_mul(0x9e37_79b9) % 10_000_000_000);
    out.copy_from_slice(digits.as_bytes());
    out
}

#[test]
fn cached_get_stays_inside_its_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = LdcDb::builder()
        .options(Options::default())
        .background_workers(0)
        .build()
        .expect("open");
    let value = vec![b'v'; 1024];
    for k in 0..PRELOAD {
        db.put(&key(k), &value).expect("put");
    }
    // Everything into tables: a memtable hit would be cheaper than the path
    // under test and hide a regression behind a better average.
    db.flush().expect("flush");
    db.drain_background();

    let hot: Vec<[u8; 16]> = (0..HOT).map(|i| key(i * (PRELOAD / HOT))).collect();
    for k in &hot {
        assert!(db.get(k).expect("warm-up get").is_some());
    }

    let before = db.block_cache_counters();
    let (mut total, mut worst, mut searched) = (0u64, 0u64, 0u64);
    for _ in 0..PASSES {
        for k in &hot {
            let hits0 = db.block_cache_counters().hits;
            let a0 = ALLOCATIONS.load(Ordering::Relaxed);
            let got = db.get(k).expect("get");
            let spent = ALLOCATIONS.load(Ordering::Relaxed) - a0;
            // One cached data block per table searched: the one holding the
            // key, plus one for every Bloom false positive on the way down.
            let tables = db.block_cache_counters().hits - hits0;
            assert!(got.is_some());
            assert!(tables >= 1, "the key must come out of a table");
            assert!(
                spent <= PER_GET + PER_TABLE * tables,
                "a cached get searching {tables} table(s) allocated {spent} times"
            );
            total += spent;
            worst = worst.max(spent);
            searched += tables;
        }
    }
    let gets = HOT * PASSES;
    assert_eq!(
        db.block_cache_counters().misses,
        before.misses,
        "the window must be fully cached"
    );
    println!(
        "allocations per cached get: mean {:.2}, worst {worst}; tables searched per get {:.3}",
        total as f64 / gets as f64,
        searched as f64 / gets as f64
    );
}

#[test]
fn put_allocates_the_batch_and_the_memtable_entry() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = LdcDb::builder()
        .options(Options::default())
        .background_workers(0)
        .build()
        .expect("open");
    let value = vec![b'v'; 1024];
    // Allocations per put -> puts that made that many.
    let mut histogram: BTreeMap<u64, u64> = BTreeMap::new();
    let mut total = 0u64;
    for k in 0..PUTS {
        let key = key(k);
        let a0 = ALLOCATIONS.load(Ordering::Relaxed);
        db.put(&key, &value).expect("put");
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - a0;
        *histogram.entry(spent).or_default() += 1;
        total += spent;
    }
    let mean = total as f64 / PUTS as f64;
    println!("allocations per 1 KiB put: mean {mean:.3}; allocations -> puts {histogram:?}");
    assert!(
        mean <= PUT_MEAN,
        "a put allocated {mean:.3} times on average (budget {PUT_MEAN}): {histogram:?}"
    );
}
