//! Tier-1 golden for block-cache **order**. `tests/inline_golden.rs` runs
//! with a block cache nothing is ever evicted from, so it cannot see which
//! block an LRU gives up. This run uses the same tiny table sizes with a
//! 64 KiB block cache (8 KiB per shard, less what open tables pin), so
//! nearly every lookup decides an eviction; one different victim changes a
//! later hit into a miss, a miss into a device read, and the device read
//! into virtual time. Everything that would move is pinned as constants.
//!
//! It pins *block* order only. Open-table handles are not evicted: each
//! table opens once, charges its index and filter to the block cache while
//! it is live, and releases them when its file is dropped. The handle LRU
//! that used to bound them is going away, so both runs give it room for
//! every table and the golden records no handle order.
//!
//! The block constants were first recorded at commit 945820e (PR 15), when
//! the block cache was a `HashMap` plus a `BTreeMap<tick, key>`, and
//! re-recorded when the handle LRU stopped evicting. A replacement cache
//! must reproduce them exactly; re-record only when a PR's stated purpose
//! is to change the eviction policy, and say why in CHANGES.md.

use ldc_core::{LdcDb, LdcDbBuilder};
use ldc_lsm::Options;
use ldc_ssd::IoClass;

const OPS: u32 = 12_000;
const KEYS: u64 = 1_500;
const SEED: u64 = 0xCAC4_E0DE;

fn small_cache_options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        l1_capacity_bytes: 16 << 10,
        block_bytes: 1 << 10,
        block_cache_bytes: 64 << 10,
        ..Options::default()
    }
}

/// splitmix64, as in `inline_golden.rs`: no crate's RNG stream is involved.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Half puts, half gets over a fixed key set; one line per pinned fact.
fn fingerprint(builder: LdcDbBuilder) -> String {
    use std::fmt::Write as _;
    let db = builder.build().expect("open");
    let mut rng = SEED;
    let mut hits = 0u32;
    for op in 0..OPS {
        let r = next(&mut rng);
        let key = format!("{:08x}", (r % KEYS).wrapping_mul(0x9e37_79b9)).into_bytes();
        if (r >> 32).is_multiple_of(2) {
            let mut value = format!("v{op:06}").into_bytes();
            value.resize(40 + (r >> 40) as usize % 160, b'.');
            db.put(&key, &value).expect("put");
        } else {
            hits += u32::from(db.get(&key).expect("get").is_some());
        }
    }
    db.drain_background();

    let mut out = String::new();
    let _ = writeln!(out, "clock_ns {}", db.device().clock().now());
    let _ = writeln!(out, "get_hits {hits}");
    let c = db.block_cache_counters();
    let _ = writeln!(
        out,
        "block_cache hits={} misses={} evictions={}",
        c.hits, c.misses, c.evictions
    );
    let _ = writeln!(
        out,
        "block_cache used_bytes={}",
        db.block_cache().used_bytes()
    );
    // How many tables are open and how many opens there were: the report
    // prints them.
    let report = db.stats_report();
    let tables = report
        .lines()
        .find(|line| line.starts_with("Open tables:"))
        .expect("report has an open-tables line");
    let _ = writeln!(out, "{tables}");
    let io = db.device().io_stats();
    for class in IoClass::ALL {
        let _ = writeln!(
            out,
            "io {} read={}",
            class.label(),
            io.read_bytes_for(class)
        );
    }
    out
}

fn inline() -> LdcDbBuilder {
    LdcDb::builder()
        .options(small_cache_options())
        .background_workers(0)
}

const GOLDEN_UDC: &str = "\
clock_ns 963176017\n\
get_hits 4592\n\
block_cache hits=1787 misses=9089 evictions=3093\n\
block_cache used_bytes=14177\n\
Open tables: 44, 1705 opened\n\
io user-read read=4064567\n\
io wal-write read=0\n\
io flush-write read=0\n\
io compaction-read read=5232337\n\
io compaction-write read=0\n\
io manifest-write read=0\n\
io other read=354090\n\
";

const GOLDEN_LDC: &str = "\
clock_ns 899797019\n\
get_hits 4592\n\
block_cache hits=3451 misses=8378 evictions=5729\n\
block_cache used_bytes=30839\n\
Open tables: 76, 1105 opened\n\
io user-read read=5142144\n\
io wal-write read=0\n\
io flush-write read=0\n\
io compaction-read read=3203938\n\
io compaction-write read=0\n\
io manifest-write read=0\n\
io other read=196756\n\
";

#[test]
fn small_cache_udc_matches_golden() {
    assert_eq!(fingerprint(inline().udc_baseline()), GOLDEN_UDC);
}

#[test]
fn small_cache_ldc_matches_golden() {
    assert_eq!(fingerprint(inline()), GOLDEN_LDC);
}
