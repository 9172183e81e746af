//! Tier-1 golden for the text reports. A fixed-seed inline run that uses
//! every piece of machinery the reports describe — tracing, a checkpoint,
//! a backup stream, a scrub, a quarantined table, a tailing follower —
//! and pins the length and crc32c of three texts: the primary's
//! `stats_report()` and `tail_report()`, and the follower's
//! `stats_report()`. Between them they cover the level table, both
//! Replication variants (shipped on the primary, applied on the
//! follower), the Degraded line and its quarantined-file line, the blame
//! breakdown, the worst traces and the Recovery line.
//!
//! The constants were recorded before the stats surfaces lost their
//! mirrored counters; a change to where a number is kept must not change
//! a byte of what is printed. When a PR's stated purpose is to change a
//! report, re-record from the assertion's `left` side and say why.

use std::sync::Arc;

use ldc::lsm::crc32c::crc32c;
use ldc::ssd::{IoClass, MemStorage, SsdDevice, StorageBackend};
use ldc::sync::Follower;
use ldc::{CompactionMode, CorruptionPolicy, LdcConfig, LdcDb, LdcDbBuilder, Options};

const OPS: u32 = 6_000;
const KEYS: u64 = 800;
const SEED: u64 = 0x5EED_2019;

/// splitmix64: the workload must not depend on any crate's RNG stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn key(r: u64) -> Vec<u8> {
    format!("{:08x}", (r % KEYS).wrapping_mul(0x9e37_79b9)).into_bytes()
}

/// `ops` seeded puts, gets, deletes and short scans against `db`.
fn drive(db: &LdcDb, rng: &mut u64, ops: u32) {
    for op in 0..ops {
        let r = next(rng);
        let key = key(r);
        match (r >> 32) % 20 {
            0 | 1 => db.delete(&key).expect("delete"),
            2..=11 => {
                let mut value = format!("v{op:06}").into_bytes();
                value.resize(40 + (r >> 40) as usize % 160, b'.');
                db.put(&key, &value).expect("put");
            }
            12 => {
                db.scan(&key, 8).expect("scan");
            }
            _ => {
                db.get(&key).expect("get");
            }
        }
    }
}

fn builder(mode: &CompactionMode) -> LdcDbBuilder {
    LdcDb::builder()
        .options(Options {
            memtable_bytes: 4 << 10,
            sstable_bytes: 4 << 10,
            l1_capacity_bytes: 16 << 10,
            block_bytes: 1 << 10,
            corruption_policy: CorruptionPolicy::Quarantine,
            ..Options::default()
        })
        .background_workers(0)
        .mode(mode.clone())
        .trace_worst_k(8)
}

fn pin(out: &mut String, name: &str, text: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{name} len={} crc32c={:08x}",
        text.len(),
        crc32c(text.as_bytes())
    );
}

/// Runs the scenario in `mode` and returns one line per pinned report.
fn reports(mode: CompactionMode) -> String {
    let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
    let db = builder(&mode)
        .storage(Arc::clone(&storage))
        .build()
        .expect("open");
    let mut rng = SEED;
    drive(&db, &mut rng, OPS);
    db.checkpoint("golden").expect("checkpoint");
    drive(&db, &mut rng, OPS / 4);
    db.backup_begin("golden").expect("backup_begin");
    drive(&db, &mut rng, OPS / 2);
    db.drain_background();
    assert!(db.scrub().expect("scrub").is_clean());

    // Flip one bit in the first data block of the deepest live table, then
    // read keys in its range until a get trips over it and quarantines it.
    let version = db.engine_ref().version();
    let (number, smallest, largest) = version
        .levels
        .iter()
        .rev()
        .find_map(|files| files.last())
        .map(|f| {
            (
                f.number,
                f.smallest_ukey().to_vec(),
                f.largest_ukey().to_vec(),
            )
        })
        .expect("a live table");
    let name = format!("{number:06}.sst");
    let mut bytes = storage
        .read_all(&name, IoClass::Other)
        .expect("victim")
        .to_vec();
    bytes[100] ^= 0x01;
    storage
        .write_file(&name, &bytes, IoClass::Other)
        .expect("rewrite victim");
    db.block_cache().evict_file(number);
    let mut probe = 0u64;
    while db.quarantined().is_empty() && probe < KEYS {
        let k = key(probe);
        if k >= smallest && k <= largest {
            db.get(&k).expect("quarantine answers instead of failing");
        }
        probe += 1;
    }
    assert_eq!(db.quarantined().len(), 1, "one table quarantined");
    drive(&db, &mut rng, OPS / 8);
    db.flush().expect("flush");
    db.drain_background();

    let follower = Follower::bootstrap(
        &storage,
        "golden",
        builder(&mode),
        MemStorage::new(SsdDevice::with_defaults()),
    )
    .expect("bootstrap");
    drive(&db, &mut rng, OPS / 8);
    db.flush().expect("flush");
    db.drain_background();
    assert!(follower.poll().expect("poll") > 0, "the stream moved");
    assert_eq!(follower.poll().expect("poll"), 0);
    let mut frng = SEED ^ 0xF0;
    for _ in 0..200 {
        follower
            .db()
            .get(&key(next(&mut frng)))
            .expect("follower get");
    }

    let mut out = String::new();
    pin(&mut out, "primary.stats_report", &db.stats_report());
    pin(&mut out, "primary.tail_report", &db.tail_report());
    pin(
        &mut out,
        "follower.stats_report",
        &follower.db().stats_report(),
    );
    out
}

const GOLDEN_UDC: &str = "\
primary.stats_report len=1776 crc32c=88485460\n\
primary.tail_report len=3352 crc32c=9447f7ad\n\
follower.stats_report len=1049 crc32c=c1ce2c6a\n\
";

const GOLDEN_LDC: &str = "\
primary.stats_report len=1778 crc32c=1bcd17a1\n\
primary.tail_report len=3368 crc32c=3107e3b8\n\
follower.stats_report len=1051 crc32c=f9840f7f\n\
";

#[test]
fn reports_udc_match_golden() {
    assert_eq!(reports(CompactionMode::Udc), GOLDEN_UDC);
}

#[test]
fn reports_ldc_match_golden() {
    assert_eq!(
        reports(CompactionMode::Ldc(LdcConfig::default())),
        GOLDEN_LDC
    );
}
