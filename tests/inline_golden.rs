//! Tier-1 golden for the determinism contract: with `background_workers =
//! 0` a fixed-seed run is byte-reproducible, so everything the inline
//! compaction pipeline can observably touch is pinned here as constants —
//! the virtual clock, every `DbStats` compaction counter, per-`IoClass`
//! byte totals, the MANIFEST bytes, the next file number, and the event
//! stream. A refactor of the engine must leave every line unchanged.
//!
//! The constants were recorded at commit 8c5b69e (PR 11), before the two
//! compaction executors were collapsed into one. When a PR's stated
//! purpose is to change them, re-record from the assertion's `left` side
//! and say why in CHANGES.md. The event stream is pinned only by its CRC,
//! so a mismatch also writes the stream as JSONL under the target
//! directory's `tmp/` and names the file and its event count: run the test
//! at the parent commit too and diff the two files to see which event moved.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use ldc_core::{LdcDb, LdcDbBuilder};
use ldc_lsm::crc32c::{crc32c, extend};
use ldc_lsm::version::VersionEdit;
use ldc_lsm::wal::LogReader;
use ldc_lsm::Options;
use ldc_obs::RingBufferSink;
use ldc_ssd::IoClass;

const OPS: u32 = 20_000;
const KEYS: u64 = 1_500;
const SEED: u64 = 0x1DC0_2019;

/// Small enough that 20 k ops force hundreds of flushes and compactions
/// through every level the policies use.
fn tiny_options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        l1_capacity_bytes: 16 << 10,
        block_bytes: 1 << 10,
        ..Options::default()
    }
}

/// splitmix64: the workload must not depend on any crate's RNG stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the fixed put/delete/get mix and renders everything pinned as one
/// line-per-fact string, so a mismatch shows exactly which fact moved.
/// Returns the event stream too, as JSONL, one event a line.
fn fingerprint(builder: LdcDbBuilder) -> (String, String) {
    use std::fmt::Write as _;
    let sink = Arc::new(RingBufferSink::new(1 << 20));
    let db = builder.event_sink(sink.clone()).build().expect("open");
    let mut rng = SEED;
    let mut hits = 0u32;
    for op in 0..OPS {
        let r = next(&mut rng);
        let key = format!("{:08x}", (r % KEYS).wrapping_mul(0x9e37_79b9)).into_bytes();
        match (r >> 32) % 10 {
            0 => db.delete(&key).expect("delete"),
            1..=6 => {
                let mut value = format!("v{op:06}").into_bytes();
                value.resize(40 + (r >> 40) as usize % 160, b'.');
                db.put(&key, &value).expect("put");
            }
            _ => hits += u32::from(db.get(&key).expect("get").is_some()),
        }
    }
    db.drain_background();
    assert_eq!(sink.dropped(), 0, "ring sink must hold the whole run");

    let mut out = String::new();
    let _ = writeln!(out, "clock_ns {}", db.device().clock().now());
    let _ = writeln!(out, "get_hits {hits}");
    let s = db.stats();
    let _ = writeln!(
        out,
        "stats flushes={} merges={} trivial_moves={} links={} ldc_merges={} \
         slowdowns={} stalls={} stall_nanos={} writes={} gets={} user_bytes={}",
        s.flushes,
        s.merges,
        s.trivial_moves,
        s.links,
        s.ldc_merges,
        s.slowdowns,
        s.stalls,
        s.stall_nanos,
        s.writes,
        s.gets,
        s.user_bytes_written
    );
    let io = db.device().io_stats();
    for class in IoClass::ALL {
        let _ = writeln!(
            out,
            "io {} read={} write={}",
            class.label(),
            io.read_bytes_for(class),
            io.write_bytes_for(class)
        );
    }
    let mut kinds: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut stream_crc = 0u32;
    let mut jsonl = String::new();
    for event in sink.events() {
        *kinds.entry(event.kind.label()).or_default() += 1;
        let json = event.to_json();
        stream_crc = extend(stream_crc, json.as_bytes());
        jsonl.push_str(&json);
        jsonl.push('\n');
    }
    for (kind, count) in kinds {
        let _ = writeln!(out, "events {kind} {count}");
    }
    let _ = writeln!(out, "event_stream_crc32c {stream_crc:08x}");

    // Read the manifest last: the reads themselves charge the clock.
    let storage = db.storage();
    let manifests: Vec<String> = storage
        .list()
        .into_iter()
        .filter(|name| name.starts_with("MANIFEST-"))
        .collect();
    assert_eq!(manifests.len(), 1, "one live manifest: {manifests:?}");
    let bytes = storage
        .read_all(&manifests[0], IoClass::Other)
        .expect("manifest");
    let _ = writeln!(
        out,
        "manifest {} len={} crc32c={:08x}",
        manifests[0],
        bytes.len(),
        crc32c(&bytes)
    );
    let mut next_file_number = 0;
    LogReader::from_bytes(bytes.to_vec())
        .for_each(|record| {
            if let Some(n) = VersionEdit::decode(record)?.next_file_number {
                next_file_number = n;
            }
            Ok(())
        })
        .expect("manifest replays");
    let _ = writeln!(out, "next_file_number {next_file_number}");
    (out, jsonl)
}

/// Asserts that `builder`'s run fingerprints as `golden`. On a mismatch the
/// run's event stream is written first, as `inline_golden_<name>.jsonl`
/// under the target directory, so it can be diffed line by line against
/// the same file from a run of the commit that recorded the golden.
fn assert_fingerprint(name: &str, builder: LdcDbBuilder, golden: &str) {
    let (actual, jsonl) = fingerprint(builder);
    if actual == golden {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("inline_golden_{name}.jsonl"));
    std::fs::write(&path, &jsonl).expect("write the event stream");
    let events = jsonl.lines().count();
    assert_eq!(
        actual,
        golden,
        "event_stream_crc32c covers {events} events, written to {}",
        path.display()
    );
}

/// The manifest writer's other two outputs, which `fingerprint` does not
/// reach: a backup's base manifest and `EDITS` stream, and a checkpoint's
/// synthesized `MANIFEST-000001`. The stream is armed halfway through a
/// shorter run of the same write mix, so it carries flush, merge and link
/// edits; the checkpoint is cut at the end.
fn durable_cuts(builder: LdcDbBuilder) -> String {
    use std::fmt::Write as _;
    let db = builder.build().expect("open");
    let mut rng = SEED;
    for op in 0..OPS / 4 {
        if op == OPS / 8 {
            db.drain_background();
            db.backup_begin("golden").expect("backup_begin");
        }
        let r = next(&mut rng);
        let key = format!("{:08x}", (r % KEYS).wrapping_mul(0x9e37_79b9)).into_bytes();
        if (r >> 32).is_multiple_of(10) {
            db.delete(&key).expect("delete");
        } else {
            let mut value = format!("v{op:06}").into_bytes();
            value.resize(40 + (r >> 40) as usize % 160, b'.');
            db.put(&key, &value).expect("put");
        }
    }
    db.flush().expect("flush");
    db.drain_background();
    let (edits, files, bytes) = db.backup_end().expect("stream was armed");
    db.checkpoint("golden").expect("checkpoint");

    let mut out = String::new();
    let _ = writeln!(out, "shipped edits={edits} files={files} bytes={bytes}");
    let storage = db.storage();
    for name in [
        "backup-golden@MANIFEST-000001",
        "backup-golden@EDITS",
        "ckpt-golden@MANIFEST-000001",
    ] {
        let bytes = storage.read_all(name, IoClass::Other).expect(name);
        let _ = writeln!(
            out,
            "{name} len={} crc32c={:08x}",
            bytes.len(),
            crc32c(&bytes)
        );
    }
    out
}

fn inline() -> LdcDbBuilder {
    LdcDb::builder()
        .options(tiny_options())
        .background_workers(0)
}

const GOLDEN_UDC: &str = "\
clock_ns 1356555385\n\
get_hits 4570\n\
stats flushes=512 merges=404 trivial_moves=15 links=0 ldc_merges=0 slowdowns=90 stalls=136 stall_nanos=62231349 writes=14029 gets=5971 user_bytes=1579870\n\
io user-read read=3660894 write=0\n\
io wal-write read=0 write=1891875\n\
io flush-write read=0 write=1853477\n\
io compaction-read read=5899854 write=0\n\
io compaction-write read=0 write=8443140\n\
io manifest-write read=0 write=146681\n\
io other read=539085 write=0\n\
events flush 512\n\
events recovery 1\n\
events slowdown 90\n\
events stall 136\n\
events trivial_move 15\n\
events udc_merge 404\n\
event_stream_crc32c 0cc2274c\n\
manifest MANIFEST-000001 len=146666 crc32c=ee30075c\n\
next_file_number 3145\n\
";

const GOLDEN_LDC: &str = "\
clock_ns 1059062083\n\
get_hits 4570\n\
stats flushes=512 merges=0 trivial_moves=3 links=868 ldc_merges=367 slowdowns=340 stalls=60 stall_nanos=9337055 writes=14029 gets=5971 user_bytes=1579870\n\
io user-read read=2648435 write=0\n\
io wal-write read=0 write=1891875\n\
io flush-write read=0 write=1853477\n\
io compaction-read read=1309210 write=0\n\
io compaction-write read=0 write=2563075\n\
io manifest-write read=0 write=270155\n\
io other read=239008 write=0\n\
events flush 512\n\
events ldc_link 868\n\
events ldc_merge 367\n\
events recovery 1\n\
events slowdown 340\n\
events stall 60\n\
events trivial_move 3\n\
event_stream_crc32c bb6d8587\n\
manifest MANIFEST-000001 len=270140 crc32c=2eb71eed\n\
next_file_number 1805\n\
";

const GOLDEN_SIZE_TIERED: &str = "\
clock_ns 555427236\n\
get_hits 4570\n\
stats flushes=512 merges=167 trivial_moves=0 links=0 ldc_merges=0 slowdowns=0 stalls=34 stall_nanos=5269446 writes=14029 gets=5971 user_bytes=1579870\n\
io user-read read=2940752 write=0\n\
io wal-write read=0 write=1891875\n\
io flush-write read=0 write=1853477\n\
io compaction-read read=3169421 write=0\n\
io compaction-write read=0 write=4597755\n\
io manifest-write read=0 write=41728\n\
io other read=281424 write=0\n\
events flush 512\n\
events recovery 1\n\
events stall 34\n\
events udc_merge 167\n\
event_stream_crc32c c291f0e8\n\
manifest MANIFEST-000001 len=41713 crc32c=549565c7\n\
next_file_number 1194\n\
";

#[test]
fn inline_udc_matches_golden() {
    assert_fingerprint("udc", inline().udc_baseline(), GOLDEN_UDC);
}

#[test]
fn inline_ldc_matches_golden() {
    assert_fingerprint("ldc", inline(), GOLDEN_LDC);
}

#[test]
fn inline_size_tiered_matches_golden() {
    assert_fingerprint("size_tiered", inline().size_tiered(), GOLDEN_SIZE_TIERED);
}

// Recorded at commit fc702ba (PR 18), before `version.rs` was split and its
// three manifest writers folded into one.
const GOLDEN_CUTS_UDC: &str = "\
shipped edits=177 files=500 bytes=1967841\n\
backup-golden@MANIFEST-000001 len=2155 crc32c=4aa2a0aa\n\
backup-golden@EDITS len=28264 crc32c=fb0ab5c7\n\
ckpt-golden@MANIFEST-000001 len=2214 crc32c=67a11f88\n\
";

const GOLDEN_CUTS_LDC: &str = "\
shipped edits=269 files=202 bytes=701577\n\
backup-golden@MANIFEST-000001 len=1887 crc32c=829c8d60\n\
backup-golden@EDITS len=23819 crc32c=aa3014a5\n\
ckpt-golden@MANIFEST-000001 len=3418 crc32c=31d9621d\n\
";

#[test]
fn durable_cuts_udc_match_golden() {
    assert_eq!(durable_cuts(inline().udc_baseline()), GOLDEN_CUTS_UDC);
}

#[test]
fn durable_cuts_ldc_match_golden() {
    assert_eq!(durable_cuts(inline()), GOLDEN_CUTS_LDC);
}
