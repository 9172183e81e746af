//! Tier-1 golden for `MemStorage`. One seeded sequence over one store on
//! a tiny device — appends and syncs, whole-file writes (one replacing an
//! existing file), reads of sealed and of growing files, truncates, a
//! rename onto an existing name, a link, deletes, and a `DeviceFull` from
//! both `write_file` and `append` — is written into a transcript: every
//! call's outcome, the bytes each read returned, and at checkpoints the
//! virtual clock, `IoStats`, `FtlStats`, `list()` and every file's size,
//! `synced_len` and contents. The device is small enough that a closing
//! churn of rewrites makes the FTL erase blocks and relocate live pages,
//! so the order of page allocations, programs and trims inside each call
//! shows up in the erase and relocation counts, not only in the totals.
//!
//! The digest is FNV-1a over the transcript. How `MemStorage` locks its
//! files is free to change; what it charges the device, in which order,
//! and what it returns are not. When a PR's stated purpose is to change
//! them, re-record from the assertion's `left` side and say why.

use std::fmt::{Debug, Write as _};
use std::sync::Arc;

use ldc::ssd::{IoClass, MemStorage, SsdConfig, SsdDevice, SsdResult, StorageBackend};

const SEED: u64 = 0x5707_A6E0_2019;

/// splitmix64: the sequence must not depend on any crate's RNG stream.
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

struct Run {
    storage: Arc<MemStorage>,
    rng: u64,
    log: String,
}

impl Run {
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| next(&mut self.rng) as u8).collect()
    }

    fn note<T: Debug>(&mut self, op: String, outcome: SsdResult<T>) {
        let _ = writeln!(self.log, "{op} -> {outcome:?}");
    }

    /// A random live file name whose name contains `part`, if any.
    fn pick(&mut self, part: &str) -> Option<String> {
        let names: Vec<String> = self
            .storage
            .list()
            .into_iter()
            .filter(|n| n.contains(part))
            .collect();
        let r = next(&mut self.rng) as usize;
        (!names.is_empty()).then(|| names[r % names.len()].clone())
    }

    fn append(&mut self, name: &str, len: usize, class: IoClass) -> bool {
        let data = self.bytes(len);
        let outcome = self.storage.append(name, &data, class);
        let ok = outcome.is_ok();
        self.note(format!("append {name} {len}"), outcome);
        ok
    }

    fn write_file(&mut self, name: &str, len: usize) -> bool {
        let data = self.bytes(len);
        let outcome = self.storage.write_file(name, &data, IoClass::FlushWrite);
        let ok = outcome.is_ok();
        self.note(format!("write_file {name} {len}"), outcome);
        ok
    }

    /// A read of `name` at a random in-range extent; one in eight runs one
    /// byte past the end instead.
    fn read(&mut self, name: &str) {
        let size = self.storage.size(name).expect("picked from list()");
        let r = next(&mut self.rng);
        let offset = (r >> 8) % (size + 1);
        let mut len = (r >> 32) % (size - offset + 1);
        if r.is_multiple_of(8) {
            len = size - offset + 1;
        }
        let outcome = if r & 16 == 0 {
            self.storage.read(name, offset, len, IoClass::UserRead)
        } else {
            self.storage
                .read_sequential(name, offset, len, IoClass::CompactionRead)
        };
        let outcome = outcome.map(|b| format!("{} bytes fnv1a={:016x}", b.len(), fnv1a(&b)));
        self.note(format!("read {name} {offset}+{len}"), outcome);
    }

    fn checkpoint(&mut self, label: &str) {
        let device = self.storage.device();
        let _ = writeln!(
            self.log,
            "== {label}: clock={} {:?} {:?}",
            device.clock().now(),
            device.io_stats(),
            device.ftl_stats()
        );
        for name in self.storage.list() {
            let size = self.storage.size(&name).expect("listed");
            let synced = self.storage.synced_len(&name).expect("listed");
            let data = self
                .storage
                .read_all(&name, IoClass::Other)
                .expect("listed");
            assert_eq!(data.len() as u64, size);
            let _ = writeln!(
                self.log,
                "   {name} size={size} synced={synced} fnv1a={:016x}",
                fnv1a(&data)
            );
        }
    }
}

#[test]
fn seeded_storage_sequence_matches_golden() {
    let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
    let mut run = Run {
        storage,
        rng: SEED,
        log: String::new(),
    };

    // Logs grow by appends and syncs, tables land whole, reads hit both,
    // and tables come and go.
    for i in 0..240u64 {
        let r = next(&mut run.rng);
        let log = format!("{:06}.log", 1 + r % 3);
        match (r >> 4) % 11 {
            0..=3 => {
                run.append(&log, (r >> 16) as usize % 6_000, IoClass::WalWrite);
            }
            4 => {
                let outcome = run.storage.sync(&log);
                run.note(format!("sync {log}"), outcome);
            }
            5 | 10 => {
                run.write_file(&format!("{:06}.sst", 10 + i), (r >> 16) as usize % 40_000);
            }
            6 | 7 => {
                if let Some(name) = run.pick("") {
                    run.read(&name);
                }
            }
            8 => {
                if let Some(name) = run.pick(".sst") {
                    let outcome = run.storage.delete(&name);
                    run.note(format!("delete {name}"), outcome);
                }
            }
            _ => {
                if let Some(name) = run.pick("") {
                    let size = run.storage.size(&name);
                    let synced = run.storage.synced_len(&name);
                    run.note(
                        format!("size {name}"),
                        size.and_then(|s| synced.map(|y| (s, y))),
                    );
                }
            }
        }
    }
    run.checkpoint("mixed");

    // Replace a table in place, then read the replacement.
    let table = run.pick(".sst").expect("tables survive the mix");
    run.write_file(&table, 9_000);
    run.read(&table);
    // Unseal a table by appending to it; read its sealed head and new tail.
    let other = run.pick(".sst").expect("tables survive the mix");
    run.append(&other, 5_000, IoClass::CompactionWrite);
    run.read(&other);
    run.read(&other);

    // Truncates: a synced log mid-page, a sealed table, past the end, and
    // a missing file.
    let outcome = run.storage.sync("000001.log");
    run.note("sync 000001.log".into(), outcome);
    let size = run.storage.size("000001.log").expect("log exists");
    let outcome = run.storage.truncate("000001.log", size * 2 / 3);
    run.note(format!("truncate 000001.log {}", size * 2 / 3), outcome);
    let outcome = run.storage.truncate(&table, 4_097);
    run.note(format!("truncate {table} 4097"), outcome);
    let outcome = run.storage.truncate(&table, 1 << 30);
    run.note(format!("truncate {table} past end"), outcome);
    let outcome = run.storage.truncate("missing", 0);
    run.note("truncate missing".into(), outcome);
    run.append("000001.log", 700, IoClass::WalWrite);
    run.read("000001.log");

    // A rename onto an existing name, a rename of a missing file, a link,
    // a link onto an existing name, and deletes.
    let outcome = run.storage.rename("000002.log", &table);
    run.note(format!("rename 000002.log {table}"), outcome);
    let outcome = run.storage.rename("missing", "x");
    run.note("rename missing".into(), outcome);
    let outcome = run.storage.link_file(&other, "ckpt@linked", IoClass::Other);
    run.note(format!("link_file {other} ckpt@linked"), outcome);
    let outcome = run.storage.link_file(&table, "ckpt@linked", IoClass::Other);
    run.note(format!("link_file {table} ckpt@linked"), outcome);
    let outcome = run.storage.delete(&other);
    run.note(format!("delete {other}"), outcome);
    let outcome = run.storage.delete("missing");
    run.note("delete missing".into(), outcome);
    run.read("ckpt@linked");
    run.checkpoint("namespace");

    // Fill the device with whole-file writes, then with appends.
    let mut big = 0;
    while run.write_file(&format!("big-{big:02}"), 512 << 10) {
        big += 1;
    }
    run.checkpoint("full by write_file");
    while run.append("000003.log", 64 << 10, IoClass::WalWrite) {}
    run.checkpoint("full by append");
    for i in 0..=big {
        let outcome = run.storage.delete(&format!("big-{i:02}"));
        run.note(format!("delete big-{i:02}"), outcome);
    }
    run.write_file("after-full", 300 << 10);
    run.checkpoint("freed");

    // Churn: rewrite a few names over and over beside a growing log, so
    // erase blocks hold live and dead pages together and GC relocates.
    for i in 0..80 {
        let len = 20_000 + next(&mut run.rng) as usize % 180_000;
        run.write_file(&format!("churn-{}", i % 5), len);
        run.append("000003.log", 3_000, IoClass::WalWrite);
        if i % 7 == 0 {
            let outcome = run.storage.sync("000003.log");
            run.note("sync 000003.log".into(), outcome);
        }
    }
    run.checkpoint("churned");

    let device = run.storage.device();
    let summary = format!(
        "clock={} {:?} files={} total_bytes={} transcript len={} fnv1a={:016x}",
        device.clock().now(),
        device.ftl_stats(),
        run.storage.list().len(),
        run.storage.total_bytes(),
        run.log.len(),
        fnv1a(run.log.as_bytes())
    );
    assert_eq!(
        summary,
        "clock=73773879 FtlStats { host_pages_written: 3326, gc_pages_relocated: 20, \
         erases: 131, pages_trimmed: 2775 } files=44 total_bytes=2054844 \
         transcript len=34077 fnv1a=42c08cb939814271"
    );
}
