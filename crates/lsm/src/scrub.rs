//! Online SSTable scrubber.
//!
//! Real deployments find latent sector corruption *before* a read trips
//! over it by periodically re-reading and re-verifying cold data. `scrub`
//! is that pass for this engine: it walks every SSTable reachable from the
//! current version — live files level by level, then the LDC frozen
//! region — and runs [`crate::table::Table::verify_deep`] on each, which
//! re-reads every data block, re-checks its CRC, validates index/footer
//! consistency, and confirms every stored key passes the Bloom filter.
//!
//! The scrubber is *online*: it runs against an open [`Db`], charges its
//! reads to the simulated device like any other I/O, and reports progress
//! through [`ldc_obs::EventKind::ScrubProgress`] / `ScrubCorruption`
//! events plus the degraded-mode metrics. Under
//! [`crate::options::CorruptionPolicy::Quarantine`] a corrupt live table
//! is quarantined on the spot, so one scrub pass leaves the store serving
//! only verified data (minus the keys that lived in the corrupt files —
//! `repair_db` gets those back where possible).
//!
//! [`Db::verify_integrity`], the plain check that stops at the first
//! damage, walks the same tables through the same pinned version.

use std::sync::Arc;

use ldc_obs::{Event, EventKind};
use ldc_ssd::IoClass;

use crate::cache::TableSet;
use crate::db::Db;
use crate::error::{CorruptionInfo, Error, Result};
use crate::version::Version;

/// What one [`Db::scrub`] pass verified and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Tables whose verification ran to completion (clean or corrupt).
    pub tables_scanned: u64,
    /// Data blocks whose CRCs were re-verified across clean tables.
    pub blocks_verified: u64,
    /// Bytes read and re-verified across clean tables.
    pub bytes_verified: u64,
    /// Entries whose ordering and filter membership were checked.
    pub entries_verified: u64,
    /// Corruption found, one entry per corrupt table (verification of a
    /// table stops at its first corrupt block).
    pub corruptions: Vec<CorruptionInfo>,
    /// Files quarantined by this pass (quarantine policy only; live
    /// tables only — a corrupt frozen file is reported, not dropped,
    /// because slice links still reference it).
    pub quarantined: Vec<String>,
}

impl ScrubReport {
    /// Whether the pass found no corruption at all.
    pub fn is_clean(&self) -> bool {
        self.corruptions.is_empty()
    }
}

impl Db {
    /// The current version and its open tables, for a pass that walks
    /// every file without holding the core lock.
    pub(crate) fn current_tables(&self) -> (Arc<Version>, Arc<TableSet>) {
        let core = self.core.lock();
        (Arc::clone(&core.versions.current), Arc::clone(&core.tables))
    }

    /// Integrity check over every live and frozen SSTable: verifies all
    /// block checksums and key ordering. Returns the total entries scanned.
    pub fn verify_integrity(&self) -> Result<u64> {
        let (version, tables) = self.current_tables();
        let mut total = 0u64;
        for (number, _) in version.tables() {
            total += tables.table(number)?.verify(IoClass::Other)?;
        }
        Ok(total)
    }

    /// Re-verifies every SSTable reachable from the current version: all
    /// block CRCs, key ordering, index/footer consistency, and
    /// filter-vs-key agreement. Live levels are walked top-down, then the
    /// frozen region.
    ///
    /// Corruption is collected (and, under the quarantine policy,
    /// quarantined for live files) rather than returned early; only
    /// non-corruption errors — a device failure that survives the retry
    /// budget — abort the pass.
    pub fn scrub(&self) -> Result<ScrubReport> {
        // Defer physical deletion of compacted-away tables for the whole
        // pass: with background workers, an install could otherwise reap a
        // file between target collection and its verify.
        let _pin = self.pin_reads();
        let (version, tables) = self.current_tables();
        let mut targets: Vec<(Option<u32>, u64)> = Vec::new();
        for (level, files) in version.levels.iter().enumerate() {
            for f in files {
                targets.push((Some(level as u32), f.number));
            }
        }
        for number in version.frozen.keys() {
            targets.push((None, *number));
        }

        let metrics = self.metrics();
        let mut report = ScrubReport::default();
        for (level, number) in targets {
            let t0 = self.device().clock().now();
            let outcome = tables
                .table(number)
                .and_then(|t| t.verify_deep(IoClass::Other));
            let t1 = self.device().clock().now();
            match outcome {
                Ok(stats) => {
                    report.tables_scanned += 1;
                    report.blocks_verified += stats.blocks;
                    report.bytes_verified += stats.bytes;
                    report.entries_verified += stats.entries;
                    metrics.record_scrub_blocks(stats.blocks);
                    if self.sink.enabled() {
                        let mut ev = Event::span(EventKind::ScrubProgress, t0, t1)
                            .files(1, u32::try_from(stats.blocks).unwrap_or(u32::MAX))
                            .bytes(stats.bytes, 0);
                        ev.level = level;
                        self.sink.record(ev);
                    }
                }
                Err(Error::Corruption(info)) => {
                    report.tables_scanned += 1;
                    metrics.record_scrub_corruption();
                    if self.sink.enabled() {
                        let mut ev = Event::span(EventKind::ScrubCorruption, t0, t1)
                            .files(1, 0)
                            .bytes(info.offset.unwrap_or(0), 0);
                        ev.level = level;
                        self.sink.record(ev);
                    }
                    // Only live files quarantine; `quarantine_corruption`
                    // itself enforces the policy and live-ness.
                    if self.quarantine_corruption(&info)? {
                        report.quarantined.push(info.file.clone());
                    }
                    report.corruptions.push(info);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use crate::compaction::UdcPolicy;
    use crate::db::Db;
    use crate::options::{CorruptionPolicy, Options};
    use ldc_obs::EventKind;
    use ldc_ssd::{IoClass, MemStorage, SsdConfig, SsdDevice, StorageBackend};
    use std::sync::Arc;

    fn open(policy: CorruptionPolicy) -> (Db, Arc<MemStorage>) {
        let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
        let options = Options {
            corruption_policy: policy,
            ..Options::small_for_tests()
        };
        let db = Db::open(storage.clone(), options, Box::new(UdcPolicy::new())).unwrap();
        (db, storage)
    }

    fn fill(db: &Db, n: u64) {
        for i in 0..n {
            db.put(
                format!("key{i:05}").as_bytes(),
                format!("value-{i:05}-{}", "x".repeat(100)).as_bytes(),
            )
            .unwrap();
        }
        db.drain_background();
    }

    fn largest_sst(storage: &MemStorage) -> String {
        storage
            .list()
            .into_iter()
            .filter(|n| n.ends_with(".sst"))
            .max_by_key(|n| storage.size(n).unwrap_or(0))
            .expect("at least one sstable")
    }

    fn flip_bit(storage: &MemStorage, name: &str, offset: u64) {
        let mut data = storage.read_all(name, IoClass::Other).unwrap().to_vec();
        let idx = usize::try_from(offset).unwrap() % data.len();
        data[idx] ^= 0x01;
        storage.write_file(name, &data, IoClass::Other).unwrap();
    }

    #[test]
    fn clean_store_scrubs_clean() {
        let (db, _s) = open(CorruptionPolicy::FailStop);
        fill(&db, 400);
        let report = db.scrub().unwrap();
        assert!(report.is_clean());
        assert!(report.tables_scanned > 0);
        assert!(report.blocks_verified > 0);
        // The active memtable keeps the tail of the workload, so tables
        // hold most-but-not-all entries.
        assert!(report.entries_verified > 0);
        let d = db.metrics().degraded_counters();
        assert_eq!(d.scrub_blocks_verified, report.blocks_verified);
        assert_eq!(d.scrub_corruptions, 0);
    }

    #[test]
    fn bit_flip_is_detected_and_reported() {
        let (db, storage) = open(CorruptionPolicy::FailStop);
        fill(&db, 400);
        let victim = largest_sst(&storage);
        flip_bit(&storage, &victim, 100);
        // Flush cached blocks so the scrub re-reads from the device.
        drop(db);
        let (db, _) = {
            let options = Options::small_for_tests();
            let db = Db::open(storage.clone(), options, Box::new(UdcPolicy::new())).unwrap();
            (db, ())
        };
        let report = db.scrub().unwrap();
        assert!(!report.is_clean());
        assert!(report.corruptions.iter().any(|c| c.file == victim));
        // Fail-stop: nothing was quarantined.
        assert!(report.quarantined.is_empty());
        assert!(db.quarantined().is_empty());
        assert_eq!(db.metrics().degraded_counters().scrub_corruptions, 1);
    }

    #[test]
    fn quarantine_policy_drops_corrupt_live_table() {
        let (db, storage) = open(CorruptionPolicy::Quarantine);
        fill(&db, 400);
        let victim = largest_sst(&storage);
        flip_bit(&storage, &victim, 100);
        drop(db);
        let options = Options {
            corruption_policy: CorruptionPolicy::Quarantine,
            ..Options::small_for_tests()
        };
        let sink = Arc::new(ldc_obs::RingBufferSink::new(4096));
        let db = Db::open_with_sink(
            storage.clone(),
            options,
            Box::new(UdcPolicy::new()),
            sink.clone(),
        )
        .unwrap();
        let report = db.scrub().unwrap();
        assert_eq!(report.quarantined, vec![victim.clone()]);
        assert_eq!(db.quarantined().len(), 1);
        assert!(!storage.exists(&victim));
        assert!(storage.exists(&format!("{victim}.quarantined")));
        let events = sink.events();
        assert!(events.iter().any(|e| e.kind == EventKind::ScrubCorruption));
        assert!(events.iter().any(|e| e.kind == EventKind::Quarantine));
        // A second pass over the survivors is clean.
        let again = db.scrub().unwrap();
        assert!(again.is_clean());
    }
}
