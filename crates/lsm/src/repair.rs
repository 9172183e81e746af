//! Offline repair: rebuild a damaged store from whatever survives.
//!
//! `repair_db` is this engine's `leveldb::RepairDB`: it runs against a
//! *closed* store and reconstructs a consistent MANIFEST from the files on
//! disk. The pass:
//!
//! 1. deep-verifies every `.sst` (all block CRCs, index/footer
//!    consistency, filter agreement) and sets corrupt ones aside as
//!    `<name>.quarantined`;
//! 2. recovers the MANIFEST if it is readable, keeping the level/frozen/
//!    link structure minus the corrupt files — dropping a corrupt live
//!    file also drops its slice links, and any LDC frozen predecessor
//!    left unreferenced is *thawed* back to Level 0, so data a corrupt
//!    successor would have lost is served from the retained frozen copy;
//! 3. if the MANIFEST is unreadable, sets it aside and re-homes every
//!    verified table at Level 0 — correct for reads because Level-0
//!    lookups gather all covering files and pick the highest sequence
//!    number (this mode can resurrect deleted keys whose tombstones were
//!    compacted away: salvaging data beats losing it once the file-level
//!    metadata is gone, which is also LevelDB's `RepairDB` tradeoff);
//! 4. salvages WAL remnants — `.log` files and the `.log.quarantined`
//!    ones a previous point-in-time recovery set aside — into a fresh
//!    Level-0 table, keeping each log's clean prefix;
//! 5. writes a brand-new snapshot MANIFEST via [`VersionSet::rebuild`]
//!    and deletes stale manifests.
//!
//! The pass is deterministic for a given storage image and emits one
//! [`EventKind::Repair`] event. It is **not** crash-safe: if the machine
//! dies mid-repair, run it again (it is idempotent — a second pass over a
//! repaired store keeps everything and salvages nothing).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ldc_obs::{Event, EventKind, MetricsRegistry, NoopSink, SharedSink};
use ldc_ssd::{IoClass, StorageBackend};

use crate::cache::BlockCache;
use crate::error::{corruption, Error, Result};
use crate::memtable::MemTable;
use crate::options::{Options, ENGINE_SEED};
use crate::retry::RetryStorage;
use crate::table::{Table, TableBuilder, BLOCK_RESTART_INTERVAL};
use crate::types::{parse_trailer, SequenceNumber};
use crate::version::{table_file_name, FileMeta, Version, VersionSet, CURRENT_FILE, NUM_LEVELS};
use crate::wal::replay_into;

/// What one [`repair_db`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Whether the MANIFEST was readable; `false` means every surviving
    /// table was re-homed at Level 0.
    pub manifest_recovered: bool,
    /// Verified tables kept at their manifest position (live or frozen).
    pub tables_kept: u64,
    /// Verified tables placed at Level 0: WAL-salvage output plus, when
    /// the manifest was lost, every re-homed table.
    pub tables_salvaged: u64,
    /// Corrupt tables renamed to `<name>.quarantined`.
    pub tables_quarantined: u64,
    /// Manifest-referenced tables absent on disk (unrecoverable).
    pub tables_missing: u64,
    /// Unreferenced intact `.sst` files deleted (manifest-recovered mode
    /// only; with the manifest lost they are salvaged instead).
    pub orphans_deleted: u64,
    /// LDC frozen predecessors thawed back to Level 0 because no slice
    /// link references them anymore.
    pub frozen_thawed: u64,
    /// Slice links dropped because their frozen source was corrupt or
    /// missing.
    pub slices_dropped: u64,
    /// Batch entries recovered from WAL files into the salvage table.
    pub wal_records_salvaged: u64,
    /// WAL files whose tail was corrupt (their clean prefix was kept).
    pub wals_quarantined: u64,
    /// Highest sequence number in the rebuilt store.
    pub last_sequence: SequenceNumber,
}

/// Everything repair needs to know about one verified table.
#[derive(Debug, Clone)]
struct TableFacts {
    size: u64,
    smallest: Vec<u8>,
    largest: Vec<u8>,
    max_seq: SequenceNumber,
    entries: u64,
}

/// Rebuilds a consistent store from the files in `storage`. See the
/// module docs for the pass structure. The store must not be open.
pub fn repair_db(storage: Arc<dyn StorageBackend>, options: &Options) -> Result<RepairReport> {
    repair_db_with_sink(storage, options, Arc::new(NoopSink))
}

/// Like [`repair_db`], with [`EventKind::Repair`] (and any retry events)
/// routed to `sink`.
pub fn repair_db_with_sink(
    storage: Arc<dyn StorageBackend>,
    options: &Options,
    sink: SharedSink,
) -> Result<RepairReport> {
    options.validate()?;
    let t0 = storage.device().clock().now();
    // The same bounded transient-retry protection the live engine gets.
    let storage = RetryStorage::wrap(
        storage,
        ENGINE_SEED,
        Arc::clone(&sink),
        Arc::new(MetricsRegistry::new()),
    );
    let mut report = RepairReport::default();

    // -- 1. Classify the directory listing. ---------------------------
    let listing = storage.list();
    let mut table_numbers: Vec<u64> = Vec::new();
    let mut logs: Vec<(u64, String)> = Vec::new();
    let mut max_number_seen = 0u64;
    for name in &listing {
        // Checkpoint/backup namespaces (`ckpt-<name>@...`,
        // `backup-<name>@...`) are self-contained images, not part of the
        // live store: repair must neither salvage nor delete them. The
        // suffix parses below would skip them anyway (the prefix breaks
        // the number parse) — this guard makes the contract explicit.
        if name.starts_with("ckpt-") || name.starts_with("backup-") {
            continue;
        }
        if let Some(n) = name
            .strip_suffix(".sst")
            .and_then(|s| s.parse::<u64>().ok())
        {
            table_numbers.push(n);
            max_number_seen = max_number_seen.max(n);
        } else if let Some(n) = name
            .strip_suffix(".log")
            .and_then(|s| s.parse::<u64>().ok())
        {
            logs.push((n, name.clone()));
            max_number_seen = max_number_seen.max(n);
        } else if let Some(n) = name
            .strip_suffix(".log.quarantined")
            .and_then(|s| s.parse::<u64>().ok())
        {
            logs.push((n, name.clone()));
            max_number_seen = max_number_seen.max(n);
        } else if let Some(n) = name
            .strip_suffix(".sst.quarantined")
            .and_then(|s| s.parse::<u64>().ok())
        {
            // Already set aside; only its number matters (never reuse it).
            max_number_seen = max_number_seen.max(n);
        }
    }
    table_numbers.sort_unstable();
    logs.sort();

    // -- 2. Deep-verify every table on disk. --------------------------
    let cache = Arc::new(BlockCache::new(options.block_cache_bytes));
    let mut clean: BTreeMap<u64, TableFacts> = BTreeMap::new();
    for number in table_numbers {
        match scan_table(&storage, &cache, number) {
            Ok(facts) => {
                clean.insert(number, facts);
            }
            Err(Error::Corruption(_)) => {
                let name = table_file_name(number);
                storage.rename(&name, &format!("{name}.quarantined"))?;
                report.tables_quarantined += 1;
            }
            Err(e) => return Err(e),
        }
    }

    // -- 3. Recover the manifest structure, or rebuild from scratch. --
    let recovered = if VersionSet::exists(storage.as_ref()) {
        VersionSet::recover(Arc::clone(&storage)).ok()
    } else {
        None
    };
    let mut last_seq;
    let mut next_file = max_number_seen + 1;
    let mut version = match recovered {
        Some(vs) => {
            report.manifest_recovered = true;
            last_seq = vs.counters.last_sequence;
            next_file = next_file.max(vs.counters.next_file_number);
            let mut version = Version::clone(&vs.current);
            drop(vs);

            // Drop live files that are corrupt or missing on disk.
            for files in version.levels.iter_mut() {
                files.retain(|f| {
                    if clean.contains_key(&f.number) {
                        report.tables_kept += 1;
                        true
                    } else {
                        if storage.exists(&table_file_name(f.number)) {
                            // Still present yet not verified: impossible
                            // (step 2 renamed corrupt files), so this is
                            // the quarantined-corrupt case.
                        } else {
                            report.tables_missing += 1;
                        }
                        false
                    }
                });
            }
            // Same for frozen files; their slice links die with them.
            let bad_frozen: Vec<u64> = version
                .frozen
                .keys()
                .copied()
                .filter(|n| !clean.contains_key(n))
                .collect();
            for n in &bad_frozen {
                if !storage.exists(&format!("{}.quarantined", table_file_name(*n))) {
                    report.tables_missing += 1;
                }
                version.frozen.remove(n);
            }
            for files in version.levels.iter_mut() {
                for f in files.iter_mut() {
                    let before = f.slices.len();
                    f.slices
                        .retain(|s| version.frozen.contains_key(&s.source_file));
                    report.slices_dropped += (before - f.slices.len()) as u64;
                }
            }
            // Thaw frozen predecessors no slice references anymore — the
            // retained copy of data a corrupt/quarantined successor lost.
            // At Level 0 their (older) sequence numbers resolve correctly
            // against everything else.
            let referenced: BTreeSet<u64> = version
                .levels
                .iter()
                .flat_map(|files| files.iter())
                .flat_map(|f| f.slices.iter())
                .map(|s| s.source_file)
                .collect();
            let thaw: Vec<u64> = version
                .frozen
                .keys()
                .copied()
                .filter(|n| !referenced.contains(n))
                .collect();
            for n in thaw {
                if let Some(fm) = version.frozen.remove(&n) {
                    if let Some(l0) = version.levels.first_mut() {
                        l0.push(fm.into());
                        report.frozen_thawed += 1;
                    }
                }
            }
            report.tables_kept += version.frozen.len() as u64;

            // Intact tables referenced by nothing (e.g. partial compaction
            // outputs orphaned by a quarantine) are garbage: deleting them
            // cannot lose live data, and crucially avoids resurrecting
            // keys whose tombstones were already compacted away.
            let referenced_files: BTreeSet<u64> =
                version.tables().map(|(number, _)| number).collect();
            let orphans: Vec<u64> = clean
                .keys()
                .copied()
                .filter(|n| !referenced_files.contains(n))
                .collect();
            for n in orphans {
                storage.delete(&table_file_name(n))?;
                clean.remove(&n);
                report.orphans_deleted += 1;
            }
            version
        }
        None => {
            // Manifest unreadable: set it aside and re-home every
            // verified table at Level 0, where gather-by-sequence reads
            // stay correct without any level metadata.
            for name in &listing {
                if name.starts_with("MANIFEST-") && !name.ends_with(".quarantined") {
                    storage.rename(name, &format!("{name}.quarantined"))?;
                }
            }
            last_seq = 0;
            let mut version = Version::new(NUM_LEVELS);
            for (number, facts) in &clean {
                if facts.entries == 0 {
                    storage.delete(&table_file_name(*number))?;
                    report.orphans_deleted += 1;
                    continue;
                }
                if let Some(l0) = version.levels.first_mut() {
                    l0.push(FileMeta::new(
                        *number,
                        facts.size,
                        facts.smallest.clone(),
                        facts.largest.clone(),
                    ));
                    report.tables_salvaged += 1;
                    last_seq = last_seq.max(facts.max_seq);
                }
            }
            version
        }
    };

    // -- 4. Salvage WAL remnants into one fresh Level-0 table. --------
    let mem = MemTable::new(ENGINE_SEED);
    for (_, name) in &logs {
        // Keep the clean prefix, drop the corrupt tail.
        let log = replay_into(storage.as_ref(), name, &mem)?;
        report.wal_records_salvaged += log.entries;
        report.wals_quarantined += u64::from(log.corrupt);
        last_seq = last_seq.max(log.last_sequence);
        // Everything readable now lives in the salvage memtable; the file
        // (including an unreadable tail) is no longer needed.
        storage.delete(name)?;
    }
    if !mem.is_empty() {
        let number = next_file;
        next_file += 1;
        let mut builder = TableBuilder::new(
            options.block_bytes,
            BLOCK_RESTART_INTERVAL,
            options.bloom_bits_per_key,
        );
        let mut it = mem.iter();
        it.seek_to_first();
        while it.valid() {
            builder.add(it.key(), it.value());
            it.next();
        }
        let finished = builder.finish();
        storage.write_file(
            &table_file_name(number),
            &finished.bytes,
            IoClass::FlushWrite,
        )?;
        if let Some(l0) = version.levels.first_mut() {
            l0.push(FileMeta::new(
                number,
                finished.bytes.len() as u64,
                finished.smallest,
                finished.largest,
            ));
            report.tables_salvaged += 1;
        }
    }
    if let Some(l0) = version.levels.first_mut() {
        l0.sort_by_key(|f| f.number);
    }

    // -- 5. Write the new snapshot manifest; drop stale ones. ---------
    let vs = VersionSet::rebuild(Arc::clone(&storage), version, last_seq, next_file)?;
    report.last_sequence = vs.counters.last_sequence;
    let current = String::from_utf8(storage.read_all(CURRENT_FILE, IoClass::Other)?.to_vec())
        .map_err(|_| corruption("CURRENT is not utf-8"))?;
    for name in storage.list() {
        if name.starts_with("MANIFEST-") && !name.ends_with(".quarantined") && name != current {
            storage.delete(&name)?;
        }
    }

    if sink.enabled() {
        sink.record(
            Event::span(EventKind::Repair, t0, storage.device().clock().now())
                .files(
                    u32::try_from(report.tables_salvaged).unwrap_or(u32::MAX),
                    u32::try_from(report.tables_quarantined).unwrap_or(u32::MAX),
                )
                .bytes(0, report.wal_records_salvaged),
        );
    }
    Ok(report)
}

/// Opens and deep-verifies one table, returning its key span, entry
/// count, and highest sequence number. Corruption anywhere in the file
/// surfaces as `Err(Error::Corruption)`.
fn scan_table(
    storage: &Arc<dyn StorageBackend>,
    cache: &Arc<BlockCache>,
    number: u64,
) -> Result<TableFacts> {
    let name = table_file_name(number);
    let size = storage.size(&name)?;
    let table = Table::open(Arc::clone(storage), name, number, Arc::clone(cache))?;
    table.verify_deep(IoClass::Other)?;
    let mut it = table.iter(IoClass::Other);
    it.seek_to_first();
    let mut smallest: Option<Vec<u8>> = None;
    let mut largest: Vec<u8> = Vec::new();
    let mut max_seq = 0;
    let mut entries = 0u64;
    while it.valid() {
        let ikey = it.key();
        let (seq, _) = parse_trailer(ikey);
        max_seq = std::cmp::max(max_seq, seq);
        if smallest.is_none() {
            smallest = Some(ikey.to_vec());
        }
        largest.clear();
        largest.extend_from_slice(ikey);
        entries += 1;
        it.next();
    }
    it.status()?;
    Ok(TableFacts {
        size,
        smallest: smallest.unwrap_or_default(),
        largest,
        max_seq,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::UdcPolicy;
    use crate::db::Db;
    use crate::options::CorruptionPolicy;
    use ldc_ssd::{MemStorage, SsdConfig, SsdDevice};

    fn storage() -> Arc<MemStorage> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    fn open(storage: Arc<MemStorage>) -> Db {
        Db::open(
            storage,
            Options::small_for_tests(),
            Box::new(UdcPolicy::new()),
        )
        .unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    fn value(i: u64) -> Vec<u8> {
        format!("value-{i:05}-{}", "x".repeat(100)).into_bytes()
    }

    fn fill(db: &mut Db, n: u64) {
        for i in 0..n {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.drain_background();
    }

    #[test]
    fn repair_of_healthy_store_is_lossless_and_idempotent() {
        let s = storage();
        let mut db = open(s.clone());
        fill(&mut db, 500);
        drop(db);

        let report = repair_db(s.clone(), &Options::small_for_tests()).unwrap();
        assert!(report.manifest_recovered);
        assert_eq!(report.tables_quarantined, 0);
        assert_eq!(report.tables_missing, 0);
        // The undrained memtable tail lives in the WAL; repair salvages it.
        assert!(report.tables_kept > 0);

        let second = repair_db(s.clone(), &Options::small_for_tests()).unwrap();
        assert!(second.manifest_recovered);
        assert_eq!(second.tables_quarantined, 0);
        assert_eq!(second.wal_records_salvaged, 0);
        assert_eq!(second.tables_salvaged, 0);
        assert_eq!(second.orphans_deleted, 0);

        let db = open(s);
        for i in 0..500 {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
        db.version().check_invariants().unwrap();
    }

    #[test]
    fn corrupt_table_is_quarantined_and_other_keys_survive() {
        let s = storage();
        let mut db = open(s.clone());
        fill(&mut db, 500);
        drop(db);

        // Corrupt the largest table.
        let victim = s
            .list()
            .into_iter()
            .filter(|n| n.ends_with(".sst"))
            .max_by_key(|n| s.size(n).unwrap_or(0))
            .unwrap();
        let mut data = s.read_all(&victim, IoClass::Other).unwrap().to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        s.write_file(&victim, &data, IoClass::Other).unwrap();

        let report = repair_db(s.clone(), &Options::small_for_tests()).unwrap();
        assert!(report.manifest_recovered);
        assert_eq!(report.tables_quarantined, 1);
        assert!(s.exists(&format!("{victim}.quarantined")));

        let db = open(s);
        let mut survivors = 0;
        for i in 0..500 {
            if db.get(&key(i)).unwrap() == Some(value(i)) {
                survivors += 1;
            }
        }
        assert!(survivors > 0, "repair must keep the undamaged tables");
        db.version().check_invariants().unwrap();
    }

    #[test]
    fn lost_manifest_rehomes_everything_at_level_zero() {
        let s = storage();
        let mut db = open(s.clone());
        fill(&mut db, 500);
        drop(db);

        s.delete(CURRENT_FILE).unwrap();
        let report = repair_db(s.clone(), &Options::small_for_tests()).unwrap();
        assert!(!report.manifest_recovered);
        assert!(report.tables_salvaged > 0);
        assert_eq!(report.tables_quarantined, 0);

        let db = open(s);
        for i in 0..500 {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
        db.version().check_invariants().unwrap();
    }

    #[test]
    fn wal_remnants_are_salvaged() {
        let s = storage();
        let db = open(s.clone());
        // No drain: most of this stays in the WAL.
        for i in 0..50 {
            db.put(&key(i), &value(i)).unwrap();
        }
        drop(db);
        assert!(s.list().iter().any(|n| n.ends_with(".log")));

        let report = repair_db(s.clone(), &Options::small_for_tests()).unwrap();
        assert!(report.wal_records_salvaged >= 50);
        assert!(!s.list().iter().any(|n| n.ends_with(".log")));

        let db = open(s);
        for i in 0..50 {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
    }

    #[test]
    fn repair_preserves_checkpoint_namespaces() {
        let s = storage();
        let mut db = open(s.clone());
        fill(&mut db, 300);
        db.checkpoint("nightly").unwrap();
        drop(db);

        let before: Vec<String> = {
            let mut v = s.list_dir("ckpt-nightly@");
            v.sort();
            v
        };
        assert!(!before.is_empty(), "checkpoint produced no files");

        // Lose the live store's manifest; repair re-homes live tables but
        // must leave the checkpoint image untouched.
        s.delete(CURRENT_FILE).unwrap();
        let report = repair_db(s.clone(), &Options::small_for_tests()).unwrap();
        assert!(!report.manifest_recovered);

        let after: Vec<String> = {
            let mut v = s.list_dir("ckpt-nightly@");
            v.sort();
            v
        };
        assert_eq!(before, after, "repair touched the checkpoint namespace");

        // The checkpoint still restores to a working store.
        let restored = storage();
        let dst: Arc<dyn StorageBackend> = restored.clone();
        let src: Arc<dyn StorageBackend> = s.clone();
        crate::backup::restore_checkpoint(&src, "ckpt-nightly@", &dst).unwrap();
        let db = open(restored);
        for i in 0..300 {
            assert_eq!(db.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
    }

    #[test]
    fn quarantine_policy_then_repair_thaws_frozen_predecessors() {
        // Build an LDC-shaped store by hand is heavy; here we check the
        // cheaper contract: a frozen file left at refcount zero (as the
        // online quarantine leaves it) is thawed back to Level 0.
        let s = storage();
        let mut db = open(s.clone());
        fill(&mut db, 300);
        drop(db);
        // Healthy stores have no refcount-0 frozen files, so thaw count
        // is zero here; the dedicated LDC harness covers the positive
        // case end to end.
        let report = repair_db(s, &Options::small_for_tests()).unwrap();
        assert_eq!(report.frozen_thawed, 0);
        let _ = CorruptionPolicy::Quarantine;
    }
}
