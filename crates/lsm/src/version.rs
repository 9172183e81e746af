//! Versions, version edits, and the manifest.
//!
//! A [`Version`] is the engine's view of which SSTables exist and where.
//! Beyond LevelDB's leveled layout, a version carries the two metadata
//! concepts the LDC mechanism introduces (paper §III):
//!
//! * the **frozen region** — SSTables removed from their level by a *link*
//!   operation; their live data is reachable only through slice links, and
//!   they are reclaimed when their reference count drops to zero, and
//! * **slice links** — per-lower-file records `(source frozen file, user-key
//!   range)` describing the portion of a frozen upper-level SSTable that
//!   will eventually merge into that lower file.
//!
//! Every mutation is expressed as a [`VersionEdit`], logged to the manifest
//! (same record format as the WAL) before being applied, so a reopened
//! database recovers the exact level/frozen/link state.

use std::collections::BTreeMap;
use std::sync::Arc;

use ldc_ssd::{IoClass, StorageBackend};

use crate::backup::Shipper;
use crate::encoding::{get_length_prefixed, get_varint64, put_length_prefixed, put_varint64};
use crate::error::{corruption, Error, Result};
use crate::types::{user_key, KeyRange, SequenceNumber};
use crate::wal::{LogReader, LogWriter};

/// A slice link: the LDC paper's `SliceLink` (Algorithm 1, lines 4-7).
///
/// Attached to a *lower-level* file; points at the frozen `source_file`
/// whose entries within `range` logically belong to (and are newer than)
/// the lower file's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceLink {
    /// Frozen upper-level file the slice reads from.
    pub source_file: u64,
    /// User-key range of the slice.
    pub range: KeyRange,
    /// Monotonic link counter; larger = linked later = newer data for any
    /// overlapping key.
    pub link_seq: u64,
    /// Estimated bytes the slice contributes (source size divided by the
    /// number of targets it was split across). The LDC merge trigger is
    /// really about accumulated *data* — "nearly the same amount of data as
    /// itself" (§III-A) — and the count threshold `T_s` is its proxy when
    /// slices are ~1/k of a file each.
    pub approx_bytes: u64,
}

/// Metadata for one live SSTable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// File number (names the `.sst` file).
    pub number: u64,
    /// File size in bytes.
    pub size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Slice links attached to this file, in link order (oldest first).
    pub slices: Vec<SliceLink>,
}

impl FileMeta {
    /// Smallest user key.
    pub fn smallest_ukey(&self) -> &[u8] {
        user_key(&self.smallest)
    }

    /// Largest user key.
    pub fn largest_ukey(&self) -> &[u8] {
        user_key(&self.largest)
    }

    /// Whether the file's user-key span overlaps `[lo, hi]` (closed).
    pub fn overlaps_ukeys(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.smallest_ukey() <= hi && self.largest_ukey() >= lo
    }

    /// Slices covering `ukey`, newest link first (read-path priority).
    pub fn slices_covering<'a>(&'a self, ukey: &'a [u8]) -> impl Iterator<Item = &'a SliceLink> {
        self.slices
            .iter()
            .rev()
            .filter(move |s| s.range.contains(ukey))
    }

    /// Number of attached slice links (the paper's merge trigger counter).
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Estimated bytes of linked upper-level data awaiting merge.
    pub fn slice_bytes(&self) -> u64 {
        self.slices.iter().map(|s| s.approx_bytes).sum()
    }
}

/// Metadata for a frozen SSTable (paper: "frozen region").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenMeta {
    /// File number.
    pub number: u64,
    /// File size in bytes.
    pub size: u64,
    /// Smallest internal key.
    pub smallest: Vec<u8>,
    /// Largest internal key.
    pub largest: Vec<u8>,
    /// Live slice links referencing this file (Algorithm 1's
    /// `s_u.reference`). Recomputed from links on recovery.
    pub refcount: u32,
}

/// The level/frozen/link state of the store at one instant.
#[derive(Debug, Clone, Default)]
pub struct Version {
    /// `levels[0]` may have overlapping files ordered by file number
    /// (newest last); deeper levels are sorted by smallest key and disjoint.
    pub levels: Vec<Vec<FileMeta>>,
    /// Frozen files by number.
    pub frozen: BTreeMap<u64, FrozenMeta>,
}

impl Version {
    /// Empty version with `max_levels` levels.
    pub fn new(max_levels: usize) -> Self {
        Self {
            levels: vec![Vec::new(); max_levels],
            frozen: BTreeMap::new(),
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total bytes of live files in `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels
            .get(level)
            .map(|files| files.iter().map(|f| f.size).sum())
            .unwrap_or(0)
    }

    /// Number of files in `level`.
    pub fn level_files(&self, level: usize) -> usize {
        self.levels.get(level).map(Vec::len).unwrap_or(0)
    }

    /// Total bytes held by frozen files (the LDC space overhead, Fig 15).
    pub fn frozen_bytes(&self) -> u64 {
        self.frozen.values().map(|f| f.size).sum()
    }

    /// Count of frozen files.
    pub fn frozen_files(&self) -> usize {
        self.frozen.len()
    }

    /// Finds a file by number, returning its level.
    pub fn find_file(&self, number: u64) -> Option<(usize, &FileMeta)> {
        for (level, files) in self.levels.iter().enumerate() {
            if let Some(f) = files.iter().find(|f| f.number == number) {
                return Some((level, f));
            }
        }
        None
    }

    /// Files in `level` overlapping the closed user-key span `[lo, hi]`.
    pub fn overlapping_files(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<&FileMeta> {
        self.levels
            .get(level)
            .into_iter()
            .flatten()
            .filter(|f| f.overlaps_ukeys(lo, hi))
            .collect()
    }

    /// Total number of live slice links across all files.
    pub fn total_slice_links(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|files| files.iter())
            .map(|f| f.slices.len())
            .sum()
    }

    /// Internal consistency checks, run by tests, by every `log_and_apply`
    /// in debug builds, and by every chaos reopen. Beyond LevelDB's layout
    /// — deeper levels sorted and disjoint — they state what the LDC read
    /// path relies on:
    ///
    /// * every link's source is frozen, and refcounts equal live links;
    /// * links on one file ascend strictly in `link_seq`
    ///   ([`FileMeta::slices_covering`] answers newest-first by reversing);
    /// * a link's range meets its source's key span (a link that cannot
    ///   serve a read still pins the source);
    /// * slices cut from one source onto different files of one level are
    ///   pairwise disjoint: the link split the source's span among them, so
    ///   a key is served through at most one of them;
    /// * a frozen file is counted once — filed under its own number and not
    ///   also live in a level — so [`Version::frozen_bytes`] plus the level
    ///   bytes are the table bytes the space metric reads off storage.
    pub fn check_invariants(&self) -> Result<()> {
        let bad = |what: String| Err(Error::InvalidState(what));
        for (level, files) in self.levels.iter().enumerate().skip(1) {
            for (a, b) in files.iter().zip(files.iter().skip(1)) {
                if a.largest_ukey() >= b.smallest_ukey() {
                    return bad(format!(
                        "level {level} files {} and {} overlap",
                        a.number, b.number
                    ));
                }
            }
        }
        let mut refs: BTreeMap<u64, u32> = BTreeMap::new();
        for (level, files) in self.levels.iter().enumerate() {
            // Per source: the slices it has on this level, with their file.
            let mut cuts: BTreeMap<u64, Vec<(&KeyRange, u64)>> = BTreeMap::new();
            for f in files {
                if self.frozen.contains_key(&f.number) {
                    return bad(format!("file {} is both live and frozen", f.number));
                }
                for (a, b) in f.slices.iter().zip(f.slices.iter().skip(1)) {
                    if a.link_seq >= b.link_seq {
                        return bad(format!(
                            "links on file {} out of order: link_seq {} before {}",
                            f.number, a.link_seq, b.link_seq
                        ));
                    }
                }
                for s in &f.slices {
                    *refs.entry(s.source_file).or_default() += 1;
                    let Some(source) = self.frozen.get(&s.source_file) else {
                        return bad(format!(
                            "slice on file {} references missing frozen file {}",
                            f.number, s.source_file
                        ));
                    };
                    let (lo, hi) = (user_key(&source.smallest), user_key(&source.largest));
                    if !s.range.overlaps(lo, hi) {
                        return bad(format!(
                            "slice on file {} lies outside its source {}",
                            f.number, s.source_file
                        ));
                    }
                    cuts.entry(s.source_file)
                        .or_default()
                        .push((&s.range, f.number));
                }
            }
            // `x` ends at or before `y` begins.
            let below = |x: &KeyRange, y: &KeyRange| x.hi.as_ref().is_some_and(|hi| *hi <= y.lo);
            for (source, cuts) in cuts {
                for (i, (a, on_a)) in cuts.iter().enumerate() {
                    for (b, on_b) in cuts.iter().skip(i + 1) {
                        if on_a != on_b && !below(a, b) && !below(b, a) {
                            return bad(format!(
                                "slices of frozen {source} on level {level} files {on_a} and {on_b} overlap"
                            ));
                        }
                    }
                }
            }
        }
        for (number, frozen) in &self.frozen {
            if frozen.number != *number {
                return bad(format!("frozen {} is filed under {number}", frozen.number));
            }
            let expected = refs.get(number).copied().unwrap_or(0);
            if frozen.refcount != expected {
                return bad(format!(
                    "frozen {number} refcount {} != live links {expected}",
                    frozen.refcount
                ));
            }
        }
        Ok(())
    }
}

/// A logged, atomic change to the version state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VersionEdit {
    /// New WAL number after a memtable rotation.
    pub log_number: Option<u64>,
    /// High-water file number.
    pub next_file_number: Option<u64>,
    /// High-water sequence number.
    pub last_sequence: Option<SequenceNumber>,
    /// Per-level round-robin compaction cursors (level, user key).
    pub compact_pointers: Vec<(u32, Vec<u8>)>,
    /// Files removed from a level: (level, number).
    pub deleted_files: Vec<(u32, u64)>,
    /// Files added to a level.
    pub new_files: Vec<(u32, FileMeta)>,
    /// Files moved from a level into the frozen region: (level, number).
    pub frozen_files: Vec<(u32, u64)>,
    /// New slice links: (target file number, link).
    pub new_links: Vec<(u64, SliceLink)>,
    /// Frozen files fully consumed and deleted.
    pub deleted_frozen: Vec<u64>,
    /// Replication stream position: how many backup-stream records this
    /// store has applied (follower-side bookkeeping; never set by the
    /// primary's own edits). Persisted so a restarted follower resumes
    /// the stream where it left off instead of re-applying history.
    pub replication_cursor: Option<u64>,
}

const TAG_LOG_NUMBER: u64 = 1;
const TAG_NEXT_FILE: u64 = 2;
const TAG_LAST_SEQ: u64 = 3;
const TAG_COMPACT_POINTER: u64 = 4;
const TAG_DELETED_FILE: u64 = 5;
const TAG_NEW_FILE: u64 = 6;
const TAG_FROZEN_FILE: u64 = 7;
const TAG_NEW_LINK: u64 = 8;
const TAG_DELETED_FROZEN: u64 = 9;
const TAG_REPLICATION_CURSOR: u64 = 10;

impl VersionEdit {
    /// Serializes to a manifest record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            put_varint64(&mut out, TAG_LOG_NUMBER);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            put_varint64(&mut out, TAG_NEXT_FILE);
            put_varint64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            put_varint64(&mut out, TAG_LAST_SEQ);
            put_varint64(&mut out, v);
        }
        for (level, key) in &self.compact_pointers {
            put_varint64(&mut out, TAG_COMPACT_POINTER);
            put_varint64(&mut out, u64::from(*level));
            put_length_prefixed(&mut out, key);
        }
        for (level, number) in &self.deleted_files {
            put_varint64(&mut out, TAG_DELETED_FILE);
            put_varint64(&mut out, u64::from(*level));
            put_varint64(&mut out, *number);
        }
        for (level, meta) in &self.new_files {
            put_varint64(&mut out, TAG_NEW_FILE);
            put_varint64(&mut out, u64::from(*level));
            put_varint64(&mut out, meta.number);
            put_varint64(&mut out, meta.size);
            put_length_prefixed(&mut out, &meta.smallest);
            put_length_prefixed(&mut out, &meta.largest);
        }
        for (level, number) in &self.frozen_files {
            put_varint64(&mut out, TAG_FROZEN_FILE);
            put_varint64(&mut out, u64::from(*level));
            put_varint64(&mut out, *number);
        }
        for (target, link) in &self.new_links {
            put_varint64(&mut out, TAG_NEW_LINK);
            put_varint64(&mut out, *target);
            put_varint64(&mut out, link.source_file);
            put_varint64(&mut out, link.link_seq);
            put_varint64(&mut out, link.approx_bytes);
            put_length_prefixed(&mut out, &link.range.lo);
            match &link.range.hi {
                Some(hi) => {
                    put_varint64(&mut out, 1);
                    put_length_prefixed(&mut out, hi);
                }
                None => put_varint64(&mut out, 0),
            }
        }
        for number in &self.deleted_frozen {
            put_varint64(&mut out, TAG_DELETED_FROZEN);
            put_varint64(&mut out, *number);
        }
        if let Some(v) = self.replication_cursor {
            put_varint64(&mut out, TAG_REPLICATION_CURSOR);
            put_varint64(&mut out, v);
        }
        out
    }

    /// Parses a manifest record payload.
    pub fn decode(mut data: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        fn varint(data: &mut &[u8]) -> Result<u64> {
            let (v, n) = get_varint64(data).ok_or_else(|| corruption("edit varint"))?;
            *data = data.get(n..).unwrap_or_default();
            Ok(v)
        }
        fn bytes(data: &mut &[u8]) -> Result<Vec<u8>> {
            let (s, n) = get_length_prefixed(data).ok_or_else(|| corruption("edit bytes"))?;
            let out = s.to_vec();
            *data = data.get(n..).unwrap_or_default();
            Ok(out)
        }
        while !data.is_empty() {
            let tag = varint(&mut data)?;
            match tag {
                TAG_LOG_NUMBER => edit.log_number = Some(varint(&mut data)?),
                TAG_NEXT_FILE => edit.next_file_number = Some(varint(&mut data)?),
                TAG_LAST_SEQ => edit.last_sequence = Some(varint(&mut data)?),
                TAG_COMPACT_POINTER => {
                    let level = varint(&mut data)? as u32;
                    let key = bytes(&mut data)?;
                    edit.compact_pointers.push((level, key));
                }
                TAG_DELETED_FILE => {
                    let level = varint(&mut data)? as u32;
                    let number = varint(&mut data)?;
                    edit.deleted_files.push((level, number));
                }
                TAG_NEW_FILE => {
                    let level = varint(&mut data)? as u32;
                    let number = varint(&mut data)?;
                    let size = varint(&mut data)?;
                    let smallest = bytes(&mut data)?;
                    let largest = bytes(&mut data)?;
                    edit.new_files.push((
                        level,
                        FileMeta {
                            number,
                            size,
                            smallest,
                            largest,
                            slices: Vec::new(),
                        },
                    ));
                }
                TAG_FROZEN_FILE => {
                    let level = varint(&mut data)? as u32;
                    let number = varint(&mut data)?;
                    edit.frozen_files.push((level, number));
                }
                TAG_NEW_LINK => {
                    let target = varint(&mut data)?;
                    let source_file = varint(&mut data)?;
                    let link_seq = varint(&mut data)?;
                    let approx_bytes = varint(&mut data)?;
                    let lo = bytes(&mut data)?;
                    let has_hi = varint(&mut data)?;
                    let hi = if has_hi == 1 {
                        Some(bytes(&mut data)?)
                    } else {
                        None
                    };
                    edit.new_links.push((
                        target,
                        SliceLink {
                            source_file,
                            range: KeyRange { lo, hi },
                            link_seq,
                            approx_bytes,
                        },
                    ));
                }
                TAG_DELETED_FROZEN => edit.deleted_frozen.push(varint(&mut data)?),
                TAG_REPLICATION_CURSOR => edit.replication_cursor = Some(varint(&mut data)?),
                t => return Err(corruption(format!("unknown edit tag {t}"))),
            }
        }
        Ok(edit)
    }
}

/// Owns the current [`Version`], the manifest log, and the counters that
/// survive restarts.
pub struct VersionSet {
    storage: Arc<dyn StorageBackend>,
    manifest: LogWriter,
    /// Live state, shared with in-flight read views. `log_and_apply`
    /// never mutates a published version in place: it clones, applies the
    /// edit, and swaps the `Arc`, so readers that pinned the old version
    /// keep an immutable, consistent file listing (LevelDB's version-set
    /// MVCC, minus the manual refcounting).
    pub current: Arc<Version>,
    /// Next file number to hand out.
    pub next_file_number: u64,
    /// Highest committed sequence number.
    pub last_sequence: SequenceNumber,
    /// WAL file number currently in use.
    pub log_number: u64,
    /// Per-level round-robin cursors (largest user key compacted so far).
    pub compact_pointers: Vec<Vec<u8>>,
    /// Monotonic counter stamping slice links.
    pub link_counter: u64,
    /// Approximate bytes appended to the current manifest; when this
    /// exceeds [`MANIFEST_ROLLOVER_BYTES`] the manifest is rolled into a
    /// fresh snapshot so recovery time stays bounded.
    manifest_bytes: u64,
    /// Torn-tail bytes discarded from the manifest during the last
    /// [`VersionSet::recover`] (zero for a fresh set or a clean manifest).
    pub recovered_manifest_tail_bytes: u64,
    /// Backup-stream records applied so far (follower-side; stays 0 on a
    /// primary). Persisted with every applied record and in snapshot
    /// manifests so a restarted follower resumes, not replays.
    pub replication_cursor: u64,
    /// When armed, every edit `log_and_apply` commits is also handed to
    /// this backup-stream writer (see [`Shipper`]).
    shipper: Option<Shipper>,
}

/// Manifest size that triggers a rollover to a fresh snapshot manifest.
pub const MANIFEST_ROLLOVER_BYTES: u64 = 1 << 20;

/// Name of the manifest pointer file.
pub const CURRENT_FILE: &str = "CURRENT";

/// Formats a table file name.
pub fn table_file_name(number: u64) -> String {
    format!("{number:06}.sst")
}

/// Formats a WAL file name.
pub fn log_file_name(number: u64) -> String {
    format!("{number:06}.log")
}

/// Formats a manifest file name.
pub fn manifest_file_name(number: u64) -> String {
    format!("MANIFEST-{number:06}")
}

impl VersionSet {
    /// Creates a brand-new version set (fresh database) with an initial
    /// manifest.
    pub fn create(storage: Arc<dyn StorageBackend>, max_levels: usize) -> Result<VersionSet> {
        let manifest_number = 1;
        let manifest_name = manifest_file_name(manifest_number);
        // A crash during a previous create (before CURRENT became durable)
        // can leave a torn manifest at this name; appending after its
        // garbage would wreck the log framing, so start from scratch.
        if storage.exists(&manifest_name) {
            storage.delete(&manifest_name)?;
        }
        let mut manifest = LogWriter::new(
            Arc::clone(&storage),
            manifest_name.clone(),
            IoClass::ManifestWrite,
        );
        // First record fixes the counters.
        let edit = VersionEdit {
            next_file_number: Some(2),
            last_sequence: Some(0),
            log_number: Some(0),
            ..Default::default()
        };
        manifest.add_record(&edit.encode())?;
        manifest.sync()?;
        storage.write_file(
            CURRENT_FILE,
            manifest_name.as_bytes(),
            IoClass::ManifestWrite,
        )?;
        Ok(VersionSet {
            storage,
            manifest,
            current: Arc::new(Version::new(max_levels)),
            next_file_number: 2,
            last_sequence: 0,
            log_number: 0,
            compact_pointers: vec![Vec::new(); max_levels],
            link_counter: 0,
            manifest_bytes: 0,
            recovered_manifest_tail_bytes: 0,
            replication_cursor: 0,
            shipper: None,
        })
    }

    /// Recovers the version set from an existing `CURRENT` + manifest.
    pub fn recover(storage: Arc<dyn StorageBackend>, max_levels: usize) -> Result<VersionSet> {
        let manifest_name =
            String::from_utf8(storage.read_all(CURRENT_FILE, IoClass::Other)?.to_vec())
                .map_err(|_| corruption("CURRENT is not utf-8"))?;
        let mut version = Version::new(max_levels);
        let mut next_file_number = 2;
        let mut last_sequence = 0;
        let mut log_number = 0;
        let mut compact_pointers = vec![Vec::new(); max_levels];
        let mut link_counter = 0;
        let mut replication_cursor = 0;
        let mut reader = LogReader::open(storage.as_ref(), &manifest_name)?;
        reader.for_each(|record| {
            let edit = VersionEdit::decode(record)?;
            if let Some(v) = edit.next_file_number {
                next_file_number = v;
            }
            if let Some(v) = edit.last_sequence {
                last_sequence = v;
            }
            if let Some(v) = edit.log_number {
                log_number = v;
            }
            for (level, key) in &edit.compact_pointers {
                if let Some(slot) = compact_pointers.get_mut(*level as usize) {
                    *slot = key.clone();
                }
            }
            for (_, link) in &edit.new_links {
                link_counter = link_counter.max(link.link_seq + 1);
            }
            if let Some(v) = edit.replication_cursor {
                replication_cursor = v;
            }
            apply_edit(&mut version, &edit)
        })?;
        // A crash mid-`log_and_apply` leaves a torn final edit; the reader
        // stops at the clean prefix, which is exactly the last committed
        // version. Report the discarded bytes for the recovery summary.
        let manifest_tail_bytes = reader.truncated_tail_bytes();
        recompute_refcounts(&mut version);
        version.check_invariants()?;
        let manifest = LogWriter::new(Arc::clone(&storage), manifest_name, IoClass::ManifestWrite);
        // Re-appending to the recovered manifest would corrupt record
        // framing mid-block, so start a fresh manifest with a snapshot.
        let mut vs = VersionSet {
            storage,
            manifest,
            current: Arc::new(version),
            next_file_number,
            last_sequence,
            log_number,
            compact_pointers,
            link_counter,
            manifest_bytes: 0,
            recovered_manifest_tail_bytes: manifest_tail_bytes,
            replication_cursor,
            shipper: None,
        };
        vs.write_snapshot_manifest()?;
        Ok(vs)
    }

    /// Whether a database already exists in `storage`.
    pub fn exists(storage: &dyn StorageBackend) -> bool {
        storage.exists(CURRENT_FILE)
    }

    /// Builds a fresh version set around an externally reconstructed
    /// `version` — the final step of `repair_db`. Recomputes frozen
    /// refcounts, checks invariants, then writes a brand-new snapshot
    /// manifest and points `CURRENT` at it; nothing from any previous
    /// manifest is reused.
    pub fn rebuild(
        storage: Arc<dyn StorageBackend>,
        mut version: Version,
        last_sequence: SequenceNumber,
        next_file_number: u64,
    ) -> Result<VersionSet> {
        recompute_refcounts(&mut version);
        version.check_invariants()?;
        let link_counter = version
            .levels
            .iter()
            .flat_map(|files| files.iter())
            .flat_map(|f| f.slices.iter())
            .map(|s| s.link_seq + 1)
            .max()
            .unwrap_or(0);
        let max_levels = version.num_levels();
        // Placeholder writer (never appended to): `write_snapshot_manifest`
        // installs the real manifest before returning.
        let manifest = LogWriter::new(
            Arc::clone(&storage),
            manifest_file_name(0),
            IoClass::ManifestWrite,
        );
        let mut vs = VersionSet {
            storage,
            manifest,
            current: Arc::new(version),
            next_file_number: next_file_number.max(2),
            last_sequence,
            log_number: 0,
            compact_pointers: vec![Vec::new(); max_levels],
            link_counter,
            manifest_bytes: 0,
            recovered_manifest_tail_bytes: 0,
            replication_cursor: 0,
            shipper: None,
        };
        vs.write_snapshot_manifest()?;
        Ok(vs)
    }

    /// Allocates a fresh file number.
    pub fn new_file_number(&mut self) -> u64 {
        let n = self.next_file_number;
        self.next_file_number += 1;
        n
    }

    /// Allocates a fresh link sequence.
    pub fn new_link_seq(&mut self) -> u64 {
        let n = self.link_counter;
        self.link_counter += 1;
        n
    }

    /// Logs `edit` to the manifest, then applies it to the current version.
    pub fn log_and_apply(&mut self, mut edit: VersionEdit) -> Result<()> {
        edit.next_file_number = Some(self.next_file_number);
        edit.last_sequence = Some(self.last_sequence);
        for (level, key) in &edit.compact_pointers {
            if let Some(slot) = self.compact_pointers.get_mut(*level as usize) {
                *slot = key.clone();
            }
        }
        if let Some(v) = edit.log_number {
            self.log_number = v;
        }
        self.commit(&edit, true)
    }

    /// Applies an edit received from a primary's backup stream: adopts the
    /// primary's counters instead of stamping our own, logs the record to
    /// our manifest (with the advanced replication cursor, so a restart
    /// resumes the stream instead of replaying it), and publishes the new
    /// version. The caller has already materialized any SSTables the edit
    /// references.
    pub fn apply_remote_edit(&mut self, edit: &VersionEdit) -> Result<()> {
        // Counters travel inside the shipped edit (`log_and_apply` stamps
        // them on the primary). Adopt by max: the follower allocates its
        // own numbers for its WAL and manifest rollovers, which may run
        // ahead of the primary's high-water mark.
        if let Some(v) = edit.next_file_number {
            self.next_file_number = self.next_file_number.max(v);
        }
        if let Some(v) = edit.last_sequence {
            self.last_sequence = self.last_sequence.max(v);
        }
        if let Some(v) = edit.log_number {
            self.log_number = self.log_number.max(v);
        }
        for (level, key) in &edit.compact_pointers {
            if let Some(slot) = self.compact_pointers.get_mut(*level as usize) {
                *slot = key.clone();
            }
        }
        for (_, link) in &edit.new_links {
            self.link_counter = self.link_counter.max(link.link_seq + 1);
        }
        self.replication_cursor += 1;
        let mut record_edit = edit.clone();
        record_edit.replication_cursor = Some(self.replication_cursor);
        // An edit that arrived over a stream is not shipped onward.
        self.commit(&record_edit, false)
    }

    /// The tail both entry points share, once the counters are settled:
    /// append `edit` to the manifest and sync it, publish the version it
    /// produces, tell the armed backup stream (`ship`), and roll the
    /// manifest over once it has grown past [`MANIFEST_ROLLOVER_BYTES`].
    fn commit(&mut self, edit: &VersionEdit, ship: bool) -> Result<()> {
        let record = edit.encode();
        self.manifest.add_record(&record)?;
        self.manifest.sync()?;
        self.manifest_bytes += record.len() as u64;
        // Copy-on-write publish: readers holding the old `Arc<Version>`
        // keep a stable view while the new version becomes current.
        let mut next = Version::clone(&self.current);
        apply_edit(&mut next, edit)?;
        recompute_refcounts(&mut next);
        debug_assert!(next.check_invariants().is_ok());
        self.current = Arc::new(next);
        // Ship after the local manifest sync + publish: the edit is already
        // committed locally, so the backup stream never runs ahead of the
        // primary. A ship failure propagates (the caller latches bg_error)
        // because silently diverging from the stream would hand a follower
        // an undetectably stale history.
        if let (true, Some(shipper)) = (ship, &mut self.shipper) {
            shipper.ship(edit)?;
        }
        if self.manifest_bytes > MANIFEST_ROLLOVER_BYTES {
            let old = self.manifest.name().to_string();
            self.write_snapshot_manifest()?;
            if self.storage.exists(&old) {
                self.storage.delete(&old)?;
            }
        }
        Ok(())
    }

    /// Arms incremental shipping: every subsequent `log_and_apply` also
    /// appends its edit to `shipper`'s stream. Call with the version-set
    /// lock held so no edit slips between the base checkpoint and record 1.
    pub fn arm_shipper(&mut self, shipper: Shipper) {
        self.shipper = Some(shipper);
    }

    /// Disarms incremental shipping, returning the shipper's final stats.
    pub fn disarm_shipper(&mut self) -> Option<Shipper> {
        self.shipper.take()
    }

    /// Whether a backup stream is currently armed.
    pub fn shipping(&self) -> bool {
        self.shipper.is_some()
    }

    /// Stream stats of the armed shipper: (edits, files, bytes shipped).
    pub fn shipper_stats(&self) -> Option<(u64, u64, u64)> {
        self.shipper
            .as_ref()
            .map(|s| (s.edits_shipped, s.files_shipped, s.bytes_shipped))
    }

    /// Rolls the manifest: writes a new manifest containing one snapshot
    /// edit of the entire current state, then points `CURRENT` at it.
    fn write_snapshot_manifest(&mut self) -> Result<()> {
        let manifest_number = self.new_file_number();
        let name = manifest_file_name(manifest_number);
        // A crashed incarnation may have left a torn, unreferenced manifest
        // at a number this incarnation re-allocates (the edit consuming the
        // number never became durable). Appending after its garbage would
        // wreck the log framing, so start from scratch.
        if self.storage.exists(&name) {
            self.storage.delete(&name)?;
        }
        let mut writer = LogWriter::new(
            Arc::clone(&self.storage),
            name.clone(),
            IoClass::ManifestWrite,
        );
        let edit = snapshot_edit(
            &self.current,
            self.next_file_number,
            self.last_sequence,
            self.log_number,
            &self.compact_pointers,
            self.replication_cursor,
        );
        writer.add_record(&edit.encode())?;
        writer.sync()?;
        self.storage
            .write_file(CURRENT_FILE, name.as_bytes(), IoClass::ManifestWrite)?;
        self.manifest = writer;
        self.manifest_bytes = 0;
        Ok(())
    }
}

/// Builds the single [`VersionEdit`] that reproduces `version` and the
/// given counters from an empty state — the payload of every snapshot
/// manifest, and of a checkpoint's synthesized manifest.
pub fn snapshot_edit(
    version: &Version,
    next_file_number: u64,
    last_sequence: SequenceNumber,
    log_number: u64,
    compact_pointers: &[Vec<u8>],
    replication_cursor: u64,
) -> VersionEdit {
    let mut edit = VersionEdit {
        next_file_number: Some(next_file_number),
        last_sequence: Some(last_sequence),
        log_number: Some(log_number),
        replication_cursor: (replication_cursor > 0).then_some(replication_cursor),
        ..Default::default()
    };
    for (level, key) in compact_pointers.iter().enumerate() {
        if !key.is_empty() {
            edit.compact_pointers.push((level as u32, key.clone()));
        }
    }
    for (level, files) in version.levels.iter().enumerate() {
        for f in files {
            let mut meta = f.clone();
            let slices = std::mem::take(&mut meta.slices);
            edit.new_files.push((level as u32, meta));
            for link in slices {
                edit.new_links.push((f.number, link));
            }
        }
    }
    // Frozen files are re-created as snapshot adds to a pseudo level,
    // then frozen; simplest encoding: add to their original level 0 and
    // freeze immediately (level choice is irrelevant once frozen).
    for frozen in version.frozen.values() {
        edit.new_files.push((
            0,
            FileMeta {
                number: frozen.number,
                size: frozen.size,
                smallest: frozen.smallest.clone(),
                largest: frozen.largest.clone(),
                slices: Vec::new(),
            },
        ));
        edit.frozen_files.push((0, frozen.number));
    }
    // Keep link/new_file ordering valid: links must come after both the
    // freeze of their source and the add of their target, which holds
    // because apply_edit processes adds, then freezes, then links.
    edit
}

/// Applies one edit to `version`. Processing order: deletes, adds, freezes,
/// links, frozen deletes.
fn apply_edit(version: &mut Version, edit: &VersionEdit) -> Result<()> {
    for (level, number) in &edit.deleted_files {
        let files = version
            .levels
            .get_mut(*level as usize)
            .ok_or_else(|| corruption("delete: bad level"))?;
        let before = files.len();
        files.retain(|f| f.number != *number);
        if files.len() == before {
            return Err(Error::InvalidState(format!(
                "delete of absent file {number} at level {level}"
            )));
        }
    }
    for (level, meta) in &edit.new_files {
        let files = version
            .levels
            .get_mut(*level as usize)
            .ok_or_else(|| corruption("add: bad level"))?;
        files.push(meta.clone());
        if *level == 0 {
            files.sort_by_key(|f| f.number);
        } else {
            files.sort_by(|a, b| a.smallest.cmp(&b.smallest));
        }
    }
    for (level, number) in &edit.frozen_files {
        let files = version
            .levels
            .get_mut(*level as usize)
            .ok_or_else(|| corruption("freeze: bad level"))?;
        let idx = files
            .iter()
            .position(|f| f.number == *number)
            .ok_or_else(|| Error::InvalidState(format!("freeze of absent file {number}")))?;
        let meta = files.remove(idx);
        if !meta.slices.is_empty() {
            return Err(Error::InvalidState(format!(
                "freezing file {number} that still has slice links"
            )));
        }
        version.frozen.insert(
            meta.number,
            FrozenMeta {
                number: meta.number,
                size: meta.size,
                smallest: meta.smallest,
                largest: meta.largest,
                refcount: 0,
            },
        );
    }
    for (target, link) in &edit.new_links {
        let mut found = false;
        for files in version.levels.iter_mut() {
            if let Some(f) = files.iter_mut().find(|f| f.number == *target) {
                f.slices.push(link.clone());
                found = true;
                break;
            }
        }
        if !found {
            return Err(Error::InvalidState(format!(
                "link targets absent file {target}"
            )));
        }
        if !version.frozen.contains_key(&link.source_file) {
            return Err(Error::InvalidState(format!(
                "link source {} is not frozen",
                link.source_file
            )));
        }
    }
    for number in &edit.deleted_frozen {
        if version.frozen.remove(number).is_none() {
            return Err(Error::InvalidState(format!(
                "delete of absent frozen file {number}"
            )));
        }
    }
    Ok(())
}

/// Recomputes frozen-file refcounts from live slice links.
fn recompute_refcounts(version: &mut Version) {
    for frozen in version.frozen.values_mut() {
        frozen.refcount = 0;
    }
    let mut counts: BTreeMap<u64, u32> = BTreeMap::new();
    for files in &version.levels {
        for f in files {
            for s in &f.slices {
                *counts.entry(s.source_file).or_default() += 1;
            }
        }
    }
    for (number, count) in counts {
        if let Some(frozen) = version.frozen.get_mut(&number) {
            frozen.refcount = count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{encode_internal_key, ValueType};
    use ldc_ssd::{MemStorage, SsdConfig, SsdDevice};

    fn ik(key: &[u8]) -> Vec<u8> {
        encode_internal_key(key, 1, ValueType::Value)
    }

    fn meta(number: u64, lo: &[u8], hi: &[u8]) -> FileMeta {
        FileMeta {
            number,
            size: 1000,
            smallest: ik(lo),
            largest: ik(hi),
            slices: Vec::new(),
        }
    }

    fn storage() -> Arc<MemStorage> {
        MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()))
    }

    #[test]
    fn edit_encoding_roundtrip() {
        let mut edit = VersionEdit {
            log_number: Some(12),
            next_file_number: Some(99),
            last_sequence: Some(123456),
            ..Default::default()
        };
        edit.compact_pointers.push((2, b"cursor".to_vec()));
        edit.deleted_files.push((1, 7));
        edit.new_files.push((2, meta(8, b"a", b"m")));
        edit.frozen_files.push((1, 9));
        edit.new_links.push((
            8,
            SliceLink {
                source_file: 9,
                range: KeyRange::new(&b"a"[..], &b"f"[..]),
                link_seq: 3,
                approx_bytes: 100,
            },
        ));
        edit.new_links.push((
            8,
            SliceLink {
                source_file: 9,
                range: KeyRange::from(&b"f"[..]),
                link_seq: 4,
                approx_bytes: 100,
            },
        ));
        edit.deleted_frozen.push(5);
        edit.replication_cursor = Some(17);
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded, edit);
    }

    #[test]
    fn replication_cursor_survives_recovery() {
        let s = storage();
        {
            let mut primary = VersionSet::create(storage(), 4).unwrap();
            let mut follower = VersionSet::create(s.clone(), 4).unwrap();
            let f1 = primary.new_file_number();
            // Primary logs an edit; the follower materializes the file and
            // applies the same edit remotely.
            let edit = VersionEdit {
                new_files: vec![(1, meta(f1, b"a", b"c"))],
                ..Default::default()
            };
            primary.log_and_apply(edit.clone()).unwrap();
            let mut shipped = edit;
            shipped.next_file_number = Some(primary.next_file_number);
            shipped.last_sequence = Some(primary.last_sequence);
            follower.apply_remote_edit(&shipped).unwrap();
            assert_eq!(follower.replication_cursor, 1);
            assert_eq!(follower.current.level_files(1), 1);
            assert!(follower.next_file_number >= primary.next_file_number);
        }
        let follower = VersionSet::recover(s, 4).unwrap();
        assert_eq!(follower.replication_cursor, 1);
        assert_eq!(follower.current.level_files(1), 1);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(VersionEdit::decode(&[200]).is_err());
        let edit = VersionEdit {
            log_number: Some(12),
            ..Default::default()
        };
        let mut bytes = edit.encode();
        bytes.push(42); // unknown tag
        assert!(VersionEdit::decode(&bytes).is_err());
    }

    #[test]
    fn apply_add_delete() {
        let mut v = Version::new(3);
        let edit = VersionEdit {
            new_files: vec![(1, meta(5, b"a", b"c")), (1, meta(6, b"d", b"f"))],
            ..Default::default()
        };
        apply_edit(&mut v, &edit).unwrap();
        assert_eq!(v.level_files(1), 2);
        assert_eq!(v.level_bytes(1), 2000);
        v.check_invariants().unwrap();

        let edit = VersionEdit {
            deleted_files: vec![(1, 5)],
            ..Default::default()
        };
        apply_edit(&mut v, &edit).unwrap();
        assert_eq!(v.level_files(1), 1);
        assert!(v.find_file(6).is_some());
        assert!(v.find_file(5).is_none());

        // Deleting again is an error.
        let edit = VersionEdit {
            deleted_files: vec![(1, 5)],
            ..Default::default()
        };
        assert!(apply_edit(&mut v, &edit).is_err());
    }

    #[test]
    fn levels_stay_sorted_by_smallest() {
        let mut v = Version::new(3);
        let edit = VersionEdit {
            new_files: vec![(1, meta(5, b"m", b"p")), (1, meta(6, b"a", b"c"))],
            ..Default::default()
        };
        apply_edit(&mut v, &edit).unwrap();
        assert_eq!(v.levels[1][0].number, 6);
        assert_eq!(v.levels[1][1].number, 5);
        v.check_invariants().unwrap();
    }

    #[test]
    fn freeze_and_link_lifecycle() {
        let mut v = Version::new(3);
        apply_edit(
            &mut v,
            &VersionEdit {
                new_files: vec![
                    (1, meta(10, b"a", b"z")),
                    (2, meta(20, b"a", b"h")),
                    (2, meta(21, b"i", b"z")),
                ],
                ..Default::default()
            },
        )
        .unwrap();
        // Freeze file 10 and link its two slices to 20 and 21.
        apply_edit(
            &mut v,
            &VersionEdit {
                frozen_files: vec![(1, 10)],
                new_links: vec![
                    (
                        20,
                        SliceLink {
                            source_file: 10,
                            range: KeyRange::new(&b""[..], &b"i"[..]),
                            link_seq: 0,
                            approx_bytes: 100,
                        },
                    ),
                    (
                        21,
                        SliceLink {
                            source_file: 10,
                            range: KeyRange::from(&b"i"[..]),
                            link_seq: 1,
                            approx_bytes: 100,
                        },
                    ),
                ],
                ..Default::default()
            },
        )
        .unwrap();
        recompute_refcounts(&mut v);
        v.check_invariants().unwrap();
        assert_eq!(v.level_files(1), 0);
        assert_eq!(v.frozen_files(), 1);
        assert_eq!(v.frozen[&10].refcount, 2);
        assert_eq!(v.total_slice_links(), 2);
        assert_eq!(v.frozen_bytes(), 1000);

        // Merge 20: delete it, add replacement, drop its link; frozen 10
        // still referenced by 21's link.
        apply_edit(
            &mut v,
            &VersionEdit {
                deleted_files: vec![(2, 20)],
                new_files: vec![(2, meta(30, b"a", b"h"))],
                ..Default::default()
            },
        )
        .unwrap();
        recompute_refcounts(&mut v);
        v.check_invariants().unwrap();
        assert_eq!(v.frozen[&10].refcount, 1);

        // Merge 21 and delete the now-unreferenced frozen file.
        apply_edit(
            &mut v,
            &VersionEdit {
                deleted_files: vec![(2, 21)],
                new_files: vec![(2, meta(31, b"i", b"z"))],
                deleted_frozen: vec![10],
                ..Default::default()
            },
        )
        .unwrap();
        recompute_refcounts(&mut v);
        v.check_invariants().unwrap();
        assert_eq!(v.frozen_files(), 0);
    }

    #[test]
    fn freeze_with_slices_is_rejected() {
        let mut v = Version::new(3);
        apply_edit(
            &mut v,
            &VersionEdit {
                new_files: vec![(1, meta(10, b"a", b"z")), (2, meta(20, b"a", b"z"))],
                frozen_files: vec![(1, 10)],
                new_links: vec![(
                    20,
                    SliceLink {
                        source_file: 10,
                        range: KeyRange::all(),
                        link_seq: 0,
                        approx_bytes: 100,
                    },
                )],
                ..Default::default()
            },
        )
        .unwrap();
        // Level-2 file 20 now has a slice; freezing it must fail.
        let err = apply_edit(
            &mut v,
            &VersionEdit {
                frozen_files: vec![(2, 20)],
                ..Default::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn overlap_queries() {
        let mut v = Version::new(3);
        apply_edit(
            &mut v,
            &VersionEdit {
                new_files: vec![
                    (1, meta(1, b"a", b"c")),
                    (1, meta(2, b"e", b"g")),
                    (1, meta(3, b"i", b"k")),
                ],
                ..Default::default()
            },
        )
        .unwrap();
        let hits = v.overlapping_files(1, b"f", b"j");
        assert_eq!(
            hits.iter().map(|f| f.number).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(v.overlapping_files(1, b"x", b"z").is_empty());
        // Boundary touch counts as overlap.
        assert_eq!(v.overlapping_files(1, b"c", b"c").len(), 1);
    }

    #[test]
    fn slices_covering_returns_newest_first() {
        let mut f = meta(1, b"a", b"z");
        f.slices.push(SliceLink {
            source_file: 100,
            range: KeyRange::new(&b"a"[..], &b"m"[..]),
            link_seq: 0,
            approx_bytes: 100,
        });
        f.slices.push(SliceLink {
            source_file: 101,
            range: KeyRange::new(&b"a"[..], &b"z"[..]),
            link_seq: 1,
            approx_bytes: 100,
        });
        let hits: Vec<u64> = f.slices_covering(b"b").map(|s| s.source_file).collect();
        assert_eq!(hits, vec![101, 100]);
        let hits: Vec<u64> = f.slices_covering(b"n").map(|s| s.source_file).collect();
        assert_eq!(hits, vec![101]);
    }

    #[test]
    fn version_set_create_and_log() {
        let s = storage();
        let mut vs = VersionSet::create(s.clone(), 4).unwrap();
        assert!(VersionSet::exists(s.as_ref()));
        let n1 = vs.new_file_number();
        let edit = VersionEdit {
            new_files: vec![(1, meta(n1, b"a", b"c"))],
            ..Default::default()
        };
        vs.log_and_apply(edit).unwrap();
        assert_eq!(vs.current.level_files(1), 1);
    }

    #[test]
    fn recovery_restores_full_state() {
        let s = storage();
        {
            let mut vs = VersionSet::create(s.clone(), 4).unwrap();
            let f1 = vs.new_file_number();
            let f2 = vs.new_file_number();
            let f3 = vs.new_file_number();
            vs.last_sequence = 555;
            vs.log_and_apply(VersionEdit {
                new_files: vec![
                    (1, meta(f1, b"a", b"m")),
                    (2, meta(f2, b"a", b"h")),
                    (2, meta(f3, b"i", b"z")),
                ],
                compact_pointers: vec![(1, b"m".to_vec())],
                ..Default::default()
            })
            .unwrap();
            let link_seq = vs.new_link_seq();
            vs.log_and_apply(VersionEdit {
                frozen_files: vec![(1, f1)],
                new_links: vec![(
                    f2,
                    SliceLink {
                        source_file: f1,
                        range: KeyRange::new(&b"a"[..], &b"i"[..]),
                        link_seq,
                        approx_bytes: 100,
                    },
                )],
                ..Default::default()
            })
            .unwrap();
        }
        let vs = VersionSet::recover(s.clone(), 4).unwrap();
        assert_eq!(vs.last_sequence, 555);
        assert_eq!(vs.current.level_files(1), 0);
        assert_eq!(vs.current.level_files(2), 2);
        assert_eq!(vs.current.frozen_files(), 1);
        assert_eq!(vs.current.total_slice_links(), 1);
        assert_eq!(vs.compact_pointers[1], b"m".to_vec());
        assert!(vs.link_counter >= 1);
        vs.current.check_invariants().unwrap();
        // The recovered frozen file's refcount was recomputed.
        let frozen = vs.current.frozen.values().next().unwrap();
        assert_eq!(frozen.refcount, 1);
    }

    #[test]
    fn recovery_after_recovery_is_stable() {
        let s = storage();
        {
            let mut vs = VersionSet::create(s.clone(), 4).unwrap();
            let f1 = vs.new_file_number();
            vs.log_and_apply(VersionEdit {
                new_files: vec![(1, meta(f1, b"a", b"c"))],
                ..Default::default()
            })
            .unwrap();
        }
        {
            let vs = VersionSet::recover(s.clone(), 4).unwrap();
            assert_eq!(vs.current.level_files(1), 1);
        }
        let vs = VersionSet::recover(s, 4).unwrap();
        assert_eq!(vs.current.level_files(1), 1);
    }

    #[test]
    fn invariant_checker_catches_overlap() {
        let mut v = Version::new(3);
        v.levels[1].push(meta(1, b"a", b"m"));
        v.levels[1].push(meta(2, b"l", b"z")); // overlaps
        assert!(v.check_invariants().is_err());
    }

    fn link(source_file: u64, range: KeyRange, link_seq: u64) -> SliceLink {
        SliceLink {
            source_file,
            range,
            link_seq,
            approx_bytes: 100,
        }
    }

    /// A valid linked state to mutate: sources 10 and 11 (both `a..z`)
    /// frozen out of level 1, each split at `i` across level-2 files 20
    /// (`a..h`) and 21 (`i..z`). Slices of *different* sources cover the
    /// same keys on one file; that is what `link_seq` orders.
    fn linked_version() -> Version {
        let mut v = Version::new(3);
        let edit = VersionEdit {
            new_files: vec![
                (1, meta(10, b"a", b"z")),
                (1, meta(11, b"a", b"z")),
                (2, meta(20, b"a", b"h")),
                (2, meta(21, b"i", b"z")),
            ],
            frozen_files: vec![(1, 10), (1, 11)],
            new_links: vec![
                (20, link(10, KeyRange::new(&b""[..], &b"i"[..]), 0)),
                (21, link(10, KeyRange::from(&b"i"[..]), 1)),
                (20, link(11, KeyRange::new(&b""[..], &b"i"[..]), 2)),
                (21, link(11, KeyRange::from(&b"i"[..]), 3)),
            ],
            ..Default::default()
        };
        apply_edit(&mut v, &edit).unwrap();
        recompute_refcounts(&mut v);
        v.check_invariants().unwrap();
        v
    }

    fn assert_violates(v: &Version, what: &str) {
        let violation = v.check_invariants().unwrap_err().to_string();
        assert!(violation.contains(what), "{violation}");
    }

    #[test]
    fn invariant_checker_catches_links_out_of_order() {
        let mut v = linked_version();
        // Newest-first reads reverse the list, so the list must ascend.
        v.levels[2][0].slices.swap(0, 1);
        assert_violates(&v, "out of order");
        // A repeated link_seq is not an order either.
        let mut v = linked_version();
        v.levels[2][0].slices[1].link_seq = 0;
        assert_violates(&v, "out of order");
    }

    #[test]
    fn invariant_checker_catches_slice_outside_its_source() {
        let mut v = linked_version();
        v.levels[2][1].slices[0].range = KeyRange::from(&b"zz"[..]);
        assert_violates(&v, "lies outside its source 10");
    }

    #[test]
    fn invariant_checker_catches_one_source_overlapping_across_files() {
        let mut v = linked_version();
        // File 21's slice of source 10 now also claims `a..i`, which file
        // 20's slice of the same source already serves.
        v.levels[2][1].slices[0].range = KeyRange::all();
        assert_violates(&v, "slices of frozen 10 on level 2 files 20 and 21 overlap");
    }

    #[test]
    fn invariant_checker_catches_frozen_bytes_counted_twice() {
        // Filed under a second number, `frozen_bytes` counts file 10 twice.
        let mut v = linked_version();
        let mut copy = v.frozen[&10].clone();
        copy.refcount = 0;
        v.frozen.insert(12, copy);
        assert_eq!(v.frozen_bytes(), 3000);
        assert_violates(&v, "frozen 10 is filed under 12");
        // Live and frozen at once, level bytes + frozen bytes count it twice.
        let mut v = linked_version();
        v.levels[1].push(meta(11, b"a", b"z"));
        assert_violates(&v, "file 11 is both live and frozen");
    }
}
