//! [`VersionEdit`]: the logged change, its record encoding, and how it applies.

use super::meta::{FileMeta, FrozenMeta, SliceLink, Version};
use crate::encoding::{get_length_prefixed, get_varint64, put_length_prefixed, put_varint64};
use crate::error::{corruption, Error, Result};
use crate::types::{KeyRange, SequenceNumber};

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
                    edit.new_files
                        .push((level, FileMeta::new(number, size, smallest, largest)));
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

/// The counters a store carries beside its [`Version`] and that survive
/// restarts. Every edit in a manifest or a backup stream may move them;
/// [`Counters::absorb`] is the one place they are read out of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Counters {
    /// Next file number to hand out.
    pub(crate) next_file_number: u64,
    /// Highest committed sequence number.
    pub(crate) last_sequence: SequenceNumber,
    /// WAL file number currently in use.
    pub(crate) log_number: u64,
    /// Per-level round-robin cursors (largest user key compacted so far).
    pub(crate) compact_pointers: Vec<Vec<u8>>,
    /// Monotonic counter stamping slice links.
    pub(crate) link_counter: u64,
    /// Backup-stream records applied so far (follower-side; stays 0 on a
    /// primary). Persisted with every applied record and in snapshot
    /// manifests so a restarted follower resumes, not replays.
    pub(crate) replication_cursor: u64,
}

/// Whose numbers an absorbed edit carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Adopt {
    /// This store's: its own manifest replayed, or an edit it has just
    /// stamped. The edit's values replace ours.
    Own,
    /// A primary's, off its backup stream. The follower allocates its own
    /// numbers for its WAL and manifest rollovers, which may run ahead of
    /// the primary's high-water marks, so the larger value wins.
    Max,
}

impl Counters {
    /// A store that has written nothing: file number 1 is its first
    /// manifest, so 2 is the first number to hand out.
    pub(crate) fn new(levels: usize) -> Self {
        Self {
            next_file_number: 2,
            last_sequence: 0,
            log_number: 0,
            compact_pointers: vec![Vec::new(); levels],
            link_counter: 0,
            replication_cursor: 0,
        }
    }

    /// Takes what `edit` says about the counters into `self`. Compaction
    /// cursors always follow the edit, and the link counter only ever
    /// moves past the links it has seen; `adopt` settles the rest.
    pub(crate) fn absorb(&mut self, edit: &VersionEdit, adopt: Adopt) {
        let take = |mine: &mut u64, theirs: Option<u64>| {
            if let Some(v) = theirs {
                *mine = match adopt {
                    Adopt::Own => v,
                    Adopt::Max => (*mine).max(v),
                };
            }
        };
        take(&mut self.next_file_number, edit.next_file_number);
        take(&mut self.last_sequence, edit.last_sequence);
        take(&mut self.log_number, edit.log_number);
        take(&mut self.replication_cursor, edit.replication_cursor);
        for (level, key) in &edit.compact_pointers {
            if let Some(slot) = self.compact_pointers.get_mut(*level as usize) {
                *slot = key.clone();
            }
        }
        for (_, link) in &edit.new_links {
            self.link_counter = self.link_counter.max(link.link_seq + 1);
        }
    }
}

/// Builds the single [`VersionEdit`] that reproduces `version` and
/// `counters` from an empty state — the payload of every snapshot
/// manifest, and of a checkpoint's synthesized manifest. The link counter
/// is not written: [`Counters::absorb`] finds it again in the links.
pub(crate) fn snapshot_edit(version: &Version, counters: &Counters) -> VersionEdit {
    let cursor = counters.replication_cursor;
    let mut edit = VersionEdit {
        next_file_number: Some(counters.next_file_number),
        last_sequence: Some(counters.last_sequence),
        log_number: Some(counters.log_number),
        replication_cursor: (cursor > 0).then_some(cursor),
        ..Default::default()
    };
    for (level, key) in counters.compact_pointers.iter().enumerate() {
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
        edit.new_files.push((0, frozen.clone().into()));
        edit.frozen_files.push((0, frozen.number));
    }
    // Keep link/new_file ordering valid: links must come after both the
    // freeze of their source and the add of their target, which holds
    // because apply_edit processes adds, then freezes, then links.
    edit
}

/// Applies one edit to `version`. Processing order: deletes, adds, freezes,
/// links, frozen deletes.
pub(crate) fn apply_edit(version: &mut Version, edit: &VersionEdit) -> Result<()> {
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

#[cfg(test)]
mod tests {
    use super::super::meta::recompute_refcounts;
    use super::super::tests::meta;
    use super::*;
    use proptest::prelude::*;

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

    /// A file over the slots `lo..=hi`, a slot being a two-byte user key.
    fn slot_file(number: u64, lo: u16, hi: u16) -> FileMeta {
        meta(number, &lo.to_be_bytes(), &hi.to_be_bytes())
    }

    /// One step of a random but valid history: the edit that `kind` asks
    /// for against `v`, or `None` when `v` has nothing it applies to.
    /// `a` and `b` pick the level, the file and the key span.
    fn random_edit(v: &Version, c: &mut Counters, kind: u8, a: u16, b: u16) -> Option<VersionEdit> {
        let mut edit = VersionEdit::default();
        let level = usize::from(a) % v.num_levels();
        let pick = |n: usize| usize::from(b) % n;
        match kind {
            // Add a table; below level 0 only where it overlaps nothing.
            0 | 1 => {
                let lo = a / 8;
                let file = slot_file(c.next_file_number, lo, lo + b % 512);
                let (lo, hi) = (file.smallest_ukey(), file.largest_ukey());
                if level > 0 && v.levels[level].iter().any(|f| f.overlaps_ukeys(lo, hi)) {
                    return None;
                }
                c.next_file_number += 1;
                edit.new_files.push((level as u32, file));
            }
            // Delete a live table, links and all (what a merge does to its
            // inputs); its sources may be left unreferenced.
            2 => {
                let files = v.levels.get(level).filter(|f| !f.is_empty())?;
                let file = files.get(pick(files.len()))?;
                edit.deleted_files.push((level as u32, file.number));
                edit.compact_pointers
                    .push((level as u32, file.largest_ukey().to_vec()));
            }
            // Freeze an unlinked table and link it below: split where a
            // boundary between two lower files falls inside its span,
            // whole onto one lower file otherwise.
            3 => {
                let lower = v.levels.get(level + 1).filter(|f| !f.is_empty())?;
                let unlinked: Vec<&FileMeta> = v
                    .levels
                    .get(level)?
                    .iter()
                    .filter(|f| f.slices.is_empty())
                    .collect();
                let source = *unlinked.get(pick(unlinked.len().max(1)))?;
                let mut link = |target: &FileMeta, range: KeyRange| {
                    let link = SliceLink {
                        source_file: source.number,
                        range,
                        link_seq: c.link_counter,
                        approx_bytes: source.size / 2,
                    };
                    c.link_counter += 1;
                    edit.new_links.push((target.number, link));
                };
                let inside = |f: &FileMeta| {
                    source.smallest_ukey() < f.smallest_ukey()
                        && f.smallest_ukey() <= source.largest_ukey()
                };
                match lower
                    .windows(2)
                    .find(|pair| pair.last().is_some_and(inside))
                {
                    Some([left, right]) => {
                        let cut = right.smallest_ukey();
                        link(left, KeyRange::new(Vec::new(), cut));
                        link(right, KeyRange::from(cut));
                    }
                    _ => link(lower.get(pick(lower.len()))?, KeyRange::all()),
                }
                edit.frozen_files.push((level as u32, source.number));
            }
            // Reclaim a frozen file nothing links to any more.
            _ => {
                let dead: Vec<u64> = v
                    .frozen
                    .values()
                    .filter(|f| f.refcount == 0)
                    .map(|f| f.number)
                    .collect();
                edit.deleted_frozen
                    .push(*dead.get(pick(dead.len().max(1)))?);
            }
        }
        Some(edit)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// What a snapshot manifest, a checkpoint and a shadow tree rest
        /// on: after any valid history of adds, deletes, freezes, links
        /// and frozen deletes, `snapshot_edit` — through its record
        /// encoding — applied to an empty version gives the same version
        /// back, level by level, frozen set and refcounts included, and
        /// the same counters.
        #[test]
        fn snapshot_edit_reproduces_any_reachable_version(
            steps in prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 1..80),
        ) {
            let levels = 4;
            let mut v = Version::new(levels);
            let mut c = Counters::new(levels);
            for (kind, a, b) in steps {
                let Some(mut edit) = random_edit(&v, &mut c, kind, a, b) else { continue };
                c.last_sequence += u64::from(a);
                edit.next_file_number = Some(c.next_file_number);
                edit.last_sequence = Some(c.last_sequence);
                c.absorb(&edit, Adopt::Own);
                apply_edit(&mut v, &edit).unwrap();
                recompute_refcounts(&mut v);
                v.check_invariants().unwrap();

                let record = snapshot_edit(&v, &c).encode();
                let snapshot = VersionEdit::decode(&record).unwrap();
                let mut again = Version::new(levels);
                let mut counters = Counters::new(levels);
                apply_edit(&mut again, &snapshot).unwrap();
                recompute_refcounts(&mut again);
                counters.absorb(&snapshot, Adopt::Own);
                again.check_invariants().unwrap();
                prop_assert_eq!(&again.levels, &v.levels);
                prop_assert_eq!(&again.frozen, &v.frozen);
                // The link counter is not written: replay puts it just past
                // the newest link still alive, never past where it was.
                prop_assert!(counters.link_counter <= c.link_counter);
                counters.link_counter = c.link_counter;
                prop_assert_eq!(&counters, &c);
            }
        }
    }
}
