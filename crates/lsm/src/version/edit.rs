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
    use super::super::testutil::meta;
    use super::*;

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
}
