//! File metadata, slice links, the frozen region, and [`Version`].

use std::collections::BTreeMap;

use crate::error::{Error, Result};
use crate::types::{user_key, KeyRange};

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
    /// A table with no slice links yet: fresh off a flush or a merge, read
    /// back from an edit, or found on disk by repair.
    pub(crate) fn new(number: u64, size: u64, smallest: Vec<u8>, largest: Vec<u8>) -> Self {
        Self {
            number,
            size,
            smallest,
            largest,
            slices: Vec::new(),
        }
    }

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

/// A frozen file as the live table it was (and, thawed by repair, is again).
impl From<FrozenMeta> for FileMeta {
    fn from(frozen: FrozenMeta) -> Self {
        Self::new(frozen.number, frozen.size, frozen.smallest, frozen.largest)
    }
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

/// Recomputes frozen-file refcounts from live slice links.
pub(crate) fn recompute_refcounts(version: &mut Version) {
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
    use super::super::edit::{apply_edit, VersionEdit};
    use super::super::tests::meta;
    use super::*;

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
