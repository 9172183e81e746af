//! File metadata, slice links, the frozen region, and [`Version`] — and
//! LDC's file layout, written once: the responsible-range partition of a
//! level ([`responsible_file`], [`link_targets`], [`scan_start`]) and what
//! a linked file reads as ([`FileMeta::sources`], [`FileMeta::probes`]).

use std::collections::BTreeMap;
use std::ops::Range;

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

    /// What this file reads as (Algorithm 1): its own table whole (`None`),
    /// then each slice's range of its frozen source, oldest link first. A
    /// merge over the file takes its children in this order; a point read
    /// walks it backwards ([`FileMeta::probes`]).
    pub(crate) fn sources(&self) -> impl DoubleEndedIterator<Item = (u64, Option<&KeyRange>)> + '_ {
        let slices = self.slices.iter().map(|s| (s.source_file, Some(&s.range)));
        std::iter::once((self.number, None)).chain(slices)
    }

    /// The tables a point read of `ukey` probes for this file, in probe
    /// order: the source of each slice covering `ukey`, newest link first,
    /// then the file itself when `ukey` lies in its span.
    pub(crate) fn probes<'a>(&'a self, ukey: &'a [u8]) -> impl Iterator<Item = u64> + 'a {
        self.sources().rev().filter_map(move |(number, range)| {
            let holds = match range {
                Some(range) => range.contains(ukey),
                None => self.overlaps_ukeys(ukey, ukey),
            };
            holds.then_some(number)
        })
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

    /// Every table this version holds, as `(number, size)`: the live files
    /// level by level, then the frozen files by number.
    pub(crate) fn tables(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let live = self.levels.iter().flatten().map(|f| (f.number, f.size));
        live.chain(self.frozen.iter().map(|(&number, f)| (number, f.size)))
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
    ///   (`FileMeta::probes` answers newest-first by reversing);
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

/// The index of the file whose responsible range holds `ukey` in `files`,
/// one sorted, disjoint level; `None` on an empty level. Responsible ranges
/// partition the key space (paper Example 3.2): file `j` owns
/// `(largest_{j-1}, largest_j]`, the first file's range reaching down to
/// -inf and the last file's up to +inf.
pub(crate) fn responsible_file(files: &[FileMeta], ukey: &[u8]) -> Option<usize> {
    let last = files.len().checked_sub(1)?;
    Some(files.partition_point(|f| f.largest_ukey() < ukey).min(last))
}

/// The files of `files` whose responsible ranges meet the closed user-key
/// span `[lo, hi]`: one contiguous run, empty only on an empty level.
pub(crate) fn responsible_files(files: &[FileMeta], lo: &[u8], hi: &[u8]) -> Range<usize> {
    match (responsible_file(files, lo), responsible_file(files, hi)) {
        (Some(first), Some(last)) => first..last + 1,
        _ => 0..0,
    }
}

/// Algorithm 1's link of a file spanning `[lo, hi]` onto the level
/// `files`: one `(target, responsible range)` per file of
/// [`responsible_files`], in key order. A range's exclusive bounds are the
/// smallest keys strictly above the previous file's largest and its own.
pub(crate) fn link_targets(files: &[FileMeta], lo: &[u8], hi: &[u8]) -> Vec<(u64, KeyRange)> {
    // The bound above file `j`; none above the last file.
    let above = |j: usize| {
        let f = files.get(j).filter(|_| j + 1 < files.len())?;
        Some([f.largest_ukey(), &[0]].concat())
    };
    let run = responsible_files(files, lo, hi);
    let targets = files.get(run.clone()).unwrap_or_default();
    targets
        .iter()
        .zip(run)
        .map(|(f, j)| {
            let lo = j.checked_sub(1).and_then(above).unwrap_or_default();
            (f.number, KeyRange { lo, hi: above(j) })
        })
        .collect()
}

/// The file a level scan from `ukey` opens first: the responsible one, but
/// for a key past the last file's span only when a slice carries that file
/// on to +inf (only a slice can hold such a key there). `None` when no file
/// of the level can hold `ukey` or anything after it.
pub(crate) fn scan_start(files: &[FileMeta], ukey: &[u8]) -> Option<usize> {
    responsible_file(files, ukey).filter(|&j| {
        files.get(j).is_some_and(|f| {
            ukey <= f.largest_ukey() || f.slices.iter().any(|s| s.range.hi.is_none())
        })
    })
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
    fn probes_walk_covering_slices_newest_first_then_the_file() {
        let mut f = meta(1, b"b", b"m");
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
        let sources: Vec<u64> = f.sources().map(|(n, _)| n).collect();
        assert_eq!(sources, vec![1, 100, 101]);
        assert_eq!(f.probes(b"c").collect::<Vec<_>>(), vec![101, 100, 1]);
        assert_eq!(f.probes(b"a").collect::<Vec<_>>(), vec![101, 100]);
        assert_eq!(f.probes(b"n").collect::<Vec<_>>(), vec![101]);
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
