//! Tests that drive `edit` and `meta` together — apply an edit, look at the
//! version it leaves — the responsible-range partition checked against the
//! linear rules it replaced, and the fixtures every test module here shares.

use proptest::prelude::*;

use super::edit::apply_edit;
use super::meta::recompute_refcounts;
use super::{
    link_targets, responsible_file, scan_start, FileMeta, SliceLink, Version, VersionEdit,
};
use crate::types::{encode_internal_key, KeyRange, ValueType};

fn ik(key: &[u8]) -> Vec<u8> {
    encode_internal_key(key, 1, ValueType::Value)
}

pub(crate) fn meta(number: u64, lo: &[u8], hi: &[u8]) -> FileMeta {
    FileMeta {
        number,
        size: 1000,
        smallest: ik(lo),
        largest: ik(hi),
        slices: Vec::new(),
    }
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
    let tables: Vec<(u64, u64)> = v.tables().collect();
    assert_eq!(tables, vec![(20, 1000), (21, 1000), (10, 1000)]);

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

/// The linear rule link targets were chosen by before the partition had
/// one home: walk the whole level, build every file's responsible range,
/// keep those meeting `file`'s span. The reference for [`link_targets`].
fn linear_link_targets(file: &FileMeta, lower: &[FileMeta]) -> Vec<(u64, KeyRange)> {
    let mut targets = Vec::new();
    let mut lo: Vec<u8> = Vec::new(); // empty = -inf
    for (i, lf) in lower.iter().enumerate() {
        // Exclusive bound: the smallest key strictly above `largest_j`.
        let hi = (i + 1 < lower.len()).then(|| [lf.largest_ukey(), &[0]].concat());
        let range = KeyRange {
            lo: std::mem::replace(&mut lo, hi.clone().unwrap_or_default()),
            hi,
        };
        if range.overlaps(file.smallest_ukey(), file.largest_ukey()) {
            targets.push((lf.number, range));
        }
    }
    targets
}

/// The level scan's seek rule as it was written in the scan itself, its
/// binary search spelled as the linear walk it stands for: the first file
/// ending at or past `ukey`; past the last file, that file only when one of
/// its slices is open to +inf. The reference for [`scan_start`].
fn linear_scan_start(files: &[FileMeta], ukey: &[u8]) -> Option<usize> {
    if let Some(idx) = files.iter().position(|f| f.largest_ukey() >= ukey) {
        return Some(idx);
    }
    let last = files.last()?;
    last.slices
        .iter()
        .any(|s| s.range.hi.is_none())
        .then(|| files.len() - 1)
}

/// A user key near `slot`: its two big-endian bytes, their immediate
/// successor (a trailing zero byte, where responsible ranges are cut), or
/// the first byte alone (a prefix, below both).
fn slot_key(slot: u16, form: u8) -> Vec<u8> {
    let bytes = slot.to_be_bytes();
    match form % 3 {
        0 => bytes.to_vec(),
        1 => [&bytes[..], &[0]].concat(),
        _ => bytes[..1].to_vec(),
    }
}

/// A sorted, disjoint level of at most 12 files cut from `bounds` (pairs
/// of distinct slots; an odd one out makes a one-key file). The last file
/// carries no slice (`tail` 0), a bounded one (1) or one open to +inf (2).
fn random_level(mut bounds: Vec<u16>, tail: u8) -> Vec<FileMeta> {
    bounds.sort_unstable();
    bounds.dedup();
    bounds.truncate(24);
    let mut files: Vec<FileMeta> = bounds
        .chunks(2)
        .zip(1..)
        .map(|(pair, number)| {
            let (lo, hi) = (pair[0], pair[pair.len() - 1]);
            meta(number, &lo.to_be_bytes(), &hi.to_be_bytes())
        })
        .collect();
    if let Some(last) = files.last_mut() {
        let lo = last.smallest_ukey().to_vec();
        let range = match tail % 3 {
            0 => return files,
            1 => KeyRange::new(lo, last.largest_ukey()),
            _ => KeyRange::from(lo),
        };
        last.slices.push(SliceLink {
            source_file: 100,
            range,
            link_seq: 0,
            approx_bytes: 100,
        });
    }
    files
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The responsible-range partition against the linear rules it
    /// replaced, over random levels of 0–12 files: every key has exactly
    /// one responsible file (none on an empty level); link targets and
    /// their `KeyRange` bytes match; and a level scan opens the same file,
    /// the last one with and without slices included.
    #[test]
    fn the_partition_matches_the_linear_rules(
        bounds in prop::collection::vec(any::<u16>(), 0..25),
        tail in 0u8..3,
        keys in prop::collection::vec((any::<u16>(), any::<u8>()), 0..16),
        spans in prop::collection::vec(
            (any::<u16>(), any::<u8>(), any::<u16>(), any::<u8>()),
            0..16,
        ),
    ) {
        let files = random_level(bounds, tail);
        // Every file's responsible range, from a span meeting them all.
        let whole = meta(0, b"", &[0xff; 3]);
        let ranges = linear_link_targets(&whole, &files);
        prop_assert_eq!(ranges.len(), files.len());

        let edges = files.iter().flat_map(|f| {
            let (lo, hi) = (f.smallest_ukey(), f.largest_ukey());
            [lo.to_vec(), hi.to_vec(), [hi, &[0]].concat(), lo[..1].to_vec()]
        });
        let random = keys.iter().map(|&(slot, form)| slot_key(slot, form));
        for key in edges.chain(random) {
            let owners: Vec<usize> = (0..ranges.len())
                .filter(|&j| ranges[j].1.contains(&key))
                .collect();
            prop_assert_eq!(owners.len(), usize::from(!files.is_empty()), "key {:?}", key);
            prop_assert_eq!(responsible_file(&files, &key), owners.first().copied());
            prop_assert_eq!(scan_start(&files, &key), linear_scan_start(&files, &key));
        }

        for &(a, form_a, b, form_b) in &spans {
            let (x, y) = (slot_key(a, form_a), slot_key(b, form_b));
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            let span = meta(0, &lo, &hi);
            prop_assert_eq!(
                link_targets(&files, &lo, &hi),
                linear_link_targets(&span, &files)
            );
        }
    }
}
