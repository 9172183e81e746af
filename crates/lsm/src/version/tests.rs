//! Tests that drive `edit` and `meta` together — apply an edit, look at the
//! version it leaves — and the fixtures every test module here shares.

use super::edit::apply_edit;
use super::meta::recompute_refcounts;
use super::{FileMeta, SliceLink, Version, VersionEdit};
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
