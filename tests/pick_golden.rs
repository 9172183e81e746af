//! The pick table: the exact [`CompactionTask`] each leveled policy returns
//! over a grid of small hand-built [`Version`]s.
//!
//! Every row is one tree. The grid crosses
//! * the overfull level (L0, or L1 above a deeper L2),
//! * what lies below it (nothing, files overlapping the pick, files disjoint
//!   from it, or overlapping files that carry slices),
//! * how many files of the overfull level carry slices (none, some, all),
//! * the round-robin cursor (empty, between two files, past the last),
//!
//! and adds healthy trees with one lower file near `T_s` (by slice count and
//! by slice bytes) and with the frozen region over and under the
//! reclamation budget. Columns: `UdcPolicy::pick`, and `LdcPolicy::pick`
//! with the default `T_s` and with `T_s = 5` (reclamation, its last step,
//! at the default budget in both).
//!
//! UDC is asked only about trees without slices: a UDC store never links,
//! so those are the only trees it builds itself (`-` marks the rest). L0
//! files never carry slices either (nothing lies above L0 to link into
//! it), so the slice axis runs only for L1. Every tree passes
//! `Version::check_invariants`.
//!
//! A mismatch is a real change in what the policies choose; the test
//! prints the whole table it got.

use ldc::lsm::compaction::{CompactionPolicy, CompactionTask, PickContext, UdcPolicy};
use ldc::lsm::types::{encode_internal_key, KeyRange, ValueType};
use ldc::lsm::version::{FileMeta, FrozenMeta, SliceLink, Version};
use ldc::{LdcConfig, LdcPolicy, Options};

/// `Options::default()` with a 4 KiB L1, so three 2 000 B files overfill
/// it while L2 (40 KiB) stays healthy.
fn options() -> Options {
    Options {
        l1_capacity_bytes: 4096,
        ..Options::default()
    }
}

fn file(number: u64, lo: &str, hi: &str, size: u64) -> FileMeta {
    FileMeta {
        number,
        size,
        smallest: encode_internal_key(lo.as_bytes(), 1, ValueType::Value),
        largest: encode_internal_key(hi.as_bytes(), 1, ValueType::Value),
        slices: Vec::new(),
    }
}

/// Attaches `n` slices to `f`, each cut from its own frozen source that
/// spans exactly `f`'s keys, `bytes` apiece; the sources are numbered from
/// `*next_source` and weigh `frozen_size` each.
fn link(v: &mut Version, f: &mut FileMeta, n: usize, bytes: u64, frozen_size: u64, next: &mut u64) {
    for i in 0..n {
        let source = *next;
        *next += 1;
        v.frozen.insert(
            source,
            FrozenMeta {
                number: source,
                size: frozen_size,
                smallest: f.smallest.clone(),
                largest: f.largest.clone(),
                refcount: 1,
            },
        );
        f.slices.push(SliceLink {
            source_file: source,
            range: KeyRange::new(f.smallest_ukey().to_vec(), {
                let mut hi = f.largest_ukey().to_vec();
                hi.push(0);
                hi
            }),
            link_seq: i as u64 + 1,
            approx_bytes: bytes,
        });
    }
}

/// One steady-state slice: a tenth of a default 2 MiB table.
const SLICE: u64 = (2 << 20) / 10;

#[derive(Clone, Copy, Debug)]
enum Below {
    Empty,
    Overlapping,
    Disjoint,
    OverlappingLinked,
}

#[derive(Clone, Copy, Debug)]
enum Linked {
    None,
    Some,
    All,
}

#[derive(Clone, Copy, Debug)]
enum Cursor {
    Empty,
    Middle,
    Past,
}

/// One overfull-level tree of the grid, with its cursors.
fn overfull_tree(
    level: usize,
    below: Below,
    linked: Linked,
    cursor: Cursor,
) -> (Version, Vec<Vec<u8>>) {
    let mut v = Version::new(4);
    let mut next_source = 100;
    if level == 0 {
        // Four overlapping L0 files, oldest first; L1 files are small so
        // L0's score (1.0) is the only one that triggers.
        v.levels[0].push(file(1, "c", "e", 1000));
        v.levels[0].push(file(2, "a", "d", 1000));
        v.levels[0].push(file(3, "d", "g", 1000));
        v.levels[0].push(file(4, "b", "c", 1000));
    } else {
        let mut files = vec![
            file(10, "b", "c", 2000),
            file(11, "e", "f", 2000),
            file(12, "h", "i", 2000),
        ];
        let counts: [usize; 3] = match linked {
            Linked::None => [0, 0, 0],
            Linked::Some => [0, 1, 0],
            Linked::All => [1, 2, 1],
        };
        for (f, n) in files.iter_mut().zip(counts) {
            link(&mut v, f, n, SLICE, 100, &mut next_source);
        }
        v.levels[1] = files;
    }
    let lower = level + 1;
    let size = if lower == 1 { 100 } else { 1000 };
    let mut below_files = match below {
        Below::Empty => Vec::new(),
        Below::Overlapping | Below::OverlappingLinked => vec![
            file(20, "a", "b5", size),
            file(21, "e5", "g", size),
            file(22, "h5", "j", size),
        ],
        Below::Disjoint => vec![file(20, "m", "n", size), file(21, "x", "z", size)],
    };
    if let Below::OverlappingLinked = below {
        for f in below_files.iter_mut().take(2) {
            link(&mut v, f, 1, SLICE, 100, &mut next_source);
        }
    }
    v.levels[lower] = below_files;
    let mut cursors = vec![Vec::new(); 4];
    cursors[level] = match cursor {
        Cursor::Empty => Vec::new(),
        Cursor::Middle => b"d".to_vec(),
        Cursor::Past => b"zz".to_vec(),
    };
    (v, cursors)
}

/// A healthy tree whose one L2 file carries `n` slices of `bytes` each.
fn threshold_tree(n: usize, bytes: u64) -> Version {
    let mut v = Version::new(4);
    let mut f = file(20, "a", "m", 1000);
    link(&mut v, &mut f, n, bytes, 100, &mut 100);
    v.levels[2].push(f);
    v
}

/// A healthy tree with 4 000 B of live files and two linked L1 files whose
/// sources weigh `frozen_size` and twice that: over the 25 % reclamation
/// budget when the two together exceed 1 000 B.
fn reclamation_tree(frozen_size: u64) -> Version {
    let mut v = Version::new(4);
    let mut f10 = file(10, "a", "c", 1000);
    let mut f11 = file(11, "d", "f", 1000);
    let mut next = 100;
    link(&mut v, &mut f10, 1, 10, frozen_size, &mut next);
    link(&mut v, &mut f11, 1, 10, frozen_size * 2, &mut next);
    v.levels[1] = vec![f10, f11];
    v.levels[2].push(file(20, "a", "z", 2000));
    v
}

fn show(task: Option<CompactionTask>) -> String {
    match task {
        None => "None".into(),
        Some(CompactionTask::Merge {
            level,
            upper,
            lower,
        }) => {
            format!("Merge(L{level} {upper:?} + {lower:?})")
        }
        Some(CompactionTask::TrivialMove { level, file }) => format!("Move(L{level} #{file})"),
        Some(CompactionTask::Link { level, file }) => format!("Link(L{level} #{file})"),
        Some(CompactionTask::LdcMerge { level, file }) => format!("LdcMerge(L{level} #{file})"),
        Some(CompactionTask::TieredMerge { files }) => format!("Tiered({files:?})"),
    }
}

fn row(name: &str, v: &Version, cursors: &[Vec<u8>]) -> String {
    v.check_invariants()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let options = options();
    let ctx = PickContext::new(v, &options, cursors);
    let udc = if v.total_slice_links() == 0 {
        show(UdcPolicy::new().pick(&ctx))
    } else {
        "-".into()
    };
    let ldc = show(LdcPolicy::new().pick(&ctx));
    let ldc5 = show(
        LdcPolicy::with_config(LdcConfig {
            slice_link_threshold: Some(5),
            ..LdcConfig::default()
        })
        .pick(&ctx),
    );
    format!("{name:<32} udc={udc:<33} ldc={ldc:<18} ldc5={ldc5}\n")
}

fn table() -> String {
    let mut out = String::new();
    for level in [0, 1] {
        for below in [
            Below::Empty,
            Below::Overlapping,
            Below::Disjoint,
            Below::OverlappingLinked,
        ] {
            let linkings: &[Linked] = if level == 0 {
                &[Linked::None]
            } else {
                &[Linked::None, Linked::Some, Linked::All]
            };
            for &linked in linkings {
                for cursor in [Cursor::Empty, Cursor::Middle, Cursor::Past] {
                    let (v, cursors) = overfull_tree(level, below, linked, cursor);
                    let name = format!("L{level} {below:?} {linked:?} {cursor:?}");
                    out += &row(&name, &v, &cursors);
                }
            }
        }
    }
    let cursors = vec![Vec::new(); 4];
    for n in [4, 5, 9, 10] {
        out += &row(&format!("count {n}"), &threshold_tree(n, 1), &cursors);
    }
    // Two slices of a default table each: under `T_s` by count, at or past
    // the byte trigger (`T_s * 2 MiB / fan-out`) of the default and of 5.
    for (n, bytes) in [(2, 1 << 20), (2, 1 << 19), (4, 1 << 20)] {
        let name = format!("bytes {n}x{bytes}");
        out += &row(&name, &threshold_tree(n, bytes), &cursors);
    }
    for frozen in [300, 400] {
        out += &row(
            &format!("frozen {frozen}+{}", frozen * 2),
            &reclamation_tree(frozen),
            &cursors,
        );
    }
    out
}

const GOLDEN: &str = r"
L0 Empty None Empty              udc=Merge(L0 [1, 2, 3, 4] + [])       ldc=Move(L0 #1)        ldc5=Move(L0 #1)
L0 Empty None Middle             udc=Merge(L0 [1, 2, 3, 4] + [])       ldc=Move(L0 #1)        ldc5=Move(L0 #1)
L0 Empty None Past               udc=Merge(L0 [1, 2, 3, 4] + [])       ldc=Move(L0 #1)        ldc5=Move(L0 #1)
L0 Overlapping None Empty        udc=Merge(L0 [1, 2, 3, 4] + [20, 21]) ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 Overlapping None Middle       udc=Merge(L0 [1, 2, 3, 4] + [20, 21]) ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 Overlapping None Past         udc=Merge(L0 [1, 2, 3, 4] + [20, 21]) ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 Disjoint None Empty           udc=Merge(L0 [1, 2, 3, 4] + [])       ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 Disjoint None Middle          udc=Merge(L0 [1, 2, 3, 4] + [])       ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 Disjoint None Past            udc=Merge(L0 [1, 2, 3, 4] + [])       ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 OverlappingLinked None Empty  udc=-                                 ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 OverlappingLinked None Middle udc=-                                 ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L0 OverlappingLinked None Past   udc=-                                 ldc=Link(L0 #1)        ldc5=Link(L0 #1)
L1 Empty None Empty              udc=Move(L1 #10)                      ldc=Move(L1 #10)       ldc5=Move(L1 #10)
L1 Empty None Middle             udc=Move(L1 #11)                      ldc=Move(L1 #11)       ldc5=Move(L1 #11)
L1 Empty None Past               udc=Move(L1 #10)                      ldc=Move(L1 #10)       ldc5=Move(L1 #10)
L1 Empty Some Empty              udc=-                                 ldc=Move(L1 #10)       ldc5=Move(L1 #10)
L1 Empty Some Middle             udc=-                                 ldc=Move(L1 #12)       ldc5=Move(L1 #12)
L1 Empty Some Past               udc=-                                 ldc=Move(L1 #10)       ldc5=Move(L1 #10)
L1 Empty All Empty               udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Empty All Middle              udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Empty All Past                udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Overlapping None Empty        udc=Merge(L1 [10] + [20])             ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Overlapping None Middle       udc=Merge(L1 [11] + [21])             ldc=Link(L1 #11)       ldc5=Link(L1 #11)
L1 Overlapping None Past         udc=Merge(L1 [10] + [20])             ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Overlapping Some Empty        udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Overlapping Some Middle       udc=-                                 ldc=Link(L1 #12)       ldc5=Link(L1 #12)
L1 Overlapping Some Past         udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Overlapping All Empty         udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Overlapping All Middle        udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Overlapping All Past          udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Disjoint None Empty           udc=Move(L1 #10)                      ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Disjoint None Middle          udc=Move(L1 #11)                      ldc=Link(L1 #11)       ldc5=Link(L1 #11)
L1 Disjoint None Past            udc=Move(L1 #10)                      ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Disjoint Some Empty           udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Disjoint Some Middle          udc=-                                 ldc=Link(L1 #12)       ldc5=Link(L1 #12)
L1 Disjoint Some Past            udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 Disjoint All Empty            udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Disjoint All Middle           udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 Disjoint All Past             udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 OverlappingLinked None Empty  udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 OverlappingLinked None Middle udc=-                                 ldc=Link(L1 #11)       ldc5=Link(L1 #11)
L1 OverlappingLinked None Past   udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 OverlappingLinked Some Empty  udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 OverlappingLinked Some Middle udc=-                                 ldc=Link(L1 #12)       ldc5=Link(L1 #12)
L1 OverlappingLinked Some Past   udc=-                                 ldc=Link(L1 #10)       ldc5=Link(L1 #10)
L1 OverlappingLinked All Empty   udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 OverlappingLinked All Middle  udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
L1 OverlappingLinked All Past    udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
count 4                          udc=-                                 ldc=LdcMerge(L2 #20)   ldc5=LdcMerge(L2 #20)
count 5                          udc=-                                 ldc=LdcMerge(L2 #20)   ldc5=LdcMerge(L2 #20)
count 9                          udc=-                                 ldc=LdcMerge(L2 #20)   ldc5=LdcMerge(L2 #20)
count 10                         udc=-                                 ldc=LdcMerge(L2 #20)   ldc5=LdcMerge(L2 #20)
bytes 2x1048576                  udc=-                                 ldc=LdcMerge(L2 #20)   ldc5=LdcMerge(L2 #20)
bytes 2x524288                   udc=-                                 ldc=None               ldc5=LdcMerge(L2 #20)
bytes 4x1048576                  udc=-                                 ldc=LdcMerge(L2 #20)   ldc5=LdcMerge(L2 #20)
frozen 300+600                   udc=-                                 ldc=None               ldc5=None
frozen 400+800                   udc=-                                 ldc=LdcMerge(L1 #11)   ldc5=LdcMerge(L1 #11)
";

#[test]
fn leveled_picks_match_golden() {
    let got = table();
    assert!(
        Some(got.as_str()) == GOLDEN.strip_prefix('\n'),
        "pick table changed; got:\n{got}"
    );
}
