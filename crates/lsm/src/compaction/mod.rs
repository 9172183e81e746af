//! Compaction framework: task vocabulary, the policy interface, and the
//! leveled pick both leveled policies share.
//!
//! The engine separates *decision* from *execution*. A
//! [`CompactionPolicy`] inspects the current [`Version`] and proposes one
//! [`CompactionTask`]; the database takes it through the executor's three
//! stages (`exec`: plan → run → install — all the I/O, one version edit)
//! and asks again until the tree is healthy.
//!
//! A policy answers one question, [`CompactionPolicy::pick`]: the next
//! task for the current tree, in the policy's own order — relief of an
//! overfull level first, then whatever merges its triggers fired, and for
//! LDC last of all the reclamation of its frozen region. Both drivers ask
//! whenever they have a lane or a worker free.
//!
//! The task vocabulary covers both compaction styles in the paper:
//!
//! * [`CompactionTask::Merge`] / [`CompactionTask::TrivialMove`] — the
//!   traditional upper-level driven actions (UDC, LevelDB's behaviour);
//! * [`CompactionTask::Link`] / [`CompactionTask::LdcMerge`] — the two
//!   phases of lower-level driven compaction (LDC, Algorithm 1). `Link` is
//!   metadata-only; `LdcMerge` performs the actual I/O, driven by the lower
//!   file once it has accumulated enough slices.
//!
//! UDC and LDC share the trigger (a level over its capacity) and the
//! granularity (one file, round-robin; all of Level 0 for a merge). They
//! differ only in what the overfull level does with the file it gives up,
//! its [`Movement`], so [`pick_leveled`] writes that step once and each
//! policy names its movement. LDC adds its own merge trigger (`T_s`) on
//! top, in `ldc-core`.

pub(crate) mod exec;
mod size_tiered;
mod udc;

pub use size_tiered::SizeTieredPolicy;
pub use udc::UdcPolicy;

use std::cmp::Reverse;

use ldc_obs::{EventSink, NoopSink};

use crate::options::Options;
use crate::version::{responsible_files, FileMeta, Version};

/// One unit of compaction work proposed by a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionTask {
    /// Upper-level driven merge: `upper` files at `level` merge with
    /// `lower` files at `level + 1`; outputs land at `level + 1`.
    Merge {
        /// Source level of the upper inputs.
        level: usize,
        /// File numbers at `level`.
        upper: Vec<u64>,
        /// Overlapping file numbers at `level + 1`.
        lower: Vec<u64>,
    },
    /// Metadata-only move of `file` from `level` to `level + 1` (no key
    /// overlap below).
    TrivialMove {
        /// Current level of the file.
        level: usize,
        /// File number to move.
        file: u64,
    },
    /// LDC link phase: freeze `file` (at `level`) and attach one slice per
    /// overlapping file at `level + 1`. Metadata-only.
    Link {
        /// Level of the file to freeze.
        level: usize,
        /// File number to freeze and slice.
        file: u64,
    },
    /// LDC merge phase: rewrite `file` (at `level`) together with all its
    /// attached slices; outputs stay at `level`.
    LdcMerge {
        /// Level of the merge-target (lower) file.
        level: usize,
        /// File number whose slices have reached the threshold.
        file: u64,
    },
    /// Size-tiered merge (the lazy baseline, Cassandra-style, paper §V):
    /// combine several similar-sized Level-0 runs into one bigger Level-0
    /// run. Output stays at Level 0 as a single (possibly oversized) file.
    TieredMerge {
        /// Level-0 file numbers to combine.
        files: Vec<u64>,
    },
}

/// Read-only state handed to a pick: the tree and the foreground's ops.
pub struct PickContext<'a> {
    /// Current file/frozen/link state.
    pub version: &'a Version,
    /// Engine options (fan-out, level capacities, ...).
    pub options: &'a Options,
    /// Per-level round-robin cursors (largest user key compacted so far).
    pub compact_pointers: &'a [Vec<u8>],
    /// Foreground writes so far (`DbStats::writes`).
    pub writes: u64,
    /// Foreground reads so far (`DbStats::gets` + `DbStats::scans`).
    pub reads: u64,
    /// The engine's sink, for what a policy decides (`ThresholdAdapt`).
    pub sink: &'a dyn EventSink,
    /// Virtual time of the pick.
    pub now: u64,
}

impl<'a> PickContext<'a> {
    /// A context for a hand-built version: no foreground ops yet, no sink.
    pub fn new(version: &'a Version, options: &'a Options, pointers: &'a [Vec<u8>]) -> Self {
        PickContext {
            version,
            options,
            compact_pointers: pointers,
            writes: 0,
            reads: 0,
            sink: &NoopSink,
            now: 0,
        }
    }
}

/// Chooses what to compact next.
pub trait CompactionPolicy: Send {
    /// Short policy name for reports ("udc", "ldc", ...).
    fn name(&self) -> &str;

    /// Proposes the next task, or `None` when the tree is healthy.
    fn pick(&mut self, ctx: &PickContext<'_>) -> Option<CompactionTask>;
}

/// LevelDB-style health scores: level 0 scores by file count relative to
/// the trigger; deeper levels by byte size relative to capacity. The last
/// level never triggers (nothing below it).
pub fn level_scores(version: &Version, options: &Options) -> Vec<f64> {
    (0..version.num_levels())
        .map(|level| level_score(version, options, level))
        .collect()
}

/// One level's entry of [`level_scores`].
fn level_score(version: &Version, options: &Options, level: usize) -> f64 {
    if level == 0 {
        version.level_files(0) as f64 / options.l0_compaction_trigger as f64
    } else if level + 1 < version.num_levels() {
        version.level_bytes(level) as f64 / options.level_capacity_bytes(level) as f64
    } else {
        0.0
    }
}

/// The level most in need of compaction, if any score reaches 1.0. Of
/// equal scores the deepest wins (`Iterator::max_by`'s rule), and nothing
/// is allocated: this is asked after every write.
pub fn pick_overfull_level(version: &Version, options: &Options) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for level in 0..version.num_levels() {
        let score = level_score(version, options, level);
        debug_assert!(score.is_finite(), "scores are finite");
        if best.is_none_or(|(_, top)| score >= top) {
            best = Some((level, score));
        }
    }
    best.filter(|&(_, score)| score >= 1.0)
        .map(|(level, _)| level)
}

/// What an overfull level does with the file it gives up: the one step in
/// which UDC and LDC differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Movement {
    /// UDC: merge the file into the files it overlaps one level down.
    MergeDown,
    /// LDC: freeze the file and link a slice of it onto each lower file
    /// whose responsible range it meets.
    Link,
}

/// The leveled step, written once: the most overfull level gives up one
/// slice-free file by `movement`. At Level 0 that is the oldest file (the
/// read path relies on frozen L0 data being older than any active L0 file),
/// deeper the first past the round-robin cursor. If every file carries
/// slices, the most-linked one is merged with them instead (liveness). The
/// file moves trivially when nothing below takes it: a link needs an empty
/// next level (a non-empty level's responsible ranges always give a target),
/// a merge no overlapping lower file. A merge takes all of Level 0, and
/// first `LdcMerge`s any lower file whose responsible range it meets and
/// that carries slices, as a store an LDC session wrote can hold: a classic
/// merge can neither consume such a file nor shrink its range.
pub fn pick_leveled(ctx: &PickContext<'_>, movement: Movement) -> Option<CompactionTask> {
    use CompactionTask::{LdcMerge, Link, Merge, TrivialMove};
    let version = ctx.version;
    let level = pick_overfull_level(version, ctx.options)?;
    let (files, below) = (&version.levels[level], &version.levels[level + 1]);
    let cursor = ctx.compact_pointers[level].as_slice();
    let free = |f: &&FileMeta| f.slices.is_empty();
    let past = |f: &&FileMeta| level == 0 || cursor.is_empty() || f.largest_ukey() > cursor;
    let chosen = files.iter().filter(free).find(past);
    let Some(file) = chosen.or_else(|| files.iter().find(free)).map(|f| f.number) else {
        let forced = files
            .iter()
            .max_by_key(|f| (f.slices.len(), Reverse(f.number)));
        return forced.map(|f| LdcMerge {
            level,
            file: f.number,
        });
    };
    match movement {
        Movement::Link if below.is_empty() => return Some(TrivialMove { level, file }),
        Movement::Link => return Some(Link { level, file }),
        Movement::MergeDown => {}
    }
    let upper: Vec<&FileMeta> = files
        .iter()
        .filter(|f| level == 0 || f.number == file)
        .collect();
    let lo = upper.iter().map(|f| f.smallest_ukey()).min()?;
    let hi = upper.iter().map(|f| f.largest_ukey()).max()?;
    let owners = &below[responsible_files(below, lo, hi)];
    if let Some(linked) = owners.iter().find(|f| !f.slices.is_empty()) {
        return Some(LdcMerge {
            level: level + 1,
            file: linked.number,
        });
    }
    let lower: Vec<u64> = owners
        .iter()
        .filter(|f| f.overlaps_ukeys(lo, hi))
        .map(|f| f.number)
        .collect();
    if lower.is_empty() && upper.len() == 1 {
        return Some(TrivialMove { level, file });
    }
    let upper = upper.iter().map(|f| f.number).collect();
    Some(Merge {
        level,
        upper,
        lower,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{encode_internal_key, ValueType};

    fn meta(number: u64, lo: &[u8], hi: &[u8], size: u64) -> FileMeta {
        FileMeta {
            number,
            size,
            smallest: encode_internal_key(lo, 1, ValueType::Value),
            largest: encode_internal_key(hi, 1, ValueType::Value),
            slices: Vec::new(),
        }
    }

    #[test]
    fn scores_reflect_fill() {
        let options = Options::default();
        let mut v = Version::new(4);
        // L0 at trigger -> score 1.0.
        for i in 0..options.l0_compaction_trigger as u64 {
            v.levels[0].push(meta(i + 1, b"a", b"z", 1000));
        }
        // L1 at half capacity.
        v.levels[1].push(meta(100, b"a", b"m", options.l1_capacity_bytes / 2));
        let scores = level_scores(&v, &options);
        assert!((scores[0] - 1.0).abs() < 1e-9);
        assert!((scores[1] - 0.5).abs() < 1e-9);
        assert_eq!(scores[3], 0.0, "last level never scores");
        assert_eq!(pick_overfull_level(&v, &options), Some(0));
    }

    #[test]
    fn healthy_tree_picks_nothing() {
        let options = Options::default();
        let mut v = Version::new(4);
        v.levels[0].push(meta(1, b"a", b"z", 1000));
        v.levels[1].push(meta(2, b"a", b"z", 1000));
        assert_eq!(pick_overfull_level(&v, &options), None);
    }

    #[test]
    fn ties_go_to_the_deepest_level_as_max_by_does() {
        let options = Options::default();
        let mut v = Version::new(4);
        for i in 0..options.l0_compaction_trigger as u64 * 2 {
            v.levels[0].push(meta(i + 1, b"a", b"z", 1000));
        }
        v.levels[1].push(meta(100, b"a", b"m", options.level_capacity_bytes(1) * 2));
        v.levels[2].push(meta(101, b"a", b"m", options.level_capacity_bytes(2) * 2));
        let scores = level_scores(&v, &options);
        assert_eq!((scores[0], scores[1], scores[2]), (2.0, 2.0, 2.0));
        let by_max_by = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(level, _)| level);
        assert_eq!(by_max_by, Some(2));
        assert_eq!(pick_overfull_level(&v, &options), Some(2));
    }

    #[test]
    fn deepest_overfull_level_wins_by_score() {
        let options = Options::default();
        let mut v = Version::new(4);
        // L1 at 3x capacity, L2 at 1.5x.
        v.levels[1].push(meta(1, b"a", b"m", options.level_capacity_bytes(1) * 3));
        v.levels[2].push(meta(
            2,
            b"a",
            b"m",
            (options.level_capacity_bytes(2) * 3) / 2,
        ));
        assert_eq!(pick_overfull_level(&v, &options), Some(1));
    }

    /// An overfull L1 holding `upper` above an L2 of `below`; the L2 files
    /// listed in `linked` carry one slice each.
    fn merge_down(upper: FileMeta, below: Vec<FileMeta>, linked: &[u64]) -> Option<CompactionTask> {
        let options = Options {
            l1_capacity_bytes: 1000,
            ..Options::default()
        };
        let mut v = Version::new(4);
        v.levels[1].push(upper);
        v.levels[2] = below;
        for f in v.levels[2]
            .iter_mut()
            .filter(|f| linked.contains(&f.number))
        {
            f.slices.push(crate::version::SliceLink {
                source_file: 100 + f.number,
                range: crate::types::KeyRange::all(),
                link_seq: 1,
                approx_bytes: 10,
            });
        }
        let pointers = vec![Vec::new(); 4];
        pick_leveled(
            &PickContext::new(&v, &options, &pointers),
            Movement::MergeDown,
        )
    }

    #[test]
    fn merge_down_first_merges_a_linked_overlap() {
        let below = || vec![meta(20, b"a", b"c", 10), meta(21, b"d", b"f", 10)];
        let upper = || meta(1, b"b", b"e", 2000);
        assert_eq!(
            merge_down(upper(), below(), &[21]),
            Some(CompactionTask::LdcMerge { level: 2, file: 21 })
        );
        assert_eq!(
            merge_down(upper(), below(), &[]),
            Some(CompactionTask::Merge {
                level: 1,
                upper: vec![1],
                lower: vec![20, 21],
            })
        );
    }

    #[test]
    fn merge_down_into_a_gap_respects_the_next_files_range() {
        // File 1 falls between files 20 and 21, inside 21's responsible
        // range: moving it there would hide 21's slices over those keys.
        let below = || vec![meta(20, b"a", b"b", 10), meta(21, b"x", b"z", 10)];
        let upper = || meta(1, b"m", b"n", 2000);
        assert_eq!(
            merge_down(upper(), below(), &[21]),
            Some(CompactionTask::LdcMerge { level: 2, file: 21 })
        );
        assert_eq!(
            merge_down(upper(), below(), &[20]),
            Some(CompactionTask::TrivialMove { level: 1, file: 1 })
        );
        // Past the last file, the last file's range (to +inf) is the one.
        let past = meta(1, b"zz", b"zzz", 2000);
        assert_eq!(
            merge_down(past, below(), &[21]),
            Some(CompactionTask::LdcMerge { level: 2, file: 21 })
        );
    }
}
