//! Compaction framework: task vocabulary and the policy interface.
//!
//! The engine separates *decision* from *execution*. A
//! [`CompactionPolicy`] inspects the current [`Version`] and proposes one
//! [`CompactionTask`]; the database takes it through the executor's three
//! stages (`exec`: plan → run → install — all the I/O, one version edit)
//! and asks again until the tree is healthy.
//!
//! A policy answers two questions. [`CompactionPolicy::pick`] is work the
//! tree *needs* — an overfull level, a merge whose trigger fired — and a
//! driver runs it whenever it has a lane or a worker free.
//! [`CompactionPolicy::pick_idle`] is work that only pays when the
//! background has nothing better to do (LDC's frozen-region reclamation).
//! What "idle" means is the driver's to say, because only the driver knows
//! whose time it is spending: the inline driver's lane is idle in virtual
//! time whenever it asks, so it simply falls through from one to the other;
//! the worker pool asks only when the foreground has gone quiet or a drain
//! is waiting (`crate::scheduler`), so that how much the tree is rewritten
//! does not depend on how fast the host's threads happen to be.
//!
//! The task vocabulary covers both compaction styles in the paper:
//!
//! * [`CompactionTask::Merge`] / [`CompactionTask::TrivialMove`] — the
//!   traditional upper-level driven actions (UDC, LevelDB's behaviour);
//! * [`CompactionTask::Link`] / [`CompactionTask::LdcMerge`] — the two
//!   phases of lower-level driven compaction (LDC, Algorithm 1). `Link` is
//!   metadata-only; `LdcMerge` performs the actual I/O, driven by the lower
//!   file once it has accumulated enough slices.

pub(crate) mod exec;
mod size_tiered;
mod udc;

pub use size_tiered::SizeTieredPolicy;
pub use udc::UdcPolicy;

use crate::options::Options;
use crate::version::Version;

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

/// Read-only state handed to [`CompactionPolicy::pick`].
pub struct PickContext<'a> {
    /// Current file/frozen/link state.
    pub version: &'a Version,
    /// Engine options (fan-out, level capacities, ...).
    pub options: &'a Options,
    /// Per-level round-robin cursors (largest user key compacted so far).
    pub compact_pointers: &'a [Vec<u8>],
}

/// Chooses what to compact next.
pub trait CompactionPolicy: Send {
    /// Short policy name for reports ("udc", "ldc", ...).
    fn name(&self) -> &str;

    /// Proposes the next task, or `None` when the tree is healthy.
    fn pick(&mut self, ctx: &PickContext<'_>) -> Option<CompactionTask>;

    /// Proposes a task worth running only on background time nothing else
    /// wants, or `None`. Drivers ask after [`CompactionPolicy::pick`] came
    /// back empty, and each decides for itself when the background counts
    /// as idle (see the module docs).
    fn pick_idle(&mut self, _ctx: &PickContext<'_>) -> Option<CompactionTask> {
        None
    }

    /// Lets adaptive policies observe the foreground workload mix.
    fn observe_op(&mut self, _is_write: bool) {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{encode_internal_key, ValueType};
    use crate::version::FileMeta;

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
}
