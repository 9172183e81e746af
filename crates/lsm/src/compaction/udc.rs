//! UDC: the traditional upper-level driven compaction (the paper's
//! baseline; LevelDB's behaviour).
//!
//! When a level exceeds its capacity target, a file from that level is
//! chosen round-robin and merged *down*, dragging in every overlapping file
//! of the next level — on average `k` (the fan-out) of them, which is the
//! write-amplification source the paper's Theorem 2.1 formalizes. The whole
//! step is [`pick_leveled`] with [`Movement::MergeDown`].

use crate::compaction::{pick_leveled, CompactionPolicy, CompactionTask, Movement, PickContext};

/// Upper-level driven compaction policy.
#[derive(Debug, Default)]
pub struct UdcPolicy;

impl UdcPolicy {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        Self
    }
}

impl CompactionPolicy for UdcPolicy {
    fn name(&self) -> &str {
        "udc"
    }

    fn pick(&mut self, ctx: &PickContext<'_>) -> Option<CompactionTask> {
        pick_leveled(ctx, Movement::MergeDown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use crate::types::{encode_internal_key, ValueType};
    use crate::version::{FileMeta, Version};

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
    fn l0_compaction_takes_all_l0_files() {
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let mut v = Version::new(4);
        for i in 1..=4 {
            v.levels[0].push(meta(i, b"a", b"z", 1000));
        }
        v.levels[1].push(meta(10, b"a", b"m", 1000));
        v.levels[1].push(meta(11, b"x", b"z", 1000));
        let mut policy = UdcPolicy::new();
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(
            task,
            CompactionTask::Merge {
                level: 0,
                upper: vec![1, 2, 3, 4],
                lower: vec![10, 11],
            }
        );
    }

    #[test]
    fn deeper_level_uses_round_robin_cursor() {
        let options = Options {
            l1_capacity_bytes: 1000,
            ..Options::default()
        }; // L1 trivially overfull
        let mut pointers = vec![Vec::new(); 4];
        pointers[1] = b"cc".to_vec();
        let mut v = Version::new(4);
        v.levels[1].push(meta(1, b"aa", b"bb", 2000));
        v.levels[1].push(meta(2, b"dd", b"ee", 2000));
        v.levels[2].push(meta(10, b"da", b"dz", 1000));
        let mut policy = UdcPolicy::new();
        // Cursor "cc" skips file 1 and picks file 2, which overlaps file 10.
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(
            task,
            CompactionTask::Merge {
                level: 1,
                upper: vec![2],
                lower: vec![10],
            }
        );
        // Cursor past every file wraps to the first, which has no level-2
        // overlap -> trivial move.
        pointers[1] = b"zz".to_vec();
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(task, CompactionTask::TrivialMove { level: 1, file: 1 });
    }

    #[test]
    fn no_overlap_becomes_trivial_move() {
        let options = Options {
            l1_capacity_bytes: 1000,
            ..Options::default()
        };
        let pointers = vec![Vec::new(); 4];
        let mut v = Version::new(4);
        v.levels[1].push(meta(1, b"aa", b"bb", 2000));
        v.levels[2].push(meta(10, b"x", b"z", 1000));
        let mut policy = UdcPolicy::new();
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(task, CompactionTask::TrivialMove { level: 1, file: 1 });
    }

    #[test]
    fn healthy_tree_yields_none() {
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let mut v = Version::new(4);
        v.levels[0].push(meta(1, b"a", b"z", 1000));
        let mut policy = UdcPolicy::new();
        assert!(policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .is_none());
    }
}
