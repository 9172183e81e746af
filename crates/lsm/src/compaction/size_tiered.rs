//! Size-tiered compaction: the *lazy* baseline (paper §V, Cassandra's
//! strategy [20]).
//!
//! All runs live in Level 0 (overlap allowed). Files are grouped into
//! buckets of similar size; once a bucket holds `min_merge` files they are
//! combined into one bigger run. Entries are rewritten only
//! `O(log_{min_merge} n)` times — less write amplification than leveled
//! compaction — but each merge is as large as the tier, so occasional
//! merges touch a large fraction of the store. That is precisely the
//! tail-latency pathology the LDC paper's introduction calls out in lazy
//! schemes ("the worst case is that all the stored data are involved into
//! one round of compaction").

use crate::compaction::{CompactionPolicy, CompactionTask, PickContext};

/// Cassandra-style size-tiered compaction policy.
#[derive(Debug, Clone)]
pub struct SizeTieredPolicy {
    /// Minimum files of similar size that trigger a merge (Cassandra: 4).
    pub min_merge: usize,
    /// Maximum files combined in one merge.
    pub max_merge: usize,
    /// Files within `[size/ratio, size*ratio]` of each other share a bucket.
    pub bucket_ratio: f64,
}

impl Default for SizeTieredPolicy {
    fn default() -> Self {
        Self {
            min_merge: 4,
            max_merge: 32,
            bucket_ratio: 1.8,
        }
    }
}

impl SizeTieredPolicy {
    /// Policy with Cassandra's defaults.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CompactionPolicy for SizeTieredPolicy {
    fn name(&self) -> &str {
        "size-tiered"
    }

    fn pick(&mut self, ctx: &PickContext<'_>) -> Option<CompactionTask> {
        // Bucket L0 files by size (sorted, greedy ranges).
        let mut files: Vec<(u64, u64)> = ctx.version.levels[0]
            .iter()
            .map(|f| (f.size, f.number))
            .collect();
        if files.len() < self.min_merge {
            return None;
        }
        files.sort_unstable();
        let mut bucket: Vec<u64> = Vec::new();
        let mut bucket_floor = 0u64;
        for &(size, number) in &files {
            let fits =
                !bucket.is_empty() && (size as f64) <= bucket_floor as f64 * self.bucket_ratio;
            if fits {
                bucket.push(number);
            } else {
                if bucket.len() >= self.min_merge {
                    break;
                }
                bucket.clear();
                bucket.push(number);
                bucket_floor = size.max(1);
            }
            if bucket.len() >= self.max_merge {
                break;
            }
        }
        if bucket.len() >= self.min_merge {
            return Some(CompactionTask::TieredMerge { files: bucket });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Options;
    use crate::types::{encode_internal_key, ValueType};
    use crate::version::{FileMeta, Version};

    fn meta(number: u64, size: u64) -> FileMeta {
        FileMeta {
            number,
            size,
            smallest: encode_internal_key(b"a", 1, ValueType::Value),
            largest: encode_internal_key(b"z", 1, ValueType::Value),
            slices: Vec::new(),
        }
    }

    fn pick(policy: &mut SizeTieredPolicy, v: &Version) -> Option<CompactionTask> {
        let options = Options::default();
        let pointers = vec![Vec::new(); v.num_levels()];
        policy.pick(&PickContext::new(v, &options, &pointers))
    }

    #[test]
    fn too_few_files_is_idle() {
        let mut v = Version::new(2);
        for i in 1..=3 {
            v.levels[0].push(meta(i, 1000));
        }
        assert!(pick(&mut SizeTieredPolicy::new(), &v).is_none());
    }

    #[test]
    fn similar_sizes_form_a_bucket() {
        let mut v = Version::new(2);
        for i in 1..=4 {
            v.levels[0].push(meta(i, 1000 + i * 10));
        }
        let task = pick(&mut SizeTieredPolicy::new(), &v).unwrap();
        match task {
            CompactionTask::TieredMerge { files } => {
                assert_eq!(files.len(), 4);
            }
            other => panic!("unexpected task {other:?}"),
        }
    }

    #[test]
    fn dissimilar_sizes_do_not_merge() {
        let mut v = Version::new(2);
        // Exponentially spaced sizes: each its own bucket.
        for (i, size) in [(1u64, 1_000u64), (2, 10_000), (3, 100_000), (4, 1_000_000)] {
            v.levels[0].push(meta(i, size));
        }
        assert!(pick(&mut SizeTieredPolicy::new(), &v).is_none());
    }

    #[test]
    fn picks_the_smallest_eligible_tier() {
        let mut v = Version::new(2);
        // 4 small files and 4 big files; the small tier merges first.
        for i in 1..=4 {
            v.levels[0].push(meta(i, 1_000));
        }
        for i in 5..=8 {
            v.levels[0].push(meta(i, 1_000_000));
        }
        let task = pick(&mut SizeTieredPolicy::new(), &v).unwrap();
        match task {
            CompactionTask::TieredMerge { files } => {
                assert_eq!(files, vec![1, 2, 3, 4]);
            }
            other => panic!("unexpected task {other:?}"),
        }
    }

    #[test]
    fn max_merge_caps_the_batch() {
        let mut policy = SizeTieredPolicy {
            max_merge: 6,
            ..SizeTieredPolicy::new()
        };
        let mut v = Version::new(2);
        for i in 1..=10 {
            v.levels[0].push(meta(i, 1_000));
        }
        match pick(&mut policy, &v).unwrap() {
            CompactionTask::TieredMerge { files } => assert_eq!(files.len(), 6),
            other => panic!("unexpected task {other:?}"),
        }
    }
}
