//! The Lower-level Driven Compaction policy (paper §III, Algorithm 1).
//!
//! LDC splits the traditional compaction into two phases:
//!
//! * **link** — when a level overflows, the selected upper SSTable is not
//!   merged; it is *frozen* and its key range is sliced across the
//!   overlapping lower-level SSTables as metadata-only `SliceLink`s.
//! * **merge** — a lower-level SSTable that has accumulated at least `T_s`
//!   slice links (the *SliceLink threshold*) triggers the actual I/O: it is
//!   rewritten together with the linked slices, in place at its own level.
//!
//! Because the merge fires only once roughly a table's worth of upper-level
//! data has accumulated, each round of compaction rewrites O(1) lower-level
//! bytes per upper-level byte instead of O(k) — Theorems 3.1/2.1.
//!
//! Picking order ([`CompactionPolicy::pick`]):
//! 1. the most overfull level links one file down: the leveled step UDC
//!    shares, [`pick_leveled`] with [`Movement::Link`], which also owns the
//!    trivial move, the liveness force-merge and Level 0's oldest-first
//!    rule;
//! 2. otherwise, any file at or past the threshold `T_s` → `LdcMerge`
//!    (most-linked first);
//! 3. otherwise, space reclamation (§III-D) — once the frozen region
//!    exceeds its budget, merge the lower file that releases the most
//!    frozen bytes.

use ldc_lsm::compaction::{pick_leveled, CompactionPolicy, CompactionTask, Movement, PickContext};
use ldc_lsm::version::Version;
use ldc_obs::{Event, EventKind};

use crate::adaptive::AdaptiveThreshold;

/// Configuration for [`LdcPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct LdcConfig {
    /// SliceLink threshold `T_s`; `None` derives it from the fan-out (the
    /// paper's best setting, §IV-F).
    pub slice_link_threshold: Option<usize>,
    /// Enable workload-driven self-adaptation of `T_s` (§III-B4), over
    /// windows of at least 10 000 foreground ops, judged at picks.
    pub adaptive: bool,
    /// Space-reclamation budget for the delayed garbage collection of
    /// frozen files (§III-D, §IV-J): when the *useless* frozen bytes
    /// (already-merged slices still pinned by their files' remaining live
    /// slices) exceed this fraction of the store, the policy merges the
    /// lower files that release the most frozen data whenever the tree
    /// needs nothing else. `1.0` disables reclamation.
    pub space_gc_ratio: f64,
}

impl Default for LdcConfig {
    fn default() -> Self {
        Self {
            slice_link_threshold: None,
            adaptive: false,
            space_gc_ratio: 0.25,
        }
    }
}

/// Ops per window of the adaptive `T_s` controller.
const ADAPTIVE_WINDOW: u64 = 10_000;

/// Lower-level driven compaction.
#[derive(Default)]
pub struct LdcPolicy {
    config: LdcConfig,
    adaptive: Option<AdaptiveThreshold>,
}

impl LdcPolicy {
    /// Creates the policy with explicit configuration.
    pub fn with_config(config: LdcConfig) -> Self {
        Self {
            adaptive: None,
            config,
        }
    }

    /// Policy with the paper's default threshold (`T_s = fan-out`).
    pub fn new() -> Self {
        Self::with_config(LdcConfig::default())
    }

    /// The effective SliceLink threshold `T_s`. The adaptive controller is
    /// built on the first pick, once the fan-out is known, and judges the
    /// op mix in `ctx` at every pick: one `ThresholdAdapt` event per step.
    fn threshold(&mut self, ctx: &PickContext<'_>) -> usize {
        let fan_out = ctx.options.fan_out;
        if !self.config.adaptive {
            let fixed = self.config.slice_link_threshold;
            return fixed.unwrap_or(fan_out.max(1) as usize);
        }
        let adaptive = self
            .adaptive
            .get_or_insert_with(|| AdaptiveThreshold::new(fan_out, ADAPTIVE_WINDOW));
        for (old, new) in adaptive.update(ctx.writes, ctx.reads) {
            if ctx.sink.enabled() {
                // Instantaneous; old/new thresholds ride in the input/output
                // byte fields (see `Event` docs).
                let event = Event::span(EventKind::ThresholdAdapt, ctx.now, ctx.now);
                ctx.sink.record(event.bytes(old as u64, new as u64));
            }
        }
        adaptive.threshold()
    }
}

impl CompactionPolicy for LdcPolicy {
    fn name(&self) -> &str {
        "ldc"
    }

    fn pick(&mut self, ctx: &PickContext<'_>) -> Option<CompactionTask> {
        let threshold = self.threshold(ctx);

        // Relieve overfull levels first: a link is metadata-only (one
        // MANIFEST edit, no table I/O), the cheapest relief an overfull
        // level can get. Threshold-triggered merges run right after, in
        // the gaps.
        if let Some(task) = pick_leveled(ctx, Movement::Link) {
            return Some(task);
        }

        // Merge any file that reached the SliceLink threshold (Algorithm 1,
        // lines 8-9). The byte trigger covers the case where slices are
        // whole files (young trees): the paper's condition is "accumulated
        // nearly the same amount of data as itself", for which the count
        // `T_s` is the steady-state proxy.
        let byte_threshold = (threshold as u64).saturating_mul(ctx.options.sstable_bytes as u64)
            / ctx.options.fan_out.max(1);
        most_linked_file(ctx.version, threshold, byte_threshold)
            // With nothing else to do, reclaim the frozen region (§III-D).
            .or_else(|| most_reclaiming_file(ctx.version, self.config.space_gc_ratio))
            .map(|(level, file)| CompactionTask::LdcMerge { level, file })
    }
}

/// Space reclamation, the delayed GC of the frozen region: frozen files
/// whose slices are mostly merged already still pin their full size. Once
/// the frozen region exceeds `space_gc_ratio` of the live level bytes,
/// this is the file whose slices *expect* to release the most frozen
/// bytes. A frozen source referenced by `r` files contributes `size / r`
/// per merged reference, so repeated reclamation merges drain even widely
/// shared sources.
fn most_reclaiming_file(version: &Version, space_gc_ratio: f64) -> Option<(usize, u64)> {
    if space_gc_ratio >= 1.0 {
        return None;
    }
    let frozen_bytes = version.frozen_bytes();
    if frozen_bytes == 0 {
        return None;
    }
    let level_bytes: u64 = (0..version.num_levels())
        .map(|l| version.level_bytes(l))
        .sum();
    if frozen_bytes <= (space_gc_ratio * level_bytes as f64) as u64 {
        return None;
    }
    let mut best: Option<(u64, usize, u64)> = None; // (score, level, file)
    for (level, files) in version.levels.iter().enumerate() {
        for f in files {
            if f.slices.is_empty() {
                continue;
            }
            let score: u64 = f
                .slices
                .iter()
                .filter_map(|s| {
                    let frozen = version.frozen.get(&s.source_file)?;
                    Some(frozen.size / u64::from(frozen.refcount.max(1)))
                })
                .sum();
            if score > 0 && best.is_none_or(|(b, _, _)| score > b) {
                best = Some((score, level, f.number));
            }
        }
    }
    best.map(|(_, level, file)| (level, file))
}

/// The file with the most linked data at or past either trigger (slice
/// count or accumulated slice bytes), if any. Deeper levels win ties so
/// data keeps flowing toward the bottom.
fn most_linked_file(
    version: &Version,
    count_threshold: usize,
    byte_threshold: u64,
) -> Option<(usize, u64)> {
    let mut best: Option<(u64, usize, u64)> = None; // (bytes, level, file)
    for (level, files) in version.levels.iter().enumerate() {
        for f in files {
            let bytes = f.slice_bytes();
            if (f.slice_count() >= count_threshold || bytes >= byte_threshold)
                && best.is_none_or(|(bb, bl, _)| bytes > bb || (bytes == bb && level > bl))
            {
                best = Some((bytes, level, f.number));
            }
        }
    }
    best.map(|(_, level, file)| (level, file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_lsm::types::{encode_internal_key, KeyRange, ValueType};
    use ldc_lsm::version::{FileMeta, FrozenMeta, SliceLink};
    use ldc_lsm::Options;

    fn meta(number: u64, lo: &[u8], hi: &[u8], size: u64) -> FileMeta {
        FileMeta {
            number,
            size,
            smallest: encode_internal_key(lo, 1, ValueType::Value),
            largest: encode_internal_key(hi, 1, ValueType::Value),
            slices: Vec::new(),
        }
    }

    fn link(source: u64, seq: u64) -> SliceLink {
        SliceLink {
            source_file: source,
            range: KeyRange::all(),
            link_seq: seq,
            // Steady-state-sized slice: 1/k of a default SSTable, so count
            // and byte triggers coincide in tests.
            approx_bytes: (2 << 20) / 10,
        }
    }

    /// A healthy tree whose one L1 file carries `n` steady-state slices.
    fn linked(n: u64) -> Version {
        let mut v = Version::new(4);
        let mut f = meta(10, b"a", b"m", 1000);
        for i in 0..n {
            f.slices.push(link(100 + i, i));
        }
        v.levels[1].push(f);
        v
    }

    #[test]
    fn threshold_defaults_to_fan_out() {
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let merge = Some(CompactionTask::LdcMerge { level: 1, file: 10 });
        let mut policy = LdcPolicy::new();
        assert_eq!(
            policy.pick(&PickContext::new(&linked(9), &options, &pointers)),
            None
        );
        assert_eq!(
            policy.pick(&PickContext::new(&linked(10), &options, &pointers)),
            merge
        );
        let mut fixed = LdcPolicy::with_config(LdcConfig {
            slice_link_threshold: Some(5),
            ..LdcConfig::default()
        });
        assert_eq!(
            fixed.pick(&PickContext::new(&linked(4), &options, &pointers)),
            None
        );
        assert_eq!(
            fixed.pick(&PickContext::new(&linked(5), &options, &pointers)),
            merge
        );
    }

    #[test]
    fn write_only_totals_raise_the_adaptive_threshold_past_fan_out() {
        // A file with k slices merges at the default `T_s = k`. Shown three
        // windows of writes at one pick, the adaptive policy raises `T_s`
        // three steps, one event each, and the same file no longer merges.
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let v = linked(options.fan_out);
        let merge = Some(CompactionTask::LdcMerge { level: 1, file: 10 });
        let mut policy = LdcPolicy::with_config(LdcConfig {
            adaptive: true,
            ..LdcConfig::default()
        });
        assert_eq!(
            policy.pick(&PickContext::new(&v, &options, &pointers)),
            merge
        );
        let sink = ldc_obs::RingBufferSink::new(8);
        let writes = PickContext {
            writes: 3 * ADAPTIVE_WINDOW,
            sink: &sink,
            now: 7,
            ..PickContext::new(&v, &options, &pointers)
        };
        assert_eq!(policy.pick(&writes), None);
        let steps: Vec<_> = sink
            .events()
            .iter()
            .map(|e| (e.kind, e.start_nanos, e.input_bytes, e.output_bytes))
            .collect();
        let adapt = |from, to| (EventKind::ThresholdAdapt, 7, from, to);
        assert_eq!(steps, [adapt(10, 11), adapt(11, 12), adapt(12, 13)]);
    }

    #[test]
    fn overfull_l0_links_oldest_file() {
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let mut v = Version::new(4);
        for i in 1..=4 {
            v.levels[0].push(meta(i, b"a", b"z", 1000));
        }
        v.levels[1].push(meta(10, b"a", b"z", 1000));
        let mut policy = LdcPolicy::new();
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(task, CompactionTask::Link { level: 0, file: 1 });
    }

    #[test]
    fn empty_lower_level_moves_instead_of_linking() {
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let mut v = Version::new(4);
        for i in 1..=4 {
            v.levels[0].push(meta(i, b"a", b"z", 1000));
        }
        let mut policy = LdcPolicy::new();
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(task, CompactionTask::TrivialMove { level: 0, file: 1 });
    }

    #[test]
    fn overfull_level_relief_precedes_threshold_merges() {
        // Links are metadata-only, so draining an overfull L0 always comes
        // before threshold-triggered merges — that keeps writers away from
        // the L0 gates.
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let mut v = Version::new(4);
        let mut f = meta(10, b"a", b"m", 1000);
        for i in 0..10 {
            f.slices.push(link(100 + i, i));
        }
        v.levels[1].push(f);
        for i in 1..=4 {
            v.levels[0].push(meta(i, b"a", b"z", 1000));
        }
        let mut policy = LdcPolicy::new();
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(task, CompactionTask::Link { level: 0, file: 1 });
    }

    #[test]
    fn blocked_level_force_merges_most_linked_file() {
        let options = Options {
            l1_capacity_bytes: 1000,
            ..Options::default()
        }; // L1 overfull
        let pointers = vec![Vec::new(); 4];
        let mut v = Version::new(4);
        let mut f1 = meta(10, b"a", b"m", 2000);
        f1.slices.push(link(100, 0));
        let mut f2 = meta(11, b"n", b"z", 2000);
        f2.slices.push(link(101, 1));
        f2.slices.push(link(102, 2));
        v.levels[1].push(f1);
        v.levels[1].push(f2);
        v.levels[2].push(meta(20, b"a", b"z", 1000));
        let mut policy = LdcPolicy::new();
        // No slice-free file at L1 -> force LdcMerge of the most linked (11).
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(task, CompactionTask::LdcMerge { level: 1, file: 11 });
    }

    #[test]
    fn deeper_level_round_robin_respects_cursor() {
        let options = Options {
            l1_capacity_bytes: 1000,
            ..Options::default()
        };
        let mut pointers = vec![Vec::new(); 4];
        pointers[1] = b"bb".to_vec();
        let mut v = Version::new(4);
        v.levels[1].push(meta(1, b"aa", b"bb", 2000));
        v.levels[1].push(meta(2, b"dd", b"ee", 2000));
        v.levels[2].push(meta(20, b"a", b"z", 1000));
        let mut policy = LdcPolicy::new();
        let task = policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .unwrap();
        assert_eq!(task, CompactionTask::Link { level: 1, file: 2 });
    }

    #[test]
    fn healthy_tree_picks_nothing() {
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let v = Version::new(4);
        let mut policy = LdcPolicy::new();
        assert!(policy
            .pick(&PickContext::new(&v, &options, &pointers))
            .is_none());
    }

    fn frozen(number: u64, size: u64, refcount: u32) -> FrozenMeta {
        FrozenMeta {
            number,
            size,
            smallest: encode_internal_key(b"a", 1, ValueType::Value),
            largest: encode_internal_key(b"z", 1, ValueType::Value),
            refcount,
        }
    }

    /// A tree in which nothing is overfull and no file is near `T_s`, but
    /// the frozen region (3 000 B) is over a quarter of the level bytes
    /// (4 000 B): file 11 holds the only link to frozen 101 (2 000 B, all
    /// released by merging it), files 10 and 11 share frozen 100
    /// (1 000 B, 500 B each).
    fn over_budget_only() -> Version {
        let mut v = Version::new(4);
        let mut f10 = meta(10, b"a", b"m", 2000);
        f10.slices.push(link(100, 0));
        let mut f11 = meta(11, b"n", b"z", 2000);
        f11.slices.push(link(100, 1));
        f11.slices.push(link(101, 2));
        v.levels[1].push(f10);
        v.levels[1].push(f11);
        v.frozen.insert(100, frozen(100, 1000, 2));
        v.frozen.insert(101, frozen(101, 2000, 1));
        v
    }

    #[test]
    fn reclamation_is_the_last_step_of_pick() {
        // Only the reclamation budget is exceeded: nothing is overfull and
        // no file is near `T_s`, so `pick` falls through to reclamation.
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let v = over_budget_only();
        let mut policy = LdcPolicy::new();
        assert_eq!(
            policy.pick(&PickContext::new(&v, &options, &pointers)),
            Some(CompactionTask::LdcMerge { level: 1, file: 11 }),
            "the file whose slices release the most frozen bytes"
        );
    }

    #[test]
    fn reclamation_respects_its_budget() {
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let mut v = over_budget_only();
        // Within budget: grow the live levels until 3 000 B frozen is no
        // more than a quarter of them.
        v.levels[2].push(meta(20, b"a", b"z", 8000));
        let mut policy = LdcPolicy::new();
        assert_eq!(
            policy.pick(&PickContext::new(&v, &options, &pointers)),
            None
        );
        // A tighter budget brings it back; `1.0` turns reclamation off.
        let mut tight = LdcPolicy::with_config(LdcConfig {
            space_gc_ratio: 0.10,
            ..LdcConfig::default()
        });
        assert_eq!(
            tight.pick(&PickContext::new(&v, &options, &pointers)),
            Some(CompactionTask::LdcMerge { level: 1, file: 11 })
        );
        let mut off = LdcPolicy::with_config(LdcConfig {
            space_gc_ratio: 1.0,
            ..LdcConfig::default()
        });
        let v = over_budget_only();
        assert_eq!(off.pick(&PickContext::new(&v, &options, &pointers)), None);
    }

    #[test]
    fn overfull_level_relief_precedes_reclamation() {
        // Over the reclamation budget *and* with an overfull L0: the link
        // that keeps writers off the L0 gates comes first.
        let options = Options::default();
        let pointers = vec![Vec::new(); 4];
        let mut v = over_budget_only();
        for i in 1..=4 {
            v.levels[0].push(meta(i, b"a", b"z", 1000));
        }
        let mut policy = LdcPolicy::new();
        assert_eq!(
            policy.pick(&PickContext::new(&v, &options, &pointers)),
            Some(CompactionTask::Link { level: 0, file: 1 })
        );
    }
}
