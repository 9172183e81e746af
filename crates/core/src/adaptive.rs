//! Self-adaptation of the SliceLink threshold (paper §III-B4).
//!
//! A small threshold merges early: fewer linked slices to consult on reads
//! (better read performance) but more lower-level rewriting per upper-level
//! byte (worse write performance). A large threshold is the reverse. The
//! paper therefore tunes `T_s` to the workload's read/write mix: larger for
//! write-dominated workloads, smaller for read-dominated ones.
//!
//! This controller judges the foreground mix over windows of ops and steps
//! the threshold one unit per window toward a target interpolated between
//! 1 (read-only) and `2 * fan_out` (write-only), passing through `fan_out`
//! at a balanced mix — the paper's measured optimum (Fig 12). `T_s` is only
//! read when a pick runs (Algorithm 1, lines 8–9), so the windows are
//! judged there too, from the op totals the engine already keeps.

/// Workload-driven `T_s` controller.
#[derive(Debug)]
pub struct AdaptiveThreshold {
    fan_out: u64,
    window: u64,
    /// Foreground `(writes, reads)` totals when the current window opened.
    opened: (u64, u64),
    current: usize,
}

impl AdaptiveThreshold {
    /// Creates a controller starting at the paper's default (`T_s = k`),
    /// its first window open at zero ops.
    pub fn new(fan_out: u64, window: u64) -> Self {
        Self {
            fan_out: fan_out.max(1),
            window: window.max(1),
            opened: (0, 0),
            current: fan_out.max(1) as usize,
        }
    }

    /// Smallest allowed threshold.
    pub fn min_threshold(&self) -> usize {
        1
    }

    /// Largest allowed threshold.
    pub fn max_threshold(&self) -> usize {
        (2 * self.fan_out) as usize
    }

    /// The currently effective threshold.
    pub fn threshold(&self) -> usize {
        self.current
    }

    /// Judges the foreground op totals so far. Once at least one window of
    /// ops has passed since the window opened, the threshold moves one step
    /// per whole window toward the target for that span's write ratio, and
    /// the next window opens here. Returns the steps taken, one `(old, new)`
    /// pair per unit; the threshold has moved whether or not they are read.
    pub fn update(&mut self, writes: u64, reads: u64) -> impl Iterator<Item = (usize, usize)> {
        let old = self.current;
        let span_writes = writes.saturating_sub(self.opened.0);
        let span = span_writes + reads.saturating_sub(self.opened.1);
        if span >= self.window {
            let target = self.target_for(span_writes as f64 / span as f64);
            // One step per window: conservative hill-climbing, so a
            // transient burst does not whipsaw the compaction shape.
            let steps = usize::try_from(span / self.window).unwrap_or(usize::MAX);
            self.current = if old < target {
                old.saturating_add(steps).min(target)
            } else {
                old.saturating_sub(steps).max(target)
            };
            self.opened = (writes, reads);
        }
        let up = self.current > old;
        (0..old.abs_diff(self.current)).map(move |i| match up {
            true => (old + i, old + i + 1),
            false => (old - i, old - i - 1),
        })
    }

    /// Target threshold for a write ratio: linear between the read-only
    /// optimum (1) and the write-only optimum (2k), hitting exactly k at a
    /// balanced mix.
    fn target_for(&self, write_ratio: f64) -> usize {
        let t = 2.0 * self.fan_out as f64 * write_ratio;
        (t.round() as usize).clamp(self.min_threshold(), self.max_threshold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller updated after every op, as if a pick ran after each.
    struct PerOp {
        a: AdaptiveThreshold,
        writes: u64,
        reads: u64,
    }

    impl PerOp {
        fn new(fan_out: u64, window: u64) -> Self {
            let a = AdaptiveThreshold::new(fan_out, window);
            Self {
                a,
                writes: 0,
                reads: 0,
            }
        }

        /// Counts one op and updates; `Some((old, new))` when it moved.
        fn observe(&mut self, is_write: bool) -> Option<(usize, usize)> {
            *if is_write {
                &mut self.writes
            } else {
                &mut self.reads
            } += 1;
            let steps: Vec<_> = self.a.update(self.writes, self.reads).collect();
            assert!(steps.len() <= 1, "one op closes at most one window");
            steps.first().copied()
        }

        fn threshold(&self) -> usize {
            self.a.threshold()
        }
    }

    #[test]
    fn starts_at_fan_out() {
        let a = AdaptiveThreshold::new(10, 100);
        assert_eq!(a.threshold(), 10);
        assert_eq!(a.min_threshold(), 1);
        assert_eq!(a.max_threshold(), 20);
    }

    #[test]
    fn write_heavy_workload_raises_threshold() {
        let mut a = PerOp::new(10, 10);
        for _ in 0..200 {
            a.observe(true);
        }
        assert!(a.threshold() > 10, "got {}", a.threshold());
        assert!(a.threshold() <= 20);
    }

    #[test]
    fn read_heavy_workload_lowers_threshold() {
        let mut a = PerOp::new(10, 10);
        for _ in 0..200 {
            a.observe(false);
        }
        assert!(a.threshold() < 10, "got {}", a.threshold());
        assert!(a.threshold() >= 1);
    }

    #[test]
    fn balanced_workload_stays_at_fan_out() {
        let mut a = PerOp::new(10, 10);
        for i in 0..500 {
            a.observe(i % 2 == 0);
        }
        assert_eq!(a.threshold(), 10);
    }

    #[test]
    fn converges_to_extremes_and_saturates() {
        let mut a = PerOp::new(10, 10);
        for _ in 0..1000 {
            a.observe(true);
        }
        assert_eq!(a.threshold(), 20);
        for _ in 0..1000 {
            a.observe(false);
        }
        assert_eq!(a.threshold(), 1);
    }

    #[test]
    fn shifting_mix_moves_one_step_per_window() {
        let mut a = PerOp::new(10, 10);
        for _ in 0..10 {
            a.observe(true);
        }
        assert_eq!(a.threshold(), 11);
        for _ in 0..10 {
            a.observe(false);
        }
        assert_eq!(a.threshold(), 10);
    }

    #[test]
    fn observe_reports_threshold_changes() {
        let mut a = PerOp::new(10, 10);
        let mut changes = Vec::new();
        for _ in 0..9 {
            assert_eq!(a.observe(true), None, "mid-window ops never adjust");
        }
        if let Some(change) = a.observe(true) {
            changes.push(change);
        }
        assert_eq!(changes, vec![(10, 11)]);
        // A window that lands on the current value reports nothing.
        let mut balanced = PerOp::new(10, 10);
        for i in 0..10 {
            assert_eq!(balanced.observe(i % 2 == 0), None);
        }
    }

    #[test]
    fn one_update_steps_once_per_whole_window() {
        // Three whole windows (and a part) of writes seen at one pick move
        // `T_s` exactly three steps; then less than a window moves it none.
        let mut a = AdaptiveThreshold::new(10, 10);
        let mut update = |writes, reads| a.update(writes, reads).collect::<Vec<_>>();
        assert_eq!(update(35, 0), [(10, 11), (11, 12), (12, 13)]);
        assert_eq!(update(44, 0), []);
        // The window reopened at 35: the next whole one counts from there.
        assert_eq!(update(45, 0), [(13, 14)]);
        // Steps stop at the target: ten balanced windows take 14 to 10.
        assert_eq!(update(95, 50), [(14, 13), (13, 12), (12, 11), (11, 10)]);
        assert_eq!(a.threshold(), 10);
    }
}
