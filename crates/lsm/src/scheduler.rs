//! Background worker pool for flush and compaction.
//!
//! With `Options::background_workers >= 1`, the engine stops driving
//! background work inline on the write path ([`crate::db::Db`]'s
//! `pump_background`) and instead signals this scheduler: N dedicated
//! worker threads drive the same three-stage executor
//! (`crate::compaction::exec`: plan → run → install) — planning and
//! claiming one job at a time under the core lock, running its
//! reads/merge/writes without any engine lock held, and installing the
//! result under the core lock as one atomic `VersionEdit`. Large merges
//! are carved into range-partitioned subcompactions (bounded by
//! `Options::max_subcompactions`) that idle workers run in parallel.
//! This module holds only what the pool synchronizes on; the stages
//! themselves are shared with the inline pump.
//!
//! # Conflict tracking
//!
//! Two jobs must never touch overlapping key ranges of the same output
//! level, and no file may be the input of two jobs at once. [`SchedState`]
//! tracks both: `inflight_inputs` holds every claimed input file number,
//! and `claims` holds the `[lo, hi]` user-key interval each running job
//! owns per level. A picked task that conflicts is simply dropped — the
//! policy re-picks it once the running job's install bumps `completed`
//! and re-arms `work_hint`.
//!
//! # Determinism contract
//!
//! `background_workers == 0` keeps the pool dormant: the inline pump calls
//! the stages in the exact pre-pool order and same-seed runs stay
//! byte-identical (pinned by `tests/inline_golden.rs`).
//! With workers, runs promise linearizability, not timing reproducibility
//! — the same contract as multi-threaded group commit (see the module
//! docs on `crate::db`).
//!
//! # Lock ranks (crates/lint/lock_order.toml)
//!
//! * `lsm/scheduler::threads` (rank 55) — join handles; never nested.
//! * `lsm/scheduler::state` (rank 65) — sits *above* `lsm/db::core`
//!   (rank 60): the foreground signals the pool while holding the core
//!   lock. Workers therefore must drop the state guard before locking
//!   the core; waking from `work_cv` and then planning a job re-acquires
//!   core first, state second.
//!
//! Condvar pairing: `work_cv` and `subs_cv` pair with `state`; `done_cv`
//! pairs with the **core** mutex — foreground stall gates wait on it via
//! `MutexGuard::wait_timeout` so workers can take the core and install.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ldc_obs::lockcheck::{Condvar, Mutex};

use crate::compaction::exec::{Planned, UnitOutput};
use crate::error::Result;
use crate::types::KeyRange;
use crate::version::FileMeta;

/// A user-key interval claimed at `level` by running job `job`.
#[derive(Debug, Clone)]
pub(crate) struct RangeClaim {
    pub(crate) job: u64,
    pub(crate) level: usize,
    pub(crate) lo: Vec<u8>,
    pub(crate) hi: Vec<u8>,
}

/// One queued subcompaction unit; `range == None` means the full key
/// space (the unsplit case and the first unit of a split).
#[derive(Debug)]
pub(crate) struct SubUnit {
    pub(crate) idx: usize,
    pub(crate) range: Option<KeyRange>,
}

/// The in-flight split merge (at most one at a time; a second split-able
/// job runs its units sequentially on its own coordinator instead).
pub(crate) struct SubBatch {
    /// The split job's plan: every unit opens the same input tables,
    /// restricted to its own key range.
    pub(crate) planned: Arc<Planned>,
    /// Units not yet posted to `results`.
    pub(crate) remaining: usize,
    pub(crate) results: Vec<(usize, Result<UnitOutput>)>,
}

/// Carves a merge's key space into up to `max` disjoint subcompaction
/// ranges, cutting only at input-table smallest-key boundaries. Every
/// input entry falls in exactly one range, and because the merge loop's
/// shadowing state resets at user-key boundaries (and smallest keys *are*
/// user-key boundaries), merging the ranges independently keeps exactly
/// the entries an unsplit merge would. Returns `vec![None]` (one
/// unrestricted unit) when there is nothing to split on.
pub(crate) fn split_merge_ranges(
    upper: &[FileMeta],
    lower: &[FileMeta],
    max: usize,
) -> Vec<Option<KeyRange>> {
    let mut bounds: Vec<Vec<u8>> = upper
        .iter()
        .chain(lower)
        .map(|m| m.smallest_ukey().to_vec())
        .collect();
    bounds.sort();
    bounds.dedup();
    // The global minimum is not a cut — everything below the first cut
    // already belongs to unit 0.
    if !bounds.is_empty() {
        bounds.remove(0);
    }
    let units = max.min(bounds.len() + 1);
    if units <= 1 {
        return vec![None];
    }
    let mut cuts: Vec<Vec<u8>> = Vec::with_capacity(units - 1);
    for i in 1..units {
        // Evenly spread, strictly increasing because `bounds` is strictly
        // sorted and `i * len / units` is strictly monotone for len >= units-1.
        if let Some(cut) = bounds.get(i * bounds.len() / units) {
            cuts.push(cut.clone());
        }
    }
    let mut ranges = Vec::with_capacity(units);
    let mut lo: Vec<u8> = Vec::new(); // empty = -inf
    for cut in &cuts {
        ranges.push(Some(KeyRange {
            lo: std::mem::take(&mut lo),
            hi: Some(cut.clone()),
        }));
        lo = cut.clone();
    }
    ranges.push(Some(KeyRange { lo, hi: None }));
    ranges
}

/// Everything the pool synchronizes on, guarded by `lsm/scheduler::state`.
pub(crate) struct SchedState {
    /// Set by foreground signals and job installs; consumed (one plan
    /// attempt) per worker wakeup.
    pub(crate) work_hint: bool,
    /// A worker owns the pending immutable-memtable flush.
    pub(crate) flush_inflight: bool,
    /// Compaction jobs currently claimed (planned but not yet installed).
    pub(crate) compactions_inflight: usize,
    /// Input file numbers of running jobs (live tables and frozen slice
    /// sources alike).
    pub(crate) inflight_inputs: HashSet<u64>,
    /// Per-level output/input range claims of running jobs.
    pub(crate) claims: Vec<RangeClaim>,
    /// The policy returned no task against the version current at
    /// `completed`; cleared by every install. Stall gates use this to
    /// detect "no progress possible" (the inline pump's break condition).
    pub(crate) policy_idle: bool,
    /// Monotone count of installed (or aborted) jobs.
    pub(crate) completed: u64,
    /// Next job id.
    next_job: u64,
    /// Queued subcompaction units of `sub`.
    pub(crate) subqueue: VecDeque<SubUnit>,
    /// The active split merge, if any.
    pub(crate) sub: Option<SubBatch>,
}

impl SchedState {
    pub(crate) fn next_job(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    /// Any job claimed or unit outstanding?
    pub(crate) fn busy(&self) -> bool {
        self.flush_inflight
            || self.compactions_inflight > 0
            || self.sub.is_some()
            || !self.subqueue.is_empty()
    }

    /// Would a job over `inputs` with per-level `ranges` overlap a
    /// running job? `ranges` entries are `(level, lo, hi)` inclusive
    /// user-key intervals.
    pub(crate) fn conflicts(&self, inputs: &[u64], ranges: &[(usize, Vec<u8>, Vec<u8>)]) -> bool {
        if inputs.iter().any(|n| self.inflight_inputs.contains(n)) {
            return true;
        }
        ranges.iter().any(|(level, lo, hi)| {
            self.claims.iter().any(|c| {
                c.level == *level
                    && c.lo.as_slice() <= hi.as_slice()
                    && lo.as_slice() <= c.hi.as_slice()
            })
        })
    }

    /// Claims `inputs` and `ranges` for a new job, returning its id.
    /// Callers must have checked [`SchedState::conflicts`] first.
    pub(crate) fn claim(&mut self, inputs: &[u64], ranges: Vec<(usize, Vec<u8>, Vec<u8>)>) -> u64 {
        let job = self.next_job();
        self.inflight_inputs.extend(inputs.iter().copied());
        self.compactions_inflight += 1;
        for (level, lo, hi) in ranges {
            self.claims.push(RangeClaim { job, level, lo, hi });
        }
        job
    }

    /// Releases a job's claims (on install, abort, or failure).
    pub(crate) fn release(&mut self, job: u64, inputs: &[u64]) {
        for n in inputs {
            self.inflight_inputs.remove(n);
        }
        self.claims.retain(|c| c.job != job);
        self.compactions_inflight = self.compactions_inflight.saturating_sub(1);
    }
}

/// The worker pool. Lives on every [`crate::db::Db`]; dormant (no threads,
/// `active() == false`, zero steady-state overhead beyond one relaxed
/// atomic load per write) unless `Options::background_workers >= 1` *and*
/// the owner called `Db::start_workers`.
pub struct CompactionScheduler {
    /// Configured thread count.
    pub(crate) workers: usize,
    /// Threads are running; checked (relaxed) on every write to pick the
    /// inline vs. pool path.
    pub(crate) started: AtomicBool,
    /// Ask the workers to exit at their next park point.
    pub(crate) shutdown: AtomicBool,
    pub(crate) state: Mutex<SchedState>,
    /// Workers park here for job signals (paired with `state`).
    pub(crate) work_cv: Condvar,
    /// A split-merge coordinator parks here for unit results (paired with
    /// `state`).
    pub(crate) subs_cv: Condvar,
    /// Foreground stall gates park here for job installs (paired with the
    /// `lsm/db::core` mutex, *not* `state`).
    pub(crate) done_cv: Condvar,
    /// Join handles; populated by `start`, drained by `shutdown`.
    pub(crate) threads: Mutex<Vec<JoinHandle<()>>>,
}

impl CompactionScheduler {
    pub(crate) fn new(workers: usize) -> CompactionScheduler {
        CompactionScheduler {
            workers,
            started: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            state: Mutex::new(
                "lsm/scheduler::state",
                SchedState {
                    work_hint: false,
                    flush_inflight: false,
                    compactions_inflight: 0,
                    inflight_inputs: HashSet::new(),
                    claims: Vec::new(),
                    policy_idle: false,
                    completed: 0,
                    next_job: 0,
                    subqueue: VecDeque::new(),
                    sub: None,
                },
            ),
            work_cv: Condvar::new(),
            subs_cv: Condvar::new(),
            done_cv: Condvar::new(),
            threads: Mutex::new("lsm/scheduler::threads", Vec::new()),
        }
    }

    /// Whether worker threads are running (the write path's mode switch).
    pub(crate) fn active(&self) -> bool {
        self.started.load(Ordering::Relaxed)
    }

    /// Asks every worker to exit, wakes them, and joins. Idempotent; safe
    /// to call with no pool started.
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let _st = self.state.lock();
            self.work_cv.notify_all();
            self.subs_cv.notify_all();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            // A worker that panicked (e.g. a lockcheck violation) already
            // latched nothing we can save; don't double-panic the caller.
            let _ = h.join();
        }
        self.started.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st() -> SchedState {
        SchedState {
            work_hint: false,
            flush_inflight: false,
            compactions_inflight: 0,
            inflight_inputs: HashSet::new(),
            claims: Vec::new(),
            policy_idle: false,
            completed: 0,
            next_job: 0,
            subqueue: VecDeque::new(),
            sub: None,
        }
    }

    #[test]
    fn conflicts_on_shared_inputs() {
        let mut s = st();
        s.claim(&[7, 9], vec![]);
        assert!(s.conflicts(&[9], &[]));
        assert!(!s.conflicts(&[8], &[]));
    }

    #[test]
    fn conflicts_on_overlapping_ranges_same_level_only() {
        let mut s = st();
        let job = s.claim(&[1], vec![(2, b"d".to_vec(), b"m".to_vec())]);
        // Overlap at the claimed level conflicts.
        assert!(s.conflicts(&[2], &[(2, b"a".to_vec(), b"e".to_vec())]));
        assert!(s.conflicts(&[2], &[(2, b"m".to_vec(), b"z".to_vec())]));
        // Disjoint interval at the same level is fine.
        assert!(!s.conflicts(&[2], &[(2, b"n".to_vec(), b"z".to_vec())]));
        // Same interval at another level is fine.
        assert!(!s.conflicts(&[2], &[(3, b"d".to_vec(), b"m".to_vec())]));
        s.release(job, &[1]);
        assert!(!s.conflicts(&[1], &[(2, b"a".to_vec(), b"e".to_vec())]));
        assert!(!s.busy());
    }

    #[test]
    fn release_only_drops_own_claims() {
        let mut s = st();
        let a = s.claim(&[1], vec![(1, b"a".to_vec(), b"c".to_vec())]);
        let b = s.claim(&[2], vec![(1, b"x".to_vec(), b"z".to_vec())]);
        s.release(a, &[1]);
        assert!(!s.conflicts(&[1], &[(1, b"a".to_vec(), b"c".to_vec())]));
        assert!(s.conflicts(&[3], &[(1, b"y".to_vec(), b"y".to_vec())]));
        s.release(b, &[2]);
        assert_eq!(s.compactions_inflight, 0);
    }
}
