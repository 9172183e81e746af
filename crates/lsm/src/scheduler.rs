//! Background worker pool for flush and compaction.
//!
//! With `Options::background_workers >= 1`, the engine stops driving
//! background work inline on the write path (`db/lane.rs`, the inline
//! driver) and instead signals this scheduler: N dedicated
//! worker threads drive the same three-stage executor
//! (`crate::compaction::exec`: plan → run → install) — planning and
//! claiming one job at a time under the core lock, running its
//! reads/merge/writes without any engine lock held, and installing the
//! result under the core lock as one atomic `VersionEdit`. A job is one
//! run of the executor, exactly as inline; the pool's parallelism is
//! across jobs on disjoint key ranges, never inside one.
//!
//! This module is the whole pool driver: the state it synchronizes on
//! (private — nothing outside reads a field or touches a condvar), the
//! worker loop, and the write path's side of it. The rest of the engine
//! uses six verbs: `active` (which driver?), `signal`,
//! `threaded_write_gates`, `wait_flush_job`, `drain_background_threaded`,
//! and `start_workers` / `shutdown_workers`. The stages themselves are
//! shared with the inline driver. A worker parks on `work_cv` until a work
//! hint — a commit, a stall gate, a drain, an install, or the start of the
//! pool — and then takes one job of whatever the policy picks.
//!
//! # Conflict tracking
//!
//! Two jobs must never touch overlapping key ranges of the same output
//! level, and no file may be the input of two jobs at once. `SchedState`
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
//! docs of `db/write.rs`).
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
//! Condvar pairing: `work_cv` pairs with `state`; `done_cv`
//! pairs with the **core** mutex — foreground stall gates wait on it via
//! `MutexGuard::wait_timeout` so workers can take the core and install.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ldc_obs::lockcheck::{Condvar, Mutex, MutexGuard};
use ldc_obs::TraceCtx;
use ldc_ssd::Nanos;

use crate::compaction::exec::{RunOutput, TaskClock};
use crate::db::{Db, DbCore, Gate, L0_SLOWDOWN_DELAY_NS};
use crate::error::Result;

/// A user-key interval claimed at `level` by running job `job`.
#[derive(Debug, Clone)]
struct RangeClaim {
    job: u64,
    level: usize,
    lo: Vec<u8>,
    hi: Vec<u8>,
}

/// Everything the pool synchronizes on, guarded by `lsm/scheduler::state`.
#[derive(Default)]
struct SchedState {
    /// Set by foreground signals and job installs; consumed (one plan
    /// attempt) per worker wakeup.
    work_hint: bool,
    /// A worker owns the pending immutable-memtable flush.
    flush_inflight: bool,
    /// Compaction jobs currently claimed (planned but not yet installed).
    compactions_inflight: usize,
    /// Input file numbers of running jobs (live tables and frozen slice
    /// sources alike).
    inflight_inputs: HashSet<u64>,
    /// Per-level output/input range claims of running jobs.
    claims: Vec<RangeClaim>,
    /// The policy had no task against the version current at `completed`;
    /// reset by every claim and install. Stall gates and the drain break
    /// on it ("no progress possible", the inline pump's break condition).
    policy_empty: bool,
    /// Monotone count of installed (or aborted) jobs.
    completed: u64,
    /// Next job id.
    next_job: u64,
}

impl SchedState {
    fn next_job(&mut self) -> u64 {
        self.next_job += 1;
        self.next_job
    }

    /// Is a flush or a compaction claimed?
    fn busy(&self) -> bool {
        self.flush_inflight || self.compactions_inflight > 0
    }

    /// Would a job over `inputs` with per-level `ranges` overlap a
    /// running job? `ranges` entries are `(level, lo, hi)` inclusive
    /// user-key intervals.
    fn conflicts(&self, inputs: &[u64], ranges: &[(usize, Vec<u8>, Vec<u8>)]) -> bool {
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
    fn claim(&mut self, inputs: &[u64], ranges: Vec<(usize, Vec<u8>, Vec<u8>)>) -> u64 {
        let job = self.next_job();
        self.inflight_inputs.extend(inputs.iter().copied());
        self.compactions_inflight += 1;
        for (level, lo, hi) in ranges {
            self.claims.push(RangeClaim { job, level, lo, hi });
        }
        job
    }

    /// Releases a job's claims (on install, abort, or failure).
    fn release(&mut self, job: u64, inputs: &[u64]) {
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
/// the owner called `Db::start_workers`. Everything inside is private to
/// this module; the write path reaches it through `active`, `signal` and
/// the `Db` methods below.
pub struct CompactionScheduler {
    /// Configured thread count.
    workers: usize,
    /// Threads are running; checked (relaxed) once per commit to pick the
    /// inline vs. pool driver.
    started: AtomicBool,
    /// Ask the workers to exit at their next park point.
    shutdown: AtomicBool,
    state: Mutex<SchedState>,
    /// Workers park here for job signals (paired with `state`).
    work_cv: Condvar,
    /// Foreground stall gates park here for job installs (paired with the
    /// `lsm/db::core` mutex, *not* `state`).
    done_cv: Condvar,
    /// Join handles; populated by `start`, drained by `shutdown`.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The foreground's waits on `done_cv` (stall gates, flush wait, drain).
/// The timeout is a lost-wakeup / progress backstop; installs notify
/// while holding the core, so the normal path wakes immediately.
const GATE_RECHECK: Duration = Duration::from_millis(2);

impl CompactionScheduler {
    pub(crate) fn new(workers: usize) -> CompactionScheduler {
        CompactionScheduler {
            workers,
            started: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            state: Mutex::new("lsm/scheduler::state", SchedState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            threads: Mutex::new("lsm/scheduler::threads", Vec::new()),
        }
    }

    /// Whether worker threads are running (the write path's mode switch).
    pub(crate) fn active(&self) -> bool {
        self.started.load(Ordering::Relaxed)
    }

    /// Marks work pending and wakes one worker. Called with the core lock
    /// held (rank 60 → state's rank 65 is a legal forward acquisition).
    pub(crate) fn signal(&self) {
        let mut st = self.state.lock();
        st.work_hint = true;
        self.work_cv.notify_one();
    }

    /// Marks work pending, wakes every worker, and reports whether the
    /// pool is out of work: nothing running and the policy had no task
    /// for the current version — so waiting on it cannot help.
    fn wake_all(&self) -> bool {
        let mut st = self.state.lock();
        st.work_hint = true;
        self.work_cv.notify_all();
        st.policy_empty && !st.busy()
    }

    /// Asks every worker to exit, wakes them, and joins. Idempotent; safe
    /// to call with no pool started.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let st = self.state.lock();
        self.work_cv.notify_all();
        drop(st);
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.threads.lock());
        for h in handles {
            // A worker that panicked (e.g. a lockcheck violation) already
            // latched nothing we can save; don't double-panic the caller.
            let _ = h.join();
        }
        self.started.store(false, Ordering::SeqCst);
    }
}

/// The pool driver: what runs the executor's stages on worker threads,
/// and the write path's gates against it.
impl Db {
    /// Spawns the `options.background_workers` worker threads. A no-op if
    /// the option is 0 or the pool already runs. While active, the write
    /// path signals the pool instead of pumping inline; runs are
    /// linearizable but not timing-reproducible. Call
    /// [`Db::shutdown_workers`] before dropping the last handle you plan
    /// to reopen from quickly — otherwise parked threads keep the `Arc`
    /// (and the store) alive until process exit. The pool starts with one
    /// work hint armed, so a tree opened with work pending gets it done
    /// without waiting for a write.
    pub fn start_workers(self: &Arc<Self>) {
        if self.scheduler.workers == 0 || self.scheduler.active() {
            return;
        }
        let mut threads = self.scheduler.threads.lock();
        if !threads.is_empty() {
            return;
        }
        // A pool restarted after `shutdown_workers` must not find the
        // exit request of its previous incarnation still standing.
        self.scheduler.shutdown.store(false, Ordering::SeqCst);
        for i in 0..self.scheduler.workers {
            let db = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name(format!("ldc-bg-{i}"))
                .spawn(move || db.worker_main())
                // ldc-lint: allow(panic_safety) — spawn failing at startup has no degraded mode; an "active" pool with zero workers would deadlock the write gates
                .expect("spawn background worker");
            threads.push(handle);
        }
        drop(threads);
        self.scheduler.started.store(true, Ordering::SeqCst);
        self.scheduler.signal();
    }

    /// Stops and joins the worker pool. Idempotent. Pending background
    /// work is simply dropped — an unflushed memtable is still covered by
    /// its WAL, and uninstalled compaction outputs are orphans reclaimed
    /// by `repair_db`; nothing acknowledged is lost.
    pub fn shutdown_workers(&self) {
        if self.scheduler.active() {
            self.scheduler.stop();
        }
    }

    /// Whether the background worker pool is running.
    pub fn workers_active(&self) -> bool {
        self.scheduler.active()
    }

    /// The pool's write-entry gates: the L0 stop gate and the
    /// rotation-slot gate become waits on job completion (`done_cv`,
    /// paired with the core mutex — the wait releases the core so workers
    /// can install), attributed to `Blame::WorkerQueue`. The soft L0
    /// slowdown brake parks on the same condvar for up to the slowdown
    /// delay. Mirrors the inline gates' "no progress possible" break via
    /// the scheduler's `policy_empty` latch.
    pub(crate) fn threaded_write_gates<'a>(
        &self,
        mut core: MutexGuard<'a, DbCore>,
        trace: Option<&mut TraceCtx>,
    ) -> MutexGuard<'a, DbCore> {
        let clock = self.device.clock();
        let mut stall_t0: Option<Nanos> = None;
        while !core.failed() {
            let over_stop = core.l0_files() >= self.options.l0_stop_threshold;
            let rot_blocked =
                core.imm.is_some() && core.mem.approximate_bytes() >= self.options.memtable_bytes;
            if !over_stop && !rot_blocked {
                break;
            }
            if self.scheduler.wake_all() && core.imm.is_none() {
                break;
            }
            stall_t0.get_or_insert_with(|| clock.now());
            (core, _) = core.wait_timeout(&self.scheduler.done_cv, GATE_RECHECK);
        }
        if let Some(t0) = stall_t0 {
            self.record_gate(&mut core, trace, Gate::WorkerQueue, t0, clock.now());
        } else if !core.failed() && core.l0_files() >= self.options.l0_slowdown_threshold {
            // Soft brake: a real host-time pause (bounded by the slowdown
            // delay), released early by any job install. The virtual clock
            // is advanced by the model delay so event spans stay sane.
            let t0 = clock.now();
            self.scheduler.signal();
            let pause = Duration::from_nanos(L0_SLOWDOWN_DELAY_NS);
            (core, _) = core.wait_timeout(&self.scheduler.done_cv, pause);
            clock.advance(L0_SLOWDOWN_DELAY_NS);
            self.record_gate(&mut core, trace, Gate::L0Slowdown, t0, clock.now());
        }
        core
    }

    /// Waits out an in-flight worker flush job so the caller can run the
    /// inline flush path while holding the core continuously (no worker
    /// can claim `imm` without the core lock). No-op in inline mode.
    pub(crate) fn wait_flush_job<'a>(
        &self,
        mut core: MutexGuard<'a, DbCore>,
    ) -> MutexGuard<'a, DbCore> {
        while self.scheduler.active() && self.scheduler.state.lock().flush_inflight {
            (core, _) = core.wait_timeout(&self.scheduler.done_cv, GATE_RECHECK);
        }
        core
    }

    /// The pool's drain: signal it and wait until nothing is claimed, the
    /// `imm` slot is clear, and the policy reported no further work — or
    /// the engine latched an error. "Drained" names the same tree here as
    /// in the inline driver, whose drain pumps `pick` dry.
    pub(crate) fn drain_background_threaded(&self) -> Nanos {
        let t0 = self.device.clock().now();
        let mut core = self.core.lock();
        while !(core.failed() || (self.scheduler.wake_all() && core.imm.is_none())) {
            (core, _) = core.wait_timeout(&self.scheduler.done_cv, GATE_RECHECK);
        }
        self.publish_and_reap(&mut core);
        self.device.clock().now().saturating_sub(t0)
    }

    /// A worker thread's main loop: park on `work_cv` until a work hint,
    /// then take one whole job through the stages.
    fn worker_main(&self) {
        loop {
            let mut st = self.scheduler.state.lock();
            loop {
                if self.scheduler.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if std::mem::take(&mut st.work_hint) {
                    break;
                }
                st = st.wait(&self.scheduler.work_cv);
            }
            drop(st);
            self.run_one_job();
            // One scheduling point per job keeps a busy pool from
            // monopolizing a small machine between back-to-back picks.
            std::thread::yield_now();
        }
    }

    /// One job on a worker thread: plan and claim under the core lock,
    /// run without it, re-lock and install. Flush has priority (mirroring
    /// the inline pump); metadata-only tasks (trivial move, link) have
    /// nothing to run and install under the same lock hold that planned
    /// them.
    fn run_one_job(&self) {
        let mut core = self.core.lock();
        if core.failed() {
            return;
        }
        if let Some(imm) = core.imm.clone() {
            let mut st = self.scheduler.state.lock();
            let claimed = !st.flush_inflight;
            if claimed {
                st.flush_inflight = true;
                st.policy_empty = false;
            }
            drop(st);
            if claimed {
                // The memtable stays in `core.imm` (readers keep seeing
                // it) until its L0 table installs.
                drop(core);
                let clock = self.task_clock();
                let built = self.build_l0_table(&imm, &mut || self.locked_file_number());
                let mut core = self.core.lock();
                let result = built.and_then(|out| {
                    self.install_flush(&mut core, &imm, out, None, clock)?;
                    self.retire_imm(&mut core)
                });
                self.finish_job(&mut core, result, clock, None, true);
                return;
            }
        }
        let gen = self.scheduler.state.lock().completed;
        let Some(task) = self.pick_task(&mut core) else {
            let mut st = self.scheduler.state.lock();
            // Only latch empty if no job installed since the pick —
            // an install changes the version the policy judged.
            if st.completed == gen {
                st.policy_empty = true;
            }
            drop(st);
            // Stalled writers re-check `policy_empty` under the core lock
            // (which we hold), so this wake cannot be lost.
            self.scheduler.done_cv.notify_all();
            return;
        };
        let clock = self.task_clock();
        // A stale pick (an input vanished via quarantine or a concurrent
        // install) is dropped; the policy re-picks against the new version.
        let Ok(planned) = self.plan_task(&core, &task) else {
            return;
        };
        let mut st = self.scheduler.state.lock();
        let level = planned.level;
        // A move/link rewires metadata at `level`/`level + 1` without
        // a key range of its own — coarse but safe: defer it while
        // any job claims ranges there (its outputs could interleave).
        let conflict = st.conflicts(&planned.inputs, &planned.claims)
            || (planned.metadata_only()
                && st
                    .claims
                    .iter()
                    .any(|c| c.level == level || c.level == level + 1));
        if conflict {
            return;
        }
        if planned.metadata_only() {
            drop(st);
            let result = self.install(&mut core, &planned, RunOutput::default(), clock);
            self.finish_job(&mut core, result, clock, None, false);
            return;
        }
        st.policy_empty = false;
        let job = st.claim(&planned.inputs, planned.claims.clone());
        drop(st);
        drop(core);
        let out = self.run(&planned, &mut || self.locked_file_number());
        let mut core = self.core.lock();
        let result = out.and_then(|out| {
            // If an input vanished mid-run (quarantine), the job aborts
            // and its outputs stay as orphans for `repair_db`.
            if planned.inputs_live(&core.versions.current) {
                self.install(&mut core, &planned, out, clock)
            } else {
                Ok(())
            }
        });
        self.finish_job(
            &mut core,
            result,
            clock,
            Some((job, &planned.inputs)),
            false,
        );
    }

    /// The file-number allocator for run stages that do not hold the core.
    fn locked_file_number(&self) -> u64 {
        self.core.lock().versions.new_file_number()
    }

    /// The end of a worker's job, under the core lock it installed with:
    /// publish what the install changed — or, if it failed, quarantine a
    /// corrupt input when the policy allows (the policy then re-plans
    /// against the surviving version) and latch the error otherwise.
    /// Either way release the job's claims, bump `completed`, re-arm the
    /// work hint, and wake both the pool and any stalled writers.
    /// `done_cv` waiters check their predicates under the core, so
    /// notifying while the caller holds it cannot lose a wakeup.
    fn finish_job(
        &self,
        core: &mut DbCore,
        result: Result<()>,
        clock: TaskClock,
        claimed: Option<(u64, &[u64])>,
        flush: bool,
    ) {
        if let Err(e) = result.or_else(|e| self.abandon(core, clock, e)) {
            core.latch(e);
        }
        self.publish_and_reap(core);
        let mut st = self.scheduler.state.lock();
        if flush {
            st.flush_inflight = false;
        }
        if let Some((job, inputs)) = claimed {
            st.release(job, inputs);
        }
        st.completed += 1;
        st.policy_empty = false;
        st.work_hint = true;
        self.scheduler.work_cv.notify_all();
        drop(st);
        self.scheduler.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st() -> SchedState {
        SchedState::default()
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
    fn gates_and_drains_wait_until_the_policy_is_empty_and_nothing_runs() {
        let s = CompactionScheduler::new(2);
        assert!(!s.wake_all(), "nothing known about the policy yet");
        s.state.lock().policy_empty = true;
        assert!(s.wake_all(), "nothing left to wait for");
        s.state.lock().claim(&[1], vec![]);
        assert!(!s.wake_all(), "a claimed job is work");
        assert!(s.state.lock().work_hint);
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
