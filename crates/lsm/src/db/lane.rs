//! The inline driver: the modelled background thread of the default
//! (`background_workers = 0`) mode.
//!
//! Flushes and compaction tasks all go through one executor
//! (`crate::compaction::exec`): *plan* a task against the current
//! version, *run* its I/O, *install* the result as one version edit. A
//! driver only decides which thread calls those stages and how the core
//! lock is held around them. This one runs in virtual time:
//! [`Db::pump_background`] calls the three stages on the caller's thread
//! while it holds the core, so tasks execute *logically* immediately
//! (reads see their results like an installed version), and then books the
//! elapsed device time on a [`BgLane`]. The foreground feels that time
//! only through LevelDB's classic write gates — the 1 ms Level-0
//! slowdown, the Level-0 stop, and the wait for an immutable-memtable slot
//! at rotation — plus bandwidth contention on reads. Those gates are
//! exactly the paper's tail-latency model (Eq. 3): a write's latency is
//! the memtable insert plus however much compaction work it had to wait
//! for. Throughput is `ops / virtual seconds`. The other driver is the
//! worker pool (`crate::scheduler`, DESIGN.md §15).

use std::sync::atomic::{AtomicU64, Ordering};

use ldc_obs::TraceCtx;
use ldc_ssd::{Nanos, VirtualClock};

use super::{Db, DbCore, Gate, L0_SLOWDOWN_DELAY_NS};
use crate::compaction::exec::{plan, Planned, Planning, Stale, TaskClock};
use crate::compaction::{CompactionTask, PickContext};
use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::version::table_file_name;

/// The modelled background thread's timeline. Work booked here has
/// already executed; the lane only remembers how long the device will be
/// busy with it.
#[derive(Default)]
pub(super) struct BgLane {
    /// Virtual time until which the lane (flush + compaction + buffered
    /// WAL writeback) is busy.
    bg_until: AtomicU64,
    /// High-water mark (virtual ns) through which foreground reads have
    /// already been charged for background contention. Concurrent readers
    /// claim disjoint `[cursor, window_end)` slices via CAS so the same
    /// overlap is never double-charged — without this, each reader's
    /// contention `advance` inflates the next reader's window and the
    /// clock runs away exponentially under multi-threaded load.
    contended_until: AtomicU64,
}

impl BgLane {
    fn busy(&self, now: Nanos) -> bool {
        self.bg_until.load(Ordering::SeqCst) > now
    }

    /// Queues `cost` of device time behind whatever the lane already
    /// holds, starting no earlier than `from`. One read-modify-write:
    /// readers push the lane out with `fetch_add` without the core lock,
    /// and a separate load and store would drop an add landing between
    /// them.
    pub(super) fn occupy(&self, from: Nanos, cost: Nanos) {
        let _ = self
            .bg_until
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |bg| {
                Some(bg.max(from) + cost)
            });
    }

    /// Work that ran eagerly on the caller's thread since `t0`, when the
    /// lane was idle, becomes lane time: the clock goes back to `t0` and
    /// the lane is busy until where the clock had got to. A store, not an
    /// [`occupy`](Self::occupy): whatever concurrent readers pushed onto
    /// the lane meanwhile advanced the same clock, so it is already
    /// inside the elapsed time — adding it again compounds.
    fn book_since(&self, clock: &VirtualClock, t0: Nanos) {
        let t1 = clock.now();
        clock.rewind_to(t0);
        self.bg_until.store(t1.max(t0), Ordering::SeqCst);
    }

    /// Advances the clock to the end of the booked work.
    fn wait_idle(&self, clock: &VirtualClock) {
        let now = clock.now();
        let bg = self.bg_until.load(Ordering::SeqCst);
        if bg > now {
            clock.advance(bg - now);
        }
    }

    /// Charges a foreground read that started at `op_start` for sharing
    /// device bandwidth with active background work: both streams run at
    /// half speed during the overlap, so the read takes twice as long
    /// *and* the lane's drain is pushed out by the same amount.
    pub(super) fn charge_read_contention(&self, clock: &VirtualClock, op_start: Nanos) {
        let end = clock.now();
        let window_end = self.bg_until.load(Ordering::SeqCst).min(end);
        // Claim [start, window_end) exactly once across all readers: the
        // cursor CAS hands each slice of the contention window to exactly
        // one op. Single-threaded this is byte-identical to charging
        // `window_end - op_start` directly (the cursor always trails
        // op_start), which keeps same-seed runs reproducible.
        let mut claimed = self.contended_until.load(Ordering::SeqCst);
        loop {
            let start = op_start.max(claimed);
            if window_end <= start {
                return;
            }
            match self.contended_until.compare_exchange(
                claimed,
                window_end,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    let overlap = window_end - start;
                    clock.advance(overlap);
                    self.bg_until.fetch_add(overlap, Ordering::SeqCst);
                    return;
                }
                Err(current) => claimed = current,
            }
        }
    }
}

impl Db {
    /// One scheduling step of the simulated background thread.
    ///
    /// If the lane is idle, starts the next unit of work — the pending
    /// memtable flush first, otherwise one policy-picked compaction task.
    /// The work executes immediately (so all state changes are visible to
    /// subsequent reads, like a real background thread's results would be
    /// once installed), but its virtual time is booked on the lane: the
    /// clock is rewound and the lane extended. Foreground requests feel
    /// it only through the write gates and read contention.
    fn pump_background(&self, core: &mut DbCore) -> Result<()> {
        let t0 = self.device.clock().now();
        if self.lane.busy(t0) {
            return Ok(());
        }
        if core.imm.is_some() {
            self.flush_imm(core, None)?;
        } else {
            let Some(task) = self.pick_task(core) else {
                return Ok(()); // nothing to do
            };
            let clock = self.task_clock();
            if let Err(e) = self.compact_inline(core, &task, clock) {
                self.abandon(core, clock, e)?;
            }
        }
        self.lane.book_since(self.device.clock(), t0);
        Ok(())
    }

    /// The inline driver's half of a commit's entry: give the lane a
    /// turn, then LevelDB's Level-0 gates in escalating order of pain.
    pub(super) fn inline_entry_gates(
        &self,
        core: &mut DbCore,
        trace: Option<&mut TraceCtx>,
    ) -> Result<()> {
        self.pump_background(core)?;
        let clock = self.device.clock();
        let t0 = clock.now();
        if core.l0_files() >= self.options.l0_stop_threshold {
            // Hard stop: wait for background tasks until L0 drains below
            // the limit.
            while core.l0_files() >= self.options.l0_stop_threshold {
                self.lane.wait_idle(clock);
                let progress =
                    |core: &DbCore| (core.l0_files(), self.lane.bg_until.load(Ordering::SeqCst));
                let before = progress(core);
                self.pump_background(core)?;
                self.publish_and_reap(core);
                if before == progress(core) {
                    break; // no progress possible (policy is idle)
                }
            }
            self.record_gate(core, trace, Gate::L0Stop, t0, clock.now());
        } else if core.l0_files() >= self.options.l0_slowdown_threshold {
            clock.advance(L0_SLOWDOWN_DELAY_NS);
            let end = t0 + L0_SLOWDOWN_DELAY_NS;
            self.record_gate(core, trace, Gate::L0Slowdown, t0, end);
        }
        Ok(())
    }

    /// The inline driver's rotation: if the previous immutable memtable
    /// is still waiting for (or in) its flush, the writer waits for the
    /// slot — the paper's Eq. 3 tail event — then rotates and starts the
    /// new flush.
    pub(super) fn inline_rotate(
        &self,
        core: &mut DbCore,
        trace: Option<&mut TraceCtx>,
    ) -> Result<()> {
        if core.imm.is_some() {
            let clock = self.device.clock();
            let t0 = clock.now();
            // Let the lane finish its current task, then force the flush
            // through.
            self.lane.wait_idle(clock);
            self.pump_background(core)?; // starts the flush if still pending
            if core.imm.is_some() {
                // The lane picked something else first (cannot happen
                // with the flush-first pump, but stay safe): wait again.
                self.lane.wait_idle(clock);
                self.pump_background(core)?;
            }
            self.record_gate(core, trace, Gate::RotationWait, t0, clock.now());
        }
        self.rotate_memtable(core);
        self.pump_background(core) // start the flush if the lane is idle
    }

    /// Asks the policy for the next task against the current version. The
    /// policy also sees the foreground op totals, each read from its one
    /// home.
    pub(crate) fn pick_task(&self, core: &mut DbCore) -> Option<CompactionTask> {
        let ctx = PickContext {
            version: &core.versions.current,
            options: &self.options,
            compact_pointers: &core.versions.counters.compact_pointers,
            writes: core.stats.writes,
            reads: self.gets.load(Ordering::Relaxed) + self.scans.load(Ordering::Relaxed),
            sink: &*self.sink,
            now: self.device.clock().now(),
        };
        core.policy.pick(&ctx)
    }

    /// The inline executor: all three stages on the caller's thread, which
    /// holds the core throughout — so a stale pick is a policy bug.
    fn compact_inline(
        &self,
        core: &mut DbCore,
        task: &CompactionTask,
        clock: TaskClock,
    ) -> Result<()> {
        let planned = self
            .plan_task(core, task)
            .map_err(|Stale(why)| Error::InvalidState(why))?;
        let out = self.run(&planned, &mut || core.versions.new_file_number())?;
        self.install(core, &planned, out, clock)
    }

    /// Stage 1 against the core's current version and snapshot floor.
    pub(crate) fn plan_task(&self, core: &DbCore, task: &CompactionTask) -> Planning<Planned> {
        // The oldest sequence any live snapshot can observe (or the
        // current sequence when none is held). Captured at plan time, this
        // stays a safe lower bound for the whole job: new snapshots always
        // pin a sequence `>=` the one current when they were taken.
        let smallest_snapshot = core
            .snapshots
            .keys()
            .next()
            .copied()
            .unwrap_or(core.versions.counters.last_sequence);
        plan(
            &core.versions.current,
            &core.tables,
            task,
            smallest_snapshot,
        )
    }

    /// A task failed before it installed. Its device time still counts as
    /// compaction work. If an input turned out to be corrupt and the
    /// quarantine policy is on, the file is set aside and `Ok` returned:
    /// the policy re-plans against the surviving version, and partial
    /// outputs are orphans reclaimed by `repair_db`. Every other error
    /// comes back to the caller.
    pub(crate) fn abandon(&self, core: &mut DbCore, clock: TaskClock, err: Error) -> Result<()> {
        self.record_compaction_time(clock);
        match err {
            Error::Corruption(ref info) if self.try_quarantine(core, info)? => Ok(()),
            e => Err(e),
        }
    }

    /// Flushes the parked immutable memtable, if any, on the caller's
    /// thread: build, install, retire.
    pub(super) fn flush_imm(&self, core: &mut DbCore, log_number: Option<u64>) -> Result<()> {
        let Some(imm) = core.imm.clone() else {
            return Ok(());
        };
        self.flush_memtable(core, &imm, log_number)?;
        self.retire_imm(core)
    }

    /// Writes `mem` out as a Level-0 table and installs it, recording
    /// `log_number` (if given) as the WAL now in use.
    pub(super) fn flush_memtable(
        &self,
        core: &mut DbCore,
        mem: &MemTable,
        log_number: Option<u64>,
    ) -> Result<()> {
        let clock = self.task_clock();
        let out = self.build_l0_table(mem, &mut || core.versions.new_file_number())?;
        self.install_flush(core, mem, out, log_number, clock)
    }

    /// Clears the `imm` slot once its table is installed and deletes the
    /// WAL that covered it.
    pub(crate) fn retire_imm(&self, core: &mut DbCore) -> Result<()> {
        core.imm = None;
        if let Some(wal) = core.imm_wal_to_delete.take() {
            if self.storage.exists(&wal) {
                self.storage.delete(&wal)?;
            }
        }
        Ok(())
    }

    /// Publishes the core's state as the readers' view, then physically
    /// deletes the table files dropped from the version, once no read
    /// holds a pinned view that could still reference them. Runs at the
    /// end of every commit and after every task that a drain, the Level-0
    /// stop gate or a pool worker installs — the publish comes first, so
    /// any view pinned after the zero-pin check cannot name these files.
    /// The delete cost (a filesystem op per file) is booked on the
    /// background lane, like the compaction work that orphaned the files.
    /// A failed delete latches the background error.
    pub(crate) fn publish_and_reap(&self, core: &mut DbCore) {
        self.publish_view(core);
        if core.pending_deletes.is_empty() || self.read_pins.load(Ordering::SeqCst) != 0 {
            return;
        }
        let t0 = self.device.clock().now();
        let pending = std::mem::take(&mut core.pending_deletes);
        for number in pending {
            // A stale view may have read the file again since it was
            // dropped: its blocks go once more.
            self.block_cache.evict_file(number);
            let name = table_file_name(number);
            if self.storage.exists(&name) {
                if let Err(e) = self.storage.delete(&name) {
                    core.latch(e.into());
                }
            }
        }
        let t1 = self.device.clock().now();
        if t1 > t0 {
            self.device.clock().rewind_to(t0);
            self.lane.occupy(t0, t1 - t0);
        }
    }

    /// Advances the clock until the background lane is fully idle — the
    /// pending flush is done and the policy has no more work — returning
    /// the total wait. Harnesses call this at measurement boundaries so
    /// compaction debt is not silently dropped from throughput accounting.
    pub fn drain_background(&self) -> Nanos {
        if self.scheduler.active() {
            return self.drain_background_threaded();
        }
        let clock = self.device.clock();
        let t0 = clock.now();
        let mut core = self.core.lock();
        loop {
            self.lane.wait_idle(clock);
            let before = self.lane.bg_until.load(Ordering::SeqCst);
            // Fail-stop, for the reason `commit_group` gives: a failed
            // flush write or MANIFEST append must refuse later writes.
            let failed = self
                .pump_background(&mut core)
                .map_err(|e| core.latch(e))
                .is_err();
            // Each task's dropped tables go before the next task writes,
            // so old and new files do not pile up across the drain.
            self.publish_and_reap(&mut core);
            let idle = self.lane.bg_until.load(Ordering::SeqCst) == before && core.imm.is_none();
            if failed || idle {
                break; // failed, or lane idle and nothing started
            }
        }
        // The reap books lane time; absorb it so "drained" means idle.
        self.lane.wait_idle(clock);
        clock.now().saturating_sub(t0)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::Barrier;

    use super::BgLane;

    /// Writers `occupy` under the core lock while readers `fetch_add`
    /// their contention charge without it: no add may be lost.
    #[test]
    fn occupy_keeps_concurrent_contention_adds() {
        const K: u64 = 200_000;
        let lane = BgLane::default();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for _ in 0..K {
                    lane.occupy(0, 1);
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..K {
                    lane.bg_until.fetch_add(1, Ordering::SeqCst);
                }
            });
        });
        assert_eq!(lane.bg_until.load(Ordering::SeqCst), 2 * K);
    }
}
