//! The write path: group commit, one WAL append, memtable inserts,
//! rotation — and the bookkeeping of the write gates both drivers apply.
//!
//! Writers funnel through a leader/follower [`crate::commit::CommitQueue`]:
//! the leader drains *all* queued batches, commits them as one WAL append
//! under the core lock, republishes the view, and hands each follower its
//! result. Virtual-clock determinism is preserved because a
//! single-threaded caller always leads a group of exactly one batch,
//! producing byte- and time-identical traces to the non-grouped path.
//! Multithreaded runs promise linearizable correctness, not timing
//! reproducibility. See DESIGN.md §10 for the full model and lock order.
//!
//! Which driver does the background work — the inline lane (`lane.rs`) or
//! the worker pool (`crate::scheduler`) — is asked once per commit, in
//! [`Db::write_traced`]; everything below it takes the answer as `pooled`.

use std::sync::Arc;

use ldc_obs::{Blame, Event, EventKind, OpType, TraceCtx};
use ldc_ssd::{IoClass, Nanos, StorageBackend, TimeCategory, SYSCALL_OVERHEAD_NS, WRITE_BANDWIDTH};

use super::{Db, DbCore};
use crate::batch::WriteBatch;
use crate::commit::{Role, Ticket};
use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::options::ENGINE_SEED;
use crate::version::{log_file_name, VersionSet};
use crate::wal::LogWriter;

/// One of the write gates (the paper's Eq. 3 terms), as it is booked.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Gate {
    /// Level 0 at the stop threshold: waited for the inline lane.
    L0Stop,
    /// Level 0 in the slowdown band: the fixed delay.
    L0Slowdown,
    /// Waited for the immutable-memtable slot at rotation.
    RotationWait,
    /// Either stall, waited out on the worker pool's completion condvar.
    WorkerQueue,
}

/// What a leader tells each ticket of its group.
enum GroupOutcome {
    /// A latched background error: every ticket gets it, empty batches
    /// included.
    Refused(Error),
    /// The non-empty batches were committed as one, with this result;
    /// empty batches succeed.
    Committed(Result<()>),
}

impl GroupOutcome {
    fn for_batch(&self, batch: &WriteBatch) -> Result<()> {
        match self {
            GroupOutcome::Refused(e) => Err(e.clone()),
            GroupOutcome::Committed(_) if batch.is_empty() => Ok(()),
            GroupOutcome::Committed(outcome) => outcome.clone(),
        }
    }
}

/// What one write pays while Level 0 sits in the slowdown band: 1 ms,
/// LevelDB's classic value.
pub(crate) const L0_SLOWDOWN_DELAY_NS: Nanos = 1_000_000;

/// CPU cost modelled for inserting one entry into the memtable (the
/// constant `p` in the paper's Eq. 3).
const MEMTABLE_WRITE_NS: Nanos = 1_000;

/// Allocates a file number for a fresh WAL and opens its writer. A crashed
/// incarnation may have left a log at a number this one re-allocates (the
/// counter update never became durable); appending to it would shift the
/// writer's block accounting, so keep allocating until the name is free.
pub(super) fn fresh_wal(
    versions: &mut VersionSet,
    storage: &Arc<dyn StorageBackend>,
) -> (u64, LogWriter) {
    loop {
        let number = versions.new_file_number();
        let name = log_file_name(number);
        if !storage.exists(&name) {
            let wal = LogWriter::new(Arc::clone(storage), name, IoClass::WalWrite);
            return (number, wal);
        }
    }
}

impl Db {
    /// Inserts or overwrites `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.write_op(OpType::Put, WriteBatch::single_put(key, value))
    }

    /// Deletes `key` (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        self.write_op(OpType::Delete, WriteBatch::single_delete(key))
    }

    /// The envelope of a single-key foreground write: trace, commit,
    /// record the op's virtual latency.
    fn write_op(&self, op: OpType, batch: WriteBatch) -> Result<()> {
        let t0 = self.device.clock().now();
        let mut ctx = self.trace_start(op, t0);
        let result = self.write_traced(batch, ctx.as_mut());
        let end = self.device.clock().now();
        self.metrics.record_latency(op, end.saturating_sub(t0));
        self.trace_finish(ctx, end);
        result
    }

    /// Applies a batch atomically.
    ///
    /// Concurrent writers coalesce: each enqueues its batch, and the first
    /// to find no leader active commits *every* queued batch as one WAL
    /// append (the deterministic drain-all-queued rule), then distributes
    /// results. A single-threaded caller always leads a group of exactly
    /// one batch, so the WAL bytes and virtual-clock charges are identical
    /// to an ungrouped write.
    ///
    /// This is where the paper's tail latency comes from: a write normally
    /// costs only the WAL append and memtable insert, but when background
    /// flush/compaction lags it absorbs LevelDB's classic brakes — the 1 ms
    /// Level-0 slowdown, the Level-0 stop, and the wait for an immutable
    /// memtable slot at rotation.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_traced(batch, None)
    }

    /// [`Db::write`] with an optional trace context. A follower's entire
    /// wait is one [`Blame::GroupCommitWait`] span (the leader advanced the
    /// clock on its behalf); a leader's commit is broken down inside
    /// [`Db::commit_batch`].
    fn write_traced(&self, batch: WriteBatch, mut trace: Option<&mut TraceCtx>) -> Result<()> {
        let wait_t0 = if trace.is_some() {
            self.device.clock().now()
        } else {
            0
        };
        let ticket = self.commit.enqueue(batch);
        match self.commit.wait(ticket) {
            Role::Done(result) => {
                if let Some(t) = trace.as_deref_mut() {
                    let now = self.device.clock().now();
                    if now > wait_t0 {
                        t.span(Blame::GroupCommitWait, "follower_wait", wait_t0, now);
                    }
                }
                result
            }
            Role::Leader(group) => self.lead(ticket, group, trace),
        }
    }

    /// A leader's turn: commits `group` (its own batch, ticket `own`,
    /// among them) under the core lock, republishes the view, and posts
    /// every ticket's result.
    pub(super) fn lead(
        &self,
        own: Ticket,
        mut group: Vec<(Ticket, WriteBatch)>,
        mut trace: Option<&mut TraceCtx>,
    ) -> Result<()> {
        let mut core = self.core.lock();
        let pooled = self.scheduler.active();
        if pooled {
            // The pool's write gates are condvar waits on job completion
            // (they must release the core so workers can install), so they
            // run here where the guard is owned, before the commit proper.
            core = self.threaded_write_gates(core, trace.as_deref_mut());
        }
        let batches = group.iter_mut().map(|(_, batch)| batch);
        let outcome = self.commit_group(&mut core, batches, trace, pooled);
        self.publish_and_reap(&mut core);
        drop(core);
        self.commit
            .finish(own, group, |batch| outcome.for_batch(batch))
    }

    /// Commits the batches of one leader-drained group, in ticket order,
    /// under the core lock. The non-empty ones are merged in place into the
    /// first of them, committed atomically, and share one outcome. Empty
    /// batches succeed without side effects, exactly like the ungrouped
    /// path.
    fn commit_group<'g>(
        &self,
        core: &mut DbCore,
        batches: impl Iterator<Item = &'g mut WriteBatch>,
        trace: Option<&mut TraceCtx>,
        pooled: bool,
    ) -> GroupOutcome {
        if let Some(e) = &core.bg_error {
            return GroupOutcome::Refused(e.clone());
        }
        let mut batches = batches.filter(|batch| !batch.is_empty());
        let Some(batch) = batches.next() else {
            return GroupOutcome::Committed(Ok(()));
        };
        // A group of one is committed as-is — byte-identical WAL framing
        // to the ungrouped engine, which is what keeps single-threaded runs
        // deterministic.
        let mut group_size = 1;
        for follower in batches {
            batch.append(follower);
            group_size += 1;
        }
        let outcome = self.commit_batch(core, batch, group_size, trace, pooled);
        if let Err(e) = &outcome {
            // Fail-stop: a failed WAL/manifest append leaves that log's
            // record framing unknown, and appending more records after it
            // would make the file unrecoverable. Reads keep working.
            core.latch(e.clone());
        }
        GroupOutcome::Committed(outcome)
    }

    /// The grouped write path: gates, one WAL append, memtable inserts,
    /// and rotation, all in virtual time. `batch` is non-empty and holds
    /// the records of `group_size` coalesced batches.
    ///
    /// This is where the paper's tail latency comes from: a write normally
    /// costs only the WAL append and memtable insert, but when background
    /// flush/compaction lags it absorbs the driver's brakes.
    fn commit_batch(
        &self,
        core: &mut DbCore,
        batch: &mut WriteBatch,
        group_size: usize,
        mut trace: Option<&mut TraceCtx>,
        pooled: bool,
    ) -> Result<()> {
        if pooled {
            // The gates already ran in `threaded_write_gates`; just make
            // sure the pool knows there is work.
            self.scheduler.signal();
        } else {
            self.inline_entry_gates(core, trace.as_deref_mut())?;
        }

        // Foreground write: WAL + memtable. With `wal_sync` off (LevelDB's
        // default), the WAL append lands in the page cache and the device
        // write happens asynchronously — so its device time is booked on
        // the background lane, sharing bandwidth with flush/compaction,
        // while the foreground pays only the syscall-ish cost.
        let fg_start = self.device.clock().now();
        let seq = core.versions.counters.last_sequence + 1;
        batch.set_sequence(seq);
        let count = u64::from(batch.count());
        if self.options.wal_sync {
            let t0 = self.device.clock().now();
            let gc0 = if trace.is_some() {
                self.device.gc_busy_nanos()
            } else {
                0
            };
            core.wal.add_record(batch.encoded())?;
            core.wal.sync()?;
            if let Some(t) = trace.as_deref_mut() {
                let now = self.device.clock().now();
                if now > t0 {
                    t.span(Blame::WalSync, "wal_sync", t0, now);
                    // Any GC relocation the device squeezed into this sync
                    // is its own blame: the paper's write-amplification tax.
                    t.carve_from_last(
                        Blame::SsdGc,
                        "ssd_gc",
                        self.device.gc_busy_nanos().saturating_sub(gc0),
                    );
                }
            }
            if self.sink.enabled() {
                self.sink.record(
                    Event::span(EventKind::WalSync, t0, self.device.clock().now())
                        .bytes(batch.byte_size() as u64, 0),
                );
            }
        } else {
            let t0 = self.device.clock().now();
            core.wal.add_record(batch.encoded())?;
            self.device.clock().rewind_to(t0);
            // The async flush consumes device *bandwidth* (no per-append
            // setup latency — the kernel batches page writes), serialized
            // with flush/compaction on the background lane.
            let lane_cost =
                (batch.byte_size() as u64).saturating_mul(1_000_000_000) / WRITE_BANDWIDTH;
            self.lane.occupy(t0, lane_cost);
            // The buffered append still costs a syscall on the foreground
            // (clock only: it is not booked to the file-system ledger).
            self.device.clock().advance(SYSCALL_OVERHEAD_NS);
            if let Some(t) = trace.as_deref_mut() {
                t.span(
                    Blame::WalAppend,
                    "wal_append",
                    t0,
                    self.device.clock().now(),
                );
            }
        }
        let mem_t0 = if trace.is_some() {
            self.device.clock().now()
        } else {
            0
        };
        core.mem.apply(batch)?;
        self.device.clock().advance(MEMTABLE_WRITE_NS * count);
        if let Some(t) = trace.as_deref_mut() {
            t.span(
                Blame::Memtable,
                "memtable_insert",
                mem_t0,
                self.device.clock().now(),
            );
        }
        core.versions.counters.last_sequence = seq + count - 1;
        core.stats.writes += count;
        core.stats.user_bytes_written += batch.user_bytes();
        let fg_end = self.device.clock().now();
        self.device.ledger().record(
            TimeCategory::ForegroundWrite,
            fg_end.saturating_sub(fg_start),
        );
        if group_size > 1 {
            core.stats.write_groups += 1;
            core.stats.grouped_batches += group_size as u64;
            if self.sink.enabled() {
                self.sink.record(
                    Event::span(EventKind::GroupCommit, fg_start, fg_end)
                        .files(group_size as u32, 0)
                        .bytes(batch.byte_size() as u64, 0),
                );
            }
        }

        if core.mem.approximate_bytes() >= self.options.memtable_bytes {
            if pooled {
                // Rotate only if the `imm` slot is free and hand the flush
                // to the pool. When the slot is still occupied the
                // memtable simply overshoots its budget for this commit —
                // the next write's entry gate waits for the in-flight
                // flush (releasing the core) before proceeding.
                if core.imm.is_none() {
                    self.rotate_memtable(core);
                }
                self.scheduler.signal();
            } else {
                self.inline_rotate(core, trace)?;
            }
        }
        Ok(())
    }

    /// Books one write-gate wait over `[t0, end)`: the counters, the
    /// trace span, the event. A stall that waited for nothing is not one.
    pub(crate) fn record_gate(
        &self,
        core: &mut DbCore,
        trace: Option<&mut TraceCtx>,
        gate: Gate,
        t0: Nanos,
        end: Nanos,
    ) {
        // Event kind, blame bucket, span label, and whether the event is
        // tagged as a Level-0 condition (the rotation wait is not one).
        let (kind, blame, label, l0) = match gate {
            Gate::L0Stop => (EventKind::Stall, Blame::Stall, "l0_stop", true),
            Gate::RotationWait => (EventKind::Stall, Blame::Stall, "rotation_wait", false),
            Gate::WorkerQueue => (EventKind::Stall, Blame::WorkerQueue, "worker_queue", true),
            Gate::L0Slowdown => (EventKind::Slowdown, Blame::Slowdown, "l0_slowdown", true),
        };
        if kind == EventKind::Slowdown {
            core.stats.slowdowns += 1;
        } else if end > t0 {
            core.stats.stalls += 1;
            core.stats.stall_nanos += end - t0;
        } else {
            return;
        }
        if let Some(t) = trace {
            t.span(blame, label, t0, end);
        }
        if self.sink.enabled() {
            let event = Event::span(kind, t0, end);
            self.sink
                .record(if l0 { event.levels(0, 0) } else { event });
        }
    }

    /// Swaps in a fresh WAL and memtable, parking the full memtable (and
    /// the name of the WAL that covers it) in the `imm` slot, which must
    /// be free. Returns the new WAL's number.
    pub(super) fn rotate_memtable(&self, core: &mut DbCore) -> u64 {
        let (new_log_number, wal) = fresh_wal(&mut core.versions, &self.storage);
        let old_log = std::mem::replace(&mut core.wal, wal).name().to_string();
        let seed = ENGINE_SEED ^ core.versions.counters.next_file_number;
        let full = std::mem::replace(&mut core.mem, Arc::new(MemTable::new(seed)));
        core.imm = Some(full);
        core.imm_wal_to_delete = Some(old_log);
        new_log_number
    }
}
