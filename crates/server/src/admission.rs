//! Bounded per-shard admission queues with deterministic backpressure.
//!
//! Each shard worker lane drains one bounded queue. Admission is
//! `try_send`: when the queue is full the request is *rejected
//! immediately* with an `Overloaded` status and a retry-after hint —
//! the server never blocks a connection reader on a saturated shard and
//! never buffers unboundedly. Rejection is deterministic in queue state
//! (full ⇒ reject), which keeps overload tests and closed-loop reruns
//! reproducible.
//!
//! Counters live in [`ShardState`] (lock-free atomics) and nowhere else;
//! they surface through the wire `Stats` op (`LdcServer::stats_snapshot`).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

use ldc_client::proto::ShardStat;

/// Lock-free admission counters for one shard lane.
#[derive(Debug)]
pub struct ShardState {
    capacity: u32,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    depth: AtomicU32,
    depth_high_water: AtomicU32,
}

impl ShardState {
    fn new(capacity: u32) -> Self {
        Self {
            capacity,
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            depth: AtomicU32::new(0),
            depth_high_water: AtomicU32::new(0),
        }
    }

    /// Current queue depth.
    pub fn depth(&self) -> u32 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Snapshot for the wire `Stats` reply.
    pub fn stat(&self) -> ShardStat {
        ShardStat {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed),
            capacity: self.capacity,
            depth_high_water: self.depth_high_water.load(Ordering::Relaxed),
        }
    }

    fn on_admit(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Called by the worker when it picks a job off the queue.
    pub fn on_dequeue(&self) {
        // Saturating: maintenance jobs injected without admission
        // accounting must not underflow the gauge.
        let _ = self
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Called by the worker after a job is fully served.
    pub fn on_complete(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The sending side of one shard's bounded job queue.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    tx: SyncSender<T>,
    state: Arc<ShardState>,
}

// Derived Clone would require T: Clone; the queue itself is always
// clonable (it only clones the sender and the counter handle).
impl<T> Clone for AdmissionQueue<T> {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

impl<T> AdmissionQueue<T> {
    /// A bounded queue of `capacity` (clamped to ≥ 1) plus the worker's
    /// receiving end.
    pub fn new(capacity: usize) -> (Self, Receiver<T>) {
        let capacity = capacity.max(1);
        let (tx, rx) = sync_channel(capacity);
        let queue = Self {
            tx,
            state: Arc::new(ShardState::new(capacity as u32)),
        };
        (queue, rx)
    }

    /// Shared counters.
    pub fn state(&self) -> &Arc<ShardState> {
        &self.state
    }

    /// Non-blocking admission. `Err(job)` hands the job back when the
    /// queue is full (or the worker is gone); the caller answers
    /// `Overloaded` with a retry hint.
    pub fn try_admit(&self, job: T) -> Result<(), T> {
        match self.tx.try_send(job) {
            Ok(()) => {
                self.state.on_admit();
                Ok(())
            }
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                self.state.on_reject();
                Err(job)
            }
        }
    }

    /// Blocking send that bypasses admission accounting — for
    /// maintenance jobs (shard pause) that must reach the worker even
    /// under saturation. Returns `false` if the worker is gone.
    pub fn force(&self, job: T) -> bool {
        self.tx.send(job).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_when_full_and_counts() {
        let (queue, rx) = AdmissionQueue::new(2);
        assert!(queue.try_admit(1).is_ok());
        assert!(queue.try_admit(2).is_ok());
        // Full: rejected, job handed back.
        assert_eq!(queue.try_admit(3), Err(3));
        assert_eq!(queue.try_admit(4), Err(4));
        let stat = queue.state().stat();
        assert_eq!(stat.accepted, 2);
        assert_eq!(stat.rejected, 2);
        assert_eq!(stat.depth, 2);
        assert_eq!(stat.capacity, 2);
        assert_eq!(stat.depth_high_water, 2);

        // Draining restores capacity deterministically.
        assert_eq!(rx.recv().unwrap(), 1);
        queue.state().on_dequeue();
        queue.state().on_complete();
        assert!(queue.try_admit(5).is_ok());
        let stat = queue.state().stat();
        assert_eq!(stat.accepted, 3);
        assert_eq!(stat.completed, 1);
        assert_eq!(stat.depth, 2);
    }

    #[test]
    fn disconnected_worker_counts_as_rejection() {
        let (queue, rx) = AdmissionQueue::new(1);
        drop(rx);
        assert_eq!(queue.try_admit(9), Err(9));
        assert_eq!(queue.state().stat().rejected, 1);
        assert!(!queue.force(10));
    }

    #[test]
    fn capacity_zero_clamps_to_one() {
        let (queue, _rx) = AdmissionQueue::new(0);
        assert!(queue.try_admit(1).is_ok());
        assert_eq!(queue.try_admit(2), Err(2));
        assert_eq!(queue.state().stat().capacity, 1);
    }

    #[test]
    fn dequeue_never_underflows() {
        let (queue, _rx) = AdmissionQueue::<u32>::new(4);
        queue.state().on_dequeue();
        assert_eq!(queue.state().depth(), 0);
    }
}
