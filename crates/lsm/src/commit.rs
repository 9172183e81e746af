//! Leader/follower group commit for the write path.
//!
//! Concurrent writers enqueue their batches into one queue. The first
//! writer to find no leader active becomes the **leader**: it drains
//! *every* queued batch (the deterministic "drain-all-queued" joining
//! rule), commits them as one WAL append + one sync, and distributes the
//! per-batch results. The other writers — **followers** — sleep on a
//! condvar until their result is posted.
//!
//! Determinism: a single-threaded caller always commits a group of
//! exactly one batch (its own), so the WAL byte stream and every virtual
//! clock charge are identical to a non-grouped write path. Grouping only
//! occurs when real threads overlap, where the engine promises
//! correctness, not timing reproducibility.
//!
//! This module uses [`ldc_obs::lockcheck`]'s rank-witnessed `Mutex` +
//! `Condvar` (id `lsm/commit::state` in `crates/lint/lock_order.toml`).
//! The lockcheck types never poison: the queue state is a plain value
//! and every transition is a single atomic critical section, so a
//! panicking writer leaves it consistent.

use std::collections::HashMap;

use ldc_obs::lockcheck::{Condvar, Mutex, MutexGuard};

use crate::batch::WriteBatch;
use crate::error::Result;

/// A writer's position in the commit queue.
pub(crate) type Ticket = u64;

/// Outcome of waiting on the queue.
pub(crate) enum Role {
    /// A leader committed this writer's batch; here is its result.
    Done(Result<()>),
    /// This writer was elected leader and now owns every queued batch
    /// (its own included). It must commit them and call
    /// [`CommitQueue::finish`].
    Leader(Vec<(Ticket, WriteBatch)>),
}

#[derive(Default)]
struct QueueState {
    next_ticket: Ticket,
    /// Batches awaiting a leader, in enqueue order.
    queue: Vec<(Ticket, WriteBatch)>,
    /// Whether a leader is currently committing a group.
    leader_active: bool,
    /// Results posted for followers, keyed by ticket.
    results: HashMap<Ticket, Result<()>>,
    /// Writers asleep on `ready`. A writer counts itself in before the wait
    /// releases the lock, so a leader that finds zero under that lock has
    /// nobody to wake — and a lone writer's commit skips the notify, which
    /// is a system call whether or not anyone is listening.
    parked: usize,
}

/// The write-group queue; see the module docs.
pub(crate) struct CommitQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl CommitQueue {
    pub(crate) fn new() -> Self {
        CommitQueue {
            state: Mutex::new("lsm/commit::state", QueueState::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock()
    }

    /// Enqueues `batch` and returns the ticket identifying its result.
    pub(crate) fn enqueue(&self, batch: WriteBatch) -> Ticket {
        let mut st = self.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push((ticket, batch));
        ticket
    }

    /// Blocks until `ticket`'s result is posted or this caller is elected
    /// leader.
    ///
    /// Invariant: a batch leaves the queue only when a leader drains it,
    /// and that leader posts the batch's result *before* clearing the
    /// leader flag (one critical section in [`CommitQueue::finish`]). So a
    /// waiter that observes "no result, no leader" still has its batch in
    /// the queue and can safely lead.
    pub(crate) fn wait(&self, ticket: Ticket) -> Role {
        let mut st = self.lock();
        loop {
            if let Some(result) = st.results.remove(&ticket) {
                return Role::Done(result);
            }
            if !st.leader_active {
                st.leader_active = true;
                let group = std::mem::take(&mut st.queue);
                debug_assert!(group.iter().any(|(t, _)| *t == ticket));
                return Role::Leader(group);
            }
            st.parked += 1;
            st = st.wait(&self.ready);
            st.parked -= 1;
        }
    }

    /// Posts the group's results, steps down as leader, and wakes every
    /// waiter there is (followers collect results; one of the rest is
    /// elected the next leader). `result_of` tells each batch its result,
    /// in ticket order; the leader's own (ticket `own`) is returned. The
    /// drained `group` vector becomes the queue again when nobody queued
    /// behind the leader, so a lone writer's next enqueue does not allocate.
    pub(crate) fn finish(
        &self,
        own: Ticket,
        mut group: Vec<(Ticket, WriteBatch)>,
        result_of: impl Fn(&WriteBatch) -> Result<()>,
    ) -> Result<()> {
        let mut own_result = Ok(());
        let waiters = {
            let mut st = self.lock();
            for (ticket, batch) in group.drain(..) {
                let result = result_of(&batch);
                if ticket == own {
                    own_result = result;
                } else {
                    st.results.insert(ticket, result);
                }
            }
            if st.queue.is_empty() {
                st.queue = group;
            }
            st.leader_active = false;
            st.parked
        };
        if waiters > 0 {
            self.ready.notify_all();
        }
        own_result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(key: &[u8]) -> WriteBatch {
        let mut b = WriteBatch::new();
        b.put(key, b"v");
        b
    }

    #[test]
    fn single_writer_leads_its_own_batch() {
        let q = CommitQueue::new();
        let t = q.enqueue(batch(b"a"));
        match q.wait(t) {
            Role::Leader(group) => {
                assert_eq!(group.len(), 1);
                assert_eq!(group[0].0, t);
                assert!(q.finish(t, group, |_| Ok(())).is_ok());
            }
            Role::Done(_) => panic!("first writer must lead"),
        }
        // The queue is reusable after the leader steps down, and it is the
        // leader's group vector: the second enqueue does not regrow it.
        assert!(q.lock().queue.capacity() >= 1);
        let t2 = q.enqueue(batch(b"b"));
        assert!(matches!(q.wait(t2), Role::Leader(_)));
    }

    #[test]
    fn leader_drains_all_queued_batches() {
        let q = CommitQueue::new();
        let t1 = q.enqueue(batch(b"a"));
        let t2 = q.enqueue(batch(b"b"));
        let t3 = q.enqueue(batch(b"c"));
        match q.wait(t1) {
            Role::Leader(group) => {
                let tickets: Vec<Ticket> = group.iter().map(|(t, _)| *t).collect();
                assert_eq!(tickets, vec![t1, t2, t3]);
                q.finish(t1, group, |_| Ok(())).unwrap();
            }
            Role::Done(_) => panic!("must lead"),
        }
        // Followers find their results without leading.
        assert!(matches!(q.wait(t2), Role::Done(Ok(()))));
        assert!(matches!(q.wait(t3), Role::Done(Ok(()))));
    }

    #[test]
    fn finish_posts_each_batch_its_own_result() {
        let q = CommitQueue::new();
        let lead = q.enqueue(batch(b"a"));
        let empty = q.enqueue(WriteBatch::new());
        let full = q.enqueue(batch(b"b"));
        let Role::Leader(group) = q.wait(lead) else {
            panic!("first writer must lead");
        };
        let own = q.finish(lead, group, |b| {
            if b.is_empty() {
                Ok(())
            } else {
                Err(crate::error::Error::InvalidState("refused".into()))
            }
        });
        assert!(own.is_err());
        assert!(matches!(q.wait(empty), Role::Done(Ok(()))));
        assert!(matches!(q.wait(full), Role::Done(Err(_))));
    }

    #[test]
    fn concurrent_writers_all_commit() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let q = Arc::new(CommitQueue::new());
        let committed = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let q = Arc::clone(&q);
                let committed = Arc::clone(&committed);
                s.spawn(move || {
                    let t = q.enqueue(batch(&i.to_be_bytes()));
                    match q.wait(t) {
                        Role::Done(r) => r.unwrap(),
                        Role::Leader(group) => {
                            committed.fetch_add(group.len() as u64, Ordering::SeqCst);
                            q.finish(t, group, |_| Ok(())).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(committed.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn finish_wakes_a_parked_follower() {
        let q = CommitQueue::new();
        let lead = q.enqueue(batch(b"a"));
        let Role::Leader(group) = q.wait(lead) else {
            panic!("first writer must lead");
        };
        // Nobody is parked: this is the commit that skips the notify.
        assert_eq!(q.lock().parked, 0);
        std::thread::scope(|s| {
            let follower = s.spawn(|| {
                let t = q.enqueue(batch(b"b"));
                q.wait(t)
            });
            // The follower counts itself in under the lock its wait then
            // releases, so once the count shows here it is asleep (or about
            // to be, with the wake-up below queued behind the same lock).
            while q.lock().parked == 0 {
                std::thread::yield_now();
            }
            q.finish(lead, group, |_| Ok(())).unwrap();
            // Its batch came after the leader's drain: woken, it finds no
            // result and no leader, and leads its own group.
            match follower.join().unwrap() {
                Role::Leader(group) => assert_eq!(group.len(), 1),
                Role::Done(_) => panic!("nobody committed the follower's batch"),
            }
        });
        assert_eq!(q.lock().parked, 0);
    }
}
