//! Group commit: coalesce many sessions' committed WAL appends into one
//! fsync.
//!
//! ## Protocol
//!
//! Writers append their transaction's records (ending in `Commit`) under
//! the engine's exclusive commit lock, then [`GroupCommit::register`] a
//! *ticket* — a monotone sequence number whose order matches log order,
//! because both the appends and the registration happen inside the same
//! critical section. The writer then **releases the commit lock** and
//! calls [`GroupCommit::wait_durable`]: the first waiter whose ticket is
//! not yet durable elects itself *leader*, lingers up to `max_delay` (or
//! until `max_batch` commits have accumulated) so later commits can join
//! the batch, issues one fsync, and advances the durable watermark to
//! the last ticket that was appended before the fsync began. Everyone at
//! or below the watermark is acknowledged; the rest elect the next
//! leader.
//!
//! Because the fsync happens *outside* the commit lock, other writers
//! keep appending while the leader syncs — that overlap is where the
//! commits-per-fsync ratio above 1 comes from. A database nobody
//! acknowledges after the lock (a standalone one, or any commit that
//! makes a checkpoint due) runs the same protocol with the wait still
//! inside the critical section; at `max_batch` 1 / `max_delay` 0 that
//! is one fsync per commit with no linger.
//!
//! ## Failure semantics
//!
//! * An acknowledgement (an `Ok` return from `wait_durable`) is issued
//!   strictly after an fsync that covered the ticket — never before, so
//!   there are no phantom acks: a crash between the fsync and the ack
//!   can lose the *ack* but not the *commit*.
//! * A failed batch fsync poisons the queue: the affected tickets and
//!   every later one fail with the same error (the log's durable prefix
//!   is unknown past the watermark), while tickets already at or below
//!   the watermark still report success — their durability was
//!   established by an earlier fsync.
//! * A checkpoint (which materializes the overlay, fsyncs the data
//!   files, and atomically truncates the log) makes everything appended
//!   durable by other means; [`GroupCommit::mark_all_durable`] retires
//!   every outstanding ticket in that case.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tdbms_kernel::{Error, Result};

/// Batching knobs for [`GroupCommit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Fsync as soon as this many commits are waiting (minimum 1).
    pub max_batch: u32,
    /// ... or once the leader has lingered this long, whichever comes
    /// first. Zero means "fsync immediately with whatever has arrived".
    pub max_delay: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        }
    }
}

#[derive(Default)]
struct GcState {
    /// Tickets issued; ticket `n` covers the `n`-th registered commit.
    /// Registration order matches log order (both happen under the
    /// engine's commit lock), so "durable through ticket t" is exactly
    /// "the log's committed prefix includes commit t".
    appended: u64,
    /// Highest ticket covered by a successful fsync (or checkpoint).
    durable: u64,
    /// A leader is currently gathering a batch or fsyncing.
    leader: bool,
    /// A batch fsync failed: the durable prefix past `durable` is
    /// unknown, so every ticket above it fails with this error.
    failed: Option<Error>,
}

/// The group-commit queue: tickets, leader election, and the durable
/// watermark. One per durable engine; shared by every session.
pub struct GroupCommit {
    cfg: GroupCommitConfig,
    state: Mutex<GcState>,
    cv: Condvar,
    commits: AtomicU64,
    fsyncs: AtomicU64,
}

impl GroupCommit {
    /// A fresh queue with the given batching knobs.
    pub fn new(cfg: GroupCommitConfig) -> Self {
        GroupCommit {
            cfg,
            state: Mutex::new(GcState::default()),
            cv: Condvar::new(),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> GroupCommitConfig {
        self.cfg
    }

    /// Commits registered so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Fsyncs (batch syncs plus ticket-retiring checkpoints) so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, GcState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Issue the ticket for a commit whose records (ending in `Commit`)
    /// are fully appended to the log. Must be called inside the same
    /// critical section as the appends so ticket order matches log
    /// order.
    pub fn register(&self) -> u64 {
        let mut st = self.lock();
        st.appended += 1;
        self.commits.fetch_add(1, Ordering::Relaxed);
        let ticket = st.appended;
        // Wake a gathering leader: its batch may now be full.
        self.cv.notify_all();
        ticket
    }

    /// Retire every outstanding ticket without an fsync of the log —
    /// called after a checkpoint has durably materialized everything the
    /// log described (data files fsynced, log atomically truncated).
    ///
    /// This also clears a prior batch-fsync failure: the failure made
    /// the durable prefix past the watermark *unknown*, and a
    /// completed checkpoint re-establishes it (everything, by other
    /// means). Tickets issued before the failure were already failed —
    /// not dropped — with the fsync's typed error; only commits
    /// registered after the re-arm proceed.
    pub fn mark_all_durable(&self) {
        let mut st = self.lock();
        if st.durable < st.appended {
            st.durable = st.appended;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        st.failed = None;
        self.cv.notify_all();
    }

    /// The error that failed the last batch fsync, if writes are still
    /// un-re-armed (see [`GroupCommit::mark_all_durable`]).
    pub fn failure(&self) -> Option<Error> {
        self.lock().failed.clone()
    }

    /// Whether every registered ticket is durable: nothing appended to
    /// the log still waits for a sync.
    pub fn all_durable(&self) -> bool {
        let st = self.lock();
        st.durable >= st.appended
    }

    /// Block until `ticket` is durable. `sync` forces the log to stable
    /// storage; the elected leader calls it once per batch, outside both
    /// the engine commit lock (the caller already released it) and this
    /// queue's own lock. Returns `Ok` strictly after an fsync (or
    /// checkpoint) covered the ticket.
    pub fn wait_durable(
        &self,
        ticket: u64,
        mut sync: impl FnMut() -> Result<()>,
    ) -> Result<()> {
        let mut st = self.lock();
        loop {
            if st.durable >= ticket {
                return Ok(());
            }
            if let Some(e) = &st.failed {
                return Err(e.clone());
            }
            if st.leader {
                // Another waiter is batching; it will wake us. The
                // timeout is defensive (a panicking leader re-elects).
                let (g, _) = self
                    .cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
                continue;
            }
            st.leader = true;
            // Gather: linger so later commits can join this batch.
            let target = st.durable + u64::from(self.cfg.max_batch.max(1));
            let deadline = Instant::now() + self.cfg.max_delay;
            while st.appended < target {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _) = self
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
            let batch_end = st.appended;
            drop(st);
            let r = sync();
            st = self.lock();
            match r {
                Ok(()) => {
                    if st.durable < batch_end {
                        st.durable = batch_end;
                    }
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => st.failed = Some(e),
            }
            st.leader = false;
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn immediate() -> GroupCommitConfig {
        GroupCommitConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }

    #[test]
    fn single_commit_syncs_once_and_acks() {
        let gc = GroupCommit::new(immediate());
        let t = gc.register();
        let syncs = AtomicU32::new(0);
        gc.wait_durable(t, || {
            syncs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert_eq!(syncs.load(Ordering::Relaxed), 1);
        assert_eq!(gc.commits(), 1);
        assert_eq!(gc.fsyncs(), 1);
    }

    #[test]
    fn a_batch_of_registered_commits_shares_one_fsync() {
        let gc = GroupCommit::new(GroupCommitConfig {
            max_batch: 64,
            max_delay: Duration::ZERO,
        });
        let tickets: Vec<u64> = (0..5).map(|_| gc.register()).collect();
        let syncs = AtomicU32::new(0);
        // All five were appended before the leader fsyncs, so the first
        // waiter's batch covers every ticket.
        for &t in &tickets {
            gc.wait_durable(t, || {
                syncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(syncs.load(Ordering::Relaxed), 1);
        assert_eq!(gc.commits(), 5);
        assert_eq!(gc.fsyncs(), 1);
    }

    #[test]
    fn failed_fsync_poisons_later_tickets_not_earlier_ones() {
        let gc = GroupCommit::new(immediate());
        let t1 = gc.register();
        gc.wait_durable(t1, || Ok(())).unwrap();
        let t2 = gc.register();
        let err = gc
            .wait_durable(t2, || Err(Error::Io("log device gone".into())))
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)));
        // t1 was durable before the failure and stays acknowledged.
        gc.wait_durable(t1, || panic!("no new fsync for old tickets"))
            .unwrap();
        // Later tickets keep failing: the durable prefix is unknown.
        let t3 = gc.register();
        assert!(gc.wait_durable(t3, || Ok(())).is_err());
        assert!(gc.failure().is_some());
    }

    #[test]
    fn checkpoint_rearms_a_failed_queue() {
        let gc = GroupCommit::new(immediate());
        let t1 = gc.register();
        assert!(gc
            .wait_durable(t1, || Err(Error::Io("fsync failed".into())))
            .is_err());
        let t2 = gc.register();
        assert!(gc.wait_durable(t2, || Ok(())).is_err(), "still failed");
        // A checkpoint durably materialized everything by other means.
        gc.mark_all_durable();
        assert!(gc.failure().is_none());
        gc.wait_durable(t2, || panic!("durable via checkpoint"))
            .unwrap();
        // New commits proceed normally after the re-arm.
        let t3 = gc.register();
        gc.wait_durable(t3, || Ok(())).unwrap();
    }

    #[test]
    fn checkpoint_retires_outstanding_tickets() {
        let gc = GroupCommit::new(immediate());
        let t = gc.register();
        gc.mark_all_durable();
        gc.wait_durable(t, || panic!("already durable via checkpoint"))
            .unwrap();
        assert_eq!(gc.fsyncs(), 1);
    }

    #[test]
    fn concurrent_waiters_all_ack_and_batch() {
        let gc = Arc::new(GroupCommit::new(GroupCommitConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(20),
        }));
        let syncs = Arc::new(AtomicU32::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let gc = gc.clone();
                let syncs = syncs.clone();
                scope.spawn(move || {
                    let t = gc.register();
                    gc.wait_durable(t, || {
                        syncs.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    })
                    .unwrap();
                });
            }
        });
        assert_eq!(gc.commits(), 8);
        let n = syncs.load(Ordering::Relaxed);
        assert!(n >= 1, "at least one fsync happened");
        assert!(
            u64::from(n) == gc.fsyncs(),
            "every sync call is accounted"
        );
        assert!(n <= 8, "never more fsyncs than commits");
    }
}
