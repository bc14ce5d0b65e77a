//! Group commit: coalesce many sessions' committed WAL appends into one
//! fsync.
//!
//! ## Protocol
//!
//! A writer [`GroupCommit::enter`]s the queue just before it asks for
//! the engine's exclusive commit lock and leaves (drops the returned
//! [`QueuedWriter`]) just after it releases the lock, whether or not it
//! committed anything: the queue always knows how many writers are
//! inside the lock or queued for it — the commits that could still join
//! a batch. Under the lock a writer appends its transaction's records
//! (ending in `Commit`), then [`GroupCommit::register`]s a *ticket* — a
//! monotone sequence number whose order matches log order, because both
//! the appends and the registration happen inside the same critical
//! section. The writer then **releases the commit lock**, leaves, and
//! calls [`GroupCommit::wait_durable`]: the first waiter whose ticket is
//! not yet durable elects itself *leader*, gathers a batch, issues one
//! fsync, and advances the durable watermark to the last ticket that
//! was appended before the fsync began. Everyone at or below the
//! watermark is acknowledged; the rest elect the next leader.
//!
//! **The leader closes its batch as soon as no other commit can still
//! join**: it waits only while another writer is inside (or queued
//! for) the commit lock, and stops at the first of "nobody is inside",
//! `max_batch` commits registered, or `max_delay` elapsed. The two
//! knobs are upper bounds on the batch, never a fixed delay — a lone
//! commit syncs at once.
//!
//! Because the fsync happens *outside* the commit lock, other writers
//! keep appending while the leader syncs — that overlap is where the
//! commits-per-fsync ratio above 1 comes from. A database nobody
//! acknowledges after the lock (a standalone one, or any commit that
//! makes a checkpoint due) waits with [`GroupCommit::wait_durable_locked`]
//! instead, inside the critical section. Such a wait never lingers:
//! every other writer is queued behind the lock it holds and cannot
//! register, so it also closes the batch of a leader already gathering.
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
    /// Upper bound on a batch: fsync as soon as this many commits are
    /// waiting (minimum 1), even if more writers are inside.
    pub max_batch: u32,
    /// Upper bound on the linger: fsync once the leader has waited this
    /// long for writers still inside the commit lock. A leader with
    /// nobody inside syncs at once; zero means "never wait".
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
    /// The batch bounds, read by each leader as it starts gathering.
    cfg: GroupCommitConfig,
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
    /// Writers inside the engine's commit lock or queued for it (see
    /// [`GroupCommit::enter`]): the commits that could still join.
    writers: u32,
    /// A commit waits for its ticket while holding the commit lock
    /// ([`GroupCommit::wait_durable_locked`]): every counted writer is
    /// queued behind it, so nobody can join a batch.
    locked_wait: bool,
}

/// A writer counted by [`GroupCommit::enter`]; dropping it leaves.
#[must_use = "a writer leaves the queue when this is dropped"]
pub struct QueuedWriter<'a>(&'a GroupCommit);

impl Drop for QueuedWriter<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.writers -= 1;
        // Wake a gathering leader: nobody may be left to join.
        if st.writers == 0 && st.leader {
            self.0.cv.notify_all();
        }
    }
}

/// The group-commit queue: tickets, leader election, and the durable
/// watermark. One per durable database, created at open; shared by
/// every session of its engine.
pub struct GroupCommit {
    state: Mutex<GcState>,
    cv: Condvar,
    commits: AtomicU64,
    fsyncs: AtomicU64,
}

impl GroupCommit {
    /// A fresh queue with the given batching knobs.
    pub fn new(cfg: GroupCommitConfig) -> Self {
        GroupCommit {
            state: Mutex::new(GcState {
                cfg,
                ..GcState::default()
            }),
            cv: Condvar::new(),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }
    }

    /// Replace the batching knobs in place: every session already
    /// waiting on this queue keeps it, and the next leader gathers
    /// within the new bounds.
    pub fn set_config(&self, cfg: GroupCommitConfig) {
        self.lock().cfg = cfg;
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

    /// Count a writer from just before it asks for the engine's commit
    /// lock until the returned guard drops, just after it releases the
    /// lock. While any writer is counted, a leader may linger for it.
    pub fn enter(&self) -> QueuedWriter<'_> {
        self.lock().writers += 1;
        QueuedWriter(self)
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
        sync: impl FnMut() -> Result<()>,
    ) -> Result<()> {
        self.wait(self.lock(), ticket, sync)
    }

    /// [`GroupCommit::wait_durable`] for a caller still holding the
    /// engine's commit lock. Nobody can register until it returns, so
    /// no batch lingers meanwhile: not its own, and not one another
    /// leader is gathering.
    pub fn wait_durable_locked(
        &self,
        ticket: u64,
        sync: impl FnMut() -> Result<()>,
    ) -> Result<()> {
        let mut st = self.lock();
        st.locked_wait = true;
        self.cv.notify_all();
        let r = self.wait(st, ticket, sync);
        self.lock().locked_wait = false;
        r
    }

    fn wait<'a>(
        &'a self,
        mut st: MutexGuard<'a, GcState>,
        ticket: u64,
        mut sync: impl FnMut() -> Result<()>,
    ) -> Result<()> {
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
            // Gather: linger only while another commit can still join,
            // within the `max_batch` / `max_delay` bounds.
            let target = st.durable + u64::from(st.cfg.max_batch.max(1));
            let deadline = Instant::now() + st.cfg.max_delay;
            while st.appended < target && st.writers > 0 && !st.locked_wait
            {
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
    use std::sync::{Arc, Barrier};

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

    /// A leader that lingers needs seconds here; every test below that
    /// expects no linger finishes far inside this.
    const LONG: Duration = Duration::from_secs(10);

    fn long_linger() -> GroupCommit {
        GroupCommit::new(GroupCommitConfig {
            max_batch: 64,
            max_delay: LONG,
        })
    }

    #[test]
    fn a_lone_commit_syncs_at_once_whatever_the_delay() {
        let gc = long_linger();
        let t = gc.register();
        let start = Instant::now();
        gc.wait_durable(t, || Ok(())).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(gc.fsyncs(), 1);
    }

    #[test]
    fn a_writer_inside_is_waited_for_and_shares_the_sync() {
        let gc = long_linger();
        let syncs = AtomicU32::new(0);
        let sync = || {
            syncs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let entered = Barrier::new(2);
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Registered and already out of the lock.
                let t = gc.register();
                entered.wait();
                // The other writer is inside: this leader must hold
                // its batch open until that writer registers and
                // leaves.
                gc.wait_durable(t, sync).unwrap();
            });
            scope.spawn(|| {
                let writer = gc.enter();
                entered.wait();
                // Give the leader time to start gathering.
                std::thread::sleep(Duration::from_millis(50));
                let t = gc.register();
                drop(writer);
                gc.wait_durable(t, sync).unwrap();
            });
        });
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(gc.commits(), 2);
        assert_eq!(syncs.load(Ordering::Relaxed), 1, "one sync for both");
        assert_eq!(gc.fsyncs(), 1);
    }

    #[test]
    fn a_writer_that_leaves_without_committing_releases_the_leader() {
        let gc = long_linger();
        let entered = Barrier::new(2);
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let t = gc.register();
                entered.wait();
                gc.wait_durable(t, || Ok(())).unwrap();
            });
            scope.spawn(|| {
                // A read on the exclusive path, or a failed statement:
                // in and out of the lock with no ticket.
                let writer = gc.enter();
                entered.wait();
                std::thread::sleep(Duration::from_millis(50));
                drop(writer);
            });
        });
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(gc.fsyncs(), 1);
    }

    #[test]
    fn a_wait_under_the_lock_never_lingers() {
        let gc = long_linger();
        // The waiter itself and two writers queued behind its lock.
        let _me = gc.enter();
        let _queued = (gc.enter(), gc.enter());
        let t = gc.register();
        let start = Instant::now();
        gc.wait_durable_locked(t, || Ok(())).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));

        // It also closes the batch of a leader already gathering for
        // the writers counted inside.
        let t1 = gc.register();
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| gc.wait_durable(t1, || Ok(())).unwrap());
            std::thread::sleep(Duration::from_millis(50));
            let t2 = gc.register();
            gc.wait_durable_locked(t2, || Ok(())).unwrap();
        });
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(gc.fsyncs(), 2);
    }
}
