//! The concurrent session engine: one shared [`Engine`] over a
//! [`Database`], many per-thread [`Session`]s.
//!
//! ## Concurrency model
//!
//! The engine wraps the database in one `Arc<RwLock<_>>` — the
//! *commit lock* — and additionally publishes a **read view**: an
//! immutable snapshot of the catalog plus the *committed watermark*
//! (the transaction clock's position after the last commit),
//! republished after every statement that takes the lock. There are two
//! statement paths:
//!
//! * **Snapshot path** (no commit lock at all): `range` declarations
//!   over relations the view knows, and `retrieve` without `into` whose
//!   variables all carry transaction time. These execute against the
//!   published catalog snapshot and the shared pager (which has its own
//!   interior lock), filtering versions through the watermark: a row
//!   whose `transaction_start` is past the watermark belongs to a
//!   commit the view predates and is invisible, and a row being
//!   logically deleted gets a `transaction_stop` past the watermark, so
//!   it stays visible to the snapshot. Version stamps make reads
//!   race-free *by construction* — no lock, no retry loop. Joins are
//!   served the same way, durable or not: their decomposition
//!   temporaries are pager scratch files, which no catalog, staged
//!   commit or log record ever sees.
//! * **Exclusive path** (the commit lock, one thread at a time):
//!   everything else — DML, DDL, `copy`, `retrieve into`, and the rare
//!   retrieves the snapshot cannot serve: variables without transaction
//!   time (static/historical relations have no version stamps to filter
//!   on), `as of` times past the watermark, or a snapshot attempt that
//!   raced a concurrent DDL. The single-threaded [`Database`] executes
//!   the statement as it would on its own. In durable mode every
//!   engine **group-commits**: the WAL appends and the commit's ticket
//!   happen inside the exclusive section, so commits are serialized
//!   per statement exactly as in single-threaded operation, but the
//!   wait for the covering log sync moves to `Engine::ack_commit`,
//!   after the lock is released, which is what lets N sessions share
//!   one fsync. A write is therefore visible to snapshot readers
//!   before it is acknowledged. The exception is a commit that makes
//!   a checkpoint due: it waits for its sync under the lock, so under
//!   `CheckpointPolicy::EveryCommit` nothing batches. Every exclusive
//!   statement is counted by the commit queue from before it asks for
//!   the lock until after it releases it, so the fsync leader waits
//!   only while some writer is still inside or queued — a lone commit
//!   syncs at once, and the bounds
//!   ([`Database::enable_group_commit`]) merely cap the batch.
//!
//! [`Engine::with_read`] takes the lock shared, for introspection (the
//! shell, the server's stats); no statement runs that way.
//!
//! Lock order is fixed: the engine's RwLock is always taken before any
//! pager-internal lock, and never the other way around, so the pair
//! cannot deadlock.
//!
//! ## Lock poisoning
//!
//! A writer that panics mid-statement leaves the shared database in an
//! unknown state. The engine records that fact and fails **every**
//! subsequent operation with [`Error::Poisoned`] instead of silently
//! serving possibly half-applied data (which is what
//! `PoisonError::into_inner` used to do here). Reopen the database to
//! recover; in durable mode the WAL brings back the last committed
//! state.
//!
//! Each [`Session`] owns its *range table* (TQuel `range of e is emp`
//! is session state, like a cursor), so two sessions can bind the same
//! variable name to different relations. On the exclusive path the
//! session's ranges are swapped into the database for the duration of
//! the statement, which also lets `destroy` prune only the executing
//! session's bindings.
//!
//! ## Statement statistics under concurrency
//!
//! Both paths price a statement the same way: they open a
//! [`tdbms_storage::StatScope`] on the executing thread and read
//! [`QueryStats`] off it. A scope tallies only what its own thread
//! records, so a statement's numbers are exact whoever else is running
//! — the concurrency stress suite asserts both that, and that the
//! scopes of all sessions add up to the ledger's lifetime totals.

use crate::binder::Binder;
use crate::bound::BoundRetrieve;
use crate::db::{Database, ExecOutput};
use crate::exec::{exec_retrieve, QueryStats};
use crate::guard::QueryGuard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockWriteGuard};
use std::time::Duration;
use tdbms_kernel::{Error, Result, TimeVal};
use tdbms_plan::PlanCache;
use tdbms_storage::{Catalog, Pager};
use tdbms_tquel::ast::Statement;
use tdbms_tquel::token::{lex_shape, lex_slots, Literal};
use tdbms_wal::{GroupCommit, LogHandle};

/// The published snapshot lock-free reads run against: the catalog as
/// of the last committed statement, and the committed watermark that
/// version-filters every row and is the snapshot read's `"now"`.
struct ReadView {
    catalog: Catalog,
    watermark: TimeVal,
    cold: bool,
}

fn view_of(db: &Database) -> ReadView {
    ReadView {
        catalog: db.catalog().clone(),
        watermark: db.clock().now(),
        cold: db.cold_statements(),
    }
}

/// One cached program: the parse of a statement *shape*
/// ([`tdbms_tquel::token::Shape`]), whose numeric literals inside
/// expressions are parameter slots each execution supplies (parsing is
/// pure, so the template is reusable forever), plus, for
/// single-statement snapshot-served retrieves, the bound template
/// stamped with the catalog generation and range table it was bound
/// under, so hot server queries skip parse *and* bind whatever their
/// literals, and across every commit that creates or drops no
/// relation.
struct CachedProgram {
    stmts: Vec<Statement>,
    /// `Some(literals)` when the parse read a literal's value (`modify
    /// … where fillfactor = N`): the entry then serves only statements
    /// with exactly these literals — an exact-text key in effect.
    pinned: Option<Vec<Literal>>,
    /// Locked only to clone or replace the `Arc`.
    bound: Mutex<Option<Arc<CachedBound>>>,
}

impl CachedProgram {
    /// Can this entry run a statement of its shape with `literals`?
    fn serves(&self, literals: &[Literal]) -> bool {
        self.pinned.as_deref().is_none_or(|own| own == literals)
    }
}

struct CachedBound {
    /// [`Catalog::generation`] of the catalog the binding was made
    /// against. A binding reads only names, schemas' classes and kinds
    /// and attribute indices, none of which a commit changes without
    /// changing the generation; and it holds `"now"` and `as of` as
    /// expressions each run evaluates at its own watermark. So only DDL
    /// that creates or drops a relation invalidates this entry.
    generation: u64,
    /// The exact range table the statement was bound under.
    ranges: HashMap<String, String>,
    /// Bound with parameter slots. Every execution borrows it as it
    /// is and evaluates the slots from its own literals; decomposition
    /// copies the parts it rewrites, so nothing ever writes it.
    bound: BoundRetrieve,
}

impl CachedBound {
    /// Was this binding made under catalog generation `generation` and
    /// range table `ranges`, so that a statement of its shape may run
    /// it?
    fn current(
        &self,
        generation: u64,
        ranges: &HashMap<String, String>,
    ) -> bool {
        self.generation == generation && self.ranges == *ranges
    }
}

/// How many distinct statement shapes the engine keeps cached.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Counts of statements per path — the proof behind "reads don't take
/// the commit lock".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Exclusive acquisitions of the commit lock.
    pub exclusive: u64,
    /// Retrieves served entirely from the published read view, without
    /// touching the commit lock.
    pub snapshot_reads: u64,
}

#[derive(Default)]
struct LockCounters {
    exclusive: AtomicU64,
    snapshot: AtomicU64,
}

/// State shared by every clone of one engine, outside the commit lock.
struct EngineInner {
    pager: Arc<Pager>,
    view: RwLock<Arc<ReadView>>,
    /// First unrecoverable failure (lock poisoning); sticky — every
    /// later operation fails with it. A failed commit fsync only
    /// degrades the database.
    failed: Mutex<Option<Error>>,
    group: Option<(Arc<GroupCommit>, LogHandle)>,
    locks: LockCounters,
    /// Shape-keyed cache of parsed (and, when hot, bound) program
    /// templates, shared by every session of this engine: statements
    /// that differ only in numeric literals share one entry.
    plans: Mutex<PlanCache<Arc<CachedProgram>>>,
}

/// A shared, thread-safe handle over one database. Clone it (cheap) and
/// hand one clone per thread; open a [`Session`] on each.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<RwLock<Database>>,
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Wrap a database for shared use.
    pub fn new(mut db: Database) -> Self {
        let pager = db.pager_handle();
        let group = db.group_commit();
        // Sessions acknowledge after releasing the commit lock so the
        // group-commit leader can batch neighbors' commits.
        db.set_defer_group_ack(true);
        let inner = Arc::new(EngineInner {
            pager,
            view: RwLock::new(Arc::new(view_of(&db))),
            failed: Mutex::new(None),
            group,
            locks: LockCounters::default(),
            plans: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
        });
        Engine {
            shared: Arc::new(RwLock::new(db)),
            inner,
        }
    }

    /// Open a new session (its own range table, no other state).
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
            ranges: HashMap::new(),
            limits: SessionLimits::default(),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Run `f` under the shared lock (concurrent with other readers;
    /// introspection only, so [`LockStats`] does not count it).
    ///
    /// Panics if the engine is unusable (a writer panicked); use
    /// [`Engine::try_with_read`] to handle that as an error.
    pub fn with_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        self.try_with_read(f)
            .unwrap_or_else(|e| panic!("engine unusable: {e}"))
    }

    /// Fallible [`Engine::with_read`].
    pub fn try_with_read<R>(
        &self,
        f: impl FnOnce(&Database) -> R,
    ) -> Result<R> {
        self.check_usable()?;
        let db = self.shared.read().map_err(|_| self.poison())?;
        Ok(f(&db))
    }

    /// Run `f` under the exclusive lock, then republish the read view
    /// and (durable mode) acknowledge the commit after the lock is
    /// released.
    ///
    /// Panics if the engine is unusable (a writer panicked) or the
    /// commit's log fsync failed; use [`Engine::try_with_write`] to
    /// handle that as an error.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.try_with_write(f)
            .unwrap_or_else(|e| panic!("engine unusable: {e}"))
    }

    /// Fallible [`Engine::with_write`].
    pub fn try_with_write<R>(
        &self,
        f: impl FnOnce(&mut Database) -> R,
    ) -> Result<R> {
        // Counted by the commit queue from before the lock is asked for
        // until after it is released, on every exit (errors and panics
        // included): a leaked count would make every leader linger.
        let writer = self.inner.group.as_ref().map(|(gc, _)| gc.enter());
        let mut db = self.write()?;
        let r = f(&mut db);
        self.publish_view(&db);
        let pending = db.take_pending_commit();
        drop(db);
        drop(writer);
        if let Some(ticket) = pending {
            self.ack_commit(ticket)?;
        }
        Ok(r)
    }

    /// Commit-lock and snapshot-read counters since the engine was
    /// built.
    pub fn lock_stats(&self) -> LockStats {
        LockStats {
            exclusive: self.inner.locks.exclusive.load(Ordering::Relaxed),
            snapshot_reads: self
                .inner
                .locks
                .snapshot
                .load(Ordering::Relaxed),
        }
    }

    /// `(commits, fsyncs)` of the group-commit queue of a durable
    /// database (`None` in memory). `commits / fsyncs > 1` is the
    /// batching win.
    pub fn group_commit_stats(&self) -> Option<(u64, u64)> {
        self.inner
            .group
            .as_ref()
            .map(|(gc, _)| (gc.commits(), gc.fsyncs()))
    }

    /// Unwrap back into the database, if this is the last handle.
    pub fn try_into_database(
        self,
    ) -> std::result::Result<Database, Engine> {
        let Engine { shared, inner } = self;
        Arc::try_unwrap(shared)
            .map(|l| {
                let mut db =
                    l.into_inner().unwrap_or_else(PoisonError::into_inner);
                // Back to single-threaded use: acknowledge inline.
                db.set_defer_group_ack(false);
                db
            })
            .map_err(|shared| Engine { shared, inner })
    }

    fn write(&self) -> Result<RwLockWriteGuard<'_, Database>> {
        self.check_usable()?;
        self.inner.locks.exclusive.fetch_add(1, Ordering::Relaxed);
        self.shared.write().map_err(|_| self.poison())
    }

    /// A writer panicked while holding the commit lock: the shared
    /// database may be half-applied. Record that and refuse to serve
    /// it — the old behaviour (`PoisonError::into_inner`) silently
    /// returned the possibly-inconsistent state.
    fn poison(&self) -> Error {
        self.record_failure(Error::Poisoned);
        Error::Poisoned
    }

    fn record_failure(&self, e: Error) {
        let mut failed = self
            .inner
            .failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if failed.is_none() {
            *failed = Some(e);
        }
    }

    fn check_usable(&self) -> Result<()> {
        if let Some(e) = &*self
            .inner
            .failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e.clone());
        }
        // The snapshot path never touches the commit lock, so it must
        // ask the lock directly whether a writer died holding it —
        // otherwise lock-free reads would sail past the poisoning.
        if self.shared.is_poisoned() {
            return Err(self.poison());
        }
        Ok(())
    }

    fn view(&self) -> Arc<ReadView> {
        self.inner
            .view
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish_view(&self, db: &Database) {
        let v = Arc::new(view_of(db));
        *self
            .inner
            .view
            .write()
            .unwrap_or_else(PoisonError::into_inner) = v;
    }

    /// `(hits, misses)` of the statement cache since the engine was
    /// built. A hit means the statement's shape skipped the parser
    /// (and, for hot snapshot retrieves, the binder too), whatever its
    /// numeric literals.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.inner
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Look the program up by shape, parsing and caching its template on
    /// a miss; returns it with this statement's literals. Lex and parse
    /// errors are returned without polluting the cache.
    fn cached_program(
        &self,
        src: &str,
    ) -> Result<(Arc<CachedProgram>, Vec<Literal>)> {
        let shape = lex_shape(src)?;
        let hit = self
            .inner
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(&shape.key, |prog| prog.serves(&shape.literals));
        if let Some(prog) = hit {
            return Ok((prog, shape.literals));
        }
        let template = tdbms_tquel::parse_tokens(&lex_slots(src)?)?;
        if template.stmts.is_empty() {
            return Err(Error::Semantic("empty program".into()));
        }
        let prog = Arc::new(CachedProgram {
            stmts: template.stmts,
            pinned: template.pinned.then(|| shape.literals.clone()),
            bound: Mutex::new(None),
        });
        self.inner
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(shape.key, prog.clone());
        Ok((prog, shape.literals))
    }

    /// Wait for a group commit's ticket to become durable (possibly
    /// electing this thread the fsync leader), then execute the file
    /// drops logged up to it. Runs strictly outside the commit lock —
    /// the only durability wait that does.
    fn ack_commit(&self, ticket: u64) -> Result<()> {
        let Some((gc, log)) = &self.inner.group else {
            return Ok(());
        };
        // On failure the log's durable prefix is unknown past the
        // watermark. Degrade, don't die: snapshot reads keep serving
        // the last published view, writes are refused with a typed
        // error until a checkpoint re-arms the queue — and retires the
        // logged drops, which stay queued in the pager. The statement's
        // effects already stood (applied and published before the
        // batch sync ran), so surface the non-retryable contract, not
        // `Degraded` (whose contract promises a rollback and invites a
        // verbatim retry).
        gc.wait_durable(ticket, || log.sync()).map_err(|e| {
            Error::RetryUnsafe(format!("commit durability unknown: {e}"))
        })?;
        self.inner.pager.execute_drops(ticket);
        Ok(())
    }

    /// Start the background reorganization daemon: a thread that
    /// periodically takes the commit lock like any other writer and
    /// compacts every eligible relation ([`Database::reorganize_all`]),
    /// migrating the versions DML can no longer touch into clustered
    /// history sidecars. Snapshot reads are never blocked — they run off the
    /// published view while the daemon holds the lock, exactly as they
    /// do against any other writer. A degraded engine makes the daemon
    /// skip the pass and retry next interval (reorganization is
    /// maintenance — it must never escalate a resource failure); an
    /// unusable engine (poisoned lock) ends the daemon.
    pub fn spawn_reorg_daemon(&self, interval: Duration) -> ReorgDaemon {
        let engine = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let passes = Arc::new(AtomicU64::new(0));
        let migrated = Arc::new(AtomicU64::new(0));
        let (t_stop, t_passes, t_migrated) =
            (stop.clone(), passes.clone(), migrated.clone());
        let handle = std::thread::spawn(move || {
            while !t_stop.load(Ordering::Relaxed) {
                match engine.try_with_write(|db| db.reorganize_all()) {
                    Ok(Ok(n)) => {
                        t_passes.fetch_add(1, Ordering::Relaxed);
                        t_migrated.fetch_add(n, Ordering::Relaxed);
                    }
                    // Database-level refusal (degraded mode): retry
                    // next interval, the failure is recoverable.
                    Ok(Err(_)) => {}
                    // Engine unusable: nothing left to maintain.
                    Err(_) => break,
                }
                // Sleep in slices so stop() stays responsive.
                let mut remaining = interval;
                while !t_stop.load(Ordering::Relaxed)
                    && remaining > Duration::ZERO
                {
                    let slice = remaining.min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        });
        ReorgDaemon {
            stop,
            handle: Some(handle),
            passes,
            migrated,
        }
    }

    fn note_snapshot_read(&self) {
        self.inner.locks.snapshot.fetch_add(1, Ordering::Relaxed);
    }

    fn pager(&self) -> &Pager {
        &self.inner.pager
    }
}

/// Handle to a running background reorganization thread (see
/// [`Engine::spawn_reorg_daemon`]). Dropping it stops the daemon and
/// joins the thread.
pub struct ReorgDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    passes: Arc<AtomicU64>,
    migrated: Arc<AtomicU64>,
}

impl ReorgDaemon {
    /// Completed compaction passes over the whole catalog.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Total versions migrated to history sidecars by this daemon.
    pub fn migrated(&self) -> u64 {
        self.migrated.load(Ordering::Relaxed)
    }

    /// Signal the daemon and wait for it to finish its current pass.
    pub fn stop(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            // A panicked daemon already poisoned the engine; joining
            // must not double-panic the owner.
            let _ = h.join();
        }
    }
}

impl Drop for ReorgDaemon {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Per-session statement limits, applied to every statement the session
/// executes. Defaults to unlimited — the embedded single-user shape.
#[derive(Debug, Clone, Default)]
pub struct SessionLimits {
    /// Per-statement wall-clock budget; reads are interrupted mid-scan,
    /// writes are refused once the budget has already expired.
    pub timeout: Option<Duration>,
    /// Cap on rows a retrieve may produce.
    pub max_rows: Option<u64>,
    /// Refuse `copy` statements (they read/write server-local files; a
    /// network service must not offer that to remote clients).
    pub deny_copy: bool,
}

/// One thread's connection to a shared [`Engine`]. Owns the TQuel range
/// table and its guardrail state; everything else lives in the engine.
pub struct Session {
    engine: Engine,
    ranges: HashMap<String, String>,
    limits: SessionLimits,
    /// Raised by [`Session::cancel_handle`] holders (connection
    /// teardown, server shutdown); sticky until [`Session::clear_cancel`].
    cancel: Arc<AtomicBool>,
}

impl Session {
    /// The engine this session runs against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// `(hits, misses)` of the engine's statement cache — shared by all
    /// sessions, surfaced here so per-connection stats can report it.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.engine.plan_cache_stats()
    }

    /// Replace this session's statement limits.
    pub fn set_limits(&mut self, limits: SessionLimits) {
        self.limits = limits;
    }

    /// The session's current statement limits.
    pub fn limits(&self) -> &SessionLimits {
        &self.limits
    }

    /// A flag another thread may raise to interrupt this session's
    /// current (and subsequent) statements with [`Error::Canceled`].
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Lower the cancel flag so the session can execute again.
    pub fn clear_cancel(&self) {
        self.cancel.store(false, Ordering::Relaxed);
    }

    /// The guard enforcing this session's limits on one statement. The
    /// wall-clock budget starts now, so each statement of a program
    /// gets the full per-statement budget.
    fn statement_guard(&self) -> QueryGuard {
        let mut g = QueryGuard::new().with_cancel(self.cancel.clone());
        if let Some(t) = self.limits.timeout {
            g = g.with_timeout(t);
        }
        if let Some(m) = self.limits.max_rows {
            g = g.with_max_rows(m);
        }
        g
    }

    /// Execute a TQuel program; returns the output of the **last**
    /// statement.
    pub fn execute(&mut self, src: &str) -> Result<ExecOutput> {
        let mut last = ExecOutput::default();
        self.run_program(src, |out| last = out)?;
        Ok(last)
    }

    /// Execute a TQuel program; returns every statement's output.
    ///
    /// Programs are looked up in the engine's statement cache by shape —
    /// the token stream with numeric literals lifted into parameter
    /// slots — so a repeated program skips the parser whatever its
    /// numbers, and a repeated single-statement snapshot retrieve also
    /// skips the binder while no relation has been created or dropped
    /// and this session's range table is unchanged. Each execution runs
    /// the cached template with its own literals at its own watermark.
    pub fn execute_all(&mut self, src: &str) -> Result<Vec<ExecOutput>> {
        let mut outs = Vec::new();
        self.run_program(src, |out| outs.push(out))?;
        Ok(outs)
    }

    /// Run a program's statements in order through the statement
    /// cache, handing each output to `each`; stops at the first error.
    fn run_program(
        &mut self,
        src: &str,
        mut each: impl FnMut(ExecOutput),
    ) -> Result<()> {
        let (prog, literals) = self.engine.cached_program(src)?;
        // The bound fast-path only applies to a lone statement: in a
        // multi-statement program an earlier statement may change what
        // a later one binds to.
        let cache = (prog.stmts.len() == 1).then_some(&*prog);
        for stmt in &prog.stmts {
            each(self.execute_statement_cached(stmt, &literals, cache)?);
        }
        Ok(())
    }

    /// The bound template this session's next run of `src` would
    /// borrow from the statement cache: `None` unless `src`'s shape is
    /// cached with a binding made under the published catalog's
    /// generation and this session's range table. Looking counts
    /// neither a cache hit nor a miss, and changes nothing.
    pub fn cached_binding(
        &self,
        src: &str,
    ) -> Result<Option<BoundRetrieve>> {
        let shape = lex_shape(src)?;
        let generation = self.engine.view().catalog.generation();
        let plans = self
            .engine
            .inner
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let Some(prog) = plans.peek(&shape.key) else {
            return Ok(None);
        };
        if !prog.serves(&shape.literals) {
            return Ok(None);
        }
        let bound =
            prog.bound.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(bound
            .as_ref()
            .filter(|cb| cb.current(generation, &self.ranges))
            .map(|cb| cb.bound.clone()))
    }

    /// Execute one parsed statement, classified onto the snapshot or
    /// the exclusive path.
    pub fn execute_statement(
        &mut self,
        stmt: &Statement,
    ) -> Result<ExecOutput> {
        self.execute_statement_cached(stmt, &[], None)
    }

    fn execute_statement_cached(
        &mut self,
        stmt: &Statement,
        literals: &[Literal],
        cache: Option<&CachedProgram>,
    ) -> Result<ExecOutput> {
        let guard = self.statement_guard();
        guard.check_now()?;
        if self.limits.deny_copy && matches!(stmt, Statement::Copy(_)) {
            return Err(Error::NotApplicable(
                "copy is disabled on this session (server-local file \
                 access)"
                    .into(),
            ));
        }
        match stmt {
            Statement::Range { var, rel } => {
                self.engine.check_usable()?;
                if self.engine.view().catalog.id_of(rel).is_none() {
                    // Not in the published snapshot — consult the
                    // authoritative catalog under the shared lock
                    // before failing (the relation may be seconds old,
                    // or truly missing).
                    self.engine.try_with_read(|db| {
                        db.catalog().require(rel).map(|_| ())
                    })??;
                }
                self.ranges.insert(var.clone(), rel.clone());
                Ok(ExecOutput::default())
            }
            Statement::Retrieve(r) if r.into.is_none() => {
                match self
                    .try_execute_snapshot(r, literals, &guard, cache)?
                {
                    Some(out) => Ok(out),
                    None => self.execute_write(stmt, literals, &guard),
                }
            }
            _ => self.execute_write(stmt, literals, &guard),
        }
    }

    /// Attempt a retrieve against the published read view, entirely off
    /// the commit lock. Returns `None` — run it on the exclusive path —
    /// when the statement is not snapshot-eligible: a variable without
    /// transaction time has no version stamps to filter on, an `as of`
    /// past the watermark needs state the view predates, and any
    /// binding or execution error is re-derived under the lock against
    /// the authoritative catalog (a concurrent `destroy`/`modify` can
    /// invalidate the snapshot's file pointers mid-read).
    fn try_execute_snapshot(
        &self,
        r: &tdbms_tquel::ast::Retrieve,
        literals: &[Literal],
        guard: &QueryGuard,
        cache: Option<&CachedProgram>,
    ) -> Result<Option<ExecOutput>> {
        self.engine.check_usable()?;
        let view = self.engine.view();
        // Binder output is a pure function of the catalog's names and
        // schemas, the range table and the literals' types, which the
        // shape fixes: `"now"` is bound as an expression this run
        // evaluates at the view's watermark. The catalog generation
        // stands in for the first (it travels inside the view's
        // catalog, so it can't be observed out of step with it), and
        // the range table is compared in place.
        let generation = view.catalog.generation();
        let cached = cache
            .and_then(|prog| {
                prog.bound
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
            })
            .filter(|cb| cb.current(generation, &self.ranges));
        let mut fresh = None;
        let bound = match &cached {
            Some(cb) => &cb.bound,
            None => {
                let binder = Binder::new(&view.catalog, &self.ranges)
                    .with_params(literals);
                match binder.bind_retrieve(r) {
                    Ok(b) => &*fresh.insert(b),
                    Err(_) => return Ok(None),
                }
            }
        };
        if !bound.vars.iter().all(|v| v.class.has_transaction_time()) {
            return Ok(None);
        }
        match bound.window(literals, view.watermark) {
            Ok(Some(vis)) if vis.through <= view.watermark => {}
            _ if bound.vars.is_empty() => {}
            _ => return Ok(None),
        }
        let pager = self.engine.pager();
        if view.cold {
            pager.invalidate_buffers()?;
        }
        let scope = pager.stats().scope();
        let executed = exec_retrieve(
            pager,
            &view.catalog,
            bound,
            literals,
            view.watermark,
            guard,
            true,
        );
        let result = match executed {
            Ok(res) => res,
            // A guard firing is final — the budget is spent, so
            // retrying under the lock would only burn more of the
            // writer's time before timing out again.
            Err(e) if QueryGuard::is_guard_error(&e) => return Err(e),
            Err(_) => return Ok(None),
        };
        // Served successfully: remember the binding for the next run of
        // the same shape (only worth writing when fresh).
        if let (Some(prog), Some(bound)) = (cache, fresh) {
            *prog.bound.lock().unwrap_or_else(PoisonError::into_inner) =
                Some(Arc::new(CachedBound {
                    generation,
                    ranges: self.ranges.clone(),
                    bound,
                }));
        }
        self.engine.note_snapshot_read();
        Ok(Some(ExecOutput {
            affected: result.rows.len(),
            columns: result.columns,
            rows: result.rows,
            stats: QueryStats::of(&scope),
        }))
    }

    /// Execute under the exclusive lock via the single-threaded engine,
    /// with the statement's literals filled back in and this session's
    /// ranges swapped in; [`Engine::try_with_write`] then republishes
    /// the read view and (durable mode) acknowledges off the lock.
    fn execute_write(
        &mut self,
        stmt: &Statement,
        literals: &[Literal],
        guard: &QueryGuard,
    ) -> Result<ExecOutput> {
        let filled;
        let stmt = if literals.is_empty() {
            stmt
        } else {
            filled = stmt.with_params(literals);
            &filled
        };
        let ranges = &mut self.ranges;
        self.engine.try_with_write(|db| {
            std::mem::swap(db.ranges_mut(), ranges);
            let out = db.execute_statement_guarded(stmt, guard);
            std::mem::swap(db.ranges_mut(), ranges);
            out
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tdbms_kernel::Value;

    fn seeded_db() -> Database {
        seed(Database::in_memory())
    }

    /// The same contents in a durable database over in-memory devices.
    fn seeded_durable_db() -> Database {
        seed(
            Database::open_durable_on(
                Box::new(tdbms_storage::MemDisk::new()),
                Box::new(tdbms_wal::MemLog::new()),
                None,
            )
            .unwrap(),
        )
    }

    fn seed(mut db: Database) -> Database {
        db.set_cold_statements(false);
        db.execute(
            "create temporal interval emp (name = c20, salary = i4)",
        )
        .unwrap();
        for i in 0..32 {
            db.execute(&format!(
                r#"append to emp (name = "e{i}", salary = {})"#,
                1000 + i
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Session>();
    }

    #[test]
    fn session_matches_database_results() {
        let mut db = seeded_db();
        let want = db
            .execute("range of e is emp\nretrieve (e.name, e.salary) where e.salary > 1010")
            .unwrap();
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        let got = s
            .execute("range of e is emp\nretrieve (e.name, e.salary) where e.salary > 1010")
            .unwrap();
        assert_eq!(want.rows(), got.rows());
        assert_eq!(want.columns, got.columns);
        assert_eq!(want.affected, got.affected);
    }

    #[test]
    fn sessions_have_independent_range_tables() {
        let engine = Engine::new(seeded_db());
        engine.with_write(|db| {
            db.execute("create static dept (dname = c20)").unwrap();
            db.execute(r#"append to dept (dname = "eng")"#).unwrap();
        });
        let mut a = engine.session();
        let mut b = engine.session();
        a.execute("range of x is emp").unwrap();
        b.execute("range of x is dept").unwrap();
        let ra = a.execute("retrieve (x.name)").unwrap();
        let rb = b.execute("retrieve (x.dname)").unwrap();
        assert_eq!(ra.affected, 32);
        assert_eq!(rb.affected, 1);
    }

    #[test]
    fn parallel_readers_and_writers_stay_consistent() {
        let engine = Engine::new(seeded_db());
        let hits = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let engine = engine.clone();
                let hits = &hits;
                scope.spawn(move || {
                    let mut s = engine.session();
                    s.execute("range of e is emp").unwrap();
                    for i in 0..16 {
                        if t == 0 && i % 4 == 0 {
                            s.execute(&format!(
                                r#"append to emp (name = "w{i}", salary = 1)"#
                            ))
                            .unwrap();
                        } else {
                            let out = s
                                .execute("retrieve (e.salary) where e.salary > 1000")
                                .unwrap();
                            hits.fetch_add(out.affected, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(hits.load(Ordering::Relaxed) > 0);
        // Accounting survived the contention.
        engine.with_read(|db| assert!(db.io_stats().is_consistent()));
        // The writes all landed.
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let out =
            s.execute("retrieve (e.name) where e.salary = 1").unwrap();
        assert_eq!(out.affected, 4);
    }

    #[test]
    fn temporal_reads_never_touch_the_commit_lock() {
        for db in [seeded_db(), seeded_durable_db()] {
            let engine = Engine::new(db);
            let base = engine.lock_stats();
            let mut s = engine.session();
            s.execute("range of e is emp").unwrap();
            for _ in 0..8 {
                s.execute("retrieve (e.salary) where e.salary > 1000")
                    .unwrap();
            }
            // A temporal join is snapshot-eligible too.
            s.execute("range of f is emp").unwrap();
            let joined = s
                .execute(
                    "retrieve (e.name, f.name) \
                     where e.salary = 1000 and f.salary = 1001",
                )
                .unwrap();
            assert_eq!(joined.affected, 1);
            let now = engine.lock_stats();
            assert_eq!(
                now.exclusive, base.exclusive,
                "snapshot reads must not take the commit lock"
            );
            assert_eq!(now.snapshot_reads - base.snapshot_reads, 9);
        }
    }

    /// What the snapshot cannot serve runs on the exclusive path, with
    /// the answers the single-threaded database gives: a relation
    /// without transaction time, and an `as of` past the watermark.
    #[test]
    fn unversioned_and_future_reads_run_exclusively() {
        let setup = |db: &mut Database| {
            db.execute("create static dept (dname = c20, floor = i4)")
                .unwrap();
            for (d, f) in [("eng", 3), ("ops", 1), ("law", 3)] {
                db.execute(&format!(
                    r#"append to dept (dname = "{d}", floor = {f})"#
                ))
                .unwrap();
            }
        };
        let mut db = seeded_db();
        setup(&mut db);
        let engine = Engine::new(seeded_db());
        engine.with_write(setup);
        let mut s = engine.session();
        for q in [
            "range of d is dept\nretrieve (d.dname) where d.floor = 3",
            "range of e is emp\nretrieve (e.name) \
             where e.salary < 1004 as of \"2100-01-01\"",
        ] {
            let want = db.execute(q).unwrap();
            assert!(want.affected >= 2, "{q}");
            let base = engine.lock_stats();
            let got = s.execute(q).unwrap();
            assert_eq!(want.rows(), got.rows(), "{q}");
            assert_eq!(want.columns, got.columns, "{q}");
            let now = engine.lock_stats();
            assert_eq!(now.exclusive - base.exclusive, 1, "{q}");
            assert_eq!(now.snapshot_reads, base.snapshot_reads, "{q}");
        }
    }

    #[test]
    fn repeated_statements_hit_the_plan_cache() {
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let q = "retrieve (e.salary) where e.salary > 1000";
        let first = s.execute(q).unwrap();
        let (h0, m0) = engine.plan_cache_stats();
        for _ in 0..7 {
            let again = s.execute(q).unwrap();
            assert_eq!(again.rows(), first.rows());
        }
        let (h1, m1) = engine.plan_cache_stats();
        assert_eq!(h1 - h0, 7, "repeats must be cache hits");
        assert_eq!(m1, m0, "repeats must not miss");
        // One shape serves every literal. Warm the binding on 1007, then
        // 1008 must hit it *and* answer for 1008, not for 1007.
        let by_salary =
            |k: i64| format!("retrieve (e.name) where e.salary = {k}");
        s.execute(&by_salary(1007)).unwrap(); // parses and binds
        let warm = s.execute(&by_salary(1007)).unwrap(); // cached binding
        assert_eq!(warm.rows()[0][0], Value::Str("e7".into()));
        let (h2, m2) = engine.plan_cache_stats();
        let other = s.execute(&by_salary(1008)).unwrap();
        let (h3, m3) = engine.plan_cache_stats();
        assert_eq!((h3 - h2, m3 - m2), (1, 0), "a new literal must hit");
        assert_eq!(other.affected, 1);
        assert_eq!(other.rows()[0][0], Value::Str("e8".into()));
        let want = seeded_db()
            .execute(&format!("range of e is emp\n{}", by_salary(1008)))
            .unwrap();
        assert_eq!(other.rows(), want.rows());
    }

    /// A cached template still answers in the terms of each statement
    /// as written: `explain` and error texts carry its own literals, and
    /// a literal the parse reads by value keeps its program apart.
    #[test]
    fn cached_templates_keep_each_statements_literals() {
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let mut db = seeded_db();
        db.execute("range of e is emp").unwrap();
        let explain = |k: i64| {
            format!("explain retrieve (e.name) where e.salary = {k}")
        };
        for k in [1003, 1004] {
            let got = s.execute(&explain(k)).unwrap();
            assert_eq!(got.rows(), db.execute(&explain(k)).unwrap().rows());
        }
        for m in [1i64 << 62, (1 << 62) + 1] {
            let q = format!("retrieve (x = e.salary * {m})");
            let err = s.execute(&q).unwrap_err();
            assert_eq!(err, db.execute(&q).unwrap_err());
            assert!(err.to_string().contains(&m.to_string()), "{err}");
        }
        let modify = |ff: u32| {
            format!("modify emp to hash on salary where fillfactor = {ff}")
        };
        let (h0, m0) = engine.plan_cache_stats();
        for ff in [50, 100, 100] {
            s.execute(&modify(ff)).unwrap();
        }
        let (h1, m1) = engine.plan_cache_stats();
        assert_eq!(
            (h1 - h0, m1 - m0),
            (1, 2),
            "a fillfactor is served only to its own literal"
        );
    }

    /// A cached binding survives every commit that creates or drops
    /// no relation, and each run reads at its own watermark: it sees
    /// what the commits wrote, in current reads, temporal `when`
    /// clauses and `as of` windows that reach `"now"`. Only a name
    /// that changes what it resolves to drops it.
    #[test]
    fn cached_bindings_outlive_commits_and_see_them() {
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let q = "retrieve (e.name) where e.salary = 5555";
        assert_eq!(s.execute(q).unwrap().affected, 0);
        let warm = s.cached_binding(q).unwrap();
        assert!(warm.is_some(), "a snapshot read caches its binding");
        s.execute(r#"append to emp (name = "late", salary = 5555)"#)
            .unwrap();
        assert_eq!(
            s.cached_binding(q).unwrap(),
            warm,
            "an append must not drop the cached binding"
        );
        let after = s.execute(q).unwrap();
        assert_eq!(after.affected, 1);
        assert_eq!(after.rows()[0][0], Value::Str("late".into()));

        // A temporal read after a replace reads at the replace's own
        // instant, as an uncached run does: there the closing version,
        // whose valid time ends at that instant, still overlaps it.
        let now = "retrieve (e.name, e.salary) \
                   where e.name = \"e3\" when e overlap \"now\"";
        s.execute(now).unwrap();
        assert!(s.cached_binding(now).unwrap().is_some());
        s.execute(r#"replace e (salary = 9) where e.name = "e3""#)
            .unwrap();
        assert!(s.cached_binding(now).unwrap().is_some());
        let uncached = |s: &mut Session| {
            s.execute_statement(&tdbms_tquel::parse_statement(now).unwrap())
                .unwrap()
        };
        let got = s.execute(now).unwrap();
        assert_eq!(got.rows(), uncached(&mut s).rows());
        let salaries: Vec<_> = got.rows().iter().map(|r| &r[1]).collect();
        assert_eq!(salaries, [&Value::Int(1003), &Value::Int(9)]);
        // Once a later commit moves "now" past it, only the new version
        // is current, as in a run on the database itself.
        s.execute(r#"append to emp (name = "next", salary = 1)"#)
            .unwrap();
        let got = s.execute(now).unwrap();
        assert_eq!(got.rows(), uncached(&mut s).rows());
        assert_eq!(got.rows().len(), 1);
        assert_eq!(got.rows()[0][1], Value::Int(9));
        let want = engine.with_write(|db| {
            db.execute(&format!("range of e is emp\n{now}")).unwrap()
        });
        assert_eq!(got.rows(), want.rows());
        assert_eq!(got.columns, want.columns);

        // A window from the past through "now" reaches every commit.
        let span = "retrieve (e.name) where e.salary = 4444 \
                    as of \"1970-01-01\" through \"now\"";
        assert_eq!(s.execute(span).unwrap().affected, 0);
        assert!(s.cached_binding(span).unwrap().is_some());
        for i in 0..3 {
            s.execute(&format!(
                r#"append to emp (name = "s{i}", salary = 4444)"#
            ))
            .unwrap();
            assert_eq!(s.execute(span).unwrap().affected, i + 1);
        }
        assert!(s.cached_binding(span).unwrap().is_some());

        // Destroy and re-create under the same name with another
        // schema: the name resolves anew, so the binding is dropped and
        // the next run reads the new relation.
        let by_name = "retrieve (e.name)";
        // The 32 seeded rows, 5 appended, and e3's closing version.
        assert_eq!(s.execute(by_name).unwrap().affected, 32 + 5 + 1);
        assert!(s.cached_binding(by_name).unwrap().is_some());
        s.execute("destroy emp").unwrap();
        s.execute("create temporal interval emp (id = i4, name = c8)")
            .unwrap();
        s.execute(r#"append to emp (id = 1, name = "fresh")"#)
            .unwrap();
        s.execute("range of e is emp").unwrap();
        assert_eq!(s.cached_binding(by_name).unwrap(), None);
        let fresh = s.execute(by_name).unwrap();
        assert_eq!(fresh.affected, 1);
        assert_eq!(fresh.rows()[0][0], Value::Str("fresh".into()));
    }

    #[test]
    fn cached_bindings_respect_the_session_range_table() {
        let engine = Engine::new(seeded_db());
        engine.with_write(|db| {
            db.execute(
                "create temporal interval emp2 (name = c20, salary = i4)",
            )
            .unwrap();
            db.execute(r#"append to emp2 (name = "only", salary = 1)"#)
                .unwrap();
        });
        let mut a = engine.session();
        a.execute("range of e is emp").unwrap();
        let q = "retrieve (e.name)";
        assert_eq!(a.execute(q).unwrap().affected, 32);
        assert_eq!(a.execute(q).unwrap().affected, 32); // warm
                                                        // Same statement text, different binding in a second session.
        let mut b = engine.session();
        b.execute("range of e is emp2").unwrap();
        assert_eq!(
            b.execute(q).unwrap().affected,
            1,
            "cached binding must not leak across range tables"
        );
        assert_eq!(a.execute(q).unwrap().affected, 32);
    }

    #[test]
    fn snapshot_reads_see_every_published_commit() {
        let engine = Engine::new(seeded_db());
        let mut w = engine.session();
        let mut r = engine.session();
        w.execute("range of e is emp").unwrap();
        r.execute("range of e is emp").unwrap();
        for i in 0..8 {
            w.execute(&format!(
                r#"append to emp (name = "n{i}", salary = 7777)"#
            ))
            .unwrap();
            let out = r
                .execute("retrieve (e.name) where e.salary = 7777")
                .unwrap();
            assert_eq!(out.affected, i + 1, "append {i} must be visible");
        }
    }

    #[test]
    fn writer_panic_poisons_the_engine_for_all_sessions() {
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.with_write(|_| panic!("writer dies mid-commit"))
            }));
        assert!(caught.is_err());
        // Every path fails loudly now: snapshot, exclusive, introspection.
        let read = s.execute("retrieve (e.salary) where e.salary = 1000");
        assert_eq!(read.unwrap_err(), Error::Poisoned);
        let write = s.execute(r#"append to emp (name = "x", salary = 1)"#);
        assert_eq!(write.unwrap_err(), Error::Poisoned);
        let range = s.execute("range of q is emp");
        assert_eq!(range.unwrap_err(), Error::Poisoned);
        assert!(engine.try_with_read(|db| db.relation_names()).is_err());
    }
}
