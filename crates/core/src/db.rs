//! The database handle: parse → bind → execute, with the paper's
//! page-access accounting per statement.
//!
//! Everything that mutates — a statement, `bulk_load_rows`, a
//! `reorganize` pass — runs as one *write unit* (`write_unit`): a
//! durable database admits it, runs the body — its changes collect in
//! the pager's statement layer — and either rolls back or commits
//! through the WAL; one without a log (in memory) just runs the body.
//! DML reads its targets through the one query processor
//! (`exec::ovqp`) and every write statement computes its whole effect
//! before its first write, so an evaluation error leaves nothing behind
//! in either case; only a device error mid-write is not rolled back
//! without a log, and `MemDisk` cannot raise one. Every
//! file-backed database is durable. A durable commit always goes
//! through the database's commit queue ([`tdbms_wal::GroupCommit`],
//! created at open). A standalone database waits for its log sync in
//! `commit_durable`, under the caller's lock; an [`crate::Engine`]
//! acknowledges after releasing its commit lock, so one sync can cover
//! a batch of sessions' commits — except a commit that makes a
//! checkpoint due, which waits under the lock in either case.

use crate::binder::Binder;
use crate::dml;
use crate::exec::{exec_retrieve, QueryStats};
use crate::guard::QueryGuard;
use crate::interval::TInterval;
use std::collections::HashMap;
use std::sync::Arc;
use tdbms_kernel::{
    Clock, DatabaseClass, Domain, Error, Result, RowCodec, Schema,
    TemporalKind, TimeVal, Value,
};
use tdbms_storage::{
    AccessMethod, BufferConfig, Catalog, ChecksumSet, ClusteredHistory,
    DiskManager, FileId, HashFn, IoStats, KeySpec, Pager, RelId, Stamps,
    StatScope, StoredRelation, PAGE_SIZE,
};
use tdbms_tquel::ast::Statement;
use tdbms_wal::{
    CheckpointPolicy, GroupCommit, GroupCommitConfig, LogHandle, LogStore,
    Record, Recovered, Wal,
};

/// Pseudo file id under which WAL log traffic is accounted in
/// [`IoStats`] (log appends are byte streams, charged as
/// page-equivalents so `QueryStats` phases show the durability cost
/// next to the paper's per-relation metric).
pub const WAL_FILE: FileId = FileId(u32::MAX);

/// Pseudo file id under which checksum-sidecar traffic is accounted in
/// [`IoStats`] (sidecar saves are byte streams, charged as
/// page-equivalents inside a named `"scrub"` phase — the same shape as
/// WAL accounting on [`WAL_FILE`]). Scrub traffic never lands on a user
/// relation, so the paper's figures are untouched.
pub const SCRUB_FILE: FileId = FileId(u32::MAX - 1);

/// The durability engine of a WAL-enabled database.
struct WalState {
    wal: Wal,
    policy: CheckpointPolicy,
    commits_since_checkpoint: u32,
    /// The commit queue: every commit registers a ticket here and is
    /// acknowledged once a log sync covers it. Created at open with
    /// [`GroupCommitConfig::default`] bounds and never replaced (an
    /// [`crate::Engine`] holds it);
    /// [`Database::enable_group_commit`] resets its bounds in place.
    gc: Arc<GroupCommit>,
    log: LogHandle,
    /// Engine mode: leave a commit's ticket in `pending` for the caller
    /// to acknowledge after the lock, unless a checkpoint is due.
    defer_ack: bool,
    /// The last commit's ticket, awaiting that acknowledgement.
    pending: Option<u64>,
}

/// How far a failed commit got. Everything up to and including the
/// log fsync is *pre-durability*: the statement can be rolled back
/// (its content never reached the page files — staging mode). A
/// failure after that point (the due checkpoint) left a durably
/// committed statement behind: rolling it back would lose an
/// acknowledged write, so the caller keeps the effects and degrades.
struct CommitError {
    err: Error,
    durable: bool,
}

/// What one executed statement produced.
#[derive(Debug, Clone, Default)]
pub struct ExecOutput {
    /// Result columns (retrieve only).
    pub columns: Arc<[(String, Domain)]>,
    /// Result rows (retrieve only).
    pub(crate) rows: Vec<Vec<Value>>,
    /// Page-access costs of the statement.
    pub stats: QueryStats,
    /// Tuples affected (DML) or returned (retrieve).
    pub affected: usize,
}

impl ExecOutput {
    /// The result rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Take ownership of the result rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Index of the named result column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Render the result as an aligned text table (for examples/demos).
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() {
            return format!("({} tuples affected)", self.affected);
        }
        let mut widths: Vec<usize> =
            self.columns.iter().map(|(n, _)| n.len()).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        for (i, (n, _)) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", n, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// A description of a stored relation, read off its catalog entry and
/// the pager's page counts whenever it is asked for: the shell's `\d`
/// and `\stats`, the cost model and the scale sweep all read this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationMeta {
    /// Relation name.
    pub name: String,
    /// Database class.
    pub class: DatabaseClass,
    /// Interval or event.
    pub kind: TemporalKind,
    /// Storage organization.
    pub method: AccessMethod,
    /// Fill factor the file was built with.
    pub fillfactor: u8,
    /// Key attribute name, if keyed.
    pub key: Option<String>,
    /// Total pages including any ISAM directory.
    pub total_pages: u32,
    /// Pages a sequential scan reads.
    pub scannable_pages: u32,
    /// ISAM directory levels (0 for heap/hash).
    pub directory_levels: u32,
    /// Stored row (version) count.
    pub tuple_count: u64,
    /// Keys appended since the relation was created or the database
    /// opened (0 = unknown).
    pub distinct_keys: u64,
    /// Versions migrated into the clustered history sidecar by online
    /// reorganization (0 without a sidecar). They are off the primary's
    /// chains, which is why [`RelationMeta::chain_len`] excludes them.
    pub history_rows: u64,
    /// Fixed row width in bytes.
    pub row_width: usize,
    /// Names of secondary indexes on this relation.
    pub index_names: Vec<String>,
}

impl RelationMeta {
    /// Describe one catalog entry (page counts come from the pager's
    /// file lengths; no page is read).
    pub fn of(pager: &Pager, rel: &StoredRelation) -> Result<Self> {
        Ok(RelationMeta {
            name: rel.name.clone(),
            class: rel.schema.class(),
            kind: rel.schema.kind(),
            method: rel.file.method(),
            fillfactor: rel.fillfactor,
            key: rel
                .key_attr
                .and_then(|k| rel.schema.name_of(k).map(str::to_owned)),
            total_pages: rel.file.total_pages(pager)?,
            scannable_pages: rel.file.scannable_pages(pager)?,
            directory_levels: rel.file.directory_levels(),
            tuple_count: rel.tuple_count,
            distinct_keys: rel.distinct_keys,
            history_rows: rel.history.as_ref().map_or(0, |h| h.rows()),
            row_width: rel.schema.row_width(),
            index_names: rel
                .indexes
                .iter()
                .map(|ix| ix.name.clone())
                .collect(),
        })
    }

    /// Distinct-key estimate with the unknown (0) case defaulted to
    /// one version per key.
    pub fn distinct_estimate(&self) -> u64 {
        if self.distinct_keys == 0 {
            self.tuple_count.max(1)
        } else {
            self.distinct_keys.min(self.tuple_count.max(1))
        }
    }

    /// Mean version/overflow-chain length in pages for a keyed probe:
    /// every version of a key lands on the same bucket / ISAM chain,
    /// one page each in the prototype's chain-walking layout — the
    /// paper's `1 + 2·uc` growth. Migrated history rows are not
    /// counted: an at-now probe after a reorganization walks only the
    /// shortened primary chain.
    pub fn chain_len(&self) -> u64 {
        self.tuple_count.div_ceil(self.distinct_estimate()).max(1)
    }

    /// Mean stored rows per scannable page.
    pub fn rows_per_page(&self) -> u64 {
        (self.tuple_count / u64::from(self.scannable_pages).max(1)).max(1)
    }
}

/// Cumulative counters of the online reorganizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorgStats {
    /// Completed reorganization passes that migrated at least one
    /// version.
    pub runs: u64,
    /// Versions migrated from primary files into history sidecars.
    pub rows_migrated: u64,
}

/// A temporal database: catalog + storage + session state (range table,
/// transaction clock).
pub struct Database {
    pager: Arc<Pager>,
    catalog: Catalog,
    ranges: HashMap<String, String>,
    clock: Clock,
    hashfn: HashFn,
    cold_statements: bool,
    /// Directory of a file-backed database; every WAL checkpoint writes
    /// the checksum sidecar there (the catalog and the clock live in the
    /// log).
    persist_dir: Option<std::path::PathBuf>,
    /// Write-ahead log, when the database was opened in durable mode.
    wal: Option<WalState>,
    /// Set when a write-path resource failure (disk full, fsync error)
    /// put the engine in read-only degraded mode. Reads keep serving;
    /// writes are refused with [`Error::Degraded`] until a re-arm
    /// (automatic on the next write admission) succeeds.
    degraded: Option<String>,
    /// Cumulative online-reorganization counters.
    reorg: ReorgStats,
}

impl Database {
    /// An in-memory database with the paper's configuration: one buffer
    /// frame per relation, mod hashing, logical clock.
    pub fn in_memory() -> Self {
        Database::with_pager(Pager::in_memory())
    }

    /// An in-memory database with an explicit buffer configuration
    /// (LRU frames per relation). `BufferConfig::paper()` is what
    /// [`Database::in_memory`] uses.
    pub fn in_memory_with_buffers(config: BufferConfig) -> Self {
        Database::with_pager(Pager::in_memory_with_config(config))
    }

    /// A file-backed database rooted at `dir`, with crash recovery: a
    /// write-ahead log (`wal.tdbms` beside the page files) makes every
    /// statement a durable transaction. On open, committed transactions
    /// found in the log are replayed onto the page files (redo-only
    /// recovery), so a process killed at any point reopens with every
    /// committed tuple intact and nothing uncommitted visible. The log
    /// carries the only catalog: a directory with page files but no
    /// catalog in its log is refused. A directory with a checksum
    /// sidecar (`sums.tdbms`) always opens with verification on.
    /// Session state — the range table — does not persist; re-declare
    /// ranges.
    pub fn open_durable(
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<Self> {
        let dir = dir.into();
        let recovered = tdbms_wal::recover_dir(&dir)?;
        Database::from_recovered(recovered, Some(dir))
    }

    /// [`Database::open_durable`] over explicit storage backends: the
    /// crash-recovery tests reopen shared in-memory survivors, and fault
    /// injection wraps both channels here. `persist_dir` is the page
    /// files' directory, where the checksum sidecar lives.
    pub fn open_durable_on(
        disk: Box<dyn DiskManager>,
        log: Box<dyn LogStore>,
        persist_dir: Option<std::path::PathBuf>,
    ) -> Result<Self> {
        let recovered =
            tdbms_wal::recover(disk, log, persist_dir.as_deref())?;
        Database::from_recovered(recovered, persist_dir)
    }

    /// Wrap what recovery left in a durable database, queue a drop of
    /// every page file its catalog does not own (a statement the crash
    /// cut short may have created one), then checkpoint: the queued
    /// drops execute, the replayed state is on disk and synced, so the
    /// log truncates to the catalog alone and the next crash recovers
    /// from here instead of replaying history again. An orphan the
    /// device refuses to drop only strands space: it stays queued, and
    /// the next open drops it if nothing else has.
    fn from_recovered(
        recovered: Recovered,
        persist_dir: Option<std::path::PathBuf>,
    ) -> Result<Self> {
        let Recovered {
            wal,
            pager,
            catalog,
            clock,
            ..
        } = recovered;
        pager.set_staging(true);
        let owned = catalog.owned_files();
        for (file, _) in pager.file_lengths()? {
            if !owned.contains(&file) {
                pager.drop_file(file)?;
            }
        }
        let mut db = Database::with_pager(pager);
        db.catalog = catalog;
        db.clock.advance_to(clock);
        db.persist_dir = persist_dir;
        db.wal = Some(WalState {
            log: wal.handle(),
            wal,
            policy: CheckpointPolicy::EveryCommit,
            commits_since_checkpoint: 0,
            gc: Arc::new(GroupCommit::new(GroupCommitConfig::default())),
            defer_ack: false,
            pending: None,
        });
        db.checkpoint()?;
        Ok(db)
    }

    /// Save the checksum sidecar beside the page files (no-op unless
    /// checksums are on and the database is file-backed), accounting the
    /// bytes as page-equivalents on [`SCRUB_FILE`] inside a `"scrub"`
    /// phase.
    fn persist_checksums(&mut self) -> Result<()> {
        let (Some(dir), Some(sums)) =
            (self.persist_dir.clone(), self.pager.checksums_snapshot())
        else {
            return Ok(());
        };
        let bytes = sums.encode().len() as u64;
        sums.save(&dir)?;
        self.pager.begin_phase("scrub");
        self.pager
            .stats()
            .add_writes(SCRUB_FILE, bytes.div_ceil(PAGE_SIZE as u64));
        self.pager.end_phase();
        Ok(())
    }

    /// Start sidecar page checksums: every disk read is verified
    /// against an FNV-1a 64 sum and every disk write refreshes it;
    /// pages without a recorded sum are adopted on first read. A
    /// file-backed database saves the sidecar (`sums.tdbms`) at every
    /// checkpoint, and a directory that has one always reopens with
    /// verification on, so this only matters for in-memory databases
    /// and directories without a sidecar. The default (checksums off)
    /// is the paper configuration.
    pub fn enable_checksums(&mut self) {
        if !self.pager.checksums_enabled() {
            self.pager.set_checksums(Some(ChecksumSet::default()));
        }
    }

    /// Whether sidecar checksums are on.
    pub fn checksums_enabled(&self) -> bool {
        self.pager.checksums_enabled()
    }

    /// WAL checkpoint: write the staged overlay through to the page
    /// files, fsync them, and truncate the log to a fresh header plus
    /// one committed catalog transaction — the only on-disk copy of the
    /// catalog and the clock. A database without a log only writes its
    /// dirty buffers back.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.wal.is_none() {
            return self.pager.flush_all();
        }
        let ws = self.wal.as_mut().expect("durable mode");
        if !ws.gc.all_durable() {
            // The log holds commits appended but not yet fsynced (a
            // batching leader has them, or their sync failed). Sync
            // first — the logged drops and the overlay materialization
            // below must never get ahead of the log's durable prefix,
            // or a crash before the truncation could recover a log
            // that no longer describes the files it replays onto.
            ws.wal.sync()?;
        }
        // Whatever the statement layer holds (nothing between
        // statements; an open's orphan drops) is folded in first. A
        // checkpoint durably materializes everything the log describes,
        // so every logged drop can execute now — the catalog being
        // checkpointed no longer references those files.
        self.pager.flush_all()?;
        self.pager.commit_statement(0);
        self.pager.execute_drops(u64::MAX);
        let touched = self.pager.materialize_overlay()?;
        for f in touched {
            self.pager.sync_file(f)?;
        }
        // The sidecar goes before the truncation: a crash between the
        // two leaves the log's images, which recovery records as sums
        // again, never a truncated log beside sums older than the pages.
        self.persist_checksums()?;
        let lengths = self.pager.file_lengths()?;
        let ws = self.wal.as_mut().expect("durable mode");
        ws.wal
            .checkpoint(&lengths, self.clock.now(), &self.catalog)?;
        ws.commits_since_checkpoint = 0;
        // The truncation above was atomic and fsynced: every
        // outstanding ticket is durable without a log fsync.
        ws.gc.mark_all_durable();
        Ok(())
    }

    /// Append the current statement's commit to the write-ahead log,
    /// read off the pager's statement layer: new file lengths, the
    /// after-image (stamped with its LSN) of every page whose bytes the
    /// statement changed — a page it only walked is counted as written
    /// but not logged —, the file drops, and the catalog + clock, fenced
    /// by `Begin`/`Commit`. Nothing is synced here.
    fn append_commit_records(&mut self) -> Result<()> {
        let changes = self.pager.statement_changes();
        let catalog = Record::catalog_of(self.clock.now(), &self.catalog);
        let ws = self.wal.as_mut().expect("durable mode");
        ws.wal.append(&Record::Begin)?;
        for (file, len) in changes.lengths {
            ws.wal.append(&Record::FileLen { file, len })?;
        }
        for (file, page_no) in changes.pages {
            let lsn = ws.wal.peek_lsn();
            let image = self.pager.stamp_lsn(file, page_no, lsn)?;
            ws.wal.append(&Record::PageImage {
                file,
                page_no,
                image,
            })?;
        }
        for file in changes.drops {
            ws.wal.append(&Record::DropFile { file })?;
        }
        ws.wal.append(&catalog)?;
        ws.wal.append(&Record::Commit)?;
        Ok(())
    }

    /// Commit the current statement's staged changes: append its
    /// records, take a ticket on the commit queue and — unless an
    /// [`crate::Engine`] acknowledges after the lock — wait for the log
    /// sync that covers it, then merge the pager's statement layer. Only
    /// after the log is durable do the logged file drops execute
    /// physically.
    ///
    /// Failures up to and including that wait return `durable: false` —
    /// the statement is safe to roll back (its records, if any landed,
    /// have no durable `Commit`; see the abandoned-`Begin` rule in
    /// [`tdbms_wal::RecoveryPlan::parse`], and the re-arm checkpoint
    /// truncates them away). A failure *after* it — the due checkpoint
    /// — returns `durable: true`: the statement is committed and must
    /// stand.
    fn commit_durable(&mut self) -> std::result::Result<(), CommitError> {
        fn pre(err: Error) -> CommitError {
            CommitError {
                err,
                durable: false,
            }
        }
        self.pager.flush_all().map_err(pre)?;
        self.pager.begin_phase("wal");
        let ws = self.wal.as_ref().expect("durable mode");
        let before = ws.wal.bytes_appended();
        self.append_commit_records().map_err(pre)?;
        let ws = self.wal.as_mut().expect("durable mode");
        ws.commits_since_checkpoint += 1;
        let due = ws.policy.due(ws.commits_since_checkpoint);
        // Issued in the same critical section as the appends: ticket
        // order = log order.
        let ticket = ws.gc.register();
        if due || !ws.defer_ack {
            // Wait under the lock, while a sync failure can still be
            // classified pre-durability: nobody acknowledges a
            // standalone database after the lock, and a due
            // checkpoint's leading log sync must not be this commit's
            // FIRST durability point — a checkpoint failure maps to
            // `durable: true` and would acknowledge a commit that was
            // never fsynced. The statement's layer is still unmerged on
            // failure, so its rollback drops it, drops and all. Nobody
            // can register while the lock is held, so this wait never
            // lingers for a batch.
            ws.gc
                .wait_durable_locked(ticket, || ws.log.sync())
                .map_err(pre)?;
            self.pager.commit_statement(ticket);
            self.pager.execute_drops(ticket);
        } else {
            self.pager.commit_statement(ticket);
            ws.pending = Some(ticket);
        }
        if due {
            self.checkpoint()
                .map_err(|err| CommitError { err, durable: true })?;
        }
        let ws = self.wal.as_ref().expect("durable mode");
        let delta = ws.wal.bytes_appended() - before;
        self.pager
            .stats()
            .add_writes(WAL_FILE, delta.div_ceil(PAGE_SIZE as u64));
        self.pager.end_phase();
        Ok(())
    }

    /// Set the batch bounds of the commit queue (default
    /// [`GroupCommitConfig::default`]), in place: an [`crate::Engine`]
    /// already built over this database keeps waiting on the same
    /// queue. Only an engine batches — a standalone commit never
    /// lingers — and only between checkpoints: a commit that makes one
    /// due waits under the lock, so pair an engine with a
    /// [`CheckpointPolicy`] other than `EveryCommit`.
    pub fn enable_group_commit(
        &mut self,
        cfg: GroupCommitConfig,
    ) -> Result<()> {
        let Some(ws) = self.wal.as_ref() else {
            return Err(Error::NotApplicable(
                "group commit requires a durable (WAL) database".into(),
            ));
        };
        ws.gc.set_config(cfg);
        Ok(())
    }

    /// The commit queue and log handle of a durable database.
    pub(crate) fn group_commit(
        &self,
    ) -> Option<(Arc<GroupCommit>, LogHandle)> {
        let ws = self.wal.as_ref()?;
        Some((ws.gc.clone(), ws.log.clone()))
    }

    /// Engine mode: leave each commit's ticket pending for the caller
    /// to acknowledge *after* releasing the commit lock — that overlap
    /// is what lets the leader batch other sessions' commits.
    pub(crate) fn set_defer_group_ack(&mut self, defer: bool) {
        if let Some(ws) = self.wal.as_mut() {
            ws.defer_ack = defer;
        }
    }

    /// Take the last commit's ticket, if it still awaits acknowledgement.
    pub(crate) fn take_pending_commit(&mut self) -> Option<u64> {
        self.wal.as_mut()?.pending.take()
    }

    /// Change when WAL checkpoints happen (durable mode only; default
    /// [`CheckpointPolicy::EveryCommit`]).
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        if let Some(ws) = self.wal.as_mut() {
            ws.policy = policy;
        }
    }

    // --- Degraded mode ---------------------------------------------------
    //
    // A write-path resource failure (disk full, fsync error) must not
    // take reads down with it: the failed statement rolls back, the
    // engine turns away *new writes* with `Error::Degraded`, and every
    // read keeps serving the last committed state. The mode is sticky
    // but recoverable — the next write admission takes a checkpoint,
    // and if the disk has recovered the engine re-arms itself.

    /// Whether the engine is in read-only degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some() || self.group_failure().is_some()
    }

    /// Why the engine is degraded, when it is.
    pub fn degraded_reason(&self) -> Option<String> {
        self.degraded
            .clone()
            .or_else(|| self.group_failure().map(|e| e.to_string()))
    }

    /// The commit queue's standing fsync failure, if any.
    fn group_failure(&self) -> Option<Error> {
        self.wal.as_ref()?.gc.failure()
    }

    /// Gate a mutating statement: healthy engines pass through; a
    /// degraded engine first attempts a re-arm and only admits the
    /// write if it succeeds.
    fn admit_write(&mut self) -> Result<()> {
        if self.is_degraded() {
            self.try_rearm()?;
        }
        Ok(())
    }

    /// Attempt to leave degraded mode: take a full checkpoint — which
    /// materializes the overlay, fsyncs everything, truncates the log,
    /// and re-arms a failed commit queue. The truncation resolves any
    /// commit of unknown durability to its kept in-memory outcome: a
    /// statement rolled back pre-durability vanishes for good, while
    /// one whose effects stood (an engine's failed acknowledgement
    /// after the lock, surfaced as [`Error::RetryUnsafe`]) is durably
    /// persisted.
    /// On success the engine is healthy; on failure it stays degraded
    /// and reads keep serving.
    pub fn try_rearm(&mut self) -> Result<()> {
        let reason = self
            .degraded_reason()
            .unwrap_or_else(|| "degraded".to_string());
        let rearm_err = |e: Error| Error::Degraded {
            reason: format!("{reason}; re-arm failed: {e}"),
        };
        self.checkpoint().map_err(rearm_err)?;
        self.degraded = None;
        Ok(())
    }

    /// Record a write-path failure and return the typed degraded error
    /// the client sees.
    fn enter_degraded(&mut self, e: &Error) -> Error {
        let reason = match e {
            Error::Degraded { reason } => reason.clone(),
            other => other.to_string(),
        };
        self.degraded = Some(reason.clone());
        Error::Degraded { reason }
    }

    /// Unwind a failed mutating statement: close the WAL phase, roll
    /// the pager back to the statement boundary, restore the catalog
    /// snapshot, and decide whether the failure degrades the engine
    /// (resource exhaustion does; a semantic error that slipped past
    /// binding does not).
    fn fail_write_statement(
        &mut self,
        e: Error,
        snapshot: Catalog,
    ) -> Error {
        self.pager.end_phase();
        self.pager.rollback_statement();
        self.catalog = snapshot;
        if matches!(e, Error::Io(_)) {
            self.enter_degraded(&e)
        } else {
            e
        }
    }

    /// Run `body` as one write unit — the one place a statement, a bulk
    /// load or a reorganization pass becomes a transaction. A durable
    /// database admits the write (re-arming a degraded engine first),
    /// runs the body — a body that dies mid-flight (disk full) rolls
    /// back to this boundary, dropping the pager's statement layer,
    /// instead of poisoning the engine — and commits through the WAL;
    /// one without a log just runs the body.
    fn write_unit<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        if self.wal.is_none() {
            return body(self);
        }
        self.admit_write()?;
        let snapshot = self.catalog.clone();
        let out = match body(self) {
            Ok(out) => out,
            Err(e) => return Err(self.fail_write_statement(e, snapshot)),
        };
        match self.commit_durable() {
            Ok(()) => {}
            Err(ce) if ce.durable => {
                // The commit reached the log durably; only the due
                // checkpoint failed. Returning an error for a durable
                // statement would invite unsafe retries — keep the
                // effects, surface the failure through degraded mode.
                self.pager.end_phase();
                self.degraded = Some(ce.err.to_string());
            }
            Err(ce) => {
                return Err(self.fail_write_statement(ce.err, snapshot))
            }
        }
        Ok(out)
    }

    /// Build from a custom pager.
    pub fn with_pager(pager: Pager) -> Self {
        Database {
            pager: Arc::new(pager),
            catalog: Catalog::new(),
            ranges: HashMap::new(),
            clock: Clock::default(),
            hashfn: HashFn::Mod,
            cold_statements: true,
            persist_dir: None,
            wal: None,
            degraded: None,
            reorg: ReorgStats::default(),
        }
    }

    /// Planner-estimated `(input, output)` pages for a program of
    /// `range` declarations and one or more retrieves (the estimate of
    /// the last retrieve is returned). Entirely side-effect free: no
    /// clock tick, no buffer invalidation, no counter reset — safe to
    /// interleave with measured sweeps without disturbing them.
    pub fn estimate_retrieve(&self, src: &str) -> Result<(u64, u64)> {
        let stmts = tdbms_tquel::parse_program(src)?;
        let mut ranges = self.ranges.clone();
        let now = self.clock.now();
        let mut last = None;
        for stmt in &stmts {
            match stmt {
                Statement::Range { var, rel } => {
                    self.catalog.require(rel)?;
                    ranges.insert(var.clone(), rel.clone());
                }
                Statement::Retrieve(r) | Statement::Explain(r) => {
                    let binder = Binder::new(&self.catalog, &ranges);
                    let bound = binder.bind_retrieve(r)?;
                    let plan = crate::plan::plan_bound(
                        &self.pager,
                        &self.catalog,
                        &bound,
                        now,
                    )?;
                    last = Some((plan.est_input, plan.est_output));
                }
                _ => {
                    return Err(Error::Semantic(
                        "estimate supports range/retrieve only".into(),
                    ))
                }
            }
        }
        last.ok_or_else(|| {
            Error::Semantic("no retrieve to estimate".into())
        })
    }

    /// Replace the transaction clock.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = clock;
    }

    /// The transaction clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Select the hash function used by subsequent `modify ... to hash`
    /// (see DESIGN.md on the Ingres-hash substitution).
    pub fn set_hash_fn(&mut self, f: HashFn) {
        self.hashfn = f;
    }

    /// Whether each statement starts with cold buffers (default true,
    /// matching the paper's per-query accounting). Turn off to measure
    /// warm-buffer behaviour.
    pub fn set_cold_statements(&mut self, cold: bool) {
        self.cold_statements = cold;
    }

    /// Enable/disable the overflow-chain Bloom guards (default off:
    /// skipping a chain walk changes input-page counts and the paper
    /// figures pin those). Filters are installed when a hash/ISAM file
    /// is (re)built, so enable before `modify` — the scale workload
    /// does.
    pub fn set_bloom_guards(&mut self, on: bool) {
        self.pager.set_bloom_guards(on);
    }

    /// Change the buffer frames of every file (the paper's
    /// configuration is one): existing pools shrink or grow now, and
    /// files created or buffered later — temporaries, `into` relations,
    /// files after a reopen — get the same.
    pub fn set_default_buffer_frames(&mut self, frames: usize) {
        // Every statement leaves its frames clean, so between statements
        // a shrink writes nothing back. A dirty frame left by raw pager
        // access whose write-back fails stays dirty in its pool, and the
        // next flush retries it and reports the failure: nothing is lost
        // by not reporting it here.
        let _ = self.pager.set_default_buffer_frames(frames);
    }

    /// Lifetime page-access counters of this database's pager (a
    /// statement's own cost is its [`ExecOutput::stats`]).
    pub fn io_stats(&self) -> &IoStats {
        self.pager.stats()
    }

    /// Names of user relations.
    pub fn relation_names(&self) -> Vec<String> {
        self.catalog.relation_names()
    }

    /// Describe a relation.
    pub fn relation_meta(&self, name: &str) -> Result<RelationMeta> {
        let id = self.catalog.require(name)?;
        RelationMeta::of(&self.pager, self.catalog.get(id))
    }

    /// The schema of a relation.
    pub fn schema_of(&self, name: &str) -> Result<Schema> {
        let id = self.catalog.require(name)?;
        Ok(self.catalog.get(id).schema.clone())
    }

    /// Direct low-level access for the benchmark harness and the
    /// two-level-store crate.
    #[doc(hidden)]
    pub fn internals(&mut self) -> (&Pager, &mut Catalog, &Clock) {
        (&self.pager, &mut self.catalog, &self.clock)
    }

    /// A shared handle to the pager: the engine's lock-free snapshot
    /// reads go through this while writers hold the commit lock (every
    /// pager entry point synchronizes on its interior lock).
    pub(crate) fn pager_handle(&self) -> Arc<Pager> {
        self.pager.clone()
    }

    /// Shared view of the catalog (the concurrent engine's read path).
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Whether statements start with cold buffers.
    pub(crate) fn cold_statements(&self) -> bool {
        self.cold_statements
    }

    /// The session range table, for the engine's range swap-in.
    pub(crate) fn ranges_mut(&mut self) -> &mut HashMap<String, String> {
        &mut self.ranges
    }

    /// Bulk-load fully specified rows (explicit attributes *and* time
    /// attributes) into a relation, bypassing the parser. This is how the
    /// benchmark loads its 1024-tuple relations with randomized
    /// `transaction_start` / `valid_from` values, like the paper's
    /// modified `copy`.
    pub fn bulk_load_rows(
        &mut self,
        rel: &str,
        rows: &[Vec<Value>],
    ) -> Result<usize> {
        self.write_unit(|db| {
            let id = db.catalog.require(rel)?;
            let codec = db.catalog.get(id).codec.clone();
            for vals in rows {
                let row = codec.encode(vals)?;
                db.catalog.get_mut(id).insert_row(&db.pager, &row)?;
            }
            db.pager.flush_all()
        })?;
        self.note_inserted(rel, rows.len() as u64);
        Ok(rows.len())
    }

    /// Online reorganization of one relation: migrate every version DML
    /// can no longer touch and an at-now query cannot see out of the
    /// primary file into the relation's clustered history sidecar, then
    /// rebuild the primary around the versions that stay. A version
    /// stays while it is transaction-current and its valid end is open
    /// or at or after the pass's instant ([`Stamps::stays_in_primary`]);
    /// so a rollback relation keeps its current versions, and a temporal
    /// one only those an at-now query can still reach. Returns the
    /// number of versions migrated (0 when the relation is ineligible or
    /// already compact).
    ///
    /// Eligible relations have transaction time (rollback/temporal
    /// class), a primary key to cluster history by, and no secondary
    /// indexes (index entries address the primary file, and migrating
    /// their targets away would strand them). The migration appends only
    /// to *fresh* history pages and swaps the primary via
    /// build-aside-and-drop, so a concurrent snapshot reader holding the
    /// pre-reorganization catalog still sees a consistent (old) view; in
    /// durable mode the whole pass is one WAL transaction that either
    /// commits or rolls back to the statement boundary.
    pub fn reorganize(&mut self, rel: &str) -> Result<u64> {
        let migrated = self.write_unit(|db| db.reorganize_raw(rel))?;
        if migrated > 0 {
            self.reorg.runs += 1;
            self.reorg.rows_migrated += migrated;
        }
        Ok(migrated)
    }

    /// Run [`Database::reorganize`] over every user relation; returns the
    /// total versions migrated.
    pub fn reorganize_all(&mut self) -> Result<u64> {
        let mut total = 0;
        for name in self.catalog.relation_names() {
            total += self.reorganize(&name)?;
        }
        Ok(total)
    }

    /// The cumulative online-reorganization counters.
    pub fn reorg_stats(&self) -> ReorgStats {
        self.reorg
    }

    /// The migration of [`Database::reorganize`], run as its write
    /// unit's body.
    fn reorganize_raw(&mut self, rel: &str) -> Result<u64> {
        let id = self.catalog.require(rel)?;
        let (schema, codec, key_attr, file) = {
            let r = self.catalog.get(id);
            if !r.schema.class().has_transaction_time()
                || r.key_attr.is_none()
                || !r.indexes.is_empty()
            {
                return Ok(0);
            }
            (
                r.schema.clone(),
                r.codec.clone(),
                r.key_attr.expect("checked above"),
                r.file.clone(),
            )
        };
        // Partition the primary at the pass's instant: cold = every
        // version that does not stay.
        let cutoff = self.clock.now();
        let stamps = |row: &[u8]| Stamps::of(&schema, &codec, row);
        let mut keep: Vec<Vec<u8>> = Vec::new();
        let mut cold: Vec<Vec<u8>> = Vec::new();
        let mut cur = file.scan();
        while let Some((_, row)) = cur.next(&self.pager, &file)? {
            if stamps(row).stays_in_primary(cutoff) {
                keep.push(row.to_vec());
            } else {
                cold.push(row.to_vec());
            }
        }
        if cold.is_empty() {
            return Ok(0);
        }
        // Cold versions become a new *generation* of the history sidecar:
        // pre-existing sidecar pages are never appended to, so a snapshot
        // catalog holding the old Arc references only immutable pages.
        let key = KeySpec::for_attr(&codec, key_attr);
        let next = match &self.catalog.get(id).history {
            Some(h) => h.with_migrated(&self.pager, &cold, stamps)?,
            None => ClusteredHistory::create(
                &self.pager,
                schema.row_width(),
                key,
            )?
            .with_migrated(&self.pager, &cold, stamps)?,
        };
        {
            let r = self.catalog.get_mut(id);
            r.history = Some(Arc::new(next));
            r.rebuild_with_rows(&self.pager, &keep)?;
        }
        self.pager.flush_all()?;
        Ok(cold.len() as u64)
    }

    /// Execute a TQuel program; returns the output of the **last**
    /// statement.
    pub fn execute(&mut self, src: &str) -> Result<ExecOutput> {
        let mut last = ExecOutput::default();
        for out in self.execute_all(src)? {
            last = out;
        }
        Ok(last)
    }

    /// Execute a TQuel program; returns every statement's output.
    pub fn execute_all(&mut self, src: &str) -> Result<Vec<ExecOutput>> {
        let stmts = tdbms_tquel::parse_program(src)?;
        if stmts.is_empty() {
            return Err(Error::Semantic("empty program".into()));
        }
        stmts.iter().map(|s| self.execute_statement(s)).collect()
    }

    /// Execute one parsed statement.
    pub fn execute_statement(
        &mut self,
        stmt: &Statement,
    ) -> Result<ExecOutput> {
        self.execute_statement_guarded(stmt, &QueryGuard::none())
    }

    /// Execute one parsed statement under the caller's per-query limits.
    ///
    /// Reads poll the guard at row granularity. Writes are checked once
    /// here, at admission: a mutating statement that has begun applying
    /// versions must finish (interrupting it would leave a half-applied
    /// statement), so timeout/cancel refuse it before it starts instead.
    pub fn execute_statement_guarded(
        &mut self,
        stmt: &Statement,
        guard: &QueryGuard,
    ) -> Result<ExecOutput> {
        guard.check_now()?;
        let mutating = !matches!(
            stmt,
            Statement::Range { .. }
                | Statement::Retrieve(tdbms_tquel::ast::Retrieve {
                    into: None,
                    ..
                })
                | Statement::Explain(_)
        );
        let run = |db: &mut Self| {
            let now = db.clock.tick();
            if db.cold_statements {
                db.pager.invalidate_buffers()?;
            }
            let scope = db.pager.stats().scope();
            let mut out = ExecOutput::default();
            db.apply_statement(stmt, guard, now, &scope, &mut out)?;
            Ok((out, scope))
        };
        let (mut out, scope) = if mutating {
            self.write_unit(run)?
        } else {
            run(self)?
        };
        // Close any phase the executor left open, then read the
        // statement's cost off its scope — after the commit, so the
        // "wal" phase shows up in it. The scope holds this thread's
        // accesses only, so `hits + misses == accesses` is asserted
        // there even while snapshot readers are mid-access elsewhere.
        self.pager.end_phase();
        out.stats = QueryStats::of(&scope);
        // Appends and loads add new keys; replaces/deletes only
        // lengthen version chains.
        match stmt {
            Statement::Append(a) => {
                self.note_inserted(&a.rel, out.affected as u64)
            }
            Statement::Copy(c) if c.from => {
                self.note_inserted(&c.rel, out.affected as u64)
            }
            _ => {}
        }
        Ok(out)
    }

    /// Count `n` freshly inserted keys on a relation (append / copy /
    /// bulk load) once its statement has succeeded. Replaces and
    /// deletes never call this: they add versions, not keys, which is
    /// exactly what makes chains grow.
    fn note_inserted(&mut self, rel: &str, n: u64) {
        if let Some(id) = self.catalog.id_of(rel) {
            let r = self.catalog.get_mut(id);
            r.distinct_keys = r.distinct_keys.saturating_add(n);
        }
    }

    /// Apply one bound statement's effects (no durability, no stats —
    /// [`Database::execute_statement_guarded`] runs this inside a write
    /// unit and reads the statement's cost from `scope`).
    fn apply_statement(
        &mut self,
        stmt: &Statement,
        guard: &QueryGuard,
        now: TimeVal,
        scope: &StatScope,
        out: &mut ExecOutput,
    ) -> Result<()> {
        match stmt {
            Statement::Range { var, rel } => {
                self.catalog.require(rel)?;
                self.ranges.insert(var.clone(), rel.clone());
            }
            Statement::Create(c) => {
                dml::exec_create(&self.pager, &mut self.catalog, c)?;
            }
            Statement::Destroy(rel) => {
                dml::exec_destroy(&self.pager, &mut self.catalog, rel)?;
                // Drop range entries over the destroyed relation.
                self.ranges.retain(|_, r| r != rel);
            }
            Statement::Modify(m) => {
                dml::exec_modify(
                    &self.pager,
                    &mut self.catalog,
                    m,
                    self.hashfn,
                )?;
            }
            Statement::Index(i) => {
                dml::exec_index(&self.pager, &mut self.catalog, i)?;
            }
            Statement::Copy(c) => {
                let id = self.catalog.require(&c.rel)?;
                out.affected = if c.from {
                    crate::copy::copy_from(
                        &self.pager,
                        &mut self.catalog,
                        id,
                        &c.file,
                        now,
                    )?
                } else {
                    crate::copy::copy_into(
                        &self.pager,
                        &self.catalog,
                        id,
                        &c.file,
                    )?
                };
            }
            Statement::Append(a) => {
                out.affected = dml::exec_append(
                    &self.pager,
                    &mut self.catalog,
                    &self.ranges,
                    now,
                    a,
                )?;
            }
            Statement::Delete(d) => {
                out.affected = dml::exec_delete(
                    &self.pager,
                    &mut self.catalog,
                    &self.ranges,
                    now,
                    d,
                )?;
            }
            Statement::Replace(r) => {
                out.affected = dml::exec_replace(
                    &self.pager,
                    &mut self.catalog,
                    &self.ranges,
                    now,
                    r,
                )?;
            }
            Statement::Retrieve(r) => {
                let bound = Binder::new(&self.catalog, &self.ranges)
                    .bind_retrieve(r)?;
                let result = exec_retrieve(
                    &self.pager,
                    &self.catalog,
                    &bound,
                    &[],
                    now,
                    guard,
                    false,
                )?;
                out.affected = result.rows.len();
                if let Some(into) = &bound.into {
                    self.materialize_into(
                        into,
                        &result.columns,
                        &result.rows,
                        bound.valid.is_some(),
                        now,
                    )?;
                } else {
                    out.columns = result.columns;
                    out.rows = result.rows;
                }
            }
            Statement::Explain(r) => {
                let bound = Binder::new(&self.catalog, &self.ranges)
                    .bind_retrieve(r)?;
                let plan = crate::plan::plan_bound(
                    &self.pager,
                    &self.catalog,
                    &bound,
                    now,
                )?;
                let result = exec_retrieve(
                    &self.pager,
                    &self.catalog,
                    &bound,
                    &[],
                    now,
                    guard,
                    false,
                )?;
                let actual = scope.total();
                out.affected = result.rows.len();
                out.columns = Arc::new([(
                    "query plan".to_string(),
                    Domain::Char(72),
                )]);
                out.rows = explain_lines(
                    &bound,
                    &plan,
                    actual.reads,
                    actual.writes,
                )
                .into_iter()
                .map(|l| vec![Value::Str(l)])
                .collect();
            }
        }
        Ok(())
    }

    /// Create and fill the target relation of a `retrieve into`. The
    /// result is historical when the query produced valid-time output,
    /// static otherwise.
    fn materialize_into(
        &mut self,
        name: &str,
        columns: &[(String, Domain)],
        rows: &[Vec<Value>],
        has_valid: bool,
        now: TimeVal,
    ) -> Result<()> {
        let explicit_cols = if has_valid {
            &columns[..columns.len() - 2]
        } else {
            columns
        };
        let attrs: Vec<tdbms_kernel::AttrDef> = explicit_cols
            .iter()
            .map(|(n, d)| tdbms_kernel::AttrDef::new(n.clone(), *d))
            .collect();
        let class = if has_valid {
            DatabaseClass::Historical
        } else {
            DatabaseClass::Static
        };
        let schema = Schema::new(attrs, class, TemporalKind::Interval)?;
        // Build every stored row before the target exists, so a value
        // that does not fit creates nothing.
        let codec = RowCodec::new(&schema);
        let stored = rows
            .iter()
            .map(|row| {
                let (explicit, valid) = if has_valid {
                    let n = row.len();
                    let lo = row[n - 2].as_time().ok_or_else(|| {
                        Error::Internal(
                            "valid_from column not a time".into(),
                        )
                    })?;
                    let hi = row[n - 1].as_time().ok_or_else(|| {
                        Error::Internal("valid_to column not a time".into())
                    })?;
                    (&row[..n - 2], TInterval::new(lo, hi))
                } else {
                    (&row[..], TInterval::new(now, TimeVal::FOREVER))
                };
                dml::build_stored_row(&schema, &codec, explicit, valid, now)
            })
            .collect::<Result<Vec<_>>>()?;
        let id = self.catalog.create_relation(&self.pager, name, schema)?;
        dml::insert_rows(&self.pager, self.catalog.get_mut(id), &stored)?;
        Ok(())
    }
}

/// Render an `explain` report: one text line per planned access, the
/// substitution order, and estimated vs actual page I/O.
fn explain_lines(
    bound: &crate::bound::BoundRetrieve,
    plan: &tdbms_plan::QueryPlan,
    actual_in: u64,
    actual_out: u64,
) -> Vec<String> {
    let var_name = |v: usize| bound.vars[v].var.clone();
    let mut lines = Vec::new();
    lines.push(format!("retrieve over {} variable(s)", bound.vars.len()));
    for s in &plan.steps {
        if s.detach {
            lines.push(format!(
                "detach {} ({}): {}, est {} read / {} write pages, \
                 ~{} rows",
                var_name(s.var),
                s.relation,
                s.path,
                s.est_read,
                s.est_write,
                s.est_rows
            ));
        } else {
            lines.push(format!(
                "access {} ({}): {}, est {} pages per probe, ~{} rows",
                var_name(s.var),
                s.relation,
                s.path,
                s.est_read,
                s.est_rows
            ));
        }
    }
    if bound.vars.len() >= 2 {
        let order: Vec<String> =
            plan.join_order.iter().map(|&v| var_name(v)).collect();
        lines.push(format!("substitution order: {}", order.join(", ")));
    }
    lines.push(format!(
        "estimated: {} input / {} output pages",
        plan.est_input, plan.est_output
    ));
    lines.push(format!(
        "actual: {actual_in} input / {actual_out} output pages"
    ));
    lines
}

/// Re-exported identifier type for advanced integrations.
pub type RelationId = RelId;

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(tuples: u64, pages: u32, distinct: u64) -> RelationMeta {
        RelationMeta {
            name: "r".into(),
            class: DatabaseClass::Temporal,
            kind: TemporalKind::Interval,
            method: AccessMethod::Hash,
            fillfactor: 100,
            key: Some("id".into()),
            total_pages: pages,
            scannable_pages: pages,
            directory_levels: 0,
            tuple_count: tuples,
            distinct_keys: distinct,
            history_rows: 0,
            row_width: 16,
            index_names: Vec::new(),
        }
    }

    #[test]
    fn chain_length_tracks_versions_per_key() {
        // 1024 keys, evolved twice: 3072 versions → chains of 3.
        let m = meta(3072, 384, 1024);
        assert_eq!(m.chain_len(), 3);
        assert_eq!(m.rows_per_page(), 8);
        // Unknown distinct count defaults to one version per key.
        let m = meta(3072, 384, 0);
        assert_eq!(m.distinct_estimate(), 3072);
        assert_eq!(m.chain_len(), 1);
    }

    #[test]
    fn migrated_history_shortens_the_primary_chain_estimate() {
        // Before reorganization: 3 versions per key in the primary.
        assert_eq!(meta(3072, 384, 1024).chain_len(), 3);
        // After: the superseded versions live in the history sidecar.
        let mut after = meta(1024, 128, 1024);
        after.history_rows = 2048;
        assert_eq!(after.chain_len(), 1);
    }
}
