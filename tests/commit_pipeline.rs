//! The one commit pipeline, pinned from outside: what every write unit
//! guarantees whichever entry point ran it, what happens to a file drop
//! once a commit has logged it, and what a commit costs in log syncs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tdbms::wal::{FaultLog, LogStore, MemLog};
use tdbms::{
    CheckpointPolicy, Database, Engine, Error, GroupCommitConfig, Value,
};
use tdbms_check::{check_database, CheckedDb};
use tdbms_kernel::tmpdir::fresh_dir;
use tdbms_kernel::{TemporalAttr, TimeVal};
use tdbms_storage::{DiskManager, FaultDisk, FaultPlan, FileId, MemDisk};

const CREATE: &str = "create rollback interval r (id = i4, seq = i4)";

/// Regression: `bulk_load_rows` on a file-backed database used to skip
/// the catalog checkpoint that statements and `reorganize` take, so a
/// reopen found the loaded pages under a catalog that still said zero
/// tuples.
#[test]
fn bulk_load_on_a_file_backed_database_survives_reopen() {
    let dir = fresh_dir("bulk-load-reopen");
    {
        let mut db = Database::open_durable(&dir).expect("open");
        db.execute(CREATE).expect("create");
        let schema = db.schema_of("r").expect("relation exists");
        let start = TimeVal::from_ymd(1980, 1, 2).expect("valid date");
        let rows: Vec<Vec<Value>> = (1..=500)
            .map(|id| {
                let mut row = vec![Value::Int(id), Value::Int(0)];
                for t in schema.implicit_attrs() {
                    row.push(Value::Time(match t {
                        TemporalAttr::TransactionStop => TimeVal::FOREVER,
                        _ => start,
                    }));
                }
                row
            })
            .collect();
        assert_eq!(db.bulk_load_rows("r", &rows).expect("load"), 500);
    }
    let db = Database::open_durable(&dir).expect("reopen");
    assert_eq!(db.relation_meta("r").expect("meta").tuple_count, 500);
    drop(db);
    let report = CheckedDb::open(&dir)
        .expect("open for audit")
        .check()
        .expect("audit runs");
    assert!(report.is_clean(), "audit dirty:\n{}", report.render());
}

/// A group-commit engine over fault-wrapped shared storage, with a
/// loaded heap relation `r` whose `modify` will build a new file aside
/// and drop the old one.
fn modify_fixture() -> (Engine, FaultPlan, MemDisk) {
    let disk = MemDisk::new();
    let plan = FaultPlan::new(None);
    let mut db = Database::open_durable_on(
        Box::new(FaultDisk::new(Box::new(disk.clone()), plan.clone())),
        Box::new(FaultLog::new(Box::new(MemLog::new()), plan.clone())),
        None,
    )
    .expect("durable open");
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(1024));
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
    })
    .expect("database is durable");
    db.execute(CREATE).expect("create");
    for id in 1..=40 {
        db.execute(&format!("append to r (id = {id}, seq = 0)"))
            .expect("append");
    }
    (Engine::new(db), plan, disk)
}

fn file_of_r(engine: &Engine) -> FileId {
    engine.with_write(|db| {
        let (_, catalog, _) = db.internals();
        let id = catalog.require("r").expect("r exists");
        catalog.get(id).file.file_id()
    })
}

fn assert_dropped_and_clean(
    engine: &Engine,
    disk: &MemDisk,
    old: FileId,
    ctx: &str,
) {
    assert_ne!(file_of_r(engine), old, "{ctx}: modify built a new file");
    assert!(
        !disk.files().contains(&old),
        "{ctx}: the logged drop of {old:?} never reached the disk"
    );
    engine.with_write(|db| {
        // The audit reads the page files, not the staging overlay.
        db.checkpoint().expect("checkpoint for the audit");
        let (pager, catalog, _) = db.internals();
        let report = check_database(pager, catalog).expect("audit runs");
        assert!(report.is_clean(), "{ctx}:\n{}", report.render());
    });
}

const MODIFY: &str = "modify r to hash on id where fillfactor = 100";

/// A drop a commit has logged always happens, and never before that
/// commit is durable — whoever ends up retiring it.
#[test]
fn a_logged_drop_always_reaches_the_disk() {
    // Acknowledged normally, after the commit lock.
    let (engine, _plan, disk) = modify_fixture();
    let old = file_of_r(&engine);
    engine.session().execute(MODIFY).expect("modify");
    assert_dropped_and_clean(&engine, &disk, old, "acknowledged");

    // A checkpoint arrives between the commit and its acknowledgement.
    let (engine, _plan, disk) = modify_fixture();
    let old = file_of_r(&engine);
    engine.with_write(|db| {
        db.execute(MODIFY).expect("modify");
        db.checkpoint().expect("checkpoint before the ack");
    });
    assert_dropped_and_clean(&engine, &disk, old, "checkpointed");

    // The batch fsync fails: durability unknown, the effects stand and
    // the drop waits for the checkpoint that re-arms writes.
    let (engine, plan, disk) = modify_fixture();
    let old = file_of_r(&engine);
    let mut session = engine.session();
    plan.set_fsync_fail(true);
    let err = session.execute(MODIFY).expect_err("batch fsync fails");
    assert!(matches!(err, Error::RetryUnsafe(_)), "got: {err}");
    assert!(
        disk.files().contains(&old),
        "a drop must not get ahead of its commit's durability"
    );
    plan.set_fsync_fail(false);
    session
        .execute("append to r (id = 99, seq = 0)")
        .expect("the next write re-arms");
    assert_dropped_and_clean(&engine, &disk, old, "re-armed");
}

/// A log that counts its syncs and truncations.
struct CountingLog {
    inner: MemLog,
    syncs: Arc<AtomicU64>,
    resets: Arc<AtomicU64>,
}

impl LogStore for CountingLog {
    fn read_all(&mut self) -> Result<Vec<u8>, Error> {
        self.inner.read_all()
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), Error> {
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> Result<(), Error> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
    fn reset(&mut self, bytes: &[u8]) -> Result<(), Error> {
        self.resets.fetch_add(1, Ordering::Relaxed);
        self.inner.reset(bytes)
    }
}

/// Routing every commit through the queue costs what the inline sync
/// did: one log sync per commit, plus — when every commit checkpoints —
/// one truncation (which syncs its own reset) and nothing else.
#[test]
fn a_commit_costs_one_log_sync() {
    const N: u64 = 12;
    let queue_of_one = GroupCommitConfig {
        max_batch: 1,
        max_delay: Duration::ZERO,
    };
    for group in [None, Some(queue_of_one)] {
        for every_commit in [false, true] {
            let (syncs, resets) =
                (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
            let mut db = Database::open_durable_on(
                Box::new(MemDisk::new()),
                Box::new(CountingLog {
                    inner: MemLog::new(),
                    syncs: syncs.clone(),
                    resets: resets.clone(),
                }),
                None,
            )
            .expect("durable open");
            if !every_commit {
                db.set_checkpoint_policy(CheckpointPolicy::EveryN(1024));
            }
            if let Some(cfg) = group {
                db.enable_group_commit(cfg).expect("database is durable");
            }
            db.execute(CREATE).expect("create");
            let (s0, r0) = (
                syncs.load(Ordering::Relaxed),
                resets.load(Ordering::Relaxed),
            );
            for id in 1..=N {
                db.execute(&format!("append to r (id = {id}, seq = 0)"))
                    .expect("append");
            }
            let truncations = resets.load(Ordering::Relaxed) - r0;
            let commit_syncs =
                syncs.load(Ordering::Relaxed) - s0 - truncations;
            let ctx = format!(
                "group {group:?}, checkpoint every commit: {every_commit}"
            );
            assert_eq!(commit_syncs, N, "{ctx}");
            assert_eq!(
                truncations,
                if every_commit { N } else { 0 },
                "{ctx}"
            );
        }
    }
}
