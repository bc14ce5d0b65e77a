//! The graceful-degradation acceptance suite: "degrade, don't die".
//!
//! Resource exhaustion (a full disk, a failing fsync) must never
//! poison the engine or kill the server. The contract under test, at
//! every layer of the stack:
//!
//! * **Database** — a write that hits ENOSPC or a failed log sync is
//!   rolled back statement-atomically and the engine drops into
//!   *degraded* mode: a typed [`Error::Degraded`], snapshot reads
//!   keep serving, further writes are refused up front, and the
//!   first write attempted after the resource recovers re-arms the
//!   engine automatically.
//! * **Engine (group commit)** — a failed *group* fsync fails every
//!   ticket in the batch instead of poisoning the shared state. A
//!   ticket whose statement already applied gets
//!   [`Error::RetryUnsafe`] (its durability is unknown — the effects
//!   stand, so a verbatim retry would double-apply); writes refused
//!   before executing get the retryable [`Error::Degraded`].
//! * **Net** — a [`ReconnectClient`] retries idempotent requests
//!   across connection loss but surfaces a typed
//!   [`Error::RetryUnsafe`] for writes whose outcome is unknown; a
//!   live server rides out fault windows injected underneath it and
//!   leaves a directory `tdbms-check` audits clean.
//!
//! Fault windows here are driven *manually* (no wall-clock
//! randomness), so every test is fully deterministic. The seeded
//! wall-clock variant lives in `throughput --chaos SEED`.

use std::time::Duration;

use tdbms::wal::{FaultLog, FileLog, MemLog};
use tdbms::{
    CheckpointPolicy, Database, Engine, Error, GroupCommitConfig, Value,
};
use tdbms_kernel::tmpdir::fresh_dir;
use tdbms_net::{
    Client, ReconnectClient, RetryConfig, Server, ServerConfig,
};
use tdbms_storage::{FaultDisk, FaultPlan, FileDisk, MemDisk};

const CREATE: &str = "create temporal interval r (id = i4, seq = i4)";

/// A durable database on fault-wrapped shared in-memory storage,
/// plus the plan that injects faults and the storage handles a
/// reopen can replay from.
fn fault_db() -> (Database, FaultPlan, MemDisk, MemLog) {
    let disk = MemDisk::new();
    let log = MemLog::new();
    let plan = FaultPlan::new(None);
    let db = Database::open_durable_on(
        Box::new(FaultDisk::new(Box::new(disk.clone()), plan.clone())),
        Box::new(FaultLog::new(Box::new(log.clone()), plan.clone())),
        None,
    )
    .expect("durable open on fresh storage");
    (db, plan, disk, log)
}

fn append(db: &mut Database, id: i64) -> Result<(), Error> {
    db.execute(&format!("append to r (id = {id}, seq = 0)"))
        .map(|_| ())
}

/// The sorted current ids of `r`, read through the ordinary retrieve
/// path (which must keep working in degraded mode).
fn ids(db: &mut Database) -> Vec<i64> {
    db.execute("range of x is r").expect("range declaration");
    let out = db.execute("retrieve (x.id)").expect("retrieve serves");
    let mut got: Vec<i64> = out
        .rows()
        .iter()
        .filter_map(|row| match row.first() {
            Some(Value::Int(id)) => Some(*id),
            _ => None,
        })
        .collect();
    got.sort_unstable();
    got
}

#[test]
fn enospc_write_rolls_back_degrades_and_rearms() {
    let (mut db, plan, disk, log) = fault_db();
    db.execute(CREATE).expect("create");
    for id in 1..=5 {
        append(&mut db, id).expect("append before the fault");
    }

    plan.set_enospc(true);
    let err = append(&mut db, 6).expect_err("disk is full");
    assert!(
        matches!(err, Error::Degraded { .. }),
        "ENOSPC must surface as a typed Degraded error, got: {err}"
    );
    assert!(db.is_degraded());
    assert!(db.degraded_reason().is_some());

    // Snapshot reads keep serving, and the failed statement left no
    // trace.
    assert_eq!(ids(&mut db), vec![1, 2, 3, 4, 5]);

    // Degraded is sticky while the resource is still exhausted.
    let err = append(&mut db, 7).expect_err("still full");
    assert!(matches!(err, Error::Degraded { .. }));

    // The first write after recovery re-arms automatically.
    plan.set_enospc(false);
    append(&mut db, 8).expect("write path re-armed");
    assert!(!db.is_degraded());
    assert_eq!(ids(&mut db), vec![1, 2, 3, 4, 5, 8]);

    // Everything acked — and nothing the client saw fail — survives
    // a crash-reopen from the same storage.
    drop(db);
    let mut db =
        Database::open_durable_on(Box::new(disk), Box::new(log), None)
            .expect("reopen replays the log");
    assert_eq!(ids(&mut db), vec![1, 2, 3, 4, 5, 8]);
}

/// The failure contract of a standalone [`Database`], as one table: a
/// durable database always commits through its commit queue and waits
/// for the covering log sync *under the lock*, so a failed sync is
/// pre-durability whatever the queue's config — the statement rolls
/// back, the error is the retryable `Degraded`, the next write re-arms,
/// and a reopen holds exactly the acknowledged rows.
#[test]
fn commit_fsync_failure_degrades_every_standalone_mode() {
    let modes = [
        ("plain durable", CheckpointPolicy::EveryCommit, None),
        (
            "queue of one",
            CheckpointPolicy::EveryN(1024),
            Some((1, Duration::ZERO)),
        ),
        (
            "batching queue",
            CheckpointPolicy::EveryN(1024),
            Some((8, Duration::from_millis(2))),
        ),
    ];
    for (mode, policy, group) in modes {
        let (mut db, plan, disk, log) = fault_db();
        db.set_checkpoint_policy(policy);
        if let Some((max_batch, max_delay)) = group {
            db.enable_group_commit(GroupCommitConfig {
                max_batch,
                max_delay,
            })
            .expect("database is durable");
        }
        db.execute(CREATE).expect("create");
        for id in 1..=3 {
            append(&mut db, id).expect("append before the fault");
        }

        plan.set_fsync_fail(true);
        let err = append(&mut db, 4).expect_err("log sync fails");
        assert!(
            matches!(err, Error::Degraded { .. }),
            "{mode}: a failed commit fsync must be Degraded, got: {err}"
        );
        assert!(err.is_retryable(), "{mode}: the statement rolled back");
        assert!(db.is_degraded(), "{mode}");
        assert_eq!(ids(&mut db), vec![1, 2, 3], "{mode}: reads serve");

        plan.set_fsync_fail(false);
        append(&mut db, 5).expect("write path re-armed");
        assert!(!db.is_degraded(), "{mode}");

        // The re-arm checkpoint resolved the commit-uncertainty window:
        // the rolled-back statement (id 4) is gone for good, the acked
        // ones survive a reopen.
        drop(db);
        let mut db =
            Database::open_durable_on(Box::new(disk), Box::new(log), None)
                .expect("reopen replays the log");
        assert_eq!(ids(&mut db), vec![1, 2, 3, 5], "{mode}");
    }
}

#[test]
fn group_fsync_failure_is_retry_unsafe_not_poisoned() {
    let (db, plan, _disk, _log) = fault_db();
    let mut db = db;
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(1024));
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
    })
    .expect("database is durable");
    let engine = Engine::new(db);
    let mut session = engine.session();
    session.execute(CREATE).expect("create");
    session
        .execute("append to r (id = 1, seq = 0)")
        .expect("append before the fault");

    plan.set_fsync_fail(true);
    let err = session
        .execute("append to r (id = 2, seq = 0)")
        .expect_err("group fsync fails");
    // The statement applied before the batch sync failed, so its
    // outcome is *unknown*: the effects stand and a verbatim retry
    // would double-apply. That is RetryUnsafe (never retryable), not
    // the rolled-back-and-retryable Degraded contract.
    assert!(
        matches!(err, Error::RetryUnsafe(_)),
        "a failed group fsync after the statement applied must be \
         RetryUnsafe, not Poisoned or Degraded: {err}"
    );
    assert!(!err.is_retryable());

    // The engine is degraded, not poisoned: other sessions still
    // read, and *new* writes get the typed retryable refusal (they
    // are turned away before executing). Reads may legitimately see
    // id 2 — the promise is that every tuple acked with `Ok` is
    // there, not that errored ones are gone.
    let mut other = engine.session();
    other.execute("range of x is r").expect("range");
    let out = other.execute("retrieve (x.id)").expect("reads serve");
    assert!(!out.rows().is_empty(), "acked id 1 stays visible");
    let err = other
        .execute("append to r (id = 3, seq = 0)")
        .expect_err("degraded refuses writes");
    assert!(matches!(err, Error::Degraded { .. }));

    // Recovery re-arms the group queue (failed tickets were failed,
    // not dropped) and writes flow again.
    plan.set_fsync_fail(false);
    let mut ok = false;
    for _ in 0..10 {
        if other.execute("append to r (id = 4, seq = 0)").is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(ok, "writes must resume after the fsync fault lifts");
    let out = other.execute("retrieve (x.id)").expect("reads serve");
    let got: Vec<i64> = out
        .rows()
        .iter()
        .filter_map(|row| match row.first() {
            Some(Value::Int(id)) => Some(*id),
            _ => None,
        })
        .collect();
    assert!(got.contains(&1) && got.contains(&4), "acked ids: {got:?}");
}

/// Regression: in group-commit mode a *due checkpoint's* leading log
/// sync is the just-committed ticket's FIRST durability point — the
/// commit's own fsync was left to the batching leader and hasn't run
/// yet. A failure there must be classified pre-durability (roll the
/// statement back and degrade), never mapped to a post-durability
/// checkpoint failure that acknowledges a commit no fsync ever
/// covered (a crash while degraded would lose the acked tuple).
#[test]
fn due_checkpoint_sync_failure_is_not_a_false_ack() {
    let (mut db, plan, disk, log) = fault_db();
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(1));
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 1,
        max_delay: Duration::ZERO,
    })
    .expect("database is durable");
    db.execute(CREATE).expect("create");
    append(&mut db, 1).expect("append before the fault");

    plan.set_fsync_fail(true);
    let err = append(&mut db, 2)
        .expect_err("an unsynced commit must not be acknowledged");
    assert!(
        matches!(err, Error::Degraded { .. }),
        "pre-durability sync failure rolls back and degrades: {err}"
    );
    assert!(db.is_degraded());
    assert_eq!(ids(&mut db), vec![1], "the failed append rolled back");

    // Re-arm, then crash-reopen: every acked append survives and the
    // rolled-back one is gone for good (the re-arm checkpoint
    // truncated its log records away).
    plan.set_fsync_fail(false);
    append(&mut db, 3).expect("write path re-armed");
    assert!(!db.is_degraded());
    drop(db);
    let mut db =
        Database::open_durable_on(Box::new(disk), Box::new(log), None)
            .expect("reopen replays the log");
    assert_eq!(ids(&mut db), vec![1, 3]);
}

#[test]
fn reconnect_client_is_typed_about_lost_writes() {
    let engine = Engine::new(Database::in_memory());
    let server =
        Server::bind(engine, "127.0.0.1:0", ServerConfig::default())
            .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let cfg = RetryConfig {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
        seed: 99,
    };
    let mut rc = ReconnectClient::new(addr.clone(), cfg);
    rc.query(CREATE).expect("create over the wire");
    rc.query("append to r (id = 1, seq = 0)").expect("append");

    // A dropped connection between requests is invisible: the client
    // redials and the idempotent retrieve succeeds.
    rc.drop_connection();
    rc.query("range of c is r\nretrieve (c.id)")
        .expect("reconnect is transparent for reads");
    assert!(rc.reconnects() >= 2);

    // Kill the server with the connection open: an in-flight write's
    // outcome is unknown, so the client must refuse to guess.
    handle.shutdown();
    join.join().expect("server thread").expect("graceful drain");
    let err = rc
        .query("append to r (id = 2, seq = 0)")
        .expect_err("server is gone");
    assert!(
        matches!(err, Error::RetryUnsafe(_) | Error::ShuttingDown),
        "lost write must be RetryUnsafe (or a typed drain refusal), \
         got: {err}"
    );

    // The idempotent read retries the dial and, with nobody
    // listening, ends in a transport error — never a hang.
    let err = rc
        .query("range of c is r\nretrieve (c.id)")
        .expect_err("nobody is listening");
    assert!(
        matches!(err, Error::Io(_) | Error::Protocol(_)),
        "exhausted reconnects must surface the transport error, \
         got: {err}"
    );
}

#[test]
fn server_rides_out_fault_windows_and_audits_clean() {
    let dir = fresh_dir("chaos-accept");
    let plan = FaultPlan::new(None);
    let disk = FaultDisk::new(
        Box::new(FileDisk::open(&dir).expect("open page files")),
        plan.clone(),
    );
    let log = FaultLog::new(
        Box::new(FileLog::open(dir.join("wal.tdbms")).expect("open wal")),
        plan.clone(),
    );
    let mut db = Database::open_durable_on(
        Box::new(disk),
        Box::new(log),
        Some(dir.clone()),
    )
    .expect("durable open");
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(16));
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 4,
        max_delay: Duration::from_millis(1),
    })
    .expect("database is durable");

    let server = Server::bind(
        Engine::new(db),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr").to_string();
    let join = std::thread::spawn(move || server.run());

    let mut rc = ReconnectClient::new(
        addr.clone(),
        RetryConfig {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            seed: 7,
        },
    );
    rc.query(CREATE).expect("create over the wire");
    let mut acked = Vec::new();
    for id in 1..=20 {
        rc.query(&format!("append to r (id = {id}, seq = 0)"))
            .expect("append before the first window");
        acked.push(id);
    }

    // Window 1: disk full. Writes fail typed; reads of acked tuples
    // keep answering; a mid-window connection drop is ridden out.
    plan.set_enospc(true);
    for id in 21..=25 {
        if id == 23 {
            rc.drop_connection();
        }
        match rc.query(&format!("append to r (id = {id}, seq = 0)")) {
            Ok(_) => acked.push(id),
            // Degraded: refused up front. RetryUnsafe: the statement
            // applied but its batch fsync failed — outcome unknown,
            // so it must not join the acked set.
            Err(Error::Degraded { .. } | Error::RetryUnsafe(_)) => {}
            Err(e) => panic!("untyped failure in the window: {e}"),
        }
        let out = rc
            .query("range of c is r\nretrieve (c.id) where c.id = 1")
            .expect("reads serve during the window");
        assert_eq!(out.rows.len(), 1, "acked tuple stays visible");
    }
    plan.set_enospc(false);

    // Window 2: failing fsync, same contract.
    plan.set_fsync_fail(true);
    match rc.query("append to r (id = 26, seq = 0)") {
        Ok(_) => acked.push(26),
        Err(Error::Degraded { .. } | Error::RetryUnsafe(_)) => {}
        Err(e) => panic!("untyped failure in the window: {e}"),
    }
    plan.set_fsync_fail(false);

    // Writes resume (the first attempts may catch the re-arm).
    let mut resumed = false;
    for attempt in 0..50 {
        match rc.query("append to r (id = 100, seq = 0)") {
            Ok(_) => {
                acked.push(100);
                resumed = true;
                break;
            }
            Err(Error::Degraded { .. }) => {
                std::thread::sleep(Duration::from_millis(5 + attempt))
            }
            Err(e) => panic!("untyped failure after the windows: {e}"),
        }
    }
    assert!(resumed, "writes must resume once the faults lift");
    for id in 101..=110 {
        rc.query(&format!("append to r (id = {id}, seq = 0)"))
            .expect("healthy writes after recovery");
        acked.push(id);
    }

    // Every acked append is still readable over the wire.
    let out = rc
        .query("range of c is r\nretrieve (c.id)")
        .expect("verification retrieve");
    let present: std::collections::HashSet<i64> = out
        .rows
        .iter()
        .filter_map(|row| match row.first() {
            Some(Value::Int(id)) => Some(*id),
            _ => None,
        })
        .collect();
    for id in &acked {
        assert!(present.contains(id), "acked id={id} lost");
    }

    // Graceful drain, no panics caught, and a clean audit.
    Client::connect(addr.as_str())
        .expect("connect for shutdown")
        .shutdown_server()
        .expect("remote shutdown");
    let stats =
        join.join().expect("server thread").expect("graceful drain");
    assert_eq!(stats.panics_caught, 0);

    let mut audit =
        tdbms_check::CheckedDb::open(&dir).expect("reopen for audit");
    let report = audit.check().expect("audit run");
    assert!(report.is_clean(), "audit dirty:\n{}", report.render());
}
