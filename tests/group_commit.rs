//! Group-commit durability suite.
//!
//! Group commit decouples a session's commit record (appended under the
//! exclusive lock) from its acknowledgement (returned only after a
//! batch fsync covers the record). That gap is exactly where the
//! protocol can go wrong, so this suite attacks it three ways:
//!
//! * **Crash matrix**: a fault-injected engine with group commit on is
//!   killed mid-workload under an op budget, with torn log appends in
//!   half the cases and batching knobs varied so the crash lands in
//!   every part of the register / batch-fsync / ack / checkpoint cycle.
//!   Recovery from the raw survivors must contain every tuple whose
//!   `append` was acked (**zero committed-tuple loss**), contain no
//!   tuple that was never attempted, audit clean, and be idempotent.
//!   Because acks are issued only after the covering fsync returns,
//!   any acked-but-lost tuple here is a **phantom ack** — the assert
//!   names it as such.
//! * **Standalone wait**: a plain `Database` (no engine) with group
//!   commit enabled waits its own ticket inside each commit; a reopen
//!   without checkpoint must replay every acked statement.
//! * **Checkpoint interplay**: a dense `EveryN` checkpoint policy runs
//!   against batched commits (logged drops, early log sync) and the
//!   reopened database must still be exact.
//! * **No idle linger**: a leader waits for a batch only while another
//!   writer is inside (or queued for) the commit lock. A lone session, a
//!   session beside a reader, and a session after a failed statement
//!   each commit far faster than `max_delay` per statement, and every
//!   acked row survives a reopen.
//! * **One queue**: every durable engine batches through the queue its
//!   database opened with; bounds set after the engine exists reach
//!   that same queue instead of replacing it under the engine.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use tdbms::wal::{FaultLog, LogStore, MemLog};
use tdbms::{CheckpointPolicy, Database, Engine, GroupCommitConfig};
use tdbms_check::check_database;
use tdbms_kernel::{Prng, Value};
use tdbms_storage::{DiskManager, FaultDisk, FaultPlan, MemDisk};

/// Seed rows present before every crash run: ids `1..=BASE_IDS`.
const BASE_IDS: i64 = 16;

fn create_and_seed(db: &mut Database) {
    db.execute("create temporal interval t (id = i4, seq = i4)")
        .expect("create");
    for id in 1..=BASE_IDS {
        db.execute(&format!("append to t (id = {id}, seq = 0)"))
            .expect("seed append");
    }
}

/// Sorted current ids of `t` through a throwaway session.
fn current_ids(engine: &Engine) -> BTreeSet<i64> {
    let mut s = engine.session();
    let out = s
        .execute("range of q is t\nretrieve (q.id)")
        .expect("retrieve after recovery");
    out.rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Int(n) => *n,
            other => panic!("id column decoded as {other:?}"),
        })
        .collect()
}

fn audit_clean(engine: &Engine, ctx: &str) {
    engine.with_write(|db| {
        let (pager, catalog, _) = db.internals();
        let report = check_database(pager, catalog).expect("audit runs");
        assert!(
            report.is_clean(),
            "{ctx}: check found problems:\n{}",
            report.render()
        );
    });
}

/// The crash matrix: kill a group-commit engine mid-batch and prove
/// recovery honours every ack it handed out.
#[test]
fn group_commit_crash_matrix_never_drops_an_acked_commit() {
    for case in 0..12u64 {
        let mut g = Prng::seed_from_u64(0x9c0f + case * 6151);
        let budget = g.random_range(20u64..=120);
        let torn_log = g.random_bool().then(|| g.random_range(0usize..48));
        // Vary the batching window so crashes land both inside long
        // lingers (big batch, slow leader) and on immediate syncs.
        let max_batch = 1 + (case % 5) as u32 * 2;
        let max_delay = Duration::from_millis(case % 3);

        // Incarnation 1 (no faults): baseline rows, checkpointed so
        // relation `t` always exists when the crash run opens.
        let disk = MemDisk::new();
        let log = MemLog::new();
        let baseline: BTreeSet<i64> = (1..=BASE_IDS).collect();
        {
            let mut db = Database::open_durable_on(
                Box::new(disk.clone()),
                Box::new(log.clone()),
                None,
            )
            .expect("baseline open");
            create_and_seed(&mut db);
            db.checkpoint().expect("baseline checkpoint");
        }

        // Incarnation 2: same storage behind fault injectors with an
        // op budget; four writer sessions append unique ids through
        // group commit, recording only the ids whose ack came back.
        let plan = FaultPlan::new(Some(budget));
        let fdisk: Box<dyn DiskManager> =
            Box::new(FaultDisk::new(Box::new(disk.clone()), plan.clone()));
        let flog: Box<dyn LogStore> = match torn_log {
            Some(k) => Box::new(FaultLog::with_torn_appends(
                Box::new(log.clone()),
                plan.clone(),
                k,
            )),
            None => {
                Box::new(FaultLog::new(Box::new(log.clone()), plan.clone()))
            }
        };
        let acked = Mutex::new(BTreeSet::new());
        let mut attempted = baseline.clone();
        for t in 0..4i64 {
            for k in 0..12i64 {
                attempted.insert(1000 + t * 100 + k);
            }
        }
        if let Ok(mut db) = Database::open_durable_on(fdisk, flog, None) {
            // Frequent checkpoints so batches, logged drops, and the
            // checkpoint's early log sync all interleave with faults.
            db.set_checkpoint_policy(CheckpointPolicy::EveryN(5));
            if db
                .enable_group_commit(GroupCommitConfig {
                    max_batch,
                    max_delay,
                })
                .is_err()
            {
                continue;
            }
            let engine = Engine::new(db);
            std::thread::scope(|scope| {
                for t in 0..4i64 {
                    let engine = engine.clone();
                    let acked = &acked;
                    scope.spawn(move || {
                        let mut s = engine.session();
                        if s.execute("range of z is t").is_err() {
                            return;
                        }
                        for k in 0..12i64 {
                            let id = 1000 + t * 100 + k;
                            match s.execute(&format!(
                                "append to t (id = {id}, seq = 0)"
                            )) {
                                Ok(_) => {
                                    acked
                                        .lock()
                                        .expect("unpoisoned")
                                        .insert(id);
                                }
                                Err(_) => return,
                            }
                        }
                    });
                }
            });
        }
        assert!(
            plan.crashed(),
            "case {case}: budget {budget} never tripped — the matrix \
             must actually crash mid-workload"
        );
        let acked: BTreeSet<i64> = {
            let mut all = acked.into_inner().expect("unpoisoned");
            all.extend(baseline.iter().copied());
            all
        };

        // Recovery on the raw survivors.
        let rdb = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("recovery must succeed on raw survivors");
        let engine = Engine::new(rdb);
        let recovered = current_ids(&engine);
        for id in &acked {
            assert!(
                recovered.contains(id),
                "case {case} (budget {budget}, batch {max_batch}, \
                 torn_log {torn_log:?}): tuple {id} was acked but lost \
                 in recovery — a phantom ack"
            );
        }
        for id in &recovered {
            assert!(
                attempted.contains(id),
                "case {case}: recovery invented tuple {id}"
            );
        }
        audit_clean(&engine, &format!("case {case} after recovery"));
        drop(engine);

        // Recovering twice equals recovering once.
        let rdb2 = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("second recovery");
        assert_eq!(
            current_ids(&Engine::new(rdb2)),
            recovered,
            "case {case}: recovery is not idempotent"
        );
    }
}

/// The engine-less path (the commit waits its own ticket): every acked
/// statement on a plain `Database` with group commit enabled must
/// survive a reopen that replays the log — no checkpoint in between.
#[test]
fn inline_group_commit_acks_are_durable_without_checkpoint() {
    let disk = MemDisk::new();
    let log = MemLog::new();
    {
        let mut db = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("open");
        // Never due: everything must come back through log replay.
        db.set_checkpoint_policy(CheckpointPolicy::EveryN(10_000));
        create_and_seed(&mut db);
        db.enable_group_commit(GroupCommitConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(1),
        })
        .expect("durable database");
        for id in 100..132i64 {
            db.execute(&format!("append to t (id = {id}, seq = 0)"))
                .expect("acked append");
        }
        // A temporal delete: stamps a `ts_stop` version (the id stays
        // retrievable through history) — its page writes must replay
        // exactly like the appends'.
        db.execute("range of z is t\ndelete z where z.id = 100")
            .expect("acked delete");
        // Drop without checkpoint: the "crash".
    }
    let rdb = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .expect("recovery");
    let engine = Engine::new(rdb);
    let mut expect: BTreeSet<i64> = (1..=BASE_IDS).collect();
    expect.extend(100..132);
    assert_eq!(
        current_ids(&engine),
        expect,
        "inline group commit lost an acked statement across reopen"
    );
    audit_clean(&engine, "standalone wait path after recovery");
}

/// Dense checkpoints against batched commits: logged drops and the
/// checkpoint's early log sync must leave an exact database behind,
/// live and across a reopen.
#[test]
fn checkpoints_interleave_cleanly_with_group_commit_batches() {
    let disk = MemDisk::new();
    let log = MemLog::new();
    let mut db = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .expect("open");
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(3));
    create_and_seed(&mut db);
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 6,
        max_delay: Duration::from_millis(2),
    })
    .expect("durable database");
    let engine = Engine::new(db);
    std::thread::scope(|scope| {
        for t in 0..4i64 {
            let engine = engine.clone();
            scope.spawn(move || {
                let mut s = engine.session();
                s.execute("range of z is t").expect("range");
                for k in 0..16i64 {
                    let id = 2000 + t * 100 + k;
                    s.execute(&format!("append to t (id = {id}, seq = 0)"))
                        .expect("append under checkpoint pressure");
                    if k % 5 == 4 {
                        // Temporal delete: stamps a ts_stop version
                        // (the id remains retrievable through
                        // history); exercises in-place page updates
                        // inside the batches.
                        s.execute(&format!(
                            "delete z where z.id = {}",
                            2000 + t * 100 + k - 4
                        ))
                        .expect("delete under checkpoint pressure");
                    }
                }
            });
        }
    });
    let mut expect: BTreeSet<i64> = (1..=BASE_IDS).collect();
    for t in 0..4i64 {
        for k in 0..16i64 {
            expect.insert(2000 + t * 100 + k);
        }
    }
    assert_eq!(current_ids(&engine), expect, "live state after batches");
    audit_clean(&engine, "live engine after batched workload");

    // Reopen from the raw survivors: checkpoint + replay must agree.
    match engine.try_into_database() {
        Ok(db) => drop(db),
        Err(_) => panic!("engine had outstanding handles"),
    }
    let rdb = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .expect("reopen");
    let engine = Engine::new(rdb);
    assert_eq!(
        current_ids(&engine),
        expect,
        "reopen disagrees with the live database"
    );
    audit_clean(&engine, "reopen after batched workload");
}

/// A linger long enough that a leader which waits it out even once per
/// test is caught by the tests below.
const SLOW_DELAY: Duration = Duration::from_secs(1);

/// An engine with group commit bounded by [`SLOW_DELAY`], over fresh
/// in-memory devices that [`reopen_exact`] recovers from.
fn slow_linger_engine() -> (Engine, MemDisk, MemLog) {
    let disk = MemDisk::new();
    let log = MemLog::new();
    let mut db = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .expect("open");
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(10_000));
    create_and_seed(&mut db);
    db.execute("create s (id = i4)").expect("create static");
    db.execute("append to s (id = 1)").expect("static row");
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 8,
        max_delay: SLOW_DELAY,
    })
    .expect("durable database");
    (Engine::new(db), disk, log)
}

/// Appends of fresh ids from `first` on one session until `more` says
/// stop (checked after each); returns the acked ids, how long they
/// took, and the slowest one.
fn timed_appends(
    engine: &Engine,
    first: i64,
    mut more: impl FnMut(usize) -> bool,
) -> (BTreeSet<i64>, Duration, Duration) {
    let mut s = engine.session();
    let mut acked = BTreeSet::new();
    let mut slowest = Duration::ZERO;
    let start = Instant::now();
    for id in first.. {
        let t = Instant::now();
        s.execute(&format!("append to t (id = {id}, seq = 0)"))
            .expect("append");
        slowest = slowest.max(t.elapsed());
        acked.insert(id);
        if !more(acked.len()) {
            break;
        }
    }
    (acked, start.elapsed(), slowest)
}

/// Drop the engine without a checkpoint, recover from the raw
/// survivors, and require every acked id and a clean audit.
fn reopen_exact(
    engine: Engine,
    disk: &MemDisk,
    log: &MemLog,
    acked: &BTreeSet<i64>,
    ctx: &str,
) {
    match engine.try_into_database() {
        Ok(db) => drop(db),
        Err(_) => panic!("{ctx}: engine had outstanding handles"),
    }
    let rdb = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .expect("reopen");
    let engine = Engine::new(rdb);
    let recovered = current_ids(&engine);
    for id in acked {
        assert!(recovered.contains(id), "{ctx}: acked {id} lost");
    }
    audit_clean(&engine, ctx);
}

#[test]
fn a_lone_session_never_waits_out_max_delay() {
    let (engine, disk, log) = slow_linger_engine();
    let (acked, took, _) = timed_appends(&engine, 3000, |n| n < 10);
    assert!(
        took < SLOW_DELAY,
        "10 lone commits took {took:?}: a leader lingered with nobody \
         inside the commit lock"
    );
    reopen_exact(engine, &disk, &log, &acked, "lone session");
}

#[test]
fn a_reading_session_does_not_hold_a_writers_batch_open() {
    let (engine, disk, log) = slow_linger_engine();
    let done = AtomicBool::new(false);
    let reads = AtomicU32::new(0);
    let (acked, _, slowest) = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut s = engine.session();
            s.execute("range of z is t\nrange of y is s")
                .expect("range");
            while !done.load(Ordering::Relaxed) {
                // The static relation has no version stamps, so this
                // read takes the exclusive path and is counted as a
                // writer; the temporal one is served from the snapshot.
                s.execute("retrieve (y.id)").expect("exclusive read");
                s.execute("retrieve (z.id) where z.id = 1")
                    .expect("snapshot read");
                reads.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Keep committing until the reader has been busy beside the
        // writer for a while (bounded, should the reader stall).
        let r = timed_appends(&engine, 4000, |n| {
            n < 10 || (reads.load(Ordering::Relaxed) < 50 && n < 2000)
        });
        done.store(true, Ordering::Relaxed);
        r
    });
    assert!(reads.into_inner() > 0, "the reader ran beside the writer");
    assert!(
        slowest < SLOW_DELAY / 2,
        "a commit beside a reader took {slowest:?}: the leader waited \
         for a session that never commits"
    );
    reopen_exact(engine, &disk, &log, &acked, "writer beside a reader");
}

#[test]
fn a_failed_statement_leaves_no_writer_counted() {
    let (engine, disk, log) = slow_linger_engine();
    let mut s = engine.session();
    for bad in [
        "append to t (id = \"x\", seq = 0)",
        "append to nosuch (id = 1)",
    ] {
        assert!(s.execute(bad).is_err(), "{bad} must fail");
    }
    drop(s);
    let (acked, took, _) = timed_appends(&engine, 5000, |n| n < 3);
    assert!(
        took < SLOW_DELAY,
        "commits after failed statements took {took:?}: a failed \
         statement left a writer counted"
    );
    reopen_exact(engine, &disk, &log, &acked, "after failed statements");
}

/// Bounds set through an engine that already exists apply to the queue
/// the engine waits on. Were the queue replaced, the database would
/// register tickets on the new one while every session waited on the
/// old one forever, so the appends run under a watchdog.
#[test]
fn bounds_set_after_the_engine_exists_keep_one_queue() {
    assert_eq!(
        Engine::new(Database::in_memory()).group_commit_stats(),
        None,
        "an in-memory engine has no commit queue"
    );
    let disk = MemDisk::new();
    let log = MemLog::new();
    let mut db = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .expect("open");
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(10_000));
    create_and_seed(&mut db);
    let engine = Engine::new(db);
    engine
        .with_write(|db| {
            db.enable_group_commit(GroupCommitConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(1),
            })
        })
        .expect("durable database");
    let (before, _) = engine
        .group_commit_stats()
        .expect("a durable engine's queue");

    const PER_SESSION: i64 = 24;
    let (tx, rx) = mpsc::channel();
    for t in 0..2i64 {
        let (engine, tx) = (engine.clone(), tx.clone());
        std::thread::spawn(move || {
            let mut s = engine.session();
            let acked: Vec<i64> = (0..PER_SESSION)
                .map(|k| 6000 + t * 100 + k)
                .filter(|id| {
                    s.execute(&format!("append to t (id = {id}, seq = 0)"))
                        .is_ok()
                })
                .collect();
            // Release the engine before reporting: the reopen below
            // needs the last handle.
            drop(s);
            drop(engine);
            let _ = tx.send(acked);
        });
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut acked = BTreeSet::new();
    for _ in 0..2 {
        let wait = deadline.saturating_duration_since(Instant::now());
        let ids = rx.recv_timeout(wait).expect(
            "a session never got its appends acknowledged: the engine \
             waits on a queue the database no longer registers on",
        );
        assert_eq!(ids.len() as i64, PER_SESSION, "every append acked");
        acked.extend(ids);
    }
    let (commits, fsyncs) = engine
        .group_commit_stats()
        .expect("a durable engine's queue");
    assert_eq!(
        commits - before,
        acked.len() as u64,
        "the engine's queue counts every commit"
    );
    assert!(fsyncs >= 1 && fsyncs <= commits, "{fsyncs} fsyncs");
    reopen_exact(
        engine,
        &disk,
        &log,
        &acked,
        "bounds set through an engine",
    );
}
