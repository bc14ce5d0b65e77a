//! Reorganization-under-concurrency acceptance suite.
//!
//! The background compactor moves committed, superseded versions out of
//! the primary chains while sessions keep reading and writing. Three
//! things may never happen, and each test here exists to catch one:
//!
//! * a snapshot read blocking on (or even touching) the commit lock
//!   because of a concurrent compaction pass;
//! * a committed version going missing — from `now` queries or from
//!   time travel — because migration raced a writer;
//! * a crash in the middle of a reorganization pass corrupting the
//!   durable state: recovery must come back audit-clean with exactly
//!   the committed versions, no losses, no duplicates.

use std::sync::atomic::{AtomicU64, Ordering};
use tdbms::wal::{FaultLog, LogStore, MemLog};
use tdbms::{Database, Engine, Value};
use tdbms_check::check_database;
use tdbms_kernel::{Granularity, Prng, TimeVal};
use tdbms_storage::{DiskManager, FaultDisk, FaultPlan, MemDisk};

const KEYS: i64 = 16;

fn beginning() -> String {
    TimeVal::BEGINNING.format(Granularity::Second)
}

/// A fresh keyed rollback relation: ids `1..=KEYS`, hashed on `id`.
fn create_keyed(db: &mut Database) {
    db.execute("create rollback r (id = i4, x = i4)")
        .expect("create");
    for id in 1..=KEYS {
        db.execute(&format!("append to r (id = {id}, x = 0)"))
            .expect("seed");
    }
    db.execute("modify r to hash on id where fillfactor = 100")
        .expect("modify");
}

/// Versions reachable by time travel — every version ever committed —
/// as sorted `(id, x)` pairs.
fn all_versions(db: &mut Database) -> Vec<(i64, i64)> {
    db.execute("range of q is r").expect("range");
    let out = db
        .execute(&format!(
            "retrieve (q.id, q.x) as of \"{}\" through \"now\"",
            beginning()
        ))
        .expect("time travel");
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("not an integer: {other:?}"),
    };
    let mut versions: Vec<(i64, i64)> = out
        .rows()
        .iter()
        .map(|r| (int(&r[0]), int(&r[1])))
        .collect();
    versions.sort_unstable();
    versions
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

/// One seeded schedule: the compactor on a tight interval races two
/// writers and two readers. Afterwards the compactor must have
/// migrated versions, the ledger balances, reads were (almost always)
/// lock-free, no version is lost, and the database audits clean.
fn run_reorg_schedule(seed: u64, durable: bool) {
    let mut db = if durable {
        Database::open_durable_on(
            Box::new(MemDisk::new()),
            Box::new(MemLog::new()),
            None,
        )
        .expect("durable open")
    } else {
        Database::in_memory()
    };
    db.set_cold_statements(false);
    create_keyed(&mut db);
    let engine = Engine::new(db);
    let daemon =
        engine.spawn_reorg_daemon(std::time::Duration::from_millis(1));

    let replaces = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let engine = engine.clone();
            let replaces = &replaces;
            scope.spawn(move || {
                let mut g = Prng::seed_from_u64(seed ^ (t << 24) ^ 0x4e04);
                let mut s = engine.session();
                s.execute("range of z is r").expect("range");
                for _ in 0..24 {
                    let key = g.random_range(1i64..=KEYS);
                    if t < 2 {
                        s.execute(&format!(
                            "replace z (x = z.x + 1) where z.id = {key}"
                        ))
                        .expect("replace");
                        replaces.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Keyed current read: exactly one live version,
                        // whatever the compactor is doing.
                        let out = s
                            .execute(&format!(
                                "retrieve (z.x) where z.id = {key}"
                            ))
                            .expect("read");
                        assert_eq!(
                            out.rows().len(),
                            1,
                            "seed {seed}: key {key} not exactly-once \
                             mid-reorg"
                        );
                    }
                }
            });
        }
    });
    // The writers committed replaces, so superseded versions exist and
    // the next daemon pass must migrate them — wait (bounded) for it
    // rather than racing the 1 ms interval.
    let deadline =
        std::time::Instant::now() + std::time::Duration::from_secs(10);
    while daemon.migrated() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let migrated = daemon.migrated();
    daemon.stop();
    assert!(
        migrated > 0,
        "seed {seed} (durable={durable}): compactor migrated nothing \
         within 10s of the workload finishing"
    );

    // Lock accounting: reads are served from the published snapshot.
    // A compaction pass republishing the view mid-read is allowed to
    // push that one read onto the exclusive path (correctness over
    // latency), so the invariant is "rare", not "never": across 48
    // reads per schedule, fallbacks must stay in single digits — at
    // least 40 must be provably lock-free.
    let locks = engine.lock_stats();
    assert!(
        locks.snapshot_reads >= 40,
        "seed {seed} (durable={durable}): only {} snapshot-served \
         reads of 48 — the compactor is starving the snapshot path",
        locks.snapshot_reads
    );
    engine.with_read(|db| {
        assert!(
            db.io_stats().is_consistent(),
            "seed {seed}: I/O ledger unbalanced after reorg stress"
        );
    });
    let committed =
        KEYS as usize + replaces.load(Ordering::Relaxed) as usize;
    engine.with_write(|db| {
        assert_eq!(
            all_versions(db).len(),
            committed,
            "seed {seed} (durable={durable}): committed versions lost \
             or duplicated under concurrent reorganization"
        );
    });
    audit_clean(&engine, &format!("seed {seed} (durable={durable})"));
}

/// Acceptance: ten seeded schedules (a third through the WAL), every
/// one consistent, audit-clean, and actually compacted.
#[test]
fn seeded_reorg_schedules_stay_consistent_and_lock_free() {
    for seed in 0..10u64 {
        run_reorg_schedule(seed, seed % 3 == 0);
    }
}

/// Crash mid-reorganization: a fault-injected durable incarnation
/// alternates committed replaces with compaction passes until the
/// budget trips mid-flight. Recovery on the raw survivors must hold
/// exactly the committed versions (time travel included), audit clean,
/// and accept further reorganization. The one replace the crash
/// interrupted is in doubt, as in `wal_recovery`: a crash at its log
/// sync leaves its commit in the log, so recovery may hold exactly that
/// replace's version as well.
#[test]
fn crash_mid_reorg_loses_no_committed_versions() {
    for case in 0..10u64 {
        let mut g = Prng::seed_from_u64(0x4e04_c4a5 + case * 104_729);
        let budget = g.random_range(15u64..=120);
        let torn = g.random_bool().then(|| g.random_range(0usize..512));

        // Incarnation 1, no faults: keyed relation with a real version
        // history, checkpointed so the crash run always finds it.
        let disk = MemDisk::new();
        let log = MemLog::new();
        let mut committed: Vec<(i64, i64)> =
            (1..=KEYS).map(|id| (id, 0)).collect();
        {
            let mut db = Database::open_durable_on(
                Box::new(disk.clone()),
                Box::new(log.clone()),
                None,
            )
            .expect("baseline open");
            create_keyed(&mut db);
            db.execute("range of v is r").expect("range");
            for ver in 1..4i64 {
                for id in 1..=KEYS {
                    db.execute(&format!(
                        "replace v (x = {ver}) where v.id = {id}"
                    ))
                    .expect("baseline replace");
                    committed.push((id, ver));
                }
            }
            db.checkpoint().expect("baseline checkpoint");
        }

        // Incarnation 2: same storage behind a fault plan; replaces
        // and reorganization passes interleave until the crash.
        let plan = FaultPlan::new(Some(budget));
        let fdisk: Box<dyn DiskManager> = match torn {
            Some(k) => Box::new(FaultDisk::with_torn_writes(
                Box::new(disk.clone()),
                plan.clone(),
                k,
            )),
            None => Box::new(FaultDisk::new(
                Box::new(disk.clone()),
                plan.clone(),
            )),
        };
        let flog: Box<dyn LogStore> =
            Box::new(FaultLog::new(Box::new(log.clone()), plan.clone()));
        let mut in_doubt = None;
        if let Ok(mut db) = Database::open_durable_on(fdisk, flog, None) {
            if db.execute("range of v is r").is_ok() {
                for i in 0..48i64 {
                    let version = (1 + (i % KEYS), 100 + i);
                    match db.execute(&format!(
                        "replace v (x = {}) where v.id = {}",
                        version.1, version.0
                    )) {
                        Ok(_) => committed.push(version),
                        Err(_) => {
                            in_doubt = Some(version);
                            break;
                        }
                    }
                    if i % 3 == 0 && db.reorganize("r").is_err() {
                        break;
                    }
                }
            }
        }
        assert!(
            plan.crashed(),
            "case {case}: budget {budget} never tripped — the crash \
             must land mid-workload"
        );
        committed.sort_unstable();
        let mut with_in_doubt = committed.clone();
        with_in_doubt.extend(in_doubt);
        with_in_doubt.sort_unstable();

        // Recovery on the raw survivors.
        let mut rdb = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("recovery must succeed on raw survivors");
        let recovered = all_versions(&mut rdb);
        assert!(
            recovered == committed || recovered == with_in_doubt,
            "case {case} (budget {budget}, torn {torn:?}): recovered \
             {recovered:?}, committed {committed:?} (in doubt \
             {in_doubt:?}): versions lost or duplicated across a \
             mid-reorg crash"
        );
        {
            let (pager, catalog, _) = rdb.internals();
            let report =
                check_database(pager, catalog).expect("audit runs");
            assert!(
                report.is_clean(),
                "case {case}: recovered database dirty:\n{}",
                report.render()
            );
        }
        // The recovered database keeps compacting like nothing
        // happened, and compaction still changes no answer.
        rdb.reorganize("r").expect("post-recovery reorganize");
        assert_eq!(
            all_versions(&mut rdb),
            recovered,
            "case {case}: post-recovery reorganization changed the \
             version count"
        );
    }
}
