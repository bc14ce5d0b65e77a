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
//!
//! Each test runs a rollback relation `r` and a temporal relation `t`
//! side by side. A temporal pass also moves transaction-current versions
//! (those closed in valid time), so a lost or doubled migration of `t`
//! shows in a `when` answer as well as in time travel.

use std::collections::BTreeMap;
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

/// Fresh keyed relations, a rollback `r` and a temporal `t`: ids
/// `1..=KEYS` with `x = 0`, hashed on `id`.
fn create_keyed(db: &mut Database) {
    for rel in ["r", "t"] {
        let class = if rel == "r" { "rollback" } else { "temporal" };
        db.execute(&format!("create {class} {rel} (id = i4, x = i4)"))
            .expect("create");
        for id in 1..=KEYS {
            db.execute(&format!("append to {rel} (id = {id}, x = 0)"))
                .expect("seed");
        }
        db.execute(&format!(
            "modify {rel} to hash on id where fillfactor = 100"
        ))
        .expect("modify");
    }
}

/// Sorted `(int, int)` pairs of a two-column integer answer.
fn int_pairs(out: &tdbms::ExecOutput) -> Vec<(i64, i64)> {
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("not an integer: {other:?}"),
    };
    let mut pairs: Vec<(i64, i64)> = out
        .rows()
        .iter()
        .map(|r| (int(&r[0]), int(&r[1])))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// What `t` answers once every write is in the past: the versions open
/// in valid time (`when overlap "now"`), the closed ones (`when precede
/// "now"`, each replace's and delete's closing version), and the count
/// of every version ever committed (time travel).
#[derive(Debug, Clone, PartialEq, Eq)]
struct TemporalState {
    open: Vec<(i64, i64)>,
    closed: Vec<(i64, i64)>,
    versions: usize,
}

fn temporal_state(db: &mut Database) -> TemporalState {
    db.execute("range of p is t").expect("range");
    let mut ask = |q: &str| int_pairs(&db.execute(q).expect(q));
    let open = ask("retrieve (p.id, p.x) when p overlap \"now\"");
    let closed = ask("retrieve (p.id, p.x) when p precede \"now\"");
    let versions = ask(&format!(
        "retrieve (p.id, p.x) as of \"{}\" through \"now\"",
        beginning()
    ))
    .len();
    TemporalState {
        open,
        closed,
        versions,
    }
}

/// One statement of `t`'s stream.
#[derive(Debug, Clone, Copy)]
enum TemporalOp {
    Replace { id: i64, x: i64 },
    Delete { id: i64 },
}

impl TemporalOp {
    fn tquel(self) -> String {
        match self {
            TemporalOp::Replace { id, x } => {
                format!("replace u (x = {x}) where u.id = {id}")
            }
            TemporalOp::Delete { id } => {
                format!("delete u where u.id = {id}")
            }
        }
    }
}

/// The model of `t` under a sequential stream: a replace closes the
/// key's open version and opens a new one (two new versions), a delete
/// closes it (one); both do nothing to a deleted key.
#[derive(Debug, Clone)]
struct TemporalModel {
    open: BTreeMap<i64, i64>,
    closed: Vec<(i64, i64)>,
    versions: usize,
}

impl TemporalModel {
    fn new() -> Self {
        TemporalModel {
            open: (1..=KEYS).map(|id| (id, 0)).collect(),
            closed: Vec::new(),
            versions: KEYS as usize,
        }
    }

    fn apply(&mut self, op: TemporalOp) {
        let (TemporalOp::Replace { id, .. } | TemporalOp::Delete { id }) =
            op;
        let Some(old) = self.open.remove(&id) else {
            return;
        };
        self.closed.push((id, old));
        self.versions += 1;
        if let TemporalOp::Replace { id, x } = op {
            self.open.insert(id, x);
            self.versions += 1;
        }
    }

    fn state(&self) -> TemporalState {
        let mut closed = self.closed.clone();
        closed.sort_unstable();
        TemporalState {
            open: self.open.iter().map(|(&id, &x)| (id, x)).collect(),
            closed,
            versions: self.versions,
        }
    }
}

/// `t`'s history watermarks `(max_stop, max_valid_to)`, if a pass has
/// made its sidecar.
fn watermarks(db: &mut Database) -> Option<(TimeVal, TimeVal)> {
    let (_, catalog, _) = db.internals();
    let rel = catalog.get(catalog.require("t").expect("t"));
    rel.history
        .as_ref()
        .map(|h| (h.max_stop(), h.max_valid_to()))
}

/// Versions reachable by time travel — every version ever committed —
/// as sorted `(id, x)` pairs.
fn all_versions(db: &mut Database) -> Vec<(i64, i64)> {
    db.execute("range of q is r").expect("range");
    int_pairs(
        &db.execute(&format!(
            "retrieve (q.id, q.x) as of \"{}\" through \"now\"",
            beginning()
        ))
        .expect("time travel"),
    )
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
    // Versions of `t` the writers replaced and deleted (a statement on a
    // deleted key affects none).
    let (t_replaced, t_deleted) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let engine = engine.clone();
            let replaces = &replaces;
            let (t_replaced, t_deleted) = (&t_replaced, &t_deleted);
            scope.spawn(move || {
                let mut g = Prng::seed_from_u64(seed ^ (t << 24) ^ 0x4e04);
                let mut s = engine.session();
                s.execute("range of z is r").expect("range");
                s.execute("range of u is t").expect("range");
                for _ in 0..24 {
                    let key = g.random_range(1i64..=KEYS);
                    if t < 2 {
                        s.execute(&format!(
                            "replace z (x = z.x + 1) where z.id = {key}"
                        ))
                        .expect("replace");
                        replaces.fetch_add(1, Ordering::Relaxed);
                        let (stmt, tally) = if g.random_range(0u32..8) == 0
                        {
                            (
                                format!("delete u where u.id = {key}"),
                                t_deleted,
                            )
                        } else {
                            let q = "replace u (x = u.x + 1) where u.id =";
                            (format!("{q} {key}"), t_replaced)
                        };
                        let out = s.execute(&stmt).expect("temporal write");
                        tally.fetch_add(
                            out.affected as u64,
                            Ordering::Relaxed,
                        );
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
                        // Keyed at-now read of `t`: at most the version a
                        // write at the snapshot's instant closed and the
                        // one it opened, whatever the compactor is doing.
                        let out = s
                            .execute(&format!(
                                "retrieve (u.x) where u.id = {key} \
                                 when u overlap \"now\""
                            ))
                            .expect("temporal read");
                        assert!(
                            out.rows().len() <= 2,
                            "seed {seed}: key {key} has {} versions at now",
                            out.rows().len()
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
    // latency), so the invariant is "rare", not "never": across the 96
    // reads of a schedule (48 of `r`, 48 of `t`), fallbacks must stay in
    // single digits — at most 8 in all, as `r` alone once allowed.
    let locks = engine.lock_stats();
    assert!(
        locks.snapshot_reads >= 96 - 8,
        "seed {seed} (durable={durable}): only {} snapshot-served \
         reads of 96 — the compactor is starving the snapshot path",
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
        // `t`: every write is in the past now, so each open version
        // overlaps "now" and each closing version precedes it.
        let (replaced, deleted) = (
            t_replaced.load(Ordering::Relaxed) as usize,
            t_deleted.load(Ordering::Relaxed) as usize,
        );
        let state = temporal_state(db);
        let ctx = format!("seed {seed} (durable={durable})");
        assert_eq!(state.open.len(), KEYS as usize - deleted, "{ctx}");
        let mut ids: Vec<i64> = state.open.iter().map(|p| p.0).collect();
        ids.dedup();
        assert_eq!(
            ids.len(),
            state.open.len(),
            "{ctx}: a key opened twice"
        );
        assert_eq!(state.closed.len(), replaced + deleted, "{ctx}");
        assert_eq!(
            state.versions,
            KEYS as usize + 2 * replaced + deleted,
            "{ctx}: temporal versions lost or duplicated under \
             concurrent reorganization"
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
/// alternates committed writes with compaction passes until the budget
/// trips mid-flight. Recovery on the raw survivors must hold exactly the
/// committed versions (time travel and `when` answers included), audit
/// clean, keep the watermarks of the last committed pass, and accept
/// further reorganization. The one write the crash interrupted is in
/// doubt, as in `wal_recovery`: a crash at its log sync leaves its
/// commit in the log, so recovery may hold exactly that write's versions
/// as well.
#[test]
fn crash_mid_reorg_loses_no_committed_versions() {
    for case in 0..10u64 {
        let mut g = Prng::seed_from_u64(0x4e04_c4a5 + case * 104_729);
        let budget = g.random_range(15u64..=120);
        let torn = g.random_bool().then(|| g.random_range(0usize..512));

        // Incarnation 1, no faults: keyed relations with a real version
        // history, checkpointed so the crash run always finds it.
        let disk = MemDisk::new();
        let log = MemLog::new();
        let mut committed: Vec<(i64, i64)> =
            (1..=KEYS).map(|id| (id, 0)).collect();
        let mut model = TemporalModel::new();
        {
            let mut db = Database::open_durable_on(
                Box::new(disk.clone()),
                Box::new(log.clone()),
                None,
            )
            .expect("baseline open");
            create_keyed(&mut db);
            db.execute("range of v is r").expect("range");
            db.execute("range of u is t").expect("range");
            for ver in 1..4i64 {
                for id in 1..=KEYS {
                    db.execute(&format!(
                        "replace v (x = {ver}) where v.id = {id}"
                    ))
                    .expect("baseline replace");
                    committed.push((id, ver));
                    let op = TemporalOp::Replace { id, x: ver };
                    db.execute(&op.tquel()).expect("baseline replace");
                    model.apply(op);
                }
            }
            let op = TemporalOp::Delete { id: KEYS };
            db.execute(&op.tquel()).expect("baseline delete");
            model.apply(op);
            db.checkpoint().expect("baseline checkpoint");
        }

        // Incarnation 2: same storage behind a fault plan; writes and
        // reorganization passes interleave until the crash.
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
        let mut in_doubt_t = None;
        // `t`'s watermarks after its last committed pass, and whether a
        // pass of `t` was interrupted (its commit is in doubt too).
        let mut marks = None;
        let mut pass_in_doubt = false;
        if let Ok(mut db) = Database::open_durable_on(fdisk, flog, None) {
            if db.execute("range of v is r").is_ok()
                && db.execute("range of u is t").is_ok()
            {
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
                    let id = 1 + (i * 7 % KEYS);
                    let op = if i % 5 == 4 {
                        TemporalOp::Delete { id }
                    } else {
                        TemporalOp::Replace { id, x: 100 + i }
                    };
                    match db.execute(&op.tquel()) {
                        Ok(_) => model.apply(op),
                        Err(_) => {
                            in_doubt_t = Some(op);
                            break;
                        }
                    }
                    if i % 3 == 0 {
                        if db.reorganize("r").is_err() {
                            break;
                        }
                        if db.reorganize("t").is_err() {
                            pass_in_doubt = true;
                            break;
                        }
                        marks = watermarks(&mut db);
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
        let mut model_in_doubt = model.clone();
        if let Some(op) = in_doubt_t {
            model_in_doubt.apply(op);
        }

        // Recovery on the raw survivors.
        let mut rdb = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("recovery must succeed on raw survivors");
        let ctx = format!("case {case} (budget {budget}, torn {torn:?})");
        let recovered = all_versions(&mut rdb);
        assert!(
            recovered == committed || recovered == with_in_doubt,
            "{ctx}: recovered {recovered:?}, committed {committed:?} (in \
             doubt {in_doubt:?}): versions lost or duplicated across a \
             mid-reorg crash"
        );
        let recovered_t = temporal_state(&mut rdb);
        assert!(
            recovered_t == model.state()
                || recovered_t == model_in_doubt.state(),
            "{ctx}: recovered {recovered_t:?}, committed {:?} (in doubt \
             {in_doubt_t:?}): temporal versions lost or duplicated across \
             a mid-reorg crash",
            model.state()
        );
        if !pass_in_doubt {
            assert_eq!(
                watermarks(&mut rdb),
                marks,
                "{ctx}: watermarks moved across the crash"
            );
        }
        {
            let (pager, catalog, _) = rdb.internals();
            let report =
                check_database(pager, catalog).expect("audit runs");
            assert!(
                report.is_clean(),
                "{ctx}: recovered database dirty:\n{}",
                report.render()
            );
        }
        // The recovered database keeps compacting like nothing
        // happened, and compaction still changes no answer.
        rdb.reorganize("r").expect("post-recovery reorganize");
        rdb.reorganize("t").expect("post-recovery reorganize");
        assert_eq!(
            all_versions(&mut rdb),
            recovered,
            "{ctx}: post-recovery reorganization changed the version count"
        );
        assert_eq!(
            temporal_state(&mut rdb),
            recovered_t,
            "{ctx}: post-recovery reorganization changed a `when` answer"
        );
    }
}
