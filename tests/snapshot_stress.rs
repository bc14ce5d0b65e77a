//! Lock-free snapshot-read stress suite.
//!
//! The engine serves every eligible temporal retrieve from a published
//! [`ReadView`] — a committed-watermark snapshot — without touching the
//! commit lock. This suite hammers that path with readers racing
//! writers and proves the three properties that make it correct:
//!
//! * **Zero lock acquisitions for reads**: the engine's own lock
//!   counters show exactly one acquisition per writer commit and a
//!   snapshot read per retrieve.
//! * **Prefix-consistent snapshots**: each writer appends `k = 1, 2,
//!   3, …` as separate commits, so any snapshot must see a *prefix* of
//!   each writer's sequence — a gap would mean a read observed commit
//!   `k+1`'s effects without commit `k`'s (a torn watermark).
//! * **Monotone visibility**: a session's successive reads never see a
//!   writer's prefix shrink — watermarks only advance.
//!
//! Every 8th read is a two-variable join, whose decomposition
//! temporaries are written while the writers commit: it too must be a
//! snapshot read, and see a prefix.
//!
//! Runs the same schedule twice: volatile, and durable with group
//! commit on (where the watermark must track *published* commits even
//! though their fsyncs are batched).

use std::collections::BTreeMap;
use std::time::Duration;
use tdbms::wal::MemLog;
use tdbms::{CheckpointPolicy, Database, Engine, GroupCommitConfig};
use tdbms_check::check_database;
use tdbms_kernel::Value;
use tdbms_storage::MemDisk;

const WRITERS: i64 = 2;
const APPENDS: i64 = 48;
const READERS: usize = 4;
const READS: usize = 120;

/// A self-join of `t` that returns each of its rows once, after both
/// variables are detached into temporaries.
const JOIN: &str = "retrieve (q.writer, q.k) where q.writer = p.writer \
     and q.k = p.k and q.k > 0 and p.k > 0";

/// One retrieve through the snapshot path — the join when `join` is
/// set; returns each writer's observed set of `k`s as a sorted map
/// `writer -> ks`.
fn observe(
    session: &mut tdbms::Session,
    join: bool,
) -> BTreeMap<i64, Vec<i64>> {
    let out = session
        .execute(if join {
            JOIN
        } else {
            "retrieve (q.writer, q.k)"
        })
        .expect("snapshot retrieve");
    let mut seen: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for row in out.rows() {
        let (w, k) = match (&row[0], &row[1]) {
            (Value::Int(w), Value::Int(k)) => (*w, *k),
            other => panic!("row decoded as {other:?}"),
        };
        seen.entry(w).or_default().push(k);
    }
    for ks in seen.values_mut() {
        ks.sort_unstable();
    }
    seen
}

/// `ks` must be exactly `1..=n` for some `n` — a prefix of the writer's
/// append order.
fn assert_prefix(ks: &[i64], ctx: &str) {
    for (i, k) in ks.iter().enumerate() {
        assert_eq!(
            *k,
            i as i64 + 1,
            "{ctx}: observed ks {ks:?} are not a prefix — the snapshot \
             saw a later commit without an earlier one"
        );
    }
}

fn run_stress(engine: &Engine) {
    std::thread::scope(|scope| {
        for w in 1..=WRITERS {
            let engine = engine.clone();
            scope.spawn(move || {
                let mut s = engine.session();
                s.execute("range of z is t").expect("range");
                for k in 1..=APPENDS {
                    s.execute(&format!(
                        "append to t (writer = {w}, k = {k})"
                    ))
                    .expect("append");
                }
            });
        }
        for r in 0..READERS {
            let engine = engine.clone();
            scope.spawn(move || {
                let mut s = engine.session();
                s.execute("range of q is t").expect("range");
                s.execute("range of p is t").expect("range");
                let mut floor: BTreeMap<i64, usize> = BTreeMap::new();
                for i in 0..READS {
                    let seen = observe(&mut s, i % 8 == 7);
                    for (w, ks) in &seen {
                        let ctx = format!("reader {r} iteration {i}");
                        assert_prefix(ks, &ctx);
                        let f = floor.entry(*w).or_insert(0);
                        assert!(
                            ks.len() >= *f,
                            "{ctx}: writer {w}'s prefix shrank from \
                             {f} to {} — visibility went backwards",
                            ks.len()
                        );
                        *f = ks.len();
                    }
                }
            });
        }
    });

    // Quiescent: the last published watermark covers every commit.
    let mut s = engine.session();
    s.execute("range of q is t").expect("range");
    s.execute("range of p is t").expect("range");
    let seen = observe(&mut s, false);
    assert_eq!(observe(&mut s, true), seen, "the join's rows differ");
    for w in 1..=WRITERS {
        assert_eq!(
            seen.get(&w).map(Vec::len),
            Some(APPENDS as usize),
            "writer {w}'s commits incomplete after join"
        );
    }
}

/// The proof counters: every retrieve above went through the snapshot
/// path, and only writer commits took the commit lock.
fn assert_lock_proof(engine: &Engine, writes: u64) {
    let locks = engine.lock_stats();
    assert_eq!(
        locks.exclusive, writes,
        "a read fell back to the commit lock"
    );
    let reads = (READERS * READS + 2) as u64;
    assert!(
        locks.snapshot_reads >= reads,
        "snapshot counter {} below the {reads} reads issued",
        locks.snapshot_reads
    );
    engine.with_read(|db| {
        assert!(
            db.io_stats().is_consistent(),
            "I/O ledger out of balance at quiescence"
        );
    });
}

/// Audit the quiescent database with `tdbms-check`: structure, not only
/// the rows the readers saw. Runs after the lock proof, whose counters
/// its exclusive access would disturb. The audit reads pages raw from
/// disk, where a durable database's commits since its last checkpoint
/// are not yet; a checkpoint puts them there first.
fn audit_clean(engine: &Engine) {
    engine.with_write(|db| {
        db.checkpoint().expect("checkpoint");
        let (pager, catalog, _) = db.internals();
        let report = check_database(pager, catalog).expect("audit runs");
        assert!(report.is_clean(), "audit dirty:\n{}", report.render());
    });
}

#[test]
fn volatile_snapshot_reads_stay_prefix_consistent_and_lock_free() {
    let mut db = Database::in_memory();
    db.execute("create temporal interval t (writer = i4, k = i4)")
        .expect("create");
    db.set_cold_statements(false);
    let engine = Engine::new(db);
    run_stress(&engine);
    assert_lock_proof(&engine, (WRITERS * APPENDS) as u64);
    audit_clean(&engine);
}

#[test]
fn durable_group_commit_snapshot_reads_stay_prefix_consistent() {
    let mut db = Database::open_durable_on(
        Box::new(MemDisk::new()),
        Box::new(MemLog::new()),
        None,
    )
    .expect("durable open");
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(16));
    db.execute("create temporal interval t (writer = i4, k = i4)")
        .expect("create");
    db.set_cold_statements(false);
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(1),
    })
    .expect("durable database");
    let engine = Engine::new(db);
    run_stress(&engine);
    assert_lock_proof(&engine, (WRITERS * APPENDS) as u64);
    audit_clean(&engine);
}
