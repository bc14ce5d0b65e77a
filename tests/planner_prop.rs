//! One decomposition, two callers, and the planner beside them.
//!
//! `exec_retrieve` is the one Ingres decomposition. `Database` runs it
//! exclusively (buffers invalidated after detachment, as the paper
//! counts pages); an `Engine` session runs it on a snapshot, quietly,
//! in-memory or durable alike. The seeded property test here drives
//! random schemas, workloads and multi-variable retrieves through those
//! callers and requires byte-identical rows. The leak tests hold the
//! decomposition to its rule that every temporary is a scratch file of
//! its statement: dropped when the statement ends, also when a guard
//! stops it, and never seen by the catalog, the log or the directory.
//! The plan-cache tests drive the engine's statement cache through
//! concurrent sessions and catalog changes mid-stream — a cached plan
//! may go stale, but serving stale *results* is a bug. The accuracy test holds the `explain` estimates to a 2×
//! bound on the paper workload's single-variable queries (join
//! estimates are ordinal — validated by the fig5 `--predict` ranking
//! gate instead; see DESIGN.md "Query planning").

use tdbms::wal::{LogStore, MemLog};
use tdbms::{Database, Engine, Error, ExecOutput, Value};
use tdbms_bench::{build_database, evolve_uniform, BenchConfig};
use tdbms_check::check_database;
use tdbms_core::{QueryGuard, SessionLimits};
use tdbms_kernel::DatabaseClass;
use tdbms_prop::{check, Gen};
use tdbms_storage::{DiskManager, MemDisk, Pager, RelId};

/// One generated scenario: setup statements, then query statements.
struct Scenario {
    nrels: usize,
    setup: Vec<String>,
    queries: Vec<String>,
}

fn arb_scenario(g: &mut Gen) -> Scenario {
    let nrels = g.range(2usize..4);
    let mut setup = Vec::new();
    for r in 0..nrels {
        setup.push(format!(
            "create temporal interval r{r} (id = i4, val = i4)"
        ));
        let rows = g.range(16u32..48);
        for _ in 0..rows {
            setup.push(format!(
                "append to r{r} (id = {}, val = {})",
                g.range(0i32..12),
                g.range(-100i32..100)
            ));
        }
        // Random access method: heap stays as created.
        match g.range(0u8..3) {
            1 => setup.push(format!(
                "modify r{r} to hash on id where fillfactor = 100"
            )),
            2 => setup.push(format!(
                "modify r{r} to isam on id where fillfactor = 100"
            )),
            _ => {}
        }
        setup.push(format!("range of v{r} is r{r}"));
        // Updates grow version chains (what the planner's chain-length
        // statistic feeds on).
        let updates = g.range(0u32..12);
        for _ in 0..updates {
            setup.push(format!(
                "replace v{r} (val = {}) where v{r}.id = {}",
                g.range(-100i32..100),
                g.range(0i32..12)
            ));
        }
    }
    let mut queries = Vec::new();
    for _ in 0..g.range(3usize..7) {
        let a = g.range(0usize..nrels);
        let mut b = g.range(0usize..nrels);
        if b == a {
            b = (b + 1) % nrels;
        }
        let mut conj = vec![format!("v{a}.id = v{b}.id")];
        if g.bool() {
            conj.push(format!("v{a}.val > {}", g.range(-100i32..100)));
        }
        if g.bool() {
            conj.push(format!("v{b}.id = {}", g.range(0i32..12)));
        }
        queries.push(format!(
            "retrieve (v{a}.id, v{a}.val, v{b}.val) where {}",
            conj.join(" and ")
        ));
    }
    Scenario {
        nrels,
        setup,
        queries,
    }
}

/// A query's `(columns, rows, affected)`.
type Answer = (Vec<String>, Vec<Vec<Value>>, usize);

fn answer(out: ExecOutput) -> Answer {
    let columns = out.columns.iter().map(|(n, _)| n.clone()).collect();
    (columns, out.rows().to_vec(), out.affected)
}

fn build(s: &Scenario) -> Database {
    build_on(s, Database::in_memory())
}

fn build_on(s: &Scenario, mut db: Database) -> Database {
    for stmt in &s.setup {
        db.execute(stmt)
            .unwrap_or_else(|e| panic!("setup `{stmt}` failed: {e}"));
    }
    db
}

#[test]
fn exclusive_and_snapshot_retrieves_return_byte_identical_rows() {
    check("decomposition_callers_rows", 24, |g| {
        let s = arb_scenario(g);
        let mut db = build(&s);
        let exclusive: Vec<Answer> = s
            .queries
            .iter()
            .map(|q| {
                answer(
                    db.execute(q).unwrap_or_else(|e| panic!("`{q}`: {e}")),
                )
            })
            .collect();
        for (mode, db) in [
            ("in-memory", build(&s)),
            ("durable", build_on(&s, mem_durable(&MemDisk::new()).0)),
        ] {
            let engine = Engine::new(db);
            let mut sess = engine.session();
            for r in 0..s.nrels {
                sess.execute(&format!("range of v{r} is r{r}")).unwrap();
            }
            for (q, want) in s.queries.iter().zip(&exclusive) {
                let got = sess
                    .execute(q)
                    .unwrap_or_else(|e| panic!("{mode} `{q}`: {e}"));
                assert_eq!(&answer(got), want, "{mode} `{q}` differs");
            }
            assert_eq!(
                engine.lock_stats().snapshot_reads,
                s.queries.len() as u64,
                "{mode}: every query must run on the snapshot path"
            );
        }
    });
}

/// A durable database over `disk` and a fresh in-memory log, and a
/// handle on that log.
fn mem_durable(disk: &MemDisk) -> (Database, MemLog) {
    let log = MemLog::new();
    let db = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .unwrap();
    (db, log)
}

/// Two 40-row temporal relations and a join whose 36 result rows
/// overrun a 5-row guard after both detachments have materialized
/// their temporaries.
const LEAK_SETUP: &str = "create temporal interval a (id = i4, v = i4)
    create temporal interval b (id = i4, v = i4)";
const LEAK_QUERY: &str = "range of x is a range of y is b
    retrieve (x.v, y.v) where x.id = y.id and x.v > 3 and y.v > 3";

fn seed_leak_relations(db: &mut Database) {
    db.execute(LEAK_SETUP).unwrap();
    for i in 0..40 {
        for rel in ["a", "b"] {
            db.execute(&format!("append to {rel} (id = {i}, v = {i})"))
                .unwrap();
        }
    }
}

/// Files on the device, scratch files included: a `MemDisk` does not
/// know which of its files are scratch.
fn residue(disk: &MemDisk) -> usize {
    disk.files().len()
}

#[test]
fn a_guarded_in_memory_retrieve_drops_its_temporaries() {
    let disk = MemDisk::new();
    let mut db = Database::with_pager(Pager::new(Box::new(disk.clone())));
    seed_leak_relations(&mut db);
    let files = residue(&disk);
    let guard = QueryGuard::new().with_max_rows(5);
    let mut err = None;
    for stmt in tdbms::tquel::parse_program(LEAK_QUERY).unwrap() {
        err = db.execute_statement_guarded(&stmt, &guard).err();
    }
    assert!(matches!(err, Some(Error::LimitExceeded { .. })), "{err:?}");
    assert_eq!(residue(&disk), files);
}

#[test]
fn a_guarded_durable_session_retrieve_drops_its_temporaries() {
    let disk = MemDisk::new();
    let (mut db, _log) = mem_durable(&disk);
    seed_leak_relations(&mut db);
    let files = residue(&disk);
    let engine = Engine::new(db);
    let mut sess = engine.session();
    sess.set_limits(SessionLimits {
        max_rows: Some(5),
        ..SessionLimits::default()
    });
    let err = sess.execute(LEAK_QUERY).unwrap_err();
    assert!(matches!(err, Error::LimitExceeded { .. }), "{err:?}");
    assert_eq!(residue(&disk), files);
}

const JOIN: &str = "range of x is a range of y is b
    retrieve (x.v, y.v) where x.id = y.id and x.v > 3";

/// Joins in a durable session that never writes leave no file behind,
/// and append nothing to the log.
#[test]
fn durable_joins_leave_no_file_and_no_log_record() {
    let disk = MemDisk::new();
    let (mut db, mut log) = mem_durable(&disk);
    seed_leak_relations(&mut db);
    let files = residue(&disk);
    let logged = log.read_all().unwrap().len();
    let engine = Engine::new(db);
    let mut sess = engine.session();
    for _ in 0..30 {
        assert_eq!(sess.execute_all(JOIN).unwrap()[2].affected, 36);
    }
    assert_eq!(
        engine.lock_stats().exclusive,
        0,
        "joins are snapshot reads"
    );
    assert_eq!(residue(&disk), files);
    assert_eq!(log.read_all().unwrap().len(), logged, "the log grew");
    let report = engine.with_write(|db| {
        let (pager, catalog, _) = db.internals();
        check_database(pager, catalog).unwrap()
    });
    assert!(report.findings.is_empty(), "{}", report.render());
}

/// The same over a database directory: after reopening, it holds the
/// catalog's files and the log, nothing else.
#[test]
fn durable_joins_leave_only_the_catalogs_files_in_the_directory() {
    let dir = tempdir();
    let mut db = Database::open_durable(&dir).unwrap();
    seed_leak_relations(&mut db);
    let engine = Engine::new(db);
    let mut sess = engine.session();
    for _ in 0..30 {
        assert_eq!(sess.execute_all(JOIN).unwrap()[2].affected, 36);
    }
    drop(sess);
    drop(engine);
    let mut db = Database::open_durable(&dir).unwrap();
    let (_, catalog, _) = db.internals();
    let mut want: Vec<String> = catalog
        .iter()
        .map(|(_, r)| format!("f{}.pages", r.file.file_id().0))
        .chain([tdbms::wal::WAL_NAME.to_string()])
        .collect();
    want.sort();
    let mut got: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    got.sort();
    assert_eq!(got, want);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Temporaries take no catalog slot: a relation created after 100
/// joins gets the slot after the two relations before it.
#[test]
fn joins_leave_the_catalog_as_they_found_it() {
    let mut db = Database::in_memory();
    seed_leak_relations(&mut db);
    for _ in 0..100 {
        db.execute_all(JOIN).unwrap();
    }
    db.execute("create static c (x = i4)").unwrap();
    assert_eq!(db.internals().1.id_of("c"), Some(RelId(2)));
}

/// Temporaries have no name, so none can collide with a relation's.
#[test]
fn a_relation_named_like_a_temporary_does_not_stop_a_join() {
    let mut db = Database::in_memory();
    seed_leak_relations(&mut db);
    db.execute("create static _temp_3 (x = i4)").unwrap();
    let out = db.execute_all(JOIN).unwrap();
    assert_eq!(out[2].affected, 36);
}

fn tempdir() -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "tdbms-decompose-test-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&p).expect("create tempdir");
    p
}

fn seeded_engine() -> Engine {
    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4, x = i4)")
        .unwrap();
    for id in 0..64 {
        db.execute(&format!("append to t (id = {id}, x = {id})"))
            .unwrap();
    }
    Engine::new(db)
}

/// Concurrent sessions hammer two hot statement texts while a writer
/// commits (republishing the view) mid-stream. No read may error or
/// see a row count outside the [before, after] window, and the hot
/// texts must hit the cache >90 % of the time.
#[test]
fn plan_cache_stress_under_concurrent_writes() {
    let engine = seeded_engine();
    let readers = 4;
    let reps = 200u64;
    std::thread::scope(|s| {
        for _ in 0..readers {
            let engine = engine.clone();
            s.spawn(move || {
                let mut sess = engine.session();
                sess.execute("range of q is t").unwrap();
                for i in 0..reps {
                    let stmt = if i % 2 == 0 {
                        "retrieve (q.x) where q.id = 7"
                    } else {
                        "retrieve (q.id) where q.x > 1000"
                    };
                    let out = sess.execute(stmt).unwrap();
                    if i % 2 == 0 {
                        assert_eq!(out.affected, 1);
                    } else {
                        // Writers append x = 5000 rows concurrently;
                        // any count up to the final total is a valid
                        // snapshot.
                        assert!(out.affected <= 32);
                    }
                }
            });
        }
        let engine = engine.clone();
        s.spawn(move || {
            let mut w = engine.session();
            w.execute("range of w is t").unwrap();
            for i in 0..32 {
                w.execute(&format!(
                    "append to t (id = {}, x = 5000)",
                    100 + i
                ))
                .unwrap();
            }
        });
    });
    let (hits, misses) = engine.plan_cache_stats();
    let rate = hits as f64 / (hits + misses).max(1) as f64;
    assert!(
        rate > 0.9,
        "hot statements should hit >90%: hits={hits} misses={misses}"
    );
    // The writer's rows are all visible once the dust settles.
    let mut sess = engine.session();
    sess.execute("range of q is t").unwrap();
    let out = sess.execute("retrieve (q.id) where q.x > 1000").unwrap();
    assert_eq!(out.affected, 32);
}

/// A catalog change between repeats of the same statement text must
/// invalidate the cached binding: the warmed query re-binds against
/// the recreated relation instead of serving the destroyed one.
#[test]
fn plan_cache_survives_destroy_and_recreate() {
    let engine = seeded_engine();
    let mut a = engine.session();
    a.execute("range of q is t").unwrap();
    let hot = "retrieve (q.x) where q.id = 7";
    for _ in 0..3 {
        assert_eq!(a.execute(hot).unwrap().affected, 1);
    }
    // Another session swaps the relation out from under the cache.
    let mut b = engine.session();
    b.execute("destroy t").unwrap();
    b.execute("create temporal interval t (id = i4, x = i4)")
        .unwrap();
    b.execute("append to t (id = 7, x = 1)").unwrap();
    b.execute("append to t (id = 7, x = 2)").unwrap();
    // Session A's range table still maps q -> t; the same text must
    // now see the new relation's two versions.
    let out = a.execute(hot).unwrap();
    assert_eq!(
        out.affected, 2,
        "cached plan served stale data after destroy/recreate"
    );
    // And a destroy without recreate is a clean error, not a stale hit.
    b.execute("destroy t").unwrap();
    assert!(a.execute(hot).is_err());
}

/// The issue's acceptance bound: on the paper workload, `explain`'s
/// estimated input pages stay within 2× of the measured I/O for the
/// single-variable benchmark queries, before and after update rounds.
#[test]
fn explain_estimates_within_2x_on_paper_workload() {
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let mut db = build_database(&cfg);
    let single_var = [
        "Q01", "Q02", "Q03", "Q04", "Q05", "Q06", "Q07", "Q08", "Q12",
    ];
    for round in 0..=2 {
        if round > 0 {
            evolve_uniform(&mut db, &cfg);
        }
        for id in single_var {
            let q =
                tdbms_bench::query_for(id, cfg.class).expect("applicable");
            let (est_in, _) = db
                .estimate_retrieve(&q.tquel)
                .unwrap_or_else(|e| panic!("{id} estimate: {e}"));
            let out = db
                .execute(&q.tquel)
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            let meas = out.stats.input_pages.max(1);
            let est = est_in.max(1);
            assert!(
                est <= 2 * meas && meas <= 2 * est,
                "{id} at uc {round}: estimated {est} vs measured \
                 {meas} input pages is outside 2x"
            );
        }
    }
    // The explain statement itself reports both numbers.
    let q01 = tdbms_bench::query_for("Q01", cfg.class).unwrap();
    let out = db.execute(&format!("explain {}", q01.tquel)).unwrap();
    let text: Vec<String> = out
        .rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("explain row is not text: {other:?}"),
        })
        .collect();
    assert!(
        text.iter().any(|l| l.starts_with("estimated:")),
        "explain output: {text:?}"
    );
    assert!(
        text.iter().any(|l| l.starts_with("actual:")),
        "explain output: {text:?}"
    );
}
