//! Crash recovery under fault injection.
//!
//! The oracle for every test: kill the process (via [`FaultPlan`]) at an
//! arbitrary mutating-op boundary during statement `k`, reopen, and the
//! recovered database must observe exactly the state after statement
//! `k-1` or after statement `k` — nothing in between, nothing lost,
//! nothing uncommitted. Recovery must also be idempotent: reopening a
//! recovered database changes nothing.
//!
//! Two harnesses share the oracle:
//!
//! * a property test over random statement schedules, random crash
//!   points, and random torn-write lengths, on shared in-memory storage
//!   (the next "process" reopens the raw survivors);
//! * a deterministic crash matrix over a scripted workload for each
//!   access method (heap, hash, ISAM) on real files, driven by
//!   `scripts/ci.sh`.

use tdbms::wal::{FaultLog, FileLog, LogStore, SharedMemLog};
use tdbms::{Database, TimeVal};
use tdbms_kernel::{RowCodec, TemporalAttr};
use tdbms_prop::{check, Gen};
use tdbms_storage::{
    DiskManager, FaultDisk, FaultPlan, FileDisk, SharedMemDisk,
};

/// The observable state of the test relation `r`: the sorted `(id, seq)`
/// pairs of its *current* versions, or `None` when `r` does not exist.
/// Snapshots read raw pages through `internals()` — no statements, no
/// clock ticks — so taking one never perturbs the schedule under test.
type State = Option<Vec<(i32, i32)>>;

fn snapshot(db: &mut Database) -> State {
    if !db.relation_names().iter().any(|n| n == "r") {
        return None;
    }
    let schema = db.schema_of("r").unwrap();
    let codec = RowCodec::new(&schema);
    let implicit: Vec<TemporalAttr> = schema.implicit_attrs().to_vec();
    let (pager, catalog, _) = db.internals();
    let id = catalog.require("r").unwrap();
    let file = catalog.get(id).file.clone();
    let mut rows = Vec::new();
    let mut cur = file.scan();
    while let Some((_, row)) = cur.next(pager, &file).unwrap() {
        let current = implicit.iter().enumerate().all(|(k, t)| {
            !matches!(
                t,
                TemporalAttr::ValidTo | TemporalAttr::TransactionStop
            ) || codec.get_time(&row, 2 + k) == TimeVal::FOREVER
        });
        if current {
            rows.push((codec.get_i4(&row, 0), codec.get_i4(&row, 1)));
        }
    }
    rows.sort_unstable();
    Some(rows)
}

const CREATE: &str = "create temporal interval r (id = i4, seq = i4)";
const RANGE: &str = "range of z is r";

/// A random schedule of mutating statements over `r`. `destroy` is
/// always followed by a re-create so later statements stay well-formed
/// (each remains its own transaction — a crash between them is still a
/// reachable state).
fn gen_schedule(g: &mut Gen, ops: usize) -> Vec<String> {
    let mut stmts = vec![CREATE.to_string(), RANGE.to_string()];
    for _ in 0..ops {
        match g.range(0..10u32) {
            0..=4 => stmts.push(format!(
                "append to r (id = {}, seq = 0)",
                g.range(1..20i64)
            )),
            5 => stmts.push(format!(
                "delete z where z.id = {}",
                g.range(1..20i64)
            )),
            6 => stmts.push(format!(
                "replace z (seq = z.seq + 1) where z.id = {}",
                g.range(1..20i64)
            )),
            7 => stmts.push(format!(
                "modify r to hash on id where fillfactor = {}",
                *g.pick(&[50u32, 100])
            )),
            8 => stmts.push(format!(
                "modify r to isam on id where fillfactor = {}",
                *g.pick(&[50u32, 100])
            )),
            _ => {
                stmts.push("destroy r".to_string());
                stmts.push(CREATE.to_string());
                stmts.push(RANGE.to_string());
            }
        }
    }
    stmts
}

/// Run `stmts` on a fresh durable database over the given survivors,
/// fault-wrapped under `plan`. Returns per-statement `(ops, state)`
/// boundaries from a dry run (`plan` budget `None`), or executes until
/// the injected crash otherwise.
fn run_mem(
    disk: &SharedMemDisk,
    log: &SharedMemLog,
    plan: &FaultPlan,
    torn_disk: Option<usize>,
    torn_log: Option<usize>,
    flip_log: Option<u64>,
    stmts: &[String],
) -> Option<(Vec<u64>, Vec<State>)> {
    let fdisk: Box<dyn DiskManager> = match torn_disk {
        Some(k) => Box::new(FaultDisk::with_torn_writes(
            Box::new(disk.clone()),
            plan.clone(),
            k,
        )),
        None => {
            Box::new(FaultDisk::new(Box::new(disk.clone()), plan.clone()))
        }
    };
    let flog: Box<dyn LogStore> = match (torn_log, flip_log) {
        (Some(k), _) => Box::new(FaultLog::with_torn_appends(
            Box::new(log.clone()),
            plan.clone(),
            k,
        )),
        (None, Some(bit)) => Box::new(FaultLog::with_bit_flips(
            Box::new(log.clone()),
            plan.clone(),
            bit,
        )),
        (None, None) => {
            Box::new(FaultLog::new(Box::new(log.clone()), plan.clone()))
        }
    };
    let Ok(mut db) = Database::open_durable_on(fdisk, flog, None) else {
        return None;
    };
    let mut boundaries = vec![plan.ops_charged()];
    let mut states = vec![snapshot(&mut db)];
    for s in stmts {
        if db.execute(s).is_err() {
            return None;
        }
        boundaries.push(plan.ops_charged());
        states.push(snapshot(&mut db));
    }
    Some((boundaries, states))
}

fn reopen_mem(disk: &SharedMemDisk, log: &SharedMemLog) -> Database {
    Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(log.clone()),
        None,
    )
    .expect("recovery must succeed on raw survivors")
}

#[test]
fn recovery_is_atomic_at_every_random_crash_point() {
    check("wal_recovery_atomicity", 24, |g| {
        let ops = g.range(3..9usize);
        let stmts = gen_schedule(g, ops);

        // Dry run: per-statement op boundaries and observable states.
        let (boundaries, states) = run_mem(
            &SharedMemDisk::new(),
            &SharedMemLog::new(),
            &FaultPlan::new(None),
            None,
            None,
            None,
            &stmts,
        )
        .expect("dry run never crashes");
        let (first, last) = (boundaries[0], *boundaries.last().unwrap());
        assert!(last > first, "a schedule always commits something");

        // Crash run: kill at a random mutating op after open, with
        // random torn-write behaviour on both channels.
        let crash_at = g.range(first + 1..=last);
        let torn_disk = g.bool().then(|| g.range(0..1024usize));
        let torn_log = g.bool().then(|| g.range(0..48usize));
        let disk = SharedMemDisk::new();
        let log = SharedMemLog::new();
        let plan = FaultPlan::new(Some(crash_at));
        let finished =
            run_mem(&disk, &log, &plan, torn_disk, torn_log, None, &stmts);
        assert!(finished.is_none(), "the crash run must not finish");
        assert!(plan.crashed());

        // The crash interrupted statement k: recovery must land on the
        // state just before or just after it.
        let k = boundaries.iter().position(|&b| b >= crash_at).unwrap();
        let mut rdb = reopen_mem(&disk, &log);
        let got = snapshot(&mut rdb);
        assert!(
            got == states[k - 1] || got == states[k],
            "crash at op {crash_at} (statement {k}: {:?}): recovered \
             {got:?}, expected {:?} or {:?}",
            stmts.get(k - 1),
            states[k - 1],
            states[k],
        );
        drop(rdb);

        // Recovering twice equals recovering once.
        let mut rdb2 = reopen_mem(&disk, &log);
        assert_eq!(snapshot(&mut rdb2), got, "recovery must be idempotent");
    });
}

/// Bit rot on the log tail: the append at the crash point lands on disk
/// in full but with one bit flipped. The record checksum must catch it,
/// recovery must truncate at the last *valid* record, and the recovered
/// state must still be a statement boundary — a flipped tail is just
/// another shape of "statement k never committed". Recovery must never
/// replay a corrupted record or fail outright.
#[test]
fn recovery_truncates_a_bit_flipped_log_tail() {
    check("wal_recovery_bit_flip", 24, |g| {
        let ops = g.range(3..9usize);
        let stmts = gen_schedule(g, ops);
        let (boundaries, states) = run_mem(
            &SharedMemDisk::new(),
            &SharedMemLog::new(),
            &FaultPlan::new(None),
            None,
            None,
            None,
            &stmts,
        )
        .expect("dry run never crashes");
        let (first, last) = (boundaries[0], *boundaries.last().unwrap());

        let crash_at = g.range(first + 1..=last);
        let flip_bit = g.range(0..4096u64);
        let disk = SharedMemDisk::new();
        let log = SharedMemLog::new();
        let plan = FaultPlan::new(Some(crash_at));
        let finished =
            run_mem(&disk, &log, &plan, None, None, Some(flip_bit), &stmts);
        assert!(finished.is_none(), "the crash run must not finish");
        assert!(plan.crashed());

        let k = boundaries.iter().position(|&b| b >= crash_at).unwrap();
        let mut rdb = reopen_mem(&disk, &log);
        let got = snapshot(&mut rdb);
        assert!(
            got == states[k - 1] || got == states[k],
            "flip of bit {flip_bit} at op {crash_at} (statement {k}: \
             {:?}): recovered {got:?}, expected {:?} or {:?}",
            stmts.get(k - 1),
            states[k - 1],
            states[k],
        );
        drop(rdb);
        let mut rdb2 = reopen_mem(&disk, &log);
        assert_eq!(snapshot(&mut rdb2), got, "recovery must be idempotent");
    });
}

/// The scripted workload of the deterministic crash matrix: build,
/// reorganize to `method`, then update / delete / grow.
fn script_for(method: &str) -> Vec<String> {
    let mut v = vec![CREATE.to_string(), RANGE.to_string()];
    for id in 1..=6 {
        v.push(format!("append to r (id = {id}, seq = 0)"));
    }
    v.push(match method {
        "heap" => "modify r to heap".to_string(),
        m => format!("modify r to {m} on id where fillfactor = 100"),
    });
    v.push("replace z (seq = z.seq + 1) where z.id = 3".to_string());
    v.push("delete z where z.id = 5".to_string());
    v.push("append to r (id = 9, seq = 9)".to_string());
    v
}

fn run_file(
    dir: &std::path::Path,
    plan: &FaultPlan,
    stmts: &[String],
) -> Option<(Vec<u64>, Vec<State>)> {
    let fdisk = FaultDisk::with_torn_writes(
        Box::new(FileDisk::open(dir).unwrap()),
        plan.clone(),
        512,
    );
    let flog = FaultLog::with_torn_appends(
        Box::new(FileLog::open(dir.join("wal.tdbms")).unwrap()),
        plan.clone(),
        16,
    );
    let Ok(mut db) = Database::open_durable_on(
        Box::new(fdisk),
        Box::new(flog),
        Some(dir.to_path_buf()),
    ) else {
        return None;
    };
    let mut boundaries = vec![plan.ops_charged()];
    let mut states = vec![snapshot(&mut db)];
    for s in stmts {
        if db.execute(s).is_err() {
            return None;
        }
        boundaries.push(plan.ops_charged());
        states.push(snapshot(&mut db));
    }
    Some((boundaries, states))
}

/// File-backed crash matrix: for each access method, kill the process at
/// a spread of mutating-op crash points over real page files and a real
/// log file, and verify zero committed-tuple loss on reopen.
#[test]
fn crash_matrix_over_real_files() {
    let root = tdbms_kernel::tmpdir::fresh_dir("crash-matrix");
    for method in ["heap", "hash", "isam"] {
        let stmts = script_for(method);
        let dry = root.join(format!("{method}-dry"));
        std::fs::create_dir_all(&dry).unwrap();
        let (boundaries, states) =
            run_file(&dry, &FaultPlan::new(None), &stmts)
                .expect("dry run never crashes");
        let (first, last) = (boundaries[0], *boundaries.last().unwrap());

        // Every op boundary would be O(hundreds) of file-backed runs;
        // a stride of 7 still lands inside every statement's commit
        // window while keeping the matrix fast.
        let mut points: Vec<u64> = (first + 1..=last).step_by(7).collect();
        points.push(last);
        for crash_at in points {
            let dir = root.join(format!("{method}-{crash_at}"));
            std::fs::create_dir_all(&dir).unwrap();
            let plan = FaultPlan::new(Some(crash_at));
            let finished = run_file(&dir, &plan, &stmts);
            assert!(finished.is_none() && plan.crashed());

            let k = boundaries.iter().position(|&b| b >= crash_at).unwrap();
            let mut rdb = Database::open_durable(&dir).unwrap();
            let got = snapshot(&mut rdb);
            assert!(
                got == states[k - 1] || got == states[k],
                "{method}: crash at op {crash_at} (statement {k}): \
                 recovered {got:?}, expected {:?} or {:?}",
                states[k - 1],
                states[k],
            );
            drop(rdb);
            let mut rdb2 = Database::open_durable(&dir).unwrap();
            assert_eq!(snapshot(&mut rdb2), got);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Disk-full matrix: instead of killing the process, open a seeded
/// ENOSPC window at a spread of op ordinals and keep the process
/// alive. The engine must degrade (typed [`tdbms::Error::Degraded`]
/// on the failing statement, reads still serving), re-arm itself once
/// the window passes, and accept writes again. A clean reopen of the
/// raw survivors must then show exactly the acknowledged statements'
/// effects — zero acked-tuple loss, nothing of the rolled-back ones —
/// and recovering twice must equal recovering once.
#[test]
fn disk_full_matrix_preserves_every_acked_statement() {
    use tdbms_kernel::Error;

    let stmts = script_for("hash");
    let (boundaries, _) = run_mem(
        &SharedMemDisk::new(),
        &SharedMemLog::new(),
        &FaultPlan::new(None),
        None,
        None,
        None,
        &stmts,
    )
    .expect("dry run never crashes");
    let (first, last) = (boundaries[0], *boundaries.last().unwrap());

    // Windows lie fully inside the schedule's op range: a window
    // hanging off the end could cover only fsyncs (not space ops) and
    // interrupt nothing. Width 12 always spans page or log writes.
    let points: Vec<u64> =
        (first + 1..=last.saturating_sub(12)).step_by(5).collect();
    assert!(points.len() >= 10, "matrix must cover the schedule");
    for at in points {
        let disk = SharedMemDisk::new();
        let log = SharedMemLog::new();
        let plan = FaultPlan::new(None);
        plan.set_enospc_windows([(at, at + 12)]);
        let mut db = Database::open_durable_on(
            Box::new(FaultDisk::new(Box::new(disk.clone()), plan.clone())),
            Box::new(FaultLog::new(Box::new(log.clone()), plan.clone())),
            None,
        )
        .expect("the window opens after recovery finished");

        let mut acked = snapshot(&mut db);
        let mut failures = 0;
        for s in &stmts {
            match db.execute(s) {
                Ok(_) => acked = snapshot(&mut db),
                Err(Error::Degraded { .. }) => {
                    failures += 1;
                    // Degraded is read-only, not dead: raw reads (and
                    // retrieves) keep serving the last committed state.
                    assert_eq!(snapshot(&mut db), acked);
                }
                Err(Error::Semantic(_) | Error::NoSuchRelation(_)) => {
                    // A rolled-back `create`/`range` leaves later
                    // statements unbound — still a typed, non-fatal
                    // error.
                    failures += 1;
                }
                Err(e) => {
                    panic!("window at op {at}: untyped failure leaked: {e}")
                }
            }
        }
        assert!(
            failures > 0,
            "window at op {at} must interrupt at least one statement"
        );

        // The window is finite: re-arm attempts charge ops too, so a
        // few retries always walk the counter past the window and the
        // engine accepts writes again.
        let mut resumed = false;
        for _ in 0..30 {
            if !db.relation_names().iter().any(|n| n == "r") {
                let _ = db.execute(CREATE);
                continue;
            }
            if db.execute("append to r (id = 77, seq = 7)").is_ok() {
                resumed = true;
                break;
            }
        }
        assert!(resumed, "window at op {at}: writes never resumed");
        assert!(!db.is_degraded(), "re-armed engine reports healthy");
        acked = snapshot(&mut db);
        drop(db);

        let mut rdb = reopen_mem(&disk, &log);
        assert_eq!(
            snapshot(&mut rdb),
            acked,
            "window at op {at}: recovered state differs from acked"
        );
        drop(rdb);
        let mut rdb2 = reopen_mem(&disk, &log);
        assert_eq!(
            snapshot(&mut rdb2),
            acked,
            "recovery must be idempotent"
        );
    }
}

/// A clean close and reopen (no crash) must round-trip the whole
/// database — catalog, clock position, and every organization.
#[test]
fn clean_reopen_round_trips_catalog_and_data() {
    let dir = tdbms_kernel::tmpdir::fresh_dir("wal-clean-reopen");
    let expected = {
        let mut db = Database::open_durable(&dir).unwrap();
        for s in script_for("isam") {
            db.execute(&s).unwrap();
        }
        snapshot(&mut db)
    };
    let mut db = Database::open_durable(&dir).unwrap();
    assert_eq!(snapshot(&mut db), expected);
    let meta = db.relation_meta("r").unwrap();
    assert_eq!(meta.method, tdbms::AccessMethod::Isam);
    // 6 appends + replace (2 new versions) + delete (1 correction
    // version) + 1 append = 10 stored versions.
    assert_eq!(meta.tuple_count, 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A directory from before every file-backed database was durable holds
/// page files, `catalog.tdbms` and `clock.tdbms`, but no `wal.tdbms`.
/// It must still open: every relation, row and index comes back from
/// the catalog files, and the transaction clock does not go backwards.
#[test]
fn a_directory_without_a_log_opens_from_its_catalog_files() {
    let dir = tdbms_kernel::tmpdir::fresh_dir("wal-logless-dir");
    let (expected, clock) = {
        let mut db = Database::open_durable(&dir).unwrap();
        for s in script_for("hash") {
            db.execute(&s).unwrap();
        }
        db.execute("index on r is r_seq (seq)").unwrap();
        db.execute("create static s (k = i4)").unwrap();
        db.execute("append to s (k = 7)").unwrap();
        db.checkpoint().unwrap();
        (snapshot(&mut db), db.clock().now())
    };
    std::fs::remove_file(dir.join("wal.tdbms")).unwrap();
    for kept in ["catalog.tdbms", "clock.tdbms"] {
        assert!(dir.join(kept).exists(), "{kept} is what remains");
    }

    let mut db = Database::open_durable(&dir).unwrap();
    let mut names = db.relation_names();
    names.sort();
    assert_eq!(names, ["r", "s"]);
    assert_eq!(snapshot(&mut db), expected);
    let meta = db.relation_meta("r").unwrap();
    assert_eq!(meta.method, tdbms::AccessMethod::Hash);
    assert_eq!(meta.index_names, ["r_seq"]);
    // 6 appends + replace (2 new versions) + delete (1 correction
    // version) + 1 append = 10 stored versions.
    assert_eq!(meta.tuple_count, 10);
    assert!(db.clock().now() >= clock, "the clock went backwards");

    db.execute(RANGE).unwrap();
    let out = db
        .execute(r#"retrieve (z.id) where z.seq = 9 when z overlap "now""#)
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0][0], tdbms::Value::Int(9));
    db.execute("range of t is s").unwrap();
    let out = db.execute("retrieve (t.k)").unwrap();
    assert_eq!(out.rows(), [vec![tdbms::Value::Int(7)]]);
    std::fs::remove_dir_all(&dir).unwrap();
}
