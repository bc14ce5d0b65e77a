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
//!
//! Every recovered state of the random crash points, the crash matrix
//! and the disk-full matrix must also audit clean under `tdbms-check`.

use std::collections::BTreeSet;
use tdbms::wal::{FaultLog, FileLog, LogStore, MemLog, Record};
use tdbms::{CheckpointPolicy, Database, Engine, TimeVal};
use tdbms_check::check_database;
use tdbms_kernel::{RowCodec, TemporalAttr};
use tdbms_prop::{check, Gen};
use tdbms_storage::{
    DiskManager, FaultDisk, FaultPlan, FileDisk, FileId, HeapFile, MemDisk,
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
            ) || codec.get_time(row, 2 + k) == TimeVal::FOREVER
        });
        if current {
            rows.push((codec.get_i4(row, 0), codec.get_i4(row, 1)));
        }
    }
    rows.sort_unstable();
    Some(rows)
}

/// The state of a recovered database, once `tdbms-check` has found its
/// structure clean: every page of every file has the shape its
/// organization writes, and the row-count ledgers match.
fn audited(db: &mut Database) -> State {
    let (pager, catalog, _) = db.internals();
    let report = check_database(pager, catalog).expect("audit runs");
    assert!(report.is_clean(), "recovered state:\n{}", report.render());
    snapshot(db)
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
    disk: &MemDisk,
    log: &MemLog,
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
        let result = db.execute(s);
        if plan.crashed() {
            // A statement can be durable in the log while its due
            // checkpoint hits the crash: it returns Ok and degrades.
            assert!(result.is_err() || db.is_degraded(), "{s}");
            return None;
        }
        if result.is_err() {
            return None;
        }
        boundaries.push(plan.ops_charged());
        states.push(snapshot(&mut db));
    }
    Some((boundaries, states))
}

fn reopen_mem(disk: &MemDisk, log: &MemLog) -> Database {
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
            &MemDisk::new(),
            &MemLog::new(),
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
        let disk = MemDisk::new();
        let log = MemLog::new();
        let plan = FaultPlan::new(Some(crash_at));
        let finished =
            run_mem(&disk, &log, &plan, torn_disk, torn_log, None, &stmts);
        assert!(finished.is_none(), "the crash run must not finish");
        assert!(plan.crashed());

        // The crash interrupted statement k: recovery must land on the
        // state just before or just after it.
        let k = boundaries.iter().position(|&b| b >= crash_at).unwrap();
        let mut rdb = reopen_mem(&disk, &log);
        let got = audited(&mut rdb);
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
        assert_eq!(audited(&mut rdb2), got, "recovery must be idempotent");
    });
}

/// A crash that tears a page write of a checkpoint leaves the page's
/// new header, its LSN included, over its old body, while the log still
/// holds every commit since the last checkpoint. Recovery must replay
/// them: no acknowledged append is lost, whichever checkpoint write the
/// crash tears and however many of its bytes reach the disk.
#[test]
fn a_torn_checkpoint_write_loses_no_acknowledged_commit() {
    for torn in [12usize, 248] {
        for budget in 1..=24u64 {
            let (disk, log) = (MemDisk::new(), MemLog::new());
            let mut acked: BTreeSet<i32> = (1..=16).collect();
            {
                let mut db = reopen_mem(&disk, &log);
                db.execute(CREATE).unwrap();
                for id in &acked {
                    db.execute(&format!(
                        "append to r (id = {id}, seq = 0)"
                    ))
                    .unwrap();
                }
                db.checkpoint().unwrap();
            }
            // Only the disk is charged, so the crash lands on a page
            // write, and every page write is a checkpoint's.
            let plan = FaultPlan::new(Some(budget));
            let fdisk = FaultDisk::with_torn_writes(
                Box::new(disk.clone()),
                plan.clone(),
                torn,
            );
            if let Ok(mut db) = Database::open_durable_on(
                Box::new(fdisk),
                Box::new(log.clone()),
                None,
            ) {
                db.set_checkpoint_policy(CheckpointPolicy::EveryN(3));
                for id in 1000..1040 {
                    let append =
                        format!("append to r (id = {id}, seq = 0)");
                    if db.execute(&append).is_err() {
                        break;
                    }
                    acked.insert(id);
                }
            }
            assert!(plan.crashed(), "budget {budget} never tripped");
            let got =
                audited(&mut reopen_mem(&disk, &log)).expect("r survives");
            let ids: BTreeSet<i32> =
                got.iter().map(|&(id, _)| id).collect();
            let lost: Vec<&i32> = acked.difference(&ids).collect();
            assert!(
                lost.is_empty(),
                "torn {torn} bytes at disk op {budget}: acknowledged \
                 appends {lost:?} lost in recovery"
            );
        }
    }
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
            &MemDisk::new(),
            &MemLog::new(),
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
        let disk = MemDisk::new();
        let log = MemLog::new();
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
/// reorganize to `method`, then update / delete / grow; then an
/// indexed static relation beside `r`, whose `modify` and `delete` each
/// rebuild its index (the recovered state's audit compares the index
/// with its relation).
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
    v.extend(INDEXED[..2].iter().map(|s| s.to_string()));
    for id in 1..=4 {
        v.push(format!("append to t (id = {id}, amount = {})", id % 2));
    }
    v.push(INDEXED[3].to_string());
    v.push(INDEXED[2].to_string());
    v.push("delete v where v.id = 2".to_string());
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
        let result = db.execute(s);
        if plan.crashed() {
            // A statement can be durable in the log while its due
            // checkpoint hits the crash: it returns Ok and degrades.
            assert!(result.is_err() || db.is_degraded(), "{s}");
            return None;
        }
        if result.is_err() {
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
            let got = audited(&mut rdb);
            assert!(
                got == states[k - 1] || got == states[k],
                "{method}: crash at op {crash_at} (statement {k}): \
                 recovered {got:?}, expected {:?} or {:?}",
                states[k - 1],
                states[k],
            );
            drop(rdb);
            let mut rdb2 = Database::open_durable(&dir).unwrap();
            assert_eq!(audited(&mut rdb2), got);
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
        &MemDisk::new(),
        &MemLog::new(),
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
        let disk = MemDisk::new();
        let log = MemLog::new();
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
            audited(&mut rdb),
            acked,
            "window at op {at}: recovered state differs from acked"
        );
        drop(rdb);
        let mut rdb2 = reopen_mem(&disk, &log);
        assert_eq!(
            audited(&mut rdb2),
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
    let (expected, clock) = {
        let mut db = Database::open_durable(&dir).unwrap();
        for s in script_for("isam") {
            db.execute(&s).unwrap();
        }
        (snapshot(&mut db), db.clock().now())
    };
    let mut db = Database::open_durable(&dir).unwrap();
    assert_eq!(snapshot(&mut db), expected);
    assert_eq!(db.clock().now(), clock, "the log carries the clock");
    let meta = db.relation_meta("r").unwrap();
    assert_eq!(meta.method, tdbms::AccessMethod::Isam);
    // 6 appends + replace (2 new versions) + delete (1 correction
    // version) + 1 append = 10 stored versions.
    assert_eq!(meta.tuple_count, 10);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file in `dir`, by name, with its bytes.
fn dir_contents(
    dir: &std::path::Path,
) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// A directory from before the log carried the only catalog holds page
/// files, `catalog.tdbms` and `clock.tdbms`, and a log without a
/// catalog, or none at all. Both the database and the checker must
/// refuse it with a typed error, never open it as an empty catalog over
/// orphaned page files, and leave every file it had untouched.
#[test]
fn a_directory_without_a_catalog_in_its_log_is_refused() {
    let dir = tdbms_kernel::tmpdir::fresh_dir("wal-logless-dir");
    {
        let mut db = Database::open_durable(&dir).unwrap();
        for s in script_for("hash") {
            db.execute(&s).unwrap();
        }
        db.checkpoint().unwrap();
    }
    for file in ["catalog.tdbms", "clock.tdbms"] {
        assert!(!dir.join(file).exists(), "a checkpoint wrote {file}");
    }
    // Such a directory's last checkpoint wrote the catalog and the clock
    // that the log now carries into these two files.
    let log = std::fs::read(dir.join("wal.tdbms")).unwrap();
    let (clock_text, catalog) = tdbms::wal::RecoveryPlan::parse(&log)
        .catalog
        .expect("a checkpoint logs the catalog");
    std::fs::write(dir.join("catalog.tdbms"), catalog).unwrap();
    std::fs::write(dir.join("clock.tdbms"), clock_text).unwrap();
    std::fs::remove_file(dir.join("wal.tdbms")).unwrap();
    let before = dir_contents(&dir);
    assert!(before.keys().any(|n| n.ends_with(".pages")));

    // The second pass meets the header-only log the first one left.
    for _ in 0..2 {
        match Database::open_durable(&dir) {
            Err(tdbms::Error::Corruption { detail, .. }) => {
                assert!(detail.contains("no catalog"), "{detail}");
            }
            Err(e) => panic!("refused with an untyped error: {e}"),
            Ok(db) => panic!(
                "opened with relations {:?} over orphaned page files",
                db.relation_names()
            ),
        }
        assert!(matches!(
            tdbms_check::CheckedDb::open(&dir),
            Err(tdbms::Error::Corruption { .. })
        ));
    }
    let after = dir_contents(&dir);
    for (name, bytes) in &before {
        assert_eq!(after.get(name), Some(bytes), "{name} was touched");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file the catalog of `db` owns: base files, secondary indexes
/// and history sidecars.
fn catalog_files(db: &mut Database) -> BTreeSet<FileId> {
    db.internals().1.owned_files()
}

/// A process that dies while a join's temporary is on disk leaves
/// nothing behind: a scratch file has no path, so the reopened
/// directory holds the catalog's files only, and it audits clean
/// without an unreferenced-file warning.
#[test]
fn a_crash_mid_join_leaves_no_temporary_file() {
    let dir = tdbms_kernel::tmpdir::fresh_dir("wal-scratch-crash");
    let mut db = Database::open_durable(&dir).unwrap();
    for s in script_for("hash") {
        db.execute(&s).unwrap();
    }
    let want = catalog_files(&mut db);
    {
        // What decomposition does: a heap on a scratch file, filled,
        // then flushed to the device as the join phase starts.
        let (pager, _, _) = db.internals();
        let file = pager.create_scratch_file().unwrap();
        let temp = HeapFile::attach(file, 8);
        for i in 0..400u32 {
            let mut row = [0u8; 8];
            row[..4].copy_from_slice(&i.to_le_bytes());
            temp.insert(pager, &row).unwrap();
        }
        pager.invalidate_buffers().unwrap();
        assert!(pager.page_count(file).unwrap() > 1);
    }
    // Die without dropping the temporary or closing anything.
    std::mem::forget(db);
    let mut db = Database::open_durable(&dir).unwrap();
    assert_eq!(catalog_files(&mut db), want);
    let (pager, catalog, _) = db.internals();
    let report = check_database(pager, catalog).unwrap();
    assert!(report.findings.is_empty(), "{}", report.render());
    drop(db);
    let files: BTreeSet<FileId> =
        FileDisk::open(&dir).unwrap().files().into_iter().collect();
    assert_eq!(files, want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Joins running beside appends on one durable engine never reach the
/// log: every page image, file length and file drop it holds names a
/// file of the catalog.
#[test]
fn joins_beside_appends_log_only_catalog_files() {
    let (disk, log) = (MemDisk::new(), MemLog::new());
    let mut db = reopen_mem(&disk, &log);
    db.set_checkpoint_policy(CheckpointPolicy::Manual);
    db.execute_all(
        "create temporal interval a (id = i4, v = i4)
         create temporal interval b (id = i4, v = i4)
         modify b to hash on id",
    )
    .unwrap();
    // Logged from here on: appends, and joins beside them.
    db.checkpoint().unwrap();
    for i in 0..24 {
        db.execute_all(&format!(
            "append to a (id = {i}, v = {i}) append to b (id = {i}, v = {i})"
        ))
        .unwrap();
        if i % 6 == 5 {
            // The serial caller's join, between two commits.
            db.execute_all(
                "range of p is a range of q is b
                 retrieve (p.v) where p.id = q.id and q.v > 2",
            )
            .unwrap();
        }
    }
    let engine = Engine::new(db);
    std::thread::scope(|s| {
        let mut joiner = engine.session();
        s.spawn(move || {
            joiner.execute("range of x is a range of y is b").unwrap();
            for i in 0..48 {
                let out = joiner
                    .execute(&format!(
                        "retrieve (x.v, y.v) where x.id = y.id and x.v > {}",
                        i % 8
                    ))
                    .unwrap();
                assert!(out.affected > 0);
            }
        });
        let mut writer = engine.session();
        for i in 0..48 {
            writer
                .execute(&format!("append to a (id = {}, v = 1)", 100 + i))
                .unwrap();
        }
    });
    let mut db = engine.try_into_database().ok().unwrap();
    let referenced = catalog_files(&mut db);
    let bytes = log.clone().read_all().unwrap();
    let plan = tdbms::wal::RecoveryPlan::parse(&bytes);
    assert!(plan.txns.len() >= 96, "{} commits logged", plan.txns.len());
    for (file, _) in &plan.snapshot {
        assert!(referenced.contains(file), "snapshot names {file:?}");
    }
    for (lsn, rec) in plan.txns.iter().flatten() {
        let file = match rec {
            Record::PageImage { file, .. }
            | Record::FileLen { file, .. }
            | Record::DropFile { file } => file,
            _ => continue,
        };
        assert!(
            referenced.contains(file),
            "record {lsn} names {file:?}, not a catalog file {referenced:?}"
        );
    }
}

/// A static relation hashed on `id` with a secondary index on `amount`:
/// create and range, then (after the rows are appended) the
/// reorganization and the index.
const INDEXED: &[&str] = &[
    "create static t (id = i4, amount = i4)",
    "range of v is t",
    "modify t to hash on id",
    "index on t is t_amount (amount)",
];

/// Build [`INDEXED`] on `disk`/`log` under `plan`, with 60 rows, six
/// of them with amount 7.
fn build_indexed(
    disk: &MemDisk,
    log: &MemLog,
    plan: &FaultPlan,
) -> Database {
    let mut db = Database::open_durable_on(
        Box::new(FaultDisk::new(Box::new(disk.clone()), plan.clone())),
        Box::new(FaultLog::new(Box::new(log.clone()), plan.clone())),
        None,
    )
    .expect("open before the crash point");
    db.execute_all(&INDEXED[..2].join("\n")).unwrap();
    for id in 1..=60 {
        db.execute(&format!(
            "append to t (id = {id}, amount = {})",
            id % 10
        ))
        .unwrap();
    }
    db.execute_all(&INDEXED[2..].join("\n")).unwrap();
    db
}

/// The ids with amount 7, read through the index probe and through a
/// scan of every row.
fn probe_and_scan(db: &mut Database) -> (Vec<i64>, Vec<i64>) {
    let ids = |out: tdbms::ExecOutput, want: Option<i64>| {
        let mut ids: Vec<i64> = out
            .rows()
            .iter()
            .filter(|r| want.is_none_or(|w| r[1] == tdbms::Value::Int(w)))
            .map(|r| match r[0] {
                tdbms::Value::Int(id) => id,
                ref other => panic!("id {other:?}"),
            })
            .collect();
        ids.sort_unstable();
        ids
    };
    db.execute("range of v is t").unwrap();
    let probe = db
        .execute("retrieve (v.id, v.amount) where v.amount = 7")
        .unwrap();
    let scan = db.execute("retrieve (v.id, v.amount)").unwrap();
    (ids(probe, None), ids(scan, Some(7)))
}

/// Crash `stmt` over [`INDEXED`] at every op it charges (counted by a
/// dry run); `check` sees each crash point's reopened database and its
/// device.
fn crash_at_every_op(
    stmt: &str,
    mut check: impl FnMut(u64, &MemDisk, &mut Database),
) {
    let (disk, log, plan) =
        (MemDisk::new(), MemLog::new(), FaultPlan::new(None));
    let mut db = build_indexed(&disk, &log, &plan);
    let first = plan.ops_charged();
    db.execute(stmt).unwrap();
    let last = plan.ops_charged();
    assert!(last - first > 5, "{stmt} charges {} ops", last - first);
    for crash_at in first + 1..=last {
        let (disk, log) = (MemDisk::new(), MemLog::new());
        let plan = FaultPlan::new(Some(crash_at));
        let mut db = build_indexed(&disk, &log, &plan);
        assert!(db.execute(stmt).is_err() || db.is_degraded());
        assert!(plan.crashed(), "op {crash_at}");
        drop(db);
        let mut db = reopen_mem(&disk, &log);
        check(crash_at, &disk, &mut db);
    }
}

/// A crash anywhere in a durable `delete` that rebuilds a secondary
/// index reopens with an index that agrees with its relation: the probe
/// returns what a scan does, and that is the state before or after the
/// statement.
#[test]
fn a_crash_in_an_index_rebuild_reopens_with_a_whole_index() {
    let stmt = "delete v where v.id = 7";
    let before: Vec<i64> = (0..6).map(|k| 7 + 10 * k).collect();
    let after = before[1..].to_vec();
    crash_at_every_op(stmt, |op, _, db| {
        let (probe, scan) = probe_and_scan(db);
        assert_eq!(probe, scan, "crash at op {op}: probe vs scan");
        assert!(
            scan == before || scan == after,
            "crash at op {op}: {scan:?}"
        );
        let (pager, catalog, _) = db.internals();
        let report = check_database(pager, catalog).unwrap();
        assert!(report.is_clean(), "op {op}:\n{}", report.render());
    });
}

/// A crash anywhere in a `modify` leaves the device holding exactly the
/// page files of the state before or after it: a file the cut-short
/// statement created is dropped on reopen.
#[test]
fn a_crash_in_a_modify_leaves_no_orphan_file() {
    let stmt = "modify t to isam on id";
    let files = |disk: &MemDisk| -> BTreeSet<FileId> {
        disk.files().into_iter().collect()
    };
    let (disk, log, plan) =
        (MemDisk::new(), MemLog::new(), FaultPlan::new(None));
    let mut db = build_indexed(&disk, &log, &plan);
    let before = files(&disk);
    db.execute(stmt).unwrap();
    let after = files(&disk);
    assert_ne!(before, after, "modify builds a new file");
    crash_at_every_op(stmt, |op, disk, db| {
        let got = files(disk);
        assert!(
            got == before || got == after,
            "crash at op {op}: files {got:?}, expected {before:?} or {after:?}"
        );
        assert_eq!(got, catalog_files(db), "crash at op {op}");
    });
}

/// An orphan page file the device refuses to drop does not stop the
/// database from opening: the drop strands space, never data, and
/// waits in the queue for the next checkpoint.
#[test]
fn a_refused_orphan_drop_does_not_stop_the_open() {
    let (disk, log, plan) =
        (MemDisk::new(), MemLog::new(), FaultPlan::new(None));
    let mut db = build_indexed(&disk, &log, &plan);
    let owned = catalog_files(&mut db);
    drop(db);
    let orphan = disk.clone().create_file().unwrap();
    plan.set_enospc(true);
    let mut db = Database::open_durable_on(
        Box::new(FaultDisk::new(Box::new(disk.clone()), plan.clone())),
        Box::new(log.clone()),
        None,
    )
    .expect("a refused orphan drop must not stop the open");
    assert!(disk.files().contains(&orphan), "the device refused");
    assert_eq!(catalog_files(&mut db), owned);
    plan.set_enospc(false);
    db.checkpoint().unwrap();
    let left: BTreeSet<FileId> = disk.files().into_iter().collect();
    assert_eq!(left, owned, "the queued drop ran at the checkpoint");
}

/// Every page file on the device with its bytes.
fn device(disk: &MemDisk) -> std::collections::BTreeMap<FileId, Vec<u8>> {
    let mut raw = disk.clone();
    disk.files()
        .into_iter()
        .map(|f| {
            let n = raw.page_count(f).unwrap();
            let bytes = (0..n)
                .flat_map(|p| {
                    raw.read_page(f, p).unwrap().as_bytes().to_vec()
                })
                .collect();
            (f, bytes)
        })
        .collect()
}

/// Under WAL staging a statement changes no page file on the device,
/// whether it commits or rolls back: only the checkpoint writes pages
/// and lengths. A committed statement may drop files (once its commit is
/// durable) and create them; a rolled-back one leaves the device exactly
/// as it found it.
#[test]
fn statements_change_no_page_file_until_the_checkpoint() {
    let (disk, log, plan) =
        (MemDisk::new(), MemLog::new(), FaultPlan::new(None));
    let mut db = Database::open_durable_on(
        Box::new(disk.clone()),
        Box::new(FaultLog::new(Box::new(log.clone()), plan.clone())),
        None,
    )
    .unwrap();
    db.set_checkpoint_policy(CheckpointPolicy::Manual);
    db.execute_all(&INDEXED[..3].join("\n")).unwrap();
    for id in 1..=40 {
        db.execute(&format!(
            "append to t (id = {id}, amount = {})",
            id % 10
        ))
        .unwrap();
    }
    db.checkpoint().unwrap();
    for stmt in [
        "append to t (id = 100, amount = 7)",
        "replace v (amount = v.amount + 1) where v.id = 5",
        "modify t to isam on id",
        "index on t is t_amount (amount)",
        "delete v where v.id = 3",
        "destroy t",
    ] {
        // Rolled back: the log refuses the commit.
        let before = device(&disk);
        plan.set_enospc(true);
        assert!(db.execute(stmt).is_err(), "{stmt} must fail");
        plan.set_enospc(false);
        assert!(
            device(&disk) == before,
            "rolled-back {stmt} changed the device"
        );
        db.try_rearm().unwrap();

        // Committed, then checkpointed.
        let before = device(&disk);
        db.execute(stmt).unwrap();
        let after = device(&disk);
        {
            // The live database audits clean before its checkpoint.
            let (pager, catalog, _) = db.internals();
            let report = check_database(pager, catalog).unwrap();
            assert!(report.is_clean(), "{stmt}:\n{}", report.render());
        }
        let owned = catalog_files(&mut db);
        for (file, bytes) in &before {
            match after.get(file) {
                Some(now) => {
                    assert!(now == bytes, "{stmt} changed {file:?}")
                }
                None => {
                    assert!(!owned.contains(file), "{stmt} lost {file:?}")
                }
            }
        }
        db.checkpoint().unwrap();
        if !stmt.starts_with("destroy") {
            assert!(
                device(&disk) != after,
                "{stmt}: the checkpoint wrote nothing"
            );
        }
    }
}

/// The records each commit logs, pinned: a created file's length is
/// logged by the statement that creates it (its device file holds one
/// placeholder page the length cuts away on replay), a length again
/// only when it changes, and a drop after the images.
#[test]
fn each_commit_logs_the_lengths_images_and_drops_it_changed() {
    let (disk, log) = (MemDisk::new(), MemLog::new());
    let mut db = reopen_mem(&disk, &log);
    db.set_checkpoint_policy(CheckpointPolicy::Manual);
    let last_commit = |db: &mut Database, stmt: &str| -> Vec<String> {
        db.execute(stmt).unwrap();
        let bytes = log.clone().read_all().unwrap();
        let plan = tdbms::wal::RecoveryPlan::parse(&bytes);
        let txn = plan.txns.last().unwrap();
        txn.iter()
            .map(|(_, rec)| match rec {
                Record::Begin => "Begin".into(),
                Record::FileLen { file, len } => {
                    format!("FileLen({}, {len})", file.0)
                }
                Record::PageImage { file, page_no, .. } => {
                    format!("PageImage({}, {page_no})", file.0)
                }
                Record::DropFile { file } => {
                    format!("DropFile({})", file.0)
                }
                Record::Catalog { .. } => "Catalog".into(),
                Record::Commit => "Commit".into(),
            })
            .collect()
    };
    let want = |recs: &[&str]| -> Vec<String> {
        recs.iter().map(|r| r.to_string()).collect()
    };
    assert_eq!(
        last_commit(&mut db, "create static e (id = i4)"),
        want(&["Begin", "FileLen(0, 0)", "Catalog", "Commit"])
    );
    assert_eq!(
        last_commit(&mut db, "append to e (id = 1)"),
        want(&[
            "Begin",
            "FileLen(0, 1)",
            "PageImage(0, 0)",
            "Catalog",
            "Commit"
        ])
    );
    assert_eq!(
        last_commit(&mut db, "append to e (id = 2)"),
        want(&["Begin", "PageImage(0, 0)", "Catalog", "Commit"])
    );
    assert_eq!(
        last_commit(&mut db, "modify e to hash on id"),
        want(&[
            "Begin",
            "FileLen(1, 1)",
            "PageImage(1, 0)",
            "DropFile(0)",
            "Catalog",
            "Commit",
        ])
    );
    // A chained insert walks every full page of its bucket and counts
    // each as written, but logs only the page its row lands on. A
    // 200-byte row fills a page at 5 rows, so 16 rows on one key leave
    // pages 0–2 full and page 3 with room.
    db.execute("create static c (id = i4, pad = c196)").unwrap();
    db.execute("modify c to hash on id").unwrap();
    for i in 0..16 {
        db.execute(&format!("append to c (id = 1, pad = \"{i}\")"))
            .unwrap();
    }
    let c = {
        let (_, catalog, _) = db.internals();
        catalog.get(catalog.require("c").unwrap()).file.file_id()
    };
    let before = db.io_stats().of(c).writes;
    assert_eq!(
        last_commit(&mut db, "append to c (id = 1, pad = \"16\")"),
        want(&[
            "Begin",
            &format!("PageImage({}, 3)", c.0),
            "Catalog",
            "Commit"
        ])
    );
    let walked = db.io_stats().of(c).writes - before;
    assert_eq!(walked, 4, "every page walked is counted as written");
    drop(db);
    let mut db = reopen_mem(&disk, &log);
    db.execute("range of v is c").unwrap();
    let mut pads: Vec<i32> = db
        .execute("retrieve (v.pad)")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r[0].as_str().unwrap().parse().unwrap())
        .collect();
    pads.sort_unstable();
    assert_eq!(pads, (0..17).collect::<Vec<i32>>(), "every row reads back");
}
