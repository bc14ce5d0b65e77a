//! Scratch repro: exhaustive crash sweep with torn data-page writes
//! whose prefix covers the page LSN (bytes 8..12) but truncates rows.

use tdbms::wal::{FaultLog, LogStore, MemLog};
use tdbms::{Database, TimeVal};
use tdbms_check::check_database;
use tdbms_kernel::{RowCodec, TemporalAttr};
use tdbms_storage::{DiskManager, FaultDisk, FaultPlan, MemDisk};

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
    let mut row = Vec::new();
    while cur.next(pager, &file, &mut row).unwrap().is_some() {
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

fn run(
    disk: &MemDisk,
    log: &MemLog,
    plan: &FaultPlan,
    torn: usize,
    stmts: &[String],
) -> Option<(Vec<u64>, Vec<State>)> {
    let fdisk: Box<dyn DiskManager> =
        Box::new(FaultDisk::with_torn_writes(
            Box::new(disk.clone()),
            plan.clone(),
            torn,
        ));
    let flog: Box<dyn LogStore> =
        Box::new(FaultLog::new(Box::new(log.clone()), plan.clone()));
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

#[test]
fn torn_checkpoint_write_sweep() {
    let stmts: Vec<String> = vec![
        "create temporal interval r (id = i4, seq = i4)".into(),
        "range of z is r".into(),
        "append to r (id = 1, seq = 0)".into(),
        "append to r (id = 2, seq = 0)".into(),
        "append to r (id = 3, seq = 0)".into(),
        "append to r (id = 4, seq = 0)".into(),
        "append to r (id = 5, seq = 0)".into(),
        "replace z (seq = z.seq + 1) where z.id = 3".into(),
    ];
    let torn = 64; // covers header+lsn (12 bytes), truncates row data
    let (boundaries, states) = run(
        &MemDisk::new(),
        &MemLog::new(),
        &FaultPlan::new(None),
        torn,
        &stmts,
    )
    .expect("dry run");
    let (first, last) = (boundaries[0], *boundaries.last().unwrap());
    let mut failures = Vec::new();
    for crash_at in first + 1..=last {
        let disk = MemDisk::new();
        let log = MemLog::new();
        let plan = FaultPlan::new(Some(crash_at));
        let finished = run(&disk, &log, &plan, torn, &stmts);
        assert!(finished.is_none());
        let k = boundaries.iter().position(|&b| b >= crash_at).unwrap();
        let mut rdb = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("recovery");
        let (pager, catalog, _) = rdb.internals();
        let report = check_database(pager, catalog).expect("audit runs");
        if !report.is_clean() {
            failures.push(format!(
                "crash at {crash_at}: recovered state audits dirty:\n{}",
                report.render()
            ));
        }
        let got = snapshot(&mut rdb);
        if got != states[k - 1] && got != states[k] {
            failures.push(format!(
                "crash at {crash_at} (stmt {k} = {:?}): got {got:?}, \
                 want {:?} or {:?}",
                stmts.get(k - 1),
                states[k - 1],
                states[k]
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
