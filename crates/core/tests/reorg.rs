//! Online reorganization: migrating the versions DML can no longer
//! touch into clustered history sidecars must change page costs, never
//! answers.

use tdbms_core::{Database, Engine, ExecOutput};
use tdbms_kernel::{Granularity, RowCodec, TemporalAttr, TimeVal};

fn fmt(t: TimeVal) -> String {
    t.format(Granularity::Second)
}

/// A keyed rollback relation with a versioned update history: `nkeys`
/// tuples, each replaced `nversions - 1` times.
fn versioned_db(nkeys: i64, nversions: usize) -> Database {
    versioned_db_of("id = i4, x = i4", nkeys, nversions)
}

/// [`versioned_db`] over the attributes `attrs`, which include `id` and
/// `x`.
fn versioned_db_of(attrs: &str, nkeys: i64, nversions: usize) -> Database {
    let mut db = Database::in_memory();
    db.execute(&format!("create rollback r ({attrs})")).unwrap();
    for id in 1..=nkeys {
        db.execute(&format!("append to r (id = {id}, x = 0)"))
            .unwrap();
    }
    db.execute("modify r to hash on id where fillfactor = 100")
        .unwrap();
    db.execute("range of v is r").unwrap();
    for ver in 1..nversions {
        for id in 1..=nkeys {
            db.execute(&format!("replace v (x = {ver}) where v.id = {id}"))
                .unwrap();
        }
    }
    db
}

fn sorted_ints(out: &ExecOutput) -> Vec<i64> {
    let mut v: Vec<i64> =
        out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    v.sort_unstable();
    v
}

#[test]
fn reorganization_changes_no_answer_at_any_time() {
    let mut db = versioned_db(4, 6);
    let mid = db.clock().now();
    db.execute("range of v is r").unwrap();
    db.execute("replace v (x = 99) where v.id = 2").unwrap();

    let queries = [
        "retrieve (v.x) where v.id = 2".to_string(),
        "retrieve (v.id)".to_string(),
        format!("retrieve (v.x) as of \"{}\"", fmt(mid)),
        format!(
            "retrieve (v.x) as of \"{}\" through \"now\"",
            fmt(TimeVal::BEGINNING)
        ),
    ];
    let before: Vec<Vec<i64>> = queries
        .iter()
        .map(|q| sorted_ints(&db.execute(q).unwrap()))
        .collect();

    let migrated = db.reorganize("r").unwrap();
    // 4 keys × 5 superseded versions, plus the replace pair bookkeeping
    // of id 2 — at minimum every superseded version moved.
    assert!(migrated >= 20, "expected a real migration, got {migrated}");
    assert_eq!(db.reorg_stats().rows_migrated, migrated);
    assert_eq!(db.reorg_stats().runs, 1);

    let after: Vec<Vec<i64>> = queries
        .iter()
        .map(|q| sorted_ints(&db.execute(q).unwrap()))
        .collect();
    assert_eq!(before, after, "reorganization changed query answers");

    // A second pass with nothing newly stopped migrates nothing.
    assert_eq!(db.reorganize("r").unwrap(), 0);
    assert_eq!(db.reorg_stats().runs, 1);
}

#[test]
fn at_now_keyed_io_shrinks_and_history_io_stays_off_the_hot_path() {
    // One hot tuple with a long version chain: at 9 rows a page (the
    // `c96` pad), its 40 versions fill a bucket and 4 overflow pages,
    // and an at-now keyed probe walks the whole chain.
    let mut db = versioned_db_of("id = i4, x = i4, pad = c96", 1, 40);
    db.execute("range of v is r").unwrap();
    let q = "retrieve (v.x) where v.id = 1";

    // Every statement starts cold, so its input pages are the paper's
    // count: the pages the probe reads from the device.
    let before = db.execute(q).unwrap();
    assert_eq!(before.stats.input_pages, 5, "the whole chain");

    let migrated = db.reorganize("r").unwrap();
    assert_eq!(migrated, 39, "all superseded versions migrate");

    // The current version alone is left on the bucket page, and the
    // sidecar is not read at now.
    let after = db.execute(q).unwrap();
    assert_eq!(sorted_ints(&after), sorted_ints(&before));
    assert_eq!(after.stats.input_pages, 1, "the bucket page alone");

    // Time travel still sees all 40 versions, now served from the
    // clustered sidecar.
    let all = db
        .execute(&format!(
            "retrieve (v.x) as of \"{}\" through \"now\"",
            fmt(TimeVal::BEGINNING)
        ))
        .unwrap();
    assert_eq!(all.rows().len(), 40);
}

#[test]
fn reorganized_state_survives_a_durable_reopen() {
    let dir = std::env::temp_dir()
        .join(format!("tdbms-reorg-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let all = format!(
        "retrieve (v.x) as of \"{}\" through \"now\"",
        fmt(TimeVal::BEGINNING)
    );
    // A temporal relation beside the rollback one: its pass also moves
    // transaction-current versions, so a lost or doubled migration shows
    // in a `when` answer.
    let temporal = [
        "retrieve (u.id, u.x) when u overlap \"now\"",
        "retrieve (u.id, u.x) when u precede \"now\"",
        "retrieve (u.id, u.x)",
    ];
    let answers = |db: &mut Database| -> Vec<Vec<String>> {
        temporal
            .iter()
            .map(|q| sorted_rows(&db.execute(q).unwrap()))
            .collect()
    };
    let expect_all;
    let expect_now;
    let expect_temporal;
    let watermarks;
    {
        let mut db = Database::open_durable(&dir).unwrap();
        db.execute("create rollback r (id = i4, x = i4)").unwrap();
        db.execute("create temporal t (id = i4, x = i4)").unwrap();
        for id in 1..=3 {
            for rel in ["r", "t"] {
                db.execute(&format!("append to {rel} (id = {id}, x = 0)"))
                    .unwrap();
            }
        }
        for rel in ["r", "t"] {
            db.execute(&format!(
                "modify {rel} to hash on id where fillfactor = 100"
            ))
            .unwrap();
        }
        db.execute("range of v is r").unwrap();
        db.execute("range of u is t").unwrap();
        for ver in 1..8 {
            db.execute(&format!("replace v (x = {ver}) where v.id = 2"))
                .unwrap();
            db.execute(&format!("replace u (x = {ver}) where u.id = 2"))
                .unwrap();
        }
        db.execute("delete u where u.id = 3").unwrap();
        db.execute("replace u (x = 9) where u.id = 1").unwrap();
        assert!(db.reorganize("r").unwrap() > 0);
        assert!(db.reorganize("t").unwrap() > 0);
        watermarks = history_of(&mut db);
        assert!(watermarks.2 > TimeVal::BEGINNING);
        expect_now = sorted_ints(&db.execute("retrieve (v.x)").unwrap());
        expect_all = sorted_ints(&db.execute(&all).unwrap());
        expect_temporal = answers(&mut db);
    }

    let mut db = Database::open_durable(&dir).unwrap();
    db.execute("range of v is r").unwrap();
    db.execute("range of u is t").unwrap();
    assert_eq!(history_of(&mut db), watermarks);
    assert_eq!(
        sorted_ints(&db.execute("retrieve (v.x)").unwrap()),
        expect_now
    );
    assert_eq!(sorted_ints(&db.execute(&all).unwrap()), expect_all);
    assert_eq!(answers(&mut db), expect_temporal);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_compacts_while_sessions_read_and_write() {
    let engine = Engine::new(versioned_db(4, 4));
    let daemon =
        engine.spawn_reorg_daemon(std::time::Duration::from_millis(5));
    std::thread::scope(|scope| {
        for t in 0..3 {
            let engine = engine.clone();
            scope.spawn(move || {
                let mut s = engine.session();
                s.execute("range of v is r").unwrap();
                for i in 0..20 {
                    if t == 0 {
                        s.execute(&format!(
                            "replace v (x = {}) where v.id = 3",
                            100 + i
                        ))
                        .unwrap();
                    } else {
                        // Every key stays visible at now throughout.
                        let out = s.execute("retrieve (v.id)").unwrap();
                        assert_eq!(
                            out.rows().len(),
                            4,
                            "a current version went missing mid-reorg"
                        );
                    }
                }
            });
        }
    });
    // Give the daemon a window to run at least once more, then stop.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let migrated = daemon.migrated();
    daemon.stop();
    assert!(migrated > 0, "daemon never migrated anything");
    // Quiescent: answers are complete and accounting is consistent.
    let mut s = engine.session();
    s.execute("range of v is r").unwrap();
    let all = s
        .execute(&format!(
            "retrieve (v.x) as of \"{}\" through \"now\"",
            fmt(TimeVal::BEGINNING)
        ))
        .unwrap();
    // 4 keys × 4 versions initially, plus 20 replace-created versions
    // of id 3 (each replace adds one version and stops another).
    assert_eq!(all.rows().len(), 36);
    engine.with_read(|db| assert!(db.io_stats().is_consistent()));
}

/// A keyed temporal relation `t` with a valid-time history: `nkeys`
/// tuples, each replaced `nversions - 1` times, then key `nkeys` deleted
/// and, last, key 2 replaced once more. Every replace and the delete
/// leave a transaction-current version closed in valid time. Returns the
/// database (ranges `v` and `w` over `t`), the instant of the first
/// round's last replace, and that of the delete, whose closing version
/// holds the newest valid end a pass migrates.
fn temporal_db(
    nkeys: i64,
    nversions: usize,
) -> (Database, TimeVal, TimeVal) {
    let mut db = Database::in_memory();
    db.execute("create temporal t (id = i4, x = i4)").unwrap();
    for id in 1..=nkeys {
        db.execute(&format!("append to t (id = {id}, x = 0)"))
            .unwrap();
    }
    db.execute("modify t to hash on id where fillfactor = 100")
        .unwrap();
    db.execute("range of v is t").unwrap();
    db.execute("range of w is t").unwrap();
    let mut mid = TimeVal::BEGINNING;
    for ver in 1..nversions {
        for id in 1..=nkeys {
            db.execute(&format!("replace v (x = {ver}) where v.id = {id}"))
                .unwrap();
        }
        if ver == 1 {
            mid = db.clock().now();
        }
    }
    db.execute(&format!("delete v where v.id = {nkeys}"))
        .unwrap();
    let deleted = db.clock().now();
    db.execute("replace v (x = 99) where v.id = 2").unwrap();
    (db, mid, deleted)
}

/// The keyed at-now probe of the key written last.
const AT_NOW_KEYED: &str =
    "retrieve (v.x) where v.id = 2 when v overlap \"now\"";

/// One query per way a `when` can reach a version the pass moves: at-now
/// (all and keyed), a past instant (one exactly at the newest migrated
/// valid end), `precede`, `equal`, `not`, no `when`, `as of` a point and
/// a span, and a two-variable join.
fn temporal_queries(mid: TimeVal, deleted: TimeVal) -> Vec<String> {
    let (mid, deleted) = (fmt(mid), fmt(deleted));
    let start = fmt(TimeVal::BEGINNING);
    vec![
        "retrieve (v.id, v.x) when v overlap \"now\"".into(),
        AT_NOW_KEYED.into(),
        format!("retrieve (v.id, v.x) when v overlap \"{mid}\""),
        format!("retrieve (v.id, v.x) when v overlap \"{deleted}\""),
        "retrieve (v.id, v.x) when v precede \"now\"".into(),
        format!("retrieve (v.id, v.x) when start of v equal \"{mid}\""),
        "retrieve (v.id, v.x) when not v overlap \"now\"".into(),
        "retrieve (v.id, v.x)".into(),
        format!("retrieve (v.id, v.x) as of \"{mid}\""),
        format!("retrieve (v.id, v.x) as of \"{start}\" through \"now\""),
        "retrieve (v.id, w.x) where v.id = w.id when v overlap w and \
         w overlap \"now\""
            .into(),
    ]
}

/// Every row of `out`, rendered and sorted: the answer as a multiset.
fn sorted_rows(out: &ExecOutput) -> Vec<String> {
    let mut rows: Vec<String> =
        out.rows().iter().map(|r| format!("{r:?}")).collect();
    rows.sort_unstable();
    rows
}

/// `t`'s primary file, row by row, as `(transaction stop, valid end)`
/// and the row bytes, sorted.
fn primary_of(db: &mut Database) -> Vec<((TimeVal, TimeVal), Vec<u8>)> {
    let schema = db.schema_of("t").unwrap();
    let codec = RowCodec::new(&schema);
    let at = |t| schema.temporal_index(t).unwrap();
    let (stop, to) =
        (at(TemporalAttr::TransactionStop), at(TemporalAttr::ValidTo));
    let (pager, catalog, _) = db.internals();
    let file = &catalog.get(catalog.require("t").unwrap()).file;
    let mut rows = Vec::new();
    let mut cur = file.scan();
    while let Some((_, row)) = cur.next(pager, file).unwrap() {
        let stamps = (codec.get_time(row, stop), codec.get_time(row, to));
        rows.push((stamps, row.to_vec()));
    }
    rows.sort_unstable();
    rows
}

/// `t`'s history sidecar file and its two watermarks.
fn history_of(
    db: &mut Database,
) -> (tdbms_storage::FileId, TimeVal, TimeVal) {
    let (_, catalog, _) = db.internals();
    let rel = catalog.get(catalog.require("t").unwrap());
    let h = rel.history.as_ref().expect("a pass made a sidecar");
    (h.file_id(), h.max_stop(), h.max_valid_to())
}

#[test]
fn temporal_reorganization_changes_no_answer_at_any_time() {
    // Two identical databases run the same statements at the same
    // instants; only `db` is reorganized, right at the instant of its
    // last replace. `plain` gives the answers every query must keep.
    let (mut plain, mid, deleted) = temporal_db(4, 6);
    let (mut db, ..) = temporal_db(4, 6);
    let queries = temporal_queries(mid, deleted);
    let answers = |db: &mut Database| -> Vec<Vec<String>> {
        queries
            .iter()
            .map(|q| sorted_rows(&db.execute(q).unwrap()))
            .collect()
    };

    let pass_at = db.clock().now();
    let primary = primary_of(&mut db);
    let migrated = db.reorganize("t").unwrap();
    // The primary keeps exactly the versions open in both times, plus
    // the one closed at the pass instant (key 2's last replace).
    let stays: Vec<_> = primary
        .iter()
        .filter(|((stop, to), _)| {
            stop.is_forever() && (to.is_forever() || *to == pass_at)
        })
        .cloned()
        .collect();
    assert_eq!(primary_of(&mut db), stays);
    assert_eq!(migrated as usize, primary.len() - stays.len());
    assert_eq!(
        stays.iter().filter(|((_, to), _)| *to == pass_at).count(),
        1
    );
    // Transaction-current versions closed in valid time moved too.
    let (_, max_stop, max_valid_to) = history_of(&mut db);
    assert_eq!((max_stop, max_valid_to), (pass_at, deleted));

    let expect = answers(&mut plain);
    assert!(expect.iter().all(|a| !a.is_empty()), "{expect:?}");
    assert_eq!(answers(&mut db), expect, "the pass changed an answer");
    // A second pass, at a later instant, moves the version closed at the
    // first pass's instant, and still changes no answer.
    assert_eq!(db.reorganize("t").unwrap(), 1);
    assert_eq!(
        answers(&mut db),
        answers(&mut plain),
        "a second pass changed an answer"
    );
}

#[test]
fn temporal_pass_changes_no_snapshot_answer_at_the_last_replace() {
    let (db, mid, deleted) = temporal_db(4, 6);
    let engine = Engine::new(db);
    let mut s = engine.session();
    s.execute("range of v is t").unwrap();
    s.execute("range of w is t").unwrap();
    let queries = temporal_queries(mid, deleted);
    // Each query twice: the second run borrows the cached binding.
    let mut answers = || -> Vec<Vec<String>> {
        queries
            .iter()
            .map(|q| {
                let first = sorted_rows(&s.execute(q).unwrap());
                assert_eq!(
                    sorted_rows(&s.execute(q).unwrap()),
                    first,
                    "{q}"
                );
                first
            })
            .collect()
    };
    // Snapshot reads run at the published watermark, the instant of the
    // last replace: closed intervals make key 2's closing version and
    // its new one both overlap "now".
    let before = answers();
    assert_eq!(before[1].len(), 2, "{:?}", before[1]);
    assert!(engine.with_write(|db| db.reorganize("t")).unwrap() > 0);
    assert_eq!(answers(), before, "the pass changed a snapshot answer");
    let (h0, _) = engine.plan_cache_stats();
    assert!(h0 > 0, "the statement cache was never hit");
}

#[test]
fn at_now_keyed_probe_after_a_temporal_pass_reads_no_history() {
    let (mut db, ..) = temporal_db(4, 6);
    assert!(db.reorganize("t").unwrap() > 0);
    // One later commit, on another relation.
    db.execute("create rollback other (id = i4)").unwrap();
    let (history, _, _) = history_of(&mut db);

    let scope = db.io_stats().scope();
    let out = db.execute(AT_NOW_KEYED).unwrap();
    assert_eq!(sorted_ints(&out), vec![99]);
    assert_eq!(scope.of(history).accesses, 0, "at-now probe read history");
    drop(scope);
    // A key the primary lacks: nothing is bound when the skip test runs.
    let out = db
        .execute("retrieve (v.x) where v.id = 99 when v overlap \"now\"")
        .unwrap();
    assert!(out.rows().is_empty());

    // Without a `when` the probe reaches the closed versions, which the
    // sidecar now holds.
    let scope = db.io_stats().scope();
    let out = db.execute("retrieve (v.x) where v.id = 2").unwrap();
    assert_eq!(out.rows().len(), 7);
    assert!(scope.of(history).accesses > 0);
}

/// `copy R into` a fresh file, as the sorted multiset of its lines.
fn copy_out(db: &mut Database, rel: &str) -> Vec<String> {
    let path =
        tdbms_kernel::tmpdir::fresh_dir("reorg-copy").join("out.csv");
    let out = db
        .execute(&format!("copy {rel} into \"{}\"", path.display()))
        .unwrap();
    let mut lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    assert_eq!(out.affected, lines.len());
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    lines.sort_unstable();
    lines
}

#[test]
fn copy_into_unloads_migrated_versions_too() {
    let mut rollback = versioned_db(4, 4);
    let (mut temporal, ..) = temporal_db(4, 4);
    for (db, rel) in [(&mut rollback, "r"), (&mut temporal, "t")] {
        let before = copy_out(db, rel);
        assert!(db.reorganize(rel).unwrap() > 0);
        assert_eq!(copy_out(db, rel), before, "{rel}: copy-out changed");
    }
}

#[test]
fn modify_to_a_new_key_keeps_every_migrated_version_reachable() {
    // `modify` re-keys the primary. The sidecar, clustered under the old
    // key, folds back into it; a keyed probe on the new key must still
    // find every version a pass moved.
    let (mut plain, ..) = temporal_db(4, 6);
    let (mut db, ..) = temporal_db(4, 6);
    let mut rollback = versioned_db(4, 4);
    let mut rollback_plain = versioned_db(4, 4);
    assert!(db.reorganize("t").unwrap() > 0);
    assert!(rollback.reorganize("r").unwrap() > 0);
    for d in [&mut plain, &mut db] {
        d.execute("modify t to hash on x").unwrap();
    }
    for d in [&mut rollback, &mut rollback_plain] {
        d.execute("modify r to hash on x").unwrap();
    }
    for (d, rel) in [(&mut db, "t"), (&mut rollback, "r")] {
        let (_, catalog, _) = d.internals();
        assert!(catalog
            .get(catalog.require(rel).unwrap())
            .history
            .is_none());
    }
    let start = fmt(TimeVal::BEGINNING);
    let probes = |x: i64| {
        vec![
            format!("retrieve (v.id, v.x) where v.x = {x}"),
            format!("retrieve (v.id, v.x) where v.x = {x} when v precede \"now\""),
            format!("retrieve (v.id, v.x) where v.x = {x} when v overlap \"now\""),
            format!(
                "retrieve (v.id, v.x) as of \"{start}\" through \"now\" \
                 where v.x = {x}"
            ),
        ]
    };
    let answers = |d: &mut Database, x: i64| -> Vec<Vec<String>> {
        probes(x)
            .iter()
            .map(|q| sorted_rows(&d.execute(q).unwrap()))
            .collect()
    };
    for x in [0, 1, 3, 5, 99] {
        let expect = answers(&mut plain, x);
        assert!(!expect[0].is_empty(), "x = {x}: {expect:?}");
        assert_eq!(answers(&mut db, x), expect, "t, x = {x}");
    }
    for x in [0, 1, 2, 3] {
        let q = format!(
            "retrieve (v.id, v.x) as of \"{start}\" through \"now\" \
             where v.x = {x}"
        );
        let expect = sorted_rows(&rollback_plain.execute(&q).unwrap());
        assert_eq!(expect.len(), 4, "r, x = {x}: {expect:?}");
        assert_eq!(sorted_rows(&rollback.execute(&q).unwrap()), expect);
    }
    // A later pass migrates them again, clustered under the new key.
    for d in [&mut plain, &mut db] {
        d.execute("replace v (x = 1) where v.id = 3").unwrap();
    }
    assert!(db.reorganize("t").unwrap() > 0);
    for x in [0, 1, 5, 99] {
        assert_eq!(answers(&mut db, x), answers(&mut plain, x), "x = {x}");
    }
}

#[test]
fn modify_after_a_pass_survives_a_durable_reopen() {
    let all = format!(
        "retrieve (v.id, v.x) as of \"{}\" through \"now\"",
        fmt(TimeVal::BEGINNING)
    );
    for organization in ["heap", "hash on x", "isam on id"] {
        let dir = tdbms_kernel::tmpdir::fresh_dir("reorg-modify-reopen");
        let expect;
        {
            let mut db = Database::open_durable(&dir).unwrap();
            db.execute("create rollback r (id = i4, x = i4)").unwrap();
            for id in 1..=3 {
                db.execute(&format!("append to r (id = {id}, x = {id})"))
                    .unwrap();
            }
            db.execute("modify r to hash on id").unwrap();
            db.execute("range of v is r").unwrap();
            for ver in 4..8 {
                db.execute(&format!(
                    "replace v (x = {ver}) where v.id = 2"
                ))
                .unwrap();
            }
            assert!(db.reorganize("r").unwrap() > 0);
            db.execute(&format!("modify r to {organization}")).unwrap();
            expect = sorted_rows(&db.execute(&all).unwrap());
            assert_eq!(expect.len(), 7, "{organization}: {expect:?}");
        }
        let mut db = Database::open_durable(&dir).unwrap();
        db.execute("range of v is r").unwrap();
        assert_eq!(
            sorted_rows(&db.execute(&all).unwrap()),
            expect,
            "{organization}"
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
