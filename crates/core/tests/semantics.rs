//! End-to-end semantics of the four database classes through TQuel.

use tdbms_core::Database;
use tdbms_kernel::{DatabaseClass, TimeVal, Value};

fn ints(out: &tdbms_core::ExecOutput, col: &str) -> Vec<i64> {
    let idx = out.column_index(col).unwrap_or_else(|| {
        panic!(
            "no column {col}; have {:?}",
            out.columns
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>()
        )
    });
    let mut v: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r[idx].as_int().unwrap())
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn static_relations_forget_the_past() {
    let mut db = Database::in_memory();
    db.execute("create static s (id = i4, x = i4)").unwrap();
    db.execute("append to s (id = 1, x = 10)").unwrap();
    db.execute("append to s (id = 2, x = 20)").unwrap();
    db.execute("range of v is s").unwrap();
    db.execute("replace v (x = 11) where v.id = 1").unwrap();
    let out = db.execute("retrieve (v.id, v.x)").unwrap();
    assert_eq!(out.rows().len(), 2);
    assert_eq!(ints(&out, "x"), vec![11, 20]);
    // Delete physically removes.
    db.execute("delete v where v.id = 1").unwrap();
    let out = db.execute("retrieve (v.id)").unwrap();
    assert_eq!(ints(&out, "id"), vec![2]);
}

#[test]
fn rollback_relations_support_as_of() {
    let mut db = Database::in_memory();
    db.execute("create rollback r (id = i4, x = i4)").unwrap();
    db.execute("append to r (id = 1, x = 10)").unwrap();
    let t_after_insert = db.clock().now();
    db.execute("range of v is r").unwrap();
    db.execute("replace v (x = 11) where v.id = 1").unwrap();
    db.execute("delete v where v.id = 1").unwrap();

    // Current state: empty.
    let out = db.execute("retrieve (v.id, v.x)").unwrap();
    assert_eq!(out.rows().len(), 0);

    // As of just after the insert: the original version.
    let q = format!(
        "retrieve (v.x) as of \"{}\"",
        t_after_insert.format(tdbms_kernel::Granularity::Second)
    );
    let out = db.execute(&q).unwrap();
    assert_eq!(ints(&out, "x"), vec![10]);
}

#[test]
fn rollback_as_of_through_sees_every_version_in_the_span() {
    let mut db = Database::in_memory();
    db.execute("create rollback r (id = i4, x = i4)").unwrap();
    db.execute("append to r (id = 1, x = 10)").unwrap();
    let t0 = db.clock().now();
    db.execute("range of v is r").unwrap();
    db.execute("replace v (x = 11) where v.id = 1").unwrap();
    db.execute("replace v (x = 12) where v.id = 1").unwrap();
    let t1 = db.clock().now();
    let fmt = |t: TimeVal| t.format(tdbms_kernel::Granularity::Second);
    let out = db
        .execute(&format!(
            "retrieve (v.x) as of \"{}\" through \"{}\"",
            fmt(t0),
            fmt(t1)
        ))
        .unwrap();
    assert_eq!(ints(&out, "x"), vec![10, 11, 12]);
}

#[test]
fn historical_relations_answer_when_queries() {
    let mut db = Database::in_memory();
    db.execute("create historical interval emp (name = c12, dept = c12)")
        .unwrap();
    // merrie was in the toy department in 1980-1982, then in tools.
    db.execute(
        r#"append to emp (name = "merrie", dept = "toys")
           valid from "1980" to "1982""#,
    )
    .unwrap();
    db.execute(
        r#"append to emp (name = "merrie", dept = "tools")
           valid from "1982" to "forever""#,
    )
    .unwrap();
    db.execute("range of e is emp").unwrap();

    let out = db
        .execute(r#"retrieve (e.dept) when e overlap "6/1/81""#)
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0][0], Value::Str("toys".into()));

    let out = db
        .execute(r#"retrieve (e.dept) when e overlap "6/1/83""#)
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Str("tools".into()));

    // The default valid clause reports each tuple's own period.
    let out = db.execute("retrieve (e.dept)").unwrap();
    assert_eq!(out.rows().len(), 2);
    let vf = out.column_index("valid_from").unwrap();
    let toys_row = out
        .rows()
        .iter()
        .find(|r| r[0] == Value::Str("toys".into()))
        .unwrap();
    assert_eq!(
        toys_row[vf],
        Value::Time(TimeVal::from_ymd(1980, 1, 1).unwrap())
    );
}

#[test]
fn historical_delete_closes_the_valid_period() {
    let mut db = Database::in_memory();
    db.execute("create historical interval h (id = i4)")
        .unwrap();
    db.execute(r#"append to h (id = 7) valid from "1980" to "forever""#)
        .unwrap();
    db.execute("range of v is h").unwrap();
    db.execute(r#"delete v valid at "1985" where v.id = 7"#)
        .unwrap_err();
    // interval relations use from..to syntax for the deletion instant
    db.execute(r#"delete v valid from "1985" to "forever" where v.id = 7"#)
        .unwrap();
    // The fact remains part of history…
    let out = db
        .execute(r#"retrieve (v.id) when v overlap "1983""#)
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    // …but does not hold after the deletion instant.
    let out = db
        .execute(r#"retrieve (v.id) when v overlap "1990""#)
        .unwrap();
    assert_eq!(out.rows().len(), 0);
}

#[test]
fn temporal_replace_inserts_two_versions() {
    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4, x = i4)")
        .unwrap();
    db.execute("append to t (id = 1, x = 10)").unwrap();
    db.execute("range of v is t").unwrap();
    db.execute("replace v (x = 11) where v.id = 1").unwrap();
    // 1 original + 2 per replace.
    assert_eq!(db.relation_meta("t").unwrap().tuple_count, 3);
    db.execute("replace v (x = 12) where v.id = 1").unwrap();
    assert_eq!(db.relation_meta("t").unwrap().tuple_count, 5);

    // Version scan: all versions live in the current transaction state.
    let out = db.execute("retrieve (v.x)").unwrap();
    assert_eq!(ints(&out, "x"), vec![10, 11, 12]);

    // The static-style query sees only the current version.
    let out = db
        .execute(r#"retrieve (v.x) when v overlap "now""#)
        .unwrap();
    assert_eq!(ints(&out, "x"), vec![12]);
}

#[test]
fn temporal_supports_retroactive_change_and_rollback() {
    // The defining capability: correct the past, and still see the
    // erroneous record by rolling the database back.
    let mut db = Database::in_memory();
    db.execute("create temporal interval sal (name = c8, amount = i4)")
        .unwrap();
    db.execute(
        r#"append to sal (name = "di", amount = 100)
           valid from "1980" to "forever""#,
    )
    .unwrap();
    let t_before_fix = db.clock().now();
    db.execute("range of s is sal").unwrap();
    // Retroactive correction: the raise actually happened back in 1981.
    db.execute(
        r#"replace s (amount = 150) valid from "1981" to "forever"
           where s.name = "di""#,
    )
    .unwrap();

    // Today's view of 1982: the corrected salary.
    let out = db
        .execute(r#"retrieve (s.amount) when s overlap "1982""#)
        .unwrap();
    assert_eq!(ints(&out, "amount"), vec![150]);

    // The view as of before the correction: the database then believed
    // the 1982 salary was still 100.
    let fmt = t_before_fix.format(tdbms_kernel::Granularity::Second);
    let out = db
        .execute(&format!(
            r#"retrieve (s.amount) when s overlap "1982" as of "{fmt}""#
        ))
        .unwrap();
    assert_eq!(ints(&out, "amount"), vec![100]);
}

#[test]
fn figure2_query_runs() {
    let mut db = Database::in_memory();
    db.execute(
        "create temporal interval temporal_h \
         (id = i4, amount = i4, seq = i4, string = c96)",
    )
    .unwrap();
    db.execute(
        "create temporal interval temporal_i \
         (id = i4, amount = i4, seq = i4, string = c96)",
    )
    .unwrap();
    db.execute(r#"append to temporal_h (id = 500, amount = 1, seq = 0, string = "h")
                  valid from "1/5/80" to "forever""#)
        .unwrap();
    db.execute(r#"append to temporal_i (id = 9, amount = 73700, seq = 0, string = "i")
                  valid from "1/10/80" to "forever""#)
        .unwrap();
    db.execute("range of h is temporal_h").unwrap();
    db.execute("range of i is temporal_i").unwrap();
    let out = db
        .execute(
            r#"retrieve (h.id, h.seq, i.id, i.seq, i.amount)
               valid from start of (h overlap i) to end of (h extend i)
               where h.id = 500 and i.amount = 73700
               when h overlap i
               as of "now""#,
        )
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    let row = &out.rows()[0];
    assert_eq!(row[0], Value::Int(500));
    assert_eq!(row[4], Value::Int(73700));
    // valid_from = start of overlap = later start (1/10/80);
    // valid_to = end of extend = forever.
    let vf = out.column_index("valid_from").unwrap();
    let vt = out.column_index("valid_to").unwrap();
    assert_eq!(
        row[vf],
        Value::Time(TimeVal::from_ymd(1980, 1, 10).unwrap())
    );
    assert_eq!(row[vt], Value::Time(TimeVal::FOREVER));
}

#[test]
fn join_via_tuple_substitution() {
    let mut db = Database::in_memory();
    db.execute("create static a (id = i4, x = i4)").unwrap();
    db.execute("create static b (id = i4, y = i4)").unwrap();
    for i in 1..=20 {
        db.execute(&format!("append to a (id = {i}, x = {})", i * 10))
            .unwrap();
        db.execute(&format!("append to b (id = {i}, y = {})", i % 5))
            .unwrap();
    }
    db.execute("modify a to hash on id where fillfactor = 100")
        .unwrap();
    db.execute("range of p is a").unwrap();
    db.execute("range of q is b").unwrap();
    let out = db
        .execute("retrieve (p.id, p.x, q.y) where p.id = q.id and q.y = 2")
        .unwrap();
    // ids with id % 5 == 2: 2, 7, 12, 17.
    assert_eq!(ints(&out, "id"), vec![2, 7, 12, 17]);
    assert_eq!(ints(&out, "x"), vec![20, 70, 120, 170]);
}

#[test]
fn retrieve_into_materializes_a_relation() {
    let mut db = Database::in_memory();
    db.execute("create historical interval src (id = i4)")
        .unwrap();
    for i in 1..=5 {
        db.execute(&format!(
            r#"append to src (id = {i}) valid from "198{i}" to "forever""#
        ))
        .unwrap();
    }
    db.execute("range of s is src").unwrap();
    db.execute("retrieve into snap (s.id) where s.id < 3")
        .unwrap();
    let meta = db.relation_meta("snap").unwrap();
    assert_eq!(meta.class, DatabaseClass::Historical);
    assert_eq!(meta.tuple_count, 2);
    db.execute("range of t is snap").unwrap();
    let out = db
        .execute(r#"retrieve (t.id) when t overlap "6/1/81""#)
        .unwrap();
    assert_eq!(ints(&out, "id"), vec![1]);
    // Duplicate into-name is rejected.
    assert!(db.execute("retrieve into snap (s.id)").is_err());
}

#[test]
fn computed_append_copies_between_relations() {
    let mut db = Database::in_memory();
    db.execute("create static src (id = i4, x = i4)").unwrap();
    db.execute("create static dst (id = i4, doubled = i4)")
        .unwrap();
    for i in 1..=4 {
        db.execute(&format!("append to src (id = {i}, x = {})", i * 3))
            .unwrap();
    }
    db.execute("range of s is src").unwrap();
    let out = db
        .execute(
            "append to dst (id = s.id, doubled = s.x * 2) where s.x > 3",
        )
        .unwrap();
    assert_eq!(out.affected, 3);
    db.execute("range of d is dst").unwrap();
    let out = db.execute("retrieve (d.doubled)").unwrap();
    assert_eq!(ints(&out, "doubled"), vec![12, 18, 24]);
}

#[test]
fn event_relations_use_valid_at() {
    let mut db = Database::in_memory();
    db.execute("create historical event ev (what = c16)")
        .unwrap();
    db.execute(r#"append to ev (what = "launch") valid at "1/5/80""#)
        .unwrap();
    db.execute(r#"append to ev (what = "landing") valid at "2/9/80""#)
        .unwrap();
    db.execute("range of e is ev").unwrap();
    let out = db
        .execute(r#"retrieve (e.what) when e precede "1/20/80""#)
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0][0], Value::Str("launch".into()));
    // Interval syntax is rejected on event relations.
    assert!(db
        .execute(r#"append to ev (what = "x") valid from "1980" to "1981""#)
        .is_err());
}

#[test]
fn clause_applicability_is_enforced() {
    let mut db = Database::in_memory();
    db.execute("create static s (id = i4)").unwrap();
    db.execute("create historical interval h (id = i4)")
        .unwrap();
    db.execute("create rollback r (id = i4)").unwrap();
    db.execute("range of s is s").unwrap();
    db.execute("range of h is h").unwrap();
    db.execute("range of r is r").unwrap();
    // when on static: not applicable.
    assert!(db
        .execute(r#"retrieve (s.id) when s overlap "now""#)
        .is_err());
    // when on rollback: not applicable (the paper substitutes as-of).
    assert!(db
        .execute(r#"retrieve (r.id) when r overlap "now""#)
        .is_err());
    // as of on historical: not applicable.
    assert!(db.execute(r#"retrieve (h.id) as of "1981""#).is_err());
    // as of on rollback: fine.
    db.execute(r#"retrieve (r.id) as of "1981""#).unwrap();
    // valid clause on rollback: not applicable.
    assert!(db
        .execute(r#"retrieve (r.id) valid from "1980" to "forever""#)
        .is_err());
}

#[test]
fn copy_roundtrips_history() {
    let dir = std::env::temp_dir()
        .join(format!("tdbms-copy-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.dat");
    let path_str = path.to_str().unwrap();

    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4, note = c24)")
        .unwrap();
    db.execute(r#"append to t (id = 1, note = "has, comma")"#)
        .unwrap();
    db.execute("range of v is t").unwrap();
    db.execute(r#"replace v (note = "second") where v.id = 1"#)
        .unwrap();
    db.execute(&format!(r#"copy t into "{path_str}""#)).unwrap();

    let mut db2 = Database::in_memory();
    // Align db2's transaction clock past everything db1 recorded, so the
    // reloaded history is wholly in db2's past.
    db2.clock().advance_to(db.clock().now());
    db2.execute("create temporal interval t (id = i4, note = c24)")
        .unwrap();
    db2.execute(&format!(r#"copy t from "{path_str}""#))
        .unwrap();
    assert_eq!(db2.relation_meta("t").unwrap().tuple_count, 3);
    db2.execute("range of v is t").unwrap();
    let out = db2
        .execute(r#"retrieve (v.note) when v overlap "now""#)
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0][0], Value::Str("second".into()));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn modify_preserves_version_history() {
    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4, x = i4)")
        .unwrap();
    for i in 1..=10 {
        db.execute(&format!("append to t (id = {i}, x = 0)"))
            .unwrap();
    }
    db.execute("range of v is t").unwrap();
    db.execute("replace v (x = v.x + 1)").unwrap();
    assert_eq!(db.relation_meta("t").unwrap().tuple_count, 30);
    db.execute("modify t to isam on id where fillfactor = 50")
        .unwrap();
    assert_eq!(db.relation_meta("t").unwrap().tuple_count, 30);
    let out = db
        .execute(r#"retrieve (v.x) where v.id = 5 when v overlap "now""#)
        .unwrap();
    assert_eq!(ints(&out, "x"), vec![1]);
    // The version scan still sees the full (transaction-current) history:
    // the closed history version (x = 0) and the current one (x = 1); the
    // superseded original is transaction-dead.
    let out = db.execute("retrieve (v.x) where v.id = 5").unwrap();
    assert_eq!(ints(&out, "x"), vec![0, 1]);
}

#[test]
fn unknown_names_produce_clear_errors() {
    let mut db = Database::in_memory();
    db.execute("create static s (id = i4)").unwrap();
    assert!(db.execute("range of v is nope").is_err());
    db.execute("range of v is s").unwrap();
    assert!(db.execute("retrieve (v.nope)").is_err());
    assert!(db.execute("retrieve (w.id)").is_err());
    assert!(db.execute("destroy nope").is_err());
    assert!(db.execute("modify nope to heap").is_err());
    // Destroying a relation invalidates its range entries.
    db.execute("destroy s").unwrap();
    assert!(db.execute("retrieve (v.id)").is_err());
}

#[test]
fn update_counts_grow_as_the_paper_describes() {
    // Space growth: rollback +1 version per tuple per round, temporal +2.
    let mut rb = Database::in_memory();
    rb.execute("create rollback r (id = i4, seq = i4)").unwrap();
    let mut tp = Database::in_memory();
    tp.execute("create temporal interval t (id = i4, seq = i4)")
        .unwrap();
    for i in 1..=8 {
        rb.execute(&format!("append to r (id = {i}, seq = 0)"))
            .unwrap();
        tp.execute(&format!("append to t (id = {i}, seq = 0)"))
            .unwrap();
    }
    rb.execute("range of v is r").unwrap();
    tp.execute("range of v is t").unwrap();
    for round in 1..=5u64 {
        rb.execute("replace v (seq = v.seq + 1)").unwrap();
        tp.execute("replace v (seq = v.seq + 1)").unwrap();
        assert_eq!(
            rb.relation_meta("r").unwrap().tuple_count,
            8 * (1 + round)
        );
        assert_eq!(
            tp.relation_meta("t").unwrap().tuple_count,
            8 * (1 + 2 * round)
        );
    }
}

#[test]
fn aggregates_group_by_nonaggregate_targets() {
    let mut db = Database::in_memory();
    db.execute("create static emp (dept = c8, salary = i4)")
        .unwrap();
    for (dept, sal) in [
        ("toys", 100),
        ("toys", 200),
        ("tools", 300),
        ("toys", 60),
        ("tools", 100),
    ] {
        db.execute(&format!(
            r#"append to emp (dept = "{dept}", salary = {sal})"#
        ))
        .unwrap();
    }
    db.execute("range of e is emp").unwrap();
    let out = db
        .execute(
            "retrieve (e.dept, total = sum(e.salary), n = count(e.salary), \
             hi = max(e.salary), lo = min(e.salary), mean = avg(e.salary))",
        )
        .unwrap();
    assert_eq!(out.rows().len(), 2);
    // Grouped output is sorted by key.
    let tools = &out.rows()[0];
    assert_eq!(tools[0], Value::Str("tools".into()));
    assert_eq!(tools[1], Value::Int(400));
    assert_eq!(tools[2], Value::Int(2));
    assert_eq!(tools[3], Value::Int(300));
    assert_eq!(tools[4], Value::Int(100));
    assert_eq!(tools[5], Value::Float(200.0));
    let toys = &out.rows()[1];
    assert_eq!(toys[1], Value::Int(360));
    assert_eq!(toys[2], Value::Int(3));

    // Ungrouped aggregate: one row.
    let out = db.execute("retrieve (n = count(e.salary))").unwrap();
    assert_eq!(out.rows(), [[Value::Int(5)]]);
    // ...even over an empty qualification.
    let out = db
        .execute("retrieve (n = count(e.salary)) where e.salary > 999")
        .unwrap();
    assert_eq!(out.rows(), [[Value::Int(0)]]);
    // min of an empty set is an error the user can see.
    assert!(db
        .execute("retrieve (m = min(e.salary)) where e.salary > 999")
        .is_err());
}

#[test]
fn aggregates_respect_temporal_clauses() {
    // Headcount & payroll as of different valid times — the decision-
    // support queries from the paper's introduction.
    let mut db = Database::in_memory();
    db.execute("create historical interval emp (name = c8, salary = i4)")
        .unwrap();
    db.execute(
        r#"append to emp (name = "a", salary = 10)
           valid from "1980" to "1982""#,
    )
    .unwrap();
    db.execute(
        r#"append to emp (name = "b", salary = 20)
           valid from "1981" to "forever""#,
    )
    .unwrap();
    db.execute("range of e is emp").unwrap();
    let payroll = |db: &mut Database, at: &str| -> i64 {
        db.execute(&format!(
            r#"retrieve (total = sum(e.salary)) when e overlap "{at}""#
        ))
        .unwrap()
        .rows()[0][0]
            .as_int()
            .unwrap()
    };
    assert_eq!(payroll(&mut db, "6/1/80"), 10);
    assert_eq!(payroll(&mut db, "6/1/81"), 30);
    assert_eq!(payroll(&mut db, "6/1/83"), 20);
}

#[test]
fn aggregates_are_rejected_outside_targets() {
    let mut db = Database::in_memory();
    db.execute("create static s (x = i4)").unwrap();
    db.execute("range of v is s").unwrap();
    assert!(db.execute("retrieve (v.x) where sum(v.x) > 3").is_err());
    assert!(db.execute("retrieve (v.x) where frob(v.x) > 3").is_err());
    // Aggregates cannot be combined with an explicit valid clause.
    db.execute("create historical interval h (x = i4)").unwrap();
    db.execute("range of w is h").unwrap();
    assert!(db
        .execute(
            r#"retrieve (n = count(w.x)) valid from "1980" to "forever""#
        )
        .is_err());
}

#[test]
fn secondary_index_ddl_and_planner_use() {
    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4, amount = i4)")
        .unwrap();
    db.execute("range of v is t").unwrap();
    for i in 1..=200 {
        db.execute(&format!("append to t (id = {i}, amount = {})", i * 7))
            .unwrap();
    }
    db.execute("modify t to hash on id where fillfactor = 100")
        .unwrap();

    // Baseline: non-key equality scans the whole file.
    let scan_cost = db
        .execute(
            r#"retrieve (v.id) where v.amount = 700 when v overlap "now""#,
        )
        .unwrap()
        .stats
        .input_pages;

    db.execute("index on t is t_amount (amount)").unwrap();
    let meta = db.relation_meta("t").unwrap();
    assert_eq!(meta.index_names, vec!["t_amount"]);

    let out = db
        .execute(
            r#"retrieve (v.id) where v.amount = 700 when v overlap "now""#,
        )
        .unwrap();
    assert_eq!(out.rows()[0][0], Value::Int(100));
    assert!(
        out.stats.input_pages < scan_cost,
        "indexed {} < scan {scan_cost}",
        out.stats.input_pages
    );
    assert!(out.stats.input_pages <= 3);

    // The index follows updates (new versions are indexed on insert).
    db.execute("replace v (amount = 123456) where v.id = 100")
        .unwrap();
    let out = db
        .execute(
            r#"retrieve (v.id) where v.amount = 123456 when v overlap "now""#,
        )
        .unwrap();
    assert_eq!(out.rows().len(), 1);
    // The superseded value no longer matches a current-version query...
    let out = db
        .execute(
            r#"retrieve (v.id) where v.amount = 700 when v overlap "now""#,
        )
        .unwrap();
    assert_eq!(out.rows().len(), 0);
    // ...but is still reachable as history through the same index.
    let out = db.execute("retrieve (v.id) where v.amount = 700").unwrap();
    assert_eq!(out.rows().len(), 1);

    // The index survives reorganization (modify rebuilds it).
    db.execute("modify t to isam on id where fillfactor = 50")
        .unwrap();
    let out = db
        .execute(
            r#"retrieve (v.id) where v.amount = 123456 when v overlap "now""#,
        )
        .unwrap();
    assert_eq!(out.rows().len(), 1);

    // destroy drops the index by name.
    db.execute("destroy t_amount").unwrap();
    assert!(db.relation_meta("t").unwrap().index_names.is_empty());
    let out = db
        .execute(
            r#"retrieve (v.id) where v.amount = 123456 when v overlap "now""#,
        )
        .unwrap();
    assert_eq!(out.rows().len(), 1); // falls back to a scan, still correct
}

#[test]
fn index_ddl_errors() {
    let mut db = Database::in_memory();
    db.execute("create static s (id = i4, x = i4)").unwrap();
    db.execute("modify s to hash on id where fillfactor = 100")
        .unwrap();
    assert!(db.execute("index on nope is i1 (x)").is_err());
    assert!(db.execute("index on s is i1 (nope)").is_err());
    // Redundant index on the primary key is rejected.
    assert!(db.execute("index on s is i1 (id)").is_err());
    db.execute("index on s is i1 (x)").unwrap();
    // Duplicate names (vs. relations or other indexes) are rejected.
    assert!(db.execute("index on s is i1 (x)").is_err());
    assert!(db.execute("index on s is s (x)").is_err());
    assert!(db.execute("create static i1 (y = i4)").is_err());
    // Only one index per attribute can be used; a second on the same attr
    // is allowed but pointless — verify creation succeeds with a new name.
    db.execute("index on s is i2 (x) to heap").unwrap();
}

#[test]
fn static_updates_keep_indexes_consistent() {
    let mut db = Database::in_memory();
    db.execute("create static s (id = i4, x = i4)").unwrap();
    db.execute("range of v is s").unwrap();
    for i in 1..=50 {
        db.execute(&format!("append to s (id = {i}, x = {})", i % 5))
            .unwrap();
    }
    db.execute("index on s is s_x (x)").unwrap();
    // In-place replace of an indexed attribute rebuilds the index.
    db.execute("replace v (x = 99) where v.id = 7").unwrap();
    let out = db.execute("retrieve (v.id) where v.x = 99").unwrap();
    assert_eq!(out.rows(), [[Value::Int(7)]]);
    let out = db.execute("retrieve (v.id) where v.x = 2").unwrap();
    assert_eq!(out.rows().len(), 9); // 10 ids ≡ 2 (mod 5), minus id 7
                                     // Physical delete compacts pages; the index is rebuilt.
    db.execute("delete v where v.id = 12").unwrap();
    let out = db.execute("retrieve (v.id) where v.x = 2").unwrap();
    assert_eq!(out.rows().len(), 8);
}

#[test]
fn file_backed_database_survives_reopen() {
    let dir = std::env::temp_dir()
        .join(format!("tdbms-reopen-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let final_clock;
    let second_clock;
    {
        let mut db = Database::open_durable(&dir).unwrap();
        db.execute(
            "create temporal interval emp (name = c12, salary = i4)",
        )
        .unwrap();
        db.execute("range of e is emp").unwrap();
        db.execute(r#"append to emp (name = "ibsen", salary = 100)"#)
            .unwrap();
        db.execute(r#"append to emp (name = "padma", salary = 200)"#)
            .unwrap();
        db.execute(r#"replace e (salary = 150) where e.name = "ibsen""#)
            .unwrap();
        db.execute("modify emp to hash on name where fillfactor = 100")
            .unwrap();
        db.execute("index on emp is emp_sal (salary)").unwrap();
        final_clock = db.clock().now();
    } // drop: "process exits"

    {
        let mut db = Database::open_durable(&dir).unwrap();
        db.clock().advance_to(final_clock);
        let meta = db.relation_meta("emp").unwrap();
        assert_eq!(meta.class, DatabaseClass::Temporal);
        assert_eq!(meta.tuple_count, 4); // 2 appends + 2 from the replace
        assert_eq!(meta.key.as_deref(), Some("name"));
        assert_eq!(meta.index_names, vec!["emp_sal"]);
        db.execute("range of e is emp").unwrap();
        // Current state, history, and the index all survived.
        let out = db
            .execute(r#"retrieve (e.salary) when e overlap "now""#)
            .unwrap();
        let mut sal: Vec<i64> =
            out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        sal.sort_unstable();
        assert_eq!(sal, vec![150, 200]);
        let out = db
            .execute(r#"retrieve (e.name) where e.salary = 150"#)
            .unwrap();
        assert_eq!(out.rows()[0][0], Value::Str("ibsen".into()));
        // And the database remains updatable.
        db.execute(r#"delete e where e.name = "padma""#).unwrap();
        second_clock = db.clock().now();
    }
    {
        let mut db = Database::open_durable(&dir).unwrap();
        // Advance past everything the previous session recorded (the
        // clock is session state and does not persist).
        db.clock().advance_to(second_clock);
        db.execute("range of e is emp").unwrap();
        let out = db
            .execute(r#"retrieve (e.name) when e overlap "now""#)
            .unwrap();
        assert_eq!(out.rows().len(), 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn three_way_joins_substitute_recursively() {
    let mut db = Database::in_memory();
    db.execute("create static a (id = i4, b_id = i4)").unwrap();
    db.execute("create static b (id = i4, c_id = i4)").unwrap();
    db.execute("create static c (id = i4, label = i4)").unwrap();
    for i in 1..=12 {
        db.execute(&format!("append to a (id = {i}, b_id = {})", 13 - i))
            .unwrap();
        db.execute(&format!(
            "append to b (id = {i}, c_id = {})",
            (i % 4) + 1
        ))
        .unwrap();
        db.execute(&format!("append to c (id = {i}, label = {})", i * 100))
            .unwrap();
    }
    db.execute("modify b to hash on id where fillfactor = 100")
        .unwrap();
    db.execute("modify c to isam on id where fillfactor = 100")
        .unwrap();
    db.execute("range of x is a").unwrap();
    db.execute("range of y is b").unwrap();
    db.execute("range of z is c").unwrap();
    let out = db
        .execute(
            "retrieve (x.id, z.label) \
             where x.b_id = y.id and y.c_id = z.id and x.id < 4",
        )
        .unwrap();
    // x.id=1 → y=12 → c_id=1 → label 100; x.id=2 → y=11 → c_id=4 → 400;
    // x.id=3 → y=10 → c_id=3 → 300.
    let mut got: Vec<(i64, i64)> = out
        .rows()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![(1, 100), (2, 400), (3, 300)]);
}

#[test]
fn retrieve_into_with_aggregates_materializes_groups() {
    let mut db = Database::in_memory();
    db.execute("create static pay (dept = c8, amount = i4)")
        .unwrap();
    for (d, a) in [("x", 10), ("x", 20), ("y", 5)] {
        db.execute(&format!(
            r#"append to pay (dept = "{d}", amount = {a})"#
        ))
        .unwrap();
    }
    db.execute("range of p is pay").unwrap();
    db.execute("retrieve into totals (p.dept, total = sum(p.amount)) ")
        .unwrap();
    let meta = db.relation_meta("totals").unwrap();
    assert_eq!(meta.class, DatabaseClass::Static);
    assert_eq!(meta.tuple_count, 2);
    db.execute("range of t is totals").unwrap();
    let out = db
        .execute(r#"retrieve (t.total) where t.dept = "x""#)
        .unwrap();
    assert_eq!(out.rows(), [[Value::Int(30)]]);
}

#[test]
fn temporal_event_relations_roll_back() {
    let mut db = Database::in_memory();
    db.execute("create temporal event ping (host = i4)")
        .unwrap();
    db.execute("range of p is ping").unwrap();
    db.execute(r#"append to ping (host = 1) valid at "1/5/80""#)
        .unwrap();
    db.execute(r#"append to ping (host = 2) valid at "2/5/80""#)
        .unwrap();
    let before_delete = db.clock().now();
    // Deleting an event on a temporal relation hides it from the current
    // record while keeping it reachable by rollback.
    db.execute("delete p where p.host = 1").unwrap();
    let out = db.execute("retrieve (p.host)").unwrap();
    assert_eq!(ints(&out, "host"), vec![2]);
    let t = before_delete.format(tdbms_kernel::Granularity::Second);
    let out = db
        .execute(&format!(r#"retrieve (p.host) as of "{t}""#))
        .unwrap();
    assert_eq!(ints(&out, "host"), vec![1, 2]);
    // Event algebra: which events precede a date?
    let out = db
        .execute(r#"retrieve (p.host) when p precede "1/20/80""#)
        .unwrap();
    assert_eq!(out.rows().len(), 0); // host 1's event was deleted
    let out = db
        .execute(&format!(
            r#"retrieve (p.host) when p precede "1/20/80" as of "{t}""#
        ))
        .unwrap();
    assert_eq!(ints(&out, "host"), vec![1]);
}

#[test]
fn sort_by_orders_results() {
    let mut db = Database::in_memory();
    db.execute("create static s (id = i4, x = i4)").unwrap();
    for (id, x) in [(3, 30), (1, 30), (2, 10)] {
        db.execute(&format!("append to s (id = {id}, x = {x})"))
            .unwrap();
    }
    db.execute("range of v is s").unwrap();
    let out = db
        .execute("retrieve (v.id, v.x) sort by x desc, id asc")
        .unwrap();
    let got: Vec<i64> =
        out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, vec![1, 3, 2]);
    // Sorting by the implicit valid columns works on versioned relations.
    db.execute("create historical interval h (id = i4)")
        .unwrap();
    db.execute("range of w is h").unwrap();
    db.execute(r#"append to h (id = 2) valid from "1982" to "forever""#)
        .unwrap();
    db.execute(r#"append to h (id = 1) valid from "1981" to "forever""#)
        .unwrap();
    let out = db.execute("retrieve (w.id) sort by valid_from").unwrap();
    let got: Vec<i64> =
        out.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, vec![1, 2]);
    // Unknown sort columns are rejected.
    assert!(db.execute("retrieve (v.id) sort by nope").is_err());
}

/// Replace the key of row 7 of a keyed relation built from `create` and
/// `modify`. The row must move to the new key's bucket or page: a keyed
/// retrieve finds it under the new key and not the old, and the stored
/// count is unchanged.
fn replace_moves_a_rekeyed_row(create: &str, modify: &str) {
    let mut db = Database::in_memory();
    db.execute(create).unwrap();
    for i in 1..=3000 {
        db.execute(&format!("append to s (id = {i}, x = {i})"))
            .unwrap();
    }
    db.execute(modify).unwrap();
    db.execute("range of v is s").unwrap();
    let before = db.relation_meta("s").unwrap().tuple_count;
    db.execute("replace v (id = 100000) where v.id = 7")
        .unwrap();
    let out = db.execute("retrieve (v.x) where v.id = 100000").unwrap();
    assert_eq!(ints(&out, "x"), vec![7], "{create}; {modify}");
    let out = db.execute("retrieve (v.x) where v.id = 7").unwrap();
    assert_eq!(out.rows().len(), 0, "{create}; {modify}: old key");
    let out = db.execute("retrieve (v.x) where v.x = 7").unwrap();
    assert_eq!(out.rows().len(), 1, "{create}; {modify}: scan");
    assert_eq!(db.relation_meta("s").unwrap().tuple_count, before);
}

#[test]
fn replace_of_a_static_hash_key_moves_the_row() {
    replace_moves_a_rekeyed_row(
        "create static s (id = i4, x = i4)",
        "modify s to hash on id",
    );
}

#[test]
fn replace_of_a_static_isam_key_moves_the_row() {
    replace_moves_a_rekeyed_row(
        "create static s (id = i4, x = i4)",
        "modify s to isam on id",
    );
}

#[test]
fn replace_of_a_historical_event_isam_key_moves_the_row() {
    replace_moves_a_rekeyed_row(
        "create historical event s (id = i4, x = i4)",
        "modify s to isam on id",
    );
}

#[test]
fn replace_rejects_an_attribute_assigned_twice() {
    let mut db = Database::in_memory();
    db.execute("create static s (id = i4, x = i4)").unwrap();
    db.execute("append to s (id = 1, x = 1)").unwrap();
    db.execute("range of v is s").unwrap();
    let err = db
        .execute("replace v (x = 5, x = 6) where v.id = 1")
        .unwrap_err();
    assert!(err.to_string().contains("assigned twice"), "{err}");
    let out = db.execute("retrieve (v.x)").unwrap();
    assert_eq!(ints(&out, "x"), vec![1]);
}
