//! No write stores a reversed valid period, no query reads a reversed
//! rollback window, and no delete or replace drops the end of its valid
//! period.
//!
//! A delete or replace retires a current version as of a valid instant.
//! When the version's period starts *after* that instant, ending it there
//! would store `valid_from > valid_to`; instead a historical version is
//! removed and a temporal one only gets its `transaction_stop`. A `valid`
//! clause naming a reversed period, and an `as of … through …` window
//! whose end precedes its start, are refused with a typed error. So is a
//! delete or replace on an interval relation whose `valid` period ends
//! before `"forever"`: §4 retires a version at one valid instant.

use tdbms::wal::MemLog;
use tdbms::{Database, Error, TimeVal, Value};
use tdbms_check::CheckedDb;
use tdbms_kernel::tmpdir::fresh_dir;
use tdbms_storage::MemDisk;

fn rows(db: &mut Database, src: &str) -> Vec<Vec<Value>> {
    db.execute(src)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .rows()
        .to_vec()
}

fn semantic_error(db: &mut Database, src: &str) {
    match db.execute(src) {
        Err(Error::Semantic(_)) => {}
        other => panic!("{src}: expected a semantic error, got {other:?}"),
    }
}

fn time(s: &str) -> Value {
    Value::Time(TimeVal::parse(s).expect(s))
}

#[test]
fn retiring_a_version_that_starts_later_stores_no_reversed_period() {
    let dir = fresh_dir("reversed-periods");
    {
        let mut db = Database::open_durable(&dir).expect("open");
        for src in [
            "create historical interval h (id = i4, x = i4)",
            "create temporal interval t (id = i4, x = i4)",
            "range of v is h",
            "range of u is t",
            r#"append to h (id = 1, x = 1) valid from "1/1/90" to "forever""#,
            r#"append to t (id = 1, x = 1) valid from "1/1/90" to "forever""#,
        ] {
            db.execute(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }

        // The replace takes effect now, before the stored version starts:
        // that version is superseded whole, and only the new one is left.
        let before = Value::Time(db.clock().now());
        db.execute("replace v (x = 2) where v.id = 1")
            .expect("replace");
        let after = Value::Time(db.clock().now());
        let got = rows(&mut db, "retrieve (v.id, v.x)");
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0][..2], [Value::Int(1), Value::Int(2)]);
        let from = &got[0][2];
        assert!(
            from.compare(&before).is_some_and(|o| o.is_ge())
                && from.compare(&after).is_some_and(|o| o.is_le()),
            "the new version starts when the replace ran: {got:?}"
        );
        assert_eq!(got[0][3], Value::Time(TimeVal::FOREVER));
        assert_eq!(db.relation_meta("h").expect("h").tuple_count, 1);

        // The temporal delete ends the version in transaction time only:
        // no closing version, and as of before the delete it is intact.
        db.execute("delete u where u.id = 1").expect("delete");
        assert!(rows(&mut db, "retrieve (u.id)").is_empty());
        let all = rows(
            &mut db,
            r#"retrieve (u.id, u.x) as of "beginning" through "forever""#,
        );
        assert_eq!(
            all,
            [vec![
                Value::Int(1),
                Value::Int(1),
                time("1/1/90"),
                Value::Time(TimeVal::FOREVER),
            ]]
        );
        assert_eq!(db.relation_meta("t").expect("t").tuple_count, 1);

        // A valid clause naming a reversed period is refused, and the
        // statement leaves nothing behind.
        semantic_error(
            &mut db,
            r#"append to h (id = 2) valid from "1/1/90" to "1/1/80""#,
        );
        semantic_error(
            &mut db,
            r#"replace v (x = 3) valid from "1/1/90" to "1/1/80"
               where v.id = 1"#,
        );
        let got = rows(&mut db, "retrieve (v.id, v.x)");
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0][..2], [Value::Int(1), Value::Int(2)]);
        assert_eq!(db.relation_meta("h").expect("h").tuple_count, 1);
    }
    let report = CheckedDb::open(&dir)
        .expect("open for audit")
        .check()
        .expect("audit runs");
    assert!(report.is_clean(), "audit dirty:\n{}", report.render());
}

#[test]
fn a_reversed_as_of_window_is_refused() {
    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4)")
        .expect("create");
    db.execute("append to t (id = 1)").expect("append");
    db.execute("range of u is t").expect("range");
    semantic_error(
        &mut db,
        r#"retrieve (u.id) as of "now" through "1/1/70""#,
    );
    let src = r#"retrieve (u.id) as of "1/1/70" through "now""#;
    assert_eq!(rows(&mut db, src).len(), 1);
}

/// Every stored row of `t`, raw, in scan order.
fn stored(db: &mut Database) -> Vec<Vec<u8>> {
    let (pager, catalog, _) = db.internals();
    let rel = catalog.get(catalog.require("t").expect("t"));
    let mut rows = Vec::new();
    let mut cur = rel.file.scan();
    while let Some((_, row)) = cur.next(pager, &rel.file).expect("scan") {
        rows.push(row.to_vec());
    }
    rows
}

/// A bounded `valid` period on a delete or replace used to be cut to its
/// start: the first two statements kept `x = 10` only until 1975 and
/// lost the fact's future. Now each is refused and leaves the table as
/// it was. So is the third, whose period ends at each target's own
/// start: it retires id 2 (valid from "forever", so its period is
/// unbounded) before it refuses id 3, and the write unit rolls back.
#[test]
fn a_bounded_valid_period_on_delete_or_replace_is_refused() {
    for class in ["temporal", "historical"] {
        let mut db = Database::open_durable_on(
            Box::new(MemDisk::new()),
            Box::new(MemLog::new()),
            None,
        )
        .expect("open");
        for src in [
            &format!("create {class} interval t (id = i4, x = i4)"),
            r#"append to t (id = 1, x = 10) valid from "1/1/1970" to "forever""#,
            r#"append to t (id = 2, x = 10) valid from "forever" to "forever""#,
            r#"append to t (id = 3, x = 10) valid from "1/1/1980" to "forever""#,
            "range of v is t",
        ] {
            db.execute(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
        let before = stored(&mut db);
        for (op, src) in [
            (
                "replace",
                r#"replace v (x = 20) valid from "1/1/1975" to "1/1/1976"
                   where v.id = 1"#,
            ),
            (
                "delete",
                r#"delete v valid from "1/1/1975" to "1/1/1976"
                   where v.id = 1"#,
            ),
            (
                "replace",
                r#"replace v (x = 20) valid from "1/1/1975" to start of v
                   where v.id > 1"#,
            ),
        ] {
            match db.execute(src) {
                Err(Error::NotApplicable(m))
                    if m.contains(op)
                        && m.contains("one valid instant") => {}
                other => panic!("{class}: {src}: {other:?}"),
            }
            assert_eq!(stored(&mut db), before, "{class}: {src}");
        }
        // A period that runs to "forever" still retires as of its start.
        let src = r#"replace v (x = 20) valid from "1/1/1975" to "forever"
                     where v.id = 1"#;
        assert_eq!(db.execute(src).expect(src).affected, 1, "{class}");
    }
}
