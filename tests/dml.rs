//! DML reads its targets through the one-variable query processor and
//! computes a statement's whole effect before its first write.
//!
//! * **Atomicity**: a write statement that fails while it evaluates —
//!   a division by zero in a `replace`, a computed `append` value that
//!   does not fit its attribute, a bad line in a `copy from` file, a
//!   `retrieve into` value that does not fit — leaves every stored
//!   version as it was, on an in-memory [`Database`], an [`Engine`]
//!   session over one, and a durable database alike. Only a durable
//!   database has statement undo; the other two rely on the statement
//!   writing nothing until its effect is known.
//! * **Index probe**: a `delete` or `replace` qualified on an indexed
//!   attribute reads its targets through the index, as a `retrieve`
//!   does, and leaves the same stored versions as on an unindexed twin.

use tdbms::{Database, Engine, Error, ExecOutput, Result, Session, Value};
use tdbms_kernel::tmpdir::fresh_dir;

/// Every stored version of `rel`, in file order, decoded.
fn stored(db: &mut Database, rel: &str) -> Vec<Vec<Value>> {
    let (pager, catalog, _) = db.internals();
    let r = catalog.get(catalog.require(rel).expect(rel));
    let mut scan = r.file.scan();
    let (mut out, mut row) = (Vec::new(), Vec::new());
    while scan.next(pager, &r.file, &mut row).expect("scan").is_some() {
        out.push(r.codec.decode(&row).expect("decode"));
    }
    out
}

/// A database in one of the three configurations a statement can run in.
enum Db {
    Plain(Database),
    Shared(Engine, Session),
}

impl Db {
    fn configurations(tag: &str) -> [(&'static str, Db); 3] {
        let engine = Engine::new(Database::in_memory());
        let session = engine.session();
        let durable = Database::open_durable(fresh_dir(tag)).expect("open");
        [
            ("in-memory", Db::Plain(Database::in_memory())),
            ("engine", Db::Shared(engine, session)),
            ("durable", Db::Plain(durable)),
        ]
    }

    fn exec(&mut self, src: &str) -> Result<ExecOutput> {
        match self {
            Db::Plain(db) => db.execute(src),
            Db::Shared(_, session) => session.execute(src),
        }
    }

    fn stored(&mut self, rel: &str) -> Vec<Vec<Value>> {
        match self {
            Db::Plain(db) => stored(db, rel),
            Db::Shared(engine, _) => {
                engine.with_write(|db| stored(db, rel))
            }
        }
    }

    fn relation_names(&mut self) -> Vec<String> {
        match self {
            Db::Plain(db) => db.relation_names(),
            Db::Shared(engine, _) => {
                engine.with_read(|db| db.relation_names())
            }
        }
    }
}

/// Run `setup`, then `failing`, which must fail with a bad value; every
/// relation in `watched` must hold the versions it held before.
fn leaves_nothing_behind(
    tag: &str,
    setup: &[&str],
    failing: &str,
    watched: &[&str],
) {
    for (mode, mut db) in Db::configurations(tag) {
        for src in setup {
            db.exec(src)
                .unwrap_or_else(|e| panic!("{mode}: {src}: {e}"));
        }
        let before: Vec<_> = watched.iter().map(|r| db.stored(r)).collect();
        let names = db.relation_names();
        match db.exec(failing) {
            Err(Error::BadValue(_)) => {}
            other => panic!("{mode}: {failing}: {other:?}"),
        }
        let after: Vec<_> = watched.iter().map(|r| db.stored(r)).collect();
        assert_eq!(after, before, "{mode}: {failing}: stored versions");
        assert_eq!(db.relation_names(), names, "{mode}: {failing}");
    }
}

#[test]
fn a_replace_that_fails_midway_leaves_nothing_behind() {
    for class in ["static", "rollback", "temporal interval"] {
        leaves_nothing_behind(
            "dml-replace",
            &[
                &format!("create {class} r (id = i4, y = i4)"),
                "append to r (id = 1, y = 1)",
                "append to r (id = 2, y = 0)",
                "range of v is r",
            ],
            "replace v (y = 100 / v.y)",
            &["r"],
        );
    }
}

#[test]
fn a_computed_append_with_a_value_that_does_not_fit_appends_nothing() {
    leaves_nothing_behind(
        "dml-append",
        &[
            "create static t (x = i2)",
            "create static s (x = i4)",
            "append to s (x = 5)",
            "append to s (x = 6)",
            "append to s (x = 100000)",
            "range of w is s",
        ],
        "append to t (x = w.x)",
        &["t", "s"],
    );
}

#[test]
fn a_copy_from_with_a_bad_line_loads_nothing() {
    let file = fresh_dir("dml-copy-file").join("rows.csv");
    std::fs::write(&file, "1,5\n2,x\n").expect("write copy file");
    let copy = format!("copy c from {:?}", file.display().to_string());
    leaves_nothing_behind(
        "dml-copy",
        &[
            "create static c (id = i4, y = i4)",
            "append to c (id = 0, y = 0)",
        ],
        &copy,
        &["c"],
    );
}

#[test]
fn a_retrieve_into_with_a_value_that_does_not_fit_creates_nothing() {
    leaves_nothing_behind(
        "dml-into",
        &[
            "create static s (x = i4)",
            "append to s (x = 5)",
            "append to s (x = 100000)",
            "range of w is s",
        ],
        "retrieve into o (x = w.x * 100000)",
        &["s"],
    );
}

/// The field-count message names one count when a relation's explicit
/// and stored attributes are the same.
#[test]
fn copy_names_the_field_counts_it_accepts() {
    let dir = fresh_dir("dml-copy-counts");
    let file = dir.join("rows.csv");
    std::fs::write(&file, "1,2,3\n").expect("write copy file");
    let mut db = Database::in_memory();
    for (class, expected) in [
        ("static", "expected 2 fields, found 3"),
        ("rollback", "expected 2 or 4 fields, found 3"),
    ] {
        db.execute(&format!("create {class} {class}_c (id = i4, y = i4)"))
            .expect("create");
        let copy =
            format!("copy {class}_c from {:?}", file.display().to_string());
        match db.execute(&copy) {
            Err(Error::BadValue(m)) if m.contains(expected) => {}
            other => panic!("{class}: {other:?}"),
        }
    }
}

/// `delete` and `replace` qualified on an indexed non-key attribute
/// read fewer input pages than on an unindexed twin and leave the same
/// stored versions. (On a relation without transaction time a removal
/// rebuilds the index, which reads the whole file: the classes here
/// retire by stamping.)
#[test]
fn dml_probes_a_secondary_index() {
    for class in ["rollback", "temporal interval"] {
        let mut dbs = [true, false].map(|indexed| {
            let mut db = Database::in_memory();
            let mut run = |src: &str| {
                db.execute(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            };
            run(&format!(
                "create {class} t (id = i4, amount = i4, string = c96)"
            ));
            for i in 1..=400 {
                run(&format!(
                    "append to t (id = {i}, amount = {})",
                    i % 50
                ));
            }
            run("modify t to hash on id where fillfactor = 100");
            // Both databases run as many statements, so both clocks agree.
            run(if indexed {
                "index on t is t_amount (amount)"
            } else {
                "range of v is t"
            });
            run("range of v is t");
            db
        });
        for stmt in [
            "delete v where v.amount = 7",
            "replace v (amount = 7) where v.amount = 8",
            "replace v (id = v.id + 1000) where v.amount = 9",
        ] {
            let [indexed, twin] = dbs.each_mut().map(|db| {
                db.execute(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"))
            });
            assert_eq!(indexed.affected, 8, "{class}: {stmt}");
            assert_eq!(indexed.affected, twin.affected, "{class}: {stmt}");
            assert!(
                indexed.stats.input_pages < twin.stats.input_pages,
                "{class}: {stmt}: indexed {} < scan {}",
                indexed.stats.input_pages,
                twin.stats.input_pages
            );
            // Index order may differ from file order, so the versions
            // may sit in other slots: compare them as sets.
            let [a, b] = dbs.each_mut().map(|db| {
                let mut versions = stored(db, "t");
                versions.sort_by_key(|v| format!("{v:?}"));
                versions
            });
            assert_eq!(a, b, "{class}: {stmt}: stored versions");
        }
    }
}
