//! Property tests for the extension features: aggregates against a naive
//! model, `copy` round-trips, and catalog persistence under random
//! schemas.

use std::collections::BTreeMap;
use tdbms::{Database, Value};
use tdbms_prop::{check, Gen};

/// Grouped aggregates agree with a naive recomputation for arbitrary
/// data.
#[test]
fn aggregates_agree_with_naive_model() {
    check("aggregates_agree_with_naive_model", 32, |g: &mut Gen| {
        let rows =
            g.vec(1..80, |g| (g.range(0i32..6), g.range(-1000i32..1000)));
        let mut db = Database::in_memory();
        db.execute("create static t (grp = i4, x = i4)").unwrap();
        for (grp, x) in &rows {
            db.execute(&format!("append to t (grp = {grp}, x = {x})"))
                .unwrap();
        }
        db.execute("range of v is t").unwrap();
        let out = db
            .execute(
                "retrieve (v.grp, n = count(v.x), s = sum(v.x), \
                 lo = min(v.x), hi = max(v.x), m = avg(v.x))",
            )
            .unwrap();

        let mut model: BTreeMap<i32, Vec<i64>> = BTreeMap::new();
        for (grp, x) in &rows {
            model.entry(*grp).or_default().push(*x as i64);
        }
        assert_eq!(out.rows().len(), model.len());
        for row in out.rows() {
            let grp = row[0].as_int().unwrap() as i32;
            let xs = model.get(&grp).expect("group exists in model");
            assert_eq!(row[1].as_int().unwrap(), xs.len() as i64);
            assert_eq!(row[2].as_int().unwrap(), xs.iter().sum::<i64>());
            assert_eq!(row[3].as_int().unwrap(), *xs.iter().min().unwrap());
            assert_eq!(row[4].as_int().unwrap(), *xs.iter().max().unwrap());
            let avg = xs.iter().sum::<i64>() as f64 / xs.len() as f64;
            let got = match &row[5] {
                Value::Float(f) => *f,
                other => panic!("avg should be float, got {other}"),
            };
            assert!((got - avg).abs() < 1e-9);
        }
    });
}

/// One generated `copy` round-trip case; also the body of the recorded
/// regression below. Payloads are printable without quote/backslash
/// (TQuel string escapes) and get trimmed (the blank-padded c-domain
/// trims edge whitespace).
fn copy_roundtrip_case(
    label: &str,
    rows: &[(i32, i32, String)],
    updates: &[(i32, i32)],
) {
    let dir =
        tdbms_kernel::tmpdir::fresh_dir(&format!("prop-copy-{label}"));
    let path = dir.join("data.tq");
    let path_s = path.to_str().unwrap();

    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4, x = i4, note = c12)")
        .unwrap();
    db.execute("range of v is t").unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for (id, x, note) in rows {
        if !seen.insert(*id) {
            continue;
        }
        // quote_str escapes `"` and `\` the way the lexer expects.
        db.execute(&format!(
            "append to t (id = {id}, x = {x}, note = {})",
            tdbms::tquel::printer::quote_str(note.trim())
        ))
        .unwrap();
    }
    for (id, x) in updates {
        db.execute(&format!("replace v (x = {x}) where v.id = {id}"))
            .unwrap();
    }
    db.execute(&format!(r#"copy t into "{path_s}""#)).unwrap();

    let mut db2 = Database::in_memory();
    db2.clock().advance_to(db.clock().now());
    db2.execute("create temporal interval t (id = i4, x = i4, note = c12)")
        .unwrap();
    db2.execute(&format!(r#"copy t from "{path_s}""#)).unwrap();
    db2.execute("range of v is t").unwrap();

    assert_eq!(
        db.relation_meta("t").unwrap().tuple_count,
        db2.relation_meta("t").unwrap().tuple_count
    );
    // Every version (id, x, valid_from, valid_to, tx times) matches.
    let dump = |d: &mut Database| -> Vec<Vec<String>> {
        let out = d
            .execute(
                "retrieve (v.id, v.x, v.note, v.valid_from, v.valid_to, \
                 v.transaction_start, v.transaction_stop) \
                 as of \"beginning\" through \"forever\"",
            )
            .unwrap();
        let mut rows: Vec<Vec<String>> = out
            .rows()
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(dump(&mut db), dump(&mut db2));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `copy into` followed by `copy from` reproduces the relation
/// exactly, including version history, for arbitrary contents.
#[test]
fn copy_roundtrips_arbitrary_history() {
    check("copy_roundtrips_arbitrary_history", 32, |g: &mut Gen| {
        let rows = g.vec(1..40, |g| {
            (
                g.range(1i32..20),
                g.range(-100i32..100),
                g.string_from(
                    b"abcdefghijklmnopqrstuvwxyz0123456789,.;:'",
                    0..11,
                ),
            )
        });
        let updates =
            g.vec(0..15, |g| (g.range(1i32..20), g.range(-100i32..100)));
        let label = format!("{:x}", g.seed());
        copy_roundtrip_case(&label, &rows, &updates);
    });
}

/// Recorded proptest counterexample (tests/proptest_features.proptest-
/// regressions): `rows = [(1, 0, "\\")]`, `updates = []`. A note
/// consisting of a single backslash must survive the append → copy-out
/// → copy-in pipeline verbatim. (Root cause was TQuel quoting: the
/// lexer reads `\x` as an escape but nothing escaped `\` on the way
/// out, so the literal `"\"` was unterminated; `printer::quote_str` is
/// the fix.)
#[test]
fn regression_copy_roundtrip_backslash_note() {
    copy_roundtrip_case(
        "regression-backslash",
        &[(1, 0, "\\".into())],
        &[],
    );
}

/// A file-backed database reopened after arbitrary DDL/DML reports the
/// same catalog state and answers the same current-state query.
#[test]
fn persistence_roundtrips_random_workloads() {
    check(
        "persistence_roundtrips_random_workloads",
        32,
        |g: &mut Gen| {
            let n_rels = g.range(1usize..4);
            let rows =
                g.vec(1..30, |g| (g.range(0i32..30), g.range(-50i32..50)));
            let seed = g.range(0u64..1000);
            let dir = tdbms_kernel::tmpdir::fresh_dir(&format!(
                "prop-persist-{seed}"
            ));

            let classes = ["static", "rollback", "historical", "temporal"];
            let mut expected: Vec<(String, u64)> = Vec::new();
            {
                let mut db = Database::open_durable(&dir).unwrap();
                for r in 0..n_rels {
                    let class =
                        classes[(seed as usize + r) % classes.len()];
                    let name = format!("r{r}");
                    db.execute(&format!(
                        "create {class} interval {name} (id = i4, x = i4)"
                    ))
                    .unwrap();
                    for (i, (id, x)) in rows.iter().enumerate() {
                        if i % n_rels == r {
                            db.execute(&format!(
                                "append to {name} (id = {id}, x = {x})"
                            ))
                            .unwrap();
                        }
                    }
                    if seed.is_multiple_of(2) {
                        db.execute(&format!(
                        "modify {name} to hash on id where fillfactor = 50"
                    ))
                        .unwrap();
                    }
                    expected.push((
                        name.clone(),
                        db.relation_meta(&name).unwrap().tuple_count,
                    ));
                }
            }
            {
                let db = Database::open_durable(&dir).unwrap();
                for (name, count) in &expected {
                    let meta = db.relation_meta(name).unwrap();
                    assert_eq!(meta.tuple_count, *count, "{name}");
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        },
    );
}
