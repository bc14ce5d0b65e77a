//! Model-based property tests of the temporal semantics: a temporal
//! database must agree, at every probed instant, with a naive in-memory
//! model that replays the same operation sequence.

use std::collections::BTreeMap;
use tdbms::{Database, Granularity, TimeVal};
use tdbms_prop::{check, Gen};

/// One randomized operation against the test relation.
#[derive(Debug, Clone)]
enum Op {
    Append { id: i32, x: i32 },
    Replace { id: i32, x: i32 },
    Delete { id: i32 },
}

fn arb_op(g: &mut Gen) -> Op {
    match g.range(0u8..3) {
        0 => Op::Append {
            id: g.range(0i32..12),
            x: g.any_i32(),
        },
        1 => Op::Replace {
            id: g.range(0i32..12),
            x: g.any_i32(),
        },
        _ => Op::Delete {
            id: g.range(0i32..12),
        },
    }
}

/// The naive model: per id, the currently valid value (if any).
type Model = BTreeMap<i32, i32>;

fn apply_model(model: &mut Model, op: &Op) {
    match op {
        Op::Append { id, x } => {
            // Mirrors the DBMS: appending a second current version for the
            // same id simply records another valid tuple; to keep the
            // model a function we only append when absent (the driver
            // below enforces this).
            model.entry(*id).or_insert(*x);
        }
        Op::Replace { id, x } => {
            if let Some(v) = model.get_mut(id) {
                *v = *x;
            }
        }
        Op::Delete { id } => {
            model.remove(id);
        }
    }
}

fn current_state(db: &mut Database, suffix: &str) -> Model {
    let out = db
        .execute(&format!(
            r#"retrieve (t.id, t.x) when t overlap "now"{suffix}"#
        ))
        .unwrap();
    out.rows()
        .iter()
        .map(|r| {
            (r[0].as_int().unwrap() as i32, r[1].as_int().unwrap() as i32)
        })
        .collect()
}

/// The property body: replay `ops` against both the DBMS and the model;
/// also the body of the recorded regression below.
fn temporal_replay_case(ops: &[Op]) {
    let mut db = Database::in_memory();
    db.execute("create temporal interval t (id = i4, x = i4)")
        .unwrap();
    db.execute("range of t is t").unwrap();
    let mut model = Model::new();
    let mut snapshots: Vec<(TimeVal, Model)> = Vec::new();
    let mut expected_versions: u64 = 0;

    for op in ops {
        match op {
            Op::Append { id, x } => {
                if model.contains_key(id) {
                    continue; // keep ids unique, as the model assumes
                }
                db.execute(&format!("append to t (id = {id}, x = {x})"))
                    .unwrap();
                expected_versions += 1;
            }
            Op::Replace { id, x } => {
                let n = db
                    .execute(&format!(
                        "replace t (x = {x}) where t.id = {id}"
                    ))
                    .unwrap()
                    .affected;
                assert_eq!(n == 1, model.contains_key(id));
                expected_versions += 2 * n as u64;
            }
            Op::Delete { id } => {
                let n = db
                    .execute(&format!("delete t where t.id = {id}"))
                    .unwrap()
                    .affected;
                assert_eq!(n == 1, model.contains_key(id));
                expected_versions += n as u64;
            }
        }
        apply_model(&mut model, op);
        // Probe strictly between statements (the clock steps 60 s per
        // statement): at the exact instant of an update both the
        // closing and the opening version hold under TQuel's
        // attribute-value (closed) interval comparisons, so the
        // half-instant probe is the unambiguous snapshot.
        let between = TimeVal::from_secs(db.clock().now().as_secs() + 30);
        snapshots.push((between, model.clone()));
    }

    // (1) current state.
    assert_eq!(current_state(&mut db, ""), model);

    // (3) stored version count.
    let meta = db.relation_meta("t").unwrap();
    assert_eq!(meta.tuple_count, expected_versions);

    // (2) rollback to every snapshot instant. "now" in the when clause
    // must also be rolled back: query valid-at the snapshot instant.
    for (at, snap) in &snapshots {
        let s = at.format(Granularity::Second);
        let out = db
            .execute(&format!(
                r#"retrieve (t.id, t.x) when t overlap "{s}" as of "{s}""#
            ))
            .unwrap();
        let got: Model = out
            .rows()
            .iter()
            .map(|r| {
                (
                    r[0].as_int().unwrap() as i32,
                    r[1].as_int().unwrap() as i32,
                )
            })
            .collect();
        assert_eq!(&got, snap, "as of {s}");
    }
}

/// After any operation sequence: (1) the current state equals the
/// model; (2) the state as-of each recorded instant equals the model
/// snapshot taken then; (3) version counts follow Section 4's
/// accounting (replace = 2 inserts, delete = 1, append = 1).
#[test]
fn temporal_database_replays_like_the_model() {
    check(
        "temporal_database_replays_like_the_model",
        32,
        |g: &mut Gen| {
            let ops = g.vec(1..40, arb_op);
            temporal_replay_case(&ops);
        },
    );
}

/// Recorded proptest counterexample (tests/proptest_semantics.proptest-
/// regressions): `ops = [Append { id: 10, x: 0 }, Replace { id: 10,
/// x: 0 }]` — a replace that writes the *same* value must still close
/// the old version and open a new one (version count 3, not 1), and the
/// as-of probes around the replace must each see exactly one version.
#[test]
fn regression_replace_with_identical_value_versions_correctly() {
    temporal_replay_case(&[
        Op::Append { id: 10, x: 0 },
        Op::Replace { id: 10, x: 0 },
    ]);
}

/// A rollback database and a temporal database given the same updates
/// agree on every rolled-back current state.
#[test]
fn rollback_and_temporal_agree_on_transaction_time() {
    check(
        "rollback_and_temporal_agree_on_transaction_time",
        32,
        |g: &mut Gen| {
            let ops = g.vec(1..25, arb_op);
            let mut rb = Database::in_memory();
            rb.execute("create rollback r (id = i4, x = i4)").unwrap();
            rb.execute("range of v is r").unwrap();
            let mut tp = Database::in_memory();
            tp.execute("create temporal interval r (id = i4, x = i4)")
                .unwrap();
            tp.execute("range of v is r").unwrap();

            let mut present: std::collections::BTreeSet<i32> =
                Default::default();
            let mut instants = Vec::new();
            for op in &ops {
                let stmt = match op {
                    Op::Append { id, x } => {
                        if present.contains(id) {
                            continue;
                        }
                        present.insert(*id);
                        format!("append to r (id = {id}, x = {x})")
                    }
                    Op::Replace { id, x } => {
                        format!("replace v (x = {x}) where v.id = {id}")
                    }
                    Op::Delete { id } => {
                        present.remove(id);
                        format!("delete v where v.id = {id}")
                    }
                };
                rb.execute(&stmt).unwrap();
                tp.execute(&stmt).unwrap();
                assert_eq!(rb.clock().now(), tp.clock().now());
                // Probe between statements (see the comment in the test
                // above about exact-boundary instants).
                instants.push(TimeVal::from_secs(
                    rb.clock().now().as_secs() + 30,
                ));
            }

            for at in &instants {
                let s = at.format(Granularity::Second);
                let probe_rb =
                    format!(r#"retrieve (v.id, v.x) as of "{s}""#);
                // On the temporal side the rolled-back *current* state also
                // needs the valid-time filter at the same instant.
                let probe_tp = format!(
                    r#"retrieve (v.id, v.x) when v overlap "{s}" as of "{s}""#
                );
                let read = |db: &mut Database,
                            q: &str|
                 -> Vec<(i64, i64)> {
                    let out = db.execute(q).unwrap();
                    let mut v: Vec<(i64, i64)> = out
                        .rows()
                        .iter()
                        .map(|r| {
                            (r[0].as_int().unwrap(), r[1].as_int().unwrap())
                        })
                        .collect();
                    v.sort();
                    v
                };
                assert_eq!(
                    read(&mut rb, &probe_rb),
                    read(&mut tp, &probe_tp),
                    "as of {s}"
                );
            }
        },
    );
}

/// The two-level store and the conventional organization hold exactly
/// the same versions after the same update stream.
#[test]
fn two_level_store_is_equivalent_to_conventional() {
    check(
        "two_level_store_is_equivalent_to_conventional",
        32,
        |g: &mut Gen| {
            use tdbms_storage::AccessMethod;

            let rounds = g.range(0u32..6);
            let n = g.range(4i64..24);

            let mut db = Database::in_memory();
            db.execute("create temporal interval t (id = i4, x = i4)")
                .unwrap();
            db.execute("range of t is t").unwrap();
            for id in 1..=n {
                db.execute(&format!("append to t (id = {id}, x = 0)"))
                    .unwrap();
            }
            for r in 1..=rounds {
                db.execute(&format!("replace t (x = {r})")).unwrap();
            }
            // Conventional versions of each id...
            let mut conventional: Vec<Vec<u8>> = Vec::new();
            {
                let (pager, catalog, _) = db.internals();
                let rel =
                    catalog.get(catalog.require("t").unwrap()).file.clone();
                let mut cur = rel.scan();
                while let Some((_, row)) = cur.next(pager, &rel).unwrap() {
                    conventional.push(row.to_vec());
                }
            }
            // ...must equal the union of primary + history in the Figure 10
            // two-level build.
            let schema = db.schema_of("t").unwrap();
            let pager = tdbms_storage::Pager::in_memory();
            let two = tdbms_bench::build_two_level(
                &pager,
                &schema,
                &conventional,
                AccessMethod::Hash,
            )
            .unwrap();
            let mut got: Vec<Vec<u8>> = Vec::new();
            let mut cur = two.primary.scan();
            while let Some((_, row)) =
                cur.next(&pager, &two.primary).unwrap()
            {
                got.push(row.to_vec());
            }
            assert_eq!(got.len(), n as usize);
            assert_eq!(two.history.rows(), 2 * rounds as u64 * n as u64);
            two.history
                .for_all(&pager, |r| {
                    got.push(r.to_vec());
                    Ok(())
                })
                .unwrap();
            let mut want = conventional;
            want.sort();
            got.sort();
            assert_eq!(got, want);
        },
    );
}
