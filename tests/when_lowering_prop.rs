//! Differential check of `when` and `valid` evaluation: random temporal
//! predicate trees over small historical interval and event relations,
//! answered by the database and by a model built from [`TInterval`]'s
//! methods (`start`, `end`, `intersect`, `span`, `precedes`, `overlaps`,
//! `equals`).
//!
//! Operands are drawn from overlapping ranges, so the trees routinely
//! build *empty* intersections (`lo > hi`). The model pins today's
//! answers for those: the constructors never test emptiness, and only
//! the `overlap` predicate does, as `max(lo) <= min(hi)`. For example
//! `start of (v overlap "1/1/70") precede v` holds for every `v` that
//! starts after 1970, although the intersection is empty, while that
//! intersection overlaps nothing — not even `"1/1/70" extend v`, which
//! two endpoint comparisons would say it does.

use tdbms::{Database, Granularity, TInterval, TimeVal, Value};
use tdbms_prop::{check, Gen};

/// Midnight, 1 January 1980.
const BASE: u32 = 315_532_800;

fn day(d: u32) -> TimeVal {
    TimeVal::from_secs(BASE + d * 86_400)
}

/// A temporal expression over the variables `VARS[..n]`.
#[derive(Debug)]
enum TExpr {
    Var(usize),
    Const(TimeVal),
    Start(Box<TExpr>),
    End(Box<TExpr>),
    Overlap(Box<TExpr>, Box<TExpr>),
    Extend(Box<TExpr>, Box<TExpr>),
}

#[derive(Debug)]
enum TPred {
    Precede(TExpr, TExpr),
    Overlap(TExpr, TExpr),
    Equal(TExpr, TExpr),
    And(Box<TPred>, Box<TPred>),
    Or(Box<TPred>, Box<TPred>),
    Not(Box<TPred>),
}

const VARS: [&str; 3] = ["v", "w", "x"];

/// Random `when` queries asked of each generated database.
const QUERIES_PER_CASE: usize = 8;

fn arb_const(g: &mut Gen) -> TimeVal {
    match g.range(0u8..8) {
        0 => TimeVal::BEGINNING,
        1 => TimeVal::FOREVER,
        _ => day(g.range(0u32..70)),
    }
}

fn arb_expr(g: &mut Gen, depth: u32, nvars: usize) -> TExpr {
    if depth == 0 || g.range(0u8..5) == 0 {
        return if g.bool() {
            TExpr::Var(g.range(0..nvars))
        } else {
            TExpr::Const(arb_const(g))
        };
    }
    let sub = |g: &mut Gen| Box::new(arb_expr(g, depth - 1, nvars));
    match g.range(0u8..4) {
        0 => TExpr::Start(sub(g)),
        1 => TExpr::End(sub(g)),
        2 => TExpr::Overlap(sub(g), sub(g)),
        _ => TExpr::Extend(sub(g), sub(g)),
    }
}

fn arb_pred(g: &mut Gen, depth: u32, nvars: usize) -> TPred {
    if depth == 0 || g.range(0u8..2) == 0 {
        let (a, b) = (arb_expr(g, 2, nvars), arb_expr(g, 2, nvars));
        return match g.range(0u8..3) {
            0 => TPred::Precede(a, b),
            1 => TPred::Overlap(a, b),
            _ => TPred::Equal(a, b),
        };
    }
    let sub = |g: &mut Gen| Box::new(arb_pred(g, depth - 1, nvars));
    match g.range(0u8..3) {
        0 => TPred::And(sub(g), sub(g)),
        1 => TPred::Or(sub(g), sub(g)),
        _ => TPred::Not(sub(g)),
    }
}

fn lit(t: TimeVal) -> String {
    format!("\"{}\"", t.format(Granularity::Second))
}

fn expr_src(e: &TExpr) -> String {
    match e {
        TExpr::Var(i) => VARS[*i].to_string(),
        TExpr::Const(t) => lit(*t),
        TExpr::Start(x) => format!("start of ({})", expr_src(x)),
        TExpr::End(x) => format!("end of ({})", expr_src(x)),
        TExpr::Overlap(a, b) => {
            format!("({} overlap {})", expr_src(a), expr_src(b))
        }
        TExpr::Extend(a, b) => {
            format!("({} extend {})", expr_src(a), expr_src(b))
        }
    }
}

fn pred_src(p: &TPred) -> String {
    let cmp = |a: &TExpr, op: &str, b: &TExpr| {
        format!("({} {op} {})", expr_src(a), expr_src(b))
    };
    match p {
        TPred::Precede(a, b) => cmp(a, "precede", b),
        TPred::Overlap(a, b) => cmp(a, "overlap", b),
        TPred::Equal(a, b) => cmp(a, "equal", b),
        TPred::And(a, b) => {
            format!("({} and {})", pred_src(a), pred_src(b))
        }
        TPred::Or(a, b) => format!("({} or {})", pred_src(a), pred_src(b)),
        TPred::Not(a) => format!("not {}", pred_src(a)),
    }
}

fn eval(e: &TExpr, spans: &[TInterval]) -> TInterval {
    match e {
        TExpr::Var(i) => spans[*i],
        TExpr::Const(t) => TInterval::event(*t),
        TExpr::Start(x) => eval(x, spans).start(),
        TExpr::End(x) => eval(x, spans).end(),
        TExpr::Overlap(a, b) => eval(a, spans).intersect(&eval(b, spans)),
        TExpr::Extend(a, b) => eval(a, spans).span(&eval(b, spans)),
    }
}

fn holds(p: &TPred, spans: &[TInterval]) -> bool {
    match p {
        TPred::Precede(a, b) => eval(a, spans).precedes(&eval(b, spans)),
        TPred::Overlap(a, b) => eval(a, spans).overlaps(&eval(b, spans)),
        TPred::Equal(a, b) => eval(a, spans).equals(&eval(b, spans)),
        TPred::And(a, b) => holds(a, spans) && holds(b, spans),
        TPred::Or(a, b) => holds(a, spans) || holds(b, spans),
        TPred::Not(a) => !holds(a, spans),
    }
}

/// One result row: the ids of the bound tuples, then the valid period.
type Row = (Vec<i64>, u32, u32);

fn rows_of(db: &mut Database, src: &str) -> Vec<Row> {
    let out = db.execute(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let mut rows: Vec<Row> = out
        .rows()
        .iter()
        .map(|r| {
            let (ids, valid) = r.split_at(r.len() - 2);
            let time = |v: &Value| match v {
                Value::Time(t) => t.as_secs(),
                other => panic!("{src}: valid column holds {other}"),
            };
            let ids = ids.iter().map(|v| v.as_int().unwrap()).collect();
            (ids, time(&valid[0]), time(&valid[1]))
        })
        .collect();
    rows.sort();
    rows
}

/// `n` random valid spans; events when `event`, else intervals (some
/// current, i.e. ending at "forever").
fn arb_spans(g: &mut Gen, event: bool) -> Vec<TInterval> {
    g.vec(1..5, |g| {
        let from = day(g.range(0u32..50));
        if event {
            TInterval::event(from)
        } else if g.range(0u8..5) == 0 {
            TInterval::new(from, TimeVal::FOREVER)
        } else {
            let to = from.as_secs() + g.range(0u32..20) * 86_400;
            TInterval::new(from, TimeVal::from_secs(to))
        }
    })
}

/// Create historical relation `rel` holding `spans` (row `i` has
/// `id = i`) and range variable `var` over it.
fn load(
    db: &mut Database,
    var: &str,
    rel: &str,
    event: bool,
    spans: &[TInterval],
) {
    let kind = if event { "event" } else { "interval" };
    // `pad` comes first so that detachment, which projects only `id`,
    // moves every stored column the lowered clauses read.
    db.execute(&format!(
        "create historical {kind} {rel} (pad = i4, id = i4)"
    ))
    .unwrap();
    for (i, s) in spans.iter().enumerate() {
        let valid = if event {
            format!("valid at {}", lit(s.lo))
        } else {
            format!("valid from {} to {}", lit(s.lo), lit(s.hi))
        };
        db.execute(&format!("append to {rel} (id = {i}) {valid}"))
            .unwrap();
    }
    db.execute(&format!("range of {var} is {rel}")).unwrap();
}

/// Every combination of one row per relation, as `(ids, spans)`.
fn combinations(rels: &[&[TInterval]]) -> Vec<(Vec<i64>, Vec<TInterval>)> {
    let mut out = vec![(Vec::new(), Vec::new())];
    for spans in rels {
        out = out
            .into_iter()
            .flat_map(|(ids, picked): (Vec<i64>, Vec<TInterval>)| {
                spans.iter().enumerate().map(move |(i, s)| {
                    let mut ids = ids.clone();
                    let mut picked = picked.clone();
                    ids.push(i as i64);
                    picked.push(*s);
                    (ids, picked)
                })
            })
            .collect();
    }
    out
}

/// `retrieve … valid from … to … when <pred>` over one interval variable,
/// or over it and an event variable, agrees with the model, row for row
/// and in both valid-time columns. A second statement checks the default
/// `when` and `valid` over three variables: the spans share an instant,
/// and the period is their common intersection.
#[test]
fn when_and_valid_agree_with_the_interval_model() {
    check("when_and_valid_agree_with_the_interval_model", 256, |g| {
        let h = arb_spans(g, false);
        let ev = arb_spans(g, true);
        let h2 = arb_spans(g, false);
        let mut db = Database::in_memory();
        load(&mut db, "v", "h", false, &h);
        load(&mut db, "w", "ev", true, &ev);
        load(&mut db, "x", "h2", false, &h2);

        // Loading dominates a case, so each case asks several queries.
        for _ in 0..QUERIES_PER_CASE {
            let nvars = g.range(1usize..3);
            let pred = arb_pred(g, 3, nvars);
            let (from, to) = (arb_expr(g, 2, nvars), arb_expr(g, 2, nvars));
            let targets = VARS[..nvars]
                .iter()
                .map(|v| format!("{v}.id"))
                .collect::<Vec<_>>()
                .join(", ");
            let src = format!(
                "retrieve ({targets}) valid from {} to {} when {}",
                expr_src(&from),
                expr_src(&to),
                pred_src(&pred)
            );
            let rels: [&[TInterval]; 2] = [&h, &ev];
            let mut want: Vec<Row> = combinations(&rels[..nvars])
                .into_iter()
                .filter(|(_, spans)| holds(&pred, spans))
                .map(|(ids, spans)| {
                    let lo = eval(&from, &spans).lo.as_secs();
                    (ids, lo, eval(&to, &spans).hi.as_secs())
                })
                .collect();
            want.sort();
            assert_eq!(rows_of(&mut db, &src), want, "{src}");
        }

        let src = "retrieve (v.id, w.id, x.id)";
        let mut want: Vec<Row> = combinations(&[&h, &ev, &h2])
            .into_iter()
            .filter_map(|(ids, spans)| {
                let common = spans[1..]
                    .iter()
                    .fold(spans[0], |acc, s| acc.intersect(s));
                (!common.is_empty()).then(|| {
                    (ids, common.lo.as_secs(), common.hi.as_secs())
                })
            })
            .collect();
        want.sort();
        assert_eq!(rows_of(&mut db, src), want, "{src}");
    });
}

/// The examples the module doc names: an empty intersection's start
/// still precedes every span that begins after it, and the intersection
/// itself overlaps nothing.
#[test]
fn start_of_an_empty_intersection_still_precedes() {
    let mut db = Database::in_memory();
    let spans = [
        TInterval::new(day(10), day(20)),
        TInterval::new(day(30), TimeVal::FOREVER),
    ];
    load(&mut db, "v", "h", false, &spans);
    let src =
        r#"retrieve (v.id) when start of (v overlap "1/1/70") precede v"#;
    assert_eq!(rows_of(&mut db, src).len(), 2, "{src}");
    let src = r#"retrieve (v.id) when (v overlap "1/1/70") overlap v"#;
    assert_eq!(rows_of(&mut db, src).len(), 0, "{src}");
    // An empty operand overlaps nothing, not even a span covering its
    // reversed bounds (two endpoint comparisons would say it does).
    let src = r#"retrieve (v.id)
                 when (v overlap "1/1/70") overlap ("1/1/70" extend v)"#;
    assert_eq!(rows_of(&mut db, src).len(), 0, "{src}");
}
