//! Statement-cache correctness across literals.
//!
//! The engine's statement cache keys on a statement's *shape*: its
//! token stream with every numeric literal lifted into a parameter
//! slot. One parsed (and, for snapshot retrieves, bound) template then
//! serves every literal. The property: running literal B right after
//! the same shape was warmed with literal A answers exactly as running
//! B uncached — columns, rows, counts and error texts — for random
//! single- and multi-variable retrieves, aggregates, `explain`, failing
//! statements and replaces.
//!
//! A second property interleaves two sessions of one engine over
//! keyed retrieves, decomposing two-variable retrieves, temporal
//! retrieves at `"now"` (`when … overlap "now"`, `as of "now"`, `as of
//! <instant> through "now"`) and replaces, and checks besides the
//! answers that a run never changes the cached binding it borrowed:
//! executions share one template and rewrite only their own copies of
//! what decomposition remaps. A replace commits, and a binding outlives
//! the commit (it holds `"now"` as an expression each run evaluates at
//! its own watermark), so the property also checks that some binding
//! served a read across a commit.
//!
//! The uncached side is a second engine over an identically built
//! database, fed the same statements through
//! `Session::execute_statement`, which never consults the statement
//! cache. It is an engine rather than a bare `Database` because a
//! `Database` ticks its clock on every read while the engine's
//! snapshot reads do not, so a bare `Database` would stamp the later
//! replaces at other instants.

use std::collections::HashMap;
use tdbms::tquel::parse_statement;
use tdbms::{Database, Engine, ExecOutput, Session, Value};
use tdbms_core::bound::BoundRetrieve;
use tdbms_prop::{check, Gen};

struct Case {
    setup: Vec<String>,
    nrels: usize,
    /// One statement shape written with two literal sets, `(A, B)`.
    probes: Vec<(String, String)>,
}

fn arb_case(g: &mut Gen) -> Case {
    let nrels = g.range(2usize..4);
    let mut setup = Vec::new();
    for r in 0..nrels {
        setup.push(format!(
            "create temporal interval r{r} (id = i4, val = i4)"
        ));
        for _ in 0..g.range(16u32..40) {
            setup.push(format!(
                "append to r{r} (id = {}, val = {})",
                g.range(0i32..12),
                g.range(-100i32..100)
            ));
        }
        match g.range(0u8..3) {
            1 => setup.push(format!(
                "modify r{r} to hash on id where fillfactor = 100"
            )),
            2 => setup.push(format!(
                "modify r{r} to isam on id where fillfactor = 100"
            )),
            _ => {}
        }
    }
    let probes = (0..g.range(4usize..9))
        .map(|_| arb_probe(g, nrels))
        .collect();
    Case {
        setup,
        nrels,
        probes,
    }
}

/// One statement shape over `v{a}` (and `v{b}`), rendered with two
/// random literal sets. The literals are non-negative so that both
/// renderings lex to one shape: a sign is a token of its own.
fn arb_probe(g: &mut Gen, nrels: usize) -> (String, String) {
    let a = g.range(0..nrels);
    let b = (a + g.range(1..nrels)) % nrels;
    let kind = g.range(0u8..8);
    let render = |l: [i64; 3]| {
        let key = l[0] % 12;
        match kind {
            0 => format!(
                "retrieve (v{a}.id, v{a}.val) where v{a}.id = {key}"
            ),
            1 => format!(
                "retrieve (v{a}.id, x = v{a}.val * {} + {}) \
                 where v{a}.val > -{}",
                l[0], l[1], l[2]
            ),
            2 => format!(
                "retrieve (v{a}.id) \
                 where v{a}.val < {}.5 or v{a}.id = {key}",
                l[1]
            ),
            3 => format!(
                "retrieve (v{a}.id, v{a}.val, v{b}.val) \
                 where v{a}.id = v{b}.id and v{b}.id = {key}"
            ),
            4 => format!(
                "replace v{a} (val = v{a}.val + {}) where v{a}.id = {key}",
                l[1]
            ),
            5 => {
                format!("explain retrieve (v{a}.id) where v{a}.id = {key}")
            }
            // Overflows on any |val| > 2; the error quotes the literal.
            6 => {
                format!("retrieve (x = v{a}.val * {})", i64::MAX / 2 - l[1])
            }
            _ => format!(
                "retrieve (n = count(v{a}.id), s = sum(v{a}.val)) \
                 where v{a}.val >= {}",
                l[1]
            ),
        }
    };
    let mut lits =
        || [g.range(0i64..100), g.range(0i64..100), g.range(0i64..100)];
    let (la, lb) = (lits(), lits());
    (render(la), render(lb))
}

fn engine(setup: &[String]) -> Engine {
    let mut db = Database::in_memory();
    for stmt in setup {
        db.execute(stmt)
            .unwrap_or_else(|e| panic!("setup `{stmt}` failed: {e}"));
    }
    Engine::new(db)
}

/// What a statement answered; an error by its text.
type Outcome = Result<(Vec<String>, Vec<Vec<Value>>, usize), String>;

fn outcome(r: tdbms::Result<ExecOutput>) -> Outcome {
    r.map(|o| {
        let columns = o.columns.iter().map(|(n, _)| n.clone()).collect();
        (columns, o.rows().to_vec(), o.affected)
    })
    .map_err(|e| e.to_string())
}

/// `text` through the statement cache on `cached`, and parsed on its
/// own on `fresh`.
fn both(
    cached: &mut Session,
    fresh: &mut Session,
    text: &str,
) -> [Outcome; 2] {
    let uncached =
        parse_statement(text).and_then(|s| fresh.execute_statement(&s));
    [outcome(cached.execute(text)), outcome(uncached)]
}

#[test]
fn a_warm_shape_answers_a_new_literal_like_an_uncached_run() {
    check("shape_cache_literals", 16, |g| {
        let case = arb_case(g);
        let cached_engine = engine(&case.setup);
        let fresh_engine = engine(&case.setup);
        let mut cached = cached_engine.session();
        let mut fresh = fresh_engine.session();
        for r in 0..case.nrels {
            let range = format!("range of v{r} is r{r}");
            let [c, f] = both(&mut cached, &mut fresh, &range);
            assert_eq!(c, f, "`{range}`");
        }
        for (a, b) in &case.probes {
            // The first run parses and binds the shape; the second
            // is served from the cached binding, which B reuses.
            for text in [a, a] {
                let [c, f] = both(&mut cached, &mut fresh, text);
                assert_eq!(c, f, "`{text}`");
            }
            let (h0, m0) = cached_engine.plan_cache_stats();
            let [c, f] = both(&mut cached, &mut fresh, b);
            assert_eq!(c, f, "`{b}` after `{a}`");
            let (h1, m1) = cached_engine.plan_cache_stats();
            assert_eq!(
                (h1 - h0, m1 - m0),
                (1, 0),
                "`{b}` must hit the shape `{a}` warmed"
            );
        }
        for r in 0..case.nrels {
            let all = format!("retrieve (v{r}.id, v{r}.val)");
            let [c, f] = both(&mut cached, &mut fresh, &all);
            assert_eq!(c, f, "final state of r{r}");
        }
    });
}

/// Two keyed relations, a hashed `rh` and an ISAM `ri`, with a few
/// versions per key. No statement reads `tag`, so a detachment
/// projects it away and every attribute after it moves: remapping
/// changes the detached variable's expressions.
fn keyed_setup(g: &mut Gen) -> Vec<String> {
    let mut setup = Vec::new();
    for (rel, method) in [("rh", "hash"), ("ri", "isam")] {
        setup.push(format!(
            "create temporal interval {rel} (tag = i4, id = i4, val = i4)"
        ));
        for _ in 0..g.range(16u32..40) {
            setup.push(format!(
                "append to {rel} (tag = {}, id = {}, val = {})",
                g.range(0i32..100),
                g.range(0i32..12),
                g.range(0i32..100)
            ));
        }
        setup.push(format!(
            "modify {rel} to {method} on id where fillfactor = 100"
        ));
    }
    setup
}

/// The statement kinds of the interleaving.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Step {
    /// A one-variable keyed retrieve of the versions valid at `"now"`.
    Keyed,
    /// A two-variable retrieve whose first variable decomposition
    /// detaches.
    Decomposing,
    /// A one-variable scan `as of "now"`.
    AsOfNow,
    /// A keyed retrieve over a rollback window from a fixed instant
    /// through `"now"`.
    Through,
    /// A keyed replace, which commits and republishes the read view.
    Replace,
}

/// A rendering of `step` over variables `(v, w)` with fresh literals;
/// `since` starts a [`Step::Through`] window. The literals are
/// non-negative so that every rendering of a step lexes to one shape.
fn render(
    g: &mut Gen,
    step: Step,
    (v, w): (&str, &str),
    since: &str,
) -> String {
    let key = g.range(0i64..12);
    match step {
        Step::Keyed => format!(
            "retrieve ({v}.id, {v}.val) where {v}.id = {key} \
             when {v} overlap \"now\""
        ),
        Step::AsOfNow => format!(
            "retrieve ({v}.id, {v}.val) where {v}.val >= {} \
             as of \"now\"",
            g.range(0i64..100)
        ),
        Step::Through => format!(
            "retrieve ({v}.id, {v}.val) where {v}.id = {key} \
             as of \"{since}\" through \"now\""
        ),
        Step::Decomposing => format!(
            "retrieve ({v}.id, {v}.val, {w}.val) \
             where {v}.id = {key} and {w}.id = {v}.id"
        ),
        Step::Replace => format!(
            "replace {v} (val = {v}.val + {}) where {v}.id = {key}",
            g.range(0i64..100)
        ),
    }
}

#[test]
fn interleaved_runs_never_change_the_shared_template() {
    check("shape_cache_interleaved", 16, |g| {
        let setup = keyed_setup(g);
        let cached_engine = engine(&setup);
        let fresh_engine = engine(&setup);
        let mut cached = [cached_engine.session(), cached_engine.session()];
        let mut fresh = [fresh_engine.session(), fresh_engine.session()];
        for s in 0..2 {
            for range in ["range of h is rh", "range of i is ri"] {
                let [c, f] = both(&mut cached[s], &mut fresh[s], range);
                assert_eq!(c, f, "`{range}`");
            }
        }
        // The clock starts at 1980-03-01 00:00 and ticks a minute a
        // statement: the first instant falls inside the setup, the
        // second mostly inside the interleaving.
        let since = *g.pick(&[
            "1970-01-01",
            "1980-03-01 00:40",
            "1980-03-01 02:00",
        ]);
        let pairs = [("h", "i"), ("i", "h")];
        let first = *g.pick(&pairs);
        // Runs of a decomposing shape served from its cached binding,
        // and runs of any shape served from a binding made before a
        // commit, with the statement counts they were made at.
        let (mut served, mut across) = (0, 0);
        let (mut clock, mut last_commit) = (0usize, None);
        let mut last_run = HashMap::new();
        for k in 0..g.range(16usize..32) {
            // The first three steps run a decomposing shape, commit,
            // and run the shape again.
            let (step, vars) = match (k, g.range(0u8..5)) {
                (0 | 2, _) => (Step::Decomposing, first),
                (1, _) | (_, 4) => (Step::Replace, *g.pick(&pairs)),
                (_, 0) => (Step::Decomposing, *g.pick(&pairs)),
                (_, 1) => (Step::Keyed, *g.pick(&pairs)),
                (_, 2) => (Step::AsOfNow, *g.pick(&pairs)),
                _ => (Step::Through, *g.pick(&pairs)),
            };
            // A decomposing shape runs twice in a row, so the second
            // run, on either session, borrows the binding of the first.
            let runs = if step == Step::Decomposing { 2 } else { 1 };
            for _ in 0..runs {
                clock += 1;
                let s = g.range(0usize..2);
                let text = render(g, step, vars, since);
                let template: Option<BoundRetrieve> =
                    cached[s].cached_binding(&text).unwrap();
                let out = cached[s].execute(&text);
                if let (Step::Decomposing, Ok(out)) = (step, &out) {
                    let phases = &out.stats.phases;
                    assert!(
                        phases.iter().any(|p| p.name == "decomposition"),
                        "`{text}` must decompose"
                    );
                }
                let uncached = parse_statement(&text)
                    .and_then(|st| fresh[s].execute_statement(&st));
                assert_eq!(outcome(out), outcome(uncached), "`{text}`");
                if step == Step::Replace {
                    last_commit = Some(clock);
                }
                let ran_before = last_run.insert((step, vars), clock);
                if let Some(before) = template {
                    served += usize::from(step == Step::Decomposing);
                    across += usize::from(
                        ran_before.is_some_and(|r| Some(r) < last_commit),
                    );
                    let after = cached[s].cached_binding(&text).unwrap();
                    assert_eq!(
                        Some(before),
                        after,
                        "`{text}` changed the template it ran"
                    );
                }
            }
        }
        assert!(served > 0, "no decomposing run borrowed a cached binding");
        assert!(across > 0, "no binding served a read across a commit");
        for s in 0..2 {
            for v in ["h", "i"] {
                let all = format!("retrieve ({v}.id, {v}.val)");
                let [c, f] = both(&mut cached[s], &mut fresh[s], &all);
                assert_eq!(c, f, "final state through `{v}`");
            }
        }
    });
}
