//! `paper_sweep`: the paper's own experiment, in paper mode.
//!
//! One buffer frame per relation, LRU, every statement starts cold,
//! fixed clock, 1,024 tuples per relation at 100 % loading: all four
//! database types, update count 0 → 8, every applicable query of
//! Figure 4 (Q01–Q12) at each count, one uniform `replace` round
//! between counts. The data is **larger than cache by construction**
//! (128–2,177 pages against one frame), the statements are few and
//! long, so storage (pager fault-in, hash and ISAM chains, scans, heap
//! temporaries) and decomposition do nearly all the work and the front
//! end none. Each query isolates one access path, as Figure 4 intends.
//!
//! Page counts in paper mode are deterministic: every statement's
//! device reads and writes and its row count are compared with
//! `golden/paper_sweep.json`, and the temporal type must also satisfy
//! the paper's laws (`2n+1` pages for a keyed hash access, `128+256n`
//! for a scan).
//!
//! The data and the probed key are fixed (they are the paper's, and a
//! moved probe row shifts a join's page count by one); the seed
//! shuffles the query order within each update count.

use crate::gen::{self, amount_of, Class, Rel, Rng, USER_ROW_BYTES};
use crate::json::Json;
use crate::run::{Cfg, Driven, Exec, Kind, Trial};
use crate::sim::SimDisk;
use crate::sut::{Buffers, Embedded, Res};
use crate::trace::ThreadTracer;
use std::collections::BTreeMap;
use std::time::Instant;

pub const KEYS: i64 = 1024;
pub const MAX_UC: u64 = 8;
/// Times each query runs at each update count at scale 1.0 (≈ 3.5 s
/// here; three repetitions also give a trial its 1,000 retrieves).
const BASE_REPS: u64 = 3;
/// The data never changes with `--seed`.
const DATA_SEED: u64 = 1986;
/// Planted `amount` values: matched by Q07, and by Q08 and Q12.
const AMOUNT_H: i64 = 69_400;
const AMOUNT_I: i64 = 73_700;
/// The key probed by Q01/Q02/Q05/Q06/Q12.
const PROBE: i64 = 500;

/// The committed expectations, embedded at build time.
const GOLDEN: &str = include_str!("../../golden/paper_sweep.json");

/// Figure 4, adapted per database type exactly as the paper
/// prescribes: no `when` on a static database, `as of` in its place on
/// a rollback database; Q03/Q04 need transaction time, Q11/Q12 a
/// temporal database. `None` is the paper's "not applicable".
pub fn query(id: &str, class: Class) -> Option<String> {
    use Class::*;
    let now = |var: &str| match class {
        Static => String::new(),
        Rollback => " as of \"now\"".to_string(),
        Historical | Temporal => format!(" when {var} overlap \"now\""),
    };
    Some(match id {
        "Q01" => format!("retrieve (h.id, h.seq) where h.id = {PROBE}"),
        "Q02" => format!("retrieve (i.id, i.seq) where i.id = {PROBE}"),
        "Q03" if class.has_transaction_time() => {
            "retrieve (h.id, h.seq) as of \"08:00 1/1/80\"".to_string()
        }
        "Q04" if class.has_transaction_time() => {
            "retrieve (i.id, i.seq) as of \"08:00 1/1/80\"".to_string()
        }
        "Q05" => format!(
            "retrieve (h.id, h.seq) where h.id = {PROBE}{}",
            now("h")
        ),
        "Q06" => format!(
            "retrieve (i.id, i.seq) where i.id = {PROBE}{}",
            now("i")
        ),
        "Q07" => format!(
            "retrieve (h.id, h.seq) where h.amount = {AMOUNT_H}{}",
            now("h")
        ),
        "Q08" => format!(
            "retrieve (i.id, i.seq) where i.amount = {AMOUNT_I}{}",
            now("i")
        ),
        "Q09" => format!(
            "retrieve (h.id, i.id, i.amount) where h.id = i.amount{}",
            match class {
                Static => "",
                Rollback => " as of \"now\"",
                Historical | Temporal =>
                    " when h overlap i and i overlap \"now\"",
            }
        ),
        "Q10" => format!(
            "retrieve (i.id, h.id, h.amount) where i.id = h.amount{}",
            match class {
                Static => "",
                Rollback => " as of \"now\"",
                Historical | Temporal =>
                    " when h overlap i and h overlap \"now\"",
            }
        ),
        "Q11" if class == Temporal => {
            "retrieve (h.id, h.seq, i.id, i.seq, i.amount) \
             valid from start of h to end of i \
             when start of h precede i \
             as of \"4:00 1/1/80\""
                .to_string()
        }
        "Q12" if class == Temporal => format!(
            "retrieve (h.id, h.seq, i.id, i.seq, i.amount) \
             valid from start of (h overlap i) to end of (h extend i) \
             where h.id = {PROBE} and i.amount = {AMOUNT_I} \
             when h overlap i \
             as of \"now\""
        ),
        _ => return None,
    })
}

pub const QUERY_IDS: [&str; 12] = [
    "Q01", "Q02", "Q03", "Q04", "Q05", "Q06", "Q07", "Q08", "Q09", "Q10",
    "Q11", "Q12",
];

/// Which layer's cost a query isolates.
pub fn access_path(id: &str) -> &'static str {
    match id {
        "Q01" | "Q05" => "storage.hash.keyed_us_per_page",
        "Q02" | "Q06" => "storage.isam.keyed_us_per_page",
        "Q03" | "Q07" => "storage.hash.scan_us_per_page",
        "Q04" | "Q08" => "storage.isam.scan_us_per_page",
        "Q09" | "Q10" => "core.exec.subst_join_us_per_page",
        "Q11" => "core.exec.nested_join_us_per_page",
        _ => "core.eval.temporal_us_per_page",
    }
}

fn amount(rel: Rel, id: i64) -> i64 {
    let planted = match rel {
        Rel::H => AMOUNT_H,
        Rel::I => AMOUNT_I,
    };
    match amount_of(DATA_SEED, rel, id) {
        _ if id == PROBE => planted,
        // The planted values occur exactly once each.
        a if a == AMOUNT_H || a == AMOUNT_I => a + 100,
        a => a,
    }
}

/// One paper-mode database of the given type.
pub fn build(class: Class, disk: SimDisk) -> Res<Embedded> {
    let mut db = Embedded::open(disk, Buffers::Paper);
    gen::load(&mut db, class, KEYS, DATA_SEED, amount)?;
    Ok(db)
}

/// The sweep's retrieve statements for one type (front-end replay).
pub fn statements(class: Class) -> Vec<String> {
    QUERY_IDS.iter().filter_map(|q| query(q, class)).collect()
}

/// `[rows, device reads, device writes]` of one statement.
type Cost = [u64; 3];

/// Expected costs, keyed `"<class>/<stmt>"` → one `Cost` per update
/// count (`stmt` is a query id, or `Rh` / `Ri` for the replace rounds,
/// whose entry 0 is unused).
pub struct Golden(BTreeMap<String, Vec<Cost>>);

impl Golden {
    pub fn parse(text: &str) -> Res<Golden> {
        let doc = Json::parse(text)?;
        let mut map = BTreeMap::new();
        for (key, per_uc) in doc.fields() {
            let costs = per_uc
                .as_arr()
                .ok_or("golden: expected an array")?
                .iter()
                .map(|c| {
                    let v: Vec<u64> = c
                        .as_arr()
                        .unwrap_or_default()
                        .iter()
                        .filter_map(Json::as_u64)
                        .collect();
                    <Cost>::try_from(v)
                        .map_err(|_| format!("golden: bad cost in {key}"))
                })
                .collect::<Res<Vec<Cost>>>()?;
            map.insert(key.clone(), costs);
        }
        Ok(Golden(map))
    }

    /// One line per statement, so a changed count is a one-line diff.
    fn to_text(&self) -> String {
        let lines: Vec<String> = self
            .0
            .iter()
            .map(|(key, costs)| {
                let costs: Vec<Json> = costs
                    .iter()
                    .map(|c| {
                        c.iter().map(|&v| v.into()).collect::<Vec<Json>>()
                    })
                    .map(Json::from)
                    .collect();
                let costs = Json::from(costs).line().replace(',', ", ");
                format!("  \"{key}\": {costs}")
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    fn get(&self, key: &str, uc: u64) -> Option<Cost> {
        self.0.get(key)?.get(uc as usize).copied()
    }
}

/// The paper's laws for the temporal type at 100 % loading (the ones
/// `tests/paper_fidelity.rs` asserts): reads as a function of the
/// update count `n`.
fn law(id: &str, n: u64) -> Option<u64> {
    match id {
        "Q01" | "Q05" => Some(2 * n + 1),
        "Q02" | "Q06" => Some(2 * n + 2),
        "Q03" | "Q04" | "Q07" | "Q08" => Some(128 + 256 * n),
        _ => None,
    }
}

fn reps(cfg: &Cfg) -> u64 {
    cfg.scaled(BASE_REPS, 1)
}

/// Run one statement, measure it at the device, check it.
fn measure(
    db: &mut Embedded,
    disk: &SimDisk,
    stmt: &str,
    kind: Kind,
    k: u32,
    tracer: &mut Option<ThreadTracer>,
    d: &mut Driven,
) -> Option<(Cost, u64)> {
    let before = disk.counts();
    let t0 = Instant::now();
    let out = match tracer.as_mut() {
        Some(t) => {
            t.begin_stmt(k);
            let out = db.run_traced(stmt, t);
            t.end_stmt();
            out
        }
        None => db.run(stmt),
    };
    let ns = t0.elapsed().as_nanos() as u64;
    d.record(kind, ns);
    let io = disk.counts().since(&before);
    match out {
        Ok(out) => {
            d.ledger.add(&out, kind);
            Some(([out.affected, io.reads, io.pages_written()], ns))
        }
        Err(e) => {
            d.fail(format!("`{stmt}`: error: {e}"));
            None
        }
    }
}

/// Sweep every type; `record` sees each statement's key, update count
/// and cost (the checker, or the golden writer).
fn sweep(
    cfg: &Cfg,
    traced: bool,
    mut record: impl FnMut(&str, u64, Cost, &mut Driven),
) -> Res<Trial> {
    let t0 = Instant::now();
    let mut dbs = Vec::new();
    for class in Class::ALL {
        let disk = SimDisk::new();
        dbs.push((class, build(class, disk.clone())?, disk));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut trial = Trial {
        setup_s,
        threads: 1,
        ..Trial::default()
    };
    let mut d = Driven::default();
    let mut tracer = traced.then(|| ThreadTracer::new(1));
    let mut order = Rng::fork(cfg.seed, 4);
    let mut k = 0u32;
    if traced {
        for (_, _, disk) in &dbs {
            disk.start_tracing();
        }
    }
    let t0 = Instant::now();
    for (class, db, disk) in &mut dbs {
        let before = disk.counts();
        let mut queries: Vec<(&'static str, String)> = QUERY_IDS
            .iter()
            .filter_map(|q| Some((*q, query(q, *class)?)))
            .collect();
        for uc in 0..=MAX_UC {
            if uc > 0 {
                for rel in Rel::BOTH {
                    let v = rel.var();
                    let stmt = format!("replace {v} (seq = {v}.seq + 1)");
                    let got = measure(
                        db,
                        disk,
                        &stmt,
                        Kind::Write,
                        k,
                        &mut tracer,
                        &mut d,
                    );
                    k += 1;
                    if let Some((cost, _)) = got {
                        let key = format!("{}/R{v}", class.name());
                        record(&key, uc, cost, &mut d);
                        trial.user_bytes_written +=
                            cost[0] * USER_ROW_BYTES;
                    }
                }
            }
            for _ in 0..reps(cfg) {
                // Fisher–Yates: cold statements make the order
                // irrelevant to the page counts.
                for i in (1..queries.len()).rev() {
                    queries.swap(i, order.below(i as u64 + 1) as usize);
                }
                for (id, stmt) in &queries {
                    let got = measure(
                        db,
                        disk,
                        stmt,
                        Kind::Read,
                        k,
                        &mut tracer,
                        &mut d,
                    );
                    k += 1;
                    let Some((cost, ns)) = got else { continue };
                    let key = format!("{}/{id}", class.name());
                    record(&key, uc, cost, &mut d);
                    if *class == Class::Temporal
                        && law(id, uc).is_some_and(|l| l != cost[1])
                    {
                        d.fail(format!(
                            "{key} at update count {uc}: {} reads break \
                             the paper's law ({})",
                            cost[1],
                            law(id, uc).unwrap_or_default()
                        ));
                    }
                    trial.per_query.push((*id, ns, cost[1]));
                }
            }
        }
        let io = disk.counts().since(&before);
        trial.disk.reads += io.reads;
        trial.disk.writes += io.writes;
        trial.disk.appends += io.appends;
        trial.data_bytes += disk.data_bytes();
        trial.live_rows += 2 * KEYS as u64;
    }
    d.wall_s = t0.elapsed().as_secs_f64();
    // Millions of spans: moved only once the clock has stopped.
    for (_, _, disk) in &dbs {
        trial.device_spans.append(&mut disk.take_spans());
    }
    if let Some(t) = tracer.as_mut() {
        d.spans.append(&mut t.spans);
    }
    trial.driven = d;
    Ok(trial)
}

pub fn trial(cfg: &Cfg, traced: bool) -> Res<Trial> {
    let golden = Golden::parse(GOLDEN)?;
    let mut flip = cfg.selftest;
    sweep(cfg, traced, |key, uc, cost, d| {
        let mut want = golden.get(key, uc);
        if std::mem::take(&mut flip) {
            want =
                want.map(|[rows, reads, writes]| [rows + 1, reads, writes]);
        }
        if want != Some(cost) {
            d.fail(format!(
                "{key} at update count {uc}: [rows, reads, writes] = \
                 {cost:?}, golden says {want:?}"
            ));
        }
    })
}

/// Regenerate the golden file's text from a run (`--write-golden`;
/// the result is reviewed and committed by hand).
pub fn golden_text(cfg: &Cfg) -> Res<String> {
    let mut golden = Golden(BTreeMap::new());
    let mut clash = None;
    let trial = sweep(cfg, false, |key, uc, cost, _| {
        let per_uc = golden.0.entry(key.to_string()).or_default();
        if per_uc.len() <= uc as usize {
            per_uc.resize(uc as usize + 1, [0; 3]);
            per_uc[uc as usize] = cost;
        } else if per_uc[uc as usize] != cost {
            clash = Some(format!("{key} at {uc} is not deterministic"));
        }
    })?;
    if let Some(e) = clash.or(trial.driven.first_failure) {
        return Err(e);
    }
    Ok(golden.to_text())
}
