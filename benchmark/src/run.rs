//! What every workload shares: operations with their expected answers,
//! the closed loop that drives them (untraced or traced), and the
//! per-trial record the report is computed from.

use crate::sim::{DiskCounts, LogCounts};
use crate::sut::{
    self, Embedded, Res, Sess, StmtOut, WireClient, WireReply,
};
use crate::trace::{Span, ThreadTracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Run parameters common to all workloads.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// Work multiplier: 1.0 is the size `BENCHMARK.json`'s
    /// `run_seconds` was calibrated for; `--smoke` is 0.1.
    pub scale: f64,
    /// Flip one expected value per trial: the run must then fail.
    pub selftest: bool,
}

impl Cfg {
    /// A fixed operation count scaled to the run (never below `floor`).
    /// Trials are sized in statements, not seconds: writes age the
    /// database, so equal work has to mean equal statements.
    pub fn scaled(&self, base: u64, floor: u64) -> u64 {
        ((base as f64 * self.scale).round() as u64).max(floor)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// What a statement must return, derived from the loader and the
/// stream alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Check {
    /// Exactly one row, starting `id, amount, seq`.
    Row { id: i64, amount: i64, seq: i64 },
    /// `n` rows starting `amount, seq`, whose `seq` values sum to
    /// `seq_sum` (a version scan sees `0..n`, a join against the
    /// never-updated relation sees zeros).
    Versions { amount: i64, n: u64, seq_sum: i64 },
    /// A write touching this many tuples.
    Affected(u64),
}

impl Check {
    pub fn verify(&self, out: &StmtOut) -> Result<(), String> {
        match *self {
            Check::Row { id, amount, seq } => {
                let want = [id, amount, seq];
                match out.rows.as_slice() {
                    [row] if row.get(..3) == Some(&want[..]) => Ok(()),
                    rows => Err(format!(
                        "want one row {want:?}, got {} row(s){}",
                        rows.len(),
                        rows.first()
                            .map(|r| format!(" starting {r:?}"))
                            .unwrap_or_default()
                    )),
                }
            }
            Check::Versions { amount, n, seq_sum } => {
                let got_sum: i64 = out
                    .rows
                    .iter()
                    .map(|r| r.get(1).copied().unwrap_or(i64::MIN))
                    .sum();
                if out.rows.len() as u64 != n
                    || out.rows.iter().any(|r| r.first() != Some(&amount))
                    || got_sum != seq_sum
                {
                    return Err(format!(
                        "want {n} version(s) of amount {amount} with seq \
                         sum {seq_sum}, got {} row(s), seq sum {got_sum}",
                        out.rows.len()
                    ));
                }
                Ok(())
            }
            Check::Affected(n) if out.affected == n => Ok(()),
            Check::Affected(n) => {
                Err(format!("want {n} affected, got {}", out.affected))
            }
        }
    }

    /// The same check with one expected value off by one (`--selftest`).
    pub fn flipped(&self) -> Check {
        match *self {
            Check::Row { id, amount, seq } => Check::Row {
                id,
                amount: amount + 100,
                seq,
            },
            Check::Versions { amount, n, seq_sum } => Check::Versions {
                amount,
                n: n + 1,
                seq_sum,
            },
            Check::Affected(n) => Check::Affected(n + 1),
        }
    }
}

/// One generated statement and its expected answer.
#[derive(Debug, Clone)]
pub struct Op {
    pub stmt: String,
    pub kind: Kind,
    pub check: Check,
}

/// Anything a statement stream can be driven through.
pub trait Exec {
    fn run(&mut self, stmt: &str) -> Res<StmtOut>;
    /// The same statement with a span at every boundary the harness
    /// can reach (the root `stmt` span is the caller's).
    fn run_traced(
        &mut self,
        stmt: &str,
        t: &mut ThreadTracer,
    ) -> Res<StmtOut>;
}

/// Embedded executors are traced as `tquel.parse` → `core.execute`:
/// the harness calls `parse_statement` then `execute_statement` in
/// place of `execute`.
macro_rules! embedded_exec {
    ($ty:ty) => {
        impl Exec for $ty {
            fn run(&mut self, stmt: &str) -> Res<StmtOut> {
                self.execute(stmt)
            }
            fn run_traced(
                &mut self,
                stmt: &str,
                t: &mut ThreadTracer,
            ) -> Res<StmtOut> {
                t.begin("tquel.parse");
                let parsed = sut::parse(stmt);
                t.end();
                t.begin("core.execute");
                let out = parsed.and_then(|p| self.execute_parsed(&p));
                t.end();
                out
            }
        }
    };
}
embedded_exec!(Embedded);
embedded_exec!(Sess);

/// A wire client that keeps its first replies for the codec replay.
pub struct WireExec {
    pub client: WireClient,
    pub kept: Vec<(String, WireReply)>,
}

const KEEP_REPLIES: usize = 2000;

impl WireExec {
    fn note(&mut self, stmt: &str, reply: &WireReply) {
        if self.kept.len() < KEEP_REPLIES {
            self.kept.push((stmt.to_string(), reply.clone()));
        }
    }
}

impl Exec for WireExec {
    fn run(&mut self, stmt: &str) -> Res<StmtOut> {
        self.client.query(stmt).map(|r| r.out())
    }
    fn run_traced(
        &mut self,
        stmt: &str,
        t: &mut ThreadTracer,
    ) -> Res<StmtOut> {
        t.begin("net.roundtrip");
        let reply = self.client.query(stmt);
        t.end();
        let reply = reply?;
        self.note(stmt, &reply);
        Ok(reply.out())
    }
}

/// Sums of the program's own per-statement ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    pub input_pages: u64,
    pub output_pages: u64,
    pub buffer_hits: u64,
    pub evictions: u64,
    /// Rows returned by retrieves, and the page accesses (hits + reads)
    /// those retrieves reported.
    pub result_rows: u64,
    pub read_accesses: u64,
}

impl Ledger {
    pub fn add(&mut self, out: &StmtOut, kind: Kind) {
        self.input_pages += out.input_pages;
        self.output_pages += out.output_pages;
        self.buffer_hits += out.buffer_hits;
        self.evictions += out.evictions;
        if kind == Kind::Read {
            self.result_rows += out.rows.len() as u64;
            self.read_accesses += out.buffer_hits + out.input_pages;
        }
    }

    pub fn merge(&mut self, o: &Ledger) {
        self.input_pages += o.input_pages;
        self.output_pages += o.output_pages;
        self.buffer_hits += o.buffer_hits;
        self.evictions += o.evictions;
        self.result_rows += o.result_rows;
        self.read_accesses += o.read_accesses;
    }
}

/// What one thread's closed loop produced.
#[derive(Debug, Default)]
pub struct Driven {
    /// Wall-clock of the loop, less the time the harness spent
    /// generating statements inside it.
    pub wall_s: f64,
    pub gen_ns: u64,
    pub ops: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub ledger: Ledger,
    pub spans: Vec<Span>,
}

impl Driven {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    pub fn record(&mut self, kind: Kind, ns: u64) {
        self.ops += 1;
        match kind {
            Kind::Read => self.read_ns.push(ns),
            Kind::Write => self.write_ns.push(ns),
        }
    }

    pub fn merge(&mut self, mut o: Driven) {
        self.gen_ns += o.gen_ns;
        self.ops += o.ops;
        self.failed += o.failed;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure.take();
        }
        self.read_ns.append(&mut o.read_ns);
        self.write_ns.append(&mut o.write_ns);
        self.ledger.merge(&o.ledger);
        self.spans.append(&mut o.spans);
    }
}

/// Drive `ops` through `exec` in a closed loop: the next statement is
/// generated and sent when the previous one has been answered and
/// checked. An operation that errors, is refused, or answers wrongly is
/// a failed operation. `each(k)` runs after operation `k` (inline
/// maintenance).
///
/// Statements are generated one at a time, not held in memory: 300,000
/// pre-built statements were seven-eighths of `point_read`'s resident
/// set, and `peak_rss_mb` is meant to weigh the program. The time the
/// generator takes is kept out of `wall_s`.
pub fn drive<E: Exec>(
    exec: &mut E,
    mut ops: impl ExactSizeIterator<Item = Op>,
    cfg: &Cfg,
    mut tracer: Option<&mut ThreadTracer>,
    mut each: impl FnMut(usize, &mut Option<&mut ThreadTracer>, &mut Driven),
) -> Driven {
    let mut d = Driven::default();
    d.read_ns.reserve(ops.len());
    let flip_at = cfg.selftest.then_some(ops.len() / 2);
    let start = Instant::now();
    for k in 0.. {
        let g0 = Instant::now();
        let Some(op) = ops.next() else { break };
        let t0 = Instant::now();
        d.gen_ns += (t0 - g0).as_nanos() as u64;
        let out = match tracer.as_deref_mut() {
            Some(t) => {
                t.begin_stmt(k as u32);
                let out = exec.run_traced(&op.stmt, t);
                t.end_stmt();
                out
            }
            None => exec.run(&op.stmt),
        };
        d.record(op.kind, t0.elapsed().as_nanos() as u64);
        match out {
            Ok(out) => {
                d.ledger.add(&out, op.kind);
                let verdict = if flip_at == Some(k) {
                    op.check.flipped().verify(&out)
                } else {
                    op.check.verify(&out)
                };
                if let Err(e) = verdict {
                    d.fail(format!("op {k} `{}`: {e}", op.stmt));
                }
            }
            Err(e) => d.fail(format!("op {k} `{}`: error: {e}", op.stmt)),
        }
        each(k, &mut tracer, &mut d);
    }
    d.wall_s = (start.elapsed().as_nanos() as u64 - d.gen_ns) as f64 / 1e9;
    if let Some(t) = tracer {
        d.spans.append(&mut t.spans);
    }
    d
}

/// Drive one stream per executor on its own thread, all released
/// together (never more threads than the workload states). Returns the
/// merged result — its `wall_s` is the wall-clock from the release to
/// the last thread's end, less the threads' mean generating time — and
/// the executors and streams as the run left them.
pub fn drive_all<E, S>(
    cfg: &Cfg,
    pairs: Vec<(E, S)>,
    traced: bool,
) -> (Driven, Vec<(E, S)>)
where
    E: Exec + Send,
    S: ExactSizeIterator<Item = Op> + Send,
{
    let threads = pairs.len().max(1) as u64;
    let start = std::sync::Barrier::new(pairs.len() + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = pairs
            .into_iter()
            .enumerate()
            .map(|(t, (mut exec, mut ops))| {
                let start = &start;
                scope.spawn(move || {
                    let mut tracer =
                        traced.then(|| ThreadTracer::new(t as u32 + 1));
                    start.wait();
                    let d = drive(
                        &mut exec,
                        &mut ops,
                        cfg,
                        tracer.as_mut(),
                        no_each,
                    );
                    (d, exec, ops)
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let mut all = Driven::default();
        let mut pairs = Vec::new();
        for w in workers {
            let (d, exec, ops) = w.join().expect("load thread panicked");
            all.merge(d);
            pairs.push((exec, ops));
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        all.wall_s = (wall_ns - all.gen_ns / threads) as f64 / 1e9;
        (all, pairs)
    })
}

/// No inline maintenance.
pub fn no_each(
    _: usize,
    _: &mut Option<&mut ThreadTracer>,
    _: &mut Driven,
) {
}

/// Everything one trial measured.
#[derive(Debug, Default)]
pub struct Trial {
    /// Build, load, age, warm, start server.
    pub setup_s: f64,
    /// Load-generating threads.
    pub threads: u32,
    pub driven: Driven,
    /// Device calls during the measured phase.
    pub disk: DiskCounts,
    pub log: LogCounts,
    /// Bytes in the data files at the end of the run.
    pub data_bytes: u64,
    /// Live current-version user rows at the end of the run.
    pub live_rows: u64,
    /// User-row bytes the measured phase wrote (appends + replaces).
    pub user_bytes_written: u64,
    /// Reopen → first answered query, after `crash()`.
    pub recovery_s: Option<f64>,
    /// Reads made after the measured phase to audit what it left
    /// behind (they count as attempted operations, not as throughput).
    pub audit_ops: u64,
    pub audit_failed: u64,
    pub audit_failure: Option<String>,
    /// Per-layer values this workload measures directly.
    pub layer: BTreeMap<&'static str, f64>,
    /// Device spans (traced trials only); harness spans are in
    /// `driven.spans`.
    pub device_spans: Vec<Span>,
    /// `(query id, time, device reads)` of each retrieve, for the
    /// sweep's per-access-path costs.
    pub per_query: Vec<(&'static str, u64, u64)>,
    /// First wire messages, for the codec replay.
    pub wire_kept: Vec<(String, WireReply)>,
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(rows: Vec<Vec<i64>>, affected: u64) -> StmtOut {
        StmtOut {
            rows,
            affected,
            ..StmtOut::default()
        }
    }

    #[test]
    fn checks_accept_the_right_answer_and_nothing_else() {
        let row = Check::Row {
            id: 7,
            amount: 4200,
            seq: 3,
        };
        // Trailing (time) columns are ignored.
        assert!(row
            .verify(&out(vec![vec![7, 4200, 3, -1, -1]], 1))
            .is_ok());
        assert!(row.verify(&out(vec![vec![7, 4200, 2]], 1)).is_err());
        assert!(row.verify(&out(vec![], 0)).is_err());
        assert!(row
            .verify(&out(vec![vec![7, 4200, 3], vec![7, 4200, 3]], 2))
            .is_err());
        assert!(row
            .flipped()
            .verify(&out(vec![vec![7, 4200, 3]], 1))
            .is_err());

        let vers = Check::Versions {
            amount: 500,
            n: 3,
            seq_sum: 3,
        };
        let good = out(vec![vec![500, 0], vec![500, 1], vec![500, 2]], 3);
        assert!(vers.verify(&good).is_ok());
        assert!(vers.flipped().verify(&good).is_err());
        assert!(vers
            .verify(&out(vec![vec![500, 0], vec![500, 1]], 2))
            .is_err());
        assert!(vers
            .verify(&out(vec![vec![500, 0], vec![9, 1], vec![500, 2]], 3))
            .is_err());

        assert!(Check::Affected(1).verify(&out(vec![], 1)).is_ok());
        assert!(Check::Affected(1).verify(&out(vec![], 0)).is_err());
        assert!(Check::Affected(1)
            .flipped()
            .verify(&out(vec![], 1))
            .is_err());
    }

    struct Canned(Vec<Res<StmtOut>>);
    impl Exec for Canned {
        fn run(&mut self, _: &str) -> Res<StmtOut> {
            self.0.remove(0)
        }
        fn run_traced(
            &mut self,
            stmt: &str,
            _: &mut ThreadTracer,
        ) -> Res<StmtOut> {
            self.run(stmt)
        }
    }

    #[test]
    fn errors_and_wrong_answers_both_count_as_failed_operations() {
        let op = |kind| Op {
            stmt: "s".into(),
            kind,
            check: Check::Affected(1),
        };
        let ops = [op(Kind::Write), op(Kind::Read), op(Kind::Write)];
        let mut exec = Canned(vec![
            Ok(out(vec![], 1)),
            Err("refused".into()),
            Ok(out(vec![], 5)),
        ]);
        let cfg = Cfg {
            seed: 1,
            scale: 1.0,
            selftest: false,
        };
        let d = drive(&mut exec, ops.iter().cloned(), &cfg, None, no_each);
        assert_eq!((d.ops, d.failed), (3, 2));
        assert_eq!((d.read_ns.len(), d.write_ns.len()), (1, 2));
        assert!(d.first_failure.unwrap().contains("refused"));

        // --selftest flips one expectation: a correct run now fails.
        let mut exec = Canned(vec![Ok(out(vec![], 1)), Ok(out(vec![], 1))]);
        let cfg = Cfg {
            selftest: true,
            ..cfg
        };
        let d =
            drive(&mut exec, ops[..2].iter().cloned(), &cfg, None, no_each);
        assert_eq!(d.failed, 1);
    }

    #[test]
    fn scaled_counts_never_fall_below_their_floor() {
        let cfg = Cfg {
            seed: 1,
            scale: 0.1,
            selftest: false,
        };
        assert_eq!(cfg.scaled(60_000, 1), 6_000);
        assert_eq!(cfg.scaled(3, 1), 1);
        assert_eq!(cfg.scaled(5, 6), 6);
    }
}
