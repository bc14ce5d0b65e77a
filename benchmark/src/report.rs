//! From trials to metrics: the end-to-end values (median over trials),
//! the per-layer values (from the traced trial, the device counts and
//! the replays), and their rendering as text and JSON.

use crate::json::Json;
use crate::metrics::{Metric, Scope, METRICS};
use crate::run::Trial;
use crate::stats::{self, Agg};
use crate::trace::{self, Span};
use std::collections::BTreeMap;

type PerTrial = BTreeMap<&'static str, (f64, usize)>;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One trial's end-to-end values, each with its sample count. Sorts
/// the trial's latency samples where they lie.
fn trial_values(t: &mut Trial) -> PerTrial {
    let mut v = PerTrial::new();
    let ops = t.driven.ops.max(1) as f64;
    v.insert("setup_s", (t.setup_s, 1));
    v.insert("ops_per_s", (ops / t.driven.wall_s, t.driven.ops as usize));
    for (sorted, names) in [
        (
            &mut t.driven.read_ns,
            &[
                ("read_p50_us", 50.0),
                ("read_p95_us", 95.0),
                ("read_p99_us", 99.0),
            ][..],
        ),
        (
            &mut t.driven.write_ns,
            &[("write_p50_us", 50.0), ("write_p99_us", 99.0)][..],
        ),
    ] {
        sorted.sort_unstable();
        for &(name, p) in names {
            if let Some(ns) = stats::percentile(sorted, p) {
                v.insert(name, (us(ns), sorted.len()));
            }
        }
    }
    v.insert("pages_read_per_op", (t.disk.reads as f64 / ops, 1));
    v.insert(
        "pages_written_per_op",
        (t.disk.pages_written() as f64 / ops, 1),
    );
    if t.live_rows > 0 {
        let live = (t.live_rows * crate::gen::USER_ROW_BYTES) as f64;
        v.insert("space_amplification", (t.data_bytes as f64 / live, 1));
    }
    if t.log.bytes_appended > 0 && t.user_bytes_written > 0 {
        v.insert(
            "wal_bytes_per_user_byte",
            (t.log.bytes_appended as f64 / t.user_bytes_written as f64, 1),
        );
    }
    if let Some(r) = t.recovery_s {
        v.insert("recovery_s", (r, 1));
    }
    let attempted = t.driven.ops + t.audit_ops;
    v.insert(
        "failed_ops_ratio",
        (
            (t.driven.failed + t.audit_failed) as f64
                / attempted.max(1) as f64,
            attempted as usize,
        ),
    );
    v
}

/// Everything one run of one workload reports.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trials: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (both scopes), `None` where the workload has
    /// no such operation.
    pub e2e: Vec<(&'static Metric, Option<Agg>)>,
    /// Per-layer metrics; empty unless a traced trial ran.
    pub layers: Vec<(&'static Metric, Option<f64>)>,
    /// Self-time share of each span name in the traced trial.
    pub shares: Shares,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Median over trials of one end-to-end metric, as reported.
    pub fn median(&self, name: &str) -> Option<f64> {
        let (m, agg) = self.e2e.iter().find(|(m, _)| m.name == name)?;
        shown(m, agg).map(|a| a.median)
    }
}

/// A metric as the report shows it: a tail percentile is withheld
/// while a trial has too few samples of that kind to support it.
fn shown(m: &Metric, agg: &Option<Agg>) -> Option<Agg> {
    let tail = [("_p95_us", 95.0), ("_p99_us", 99.0)]
        .into_iter()
        .find(|(suffix, _)| m.name.ends_with(suffix));
    agg.filter(|a| {
        tail.is_none_or(|(_, p)| stats::tail_reportable(p, a.samples))
    })
}

/// What the report keeps of an untraced trial: its values, not its
/// samples (a run's worth of latency samples would otherwise be most
/// of what `peak_rss_mb` weighs on the small workloads).
pub struct Summary {
    values: PerTrial,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Per-layer values the workload measured directly.
    pub layer: BTreeMap<&'static str, f64>,
}

pub fn summarize(mut t: Trial) -> Summary {
    Summary {
        values: trial_values(&mut t),
        attempted: t.driven.ops + t.audit_ops,
        failed: t.driven.failed + t.audit_failed,
        failures: t
            .driven
            .first_failure
            .into_iter()
            .chain(t.audit_failure)
            .collect(),
        layer: t.layer,
    }
}

/// Median-over-trials of every end-to-end metric.
pub fn end_to_end(
    workload: &str,
    seed: u64,
    trials: &[Summary],
    peak_rss_mb: Option<f64>,
) -> Report {
    let e2e = METRICS
        .iter()
        .filter(|m| m.scope != Scope::Layer)
        .map(|m| {
            let agg = if m.name == "peak_rss_mb" {
                // One process, one high-water mark.
                peak_rss_mb.map(|v| Agg {
                    median: v,
                    min: v,
                    max: v,
                    trials: trials.len(),
                    samples: 1,
                })
            } else {
                let column: Vec<_> = trials
                    .iter()
                    .map(|t| t.values.get(m.name).copied())
                    .collect();
                stats::over_trials(&column)
            };
            (m, agg)
        })
        .collect();
    Report {
        workload: workload.to_string(),
        seed,
        trials: trials.len(),
        attempted: trials.iter().map(|t| t.attempted).sum(),
        failed: trials.iter().map(|t| t.failed).sum(),
        failures: trials.iter().flat_map(|t| t.failures.clone()).collect(),
        e2e,
        layers: Vec::new(),
        shares: Vec::new(),
    }
}

fn median_ns(mut v: Vec<u64>) -> Option<f64> {
    v.sort_unstable();
    stats::percentile(&v, 50.0).map(us)
}

/// `(span name, share of root time that is its self time, spans)`.
pub type Shares = Vec<(&'static str, f64, u64)>;

/// What a traced trial yields on its own.
pub struct TracedLayers {
    /// Per-layer values (the caller adds the replays).
    pub values: BTreeMap<&'static str, f64>,
    pub shares: Shares,
    /// Harness, device and derived spans, ready to be written out.
    pub spans: Vec<Span>,
}

pub fn layers_of(traced: &mut Trial) -> TracedLayers {
    let t = traced;
    let mut l = std::mem::take(&mut t.layer);
    let ops = t.driven.ops.max(1) as f64;

    // Device counts (work done) …
    l.insert("storage.disk.reads_per_op", t.disk.reads as f64 / ops);
    l.insert(
        "storage.disk.writes_per_op",
        t.disk.pages_written() as f64 / ops,
    );
    l.insert("storage.disk.syncs_per_op", t.disk.syncs as f64 / ops);
    // … against the program's own ledger.
    let led = t.driven.ledger;
    let accesses = led.buffer_hits + led.input_pages;
    if led.buffer_hits + led.evictions > 0 {
        // (The wire reply carries page counts only: no pool numbers.)
        l.insert(
            "storage.pager.hit_ratio",
            led.buffer_hits as f64 / accesses.max(1) as f64,
        );
        l.insert(
            "storage.pager.evictions_per_op",
            led.evictions as f64 / ops,
        );
        if led.result_rows > 0 {
            l.insert(
                "storage.pager.accesses_per_result_row",
                led.read_accesses as f64 / led.result_rows as f64,
            );
        }
    }
    if t.disk.reads > 0 {
        l.insert(
            "storage.pager.ledger_gap",
            t.disk.reads.abs_diff(led.input_pages) as f64
                / t.disk.reads as f64,
        );
    }

    // Access-path costs: µs per device read, median over the sweep.
    let mut by_path: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (id, ns, reads) in &t.per_query {
        if *reads > 0 {
            by_path
                .entry(crate::workloads::paper_sweep::access_path(id))
                .or_default()
                .push(us(*ns) / *reads as f64);
        }
    }
    for (path, costs) in by_path {
        l.extend(stats::median(&costs).map(|m| (path, m)));
    }

    // Spans: self time per boundary.
    let mut spans = std::mem::take(&mut t.driven.spans);
    spans.append(&mut t.device_spans);
    trace::derive_commit_spans(&mut spans);
    let sum = trace::summarize(&spans);
    let dur_of = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    };
    let total = |name: &str| dur_of(name).iter().sum::<u64>() as f64;
    let rooted = sum.root_ns;
    let thread_wall_ns =
        t.driven.wall_s * 1e9 * f64::from(t.threads.max(1));
    l.insert("trace.coverage", rooted as f64 / thread_wall_ns);
    let stmt_ns = total("stmt").max(1.0);
    let executes = dur_of("core.execute").len();
    if executes > 0 {
        l.insert(
            "core.execute_self_us",
            us(sum.self_ns("core.execute")) / executes as f64,
        );
    }
    let disk_ns: f64 = ["read", "write", "append", "sync"]
        .iter()
        .map(|op| total(&format!("storage.disk.{op}")))
        .sum();
    l.insert("storage.disk.busy_share", disk_ns / thread_wall_ns);
    if t.log.appends > 0 {
        l.insert("wal.sync_wait_share", total("wal.commit_wait") / stmt_ns);
        l.insert("wal.checkpoint_s", total("wal.checkpoint") / 1e9);
        l.extend(
            median_ns(dur_of("wal.log.append"))
                .map(|m| ("wal.append_us", m)),
        );
    }

    let root_ns = rooted.max(1) as f64;
    let shares = sum
        .by_name
        .iter()
        // Foreign-thread device spans are roots of their own; they are
        // inside `net.roundtrip`, not beside it.
        .filter(|(name, _, _)| {
            spans.iter().any(|s| s.name == *name && s.thread != 0)
        })
        .map(|&(name, self_ns, n)| (name, self_ns as f64 / root_ns, n))
        .collect();
    TracedLayers {
        values: l,
        shares,
        spans,
    }
}

impl Report {
    /// Attach per-layer values (unregistered names are a harness bug).
    pub fn set_layers(
        &mut self,
        values: &BTreeMap<&'static str, f64>,
        shares: Shares,
    ) {
        for name in values.keys() {
            crate::metrics::metric(name);
        }
        self.layers = METRICS
            .iter()
            .filter(|m| m.scope == Scope::Layer)
            .map(|m| (m, values.get(m.name).copied()))
            .collect();
        self.shares = shares;
    }

    /// Human-readable: every metric by name, with its unit.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} trial(s), {} attempted, {} failed)",
            self.workload,
            self.seed,
            self.trials,
            self.attempted,
            self.failed
        );
        for (m, agg) in &self.e2e {
            match shown(m, agg) {
                Some(a) => println!(
                    "  {:<26} {:>14.4} {:<9} min {:.4} max {:.4}  \
                     ({} trial(s), {} sample(s))",
                    m.name,
                    a.median,
                    m.unit,
                    a.min,
                    a.max,
                    a.trials,
                    a.samples
                ),
                None => println!("  {:<26} {:>14} {}", m.name, "—", m.unit),
            }
        }
        for (m, v) in &self.layers {
            match v {
                Some(v) => {
                    println!("  {:<40} {:>14.4} {}", m.name, v, m.unit)
                }
                None => println!("  {:<40} {:>14} {}", m.name, "—", m.unit),
            }
        }
        if !self.shares.is_empty() {
            println!("  self-time shares of the traced trial:");
            for (name, share, n) in &self.shares {
                println!(
                    "    {:<22} {:>6.1} %  ({n} span(s))",
                    name,
                    share * 100.0
                );
            }
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The full record (`out/<workload>.json`, merged into
    /// `result.json`).
    pub fn to_json(&self) -> Json {
        let mut e2e = Json::obj();
        for (m, agg) in &self.e2e {
            let mut o = Json::obj();
            o.set("unit", m.unit).set("better", m.better.word());
            match shown(m, agg) {
                Some(a) => {
                    o.set("value", a.median)
                        .set("min", a.min)
                        .set("max", a.max)
                        .set("trials", a.trials as u64)
                        .set("samples", a.samples as u64);
                }
                None => {
                    o.set("value", Json::Null);
                }
            }
            e2e.set(m.name, o);
        }
        let mut layers = Json::obj();
        for (m, v) in &self.layers {
            let mut o = Json::obj();
            o.set("unit", m.unit).set("value", *v);
            layers.set(m.name, o);
        }
        let mut shares = Json::obj();
        for (name, share, _) in &self.shares {
            shares.set(name, *share);
        }
        let mut doc = Json::obj();
        doc.set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("trials", self.trials as u64)
            .set("correct", self.correct())
            .set("ops_attempted", self.attempted)
            .set("ops_failed", self.failed)
            .set(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .set("end_to_end", e2e)
            .set("per_layer", layers)
            .set("trace_self_time_shares", shares);
        doc
    }

    /// The driver's line: `correct`, `attempted`, `failed`, and every
    /// metric of one of `BENCHMARK.json`'s two lists, exactly as the
    /// report shows them. On the per-layer list a metric the workload
    /// does not produce reads 0. Every bounded metric must be real: a
    /// run too short to support one (a p95 with under 200 samples a
    /// trial) has no line at all rather than a number the report
    /// itself withholds.
    pub fn driver_line(&self, per_layer: bool) -> Result<String, String> {
        let mut metrics = Json::obj();
        let mut put = |m: &Metric, v: f64| {
            let mut o = Json::obj();
            o.set("value", v).set("unit", m.unit);
            metrics.set(m.name, o);
        };
        for (m, agg) in &self.e2e {
            let v = shown(m, agg).map(|a| a.median);
            match m.scope {
                Scope::EndToEnd if !per_layer => put(
                    m,
                    v.ok_or_else(|| {
                        format!("{} needs a longer run", m.name)
                    })?,
                ),
                Scope::EndToEndSome if per_layer => {
                    put(m, v.unwrap_or(0.0))
                }
                _ => {}
            }
        }
        if per_layer {
            for (m, v) in &self.layers {
                put(m, v.unwrap_or(0.0));
            }
        }
        let mut doc = Json::obj();
        doc.set("correct", self.correct())
            .set("attempted", self.attempted.max(1))
            .set("failed", self.failed)
            .set("metrics", metrics);
        Ok(doc.line())
    }
}

/// The trace file: spans in start order. Very long traces keep their
/// first `MAX_SPANS` spans; the metrics were computed from all of them.
pub fn trace_json(spans: &mut [Span]) -> Json {
    const MAX_SPANS: usize = 50_000;
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let mut doc = Json::obj();
    doc.set("total_spans", spans.len() as u64)
        .set("truncated", spans.len() > MAX_SPANS)
        .set(
            "spans",
            spans
                .iter()
                .take(MAX_SPANS)
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("id", s.id)
                        .set("parent", s.parent)
                        .set(
                            "stmt",
                            (s.stmt != trace::NO_STMT)
                                .then_some(u64::from(s.stmt)),
                        )
                        .set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("thread", u64::from(s.thread));
                    o
                })
                .collect::<Vec<_>>(),
        );
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Driven;
    use crate::sim::{SimDisk, SimLog};
    use crate::trace::ThreadTracer;

    /// The span tree must be rebuildable from the file: every id and
    /// parent of harness, device and derived spans reads back exactly.
    #[test]
    fn a_written_trace_parses_back_with_the_ids_it_was_given() {
        let (disk, log) = (SimDisk::new(), SimLog::new());
        disk.start_tracing();
        log.start_tracing();
        let file = disk.create_file();
        let mut t = ThreadTracer::new(2);
        for stmt in 0..3 {
            t.begin_stmt(stmt);
            t.begin("core.execute");
            disk.append_page(file, &[0; crate::sim::PAGE]).unwrap();
            log.append(b"record");
            t.end();
            t.end_stmt();
        }
        let mut spans = std::mem::take(&mut t.spans);
        spans.append(&mut disk.take_spans());
        spans.append(&mut log.take_spans());
        trace::derive_commit_spans(&mut spans);
        for source in [2, trace::DISK_SOURCE, trace::LOG_SOURCE] {
            assert!(spans.iter().any(|s| s.id >> 40 == source));
        }
        assert!(spans.iter().any(|s| s.name == "wal.commit_wait"));

        let text = trace_json(&mut spans).line();
        let doc = Json::parse(&text).unwrap();
        let read: Vec<(u64, u64)> = doc
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| {
                let field = |k| s.get(k).and_then(Json::as_u64).unwrap();
                (field("id"), field("parent"))
            })
            .collect();
        let written: Vec<(u64, u64)> =
            spans.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(read, written);
        let ids: std::collections::HashSet<u64> =
            read.iter().map(|r| r.0).collect();
        assert_eq!(ids.len(), spans.len(), "ids collide");
        for (_, parent) in read {
            assert!(parent == 0 || ids.contains(&parent));
        }
    }

    fn trial(read_ns: Vec<u64>, wall_s: f64) -> Trial {
        Trial {
            setup_s: 0.5,
            threads: 1,
            driven: Driven {
                wall_s,
                ops: read_ns.len() as u64,
                read_ns,
                ..Driven::default()
            },
            data_bytes: 2160,
            live_rows: 10,
            ..Trial::default()
        }
    }

    #[test]
    fn values_are_medians_over_trials_and_p99_is_gated() {
        let long: Vec<u64> = (1..=2000).map(|i| i * 1000).collect();
        let trials = [
            trial(long.clone(), 1.0),
            trial(long.clone(), 2.0),
            trial(long, 4.0),
        ]
        .map(summarize);
        let r = end_to_end("point_read", 1, &trials, Some(12.5));
        let get = |name: &str| {
            r.e2e.iter().find(|(m, _)| m.name == name).unwrap().1
        };
        // ops/s per trial: 2000, 1000, 500 → median 1000.
        assert_eq!(get("ops_per_s").unwrap().median, 1000.0);
        assert_eq!(get("read_p50_us").unwrap().trials, 3);
        let p99 = get("read_p99_us").unwrap();
        assert_eq!((p99.trials, p99.median), (3, 1980.0));
        assert_eq!(p99.samples, 2000);
        let m99 = crate::metrics::metric("read_p99_us");
        assert!(shown(m99, &Some(p99)).is_some());
        // Ten samples cannot carry a p99: withheld, not guessed.
        let few = Agg { samples: 10, ..p99 };
        assert!(shown(m99, &Some(few)).is_none());
        let m95 = crate::metrics::metric("read_p95_us");
        assert_eq!(get("read_p95_us").unwrap().median, 1900.0);
        assert!(shown(
            m95,
            &Some(Agg {
                samples: 200,
                ..p99
            })
        )
        .is_some());
        assert!(shown(
            m95,
            &Some(Agg {
                samples: 199,
                ..p99
            })
        )
        .is_none());
        let m50 = crate::metrics::metric("read_p50_us");
        assert!(shown(m50, &Some(few)).is_some());
        // No writes at all: the metric is absent, not zero.
        assert!(get("write_p50_us").is_none());
        assert!(get("recovery_s").is_none());
        assert_eq!(get("space_amplification").unwrap().median, 2.0);
        assert_eq!(get("peak_rss_mb").unwrap().median, 12.5);
        assert_eq!(get("failed_ops_ratio").unwrap().median, 0.0);
        assert!(r.correct());

        // The driver's end-to-end line holds exactly the bounded
        // metrics, each non-zero.
        let line = Json::parse(&r.driver_line(false).unwrap()).unwrap();
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "ops_per_s",
                "read_p50_us",
                "read_p95_us",
                "space_amplification",
                "peak_rss_mb"
            ]
        );
        assert_eq!(line.get("attempted").unwrap().as_u64(), Some(6000));

        // Too few samples for the p95: no line, not a withheld number.
        let short = [trial((1..=10).map(|i| i * 1000).collect(), 1.0)]
            .map(summarize);
        let r = end_to_end("point_read", 1, &short, Some(12.5));
        assert_eq!(r.median("read_p95_us"), None);
        assert!(r.driver_line(false).unwrap_err().contains("read_p95_us"));
        assert!(r.driver_line(true).is_ok());
    }
}
