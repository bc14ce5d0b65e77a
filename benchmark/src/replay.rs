//! Replays: per-layer costs measured by calling one layer's public
//! entry point on the workload's own statements (or messages), outside
//! the measured run.

use crate::gen::Class;
use crate::run::{Cfg, Kind, Op, Trial};
use crate::sim::{SimDisk, SimLog};
use crate::stats;
use crate::sut::{self, Embedded, Res};
use crate::workloads::{
    durable_commit, history_growth, mixed_wire, paper_sweep, point_read,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// At most this many statements of a stream are replayed, and at least
/// this many samples are taken (short corpora are replayed in rounds).
const MAX_STATEMENTS: usize = 20_000;
const MIN_SAMPLES: usize = 2_000;

/// A database to bind against and the statements to replay on it:
/// `(text, is a retrieve)`.
type Corpus = Vec<(Embedded, Vec<(String, bool)>)>;

fn corpus(workload: &str, cfg: &Cfg) -> Res<Corpus> {
    fn of_ops(ops: impl Iterator<Item = Op>) -> Vec<(String, bool)> {
        ops.take(MAX_STATEMENTS)
            .map(|op| (op.stmt, op.kind == Kind::Read))
            .collect()
    }
    Ok(match workload {
        "point_read" => vec![(
            point_read::build(cfg, SimDisk::new())?,
            of_ops(point_read::ops(cfg)),
        )],
        "paper_sweep" => Class::ALL
            .into_iter()
            .map(|class| {
                Ok((
                    paper_sweep::build(class, SimDisk::new())?,
                    paper_sweep::statements(class)
                        .into_iter()
                        .map(|s| (s, true))
                        .collect(),
                ))
            })
            .collect::<Res<Corpus>>()?,
        "history_growth" => vec![(
            history_growth::build(cfg, SimDisk::new())?,
            of_ops(history_growth::ops(cfg)),
        )],
        "durable_commit" => vec![(
            durable_commit::build(cfg, &SimDisk::new(), &SimLog::new())?,
            of_ops(durable_commit::ops(cfg)),
        )],
        "mixed_wire" => vec![(
            mixed_wire::build(cfg, SimDisk::new())?,
            of_ops(mixed_wire::stream(cfg, 0)),
        )],
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn median_us(ns: &[f64]) -> Option<f64> {
    stats::median(ns).map(|m| m / 1e3)
}

/// `tquel.parse_us`: median `parse_statement` time over the workload's
/// statements. `core.bind_plan_us`: median `estimate_retrieve` time
/// (parse + bind + plan, nothing executed) over its retrieves, minus
/// the median parse time of the same retrieves.
pub fn front_end(
    workload: &str,
    cfg: &Cfg,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let corpus = corpus(workload, cfg)?;
    let (mut parse, mut parse_reads, mut estimate) =
        (Vec::new(), Vec::new(), Vec::new());
    while parse.len() < MIN_SAMPLES {
        for (db, stmts) in &corpus {
            for (stmt, is_read) in stmts {
                let t0 = Instant::now();
                let parsed = sut::parse(stmt);
                let ns = t0.elapsed().as_nanos() as f64;
                std::hint::black_box(parsed)?;
                parse.push(ns);
                if *is_read {
                    parse_reads.push(ns);
                    let t0 = Instant::now();
                    let est = db.estimate(stmt);
                    estimate.push(t0.elapsed().as_nanos() as f64);
                    std::hint::black_box(est)?;
                }
            }
        }
    }
    layer.extend(median_us(&parse).map(|m| ("tquel.parse_us", m)));
    if let (Some(e), Some(p)) =
        (median_us(&estimate), median_us(&parse_reads))
    {
        layer.insert("core.bind_plan_us", (e - p).max(0.0));
    }
    Ok(())
}

/// `net.wire.codec_us` / `net.wire.bytes_per_roundtrip`: the four
/// codec calls of a round trip replayed on the messages the traced
/// trial really exchanged.
pub fn codec(
    traced: &Trial,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Res<()> {
    let (mut ns, mut bytes) = (Vec::new(), 0u64);
    for (stmt, reply) in &traced.wire_kept {
        let (n, b) = sut::codec_roundtrip(stmt, reply)?;
        ns.push(n as f64);
        bytes += b;
    }
    if let Some(m) = median_us(&ns) {
        layer.insert("net.wire.codec_us", m);
        layer.insert(
            "net.wire.bytes_per_roundtrip",
            bytes as f64 / ns.len() as f64,
        );
    }
    Ok(())
}
