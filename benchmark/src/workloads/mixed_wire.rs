//! `mixed_wire`: two TCP clients against an in-process server.
//!
//! `Server::bind("127.0.0.1:0")` with the default `ServerConfig` over
//! the paper's temporal database (1,024 tuples per relation, 8 frames
//! per relation, non-durable). Each client runs the `throughput` mix:
//! every 16th statement a two-variable join, every 8th a keyed
//! `replace`, the rest keyed version-scan retrieves. Framing, the
//! session threads, the statement guard and the engine's commit-lock /
//! snapshot-read split do the work here and nowhere else.
//!
//! Each client touches only keys of its own parity, so the number of
//! versions every retrieve must return is known in advance.
//!
//! The two client threads and the two session threads answering them
//! are left to the scheduler on both CPUs, so a read can run beside the
//! other connection's write — the split this workload exists to watch.
//! On this 2-vCPU sandbox a wake-up that crosses CPUs costs more than
//! the statement, and where the scheduler puts the threads moves a
//! trial by 10–15 %; the workload answers with nine trials, not by
//! confining the threads to one CPU (which repeats within 2 % and can
//! show neither contention nor its absence).

use super::{build_warm, declare_ranges, replace, EngineMark};
use crate::gen::{amount_of, Rel, Rng, USER_ROW_BYTES};
use crate::run::{
    drive, drive_all, no_each, Cfg, Check, Driven, Exec, Kind, Op, Trial,
    WireExec,
};
use crate::sim::SimDisk;
use crate::sut::{Embedded, Res, WireClient};
use std::time::Instant;

pub const KEYS: i64 = 1024;
pub const CLIENTS: u64 = 2;
const FRAMES: usize = 8;
/// Operations per client per trial at scale 1.0 (≈ 1.7 s here).
const BASE_OPS: u64 = 15_000;

/// One client's statements, generated one at a time.
pub struct Stream {
    seed: u64,
    client: u64,
    rng: Rng,
    /// Operations made so far, and in all.
    k: u64,
    n: u64,
    /// `seq` of the current version of each `h` key (the client's own
    /// are the only ones it moves).
    seq: Vec<i64>,
    replaced: u64,
}

pub fn stream(cfg: &Cfg, client: u64) -> Stream {
    Stream {
        seed: cfg.seed,
        client,
        rng: Rng::fork(cfg.seed, 20 + client),
        k: 0,
        n: cfg.scaled(BASE_OPS, 16),
        seq: vec![0i64; KEYS as usize + 1],
        replaced: 0,
    }
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.k == self.n {
            return None;
        }
        self.k += 1;
        // Own keys: ids of the client's parity.
        let id = self.rng.range(1, KEYS / CLIENTS as i64) * CLIENTS as i64
            - self.client as i64 % CLIENTS as i64;
        let amount = amount_of(self.seed, Rel::H, id);
        let versions = self.seq[id as usize] + 1;
        Some(if self.k.is_multiple_of(16) {
            // Every `h` version of the key joins the one `i` version.
            Op {
                stmt: format!(
                    "retrieve (h.amount, i.seq) \
                     where h.id = i.id and h.id = {id}"
                ),
                kind: Kind::Read,
                check: Check::Versions {
                    amount,
                    n: versions as u64,
                    seq_sum: 0,
                },
            }
        } else if self.k.is_multiple_of(8) {
            self.seq[id as usize] += 1;
            self.replaced += 1;
            Op {
                stmt: replace(Rel::H, id),
                kind: Kind::Write,
                check: Check::Affected(1),
            }
        } else {
            // No `when`: the key's whole valid-time history, one row
            // per version, `seq` counting up from 0.
            Op {
                stmt: version_scan(id),
                kind: Kind::Read,
                check: Check::Versions {
                    amount,
                    n: versions as u64,
                    seq_sum: versions * (versions - 1) / 2,
                },
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.n - self.k) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Stream {}

/// A loaded database (also what the replays run against).
pub fn build(cfg: &Cfg, disk: SimDisk) -> Res<Embedded> {
    build_warm(cfg, disk, KEYS, FRAMES)
}

fn version_scan(id: i64) -> String {
    format!("retrieve (h.amount, h.seq) where h.id = {id}")
}

/// Ranges declared, every key read once.
fn warm(exec: &mut impl Exec) -> Res<()> {
    declare_ranges(exec)?;
    for id in 1..=KEYS {
        exec.run(&version_scan(id))?;
    }
    Ok(())
}

/// The same streams through one embedded session, one after the other
/// (the clients' keys are disjoint, so every check still holds): what
/// the statements cost without the wire. Returns the read p50 in µs.
///
/// One session, not one per client: over the wire a session thread is
/// busy for a fraction of each round trip and the two seldom meet in
/// the engine, so the statement cost inside a round trip is the
/// uncontended one. Two embedded sessions run flat out in parallel
/// measure something else (see the README's observations).
pub fn embedded_read_p50_us(cfg: &Cfg) -> Res<f64> {
    let shared = build(cfg, SimDisk::new())?.into_shared();
    let mut sess = shared.session();
    warm(&mut sess)?;
    let mut driven = Driven::default();
    for c in 0..CLIENTS {
        driven.merge(drive(&mut sess, stream(cfg, c), cfg, None, no_each));
    }
    if let Some(e) = driven.first_failure {
        return Err(format!("embedded replay: {e}"));
    }
    driven.read_ns.sort_unstable();
    crate::stats::percentile(&driven.read_ns, 50.0)
        .map(|ns| ns as f64 / 1e3)
        .ok_or_else(|| "embedded replay made no reads".to_string())
}

pub fn trial(cfg: &Cfg, traced: bool) -> Res<Trial> {
    let t0 = Instant::now();
    let disk = SimDisk::new();
    let shared = build(cfg, disk.clone())?.into_shared();
    let serving = shared.serve()?;
    let mut connect_us = Vec::new();
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let c0 = Instant::now();
        let client = WireClient::connect(serving.addr)?;
        connect_us.push(c0.elapsed().as_secs_f64() * 1e6);
        let mut exec = WireExec {
            client,
            kept: Vec::new(),
        };
        warm(&mut exec)?;
        clients.push((exec, stream(cfg, c)));
    }
    let setup_s = t0.elapsed().as_secs_f64();

    if traced {
        disk.start_tracing();
    }
    let disk0 = disk.counts();
    let mark = EngineMark::take(&shared);
    let (driven, clients) = drive_all(cfg, clients, traced);
    let disk_d = disk.counts().since(&disk0);

    let replaced: u64 = clients.iter().map(|(_, s)| s.replaced).sum();
    let wire_kept = clients.into_iter().flat_map(|(c, _)| c.kept).collect();
    let report = serving.stop()?;

    let mut trial = Trial {
        setup_s,
        threads: CLIENTS as u32,
        disk: disk_d,
        data_bytes: disk.data_bytes(),
        live_rows: 2 * KEYS as u64,
        user_bytes_written: replaced * USER_ROW_BYTES,
        device_spans: disk.take_spans(),
        wire_kept,
        ..Trial::default()
    };
    mark.layers(&shared, &driven, &mut trial.layer);
    trial.driven = driven;
    let l = &mut trial.layer;
    connect_us.sort_by(f64::total_cmp);
    l.insert("net.client.connect_us", connect_us[connect_us.len() / 2]);
    l.insert("net.server.query_errors", report.query_errors as f64);
    l.insert("net.server.panics_caught", report.panics_caught as f64);
    l.insert("net.server.accept_errors", report.accept_errors as f64);
    Ok(trial)
}
