//! `history_growth`: one embedded session, non-durable, **much larger
//! than cache** and growing.
//!
//! 8,192 keys per relation (≈ 2,050 pages before any update) under 8
//! frames per relation — the data is ~250× the pool when the run
//! starts. 60 % skewed `replace` (80 % of updates land on 10 % of the
//! keys), 10 % `append`, 30 % probes (hot-key current, cold-key
//! current, hot-key `as of` a past instant), with `reorganize_all()`
//! called inline six times. The same storage layer as the read
//! workloads, used for writes beside reads: a read-path gain paid for
//! in write cost, space or reorganisation time shows here.

use super::{
    build_warm, current_read, declare_ranges, replace, EngineMark, CLASS,
};
use crate::gen::{self, amount_of, rel_name, Rel, Rng, USER_ROW_BYTES};
use crate::run::{drive, Cfg, Check, Driven, Kind, Op, Trial};
use crate::sim::SimDisk;
use crate::sut::{Embedded, Res};
use crate::trace::ThreadTracer;
use std::time::Instant;

pub const KEYS: i64 = 8192;
/// The hot set: 10 % of the keys take 80 % of the updates.
const HOT: i64 = KEYS / 10;
const FRAMES: usize = 8;
/// Operations per trial at scale 1.0 (≈ 2 s here).
const BASE_OPS: u64 = 60_000;
const REORG_CYCLES: u64 = 6;
/// Replaces applied before the run so the `as of` instant has history
/// on both sides of it.
const AGE_OPS: u64 = 2048;
const PROBES: i64 = 64;

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Replace,
    Append,
    /// Current version of a hot key.
    HotRead,
    /// Current version of a cold (or appended) key.
    ColdRead,
    /// A hot key `as of` the instant the aging phase ended.
    PastRead,
}

/// The measured phase's statements, generated one at a time, and what
/// they leave behind.
pub struct Stream {
    seed: u64,
    rng: Rng,
    kinds: std::vec::IntoIter<OpKind>,
    /// `seq[rel][id]` of the current version; index 0 unused.
    seq: [Vec<i64>; 2],
    /// The same at the end of the aging phase (what `as of` sees).
    seq0: [Vec<i64>; 2],
    t0: String,
    /// A session's "now" is the instant of the last commit, so a
    /// current-version read straight after a replace of the same key
    /// would meet both versions (closed intervals again): reads step
    /// past the key the latest write replaced.
    replaced_last: Option<(Rel, i64)>,
    appended: u64,
    written_rows: u64,
}

fn skewed_key(rng: &mut Rng) -> i64 {
    if rng.below(100) < 80 {
        rng.range(1, HOT)
    } else {
        rng.range(HOT + 1, KEYS)
    }
}

/// The instant the aging phase ends, as a TQuel literal: March 1, 1980
/// plus one 60 s tick per aging statement. The phase closes with one
/// retrieve so that the instant lies strictly after the last aging
/// `replace`: valid-time intervals are closed, and at the very instant
/// of a replace both the old and the new version overlap it.
fn t0_literal() -> String {
    let secs = (AGE_OPS + 1) * 60;
    assert!(secs < 31 * 86_400, "aging must end within March");
    format!(
        "{:02}:{:02}:{:02} 3/{}/1980",
        secs % 86_400 / 3600,
        secs % 3600 / 60,
        secs % 60,
        1 + secs / 86_400
    )
}

fn pick(rng: &mut Rng) -> Rel {
    Rel::BOTH[rng.below(2) as usize]
}

/// The aging statements (run during set-up) and the measured stream.
fn plan(cfg: &Cfg) -> (Vec<String>, Stream) {
    let mut rng = Rng::fork(cfg.seed, 3);
    let mut seq =
        [vec![0i64; KEYS as usize + 1], vec![0i64; KEYS as usize + 1]];
    let mut aging: Vec<String> = (0..AGE_OPS)
        .map(|_| {
            let (rel, id) = (pick(&mut rng), skewed_key(&mut rng));
            seq[rel as usize][id as usize] += 1;
            replace(rel, id)
        })
        .collect();
    aging.push(current_read(Rel::H, 1));
    let kinds = gen::exact_mix(
        &mut rng,
        cfg.scaled(BASE_OPS, 12),
        &[
            (OpKind::Replace, 60),
            (OpKind::Append, 10),
            (OpKind::HotRead, 10),
            (OpKind::ColdRead, 10),
            (OpKind::PastRead, 10),
        ],
    );
    let stream = Stream {
        seed: cfg.seed,
        rng,
        kinds: kinds.into_iter(),
        seq0: seq.clone(),
        seq,
        t0: t0_literal(),
        replaced_last: None,
        appended: 0,
        written_rows: 0,
    };
    (aging, stream)
}

impl Iterator for Stream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let kind = self.kinds.next()?;
        let rel = pick(&mut self.rng);
        let r = rel as usize;
        let replaced_last = self.replaced_last;
        let aside = |id: i64, lo: i64, hi: i64| {
            if replaced_last == Some((rel, id)) {
                if id < hi {
                    id + 1
                } else {
                    lo
                }
            } else {
                id
            }
        };
        let seed = self.seed;
        let row = |id: i64, seq: i64| Check::Row {
            id,
            amount: amount_of(seed, rel, id),
            seq,
        };
        Some(match kind {
            OpKind::Replace => {
                let id = skewed_key(&mut self.rng);
                self.seq[r][id as usize] += 1;
                self.written_rows += 1;
                self.replaced_last = Some((rel, id));
                Op {
                    stmt: replace(rel, id),
                    kind: Kind::Write,
                    check: Check::Affected(1),
                }
            }
            OpKind::Append => {
                let id = self.seq[r].len() as i64;
                self.seq[r].push(0);
                self.appended += 1;
                self.written_rows += 1;
                self.replaced_last = None;
                Op {
                    stmt: gen::append_stmt(
                        &rel_name(CLASS, rel),
                        id,
                        amount_of(seed, rel, id),
                        &gen::string_of(seed, rel, id),
                    ),
                    kind: Kind::Write,
                    check: Check::Affected(1),
                }
            }
            OpKind::HotRead => {
                let id = aside(self.rng.range(1, HOT), 1, HOT);
                Op {
                    stmt: current_read(rel, id),
                    kind: Kind::Read,
                    check: row(id, self.seq[r][id as usize]),
                }
            }
            OpKind::ColdRead => {
                // Cold keys include everything appended so far.
                let last = self.seq[r].len() as i64 - 1;
                let id =
                    aside(self.rng.range(HOT + 1, last), HOT + 1, last);
                Op {
                    stmt: current_read(rel, id),
                    kind: Kind::Read,
                    check: row(id, self.seq[r][id as usize]),
                }
            }
            OpKind::PastRead => {
                let (v, id) = (rel.var(), self.rng.range(1, HOT));
                let t0 = &self.t0;
                Op {
                    stmt: format!(
                        "retrieve ({v}.id, {v}.amount, {v}.seq) \
                         where {v}.id = {id} \
                         when {v} overlap \"{t0}\" as of \"{t0}\""
                    ),
                    kind: Kind::Read,
                    check: row(id, self.seq0[r][id as usize]),
                }
            }
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.kinds.size_hint()
    }
}

impl ExactSizeIterator for Stream {}

/// Statements of the measured phase (for the front-end replay).
pub fn ops(cfg: &Cfg) -> Stream {
    plan(cfg).1
}

/// A loaded database, before aging.
pub fn build(cfg: &Cfg, disk: SimDisk) -> Res<Embedded> {
    build_warm(cfg, disk, KEYS, FRAMES)
}

pub fn trial(cfg: &Cfg, traced: bool) -> Res<Trial> {
    let (aging, mut stream) = plan(cfg);

    let t0 = Instant::now();
    let disk = SimDisk::new();
    let mut db = build(cfg, disk.clone())?;
    for stmt in &aging {
        db.execute(stmt)?;
    }
    if db.now_literal() != t0_literal() {
        return Err(format!(
            "aging ended at {}, the stream assumed {}",
            db.now_literal(),
            t0_literal()
        ));
    }
    let shared = db.into_shared();
    let mut sess = shared.session();
    declare_ranges(&mut sess)?;
    // Warm what 8 frames can hold: one pass over the hot keys.
    for rel in Rel::BOTH {
        for id in 1..=HOT {
            sess.execute(&current_read(rel, id))?;
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut tracer = traced.then(|| ThreadTracer::new(1));
    if traced {
        disk.start_tracing();
    }
    let disk0 = disk.counts();
    let mark = EngineMark::take(&shared);
    let every = (stream.len() as u64 / REORG_CYCLES).max(1) as usize;
    let (mut reorg_ns, mut migrated, mut rewritten) = (0u64, 0u64, 0u64);
    let driven = drive(
        &mut sess,
        &mut stream,
        cfg,
        tracer.as_mut(),
        |k, tracer, d: &mut Driven| {
            if (k + 1) % every != 0 {
                return;
            }
            let before = disk.counts();
            let r0 = Instant::now();
            if let Some(t) = tracer {
                t.begin("core.reorg");
            }
            let pass = shared.reorganize_all();
            if let Some(t) = tracer {
                t.end();
            }
            reorg_ns += r0.elapsed().as_nanos() as u64;
            rewritten += disk.counts().since(&before).pages_written();
            match pass {
                Ok(n) => migrated += n,
                Err(e) => {
                    d.fail(format!("reorganize_all after op {k}: {e}"))
                }
            }
        },
    );
    let measured = disk.counts().since(&disk0);
    let device_spans = disk.take_spans();

    let mut trial = Trial {
        setup_s,
        threads: 1,
        disk: measured,
        data_bytes: disk.data_bytes(),
        live_rows: 2 * KEYS as u64 + stream.appended,
        user_bytes_written: stream.written_rows * USER_ROW_BYTES,
        device_spans,
        ..Trial::default()
    };
    mark.layers(&shared, &driven, &mut trial.layer);
    trial.layer.insert(
        "core.reorg.busy_share",
        reorg_ns as f64 / 1e9 / driven.wall_s,
    );
    trial.driven = driven;
    trial
        .layer
        .insert("core.reorg.rows_migrated", migrated as f64);
    trial
        .layer
        .insert("core.reorg.pages_rewritten", rewritten as f64);

    // End-of-run probes: device reads per probe, by kind.
    let mut probe = |name: &'static str,
                     stmt: &dyn Fn(Rel, i64) -> String,
                     first: i64|
     -> Res<()> {
        let before = disk.counts().reads;
        for k in 0..PROBES {
            let rel = Rel::BOTH[(k % 2) as usize];
            sess.execute(&stmt(rel, first + k))?;
        }
        let reads = disk.counts().reads - before;
        trial.layer.insert(name, reads as f64 / PROBES as f64);
        Ok(())
    };
    probe("storage.history.pages_per_hot_probe", &current_read, 1)?;
    probe(
        "storage.history.pages_per_cold_probe",
        &current_read,
        HOT + 1,
    )?;
    probe(
        "storage.chain.pages_per_version_scan",
        &|rel, id| {
            let v = rel.var();
            format!("retrieve ({v}.id, {v}.seq) where {v}.id = {id}")
        },
        1,
    )?;
    Ok(trial)
}
