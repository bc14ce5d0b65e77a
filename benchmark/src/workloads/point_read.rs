//! `point_read`: one embedded session, read-only, **fits cache**.
//!
//! 256 tuples per relation (32 data pages each, plus the ISAM
//! directory) under 128 frames per relation, every page warmed before
//! timing: storage does no device I/O at all, so what is timed is the
//! parser, the binder, the planner and the statement cache. A front-end
//! change shows here; a pager change must not.
//!
//! The issue asked for 4,096 tuples. At that size a keyed ISAM retrieve
//! makes ~130 buffered page accesses (the directory search touches a
//! page per entry) and costs 36 µs against 6 µs for the hashed one, so
//! execution, not the front end, was 77 % of the workload. A workload
//! that fails its separation is resized: at 512 tuples the two tie, at
//! 256 parse + bind + plan is 60 % (see README, "Shares").

use super::{build_warm, current_read, declare_ranges, EngineMark};
use crate::gen::{amount_of, Rel, Rng};
use crate::run::{drive, no_each, Cfg, Check, Kind, Op, Trial};
use crate::sim::SimDisk;
use crate::sut::{Embedded, Res};
use crate::trace::ThreadTracer;
use std::time::Instant;

pub const KEYS: i64 = 256;
const FRAMES: usize = 128;
/// Keyed retrieves per trial at scale 1.0 (≈ 2 s here).
const BASE_OPS: u64 = 300_000;

/// Half on `h`, half on `i`, key uniform: the text-keyed statement
/// cache sees 512 distinct programs through 128 slots.
pub fn ops(cfg: &Cfg) -> impl ExactSizeIterator<Item = Op> {
    let mut rng = Rng::fork(cfg.seed, 1);
    let seed = cfg.seed;
    (0..cfg.scaled(BASE_OPS, 16) as usize).map(move |k| {
        let rel = Rel::BOTH[k % 2];
        let id = rng.range(1, KEYS);
        Op {
            stmt: current_read(rel, id),
            kind: Kind::Read,
            check: Check::Row {
                id,
                amount: amount_of(seed, rel, id),
                seq: 0,
            },
        }
    })
}

/// A loaded, unwarmed database (also what the front-end replay binds
/// against).
pub fn build(cfg: &Cfg, disk: SimDisk) -> Res<Embedded> {
    build_warm(cfg, disk, KEYS, FRAMES)
}

pub fn trial(cfg: &Cfg, traced: bool) -> Res<Trial> {
    let t0 = Instant::now();
    let disk = SimDisk::new();
    let shared = build(cfg, disk.clone())?.into_shared();
    let mut sess = shared.session();
    declare_ranges(&mut sess)?;
    // Warm: touch every key once through both access methods.
    for rel in Rel::BOTH {
        for id in 1..=KEYS {
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
    let driven = drive(&mut sess, ops(cfg), cfg, tracer.as_mut(), no_each);

    let mut trial = Trial {
        setup_s,
        threads: 1,
        disk: disk.counts().since(&disk0),
        data_bytes: disk.data_bytes(),
        live_rows: 2 * KEYS as u64,
        device_spans: disk.take_spans(),
        ..Trial::default()
    };
    mark.layers(&shared, &driven, &mut trial.layer);
    trial.driven = driven;
    Ok(trial)
}
