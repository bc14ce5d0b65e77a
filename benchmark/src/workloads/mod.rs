//! The five workloads. Each builds a fresh database per trial, drives
//! a statement stream that is a pure function of the seed, checks every
//! answer, and returns a [`Trial`].

pub mod durable_commit;
pub mod history_growth;
pub mod mixed_wire;
pub mod paper_sweep;
pub mod point_read;

use crate::gen::{self, amount_of, rel_name, Class, Rel};
use crate::run::{Cfg, Driven, Exec, Trial};
use crate::sim::SimDisk;
use crate::sut::{Buffers, Embedded, Res, Shared};
use std::collections::BTreeMap;

/// Temporal relations everywhere but the sweep (which runs all four
/// types).
pub const CLASS: Class = Class::Temporal;

/// One trial of the named workload.
pub fn trial(name: &str, cfg: &Cfg, traced: bool) -> Res<Trial> {
    match name {
        "point_read" => point_read::trial(cfg, traced),
        "paper_sweep" => paper_sweep::trial(cfg, traced),
        "history_growth" => history_growth::trial(cfg, traced),
        "durable_commit" => durable_commit::trial(cfg, traced),
        "mixed_wire" => mixed_wire::trial(cfg, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Untraced trials of one run, chosen with the trial sizes: five
/// trials of ~2 s where a trial can be that short, three where it
/// cannot (the sweep needs three repetitions, and `durable_commit`
/// 2 × 2,200 operations, for a trial to hold 1,000 retrieves). The
/// short-trial workloads are also the ones whose trials the sandbox
/// disturbs most; a median of five rides out a burst that spoils two.
/// `mixed_wire` takes nine: its four threads are left to the scheduler,
/// and where it puts them moves a trial by 10–15 %.
pub fn trials(name: &str) -> usize {
    match name {
        "paper_sweep" | "durable_commit" => 3,
        "mixed_wire" => 9,
        _ => 5,
    }
}

/// Keyed current-version retrieve: exactly one row `id, amount, seq`.
pub fn current_read(rel: Rel, id: i64) -> String {
    let v = rel.var();
    format!(
        "retrieve ({v}.id, {v}.amount, {v}.seq) where {v}.id = {id} \
         when {v} overlap \"now\""
    )
}

/// Keyed single-tuple update.
pub fn replace(rel: Rel, id: i64) -> String {
    let v = rel.var();
    format!("replace {v} (seq = {v}.seq + 1) where {v}.id = {id}")
}

/// `range of h is temporal_h` / `range of i is temporal_i` on a session
/// or connection.
pub fn declare_ranges(exec: &mut impl Exec) -> Res<()> {
    for rel in Rel::BOTH {
        exec.run(&format!(
            "range of {} is {}",
            rel.var(),
            rel_name(CLASS, rel)
        ))?;
    }
    Ok(())
}

/// A non-durable, warm-buffer database holding `keys` loaded tuples
/// per relation under `frames` frames per relation, `h` / `i` declared.
pub fn build_warm(
    cfg: &Cfg,
    disk: SimDisk,
    keys: i64,
    frames: usize,
) -> Res<Embedded> {
    let mut db = Embedded::open(disk, Buffers::Frames(frames));
    db.set_warm();
    gen::load(&mut db, CLASS, keys, cfg.seed, |rel, id| {
        amount_of(cfg.seed, rel, id)
    })?;
    Ok(db)
}

/// Lock and statement-cache counters of the harness's own `Engine`
/// handle at the start of the measured phase.
pub struct EngineMark {
    locks: (u64, u64),
    plans: (u64, u64),
}

impl EngineMark {
    pub fn take(shared: &Shared) -> EngineMark {
        EngineMark {
            locks: shared.lock_stats(),
            plans: shared.plan_cache_stats(),
        }
    }

    /// The per-layer values the counters moved by since the mark.
    pub fn layers(
        &self,
        shared: &Shared,
        driven: &Driven,
        layer: &mut BTreeMap<&'static str, f64>,
    ) {
        let (exclusive, snapshot_reads) = shared.lock_stats();
        let (hits, misses) = shared.plan_cache_stats();
        let (exclusive, snapshot_reads) =
            (exclusive - self.locks.0, snapshot_reads - self.locks.1);
        let (hits, misses) = (hits - self.plans.0, misses - self.plans.1);
        let (reads, writes) = (driven.read_ns.len(), driven.write_ns.len());
        if hits + misses > 0 {
            layer.insert(
                "plan.cache_hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
        }
        if writes > 0 {
            layer.insert(
                "core.engine.exclusive_per_write",
                exclusive as f64 / writes as f64,
            );
        }
        if reads > 0 {
            layer.insert(
                "core.engine.snapshot_read_share",
                snapshot_reads as f64 / reads as f64,
            );
        }
    }
}
