//! Update-count sweeps: run the benchmark queries on a database as its
//! average update count grows, recording sizes and input/output page
//! costs — the raw data behind every figure. Also the buffer-sensitivity
//! sweep behind fig11, which holds the update count fixed and grows the
//! frames-per-relation cap instead.

use crate::queries::{queries_for, BenchQuery};
use crate::workload::{
    build_database, build_scale_database, evolve_scale_round,
    evolve_uniform, BenchConfig, ScaleConfig, SCALE_REL,
};
use std::collections::BTreeMap;
use tdbms_core::Database;
use tdbms_kernel::Prng;

/// Measured page costs of one query at one update count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Input pages (reads of user relations including temporaries).
    pub input: u64,
    /// Output pages (temporary/materialized writes).
    pub output: u64,
    /// Result tuples.
    pub tuples: u64,
}

/// All measurements for one database configuration across update counts
/// `0..=max_uc`.
#[derive(Debug, Clone)]
pub struct SweepData {
    /// The database configuration.
    pub cfg: BenchConfig,
    /// Highest update count measured.
    pub max_uc: u32,
    /// Total pages of the hashed relation, per update count.
    pub sizes_h: Vec<u32>,
    /// Total pages of the ISAM relation, per update count.
    pub sizes_i: Vec<u32>,
    /// Per query id: costs per update count (index = update count).
    pub costs: BTreeMap<&'static str, Vec<Cost>>,
    /// Per query id: planner-estimated `(input, output)` page costs per
    /// update count, from [`Database::estimate_retrieve`] — computed
    /// without executing, from each relation's `RelationMeta`.
    pub est: BTreeMap<&'static str, Vec<(u64, u64)>>,
    /// ISAM directory levels of the `_i` relation (constant across the
    /// sweep; the directory is static).
    pub dir_levels_i: u32,
}

impl SweepData {
    /// Input pages of `query` at `uc`.
    pub fn input(&self, query: &str, uc: u32) -> Option<u64> {
        self.costs.get(query).map(|v| v[uc as usize].input)
    }

    /// Output pages of `query` at `uc`.
    pub fn output(&self, query: &str, uc: u32) -> Option<u64> {
        self.costs.get(query).map(|v| v[uc as usize].output)
    }

    /// Planner-estimated input pages of `query` at `uc`.
    pub fn est_input(&self, query: &str, uc: u32) -> Option<u64> {
        self.est.get(query).map(|v| v[uc as usize].0)
    }
}

/// Measure one query's page costs (the statement starts with cold buffers
/// and fresh counters, as in the paper's methodology).
pub fn measure(db: &mut Database, q: &BenchQuery) -> Cost {
    let out = db
        .execute(&q.tquel)
        .unwrap_or_else(|e| panic!("{} failed: {e}\n{}", q.id, q.tquel));
    Cost {
        input: out.stats.input_pages,
        output: out.stats.output_pages,
        tuples: out.affected as u64,
    }
}

/// Run a full sweep: measure all applicable queries at update count 0,
/// then alternate update rounds and measurements up to `max_uc`. Returns
/// the data and the evolved database (used further by the Figure 10
/// experiments).
pub fn run_sweep(cfg: BenchConfig, max_uc: u32) -> (SweepData, Database) {
    let mut db = build_database(&cfg);
    let queries = queries_for(cfg.class);
    let mut data = SweepData {
        cfg,
        max_uc,
        sizes_h: Vec::with_capacity(max_uc as usize + 1),
        sizes_i: Vec::with_capacity(max_uc as usize + 1),
        costs: queries
            .iter()
            .map(|q| (q.id, Vec::with_capacity(max_uc as usize + 1)))
            .collect(),
        est: queries
            .iter()
            .map(|q| (q.id, Vec::with_capacity(max_uc as usize + 1)))
            .collect(),
        dir_levels_i: db
            .relation_meta(&cfg.rel_i())
            .expect("relation exists")
            .directory_levels,
    };
    for uc in 0..=max_uc {
        if uc > 0 {
            evolve_uniform(&mut db, &cfg);
        }
        data.sizes_h
            .push(db.relation_meta(&cfg.rel_h()).unwrap().total_pages);
        data.sizes_i
            .push(db.relation_meta(&cfg.rel_i()).unwrap().total_pages);
        for q in &queries {
            // Estimate first: it is side-effect-free (no clock tick, no
            // buffer invalidation, no counter reset), so the measured
            // run that follows is untouched.
            let est = db.estimate_retrieve(&q.tquel).unwrap_or_else(|e| {
                panic!("{} estimate failed: {e}", q.id)
            });
            data.est.get_mut(q.id).expect("registered").push(est);
            let cost = measure(&mut db, q);
            data.costs.get_mut(q.id).expect("registered").push(cost);
        }
    }
    (data, db)
}

/// Page costs plus buffer behaviour of one query at one frame cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferCost {
    /// Input/output pages and result tuples at this cap.
    pub cost: Cost,
    /// Buffered accesses satisfied without a disk fetch.
    pub hits: u64,
    /// Frames evicted under capacity pressure.
    pub evictions: u64,
}

/// The buffer-sensitivity sweep: one database at a fixed update count,
/// measured at each frames-per-relation setting.
#[derive(Debug, Clone)]
pub struct BufferSweepData {
    /// The database configuration.
    pub cfg: BenchConfig,
    /// The fixed update count (the paper reports UC 14).
    pub uc: u32,
    /// The frame caps measured, in order (fig11 uses 1..=8).
    pub frames: Vec<usize>,
    /// Per query id: one [`BufferCost`] per entry of `frames`.
    pub costs: BTreeMap<&'static str, Vec<BufferCost>>,
}

impl BufferSweepData {
    /// Input pages of `query` at frame-cap index `fi`.
    pub fn input(&self, query: &str, fi: usize) -> Option<u64> {
        self.costs.get(query).map(|v| v[fi].cost.input)
    }

    /// Buffer hits of `query` at frame-cap index `fi`.
    pub fn hits(&self, query: &str, fi: usize) -> Option<u64> {
        self.costs.get(query).map(|v| v[fi].hits)
    }
}

/// Run the buffer-sensitivity sweep: build the database, evolve it to
/// `uc`, then measure every applicable query at each cap in `frames`.
/// Each cap applies to every pool: the benchmark relations' existing
/// ones and the temporaries a decomposed query materializes.
///
/// The paper's reference strings are independent of buffering (cold
/// buffers per statement, access paths chosen before any page is read),
/// so under LRU — a stack algorithm — each query's input-page curve is
/// provably non-increasing in the cap; the paper's 1-frame setup is the
/// leftmost, most pessimistic point.
pub fn run_buffer_sweep(
    cfg: BenchConfig,
    uc: u32,
    frames: &[usize],
) -> BufferSweepData {
    let mut db = build_database(&cfg);
    for _ in 0..uc {
        evolve_uniform(&mut db, &cfg);
    }
    let queries = queries_for(cfg.class);
    let mut data = BufferSweepData {
        cfg,
        uc,
        frames: frames.to_vec(),
        costs: queries
            .iter()
            .map(|q| (q.id, Vec::with_capacity(frames.len())))
            .collect(),
    };
    for &f in frames {
        db.set_default_buffer_frames(f);
        for q in &queries {
            let out = db
                .execute(&q.tquel)
                .unwrap_or_else(|e| panic!("{} failed: {e}", q.id));
            data.costs.get_mut(q.id).expect("registered").push(
                BufferCost {
                    cost: Cost {
                        input: out.stats.input_pages,
                        output: out.stats.output_pages,
                        tuples: out.affected as u64,
                    },
                    hits: out.stats.buffer_hits,
                    evictions: out.stats.evictions,
                },
            );
        }
    }
    data
}

/// Run one sweep per configuration across `threads` worker threads
/// (work-queue order, results in configuration order). With `threads <= 1`
/// this is exactly the serial loop — same code path, same figures — and
/// with more threads each configuration still builds its own database, so
/// the measurements are bit-for-bit identical to the serial run.
pub fn run_sweeps_threaded(
    cfgs: &[BenchConfig],
    max_uc: u32,
    threads: usize,
) -> Vec<SweepData> {
    if threads <= 1 || cfgs.len() <= 1 {
        return cfgs.iter().map(|c| run_sweep(*c, max_uc).0).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<SweepData>>> =
        cfgs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(cfgs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfgs.len() {
                    break;
                }
                let data = run_sweep(cfgs[i], max_uc).0;
                *results[i].lock().expect("no panics hold this lock") =
                    Some(data);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("unpoisoned").expect("computed"))
        .collect()
}

/// [`run_buffer_sweep`] split across `threads` worker threads: the frame
/// caps are chunked, and each chunk rebuilds + evolves its own copy of the
/// (deterministic) database. The benchmark queries are side-effect free,
/// so each cap's measurement is independent of which database copy serves
/// it — the merged result equals the serial sweep.
pub fn run_buffer_sweep_threaded(
    cfg: BenchConfig,
    uc: u32,
    frames: &[usize],
    threads: usize,
) -> BufferSweepData {
    if threads <= 1 || frames.len() <= 1 {
        return run_buffer_sweep(cfg, uc, frames);
    }
    let nchunks = threads.min(frames.len());
    let per_chunk = frames.len().div_ceil(nchunks);
    let chunks: Vec<&[usize]> = frames.chunks(per_chunk).collect();
    let parts: Vec<std::sync::Mutex<Option<BufferSweepData>>> =
        chunks.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for (i, chunk) in chunks.iter().enumerate() {
            let parts = &parts;
            s.spawn(move || {
                let data = run_buffer_sweep(cfg, uc, chunk);
                *parts[i].lock().expect("no panics hold this lock") =
                    Some(data);
            });
        }
    });
    let mut merged = BufferSweepData {
        cfg,
        uc,
        frames: frames.to_vec(),
        costs: BTreeMap::new(),
    };
    for part in parts {
        let part =
            part.into_inner().expect("unpoisoned").expect("computed");
        for (q, costs) in part.costs {
            merged.costs.entry(q).or_default().extend(costs);
        }
    }
    merged
}

/// One round of the scale sweep: chain-probe page costs and storage
/// footprint after that round's updates (and, with reorganization on,
/// after that round's compaction pass).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleRound {
    /// Input pages of the at-now keyed probe on the hot key.
    pub hot_pages: u64,
    /// Input pages of the at-now keyed probe on the never-updated key.
    pub cold_pages: u64,
    /// Total pages of the primary file.
    pub primary_pages: u64,
    /// Rows resident in the history sidecar.
    pub history_rows: u64,
    /// Versions migrated by this round's reorganization pass.
    pub migrated: u64,
}

/// All rounds of one scale sweep, one configuration, reorg on or off.
#[derive(Debug, Clone)]
pub struct ScaleSweepData {
    /// The workload configuration.
    pub cfg: ScaleConfig,
    /// Whether each round ended with a reorganization pass.
    pub reorg: bool,
    /// Round 0 (freshly loaded) through round `rounds`.
    pub rounds: Vec<ScaleRound>,
}

impl ScaleSweepData {
    /// Hot-probe input pages of the last round.
    pub fn hot_final(&self) -> u64 {
        self.rounds.last().map(|r| r.hot_pages).unwrap_or(0)
    }

    /// Cold-probe input pages of the last round.
    pub fn cold_final(&self) -> u64 {
        self.rounds.last().map(|r| r.cold_pages).unwrap_or(0)
    }

    /// Total versions migrated across all rounds.
    pub fn migrated_total(&self) -> u64 {
        self.rounds.iter().map(|r| r.migrated).sum()
    }
}

/// Run the scale sweep: build the scale database, then alternate skewed
/// (or bursty) update rounds with keyed at-now probe measurements. With
/// `reorg` true every round ends with a [`Database::reorganize`] pass,
/// so superseded versions leave the primary chains before the probes
/// run — the bounded-I/O claim the `scale` driver asserts. Each probe
/// starts with cold buffers (the in-memory database's per-statement
/// default), so its `input_pages` count *is* the chain length in pages.
pub fn run_scale_sweep(
    cfg: &ScaleConfig,
    rounds: u32,
    reorg: bool,
) -> (ScaleSweepData, Database) {
    let mut db = build_scale_database(cfg);
    let mut rng = Prng::seed_from_u64(cfg.seed);
    let mut data = ScaleSweepData {
        cfg: *cfg,
        reorg,
        rounds: Vec::with_capacity(rounds as usize + 1),
    };
    let probe = |db: &mut Database, key: i64| -> u64 {
        let out = db
            .execute(&format!("retrieve (s.seq) where s.id = {key}"))
            .expect("scale probe");
        out.stats.input_pages
    };
    for round in 0..=rounds {
        let mut migrated = 0;
        if round > 0 {
            evolve_scale_round(cfg, &mut rng, |stmt| {
                db.execute(stmt).expect("scale update");
            });
            if reorg {
                migrated = db.reorganize(SCALE_REL).expect("reorganize");
            }
        }
        let meta = db.relation_meta(SCALE_REL).expect("meta");
        data.rounds.push(ScaleRound {
            hot_pages: probe(&mut db, cfg.hot_probe()),
            cold_pages: probe(&mut db, cfg.cold_probe()),
            primary_pages: u64::from(meta.total_pages),
            history_rows: meta.history_rows,
            migrated,
        });
    }
    (data, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_kernel::DatabaseClass;

    /// The threaded drivers must be invisible in the data: every value
    /// identical to the serial sweep, whatever the thread count.
    #[test]
    fn threaded_sweeps_match_serial_exactly() {
        let cfgs = [
            BenchConfig::new(DatabaseClass::Static, 100),
            BenchConfig::new(DatabaseClass::Temporal, 100),
            BenchConfig::new(DatabaseClass::Rollback, 50),
        ];
        let serial: Vec<SweepData> =
            cfgs.iter().map(|c| run_sweep(*c, 1).0).collect();
        let threaded = run_sweeps_threaded(&cfgs, 1, 3);
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.sizes_h, b.sizes_h);
            assert_eq!(a.sizes_i, b.sizes_i);
            assert_eq!(a.costs, b.costs);
        }

        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let frames = [1usize, 2, 4, 8];
        let serial = run_buffer_sweep(cfg, 1, &frames);
        let threaded = run_buffer_sweep_threaded(cfg, 1, &frames, 4);
        assert_eq!(serial.frames, threaded.frames);
        assert_eq!(serial.costs, threaded.costs);
    }

    /// A miniature sweep (UC 0..=2) checking the headline cost behaviours
    /// from Figures 6 and 7 — the full-scale checks live in the
    /// integration tests and bench harness.
    #[test]
    fn temporal_sweep_matches_paper_shapes() {
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let (data, _) = run_sweep(cfg, 2);

        // Q01: keyed hash access reads the chain: 1, then +2 per round.
        assert_eq!(data.input("Q01", 0), Some(1));
        assert_eq!(data.input("Q01", 1), Some(3));
        assert_eq!(data.input("Q01", 2), Some(5));
        // Q02: ISAM adds one directory read.
        assert_eq!(data.input("Q02", 0), Some(2));
        assert_eq!(data.input("Q02", 2), Some(6));
        // Q03/Q07: full scan of the hashed file.
        assert_eq!(data.input("Q03", 0), Some(128));
        assert_eq!(data.input("Q03", 2), Some(128 + 2 * 256));
        assert_eq!(data.input("Q07", 2), Some(128 + 2 * 256));
        // Q05 static query costs the same as the version scan (the
        // prototype reads the whole chain either way), though it returns
        // only the current version.
        let inputs = |q: &str| -> Vec<u64> {
            data.costs[q].iter().map(|c| c.input).collect()
        };
        assert_eq!(inputs("Q05"), inputs("Q01"));
        // Sizes: 128/129 pages initially, +256 per round.
        assert_eq!(data.sizes_h, vec![128, 384, 640]);
        assert_eq!(data.sizes_i, vec![129, 385, 641]);
        // Output tuples stay constant for the static queries…
        assert_eq!(data.costs["Q05"][0].tuples, 1);
        assert_eq!(data.costs["Q05"][2].tuples, 1);
        assert_eq!(data.costs["Q08"][2].tuples, 1);
        // …and grow for the version scan: n+1 transaction-current versions
        // at update count n (the other n stored versions are superseded
        // records, visible only by rolling back).
        assert_eq!(data.costs["Q01"][0].tuples, 1);
        assert_eq!(data.costs["Q01"][2].tuples, 3);
    }

    #[test]
    fn rollback_50_sweep_shows_jagged_growth() {
        let cfg = BenchConfig::new(DatabaseClass::Rollback, 50);
        let (data, _) = run_sweep(cfg, 2);
        // Round 1 fills slack (no growth), round 2 adds 256 pages.
        assert_eq!(data.sizes_h, vec![256, 256, 512]);
        // Scans follow the size.
        assert_eq!(data.input("Q03", 0), Some(256));
        assert_eq!(data.input("Q03", 1), Some(256));
        assert_eq!(data.input("Q03", 2), Some(512));
        // Keyed access: 1 page until the bucket overflows.
        assert_eq!(data.input("Q01", 0), Some(1));
        assert_eq!(data.input("Q01", 1), Some(1));
        assert_eq!(data.input("Q01", 2), Some(2));
    }

    #[test]
    fn buffer_sweep_is_monotone_and_paper_point_matches() {
        // Reduced-scale fig11: temporal/100 % at UC 2, caps 1/2/4/8. The
        // cap-1 column must agree exactly with the update-count sweep (the
        // paper's configuration is just fig11's leftmost point), and each
        // query's input cost must be non-increasing in the cap (LRU
        // inclusion property over a buffering-independent reference
        // string).
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let frames = [1usize, 2, 4, 8];
        let data = run_buffer_sweep(cfg, 2, &frames);
        let (uc_sweep, _) = run_sweep(cfg, 2);
        for (q, costs) in &data.costs {
            assert_eq!(
                costs[0].cost.input,
                uc_sweep.input(q, 2).unwrap(),
                "{q}: cap-1 column must equal the paper-mode measurement"
            );
            for w in costs.windows(2) {
                assert!(
                    w[1].cost.input <= w[0].cost.input,
                    "{q}: input pages grew with more frames: {costs:?}"
                );
                assert!(
                    w[1].hits >= w[0].hits,
                    "{q}: hits shrank with more frames: {costs:?}"
                );
            }
        }
        // Somebody must actually benefit from the extra frames (the scan
        // queries re-read overflow chains under substitution).
        assert!(data.costs.values().any(|c| {
            c.last().unwrap().cost.input < c.first().unwrap().cost.input
        }));
    }

    /// The scale sweep's headline claim in miniature: without
    /// reorganization the hot probe's page cost grows with the update
    /// volume; with it, superseded versions migrate out after every
    /// round and the probe cost stays at the loaded-state baseline. The
    /// cold key is never updated, so its cost never moves in either
    /// mode.
    #[test]
    fn reorganization_bounds_the_hot_probe_cost() {
        let cfg = ScaleConfig {
            updates_per_round: 256,
            ..ScaleConfig::new(200)
        };
        let (without, _) = run_scale_sweep(&cfg, 3, false);
        let (with, _) = run_scale_sweep(&cfg, 3, true);

        let baseline = without.rounds[0].hot_pages;
        assert_eq!(with.rounds[0].hot_pages, baseline);
        assert!(
            without.hot_final() > baseline,
            "unreorganized chains must grow: {:?}",
            without.rounds
        );
        assert!(
            with.hot_final() <= baseline + 1,
            "reorganized probe must stay near baseline: {:?}",
            with.rounds
        );
        assert!(with.hot_final() < without.hot_final());
        assert!(with.migrated_total() > 0);
        assert_eq!(without.migrated_total(), 0);
        assert_eq!(without.rounds.last().unwrap().history_rows, 0);
        for data in [&without, &with] {
            for r in &data.rounds {
                assert_eq!(r.cold_pages, data.rounds[0].cold_pages);
            }
        }
        // Identical streams: both modes commit the same updates, so the
        // hot key's visible seq agrees (probed via a fresh run here —
        // the sweep itself already measured pages, not values).
        let mut db = build_scale_database(&cfg);
        let mut rng = Prng::seed_from_u64(cfg.seed);
        for _ in 0..3 {
            evolve_scale_round(&cfg, &mut rng, |s| {
                db.execute(s).unwrap();
            });
        }
        let total: u64 = db.relation_meta(SCALE_REL).unwrap().tuple_count;
        assert_eq!(total, 200 + 3 * 256);
    }

    #[test]
    fn static_database_costs_do_not_grow() {
        let cfg = BenchConfig::new(DatabaseClass::Static, 100);
        let (data, _) = run_sweep(cfg, 2);
        for q in ["Q01", "Q02", "Q05", "Q06", "Q07", "Q08"] {
            let c = &data.costs[q];
            assert_eq!(c[0], c[1], "{q}");
            assert_eq!(c[0], c[2], "{q}");
        }
        assert_eq!(data.input("Q07", 0), Some(114));
        assert_eq!(data.input("Q08", 0), Some(114));
        assert_eq!(data.sizes_h, vec![114, 114, 114]);
    }
}
