//! The benchmark workload of Section 5.1.
//!
//! Eight test databases — {static, rollback, historical, temporal} ×
//! {100 %, 50 % loading} — each holding two relations of 1024 tuples with
//! 108 bytes of data (`id = i4, amount = i4, seq = i4, string = c96`):
//! `*_h` hashed on `id`, `*_i` ISAM on `id`. `transaction_start` /
//! `valid_from` are initialized to instants between Jan 1 and Feb 15,
//! 1980; the database then evolves by *update rounds*, each a `replace`
//! incrementing `seq` in every current version (uniform distribution) or
//! in a single tuple (the §5.4 maximum-variance case).

use tdbms_core::{BufferConfig, Database};
use tdbms_kernel::{
    Clock, DatabaseClass, Prng, TemporalAttr, TimeVal, Value,
};

/// Number of tuples per relation (the paper's 1024).
pub const NTUPLES: i64 = 1024;
/// The planted `amount` value matched by Q07.
pub const AMOUNT_H: i64 = 69_400;
/// The planted `amount` value matched by Q08 and Q12.
pub const AMOUNT_I: i64 = 73_700;
/// The key probed by Q01/Q02/Q05/Q06/Q12.
pub const PROBE_ID: i64 = 500;

/// Configuration of one test database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Database class of both relations.
    pub class: DatabaseClass,
    /// Loading (fill) factor in percent: the paper uses 100 and 50.
    pub fillfactor: u8,
    /// RNG seed for `amount`/`string`/initial-time generation.
    pub seed: u64,
    /// LRU buffer frames per relation (paper: 1). Applied as the
    /// pager's default, so temporaries and `into` relations get it too.
    pub buffer_frames: usize,
}

impl BenchConfig {
    /// The paper's configuration for a class and fill factor.
    pub fn new(class: DatabaseClass, fillfactor: u8) -> Self {
        BenchConfig {
            class,
            fillfactor,
            seed: 8_504_033,
            buffer_frames: 1,
        }
    }

    /// All eight benchmark databases, in the paper's order.
    pub fn all() -> Vec<BenchConfig> {
        let mut v = Vec::new();
        for class in DatabaseClass::ALL {
            for fill in [100u8, 50] {
                v.push(BenchConfig::new(class, fill));
            }
        }
        v
    }

    /// Relation names for this class.
    pub fn rel_h(&self) -> String {
        format!("{}_h", self.class)
    }

    /// Relation names for this class.
    pub fn rel_i(&self) -> String {
        format!("{}_i", self.class)
    }
}

/// The class keyword used in the `create` statement.
fn class_keyword(class: DatabaseClass) -> &'static str {
    match class {
        DatabaseClass::Static => "static",
        DatabaseClass::Rollback => "rollback",
        DatabaseClass::Historical => "historical",
        DatabaseClass::Temporal => "temporal",
    }
}

/// Build one benchmark database: create both relations, load 1024 tuples
/// with randomized initial times, then `modify` to hash / ISAM at the
/// configured fill factor.
pub fn build_database(cfg: &BenchConfig) -> Database {
    build_database_with_hash(cfg, tdbms_storage::HashFn::Mod)
}

/// [`build_database`] with an explicit hash function (the ablation bench
/// compares the default mod hash against the Ingres-like multiplicative
/// one; see DESIGN.md substitution 1).
pub fn build_database_with_hash(
    cfg: &BenchConfig,
    hashfn: tdbms_storage::HashFn,
) -> Database {
    let mut db = Database::in_memory_with_buffers(BufferConfig {
        default_frames: cfg.buffer_frames,
    });
    db.set_hash_fn(hashfn);
    // Corruption-defense ablation: `TDBMS_CHECKSUMS=1` turns on page
    // checksumming for the whole run, so CI can assert the golden
    // figures are identical with scrubbing on and off (the sidecar is
    // out-of-band; page capacity and access paths must not move).
    if std::env::var("TDBMS_CHECKSUMS").is_ok_and(|v| v == "1") {
        db.enable_checksums()
            .expect("in-memory checksums cannot fail");
    }
    populate_database(&mut db, cfg);
    db
}

/// Load the paper's workload into an existing (possibly durable /
/// WAL-enabled) database: create both relations, load 1024 tuples with
/// randomized initial times, `modify` to hash / ISAM at the configured
/// fill factor, and declare the `h` / `i` range variables. The data is a
/// pure function of `cfg` — the storage backend underneath must not
/// change it.
pub fn populate_database(db: &mut Database, cfg: &BenchConfig) {
    // Updates happen from March 1980 on, after the initialization window.
    db.set_clock(Clock::new(TimeVal::from_ymd(1980, 3, 1).unwrap(), 60));

    let mut rng = Prng::seed_from_u64(cfg.seed);
    for (rel, planted_amount, method) in [
        (cfg.rel_h(), AMOUNT_H, "hash"),
        (cfg.rel_i(), AMOUNT_I, "isam"),
    ] {
        db.execute(&format!(
            "create {} interval {rel} \
             (id = i4, amount = i4, seq = i4, string = c96)",
            class_keyword(cfg.class)
        ))
        .expect("create benchmark relation");

        let rows = generate_rows(db, &rel, planted_amount, &mut rng);
        db.bulk_load_rows(&rel, &rows).expect("bulk load");
        db.execute(&format!(
            "modify {rel} to {method} on id where fillfactor = {}",
            cfg.fillfactor
        ))
        .expect("modify benchmark relation");
    }
    db.execute(&format!("range of h is {}", cfg.rel_h()))
        .unwrap();
    db.execute(&format!("range of i is {}", cfg.rel_i()))
        .unwrap();
}

/// Generate the 1024 initial rows for one relation (full stored arity).
fn generate_rows(
    db: &Database,
    rel: &str,
    planted_amount: i64,
    rng: &mut Prng,
) -> Vec<Vec<Value>> {
    let schema = db.schema_of(rel).expect("relation exists");
    let jan2 = TimeVal::from_ymd(1980, 1, 2).unwrap().as_secs();
    let feb15 = TimeVal::from_ymd(1980, 2, 15).unwrap().as_secs();

    (1..=NTUPLES)
        .map(|id| {
            // `amount` values are multiples of 100 below 100 000. The two
            // planted probe values occur exactly once each (on the tuple
            // with the probe id), and nowhere else.
            let amount = if id == PROBE_ID {
                planted_amount
            } else {
                loop {
                    let a = rng.random_range(0i64..1000) * 100;
                    if a != AMOUNT_H && a != AMOUNT_I {
                        break a;
                    }
                }
            };
            let string: String = (0..12)
                .map(|_| rng.random_range(b'a'..=b'z') as char)
                .collect();
            // Initial times: ids 1 and 2 predate the benchmark's rollback
            // probes ("4:00 1/1/80" and "08:00 1/1/80"); everything else
            // is uniform over Jan 2 – Feb 15, 1980. This keeps the output
            // of the as-of queries small and constant, as the paper
            // requires.
            let start = match id {
                1 => TimeVal::from_ymd_hms(1980, 1, 1, 1, 0, 0).unwrap(),
                2 => TimeVal::from_ymd_hms(1980, 1, 1, 3, 0, 0).unwrap(),
                _ => TimeVal::from_secs(rng.random_range(jan2..feb15)),
            };

            let mut row = vec![
                Value::Int(id),
                Value::Int(amount),
                Value::Int(0),
                Value::Str(string),
            ];
            for t in schema.implicit_attrs() {
                row.push(Value::Time(match t {
                    TemporalAttr::ValidFrom | TemporalAttr::ValidAt => {
                        start
                    }
                    TemporalAttr::TransactionStart => start,
                    TemporalAttr::ValidTo
                    | TemporalAttr::TransactionStop => TimeVal::FOREVER,
                }));
            }
            row
        })
        .collect()
}

/// One uniform update round: increment `seq` in every current version of
/// both relations (the paper's evolution step). The average update count
/// rises by one.
pub fn evolve_uniform(db: &mut Database, cfg: &BenchConfig) {
    for var in ["h", "i"] {
        db.execute(&format!("replace {var} (seq = {var}.seq + 1)"))
            .expect("uniform update round");
    }
    let _ = cfg;
}

/// §5.4's maximum-variance evolution: update only the tuple with
/// `PROBE_ID`, `times` times, in both relations.
pub fn evolve_single_tuple(db: &mut Database, times: u32) {
    for _ in 0..times {
        for var in ["h", "i"] {
            db.execute(&format!(
                "replace {var} (seq = {var}.seq + 1) where {var}.id = {PROBE_ID}"
            ))
            .expect("single-tuple update");
        }
    }
}

// ---- scale workload ----------------------------------------------------
//
// Everything below stresses the system *past* the paper's 1024 tuples:
// a single keyed rollback relation at `--scale N`, evolved with skewed
// or bursty update distributions so version chains grow unevenly — the
// regime online reorganization exists for. None of it is reachable from
// the paper-mode figure drivers, whose golden output stays byte-frozen.

/// Name of the scale-stress relation.
pub const SCALE_REL: &str = "scale_r";

/// Configuration of one scale-stress database and its update stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Distinct keys loaded (the paper's 1024, times many).
    pub scale: u64,
    /// RNG seed driving the update-key stream.
    pub seed: u64,
    /// Size of the hot set: keys `1..=hot_keys` absorb `hot_pct` of the
    /// skewed updates.
    pub hot_keys: u64,
    /// Percent of skewed updates that land in the hot set.
    pub hot_pct: u32,
    /// Updates applied per evolution round.
    pub updates_per_round: u64,
    /// Bursty mode: each round hammers ONE key (drawn from the hot set)
    /// with the whole round's updates — the §5.4 maximum-variance case
    /// at scale.
    pub bursty: bool,
}

impl ScaleConfig {
    /// Defaults for a given scale: a 1 % hot set taking 90 % of the
    /// updates, round size proportional to the scale but capped so a
    /// debug-build smoke run stays fast.
    pub fn new(scale: u64) -> Self {
        let scale = scale.max(16);
        ScaleConfig {
            scale,
            seed: 8_504_033,
            hot_keys: (scale / 100).max(1),
            hot_pct: 90,
            updates_per_round: (scale / 10).clamp(64, 4096),
            bursty: false,
        }
    }

    /// The key probed as "hot" by the scale sweep (always in the hot
    /// set, so its chain grows fastest).
    pub fn hot_probe(&self) -> i64 {
        1
    }

    /// The key probed as "cold": the update stream never draws it (both
    /// distributions sample `1..scale` exclusive), so its chain stays at
    /// one version for the whole run.
    pub fn cold_probe(&self) -> i64 {
        self.scale as i64
    }
}

/// Build the scale database: one rollback relation of `scale` tuples
/// (`id = i4, seq = i4`), bulk-loaded then hashed on `id`, with range
/// variable `s` declared. Deterministic in `cfg`.
pub fn build_scale_database(cfg: &ScaleConfig) -> Database {
    let mut db = Database::in_memory();
    populate_scale_database(&mut db, cfg);
    db
}

/// [`build_scale_database`] into an existing (possibly durable)
/// database.
pub fn populate_scale_database(db: &mut Database, cfg: &ScaleConfig) {
    db.set_clock(Clock::new(TimeVal::from_ymd(1980, 3, 1).unwrap(), 60));
    // Past-the-paper mode: guard the overflow chains (the `modify`
    // below installs the filter at rebuild time).
    db.set_bloom_guards(true);
    db.execute(&format!(
        "create rollback interval {SCALE_REL} (id = i4, seq = i4)"
    ))
    .expect("create scale relation");
    let schema = db.schema_of(SCALE_REL).expect("relation exists");
    let start = TimeVal::from_ymd(1980, 1, 2).unwrap();
    let rows: Vec<Vec<Value>> = (1..=cfg.scale as i64)
        .map(|id| {
            let mut row = vec![Value::Int(id), Value::Int(0)];
            for t in schema.implicit_attrs() {
                row.push(Value::Time(match t {
                    TemporalAttr::ValidFrom
                    | TemporalAttr::ValidAt
                    | TemporalAttr::TransactionStart => start,
                    TemporalAttr::ValidTo
                    | TemporalAttr::TransactionStop => TimeVal::FOREVER,
                }));
            }
            row
        })
        .collect();
    db.bulk_load_rows(SCALE_REL, &rows).expect("bulk load");
    db.execute(&format!(
        "modify {SCALE_REL} to hash on id where fillfactor = 100"
    ))
    .expect("modify scale relation");
    db.execute(&format!("range of s is {SCALE_REL}")).unwrap();
}

/// The next update key of the configured distribution. Skewed: `hot_pct`
/// of draws land in `1..=hot_keys`, the rest uniform over the non-probe
/// range. Bursty rounds pass the round's single `burst_key` instead.
pub fn scale_update_key(cfg: &ScaleConfig, rng: &mut Prng) -> i64 {
    if rng.random_range(0u64..100) < u64::from(cfg.hot_pct) {
        rng.random_range(1i64..=cfg.hot_keys as i64)
    } else {
        // Exclusive upper bound keeps `cold_probe` untouched forever.
        rng.random_range(1i64..cfg.scale as i64)
    }
}

/// One evolution round of the scale workload: `updates_per_round`
/// keyed replaces drawn from the skewed distribution — or, in bursty
/// mode, all aimed at one hot key drawn per round. Statements go
/// through `run`, so the same stream can drive an embedded database or
/// an engine session.
pub fn evolve_scale_round(
    cfg: &ScaleConfig,
    rng: &mut Prng,
    mut run: impl FnMut(&str),
) {
    let burst_key = cfg
        .bursty
        .then(|| rng.random_range(1i64..=cfg.hot_keys as i64));
    for _ in 0..cfg.updates_per_round {
        let key = match burst_key {
            Some(k) => k,
            None => scale_update_key(cfg, rng),
        };
        run(&format!("replace s (seq = s.seq + 1) where s.id = {key}"));
    }
}

/// Extract every stored row of a relation (raw bytes) — used to rebuild
/// the relation into a two-level store for the Figure 10 experiments.
pub fn all_rows(db: &mut Database, rel: &str) -> Vec<Vec<u8>> {
    let rel = rel.to_owned();
    let (pager, catalog, _) = db.internals();
    let id = catalog.require(&rel).expect("relation exists");
    let file = catalog.get(id).file.clone();
    let mut rows = Vec::new();
    let mut cur = file.scan();
    while let Some((_, row)) = cur.next(pager, &file).expect("scan") {
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loaded_databases_match_paper_sizes() {
        // Figure 5's update-count-0 row (modulo the documented hash
        // substitution: our uniform mod hash stores 1024 8-per-page rows
        // in exactly 128 primary pages, the paper's Ingres hash used 129).
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let db = build_database(&cfg);
        let h = db.relation_meta(&cfg.rel_h()).unwrap();
        let i = db.relation_meta(&cfg.rel_i()).unwrap();
        assert_eq!(h.tuple_count, 1024);
        assert_eq!(h.total_pages, 128);
        assert_eq!(i.total_pages, 129); // 128 data + 1 directory
        assert_eq!(i.scannable_pages, 128);

        let cfg = BenchConfig::new(DatabaseClass::Static, 100);
        let db = build_database(&cfg);
        assert_eq!(
            db.relation_meta(&cfg.rel_h()).unwrap().total_pages,
            114
        );
        assert_eq!(
            db.relation_meta(&cfg.rel_i()).unwrap().total_pages,
            115
        );

        let cfg = BenchConfig::new(DatabaseClass::Rollback, 50);
        let db = build_database(&cfg);
        assert_eq!(
            db.relation_meta(&cfg.rel_h()).unwrap().total_pages,
            256
        );
        assert_eq!(
            db.relation_meta(&cfg.rel_i()).unwrap().total_pages,
            259
        );
    }

    #[test]
    fn planted_amounts_occur_exactly_once() {
        let cfg = BenchConfig::new(DatabaseClass::Historical, 100);
        let mut db = build_database(&cfg);
        let out = db
            .execute(&format!(
                "retrieve (h.id) where h.amount = {AMOUNT_H}"
            ))
            .unwrap();
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(PROBE_ID));
        let out = db
            .execute(&format!(
                "retrieve (i.id) where i.amount = {AMOUNT_I}"
            ))
            .unwrap();
        assert_eq!(out.rows().len(), 1);
        // And the *other* planted value does not appear in this relation.
        let out = db
            .execute(&format!(
                "retrieve (i.id) where i.amount = {AMOUNT_H}"
            ))
            .unwrap();
        assert_eq!(out.rows().len(), 0);
    }

    #[test]
    fn uniform_evolution_grows_at_paper_rates() {
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let mut db = build_database(&cfg);
        evolve_uniform(&mut db, &cfg);
        evolve_uniform(&mut db, &cfg);
        let h = db.relation_meta(&cfg.rel_h()).unwrap();
        // +2048 rows per round (two inserts per tuple).
        assert_eq!(h.tuple_count, 1024 * 5);
        // +256 pages per round on 128 initial pages: growth rate ≈ 2.
        assert_eq!(h.total_pages, 128 + 2 * 256);

        let cfg = BenchConfig::new(DatabaseClass::Rollback, 100);
        let mut db = build_database(&cfg);
        evolve_uniform(&mut db, &cfg);
        let h = db.relation_meta(&cfg.rel_h()).unwrap();
        assert_eq!(h.tuple_count, 1024 * 2);
        assert_eq!(h.total_pages, 128 + 128);
    }

    #[test]
    fn fifty_percent_loading_fills_slack_before_growing() {
        // The paper's "jagged lines": the first round fits in the slack.
        let cfg = BenchConfig::new(DatabaseClass::Rollback, 50);
        let mut db = build_database(&cfg);
        let before = db.relation_meta(&cfg.rel_h()).unwrap().total_pages;
        evolve_uniform(&mut db, &cfg);
        let after1 = db.relation_meta(&cfg.rel_h()).unwrap().total_pages;
        assert_eq!(before, after1, "round 1 fills slack");
        evolve_uniform(&mut db, &cfg);
        let after2 = db.relation_meta(&cfg.rel_h()).unwrap().total_pages;
        assert_eq!(after2, after1 + 256, "round 2 overflows");
    }

    #[test]
    fn single_tuple_evolution_touches_one_chain() {
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let mut db = build_database(&cfg);
        evolve_single_tuple(&mut db, 4);
        let h = db.relation_meta(&cfg.rel_h()).unwrap();
        assert_eq!(h.tuple_count, 1024 + 8);
        // Only the probe tuple's bucket grew: 128 + 1 overflow page.
        assert_eq!(h.total_pages, 129);
    }

    #[test]
    fn generation_is_bit_deterministic() {
        // Two independent builds from the same seed must agree byte for
        // byte on every stored row AND on the page-I/O accounting of a
        // query — the paper's metric is only reproducible if both hold.
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let mut a = build_database(&cfg);
        let mut b = build_database(&cfg);
        for rel in [cfg.rel_h(), cfg.rel_i()] {
            assert_eq!(
                all_rows(&mut a, &rel),
                all_rows(&mut b, &rel),
                "{rel} rows differ between identically-seeded builds"
            );
        }
        let probe = |db: &mut Database| {
            let out = db
                .execute(&format!(
                    "retrieve (h.seq) where h.id = {PROBE_ID}"
                ))
                .unwrap();
            (out.stats.input_pages, out.stats.output_pages)
        };
        assert_eq!(probe(&mut a), probe(&mut b));

        // A different seed actually changes the data (the generator is
        // wired in, not bypassed).
        let other = BenchConfig { seed: 1, ..cfg };
        let mut c = build_database(&other);
        assert_ne!(
            all_rows(&mut a, &cfg.rel_h()),
            all_rows(&mut c, &cfg.rel_h())
        );
    }

    #[test]
    fn scale_update_stream_is_deterministic_and_skewed() {
        let cfg = ScaleConfig::new(1000);
        let draw = |cfg: &ScaleConfig| -> Vec<i64> {
            let mut rng = Prng::seed_from_u64(cfg.seed);
            (0..2000).map(|_| scale_update_key(cfg, &mut rng)).collect()
        };
        let a = draw(&cfg);
        assert_eq!(a, draw(&cfg), "same seed, same stream");
        assert_ne!(
            a,
            draw(&ScaleConfig { seed: 7, ..cfg }),
            "seed is wired in"
        );
        // Skew: roughly hot_pct of draws land in the hot set (binomial
        // with n=2000, p=0.9 — a ±5 % band is > 6 sigma).
        let hot = a.iter().filter(|&&k| k <= cfg.hot_keys as i64).count();
        assert!(
            (1700..=1900).contains(&hot),
            "hot-set draws out of band: {hot}/2000"
        );
        // The cold probe key is never drawn, so its chain never grows.
        assert!(a.iter().all(|&k| k >= 1 && k < cfg.cold_probe()));
    }

    #[test]
    fn scale_database_loads_and_bursty_rounds_hammer_one_key() {
        let cfg = ScaleConfig::new(500);
        let mut db = build_scale_database(&cfg);
        let meta = db.relation_meta(SCALE_REL).unwrap();
        assert_eq!(meta.tuple_count, 500);
        let out = db
            .execute(&format!(
                "retrieve (s.seq) where s.id = {}",
                cfg.cold_probe()
            ))
            .unwrap();
        assert_eq!(out.rows(), &[vec![Value::Int(0)]]);

        // A bursty round emits updates_per_round statements, all naming
        // the same (hot) key.
        let bursty = ScaleConfig {
            bursty: true,
            ..cfg
        };
        let mut rng = Prng::seed_from_u64(bursty.seed);
        let mut stmts = Vec::new();
        evolve_scale_round(&bursty, &mut rng, |s| {
            stmts.push(s.to_owned());
        });
        assert_eq!(stmts.len(), bursty.updates_per_round as usize);
        assert!(stmts.iter().all(|s| s == &stmts[0]));
        let key: i64 = stmts[0]
            .rsplit("= ")
            .next()
            .unwrap()
            .parse()
            .expect("statement ends with the key");
        assert!(key >= 1 && key <= bursty.hot_keys as i64);

        // Applying the round grows exactly one chain.
        for s in &stmts {
            db.execute(s).unwrap();
        }
        let out = db
            .execute(&format!("retrieve (s.seq) where s.id = {key}"))
            .unwrap();
        assert_eq!(
            out.rows(),
            &[vec![Value::Int(bursty.updates_per_round as i64)]]
        );
        assert_eq!(
            db.relation_meta(SCALE_REL).unwrap().tuple_count,
            500 + bursty.updates_per_round
        );
    }

    #[test]
    fn all_rows_extracts_every_version() {
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let mut db = build_database(&cfg);
        evolve_uniform(&mut db, &cfg);
        let rows = all_rows(&mut db, &cfg.rel_h());
        assert_eq!(rows.len(), 1024 * 3);
        assert!(rows.iter().all(|r| r.len() == 124));
    }
}
