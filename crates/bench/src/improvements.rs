//! Measured reproduction of Figure 10 ("Improvements for the Temporal
//! Database") and of the §5.4 non-uniform-distribution experiment.
//!
//! Where the paper *estimated* the two-level store and secondary-index
//! costs, we build the structures from the storage crate's own keyed
//! files, [`ClusteredHistory`] and [`SecondaryIndex`], and measure real
//! page accesses.

use crate::sweep::SweepData;
use crate::workload::{all_rows, AMOUNT_H, AMOUNT_I, PROBE_ID};
use tdbms_core::Database;
use tdbms_kernel::{Result, RowCodec, Schema, TimeVal};
use tdbms_storage::{
    AccessMethod, ClusteredHistory, HashFn, IndexStructure, KeySpec, Pager,
    RelFile, SecondaryIndex, Stamps,
};

/// One row of the Figure 10 table. `None` renders as the paper's `-`
/// ("same as the left adjacent column" / not applicable).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig10Row {
    /// "Q01" … "Q12".
    pub query: &'static str,
    /// Conventional structure at update count 0.
    pub conv_uc0: Option<u64>,
    /// Conventional structure at the sweep's final update count.
    pub conv_ucn: Option<u64>,
    /// Simple two-level store.
    pub simple: Option<u64>,
    /// Two-level store with clustered history.
    pub clustered: Option<u64>,
    /// 1-level secondary index on `amount`, heap-structured.
    pub l1_heap: Option<u64>,
    /// 1-level secondary index, hash-structured.
    pub l1_hash: Option<u64>,
    /// 2-level (current-only) index, heap-structured.
    pub l2_heap: Option<u64>,
    /// 2-level index, hash-structured.
    pub l2_hash: Option<u64>,
}

struct Rel {
    schema: Schema,
    codec: RowCodec,
    file: RelFile,
    rows: Vec<Vec<u8>>,
}

/// The paper's §6 two-level store over one relation: current versions in
/// a keyed primary, every other version clustered per tuple.
#[derive(Debug)]
pub struct TwoLevel {
    /// The versions open in both times, keyed on attribute 0.
    pub primary: RelFile,
    /// Every other version.
    pub history: ClusteredHistory,
}

/// Split `rows` (full stored rows of `schema`) into a [`TwoLevel`] store:
/// the current versions — open in both the times the schema records, the
/// reorganization pass's rule at a `FOREVER` cutoff — build a `method`
/// primary keyed on attribute 0 (mod hash, fill 100), the rest migrate
/// into a fresh clustered history.
pub fn build_two_level(
    pager: &Pager,
    schema: &Schema,
    rows: &[Vec<u8>],
    method: AccessMethod,
) -> Result<TwoLevel> {
    let codec = RowCodec::new(schema);
    let key = KeySpec::for_attr(&codec, 0);
    let width = schema.row_width();
    let stamps = |row: &[u8]| Stamps::of(schema, &codec, row);
    let (current, past): (Vec<Vec<u8>>, Vec<Vec<u8>>) = rows
        .iter()
        .cloned()
        .partition(|row| stamps(row).stays_in_primary(TimeVal::FOREVER));
    let primary = RelFile::build_into(
        pager,
        pager.create_file()?,
        method,
        &current,
        width,
        Some(key),
        HashFn::Mod,
        100,
    )?;
    let history = ClusteredHistory::create(pager, width, key)?
        .with_migrated(pager, &past, stamps)?;
    pager.flush_all()?;
    Ok(TwoLevel { primary, history })
}

fn load_rel(db: &mut Database, name: &str) -> Rel {
    let rows = all_rows(db, name);
    let (_, catalog, _) = db.internals();
    let id = catalog.require(name).expect("relation");
    let r = catalog.get(id);
    Rel {
        schema: r.schema.clone(),
        codec: r.codec.clone(),
        file: r.file.clone(),
        rows,
    }
}

/// Run `op` against cold buffers and return the pages it read.
fn cost_of(pager: &Pager, mut op: impl FnMut(&Pager)) -> u64 {
    pager.invalidate_buffers().expect("invalidate");
    let cost = pager.stats().scope();
    op(pager);
    cost.total().reads
}

/// Scan a keyed file counting rows whose `attr` equals `value` (the
/// conventional Q07/Q08 work, restaged for a primary store, which holds
/// only current versions).
fn scan_filter(
    pager: &Pager,
    file: &RelFile,
    attr: &KeySpec,
    value: i32,
) -> usize {
    let mut n = 0;
    let mut cur = file.scan();
    while let Some((_, row)) = cur.next(pager, file).expect("scan") {
        let got = i32::from_le_bytes(
            attr.extract(row).try_into().expect("4-byte attr"),
        );
        if got == value {
            n += 1;
        }
    }
    n
}

/// The current version of `key_bytes` in a keyed primary.
fn current_for_key(
    pager: &Pager,
    primary: &RelFile,
    key_bytes: &[u8],
) -> Option<Vec<u8>> {
    let mut cur = primary
        .lookup_eq(pager, key_bytes)
        .expect("lookup")
        .expect("keyed primary");
    cur.next(pager, primary)
        .expect("probe")
        .map(|(_, row)| row.to_vec())
}

/// Scan `outer` and, per row, read every row of the keyed `inner` whose
/// key equals the row's `attr`.
fn probe_join(
    pager: &Pager,
    outer: &RelFile,
    attr: &KeySpec,
    inner: &RelFile,
) {
    let mut cur = outer.scan();
    while let Some((_, row)) = cur.next(pager, outer).expect("scan") {
        let mut probe = inner
            .lookup_eq(pager, attr.extract(row))
            .expect("lookup")
            .expect("keyed primary");
        while probe.next(pager, inner).expect("probe").is_some() {}
    }
}

/// Build the Figure 10 table for a temporal database that has been evolved
/// to `sweep.max_uc` (pass the sweep and the evolved database returned by
/// [`crate::sweep::run_sweep`]).
pub fn measure_improvements(
    db: &mut Database,
    sweep: &SweepData,
) -> Vec<Fig10Row> {
    let h = load_rel(db, &sweep.cfg.rel_h());
    let i = load_rel(db, &sweep.cfg.rel_i());
    let (pager, _, _) = db.internals();

    // One two-level store per relation, its primary organized like the
    // conventional relation. "Simple" cells read only the primary;
    // "clustered" cells read the primary plus the clustered history.
    let build = |rel: &Rel, method| {
        build_two_level(pager, &rel.schema, &rel.rows, method)
            .expect("two-level build")
    };
    let h2 = build(&h, AccessMethod::Hash);
    let i2 = build(&i, AccessMethod::Isam);

    // Secondary indexes on `amount` (attribute 1): 1-level over every
    // version, 2-level over the primary, which holds only current ones.
    let h_amount = KeySpec::for_attr(&h.codec, 1);
    let index = |target: &RelFile, structure| {
        SecondaryIndex::build(pager, target, h_amount, structure)
            .expect("secondary index")
    };
    let l1_heap = index(&h.file, IndexStructure::Heap);
    let l1_hash = index(&h.file, IndexStructure::Hash);
    let l2_heap = index(&h2.primary, IndexStructure::Heap);
    let l2_hash = index(&h2.primary, IndexStructure::Hash);

    let probe = (PROBE_ID as i32).to_le_bytes();

    // --- measured improvement cells --------------------------------------
    let version_scan = |two: &TwoLevel| {
        cost_of(pager, |p| {
            let mut n = usize::from(
                current_for_key(p, &two.primary, &probe).is_some(),
            );
            two.history
                .for_key(p, &probe, |_| {
                    n += 1;
                    Ok(())
                })
                .expect("history");
            assert!(n > 0);
        })
    };
    let q01_clustered = version_scan(&h2);
    let q02_clustered = version_scan(&i2);
    let current_probe = |two: &TwoLevel| {
        cost_of(pager, |p| {
            current_for_key(p, &two.primary, &probe).expect("found");
        })
    };
    let q05_simple = current_probe(&h2);
    let q06_simple = current_probe(&i2);
    let q07_simple = cost_of(pager, |p| {
        assert_eq!(
            scan_filter(p, &h2.primary, &h_amount, AMOUNT_H as i32),
            1
        );
    });
    let i_amount = KeySpec::for_attr(&i.codec, 1);
    let q08_simple = cost_of(pager, |p| {
        assert_eq!(
            scan_filter(p, &i2.primary, &i_amount, AMOUNT_I as i32),
            1
        );
    });

    // Q09/Q10: joins of current versions over the primary stores (scan one
    // side, keyed-probe the other per tuple — the conventional plan with
    // history out of the way).
    let q09_simple = cost_of(pager, |p| {
        probe_join(p, &i2.primary, &i_amount, &h2.primary);
    });
    let q10_simple = cost_of(pager, |p| {
        probe_join(p, &h2.primary, &h_amount, &i2.primary);
    });

    // Q07 through the four index variants.
    let amount_key = (AMOUNT_H as i32).to_le_bytes();
    let via_conv_index = |idx: &SecondaryIndex| {
        cost_of(pager, |p| {
            let hits = idx.fetch(p, &h.file, &amount_key).expect("fetch");
            // Keep only current versions, as Q07's `when` clause demands.
            let n = hits
                .iter()
                .filter(|(_, row)| {
                    Stamps::of(&h.schema, &h.codec, row)
                        .stays_in_primary(TimeVal::FOREVER)
                })
                .count();
            assert_eq!(n, 1);
        })
    };
    let q07_l1_heap = via_conv_index(&l1_heap);
    let q07_l1_hash = via_conv_index(&l1_hash);
    let via_cur_index = |idx: &SecondaryIndex| {
        cost_of(pager, |p| {
            let hits =
                idx.fetch(p, &h2.primary, &amount_key).expect("fetch");
            assert_eq!(hits.len(), 1);
        })
    };
    let q07_l2_heap = via_cur_index(&l2_heap);
    let q07_l2_hash = via_cur_index(&l2_hash);

    let conv = |q: &str, uc: u32| sweep.input(q, uc);
    let n = sweep.max_uc;
    crate::queries::QUERY_IDS
        .iter()
        .map(|q| {
            let mut row = Fig10Row {
                query: q,
                conv_uc0: conv(q, 0),
                conv_ucn: conv(q, n),
                ..Default::default()
            };
            match *q {
                "Q01" => row.clustered = Some(q01_clustered),
                "Q02" => row.clustered = Some(q02_clustered),
                "Q05" => row.simple = Some(q05_simple),
                "Q06" => row.simple = Some(q06_simple),
                "Q07" => {
                    row.simple = Some(q07_simple);
                    row.l1_heap = Some(q07_l1_heap);
                    row.l1_hash = Some(q07_l1_hash);
                    row.l2_heap = Some(q07_l2_heap);
                    row.l2_hash = Some(q07_l2_hash);
                }
                "Q08" => row.simple = Some(q08_simple),
                "Q09" => row.simple = Some(q09_simple),
                "Q10" => row.simple = Some(q10_simple),
                _ => {}
            }
            row
        })
        .collect()
}

/// §5.4: the maximum-variance experiment. Returns, per average update
/// count `0..=max_avg_uc`, the measured `(hot, cold, weighted-average)`
/// costs of a hashed keyed access — hot probing the repeatedly updated
/// tuple, cold probing a tuple in an untouched bucket; the weighted
/// average is over all 1024 tuples (the 8 tuples sharing the hot bucket
/// pay the chain, the rest pay one page).
pub fn nonuniform_experiment(max_avg_uc: u32) -> Vec<(u32, u64, u64, f64)> {
    use crate::workload::{
        build_database, evolve_single_tuple, BenchConfig, NTUPLES,
    };
    let cfg = BenchConfig::new(tdbms_kernel::DatabaseClass::Temporal, 100);
    let mut db = build_database(&cfg);
    let mut out = Vec::new();
    let mut applied: u32 = 0;
    for avg in 0..=max_avg_uc {
        let target = avg * NTUPLES as u32;
        evolve_single_tuple(&mut db, target - applied);
        applied = target;
        let hot = db
            .execute(&format!(
                "retrieve (h.id, h.seq) where h.id = {PROBE_ID}"
            ))
            .expect("hot probe")
            .stats
            .input_pages;
        // Tuple 501 hashes to the adjacent bucket — untouched.
        let cold = db
            .execute(&format!(
                "retrieve (h.id, h.seq) where h.id = {}",
                PROBE_ID + 1
            ))
            .expect("cold probe")
            .stats
            .input_pages;
        // 8 tuples share the hot bucket (1024 ids over 128 buckets).
        let weighted = (8.0 * hot as f64
            + (NTUPLES as f64 - 8.0) * cold as f64)
            / NTUPLES as f64;
        out.push((avg, hot, cold, weighted));
    }
    out
}
