//! Measured reproduction of Figure 10 ("Improvements for the Temporal
//! Database") and of the §5.4 non-uniform-distribution experiment.
//!
//! Where the paper *estimated* the two-level store and secondary-index
//! costs, we build the structures with `tdbms-twostore` and measure real
//! page accesses.

use crate::sweep::SweepData;
use crate::workload::{all_rows, AMOUNT_H, AMOUNT_I, PROBE_ID};
use std::cmp::Ordering;
use tdbms_core::Database;
use tdbms_kernel::{RowCodec, Schema};
use tdbms_storage::{AccessMethod, HashFn, KeySpec, Pager, RelFile};
use tdbms_twostore::{
    is_current_row, HistoryLayout, IndexStructure, SecondaryIndex,
    TwoLevelStore,
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

/// Scan a keyed file counting rows whose `attr` equals `value` and which
/// are current versions (the conventional Q07/Q08 work, restaged for a
/// primary store).
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
            attr.extract(&row).try_into().expect("4-byte attr"),
        );
        if got == value {
            n += 1;
        }
    }
    n
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

    // Two-level stores, simple and clustered history, hash/ISAM primaries
    // mirroring the conventional organizations.
    let key_attr = 0usize;
    let build = |pager: &Pager, rel: &Rel, method, layout| {
        TwoLevelStore::build_from_rows(
            pager,
            &rel.schema,
            &rel.rows,
            key_attr,
            method,
            100,
            HashFn::Mod,
            layout,
        )
        .expect("two-level build")
    };
    let h_simple =
        build(pager, &h, AccessMethod::Hash, HistoryLayout::Simple);
    let h_clustered =
        build(pager, &h, AccessMethod::Hash, HistoryLayout::Clustered);
    let i_simple =
        build(pager, &i, AccessMethod::Isam, HistoryLayout::Simple);
    let i_clustered =
        build(pager, &i, AccessMethod::Isam, HistoryLayout::Clustered);

    // Secondary indexes on `amount` (attribute 1).
    let h_amount = KeySpec::for_attr(&h.codec, 1);
    let conv_idx = |pager: &Pager, structure| {
        SecondaryIndex::build(
            pager,
            &h.file,
            h_amount,
            structure,
            100,
            |_| true,
        )
        .expect("1-level index")
    };
    let l1_heap = conv_idx(pager, IndexStructure::Heap);
    let l1_hash = conv_idx(pager, IndexStructure::Hash);
    let cur_idx = |pager: &Pager, structure| {
        SecondaryIndex::build(
            pager,
            h_simple.primary(),
            h_amount,
            structure,
            100,
            |_| true, // the primary store holds only current versions
        )
        .expect("2-level index")
    };
    let l2_heap = cur_idx(pager, IndexStructure::Heap);
    let l2_hash = cur_idx(pager, IndexStructure::Hash);

    let probe = (PROBE_ID as i32).to_le_bytes();

    // --- measured improvement cells --------------------------------------
    let q01_clustered = cost_of(pager, |p| {
        let v = h_clustered.versions_for_key(p, &probe).expect("Q01");
        assert!(!v.is_empty());
    });
    let q02_clustered = cost_of(pager, |p| {
        let v = i_clustered.versions_for_key(p, &probe).expect("Q02");
        assert!(!v.is_empty());
    });
    let q05_simple = cost_of(pager, |p| {
        h_simple
            .current_for_key(p, &probe)
            .expect("Q05")
            .expect("found");
    });
    let q06_simple = cost_of(pager, |p| {
        i_simple
            .current_for_key(p, &probe)
            .expect("Q06")
            .expect("found");
    });
    let q07_simple = cost_of(pager, |p| {
        assert_eq!(
            scan_filter(p, h_simple.primary(), &h_amount, AMOUNT_H as i32),
            1
        );
    });
    let i_amount = KeySpec::for_attr(&i.codec, 1);
    let q08_simple = cost_of(pager, |p| {
        assert_eq!(
            scan_filter(p, i_simple.primary(), &i_amount, AMOUNT_I as i32),
            1
        );
    });

    // Q09/Q10: joins of current versions over the primary stores (scan one
    // side, keyed-probe the other per tuple — the conventional plan with
    // history out of the way).
    let q09_simple = cost_of(pager, |p| {
        let mut cur = i_simple.primary().scan();
        while let Some((_, row)) =
            cur.next(p, i_simple.primary()).expect("scan")
        {
            let amount = i_amount.extract(&row).to_vec();
            if let Some(mut probe_cur) = h_simple
                .primary()
                .lookup_eq(p, &amount)
                .expect("keyed primary")
            {
                while probe_cur
                    .next(p, h_simple.primary())
                    .expect("probe")
                    .is_some()
                {}
            }
        }
    });
    let q10_simple = cost_of(pager, |p| {
        let mut cur = h_simple.primary().scan();
        while let Some((_, row)) =
            cur.next(p, h_simple.primary()).expect("scan")
        {
            let amount = h_amount.extract(&row).to_vec();
            if let Some(mut probe_cur) = i_simple
                .primary()
                .lookup_eq(p, &amount)
                .expect("keyed primary")
            {
                while probe_cur
                    .next(p, i_simple.primary())
                    .expect("probe")
                    .is_some()
                {}
            }
        }
    });

    // Q07 through the four index variants.
    let amount_key = (AMOUNT_H as i32).to_le_bytes();
    let via_conv_index = |pager: &Pager, idx: &SecondaryIndex| {
        cost_of(pager, |p| {
            let hits = idx.fetch(p, &h.file, &amount_key).expect("fetch");
            // Keep only current versions, as Q07's `when` clause demands.
            let n = hits
                .iter()
                .filter(|(_, row)| is_current_row(&h.schema, &h.codec, row))
                .count();
            assert_eq!(n, 1);
        })
    };
    let q07_l1_heap = via_conv_index(pager, &l1_heap);
    let q07_l1_hash = via_conv_index(pager, &l1_hash);
    let via_cur_index = |pager: &Pager, idx: &SecondaryIndex| {
        cost_of(pager, |p| {
            let hits = idx
                .fetch(p, h_simple.primary(), &amount_key)
                .expect("fetch");
            assert_eq!(hits.len(), 1);
        })
    };
    let q07_l2_heap = via_cur_index(pager, &l2_heap);
    let q07_l2_hash = via_cur_index(pager, &l2_hash);

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

/// Sort helper used in reports.
pub fn by_query(a: &Fig10Row, b: &Fig10Row) -> Ordering {
    a.query.cmp(b.query)
}
