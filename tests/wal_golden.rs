//! Golden test: durability must not change the paper's numbers.
//!
//! The WAL lives *beside* the paper's storage engine — page images are
//! staged, logged, and materialized, but never re-organized. So the
//! Figure 5 space numbers (user-relation page counts at update count 0
//! and after 14 uniform update rounds) must be identical with the WAL on
//! and off, the stored rows must be byte-identical, and a paper-mode
//! database must show no trace of the log in its accounting.

use tdbms::wal::MemLog;
use tdbms::Database;
use tdbms_bench::workload::{
    all_rows, build_database, evolve_uniform, populate_database,
    BenchConfig,
};
use tdbms_kernel::DatabaseClass;
use tdbms_storage::MemDisk;

fn wal_db() -> Database {
    Database::open_durable_on(
        Box::new(MemDisk::new()),
        Box::new(MemLog::new()),
        None,
    )
    .expect("open durable in-memory database")
}

#[test]
fn fig5_space_is_identical_with_wal_on() {
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let mut paper = build_database(&cfg);
    let mut durable = wal_db();
    populate_database(&mut durable, &cfg);

    // Update count 0: the seed's golden numbers, in both modes.
    for (name, db) in [("paper", &paper), ("wal", &durable)] {
        let h = db.relation_meta(&cfg.rel_h()).unwrap();
        let i = db.relation_meta(&cfg.rel_i()).unwrap();
        assert_eq!(h.total_pages, 128, "{name}: hash pages at UC0");
        assert_eq!(i.total_pages, 129, "{name}: isam pages at UC0");
        assert_eq!(h.tuple_count, 1024, "{name}: tuples at UC0");
    }
    // The stored rows agree byte for byte (LSNs live in page headers,
    // never in tuples).
    for rel in [cfg.rel_h(), cfg.rel_i()] {
        assert_eq!(
            all_rows(&mut paper, &rel),
            all_rows(&mut durable, &rel),
            "{rel}: durable rows must be byte-identical to paper mode"
        );
    }

    // Update count 14: Figure 5's right edge. Space evolution under the
    // WAL must track paper mode exactly.
    for _ in 0..14 {
        evolve_uniform(&mut paper, &cfg);
        evolve_uniform(&mut durable, &cfg);
    }
    for rel in [cfg.rel_h(), cfg.rel_i()] {
        let p = paper.relation_meta(&rel).unwrap();
        let d = durable.relation_meta(&rel).unwrap();
        assert_eq!(p.total_pages, d.total_pages, "{rel}: pages at UC14");
        assert_eq!(
            p.scannable_pages, d.scannable_pages,
            "{rel}: scannable pages at UC14"
        );
        assert_eq!(p.tuple_count, d.tuple_count, "{rel}: tuples at UC14");
        assert_eq!(
            all_rows(&mut paper, &rel),
            all_rows(&mut durable, &rel),
            "{rel}: rows at UC14"
        );
    }
    // Hash relation golden at UC14: 128 initial + 256 pages per round.
    assert_eq!(
        paper.relation_meta(&cfg.rel_h()).unwrap().total_pages,
        128 + 14 * 256
    );
}

#[test]
fn wal_phase_appears_only_in_durable_mode() {
    let mut durable = wal_db();
    durable
        .execute("create temporal interval emp (name = c20, salary = i4)")
        .unwrap();
    let out = durable
        .execute("append to emp (name = \"merrie\", salary = 11000)")
        .unwrap();
    let wal_phase = out
        .stats
        .phases
        .iter()
        .find(|p| p.name == "wal")
        .expect("durable append must record a wal phase");
    assert!(wal_phase.writes > 0, "log traffic is accounted as writes");
    // The log's page-equivalents land on the pseudo file id, visible in
    // the raw per-file ledger too.
    assert!(durable.io_stats().of(tdbms::WAL_FILE).writes > 0);

    // Paper mode: same statements, no wal phase, no pseudo-file traffic.
    let mut paper = Database::in_memory();
    paper
        .execute("create temporal interval emp (name = c20, salary = i4)")
        .unwrap();
    let out = paper
        .execute("append to emp (name = \"merrie\", salary = 11000)")
        .unwrap();
    assert!(out.stats.phases.iter().all(|p| p.name != "wal"));
    assert_eq!(paper.io_stats().of(tdbms::WAL_FILE).writes, 0);
}

#[test]
fn query_accounting_on_user_relations_is_unchanged() {
    // The paper's metric — page accesses against the *user* relations —
    // must be the same in both modes for a pure query: reads come from
    // the same pages, and the WAL adds only its own phase.
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let mut paper = build_database(&cfg);
    let mut durable = wal_db();
    populate_database(&mut durable, &cfg);
    let q = "retrieve (h.seq) where h.id = 500";
    let a = paper.execute(q).unwrap();
    let b = durable.execute(q).unwrap();
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.stats.input_pages, b.stats.input_pages);
    assert_eq!(a.stats.output_pages, b.stats.output_pages);
}
