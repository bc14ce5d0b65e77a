//! Buffer-manager integration checks.
//!
//! The buffer-manager refactor must be invisible in paper mode: these
//! tests pin every Q01–Q12 input/output page count on the temporal/100 %
//! database at update counts 0 and 14 (the paper's reporting point) under
//! the default configuration (1 frame per relation, LRU). Any change to
//! faulting, eviction, or accounting that alters a published figure fails
//! here, not at paper-reproduction time. A seeded property test then
//! drives the pager through arbitrary read/write/append/resize schedules
//! and asserts the v2 ledger identity `hits + misses == accesses`.

use tdbms_bench::{
    build_database, evolve_uniform, queries_for, run_buffer_sweep,
    BenchConfig,
};
use tdbms_kernel::DatabaseClass;
use tdbms_prop::{check, Gen};

/// (query, input pages, output pages) at one update count, paper mode.
fn measure_all(uc: u32) -> Vec<(String, u64, u64)> {
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    assert_eq!(cfg.buffer_frames, 1, "paper mode is the default");
    let mut db = build_database(&cfg);
    for _ in 0..uc {
        evolve_uniform(&mut db, &cfg);
    }
    queries_for(cfg.class)
        .iter()
        .map(|q| {
            let out = db.execute(&q.tquel).unwrap();
            assert!(
                out.stats.buffer_hits + out.stats.input_pages > 0
                    || out.stats.output_pages > 0,
                "{}: nothing measured",
                q.id
            );
            (
                q.id.to_string(),
                out.stats.input_pages,
                out.stats.output_pages,
            )
        })
        .collect()
}

fn assert_golden(uc: u32, golden: &[(&str, u64, u64)]) {
    let measured = measure_all(uc);
    let rendered: Vec<String> = measured
        .iter()
        .map(|(q, i, o)| format!("(\"{q}\", {i}, {o}),"))
        .collect();
    assert_eq!(
        measured.len(),
        golden.len(),
        "query set changed; new table:\n{}",
        rendered.join("\n")
    );
    for ((q, i, o), (gq, gi, go)) in measured.iter().zip(golden) {
        assert_eq!(
            (q.as_str(), *i, *o),
            (*gq, *gi, *go),
            "UC {uc} page counts drifted from the published figures; \
             measured table:\n{}",
            rendered.join("\n")
        );
    }
}

#[test]
fn golden_counts_uc0_paper_mode() {
    assert_golden(
        0,
        &[
            ("Q01", 1, 0),
            ("Q02", 2, 0),
            ("Q03", 128, 0),
            ("Q04", 128, 0),
            ("Q05", 1, 0),
            ("Q06", 2, 0),
            ("Q07", 128, 0),
            ("Q08", 128, 0),
            ("Q09", 1142, 17),
            ("Q10", 2193, 17),
            ("Q11", 384, 0),
            ("Q12", 131, 2),
        ],
    );
}

#[test]
fn golden_counts_uc14_paper_mode() {
    assert_golden(
        14,
        &[
            ("Q01", 29, 0),
            ("Q02", 30, 0),
            ("Q03", 3712, 0),
            ("Q04", 3712, 0),
            ("Q05", 29, 0),
            ("Q06", 30, 0),
            ("Q07", 3712, 0),
            ("Q08", 3712, 0),
            ("Q09", 33425, 17),
            ("Q10", 34449, 17),
            ("Q11", 11136, 0),
            ("Q12", 3743, 2),
        ],
    );
}

#[test]
fn fig11_curve_is_monotone_non_increasing() {
    // Reduced-scale fig11 (UC 3, caps 1/2/4/8): every query's input-page
    // curve must be non-increasing as frames grow — LRU is a stack
    // algorithm and the benchmark's reference strings don't depend on
    // buffering, so the full-scale UC 14 figure inherits the property.
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let data = run_buffer_sweep(cfg, 3, &[1, 2, 4, 8]);
    for (q, costs) in &data.costs {
        for w in costs.windows(2) {
            assert!(
                w[1].cost.input <= w[0].cost.input,
                "{q}: input pages grew with more frames"
            );
        }
    }
}

#[test]
fn iostats_identity_under_random_schedules() {
    // The v2 ledger invariant, as a property: whatever interleaving of
    // reads, writes, appends, cap resizes, invalidations, and truncations
    // the pager sees, every buffered access is classified as exactly one
    // hit or miss (`hits + misses == accesses`), per file and in total.
    use tdbms_storage::{BufferConfig, PageKind, Pager};

    check("iostats_hit_miss_access_identity", 40, |g: &mut Gen| {
        let frames = g.range(1usize..4);
        let pager = Pager::in_memory_with_config(BufferConfig {
            default_frames: frames,
        });
        let nfiles = g.range(1usize..4);
        let files: Vec<_> =
            (0..nfiles).map(|_| pager.create_file().unwrap()).collect();
        let mut npages = vec![0u32; nfiles];

        // Track expected accesses per file alongside the pager's ledger.
        let mut expected = vec![0u64; nfiles];
        let ops = g.range(20usize..120);
        for _ in 0..ops {
            let fi = g.range(0usize..nfiles);
            let f = files[fi];
            match g.range(0u32..10) {
                0 | 1 => {
                    pager.append_page(f, PageKind::Data).unwrap();
                    npages[fi] += 1;
                    // Appends materialize a page; they are not accesses.
                }
                2..=5 if npages[fi] > 0 => {
                    let p = g.range(0u32..npages[fi]);
                    pager.read(f, p, |_| ()).unwrap();
                    expected[fi] += 1;
                }
                6 | 7 if npages[fi] > 0 => {
                    let p = g.range(0u32..npages[fi]);
                    pager
                        .write(f, p, |pg| {
                            let _ = pg.push_row(4, &[1, 2, 3, 4]);
                        })
                        .unwrap();
                    expected[fi] += 1;
                }
                8 => {
                    let cap = g.range(1usize..5);
                    pager.set_buffer_frames(f, cap).unwrap();
                }
                _ => pager.invalidate_buffers().unwrap(),
            }
            assert!(
                pager.stats().is_consistent(),
                "ledger inconsistent mid-schedule"
            );
        }
        for (fi, f) in files.iter().enumerate() {
            let io = pager.stats().of(*f);
            assert_eq!(io.accesses, expected[fi], "access count drifted");
            assert_eq!(
                io.hits + io.misses(),
                io.accesses,
                "hit/miss identity violated"
            );
        }
        assert!(pager.stats().total().is_consistent());
    });
}

#[test]
fn phase_scoping_surfaces_through_exec_stats() {
    // A decomposed (multi-variable) retrieve attributes its I/O to the
    // "decomposition" and "substitution" phases, and the phase deltas
    // cover the statement's totals.
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let mut db = build_database(&cfg);
    let out = db
        .execute(
            "retrieve (h.id, i.seq) where h.id = i.id and i.amount = 73700",
        )
        .unwrap();
    let names: Vec<&str> =
        out.stats.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["decomposition", "substitution"]);
    let d = out.stats.scoped("decomposition");
    let s = out.stats.scoped("substitution");
    assert!(d.reads > 0, "detachment scans the base relations");
    assert!(d.writes > 0, "detachment materializes temporaries");
    assert!(s.reads > 0, "substitution reads the temporaries back");
    assert_eq!(d.reads + s.reads, out.stats.input_pages);
    assert_eq!(d.writes + s.writes, out.stats.output_pages);

    // Single-variable statements don't decompose: no phases.
    let out = db.execute("retrieve (h.seq) where h.id = 500").unwrap();
    assert!(out.stats.phases.is_empty());
}
