//! Ablations of the design choices DESIGN.md calls out (plain harness:
//! the tables are the artifact).
//!
//! 1. Hash function: uniform `mod` vs. Ingres-like multiplicative hashing
//!    (DESIGN.md substitution 1) — space and scan cost at load time.
//! 2. Buffer frames per relation: the paper's single frame vs. more.
//! 3. History layout: simple vs. clustered version scans.
//! 4. Loading factor: the §6 observation that lower loading wins at high
//!    update counts but costs more at low ones.

use tdbms_bench::{
    measure, queries_for, query_for, run_sweep, workload, BenchConfig,
};
use tdbms_kernel::DatabaseClass;
use tdbms_storage::HashFn;

fn ablation_hash_function() {
    println!("Ablation 1: hash function (static database, 100 % loading)");
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "hash fn", "H pages", "Q07 scan", "Q01 keyed"
    );
    for (name, f) in [
        ("mod", HashFn::Mod),
        ("multiplicative", HashFn::Multiplicative),
    ] {
        let cfg = BenchConfig::new(DatabaseClass::Static, 100);
        let mut db = workload::build_database_with_hash(&cfg, f);
        let pages = db.relation_meta(&cfg.rel_h()).unwrap().total_pages;
        let q07 = measure(
            &mut db,
            &query_for("Q07", DatabaseClass::Static).unwrap(),
        );
        let q01 = measure(
            &mut db,
            &query_for("Q01", DatabaseClass::Static).unwrap(),
        );
        println!(
            "{:<16} {:>12} {:>12} {:>12}",
            name, pages, q07.input, q01.input
        );
    }
    println!(
        "(the paper's Ingres hash behaved like the multiplicative row: \
         166 pages where perfect hashing needs 114)\n"
    );
}

fn ablation_buffer_frames() {
    println!("Ablation 2: buffer frames per relation (temporal, UC 4)");
    println!("{:<10} {:>12} {:>12}", "frames", "Q09 input", "Q03 input");
    for frames in [1usize, 4, 32] {
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let (_, mut db) = run_sweep(cfg, 4);
        db.set_buffer_frames(&cfg.rel_h(), frames).unwrap();
        db.set_buffer_frames(&cfg.rel_i(), frames).unwrap();
        let q09 = measure(&mut db, &query_for("Q09", cfg.class).unwrap());
        let q03 = measure(&mut db, &query_for("Q03", cfg.class).unwrap());
        println!("{:<10} {:>12} {:>12}", frames, q09.input, q03.input);
    }
    println!(
        "(more frames only help re-reads; the paper's 1-frame setup isolates \
         the access-method behaviour)\n"
    );
}

fn ablation_loading_factor() {
    println!("Ablation 3: loading factor crossover (temporal database)");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>14}",
        "UC", "Q10 @100%", "Q10 @50%", "Q07 @100%", "Q07 @50%"
    );
    let (d100, _) =
        run_sweep(BenchConfig::new(DatabaseClass::Temporal, 100), 8);
    let (d50, _) =
        run_sweep(BenchConfig::new(DatabaseClass::Temporal, 50), 8);
    for uc in [0u32, 4, 8] {
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>14}",
            uc,
            d100.input("Q10", uc).unwrap(),
            d50.input("Q10", uc).unwrap(),
            d100.input("Q07", uc).unwrap(),
            d50.input("Q07", uc).unwrap(),
        );
    }
    println!(
        "(lower loading costs more when the update count is low and less \
         when it is high — the paper's §6 observation)\n"
    );
}

fn ablation_all_queries_track_runtime() {
    println!("Ablation 4: page accesses vs. wall time (temporal, UC 4)");
    println!("{:<6} {:>12} {:>14}", "query", "input pages", "wall time");
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let (_, mut db) = run_sweep(cfg, 4);
    for q in queries_for(cfg.class) {
        let t = std::time::Instant::now();
        let cost = measure(&mut db, &q);
        let dt = t.elapsed();
        println!("{:<6} {:>12} {:>14?}", q.id, cost.input, dt);
    }
    println!(
        "(the paper used page accesses because they are \"highly correlated \
         with both CPU time and response time\")\n"
    );
}

fn ablation_disk_backend() {
    println!(
        "Ablation 5: disk backend (temporal 100%, UC 2, same page counts)"
    );
    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "backend", "Q03 pages", "Q03 time", "Q09 time"
    );
    for backend in ["memory", "file"] {
        let dir = std::env::temp_dir()
            .join(format!("tdbms-ablation-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = if backend == "memory" {
            tdbms_core::Database::in_memory()
        } else {
            tdbms_core::Database::with_pager(tdbms_storage::Pager::new(
                Box::new(tdbms_storage::FileDisk::open(&dir).unwrap()),
            ))
        };
        db.set_clock(tdbms_kernel::Clock::new(
            tdbms_kernel::TimeVal::from_ymd(1980, 3, 1).unwrap(),
            60,
        ));
        db.execute(
            "create temporal interval t (id = i4, amount = i4, seq = i4,              string = c96)",
        )
        .unwrap();
        let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
        let _ = &cfg;
        for i in 1..=1024 {
            db.execute(&format!(
                "append to t (id = {i}, amount = {}, seq = 0, string = \"x\")",
                i * 97 % 100_000
            ))
            .unwrap();
        }
        db.execute("modify t to hash on id where fillfactor = 100")
            .unwrap();
        db.execute("range of h is t").unwrap();
        for _ in 0..2 {
            db.execute("replace h (seq = h.seq + 1)").unwrap();
        }
        let time = |db: &mut tdbms_core::Database, q: &str| {
            let t = std::time::Instant::now();
            let out = db.execute(q).unwrap();
            (out.stats.input_pages, t.elapsed())
        };
        let (q03_pages, q03_t) =
            time(&mut db, r#"retrieve (h.id, h.seq) as of "08:00 1/1/80""#);
        let (_, q09_t) = time(
            &mut db,
            r#"retrieve (h.id, h.seq) where h.amount = 97 when h overlap "now""#,
        );
        println!(
            "{:<10} {:>12} {:>14?} {:>14?}",
            backend, q03_pages, q03_t, q09_t
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "(page counts are identical by construction; the file backend pays          real syscalls per miss)\n"
    );
}

fn main() {
    ablation_hash_function();
    ablation_buffer_frames();
    ablation_loading_factor();
    ablation_all_queries_track_runtime();
    ablation_disk_backend();
}
