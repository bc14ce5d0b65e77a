//! Regenerate Figure 5: space requirements for the eight test databases.
//! `--threads N` sweeps the eight configurations in parallel; the data
//! is identical at any thread count because each configuration builds
//! its own deterministic database.
//!
//! `--predict` switches to the planner-prediction report: the cost
//! model's estimated input pages next to the measured ones for every
//! query and update count, written as `BENCH_planner.json` (or the
//! `--json PATH` override). Exits nonzero if the estimates fail to
//! reproduce the figures' growth *ordering* — a query whose measured
//! cost grows across update counts while its estimate shrinks.
use tdbms_bench::{
    figures, max_uc_from_env, predict_json, predict_report,
    ranking_violations, run_sweeps_threaded, threads_from_args,
    BenchConfig,
};

fn main() {
    let max_uc = max_uc_from_env(14);
    let threads = threads_from_args();
    let predict = std::env::args().any(|a| a == "--predict");
    let sweeps = run_sweeps_threaded(&BenchConfig::all(), max_uc, threads);
    let refs: Vec<&_> = sweeps.iter().collect();
    if !predict {
        print!("{}", figures::fig5(&refs));
        return;
    }
    let violations = ranking_violations(&refs);
    print!("{}", predict_report(&refs));
    let path = std::env::args()
        .skip_while(|a| a != "--json")
        .nth(1)
        .unwrap_or_else(|| "BENCH_planner.json".to_string());
    match std::fs::write(&path, predict_json(&refs, &violations)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!(
                "invariant artifact-written violated: prediction \
                 report computed but its JSON evidence is lost \
                 (cannot write {path}: {e})"
            );
            std::process::exit(2);
        }
    }
    if !violations.is_empty() {
        eprintln!(
            "planner mis-ranked {} measured growth pair(s):",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    println!(
        "ranking check: estimates reproduce measured growth ordering \
         for all queries"
    );
}
