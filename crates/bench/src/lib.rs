//! # tdbms-bench
//!
//! The benchmark harness reproducing Section 5 and Figure 10 of the
//! paper: workload generation ([`workload`]), the twelve queries per
//! database class ([`queries`]), update-count sweeps ([`sweep`]), the
//! fixed/variable-cost analysis ([`analysis`]), and printable
//! reproductions of every figure ([`figures`]).

pub mod analysis;
pub mod figures;
pub mod improvements;
pub mod predict;
pub mod queries;
pub mod sweep;
pub mod workload;

pub use analysis::{cost_model, fixed_cost, CostModel};
pub use improvements::{
    build_two_level, measure_improvements, nonuniform_experiment, Fig10Row,
    TwoLevel,
};
pub use predict::{predict_json, predict_report, ranking_violations};
pub use queries::{queries_for, query_for, BenchQuery, QUERY_IDS};
pub use sweep::{
    measure, run_buffer_sweep, run_buffer_sweep_threaded, run_scale_sweep,
    run_sweep, run_sweeps_threaded, BufferCost, BufferSweepData, Cost,
    ScaleRound, ScaleSweepData, SweepData,
};
pub use workload::{
    build_database, build_database_with_hash, build_scale_database,
    evolve_scale_round, evolve_single_tuple, evolve_uniform,
    populate_database, populate_scale_database, scale_update_key,
    BenchConfig, ScaleConfig, SCALE_REL,
};

/// Update-count ceiling for harness binaries: `TDBMS_MAX_UC` (default 14,
/// the paper's reporting point; Figure 6 extends to 15).
pub fn max_uc_from_env(default: u32) -> u32 {
    std::env::var("TDBMS_MAX_UC")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Worker-thread count for harness binaries: `--threads N` on the command
/// line, else the `TDBMS_THREADS` environment variable, else 1 (the
/// paper-mode serial driver, whose output is the golden reference).
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(n) =
            a.strip_prefix("--threads=").and_then(|v| v.parse().ok())
        {
            return n;
        }
    }
    std::env::var("TDBMS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}
