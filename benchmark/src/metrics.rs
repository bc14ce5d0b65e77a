//! The metric registry: every number the benchmark prints, by name,
//! with its unit, its direction and (for end-to-end metrics) the bound
//! by which it may worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root carries the same names; a
//! unit test keeps the two in step.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a metric sits in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Real and non-zero on all five workloads, and repeating well
    /// inside the contract's largest bound: the driver bounds it.
    EndToEnd,
    /// End-to-end, but not fit for the driver's bounded list: some
    /// workload has no such operation or the honest value is 0 (every
    /// bounded metric is sent on every workload, as a number, never 0),
    /// or — `read_p99_us` — its spread on this sandbox comes too close
    /// to the 25 % cap. Listed under `per_layer` there; the benchmark's
    /// own reports keep it end-to-end and `repeat.sh` still bounds it.
    EndToEndSome,
    /// One layer's number. No bound.
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scope: Scope,
    /// Regression bound as a share of the baseline (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        scope: Scope::EndToEnd,
        bound,
    }
}

const fn some(
    name: &'static str,
    unit: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        scope: Scope::EndToEndSome,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        scope: Scope::Layer,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[Metric] = &[
    // ---- end to end, every workload ---------------------------------
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("read_p95_us", "us", Lower, 0.25),
    e2e("space_amplification", "ratio", Lower, 0.05),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    // ---- end to end, not on the driver's bounded list --------------
    some("read_p99_us", "us", 0.25),
    some("write_p50_us", "us", 0.25),
    some("write_p99_us", "us", 0.25),
    some("pages_read_per_op", "pages/op", 0.05),
    some("pages_written_per_op", "pages/op", 0.05),
    some("wal_bytes_per_user_byte", "ratio", 0.05),
    some("recovery_s", "s", 0.25),
    some("failed_ops_ratio", "ratio", 0.0),
    // ---- front end ---------------------------------------------------
    layer("tquel.parse_us", "us", Lower),
    layer("core.bind_plan_us", "us", Lower),
    layer("plan.cache_hit_ratio", "ratio", Higher),
    layer("core.execute_self_us", "us", Lower),
    layer("core.engine.exclusive_per_write", "count", Lower),
    layer("core.engine.snapshot_read_share", "ratio", Higher),
    // ---- storage -----------------------------------------------------
    layer("storage.disk.reads_per_op", "pages/op", Lower),
    layer("storage.disk.writes_per_op", "pages/op", Lower),
    layer("storage.disk.syncs_per_op", "count", Lower),
    layer("storage.disk.busy_share", "ratio", Lower),
    layer("storage.pager.hit_ratio", "ratio", Higher),
    layer("storage.pager.evictions_per_op", "count", Lower),
    layer("storage.pager.accesses_per_result_row", "pages", Lower),
    layer("storage.pager.ledger_gap", "ratio", Lower),
    layer("storage.hash.keyed_us_per_page", "us", Lower),
    layer("storage.isam.keyed_us_per_page", "us", Lower),
    layer("storage.hash.scan_us_per_page", "us", Lower),
    layer("storage.isam.scan_us_per_page", "us", Lower),
    layer("core.exec.subst_join_us_per_page", "us", Lower),
    layer("core.exec.nested_join_us_per_page", "us", Lower),
    layer("core.eval.temporal_us_per_page", "us", Lower),
    layer("storage.history.pages_per_hot_probe", "pages", Lower),
    layer("storage.history.pages_per_cold_probe", "pages", Lower),
    layer("storage.chain.pages_per_version_scan", "pages", Lower),
    layer("core.reorg.busy_share", "ratio", Lower),
    layer("core.reorg.rows_migrated", "count", Higher),
    layer("core.reorg.pages_rewritten", "pages", Lower),
    // ---- write-ahead log --------------------------------------------
    layer("wal.bytes_per_commit", "bytes", Lower),
    layer("wal.appends_per_commit", "count", Lower),
    layer("wal.append_us", "us", Lower),
    layer("wal.group.commits_per_fsync", "count", Higher),
    layer("wal.sync_wait_share", "ratio", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.checkpoint_s", "s", Lower),
    layer("wal.recovery_bytes_replayed", "bytes", Lower),
    layer("wal.recovery_us_per_kib", "us", Lower),
    // ---- the wire ----------------------------------------------------
    layer("net.wire.codec_us", "us", Lower),
    layer("net.wire.bytes_per_roundtrip", "bytes", Lower),
    layer("net.roundtrip_overhead_us", "us", Lower),
    layer("net.client.connect_us", "us", Lower),
    layer("net.server.query_errors", "count", Lower),
    layer("net.server.panics_caught", "count", Lower),
    layer("net.server.accept_errors", "count", Lower),
    // ---- the trace itself -------------------------------------------
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.coverage", "ratio", Higher),
];

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "point_read",
        "fits cache, read-only keyed retrieves: parser, binder and plan \
         cache do the work, storage almost none",
    ),
    (
        "paper_sweep",
        "the paper's experiment in paper mode (1 frame, cold statements): \
         larger than cache, storage and decomposition do the work",
    ),
    (
        "history_growth",
        "skewed replaces beside probes on 8 frames with inline \
         reorganisation: the storage layer under writes",
    ),
    (
        "durable_commit",
        "WAL + group commit on devices with a fixed 200 us sync, then \
         crash and recover: only the log layer dominates",
    ),
    (
        "mixed_wire",
        "two TCP clients on the throughput mix: framing, session threads \
         and the commit-lock / snapshot-read split",
    ),
];

pub fn metric(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unregistered metric {name}"))
}

/// The bound `repeat.sh` holds a workload's metric to, as a share of
/// its `median`. Page counts repeat exactly when one session drives the
/// run. Set-up takes milliseconds on the small workloads, so it may
/// also move by 0.2 s (the issue's "20 % or 0.2 s"; `BENCHMARK.json`
/// can state only the share).
pub fn repeat_bound(m: &Metric, workload: &str, median: f64) -> f64 {
    let one_session = !matches!(workload, "durable_commit" | "mixed_wire");
    match m.name {
        "pages_read_per_op" | "pages_written_per_op" if one_session => 0.0,
        "space_amplification" if one_session => 0.0,
        "setup_s" => m.bound.max(0.2 / median),
        _ => m.bound,
    }
}

/// `run_seconds` of `BENCHMARK.json`: the run length the operation
/// counts were calibrated for (`--seconds` scales them linearly).
pub const RUN_SECONDS: u64 = 10;

/// The contents of `BENCHMARK.json` (`--print-benchmark-json` writes
/// it; the committed file must say the same).
pub fn benchmark_json() -> Json {
    let list = |e2e: bool| -> Vec<Json> {
        METRICS
            .iter()
            .filter(|m| (m.scope == Scope::EndToEnd) == e2e)
            .map(|m| {
                let mut o = Json::obj();
                o.set("name", m.name)
                    .set("unit", m.unit)
                    .set("better", m.better.word());
                if e2e {
                    o.set("bound", m.bound);
                }
                o
            })
            .collect()
    };
    let mut doc = Json::obj();
    doc.set(
        "command",
        vec![Json::from("bash"), Json::from("benchmark/run.sh")],
    )
    .set("paths", vec![Json::from("benchmark")])
    .set("run_seconds", RUN_SECONDS)
    .set(
        "workloads",
        WORKLOADS
            .iter()
            .map(|(name, why)| {
                let mut o = Json::obj();
                o.set("name", *name).set("why", *why);
                o
            })
            .collect::<Vec<_>>(),
    )
    .set("end_to_end", list(true))
    .set("per_layer", list(false));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.bound <= 0.25);
        }
        assert!(METRICS.iter().any(|m| m.name == "setup_s"));
        for (name, why) in WORKLOADS {
            assert!(name.len() <= 64 && why.len() <= 200, "{name}");
            assert!(!why.contains('\n'));
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the registry is what
    /// the program prints. They must say the same.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            benchmark_json()
        );
        assert!(text.len() < 64 * 1024);
    }
}
