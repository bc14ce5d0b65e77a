//! One benchmark for the whole TDBMS stack. See `README.md`.
//!
//! ```text
//! tdbms-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//!                 [--trials N] [--smoke] [--selftest]
//!     one workload, in this process; the last line of stdout is the
//!     driver's JSON object (end-to-end metrics with --trace 0,
//!     per-layer metrics with --trace 1)
//! tdbms-benchmark [the same options, without --workload]
//!     every workload, each in a child process of its own, merged into
//!     benchmark/out/result.json
//! tdbms-benchmark --compare RESULT.json...
//!     max relative deviation per workload × end-to-end metric
//! ```

mod gen;
mod json;
mod metrics;
mod replay;
mod report;
mod run;
mod sim;
mod stats;
mod sut;
mod trace;
mod workloads;

use json::Json;
use metrics::{Scope, METRICS, WORKLOADS};
use run::Cfg;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const RUN_SECONDS: f64 = metrics::RUN_SECONDS as f64;
/// The default seed; `2026` is the held-out one.
const DEFAULT_SEED: u64 = 1986;
/// Where results and traces go, relative to the checkout's root (which
/// `run.sh` makes the working directory).
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace 1`: one traced trial after the untraced ones.
    traced: bool,
    trials: Option<usize>,
    smoke: bool,
    selftest: bool,
    compare: Vec<PathBuf>,
    write_golden: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn num<T: std::str::FromStr>(
            s: String,
            flag: &str,
        ) -> Result<T, String> {
            s.parse().map_err(|_| format!("{flag}: bad number {s:?}"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = Some(num(value("a number")?, &flag)?),
            "--seconds" => {
                a.seconds = Some(num(value("a number")?, &flag)?)
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trials" => a.trials = Some(num(value("a count")?, &flag)?),
            "--smoke" => a.smoke = true,
            "--selftest" => a.selftest = true,
            "--write-golden" => a.write_golden = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            "--compare" => {
                a.compare = it.by_ref().map(Into::into).collect()
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds.is_some_and(|s| !s.is_finite() || s <= 0.0)
        || a.trials == Some(0)
    {
        return Err("--seconds and --trials must be positive".into());
    }
    Ok(a)
}

impl Args {
    fn cfg(&self) -> Cfg {
        // --selftest runs at smoke size: it checks the checkers.
        let smoke = if self.smoke || self.selftest {
            0.1
        } else {
            1.0
        };
        Cfg {
            seed: self.seed.unwrap_or(DEFAULT_SEED),
            scale: self.seconds.unwrap_or(RUN_SECONDS) / RUN_SECONDS
                * smoke,
            selftest: self.selftest,
        }
    }

    /// Untraced trials of `workload`: one default for every form of
    /// the command, so the same workload gives the same medians
    /// whichever way it was started.
    fn trials(&self, workload: &str) -> usize {
        self.trials.unwrap_or(if self.smoke || self.selftest {
            1
        } else {
            workloads::trials(workload)
        })
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process. `Ok(correct)`.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let cfg = args.cfg();
    // End-to-end numbers come from untraced trials only.
    let mut trials = Vec::new();
    for _ in 0..args.trials(name) {
        trials
            .push(report::summarize(workloads::trial(name, &cfg, false)?));
    }
    // Before the traced trial allocates its spans.
    let rss = run::peak_rss_mb();
    let mut report = report::end_to_end(name, cfg.seed, &trials, rss);
    let out = Path::new(OUT_DIR);

    if args.traced {
        let mut t = workloads::trial(name, &cfg, true)?;
        report.attempted += t.driven.ops + t.audit_ops;
        report.failed += t.driven.failed + t.audit_failed;
        report.failures.extend(t.driven.first_failure.clone());
        report.failures.extend(t.audit_failure.clone());
        let traced_rate = t.driven.ops as f64 / t.driven.wall_s;
        if let Some(untraced_rate) = report.median("ops_per_s") {
            t.layer.insert(
                "trace.overhead_ratio",
                1.0 - traced_rate / untraced_rate,
            );
        }
        let report::TracedLayers {
            values: mut layer,
            shares,
            mut spans,
        } = report::layers_of(&mut t);
        // Counters the workload read directly come from an untraced
        // trial: the traced loop calls `parse_statement` +
        // `execute_statement`, which goes around the statement cache.
        if let Some(u) = trials.last() {
            layer.extend(u.layer.iter().map(|(k, v)| (*k, *v)));
        }
        replay::front_end(name, &cfg, &mut layer)?;
        if name == "mixed_wire" {
            replay::codec(&t, &mut layer)?;
            let embedded =
                workloads::mixed_wire::embedded_read_p50_us(&cfg)?;
            // Against the untraced wire p50.
            if let Some(wire) = report.median("read_p50_us") {
                layer.insert("net.roundtrip_overhead_us", wire - embedded);
            }
        }
        report.set_layers(&layer, shares);
        write(
            &out.join(format!("trace-{name}.json")),
            &report::trace_json(&mut spans).line(),
        )?;
    }

    report.print();
    write(
        &out.join(format!("{name}.json")),
        &report.to_json().pretty(),
    )?;
    match report.driver_line(args.traced) {
        Ok(line) => println!("{line}"),
        // A run too short for a bounded metric (--smoke, a small
        // --seconds) has no result line; its checks still count.
        Err(why) => eprintln!("no result line for the driver: {why}"),
    }
    Ok(report.correct())
}

/// Every workload, each in its own child process (so `peak_rss_mb` is
/// per workload), merged into `result.json`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Path::new(OUT_DIR);
    let cfg = args.cfg();
    let mut merged = Json::obj();
    let (mut passed, mut failed) = (Vec::new(), Vec::new());
    for (name, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(n) = args.trials {
            cmd.args(["--trials", &n.to_string()]);
        }
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        for (on, flag) in
            [(args.smoke, "--smoke"), (args.selftest, "--selftest")]
        {
            if on {
                cmd.arg(flag);
            }
        }
        let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
        if status.success() {
            passed.push(name);
        } else {
            failed.push(name);
        }
        let path = out.join(format!("{name}.json"));
        if let Ok(text) = std::fs::read_to_string(&path) {
            merged.set(name, Json::parse(&text)?);
        }
    }
    let mut doc = Json::obj();
    doc.set("seed", cfg.seed)
        .set("scale", cfg.scale)
        .set("traced", args.traced)
        .set(
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get() as u64),
        )
        .set("workloads", merged);
    write(&out.join("result.json"), &doc.pretty())?;
    println!("wrote {}", out.join("result.json").display());

    if args.selftest {
        // One expectation was flipped in every workload: each must
        // have failed. A workload that passed has a check that cannot
        // fail, and that is the one outcome reported as success (0).
        if passed.is_empty() {
            println!(
                "selftest: all {} workloads caught the flipped value",
                failed.len()
            );
            return Ok(ExitCode::from(3));
        }
        println!("selftest: NOT caught by {passed:?}");
        return Ok(ExitCode::SUCCESS);
    }
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAILED: {failed:?}");
        Ok(ExitCode::FAILURE)
    }
}

/// `repeat.sh`: over N result files, the largest relative deviation of
/// each workload × end-to-end metric from its median, beside its bound.
fn compare(files: &[PathBuf]) -> Result<ExitCode, String> {
    let docs = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f)
                .map_err(|e| format!("{}: {e}", f.display()))?;
            Json::parse(&text)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut worst = 0usize;
    println!(
        "{:<16} {:<26} {:>12} {:>10} {:>8}  over {} runs",
        "workload",
        "metric",
        "median",
        "max dev",
        "bound",
        docs.len()
    );
    for (workload, _) in WORKLOADS {
        for m in METRICS.iter().filter(|m| m.scope != Scope::Layer) {
            let values: Vec<f64> = docs
                .iter()
                .filter_map(|d| {
                    d.get("workloads")?
                        .get(workload)?
                        .get("end_to_end")?
                        .get(m.name)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            let (Some(median), Some(dev)) =
                (stats::median(&values), stats::max_rel_dev(&values))
            else {
                continue;
            };
            let bound = metrics::repeat_bound(m, workload, median);
            let over = dev > bound;
            worst += over as usize;
            println!(
                "{workload:<16} {:<26} {median:>12.4} {:>9.2}% {:>7.1}%{}",
                m.name,
                dev * 100.0,
                bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    if worst > 0 {
        println!("{worst} metric(s) deviate by more than their bound");
        return Ok(ExitCode::FAILURE);
    }
    println!("every metric repeats within its bound");
    Ok(ExitCode::SUCCESS)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if !args.compare.is_empty() {
        return compare(&args.compare);
    }
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json().pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if args.write_golden {
        print!("{}", workloads::paper_sweep::golden_text(&args.cfg())?);
        return Ok(ExitCode::SUCCESS);
    }
    match &args.workload {
        Some(name) => Ok(if run_workload(name, &args)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("tdbms-benchmark: {e}");
        ExitCode::from(2)
    })
}
