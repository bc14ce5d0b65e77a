//! Closed-loop throughput benchmark for the concurrent session engine.
//!
//! Builds the paper's temporal/100 % database, wraps it in an
//! [`Engine`], and drives it with `--threads N` sessions, each running a
//! seeded closed loop of `--ops M` statements: keyed retrieves (the
//! engine's lock-free snapshot read path), periodic `replace` updates
//! (`--write-every K`, 0 = read-only), and periodic two-variable joins
//! (`--join-every J`, 0 = none) that exercise decomposition. Reports
//! queries/second, per-op latency percentiles (p50/p95/p99), the
//! per-kind op counts, the I/O totals aggregated from every
//! statement's own counters, and the commit-lock counters that prove
//! reads never touched the lock.
//!
//! `--durable 1` rebuilds the same workload on a WAL-backed in-memory
//! database, whose engine **group-commits** like every durable one,
//! with the batch bounds `--gc-max-batch` and `--gc-max-delay-ms`
//! (default 8 and 2, as `GroupCommitConfig::default()`), and
//! additionally reports `commits / fsyncs` — the batching win of
//! coalescing many sessions' commits into one log sync.
//!
//! `--server ADDR` switches the driver to **wire mode**: instead of an
//! embedded engine it connects `--threads N` real TCP clients to a
//! live `tdbms-server`, loads the workload over the wire (`--setup-rows`
//! tuples per relation, batched appends), and runs the same closed
//! loop through the network protocol — so qps and the latency tail
//! include framing, syscalls, and the server's per-query guardrails.
//!
//! `--chaos SEED` runs the resource-exhaustion acceptance drill
//! instead of a benchmark: it boots an in-process server on
//! file-backed, fault-wrapped storage, drives it with `--threads N`
//! reconnecting TCP clients, and flips disk-full / fsync-failure
//! faults (plus client-side connection drops) on a schedule that is a
//! pure function of SEED. The run fails loudly unless the server
//! survives, every acked append is still readable afterwards, workers
//! saw only typed retryable errors during fault windows, writes
//! resume once the faults lift, and the closing `tdbms-check` audit
//! of the directory is clean.
//!
//! Worker errors do not kill the run: they are counted, reported in
//! the `throughput:` line (`errors=`), and the JSON artifact is still
//! written with whatever completed (partial results are results).
//!
//! The op mix is a pure function of `--seed`; at `--threads 1` the I/O
//! totals are too, while at higher thread counts the shared warm
//! buffers make them vary slightly with the interleaving (the ledger
//! consistency assertion holds regardless).
//!
//! `--json PATH` additionally writes the whole report as one JSON
//! object (the `BENCH_throughput.json` artifact CI records).
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tdbms_bench::{build_database, populate_database, BenchConfig};
use tdbms_core::{
    CheckpointPolicy, Database, Engine, GroupCommitConfig, LockStats,
    PhaseIo,
};
use tdbms_kernel::{DatabaseClass, Error, Prng, Value};
use tdbms_net::{
    Client, ReconnectClient, RetryConfig, Server, ServerConfig,
};
use tdbms_storage::{FaultDisk, FaultPlan, FileDisk, MemDisk};
use tdbms_wal::{FaultLog, FileLog, MemLog, WAL_NAME};

fn flag(name: &str, default: u64) -> u64 {
    let mut args = std::env::args();
    let eq = format!("--{name}=");
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(n) =
            a.strip_prefix(&eq).and_then(|v| v.parse().ok())
        {
            return n;
        }
    }
    default
}

fn flag_str(name: &str) -> Option<String> {
    let mut args = std::env::args();
    let eq = format!("--{name}=");
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            return args.next();
        } else if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

#[derive(Default)]
struct Totals {
    reads: u64,
    writes: u64,
    joins: u64,
    errors: u64,
    input_pages: u64,
    output_pages: u64,
    buffer_hits: u64,
    phases: Vec<PhaseIo>,
    /// Per-op wall-clock latencies in microseconds, unsorted.
    latencies_us: Vec<u64>,
}

impl Totals {
    fn absorb(&mut self, local: Totals) {
        self.reads += local.reads;
        self.writes += local.writes;
        self.joins += local.joins;
        self.errors += local.errors;
        self.input_pages += local.input_pages;
        self.output_pages += local.output_pages;
        self.buffer_hits += local.buffer_hits;
        self.latencies_us.extend(local.latencies_us);
        for p in local.phases {
            match self.phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.reads += p.reads;
                    q.writes += p.writes;
                    q.hits += p.hits;
                    q.evictions += p.evictions;
                }
                None => self.phases.push(p),
            }
        }
    }
}

/// `p` in [0, 100] over an unsorted sample; 0 for an empty one.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The next statement of the seeded closed loop, with its kind tally.
fn next_stmt(
    rng: &mut Prng,
    op: u64,
    max_id: i64,
    join_every: u64,
    write_every: u64,
    local: &mut Totals,
) -> String {
    let id = rng.random_range(1i64..=max_id);
    if join_every > 0 && op.is_multiple_of(join_every) {
        local.joins += 1;
        format!(
            "retrieve (h.amount, i.seq) \
             where h.id = i.id and h.id = {id}"
        )
    } else if write_every > 0 && op.is_multiple_of(write_every) {
        local.writes += 1;
        format!("replace h (seq = h.seq + 1) where h.id = {id}")
    } else {
        local.reads += 1;
        format!("retrieve (h.amount) where h.id = {id}")
    }
}

fn main() {
    let threads = flag("threads", 1).max(1) as usize;
    let ops = flag("ops", 400);
    let write_every = flag("write-every", 8);
    let join_every = flag("join-every", 16);
    let seed = flag("seed", 0xbe9c);
    let durable = flag("durable", 0) == 1;
    let gc_max_batch = flag("gc-max-batch", 8) as u32;
    let gc_max_delay_ms = flag("gc-max-delay-ms", 2);
    let setup_rows = flag("setup-rows", 1024).clamp(1, 1 << 20);
    let json_path = flag_str("json");
    let server_addr = flag_str("server");

    if let Some(chaos_seed) =
        flag_str("chaos").and_then(|v| v.parse::<u64>().ok())
    {
        run_chaos_mode(chaos_seed, threads, ops, json_path);
        return;
    }

    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let report = match server_addr {
        Some(addr) => run_server_mode(
            &addr,
            &cfg,
            threads,
            ops,
            write_every,
            join_every,
            seed,
            setup_rows,
        ),
        None => run_embedded_mode(
            &cfg,
            threads,
            ops,
            write_every,
            join_every,
            seed,
            durable,
            gc_max_batch,
            gc_max_delay_ms,
        ),
    };
    print_and_write(
        report,
        threads,
        ops,
        durable,
        gc_max_batch,
        gc_max_delay_ms,
        json_path,
    );
}

/// Everything both modes produce; `None` fields don't apply to the
/// mode that ran.
struct Report {
    mode: &'static str,
    done: u64,
    elapsed: Duration,
    totals: Totals,
    locks: Option<LockStats>,
    group: Option<(u64, u64)>,
    /// Statement-cache `(hits, misses)` of the engine that served the
    /// run — fetched over the wire in server mode.
    plan_cache: Option<(u64, u64)>,
    /// Server-mode health counters `(degraded, panics_caught,
    /// accept_errors)` from the same stats fetch: a benchmark run that
    /// degraded the engine mid-way is not a clean data point, and the
    /// report should say so.
    server_health: Option<(bool, u64, u64)>,
}

#[allow(clippy::too_many_arguments)]
fn run_embedded_mode(
    cfg: &BenchConfig,
    threads: usize,
    ops: u64,
    write_every: u64,
    join_every: u64,
    seed: u64,
    durable: bool,
    gc_max_batch: u32,
    gc_max_delay_ms: u64,
) -> Report {
    let mut db = if durable {
        // The same workload over a WAL-backed in-memory database:
        // every mutating statement is a durable transaction, and group
        // commit batches the sessions' log fsyncs. The checkpoint
        // policy is deliberately sparse so there is something left to
        // batch between checkpoints.
        let mut db = Database::open_durable_on(
            Box::new(MemDisk::new()),
            Box::new(MemLog::new()),
            None,
        )
        .expect("durable open on fresh in-memory storage");
        db.set_checkpoint_policy(CheckpointPolicy::EveryN(256));
        populate_database(&mut db, cfg);
        db.enable_group_commit(GroupCommitConfig {
            max_batch: gc_max_batch.max(1),
            max_delay: Duration::from_millis(gc_max_delay_ms),
        })
        .expect("database is durable");
        db
    } else {
        build_database(cfg)
    };
    // Throughput mode: warm, shared buffers (the paper's cold-statement
    // methodology is for per-query page counts, not sustained load).
    db.set_cold_statements(false);
    db.set_default_buffer_frames(8);
    let engine = Engine::new(db);

    let rel_h = cfg.rel_h();
    let rel_i = cfg.rel_i();
    let completed = AtomicU64::new(0);
    let totals = Mutex::new(Totals::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let engine = engine.clone();
            let (rel_h, rel_i) = (rel_h.clone(), rel_i.clone());
            let (completed, totals) = (&completed, &totals);
            s.spawn(move || {
                let mut rng = Prng::seed_from_u64(seed ^ (t as u64) << 32);
                let mut session = engine.session();
                let mut local = Totals::default();
                if session
                    .execute(&format!(
                        "range of h is {rel_h}\nrange of i is {rel_i}"
                    ))
                    .is_err()
                {
                    // Without range variables every op would fail;
                    // count the whole quota as errors and bail.
                    local.errors += ops;
                    totals.lock().expect("unpoisoned").absorb(local);
                    return;
                }
                for op in 1..=ops {
                    let stmt = next_stmt(
                        &mut rng,
                        op,
                        1024,
                        join_every,
                        write_every,
                        &mut local,
                    );
                    let t0 = Instant::now();
                    match session.execute(&stmt) {
                        Ok(out) => {
                            local
                                .latencies_us
                                .push(t0.elapsed().as_micros() as u64);
                            local.input_pages += out.stats.input_pages;
                            local.output_pages += out.stats.output_pages;
                            local.buffer_hits += out.stats.buffer_hits;
                            for p in &out.stats.phases {
                                match local
                                    .phases
                                    .iter_mut()
                                    .find(|q| q.name == p.name)
                                {
                                    Some(q) => {
                                        q.reads += p.reads;
                                        q.writes += p.writes;
                                        q.hits += p.hits;
                                        q.evictions += p.evictions;
                                    }
                                    None => local.phases.push(p.clone()),
                                }
                            }
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            // Keep going: a failed op is a data point,
                            // not a reason to lose the whole report.
                            local.errors += 1;
                            eprintln!("worker {t} op failed: {e}");
                        }
                    }
                }
                totals.lock().expect("unpoisoned").absorb(local);
            });
        }
    });
    let elapsed = start.elapsed();
    let done = completed.load(Ordering::Relaxed);
    let totals = totals.into_inner().expect("unpoisoned");

    let locks = engine.lock_stats();
    let group = engine.group_commit_stats();
    let plan_cache = engine.plan_cache_stats();

    // Accounting must have survived the contention.
    engine.with_read(|db| assert!(db.io_stats().is_consistent()));

    Report {
        mode: "embedded",
        done,
        elapsed,
        totals,
        locks: Some(locks),
        group,
        plan_cache: Some(plan_cache),
        server_health: None,
    }
}

/// Load the benchmark schema and rows through the wire. Idempotent:
/// if the relations already exist (a previous run against the same
/// server), population is skipped.
fn setup_over_wire(
    c: &mut Client,
    cfg: &BenchConfig,
    setup_rows: u64,
    seed: u64,
) {
    let mut rng = Prng::seed_from_u64(seed);
    for (rel, method) in [(cfg.rel_h(), "hash"), (cfg.rel_i(), "isam")] {
        let created = c.query(&format!(
            "create temporal interval {rel} \
             (id = i4, amount = i4, seq = i4, string = c96)"
        ));
        if created.is_err() {
            // Already loaded by a previous driver run; reuse it.
            continue;
        }
        // Batched appends: one request per 64 statements keeps the
        // round-trip count (and wire overhead) sane during setup.
        let mut batch = String::new();
        let mut in_batch = 0;
        for id in 1..=setup_rows {
            let amount = rng.random_range(0i64..1000) * 100;
            let string: String = (0..12)
                .map(|_| rng.random_range(b'a'..=b'z') as char)
                .collect();
            batch.push_str(&format!(
                "append to {rel} (id = {id}, amount = {amount}, \
                 seq = 0, string = \"{string}\")\n"
            ));
            in_batch += 1;
            if in_batch == 64 {
                c.query(&batch).expect("setup append batch");
                batch.clear();
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            c.query(&batch).expect("setup append batch");
        }
        c.query(&format!(
            "modify {rel} to {method} on id where fillfactor = {}",
            cfg.fillfactor
        ))
        .expect("modify benchmark relation");
    }
}

#[allow(clippy::too_many_arguments)]
fn run_server_mode(
    addr: &str,
    cfg: &BenchConfig,
    threads: usize,
    ops: u64,
    write_every: u64,
    join_every: u64,
    seed: u64,
    setup_rows: u64,
) -> Report {
    let mut setup = Client::connect(addr).unwrap_or_else(|e| {
        panic!("cannot connect to tdbms-server at {addr}: {e}")
    });
    setup.ping().expect("server answers ping");
    setup_over_wire(&mut setup, cfg, setup_rows, seed);
    drop(setup);

    let rel_h = cfg.rel_h();
    let rel_i = cfg.rel_i();
    let completed = AtomicU64::new(0);
    let totals = Mutex::new(Totals::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (rel_h, rel_i) = (rel_h.clone(), rel_i.clone());
            let (completed, totals) = (&completed, &totals);
            s.spawn(move || {
                let mut rng = Prng::seed_from_u64(seed ^ (t as u64) << 32);
                let mut local = Totals::default();
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("worker {t}: connect failed: {e}");
                        local.errors += ops;
                        totals.lock().expect("unpoisoned").absorb(local);
                        return;
                    }
                };
                if client
                    .query(&format!(
                        "range of h is {rel_h}\nrange of i is {rel_i}"
                    ))
                    .is_err()
                {
                    local.errors += ops;
                    totals.lock().expect("unpoisoned").absorb(local);
                    return;
                }
                for op in 1..=ops {
                    let stmt = next_stmt(
                        &mut rng,
                        op,
                        setup_rows as i64,
                        join_every,
                        write_every,
                        &mut local,
                    );
                    let t0 = Instant::now();
                    match client.query(&stmt) {
                        Ok(reply) => {
                            local
                                .latencies_us
                                .push(t0.elapsed().as_micros() as u64);
                            local.input_pages += reply.input_pages;
                            local.output_pages += reply.output_pages;
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            local.errors += 1;
                            eprintln!("worker {t} op failed: {e}");
                        }
                    }
                }
                totals.lock().expect("unpoisoned").absorb(local);
            });
        }
    });
    let elapsed = start.elapsed();
    // The counters live in the server process; fetch them over the
    // wire so the report carries the same proof lines as embedded mode.
    let (locks, plan_cache, server_health) =
        match Client::connect(addr).and_then(|mut c| c.stats()) {
            Ok(s) => (
                Some(LockStats {
                    exclusive: s.exclusive,
                    snapshot_reads: s.snapshot_reads,
                }),
                Some((s.plan_hits, s.plan_misses)),
                Some((s.degraded, s.panics_caught, s.accept_errors)),
            ),
            Err(e) => {
                eprintln!("stats fetch failed: {e}");
                (None, None, None)
            }
        };
    Report {
        mode: "server",
        done: completed.load(Ordering::Relaxed),
        elapsed,
        totals: totals.into_inner().expect("unpoisoned"),
        locks,
        group: None,
        plan_cache,
        server_health,
    }
}

/// Typed errors a worker may legitimately see while a fault window is
/// open (or immediately after one, before the engine re-arms). Reads
/// are held to a stricter standard than writes: degraded mode is
/// read-only by design, so `Degraded` on a retrieve would mean the
/// snapshot-read promise broke.
fn tolerated_error(e: &Error, write: bool) -> Option<&'static str> {
    match e {
        Error::Degraded { .. } if write => Some("degraded"),
        Error::RetryUnsafe(_) if write => Some("retry_unsafe"),
        Error::Busy => Some("busy"),
        Error::Timeout { .. } => Some("timeout"),
        Error::ShuttingDown => Some("shutting_down"),
        _ => None,
    }
}

/// What the chaos workers observed, merged across threads.
#[derive(Default)]
struct ChaosTotals {
    /// ids of appends the server acknowledged — each must still be
    /// readable once the faults lift.
    acked: Vec<i64>,
    ok_reads: u64,
    degraded: u64,
    busy: u64,
    timeout: u64,
    retry_unsafe: u64,
    shutting_down: u64,
    reconnects: u64,
    retries: u64,
    /// Errors outside the tolerated typed set — any entry fails the
    /// run.
    violations: Vec<String>,
}

/// The resource-exhaustion acceptance drill (`--chaos SEED`): a real
/// TCP server on fault-wrapped file storage, reconnecting clients,
/// and a seeded schedule of disk-full / fsync-failure windows plus
/// client-side connection drops. Panics (nonzero exit) on any broken
/// invariant; prints a `chaos:` summary and optionally a JSON
/// artifact on success.
fn run_chaos_mode(
    chaos_seed: u64,
    threads: usize,
    ops: u64,
    json_path: Option<String>,
) {
    let dir = tdbms_kernel::tmpdir::fresh_dir("chaos-throughput");
    let plan = FaultPlan::new(None);
    let disk = FaultDisk::new(
        Box::new(FileDisk::open(&dir).expect("open page files")),
        plan.clone(),
    );
    let log = FaultLog::new(
        Box::new(FileLog::open(dir.join(WAL_NAME)).expect("open wal")),
        plan.clone(),
    );
    let mut db = Database::open_durable_on(
        Box::new(disk),
        Box::new(log),
        Some(dir.clone()),
    )
    .expect("durable open on fresh fault-wrapped storage");
    db.set_checkpoint_policy(CheckpointPolicy::EveryN(64));
    db.enable_group_commit(GroupCommitConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(2),
    })
    .expect("database is durable");

    let server = Server::bind(
        Engine::new(db),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let server_exited = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let windows = AtomicU64::new(0);
    let totals = Mutex::new(ChaosTotals::default());

    let (resume_attempts, server_stats, elapsed) =
        std::thread::scope(|s| {
            let server_thread = s.spawn(|| {
                let stats = server.run();
                server_exited.store(true, Ordering::SeqCst);
                stats
            });

            // Schema setup runs before any fault window opens.
            let mut setup =
                Client::connect(&addr).expect("connect for setup");
            setup.ping().expect("server answers ping");
            setup
                .query("create temporal interval chaos (id = i4, seq = i4)")
                .expect("create chaos relation");
            drop(setup);

            // The fault controller: the sequence of window kinds and
            // durations is a pure function of the chaos seed; only its
            // interleaving with worker ops varies run to run.
            let controller = s.spawn(|| {
                let mut rng = Prng::seed_from_u64(chaos_seed);
                while !done.load(Ordering::SeqCst) {
                    let healthy = 5 + rng.random_range(0u64..15);
                    std::thread::sleep(Duration::from_millis(healthy));
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let kind = rng.random_range(0u64..3);
                    if kind != 1 {
                        plan.set_enospc(true);
                    }
                    if kind != 0 {
                        plan.set_fsync_fail(true);
                    }
                    windows.fetch_add(1, Ordering::Relaxed);
                    let width = 3 + rng.random_range(0u64..10);
                    std::thread::sleep(Duration::from_millis(width));
                    plan.set_enospc(false);
                    plan.set_fsync_fail(false);
                }
            });

            let start = Instant::now();
            let mut workers = Vec::new();
            for t in 0..threads {
                let (addr, totals) = (&addr, &totals);
                workers.push(s.spawn(move || {
                    let mut rng = Prng::seed_from_u64(
                        chaos_seed ^ ((t as u64) << 32),
                    );
                    let mut client = ReconnectClient::new(
                        addr.as_str(),
                        RetryConfig {
                            max_attempts: 5,
                            base_backoff: Duration::from_millis(2),
                            max_backoff: Duration::from_millis(50),
                            seed: chaos_seed ^ (t as u64),
                        },
                    );
                    let mut local = ChaosTotals::default();
                    for op in 1..=ops {
                        // A seeded network blip: the next request has
                        // to redial.
                        if rng.random_range(0u64..37) == 0 {
                            client.drop_connection();
                        }
                        let id = t as i64 * 1_000_000 + op as i64;
                        let write =
                            !op.is_multiple_of(4) || local.acked.is_empty();
                        let stmt = if write {
                            format!("append to chaos (id = {id}, seq = 0)")
                        } else {
                            let n = rng.random_range(
                                0u64..local.acked.len() as u64,
                            );
                            format!(
                                "range of c is chaos\nretrieve (c.id) \
                                 where c.id = {}",
                                local.acked[n as usize]
                            )
                        };
                        match client.query(&stmt) {
                            Ok(reply) if write => {
                                local.acked.push(id);
                                let _ = reply;
                            }
                            Ok(reply) => {
                                // An acked tuple must stay visible
                                // even mid-window: degraded mode is
                                // read-only, not read-broken.
                                if reply.rows.is_empty() {
                                    local.violations.push(format!(
                                        "acked tuple invisible to a \
                                         retrieve (op {op})"
                                    ));
                                }
                                local.ok_reads += 1;
                            }
                            Err(e) => match tolerated_error(&e, write) {
                                Some("degraded") => local.degraded += 1,
                                Some("busy") => local.busy += 1,
                                Some("timeout") => local.timeout += 1,
                                Some("retry_unsafe") => {
                                    local.retry_unsafe += 1
                                }
                                Some(_) => local.shutting_down += 1,
                                None => local.violations.push(format!(
                                    "worker {t} op {op}: \
                                             untyped or unexpected \
                                             error: {e}"
                                )),
                            },
                        }
                    }
                    local.reconnects = client.reconnects();
                    local.retries = client.retries();
                    let mut all = totals.lock().expect("unpoisoned");
                    all.acked.append(&mut local.acked);
                    all.ok_reads += local.ok_reads;
                    all.degraded += local.degraded;
                    all.busy += local.busy;
                    all.timeout += local.timeout;
                    all.retry_unsafe += local.retry_unsafe;
                    all.shutting_down += local.shutting_down;
                    all.reconnects += local.reconnects;
                    all.retries += local.retries;
                    all.violations.append(&mut local.violations);
                }));
            }
            for w in workers {
                w.join().expect("worker thread");
            }
            let elapsed = start.elapsed();
            done.store(true, Ordering::SeqCst);
            controller.join().expect("controller thread");
            plan.set_enospc(false);
            plan.set_fsync_fail(false);

            assert!(
                !server_exited.load(Ordering::SeqCst),
                "chaos: the server exited before shutdown was requested"
            );

            // Writes must resume once the faults lift: the first
            // attempts may still see the engine re-arming.
            let mut resume =
                Client::connect(&addr).expect("connect for resume check");
            let mut resume_attempts = 0u64;
            loop {
                resume_attempts += 1;
                match resume
                    .query("append to chaos (id = 999000001, seq = 1)")
                {
                    Ok(_) => break,
                    Err(Error::Degraded { .. }) if resume_attempts < 50 => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => {
                        panic!(
                            "chaos: writes did not resume after the \
                             faults lifted: {e}"
                        )
                    }
                }
            }

            // Every acked append must still be readable over the wire.
            let reply = resume
                .query("range of c is chaos\nretrieve (c.id)")
                .expect("verification retrieve");
            let present: std::collections::HashSet<i64> = reply
                .rows
                .iter()
                .filter_map(|r| match r.first() {
                    Some(Value::Int(id)) => Some(*id),
                    _ => None,
                })
                .collect();
            {
                let all = totals.lock().expect("unpoisoned");
                for id in &all.acked {
                    assert!(
                        present.contains(id),
                        "chaos: acked append id={id} lost"
                    );
                }
            }
            drop(resume);

            handle.shutdown();
            let server_stats = server_thread
                .join()
                .expect("server thread")
                .expect("graceful drain");
            (resume_attempts, server_stats, elapsed)
        });

    let totals = totals.into_inner().expect("unpoisoned");
    if !totals.violations.is_empty() {
        for v in &totals.violations {
            eprintln!("chaos violation: {v}");
        }
        panic!("chaos: {} invariant violation(s)", totals.violations.len());
    }
    assert_eq!(
        server_stats.panics_caught, 0,
        "chaos: the server caught worker panics"
    );

    // The surviving directory must audit clean.
    let audit = tdbms_check::CheckedDb::open(&dir)
        .expect("reopen for audit")
        .check()
        .expect("audit run");
    assert!(audit.is_clean(), "chaos: audit dirty:\n{}", audit.render());

    let windows = windows.load(Ordering::Relaxed);
    println!(
        "chaos: seed={chaos_seed} threads={threads} ops/thread={ops} \
         acked={} ok_reads={} fault_windows={windows}",
        totals.acked.len(),
        totals.ok_reads
    );
    println!(
        "chaos-errors: degraded={} busy={} timeout={} retry_unsafe={} \
         shutting_down={}",
        totals.degraded,
        totals.busy,
        totals.timeout,
        totals.retry_unsafe,
        totals.shutting_down
    );
    println!(
        "chaos-client: reconnects={} retries={} resume_attempts={}",
        totals.reconnects, totals.retries, resume_attempts
    );
    println!(
        "chaos-server: queries={} errors={} panics_caught={} \
         accept_errors={}",
        server_stats.queries,
        server_stats.query_errors,
        server_stats.panics_caught,
        server_stats.accept_errors
    );
    println!(
        "audit: clean — no acked tuple lost, elapsed={:.3}s",
        elapsed.as_secs_f64()
    );

    let Some(path) = json_path else { return };
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"seed\": {chaos_seed},\n  \
         \"threads\": {threads},\n  \"ops_per_thread\": {ops},\n  \
         \"acked\": {},\n  \"ok_reads\": {},\n  \
         \"fault_windows\": {windows},\n  \
         \"errors\": {{\"degraded\": {}, \"busy\": {}, \
         \"timeout\": {}, \"retry_unsafe\": {}, \
         \"shutting_down\": {}}},\n  \
         \"client\": {{\"reconnects\": {}, \"retries\": {}, \
         \"resume_attempts\": {resume_attempts}}},\n  \
         \"server\": {{\"queries\": {}, \"query_errors\": {}, \
         \"panics_caught\": {}, \"accept_errors\": {}}},\n  \
         \"audit_clean\": true,\n  \"elapsed_secs\": {:.6}\n}}\n",
        totals.acked.len(),
        totals.ok_reads,
        totals.degraded,
        totals.busy,
        totals.timeout,
        totals.retry_unsafe,
        totals.shutting_down,
        totals.reconnects,
        totals.retries,
        server_stats.queries,
        server_stats.query_errors,
        server_stats.panics_caught,
        server_stats.accept_errors,
        elapsed.as_secs_f64(),
    );
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!(
                "invariant artifact-written violated: chaos run \
                 completed but its JSON evidence is lost \
                 (cannot write {path}: {e})"
            );
            std::process::exit(2);
        }
    }
}

fn print_and_write(
    report: Report,
    threads: usize,
    ops: u64,
    durable: bool,
    gc_max_batch: u32,
    gc_max_delay_ms: u64,
    json_path: Option<String>,
) {
    let Report {
        mode,
        done,
        elapsed,
        mut totals,
        locks,
        group,
        plan_cache,
        server_health,
    } = report;
    // A wire reply carries page counts but no hit count, and the
    // driver's `--durable` says nothing of the server's engine (durable,
    // group-committing; its commit counts are not fetched): server mode
    // reports those as unmeasured (`n/a`, JSON `null`), never as 0/false.
    let measured = mode != "server";
    let buffer_hits = measured.then_some(totals.buffer_hits);
    let durable = measured.then_some(durable);

    println!(
        "throughput: threads={threads} ops/thread={ops} total={done} \
         (reads={} writes={} joins={} errors={})",
        totals.reads, totals.writes, totals.joins, totals.errors
    );
    println!(
        "io: input_pages={} output_pages={} buffer_hits={}",
        totals.input_pages,
        totals.output_pages,
        buffer_hits.map_or("n/a".to_string(), |h| h.to_string())
    );
    totals.phases.sort_by(|a, b| a.name.cmp(&b.name));
    for p in &totals.phases {
        println!(
            "phase {}: reads={} writes={} hits={}",
            p.name, p.reads, p.writes, p.hits
        );
    }
    // The lock-free-read proof: every retrieve in the mix is snapshot-
    // eligible (the relations are temporal), so the commit lock is
    // taken only by writers. (Embedded mode only; over the wire the
    // counters live in the server process.)
    if let Some(locks) = locks {
        println!(
            "locks: exclusive={} snapshot_reads={}",
            locks.exclusive, locks.snapshot_reads
        );
    }
    if let Some((hits, misses)) = plan_cache {
        println!(
            "plan-cache: hits={hits} misses={misses} hit-rate={:.1}%",
            100.0 * hits as f64 / ((hits + misses).max(1)) as f64
        );
    }
    if let Some((commits, fsyncs)) = group {
        println!(
            "group-commit: commits={commits} fsyncs={fsyncs} \
             commits_per_fsync={:.2}",
            commits as f64 / (fsyncs.max(1)) as f64
        );
    }
    if let Some((degraded, panics, accept_errors)) = server_health {
        println!(
            "server-health: degraded={degraded} panics_caught={panics} \
             accept_errors={accept_errors}"
        );
    }

    totals.latencies_us.sort_unstable();
    let (p50, p95, p99) = (
        percentile(&totals.latencies_us, 50.0),
        percentile(&totals.latencies_us, 95.0),
        percentile(&totals.latencies_us, 99.0),
    );
    println!("latency_us: p50={p50} p95={p95} p99={p99}");

    let qps = done as f64 / elapsed.as_secs_f64().max(1e-9);
    println!("elapsed={:.3}s qps={:.0}", elapsed.as_secs_f64(), qps);

    let Some(path) = json_path else { return };
    let locks_json = match locks {
        Some(l) => format!(
            "{{\"exclusive\": {}, \"snapshot_reads\": {}}}",
            l.exclusive, l.snapshot_reads
        ),
        None => "null".to_string(),
    };
    let plan_cache_json = match plan_cache {
        Some((hits, misses)) => format!(
            "{{\"hits\": {hits}, \"misses\": {misses}, \
             \"hit_rate\": {:.4}}}",
            hits as f64 / ((hits + misses).max(1)) as f64
        ),
        None => "null".to_string(),
    };
    let group_json = match group {
        Some((commits, fsyncs)) => format!(
            "{{\"max_batch\": {gc_max_batch}, \
             \"max_delay_ms\": {gc_max_delay_ms}, \
             \"commits\": {commits}, \"fsyncs\": {fsyncs}, \
             \"commits_per_fsync\": {:.4}}}",
            commits as f64 / (fsyncs.max(1)) as f64
        ),
        None => "null".to_string(),
    };
    let health_json = match server_health {
        Some((degraded, panics, accept_errors)) => format!(
            "{{\"degraded\": {degraded}, \
             \"panics_caught\": {panics}, \
             \"accept_errors\": {accept_errors}}}"
        ),
        None => "null".to_string(),
    };
    let or_null =
        |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
    let durable_json = or_null(durable.map(|d| d.to_string()));
    let hits_json = or_null(buffer_hits.map(|h| h.to_string()));
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"mode\": \"{mode}\",\n  \
         \"threads\": {threads},\n  \"ops_per_thread\": {ops},\n  \
         \"total_ops\": {done},\n  \"reads\": {},\n  \
         \"writes\": {},\n  \"joins\": {},\n  \"errors\": {},\n  \
         \"durable\": {durable_json},\n  \
         \"locks\": {locks_json},\n  \
         \"plan_cache\": {plan_cache_json},\n  \
         \"group_commit\": {group_json},\n  \
         \"server_health\": {health_json},\n  \
         \"io\": {{\"input_pages\": {}, \"output_pages\": {}, \
         \"buffer_hits\": {hits_json}}},\n  \
         \"latency_us\": {{\"p50\": {p50}, \"p95\": {p95}, \
         \"p99\": {p99}}},\n  \
         \"elapsed_secs\": {:.6},\n  \"qps\": {:.1}\n}}\n",
        totals.reads,
        totals.writes,
        totals.joins,
        totals.errors,
        totals.input_pages,
        totals.output_pages,
        elapsed.as_secs_f64(),
        qps,
    );
    // Partial results are results: this write happens even when every
    // op errored, so CI always has a valid artifact to record — and a
    // write failure is itself fatal, because a gate that silently runs
    // without its artifact compares against stale numbers.
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!(
                "invariant artifact-written violated: throughput run \
                 completed but its JSON evidence is lost \
                 (cannot write {path}: {e})"
            );
            std::process::exit(2);
        }
    }
}
