//! Deterministic concurrency stress suite for the session engine.
//!
//! Four layers; the engine's three are seeded through
//! `tdbms_kernel::Prng` so every run — local, CI, or bisect — replays
//! the same schedules:
//!
//! * **100 seeded schedules**: four sessions per engine run a mixed
//!   read / replace / append / delete / checkpoint workload; after every
//!   schedule the I/O ledger must balance and `tdbms-check` must audit
//!   the database clean. A quarter of the schedules run through the
//!   write-ahead log on shared in-memory storage.
//! * **Crash under concurrency**: a fault-injected matrix kills the
//!   "process" (via [`FaultPlan`]) while four threads are mid-workload,
//!   with random torn writes on both the page and log channels. Reopening
//!   the raw survivors must recover every statement that returned `Ok`
//!   to any session — zero committed tuples lost — invent nothing that
//!   was never attempted, audit clean, and be idempotent.
//! * **Accounting property**: the atomic [`IoStats`] counters, read
//!   concurrently, must agree exactly with a serial replay of the same
//!   seeded schedule — the lock-free accounting never drops or invents
//!   a page access.
//! * **Pager counters**: 8 threads reading through one pager, each in
//!   its own scope, beside bloom verdicts and pseudo-file writes (the
//!   counts made outside the pager lock): every total and every scope
//!   exact.

use std::collections::BTreeSet;
use std::sync::Mutex;
use tdbms::wal::{FaultLog, LogStore, MemLog};
use tdbms::{CheckpointPolicy, Database, Engine};
use tdbms_check::check_database;
use tdbms_kernel::{Prng, Value};
use tdbms_storage::{DiskManager, FaultDisk, FaultPlan, MemDisk};

/// Seed rows shared by every schedule: ids `1..=BASE_IDS`, `seq = 0`.
const BASE_IDS: i64 = 24;

fn create_and_seed(db: &mut Database) {
    db.execute("create temporal interval t (id = i4, seq = i4)")
        .expect("create");
    for id in 1..=BASE_IDS {
        db.execute(&format!("append to t (id = {id}, seq = 0)"))
            .expect("seed append");
    }
}

/// The sorted current `id`s of relation `t`, read through a throwaway
/// session (every test relation here is append/delete on distinct ids,
/// so the id set is the whole observable state we assert on).
fn current_ids(engine: &Engine) -> BTreeSet<i64> {
    let mut s = engine.session();
    let out = s
        .execute("range of q is t\nretrieve (q.id)")
        .expect("snapshot retrieve");
    out.rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Int(n) => *n,
            other => panic!("id column decoded as {other:?}"),
        })
        .collect()
}

/// Audit the live database with `tdbms-check` and fail loudly on any
/// finding.
fn audit_clean(engine: &Engine, ctx: &str) {
    engine.with_write(|db| {
        let (pager, catalog, _) = db.internals();
        let report = check_database(pager, catalog).expect("audit runs");
        assert!(
            report.is_clean(),
            "{ctx}: check found problems:\n{}",
            report.render()
        );
    });
}

/// One seeded stress schedule: four sessions, sixteen statements each,
/// mixing shared-lock reads with exclusive-lock DML and checkpoints.
/// Appended ids are unique per (thread, op) and never deleted, so after
/// the dust settles every `Ok` append must still be visible.
fn run_stress_schedule(seed: u64, durable: bool) {
    let mut db = if durable {
        Database::open_durable_on(
            Box::new(MemDisk::new()),
            Box::new(MemLog::new()),
            None,
        )
        .expect("durable open on fresh storage")
    } else {
        Database::in_memory()
    };
    db.set_cold_statements(false);
    create_and_seed(&mut db);
    let engine = Engine::new(db);

    let appended = Mutex::new(BTreeSet::new());
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let engine = engine.clone();
            let appended = &appended;
            scope.spawn(move || {
                let mut g = Prng::seed_from_u64(seed ^ (t << 32) ^ 0x5eed);
                let mut s = engine.session();
                s.execute("range of z is t").expect("range");
                for op in 0..16u64 {
                    let key = g.random_range(1i64..=BASE_IDS);
                    match g.random_range(0u32..10) {
                        0..=4 => {
                            s.execute(&format!(
                                "retrieve (z.seq) where z.id = {key}"
                            ))
                            .expect("read");
                        }
                        5..=6 => {
                            s.execute(&format!(
                                "replace z (seq = z.seq + 1) \
                                 where z.id = {key}"
                            ))
                            .expect("replace");
                        }
                        7 => {
                            let id = 1000 + (t as i64) * 100 + op as i64;
                            s.execute(&format!(
                                "append to t (id = {id}, seq = 0)"
                            ))
                            .expect("append");
                            appended.lock().expect("unpoisoned").insert(id);
                        }
                        8 => {
                            s.execute(&format!(
                                "delete z where z.id = {key}"
                            ))
                            .expect("delete");
                        }
                        _ => {
                            engine
                                .with_write(|db| db.checkpoint())
                                .expect("checkpoint");
                        }
                    }
                }
            });
        }
    });

    // The atomic ledger must still balance after the contention.
    engine.with_read(|db| {
        assert!(
            db.io_stats().is_consistent(),
            "seed {seed}: hits + misses != accesses after stress"
        );
    });
    // Every append that returned Ok is still visible (appended ids are
    // disjoint from the 1..=BASE_IDS delete targets).
    let ids = current_ids(&engine);
    let appended = appended.into_inner().expect("unpoisoned");
    for id in &appended {
        assert!(
            ids.contains(id),
            "seed {seed}: committed append {id} vanished"
        );
    }
    audit_clean(&engine, &format!("seed {seed} (durable={durable})"));
}

/// Acceptance gate: 100 seeded multi-thread schedules, every resulting
/// database audited clean. Seeds divisible by four run through the WAL.
#[test]
fn hundred_seeded_schedules_audit_clean() {
    for seed in 0..100u64 {
        run_stress_schedule(seed, seed % 4 == 0);
    }
}

/// Crash-under-concurrency matrix: a fault-wrapped durable engine is
/// killed mid-workload while three writers and one reader are running;
/// recovery from the raw survivors must keep every committed append.
#[test]
fn crash_under_concurrency_loses_no_committed_tuples() {
    for case in 0..12u64 {
        let mut g = Prng::seed_from_u64(0xc0de + case * 7919);
        let budget = g.random_range(25u64..=110);
        let torn_disk =
            g.random_bool().then(|| g.random_range(0usize..1024));
        let torn_log = g.random_bool().then(|| g.random_range(0usize..48));

        // Incarnation 1 (no faults): build the baseline and checkpoint
        // it, so `t` always exists when the crash run opens.
        let disk = MemDisk::new();
        let log = MemLog::new();
        let baseline: BTreeSet<i64> = (1..=BASE_IDS).collect();
        {
            let mut db = Database::open_durable_on(
                Box::new(disk.clone()),
                Box::new(log.clone()),
                None,
            )
            .expect("baseline open");
            create_and_seed(&mut db);
            db.checkpoint().expect("baseline checkpoint");
        }

        // Incarnation 2: same storage behind fault injectors with an op
        // budget; three writer sessions append unique ids (recording the
        // ones that commit) and one reader polls, until the crash.
        let plan = FaultPlan::new(Some(budget));
        let fdisk: Box<dyn DiskManager> = match torn_disk {
            Some(k) => Box::new(FaultDisk::with_torn_writes(
                Box::new(disk.clone()),
                plan.clone(),
                k,
            )),
            None => Box::new(FaultDisk::new(
                Box::new(disk.clone()),
                plan.clone(),
            )),
        };
        let flog: Box<dyn LogStore> = match torn_log {
            Some(k) => Box::new(FaultLog::with_torn_appends(
                Box::new(log.clone()),
                plan.clone(),
                k,
            )),
            None => {
                Box::new(FaultLog::new(Box::new(log.clone()), plan.clone()))
            }
        };
        let committed = Mutex::new(BTreeSet::new());
        let mut attempted = baseline.clone();
        for t in 0..3i64 {
            for k in 0..16i64 {
                attempted.insert(1000 + t * 100 + k);
            }
        }
        if let Ok(mut db) = Database::open_durable_on(fdisk, flog, None) {
            // Frequent checkpoints so the crash point lands in every
            // part of the commit/checkpoint cycle across the matrix.
            db.set_checkpoint_policy(CheckpointPolicy::EveryN(3));
            let engine = Engine::new(db);
            std::thread::scope(|scope| {
                for t in 0..3i64 {
                    let engine = engine.clone();
                    let committed = &committed;
                    scope.spawn(move || {
                        let mut s = engine.session();
                        if s.execute("range of z is t").is_err() {
                            return;
                        }
                        for k in 0..16i64 {
                            let id = 1000 + t * 100 + k;
                            match s.execute(&format!(
                                "append to t (id = {id}, seq = 0)"
                            )) {
                                Ok(_) => {
                                    committed
                                        .lock()
                                        .expect("unpoisoned")
                                        .insert(id);
                                }
                                Err(_) => return,
                            }
                        }
                    });
                }
                let engine = engine.clone();
                scope.spawn(move || {
                    let mut s = engine.session();
                    if s.execute("range of z is t").is_err() {
                        return;
                    }
                    for _ in 0..32 {
                        if s.execute("retrieve (z.seq) where z.id = 3")
                            .is_err()
                        {
                            return;
                        }
                    }
                });
            });
        }
        assert!(
            plan.crashed(),
            "case {case}: budget {budget} never tripped — the matrix \
             must actually crash mid-workload"
        );
        let committed: BTreeSet<i64> = {
            let mut all = committed.into_inner().expect("unpoisoned");
            all.extend(baseline.iter().copied());
            all
        };

        // Recovery on the raw survivors.
        let rdb = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("recovery must succeed on raw survivors");
        let engine = Engine::new(rdb);
        let recovered = current_ids(&engine);
        for id in &committed {
            assert!(
                recovered.contains(id),
                "case {case} (budget {budget}, torn_disk {torn_disk:?}, \
                 torn_log {torn_log:?}): committed tuple {id} lost in \
                 recovery"
            );
        }
        for id in &recovered {
            assert!(
                attempted.contains(id),
                "case {case}: recovery invented tuple {id}"
            );
        }
        audit_clean(&engine, &format!("case {case} after recovery"));
        drop(engine);

        // Recovering twice equals recovering once.
        let rdb2 = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )
        .expect("second recovery");
        assert_eq!(
            current_ids(&Engine::new(rdb2)),
            recovered,
            "case {case}: recovery is not idempotent"
        );
    }
}

/// A database partitioned one relation per thread (`t0..t3`, two buffer
/// frames each) so every counter is a pure function of the schedule —
/// concurrency may interleave the work but must not change the ledger.
fn build_partitioned() -> Database {
    let mut db = Database::in_memory();
    db.set_cold_statements(false);
    db.set_default_buffer_frames(2);
    for t in 0..4 {
        db.execute(&format!(
            "create temporal interval t{t} (id = i4, seq = i4)"
        ))
        .expect("create");
        for id in 1..=16 {
            db.execute(&format!("append to t{t} (id = {id}, seq = 0)"))
                .expect("seed");
        }
    }
    db
}

/// The per-thread read schedule for one seed: keyed single-variable
/// retrieves against that thread's own relation.
fn read_schedule(seed: u64, t: u64) -> Vec<String> {
    let mut g = Prng::seed_from_u64(seed ^ (t << 24) ^ 0x10575);
    (0..24)
        .map(|_| {
            format!(
                "retrieve (z{t}.seq) where z{t}.id = {}",
                g.random_range(1i64..=16)
            )
        })
        .collect()
}

/// Satellite property: concurrent readers observe consistent `IoStats`
/// counters. The ledger's growth while four sessions read in parallel
/// must equal, exactly, both the sum of those sessions' own
/// per-statement scopes (nothing else is running, so every page access
/// belongs to some statement) and the per-statement sums of a serial
/// replay of the same seeded schedule — per-relation buffer pools make
/// even the hit/miss split deterministic, so any difference means the
/// lock-free accounting under- or over-counted.
#[test]
fn concurrent_read_accounting_matches_serial_replay() {
    for seed in [3u64, 17, 40, 71, 96, 0xbeef] {
        let engine = Engine::new(build_partitioned());
        let before = engine.with_read(|db| db.io_stats().total());
        // (reads, writes, hits) summed over every statement's stats.
        let scoped = Mutex::new((0u64, 0u64, 0u64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let engine = engine.clone();
                let scoped = &scoped;
                scope.spawn(move || {
                    let mut s = engine.session();
                    s.execute(&format!("range of z{t} is t{t}"))
                        .expect("range");
                    let mut mine = (0u64, 0u64, 0u64);
                    for stmt in read_schedule(seed, t) {
                        let out = s.execute(&stmt).expect("read");
                        mine.0 += out.stats.input_pages;
                        mine.1 += out.stats.output_pages;
                        mine.2 += out.stats.buffer_hits;
                    }
                    let mut sum = scoped.lock().expect("unpoisoned");
                    *sum = (sum.0 + mine.0, sum.1 + mine.1, sum.2 + mine.2);
                });
            }
        });
        let after = engine.with_read(|db| {
            assert!(
                db.io_stats().is_consistent(),
                "seed {seed}: ledger imbalance"
            );
            db.io_stats().total()
        });
        let concurrent = (
            after.reads - before.reads,
            after.writes - before.writes,
            after.hits - before.hits,
            after.accesses - before.accesses,
        );
        let scoped = scoped.into_inner().expect("unpoisoned");
        assert_eq!(
            (concurrent.0, concurrent.1, concurrent.2),
            scoped,
            "seed {seed}: the statements' own scopes do not add up to \
             the ledger's growth (reads, writes, hits)"
        );

        // Serial replay of the identical schedule on a fresh database,
        // summing each statement's own measured stats.
        let mut db = build_partitioned();
        let (mut reads, mut writes, mut hits) = (0u64, 0u64, 0u64);
        for t in 0..4u64 {
            db.execute(&format!("range of z{t} is t{t}"))
                .expect("range");
            for stmt in read_schedule(seed, t) {
                let out = db.execute(&stmt).expect("read");
                reads += out.stats.input_pages;
                writes += out.stats.output_pages;
                hits += out.stats.buffer_hits;
            }
        }
        assert!(
            reads + hits > 0,
            "seed {seed}: the schedule must actually touch pages"
        );
        assert_eq!(
            concurrent,
            (reads, writes, hits, reads + hits),
            "seed {seed}: concurrent counter deltas diverge from the \
             serial replay (reads, writes, hits, accesses)"
        );
    }
}

/// Who runs beside the reader of [`reader_costs`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Neighbours {
    None,
    Writer,
    WriterAndReorg,
}

/// Ids `1..=ISOLATION_IDS` in each relation of [`reader_costs`]: several
/// pages, so two frames both hit and evict.
const ISOLATION_IDS: i64 = 320;

/// Run one fixed seeded schedule of keyed and scan retrieves against
/// relation `mine` (hashed, two frames, warm) and return every
/// statement's `(input, output, hits, evictions)`. The neighbours only
/// ever touch relation `theirs`, so `mine`'s page layout and buffer
/// pool are the reader's alone. They start before the reader's first
/// statement (the channel) and stop after its last (the flag).
fn reader_costs(neighbours: Neighbours) -> Vec<(u64, u64, u64, u64)> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let mut db = Database::in_memory();
    db.set_cold_statements(false);
    for rel in ["mine", "theirs"] {
        db.execute(&format!("create rollback {rel} (id = i4, seq = i4)"))
            .expect("create");
        for id in 1..=ISOLATION_IDS {
            db.execute(&format!("append to {rel} (id = {id}, seq = 0)"))
                .expect("seed");
        }
        db.execute(&format!(
            "modify {rel} to hash on id where fillfactor = 100"
        ))
        .expect("modify");
    }
    db.set_default_buffer_frames(2);
    let engine = Engine::new(db);
    let stop = AtomicBool::new(false);
    let (started, ready) = std::sync::mpsc::channel::<()>();
    let mut costs = Vec::new();
    std::thread::scope(|scope| {
        if neighbours != Neighbours::None {
            let started = started.clone();
            let (engine, stop) = (engine.clone(), &stop);
            scope.spawn(move || {
                let mut s = engine.session();
                s.execute("range of w is theirs").expect("range");
                let mut g = Prng::seed_from_u64(0x3417e4);
                let mut first = Some(started);
                while !stop.load(Ordering::Relaxed) {
                    let key = g.random_range(1i64..=ISOLATION_IDS);
                    s.execute(&format!(
                        "replace w (seq = w.seq + 1) where w.id = {key}"
                    ))
                    .expect("replace");
                    if let Some(tx) = first.take() {
                        tx.send(()).expect("reader is waiting");
                    }
                }
            });
        }
        if neighbours == Neighbours::WriterAndReorg {
            let started = started.clone();
            let (engine, stop) = (engine.clone(), &stop);
            scope.spawn(move || {
                let mut first = Some(started);
                while !stop.load(Ordering::Relaxed) {
                    engine
                        .try_with_write(|db| db.reorganize("theirs"))
                        .expect("engine usable")
                        .expect("reorganize");
                    if let Some(tx) = first.take() {
                        tx.send(()).expect("reader is waiting");
                    }
                }
            });
        }
        drop(started);
        // Every neighbour has committed at least once; from here on
        // they run flat out until the reader is done.
        while ready.recv().is_ok() {}
        let mut s = engine.session();
        s.execute("range of r is mine").expect("range");
        let mut g = Prng::seed_from_u64(0x150_1a7e);
        for _ in 0..300 {
            let stmt = if g.random_range(0u32..4) == 0 {
                "retrieve (r.id, r.seq)".to_string()
            } else {
                format!(
                    "retrieve (r.seq) where r.id = {}",
                    g.random_range(1i64..=ISOLATION_IDS)
                )
            };
            let st = s.execute(&stmt).expect("read").stats;
            costs.push((
                st.input_pages,
                st.output_pages,
                st.buffer_hits,
                st.evictions,
            ));
        }
        stop.store(true, Ordering::Relaxed);
    });
    engine.with_read(|db| assert!(db.io_stats().is_consistent()));
    costs
}

/// The per-statement contract: what a statement reports is what its own
/// thread did, whoever else is running. (With one shared ledger read as
/// before/after deltas, the writer's and the compactor's page traffic
/// landed in the reader's numbers.)
#[test]
fn a_readers_statement_costs_ignore_its_neighbours() {
    let alone = reader_costs(Neighbours::None);
    for (what, seen) in [
        ("miss", alone.iter().any(|c| c.0 > 0)),
        ("hit", alone.iter().any(|c| c.2 > 0)),
        ("evict", alone.iter().any(|c| c.3 > 0)),
    ] {
        assert!(seen, "the schedule must {what}");
    }
    assert!(alone.iter().all(|c| c.1 == 0), "retrieves write nothing");
    for neighbours in [Neighbours::Writer, Neighbours::WriterAndReorg] {
        let beside = reader_costs(neighbours);
        for (i, (a, b)) in alone.iter().zip(&beside).enumerate() {
            assert_eq!(
                a, b,
                "statement {i} cost (input, output, hits, evictions) \
                 {a:?} alone but {b:?} beside {neighbours:?}"
            );
        }
    }
}

/// The pager's counters under concurrency, below the engine: 8 threads
/// × 500 `Pager::read`s over 3 one-frame files, each thread in its own
/// `StatScope`, while every thread also asks a bloom guard for verdicts
/// and charges writes to a pseudo-file — the two kinds of count made
/// outside the pager lock. Every count lands exactly once, in the
/// ledger and in the scope of the thread that made it.
#[test]
fn pager_counters_are_exact_under_concurrent_access() {
    use tdbms_storage::{Bloom, FileId, FileIo, PageKind, Pager};
    const THREADS: usize = 8;
    const READS: u64 = 500;
    let pager = Pager::in_memory();
    let files: Vec<FileId> = (0..3)
        .map(|_| {
            let f = pager.create_file().expect("create");
            for _ in 0..2 {
                pager.append_page(f, PageKind::Data).expect("append");
            }
            f
        })
        .collect();
    pager.flush_all().expect("flush");
    pager.invalidate_buffers().expect("cold");
    pager.set_bloom_guards(true);
    let guard = Bloom::sized_for(64, 7);
    for k in 0u32..32 {
        guard.add(&k.to_le_bytes());
    }
    pager.bloom_install(files[0], guard);
    let pseudo = FileId(u32::MAX);
    let before: Vec<FileIo> =
        files.iter().map(|&f| pager.stats().of(f)).collect();

    // Per thread: its file's scope counts, its maybe-verdicts, and its
    // scope's totals on the guarded file and the pseudo-file.
    let seen: Vec<(usize, FileIo, u64, FileIo, FileIo)> =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (pager, files) = (&pager, &files);
                    s.spawn(move || {
                        let mine = pager.stats().scope();
                        let f = files[t % 3];
                        let mut maybes = 0;
                        for i in 0..READS {
                            pager.read(f, (i % 2) as u32, |_| ()).unwrap();
                            let key =
                                (i as u32 * 7 + t as u32).to_le_bytes();
                            let verdict = pager.bloom_check(files[0], &key);
                            maybes += u64::from(verdict.expect("guarded"));
                            pager.stats().add_writes(pseudo, 2);
                        }
                        let total = mine.total();
                        assert_eq!(total.accesses, READS, "thread {t}");
                        assert!(total.is_consistent(), "thread {t}");
                        let on_guarded = mine.of(files[0]);
                        assert_eq!(
                            on_guarded.bloom_hits + on_guarded.bloom_skips,
                            READS,
                            "thread {t}"
                        );
                        (
                            t % 3,
                            mine.of(f),
                            maybes,
                            on_guarded,
                            mine.of(pseudo),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

    let stats = pager.stats();
    for (i, &f) in files.iter().enumerate() {
        let now = stats.of(f);
        let mut scoped = FileIo::default();
        for (_, io, ..) in seen.iter().filter(|s| s.0 == i) {
            scoped.accesses += io.accesses;
            scoped.hits += io.hits;
            scoped.reads += io.reads;
            scoped.evictions += io.evictions;
        }
        let threads = seen.iter().filter(|s| s.0 == i).count() as u64;
        assert_eq!(now.accesses - before[i].accesses, threads * READS);
        assert_eq!(now.accesses - before[i].accesses, scoped.accesses);
        assert_eq!(now.hits - before[i].hits, scoped.hits);
        assert_eq!(now.reads - before[i].reads, scoped.reads);
        assert_eq!(now.evictions - before[i].evictions, scoped.evictions);
        // One frame, cold at the start: every fetch but the first
        // evicted the frame before it.
        assert_eq!(scoped.evictions, scoped.reads - 1, "file {i}");
    }
    let maybes: u64 = seen.iter().map(|s| s.2).sum();
    let guarded = stats.of(files[0]);
    assert_eq!(guarded.bloom_hits, maybes);
    assert_eq!(guarded.bloom_skips, THREADS as u64 * READS - maybes);
    for (_, _, maybes, on_guarded, on_pseudo) in &seen {
        assert_eq!(on_guarded.bloom_hits, *maybes);
        assert_eq!(on_pseudo.writes, 2 * READS);
    }
    assert_eq!(stats.of(pseudo).writes, 2 * READS * THREADS as u64);
    assert!(stats.is_consistent());
}
