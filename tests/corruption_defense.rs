//! End-to-end corruption defense: the acceptance tests for the
//! checksummed-page / scrubber / salvage / transient-retry stack.
//!
//! Three layers under test, each with its own oracle:
//!
//! * **Corruption repair** (property test): run a random committed
//!   workload with checksums on, flip one random bit of one random byte
//!   in a random on-disk page file, and `check --repair` must either
//!   restore the page byte-for-byte from the write-ahead log or
//!   quarantine it with a precise loss report. A subsequent check is
//!   clean, and every committed row outside the damaged page survives.
//! * **Transient-I/O retry**: with k ≤ budget consecutive transient read
//!   failures the benchmark queries complete with the *correct* answer
//!   and the retries are visible in `IoStats`; with k > budget the
//!   statement surfaces an error — never a wrong answer.
//! * **Golden invariance**: checksumming is out-of-band (a sidecar, not
//!   in-page), so the paper's Figure 5 numbers and the stored rows are
//!   byte-identical with scrubbing on and off.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use tdbms::wal::MemLog;
use tdbms::{CheckpointPolicy, Database, Value};
use tdbms_bench::queries::queries_for;
use tdbms_bench::workload::{all_rows, populate_database, BenchConfig};
use tdbms_check::{CheckedDb, Severity};
use tdbms_kernel::DatabaseClass;
use tdbms_prop::{check, Gen};
use tdbms_storage::{FaultDisk, FaultPlan, MemDisk, DEFAULT_READ_RETRIES};

// ---------------------------------------------------------------------
// Corruption repair property test
// ---------------------------------------------------------------------

const CREATE: &str = "create temporal interval r (id = i4, seq = i4)";

/// A random mutating schedule over `r` (no destroy: the relation under
/// corruption must exist at crash time).
fn gen_ops(g: &mut Gen, n: usize) -> Vec<String> {
    (0..n)
        .map(|_| match g.range(0..10u32) {
            0..=5 => {
                format!("append to r (id = {}, seq = 0)", g.range(1..16i64))
            }
            6 => format!("delete z where z.id = {}", g.range(1..16i64)),
            7 => format!(
                "replace z (seq = z.seq + 1) where z.id = {}",
                g.range(1..16i64)
            ),
            8 => format!(
                "modify r to hash on id where fillfactor = {}",
                *g.pick(&[50u32, 100])
            ),
            _ => format!(
                "modify r to isam on id where fillfactor = {}",
                *g.pick(&[50u32, 100])
            ),
        })
        .collect()
}

/// Every stored row of `r`, as raw encoded bytes, sorted: the precise
/// committed content, independent of clocks and organizations.
fn stored_rows(db: &mut Database) -> Vec<Vec<u8>> {
    let (pager, catalog, _) = db.internals();
    let id = catalog.require("r").unwrap();
    let file = catalog.get(id).file.clone();
    let mut rows = Vec::new();
    let mut cur = file.scan();
    while let Some((_, row)) = cur.next(pager, &file).unwrap() {
        rows.push(row.to_vec());
    }
    rows.sort();
    rows
}

/// Multiset containment: every row of `small` appears in `big` at least
/// as many times.
fn is_submultiset(small: &[Vec<u8>], big: &[Vec<u8>]) -> bool {
    let mut counts: BTreeMap<&[u8], i64> = BTreeMap::new();
    for r in big {
        *counts.entry(r).or_default() += 1;
    }
    for r in small {
        let c = counts.entry(r).or_default();
        *c -= 1;
        if *c < 0 {
            return false;
        }
    }
    true
}

fn page_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.starts_with('f') && n.ends_with(".pages")
            })
        })
        .collect();
    v.sort();
    v
}

#[test]
fn flip_a_bit_anywhere_and_repair_restores_or_reports() {
    let root = tdbms_kernel::tmpdir::fresh_dir("corruption");
    check("corruption_repair", 12, |g| {
        let dir = root.join(format!("case-{}", g.seed()));
        std::fs::create_dir_all(&dir).unwrap();

        // A committed workload with checksums on, under a checkpoint
        // policy that leaves page images in the log (the salvage source).
        let mut db = Database::open_durable(&dir).unwrap();
        db.enable_checksums();
        db.set_checkpoint_policy(match g.range(0..3u8) {
            0 => CheckpointPolicy::Manual,
            1 => CheckpointPolicy::EveryN(2),
            _ => CheckpointPolicy::EveryN(5),
        });
        db.execute(CREATE).unwrap();
        db.execute("range of z is r").unwrap();
        let n1 = g.range(3..8usize);
        for s in gen_ops(g, n1) {
            db.execute(&s).unwrap();
        }
        // Persist the sidecar (and everything else) mid-history …
        db.checkpoint().unwrap();
        // … then more committed work that lives only in the log.
        let n2 = g.range(2..7usize);
        for s in gen_ops(g, n2) {
            db.execute(&s).unwrap();
        }
        let expected = stored_rows(&mut db);
        drop(db); // crash: no final checkpoint, the log keeps its tail

        // Flip one random bit of one random byte of one page file.
        let files = page_files(&dir);
        let target = g.pick(&files).clone();
        let len = std::fs::metadata(&target).unwrap().len() as usize;
        assert!(len > 0, "page files are never empty");
        let mut bytes = std::fs::read(&target).unwrap();
        let at = g.range(0..len);
        bytes[at] ^= 1u8 << g.range(0..8u32);
        std::fs::write(&target, &bytes).unwrap();

        // Repair must succeed, and a subsequent check must be clean.
        let report =
            CheckedDb::open(dir.clone()).unwrap().repair().unwrap();
        let recheck =
            CheckedDb::open(dir.clone()).unwrap().check().unwrap();
        assert!(
            recheck.is_clean(),
            "check after repair must be clean.\nrepair:\n{}\nrecheck:\n{}",
            report.render(),
            recheck.render()
        );

        // Committed rows outside any quarantined page survive; when
        // nothing was reported lost, the database is exactly restored.
        let lost =
            report.findings.iter().any(|f| f.severity == Severity::Lost);
        let mut rdb = Database::open_durable(&dir).unwrap();
        let survivors = stored_rows(&mut rdb);
        if lost {
            assert!(
                is_submultiset(&survivors, &expected),
                "quarantine may only remove rows, never invent or alter \
                 them.\nrepair:\n{}",
                report.render()
            );
        } else {
            assert_eq!(
                survivors,
                expected,
                "with no loss reported the content must be exactly \
                 restored.\nrepair:\n{}",
                report.render()
            );
        }
        drop(rdb);
        std::fs::remove_dir_all(&dir).unwrap();
    });
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// The checksum sidecar across reopens
// ---------------------------------------------------------------------

const EMP: &str = "create temporal interval emp (name = c16, salary = i4)";
const MERRIE: &str = r#"append to emp (name = "merrie", salary = 20000)"#;
const TOM: &str = r#"append to emp (name = "tom", salary = 18000)"#;

/// Session 1 of both sidecar sequences: a checksummed directory whose
/// checkpoints saved a sidecar covering page 0 with one row on it.
fn checksummed_emp(tag: &str) -> PathBuf {
    let dir = tdbms_kernel::tmpdir::fresh_dir(tag);
    let mut db = Database::open_durable(&dir).unwrap();
    db.enable_checksums();
    db.execute(EMP).unwrap();
    db.execute(MERRIE).unwrap();
    assert!(dir.join(tdbms::SUMS_FILE).exists(), "no sidecar saved");
    dir
}

/// Both acked rows are retrievable, and once `db` is closed the
/// directory audits clean and a repair finds nothing to lose.
fn assert_both_rows_and_clean(mut db: Database, dir: &Path) {
    db.execute("range of e is emp").unwrap();
    let out = db.execute("retrieve (e.name, e.salary)").unwrap();
    let mut rows: Vec<&[Value]> =
        out.rows().iter().map(|r| &r[..2]).collect();
    rows.sort_by_key(|r| format!("{r:?}"));
    assert_eq!(
        rows,
        [
            [Value::Str("merrie".into()), Value::Int(20000)],
            [Value::Str("tom".into()), Value::Int(18000)],
        ]
    );
    drop(db);
    let check = CheckedDb::open(dir).unwrap().check().unwrap();
    assert!(check.is_clean(), "{}", check.render());
    let repair = CheckedDb::open(dir).unwrap().repair().unwrap();
    assert!(repair.is_clean(), "{}", repair.render());
}

/// A clean crash leaves a committed row in the log only; the reopen
/// replays it over page 0. The sidecar must follow that replay, and a
/// directory with a sidecar opens verified without being asked.
#[test]
fn a_replayed_log_tail_keeps_the_sidecar_in_step() {
    let dir = checksummed_emp("sums-replayed-tail");
    {
        let mut db = Database::open_durable(&dir).unwrap();
        db.enable_checksums();
        db.set_checkpoint_policy(CheckpointPolicy::Manual);
        db.execute(TOM).unwrap();
        // Dropped without a checkpoint: the row lives in the log only.
    }
    let db = Database::open_durable(&dir).unwrap();
    assert!(
        db.checksums_enabled(),
        "a directory with a sidecar opens verified"
    );
    assert_both_rows_and_clean(db, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A session that never asks for checksums still checkpoints over a
/// checksummed directory: its page writes must reach the sidecar, or
/// the next verified session reads page 0 as corrupt.
#[test]
fn an_unasked_session_keeps_the_sidecar_in_step() {
    let dir = checksummed_emp("sums-unasked-session");
    {
        let mut db = Database::open_durable(&dir).unwrap();
        assert!(
            db.checksums_enabled(),
            "a directory with a sidecar opens verified"
        );
        db.execute(TOM).unwrap();
    }
    let mut db = Database::open_durable(&dir).unwrap();
    db.enable_checksums();
    assert_both_rows_and_clean(db, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Transient-I/O retry
// ---------------------------------------------------------------------

/// A durable in-memory database over a fault-injecting disk with the
/// given transient-read schedule.
fn faulted_db(schedule: impl IntoIterator<Item = u64>) -> Database {
    let mut fault =
        FaultDisk::new(Box::new(MemDisk::new()), FaultPlan::new(None));
    fault.set_transient_reads(schedule);
    Database::open_durable_on(
        Box::new(fault),
        Box::new(MemLog::new()),
        None,
    )
    .expect("open over fault disk")
}

fn sorted_debug_rows(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> =
        rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// k ≤ budget: pairs of consecutive failing read ops are sprinkled over
/// the whole run (a fetch only ever *enters* a failure run at its first
/// ordinal, so each pair costs exactly two retries and then succeeds).
/// All twelve benchmark queries must return exactly the answers of an
/// unfaulted database, with the retries visible in `IoStats`.
#[test]
fn transient_failures_within_budget_answer_all_queries_correctly() {
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let mut baseline = Database::in_memory();
    populate_database(&mut baseline, &cfg);

    let pairs = (1u64..2_000_000).step_by(199).flat_map(|n| [n, n + 1]);
    let mut db = faulted_db(pairs);
    assert_eq!(DEFAULT_READ_RETRIES, 2, "the schedule assumes two");
    populate_database(&mut db, &cfg);

    for q in queries_for(cfg.class) {
        let want = baseline
            .execute(&q.tquel)
            .unwrap_or_else(|e| panic!("{} on baseline: {e}", q.id));
        let got = db.execute(&q.tquel).unwrap_or_else(|e| {
            panic!("{} must survive in-budget transient faults: {e}", q.id)
        });
        assert_eq!(
            sorted_debug_rows(got.rows()),
            sorted_debug_rows(want.rows()),
            "{}: a retried read must never change an answer",
            q.id
        );
    }
    assert!(
        db.io_stats().total().retries > 0,
        "the schedule must actually have fired, and retries must be \
         visible in IoStats"
    );
}

/// k > budget: an isolated run of three consecutive failing read ops
/// defeats a retry budget of two. The statement that hits it surfaces an
/// error; once the fault clears, the same query returns the correct
/// answer — at no point a wrong one.
#[test]
fn transient_failures_beyond_budget_surface_an_error_never_a_wrong_answer()
{
    let runs = (200u64..=5_000)
        .step_by(100)
        .flat_map(|n| [n, n + 1, n + 2]);
    let mut db = faulted_db(runs);
    assert_eq!(DEFAULT_READ_RETRIES, 2, "the schedule assumes two");
    db.execute("create static interval r (id = i4, seq = i4)")
        .unwrap();
    db.execute("range of z is r").unwrap();
    for id in 1..=60 {
        db.execute(&format!("append to r (id = {id}, seq = {id})"))
            .unwrap();
    }
    let expected: Vec<(i64, i64)> = (1..=60).map(|i| (i, i)).collect();
    let rows_of = |out: &tdbms::ExecOutput| -> Vec<(i64, i64)> {
        let mut v: Vec<(i64, i64)> = out
            .rows()
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Int(a), Value::Int(b)) => (*a, *b),
                other => panic!("unexpected row {other:?}"),
            })
            .collect();
        v.sort_unstable();
        v
    };

    let mut saw_error = false;
    for _ in 0..400 {
        db.internals().0.invalidate_buffers().unwrap();
        match db.execute("retrieve (z.id, z.seq)") {
            Ok(out) => assert_eq!(
                rows_of(&out),
                expected,
                "an answer returned under faults must be correct"
            ),
            Err(_) => {
                saw_error = true;
                break;
            }
        }
    }
    assert!(
        saw_error,
        "a three-failure run must exhaust the budget of two and surface"
    );
    assert!(db.io_stats().total().retries >= 2, "budget visibly spent");

    // The media has recovered (each scheduled op fails exactly once);
    // the query must come back with the full correct answer.
    let mut recovered = None;
    for _ in 0..400 {
        db.internals().0.invalidate_buffers().unwrap();
        if let Ok(out) = db.execute("retrieve (z.id, z.seq)") {
            recovered = Some(rows_of(&out));
            break;
        }
    }
    assert_eq!(
        recovered.as_deref(),
        Some(expected.as_slice()),
        "after the transient period the answer is complete and correct"
    );
}

// ---------------------------------------------------------------------
// Golden invariance: checksums are invisible to the paper's numbers
// ---------------------------------------------------------------------

/// The sidecar is out-of-band: with checksumming on, the Figure 5 page
/// counts and the stored rows of the seed database are byte-identical to
/// a plain build. (CI additionally smoke-runs the fig5 binary under
/// `TDBMS_CHECKSUMS=1` and diffs the full figure output.)
#[test]
fn fig5_goldens_are_byte_identical_with_checksums_on() {
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let mut plain = Database::in_memory();
    populate_database(&mut plain, &cfg);
    let mut scrubbed = Database::in_memory();
    scrubbed.enable_checksums();
    populate_database(&mut scrubbed, &cfg);
    assert!(scrubbed.checksums_enabled());

    for rel in [cfg.rel_h(), cfg.rel_i()] {
        let p = plain.relation_meta(&rel).unwrap();
        let s = scrubbed.relation_meta(&rel).unwrap();
        assert_eq!(p.total_pages, s.total_pages, "{rel}: page count");
        assert_eq!(p.tuple_count, s.tuple_count, "{rel}: tuple count");
        assert_eq!(
            all_rows(&mut plain, &rel),
            all_rows(&mut scrubbed, &rel),
            "{rel}: stored rows must be byte-identical"
        );
    }
    // The seed goldens themselves (Figure 5, update count 0).
    let h = scrubbed.relation_meta(&cfg.rel_h()).unwrap();
    let i = scrubbed.relation_meta(&cfg.rel_i()).unwrap();
    assert_eq!(h.total_pages, 128);
    assert_eq!(i.total_pages, 129);
    assert_eq!(h.tuple_count, 1024);
}
