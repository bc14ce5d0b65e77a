//! What one cached keyed retrieve allocates.
//!
//! A counting global allocator wraps the system one. Two 256-row
//! temporal relations, one hashed and one ISAM, sit under 128 frames
//! each; every key is read once through an `Engine` session, so the
//! statement cache holds the shape and its binding and every page is
//! buffered. Then each further keyed retrieve must make at most
//! [`BUDGET`] heap allocations: the statement borrows its bound
//! template, schemas and files (its answer's column names and its
//! conjuncts' variable sets too, fixed at bind time), and allocates
//! only its literals, its row buffers and its answer's rows.
//!
//! The same budget holds for a keyed retrieve right after a commit: a
//! one-row replace republishes the read view, but the binding holds
//! `"now"` as an expression each run evaluates at its own watermark,
//! so it outlives the commit and the read binds nothing.
//!
//! One `#[test]` only, so no other test thread allocates while the
//! counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tdbms::{BufferConfig, Database, Engine, EvictionPolicy, Value};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose implementation meets the trait's contract; counting touches
// only an atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: Layout,
        new_size: usize,
    ) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (reallocations included) one warm cached keyed
/// retrieve may make.
const BUDGET: u64 = 14;
const KEYS: i64 = 256;
const FRAMES: usize = 128;

fn read(var: &str, id: i64) -> String {
    format!(
        "retrieve ({var}.id, {var}.amount, {var}.seq) \
         where {var}.id = {id} when {var} overlap \"now\""
    )
}

#[test]
fn a_cached_keyed_retrieve_stays_within_its_allocation_budget() {
    let mut db = Database::in_memory_with_buffers(BufferConfig::uniform(
        FRAMES,
        EvictionPolicy::Lru,
    ));
    db.set_cold_statements(false);
    for (rel, method) in [("rh", "hash"), ("ri", "isam")] {
        db.execute(&format!(
            "create temporal interval {rel} \
             (id = i4, amount = i4, seq = i4, string = c96)"
        ))
        .unwrap();
        for id in 1..=KEYS {
            db.execute(&format!(
                "append to {rel} (id = {id}, amount = {}, seq = 0, \
                 string = \"row {id}\")",
                id * 7
            ))
            .unwrap();
        }
        db.execute(&format!(
            "modify {rel} to {method} on id where fillfactor = 100"
        ))
        .unwrap();
    }
    let engine = Engine::new(db);
    let mut session = engine.session();
    session.execute("range of h is rh").unwrap();
    session.execute("range of i is ri").unwrap();
    for var in ["h", "i"] {
        for id in 1..=KEYS {
            session.execute(&read(var, id)).unwrap();
        }
    }

    let mut measured = Vec::new();
    for (var, method) in [("h", "hash"), ("i", "isam")] {
        // The texts are built before counting: what is measured is the
        // engine's work on a statement, not the harness's formatting.
        let texts: Vec<(i64, String)> = (1..=KEYS)
            .step_by(5)
            .map(|id| (id, read(var, id)))
            .collect();
        let (hits0, _) = engine.plan_cache_stats();
        let before = ALLOCS.load(Ordering::Relaxed);
        for (id, text) in &texts {
            let out = session.execute(text).unwrap();
            assert_eq!(out.rows().len(), 1, "{method} key {id}");
            assert_eq!(out.rows()[0][1], Value::Int(id * 7));
        }
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let (hits1, _) = engine.plan_cache_stats();
        assert_eq!(hits1 - hits0, texts.len() as u64, "{method}: all hits");
        let label = method.to_string();
        measured.push((label, allocs as f64 / texts.len() as f64));
    }
    // A commit before each read: a one-row replace of key 1, then a
    // keyed retrieve of another key, of which only the retrieve is
    // counted.
    for (var, method) in [("h", "hash"), ("i", "isam")] {
        let replace = format!(
            "replace {var} (seq = {var}.seq + 1) where {var}.id = 1"
        );
        let texts: Vec<(i64, String)> = (2..=KEYS)
            .step_by(5)
            .map(|id| (id, read(var, id)))
            .collect();
        let (mut hits, mut allocs) = (0, 0);
        for (id, text) in &texts {
            assert_eq!(session.execute(&replace).unwrap().affected, 1);
            let (hits0, _) = engine.plan_cache_stats();
            let before = ALLOCS.load(Ordering::Relaxed);
            let out = session.execute(text).unwrap();
            allocs += ALLOCS.load(Ordering::Relaxed) - before;
            hits += engine.plan_cache_stats().0 - hits0;
            assert_eq!(out.rows().len(), 1, "{method} key {id}");
            assert_eq!(out.rows()[0][1], Value::Int(id * 7));
        }
        assert_eq!(hits, texts.len() as u64, "{method}: all hits");
        let label = format!("{method} after a commit");
        measured.push((label, allocs as f64 / texts.len() as f64));
    }
    for (method, per_statement) in measured {
        assert!(
            per_statement <= BUDGET as f64,
            "{method}: {per_statement:.2} allocations per cached keyed \
             retrieve, budget {BUDGET}"
        );
    }
}
