//! Page-access accounting: one ledger that only counts up.
//!
//! The paper's benchmark "focused solely on the number of disk accesses per
//! query at a granularity of a page", counting only accesses to *user*
//! relations. [`IoStats`] is that ledger for one [`crate::Pager`]: per
//! file, the pages fetched from disk (buffer misses), pages written back,
//! buffer hits, capacity evictions, buffered accesses, read retries and
//! bloom-guard verdicts.
//!
//! **Monotone.** Counters are relaxed atomics that only ever go up;
//! nothing resets them, and readers on any thread load them without a
//! lock.
//!
//! **One writer per cell.** A file's row holds two sets of cells. The
//! *owned* cells — accesses, hits, reads, writes, evictions, retries —
//! are bumped only through the row's one [`FileLedger`], whose bumps
//! take `&mut self`. The pager keeps that handle in the file's buffer
//! pool, which lives behind the pager's write guard, so the type system
//! admits one writer at a time and a bump is a relaxed load and store,
//! not a locked read-modify-write. The *shared* cells take what is
//! counted outside that lock — bloom verdicts and [`IoStats::add_writes`]
//! (the WAL's and the scrubber's pseudo-files) — with `fetch_add`. No
//! cell is ever written both ways; a file's counters are the sum of the
//! two sets.
//!
//! **A scope prices a unit of work.** "What did this statement cost" is
//! answered by a [`StatScope`], opened on the executing thread with
//! [`IoStats::scope`]. While it is open, every bump *this thread* makes
//! on this ledger is also tallied into the scope — per file, in total,
//! and sliced into named phases ([`IoStats::begin_phase`]) so a query
//! processor can attribute I/O to, say, decomposition vs. tuple
//! substitution. A statement runs on one thread, so its scope is exact
//! under concurrency by construction: a neighbour's I/O, the
//! reorganization daemon's or a group-commit leader's never lands in it.
//! Scopes nest — each counts everything recorded while it is open.
//!
//! **The identity is a cross-check.** Every buffered access is either a
//! hit or a miss (a miss is a disk fetch, i.e. a `read`). `accesses` is
//! bumped at the access site and `hits`/`reads` at the classification
//! sites — none is derived from the others — so `hits + reads ==
//! accesses` fails if an access path forgets a bump. It holds whenever
//! no recorder is mid-access: always for a scope read on its own thread,
//! and at quiescent points for the ledger as a whole.

use crate::disk::{FileId, FileMap};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// What a recorder can bump; indexes a file's counter row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    Reads,
    Writes,
    Hits,
    Evictions,
    Accesses,
    Retries,
    BloomHits,
    BloomSkips,
}

const COUNTERS: usize = 8;

/// One file's live counters (see the module docs).
#[derive(Debug, Default)]
struct Cells {
    /// Written only through the row's [`FileLedger`], by load + store.
    owned: [AtomicU64; COUNTERS],
    /// Written only by `fetch_add`, from any thread.
    shared: [AtomicU64; COUNTERS],
    /// A [`FileLedger`] on this row exists. Its drop releases the
    /// claim and the next writer's claim acquires it, so the next
    /// writer's loads see every store of the last.
    claimed: AtomicBool,
}

/// One file's counters at an instant, indexed by [`Counter`].
type Row = [u64; COUNTERS];

fn load(cells: &Cells) -> Row {
    std::array::from_fn(|i| {
        cells.owned[i].load(Ordering::Relaxed)
            + cells.shared[i].load(Ordering::Relaxed)
    })
}

fn add_row(into: &mut Row, row: &Row) {
    for (a, b) in into.iter_mut().zip(row) {
        *a += b;
    }
}

/// Source of ledger ids and scope tokens.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Per-file page counters, safely shareable across threads.
#[derive(Debug)]
pub struct IoStats {
    /// Tells this ledger's scopes from another pager's on one thread.
    id: u64,
    files: RwLock<Directory>,
}

#[derive(Debug, Default)]
struct Directory {
    live: FileMap<Arc<Cells>>,
    /// What dropped files had counted when [`IoStats::retire`] folded
    /// them in: totals stay monotone, and the directory stays as small
    /// as the set of live files however many temporaries come and go.
    dropped: Row,
}

/// The one writer of a file's owned counters (see the module docs).
/// Not `Clone`, and every bump takes `&mut self`: whoever holds it
/// exclusively is the only thread that can bump, so a bump needs no
/// atomic read-modify-write.
#[derive(Debug)]
pub(crate) struct FileLedger {
    ledger: u64,
    file: FileId,
    cells: Arc<Cells>,
}

impl FileLedger {
    pub(crate) fn record(&mut self, what: Counter) {
        self.add(&[what]);
    }

    /// One buffered access and its classification (`Hits` or `Reads`),
    /// in one visit to this thread's open scopes.
    pub(crate) fn record_access(&mut self, class: Counter) {
        self.add(&[Counter::Accesses, class]);
    }

    /// Add one to each counter in `what`: on the file's row, and in
    /// every scope of this ledger open on this thread. Whatever hands
    /// `&mut self` from thread to thread (the pager's write guard)
    /// orders each bump after the last, so the load sees the previous
    /// store.
    fn add(&mut self, what: &[Counter]) {
        for &c in what {
            let cell = &self.cells.owned[c as usize];
            cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        tally(self.ledger, self.file, what, 1);
    }
}

impl Drop for FileLedger {
    fn drop(&mut self) {
        self.cells.claimed.store(false, Ordering::Release);
    }
}

/// Counters for one file, or summed over several.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileIo {
    /// Pages fetched from disk (buffer misses).
    pub reads: u64,
    /// Pages written back to disk.
    pub writes: u64,
    /// Buffered accesses satisfied without a disk fetch.
    pub hits: u64,
    /// Frames evicted under capacity pressure (explicit flushes and
    /// invalidations are not evictions).
    pub evictions: u64,
    /// Buffered page accesses (every access is either a hit or a miss;
    /// a miss is exactly one `read`).
    pub accesses: u64,
    /// Disk reads retried after a transient failure. Retries are not
    /// extra `reads`: a fetch that succeeds on its second attempt is
    /// still one page read, with one retry on the side.
    pub retries: u64,
    /// Bloom-guard consultations that answered "maybe present" (the
    /// overflow chain was walked as usual).
    pub bloom_hits: u64,
    /// Overflow-chain walks skipped because the guard answered
    /// "definitely absent".
    pub bloom_skips: u64,
}

impl From<Row> for FileIo {
    fn from(row: Row) -> Self {
        let at = |c: Counter| row[c as usize];
        FileIo {
            reads: at(Counter::Reads),
            writes: at(Counter::Writes),
            hits: at(Counter::Hits),
            evictions: at(Counter::Evictions),
            accesses: at(Counter::Accesses),
            retries: at(Counter::Retries),
            bloom_hits: at(Counter::BloomHits),
            bloom_skips: at(Counter::BloomSkips),
        }
    }
}

impl FileIo {
    /// Buffer misses (identical to `reads`; named for the invariant).
    pub fn misses(&self) -> u64 {
        self.reads
    }

    /// The ledger invariant: every access was classified exactly once.
    pub fn is_consistent(&self) -> bool {
        self.hits + self.reads == self.accesses
    }
}

/// The I/O attributed to one named phase of a statement.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PhaseIo {
    /// Phase name (e.g. `"decomposition"`, `"substitution"`).
    pub name: String,
    /// Pages fetched from disk during the phase.
    pub reads: u64,
    /// Pages written back during the phase.
    pub writes: u64,
    /// Buffer hits during the phase.
    pub hits: u64,
    /// Capacity evictions during the phase.
    pub evictions: u64,
}

/// What one open [`StatScope`] has seen so far.
struct Tally {
    token: u64,
    ledger: u64,
    /// Linear: a statement touches a handful of files.
    files: Vec<(FileId, Row)>,
    closed: Vec<PhaseIo>,
    /// The open phase's name and the scope's total when it began.
    open: Option<(String, Row)>,
}

impl Tally {
    fn total(&self) -> Row {
        let mut sum = Row::default();
        for (_, row) in &self.files {
            add_row(&mut sum, row);
        }
        sum
    }

    fn close_phase(&mut self) {
        if let Some((name, base)) = self.open.take() {
            let now = self.total();
            let during = |c: Counter| now[c as usize] - base[c as usize];
            self.closed.push(PhaseIo {
                name,
                reads: during(Counter::Reads),
                writes: during(Counter::Writes),
                hits: during(Counter::Hits),
                evictions: during(Counter::Evictions),
            });
        }
    }
}

thread_local! {
    /// The scopes open on this thread, oldest first.
    static OPEN: RefCell<Vec<Tally>> = const { RefCell::new(Vec::new()) };
}

/// Visit this thread's open scopes of one ledger. A thread whose locals
/// are already being torn down has no scopes left to visit.
fn each_open_scope(ledger: u64, f: impl FnMut(&mut Tally)) {
    let _ = OPEN.try_with(|open| {
        open.borrow_mut()
            .iter_mut()
            .filter(|t| t.ledger == ledger)
            .for_each(f)
    });
}

/// Add `n` to each counter in `what` for `file`, in every scope of
/// `ledger` open on this thread.
fn tally(ledger: u64, file: FileId, what: &[Counter], n: u64) {
    each_open_scope(ledger, |scope| {
        let at = scope
            .files
            .iter()
            .position(|(f, _)| *f == file)
            .unwrap_or_else(|| {
                scope.files.push((file, Row::default()));
                scope.files.len() - 1
            });
        for &c in what {
            scope.files[at].1[c as usize] += n;
        }
    });
}

/// The I/O one thread recorded on one [`IoStats`] while this guard was
/// open (see the module docs). Bound to the thread that opened it.
#[derive(Debug)]
pub struct StatScope {
    token: u64,
    _thread_bound: PhantomData<*const ()>,
}

impl StatScope {
    fn read<R>(&self, f: impl FnOnce(&Tally) -> R) -> R {
        OPEN.with(|open| {
            let open = open.borrow();
            let tally = open
                .iter()
                .find(|t| t.token == self.token)
                .expect("a scope's tally lives until the scope drops");
            f(tally)
        })
    }

    /// This scope's counters for one file (zero if never touched).
    pub fn of(&self, file: FileId) -> FileIo {
        self.read(|t| {
            t.files
                .iter()
                .find(|(f, _)| *f == file)
                .map(|(_, row)| FileIo::from(*row))
                .unwrap_or_default()
        })
    }

    /// This scope's counters summed over every file.
    pub fn total(&self) -> FileIo {
        self.read(|t| t.total().into())
    }

    /// Every phase closed inside this scope, in the order recorded.
    pub fn phases(&self) -> Vec<PhaseIo> {
        self.read(|t| t.closed.clone())
    }
}

impl Drop for StatScope {
    fn drop(&mut self) {
        let _ = OPEN.try_with(|open| {
            open.borrow_mut().retain(|t| t.token != self.token)
        });
    }
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl IoStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        IoStats {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            files: RwLock::default(),
        }
    }

    /// `file`'s row, created on first touch.
    fn cells(&self, file: FileId) -> Arc<Cells> {
        let found = self
            .files
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .live
            .get(&file)
            .cloned();
        found.unwrap_or_else(|| {
            Arc::clone(
                self.files
                    .write()
                    .unwrap_or_else(PoisonError::into_inner)
                    .live
                    .entry(file)
                    .or_default(),
            )
        })
    }

    /// The writer of `file`'s owned counters, creating the row on first
    /// touch. A row has at most one writer at a time: asking for a
    /// second while the first is alive panics.
    pub(crate) fn writer(&self, file: FileId) -> FileLedger {
        let cells = self.cells(file);
        let taken = cells.claimed.swap(true, Ordering::Acquire);
        assert!(!taken, "{file:?} already has a ledger writer");
        FileLedger {
            ledger: self.id,
            file,
            cells,
        }
    }

    /// Add `n` to a shared counter of `file`, from any thread: a
    /// bloom verdict, or [`IoStats::add_writes`].
    pub(crate) fn bump(&self, file: FileId, what: Counter, n: u64) {
        self.cells(file).shared[what as usize]
            .fetch_add(n, Ordering::Relaxed);
        tally(self.id, file, &[what], n);
    }

    /// Charge `n` page writes against `file` from outside the pager. The
    /// WAL uses this to account its log appends (to a pseudo file id) in
    /// the same ledger as data-page I/O, so `QueryStats` phases can show
    /// the durability cost next to the paper's metric.
    pub fn add_writes(&self, file: FileId, n: u64) {
        self.bump(file, Counter::Writes, n);
    }

    /// Forget a dropped file's row, keeping what it counted in the
    /// totals. The caller must exclude concurrent recorders on `file`
    /// (the pager drops files under its state lock): a bump through a
    /// handle that outlives the row would be lost to the totals.
    pub(crate) fn retire(&self, file: FileId) {
        let mut files =
            self.files.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(cells) = files.live.remove(&file) {
            add_row(&mut files.dropped, &load(&cells));
        }
    }

    /// Start tallying what this thread records on this ledger, until the
    /// returned guard drops.
    pub fn scope(&self) -> StatScope {
        let token = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| {
            open.borrow_mut().push(Tally {
                token,
                ledger: self.id,
                files: Vec::new(),
                closed: Vec::new(),
                open: None,
            })
        });
        StatScope {
            token,
            _thread_bound: PhantomData,
        }
    }

    /// Open a named phase in this thread's open scopes. All I/O until
    /// `end_phase` (or the next `begin_phase`, which closes the current
    /// one first) is attributed to it. Phases do not nest — the paper's
    /// decomposition pipeline is a sequence, not a tree.
    pub fn begin_phase(&self, name: &str) {
        each_open_scope(self.id, |scope| {
            scope.close_phase();
            scope.open = Some((name.to_string(), scope.total()));
        });
    }

    /// Close the open phase, if any, recording its I/O.
    pub fn end_phase(&self) {
        each_open_scope(self.id, Tally::close_phase);
    }

    /// Every live file's row, then the dropped files' sum.
    fn rows(&self) -> Vec<Row> {
        let files =
            self.files.read().unwrap_or_else(PoisonError::into_inner);
        let live = files.live.values().map(|cells| load(cells));
        live.chain([files.dropped]).collect()
    }

    /// Lifetime counters for one live file (zero if never touched, or
    /// dropped).
    pub fn of(&self, file: FileId) -> FileIo {
        let files =
            self.files.read().unwrap_or_else(PoisonError::into_inner);
        files
            .live
            .get(&file)
            .map(|cells| load(cells).into())
            .unwrap_or_default()
    }

    /// Lifetime counters summed over every file.
    pub fn total(&self) -> FileIo {
        let mut sum = Row::default();
        for row in self.rows() {
            add_row(&mut sum, &row);
        }
        sum.into()
    }

    /// The ledger invariant over every file: `hits + misses == accesses`.
    /// Meaningful at quiescent points (no recorder mid-access).
    pub fn is_consistent(&self) -> bool {
        self.rows()
            .into_iter()
            .all(|row| FileIo::from(row).is_consistent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(s: &IoStats, file: FileId, hit: bool) {
        s.writer(file).record_access(if hit {
            Counter::Hits
        } else {
            Counter::Reads
        });
    }

    #[test]
    fn counts_per_file_and_in_total() {
        let s = IoStats::new();
        let a = FileId(1);
        let b = FileId(2);
        access(&s, a, false);
        access(&s, a, false);
        s.writer(a).record(Counter::Writes);
        access(&s, b, false);
        assert_eq!(s.of(a).reads, 2);
        assert_eq!(s.of(a).writes, 1);
        assert_eq!(s.of(b).reads, 1);
        assert_eq!(s.of(FileId(99)), FileIo::default());
        assert_eq!(s.total().reads, 3);
        assert_eq!(s.total().writes, 1);
        assert!(s.is_consistent());
        // A dropped file's row goes; what it counted stays in the totals.
        let before = s.total();
        s.retire(a);
        assert_eq!(s.of(a), FileIo::default());
        assert_eq!(s.total(), before);
        assert!(s.is_consistent());
    }

    #[test]
    fn hit_miss_access_identity() {
        let s = IoStats::new();
        let f = FileId(7);
        for _ in 0..5 {
            access(&s, f, true);
        }
        for _ in 0..3 {
            access(&s, f, false);
        }
        s.writer(f).record(Counter::Evictions);
        let io = s.of(f);
        assert_eq!(io.hits, 5);
        assert_eq!(io.misses(), 3);
        assert_eq!(io.accesses, 8);
        assert_eq!(io.evictions, 1);
        assert!(io.is_consistent());
        assert_eq!(s.total(), io);
        // An access that was never classified breaks the identity.
        s.writer(f).record(Counter::Accesses);
        assert!(!s.is_consistent());
    }

    #[test]
    fn a_scope_counts_its_own_thread_and_ledger_only() {
        let s = IoStats::new();
        let other = IoStats::new();
        let f = FileId(1);
        access(&s, f, false);
        let scope = s.scope();
        access(&s, f, true);
        s.add_writes(f, 3);
        s.bump(f, Counter::BloomSkips, 1);
        // Another pager's ledger on this thread, and this ledger on
        // another thread, are somebody else's work.
        access(&other, f, false);
        std::thread::scope(|t| {
            t.spawn(|| access(&s, f, false));
        });
        let io = scope.of(f);
        assert_eq!((io.accesses, io.hits, io.reads), (1, 1, 0));
        assert_eq!((io.writes, io.bloom_skips), (3, 1));
        assert_eq!(scope.total(), io);
        assert!(scope.total().is_consistent());
        assert_eq!(scope.of(FileId(9)), FileIo::default());
        // The ledger itself saw everything, and dropping a scope takes
        // nothing back.
        drop(scope);
        assert_eq!(s.of(f).accesses, 3);
        assert_eq!(s.of(f).reads, 2);
        assert!(s.is_consistent());
    }

    #[test]
    fn scopes_nest() {
        let s = IoStats::new();
        let f = FileId(2);
        let outer = s.scope();
        access(&s, f, false);
        let inner = s.scope();
        access(&s, f, true);
        assert_eq!(inner.total().accesses, 1);
        assert_eq!(outer.total().accesses, 2);
        // Dropped out of order: the survivor keeps counting.
        drop(outer);
        access(&s, f, true);
        assert_eq!(inner.total().hits, 2);
    }

    #[test]
    fn phases_slice_a_scope() {
        let s = IoStats::new();
        let f = FileId(3);
        // No scope open: a phase has nowhere to land.
        s.begin_phase("unscoped");
        s.end_phase();
        let scope = s.scope();
        s.begin_phase("decomposition");
        access(&s, f, false);
        s.writer(f).record(Counter::Writes);
        // begin_phase closes the open phase implicitly.
        s.begin_phase("substitution");
        access(&s, f, true);
        access(&s, f, false);
        s.writer(f).record(Counter::Evictions);
        s.end_phase();
        // end_phase with nothing open is a no-op.
        s.end_phase();
        let io = |p: &PhaseIo| (p.reads, p.writes, p.hits, p.evictions);
        let phases = scope.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "decomposition");
        assert_eq!(io(&phases[0]), (1, 1, 0, 0));
        assert_eq!(phases[1].name, "substitution");
        assert_eq!(io(&phases[1]), (1, 0, 1, 1));
        // A later scope starts with no phases.
        assert!(s.scope().phases().is_empty());
    }

    /// A row has one writer at a time; what it and the shared path
    /// count add up.
    #[test]
    fn one_writer_per_row_and_shared_bumps_add_up() {
        let s = IoStats::new();
        let f = FileId(4);
        let mut w = s.writer(f);
        let second = std::panic::catch_unwind(|| s.writer(f));
        assert!(second.is_err(), "a second writer on a live row");
        w.record(Counter::Writes);
        s.add_writes(f, 2);
        s.bump(f, Counter::BloomHits, 1);
        assert_eq!((s.of(f).writes, s.of(f).bloom_hits), (3, 1));
        // Once the writer is gone, the row can have another.
        drop(w);
        s.writer(f).record(Counter::Writes);
        assert_eq!(s.of(f).writes, 4);
    }
}
