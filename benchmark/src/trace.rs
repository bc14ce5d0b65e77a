//! Outside-in spans.
//!
//! The harness records a span at every boundary it can reach without
//! touching the program: around each statement (`stmt`, the root),
//! around `parse_statement` and `execute_statement`, around
//! `Client::query`, around `reorganize_all`, and — from the
//! [`crate::sim`] device decorators — around every disk and log call
//! the program makes. Spans live in memory (one `Vec` per harness
//! thread, one per device) and are written out when the run ends.
//!
//! A device call is attributed to "the statement current on that
//! thread": harness threads publish their current statement in a
//! thread-local, which the decorator reads. A call made on a thread the
//! harness does not own (a server connection thread) has no parent.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded interval. `parent == 0` means "root" (or, for a device
/// span, "issued on a thread with no current statement").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Index of the statement (per harness thread) the span belongs to;
    /// `u32::MAX` for spans outside any statement.
    pub stmt: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Harness thread number (1-based); 0 for a foreign thread.
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub const NO_STMT: u32 = u32::MAX;

/// Span ids are `source << 40 | n`: harness thread `t` is source `t`,
/// the devices and the derived spans have sources of their own. Every
/// id stays below 2^53, the largest integer the trace file's JSON
/// numbers (f64) hold exactly — an id that rounds is a span tree that
/// cannot be rebuilt from the file.
pub const fn span_id(source: u64, n: u64) -> u64 {
    assert!(source < 1 << 13 && n < 1 << 40);
    (source << 40) | n
}

pub const DISK_SOURCE: u64 = (1 << 13) - 3;
pub const LOG_SOURCE: u64 = (1 << 13) - 2;
const DERIVED_SOURCE: u64 = (1 << 13) - 1;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// `(thread, stmt, innermost open span id)` of the calling thread.
    static CURRENT: Cell<(u32, u32, u64)> =
        const { Cell::new((0, NO_STMT, 0)) };
}

/// What a device decorator needs to attribute a call.
pub fn current() -> (u32, u32, u64) {
    CURRENT.with(Cell::get)
}

/// Span recorder owned by one harness thread.
pub struct ThreadTracer {
    thread: u32,
    next: u64,
    stmt: u32,
    /// Open spans, innermost last: `(id, name, start_ns)`.
    open: Vec<(u64, &'static str, u64)>,
    pub spans: Vec<Span>,
}

impl ThreadTracer {
    /// `thread` is 1-based and is the source of the tracer's span ids.
    pub fn new(thread: u32) -> Self {
        CURRENT.with(|c| c.set((thread, NO_STMT, 0)));
        ThreadTracer {
            thread,
            next: 0,
            stmt: NO_STMT,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn publish(&self) {
        let parent = self.open.last().map_or(0, |o| o.0);
        CURRENT.with(|c| c.set((self.thread, self.stmt, parent)));
    }

    /// Open the root span of statement number `stmt`.
    pub fn begin_stmt(&mut self, stmt: u32) {
        self.stmt = stmt;
        self.begin("stmt");
    }

    pub fn end_stmt(&mut self) {
        self.end();
        self.stmt = NO_STMT;
        self.publish();
    }

    pub fn begin(&mut self, name: &'static str) {
        self.next += 1;
        let id = span_id(u64::from(self.thread), self.next);
        self.open.push((id, name, now_ns()));
        self.publish();
    }

    pub fn end(&mut self) {
        let end_ns = now_ns();
        let (id, name, start_ns) =
            self.open.pop().expect("end() without begin()");
        self.spans.push(Span {
            id,
            parent: self.open.last().map_or(0, |o| o.0),
            stmt: self.stmt,
            name,
            start_ns,
            end_ns,
            thread: self.thread,
        });
        self.publish();
    }

    /// Id of the innermost open span (0 if none).
    #[cfg(test)]
    pub fn open_id(&self) -> u64 {
        self.open.last().map_or(0, |o| o.0)
    }
}

impl Drop for ThreadTracer {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set((0, NO_STMT, 0)));
    }
}

/// Per-span self time: duration minus the part of the span's interval
/// that its children cover (children may nest, abut or overlap each
/// other; the union is what counts). Returns `(span index, self_ns)`
/// in input order. A child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let index: HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of self times by span name, plus the total duration of the root
/// spans of harness threads (statements and inline maintenance; a
/// device span issued on a foreign thread is not a root of the run).
pub struct SelfSummary {
    pub by_name: Vec<(&'static str, u64, u64)>, // (name, self_ns, count)
    pub root_ns: u64,
}

pub fn summarize(spans: &[Span]) -> SelfSummary {
    use std::collections::{BTreeMap, HashSet};
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let selfs = self_times(spans);
    let mut by: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut root_ns = 0;
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by.entry(s.name).or_default();
        e.0 += self_ns;
        e.1 += 1;
        let root = s.parent == 0 || !ids.contains(&s.parent);
        if root && s.thread != 0 {
            root_ns += s.dur_ns();
        }
    }
    SelfSummary {
        by_name: by.into_iter().map(|(n, (s, c))| (n, s, c)).collect(),
        root_ns,
    }
}

impl SelfSummary {
    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, s, _)| *s)
            .sum()
    }
}

/// Add the spans that only the *order* of device calls reveals.
///
/// A durable write's `core.execute` appends its records to the log and
/// then waits for them to be durable; from outside, the wait is the gap
/// between the statement's last `wal.log.append` and the return of
/// `execute_statement`. That gap becomes a `wal.commit_wait` child span
/// (derived, not timed directly): it holds the group-commit linger, a
/// follower's wait for its leader, and — when this statement's thread
/// was the leader — the `wal.log.sync` itself, which is re-parented
/// under it. A sync is therefore charged to the leader's statement,
/// not to every statement it made durable. When the statement also
/// truncated the log, the stretch from the last append to the end of
/// `wal.log.reset` becomes a `wal.checkpoint` span holding the data
/// writes and syncs, and the wait starts after it.
pub fn derive_commit_spans(spans: &mut Vec<Span>) {
    use std::collections::HashMap;
    let mut kids: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 && s.thread != 0 {
            kids.entry(s.parent).or_default().push(i);
        }
    }
    let mut next = 0u64;
    let mut derived = Vec::new();
    for e in 0..spans.len() {
        if spans[e].name != "core.execute" {
            continue;
        }
        let Some(children) = kids.get(&spans[e].id) else {
            continue;
        };
        let last_end = |spans: &[Span], name: &str, after: u64| {
            children
                .iter()
                .map(|&c| &spans[c])
                .filter(|c| c.name == name && c.end_ns > after)
                .map(|c| c.end_ns)
                .max()
        };
        let Some(appended) = last_end(spans, "wal.log.append", 0) else {
            continue;
        };
        let exec = spans[e].clone();
        let mut synth = |name, start_ns, end_ns, spans: &mut Vec<Span>| {
            next += 1;
            let id = span_id(DERIVED_SOURCE, next);
            for &c in children {
                let c = &mut spans[c];
                if c.start_ns >= start_ns && c.end_ns <= end_ns {
                    c.parent = id;
                }
            }
            derived.push(Span {
                id,
                parent: exec.id,
                stmt: exec.stmt,
                name,
                start_ns,
                end_ns,
                thread: exec.thread,
            });
        };
        let mut wait_from = appended;
        if let Some(reset) = last_end(spans, "wal.log.reset", appended) {
            synth("wal.checkpoint", appended, reset, spans);
            wait_from = reset;
        }
        if exec.end_ns > wait_from {
            synth("wal.commit_wait", wait_from, exec.end_ns, spans);
        }
    }
    spans.append(&mut derived);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            stmt: 0,
            name: "t",
            start_ns: a,
            end_ns: b,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60; grandchild 20..30 (inside child).
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 2, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 10..50 and 30..70 overlap by 20: union is 60.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 70),
            span(4, 1, 70, 80), // abuts the union
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        // A leader's sync that outlives the statement that caused it.
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 90, 150)];
        assert_eq!(self_times(&spans), vec![90, 60]);
    }

    #[test]
    fn orphans_are_roots_and_self_sums_to_root_time() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(9, 77, 200, 230), // parent not recorded
        ];
        let s = summarize(&spans);
        assert_eq!(s.root_ns, 130);
        let total: u64 = s.by_name.iter().map(|(_, s, _)| *s).sum();
        assert_eq!(total, 130);
    }

    #[test]
    fn tracer_nests_and_publishes_current() {
        let mut t = ThreadTracer::new(3);
        t.begin_stmt(7);
        let root = t.open_id();
        assert_eq!(current(), (3, 7, root));
        t.begin("core.execute");
        assert_ne!(current().2, root);
        t.end();
        t.end_stmt();
        assert_eq!(current(), (3, NO_STMT, 0));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "core.execute");
        assert_eq!(t.spans[0].parent, root);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].stmt, 7);
    }
    #[test]
    fn commit_wait_is_the_gap_after_the_last_append() {
        let named = |id, parent, name, a, b| Span {
            name,
            ..span(id, parent, a, b)
        };
        let mut spans = vec![
            named(1, 0, "stmt", 0, 1000),
            named(2, 1, "core.execute", 100, 1000),
            named(3, 2, "wal.log.append", 150, 160),
            named(4, 2, "wal.log.append", 170, 200),
            // checkpoint work, then the truncation
            named(5, 2, "storage.disk.write", 210, 230),
            named(6, 2, "storage.disk.sync", 230, 400),
            named(7, 2, "wal.log.reset", 400, 500),
            // this thread led the batch: its sync sits inside the wait
            named(8, 2, "wal.log.sync", 700, 900),
            // a read-only statement gets nothing derived
            named(9, 0, "stmt", 2000, 2100),
            named(10, 9, "core.execute", 2010, 2100),
            named(11, 10, "storage.disk.read", 2020, 2030),
        ];
        derive_commit_spans(&mut spans);
        let find = |name: &str| -> Vec<&Span> {
            spans.iter().filter(|s| s.name == name).collect()
        };
        let ckpt = find("wal.checkpoint");
        assert_eq!(ckpt.len(), 1);
        assert_eq!((ckpt[0].start_ns, ckpt[0].end_ns), (200, 500));
        let wait = find("wal.commit_wait");
        assert_eq!(wait.len(), 1);
        assert_eq!((wait[0].start_ns, wait[0].end_ns), (500, 1000));
        assert_eq!(wait[0].parent, 2);
        // Device work moved under the span that explains it.
        assert_eq!(find("storage.disk.sync")[0].parent, ckpt[0].id);
        assert_eq!(find("wal.log.reset")[0].parent, ckpt[0].id);
        assert_eq!(find("wal.log.sync")[0].parent, wait[0].id);
        assert_eq!(find("wal.log.append")[1].parent, 2);
        assert_eq!(find("storage.disk.read")[0].parent, 10);
        // Self times still add up to the root durations.
        let s = summarize(&spans);
        assert_eq!(s.root_ns, 1100);
        assert_eq!(s.by_name.iter().map(|n| n.1).sum::<u64>(), 1100);
        assert_eq!(s.self_ns("wal.commit_wait"), 500 - 200);
        assert_eq!(s.self_ns("core.execute"), (50 + 10) + (90 - 10));
        assert_eq!(s.self_ns("wal.checkpoint"), 10);
    }
}
