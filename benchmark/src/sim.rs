//! `SimDisk` and `SimLog`: the benchmark's own storage devices.
//!
//! Both are in-memory, counting (and, when tracing, timing) decorators
//! the program is opened on, so every page and log call the program
//! makes is observed at the device boundary, independent of the
//! program's own `IoStats`.
//!
//! **Flush policy** (identical on both sides of any comparison): a
//! `sync` costs a fixed [`SYNC_COST`] of busy-waiting and nothing else
//! does. Writes land in a *live* image; only `sync` copies them to the
//! *durable* image. [`SimDisk::crash`] / [`SimLog::crash`] throw the
//! live image away and continue from the durable one — killing a
//! process leaves the OS cache intact, so the benchmark itself discards
//! what was never flushed. The numbers therefore say how many syncs sit
//! on the critical path, not how fast the sandbox's disk is.
//!
//! This file knows nothing about the program's types; the
//! `DiskManager` / `LogStore` trait impls that adapt it live in
//! [`crate::sut`].

use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub const PAGE: usize = 1024;
pub type PageBuf = [u8; PAGE];

/// What one `sync` costs on either device.
pub const SYNC_COST: Duration = Duration::from_micros(200);

fn pay(cost: Duration) {
    if cost.is_zero() {
        return;
    }
    // Busy-wait: `sleep` overshoots by the timer slack, which would
    // make the "fixed" cost the noisiest term of every commit.
    let t0 = Instant::now();
    while t0.elapsed() < cost {
        std::hint::spin_loop();
    }
}

/// Calls observed at the disk boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    pub reads: u64,
    pub writes: u64,
    pub appends: u64,
    pub syncs: u64,
    pub creates: u64,
    pub drops: u64,
    pub truncates: u64,
}

impl DiskCounts {
    pub fn since(&self, before: &DiskCounts) -> DiskCounts {
        DiskCounts {
            reads: self.reads - before.reads,
            writes: self.writes - before.writes,
            appends: self.appends - before.appends,
            syncs: self.syncs - before.syncs,
            creates: self.creates - before.creates,
            drops: self.drops - before.drops,
            truncates: self.truncates - before.truncates,
        }
    }

    /// `write_page` + `append_page` calls: the paper's output cost.
    pub fn pages_written(&self) -> u64 {
        self.writes + self.appends
    }
}

/// A device's span buffer: off until tracing starts.
struct Recorder {
    spans: Option<Vec<Span>>,
    /// The device's id source (see [`trace::span_id`]).
    source: u64,
    next: u64,
}

impl Recorder {
    fn new(source: u64) -> Self {
        Recorder {
            spans: None,
            source,
            next: 0,
        }
    }

    /// Run `op` on `state`; when tracing, time it as one span named
    /// `name`, attributed to the calling thread's current statement.
    fn call<S, R>(
        state: &mut S,
        rec: fn(&mut S) -> &mut Recorder,
        name: &'static str,
        op: impl FnOnce(&mut S) -> R,
    ) -> R {
        if rec(state).spans.is_none() {
            return op(state);
        }
        let start_ns = trace::now_ns();
        let r = op(state);
        let end_ns = trace::now_ns();
        let (thread, stmt, parent) = trace::current();
        let rec = rec(state);
        rec.next += 1;
        let id = trace::span_id(rec.source, rec.next);
        if let Some(spans) = rec.spans.as_mut() {
            spans.push(Span {
                id,
                parent,
                stmt,
                name,
                start_ns,
                end_ns,
                thread,
            });
        }
        r
    }
}

#[derive(Default)]
struct SimFile {
    live: Vec<PageBuf>,
    /// `dirty[p]`: live page `p` differs from the durable image.
    dirty: Vec<bool>,
    durable: Vec<PageBuf>,
    /// Truncated since the last sync (the durable pages are stale).
    truncated: bool,
}

struct DiskState {
    files: BTreeMap<u32, SimFile>,
    next_id: u32,
    counts: DiskCounts,
    sync_cost: Duration,
    rec: Recorder,
}

/// Errors the simulated devices can report (the adapter maps them onto
/// the program's error type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    NoSuchFile(u32),
    NoSuchPage(u32),
}

/// Cloneable handle on one simulated disk; clones share the device, so
/// the harness keeps one while the program owns another.
#[derive(Clone)]
pub struct SimDisk {
    state: Arc<Mutex<DiskState>>,
}

impl SimDisk {
    pub fn new() -> Self {
        Self::with_sync_cost(SYNC_COST)
    }

    pub fn with_sync_cost(sync_cost: Duration) -> Self {
        SimDisk {
            state: Arc::new(Mutex::new(DiskState {
                files: BTreeMap::new(),
                next_id: 0,
                counts: DiskCounts::default(),
                sync_cost,
                rec: Recorder::new(trace::DISK_SOURCE),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Start recording one span per call. The
    /// buffer starts large: a sweep makes millions of calls, and
    /// regrowing it mid-run is what the traced pass would then measure.
    pub fn start_tracing(&self) {
        self.lock().rec.spans = Some(Vec::with_capacity(1 << 20));
    }

    /// Stop recording and hand back what was recorded.
    pub fn take_spans(&self) -> Vec<Span> {
        self.lock().rec.spans.take().unwrap_or_default()
    }

    pub fn counts(&self) -> DiskCounts {
        self.lock().counts
    }

    /// Bytes the data files occupy (live image).
    pub fn data_bytes(&self) -> u64 {
        let st = self.lock();
        st.files
            .values()
            .map(|f| (f.live.len() * PAGE) as u64)
            .sum()
    }

    /// Simulate power loss: every file falls back to its last synced
    /// image. Files themselves (creation, deletion) are metadata and
    /// survive as they are.
    pub fn crash(&self) {
        let mut st = self.lock();
        for f in st.files.values_mut() {
            f.live = f.durable.clone();
            f.dirty = vec![false; f.live.len()];
            f.truncated = false;
        }
    }

    /// Run `op` under the device lock (one span when tracing).
    fn call<R>(
        &self,
        name: &'static str,
        op: impl FnOnce(&mut DiskState) -> R,
    ) -> R {
        Recorder::call(&mut *self.lock(), |st| &mut st.rec, name, op)
    }

    pub fn create_file(&self) -> u32 {
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.files.insert(id, SimFile::default());
        st.counts.creates += 1;
        id
    }

    pub fn drop_file(&self, file: u32) -> Result<(), SimError> {
        let mut st = self.lock();
        st.counts.drops += 1;
        st.files
            .remove(&file)
            .map(|_| ())
            .ok_or(SimError::NoSuchFile(file))
    }

    pub fn page_count(&self, file: u32) -> Result<u32, SimError> {
        let st = self.lock();
        st.files
            .get(&file)
            .map(|f| f.live.len() as u32)
            .ok_or(SimError::NoSuchFile(file))
    }

    pub fn read_page(
        &self,
        file: u32,
        page_no: u32,
    ) -> Result<Box<PageBuf>, SimError> {
        self.call("storage.disk.read", |st| {
            st.counts.reads += 1;
            let f =
                st.files.get(&file).ok_or(SimError::NoSuchFile(file))?;
            f.live
                .get(page_no as usize)
                .map(|p| Box::new(*p))
                .ok_or(SimError::NoSuchPage(page_no))
        })
    }

    pub fn write_page(
        &self,
        file: u32,
        page_no: u32,
        page: &PageBuf,
    ) -> Result<(), SimError> {
        self.call("storage.disk.write", |st| {
            st.counts.writes += 1;
            let f = st
                .files
                .get_mut(&file)
                .ok_or(SimError::NoSuchFile(file))?;
            let slot = f
                .live
                .get_mut(page_no as usize)
                .ok_or(SimError::NoSuchPage(page_no))?;
            *slot = *page;
            f.dirty[page_no as usize] = true;
            Ok(())
        })
    }

    pub fn append_page(
        &self,
        file: u32,
        page: &PageBuf,
    ) -> Result<u32, SimError> {
        self.call("storage.disk.append", |st| {
            st.counts.appends += 1;
            let f = st
                .files
                .get_mut(&file)
                .ok_or(SimError::NoSuchFile(file))?;
            f.live.push(*page);
            f.dirty.push(true);
            Ok(f.live.len() as u32 - 1)
        })
    }

    pub fn truncate(&self, file: u32) -> Result<(), SimError> {
        let mut st = self.lock();
        st.counts.truncates += 1;
        let f =
            st.files.get_mut(&file).ok_or(SimError::NoSuchFile(file))?;
        f.live.clear();
        f.dirty.clear();
        f.truncated = true;
        Ok(())
    }

    pub fn sync(&self, file: u32) -> Result<(), SimError> {
        self.call("storage.disk.sync", |st| {
            st.counts.syncs += 1;
            let cost = st.sync_cost;
            let f = st
                .files
                .get_mut(&file)
                .ok_or(SimError::NoSuchFile(file))?;
            if f.truncated {
                f.durable.clear();
                f.truncated = false;
            }
            for (p, dirty) in f.dirty.iter_mut().enumerate() {
                if !*dirty {
                    continue;
                }
                *dirty = false;
                if p < f.durable.len() {
                    f.durable[p] = f.live[p];
                } else {
                    // Pages past the durable end were appended, hence
                    // all dirty: ascending order keeps this contiguous.
                    f.durable.push(f.live[p]);
                }
            }
            pay(cost);
            Ok(())
        })
    }

    pub fn files(&self) -> Vec<u32> {
        self.lock().files.keys().copied().collect()
    }
}

impl Default for SimDisk {
    fn default() -> Self {
        Self::new()
    }
}

/// Calls observed at the log boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounts {
    pub appends: u64,
    pub bytes_appended: u64,
    pub syncs: u64,
    pub resets: u64,
}

impl LogCounts {
    pub fn since(&self, before: &LogCounts) -> LogCounts {
        LogCounts {
            appends: self.appends - before.appends,
            bytes_appended: self.bytes_appended - before.bytes_appended,
            syncs: self.syncs - before.syncs,
            resets: self.resets - before.resets,
        }
    }
}

struct LogState {
    bytes: Vec<u8>,
    /// Prefix of `bytes` covered by a sync (or installed by a reset).
    durable_len: usize,
    counts: LogCounts,
    sync_cost: Duration,
    rec: Recorder,
}

/// Cloneable handle on one simulated log device.
#[derive(Clone)]
pub struct SimLog {
    state: Arc<Mutex<LogState>>,
}

impl SimLog {
    pub fn new() -> Self {
        Self::with_sync_cost(SYNC_COST)
    }

    pub fn with_sync_cost(sync_cost: Duration) -> Self {
        SimLog {
            state: Arc::new(Mutex::new(LogState {
                bytes: Vec::new(),
                durable_len: 0,
                counts: LogCounts::default(),
                sync_cost,
                rec: Recorder::new(trace::LOG_SOURCE),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn start_tracing(&self) {
        self.lock().rec.spans = Some(Vec::with_capacity(1 << 16));
    }

    pub fn take_spans(&self) -> Vec<Span> {
        self.lock().rec.spans.take().unwrap_or_default()
    }

    pub fn counts(&self) -> LogCounts {
        self.lock().counts
    }

    /// Bytes currently in the log (live image).
    pub fn size(&self) -> usize {
        self.lock().bytes.len()
    }

    /// Simulate power loss: appended bytes no sync covered are gone.
    pub fn crash(&self) {
        let mut st = self.lock();
        let keep = st.durable_len;
        st.bytes.truncate(keep);
    }

    fn call<R>(
        &self,
        name: &'static str,
        op: impl FnOnce(&mut LogState) -> R,
    ) -> R {
        Recorder::call(&mut *self.lock(), |st| &mut st.rec, name, op)
    }

    pub fn read_all(&self) -> Vec<u8> {
        self.lock().bytes.clone()
    }

    pub fn append(&self, bytes: &[u8]) {
        self.call("wal.log.append", |st| {
            st.counts.appends += 1;
            st.counts.bytes_appended += bytes.len() as u64;
            st.bytes.extend_from_slice(bytes);
        })
    }

    pub fn sync(&self) {
        self.call("wal.log.sync", |st| {
            st.counts.syncs += 1;
            st.durable_len = st.bytes.len();
            pay(st.sync_cost);
        })
    }

    /// Atomic replace (the `LogStore::reset` contract: temp file +
    /// fsync + rename), so the new contents are durable on return and
    /// it costs one sync.
    pub fn reset(&self, bytes: &[u8]) {
        self.call("wal.log.reset", |st| {
            st.counts.resets += 1;
            st.bytes.clear();
            st.bytes.extend_from_slice(bytes);
            st.durable_len = st.bytes.len();
            pay(st.sync_cost);
        })
    }
}

impl Default for SimLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> PageBuf {
        [b; PAGE]
    }

    fn disk() -> SimDisk {
        SimDisk::with_sync_cost(Duration::ZERO)
    }

    #[test]
    fn crash_keeps_exactly_the_synced_pages() {
        let d = disk();
        let f = d.create_file();
        d.append_page(f, &page(1)).unwrap();
        d.append_page(f, &page(2)).unwrap();
        d.sync(f).unwrap();
        // After the sync: overwrite one page, append another.
        d.write_page(f, 0, &page(9)).unwrap();
        d.append_page(f, &page(3)).unwrap();
        assert_eq!(d.page_count(f).unwrap(), 3);
        d.crash();
        assert_eq!(d.page_count(f).unwrap(), 2);
        assert_eq!(*d.read_page(f, 0).unwrap(), page(1));
        assert_eq!(*d.read_page(f, 1).unwrap(), page(2));
        assert_eq!(d.read_page(f, 2), Err(SimError::NoSuchPage(2)));
    }

    #[test]
    fn sync_is_per_file_and_truncate_needs_one_too() {
        let d = disk();
        let a = d.create_file();
        let b = d.create_file();
        d.append_page(a, &page(1)).unwrap();
        d.append_page(b, &page(2)).unwrap();
        d.sync(a).unwrap();
        d.crash();
        assert_eq!(d.page_count(a).unwrap(), 1);
        assert_eq!(d.page_count(b).unwrap(), 0, "b was never synced");

        // An unsynced truncate is undone by the crash…
        d.truncate(a).unwrap();
        d.append_page(a, &page(7)).unwrap();
        d.crash();
        assert_eq!(*d.read_page(a, 0).unwrap(), page(1));
        // …a synced one is not, and the rebuilt contents survive.
        d.truncate(a).unwrap();
        d.append_page(a, &page(7)).unwrap();
        d.sync(a).unwrap();
        d.crash();
        assert_eq!(d.page_count(a).unwrap(), 1);
        assert_eq!(*d.read_page(a, 0).unwrap(), page(7));
    }

    #[test]
    fn disk_counts_equal_calls() {
        let d = disk();
        let f = d.create_file();
        for i in 0..5 {
            d.append_page(f, &page(i)).unwrap();
        }
        for i in 0..3 {
            d.write_page(f, i, &page(0)).unwrap();
        }
        for _ in 0..7 {
            d.read_page(f, 1).unwrap();
        }
        let _ = d.read_page(f, 99); // a failed call is still a call
        d.sync(f).unwrap();
        d.sync(f).unwrap();
        let c = d.counts();
        assert_eq!(
            (c.creates, c.appends, c.writes, c.reads, c.syncs),
            (1, 5, 3, 8, 2)
        );
        assert_eq!(c.pages_written(), 8);
        assert_eq!(d.data_bytes(), 5 * PAGE as u64);
        let later = d.counts();
        assert_eq!(later.since(&c), DiskCounts::default());
    }

    #[test]
    fn tracing_records_one_span_per_call_with_the_callers_statement() {
        let d = disk();
        let f = d.create_file();
        d.append_page(f, &page(1)).unwrap(); // before tracing: no span
        d.start_tracing();
        let mut t = trace::ThreadTracer::new(1);
        t.begin_stmt(42);
        d.read_page(f, 0).unwrap();
        let parent = t.open_id();
        t.end_stmt();
        d.sync(f).unwrap(); // outside any statement
        let spans = d.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "storage.disk.read");
        assert_eq!((spans[0].stmt, spans[0].parent), (42, parent));
        assert_eq!(spans[1].name, "storage.disk.sync");
        assert_eq!((spans[1].stmt, spans[1].parent), (trace::NO_STMT, 0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn log_crash_keeps_exactly_the_synced_prefix() {
        let l = SimLog::with_sync_cost(Duration::ZERO);
        l.reset(b"HDR");
        l.append(b"aaaa");
        l.sync();
        l.append(b"bb");
        assert_eq!(l.read_all(), b"HDRaaaabb");
        l.crash();
        assert_eq!(l.read_all(), b"HDRaaaa");
        // A reset is atomic and durable by contract.
        l.append(b"cc");
        l.reset(b"NEW");
        l.append(b"d");
        l.crash();
        assert_eq!(l.read_all(), b"NEW");
        let c = l.counts();
        assert_eq!(
            (c.appends, c.bytes_appended, c.syncs, c.resets),
            (4, 9, 1, 2)
        );
    }

    #[test]
    fn sync_pays_the_fixed_cost() {
        let l = SimLog::with_sync_cost(Duration::from_micros(300));
        let t0 = Instant::now();
        l.sync();
        assert!(t0.elapsed() >= Duration::from_micros(300));
    }
}
