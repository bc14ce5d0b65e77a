//! The buffer manager: per-file LRU frame pools and page access
//! accounting.
//!
//! The paper's methodology is specific about buffering: "we counted only
//! disk accesses to user relations, and allocated only 1 buffer for each
//! user relation so that a page resides in main memory only until another
//! page from the same relation is brought in." [`Pager`] reproduces that
//! as its *default* configuration — one LRU frame per file — and
//! generalizes it into a buffer manager with more frames:
//!
//! * [`BufferConfig`] selects a global frames-per-file default; one
//!   file's cap changes at runtime through [`Pager::set_buffer_frames`].
//! * Every pool — eagerly created by [`Pager::create_file`] or lazily on
//!   first access to a file restored from a persisted catalog — is built
//!   by one helper that honors the configured caps, so a relation buffers
//!   identically however its file came into view.
//! * Frames are **pinned** for the duration of a `read`/`write` callback:
//!   the eviction scan skips pinned frames, so a multi-page operation
//!   (ISAM directory descent, overflow-chain walk, a heap scan feeding a
//!   temporary) can never have the page it is looking at stolen from
//!   under it, at any cap.
//!
//! A buffer hit costs nothing, a miss fetches from the [`DiskManager`]
//! and bumps the file's read counter, and dirty frames are written back
//! on eviction or flush (bumping the write counter). [`IoStats`]
//! additionally classifies every buffered access as hit or miss and
//! counts capacity evictions, maintaining `hits + misses == accesses`.
//!
//! The pager is `Send + Sync`: every method takes `&self`, with the frame
//! tables, overlay, and disk handle behind one pager-wide `RwLock`. Page
//! accesses take the write lock and hold it across the user callback —
//! the frame stays pinned and the accounting stays exactly the
//! single-threaded sequence, so a one-thread run is bit-identical to the
//! old `&mut` pager — while pure introspection (page counts, config
//! getters, staged-page listings) shares the read lock.

use crate::bloom::Bloom;
use crate::checksum::ChecksumSet;
use crate::disk::{DiskManager, FileId, MemDisk};
use crate::iostats::{Counter, FileLedger, IoStats};
use crate::page::{Page, PageKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{
    Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use tdbms_kernel::{Error, Result};

/// The bounded retry budget for transient disk-read failures: a failing
/// read is reissued this many times before the error surfaces. A healthy
/// disk never errors, so the retry path costs nothing until the first
/// failure.
pub const DEFAULT_READ_RETRIES: u32 = 2;

/// Which frame a full pool gives up: always the least-recently-used
/// one (the paper's implied policy; with one frame per file every
/// replacement policy degenerates to this). The type has one variant
/// and stays only because the repository benchmark
/// (`benchmark/src/sut.rs`) spells `BufferConfig::uniform(n,
/// EvictionPolicy::Lru)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used frame.
    #[default]
    Lru,
}

/// Buffer-manager configuration, threaded from the database layer down to
/// the [`Pager`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferConfig {
    /// Frames allotted to each file unless overridden (minimum 1).
    pub default_frames: usize,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig::paper()
    }
}

impl BufferConfig {
    /// The paper's configuration: one LRU frame per file.
    pub fn paper() -> Self {
        BufferConfig { default_frames: 1 }
    }

    /// A uniform configuration: `frames` LRU frames per file.
    pub fn uniform(frames: usize, _policy: EvictionPolicy) -> Self {
        BufferConfig {
            default_frames: frames,
        }
    }
}

/// A file's buffer pool vanished while the file is still referenced —
/// in-memory bookkeeping no longer matches the catalog. Reported as
/// media corruption (repairable by `tdbms-check --repair`) rather than
/// panicking the process.
fn missing_pool(file: FileId) -> Error {
    Error::Corruption {
        file: Some(file.0),
        page: None,
        detail: "buffer pool missing for a live file \
                 (catalog references a dropped file?)"
            .into(),
    }
}

/// A just-installed frame is gone from its pool — same corrupt-state
/// family as [`missing_pool`], located to the page.
fn missing_frame(file: FileId, page_no: u32) -> Error {
    Error::Corruption {
        file: Some(file.0),
        page: Some(page_no),
        detail: "buffer frame missing after fault-in".into(),
    }
}

struct Frame {
    page_no: u32,
    page: Page,
    dirty: bool,
    /// Held by an in-flight `read`/`write` callback; never a victim.
    pinned: bool,
}

struct FilePool {
    cap: usize,
    /// Frame list, most-recently-used first. Tiny (cap is 1 in the
    /// paper's benchmark), so linear search beats any fancier structure.
    frames: Vec<Frame>,
    /// The file's row of the pager's [`IoStats`].
    io: FileLedger,
}

impl FilePool {
    fn new(cap: usize, io: FileLedger) -> Self {
        FilePool {
            cap: cap.max(1),
            frames: Vec::new(),
            io,
        }
    }

    /// The least-recently-used unpinned frame. `None` only when every
    /// frame is pinned.
    fn evict_index(&self) -> Option<usize> {
        self.frames.iter().rposition(|f| !f.pinned)
    }
}

/// Statement-scoped undo (staging mode only): first-touch snapshots of
/// everything a statement may disturb, captured lazily as the statement
/// runs so [`Pager::rollback_statement`] can put the pager back exactly
/// as it was at [`Pager::begin_statement_undo`]. Uncommitted page
/// *content* never reaches disk under staging, so the in-memory restore
/// (overlay, staged set, resize/drop bookkeeping) is infallible; only
/// file-shape changes (appended placeholder tails, in-statement
/// truncates, created files) need physical repair, which may itself hit
/// the full disk and is then deferred (see [`Deferred`]).
#[derive(Default)]
struct UndoLog {
    /// Per page key: `(prior overlay image, was staged)` at first touch.
    touched: BTreeMap<(FileId, u32), (Option<Page>, bool)>,
    /// Files first entering `resized` during the statement.
    resized_added: BTreeSet<FileId>,
    /// `pending_drops` length at statement start.
    drops_len: usize,
    /// Disk length per file at its first in-statement length change.
    lengths: BTreeMap<FileId, u32>,
    /// Pre-truncate disk images (an in-statement physical truncate
    /// destroys checkpointed pages; rollback re-appends these).
    truncated: BTreeMap<FileId, Vec<Page>>,
    /// Files created during the statement (physically dropped on
    /// rollback).
    created: Vec<FileId>,
    /// Per-file cap overrides removed by an in-statement drop.
    overrides: BTreeMap<FileId, Option<usize>>,
}

/// A physical rollback step that failed (the disk is still exhausted)
/// and waits for [`Pager::retry_deferred`]. In-memory state is already
/// rolled back; until the fix lands, the named file's on-disk shape
/// disagrees with the committed state — which is why the engine stays
/// read-only-degraded until the deferred list drains.
#[derive(Debug, Clone)]
enum Deferred {
    /// Trim the file back to `len` pages (placeholder tail from
    /// rolled-back appends).
    Shrink(FileId, u32),
    /// Re-append saved images after an in-statement physical truncate.
    Restore(FileId, Vec<Page>),
    /// Physically drop a file the rolled-back statement created.
    Drop(FileId),
}

/// Everything the pager-wide lock guards: the disk handle, the frame
/// tables, the buffering config, and the WAL staging overlay. The stats
/// ledger is shared with the [`Pager`] itself (it is internally atomic),
/// so counter reads never contend with page traffic.
struct PagerState {
    disk: Box<dyn DiskManager>,
    stats: Arc<IoStats>,
    pools: std::collections::HashMap<FileId, FilePool>,
    default_cap: usize,
    /// Per-file caps that outlive the pools they configure (a pool can be
    /// created lazily long after the cap was requested).
    overrides: std::collections::HashMap<FileId, usize>,
    /// WAL staging mode: write-backs land in `overlay`, not on disk.
    staging: bool,
    /// Staged after-images shadowing the disk (staging mode only).
    overlay: BTreeMap<(FileId, u32), Page>,
    /// Pages dirtied since the last commit (keys into `overlay`).
    staged: BTreeSet<(FileId, u32)>,
    /// Files whose length changed since the last commit.
    resized: BTreeSet<FileId>,
    /// Files dropped while staging by statements no commit has logged
    /// yet.
    pending_drops: Vec<FileId>,
    /// Drops a commit has logged, tagged with that commit's ticket:
    /// physically dropped once the ticket is durable.
    logged_drops: Vec<(u64, FileId)>,
    /// Sidecar page checksums, verified on fault-in and refreshed on every
    /// real disk write. `None` (the paper default) skips both sides.
    checksums: Option<ChecksumSet>,
    /// Statement undo, present between `begin_statement_undo` and
    /// `discard_statement_undo`/`rollback_statement`.
    undo: Option<UndoLog>,
    /// Physical rollback steps awaiting a recovered disk.
    deferred: Vec<Deferred>,
}

/// Buffer-managing page store over a [`DiskManager`], shareable across
/// threads.
pub struct Pager {
    state: RwLock<PagerState>,
    stats: Arc<IoStats>,
    /// Per-file Bloom filters over "keys with versions on overflow
    /// pages" (see [`Bloom`]). Kept beside the state lock, not inside
    /// it: a filter probe must not contend with page traffic, and the
    /// access methods consult it *before* deciding whether to fault
    /// overflow pages in. Files without an entry (fresh catalogs
    /// reloaded from disk, heap files) simply have no guard and every
    /// chain is walked — the pre-filter behaviour.
    blooms: RwLock<std::collections::HashMap<FileId, Arc<Bloom>>>,
    /// Bloom-guard master switch. Off by default: a skipped chain walk
    /// changes a query's input-page count, and the paper benchmarks'
    /// golden figures assume every probe walks its chain. The scale
    /// workload and anything else living past the paper turns it on
    /// *before* building (filters are installed at rebuild time).
    bloom_on: AtomicBool,
}

impl PagerState {
    /// Refresh a recorded checksum after the bytes were written outside
    /// the pager's own write path (no-op when verification is off).
    fn note_written(&mut self, file: FileId, page_no: u32, page: &Page) {
        if let Some(sums) = &mut self.checksums {
            sums.record(file, page_no, page);
        }
    }

    /// Fetch a page from disk with bounded retry (transient I/O and
    /// checksum failures are reissued; [`Error::NoSuchPage`] is not — a
    /// missing page will not appear on a second look) and verify it
    /// against the sidecar, adopting the sum when none is recorded.
    fn fetch_from_disk(
        &mut self,
        file: FileId,
        page_no: u32,
    ) -> Result<Page> {
        let mut attempt: u32 = 0;
        loop {
            let fetched =
                self.disk.read_page(file, page_no).and_then(|p| {
                    if let Some(sums) = &self.checksums {
                        sums.verify(file, page_no, &p)?;
                    }
                    Ok(p)
                });
            match fetched {
                Ok(page) => {
                    if let Some(sums) = &mut self.checksums {
                        if sums.get(file, page_no).is_none() {
                            sums.record(file, page_no, &page);
                        }
                    }
                    return Ok(page);
                }
                Err(e @ Error::NoSuchPage(_)) => return Err(e),
                Err(e) => {
                    if attempt >= DEFAULT_READ_RETRIES {
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.record(file, Counter::Retries);
                    // Deterministic backoff: a counted spin, doubling per
                    // attempt. No wall-clock, so fault-injection tests
                    // replay identically.
                    let mut spins = 1u64 << attempt.min(10);
                    while spins > 0 {
                        spins -= 1;
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// The one place pools are created: every path — eager
    /// [`Pager::create_file`], lazy fault-in or append on a file restored
    /// from a persisted catalog, a cap request for a not-yet-buffered
    /// file — resolves the cap the same way (per-file override, else the
    /// default).
    fn pool_mut(&mut self, file: FileId) -> &mut FilePool {
        let cap = self
            .overrides
            .get(&file)
            .copied()
            .unwrap_or(self.default_cap);
        self.pools
            .entry(file)
            .or_insert_with(|| FilePool::new(cap, self.stats.file(file)))
    }

    /// The buffer pool for `file`, or [`Error::Corruption`] when it is
    /// missing. The pager creates pools on demand, so a vanished pool
    /// means the in-memory state no longer matches the catalog (e.g. a
    /// corrupt catalog still references a dropped file); that is a
    /// repairable condition for `tdbms-check --repair`, not a reason to
    /// abort the process.
    fn pool_of(&mut self, file: FileId) -> Result<&mut FilePool> {
        self.pools.get_mut(&file).ok_or_else(|| missing_pool(file))
    }

    /// Record a page key's prior overlay/staged state at first touch
    /// (no-op without an active statement undo).
    fn undo_touch(&mut self, key: (FileId, u32)) {
        if self.undo.is_none() {
            return;
        }
        let img = self.overlay.get(&key).cloned();
        let was = self.staged.contains(&key);
        let u = self.undo.as_mut().expect("checked above");
        u.touched.entry(key).or_insert((img, was));
    }

    /// Record a file's disk length and `resized` membership before its
    /// first in-statement length change.
    fn undo_resize(&mut self, file: FileId) -> Result<()> {
        if self.undo.is_none() {
            return Ok(());
        }
        let created = self
            .undo
            .as_ref()
            .expect("checked above")
            .created
            .contains(&file);
        let known = self
            .undo
            .as_ref()
            .expect("checked above")
            .lengths
            .contains_key(&file);
        let len = if known || created {
            None
        } else {
            Some(self.disk.page_count(file)?)
        };
        let was_resized = self.resized.contains(&file);
        let u = self.undo.as_mut().expect("checked above");
        if !was_resized {
            u.resized_added.insert(file);
        }
        if let Some(l) = len {
            u.lengths.insert(file, l);
        }
        Ok(())
    }

    /// Apply one deferred physical rollback step. Idempotent: every
    /// branch re-checks the disk before acting, so a step that half
    /// completed (or already completed) can be reissued safely.
    fn apply_fix(&mut self, fix: &Deferred) -> Result<()> {
        match fix {
            Deferred::Drop(f) => {
                if self.disk.page_count(*f).is_ok() {
                    self.disk.drop_file(*f)?;
                }
                if let Some(sums) = &mut self.checksums {
                    sums.drop_file(*f);
                }
                Ok(())
            }
            Deferred::Shrink(f, len) => {
                let Ok(cur) = self.disk.page_count(*f) else {
                    return Ok(());
                };
                if cur <= *len {
                    return Ok(());
                }
                let keep: Vec<Page> = (0..*len)
                    .map(|p| self.disk.read_page(*f, p))
                    .collect::<Result<_>>()?;
                self.restore_file(*f, &keep)
            }
            Deferred::Restore(f, pages) => self.restore_file(*f, pages),
        }
    }

    /// Truncate `file` and re-append `pages` (the trait only truncates
    /// to zero), refreshing the checksum sidecar as it goes.
    fn restore_file(&mut self, file: FileId, pages: &[Page]) -> Result<()> {
        if self.disk.page_count(file).is_err() {
            return Ok(());
        }
        self.disk.truncate(file)?;
        if let Some(sums) = &mut self.checksums {
            sums.truncate(file, 0);
        }
        for (i, p) in pages.iter().enumerate() {
            self.disk.append_page(file, p)?;
            self.note_written(file, i as u32, p);
        }
        Ok(())
    }

    fn write_back(&mut self, file: FileId, frame: Frame) -> Result<()> {
        if frame.dirty {
            if self.staging {
                self.undo_touch((file, frame.page_no));
                self.overlay.insert((file, frame.page_no), frame.page);
                self.staged.insert((file, frame.page_no));
            } else {
                self.disk.write_page(file, frame.page_no, &frame.page)?;
                self.note_written(file, frame.page_no, &frame.page);
            }
            self.stats.record(file, Counter::Writes);
        }
        Ok(())
    }

    /// Make room in `file`'s pool (evicting the LRU frame, with
    /// accounting) and install `frame` in the MRU position.
    fn install_frame(&mut self, file: FileId, frame: Frame) -> Result<()> {
        let victim = {
            let pool = self.pool_mut(file);
            if pool.frames.len() >= pool.cap {
                let idx = pool.evict_index().ok_or_else(|| {
                    Error::Internal(
                        "buffer pool exhausted: every frame is pinned"
                            .into(),
                    )
                })?;
                Some(pool.frames.remove(idx))
            } else {
                None
            }
        };
        if let Some(old) = victim {
            self.stats.record(file, Counter::Evictions);
            self.write_back(file, old)?;
        }
        self.pool_of(file)?.frames.insert(0, frame);
        Ok(())
    }

    /// Bring the frame for (`file`, `page_no`) to the MRU position of
    /// its pool (index 0), fetching from disk on a miss. Every
    /// *successful* call is one buffered page access — a hit or a miss
    /// — recorded together with its hit/read half so the ledger
    /// identity `hits + reads == accesses` survives a fetch that errors
    /// out (stale snapshot reads against a concurrently reorganized
    /// file do that in normal operation).
    fn fault_in(&mut self, file: FileId, page_no: u32) -> Result<()> {
        let pool = self.pool_mut(file);
        if let Some(pos) =
            pool.frames.iter().position(|f| f.page_no == page_no)
        {
            let frame = pool.frames.remove(pos);
            pool.frames.insert(0, frame);
            pool.io.record(Counter::Accesses);
            pool.io.record(Counter::Hits);
            return Ok(());
        }
        // Miss: fetch (the staging overlay shadows the disk; disk reads
        // are checksum-verified with bounded retry), then install
        // (evicting as needed).
        let page = match self.overlay.get(&(file, page_no)) {
            Some(p) => p.clone(),
            None => self.fetch_from_disk(file, page_no)?,
        };
        self.install_frame(
            file,
            Frame {
                page_no,
                page,
                dirty: false,
                pinned: false,
            },
        )?;
        let io = &self.pool_of(file)?.io;
        io.record(Counter::Accesses);
        io.record(Counter::Reads);
        Ok(())
    }
}

impl Pager {
    /// A pager over the given disk with the paper's 1-frame-per-file LRU
    /// buffering.
    pub fn new(disk: Box<dyn DiskManager>) -> Self {
        Pager::with_config(disk, BufferConfig::paper())
    }

    /// A pager with an explicit buffer configuration.
    pub fn with_config(
        disk: Box<dyn DiskManager>,
        config: BufferConfig,
    ) -> Self {
        let stats = Arc::new(IoStats::new());
        Pager {
            state: RwLock::new(PagerState {
                disk,
                stats: Arc::clone(&stats),
                pools: std::collections::HashMap::new(),
                default_cap: config.default_frames.max(1),
                overrides: std::collections::HashMap::new(),
                staging: false,
                overlay: BTreeMap::new(),
                staged: BTreeSet::new(),
                resized: BTreeSet::new(),
                pending_drops: Vec::new(),
                logged_drops: Vec::new(),
                checksums: None,
                undo: None,
                deferred: Vec::new(),
            }),
            stats,
            blooms: RwLock::new(std::collections::HashMap::new()),
            bloom_on: AtomicBool::new(false),
        }
    }

    /// In-memory pager (the benchmark configuration).
    pub fn in_memory() -> Self {
        Pager::new(Box::new(MemDisk::new()))
    }

    /// In-memory pager with an explicit buffer configuration.
    pub fn in_memory_with_config(config: BufferConfig) -> Self {
        Pager::with_config(Box::new(MemDisk::new()), config)
    }

    /// The exclusive guard over the pager state, tolerant of panics in
    /// earlier page callbacks (the state is a consistent snapshot at
    /// every await-free suspension point; poisoning adds nothing here).
    fn st(&self) -> RwLockWriteGuard<'_, PagerState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared guard, for pure introspection.
    fn st_read(&self) -> RwLockReadGuard<'_, PagerState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Change the default buffer frames allotted to files without a
    /// per-file override. Applies to pools created from now on; existing
    /// pools keep their caps (use [`Pager::set_buffer_frames`] to resize
    /// one).
    pub fn set_default_buffer_frames(&self, cap: usize) {
        self.st().default_cap = cap.max(1);
    }

    /// The default frames-per-file cap.
    pub fn default_buffer_frames(&self) -> usize {
        self.st_read().default_cap
    }

    /// Change the buffer frames allotted to one file, evicting (with
    /// write-back accounting) as needed. The cap survives pool
    /// destruction and re-creation.
    pub fn set_buffer_frames(
        &self,
        file: FileId,
        cap: usize,
    ) -> Result<()> {
        let cap = cap.max(1);
        let st = &mut *self.st();
        st.overrides.insert(file, cap);
        st.pool_mut(file).cap = cap;
        // Shed overflowing frames through the normal eviction path.
        loop {
            let pool = st.pool_of(file)?;
            if pool.frames.len() <= cap {
                break;
            }
            let idx = pool.evict_index().ok_or_else(|| {
                Error::Internal(
                    "cannot shrink pool: all frames pinned".into(),
                )
            })?;
            let frame = pool.frames.remove(idx);
            self.stats.record(file, Counter::Evictions);
            st.write_back(file, frame)?;
        }
        Ok(())
    }

    /// The access counters: lifetime totals, and [`IoStats::scope`] to
    /// price one unit of work. Recording and reading are both `&self`;
    /// the ledger is internally atomic.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Open a named accounting phase (see [`IoStats::begin_phase`]).
    pub fn begin_phase(&self, name: &str) {
        self.stats.begin_phase(name);
    }

    /// Close the open accounting phase, if any.
    pub fn end_phase(&self) {
        self.stats.end_phase();
    }

    // --- Overflow-chain Bloom guards ------------------------------------

    fn bloom_map(
        &self,
    ) -> RwLockWriteGuard<'_, std::collections::HashMap<FileId, Arc<Bloom>>>
    {
        self.blooms.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enable/disable the overflow-chain Bloom guards (off by default —
    /// a skipped chain walk changes input-page counts, and paper mode
    /// pins those). Installation happens at file rebuild time, so
    /// enable *before* building; turning the switch off leaves
    /// installed filters dormant ([`Pager::bloom_check`] answers
    /// `None`) and turning it back on revives them.
    pub fn set_bloom_guards(&self, on: bool) {
        self.bloom_on.store(on, Ordering::Relaxed);
    }

    /// Are the overflow-chain Bloom guards enabled?
    pub fn bloom_guards_enabled(&self) -> bool {
        self.bloom_on.load(Ordering::Relaxed)
    }

    /// Install (or replace) the overflow-chain guard for `file`. The
    /// access methods install one at build time seeded with the keys
    /// that spilled during the bulk load. A no-op while the guards are
    /// disabled (paper mode pays neither the memory nor the hashing).
    pub fn bloom_install(&self, file: FileId, bloom: Bloom) {
        if !self.bloom_guards_enabled() {
            return;
        }
        self.bloom_map().insert(file, Arc::new(bloom));
    }

    /// Remove `file`'s guard (dropped/truncated files; also the reload
    /// path, where a fresh process has no filter until the next
    /// rebuild). Without a guard every chain is walked.
    pub fn bloom_drop(&self, file: FileId) {
        self.bloom_map().remove(&file);
    }

    /// Does `file` have an overflow-chain guard installed?
    pub fn bloom_active(&self, file: FileId) -> bool {
        self.blooms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&file)
    }

    /// Record that a version of `key_bytes` was placed on an overflow
    /// page of `file`. No-op when the file has no guard.
    pub fn bloom_note_overflow(&self, file: FileId, key_bytes: &[u8]) {
        let guard = self
            .blooms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&file)
            .cloned();
        if let Some(b) = guard {
            b.add(key_bytes);
        }
    }

    /// Consult `file`'s guard before walking its overflow chain.
    /// `Some(false)` is a definite miss — the chain holds no version of
    /// the key and the walk can be skipped (counted as a bloom skip);
    /// `Some(true)` means maybe (counted as a bloom hit, walk as
    /// usual); `None` means no guard is installed or the switch is off
    /// (walk, uncounted).
    pub fn bloom_check(
        &self,
        file: FileId,
        key_bytes: &[u8],
    ) -> Option<bool> {
        if !self.bloom_guards_enabled() {
            return None;
        }
        let guard = self
            .blooms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&file)
            .cloned()?;
        let maybe = guard.maybe_contains(key_bytes);
        let verdict = if maybe {
            Counter::BloomHits
        } else {
            Counter::BloomSkips
        };
        self.stats.record(file, verdict);
        Some(maybe)
    }

    // --- Corruption defense ---------------------------------------------

    /// Install a checksum sidecar (or `None` to turn verification off,
    /// the paper default). Pages with no recorded sum are adopted on
    /// first read, so enabling with an empty [`ChecksumSet`] over an
    /// existing database is safe.
    pub fn set_checksums(&self, sums: Option<ChecksumSet>) {
        self.st().checksums = sums;
    }

    /// Is checksum verification on?
    pub fn checksums_enabled(&self) -> bool {
        self.st_read().checksums.is_some()
    }

    /// A snapshot of the live checksum sidecar, if verification is on.
    pub fn checksums_snapshot(&self) -> Option<ChecksumSet> {
        self.st_read().checksums.clone()
    }

    /// Read a page straight from the disk: no buffer, no checksum
    /// verification, no retry. This is the scrubber's view — it must be
    /// able to look at a page the verified path would refuse to return.
    /// Counted as one access + one read so scrub I/O is visible in the
    /// ledger without breaking its `hits + reads == accesses` identity.
    pub fn read_page_raw(
        &self,
        file: FileId,
        page_no: u32,
    ) -> Result<Page> {
        // Recorded under the state lock, like every access: a
        // concurrent `drop_file` must not retire the row in between.
        let mut st = self.st();
        let page = st.disk.read_page(file, page_no)?;
        self.stats.record(file, Counter::Accesses);
        self.stats.record(file, Counter::Reads);
        Ok(page)
    }

    /// Write a page image straight to disk, refreshing its sidecar sum
    /// and discarding any stale buffered frame (the raw image is now the
    /// truth). This is the repair path: salvage installs a WAL image or a
    /// reinitialized page wholesale.
    pub fn write_page_raw(
        &self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> Result<()> {
        let st = &mut *self.st();
        st.disk.write_page(file, page_no, page)?;
        self.stats.record(file, Counter::Writes);
        st.note_written(file, page_no, page);
        st.overlay.remove(&(file, page_no));
        st.staged.remove(&(file, page_no));
        if let Some(pool) = st.pools.get_mut(&file) {
            pool.frames.retain(|f| f.page_no != page_no);
        }
        Ok(())
    }

    /// Drop every buffered frame (writing dirty ones back) so the next
    /// access of each page is a cold read. The harness calls this between
    /// queries so each query starts with cold buffers, as a fresh query
    /// would in the prototype. Flushes are not evictions: the eviction
    /// counter is untouched.
    pub fn invalidate_buffers(&self) -> Result<()> {
        let st = &mut *self.st();
        let files: Vec<FileId> = st.pools.keys().copied().collect();
        for f in files {
            let pool = st.pool_of(f)?;
            let frames = std::mem::take(&mut pool.frames);
            for frame in frames {
                st.write_back(f, frame)?;
            }
        }
        Ok(())
    }

    /// Create a new empty file.
    pub fn create_file(&self) -> Result<FileId> {
        let st = &mut *self.st();
        let id = st.disk.create_file()?;
        st.pool_mut(id);
        if let Some(u) = st.undo.as_mut() {
            u.created.push(id);
        }
        Ok(id)
    }

    /// Delete a file, its pages, its buffers, and its cap override. Like
    /// [`Pager::truncate`], pending (dirty) writes are intentionally
    /// discarded without write-back accounting — the data they would have
    /// persisted is being destroyed.
    pub fn drop_file(&self, file: FileId) -> Result<()> {
        self.bloom_drop(file);
        let st = &mut *self.st();
        if st.staging && st.undo.is_some() {
            // Capture before anything is removed: the prior cap
            // override and every overlay/staged entry this drop purges.
            let keys: Vec<(FileId, u32)> = st
                .overlay
                .keys()
                .filter(|(f, _)| *f == file)
                .copied()
                .collect();
            for key in keys {
                st.undo_touch(key);
            }
            let prior = st.overrides.get(&file).copied();
            let u = st.undo.as_mut().expect("checked above");
            u.overrides.entry(file).or_insert(prior);
        }
        st.pools.remove(&file);
        self.stats.retire(file);
        st.overrides.remove(&file);
        if let Some(sums) = &mut st.checksums {
            sums.drop_file(file);
        }
        if st.staging {
            // Defer the physical drop until the commit that logs it is
            // durable: a crash in between must not have destroyed pages
            // a committed state still references.
            st.overlay.retain(|(f, _), _| *f != file);
            st.staged.retain(|(f, _)| *f != file);
            st.resized.remove(&file);
            st.pending_drops.push(file);
            return Ok(());
        }
        st.disk.drop_file(file)
    }

    /// Truncate a file to zero pages. The pool (and any configured cap)
    /// survives, but its frames are discarded: pending dirty writes are
    /// intentionally dropped *without* write-back accounting, exactly as
    /// [`Pager::drop_file`] drops them — pages that no longer exist cost
    /// no output. Neither counts evictions.
    pub fn truncate(&self, file: FileId) -> Result<()> {
        self.bloom_drop(file);
        let st = &mut *self.st();
        if st.staging && st.undo.is_some() {
            // A physical truncate destroys checkpointed pages, so undo
            // must save the on-disk images (the only destructive disk
            // write a staged statement can make) plus every overlay
            // entry about to be purged. Capture happens before any
            // mutation: a failed capture leaves the file untouched.
            st.undo_resize(file)?;
            if !st
                .undo
                .as_ref()
                .expect("checked above")
                .truncated
                .contains_key(&file)
            {
                let n = st.disk.page_count(file)?;
                let pages: Vec<Page> = (0..n)
                    .map(|p| st.disk.read_page(file, p))
                    .collect::<Result<_>>()?;
                st.undo
                    .as_mut()
                    .expect("checked above")
                    .truncated
                    .insert(file, pages);
            }
            let keys: Vec<(FileId, u32)> = st
                .overlay
                .keys()
                .filter(|(f, _)| *f == file)
                .copied()
                .collect();
            for key in keys {
                st.undo_touch(key);
            }
        }
        if let Some(pool) = st.pools.get_mut(&file) {
            pool.frames.clear();
        }
        if let Some(sums) = &mut st.checksums {
            sums.truncate(file, 0);
        }
        if st.staging {
            st.overlay.retain(|(f, _), _| *f != file);
            st.staged.retain(|(f, _)| *f != file);
            st.resized.insert(file);
        }
        st.disk.truncate(file)
    }

    /// Number of pages in `file`.
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        self.st_read().disk.page_count(file)
    }

    /// Read access to a page through the buffer. The frame is pinned (and
    /// the pager lock held) for the duration of the callback.
    pub fn read<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R> {
        let st = &mut *self.st();
        st.fault_in(file, page_no)?;
        let frame = st
            .pool_of(file)?
            .frames
            .first_mut()
            .ok_or_else(|| missing_frame(file, page_no))?;
        frame.pinned = true;
        let r = f(&frame.page);
        frame.pinned = false;
        Ok(r)
    }

    /// Write access to a page through the buffer; marks the frame dirty.
    /// The frame is pinned (and the pager lock held) for the duration of
    /// the callback.
    pub fn write<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        let st = &mut *self.st();
        st.fault_in(file, page_no)?;
        let frame = st
            .pool_of(file)?
            .frames
            .first_mut()
            .ok_or_else(|| missing_frame(file, page_no))?;
        frame.dirty = true;
        frame.pinned = true;
        let r = f(&mut frame.page);
        frame.pinned = false;
        Ok(r)
    }

    /// Append a fresh page of the given kind to `file`, placing it in the
    /// buffer dirty. The write is counted once, when the frame is evicted
    /// or flushed — so bulk-loading a page counts one output page, exactly
    /// as the paper's output-cost accounting expects. Materializing a new
    /// page is not a buffered page access (no hit, no miss).
    pub fn append_page(&self, file: FileId, kind: PageKind) -> Result<u32> {
        let st = &mut *self.st();
        let page = Page::new(kind);
        // Capture the pre-append disk length first: rollback trims the
        // placeholder tail back to it.
        st.undo_resize(file)?;
        let page_no = st.disk.append_page(file, &page)?;
        st.note_written(file, page_no, &page);
        if st.staging {
            // The file grows on disk immediately, but only with this
            // empty page: the content arrives through the buffer, whose
            // dirty frame (installed below) stages an after-image. The
            // commit logs the new length so recovery can trim an
            // uncommitted tail.
            st.resized.insert(file);
        }
        st.install_frame(
            file,
            Frame {
                page_no,
                page,
                dirty: true,
                pinned: false,
            },
        )?;
        Ok(page_no)
    }

    /// Write all dirty frames of `file` back to disk.
    pub fn flush_file(&self, file: FileId) -> Result<()> {
        let st = &mut *self.st();
        if let Some(pool) = st.pools.get_mut(&file) {
            let mut dirty = Vec::new();
            for frame in pool.frames.iter_mut() {
                if frame.dirty {
                    frame.dirty = false;
                    dirty.push((frame.page_no, frame.page.clone()));
                }
            }
            for (page_no, page) in dirty {
                if st.staging {
                    st.undo_touch((file, page_no));
                    st.overlay.insert((file, page_no), page);
                    st.staged.insert((file, page_no));
                } else {
                    st.disk.write_page(file, page_no, &page)?;
                    st.note_written(file, page_no, &page);
                }
                self.stats.record(file, Counter::Writes);
            }
        }
        Ok(())
    }

    /// Write all dirty frames of all files back to disk.
    pub fn flush_all(&self) -> Result<()> {
        let files: Vec<FileId> =
            self.st_read().pools.keys().copied().collect();
        for f in files {
            self.flush_file(f)?;
        }
        Ok(())
    }

    // --- WAL staging ----------------------------------------------------
    //
    // In staging mode the pager never writes data-page *content* to disk
    // on its own: every dirty write-back (eviction or flush) lands in an
    // in-memory overlay that shadows the disk for subsequent reads,
    // accumulating the transaction's after-images. The WAL commits by
    // logging those images; a checkpoint later writes the overlay
    // through. Appends and truncations still size the file on disk
    // immediately — only ever with empty pages, content arrives through
    // buffered writes — so `page_count` stays truthful, and the commit
    // logs each changed length so recovery can trim uncommitted tails.

    /// Switch staging mode (see above). Turn it on at open, before any
    /// writes; it is not meant to be toggled mid-transaction.
    pub fn set_staging(&self, on: bool) {
        self.st().staging = on;
    }

    /// Is the pager staging write-backs in the overlay?
    pub fn staging(&self) -> bool {
        self.st_read().staging
    }

    /// The `(file, page)` pairs dirtied since the last
    /// [`Pager::clear_staged`], sorted. After a `flush_all` each has its
    /// after-image in the overlay, ready to be logged.
    pub fn staged_pages(&self) -> Vec<(FileId, u32)> {
        self.st_read().staged.iter().copied().collect()
    }

    /// Forget the staged-page set (the commit that logged it is durable).
    pub fn clear_staged(&self) {
        self.st().staged.clear();
    }

    /// Stamp `lsn` into the overlay image of (`file`, `page_no`) — and
    /// into any resident frame of the same page — returning a copy of the
    /// stamped image for the log. Errors if the page is not staged
    /// (commit must flush first).
    pub fn stamp_overlay_lsn(
        &self,
        file: FileId,
        page_no: u32,
        lsn: u32,
    ) -> Result<Page> {
        let st = &mut *self.st();
        let page =
            st.overlay.get_mut(&(file, page_no)).ok_or_else(|| {
                Error::Internal(format!(
                    "page {page_no} of {file:?} is not staged"
                ))
            })?;
        page.set_lsn(lsn);
        let copy = page.clone();
        if let Some(pool) = st.pools.get_mut(&file) {
            if let Some(f) =
                pool.frames.iter_mut().find(|f| f.page_no == page_no)
            {
                f.page.set_lsn(lsn);
            }
        }
        Ok(copy)
    }

    /// Drain the files whose length changed since the last call, paired
    /// with their current length (the commit's file-length records).
    pub fn take_resized(&self) -> Result<Vec<(FileId, u32)>> {
        let st = &mut *self.st();
        let files = std::mem::take(&mut st.resized);
        files
            .into_iter()
            .map(|f| Ok((f, st.disk.page_count(f)?)))
            .collect()
    }

    /// The files dropped while staging that no commit has logged yet
    /// (the next commit's `DropFile` records).
    pub fn pending_drops(&self) -> Vec<FileId> {
        self.st_read().pending_drops.clone()
    }

    /// The commit holding `ticket` logged every pending drop: queue
    /// them for [`Pager::execute_drops`]. A statement that rolls back
    /// before this keeps its drops out of the queue (its undo trims
    /// `pending_drops`).
    pub fn log_drops(&self, ticket: u64) {
        let st = &mut *self.st();
        let logged = std::mem::take(&mut st.pending_drops);
        st.logged_drops
            .extend(logged.into_iter().map(|f| (ticket, f)));
    }

    /// Physically drop every file whose drop was logged at or below
    /// `ticket` — those commits are durable (`u64::MAX`: a checkpoint
    /// retires them all). A logged drop must eventually happen, but
    /// nothing reads the file meanwhile: one the disk refuses (out of
    /// space, device error) only strands space and parks for
    /// `retry_deferred`.
    pub fn execute_drops(&self, ticket: u64) {
        let st = &mut *self.st();
        let (ready, waiting): (Vec<_>, Vec<_>) =
            std::mem::take(&mut st.logged_drops)
                .into_iter()
                .partition(|(t, _)| *t <= ticket);
        st.logged_drops = waiting;
        for (_, file) in ready {
            let fix = Deferred::Drop(file);
            if st.apply_fix(&fix).is_err() {
                st.deferred.push(fix);
            }
        }
    }

    /// Write every overlay page through to the disk (counting one write
    /// per page — attribute it to a phase if it should be visible as
    /// checkpoint cost) and clear the overlay. Returns the files touched,
    /// sorted, so the caller can sync them.
    pub fn materialize_overlay(&self) -> Result<Vec<FileId>> {
        let st = &mut *self.st();
        // Iterate without consuming: a mid-loop failure (disk full
        // during a checkpoint) must not lose the committed images not
        // yet written. The overlay is cleared only once every page
        // landed; page writes are idempotent, so a retried checkpoint
        // simply re-writes them all.
        let PagerState {
            disk,
            overlay,
            checksums,
            ..
        } = &mut *st;
        let mut files: Vec<FileId> = Vec::new();
        for ((file, page_no), page) in overlay.iter() {
            disk.write_page(*file, *page_no, page)?;
            if let Some(sums) = checksums {
                sums.record(*file, *page_no, page);
            }
            self.stats.record(*file, Counter::Writes);
            if files.last() != Some(file) {
                files.push(*file);
            }
        }
        st.overlay.clear();
        Ok(files)
    }

    // --- Statement undo -------------------------------------------------
    //
    // Staging mode keeps uncommitted page *content* off the disk, so a
    // statement that dies mid-flight (disk full, fsync failure) has
    // polluted only in-memory state — plus, at worst, a file's *shape*
    // (appended placeholder tails, an in-statement truncate, a created
    // file). `begin_statement_undo` arms lazy first-touch capture of
    // both; `rollback_statement` restores the in-memory state exactly
    // (infallible) and repairs the shapes, deferring any repair the
    // still-exhausted disk refuses until `retry_deferred` succeeds.

    /// Arm statement undo: from now until `discard_statement_undo` or
    /// `rollback_statement`, every overlay/staged/resize/drop mutation
    /// snapshots its prior state at first touch.
    pub fn begin_statement_undo(&self) {
        let st = &mut *self.st();
        let drops_len = st.pending_drops.len();
        st.undo = Some(UndoLog {
            drops_len,
            ..UndoLog::default()
        });
    }

    /// The statement committed: forget the captured undo state.
    pub fn discard_statement_undo(&self) {
        self.st().undo = None;
    }

    /// Put the pager back as it was at `begin_statement_undo` (no-op
    /// without one armed). The in-memory restore cannot fail; physical
    /// repairs that the disk refuses (it may still be full) are parked
    /// on the deferred list — see [`Pager::retry_deferred`] — and the
    /// caller must hold writes until the list drains.
    ///
    /// Runs under the pager-wide lock in one critical section, so
    /// concurrent snapshot readers never observe a half-rolled-back
    /// pager.
    pub fn rollback_statement(&self) {
        let st = &mut *self.st();
        let Some(u) = st.undo.take() else { return };
        // Discard the buffered frames of every file the statement
        // touched WITHOUT write-back: dirty frames hold the dead
        // statement's content and must not re-pollute the overlay.
        // Pools of untouched files cache only committed pages — the
        // warm cache stays.
        let mut polluted: BTreeSet<FileId> = BTreeSet::new();
        polluted.extend(u.touched.keys().map(|(f, _)| *f));
        polluted.extend(u.resized_added.iter().copied());
        polluted.extend(u.lengths.keys().copied());
        polluted.extend(u.truncated.keys().copied());
        polluted.extend(u.created.iter().copied());
        for f in &polluted {
            if let Some(pool) = st.pools.get_mut(f) {
                pool.frames.clear();
            }
        }
        for (key, (img, was_staged)) in &u.touched {
            match img {
                Some(p) => {
                    st.overlay.insert(*key, p.clone());
                }
                None => {
                    st.overlay.remove(key);
                }
            }
            if *was_staged {
                st.staged.insert(*key);
            } else {
                st.staged.remove(key);
            }
        }
        for f in &u.resized_added {
            st.resized.remove(f);
        }
        st.pending_drops.truncate(u.drops_len);
        for (f, prior) in &u.overrides {
            match prior {
                Some(cap) => {
                    st.overrides.insert(*f, *cap);
                }
                None => {
                    st.overrides.remove(f);
                }
            }
        }
        // Physical shape repairs, most destructive wins per file:
        // created files are dropped outright; truncated files get
        // their saved images back (trimmed to the pre-statement
        // length — the tail of the capture may be this statement's
        // own placeholders); grown files are trimmed.
        let mut fixes: Vec<Deferred> = Vec::new();
        for f in &u.created {
            fixes.push(Deferred::Drop(*f));
        }
        for (f, pages) in u.truncated {
            if u.created.contains(&f) {
                continue;
            }
            let keep = u
                .lengths
                .get(&f)
                .map(|l| *l as usize)
                .unwrap_or(pages.len())
                .min(pages.len());
            let mut pages = pages;
            pages.truncate(keep);
            fixes.push(Deferred::Restore(f, pages));
        }
        for (f, len) in &u.lengths {
            if u.created.contains(f)
                || fixes
                    .iter()
                    .any(|x| matches!(x, Deferred::Restore(g, _) if g == f))
            {
                continue;
            }
            fixes.push(Deferred::Shrink(*f, *len));
        }
        for fix in fixes {
            if st.apply_fix(&fix).is_err() {
                st.deferred.push(fix);
            }
        }
    }

    /// Re-attempt every deferred physical rollback step, stopping at
    /// the first that still fails (steps are idempotent, so a partial
    /// pass is safe to repeat). Empty list == on-disk shapes agree
    /// with the committed state again.
    pub fn retry_deferred(&self) -> Result<()> {
        let st = &mut *self.st();
        while let Some(fix) = st.deferred.first().cloned() {
            st.apply_fix(&fix)?;
            st.deferred.remove(0);
        }
        Ok(())
    }

    /// Are physical rollback repairs still outstanding?
    pub fn has_deferred(&self) -> bool {
        !self.st_read().deferred.is_empty()
    }

    /// Force one file's pages to stable storage.
    pub fn sync_file(&self, file: FileId) -> Result<()> {
        self.st().disk.sync(file)
    }

    /// Force every live file's pages to stable storage.
    pub fn sync_all(&self) -> Result<()> {
        let st = &mut *self.st();
        for f in st.disk.files() {
            st.disk.sync(f)?;
        }
        Ok(())
    }

    /// Current length of every live disk file, sorted (the checkpoint's
    /// file-length snapshot).
    pub fn file_lengths(&self) -> Result<Vec<(FileId, u32)>> {
        let st = self.st_read();
        st.disk
            .files()
            .into_iter()
            .map(|f| Ok((f, st.disk.page_count(f)?)))
            .collect()
    }

    /// Test hook: force a frame's pin bit, bypassing the callback
    /// discipline, to exercise the all-pinned eviction guard.
    #[cfg(test)]
    fn force_pin(&self, file: FileId, idx: usize, on: bool) {
        let st = &mut *self.st();
        if let Some(frame) = st
            .pools
            .get_mut(&file)
            .and_then(|pool| pool.frames.get_mut(idx))
        {
            frame.pinned = on;
        }
    }

    /// Test hook: remove a file's buffer pool behind the pager's back,
    /// simulating the corrupt-catalog state where in-memory bookkeeping
    /// no longer covers a file the catalog still references.
    #[cfg(test)]
    fn corrupt_drop_pool(&self, file: FileId) {
        self.st().pools.remove(&file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the interior-locking rewrite.
    #[test]
    fn pager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pager>();
        assert_send_sync::<IoStats>();
    }

    fn two_page_file(pager: &Pager) -> FileId {
        let f = pager.create_file().unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        f
    }

    #[test]
    fn vanished_pool_is_corruption_not_a_panic() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 0, |_| ()).unwrap();
        // Corrupt the in-memory bookkeeping: the pool disappears while
        // the file (and its buffered frame) is still live.
        pager.corrupt_drop_pool(f);
        let err = match pager.st().pool_of(f) {
            Err(e) => e,
            Ok(_) => panic!("pool_of found a pool we just removed"),
        };
        assert!(
            matches!(err, Error::Corruption { file: Some(id), .. }
                if id == f.0),
            "want located corruption, got {err}"
        );
        // Public entry points recover by recreating the pool on demand
        // instead of aborting the process.
        pager.read(f, 0, |_| ()).unwrap();
        pager.set_buffer_frames(f, 2).unwrap();
        pager.invalidate_buffers().unwrap();
    }

    #[test]
    fn repeated_access_to_resident_page_is_free() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        let io = pager.stats().scope();
        for _ in 0..10 {
            pager.read(f, 0, |_| ()).unwrap();
        }
        assert_eq!(io.of(f).reads, 1);
        assert_eq!(io.of(f).hits, 9);
        assert_eq!(io.of(f).accesses, 10);
        assert!(io.total().is_consistent());
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn single_frame_alternation_thrashes() {
        // With 1 buffer per file, alternating between two pages costs one
        // read per access — the degradation the paper's setup makes visible.
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        let io = pager.stats().scope();
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(f, 1, |_| ()).unwrap();
        }
        assert_eq!(io.of(f).reads, 10);
        assert_eq!(io.of(f).hits, 0);
        // Every miss after the first evicts the resident page.
        assert_eq!(io.of(f).evictions, 9);
    }

    #[test]
    fn two_frames_stop_the_thrash() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.set_buffer_frames(f, 2).unwrap();
        let io = pager.stats().scope();
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(f, 1, |_| ()).unwrap();
        }
        assert_eq!(io.of(f).reads, 2);
        assert_eq!(io.of(f).hits, 8);
        assert_eq!(io.of(f).evictions, 0);
    }

    #[test]
    fn files_have_independent_buffers() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        let g = two_page_file(&pager);
        let io = pager.stats().scope();
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(g, 0, |_| ()).unwrap();
        }
        assert_eq!(io.of(f).reads, 1);
        assert_eq!(io.of(g).reads, 1);
    }

    #[test]
    fn dirty_eviction_writes_back_once() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        let io = pager.stats().scope();
        pager
            .write(f, 0, |p| p.push_row(4, &[1, 2, 3, 4]).unwrap())
            .unwrap();
        // Evict page 0 by touching page 1.
        pager.read(f, 1, |_| ()).unwrap();
        assert_eq!(io.of(f).writes, 1);
        assert_eq!(io.of(f).evictions, 1);
        // The mutation survived the round trip.
        pager
            .read(f, 0, |p| assert_eq!(p.row(4, 0).unwrap(), &[1, 2, 3, 4]))
            .unwrap();
    }

    #[test]
    fn appended_page_counts_one_write_when_flushed() {
        let pager = Pager::in_memory();
        let f = pager.create_file().unwrap();
        let io = pager.stats().scope();
        let p = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[0; 4]).unwrap())
            .unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[1; 4]).unwrap())
            .unwrap();
        pager.flush_file(f).unwrap();
        assert_eq!(io.of(f).writes, 1);
        assert_eq!(io.of(f).reads, 0);
        // Appending is not a buffered access; the two writes both hit.
        assert_eq!(io.of(f).accesses, 2);
        assert_eq!(io.of(f).hits, 2);
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn truncate_clears_buffers_and_pages() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 1, |_| ()).unwrap();
        pager.truncate(f).unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 0);
        assert!(pager.read(f, 0, |_| ()).is_err());
    }

    #[test]
    fn truncate_and_drop_discard_pending_writes_identically() {
        // Satellite bugfix 2: truncation intentionally drops dirty frames
        // with no write-back accounting, matching drop_file, and the
        // hit/miss/access ledger stays consistent through both.
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        let g = two_page_file(&pager);
        let io = pager.stats().scope();
        pager
            .write(f, 0, |p| p.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager
            .write(g, 0, |p| p.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.truncate(f).unwrap();
        pager.drop_file(g).unwrap();
        assert_eq!(io.of(f).writes, 0, "truncate drops the write");
        assert_eq!(io.of(g).writes, 0, "drop_file drops the write");
        assert_eq!(io.of(f).evictions, 0);
        assert_eq!(io.of(g).evictions, 0);
        assert!(pager.stats().is_consistent());
        assert_eq!(pager.page_count(f).unwrap(), 0);
        // The truncated file's pool (and any cap) survives for reuse.
        pager.append_page(f, PageKind::Data).unwrap();
        pager.read(f, 0, |_| ()).unwrap();
    }

    #[test]
    fn invalidate_buffers_forces_cold_reads() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 0, |_| ()).unwrap();
        pager.invalidate_buffers().unwrap();
        let io = pager.stats().scope();
        pager.read(f, 0, |_| ()).unwrap();
        assert_eq!(io.of(f).reads, 1);
    }

    #[test]
    fn lazy_pools_honor_the_configured_default() {
        // Satellite bugfix 1: a file opened from a persisted catalog (so
        // never passed through create_file on this pager) must still get
        // the configured default frames when its pool is created lazily by
        // a fault-in or an append.
        let dir = tdbms_kernel::tmpdir::fresh_dir("pager-lazycap");
        let f;
        {
            let pager = Pager::new(Box::new(
                crate::disk::FileDisk::open(&dir).unwrap(),
            ));
            f = two_page_file(&pager);
            pager.flush_all().unwrap();
        }
        // Reopen: the pager has never seen `f`; its pool will be created
        // lazily by the first read.
        let pager = Pager::new(Box::new(
            crate::disk::FileDisk::open(&dir).unwrap(),
        ));
        pager.set_default_buffer_frames(2);
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(f, 1, |_| ()).unwrap();
        }
        // With the bug (lazy pools hard-wired to cap 1) this thrashes: 10
        // reads. With 2 frames both pages stay resident.
        assert_eq!(pager.stats().of(f).reads, 2);
        // The lazy append path resolves the cap the same way.
        pager.append_page(f, PageKind::Data).unwrap();
        pager.read(f, 0, |_| ()).unwrap();
        assert_eq!(
            pager.stats().of(f).reads,
            3,
            "page 0 was evicted by the \
             append only because the pool is at its configured cap of 2"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        // The eviction scan must skip pinned frames; with every frame
        // pinned, faulting another page is an error rather than a stolen
        // frame (the situation cannot arise through the closure API, which
        // unpins on return — this exercises the guard directly).
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 0, |_| ()).unwrap();
        pager.force_pin(f, 0, true);
        assert!(
            pager.read(f, 1, |_| ()).is_err(),
            "sole frame is pinned: nothing to evict"
        );
        pager.force_pin(f, 0, false);
        pager.read(f, 1, |_| ()).unwrap();
    }

    #[test]
    fn staging_holds_writes_in_the_overlay() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = pager.create_file().unwrap();
        let p = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        assert_eq!(pager.staged_pages(), vec![(f, p)]);
        // The overlay shadows the (still empty) on-disk page for reads.
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, p, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]))
            .unwrap();
        // Commit stamps the LSN into the image; checkpoint materializes.
        let img = pager.stamp_overlay_lsn(f, p, 42).unwrap();
        assert_eq!(img.lsn(), 42);
        pager.clear_staged();
        assert!(pager.staged_pages().is_empty());
        assert_eq!(pager.materialize_overlay().unwrap(), vec![f]);
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, p, |pg| {
                assert_eq!(pg.lsn(), 42);
                assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]);
            })
            .unwrap();
    }

    #[test]
    fn staging_defers_drops_and_tracks_lengths() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = pager.create_file().unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        assert_eq!(pager.take_resized().unwrap(), vec![(f, 2)]);
        assert!(pager.take_resized().unwrap().is_empty(), "drained");
        pager.drop_file(f).unwrap();
        // Still on disk until the commit that logs the drop is durable.
        assert_eq!(pager.page_count(f).unwrap(), 2);
        assert_eq!(pager.pending_drops(), vec![f]);
        pager.log_drops(7);
        assert!(pager.pending_drops().is_empty(), "queued on ticket 7");
        pager.execute_drops(6);
        assert_eq!(pager.page_count(f).unwrap(), 2, "7 is not durable yet");
        pager.execute_drops(7);
        assert!(pager.page_count(f).is_err());
    }

    #[test]
    fn corruption_error_round_trips_through_the_pager() {
        // Satellite 1: flip a byte under the pager's feet; the verified
        // read path must surface Error::Corruption locating the page —
        // and a clean page on the same file must still read fine.
        use crate::fault::SharedMemDisk;
        let shared = SharedMemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        pager.set_checksums(Some(ChecksumSet::default()));
        let f = two_page_file(&pager);
        pager
            .write(f, 0, |p| p.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        // Corrupt page 0 behind the pager's back.
        let mut raw = shared.clone();
        use crate::disk::DiskManager;
        let mut bytes = Box::new(*raw.read_page(f, 0).unwrap().as_bytes());
        bytes[500] ^= 0x01;
        raw.write_page(f, 0, &Page::from_bytes(bytes)).unwrap();
        let err = pager.read(f, 0, |_| ()).unwrap_err();
        match err {
            Error::Corruption { file, page, .. } => {
                assert_eq!(file, Some(f.0));
                assert_eq!(page, Some(0));
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        // The retry budget was spent on the (persistent) mismatch.
        assert_eq!(
            pager.stats().of(f).retries,
            DEFAULT_READ_RETRIES as u64
        );
        // Page 1 is untouched and still readable.
        pager.read(f, 1, |_| ()).unwrap();
    }

    #[test]
    fn transient_read_failures_are_retried_within_budget() {
        use crate::fault::{FaultDisk, FaultPlan};
        let mut inner = MemDisk::new();
        let f = inner.create_file().unwrap();
        let mut page = Page::new(PageKind::Data);
        page.push_row(4, &[3; 4]).unwrap();
        inner.append_page(f, &page).unwrap();
        let mut fault =
            FaultDisk::new(Box::new(inner), FaultPlan::new(None));
        // Read ops 1 and 2 fail once each: the budget of 2 covers both.
        fault.set_transient_reads([1, 2]);
        let pager = Pager::new(Box::new(fault));
        pager
            .read(f, 0, |p| assert_eq!(p.row(4, 0).unwrap(), &[3; 4]))
            .unwrap();
        assert_eq!(pager.stats().of(f).retries, 2);
        assert_eq!(pager.stats().of(f).reads, 1, "one page read, retried");
        assert_eq!(pager.stats().total().retries, 2);
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn transient_failures_beyond_the_budget_surface() {
        use crate::fault::{FaultDisk, FaultPlan};
        let mut inner = MemDisk::new();
        let f = inner.create_file().unwrap();
        inner.append_page(f, &Page::new(PageKind::Data)).unwrap();
        let mut fault =
            FaultDisk::new(Box::new(inner), FaultPlan::new(None));
        fault.set_transient_reads([1, 2, 3]);
        let pager = Pager::new(Box::new(fault));
        assert_eq!(DEFAULT_READ_RETRIES, 2);
        assert!(
            pager.read(f, 0, |_| ()).is_err(),
            "3 consecutive failures exceed a budget of 2"
        );
        assert_eq!(pager.stats().of(f).retries, 2, "budget fully spent");
        // The media has recovered by now; the next access succeeds.
        pager.read(f, 0, |_| ()).unwrap();
    }

    #[test]
    fn raw_write_repairs_a_checksum_failure() {
        use crate::fault::SharedMemDisk;
        let shared = SharedMemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        pager.set_checksums(Some(ChecksumSet::default()));
        let f = two_page_file(&pager);
        pager
            .write(f, 0, |p| p.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        let good = pager.read_page_raw(f, 0).unwrap();
        // Corrupt, observe the failure, repair with the saved image.
        use crate::disk::DiskManager;
        let mut raw = shared.clone();
        let mut bytes = Box::new(*good.as_bytes());
        bytes[13] ^= 0xff;
        raw.write_page(f, 0, &Page::from_bytes(bytes)).unwrap();
        assert!(pager.read(f, 0, |_| ()).is_err());
        pager.write_page_raw(f, 0, &good).unwrap();
        pager
            .read(f, 0, |p| assert_eq!(p.row(4, 0).unwrap(), &[9; 4]))
            .unwrap();
    }

    /// Stage some committed state the way the durable engine does:
    /// content flushed to the overlay, then the commit drains the
    /// staged set and the resize records.
    fn committed_staging_file(pager: &Pager) -> FileId {
        let f = pager.create_file().unwrap();
        let p0 = pager.append_page(f, PageKind::Data).unwrap();
        let p1 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p0, |pg| pg.push_row(4, &[1; 4]).unwrap())
            .unwrap();
        pager
            .write(f, p1, |pg| pg.push_row(4, &[2; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.clear_staged();
        pager.take_resized().unwrap();
        f
    }

    #[test]
    fn statement_rollback_restores_overlay_and_shapes() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);

        pager.begin_statement_undo();
        // The doomed statement: overwrite a committed page, grow the
        // file, and create a whole new file with content.
        pager
            .write(f, 0, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        let g = pager.create_file().unwrap();
        pager.append_page(g, PageKind::Data).unwrap();
        pager.flush_all().unwrap();
        pager.rollback_statement();
        assert!(!pager.has_deferred(), "healthy disk repairs inline");

        // Committed overlay images are back, the dead statement's
        // second row is gone, and the shapes match the commit.
        pager
            .read(f, 0, |pg| {
                assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]);
                assert!(pg.row(4, 1).is_err(), "statement row rolled back");
            })
            .unwrap();
        pager
            .read(f, 1, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[2; 4]))
            .unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 2, "tail trimmed");
        assert!(pager.page_count(g).is_err(), "created file dropped");
        assert!(pager.staged_pages().is_empty(), "staged set drained");
        assert!(pager.take_resized().unwrap().is_empty());
    }

    #[test]
    fn rollback_keeps_untouched_files_warm_cache() {
        let pager = Pager::in_memory_with_config(BufferConfig::uniform(
            4,
            EvictionPolicy::Lru,
        ));
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        let g = committed_staging_file(&pager);
        pager.materialize_overlay().unwrap();
        pager.invalidate_buffers().unwrap();
        let scope = pager.stats().scope();
        // Warm f's pool, then roll back a statement that only dirties g.
        pager.read(f, 0, |_| ()).unwrap();
        assert_eq!(scope.of(f).reads, 1);

        pager.begin_statement_undo();
        pager
            .write(g, 0, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.rollback_statement();

        // f never appeared in the undo log, so its frames survive the
        // rollback: the re-read is a buffer hit, not a disk read. Only
        // the touched file's potentially-polluted frames are discarded.
        pager.read(f, 0, |_| ()).unwrap();
        let io = scope.of(f);
        assert_eq!(io.reads, 1, "untouched file's warm cache survives");
        assert_eq!(io.hits, 1);
    }

    #[test]
    fn statement_rollback_restores_a_truncated_file() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        // Checkpoint: the committed content reaches the disk.
        pager.materialize_overlay().unwrap();

        pager.begin_statement_undo();
        pager.truncate(f).unwrap();
        let p = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.rollback_statement();
        assert!(!pager.has_deferred());

        assert_eq!(pager.page_count(f).unwrap(), 2);
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
        pager
            .read(f, 1, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[2; 4]))
            .unwrap();
    }

    #[test]
    fn rollback_defers_repairs_until_the_disk_recovers() {
        use crate::fault::{FaultDisk, FaultPlan, SharedMemDisk};
        let shared = SharedMemDisk::new();
        let plan = FaultPlan::new(None);
        let pager = Pager::new(Box::new(FaultDisk::new(
            Box::new(shared),
            plan.clone(),
        )));
        pager.set_staging(true);
        let f = committed_staging_file(&pager);

        pager.begin_statement_undo();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        // Disk fills up; the statement dies; rollback cannot trim the
        // placeholder tail yet.
        plan.set_enospc(true);
        pager.rollback_statement();
        assert!(pager.has_deferred(), "trim deferred: disk still full");
        assert!(pager.retry_deferred().is_err(), "still full");
        assert!(pager.has_deferred());
        // In-memory state is already rolled back: the committed images
        // are intact and readable throughout.
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
        // Space recovers; the deferred trim drains and shapes agree.
        plan.set_enospc(false);
        pager.retry_deferred().unwrap();
        assert!(!pager.has_deferred());
        assert_eq!(pager.page_count(f).unwrap(), 2);
    }

    #[test]
    fn discard_keeps_the_statement_effects() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        pager.begin_statement_undo();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.discard_statement_undo();
        pager.rollback_statement(); // no-op: nothing armed
        assert_eq!(pager.page_count(f).unwrap(), 3);
        pager
            .read(f, p2, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]))
            .unwrap();
    }

    #[test]
    fn failed_materialize_keeps_the_overlay_for_retry() {
        use crate::fault::{FaultDisk, FaultPlan, SharedMemDisk};
        let shared = SharedMemDisk::new();
        let plan = FaultPlan::new(None);
        let pager = Pager::new(Box::new(FaultDisk::new(
            Box::new(shared),
            plan.clone(),
        )));
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        plan.set_enospc(true);
        assert!(pager.materialize_overlay().is_err());
        // Nothing was consumed: the same checkpoint succeeds whole once
        // space returns, and the content reads back from disk.
        plan.set_enospc(false);
        assert_eq!(pager.materialize_overlay().unwrap(), vec![f]);
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
    }

    /// Concurrent readers over disjoint files: every thread's accounting
    /// lands, the ledger identity holds, and nobody deadlocks.
    #[test]
    fn concurrent_reads_account_exactly() {
        use std::sync::Arc;
        let pager = Arc::new(Pager::in_memory());
        let files: Vec<FileId> =
            (0..4).map(|_| two_page_file(&pager)).collect();
        std::thread::scope(|s| {
            for &f in &files {
                let pager = Arc::clone(&pager);
                s.spawn(move || {
                    for _ in 0..25 {
                        pager.read(f, 0, |_| ()).unwrap();
                        pager.read(f, 1, |_| ()).unwrap();
                    }
                });
            }
        });
        for &f in &files {
            let io = pager.stats().of(f);
            assert_eq!(io.accesses, 50);
            assert_eq!(io.hits + io.reads, 50);
        }
        assert!(pager.stats().is_consistent());
    }
}
