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
//! * [`BufferConfig`] selects the frames every file's pool gets;
//!   [`Pager::set_default_buffer_frames`] resizes every pool at runtime.
//! * Every pool — eagerly created by [`Pager::create_file`] or lazily on
//!   first access to a file restored from a persisted catalog — is built
//!   by one helper with the configured cap, so a relation buffers
//!   identically however its file came into view.
//! * Frames are **pinned** for the duration of a `read`/`write` callback:
//!   the eviction scan skips pinned frames, so a multi-page operation
//!   (ISAM directory descent, overflow-chain walk, a heap scan feeding a
//!   temporary) can never have the page it is looking at stolen from
//!   under it, at any cap.
//!
//! A buffer hit costs nothing, a miss fetches from the [`DiskManager`]
//! and bumps the file's read counter, and dirty frames are written back
//! on eviction or flush (bumping the write counter). A dirty frame
//! stays in its pool until its write-back succeeds, so a failed write
//! (a full disk) loses no change. [`IoStats`] additionally classifies
//! every buffered access as hit or miss and counts capacity evictions,
//! maintaining `hits + misses == accesses`. The bookkeeping of one
//! access is one lookup in a [`FileMap`] of pools and one bump through
//! the pool's own ledger handle, the file row's single writer, which is
//! reachable only under the pager's write guard and so bumps with a
//! plain load and store; only `write`, `append_page` and the flushes
//! touch the set of pools that may hold a dirty frame.
//! A *scratch* file ([`Pager::create_scratch_file`], a decomposition
//! temporary) is buffered and counted like any other, but its
//! write-backs always go to the device: it is never staged, logged,
//! rolled back, checksummed or listed in [`Pager::file_lengths`].
//!
//! Under WAL staging ([`Pager::set_staging`]) a statement changes no page
//! file on the device: the write-backs of pages whose bytes it changed,
//! its appends, truncations, creates and drops land in a *statement
//! layer* over the committed overlay and shapes (a file's staged length,
//! and whether it was truncated since the last checkpoint), and the only
//! device operations are creating a file and a logged drop. A page the
//! statement only walked (a chain insert writes every page it passes)
//! still counts its write-back, but stages nothing. The commit logs the
//! layer ([`Pager::statement_changes`]) and merges it
//! ([`Pager::commit_statement`]); a rollback drops it
//! ([`Pager::rollback_statement`]), so it is an in-memory discard. The
//! checkpoint ([`Pager::materialize_overlay`]) is the one place shapes
//! and pages reach the device, through the same [`set_len`] that WAL
//! replay uses.
//!
//! The pager is `Send + Sync`: every method takes `&self`, with the frame
//! tables, overlay, and disk handle behind one pager-wide `RwLock`. Page
//! accesses take the write lock and hold it across the user callback —
//! the frame stays pinned and the accounting stays exactly the
//! single-threaded sequence, so a one-thread run is bit-identical to the
//! old `&mut` pager — while pure introspection (page counts, config
//! getters) shares the read lock.

use crate::bloom::Bloom;
use crate::checksum::ChecksumSet;
use crate::disk::{
    drop_if_present, set_len, DiskManager, FileId, FileMap, FileSet,
    MemDisk,
};
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

struct Frame {
    page_no: u32,
    page: Page,
    dirty: bool,
    /// The frame's bytes differ from the image beneath it: the
    /// statement layer's, else the overlay's, else the device's. A
    /// frame that is not `changed` holds exactly the bytes of the image
    /// beneath it, so under staging only a `changed` frame is staged.
    changed: bool,
    /// Held by an in-flight `read`/`write` callback; never a victim.
    pinned: bool,
}

struct FilePool {
    cap: usize,
    /// Frame list, most-recently-used first. Tiny (cap is 1 in the
    /// paper's benchmark), so linear search beats any fancier structure.
    frames: Vec<Frame>,
    /// The one writer of the file's row of the pager's [`IoStats`]:
    /// every counter a page access, a write-back or a raw page I/O
    /// bumps on this file goes through it. Reachable only through
    /// `&mut FilePool`, that is, under the pager's write guard.
    io: FileLedger,
}

impl FilePool {
    /// The least-recently-used unpinned frame. `None` only when every
    /// frame is pinned.
    fn evict_index(&self) -> Option<usize> {
        self.frames.iter().rposition(|f| !f.pinned)
    }

    fn has_dirty(&self) -> bool {
        self.frames.iter().any(|f| f.dirty)
    }

    /// Make room if the pool is full, writing a dirty victim back
    /// first, and install `frame` in the MRU position. A victim whose
    /// write fails stays in the pool, still dirty, and nothing is
    /// installed.
    fn install(
        &mut self,
        store: &mut Store,
        file: FileId,
        frame: Frame,
    ) -> Result<()> {
        if self.frames.len() < self.cap {
            self.frames.insert(0, frame);
            return Ok(());
        }
        let idx = self.evict_index().ok_or_else(|| {
            Error::Internal(
                "buffer pool exhausted: every frame is pinned".into(),
            )
        })?;
        store.write_back(&mut self.io, file, &mut self.frames[idx])?;
        self.io.record(Counter::Evictions);
        self.frames[idx] = frame;
        self.frames[..=idx].rotate_right(1);
        Ok(())
    }

    /// Write every dirty frame back, marking each clean as its write
    /// lands; the first failure stops the flush with the rest still
    /// dirty.
    fn flush(&mut self, store: &mut Store, file: FileId) -> Result<()> {
        for frame in &mut self.frames {
            store.write_back(&mut self.io, file, frame)?;
        }
        Ok(())
    }
}

/// The frame pools and what configures them: kept apart from the
/// [`Store`] beneath them, so an access holds its pool while it fetches
/// a page or writes a victim back.
struct Pools {
    map: FileMap<FilePool>,
    /// Every pool's cap.
    default_cap: usize,
    /// Files whose pools may hold a dirty frame. Every dirty frame's
    /// file is in it, so a flush visits these pools and no others.
    dirty: FileSet,
    stats: Arc<IoStats>,
}

impl Pools {
    /// The one place pools are created: every path — eager
    /// [`Pager::create_file`], lazy fault-in or append on a file restored
    /// from a persisted catalog — gives the pool the configured cap.
    fn pool_mut(&mut self, file: FileId) -> &mut FilePool {
        let Pools {
            map,
            default_cap,
            stats,
            ..
        } = self;
        map.entry(file).or_insert_with(|| FilePool {
            cap: *default_cap,
            frames: Vec::new(),
            io: stats.writer(file),
        })
    }

    /// Flush `file`'s pool, if any; it leaves the dirty set once every
    /// write landed.
    fn flush(&mut self, store: &mut Store, file: FileId) -> Result<()> {
        if let Some(pool) = self.map.get_mut(&file) {
            pool.flush(store, file)?;
        }
        self.dirty.remove(&file);
        Ok(())
    }
}

/// A staged file's shape where it differs from the device: its current
/// length, and whether it was truncated since the last checkpoint (its
/// device pages are then dead, however many there are). Files without
/// one have the device's shape. In the statement layer, `truncated`
/// means truncated by the statement: the file's committed pages and
/// shape are then dead too.
#[derive(Debug, Clone, Copy)]
struct Shape {
    len: u32,
    truncated: bool,
}

impl Shape {
    /// This statement-layer shape over the file's committed one: a
    /// truncation since the checkpoint still holds.
    fn over(self, committed: Option<Shape>) -> Shape {
        Shape {
            len: self.len,
            truncated: self.truncated
                || committed.is_some_and(|c| c.truncated),
        }
    }
}

/// What the running statement changed (staging mode only), on top of
/// the committed overlay and shapes. The commit logs it and merges it
/// into them; a rollback drops it. A staged statement changes nothing
/// on the device but the files it creates (empty), so that is all a
/// rollback has to undo there.
#[derive(Default)]
struct Layer {
    /// After-images of the pages whose bytes the statement changed.
    pages: BTreeMap<(FileId, u32), Page>,
    /// Shapes the statement changed.
    shapes: BTreeMap<FileId, Shape>,
    /// Files the statement dropped, in drop order.
    drops: Vec<FileId>,
    /// Files the statement created.
    created: Vec<FileId>,
}

/// What a staged statement changed, in the order its commit logs it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatementChanges {
    /// Files whose length changed, with the new length, sorted.
    pub lengths: Vec<(FileId, u32)>,
    /// Pages whose bytes the statement changed, sorted;
    /// [`Pager::stamp_lsn`] stamps and returns each after-image.
    pub pages: Vec<(FileId, u32)>,
    /// Files dropped, in drop order.
    pub drops: Vec<FileId>,
}

/// Where pages live beneath the frames: the disk handle, the WAL
/// staging overlay, shapes and statement layer, the checksum sidecar
/// and the drop queue.
struct Store {
    disk: Box<dyn DiskManager>,
    /// WAL staging mode: write-backs, appends, truncations, creates and
    /// drops land in `layer`, not on disk.
    staging: bool,
    /// Committed after-images shadowing the disk (staging mode only).
    overlay: BTreeMap<(FileId, u32), Page>,
    /// Committed file shapes shadowing the disk's (staging mode only).
    shapes: BTreeMap<FileId, Shape>,
    /// The running statement's changes, shadowing `overlay` and
    /// `shapes`.
    layer: Layer,
    /// Device drops waiting for a ticket to be durable: drops a commit
    /// has logged, tagged with its ticket, and files a rolled-back
    /// statement created that the device refused to drop (ticket 0).
    logged_drops: Vec<(u64, FileId)>,
    /// Sidecar page checksums, verified on fault-in and refreshed on every
    /// real disk write. `None` (the paper default) skips both sides.
    checksums: Option<ChecksumSet>,
    /// Scratch files ([`Pager::create_scratch_file`]).
    scratch: FileSet,
}

/// Everything the pager-wide lock guards: the frame pools and the store
/// beneath them. The stats ledger is shared with the [`Pager`] itself,
/// so counter reads never contend with page traffic; but every counter
/// a page access bumps has one writer, the handle in the file's pool,
/// reachable only under the write guard (see [`crate::iostats`]).
struct PagerState {
    pools: Pools,
    store: Store,
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
    blooms: RwLock<FileMap<Arc<Bloom>>>,
    /// Bloom-guard master switch. Off by default: a skipped chain walk
    /// changes a query's input-page count, and the paper benchmarks'
    /// golden figures assume every probe walks its chain. The scale
    /// workload and anything else living past the paper turns it on
    /// *before* building (filters are installed at rebuild time).
    bloom_on: AtomicBool,
}

impl Store {
    /// Refresh a recorded checksum after the bytes were written outside
    /// the pager's own write path (no-op when verification is off).
    fn note_written(&mut self, file: FileId, page_no: u32, page: &Page) {
        match &mut self.checksums {
            Some(sums) if !self.scratch.contains(&file) => {
                sums.record(file, page_no, page)
            }
            _ => {}
        }
    }

    /// Every disk file but the scratch files, sorted.
    fn live_files(&self) -> Vec<FileId> {
        let mut files = self.disk.files();
        files.retain(|f| !self.scratch.contains(f));
        files
    }

    /// Does a change to `file` go through staging (statement layer,
    /// log, overlay)? Never for a scratch file.
    fn stages(&self, file: FileId) -> bool {
        self.staging && !self.scratch.contains(&file)
    }

    /// Fetch a page from disk with bounded retry (transient I/O and
    /// checksum failures are reissued; [`Error::NoSuchPage`] is not — a
    /// missing page will not appear on a second look) and verify it
    /// against the sidecar, adopting the sum when none is recorded.
    fn fetch_from_disk(
        &mut self,
        io: &mut FileLedger,
        file: FileId,
        page_no: u32,
    ) -> Result<Page> {
        let mut sums = self
            .checksums
            .as_mut()
            .filter(|_| !self.scratch.contains(&file));
        let mut attempt: u32 = 0;
        loop {
            let fetched =
                self.disk.read_page(file, page_no).and_then(|p| {
                    if let Some(sums) = &sums {
                        sums.verify(file, page_no, &p)?;
                    }
                    Ok(p)
                });
            match fetched {
                Ok(page) => {
                    if let Some(sums) = &mut sums {
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
                    io.record(Counter::Retries);
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

    /// `file`'s staged shape: the statement's, with the committed
    /// truncation folded in, else the committed one; `None` when the
    /// device has its shape.
    fn shape_of(&self, file: FileId) -> Option<Shape> {
        let committed = self.shapes.get(&file).copied();
        self.layer
            .shapes
            .get(&file)
            .map(|s| s.over(committed))
            .or(committed)
    }

    /// The current length of `file`: its staged shape's, else the
    /// device's.
    fn len_of(&self, file: FileId) -> Result<u32> {
        match self.shape_of(file) {
            Some(shape) => Ok(shape.len),
            None => self.disk.page_count(file),
        }
    }

    /// A page as staging holds it: the statement's image, else the
    /// committed one unless the statement truncated the file,
    /// `NoSuchPage` past the file's staged shape, or `None` when the
    /// device holds the page.
    fn staged_image(
        &self,
        file: FileId,
        page_no: u32,
    ) -> Option<Result<Page>> {
        let key = (file, page_no);
        let cut = self.layer.shapes.get(&file).is_some_and(|s| s.truncated);
        let page =
            self.layer.pages.get(&key).or_else(|| {
                (!cut).then(|| self.overlay.get(&key)).flatten()
            });
        if let Some(page) = page {
            return Some(Ok(page.clone()));
        }
        self.shape_of(file)
            .filter(|s| s.truncated || page_no >= s.len)
            .map(|_| Err(Error::NoSuchPage(page_no)))
    }

    /// Write `frame` back if it is dirty, counting one write — into the
    /// statement layer when the file stages and the frame `changed`,
    /// else to the device — and mark it clean once the write landed.
    fn write_back(
        &mut self,
        io: &mut FileLedger,
        file: FileId,
        frame: &mut Frame,
    ) -> Result<()> {
        if !frame.dirty {
            return Ok(());
        }
        let (page_no, page) = (frame.page_no, &frame.page);
        if self.stages(file) {
            if frame.changed {
                self.layer.pages.insert((file, page_no), page.clone());
                frame.changed = false;
            }
        } else {
            self.disk.write_page(file, page_no, page)?;
            self.note_written(file, page_no, page);
        }
        io.record(Counter::Writes);
        frame.dirty = false;
        Ok(())
    }
}

/// Remove `file`'s pages from a staged page map: they are being
/// destroyed.
fn purge(pages: &mut BTreeMap<(FileId, u32), Page>, file: FileId) {
    let keys: Vec<(FileId, u32)> = pages
        .range((file, 0)..=(file, u32::MAX))
        .map(|(k, _)| *k)
        .collect();
    for key in keys {
        pages.remove(&key);
    }
}

impl PagerState {
    /// Bring the frame for (`file`, `page_no`) to the MRU position of
    /// its pool and hand it back, fetching from disk on a miss. Every
    /// *successful* call is one buffered page access — a hit or a miss
    /// — recorded together with its hit/read half so the ledger
    /// identity `hits + reads == accesses` survives a fetch that errors
    /// out (stale snapshot reads against a concurrently reorganized
    /// file do that in normal operation).
    fn fault_in(
        &mut self,
        file: FileId,
        page_no: u32,
    ) -> Result<&mut Frame> {
        let PagerState { pools, store } = self;
        let pool = pools.pool_mut(file);
        if let Some(pos) =
            pool.frames.iter().position(|f| f.page_no == page_no)
        {
            pool.frames[..=pos].rotate_right(1);
            pool.io.record_access(Counter::Hits);
            return Ok(&mut pool.frames[0]);
        }
        // Miss: fetch (the statement layer, then the committed overlay
        // and shapes, shadow the disk;
        // disk reads are checksum-verified with bounded retry), then
        // install (evicting as needed). A staged page past the device's
        // shape always has a staged image or a frame.
        let page = match store.staged_image(file, page_no) {
            Some(page) => page?,
            None => store.fetch_from_disk(&mut pool.io, file, page_no)?,
        };
        let frame = Frame {
            page_no,
            page,
            dirty: false,
            changed: false,
            pinned: false,
        };
        pool.install(store, file, frame)?;
        pool.io.record_access(Counter::Reads);
        Ok(&mut pool.frames[0])
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
                pools: Pools {
                    map: FileMap::default(),
                    default_cap: config.default_frames.max(1),
                    dirty: FileSet::default(),
                    stats: Arc::clone(&stats),
                },
                store: Store {
                    disk,
                    staging: false,
                    overlay: BTreeMap::new(),
                    shapes: BTreeMap::new(),
                    layer: Layer::default(),
                    logged_drops: Vec::new(),
                    checksums: None,
                    scratch: FileSet::default(),
                },
            }),
            stats,
            blooms: RwLock::new(FileMap::default()),
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

    /// Change the buffer frames of every file: existing pools shrink or
    /// grow now, and pools created later get the same cap. A shrink
    /// sheds least-recently-used frames through the eviction path,
    /// writing dirty ones back (counted); a victim whose write-back
    /// fails stays in its pool, still dirty, and the error stops the
    /// resize — calling it again finishes the shrink.
    pub fn set_default_buffer_frames(&self, cap: usize) -> Result<()> {
        let cap = cap.max(1);
        let PagerState { pools, store } = &mut *self.st();
        pools.default_cap = cap;
        for (&file, pool) in pools.map.iter_mut() {
            pool.cap = cap;
            while pool.frames.len() > cap {
                let idx = pool.evict_index().ok_or_else(|| {
                    Error::Internal(
                        "cannot shrink pool: all frames pinned".into(),
                    )
                })?;
                store.write_back(
                    &mut pool.io,
                    file,
                    &mut pool.frames[idx],
                )?;
                pool.frames.remove(idx);
                pool.io.record(Counter::Evictions);
            }
        }
        Ok(())
    }

    /// The access counters: lifetime totals, and [`IoStats::scope`] to
    /// price one unit of work. Reading is `&self` and lock-free; page
    /// accesses record through their pool's writer, under the pager's
    /// write guard.
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

    fn bloom_map(&self) -> RwLockWriteGuard<'_, FileMap<Arc<Bloom>>> {
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
        self.stats.bump(file, verdict, 1);
        Some(maybe)
    }

    // --- Corruption defense ---------------------------------------------

    /// Install a checksum sidecar (or `None` to turn verification off,
    /// the paper default). Pages with no recorded sum are adopted on
    /// first read, so enabling with an empty [`ChecksumSet`] over an
    /// existing database is safe.
    pub fn set_checksums(&self, sums: Option<ChecksumSet>) {
        self.st().store.checksums = sums;
    }

    /// Is checksum verification on?
    pub fn checksums_enabled(&self) -> bool {
        self.st_read().store.checksums.is_some()
    }

    /// A snapshot of the live checksum sidecar, if verification is on.
    pub fn checksums_snapshot(&self) -> Option<ChecksumSet> {
        self.st_read().store.checksums.clone()
    }

    /// Read a page past the buffer: no checksum verification, no retry.
    /// This is the scrubber's view — it must be able to look at a page
    /// the verified path would refuse to return. It agrees with
    /// [`Pager::page_count`]: a staged page reads its overlay image, a
    /// page past a staged shape does not exist, the rest read the
    /// device. Counted as one access + one read so scrub I/O is visible
    /// in the ledger without breaking its `hits + reads == accesses`
    /// identity.
    pub fn read_page_raw(
        &self,
        file: FileId,
        page_no: u32,
    ) -> Result<Page> {
        // Recorded through the file's pool, like every access.
        let PagerState { pools, store: st } = &mut *self.st();
        let page = match st.staged_image(file, page_no) {
            Some(page) => page?,
            None => st.disk.read_page(file, page_no)?,
        };
        pools.pool_mut(file).io.record_access(Counter::Reads);
        Ok(page)
    }

    /// Check a [`Pager::read_page_raw`] image against the sidecar sum
    /// of its device page. A staged page has no sum until the
    /// checkpoint writes it, so it passes, as does any page without
    /// a recorded sum.
    pub fn verify_raw(
        &self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> Result<()> {
        let st = &self.st_read().store;
        let key = (file, page_no);
        let staged = st.layer.pages.contains_key(&key)
            || st.overlay.contains_key(&key);
        match &st.checksums {
            Some(sums) if !staged => sums.verify(file, page_no, page),
            _ => Ok(()),
        }
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
        let PagerState { pools, store: st } = &mut *self.st();
        st.disk.write_page(file, page_no, page)?;
        st.note_written(file, page_no, page);
        st.layer.pages.remove(&(file, page_no));
        st.overlay.remove(&(file, page_no));
        let pool = pools.pool_mut(file);
        pool.io.record(Counter::Writes);
        pool.frames.retain(|f| f.page_no != page_no);
        Ok(())
    }

    /// Drop every buffered frame (writing dirty ones back) so the next
    /// access of each page is a cold read. The harness calls this between
    /// queries so each query starts with cold buffers, as a fresh query
    /// would in the prototype. Flushes are not evictions: the eviction
    /// counter is untouched. A pool whose write-back fails keeps its
    /// frames, the unwritten ones still dirty.
    pub fn invalidate_buffers(&self) -> Result<()> {
        let PagerState { pools, store } = &mut *self.st();
        for (&f, pool) in pools.map.iter_mut() {
            pool.flush(store, f)?;
            pool.frames.clear();
        }
        pools.dirty.clear();
        Ok(())
    }

    /// Create a new empty file. Under staging the device file gets one
    /// placeholder page, which its staged shape marks dead: until the
    /// checkpoint writes the file's pages, they live in the overlay and
    /// the log, and the placeholder gives a scrub or a fault injector a
    /// page to find on the device. The commit logs the file's length,
    /// so replay cuts the placeholder away; a rollback drops the file.
    pub fn create_file(&self) -> Result<FileId> {
        let PagerState { pools, store: st } = &mut *self.st();
        let id = st.disk.create_file()?;
        pools.pool_mut(id);
        if st.staging {
            st.layer.created.push(id);
            st.disk.append_page(id, &Page::new(PageKind::Data))?;
            st.layer.shapes.insert(
                id,
                Shape {
                    len: 0,
                    truncated: true,
                },
            );
        }
        Ok(id)
    }

    /// Create a new empty scratch file (see the module doc). Only the
    /// statement that creates it flushes it, and it must drop it;
    /// [`Pager::drop_file`] then removes it at once.
    pub fn create_scratch_file(&self) -> Result<FileId> {
        let PagerState { pools, store: st } = &mut *self.st();
        let id = st.disk.create_scratch_file()?;
        pools.pool_mut(id);
        st.scratch.insert(id);
        Ok(id)
    }

    /// Delete a file, its pages and its buffers. Like
    /// [`Pager::truncate`], pending (dirty) writes are intentionally
    /// discarded without write-back accounting — the data they would have
    /// persisted is being destroyed.
    pub fn drop_file(&self, file: FileId) -> Result<()> {
        self.bloom_drop(file);
        let PagerState { pools, store: st } = &mut *self.st();
        pools.map.remove(&file);
        pools.dirty.remove(&file);
        self.stats.retire(file);
        if let Some(sums) = &mut st.checksums {
            sums.drop_file(file);
        }
        if st.stages(file) {
            // The statement's pages and shape go now, the committed ones
            // at its commit, and the device file once that commit is
            // durable: a crash in between must not have destroyed pages
            // a committed state still references.
            purge(&mut st.layer.pages, file);
            st.layer.shapes.remove(&file);
            st.layer.drops.push(file);
            return Ok(());
        }
        st.scratch.remove(&file);
        st.disk.drop_file(file)
    }

    /// Truncate a file to zero pages. The pool survives, but its frames
    /// are discarded: pending dirty writes are intentionally dropped
    /// *without* write-back accounting, exactly as [`Pager::drop_file`]
    /// drops them — pages that no longer exist cost no output. Neither
    /// counts evictions.
    pub fn truncate(&self, file: FileId) -> Result<()> {
        self.bloom_drop(file);
        let PagerState { pools, store: st } = &mut *self.st();
        if let Some(pool) = pools.map.get_mut(&file) {
            pool.frames.clear();
        }
        pools.dirty.remove(&file);
        if st.stages(file) {
            // The committed pages stay until the commit, the device's
            // until the checkpoint.
            purge(&mut st.layer.pages, file);
            st.layer.shapes.insert(
                file,
                Shape {
                    len: 0,
                    truncated: true,
                },
            );
            return Ok(());
        }
        if let Some(sums) = &mut st.checksums {
            sums.truncate(file, 0);
        }
        st.disk.truncate(file)
    }

    /// Number of pages in `file`.
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        self.st_read().store.len_of(file)
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
        let frame = st.fault_in(file, page_no)?;
        frame.pinned = true;
        let r = f(&frame.page);
        frame.pinned = false;
        Ok(r)
    }

    /// Write access to a page through the buffer; marks the frame dirty
    /// (one counted write, whether or not the callback changes a byte).
    /// Under staging it also notes whether the callback changed the
    /// page, so an unchanged page is not staged. The frame is pinned
    /// (and the pager lock held) for the duration of the callback.
    pub fn write<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        let st = &mut *self.st();
        // Before the callback, so a dirty frame is never outside the
        // set.
        st.pools.dirty.insert(file);
        let stages = st.store.stages(file);
        let frame = st.fault_in(file, page_no)?;
        frame.dirty = true;
        frame.pinned = true;
        let before =
            (stages && !frame.changed).then(|| *frame.page.as_bytes());
        let r = f(&mut frame.page);
        frame.changed = before.is_none_or(|b| &b != frame.page.as_bytes());
        frame.pinned = false;
        Ok(r)
    }

    /// Append a fresh page of the given kind to `file`, placing it in the
    /// buffer dirty. The write is counted once, when the frame is evicted
    /// or flushed — so bulk-loading a page counts one output page, exactly
    /// as the paper's output-cost accounting expects. Materializing a new
    /// page is not a buffered page access (no hit, no miss).
    pub fn append_page(&self, file: FileId, kind: PageKind) -> Result<u32> {
        let PagerState { pools, store: st } = &mut *self.st();
        let page = Page::new(kind);
        let page_no = if st.stages(file) {
            // The file grows in its staged shape only: the dirty frame
            // installed below stages the page's image, and the commit
            // logs the new length.
            let len = st.len_of(file)?;
            let truncated =
                st.layer.shapes.get(&file).is_some_and(|s| s.truncated);
            st.layer.shapes.insert(
                file,
                Shape {
                    len: len + 1,
                    truncated,
                },
            );
            len
        } else {
            let page_no = st.disk.append_page(file, &page)?;
            st.note_written(file, page_no, &page);
            page_no
        };
        let frame = Frame {
            page_no,
            page,
            dirty: true,
            changed: true,
            pinned: false,
        };
        pools.pool_mut(file).install(st, file, frame)?;
        pools.dirty.insert(file);
        Ok(page_no)
    }

    /// Write all dirty frames of `file` back to disk.
    pub fn flush_file(&self, file: FileId) -> Result<()> {
        let PagerState { pools, store } = &mut *self.st();
        pools.flush(store, file)
    }

    /// Write all dirty frames back to disk, except scratch files' (they
    /// may belong to another thread's running statement). Visits only
    /// the pools that may hold a dirty frame, in file order, under one
    /// lock.
    pub fn flush_all(&self) -> Result<()> {
        let PagerState { pools, store } = &mut *self.st();
        let mut files: Vec<FileId> = pools
            .dirty
            .iter()
            .filter(|f| !store.scratch.contains(f))
            .copied()
            .collect();
        files.sort_unstable();
        for f in files {
            pools.flush(store, f)?;
        }
        Ok(())
    }

    // --- WAL staging ----------------------------------------------------
    //
    // In staging mode a statement changes no file on the device but the
    // empty files it creates: every write-back (eviction or flush) of a
    // changed frame lands in the statement layer, which shadows the
    // committed overlay for subsequent reads, and appends and
    // truncations change the file's shape there (its length, and
    // whether the statement truncated it), which `page_count` reads. A
    // write that changes no byte stages nothing (`Frame::changed`). The
    // commit logs the layer's lengths, images and drops, then merges it
    // into the committed overlay and shapes; a statement that dies
    // mid-flight (disk full, fsync failure) drops it. A checkpoint
    // (`materialize_overlay`) is the one place the shapes and the images
    // reach the device.

    /// Switch staging mode (see above). Turn it on at open, before any
    /// writes; it is not meant to be toggled mid-transaction.
    pub fn set_staging(&self, on: bool) {
        self.st().store.staging = on;
    }

    /// What the running statement changed: the records its commit logs.
    /// After a `flush_all` every page whose bytes it changed has its
    /// after-image in the layer.
    pub fn statement_changes(&self) -> StatementChanges {
        let Layer {
            pages,
            shapes,
            drops,
            ..
        } = &self.st_read().store.layer;
        StatementChanges {
            lengths: shapes.iter().map(|(&f, s)| (f, s.len)).collect(),
            pages: pages.keys().copied().collect(),
            drops: drops.clone(),
        }
    }

    /// Stamp `lsn` into the statement's image of (`file`, `page_no`) —
    /// and into any resident frame of the same page — returning a copy
    /// of the stamped image for the log. Errors if the statement wrote
    /// no such page (commit must flush first).
    pub fn stamp_lsn(
        &self,
        file: FileId,
        page_no: u32,
        lsn: u32,
    ) -> Result<Page> {
        let PagerState { pools, store: st } = &mut *self.st();
        let page =
            st.layer.pages.get_mut(&(file, page_no)).ok_or_else(|| {
                Error::Internal(format!(
                    "page {page_no} of {file:?} is not staged"
                ))
            })?;
        page.set_lsn(lsn);
        let copy = page.clone();
        if let Some(pool) = pools.map.get_mut(&file) {
            if let Some(f) =
                pool.frames.iter_mut().find(|f| f.page_no == page_no)
            {
                f.page.set_lsn(lsn);
            }
        }
        Ok(copy)
    }

    /// The commit holding `ticket` logged the statement: merge its
    /// layer into the committed overlay and shapes — a file it truncated
    /// or dropped loses its committed pages first — and queue its drops
    /// on the ticket for [`Pager::execute_drops`].
    pub fn commit_statement(&self, ticket: u64) {
        let st = &mut self.st().store;
        let Layer {
            pages,
            shapes,
            drops,
            ..
        } = std::mem::take(&mut st.layer);
        for (file, shape) in shapes {
            if shape.truncated {
                purge(&mut st.overlay, file);
            }
            let merged = shape.over(st.shapes.get(&file).copied());
            st.shapes.insert(file, merged);
        }
        st.overlay.extend(pages);
        for file in drops {
            purge(&mut st.overlay, file);
            st.shapes.remove(&file);
            st.logged_drops.push((ticket, file));
        }
    }

    /// Physically drop every file whose drop waits on a ticket at or
    /// below `ticket` — those commits are durable (`u64::MAX`: a
    /// checkpoint retires them all). A logged drop must eventually
    /// happen, but nothing reads the file meanwhile: one the disk
    /// refuses (out of space, device error) only strands space and
    /// stays queued for the next call.
    pub fn execute_drops(&self, ticket: u64) {
        let Store {
            disk,
            checksums,
            logged_drops,
            ..
        } = &mut self.st().store;
        logged_drops.retain(|&(t, file)| {
            t > ticket
                || drop_if_present(disk.as_mut(), checksums, file).is_err()
        });
    }

    /// Drop the running statement's layer. Nothing here can fail: the
    /// discard is in memory, and a file the statement created that the
    /// device refuses to drop waits in the drop queue (see
    /// [`Pager::execute_drops`]).
    ///
    /// Runs under the pager-wide lock in one critical section, so
    /// concurrent snapshot readers never observe a half-rolled-back
    /// pager.
    pub fn rollback_statement(&self) {
        let PagerState { pools, store: st } = &mut *self.st();
        let Layer {
            pages,
            shapes,
            created,
            ..
        } = std::mem::take(&mut st.layer);
        // Discard the buffered frames of every file the statement
        // changed WITHOUT write-back: dirty frames hold the dead
        // statement's content and must not re-pollute the layer. Pools
        // of untouched files cache only committed pages — the warm
        // cache stays.
        let mut polluted: BTreeSet<FileId> =
            pages.keys().map(|(f, _)| *f).collect();
        // A dirty frame is a write of the dead statement that never
        // reached the layer: a commit flushes every frame first. A
        // scratch file's frames belong to a statement still running.
        polluted.extend(pools.dirty.iter().copied().filter(|f| {
            !st.scratch.contains(f)
                && pools.map.get(f).is_some_and(FilePool::has_dirty)
        }));
        polluted.extend(shapes.keys().copied());
        polluted.extend(created.iter().copied());
        for f in &polluted {
            if let Some(pool) = pools.map.get_mut(f) {
                pool.frames.clear();
            }
            pools.dirty.remove(f);
        }
        let Store {
            disk,
            checksums,
            logged_drops,
            ..
        } = st;
        for f in created {
            if drop_if_present(disk.as_mut(), checksums, f).is_err() {
                logged_drops.push((0, f));
            }
        }
    }

    /// Checkpoint the committed staged files onto the device: give each
    /// its staged shape (a truncated file is cut to zero first, pages
    /// past the device's length are appended) and write every overlay
    /// page in place, counting one write per page — attribute it to a
    /// phase if it should be visible as checkpoint cost. Returns the
    /// files touched, sorted, so the caller can sync them. A statement
    /// layer is not written: merge it first ([`Pager::commit_statement`]).
    pub fn materialize_overlay(&self) -> Result<Vec<FileId>> {
        // Iterate without consuming: a mid-loop failure (disk full
        // during a checkpoint) must not lose the committed images not
        // yet written. Overlay and shapes are cleared only once every
        // page landed; a retried checkpoint re-truncates what is
        // flagged and re-writes every page, so it ends the same.
        let PagerState { pools, store } = &mut *self.st();
        let Store {
            disk,
            overlay,
            shapes,
            checksums,
            ..
        } = store;
        let disk = disk.as_mut();
        let mut files: BTreeSet<FileId> = shapes.keys().copied().collect();
        files.extend(overlay.keys().map(|(f, _)| *f));
        for &file in &files {
            let shape = shapes.get(&file).copied();
            if shape.is_some_and(|s| s.truncated) {
                set_len(disk, checksums, file, 0)?;
            }
            let Ok(mut end) = disk.page_count(file) else {
                continue;
            };
            for (&(_, page_no), page) in
                overlay.range((file, 0)..=(file, u32::MAX))
            {
                if page_no < end {
                    disk.write_page(file, page_no, page)?;
                } else {
                    set_len(disk, checksums, file, page_no)?;
                    disk.append_page(file, page)?;
                    end = page_no + 1;
                }
                if let Some(sums) = checksums {
                    sums.record(file, page_no, page);
                }
                pools.pool_mut(file).io.record(Counter::Writes);
            }
            if let Some(shape) = shape {
                set_len(disk, checksums, file, shape.len)?;
            }
        }
        overlay.clear();
        shapes.clear();
        Ok(files.into_iter().collect())
    }

    /// Force one file's pages to stable storage.
    pub fn sync_file(&self, file: FileId) -> Result<()> {
        self.st().store.disk.sync(file)
    }

    /// Force every live file's pages to stable storage.
    pub fn sync_all(&self) -> Result<()> {
        let st = &mut self.st().store;
        for f in st.live_files() {
            st.disk.sync(f)?;
        }
        Ok(())
    }

    /// Current length of every live disk file, sorted (the checkpoint's
    /// file-length snapshot). Scratch files are not listed.
    pub fn file_lengths(&self) -> Result<Vec<(FileId, u32)>> {
        let st = &self.st_read().store;
        st.live_files()
            .into_iter()
            .map(|f| Ok((f, st.len_of(f)?)))
            .collect()
    }

    /// Test hook: force a frame's pin bit, bypassing the callback
    /// discipline, to exercise the all-pinned eviction guard.
    #[cfg(test)]
    fn force_pin(&self, file: FileId, idx: usize, on: bool) {
        let st = &mut *self.st();
        if let Some(frame) = st
            .pools
            .map
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
        self.st().pools.map.remove(&file);
    }

    /// Test hook: the files that hold a dirty frame but are missing from
    /// the dirty set, which must be none; and the set's size.
    #[cfg(test)]
    fn dirty_tracking(&self) -> (Vec<FileId>, usize) {
        let Pools { map, dirty, .. } = &self.st_read().pools;
        let untracked = map
            .iter()
            .filter(|(f, pool)| pool.has_dirty() && !dirty.contains(f))
            .map(|(f, _)| *f)
            .collect();
        (untracked, dirty.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::FileIo;

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
    fn a_vanished_pool_is_recreated_on_demand() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 0, |_| ()).unwrap();
        // Corrupt the in-memory bookkeeping: the pool disappears while
        // the file (and its buffered frame) is still live. Public entry
        // points recreate the pool on demand instead of aborting the
        // process.
        pager.corrupt_drop_pool(f);
        pager.read(f, 0, |_| ()).unwrap();
        pager.set_default_buffer_frames(2).unwrap();
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
        pager.set_default_buffer_frames(2).unwrap();
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
        pager.set_default_buffer_frames(2).unwrap();
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
        assert_eq!(pager.statement_changes().pages, vec![(f, p)]);
        // The layer shadows the (still empty) on-disk page for reads.
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, p, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]))
            .unwrap();
        // Commit stamps the LSN into the image and merges the layer;
        // checkpoint materializes.
        let img = pager.stamp_lsn(f, p, 42).unwrap();
        assert_eq!(img.lsn(), 42);
        pager.commit_statement(1);
        assert_eq!(pager.statement_changes(), StatementChanges::default());
        assert_eq!(pager.materialize_overlay().unwrap(), vec![f]);
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, p, |pg| {
                assert_eq!(pg.lsn(), 42);
                assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]);
            })
            .unwrap();
    }

    /// A staged write whose callback only reads counts its write like
    /// any other, but stages no after-image: only the page whose bytes
    /// changed is in the statement layer.
    #[test]
    fn staging_keeps_only_changed_pages() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        let io = pager.stats().scope();
        let walked = pager.write(f, 0, |pg| pg.has_room(4)).unwrap();
        assert!(walked, "the callback only read the page");
        pager
            .write(f, 1, |pg| pg.push_row(4, &[5; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        assert_eq!(io.of(f).writes, 2, "each write counts one");
        assert_eq!(pager.statement_changes().pages, vec![(f, 1)]);
        // The unchanged page still reads its committed image.
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, 0, |pg| {
                assert_eq!(pg.count(), 1);
                assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]);
            })
            .unwrap();
    }

    #[test]
    fn staging_defers_drops_and_tracks_lengths() {
        let disk = MemDisk::new();
        let pager = Pager::new(Box::new(disk.clone()));
        pager.set_staging(true);
        let f = pager.create_file().unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        assert_eq!(pager.statement_changes().lengths, vec![(f, 2)]);
        pager.commit_statement(1);
        assert!(pager.statement_changes().lengths.is_empty(), "merged");
        assert_eq!(pager.page_count(f).unwrap(), 2);
        pager.drop_file(f).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 1, "the device keeps it");
        assert_eq!(pager.statement_changes().drops, vec![f]);
        pager.commit_statement(7);
        assert!(pager.statement_changes().drops.is_empty(), "queued");
        // Still on disk until the commit that logs the drop is durable:
        // the placeholder page alone, as its staged pages never got
        // there.
        assert_eq!(pager.page_count(f).unwrap(), 1);
        pager.execute_drops(6);
        assert_eq!(pager.page_count(f).unwrap(), 1, "7 is not durable yet");
        pager.execute_drops(7);
        assert!(pager.page_count(f).is_err());
    }

    /// Raw reads agree with `page_count` under staging: staged pages
    /// read their overlay image (which no device sum covers yet), pages
    /// past a staged shape do not exist, and device pages still verify
    /// against their sums.
    #[test]
    fn raw_reads_see_the_staged_shape() {
        let disk = MemDisk::new();
        let pager = Pager::new(Box::new(disk.clone()));
        pager.set_staging(true);
        pager.set_checksums(Some(ChecksumSet::default()));
        let f = committed_staging_file(&pager);
        pager.materialize_overlay().unwrap();
        pager
            .write(f, 0, |pg| pg.push_row(4, &[3; 4]).unwrap())
            .unwrap();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager.flush_all().unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 3);
        for p in 0..3 {
            let img = pager.read_page_raw(f, p).unwrap();
            pager.verify_raw(f, p, &img).unwrap();
        }
        assert_eq!(pager.read_page_raw(f, 0).unwrap().count(), 2);
        assert_eq!(pager.read_page_raw(f, p2).unwrap().count(), 0);
        // A device page still answers to its sum.
        let mut bytes =
            Box::new(*pager.read_page_raw(f, 1).unwrap().as_bytes());
        bytes[500] ^= 0x01;
        let bad = Page::from_bytes(bytes);
        assert!(pager.verify_raw(f, 1, &bad).is_err());
        pager.truncate(f).unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 0);
        assert!(matches!(
            pager.read_page_raw(f, 0),
            Err(Error::NoSuchPage(0))
        ));
        assert_eq!(
            disk.clone().page_count(f).unwrap(),
            2,
            "device as checkpointed"
        );
    }

    #[test]
    fn corruption_error_round_trips_through_the_pager() {
        // Satellite 1: flip a byte under the pager's feet; the verified
        // read path must surface Error::Corruption locating the page —
        // and a clean page on the same file must still read fine.
        let shared = MemDisk::new();
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
        let shared = MemDisk::new();
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
    /// content flushed to the statement layer, then the commit merges
    /// it.
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
        pager.commit_statement(1);
        f
    }

    /// A scratch file beside a staged statement: its pages bypass
    /// staging for the device, a commit's flush and a rollback leave it
    /// alone, checksums skip it, and its drop is immediate.
    #[test]
    fn scratch_files_bypass_staging_rollback_and_checksums() {
        let disk = MemDisk::new();
        let pager = Pager::new(Box::new(disk.clone()));
        pager.set_staging(true);
        pager.set_checksums(Some(ChecksumSet::default()));
        let f = committed_staging_file(&pager);
        let s = pager.create_scratch_file().unwrap();
        let p = pager.append_page(s, PageKind::Data).unwrap();
        pager
            .write(s, p, |pg| pg.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager
            .write(f, 0, |pg| pg.push_row(4, &[3; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        assert_eq!(pager.statement_changes().pages, vec![(f, 0)]);
        assert!(pager.statement_changes().lengths.is_empty());
        // The dead writer's rollback keeps the scratch file's frame.
        pager.rollback_statement();
        let writes = pager.stats().total().writes;
        pager.invalidate_buffers().unwrap();
        assert_eq!(pager.stats().total().writes, writes + 1);
        let on_disk = disk.clone().read_page(s, 0).unwrap();
        assert_eq!(on_disk.row(4, 0).unwrap(), &[7; 4]);
        assert!(pager.statement_changes().pages.is_empty());
        assert_eq!(pager.read(s, 0, |pg| pg.count()).unwrap(), 1);
        let sums = pager.checksums_snapshot().unwrap();
        assert!(sums.get(s, 0).is_none(), "scratch pages are unsummed");
        assert_eq!(pager.file_lengths().unwrap(), vec![(f, 2)]);
        pager.drop_file(s).unwrap();
        assert!(pager.statement_changes().drops.is_empty());
        assert_eq!(disk.files(), vec![f]);
    }

    #[test]
    fn statement_rollback_restores_overlay_and_shapes() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);

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
        assert!(
            pager.statement_changes().pages.is_empty(),
            "layer dropped"
        );
        assert!(pager.statement_changes().lengths.is_empty());
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

        pager
            .write(g, 0, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.rollback_statement();

        // f never appeared in the statement layer, so its frames survive
        // the rollback: the re-read is a buffer hit, not a disk read. Only
        // the touched file's potentially-polluted frames are discarded.
        pager.read(f, 0, |_| ()).unwrap();
        let io = scope.of(f);
        assert_eq!(io.reads, 1, "untouched file's warm cache survives");
        assert_eq!(io.hits, 1);
    }

    #[test]
    fn rollback_discards_a_write_still_in_its_frame() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        pager
            .write(f, 0, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.rollback_statement();
        pager
            .read(f, 0, |pg| {
                assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]);
                assert!(pg.row(4, 1).is_err(), "statement row rolled back");
            })
            .unwrap();
    }

    #[test]
    fn statement_rollback_restores_a_truncated_file() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        // Checkpoint: the committed content reaches the disk.
        pager.materialize_overlay().unwrap();

        pager.truncate(f).unwrap();
        let p = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.rollback_statement();

        assert_eq!(pager.page_count(f).unwrap(), 2);
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
        pager
            .read(f, 1, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[2; 4]))
            .unwrap();
    }

    /// A staged statement changes no page file on the device, so its
    /// rollback has nothing to repair there: under a full disk it
    /// issues no device op and leaves the pager healthy.
    #[test]
    fn rollback_under_a_full_disk_does_no_io_and_leaves_the_pager_healthy()
    {
        use crate::fault::{FaultDisk, FaultPlan};
        let shared = MemDisk::new();
        let plan = FaultPlan::new(None);
        let pager = Pager::new(Box::new(FaultDisk::new(
            Box::new(shared.clone()),
            plan.clone(),
        )));
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        let g = committed_staging_file(&pager);
        pager.materialize_overlay().unwrap();

        let ops = plan.ops_charged();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.truncate(g).unwrap();
        pager.flush_all().unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 3);
        assert_eq!(pager.page_count(g).unwrap(), 0);
        // The disk fills up and the statement dies.
        plan.set_enospc(true);
        pager.rollback_statement();
        assert_eq!(
            plan.ops_charged(),
            ops,
            "no device op since the checkpoint"
        );
        assert_eq!(shared.page_count(f).unwrap(), 2);
        assert_eq!(shared.page_count(g).unwrap(), 2);
        // The committed state reads back whole, from the disk.
        assert_eq!(pager.page_count(f).unwrap(), 2);
        assert_eq!(pager.page_count(g).unwrap(), 2);
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
        pager
            .read(g, 1, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[2; 4]))
            .unwrap();
        assert!(pager.statement_changes().pages.is_empty());
        assert!(pager.statement_changes().lengths.is_empty());
        // Space returns: nothing was left to repair.
        plan.set_enospc(false);
        assert!(pager.materialize_overlay().unwrap().is_empty());
        assert_eq!(plan.ops_charged(), ops);
    }

    /// A file a rolled-back statement created is dropped from the
    /// device; one the device refuses to drop waits in the drop queue.
    #[test]
    fn a_refused_drop_of_a_created_file_waits_in_the_queue() {
        use crate::fault::{FaultDisk, FaultPlan};
        let shared = MemDisk::new();
        let plan = FaultPlan::new(None);
        let pager = Pager::new(Box::new(FaultDisk::new(
            Box::new(shared.clone()),
            plan.clone(),
        )));
        pager.set_staging(true);
        let g = pager.create_file().unwrap();
        pager.append_page(g, PageKind::Data).unwrap();
        pager.append_page(g, PageKind::Data).unwrap();
        assert_eq!(pager.page_count(g).unwrap(), 2);
        assert_eq!(shared.page_count(g).unwrap(), 1, "one placeholder");
        plan.set_enospc(true);
        pager.rollback_statement();
        assert_eq!(shared.files(), vec![g], "the device refused");
        assert!(
            pager.statement_changes().drops.is_empty(),
            "nothing to log"
        );
        pager.execute_drops(0);
        assert_eq!(shared.files(), vec![g], "still refused");
        plan.set_enospc(false);
        pager.execute_drops(0);
        assert!(shared.files().is_empty());
    }

    #[test]
    fn commit_keeps_the_statement_effects() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.commit_statement(2);
        pager.rollback_statement(); // no-op: the layer is merged
        assert_eq!(pager.page_count(f).unwrap(), 3);
        pager
            .read(f, p2, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]))
            .unwrap();
    }

    #[test]
    fn failed_materialize_keeps_the_overlay_for_retry() {
        use crate::fault::{FaultDisk, FaultPlan};
        let shared = MemDisk::new();
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

    /// A pager over a [`FaultDisk`] whose plan fails no op until told.
    fn faulty_pager(frames: usize) -> (Pager, crate::fault::FaultPlan) {
        use crate::fault::{FaultDisk, FaultPlan};
        let plan = FaultPlan::new(None);
        let disk = FaultDisk::new(Box::new(MemDisk::new()), plan.clone());
        let config = BufferConfig::uniform(frames, EvictionPolicy::Lru);
        (Pager::with_config(Box::new(disk), config), plan)
    }

    /// A dirty victim whose write-back fails stays in its pool: the
    /// change it holds is neither lost nor counted as written.
    #[test]
    fn a_failed_eviction_write_back_keeps_the_dirty_page() {
        let (pager, plan) = faulty_pager(1);
        let f = two_page_file(&pager);
        pager.write(f, 0, |p| p.set_overflow(77)).unwrap();
        let before = pager.stats().of(f);
        plan.set_enospc(true);
        assert!(pager.read(f, 1, |_| ()).is_err(), "the write-back failed");
        plan.set_enospc(false);
        // A failed access counts nothing: no write, no eviction, and no
        // access, as page 1 was never installed.
        assert_eq!(delta(pager.stats().of(f), before), FileIo::default());
        assert_eq!(pager.read(f, 0, |p| p.overflow()).unwrap(), 77);
        // The retried eviction writes it back once.
        pager.read(f, 1, |_| ()).unwrap();
        assert_eq!(delta(pager.stats().of(f), before).writes, 1);
        pager.invalidate_buffers().unwrap();
        assert_eq!(pager.read(f, 0, |p| p.overflow()).unwrap(), 77);
    }

    /// Flushes, invalidation and shrinking a pool keep a frame dirty
    /// in its pool until its write lands, and then write it once.
    #[test]
    fn failed_flushes_keep_their_dirty_frames() {
        type Flush = fn(&Pager, FileId) -> Result<()>;
        let ways: [(&str, Flush); 4] = [
            ("flush_file", |p, f| p.flush_file(f)),
            ("flush_all", |p, _| p.flush_all()),
            ("invalidate_buffers", |p, _| p.invalidate_buffers()),
            ("set_default_buffer_frames", |p, _| {
                p.set_default_buffer_frames(1)
            }),
        ];
        for (name, flush) in ways {
            let (pager, plan) = faulty_pager(2);
            let f = two_page_file(&pager);
            let before = pager.stats().of(f).writes;
            pager.write(f, 0, |p| p.set_overflow(5)).unwrap();
            pager.write(f, 1, |p| p.set_overflow(6)).unwrap();
            plan.set_enospc(true);
            assert!(flush(&pager, f).is_err(), "{name}: the write failed");
            assert_eq!(pager.dirty_tracking(), (vec![], 1), "{name}");
            plan.set_enospc(false);
            assert_eq!(pager.stats().of(f).writes, before, "{name}");
            flush(&pager, f).unwrap();
            pager.invalidate_buffers().unwrap();
            assert_eq!(pager.stats().of(f).writes, before + 2, "{name}");
            assert_eq!(pager.read(f, 0, |p| p.overflow()).unwrap(), 5);
            assert_eq!(pager.read(f, 1, |p| p.overflow()).unwrap(), 6);
        }
    }

    /// `flush_all` visits the pools that may hold a dirty frame, not
    /// every pool: among 2,000 files one dirty page is one write.
    #[test]
    fn flush_all_writes_only_what_is_dirty() {
        let pager = Pager::in_memory();
        let files: Vec<FileId> = (0..2000)
            .map(|_| {
                let f = pager.create_file().unwrap();
                pager.append_page(f, PageKind::Data).unwrap();
                f
            })
            .collect();
        assert_eq!(pager.dirty_tracking(), (vec![], 2000));
        pager.flush_all().unwrap();
        assert_eq!(pager.dirty_tracking(), (vec![], 0));
        pager.write(files[1234], 0, |p| p.set_overflow(1)).unwrap();
        assert_eq!(pager.dirty_tracking(), (vec![], 1));
        let io = pager.stats().scope();
        pager.flush_all().unwrap();
        assert_eq!(io.total().writes, 1);
        assert_eq!(io.of(files[1234]).writes, 1);
        assert_eq!(pager.dirty_tracking(), (vec![], 0));
    }

    /// No dirty frame is ever outside the dirty set: after eviction,
    /// invalidation, truncation, a drop, a raw write and a statement
    /// rollback.
    #[test]
    fn dirty_frames_never_leave_the_dirty_set() {
        let pager = Pager::in_memory_with_config(BufferConfig::uniform(
            2,
            EvictionPolicy::Lru,
        ));
        pager.set_staging(true);
        let tracked = |what: &str| {
            assert_eq!(pager.dirty_tracking().0, vec![], "after {what}")
        };
        let f = committed_staging_file(&pager);
        let g = committed_staging_file(&pager);
        pager.materialize_overlay().unwrap();
        tracked("a commit");
        pager.write(f, 0, |p| p.set_overflow(1)).unwrap();
        pager.write(g, 1, |p| p.set_overflow(2)).unwrap();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        tracked("writes and an append");
        pager.read(f, 1, |_| ()).unwrap();
        tracked("an eviction");
        pager.set_default_buffer_frames(1).unwrap();
        tracked("a shrink");
        pager.invalidate_buffers().unwrap();
        tracked("invalidation");
        assert_eq!(pager.dirty_tracking().1, 0);
        pager.write(f, p2, |p| p.set_overflow(3)).unwrap();
        pager.truncate(f).unwrap();
        tracked("a truncation");
        pager.write(g, 0, |p| p.set_overflow(4)).unwrap();
        pager
            .write_page_raw(g, 1, &Page::new(PageKind::Data))
            .unwrap();
        tracked("a raw write");
        let h = pager.create_file().unwrap();
        pager.append_page(h, PageKind::Data).unwrap();
        pager.rollback_statement();
        tracked("a rollback");
        pager.write(g, 0, |p| p.set_overflow(5)).unwrap();
        pager.drop_file(g).unwrap();
        tracked("a drop");
        assert_eq!(pager.dirty_tracking().1, 0, "nothing left dirty");
    }

    fn delta(after: FileIo, before: FileIo) -> FileIo {
        FileIo {
            reads: after.reads - before.reads,
            writes: after.writes - before.writes,
            hits: after.hits - before.hits,
            evictions: after.evictions - before.evictions,
            accesses: after.accesses - before.accesses,
            retries: after.retries - before.retries,
            bloom_hits: after.bloom_hits - before.bloom_hits,
            bloom_skips: after.bloom_skips - before.bloom_skips,
        }
    }

    fn io(reads: u64, writes: u64, hits: u64, evictions: u64) -> FileIo {
        FileIo {
            reads,
            writes,
            hits,
            evictions,
            accesses: hits + reads,
            ..FileIo::default()
        }
    }

    /// One fixed access sequence over a four-page file: hits at the MRU
    /// and at a non-MRU frame, misses evicting clean and dirty victims,
    /// and the eviction order after a hit rotates its frame to the
    /// front. Returns the whole sequence's ledger delta, which the outer
    /// scope must equal, and the middle stretch's, which a nested scope
    /// must equal.
    fn pinned_sequence(pager: &Pager, f: FileId) -> (FileIo, FileIo) {
        let before = pager.stats().of(f);
        let outer = pager.stats().scope();
        pager.read(f, 0, |_| ()).unwrap();
        pager.read(f, 0, |_| ()).unwrap();
        pager.read(f, 1, |_| ()).unwrap();
        let mid = pager.stats().of(f);
        let inner = pager.stats().scope();
        pager.read(f, 0, |_| ()).unwrap();
        pager.write(f, 1, |p| p.set_overflow(9)).unwrap();
        pager.read(f, 2, |_| ()).unwrap();
        pager.read(f, 3, |_| ()).unwrap();
        pager.read(f, 0, |_| ()).unwrap();
        assert_eq!(inner.of(f), delta(pager.stats().of(f), mid));
        assert_eq!(inner.total(), inner.of(f));
        drop(inner);
        pager.read(f, 2, |_| ()).unwrap();
        pager.read(f, 1, |_| ()).unwrap();
        pager.read(f, 0, |_| ()).unwrap();
        let whole = delta(pager.stats().of(f), before);
        assert_eq!(outer.of(f), whole);
        assert_eq!(outer.total(), whole);
        assert!(whole.is_consistent());
        (whole, delta(pager.stats().of(f), mid))
    }

    fn four_page_file(pager: &Pager) -> FileId {
        let f = pager.create_file().unwrap();
        for _ in 0..4 {
            pager.append_page(f, PageKind::Data).unwrap();
        }
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        f
    }

    #[test]
    fn the_ledger_of_a_fixed_sequence_at_one_frame() {
        let pager = Pager::in_memory();
        let f = four_page_file(&pager);
        // Only the second access hits; every later miss evicts, and the
        // dirty page 1 is written back when page 2 evicts it.
        let (whole, _) = pinned_sequence(&pager, f);
        assert_eq!(whole, io(10, 1, 1, 9));
    }

    #[test]
    fn the_ledger_of_a_fixed_sequence_at_three_frames() {
        let pager = Pager::in_memory_with_config(BufferConfig::uniform(
            3,
            EvictionPolicy::Lru,
        ));
        let f = four_page_file(&pager);
        // Frames MRU first: [0] hit; [1,0] → read 0 hits a non-MRU
        // frame: [0,1] → write 1 hits: [1*,0] → [2,1*,0] → read 3
        // evicts clean 0: [3,2,1*] → read 0 evicts dirty 1 (a write):
        // [0,3,2] → read 2 hits: [2,0,3] → read 1 evicts 3, the LRU
        // after the rotate: [1,2,0] → read 0 hits.
        let (whole, _) = pinned_sequence(&pager, f);
        assert_eq!(whole, io(6, 1, 5, 3));
        assert_eq!(pager.read(f, 1, |p| p.overflow()).unwrap(), 9);
        assert_eq!(pager.stats().of(f).hits, 6);
    }

    /// A dropped file's row leaves the ledger (its counts stay in the
    /// totals), and a file created afterwards counts from zero.
    #[test]
    fn a_dropped_file_leaves_the_ledger_and_a_new_one_starts_at_zero() {
        for frames in [1, 3] {
            let pager = Pager::in_memory_with_config(
                BufferConfig::uniform(frames, EvictionPolicy::Lru),
            );
            let f = four_page_file(&pager);
            let (first, _) = pinned_sequence(&pager, f);
            let total = pager.stats().total();
            pager.drop_file(f).unwrap();
            assert_eq!(pager.stats().of(f), FileIo::default());
            assert_eq!(pager.stats().total(), total);
            let g = four_page_file(&pager);
            let (again, _) = pinned_sequence(&pager, g);
            assert_eq!(again, first, "cap {frames}");
            assert_eq!(pager.stats().of(g).accesses, again.accesses);
            assert!(pager.stats().is_consistent());
        }
    }
}
