//! # tdbms-wal
//!
//! A physical-redo write-ahead log with ARIES-lite, redo-only recovery
//! for the temporal DBMS storage engine.
//!
//! ## Protocol
//!
//! The pager runs in *staging* mode: dirty write-backs accumulate in an
//! in-memory overlay and never touch the data files. At commit, the
//! database logs one transaction — `Begin`, the new length of every
//! resized file, the after-image of every dirtied page (each stamped
//! with its record's LSN, in the log *and* in the overlay copy that will
//! eventually reach disk), any deferred file drops, the catalog + clock
//! text, `Commit` — and fsyncs the log. Only then do deferred drops
//! execute physically. A checkpoint writes the overlay through to the
//! data files, fsyncs them, and truncates the log ([`Wal::checkpoint`])
//! to a fresh header carrying the next LSN and a snapshot of every
//! file's length, plus one committed transaction holding the catalog
//! and clock.
//!
//! ## Recovery invariants
//!
//! Every open of a durable database goes through [`recover`]. Redo-only
//! suffices because nothing uncommitted reaches the data files: page
//! images and file lengths reach them only at a checkpoint, after the
//! log holds them committed, and a statement's one device change — a
//! file it creates, holding a placeholder page — is dropped on reopen
//! when the recovered catalog does not own it. On reopen:
//!
//! 1. A log without a catalog (empty, or a torn header) has nothing to
//!    redo. It opens only a disk without page files; a disk with page
//!    files is refused, since every checkpoint writes a catalog in the
//!    same atomic reset as its header.
//! 2. The header snapshot restores each listed file's checkpointed
//!    length; then each *committed* transaction replays in order —
//!    lengths, then page images (skipped when the on-disk page already
//!    carries a newer LSN, or the same LSN and the same bytes: a torn
//!    write can persist a page's new header over its old body), then
//!    drops. Records for files that no longer exist are skipped: a
//!    later committed `DropFile` must have removed them.
//! 3. Parsing stops at the first torn or corrupt record; a transaction
//!    without an intact `Commit` contributes nothing.
//! 4. Replay is idempotent — every step either re-establishes a length,
//!    re-writes an identical image, or re-drops — so recovering twice
//!    equals recovering once, and a crash *during* recovery is no worse
//!    than the original crash.
//! 5. The checksum sidecar, when there is one, follows replay: each
//!    replayed image's sum is recorded, and the sidecar is saved after
//!    the data files are synced.

mod group;
mod log;
mod record;

pub use crate::group::{GroupCommit, GroupCommitConfig, QueuedWriter};
pub use crate::log::{FaultLog, FileLog, LogStore, MemLog};
pub use crate::record::{
    encode_header, fnv64, parse_header, parse_records, Record,
};

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tdbms_kernel::{Error, Result, TimeVal};
use tdbms_storage::{
    decode_catalog, drop_if_present, set_len, Catalog, ChecksumSet,
    DiskManager, FileDisk, FileId, Page, Pager,
};

/// File name of the write-ahead log inside a database directory.
pub const WAL_NAME: &str = "wal.tdbms";

/// When the database takes a checkpoint (overlay write-through + log
/// truncation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// After every commit: the log stays one transaction long and the
    /// overlay never outlives a statement. The default.
    EveryCommit,
    /// After every `n` commits: amortizes the write-through at the cost
    /// of a longer log and a bigger overlay.
    EveryN(u32),
    /// Only when explicitly requested.
    Manual,
}

impl CheckpointPolicy {
    /// Should a checkpoint follow the `commits_since_checkpoint`-th
    /// commit since the last one?
    pub fn due(&self, commits_since_checkpoint: u32) -> bool {
        match self {
            CheckpointPolicy::EveryCommit => true,
            CheckpointPolicy::EveryN(n) => {
                commits_since_checkpoint >= (*n).max(1)
            }
            CheckpointPolicy::Manual => false,
        }
    }
}

/// What recovery learned from the log at open.
pub struct RecoveryPlan {
    /// LSN space starts here (stamped pages may carry up to this - 1).
    pub base_lsn: u32,
    /// File lengths at the checkpoint that last truncated the log.
    pub snapshot: Vec<(FileId, u32)>,
    /// Committed transactions, in commit order, as `(lsn, record)` runs.
    pub txns: Vec<Vec<(u32, Record)>>,
    /// The last committed `(clock, catalog)` texts, if any transaction
    /// carried one — these supersede the files on disk.
    pub catalog: Option<(String, String)>,
    next_lsn: u32,
}

impl RecoveryPlan {
    /// Parse the raw log bytes. Never fails: a torn header yields an
    /// empty plan (see module docs for why that is sound) and a torn
    /// record ends the scan at the last intact commit.
    pub fn parse(bytes: &[u8]) -> RecoveryPlan {
        let (base_lsn, snapshot, off) = match parse_header(bytes) {
            Ok(Some(h)) => h,
            Ok(None) | Err(_) => (1, Vec::new(), bytes.len()),
        };
        let (records, max_lsn) = parse_records(&bytes[off..]);
        let mut txns = Vec::new();
        let mut catalog = None;
        let mut current: Vec<(u32, Record)> = Vec::new();
        for (lsn, rec) in records {
            if matches!(rec, Record::Begin) && !current.is_empty() {
                // An abandoned transaction: a statement died mid-append
                // (disk full) and was rolled back, then a later
                // statement committed. Its records have no `Commit` of
                // their own and must not be folded into the next
                // transaction's — a fresh `Begin` supersedes them.
                current.clear();
            }
            let is_commit = matches!(rec, Record::Commit);
            current.push((lsn, rec));
            if is_commit {
                for (_, r) in &current {
                    if let Record::Catalog {
                        clock,
                        catalog: text,
                    } = r
                    {
                        catalog = Some((clock.clone(), text.clone()));
                    }
                }
                txns.push(std::mem::take(&mut current));
            }
        }
        // `current` now holds an uncommitted tail: dropped by design.
        RecoveryPlan {
            base_lsn,
            snapshot,
            txns,
            catalog,
            next_lsn: base_lsn.max(max_lsn + 1),
        }
    }

    /// The first LSN the reopened log may assign.
    pub fn next_lsn(&self) -> u32 {
        self.next_lsn
    }

    /// True when there is nothing to redo.
    pub fn is_clean(&self) -> bool {
        self.snapshot.is_empty() && self.txns.is_empty()
    }

    /// The newest *committed* after-image of (`file`, `page_no`), if the
    /// log still holds one. This is the salvage source: a page that fails
    /// its checksum can be restored to exactly these bytes — point-in-time
    /// page repair out of the same records replay uses. Scans newest
    /// transaction first (later commits supersede earlier ones); a
    /// committed `DropFile` ends the search, since images older than the
    /// drop describe a file that no longer exists.
    pub fn latest_image(
        &self,
        file: FileId,
        page_no: u32,
    ) -> Option<&Page> {
        for txn in self.txns.iter().rev() {
            for (_, rec) in txn.iter().rev() {
                match rec {
                    Record::PageImage {
                        file: f,
                        page_no: p,
                        image,
                    } if *f == file && *p == page_no => {
                        return Some(image);
                    }
                    Record::DropFile { file: f } if *f == file => {
                        return None;
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// Redo a [`RecoveryPlan`] against the raw disk (run *before* any pager
/// buffers pages), keeping the checksum sidecar `sums`, when there is
/// one, in step: every committed page image is recorded as its page's
/// sum, whether replay wrote it or found the disk already as new, and
/// length changes and drops forget the sums of pages that no longer
/// exist. Idempotent: see the module-level invariants.
fn replay(
    plan: &RecoveryPlan,
    disk: &mut dyn DiskManager,
    sums: &mut Option<ChecksumSet>,
) -> Result<()> {
    for &(file, len) in &plan.snapshot {
        set_len(disk, sums, file, len)?;
    }
    for txn in &plan.txns {
        for (lsn, rec) in txn {
            match rec {
                Record::FileLen { file, len } => {
                    set_len(disk, sums, *file, *len)?
                }
                Record::PageImage {
                    file,
                    page_no,
                    image,
                } => {
                    let Ok(n) = disk.page_count(*file) else {
                        continue;
                    };
                    if *page_no >= n {
                        set_len(disk, sums, *file, page_no + 1)?;
                    }
                    let on_disk = disk.read_page(*file, *page_no)?;
                    // A torn checkpoint write can leave this image's
                    // header, LSN included, over the page's old body:
                    // an equal LSN proves the image is on disk only
                    // if the bytes agree.
                    if on_disk.lsn() < *lsn
                        || (on_disk.lsn() == *lsn
                            && on_disk.as_bytes() != image.as_bytes())
                    {
                        disk.write_page(*file, *page_no, image)?;
                    }
                    if let Some(sums) = sums {
                        sums.record(*file, *page_no, image);
                    }
                }
                Record::DropFile { file } => {
                    drop_if_present(disk, sums, *file)?
                }
                Record::Begin | Record::Catalog { .. } | Record::Commit => {
                }
            }
        }
    }
    Ok(())
}

/// A database as recovery leaves it: the committed log tail replayed
/// onto synced page files, and the catalog and clock of the last
/// committed transaction.
pub struct Recovered {
    /// The reopened log, its LSN counter past everything ever logged.
    pub wal: Wal,
    /// What the log held at open; its page images stay the salvage
    /// source until the next checkpoint truncates them.
    pub plan: RecoveryPlan,
    /// A pager over the recovered files. Checksum verification is on
    /// exactly when the directory has a sidecar.
    pub pager: Pager,
    /// The last committed catalog (empty for a fresh database).
    pub catalog: Catalog,
    /// The last committed transaction clock.
    pub clock: TimeVal,
}

/// [`recover`] the database directory `dir`: its page files, its log
/// ([`WAL_NAME`]) and its checksum sidecar.
pub fn recover_dir(dir: &Path) -> Result<Recovered> {
    let disk = FileDisk::open(dir)?;
    let log = FileLog::open(dir.join(WAL_NAME))?;
    recover(Box::new(disk), Box::new(log), Some(dir))
}

/// The one recovery routine: open the log, redo its committed
/// transactions onto `disk`, sync the files, and read back the catalog
/// and clock the log carries. When `dir` holds a checksum sidecar,
/// replay keeps it in step and it is saved once the data files are
/// synced, so a directory with a sidecar always opens verified and
/// never against sums older than its pages.
///
/// A disk with page files but a log without a catalog is refused with
/// [`Error::Corruption`] before anything is replayed: opening it would
/// describe those files with an empty catalog.
pub fn recover(
    mut disk: Box<dyn DiskManager>,
    log: Box<dyn LogStore>,
    dir: Option<&Path>,
) -> Result<Recovered> {
    let (wal, plan) = Wal::open(log)?;
    let files = disk.files();
    if plan.catalog.is_none() && !files.is_empty() {
        return Err(Error::Corruption {
            file: None,
            page: None,
            detail: format!(
                "{} page files but no catalog in the write-ahead log",
                files.len()
            ),
        });
    }
    let mut sums = match dir {
        Some(dir) => ChecksumSet::load(dir)?,
        None => None,
    };
    replay(&plan, disk.as_mut(), &mut sums)?;
    for f in disk.files() {
        disk.sync(f)?;
    }
    if let (Some(dir), Some(sums)) = (dir, &sums) {
        sums.save(dir)?;
    }
    let pager = Pager::new(disk);
    pager.set_checksums(sums);
    let (catalog, clock) = match &plan.catalog {
        Some((clock, text)) => {
            let secs = clock.parse().map_err(|_| Error::Corruption {
                file: None,
                page: None,
                detail: format!("bad clock {clock:?} in the log"),
            })?;
            (decode_catalog(text, &pager)?, TimeVal::from_secs(secs))
        }
        None => (Catalog::new(), TimeVal::BEGINNING),
    };
    Ok(Recovered {
        wal,
        plan,
        pager,
        catalog,
        clock,
    })
}

/// A cloneable handle on a [`Wal`]'s underlying [`LogStore`]. The
/// group-commit leader fsyncs through it *outside* the engine's commit
/// lock, so other sessions run their statements while it syncs and one
/// fsync can cover several commits. Their appends do not overlap the
/// sync: [`LogHandle::sync`] holds the store's mutex for the whole
/// [`LogStore::sync`], and [`Wal::append`] takes the same mutex, so a
/// commit appending under the commit lock waits for that sync to
/// return.
#[derive(Clone)]
pub struct LogHandle {
    store: Arc<Mutex<Box<dyn LogStore>>>,
}

impl LogHandle {
    /// Force everything appended so far to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sync()
    }
}

/// The write-ahead log: LSN assignment, record appending, and
/// checkpoint truncation over a [`LogStore`]. The store sits behind a
/// mutex shared with every [`LogHandle`]: a handle's fsync runs outside
/// the engine's commit lock but holds this mutex throughout, so an
/// append waits for a sync in flight.
pub struct Wal {
    store: Arc<Mutex<Box<dyn LogStore>>>,
    next_lsn: u32,
    bytes_appended: u64,
}

impl Wal {
    /// Open the log: read it back, derive the [`RecoveryPlan`], and
    /// position the LSN counter past everything ever logged. A brand-new
    /// log gets its initial header here, so records never precede one.
    pub fn open(
        mut store: Box<dyn LogStore>,
    ) -> Result<(Wal, RecoveryPlan)> {
        let bytes = store.read_all()?;
        let plan = RecoveryPlan::parse(&bytes);
        if bytes.is_empty() {
            store.reset(&encode_header(plan.next_lsn(), &[]))?;
        }
        let wal = Wal {
            store: Arc::new(Mutex::new(store)),
            next_lsn: plan.next_lsn(),
            bytes_appended: 0,
        };
        Ok((wal, plan))
    }

    fn store(&self) -> MutexGuard<'_, Box<dyn LogStore>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A cloneable fsync handle over this log's store (see
    /// [`LogHandle`]).
    pub fn handle(&self) -> LogHandle {
        LogHandle {
            store: self.store.clone(),
        }
    }

    /// The entire log contents, header included (diagnostics/tests).
    pub fn read_back(&self) -> Result<Vec<u8>> {
        self.store().read_all()
    }

    /// The LSN the next [`Wal::append`] will assign (the database stamps
    /// it into the page image before logging).
    pub fn peek_lsn(&self) -> u32 {
        self.next_lsn
    }

    /// Append one record; returns its LSN.
    pub fn append(&mut self, rec: &Record) -> Result<u32> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let bytes = rec.encode(lsn);
        self.store().append(&bytes)?;
        self.bytes_appended += bytes.len() as u64;
        Ok(lsn)
    }

    /// Force the log to stable storage (the commit point).
    pub fn sync(&mut self) -> Result<()> {
        self.store().sync()
    }

    /// Total bytes appended since open (the database converts deltas to
    /// page-equivalents for I/O accounting).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Checkpoint truncation: replace the log, in one atomic reset,
    /// with a fresh header carrying the current LSN frontier and the
    /// file-length snapshot `lengths`, plus one committed transaction
    /// holding `catalog` and `clock` — so the log never, not even
    /// between two operations of a checkpoint, lacks the catalog it
    /// would need to recover — then sync. Call only after the data
    /// files the snapshot describes are durably on disk.
    pub fn checkpoint(
        &mut self,
        lengths: &[(FileId, u32)],
        clock: TimeVal,
        catalog: &Catalog,
    ) -> Result<()> {
        let mut buf = encode_header(self.next_lsn, lengths);
        for rec in [
            Record::Begin,
            Record::catalog_of(clock, catalog),
            Record::Commit,
        ] {
            buf.extend_from_slice(&rec.encode(self.next_lsn));
            self.next_lsn += 1;
        }
        self.bytes_appended += buf.len() as u64;
        let mut store = self.store();
        store.reset(&buf)?;
        store.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_storage::{MemDisk, PageKind, PAGE_SIZE};

    fn image(byte: u8, lsn: u32) -> Page {
        let mut p = Page::new(PageKind::Data);
        p.push_row(4, &[byte; 4]).unwrap();
        p.set_lsn(lsn);
        p
    }

    /// Build a one-file disk with `n` pages of content `fill`.
    fn disk_with(n: u32, fill: u8) -> (MemDisk, FileId) {
        let mut d = MemDisk::new();
        let f = d.create_file().unwrap();
        for _ in 0..n {
            d.append_page(f, &image(fill, 0)).unwrap();
        }
        (d, f)
    }

    #[test]
    fn commit_boundary_separates_winners_from_losers() {
        let mut wal = Wal::open(Box::new(MemLog::new())).unwrap().0;
        wal.append(&Record::Begin).unwrap();
        wal.append(&Record::FileLen {
            file: FileId(0),
            len: 1,
        })
        .unwrap();
        wal.append(&Record::Commit).unwrap();
        wal.append(&Record::Begin).unwrap();
        let lsn = wal
            .append(&Record::FileLen {
                file: FileId(0),
                len: 9,
            })
            .unwrap();
        // No commit: the second transaction must vanish.
        let bytes = wal.read_back().unwrap();
        let plan = RecoveryPlan::parse(&bytes);
        assert_eq!(plan.txns.len(), 1);
        assert_eq!(plan.txns[0].len(), 3);
        assert!(plan.next_lsn() > lsn, "lsn frontier covers losers too");
    }

    #[test]
    fn replay_trims_uncommitted_tail_and_applies_images() {
        // Committed state: 2 pages, page 1 re-imaged at lsn 3. The disk
        // additionally has an uncommitted appended tail (pages 2, 3).
        let (mut disk, f) = disk_with(4, 1);
        let mut wal = Wal::open(Box::new(MemLog::new())).unwrap().0;
        wal.append(&Record::Begin).unwrap();
        wal.append(&Record::FileLen { file: f, len: 2 }).unwrap();
        let lsn = wal.peek_lsn();
        wal.append(&Record::PageImage {
            file: f,
            page_no: 1,
            image: image(7, lsn),
        })
        .unwrap();
        wal.append(&Record::Commit).unwrap();
        let plan = RecoveryPlan::parse(&wal.read_back().unwrap());
        let mut sums = ChecksumSet::new();
        for p in 0..4 {
            sums.record(f, p, &image(1, 0));
        }
        let mut sidecar = Some(sums);
        replay(&plan, &mut disk, &mut sidecar).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 2, "tail trimmed");
        let sums = sidecar.unwrap();
        assert_eq!(sums.len(), 2, "the trimmed tail's sums are gone");
        for p in 0..2 {
            let page = disk.read_page(f, p).unwrap();
            sums.verify(f, p, &page).expect("sums follow replay");
        }
        assert_eq!(
            disk.read_page(f, 1).unwrap().row(4, 0).unwrap(),
            &[7; 4]
        );
        assert_eq!(
            disk.read_page(f, 0).unwrap().row(4, 0).unwrap(),
            &[1; 4]
        );
        // Idempotence: replaying again changes nothing.
        let before: Vec<Vec<u8>> = (0..2)
            .map(|p| disk.read_page(f, p).unwrap().as_bytes().to_vec())
            .collect();
        replay(&plan, &mut disk, &mut None).unwrap();
        let after: Vec<Vec<u8>> = (0..2)
            .map(|p| disk.read_page(f, p).unwrap().as_bytes().to_vec())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn replay_skips_pages_the_disk_already_has() {
        let (mut disk, f) = disk_with(1, 1);
        // Disk page already stamped with lsn 10 (a checkpoint wrote it).
        disk.write_page(f, 0, &image(9, 10)).unwrap();
        let plan = RecoveryPlan {
            base_lsn: 1,
            snapshot: vec![],
            txns: vec![vec![(
                5,
                Record::PageImage {
                    file: f,
                    page_no: 0,
                    image: image(2, 5),
                },
            )]],
            catalog: None,
            next_lsn: 11,
        };
        replay(&plan, &mut disk, &mut None).unwrap();
        assert_eq!(
            disk.read_page(f, 0).unwrap().row(4, 0).unwrap(),
            &[9; 4],
            "older image must not clobber a newer page"
        );
    }

    #[test]
    fn replay_rewrites_a_torn_page_that_carries_the_images_lsn() {
        let (mut disk, f) = disk_with(1, 1);
        // A torn checkpoint write: the image's header (LSN 5 included)
        // reached the disk, its row did not.
        let mut torn = image(1, 0);
        torn.set_lsn(5);
        disk.write_page(f, 0, &torn).unwrap();
        let plan = RecoveryPlan {
            base_lsn: 1,
            snapshot: vec![],
            txns: vec![vec![(
                5,
                Record::PageImage {
                    file: f,
                    page_no: 0,
                    image: image(2, 5),
                },
            )]],
            catalog: None,
            next_lsn: 6,
        };
        replay(&plan, &mut disk, &mut None).unwrap();
        assert_eq!(
            disk.read_page(f, 0).unwrap().row(4, 0).unwrap(),
            &[2; 4],
            "an equal LSN over other bytes is a torn write, not the image"
        );
    }

    #[test]
    fn replay_extends_with_placeholders_then_images() {
        let (mut disk, f) = disk_with(0, 0);
        let lsn = 4;
        let plan = RecoveryPlan {
            base_lsn: 1,
            snapshot: vec![],
            txns: vec![vec![
                (2, Record::FileLen { file: f, len: 3 }),
                (
                    lsn,
                    Record::PageImage {
                        file: f,
                        page_no: 2,
                        image: image(5, lsn),
                    },
                ),
            ]],
            catalog: None,
            next_lsn: 9,
        };
        replay(&plan, &mut disk, &mut None).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 3);
        assert_eq!(
            disk.read_page(f, 2).unwrap().row(4, 0).unwrap(),
            &[5; 4]
        );
        // Placeholder pages parse as empty data pages, not page-0 chains.
        let ph = disk.read_page(f, 1).unwrap();
        assert_eq!(ph.count(), 0);
        assert_eq!(ph.overflow(), tdbms_storage::NO_PAGE);
    }

    #[test]
    fn replay_handles_drops_of_present_and_absent_files() {
        let (mut disk, f) = disk_with(2, 3);
        let plan = RecoveryPlan {
            base_lsn: 1,
            snapshot: vec![],
            txns: vec![vec![
                (1, Record::DropFile { file: f }),
                (2, Record::DropFile { file: FileId(909) }),
                // Records for the dropped file are skipped, not errors.
                (3, Record::FileLen { file: f, len: 5 }),
                (
                    4,
                    Record::PageImage {
                        file: f,
                        page_no: 0,
                        image: image(1, 4),
                    },
                ),
            ]],
            catalog: None,
            next_lsn: 5,
        };
        replay(&plan, &mut disk, &mut None).unwrap();
        assert!(disk.page_count(f).is_err());
    }

    #[test]
    fn checkpoint_preserves_the_lsn_frontier_and_snapshot() {
        let mut wal = Wal::open(Box::new(MemLog::new())).unwrap().0;
        wal.append(&Record::Begin).unwrap();
        wal.append(&Record::Commit).unwrap();
        let frontier = wal.peek_lsn();
        wal.checkpoint(
            &[(FileId(0), 7)],
            TimeVal::from_secs(60),
            &Catalog::new(),
        )
        .unwrap();
        let bytes = wal.read_back().unwrap();
        let plan = RecoveryPlan::parse(&bytes);
        assert_eq!(plan.txns.len(), 1, "only the catalog transaction");
        assert_eq!(plan.catalog.as_ref().unwrap().0, "60");
        assert_eq!(plan.base_lsn, frontier);
        assert_eq!(plan.snapshot, vec![(FileId(0), 7)]);
        assert_eq!(plan.next_lsn(), frontier + 3);
        // Snapshot replay restores the checkpointed length.
        let (mut disk, f) = disk_with(9, 1);
        assert_eq!(f, FileId(0));
        replay(&plan, &mut disk, &mut None).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 7);
    }

    #[test]
    fn latest_image_prefers_newer_commits_and_respects_drops() {
        let f = FileId(0);
        let g = FileId(1);
        let plan = RecoveryPlan {
            base_lsn: 1,
            snapshot: vec![],
            txns: vec![
                vec![
                    (
                        1,
                        Record::PageImage {
                            file: f,
                            page_no: 0,
                            image: image(1, 1),
                        },
                    ),
                    (
                        2,
                        Record::PageImage {
                            file: g,
                            page_no: 0,
                            image: image(8, 2),
                        },
                    ),
                    (3, Record::Commit),
                ],
                vec![
                    (
                        4,
                        Record::PageImage {
                            file: f,
                            page_no: 0,
                            image: image(2, 4),
                        },
                    ),
                    (5, Record::DropFile { file: g }),
                    (6, Record::Commit),
                ],
            ],
            catalog: None,
            next_lsn: 7,
        };
        let img = plan.latest_image(f, 0).unwrap();
        assert_eq!(img.row(4, 0).unwrap(), &[2; 4], "newest commit wins");
        assert!(plan.latest_image(f, 1).is_none(), "never imaged");
        assert!(
            plan.latest_image(g, 0).is_none(),
            "images older than a committed drop are not salvage material"
        );
    }

    #[test]
    fn abandoned_begin_is_not_folded_into_the_next_commit() {
        // A statement died mid-append (disk full) and was rolled back:
        // its `Begin` + images sit in the log with no `Commit`. The
        // next statement then committed. Replay must apply only the
        // committed transaction — folding the abandoned records in
        // would resurrect the rolled-back statement's pages.
        let mut wal = Wal::open(Box::new(MemLog::new())).unwrap().0;
        let f = FileId(0);
        wal.append(&Record::Begin).unwrap();
        wal.append(&Record::PageImage {
            file: f,
            page_no: 1,
            image: image(9, 2),
        })
        .unwrap();
        // No Commit: the statement was rolled back. A fresh statement
        // begins and commits.
        wal.append(&Record::Begin).unwrap();
        wal.append(&Record::PageImage {
            file: f,
            page_no: 0,
            image: image(3, 4),
        })
        .unwrap();
        wal.append(&Record::Commit).unwrap();
        let bytes = wal.read_back().unwrap();
        let plan = RecoveryPlan::parse(&bytes);
        assert_eq!(plan.txns.len(), 1);
        assert!(
            plan.latest_image(f, 1).is_none(),
            "the abandoned statement's image is not salvage material"
        );
        let (mut disk, file) = disk_with(2, 7);
        assert_eq!(file, f);
        replay(&plan, &mut disk, &mut None).unwrap();
        let committed = disk.read_page(f, 0).unwrap();
        assert_eq!(committed.row(4, 0).unwrap(), &[3; 4]);
        let untouched = disk.read_page(f, 1).unwrap();
        assert_eq!(
            untouched.row(4, 0).unwrap(),
            &[7; 4],
            "the rolled-back statement's page keeps its old bytes"
        );
    }

    #[test]
    fn checkpoint_policies() {
        assert!(CheckpointPolicy::EveryCommit.due(1));
        assert!(!CheckpointPolicy::EveryN(3).due(2));
        assert!(CheckpointPolicy::EveryN(3).due(3));
        assert!(!CheckpointPolicy::Manual.due(1_000_000));
    }

    #[test]
    fn bytes_appended_tracks_page_scale() {
        let mut wal = Wal::open(Box::new(MemLog::new())).unwrap().0;
        wal.append(&Record::PageImage {
            file: FileId(0),
            page_no: 0,
            image: image(1, 1),
        })
        .unwrap();
        let b = wal.bytes_appended();
        assert!(b as usize > PAGE_SIZE && (b as usize) < PAGE_SIZE + 64);
    }
}
