//! Disk managers: where pages actually live.
//!
//! The benchmark's metric is *page accesses*, not device latency, so the
//! default [`MemDisk`] keeps every file as a vector of page images and the
//! pager counts accesses. [`FileDisk`] stores each relation file as a real
//! file on disk for durable use of the library.

use crate::checksum::ChecksumSet;
use crate::page::{Page, PageKind, PAGE_SIZE};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tdbms_kernel::{Error, Result};

/// Identifies one storage file (one relation, index, or temporary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A map keyed by [`FileId`]. File ids are small dense integers the
/// device hands out, not attacker-chosen keys, so they need no keyed
/// hash: [`FileIdHasher`] is one multiply, where the std default
/// (SipHash) was a large share of a buffered page access's CPU.
pub type FileMap<V> = HashMap<FileId, V, BuildHasherDefault<FileIdHasher>>;

/// A set of [`FileId`]s, hashed like [`FileMap`].
pub type FileSet = HashSet<FileId, BuildHasherDefault<FileIdHasher>>;

/// The [`FileMap`] hasher: a Fibonacci multiply of the id. The product
/// is a bijection on the low bits (the multiplier is odd), so dense ids
/// fill a table's buckets evenly, and its high bits, which the table
/// reads for its tag byte, mix every bit of the id.
#[derive(Debug, Default, Clone, Copy)]
pub struct FileIdHasher(u64);

impl Hasher for FileIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Abstract page-granularity storage. `Send + Sync` is part of the
/// contract: a disk manager is only ever driven from behind the pager's
/// lock, but the pager itself must be shareable across threads.
pub trait DiskManager: Send + Sync {
    /// Create a new, empty file and return its id.
    fn create_file(&mut self) -> Result<FileId>;
    /// Create a new, empty *scratch* file: one statement's private
    /// working file (a decomposition temporary), never referenced by
    /// the catalog or the log, which a crash may discard. By default
    /// it is an ordinary file the pager drops when the statement ends.
    fn create_scratch_file(&mut self) -> Result<FileId> {
        self.create_file()
    }
    /// Delete a file and free its pages.
    fn drop_file(&mut self, file: FileId) -> Result<()>;
    /// Number of pages currently in `file`.
    fn page_count(&self, file: FileId) -> Result<u32>;
    /// Read page `page_no` of `file`.
    fn read_page(&mut self, file: FileId, page_no: u32) -> Result<Page>;
    /// Write page `page_no` of `file` (must already exist).
    fn write_page(
        &mut self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> Result<()>;
    /// Append a new page at the end of `file`; returns its page number.
    fn append_page(&mut self, file: FileId, page: &Page) -> Result<u32>;
    /// Truncate `file` to zero pages (used by `modify` reorganization).
    fn truncate(&mut self, file: FileId) -> Result<()>;
    /// Force `file`'s pages to stable storage. A real fsync for
    /// [`FileDisk`]; a no-op (beyond existence checking) for [`MemDisk`].
    /// Durability paths call this before any metadata that references the
    /// file is written, so a crash never leaves the catalog pointing at
    /// pages the device has not seen.
    fn sync(&mut self, file: FileId) -> Result<()>;
    /// Every live file id, sorted (checkpoint snapshots and recovery
    /// sweeps iterate the whole disk).
    fn files(&self) -> Vec<FileId>;
}

/// In-memory disk: deterministic, allocation-cheap, and fast enough to run
/// the paper's full update-count sweep in seconds. A `MemDisk` is a
/// handle: its clones share the same pages, so a test can crash one
/// incarnation of a database and reopen the surviving bytes in the next
/// without touching the filesystem.
#[derive(Clone, Default)]
pub struct MemDisk {
    inner: Arc<Mutex<MemFiles>>,
}

#[derive(Default)]
struct MemFiles {
    files: FileMap<Vec<[u8; PAGE_SIZE]>>,
    next_id: u32,
}

impl MemFiles {
    fn file(&self, file: FileId) -> Result<&Vec<[u8; PAGE_SIZE]>> {
        self.files.get(&file).ok_or_else(|| {
            Error::Internal(format!("no such file {file:?}"))
        })
    }

    fn file_mut(
        &mut self,
        file: FileId,
    ) -> Result<&mut Vec<[u8; PAGE_SIZE]>> {
        self.files.get_mut(&file).ok_or_else(|| {
            Error::Internal(format!("no such file {file:?}"))
        })
    }
}

impl MemDisk {
    /// An empty in-memory disk.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemFiles> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl DiskManager for MemDisk {
    fn create_file(&mut self) -> Result<FileId> {
        let mut m = self.lock();
        let id = FileId(m.next_id);
        m.next_id += 1;
        m.files.insert(id, Vec::new());
        Ok(id)
    }

    fn drop_file(&mut self, file: FileId) -> Result<()> {
        self.lock().files.remove(&file).map(|_| ()).ok_or_else(|| {
            Error::Internal(format!("no such file {file:?}"))
        })
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        Ok(self.lock().file(file)?.len() as u32)
    }

    fn read_page(&mut self, file: FileId, page_no: u32) -> Result<Page> {
        let m = self.lock();
        let bytes = m
            .file(file)?
            .get(page_no as usize)
            .ok_or(Error::NoSuchPage(page_no))?;
        Ok(Page::from_bytes(Box::new(*bytes)))
    }

    fn write_page(
        &mut self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> Result<()> {
        let mut m = self.lock();
        let slot = m
            .file_mut(file)?
            .get_mut(page_no as usize)
            .ok_or(Error::NoSuchPage(page_no))?;
        slot.copy_from_slice(page.as_bytes());
        Ok(())
    }

    fn append_page(&mut self, file: FileId, page: &Page) -> Result<u32> {
        let mut m = self.lock();
        let pages = m.file_mut(file)?;
        pages.push(*page.as_bytes());
        Ok(pages.len() as u32 - 1)
    }

    fn truncate(&mut self, file: FileId) -> Result<()> {
        self.lock().file_mut(file)?.clear();
        Ok(())
    }

    fn sync(&mut self, file: FileId) -> Result<()> {
        self.lock().file(file).map(|_| ())
    }

    fn files(&self) -> Vec<FileId> {
        let mut ids: Vec<FileId> =
            self.lock().files.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// Force `file` to exactly `len` pages: the one way a staged file's
/// shape reaches the device, shared by the pager's checkpoint and WAL
/// replay. Shrinking preserves the first `len` pages (the trait only
/// truncates to zero, so they are read, dropped, and re-appended);
/// growing appends empty data pages — safe placeholders, because every
/// page a staged file gains has a committed image that is written over
/// it. Sums recorded past the surviving pages are dropped; placeholders
/// get theirs on first read. A missing file is skipped: a later
/// committed drop removed it.
pub fn set_len(
    disk: &mut dyn DiskManager,
    sums: &mut Option<ChecksumSet>,
    file: FileId,
    len: u32,
) -> Result<()> {
    let Ok(cur) = disk.page_count(file) else {
        return Ok(());
    };
    if let Some(sums) = sums {
        sums.truncate(file, cur.min(len));
    }
    if cur > len {
        let keep: Vec<Page> = (0..len)
            .map(|p| disk.read_page(file, p))
            .collect::<Result<_>>()?;
        disk.truncate(file)?;
        for p in &keep {
            disk.append_page(file, p)?;
        }
    } else {
        for _ in cur..len {
            disk.append_page(file, &Page::new(PageKind::Data))?;
        }
    }
    Ok(())
}

/// Drop `file` from the device and forget its sums; a file already
/// gone is not an error (a drop is replayed, or retried after the
/// device refused it).
pub fn drop_if_present(
    disk: &mut dyn DiskManager,
    sums: &mut Option<ChecksumSet>,
    file: FileId,
) -> Result<()> {
    if disk.page_count(file).is_ok() {
        disk.drop_file(file)?;
    }
    if let Some(sums) = sums {
        sums.drop_file(file);
    }
    Ok(())
}

/// File-backed disk: each [`FileId`] is `<dir>/f<N>.pages`, a flat array of
/// 1024-byte pages. A scratch file is unlinked as soon as it is created
/// and lives on only through its open handle, so a crash leaves nothing
/// behind to clean up.
pub struct FileDisk {
    dir: PathBuf,
    handles: FileMap<File>,
    /// Open handles whose path is already unlinked.
    scratch: FileSet,
    next_id: u32,
}

impl FileDisk {
    /// Open (creating if needed) a directory-backed disk. Existing
    /// `f<N>.pages` files are re-attached, so a database directory can be
    /// reopened across processes.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut handles = FileMap::default();
        let mut next_id = 0;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(n) = name
                .strip_prefix('f')
                .and_then(|s| s.strip_suffix(".pages"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                let fh = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(entry.path())?;
                handles.insert(FileId(n), fh);
                next_id = next_id.max(n + 1);
            }
        }
        Ok(FileDisk {
            dir,
            handles,
            scratch: FileSet::default(),
            next_id,
        })
    }

    fn path(&self, file: FileId) -> PathBuf {
        self.dir.join(format!("f{}.pages", file.0))
    }

    fn handle(&mut self, file: FileId) -> Result<&mut File> {
        self.handles.get_mut(&file).ok_or_else(|| {
            Error::Internal(format!("no such file {file:?}"))
        })
    }
}

impl DiskManager for FileDisk {
    fn create_file(&mut self) -> Result<FileId> {
        let id = FileId(self.next_id);
        self.next_id += 1;
        let fh = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(self.path(id))?;
        self.handles.insert(id, fh);
        Ok(id)
    }

    fn create_scratch_file(&mut self) -> Result<FileId> {
        let id = self.create_file()?;
        std::fs::remove_file(self.path(id))?;
        self.scratch.insert(id);
        Ok(id)
    }

    fn drop_file(&mut self, file: FileId) -> Result<()> {
        self.handles.remove(&file).ok_or_else(|| {
            Error::Internal(format!("no such file {file:?}"))
        })?;
        if !self.scratch.remove(&file) {
            std::fs::remove_file(self.path(file))?;
        }
        Ok(())
    }

    fn page_count(&self, file: FileId) -> Result<u32> {
        let fh = self.handles.get(&file).ok_or_else(|| {
            Error::Internal(format!("no such file {file:?}"))
        })?;
        Ok((fh.metadata()?.len() / PAGE_SIZE as u64) as u32)
    }

    fn read_page(&mut self, file: FileId, page_no: u32) -> Result<Page> {
        let n = self.page_count(file)?;
        if page_no >= n {
            return Err(Error::NoSuchPage(page_no));
        }
        let fh = self.handle(file)?;
        fh.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))?;
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        fh.read_exact(&mut buf[..])?;
        Ok(Page::from_bytes(buf))
    }

    fn write_page(
        &mut self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> Result<()> {
        let n = self.page_count(file)?;
        if page_no >= n {
            return Err(Error::NoSuchPage(page_no));
        }
        let fh = self.handle(file)?;
        fh.seek(SeekFrom::Start(page_no as u64 * PAGE_SIZE as u64))?;
        fh.write_all(page.as_bytes())?;
        Ok(())
    }

    fn append_page(&mut self, file: FileId, page: &Page) -> Result<u32> {
        let n = self.page_count(file)?;
        let fh = self.handle(file)?;
        fh.seek(SeekFrom::End(0))?;
        fh.write_all(page.as_bytes())?;
        Ok(n)
    }

    fn truncate(&mut self, file: FileId) -> Result<()> {
        let fh = self.handle(file)?;
        fh.set_len(0)?;
        Ok(())
    }

    fn sync(&mut self, file: FileId) -> Result<()> {
        self.handle(file)?.sync_all()?;
        Ok(())
    }

    fn files(&self) -> Vec<FileId> {
        let mut ids: Vec<FileId> = self.handles.keys().copied().collect();
        ids.retain(|f| !self.scratch.contains(f));
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &mut dyn DiskManager) {
        let f = disk.create_file().unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 0);
        let mut p = Page::new(PageKind::Data);
        p.push_row(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(disk.append_page(f, &p).unwrap(), 0);
        assert_eq!(disk.append_page(f, &p).unwrap(), 1);
        assert_eq!(disk.page_count(f).unwrap(), 2);

        let got = disk.read_page(f, 0).unwrap();
        assert_eq!(got.row(4, 0).unwrap(), &[1, 2, 3, 4]);

        let mut p2 = Page::new(PageKind::Overflow);
        p2.push_row(4, &[9, 9, 9, 9]).unwrap();
        disk.write_page(f, 1, &p2).unwrap();
        let got = disk.read_page(f, 1).unwrap();
        assert_eq!(got.kind().unwrap(), PageKind::Overflow);

        disk.sync(f).unwrap();
        assert!(disk.sync(FileId(9999)).is_err(), "sync checks existence");
        assert_eq!(disk.files(), vec![f]);

        assert!(disk.read_page(f, 7).is_err());
        assert!(disk.write_page(f, 7, &p).is_err());

        disk.truncate(f).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 0);

        let g = disk.create_file().unwrap();
        assert_ne!(f, g);
        disk.drop_file(f).unwrap();
        assert!(disk.read_page(f, 0).is_err());
        assert!(disk.drop_file(f).is_err());
    }

    #[test]
    fn mem_disk_contract() {
        exercise(&mut MemDisk::new());
    }

    #[test]
    fn file_disk_contract() {
        let dir = tdbms_kernel::tmpdir::fresh_dir("disk-test");
        exercise(&mut FileDisk::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_disk_scratch_files_leave_no_path() {
        let dir = tdbms_kernel::tmpdir::fresh_dir("disk-scratch");
        let mut disk = FileDisk::open(&dir).unwrap();
        let f = disk.create_file().unwrap();
        let s = disk.create_scratch_file().unwrap();
        let mut p = Page::new(PageKind::Data);
        p.push_row(2, &[5, 6]).unwrap();
        assert_eq!(disk.append_page(s, &p).unwrap(), 0);
        assert_eq!(
            disk.read_page(s, 0).unwrap().row(2, 0).unwrap(),
            &[5, 6]
        );
        assert_eq!(disk.files(), vec![f], "scratch files are not listed");
        let names = || {
            let mut n: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into())
                .collect();
            n.sort();
            n
        };
        assert_eq!(names(), vec![format!("f{}.pages", f.0)]);
        disk.drop_file(s).unwrap();
        assert!(disk.read_page(s, 0).is_err());
        drop(disk);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_disk_reopens_existing_files() {
        let dir = tdbms_kernel::tmpdir::fresh_dir("disk-reopen");
        let f;
        {
            let mut disk = FileDisk::open(&dir).unwrap();
            f = disk.create_file().unwrap();
            let mut p = Page::new(PageKind::Data);
            p.push_row(2, &[7, 7]).unwrap();
            disk.append_page(f, &p).unwrap();
        }
        {
            let mut disk = FileDisk::open(&dir).unwrap();
            assert_eq!(disk.page_count(f).unwrap(), 1);
            let p = disk.read_page(f, 0).unwrap();
            assert_eq!(p.row(2, 0).unwrap(), &[7, 7]);
            // New files do not collide with re-attached ones.
            let g = disk.create_file().unwrap();
            assert!(g.0 > f.0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
