//! Heap files: unordered pages, appended in arrival order.
//!
//! The simplest organization — new rows go on the last page, a full scan
//! reads every page once. Temporary relations created by one-variable
//! detachment are heaps, as are freshly `create`d relations before a
//! `modify`.

use crate::disk::FileId;
use crate::page::{PageKind, PageRows};
use crate::pager::Pager;
use crate::tuple::TupleId;
use tdbms_kernel::Result;

/// An unordered heap file of fixed-width rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapFile {
    /// The underlying storage file.
    pub file: FileId,
    /// Fixed row width in bytes.
    pub row_width: usize,
}

impl HeapFile {
    /// Create an empty heap over a fresh file.
    pub fn create(pager: &Pager, row_width: usize) -> Result<HeapFile> {
        let file = pager.create_file()?;
        Ok(HeapFile { file, row_width })
    }

    /// Wrap an existing file as a heap.
    pub fn attach(file: FileId, row_width: usize) -> HeapFile {
        HeapFile { file, row_width }
    }

    /// Insert a row at the end of the file.
    pub fn insert(&self, pager: &Pager, row: &[u8]) -> Result<TupleId> {
        HeapAppender::new(pager, *self)?.insert(pager, row)
    }

    /// Begin a full scan.
    pub fn scan(&self) -> HeapScan {
        HeapScan::default()
    }
}

/// Appends rows to the end of a heap that nothing else grows meanwhile,
/// such as a detachment temporary. It asks the file's length once and
/// then remembers its last page, so a row costs one pager call (two when
/// it opens a page) where [`HeapFile::insert`] asks the length first.
/// The page accesses are the same either way.
#[derive(Debug)]
pub struct HeapAppender {
    heap: HeapFile,
    /// The file's last page, `None` while it has none.
    last: Option<u32>,
}

impl HeapAppender {
    /// Start appending to `heap` at its current end.
    pub fn new(pager: &Pager, heap: HeapFile) -> Result<HeapAppender> {
        let n = pager.page_count(heap.file)?;
        Ok(HeapAppender {
            heap,
            last: n.checked_sub(1),
        })
    }

    /// Insert a row on the last page, or on a new page if it is full.
    pub fn insert(&mut self, pager: &Pager, row: &[u8]) -> Result<TupleId> {
        let HeapFile { file, row_width: w } = self.heap;
        if let Some(last) = self.last {
            let slot = pager.write(file, last, |p| {
                p.has_room(w).then(|| p.push_row(w, row))
            })?;
            if let Some(slot) = slot {
                return Ok(TupleId::new(last, slot?));
            }
        }
        let page_no = pager.append_page(file, PageKind::Data)?;
        self.last = Some(page_no);
        let slot = pager.write(file, page_no, |p| p.push_row(w, row))??;
        Ok(TupleId::new(page_no, slot))
    }
}

/// Cursor over every row of a heap, in physical order.
///
/// Holds no borrow of the pager, so callers can interleave access to other
/// relations (as tuple substitution does) between `next` calls.
#[derive(Debug, Clone, Default)]
pub struct HeapScan {
    page: u32,
    slot: u16,
    /// The rows of `page`, once entered.
    rows: PageRows,
    loaded: bool,
}

impl HeapScan {
    /// Advance: the next row and its address, borrowed from the cursor
    /// until the next call; `None` at end of file. Entering a page asks
    /// the file's length and copies the page's rows in one buffered
    /// access; the rest of the page is served from that copy.
    pub fn next(
        &mut self,
        pager: &Pager,
        heap: &HeapFile,
    ) -> Result<Option<(TupleId, &[u8])>> {
        loop {
            if !self.loaded {
                if self.page >= pager.page_count(heap.file)? {
                    return Ok(None);
                }
                self.rows.load(
                    pager,
                    heap.file,
                    self.page,
                    heap.row_width,
                )?;
                self.loaded = true;
                self.slot = 0;
            }
            if (self.slot as usize) < self.rows.len() {
                let slot = self.slot;
                self.slot += 1;
                let tid = TupleId::new(self.page, slot);
                return Ok(Some((tid, self.rows.row(slot))));
            }
            self.page += 1;
            self.loaded = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: u8, w: usize) -> Vec<u8> {
        vec![v; w]
    }

    #[test]
    fn insert_fills_pages_in_order() {
        let pager = Pager::in_memory();
        let heap = HeapFile::create(&pager, 100).unwrap();
        // 10 rows/page at width 100 (1012 / 100 = 10).
        for i in 0..25u8 {
            heap.insert(&pager, &row(i, 100)).unwrap();
        }
        assert_eq!(pager.page_count(heap.file).unwrap(), 3);
        let mut scan = heap.scan();
        let mut seen = Vec::new();
        while let Some((_, r)) = scan.next(&pager, &heap).unwrap() {
            seen.push(r[0]);
        }
        assert_eq!(seen, (0..25).collect::<Vec<u8>>());
    }

    #[test]
    fn appender_places_and_costs_like_insert() {
        // Paper mode, one frame: every page change is a miss and an
        // eviction, so any extra or missing access shows.
        let run = |appender: bool| {
            let pager = Pager::in_memory();
            let heap = HeapFile::create(&pager, 100).unwrap();
            for i in 0..5u8 {
                heap.insert(&pager, &row(i, 100)).unwrap();
            }
            let cost = pager.stats().scope();
            let mut app = HeapAppender::new(&pager, heap).unwrap();
            let tids: Vec<TupleId> = (5..37u8)
                .map(|i| match appender {
                    true => app.insert(&pager, &row(i, 100)),
                    false => heap.insert(&pager, &row(i, 100)),
                })
                .collect::<Result<_>>()
                .unwrap();
            pager.flush_all().unwrap();
            let io = cost.of(heap.file);
            let io =
                (io.accesses, io.hits, io.reads, io.writes, io.evictions);
            (tids, io, pager.page_count(heap.file).unwrap())
        };
        let (tids, io, pages) = run(true);
        assert_eq!((tids.clone(), io, pages), run(false));
        assert_eq!(tids[0], TupleId::new(0, 5));
        assert_eq!(tids[31], TupleId::new(3, 6));
        assert_eq!(pages, 4);
    }

    #[test]
    fn scan_cost_equals_page_count() {
        let pager = Pager::in_memory();
        let heap = HeapFile::create(&pager, 100).unwrap();
        for i in 0..50u8 {
            heap.insert(&pager, &row(i, 100)).unwrap();
        }
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut scan = heap.scan();
        while scan.next(&pager, &heap).unwrap().is_some() {}
        assert_eq!(
            cost.of(heap.file).reads as u32,
            pager.page_count(heap.file).unwrap()
        );
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let pager = Pager::in_memory();
        let heap = HeapFile::create(&pager, 10).unwrap();
        let mut scan = heap.scan();
        assert!(scan.next(&pager, &heap).unwrap().is_none());
        assert_eq!(pager.page_count(heap.file).unwrap(), 0);
    }
}
