//! Heap files: unordered pages, appended in arrival order.
//!
//! The simplest organization — new rows go on the last page, a full scan
//! reads every page once. Temporary relations created by one-variable
//! detachment are heaps, as are freshly `create`d relations before a
//! `modify`.

use crate::disk::FileId;
use crate::page::PageKind;
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
        let n = pager.page_count(self.file)?;
        if n > 0 {
            let last = n - 1;
            let w = self.row_width;
            let slot = pager.write(self.file, last, |p| {
                p.has_room(w).then(|| p.push_row(w, row))
            })?;
            if let Some(slot) = slot {
                return Ok(TupleId::new(last, slot?));
            }
        }
        let page_no = pager.append_page(self.file, PageKind::Data)?;
        let slot = pager.write(self.file, page_no, |p| {
            p.push_row(self.row_width, row)
        })??;
        Ok(TupleId::new(page_no, slot))
    }

    /// Begin a full scan.
    pub fn scan(&self) -> HeapScan {
        HeapScan { page: 0, slot: 0 }
    }
}

/// Cursor over every row of a heap, in physical order.
///
/// Holds no borrow of the pager, so callers can interleave access to other
/// relations (as tuple substitution does) between `next` calls.
#[derive(Debug, Clone)]
pub struct HeapScan {
    page: u32,
    slot: u16,
}

impl HeapScan {
    /// Advance: fill `row` with the next row and return its address;
    /// `None` at end of file. One buffered access per call, and the
    /// file's length is asked only on entering a page.
    pub fn next(
        &mut self,
        pager: &Pager,
        heap: &HeapFile,
        row: &mut Vec<u8>,
    ) -> Result<Option<TupleId>> {
        loop {
            if self.slot == 0 && self.page >= pager.page_count(heap.file)? {
                return Ok(None);
            }
            let got = pager.read(heap.file, self.page, |p| {
                ((self.slot as usize) < p.count())
                    .then(|| p.copy_row(heap.row_width, self.slot, row))
            })?;
            match got {
                Some(copied) => {
                    copied?;
                    let tid = TupleId::new(self.page, self.slot);
                    self.slot += 1;
                    return Ok(Some(tid));
                }
                None => {
                    self.page += 1;
                    self.slot = 0;
                }
            }
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
        let mut r = Vec::new();
        while scan.next(&pager, &heap, &mut r).unwrap().is_some() {
            seen.push(r[0]);
        }
        assert_eq!(seen, (0..25).collect::<Vec<u8>>());
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
        let mut r = Vec::new();
        while scan.next(&pager, &heap, &mut r).unwrap().is_some() {}
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
        assert!(scan
            .next(&pager, &heap, &mut Vec::new())
            .unwrap()
            .is_none());
        assert_eq!(pager.page_count(heap.file).unwrap(), 0);
    }
}
