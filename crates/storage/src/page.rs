//! The 1024-byte slotted page.
//!
//! The prototype inherits Ingres' 1 KiB page. Every page has a 12-byte
//! header followed by fixed-width tuple slots:
//!
//! ```text
//! +--------------+-------------+---------+----------+------------------+
//! | overflow u32 | count u16   | kind u16| lsn u32  | slots ...        |
//! +--------------+-------------+---------+----------+------------------+
//! 0              4             6         8          12             1024
//! ```
//!
//! * `overflow` — page number of the next page in this page's overflow
//!   chain ([`NO_PAGE`] if none). Hash buckets and ISAM data pages grow by
//!   chaining overflow pages, which is exactly the degradation mechanism
//!   the paper measures.
//! * `count` — number of occupied slots.
//! * `kind` — [`PageKind`] tag, for integrity checking.
//! * `lsn` — log sequence number of the last write-ahead-log page image
//!   that produced this page (0 when the page was never logged). Recovery
//!   skips replaying an image onto a page that already carries it.
//!
//! With a 108-byte row this yields 9 tuples per page, and 8 for the
//! 116/124-byte rows of the versioned relation classes — matching the
//! paper's space numbers.

use crate::disk::FileId;
use crate::pager::Pager;
use tdbms_kernel::{Error, Result};

/// Page size in bytes (Ingres-compatible).
pub const PAGE_SIZE: usize = 1024;
/// Bytes of page header before the first slot.
pub const PAGE_HEADER: usize = 12;
/// Sentinel "no page" pointer.
pub const NO_PAGE: u32 = u32::MAX;

/// What role a page plays inside a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Heap data page, hash primary bucket, or ISAM data page.
    Data = 0,
    /// Overflow page chained behind a data page.
    Overflow = 1,
    /// ISAM directory page.
    Directory = 2,
}

impl PageKind {
    fn from_u16(v: u16) -> Result<PageKind> {
        match v {
            0 => Ok(PageKind::Data),
            1 => Ok(PageKind::Overflow),
            2 => Ok(PageKind::Directory),
            _ => Err(Error::Corruption {
                file: None,
                page: None,
                detail: format!("bad page kind tag {v}"),
            }),
        }
    }
}

/// Maximum number of fixed-width rows of `row_width` bytes per page.
pub fn page_capacity(row_width: usize) -> usize {
    (PAGE_SIZE - PAGE_HEADER) / row_width
}

/// Rows a primary page receives at build time for fill factor `ff` (in
/// percent): `floor(capacity * ff / 100)`, at least 1.
pub fn rows_per_page_at_fill(row_width: usize, fillfactor: u8) -> usize {
    (page_capacity(row_width) * fillfactor.clamp(1, 100) as usize / 100)
        .max(1)
}

/// An in-memory page image.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page of the given kind with an empty overflow pointer.
    pub fn new(kind: PageKind) -> Page {
        let mut p = Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_overflow(NO_PAGE);
        p.set_kind(kind);
        p
    }

    /// Wrap raw bytes read from disk.
    pub fn from_bytes(bytes: Box<[u8; PAGE_SIZE]>) -> Page {
        Page { bytes }
    }

    /// The raw bytes (for the disk manager).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Next page in this page's overflow chain, or [`NO_PAGE`].
    pub fn overflow(&self) -> u32 {
        u32::from_le_bytes(self.bytes[0..4].try_into().unwrap())
    }

    /// Set the overflow pointer.
    pub fn set_overflow(&mut self, p: u32) {
        self.bytes[0..4].copy_from_slice(&p.to_le_bytes());
    }

    /// Number of occupied slots.
    pub fn count(&self) -> usize {
        u16::from_le_bytes(self.bytes[4..6].try_into().unwrap()) as usize
    }

    fn set_count(&mut self, n: usize) {
        self.bytes[4..6].copy_from_slice(&(n as u16).to_le_bytes());
    }

    /// The page kind tag.
    pub fn kind(&self) -> Result<PageKind> {
        PageKind::from_u16(u16::from_le_bytes(
            self.bytes[6..8].try_into().unwrap(),
        ))
    }

    /// Set the page kind tag.
    pub fn set_kind(&mut self, k: PageKind) {
        self.bytes[6..8].copy_from_slice(&(k as u16).to_le_bytes());
    }

    /// Log sequence number of the last WAL image of this page (0 when the
    /// page has never been logged).
    pub fn lsn(&self) -> u32 {
        u32::from_le_bytes(self.bytes[8..12].try_into().unwrap())
    }

    /// Stamp the LSN (done by the WAL when an image is logged).
    pub fn set_lsn(&mut self, lsn: u32) {
        self.bytes[8..12].copy_from_slice(&lsn.to_le_bytes());
    }

    /// True if another `row_width`-byte row fits.
    pub fn has_room(&self, row_width: usize) -> bool {
        self.count() < page_capacity(row_width)
    }

    /// Append a row; returns the slot index.
    pub fn push_row(
        &mut self,
        row_width: usize,
        row: &[u8],
    ) -> Result<u16> {
        if row.len() != row_width {
            return Err(Error::RowSize {
                expected: row_width,
                got: row.len(),
            });
        }
        let n = self.count();
        if n >= page_capacity(row_width) {
            return Err(Error::Internal("push_row on full page".into()));
        }
        let off = PAGE_HEADER + n * row_width;
        self.bytes[off..off + row_width].copy_from_slice(row);
        self.set_count(n + 1);
        Ok(n as u16)
    }

    /// Borrow the row in `slot`.
    pub fn row(&self, row_width: usize, slot: u16) -> Result<&[u8]> {
        if (slot as usize) >= self.count() {
            return Err(Error::Corruption {
                file: None,
                page: None,
                detail: format!(
                    "slot {slot} out of range (count {})",
                    self.count()
                ),
            });
        }
        let off = PAGE_HEADER + slot as usize * row_width;
        Ok(&self.bytes[off..off + row_width])
    }

    /// Overwrite the row in `slot`.
    pub fn write_row(
        &mut self,
        row_width: usize,
        slot: u16,
        row: &[u8],
    ) -> Result<()> {
        if row.len() != row_width {
            return Err(Error::RowSize {
                expected: row_width,
                got: row.len(),
            });
        }
        if (slot as usize) >= self.count() {
            return Err(Error::Internal(format!(
                "write to empty slot {slot}"
            )));
        }
        let off = PAGE_HEADER + slot as usize * row_width;
        self.bytes[off..off + row_width].copy_from_slice(row);
        Ok(())
    }

    /// Remove the row in `slot` by moving the last row into its place
    /// (order-destroying compaction; used only by static relations, which
    /// have no version identity to preserve). Returns the slot that was
    /// vacated at the end of the page.
    pub fn remove_row(
        &mut self,
        row_width: usize,
        slot: u16,
    ) -> Result<u16> {
        let n = self.count();
        if (slot as usize) >= n {
            return Err(Error::Internal(format!(
                "remove empty slot {slot}"
            )));
        }
        let last = n - 1;
        if slot as usize != last {
            let src = PAGE_HEADER + last * row_width;
            let dst = PAGE_HEADER + slot as usize * row_width;
            let (a, b) = self.bytes.split_at_mut(src);
            a[dst..dst + row_width].copy_from_slice(&b[..row_width]);
        }
        self.set_count(last);
        Ok(last as u16)
    }

    /// Replace `buf`'s contents with the row in `slot` (what
    /// [`crate::RelFile::get`] copies out).
    pub(crate) fn copy_row(
        &self,
        row_width: usize,
        slot: u16,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        let row = self.row(row_width, slot)?;
        buf.clear();
        buf.extend_from_slice(row);
        Ok(())
    }

    /// The occupied slots, end to end: `count × row_width` bytes. A slot
    /// count that overruns the page is corruption.
    pub(crate) fn row_bytes(&self, row_width: usize) -> Result<&[u8]> {
        let end = PAGE_HEADER + self.count() * row_width;
        self.bytes
            .get(PAGE_HEADER..end)
            .ok_or_else(|| Error::Corruption {
                file: None,
                page: None,
                detail: format!(
                    "{} slots of {row_width} bytes overrun the page",
                    self.count()
                ),
            })
    }

    /// Iterate over the occupied slots as `(slot, row_bytes)`.
    pub fn rows(
        &self,
        row_width: usize,
    ) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.count()).map(move |i| {
            let off = PAGE_HEADER + i * row_width;
            (i as u16, &self.bytes[off..off + row_width])
        })
    }
}

/// One page's rows, its slot count and its overflow link, copied out of
/// the buffer pool in one access into a buffer reused from page to page.
/// A cursor loads each page it visits and serves that page's rows from
/// here without the pager, so a page visit costs one buffered access
/// however many rows it yields.
#[derive(Debug, Clone, Default)]
pub struct PageRows {
    /// The loaded page's rows, end to end.
    buf: Vec<u8>,
    width: usize,
    count: u16,
    overflow: u32,
}

impl PageRows {
    /// Replace the rows with those of page `page_no` of `file`, `width`
    /// bytes each: one buffered access.
    pub fn load(
        &mut self,
        pager: &Pager,
        file: FileId,
        page_no: u32,
        width: usize,
    ) -> Result<()> {
        pager.read(file, page_no, |p| {
            let rows = p.row_bytes(width)?;
            self.buf.clear();
            self.buf.extend_from_slice(rows);
            self.width = width;
            self.count = p.count() as u16;
            self.overflow = p.overflow();
            Ok(())
        })?
    }

    /// Rows loaded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when the loaded page holds no row.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The row in `slot`, which must be below [`PageRows::len`].
    pub fn row(&self, slot: u16) -> &[u8] {
        let off = slot as usize * self.width;
        &self.buf[off..off + self.width]
    }

    /// The loaded rows as `(slot, row_bytes)`.
    pub fn rows(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.count).map(move |s| (s, self.row(s)))
    }

    /// The loaded page's overflow link, or [`NO_PAGE`].
    pub fn overflow(&self) -> u32 {
        self.overflow
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Page {{ kind: {:?}, count: {}, overflow: {} }}",
            self.kind(),
            self.count(),
            if self.overflow() == NO_PAGE {
                "none".to_string()
            } else {
                self.overflow().to_string()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacities() {
        assert_eq!(page_capacity(108), 9); // static
        assert_eq!(page_capacity(116), 8); // rollback / historical
        assert_eq!(page_capacity(124), 8); // temporal
    }

    #[test]
    fn push_and_read_rows() {
        let mut p = Page::new(PageKind::Data);
        let w = 100;
        for i in 0..page_capacity(w) {
            let row = vec![i as u8; w];
            assert_eq!(p.push_row(w, &row).unwrap() as usize, i);
        }
        assert!(!p.has_room(w));
        assert!(p.push_row(w, &vec![0; w]).is_err());
        assert_eq!(p.row(w, 3).unwrap(), &vec![3u8; w][..]);
        assert_eq!(p.rows(w).count(), page_capacity(w));
    }

    #[test]
    fn overflow_pointer_roundtrip() {
        let mut p = Page::new(PageKind::Data);
        assert_eq!(p.overflow(), NO_PAGE);
        p.set_overflow(42);
        assert_eq!(p.overflow(), 42);
    }

    #[test]
    fn lsn_roundtrip_and_independence() {
        // The LSN lives in the spare header word: stamping it must not
        // disturb the overflow pointer, count, kind, or any slot.
        let mut p = Page::new(PageKind::Overflow);
        assert_eq!(p.lsn(), 0, "fresh pages are unlogged");
        p.set_overflow(7);
        p.push_row(4, &[1, 2, 3, 4]).unwrap();
        p.set_lsn(0xDEAD_BEEF);
        assert_eq!(p.lsn(), 0xDEAD_BEEF);
        assert_eq!(p.overflow(), 7);
        assert_eq!(p.count(), 1);
        assert_eq!(p.kind().unwrap(), PageKind::Overflow);
        assert_eq!(p.row(4, 0).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn remove_compacts_with_last_row() {
        let mut p = Page::new(PageKind::Data);
        let w = 200;
        for i in 0..4u8 {
            p.push_row(w, &vec![i; w]).unwrap();
        }
        p.remove_row(w, 1).unwrap();
        assert_eq!(p.count(), 3);
        assert_eq!(p.row(w, 1).unwrap()[0], 3); // last row moved in
        assert_eq!(p.row(w, 0).unwrap()[0], 0);
        assert!(p.row(w, 3).is_err());
    }

    #[test]
    fn kind_tag_roundtrip() {
        let p = Page::new(PageKind::Directory);
        assert_eq!(p.kind().unwrap(), PageKind::Directory);
        let mut raw = Box::new([0u8; PAGE_SIZE]);
        raw[6] = 9; // invalid tag
        assert!(Page::from_bytes(raw).kind().is_err());
    }

    #[test]
    fn row_size_mismatch_is_rejected() {
        let mut p = Page::new(PageKind::Data);
        assert!(matches!(
            p.push_row(10, &[0u8; 9]),
            Err(Error::RowSize {
                expected: 10,
                got: 9
            })
        ));
    }
}
