//! The history store: where non-current versions live.
//!
//! Two layouts, as in Figure 10 of the paper:
//!
//! * [`HistoryStore::Simple`] — an append-only heap. Cheap to maintain
//!   (one insert per superseded version) but a version scan for one tuple
//!   must read every history page.
//! * [`HistoryStore::Clustered`] — the history versions of each tuple are
//!   clustered into pages owned by that tuple, with an in-memory directory
//!   from key to its cluster's pages. A version scan reads only
//!   `ceil(versions / capacity)` pages — the paper's "28 history versions
//!   into 4 pages".
//!
//! Because history versions are never updated in place, both layouts are
//! strictly append-only (write-once-media friendly, as the paper notes).

use tdbms_kernel::{Result, TimeVal};
use tdbms_storage::{
    page_capacity, ClusteredHistory, FileId, HeapFile, KeySpec, Pager,
};

/// The two history-store layouts.
#[derive(Debug)]
pub enum HistoryStore {
    /// Append-only heap of history versions.
    Simple {
        /// The heap file.
        heap: HeapFile,
        /// Key location within a row (used only to answer keyed scans by
        /// filtering).
        key: KeySpec,
    },
    /// Per-tuple clustered pages with an in-memory cluster directory —
    /// the same structure the engine's online reorganization migrates
    /// cold versions into, so the layout (and its keyed-access cost)
    /// comes from [`ClusteredHistory`].
    Clustered(ClusteredHistory),
}

impl HistoryStore {
    /// Create an empty simple history store.
    pub fn simple(
        pager: &Pager,
        row_width: usize,
        key: KeySpec,
    ) -> Result<Self> {
        Ok(HistoryStore::Simple {
            heap: HeapFile::create(pager, row_width)?,
            key,
        })
    }

    /// Create an empty clustered history store.
    pub fn clustered(
        pager: &Pager,
        row_width: usize,
        key: KeySpec,
    ) -> Result<Self> {
        Ok(HistoryStore::Clustered(ClusteredHistory::create(
            pager, row_width, key,
        )?))
    }

    /// The underlying file.
    pub fn file_id(&self) -> FileId {
        match self {
            HistoryStore::Simple { heap, .. } => heap.file,
            HistoryStore::Clustered(h) => h.file_id(),
        }
    }

    /// Total pages of history.
    pub fn total_pages(&self, pager: &Pager) -> Result<u32> {
        pager.page_count(self.file_id())
    }

    /// Append one superseded version.
    pub fn push(&mut self, pager: &Pager, row: &[u8]) -> Result<()> {
        match self {
            HistoryStore::Simple { heap, .. } => {
                heap.insert(pager, row).map(|_| ())
            }
            // The benchmark store does not gate reads on the stop-time
            // high-water mark, so pushes leave it at BEGINNING.
            HistoryStore::Clustered(h) => {
                h.push(pager, row, TimeVal::BEGINNING)
            }
        }
    }

    /// Visit every history version of `key_bytes`, in insertion order.
    /// Simple layout scans the whole store; clustered reads only the
    /// tuple's own pages.
    pub fn for_key(
        &self,
        pager: &Pager,
        key_bytes: &[u8],
        mut f: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        match self {
            HistoryStore::Simple { heap, key } => {
                let mut cur = heap.scan();
                while let Some((_, row)) = cur.next(pager, heap)? {
                    if key.compare(key.extract(&row), key_bytes)
                        == std::cmp::Ordering::Equal
                    {
                        f(&row)?;
                    }
                }
                Ok(())
            }
            HistoryStore::Clustered(h) => h.for_key(pager, key_bytes, f),
        }
    }

    /// Visit every history version.
    pub fn for_all(
        &self,
        pager: &Pager,
        mut f: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        match self {
            HistoryStore::Simple { heap, .. } => {
                let mut cur = heap.scan();
                while let Some((_, row)) = cur.next(pager, heap)? {
                    f(&row)?;
                }
                Ok(())
            }
            HistoryStore::Clustered(h) => h.for_all(pager, f),
        }
    }

    /// Pages a keyed history access touches (without performing it):
    /// `ceil(versions / capacity)` for a clustered store.
    pub fn cluster_pages(&self, key_bytes: &[u8]) -> Option<u32> {
        match self {
            HistoryStore::Simple { .. } => None,
            HistoryStore::Clustered(h) => Some(h.cluster_pages(key_bytes)),
        }
    }

    /// Row capacity per page for this store's rows.
    pub fn rows_per_page(&self) -> usize {
        match self {
            HistoryStore::Simple { heap, .. } => {
                page_capacity(heap.row_width)
            }
            HistoryStore::Clustered(h) => h.rows_per_page(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_storage::KeyKind;

    const W: usize = 124; // temporal benchmark row width → 8 per page

    fn row(id: i32, tag: u8) -> Vec<u8> {
        let mut r = vec![tag; W];
        r[..4].copy_from_slice(&id.to_le_bytes());
        r
    }

    fn key() -> KeySpec {
        KeySpec {
            offset: 0,
            len: 4,
            kind: KeyKind::I4,
        }
    }

    fn fill(store: &mut HistoryStore, pager: &Pager) {
        // 28 versions each for ids 1..=4, interleaved by round (the order
        // updates actually produce).
        for round in 0..28u8 {
            for id in 1..=4 {
                store.push(pager, &row(id, round)).unwrap();
            }
        }
    }

    #[test]
    fn clustered_version_access_reads_only_the_cluster() {
        let pager = Pager::in_memory();
        let mut store = HistoryStore::clustered(&pager, W, key()).unwrap();
        fill(&mut store, &pager);
        // 28 versions at 8/page = 4 pages per tuple — the paper's number.
        assert_eq!(store.cluster_pages(&1i32.to_le_bytes()), Some(4));
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut n = 0;
        store
            .for_key(&pager, &2i32.to_le_bytes(), |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 28);
        let io = cost.of(store.file_id());
        assert_eq!(io.reads, 4);
        // A cluster walk is strictly sequential: with the paper's single
        // frame every one of the 4 page accesses is a cold miss, and the
        // v2 ledger classifies each exactly once.
        assert_eq!(io.accesses, 4);
        assert_eq!(io.hits, 0);
        assert!(io.is_consistent());
    }

    #[test]
    fn simple_version_access_scans_everything() {
        let pager = Pager::in_memory();
        let mut store = HistoryStore::simple(&pager, W, key()).unwrap();
        fill(&mut store, &pager);
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut n = 0;
        store
            .for_key(&pager, &2i32.to_le_bytes(), |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 28);
        // 4 tuples × 28 versions / 8 per page = 14 pages, all read.
        let io = cost.of(store.file_id());
        assert_eq!(io.reads, 14);
        // The scan faults each page once and then re-accesses it per row
        // while it stays resident: 112 rows + 14 chain hops = 126 buffered
        // accesses, only 14 of them misses — sequential scans are *not*
        // thrash-bound even at the paper's 1-frame cap.
        assert_eq!((io.accesses, io.hits), (126, 112));
        assert!(io.is_consistent());
    }

    #[test]
    fn both_layouts_hold_the_same_versions() {
        let pager = Pager::in_memory();
        let mut simple = HistoryStore::simple(&pager, W, key()).unwrap();
        let mut clustered =
            HistoryStore::clustered(&pager, W, key()).unwrap();
        fill(&mut simple, &pager);
        fill(&mut clustered, &pager);
        let collect = |s: &HistoryStore, pager: &Pager| {
            let mut rows: Vec<Vec<u8>> = Vec::new();
            s.for_all(pager, |r| {
                rows.push(r.to_vec());
                Ok(())
            })
            .unwrap();
            rows.sort();
            rows
        };
        assert_eq!(collect(&simple, &pager), collect(&clustered, &pager));
    }

    #[test]
    fn unknown_key_visits_nothing() {
        let pager = Pager::in_memory();
        let mut store = HistoryStore::clustered(&pager, W, key()).unwrap();
        fill(&mut store, &pager);
        let mut n = 0;
        store
            .for_key(&pager, &99i32.to_le_bytes(), |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(store.cluster_pages(&99i32.to_le_bytes()), Some(0));
    }
}
