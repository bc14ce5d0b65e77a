//! The clustered history file behind online reorganization.
//!
//! The paper's two-level store (Section 6, Figure 10) keeps current
//! versions in the primary file and clusters each tuple's history
//! versions into pages owned by that tuple, so a version scan reads
//! `ceil(versions / capacity)` pages instead of the whole chain.
//! [`ClusteredHistory`] is that layout as a catalog-resident sidecar of a
//! stored relation: the background compactor migrates *cold* versions
//! (transaction-time stop already stamped — immutable forever under
//! rollback semantics) out of the primary file's overflow chains and into
//! this file, then rebuilds the primary `modify`-style with only the
//! surviving rows.
//!
//! Two invariants make the migration safe under concurrent snapshot
//! readers:
//!
//! * **Pages are single-key and append-only.** Every page holds versions
//!   of exactly one key, and [`ClusteredHistory::with_migrated`] — the
//!   only way rows enter the file — never appends to a page that existed
//!   before the batch. A snapshot catalog cloned before the
//!   reorganization therefore references only pages whose contents can
//!   never change; the rows it could observe are exactly the rows its
//!   cluster directory knew about.
//! * **The directory is copy-on-write.** `with_migrated` returns a *new*
//!   `ClusteredHistory` (same file) with the extended directory; the
//!   committing writer swaps the relation's `Arc` while old snapshots
//!   keep theirs.
//!
//! `max_stop` records the newest transaction-stop time ever migrated.
//! The executor skips the history file entirely when a query's
//! visibility instant is at or after it — the common "as of now" query —
//! which is what keeps retrieval page I/O bounded as versions accumulate.

use crate::disk::FileId;
use crate::key::KeySpec;
use crate::page::{page_capacity, PageKind};
use crate::pager::Pager;
use std::collections::HashMap;
use tdbms_kernel::{Error, Result, TimeVal};

/// A clustered, append-only file of cold (superseded) versions, with an
/// in-memory directory from key bytes to the pages holding that key's
/// history.
#[derive(Debug, Clone)]
pub struct ClusteredHistory {
    file: FileId,
    row_width: usize,
    key: KeySpec,
    /// Key bytes → pages holding that key's versions, in migration
    /// order. Every page belongs to exactly one key.
    clusters: HashMap<Vec<u8>, Vec<u32>>,
    rows: u64,
    /// Newest transaction-stop time among migrated versions
    /// ([`TimeVal::BEGINNING`] while empty). Queries whose visibility
    /// instant is `>= max_stop` cannot see any row here.
    max_stop: TimeVal,
}

impl ClusteredHistory {
    /// Create an empty history file.
    pub fn create(
        pager: &Pager,
        row_width: usize,
        key: KeySpec,
    ) -> Result<ClusteredHistory> {
        Ok(ClusteredHistory {
            file: pager.create_file()?,
            row_width,
            key,
            clusters: HashMap::new(),
            rows: 0,
            max_stop: TimeVal::BEGINNING,
        })
    }

    /// Rebuild the in-memory directory of an existing history file by
    /// scanning it (the catalog-reload path). Pages are single-key, so
    /// each non-empty page is assigned to the key of its first row;
    /// `max_stop` is not derivable here (the stop time's location in the
    /// row is schema knowledge the caller has), so it is passed through
    /// from the persisted catalog line.
    pub fn reopen(
        pager: &Pager,
        file: FileId,
        row_width: usize,
        key: KeySpec,
        max_stop: TimeVal,
    ) -> Result<ClusteredHistory> {
        let mut clusters: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
        let mut rows = 0u64;
        let n = pager.page_count(file)?;
        for page_no in 0..n {
            let (count, first) = pager.read(file, page_no, |p| {
                let count = p.count() as u64;
                let first = if count > 0 {
                    Some(key.extract(p.row(row_width, 0)?).to_vec())
                } else {
                    None
                };
                Ok::<_, Error>((count, first))
            })??;
            rows += count;
            if let Some(kb) = first {
                clusters.entry(kb).or_default().push(page_no);
            }
        }
        Ok(ClusteredHistory {
            file,
            row_width,
            key,
            clusters,
            rows,
            max_stop,
        })
    }

    /// The underlying storage file.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Fixed row width.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Key location within a row.
    pub fn key(&self) -> KeySpec {
        self.key
    }

    /// Migrated versions held.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Newest transaction-stop time among migrated versions.
    pub fn max_stop(&self) -> TimeVal {
        self.max_stop
    }

    /// Total pages of history.
    pub fn total_pages(&self, pager: &Pager) -> Result<u32> {
        pager.page_count(self.file)
    }

    /// Pages a keyed history access would touch.
    pub fn cluster_pages(&self, key_bytes: &[u8]) -> u32 {
        self.clusters
            .get(key_bytes)
            .map(|p| p.len() as u32)
            .unwrap_or(0)
    }

    /// Row capacity per page.
    pub fn rows_per_page(&self) -> usize {
        page_capacity(self.row_width)
    }

    /// The only way rows enter a history file: append `rows` (each with
    /// its transaction-stop time), in order, on **fresh pages only**,
    /// returning a new
    /// `ClusteredHistory` with the extended directory. The receiver —
    /// and any snapshot catalog holding it — is untouched: its directory
    /// references only pages whose contents never change again.
    pub fn with_migrated(
        &self,
        pager: &Pager,
        rows: &[(Vec<u8>, TimeVal)],
    ) -> Result<ClusteredHistory> {
        let mut out = self.clone();
        // Per-key tail page *within this batch* — never a pre-existing
        // page.
        let mut batch_tail: HashMap<Vec<u8>, u32> = HashMap::new();
        let w = out.row_width;
        for (row, stop) in rows {
            if row.len() != w {
                return Err(Error::RowSize {
                    expected: w,
                    got: row.len(),
                });
            }
            let kb = out.key.extract(row).to_vec();
            let mut placed = false;
            if let Some(&tail) = batch_tail.get(&kb) {
                placed = pager.write(out.file, tail, |p| {
                    if p.has_room(w) {
                        p.push_row(w, row).map(|_| true)
                    } else {
                        Ok(false)
                    }
                })??;
            }
            if !placed {
                let page_no =
                    pager.append_page(out.file, PageKind::Data)?;
                out.clusters.entry(kb.clone()).or_default().push(page_no);
                batch_tail.insert(kb, page_no);
                pager
                    .write(out.file, page_no, |p| p.push_row(w, row))??;
            }
            out.rows += 1;
            if *stop > out.max_stop {
                out.max_stop = *stop;
            }
        }
        Ok(out)
    }

    /// Visit every history version of `key_bytes`, in migration order.
    pub fn for_key(
        &self,
        pager: &Pager,
        key_bytes: &[u8],
        mut f: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        let Some(pages) = self.clusters.get(key_bytes) else {
            return Ok(());
        };
        let mut rows = Vec::new();
        for &page_no in pages {
            self.read_rows(pager, page_no, &mut rows)?;
            for row in rows.chunks_exact(self.row_width) {
                if self.key.compare(self.key.extract(row), key_bytes)
                    == std::cmp::Ordering::Equal
                {
                    f(row)?;
                }
            }
        }
        Ok(())
    }

    /// Visit every history version.
    pub fn for_all(
        &self,
        pager: &Pager,
        mut f: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        let n = pager.page_count(self.file)?;
        let mut rows = Vec::new();
        for page_no in 0..n {
            self.read_rows(pager, page_no, &mut rows)?;
            for row in rows.chunks_exact(self.row_width) {
                f(row)?;
            }
        }
        Ok(())
    }

    /// Replace `rows` with page `page_no`'s rows, end to end: one
    /// buffered access, and one copy of each row into a buffer the
    /// caller reuses from page to page. (The visitor runs after the
    /// pager is released, since it may touch other pages.)
    fn read_rows(
        &self,
        pager: &Pager,
        page_no: u32,
        rows: &mut Vec<u8>,
    ) -> Result<()> {
        pager.read(self.file, page_no, |p| {
            rows.clear();
            for (_, row) in p.rows(self.row_width) {
                rows.extend_from_slice(row);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyKind;

    const W: usize = 124; // 8 rows per 1024-byte page

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

    #[test]
    fn keyed_access_reads_only_the_cluster() {
        let pager = Pager::in_memory();
        // 28 versions each for ids 1..=4, interleaved by round (the order
        // updates actually produce).
        let batch: Vec<(Vec<u8>, TimeVal)> = (0..28u8)
            .flat_map(|round| {
                (1..=4)
                    .map(move |id| (row(id, round), TimeVal(round.into())))
            })
            .collect();
        let h = ClusteredHistory::create(&pager, W, key())
            .unwrap()
            .with_migrated(&pager, &batch)
            .unwrap();
        assert_eq!(h.rows(), 112);
        assert_eq!(h.max_stop(), TimeVal(27));
        assert_eq!(h.cluster_pages(&1i32.to_le_bytes()), 4);
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut n = 0;
        h.for_key(&pager, &2i32.to_le_bytes(), |_| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 28);
        assert_eq!(cost.of(h.file_id()).reads, 4);
        // A key with no history has no cluster and visits nothing.
        assert_eq!(h.cluster_pages(&99i32.to_le_bytes()), 0);
        h.for_key(&pager, &99i32.to_le_bytes(), |_| {
            panic!("unknown key visited a row")
        })
        .unwrap();
        assert_eq!(cost.of(h.file_id()).reads, 4);
    }

    #[test]
    fn migration_never_touches_pre_existing_pages() {
        let pager = Pager::in_memory();
        // Seed with a partially-filled page for key 1 (3 of 8 slots).
        let seed: Vec<(Vec<u8>, TimeVal)> =
            (0..3u8).map(|i| (row(1, i), TimeVal(1))).collect();
        let h = ClusteredHistory::create(&pager, W, key())
            .unwrap()
            .with_migrated(&pager, &seed)
            .unwrap();
        let before_pages = h.total_pages(&pager).unwrap();
        assert_eq!(before_pages, 1);
        let snapshot = h.clone();

        let batch: Vec<(Vec<u8>, TimeVal)> =
            (0..4u8).map(|i| (row(1, 100 + i), TimeVal(5))).collect();
        let h2 = h.with_migrated(&pager, &batch).unwrap();
        // The batch went to a fresh page even though page 0 had room.
        assert_eq!(h2.total_pages(&pager).unwrap(), 2);
        assert_eq!(h2.rows(), 7);
        assert_eq!(h2.max_stop(), TimeVal(5));
        assert_eq!(h2.cluster_pages(&1i32.to_le_bytes()), 2);
        // The snapshot still sees exactly its 3 rows.
        let mut n = 0;
        snapshot
            .for_key(&pager, &1i32.to_le_bytes(), |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 3);
        let mut m = 0;
        h2.for_key(&pager, &1i32.to_le_bytes(), |_| {
            m += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(m, 7);
    }

    #[test]
    fn batch_fills_its_own_fresh_pages() {
        let pager = Pager::in_memory();
        let h = ClusteredHistory::create(&pager, W, key()).unwrap();
        // 20 versions of one key: ceil(20/8) = 3 fresh pages, not 20.
        let batch: Vec<(Vec<u8>, TimeVal)> =
            (0..20u8).map(|i| (row(7, i), TimeVal(2))).collect();
        let h2 = h.with_migrated(&pager, &batch).unwrap();
        assert_eq!(h2.total_pages(&pager).unwrap(), 3);
        assert_eq!(h2.cluster_pages(&7i32.to_le_bytes()), 3);
    }

    #[test]
    fn reopen_rebuilds_the_directory() {
        let pager = Pager::in_memory();
        let batch: Vec<(Vec<u8>, TimeVal)> = (0..10u8)
            .flat_map(|round| {
                (1..=3).map(move |id| (row(id, round), TimeVal(9)))
            })
            .collect();
        let h = ClusteredHistory::create(&pager, W, key())
            .unwrap()
            .with_migrated(&pager, &batch)
            .unwrap();
        pager.flush_all().unwrap();
        let re = ClusteredHistory::reopen(
            &pager,
            h.file_id(),
            W,
            key(),
            h.max_stop(),
        )
        .unwrap();
        assert_eq!(re.rows(), h.rows());
        assert_eq!(re.max_stop(), TimeVal(9));
        for id in 1..=3i32 {
            assert_eq!(
                re.cluster_pages(&id.to_le_bytes()),
                h.cluster_pages(&id.to_le_bytes())
            );
            let mut a = Vec::new();
            let mut b = Vec::new();
            re.for_key(&pager, &id.to_le_bytes(), |r| {
                a.push(r.to_vec());
                Ok(())
            })
            .unwrap();
            h.for_key(&pager, &id.to_le_bytes(), |r| {
                b.push(r.to_vec());
                Ok(())
            })
            .unwrap();
            assert_eq!(a, b);
        }
    }
}
