//! The clustered history file behind online reorganization.
//!
//! The paper's two-level store (Section 6, Figure 10) keeps current
//! versions in the primary file and clusters each tuple's history
//! versions into pages owned by that tuple, so a version scan reads
//! `ceil(versions / capacity)` pages instead of the whole chain.
//! [`ClusteredHistory`] is that layout as a catalog-resident sidecar of a
//! stored relation: the background compactor migrates every version DML
//! can no longer touch and an at-now query cannot see out of the
//! primary file's overflow chains and into this file, then rebuilds the
//! primary `modify`-style with only the surviving rows.
//! [`Stamps::stays_in_primary`] is the one rule that splits the two: a
//! version stays while it is transaction-current and its valid end has
//! not passed the pass's instant. So the sidecar holds both
//! transaction-stopped versions (immutable forever under rollback
//! semantics) and transaction-current ones whose valid time has closed
//! (DML retires only versions open in valid time, so no statement
//! stamps them again).
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
//! Two watermarks let the executor skip the file entirely. `max_stop` is
//! the newest transaction stop ever migrated: a query whose visibility
//! instant is at or after it sees no stopped row here. `max_valid_to` is
//! the newest valid end among migrated transaction-current rows: a query
//! whose `when` forces a valid end past it selects none of them. The
//! common "as of now, when overlap now" query passes both tests, which is
//! what keeps retrieval page I/O bounded as versions accumulate. Both are
//! raised from each migrated row's [`Stamps`], so a reopen derives them
//! from the file's rows.

use crate::disk::FileId;
use crate::key::KeySpec;
use crate::page::{page_capacity, PageKind};
use crate::pager::Pager;
use std::collections::HashMap;
use tdbms_kernel::{
    Error, Result, RowCodec, Schema, TemporalAttr, TimeVal,
};

/// The two times that decide where a stored version lives in the
/// two-level store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamps {
    /// Transaction stop ([`TimeVal::FOREVER`] while current, and for a
    /// relation without transaction time).
    pub stop: TimeVal,
    /// Valid end ([`TimeVal::FOREVER`] while open, and for a relation
    /// that records none: an event's valid time never closes).
    pub valid_to: TimeVal,
}

impl Stamps {
    /// Read a stored row's stamps.
    pub fn of(schema: &Schema, codec: &RowCodec, row: &[u8]) -> Stamps {
        let at = |t| {
            schema
                .temporal_index(t)
                .map_or(TimeVal::FOREVER, |i| codec.get_time(row, i))
        };
        Stamps {
            stop: at(TemporalAttr::TransactionStop),
            valid_to: at(TemporalAttr::ValidTo),
        }
    }

    /// Does a version with these stamps stay in the primary file of a
    /// pass at `cutoff`? It must be transaction-current, and its valid
    /// end must be open or at or after `cutoff`. Every other version is
    /// one DML can no longer touch (delete and replace retire only
    /// versions open in both times) and an at-now query cannot see.
    ///
    /// A reorganization pass cuts off at its own instant: valid
    /// intervals are closed, so `overlap "now"` at that instant still
    /// reaches a version closed exactly then, and it stays one more
    /// pass. With `cutoff = FOREVER` this is "current in both times",
    /// the primary of Figure 10's two-level store.
    pub fn stays_in_primary(self, cutoff: TimeVal) -> bool {
        self.stop.is_forever() && self.valid_to >= cutoff
    }
}

/// A clustered, append-only file of the versions reorganization moved
/// out of a primary file, with an in-memory directory from key bytes to
/// the pages holding that key's history.
#[derive(Debug, Clone)]
pub struct ClusteredHistory {
    file: FileId,
    row_width: usize,
    key: KeySpec,
    /// Key bytes → pages holding that key's versions, in migration
    /// order. Every page belongs to exactly one key.
    clusters: HashMap<Vec<u8>, Vec<u32>>,
    rows: u64,
    /// Newest transaction-stop time among migrated stopped versions
    /// ([`TimeVal::BEGINNING`] while there are none). Queries whose
    /// visibility instant is `>= max_stop` cannot see any of them.
    max_stop: TimeVal,
    /// Newest valid end among migrated transaction-current versions
    /// ([`TimeVal::BEGINNING`] while there are none). Queries that force
    /// a valid end `> max_valid_to` select none of them.
    max_valid_to: TimeVal,
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
            max_valid_to: TimeVal::BEGINNING,
        })
    }

    /// Rebuild the in-memory state of an existing history file by
    /// scanning it (the catalog-reload path). Pages are single-key, so
    /// each non-empty page is assigned to the key of its first row; both
    /// watermarks are raised from every row's `stamps`, exactly as
    /// [`ClusteredHistory::with_migrated`] raised them.
    pub fn reopen(
        pager: &Pager,
        file: FileId,
        row_width: usize,
        key: KeySpec,
        stamps: impl Fn(&[u8]) -> Stamps,
    ) -> Result<ClusteredHistory> {
        let mut out = ClusteredHistory {
            file,
            row_width,
            key,
            clusters: HashMap::new(),
            rows: 0,
            max_stop: TimeVal::BEGINNING,
            max_valid_to: TimeVal::BEGINNING,
        };
        let mut rows = Vec::new();
        for page_no in 0..pager.page_count(file)? {
            out.read_rows(pager, page_no, &mut rows)?;
            if let Some(first) = rows.get(..row_width) {
                let kb = key.extract(first).to_vec();
                out.clusters.entry(kb).or_default().push(page_no);
            }
            for row in rows.chunks_exact(row_width) {
                out.raise(stamps(row));
            }
        }
        Ok(out)
    }

    /// Count one more migrated row with `stamps`, raising the watermark
    /// it bears on.
    fn raise(&mut self, stamps: Stamps) {
        self.rows += 1;
        if stamps.stop.is_forever() {
            self.max_valid_to = self.max_valid_to.max(stamps.valid_to);
        } else {
            self.max_stop = self.max_stop.max(stamps.stop);
        }
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

    /// Newest transaction-stop time among migrated stopped versions.
    pub fn max_stop(&self) -> TimeVal {
        self.max_stop
    }

    /// Newest valid end among migrated transaction-current versions.
    pub fn max_valid_to(&self) -> TimeVal {
        self.max_valid_to
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

    /// The only way rows enter a history file: append `rows`, in order,
    /// on **fresh pages only**, returning a new `ClusteredHistory` with
    /// the extended directory and both watermarks raised from each row's
    /// `stamps`. The receiver — and any snapshot catalog holding it — is
    /// untouched: its directory references only pages whose contents
    /// never change again.
    pub fn with_migrated(
        &self,
        pager: &Pager,
        rows: &[Vec<u8>],
        stamps: impl Fn(&[u8]) -> Stamps,
    ) -> Result<ClusteredHistory> {
        let mut out = self.clone();
        // Per-key tail page *within this batch* — never a pre-existing
        // page.
        let mut batch_tail: HashMap<Vec<u8>, u32> = HashMap::new();
        let w = out.row_width;
        for row in rows {
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
            out.raise(stamps(row));
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

    /// The stamps of a version stopped at `t`.
    fn stopped(t: u32) -> Stamps {
        Stamps {
            stop: TimeVal(t),
            valid_to: TimeVal::FOREVER,
        }
    }

    /// A row of key `id` that carries `stamps` in bytes 4..12, and the
    /// reader of them a reopen is given.
    fn stamped(id: i32, stamps: Stamps) -> Vec<u8> {
        let mut r = row(id, 0);
        r[4..8].copy_from_slice(&stamps.stop.0.to_le_bytes());
        r[8..12].copy_from_slice(&stamps.valid_to.0.to_le_bytes());
        r
    }

    fn stamps_of(row: &[u8]) -> Stamps {
        let at = |i: usize| {
            TimeVal(u32::from_le_bytes(row[i..i + 4].try_into().unwrap()))
        };
        Stamps {
            stop: at(4),
            valid_to: at(8),
        }
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
        let batch: Vec<Vec<u8>> = (0..28u8)
            .flat_map(|round| (1..=4).map(move |id| row(id, round)))
            .collect();
        // Each version stopped at its round, the tag `row` fills it with.
        let h = ClusteredHistory::create(&pager, W, key())
            .unwrap()
            .with_migrated(&pager, &batch, |r| stopped(r[4].into()))
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
        let seed: Vec<Vec<u8>> = (0..3u8).map(|i| row(1, i)).collect();
        let h = ClusteredHistory::create(&pager, W, key())
            .unwrap()
            .with_migrated(&pager, &seed, |_| stopped(1))
            .unwrap();
        let before_pages = h.total_pages(&pager).unwrap();
        assert_eq!(before_pages, 1);
        let snapshot = h.clone();

        let batch: Vec<Vec<u8>> =
            (0..4u8).map(|i| row(1, 100 + i)).collect();
        let h2 = h.with_migrated(&pager, &batch, |_| stopped(5)).unwrap();
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
        let batch: Vec<Vec<u8>> = (0..20u8).map(|i| row(7, i)).collect();
        let h2 = h.with_migrated(&pager, &batch, |_| stopped(2)).unwrap();
        assert_eq!(h2.total_pages(&pager).unwrap(), 3);
        assert_eq!(h2.cluster_pages(&7i32.to_le_bytes()), 3);
    }

    #[test]
    fn reopen_rebuilds_the_directory() {
        let pager = Pager::in_memory();
        let batch: Vec<Vec<u8>> = (0..10u8)
            .flat_map(|round| (1..=3).map(move |id| row(id, round)))
            .collect();
        let h = ClusteredHistory::create(&pager, W, key())
            .unwrap()
            .with_migrated(&pager, &batch, |_| stopped(9))
            .unwrap();
        pager.flush_all().unwrap();
        let re =
            ClusteredHistory::reopen(&pager, h.file_id(), W, key(), |_| {
                stopped(9)
            })
            .unwrap();
        assert_eq!(re.rows(), h.rows());
        assert_eq!(re.max_stop(), TimeVal(9));
        assert_eq!(re.max_valid_to(), TimeVal::BEGINNING);
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

    #[test]
    fn each_watermark_tracks_its_own_rows_and_a_reopen_derives_both() {
        let pager = Pager::in_memory();
        let closed = |to: u32| Stamps {
            stop: TimeVal::FOREVER,
            valid_to: TimeVal(to),
        };
        // Stopped versions raise `max_stop` only; transaction-current
        // versions closed in valid time raise `max_valid_to` only.
        let batch: Vec<Vec<u8>> = [
            (1, stopped(30)),
            (1, closed(40)),
            (2, stopped(20)),
            (2, closed(25)),
        ]
        .into_iter()
        .map(|(id, s)| stamped(id, s))
        .collect();
        let h = ClusteredHistory::create(&pager, W, key())
            .unwrap()
            .with_migrated(&pager, &batch, stamps_of)
            .unwrap();
        assert_eq!(h.max_stop(), TimeVal(30));
        assert_eq!(h.max_valid_to(), TimeVal(40));
        pager.flush_all().unwrap();
        let re = ClusteredHistory::reopen(
            &pager,
            h.file_id(),
            W,
            key(),
            stamps_of,
        )
        .unwrap();
        assert_eq!(re.rows(), 4);
        assert_eq!(re.max_stop(), h.max_stop());
        assert_eq!(re.max_valid_to(), h.max_valid_to());
    }

    #[test]
    fn stays_in_primary_keeps_what_dml_or_an_at_now_query_can_reach() {
        let s =
            |stop: TimeVal, valid_to: TimeVal| Stamps { stop, valid_to };
        let (f, cut) = (TimeVal::FOREVER, TimeVal(50));
        assert!(s(f, f).stays_in_primary(cut));
        // Closed at or after the cutoff: an at-now query still sees it.
        assert!(s(f, TimeVal(50)).stays_in_primary(cut));
        assert!(s(f, TimeVal(60)).stays_in_primary(cut));
        assert!(!s(f, TimeVal(49)).stays_in_primary(cut));
        // Transaction-stopped versions always go.
        assert!(!s(TimeVal(70), f).stays_in_primary(cut));
        // A `FOREVER` cutoff keeps exactly the versions open in both.
        assert!(s(f, f).stays_in_primary(f));
        assert!(!s(f, TimeVal(60)).stays_in_primary(f));
    }
}
