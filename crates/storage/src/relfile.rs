//! A relation's storage file, whatever its organization.
//!
//! [`RelFile`] unifies the three access methods behind one interface so the
//! query processor can pick an access path ([`RelFile::lookup_eq`] when a
//! key-equality predicate exists, [`RelFile::scan`] otherwise) without
//! caring how the relation is organized. Below it there are two kinds of
//! file: heaps, and the chained files of [`crate::overflow`] (hash and
//! ISAM, which differ only in how they are built and how a key finds its
//! head pages).

use crate::disk::FileId;
use crate::hash::HashFile;
use crate::heap::{HeapFile, HeapScan};
use crate::isam::IsamFile;
use crate::key::{HashFn, KeySpec};
use crate::overflow::{ChainFile, ChainLookup, ChainScan};
use crate::page::PageKind;
use crate::pager::Pager;
use crate::tuple::TupleId;
use tdbms_kernel::{Error, Result};

/// The storage organization of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMethod {
    /// Unordered heap (the organization of a freshly created relation).
    #[default]
    Heap,
    /// Static hashing on a key attribute.
    Hash,
    /// ISAM on a key attribute.
    Isam,
}

impl std::fmt::Display for AccessMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessMethod::Heap => write!(f, "heap"),
            AccessMethod::Hash => write!(f, "hash"),
            AccessMethod::Isam => write!(f, "isam"),
        }
    }
}

/// A relation's file in one of the three organizations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelFile {
    /// Heap organization.
    Heap(HeapFile),
    /// Static hash organization.
    Hash(HashFile),
    /// ISAM organization.
    Isam(IsamFile),
}

impl RelFile {
    /// Build `method`'s organization over `rows` in the empty file
    /// `file`. The keyed organizations need `key`; `hashfn` matters to
    /// hash only.
    #[allow(clippy::too_many_arguments)]
    pub fn build_into(
        pager: &Pager,
        file: FileId,
        method: AccessMethod,
        rows: &[Vec<u8>],
        row_width: usize,
        key: Option<KeySpec>,
        hashfn: HashFn,
        fillfactor: u8,
    ) -> Result<RelFile> {
        let keyed = || {
            key.ok_or_else(|| {
                Error::Semantic(format!("modify to {method} needs a key"))
            })
        };
        Ok(match method {
            AccessMethod::Heap => {
                let heap = HeapFile::attach(file, row_width);
                for row in rows {
                    heap.insert(pager, row)?;
                }
                pager.flush_file(file)?;
                RelFile::Heap(heap)
            }
            AccessMethod::Hash => RelFile::Hash(HashFile::build_into(
                pager,
                file,
                rows,
                row_width,
                keyed()?,
                hashfn,
                fillfactor,
            )?),
            AccessMethod::Isam => RelFile::Isam(IsamFile::build_into(
                pager,
                file,
                rows,
                row_width,
                keyed()?,
                fillfactor,
            )?),
        })
    }

    /// The organization tag.
    pub fn method(&self) -> AccessMethod {
        match self {
            RelFile::Heap(_) => AccessMethod::Heap,
            RelFile::Hash(_) => AccessMethod::Hash,
            RelFile::Isam(_) => AccessMethod::Isam,
        }
    }

    /// The underlying storage file id.
    pub fn file_id(&self) -> FileId {
        match self {
            RelFile::Heap(f) => f.file,
            RelFile::Hash(f) => f.chain.file,
            RelFile::Isam(f) => f.chain.file,
        }
    }

    /// Fixed row width in bytes.
    pub fn row_width(&self) -> usize {
        match self {
            RelFile::Heap(f) => f.row_width,
            RelFile::Hash(f) => f.chain.row_width,
            RelFile::Isam(f) => f.chain.row_width,
        }
    }

    /// The chained view of a keyed file (`None` for heaps).
    pub(crate) fn chain(&self) -> Option<&ChainFile> {
        match self {
            RelFile::Heap(_) => None,
            RelFile::Hash(f) => Some(&f.chain),
            RelFile::Isam(f) => Some(&f.chain),
        }
    }

    /// The kind the page at `page_no` must carry: heads (every heap page,
    /// hash buckets, ISAM data pages) are data pages, then come ISAM's
    /// directory levels and, in a chained file, overflow pages.
    pub fn expected_kind(&self, page_no: u32) -> PageKind {
        let dir =
            |f: &IsamFile| f.levels.iter().any(|r| r.contains(&page_no));
        match self.chain() {
            None => PageKind::Data,
            Some(c) if page_no < c.n_heads => PageKind::Data,
            _ if matches!(self, RelFile::Isam(f) if dir(f)) => {
                PageKind::Directory
            }
            _ => PageKind::Overflow,
        }
    }

    /// The fewest pages the file can have: its head pages and directory.
    pub fn min_pages(&self) -> u32 {
        match self {
            RelFile::Heap(_) => 0,
            RelFile::Hash(f) => f.chain.n_heads,
            RelFile::Isam(f) => {
                f.levels.iter().fold(f.chain.n_heads, |m, r| m.max(r.end))
            }
        }
    }

    /// Insert a row, returning its address.
    pub fn insert(&self, pager: &Pager, row: &[u8]) -> Result<TupleId> {
        match self {
            RelFile::Heap(f) => f.insert(pager, row),
            RelFile::Hash(f) => f.insert(pager, row),
            RelFile::Isam(f) => f.insert(pager, row),
        }
    }

    /// Fill `row` with the row at `tid`.
    pub fn get(
        &self,
        pager: &Pager,
        tid: TupleId,
        row: &mut Vec<u8>,
    ) -> Result<()> {
        let w = self.row_width();
        pager.read(self.file_id(), tid.page, |p| {
            p.copy_row(w, tid.slot, row)
        })?
    }

    /// Overwrite the row at `tid` in place (logical deletion stamps a stop
    /// time this way).
    pub fn update(
        &self,
        pager: &Pager,
        tid: TupleId,
        row: &[u8],
    ) -> Result<()> {
        let w = self.row_width();
        pager.write(self.file_id(), tid.page, |p| {
            p.write_row(w, tid.slot, row)
        })?
    }

    /// Physically remove the row at `tid`, compacting within its page.
    /// Only static relations delete physically; the compaction moves the
    /// page's last row into the vacated slot, so callers deleting several
    /// rows must process slots of one page highest-first.
    pub fn delete(&self, pager: &Pager, tid: TupleId) -> Result<()> {
        let w = self.row_width();
        pager.write(self.file_id(), tid.page, |p| {
            p.remove_row(w, tid.slot).map(|_| ())
        })?
    }

    /// Begin a full scan.
    pub fn scan(&self) -> RelScan {
        match self {
            RelFile::Heap(f) => RelScan::Heap(f.scan()),
            _ => RelScan::Chain(ChainScan::default()),
        }
    }

    /// Begin a keyed equality lookup, if this organization supports one.
    /// Returns `Ok(None)` for heaps (the caller falls back to a scan).
    pub fn lookup_eq(
        &self,
        pager: &Pager,
        key_bytes: &[u8],
    ) -> Result<Option<RelLookup>> {
        Ok(match self {
            RelFile::Heap(_) => None,
            RelFile::Hash(f) => Some(RelLookup(f.lookup(key_bytes))),
            RelFile::Isam(f) => {
                Some(RelLookup(f.lookup(pager, key_bytes)?))
            }
        })
    }

    /// Total pages, including any directory.
    pub fn total_pages(&self, pager: &Pager) -> Result<u32> {
        pager.page_count(self.file_id())
    }

    /// Pages a sequential scan reads (total minus ISAM directory).
    pub fn scannable_pages(&self, pager: &Pager) -> Result<u32> {
        match self {
            RelFile::Isam(f) => f.scannable_pages(pager),
            _ => self.total_pages(pager),
        }
    }

    /// Directory levels a keyed access descends (ISAM only; 0 otherwise).
    pub fn directory_levels(&self) -> u32 {
        match self {
            RelFile::Isam(f) => f.n_levels(),
            _ => 0,
        }
    }
}

fn mismatch(what: &str) -> Error {
    Error::Internal(format!(
        "{what} cursor does not match file organization"
    ))
}

/// A full-scan cursor over any organization.
#[derive(Debug, Clone)]
pub enum RelScan {
    /// Heap scan state.
    Heap(HeapScan),
    /// Hash or ISAM scan state.
    Chain(ChainScan),
}

impl RelScan {
    /// Advance: the next row and its address, borrowed from the cursor
    /// until the next call; `None` at end. A caller that keeps the row
    /// copies it. One buffered access per page visited.
    pub fn next(
        &mut self,
        pager: &Pager,
        file: &RelFile,
    ) -> Result<Option<(TupleId, &[u8])>> {
        match (self, file) {
            (RelScan::Heap(c), RelFile::Heap(f)) => c.next(pager, f),
            (RelScan::Chain(c), f) => {
                c.next(pager, f.chain().ok_or_else(|| mismatch("scan"))?)
            }
            _ => Err(mismatch("scan")),
        }
    }
}

/// A keyed-lookup cursor over a hash or ISAM file.
#[derive(Debug, Clone)]
pub struct RelLookup(ChainLookup);

impl RelLookup {
    /// Advance: the next version of the key and its address, borrowed
    /// from the cursor until the next call; `None` when no more versions
    /// match. One buffered access per chain page visited.
    pub fn next(
        &mut self,
        pager: &Pager,
        file: &RelFile,
    ) -> Result<Option<(TupleId, &[u8])>> {
        let chain = file.chain().ok_or_else(|| mismatch("lookup"))?;
        self.0.next(pager, chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::FileIo;
    use crate::page::NO_PAGE;
    use crate::pager::{BufferConfig, EvictionPolicy};
    use tdbms_kernel::{AttrDef, Domain, RowCodec, Schema, Value};

    fn setup() -> (RowCodec, Vec<Vec<u8>>) {
        let s = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("pad", Domain::Char(104)),
        ])
        .unwrap();
        let codec = RowCodec::new(&s);
        let rows = (1..=40i64)
            .map(|i| {
                codec
                    .encode(&[Value::Int(i), Value::Str("x".into())])
                    .unwrap()
            })
            .collect();
        (codec, rows)
    }

    fn all_organizations(
        pager: &Pager,
        rows: &[Vec<u8>],
        key: KeySpec,
    ) -> Vec<RelFile> {
        let heap = HeapFile::create(pager, 108).unwrap();
        for r in rows {
            heap.insert(pager, r).unwrap();
        }
        let hash = HashFile::build(pager, rows, 108, key, HashFn::Mod, 100)
            .unwrap();
        let isam = IsamFile::build(pager, rows, 108, key, 100).unwrap();
        vec![
            RelFile::Heap(heap),
            RelFile::Hash(hash),
            RelFile::Isam(isam),
        ]
    }

    #[test]
    fn scan_sees_all_rows_in_every_organization() {
        let (codec, rows) = setup();
        let pager = Pager::in_memory();
        let key = KeySpec::for_attr(&codec, 0);
        for rel in all_organizations(&pager, &rows, key) {
            let mut ids: Vec<i32> = Vec::new();
            let mut cur = rel.scan();
            while let Some((_, row)) = cur.next(&pager, &rel).unwrap() {
                ids.push(codec.get_i4(row, 0));
            }
            ids.sort_unstable();
            assert_eq!(
                ids,
                (1..=40).collect::<Vec<i32>>(),
                "organization {:?}",
                rel.method()
            );
        }
    }

    #[test]
    fn lookup_eq_matches_organization_capability() {
        let (codec, rows) = setup();
        let pager = Pager::in_memory();
        let key = KeySpec::for_attr(&codec, 0);
        let rels = all_organizations(&pager, &rows, key);
        let kb = 17i32.to_le_bytes();
        assert!(rels[0].lookup_eq(&pager, &kb).unwrap().is_none());
        for rel in &rels[1..] {
            let mut cur =
                rel.lookup_eq(&pager, &kb).unwrap().expect("keyed");
            let (_, row) = cur.next(&pager, rel).unwrap().expect("found");
            assert_eq!(codec.get_i4(row, 0), 17);
            assert!(cur.next(&pager, rel).unwrap().is_none());
        }
    }

    #[test]
    fn mismatched_cursor_is_an_error() {
        let (codec, rows) = setup();
        let pager = Pager::in_memory();
        let key = KeySpec::for_attr(&codec, 0);
        let rels = all_organizations(&pager, &rows, key);
        let mut heap_cursor = rels[0].scan();
        assert!(heap_cursor.next(&pager, &rels[1]).is_err());
    }

    #[test]
    fn delete_compacts_in_any_organization() {
        let (codec, rows) = setup();
        let pager = Pager::in_memory();
        let key = KeySpec::for_attr(&codec, 0);
        for rel in all_organizations(&pager, &rows, key) {
            // Find id 5 and delete it.
            let mut cur = rel.scan();
            let mut target = None;
            while let Some((tid, row)) = cur.next(&pager, &rel).unwrap() {
                if codec.get_i4(row, 0) == 5 {
                    target = Some(tid);
                    break;
                }
            }
            rel.delete(&pager, target.unwrap()).unwrap();
            let mut n = 0;
            let mut cur = rel.scan();
            while let Some((_, row)) = cur.next(&pager, &rel).unwrap() {
                assert_ne!(codec.get_i4(row, 0), 5);
                n += 1;
            }
            assert_eq!(n, 39, "organization {:?}", rel.method());
        }
    }

    #[test]
    fn get_and_update_in_place_in_any_organization() {
        let (codec, rows) = setup();
        let pager = Pager::in_memory();
        let key = KeySpec::for_attr(&codec, 0);
        for rel in all_organizations(&pager, &rows, key) {
            let get = |tid| {
                let mut row = Vec::new();
                rel.get(&pager, tid, &mut row).map(|()| row)
            };
            let mut cur = rel.scan();
            let (tid, mut row) = loop {
                let (tid, row) = cur.next(&pager, &rel).unwrap().unwrap();
                if codec.get_i4(row, 0) == 5 {
                    break (tid, row.to_vec());
                }
            };
            assert_eq!(get(tid).unwrap(), row);
            codec
                .put(&mut row, 1, &Value::Str("updated".into()))
                .unwrap();
            rel.update(&pager, tid, &row).unwrap();
            assert_eq!(get(tid).unwrap(), row);
            // Deleting compacts the page: its last row moves into the
            // vacated slot and the page's last slot becomes unreadable.
            let last = (tid.slot..)
                .map(|s| TupleId::new(tid.page, s))
                .take_while(|t| get(*t).is_ok())
                .last()
                .unwrap();
            let moved = get(last).unwrap();
            rel.delete(&pager, tid).unwrap();
            assert_eq!(get(tid).unwrap(), moved);
            assert!(get(last).is_err());
        }
    }

    /// `(tid, row)` in file order, decoded page by page: a heap's pages
    /// in order, a chained file's heads each followed by its chain.
    fn page_decode(
        pager: &Pager,
        rel: &RelFile,
    ) -> Vec<(TupleId, Vec<u8>)> {
        let (file, w) = (rel.file_id(), rel.row_width());
        let pages: Vec<u32> = match rel.chain() {
            None => (0..pager.page_count(file).unwrap()).collect(),
            Some(c) => (0..c.n_heads)
                .flat_map(|head| {
                    std::iter::successors(Some(head), |&p| {
                        let next = pager.read(file, p, |pg| pg.overflow());
                        Some(next.unwrap()).filter(|&n| n != NO_PAGE)
                    })
                })
                .collect(),
        };
        let mut out = Vec::new();
        for p in pages {
            pager
                .read(file, p, |pg| {
                    for (slot, row) in pg.rows(w) {
                        out.push((TupleId::new(p, slot), row.to_vec()));
                    }
                })
                .unwrap();
        }
        out
    }

    /// Run `read` from cold buffers, returning what it yielded and the
    /// file's counters for it.
    fn cold(
        pager: &Pager,
        rel: &RelFile,
        read: impl FnOnce() -> Vec<(TupleId, Vec<u8>)>,
    ) -> (Vec<(TupleId, Vec<u8>)>, FileIo) {
        pager.invalidate_buffers().unwrap();
        let scope = pager.stats().scope();
        let got = read();
        let io = scope.of(rel.file_id());
        assert!(io.is_consistent());
        (got, io)
    }

    /// The cursors yield exactly the page-by-page decode, and a page
    /// visit is one buffered access however many rows it yields: a scan
    /// costs one access per page, a keyed lookup one per chain page
    /// (after its directory descent), a `get` one per row. A cursor
    /// that went back to the pager for each row would count more.
    /// Heap, hash and ISAM (each chained file with an overflow chain)
    /// at 1 and 3 frames, every count pinned.
    #[test]
    fn cursors_yield_the_page_decode_at_one_access_per_page() {
        use AccessMethod::{Hash, Heap, Isam};
        type Pin = (u64, u64, u64, u64);
        // 52 rows at 9 a page. The heap has 6 pages; the hash and ISAM
        // files 7, id 17's chain 3 of them, and ISAM's descent reads
        // one directory page. `(accesses, hits, reads, evictions)` of
        // a cold scan, a `get` of every row, and a lookup of id 17.
        let pins: [(AccessMethod, usize, Pin, Pin, Option<Pin>); 6] = [
            (Heap, 1, (6, 0, 6, 5), (52, 46, 6, 5), None),
            (Hash, 1, (7, 0, 7, 6), (52, 45, 7, 6), Some((3, 0, 3, 2))),
            (Isam, 1, (7, 0, 7, 6), (52, 45, 7, 6), Some((4, 0, 4, 3))),
            (Heap, 3, (6, 0, 6, 3), (52, 46, 6, 3), None),
            (Hash, 3, (7, 0, 7, 4), (52, 45, 7, 4), Some((3, 0, 3, 0))),
            (Isam, 3, (7, 0, 7, 4), (52, 45, 7, 4), Some((4, 0, 4, 1))),
        ];
        let (codec, rows) = setup();
        let key = KeySpec::for_attr(&codec, 0);
        let version = codec
            .encode(&[Value::Int(17), Value::Str("v".into())])
            .unwrap();
        let kb = 17i32.to_le_bytes();
        let pin =
            |io: FileIo| (io.accesses, io.hits, io.reads, io.evictions);
        let mut checked = 0;
        for frames in [1, 3] {
            let pager = Pager::in_memory_with_config(
                BufferConfig::uniform(frames, EvictionPolicy::Lru),
            );
            for rel in all_organizations(&pager, &rows, key) {
                let (_, _, scan_pin, get_pin, lookup_pin) = pins
                    .into_iter()
                    .find(|p| (p.0, p.1) == (rel.method(), frames))
                    .unwrap();
                let what = format!("{:?} at {frames} frames", rel.method());
                // 12 more versions of id 17: a chained file's chain for
                // 17 grows overflow pages.
                for _ in 0..12 {
                    rel.insert(&pager, &version).unwrap();
                }
                pager.flush_all().unwrap();
                let decoded = page_decode(&pager, &rel);
                assert_eq!(decoded.len(), 52, "{what}");

                let (scanned, io) = cold(&pager, &rel, || {
                    let (mut cur, mut out) = (rel.scan(), Vec::new());
                    while let Some((tid, row)) =
                        cur.next(&pager, &rel).unwrap()
                    {
                        out.push((tid, row.to_vec()));
                    }
                    out
                });
                assert_eq!(scanned, decoded, "{what}: scan");
                assert_eq!(pin(io), scan_pin, "{what}: scan");

                let (got, io) = cold(&pager, &rel, || {
                    let mut row = Vec::new();
                    decoded
                        .iter()
                        .map(|&(tid, _)| {
                            rel.get(&pager, tid, &mut row).unwrap();
                            (tid, row.clone())
                        })
                        .collect()
                });
                assert_eq!(got, decoded, "{what}: get");
                assert_eq!(pin(io), get_pin, "{what}: get");

                let Some(lookup_pin) = lookup_pin else {
                    assert!(rel.lookup_eq(&pager, &kb).unwrap().is_none());
                    checked += 1;
                    continue;
                };
                let versions: Vec<_> = decoded
                    .iter()
                    .filter(|(_, r)| codec.get_i4(r, 0) == 17)
                    .cloned()
                    .collect();
                assert_eq!(versions.len(), 13, "{what}");
                let (found, io) = cold(&pager, &rel, || {
                    let mut cur =
                        rel.lookup_eq(&pager, &kb).unwrap().expect("keyed");
                    let mut out = Vec::new();
                    while let Some((tid, row)) =
                        cur.next(&pager, &rel).unwrap()
                    {
                        out.push((tid, row.to_vec()));
                    }
                    out
                });
                assert_eq!(found, versions, "{what}: lookup");
                assert_eq!(pin(io), lookup_pin, "{what}: lookup");
                checked += 1;
            }
        }
        assert_eq!(checked, pins.len());
    }
}
