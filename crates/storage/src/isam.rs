//! ISAM files: sorted data pages under a static multi-level directory.
//!
//! `modify R to isam on k where fillfactor = F` sorts the rows, writes data
//! pages filled to the fill factor, then builds a directory of first keys —
//! one entry per child page, key-only (the child page number is implicit in
//! the entry's position, Ingres-style), so a 1024-byte directory page
//! indexes 253 children. Keyed access descends one directory page per
//! level, then walks the data page's overflow chain; a sequential scan
//! reads data and overflow pages but *not* the directory (which is why the
//! paper's ISAM scans cost exactly `size - directory` pages).
//!
//! The directory is static: inserted rows go to the overflow chain of the
//! data page their key maps to, and reorganization (`modify`) is the only
//! way to flatten chains — but, as the paper notes, "reorganization does
//! not help to shorten overflow chains, because all versions of a tuple
//! share the same key".

use crate::disk::FileId;
use crate::key::KeySpec;
use crate::overflow::{fresh_guard, ChainFile, ChainLookup};
use crate::page::{page_capacity, rows_per_page_at_fill, PageKind};
use crate::pager::Pager;
use crate::tuple::TupleId;
use std::cmp::Ordering;
use std::ops::Range;
use tdbms_kernel::{Error, Result};

/// The first slot in `from..to` where `holds` turns false, for a
/// predicate that holds on a prefix of the range.
fn partition(
    from: u32,
    to: u32,
    mut holds: impl FnMut(u32) -> Result<bool>,
) -> Result<u32> {
    let (mut lo, mut hi) = (from, to);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid)? {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// An ISAM file of fixed-width rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsamFile {
    /// The data-page chains: head pages are the sorted data pages.
    pub chain: ChainFile,
    /// Directory page ranges, leaf level first, root level last. The root
    /// range always has length 1.
    pub levels: Vec<Range<u32>>,
}

impl IsamFile {
    /// Build an ISAM file over a fresh storage file from `rows` (sorted
    /// internally).
    pub fn build(
        pager: &Pager,
        rows: &[Vec<u8>],
        row_width: usize,
        key: KeySpec,
        fillfactor: u8,
    ) -> Result<IsamFile> {
        let file = pager.create_file()?;
        Self::build_into(pager, file, rows, row_width, key, fillfactor)
    }

    /// Build into an existing (truncated) file — used by `modify`.
    pub fn build_into(
        pager: &Pager,
        file: FileId,
        rows: &[Vec<u8>],
        row_width: usize,
        key: KeySpec,
        fillfactor: u8,
    ) -> Result<IsamFile> {
        if pager.page_count(file)? != 0 {
            return Err(Error::Internal(
                "isam build requires an empty file".into(),
            ));
        }
        let mut sorted: Vec<&Vec<u8>> = rows.iter().collect();
        for row in &sorted {
            if row.len() != row_width {
                return Err(Error::RowSize {
                    expected: row_width,
                    got: row.len(),
                });
            }
        }
        sorted.sort_by(|a, b| key.compare(key.extract(a), key.extract(b)));

        let per_page = rows_per_page_at_fill(row_width, fillfactor);

        // Data pages, filled to the fill factor.
        let mut first_keys: Vec<Vec<u8>> = Vec::new();
        if sorted.is_empty() {
            pager.append_page(file, PageKind::Data)?;
            first_keys.push(vec![0u8; key.len]);
        }
        for chunk in sorted.chunks(per_page) {
            let page_no = pager.append_page(file, PageKind::Data)?;
            for row in chunk {
                pager.write(file, page_no, |p| {
                    p.push_row(row_width, row)
                })??;
            }
            first_keys.push(key.extract(chunk[0]).to_vec());
        }
        let n_data_pages = first_keys.len() as u32;

        // Directory levels: each level holds the first keys of the level
        // below (level 0 = data pages), `fanout` entries per page, until a
        // level fits in one page (the root). Entries are key-only rows.
        let fanout = page_capacity(key.len);
        let mut levels: Vec<Range<u32>> = Vec::new();
        let mut level_keys = first_keys;
        loop {
            let start = pager.page_count(file)?;
            let mut next_keys: Vec<Vec<u8>> = Vec::new();
            for chunk in level_keys.chunks(fanout) {
                let page_no =
                    pager.append_page(file, PageKind::Directory)?;
                for k in chunk {
                    pager.write(file, page_no, |p| {
                        p.push_row(key.len, k)
                    })??;
                }
                next_keys.push(chunk[0].clone());
            }
            let end = pager.page_count(file)?;
            levels.push(start..end);
            if end - start <= 1 {
                break;
            }
            level_keys = next_keys;
        }
        pager.flush_file(file)?;
        // An ISAM build never spills (chains only grow through inserts),
        // so the chain guard starts empty: every data page's overflow
        // walk is skippable until an insert lands behind it.
        pager.bloom_install(file, fresh_guard(file, rows.len()));
        let chain = ChainFile {
            file,
            row_width,
            key,
            n_heads: n_data_pages,
        };
        Ok(IsamFile { chain, levels })
    }

    /// Number of directory pages (of all levels).
    pub fn n_directory_pages(&self) -> u32 {
        self.levels.iter().map(|r| r.end - r.start).sum()
    }

    /// Number of directory levels (= directory pages read per keyed
    /// access).
    pub fn n_levels(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Pages a sequential scan touches: everything except the directory.
    pub fn scannable_pages(&self, pager: &Pager) -> Result<u32> {
        Ok(pager.page_count(self.chain.file)? - self.n_directory_pages())
    }

    /// Descend the directory for `key_bytes`. Returns the inclusive range
    /// `(start, end)` of data pages that may contain the key: the rightmost
    /// page whose first key is below the key (it may hold the key in its
    /// tail), plus every following page whose first key *equals* the key
    /// (duplicate runs).
    ///
    /// An entry's position is its child's page index one level down, so
    /// the candidate range narrowed at one level is the page range to
    /// search at the next, and boundary keys (a key equal to some page's
    /// first key) are handled exactly. For a key that is not a boundary —
    /// every benchmark key — the descent reads exactly one directory page
    /// per level, the paper's keyed-ISAM cost; a boundary key may touch a
    /// second page at a level. Each visited page is accessed once and
    /// binary-searched in place; the search stops at the first page that
    /// holds an entry above the key.
    fn descend(
        &self,
        pager: &Pager,
        key_bytes: &[u8],
    ) -> Result<(u32, u32)> {
        let key = self.chain.key;
        let fanout = page_capacity(key.len) as u32;
        // Candidate pages within the current level; the root is one page.
        let (mut start, mut end) = (0, 0);
        for level in self.levels.iter().rev() {
            // Narrow to the children that can contain the key: the
            // rightmost entry below it plus any run of equal entries.
            let (mut lo, mut hi) = (start * fanout, start * fanout);
            for page in start..=end {
                let dir_page = level.start + page;
                let passed =
                    pager.read(self.chain.file, dir_page, |p| {
                        let n = p.count() as u32;
                        let cmp = |slot: u32| -> Result<Ordering> {
                            let entry = p.row(key.len, slot as u16)?;
                            Ok(key.compare(entry, key_bytes))
                        };
                        // Entries are sorted: `[0, below)` are less than
                        // the key, `[below, upto)` equal to it.
                        let below =
                            partition(0, n, |s| Ok(cmp(s)?.is_lt()))?;
                        let upto =
                            partition(below, n, |s| Ok(cmp(s)?.is_le()))?;
                        let idx = page * fanout;
                        if below > 0 {
                            (lo, hi) = (idx + below - 1, idx + below - 1);
                        }
                        if upto > below {
                            hi = idx + upto - 1;
                        }
                        Ok::<_, Error>(upto < n)
                    })??;
                if passed {
                    break;
                }
            }
            (start, end) = (lo, hi);
        }
        Ok((start, end))
    }

    /// Insert a row on the chain of the *last* candidate data page: for a
    /// key equal to some page's first key that is the page which naturally
    /// owns it, so uniform update rounds grow every data page's chain
    /// evenly.
    pub fn insert(&self, pager: &Pager, row: &[u8]) -> Result<TupleId> {
        self.chain
            .insert(pager, row, |k| Ok(self.descend(pager, k)?.1))
    }

    /// Begin a keyed lookup: descends the directory (one read per level),
    /// then yields every version with the key from the candidate data
    /// pages' chains.
    pub fn lookup(
        &self,
        pager: &Pager,
        key_bytes: &[u8],
    ) -> Result<ChainLookup> {
        Ok(ChainLookup::new(key_bytes, self.descend(pager, key_bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyKind;
    use crate::overflow::ChainScan;
    use tdbms_kernel::{AttrDef, Domain, Prng, RowCodec, Schema, Value};

    fn make_rows(n: i32, width_pad: u16) -> (RowCodec, Vec<Vec<u8>>) {
        let s = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("pad", Domain::Char(width_pad)),
        ])
        .unwrap();
        let codec = RowCodec::new(&s);
        // Shuffled insertion order to prove build() sorts.
        let mut ids: Vec<i32> = (1..=n).collect();
        ids.reverse();
        let rows = ids
            .iter()
            .map(|i| {
                codec
                    .encode(&[
                        Value::Int(*i as i64),
                        Value::Str("x".into()),
                    ])
                    .unwrap()
            })
            .collect();
        (codec, rows)
    }

    fn key(codec: &RowCodec) -> KeySpec {
        KeySpec::for_attr(codec, 0)
    }

    #[test]
    fn build_produces_paper_page_counts() {
        // 1024 rows at 108 bytes, 100 % fill: 114 data pages + 1 directory.
        let (codec, rows) = make_rows(1024, 104);
        let pager = Pager::in_memory();
        let f =
            IsamFile::build(&pager, &rows, 108, key(&codec), 100).unwrap();
        assert_eq!(f.chain.n_heads, 114);
        assert_eq!(f.n_directory_pages(), 1);
        assert_eq!(f.n_levels(), 1);
        assert_eq!(pager.page_count(f.chain.file).unwrap(), 115);

        // 50 % fill: 256 data pages; 256 entries exceed one directory page
        // (fanout 253), so two leaf pages plus a root = 3 directory pages.
        let f50 =
            IsamFile::build(&pager, &rows, 108, key(&codec), 50).unwrap();
        assert_eq!(f50.chain.n_heads, 256);
        assert_eq!(f50.n_directory_pages(), 3);
        assert_eq!(f50.n_levels(), 2);
        assert_eq!(pager.page_count(f50.chain.file).unwrap(), 259);
    }

    #[test]
    fn keyed_access_costs_levels_plus_chain() {
        let (codec, rows) = make_rows(1024, 104);
        let pager = Pager::in_memory();
        let f =
            IsamFile::build(&pager, &rows, 108, key(&codec), 100).unwrap();
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let kb = 500i32.to_le_bytes();
        let mut cur = f.lookup(&pager, &kb).unwrap();
        let mut n = 0;
        let mut row = Vec::new();
        while cur.next(&pager, &f.chain, &mut row).unwrap().is_some() {
            assert_eq!(codec.get_i4(&row, 0), 500);
            n += 1;
        }
        assert_eq!(n, 1);
        // 1 directory + 1 data page = the paper's Q02 cost of 2 at UC 0.
        assert_eq!(cost.of(f.chain.file).reads, 2);

        // At 50 % loading the directory has two levels: cost 3 (paper's
        // Q02 at 50 %).
        let f50 =
            IsamFile::build(&pager, &rows, 108, key(&codec), 50).unwrap();
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut cur = f50.lookup(&pager, &kb).unwrap();
        let mut row = Vec::new();
        while cur.next(&pager, &f50.chain, &mut row).unwrap().is_some() {}
        assert_eq!(cost.of(f50.chain.file).reads, 3);
    }

    #[test]
    fn scan_skips_directory_pages() {
        let (codec, rows) = make_rows(1024, 104);
        let pager = Pager::in_memory();
        let f =
            IsamFile::build(&pager, &rows, 108, key(&codec), 100).unwrap();
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut scan = ChainScan::default();
        let mut n = 0;
        let mut row = Vec::new();
        while scan.next(&pager, &f.chain, &mut row).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 1024);
        assert_eq!(cost.of(f.chain.file).reads, 114);
    }

    #[test]
    fn scan_yields_rows_in_key_order() {
        let (codec, rows) = make_rows(100, 104);
        let pager = Pager::in_memory();
        let f =
            IsamFile::build(&pager, &rows, 108, key(&codec), 100).unwrap();
        let mut scan = ChainScan::default();
        let mut prev = i32::MIN;
        let mut row = Vec::new();
        while scan.next(&pager, &f.chain, &mut row).unwrap().is_some() {
            let id = codec.get_i4(&row, 0);
            assert!(id > prev);
            prev = id;
        }
        assert_eq!(prev, 100);
    }

    #[test]
    fn inserts_chain_on_the_right_data_page() {
        let (codec, rows) = make_rows(64, 104); // 8 data pages of 9... 64/9=8 pages
        let pager = Pager::in_memory();
        let f =
            IsamFile::build(&pager, &rows, 108, key(&codec), 100).unwrap();
        let v = codec
            .encode(&[Value::Int(12), Value::Str("v".into())])
            .unwrap();
        for _ in 0..12 {
            f.insert(&pager, &v).unwrap();
        }
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let kb = 12i32.to_le_bytes();
        let mut cur = f.lookup(&pager, &kb).unwrap();
        let mut n = 0;
        let mut row = Vec::new();
        while cur.next(&pager, &f.chain, &mut row).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 13);
        // dir (1) + data page + 2 overflow pages (8 full + 12 versions:
        // page had 9, 8 original + 1 new fills it, 11 more → 2 overflow).
        assert_eq!(cost.of(f.chain.file).reads, 4);
        // Unrelated key in another page: still 2 reads.
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let kb = 60i32.to_le_bytes();
        let mut cur = f.lookup(&pager, &kb).unwrap();
        let mut row = Vec::new();
        while cur.next(&pager, &f.chain, &mut row).unwrap().is_some() {}
        assert_eq!(cost.of(f.chain.file).reads, 2);
    }

    #[test]
    fn equal_key_runs_crossing_pages_are_found() {
        // 30 rows with key 5 span multiple data pages at load.
        let s = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("pad", Domain::Char(104)),
        ])
        .unwrap();
        let codec = RowCodec::new(&s);
        let mut rows: Vec<Vec<u8>> = Vec::new();
        for i in 1..=5i64 {
            rows.push(
                codec
                    .encode(&[Value::Int(i), Value::Str("a".into())])
                    .unwrap(),
            );
        }
        for _ in 0..30 {
            rows.push(
                codec
                    .encode(&[Value::Int(5), Value::Str("b".into())])
                    .unwrap(),
            );
        }
        for i in 6..=10i64 {
            rows.push(
                codec
                    .encode(&[Value::Int(i), Value::Str("c".into())])
                    .unwrap(),
            );
        }
        let pager = Pager::in_memory();
        let f = IsamFile::build(
            &pager,
            &rows,
            108,
            KeySpec {
                offset: 0,
                len: 4,
                kind: KeyKind::I4,
            },
            100,
        )
        .unwrap();
        let kb = 5i32.to_le_bytes();
        let mut cur = f.lookup(&pager, &kb).unwrap();
        let mut n = 0;
        let mut row = Vec::new();
        while cur.next(&pager, &f.chain, &mut row).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 31);
    }

    #[test]
    fn lookup_of_absent_and_extreme_keys() {
        let (codec, rows) = make_rows(50, 104);
        let pager = Pager::in_memory();
        let f =
            IsamFile::build(&pager, &rows, 108, key(&codec), 100).unwrap();
        for probe in [0i32, 51, 1000, -7] {
            let kb = probe.to_le_bytes();
            let mut cur = f.lookup(&pager, &kb).unwrap();
            assert!(
                cur.next(&pager, &f.chain, &mut Vec::new())
                    .unwrap()
                    .is_none(),
                "key {probe} should be absent"
            );
        }
    }

    #[test]
    fn empty_build_has_one_data_page_and_root() {
        let (codec, _) = make_rows(0, 104);
        let pager = Pager::in_memory();
        let f =
            IsamFile::build(&pager, &[], 108, key(&codec), 100).unwrap();
        assert_eq!(f.chain.n_heads, 1);
        assert_eq!(f.n_directory_pages(), 1);
        let mut scan = ChainScan::default();
        assert!(scan
            .next(&pager, &f.chain, &mut Vec::new())
            .unwrap()
            .is_none());
    }

    /// The descent as a linear scan of each visited directory page: the
    /// reference the binary-searching [`IsamFile::descend`] must match.
    fn descend_linear(
        f: &IsamFile,
        pager: &Pager,
        key_bytes: &[u8],
    ) -> Result<(u32, u32)> {
        let key = f.chain.key;
        let fanout = page_capacity(key.len) as u32;
        let (mut start, mut end) = (0, 0);
        for level in f.levels.iter().rev() {
            let (mut lo, mut hi) = (start * fanout, start * fanout);
            for page in start..=end {
                let passed = pager.read(
                    f.chain.file,
                    level.start + page,
                    |p| {
                        for slot in 0..p.count() as u32 {
                            let idx = page * fanout + slot;
                            let entry = p.row(key.len, slot as u16)?;
                            match key.compare(entry, key_bytes) {
                                Ordering::Less => (lo, hi) = (idx, idx),
                                Ordering::Equal => hi = idx,
                                Ordering::Greater => return Ok(true),
                            }
                        }
                        Ok::<_, Error>(false)
                    },
                )??;
                if passed {
                    break;
                }
            }
            (start, end) = (lo, hi);
        }
        Ok((start, end))
    }

    /// Random sorted key sets with duplicate runs, over directories of
    /// fanout 10 so a level spans several pages: for every probe —
    /// below all entries, above all, equal to a page's first entry, and
    /// between entries — the binary descent returns the linear scan's
    /// range after exactly the same page accesses.
    #[test]
    fn binary_descent_agrees_with_a_linear_scan() {
        const W: usize = 100;
        let key = KeySpec {
            offset: 0,
            len: W,
            kind: KeyKind::Bytes,
        };
        assert_eq!(page_capacity(W), 10);
        // Big-endian in the leading bytes: byte order is numeric order.
        let enc = |v: u32| {
            let mut row = vec![0u8; W];
            row[..4].copy_from_slice(&v.to_be_bytes());
            row
        };
        let (mut wide_levels, mut runs_across_pages) = (0, 0);
        for case in 0..48u64 {
            let mut rng = Prng::seed_from_u64(0x15a4_de5c + case);
            // Stored keys are even, so odd probes fall between entries.
            let distinct = rng.random_range(1..40u32);
            let mut rows: Vec<Vec<u8>> = (0..rng.random_range(0..200usize))
                .map(|_| enc(2 * rng.random_range(0..distinct) + 2))
                .collect();
            // One run of equal keys, at its longest spanning more data
            // pages than a directory page indexes.
            let run = enc(2 * rng.random_range(0..distinct) + 2);
            rows.extend(
                (0..rng.random_range(0..250usize)).map(|_| run.clone()),
            );
            let fill = rng.random_range(50..=100u8);
            let pager = Pager::in_memory();
            let f = IsamFile::build(&pager, &rows, W, key, fill).unwrap();
            wide_levels += usize::from(f.levels[0].len() > 1);
            for probe in 0..=2 * distinct + 3 {
                let kb = enc(probe);
                let cost = |descent: &dyn Fn() -> Result<(u32, u32)>| {
                    pager.invalidate_buffers().unwrap();
                    let io = pager.stats().scope();
                    (descent().unwrap(), io.total())
                };
                let (got, got_io) = cost(&|| f.descend(&pager, &kb));
                let want = cost(&|| descend_linear(&f, &pager, &kb));
                assert_eq!(
                    (got, got_io),
                    want,
                    "case {case} (fill {fill}), probe {probe}"
                );
                runs_across_pages +=
                    usize::from(got_io.accesses > f.n_levels() as u64);
            }
        }
        assert!(wide_levels > 0, "no case had a multi-page level");
        assert!(runs_across_pages > 0, "no descent crossed a page");
    }

    #[test]
    fn three_level_directory() {
        // Force multiple directory levels with a wide key: fanout for a
        // 340-byte key is (1024-12)/340 = 2 entries/page. 9 data pages →
        // levels of 5, 3, 2, 1 pages.
        let s = Schema::static_relation(vec![AttrDef::new(
            "k",
            Domain::Char(340),
        )])
        .unwrap();
        let codec = RowCodec::new(&s);
        let rows: Vec<Vec<u8>> = (0..18)
            .map(|i| {
                codec.encode(&[Value::Str(format!("key{:02}", i))]).unwrap()
            })
            .collect();
        let pager = Pager::in_memory();
        let f = IsamFile::build(
            &pager,
            &rows,
            340,
            KeySpec {
                offset: 0,
                len: 340,
                kind: KeyKind::Bytes,
            },
            100,
        )
        .unwrap();
        assert_eq!(f.chain.n_heads, 9); // 2 rows per page
        assert_eq!(f.n_levels(), 4);
        // Every key is findable through the deep directory.
        for i in 0..18 {
            let probe = codec
                .encode(&[Value::Str(format!("key{:02}", i))])
                .unwrap();
            let kb = f.chain.key.extract(&probe).to_vec();
            let mut cur = f.lookup(&pager, &kb).unwrap();
            assert!(
                cur.next(&pager, &f.chain, &mut Vec::new())
                    .unwrap()
                    .is_some(),
                "key{:02} not found",
                i
            );
        }
    }
}
