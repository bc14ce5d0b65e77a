//! Static hash files.
//!
//! `modify R to hash on k where fillfactor = F` builds one: the number of
//! primary pages (buckets) is fixed at build time from the tuple count and
//! fill factor; rows hash to a bucket and live on its primary page or on
//! the overflow pages chained behind it. Because all versions of a tuple
//! share the same key, every update lengthens its bucket's chain — the
//! degradation mechanism at the center of the paper's analysis. Keyed
//! access reads the whole chain (the prototype cannot stop early: versions
//! are unordered); a full scan reads every page once.

use crate::bloom::Bloom;
use crate::disk::FileId;
use crate::key::{HashFn, KeySpec};
use crate::page::{page_capacity, PageKind, NO_PAGE};
use crate::pager::Pager;
use crate::tuple::TupleId;
use std::cmp::Ordering;
use tdbms_kernel::{Error, Result};

/// A static hash file of fixed-width rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFile {
    /// The underlying storage file.
    pub file: FileId,
    /// Fixed row width in bytes.
    pub row_width: usize,
    /// Number of primary (bucket) pages — pages `0..nbuckets`.
    pub nbuckets: u32,
    /// Where the key lives in a row.
    pub key: KeySpec,
    /// The bucket function.
    pub hashfn: HashFn,
}

/// Rows a primary page receives at build time for fill factor `ff` (in
/// percent): `floor(capacity * ff / 100)`, at least 1.
pub fn rows_per_page_at_fill(row_width: usize, fillfactor: u8) -> usize {
    (page_capacity(row_width) * fillfactor.clamp(1, 100) as usize / 100)
        .max(1)
}

impl HashFile {
    /// Build a hash file over a fresh storage file from `rows`.
    ///
    /// The bucket count is `ceil(n / rows_per_page_at_fill)` so that a
    /// uniform distribution fills each primary page to the fill factor.
    /// Buckets that receive more rows than a page holds spill to overflow
    /// pages immediately (this happens with [`HashFn::Multiplicative`] —
    /// the collision overhead the paper observed).
    pub fn build(
        pager: &Pager,
        rows: &[Vec<u8>],
        row_width: usize,
        key: KeySpec,
        hashfn: HashFn,
        fillfactor: u8,
    ) -> Result<HashFile> {
        let file = pager.create_file()?;
        Self::build_into(
            pager, file, rows, row_width, key, hashfn, fillfactor,
        )
    }

    /// Build into an existing (truncated) file — used by `modify`, which
    /// reorganizes a relation in place.
    pub fn build_into(
        pager: &Pager,
        file: FileId,
        rows: &[Vec<u8>],
        row_width: usize,
        key: KeySpec,
        hashfn: HashFn,
        fillfactor: u8,
    ) -> Result<HashFile> {
        if pager.page_count(file)? != 0 {
            return Err(Error::Internal(
                "hash build requires an empty file".into(),
            ));
        }
        let per_page = rows_per_page_at_fill(row_width, fillfactor);
        let nbuckets = rows.len().div_ceil(per_page).max(1) as u32;

        // Group rows by bucket.
        let mut buckets: Vec<Vec<&[u8]>> =
            vec![Vec::new(); nbuckets as usize];
        for row in rows {
            if row.len() != row_width {
                return Err(Error::RowSize {
                    expected: row_width,
                    got: row.len(),
                });
            }
            let b = hashfn.bucket(key.kind, key.extract(row), nbuckets);
            buckets[b as usize].push(row);
        }

        // Primary pages first (page number == bucket number), filled to
        // physical capacity; spill is chained afterwards.
        let cap = page_capacity(row_width);
        for _ in 0..nbuckets {
            pager.append_page(file, PageKind::Data)?;
        }
        let mut spill: Vec<(u32, Vec<&[u8]>)> = Vec::new();
        for (b, bucket_rows) in buckets.iter().enumerate() {
            let (fit, rest) =
                bucket_rows.split_at(bucket_rows.len().min(cap));
            for row in fit {
                pager.write(file, b as u32, |p| {
                    p.push_row(row_width, row)
                })??;
            }
            if !rest.is_empty() {
                spill.push((b as u32, rest.to_vec()));
            }
        }
        // A rebuild resets every chain, so the chain guard is rebuilt
        // with it: only the keys that spill right now are in the filter.
        let bloom = Bloom::sized_for(rows.len().max(16), u64::from(file.0));
        for (bucket, rest) in spill {
            let mut tail = bucket;
            for chunk in rest.chunks(cap) {
                let of = pager.append_page(file, PageKind::Overflow)?;
                pager.write(file, tail, |p| p.set_overflow(of))?;
                for row in chunk {
                    pager.write(file, of, |p| {
                        p.push_row(row_width, row)
                    })??;
                    bloom.add(key.extract(row));
                }
                tail = of;
            }
        }
        pager.bloom_install(file, bloom);
        pager.flush_file(file)?;
        Ok(HashFile {
            file,
            row_width,
            nbuckets,
            key,
            hashfn,
        })
    }

    /// The bucket (primary page) a key belongs to.
    pub fn bucket_of(&self, key_bytes: &[u8]) -> u32 {
        self.hashfn.bucket(self.key.kind, key_bytes, self.nbuckets)
    }

    /// Insert a row: walk its bucket's chain and place it in the first page
    /// with room, appending a new overflow page if the chain is full.
    pub fn insert(&self, pager: &Pager, row: &[u8]) -> Result<TupleId> {
        if row.len() != self.row_width {
            return Err(Error::RowSize {
                expected: self.row_width,
                got: row.len(),
            });
        }
        let primary = self.bucket_of(self.key.extract(row));
        let mut page_no = primary;
        loop {
            let w = self.row_width;
            let (slot, next) = pager.write(self.file, page_no, |p| {
                if p.has_room(w) {
                    (Some(p.push_row(w, row)), NO_PAGE)
                } else {
                    (None, p.overflow())
                }
            })?;
            if let Some(slot) = slot {
                if page_no != primary {
                    pager.bloom_note_overflow(
                        self.file,
                        self.key.extract(row),
                    );
                }
                return Ok(TupleId::new(page_no, slot?));
            }
            if next == NO_PAGE {
                let of =
                    pager.append_page(self.file, PageKind::Overflow)?;
                // Appending evicted `page_no` from the 1-frame buffer; the
                // link-up below faults it back in, which is faithful: the
                // prototype also re-touches the chain tail to link a new
                // overflow page.
                pager.write(self.file, page_no, |p| p.set_overflow(of))?;
                let slot = pager.write(self.file, of, |p| {
                    p.push_row(self.row_width, row)
                })??;
                pager.bloom_note_overflow(self.file, self.key.extract(row));
                return Ok(TupleId::new(of, slot));
            }
            page_no = next;
        }
    }

    /// Read the row at `tid`.
    pub fn get(&self, pager: &Pager, tid: TupleId) -> Result<Vec<u8>> {
        pager.read(self.file, tid.page, |p| {
            p.row(self.row_width, tid.slot).map(|r| r.to_vec())
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
        pager.write(self.file, tid.page, |p| {
            p.write_row(self.row_width, tid.slot, row)
        })?
    }

    /// Begin a keyed lookup: yields every row in the key's bucket chain
    /// whose key equals `key_bytes` (all versions — the caller applies any
    /// version predicate).
    pub fn lookup(&self, key_bytes: &[u8]) -> HashLookup {
        HashLookup {
            key: key_bytes.to_vec(),
            page: self.bucket_of(key_bytes),
            slot: 0,
            done: false,
        }
    }

    /// Begin a full scan (bucket 0's chain, then bucket 1's, ...).
    pub fn scan(&self) -> HashScan {
        HashScan {
            bucket: 0,
            page: 0,
            slot: 0,
        }
    }

    /// Total pages (primary + overflow).
    pub fn total_pages(&self, pager: &Pager) -> Result<u32> {
        pager.page_count(self.file)
    }
}

/// Cursor over the matching rows of one bucket chain.
#[derive(Debug, Clone)]
pub struct HashLookup {
    key: Vec<u8>,
    page: u32,
    slot: u16,
    done: bool,
}

impl HashLookup {
    /// Advance to the next version with the sought key.
    pub fn next(
        &mut self,
        pager: &Pager,
        hash: &HashFile,
    ) -> Result<Option<(TupleId, Vec<u8>)>> {
        while !self.done {
            let page_no = self.page;
            let start = self.slot;
            let key = &self.key;
            // Scan the resident page from `start`; report either a hit
            // (slot + row) or the chain's next page.
            let step = pager.read(hash.file, page_no, |p| {
                let mut s = start;
                while (s as usize) < p.count() {
                    let row = p.row(hash.row_width, s)?;
                    if hash.key.compare(hash.key.extract(row), key)
                        == Ordering::Equal
                    {
                        return Ok::<_, Error>(Err((s, row.to_vec())));
                    }
                    s += 1;
                }
                Ok(Ok(p.overflow()))
            })??;
            match step {
                Err((slot, row)) => {
                    self.slot = slot + 1;
                    return Ok(Some((TupleId::new(page_no, slot), row)));
                }
                Ok(next) => {
                    self.slot = 0;
                    if next == NO_PAGE {
                        self.done = true;
                    } else if page_no == hash.bucket_of(&self.key)
                        && pager.bloom_check(hash.file, &self.key)
                            == Some(false)
                    {
                        // Leaving the primary page: the chain guard says
                        // no version of this key ever spilled, so the
                        // whole overflow walk would find nothing.
                        self.done = true;
                    } else {
                        self.page = next;
                    }
                }
            }
        }
        Ok(None)
    }
}

/// Cursor over every row of the file, bucket chain by bucket chain.
#[derive(Debug, Clone)]
pub struct HashScan {
    bucket: u32,
    page: u32,
    slot: u16,
}

impl HashScan {
    /// Advance; `None` once every chain is exhausted.
    pub fn next(
        &mut self,
        pager: &Pager,
        hash: &HashFile,
    ) -> Result<Option<(TupleId, Vec<u8>)>> {
        while self.bucket < hash.nbuckets {
            let got = pager.read(hash.file, self.page, |p| {
                if (self.slot as usize) < p.count() {
                    Some(
                        p.row(hash.row_width, self.slot)
                            .map(|r| r.to_vec()),
                    )
                } else {
                    self.slot = 0;
                    let next = p.overflow();
                    if next == NO_PAGE {
                        self.bucket += 1;
                        self.page = self.bucket;
                    } else {
                        self.page = next;
                    }
                    None
                }
            })?;
            if let Some(row) = got {
                let tid = TupleId::new(self.page, self.slot);
                self.slot += 1;
                return Ok(Some((tid, row?)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_kernel::{AttrDef, Domain, RowCodec, Schema, Value};

    fn make_rows(n: i32) -> (RowCodec, Vec<Vec<u8>>) {
        let s = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("pad", Domain::Char(104)),
        ])
        .unwrap();
        let codec = RowCodec::new(&s);
        let rows = (1..=n)
            .map(|i| {
                codec
                    .encode(&[Value::Int(i as i64), Value::Str("x".into())])
                    .unwrap()
            })
            .collect();
        (codec, rows)
    }

    fn key_of(codec: &RowCodec) -> KeySpec {
        KeySpec::for_attr(codec, 0)
    }

    #[test]
    fn build_produces_paper_bucket_counts() {
        // 1024 rows of width 108 → 9/page; at 100 % fill: ceil(1024/9) = 114
        // buckets; mod hash on sequential ids ⇒ no overflow at load.
        let (codec, rows) = make_rows(1024);
        let pager = Pager::in_memory();
        let h = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Mod,
            100,
        )
        .unwrap();
        assert_eq!(h.nbuckets, 114);
        assert_eq!(h.total_pages(&pager).unwrap(), 114);

        // At 50 % fill: ceil(1024/4) = 256 buckets.
        let h50 = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Mod,
            50,
        )
        .unwrap();
        assert_eq!(h50.nbuckets, 256);
        assert_eq!(h50.total_pages(&pager).unwrap(), 256);
    }

    #[test]
    fn multiplicative_hash_overflows_at_load() {
        // The Ingres-like hash gives Poisson loads, so some buckets spill —
        // total pages exceed the bucket count (the paper's 166 vs 114).
        let (codec, rows) = make_rows(1024);
        let pager = Pager::in_memory();
        let h = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Multiplicative,
            100,
        )
        .unwrap();
        let total = h.total_pages(&pager).unwrap();
        assert!(total > 114, "expected overflow pages, got {total}");
        assert!(total < 250, "distribution should not be degenerate");
    }

    #[test]
    fn lookup_finds_all_versions_of_a_key() {
        let (codec, rows) = make_rows(64);
        let pager = Pager::in_memory();
        let h = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Mod,
            100,
        )
        .unwrap();
        // Insert 20 more versions of id 7.
        let extra = codec
            .encode(&[Value::Int(7), Value::Str("v".into())])
            .unwrap();
        for _ in 0..20 {
            h.insert(&pager, &extra).unwrap();
        }
        let keyb = 7i32.to_le_bytes();
        let mut cur = h.lookup(&keyb);
        let mut n = 0;
        while let Some((_, row)) = cur.next(&pager, &h).unwrap() {
            assert_eq!(codec.get_i4(&row, 0), 7);
            n += 1;
        }
        assert_eq!(n, 21);
        // A different key in the same bucket is not returned.
        let mut cur = h.lookup(&(999_999i32).to_le_bytes());
        assert!(cur.next(&pager, &h).unwrap().is_none());
    }

    #[test]
    fn lookup_cost_is_chain_length() {
        // Reproduces the Q01 pattern: cost = 1 + overflow pages of the
        // bucket, independent of everything else.
        let (codec, rows) = make_rows(72); // 8 buckets of 9 at width 108
        let pager = Pager::in_memory();
        let h = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Mod,
            100,
        )
        .unwrap();
        assert_eq!(h.nbuckets, 8);
        // 9 new versions of id 3 → exactly one new overflow page for its
        // bucket.
        let v = codec
            .encode(&[Value::Int(3), Value::Str("v".into())])
            .unwrap();
        for _ in 0..9 {
            h.insert(&pager, &v).unwrap();
        }
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let keyb = 3i32.to_le_bytes();
        let mut cur = h.lookup(&keyb);
        while cur.next(&pager, &h).unwrap().is_some() {}
        assert_eq!(cost.of(h.file).reads, 2); // primary + 1 overflow

        // An untouched bucket still costs 1.
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let keyb = 4i32.to_le_bytes();
        let mut cur = h.lookup(&keyb);
        while cur.next(&pager, &h).unwrap().is_some() {}
        assert_eq!(cost.of(h.file).reads, 1);
    }

    #[test]
    fn bloom_guard_skips_absent_key_chain_walk() {
        let (codec, rows) = make_rows(72); // 8 buckets of 9 at width 108
        let pager = Pager::in_memory();
        pager.set_bloom_guards(true);
        let h = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Mod,
            100,
        )
        .unwrap();
        // Overflow bucket 3 with versions of id 3 only.
        let v = codec
            .encode(&[Value::Int(3), Value::Str("v".into())])
            .unwrap();
        for _ in 0..9 {
            h.insert(&pager, &v).unwrap();
        }
        // id 75 hashes to bucket 3 too but is absent: the guard stops
        // the lookup at the primary page.
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut cur = h.lookup(&75i32.to_le_bytes());
        assert!(cur.next(&pager, &h).unwrap().is_none());
        assert_eq!(cost.of(h.file).reads, 1);
        assert_eq!(cost.total().bloom_skips, 1);
        // The spilled key is a filter hit and walks the chain as before.
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut cur = h.lookup(&3i32.to_le_bytes());
        let mut n = 0;
        while cur.next(&pager, &h).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(cost.of(h.file).reads, 2);
        assert_eq!(cost.total().bloom_hits, 1);
        // Dropping the guard restores the unguarded walk.
        pager.bloom_drop(h.file);
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut cur = h.lookup(&75i32.to_le_bytes());
        assert!(cur.next(&pager, &h).unwrap().is_none());
        assert_eq!(cost.of(h.file).reads, 2);
    }

    #[test]
    fn scan_visits_every_row_once_at_page_cost() {
        let (codec, rows) = make_rows(100);
        let pager = Pager::in_memory();
        let h = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Mod,
            50,
        )
        .unwrap();
        let v = codec
            .encode(&[Value::Int(5), Value::Str("v".into())])
            .unwrap();
        for _ in 0..30 {
            h.insert(&pager, &v).unwrap();
        }
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut seen = 0;
        let mut scan = h.scan();
        while scan.next(&pager, &h).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 130);
        assert_eq!(
            cost.of(h.file).reads as u32,
            h.total_pages(&pager).unwrap()
        );
    }

    #[test]
    fn update_in_place_preserves_location() {
        let (codec, rows) = make_rows(16);
        let pager = Pager::in_memory();
        let h = HashFile::build(
            &pager,
            &rows,
            108,
            key_of(&codec),
            HashFn::Mod,
            100,
        )
        .unwrap();
        let keyb = 5i32.to_le_bytes();
        let mut cur = h.lookup(&keyb);
        let (tid, mut row) = cur.next(&pager, &h).unwrap().unwrap();
        codec
            .put(&mut row, 1, &Value::Str("updated".into()))
            .unwrap();
        h.update(&pager, tid, &row).unwrap();
        assert_eq!(h.get(&pager, tid).unwrap(), row);
    }

    #[test]
    fn empty_build_is_one_empty_bucket() {
        let (codec, _) = make_rows(0);
        let pager = Pager::in_memory();
        let h = HashFile::build(
            &pager,
            &[],
            108,
            key_of(&codec),
            HashFn::Mod,
            100,
        )
        .unwrap();
        assert_eq!(h.nbuckets, 1);
        let mut scan = h.scan();
        assert!(scan.next(&pager, &h).unwrap().is_none());
    }
}
