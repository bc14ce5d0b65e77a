//! Static hash files.
//!
//! `modify R to hash on k where fillfactor = F` builds one: the number of
//! primary pages (buckets) is fixed at build time from the tuple count and
//! fill factor; rows hash to a bucket and live on its primary page or on
//! the overflow pages chained behind it (see [`crate::overflow`] for the
//! chain mechanics, shared with ISAM). This module knows only how the
//! file is built and which bucket a key maps to.

use crate::disk::FileId;
use crate::key::{HashFn, KeySpec};
use crate::overflow::{fresh_guard, ChainFile, ChainLookup};
use crate::page::{page_capacity, rows_per_page_at_fill, PageKind};
use crate::pager::Pager;
use crate::tuple::TupleId;
use tdbms_kernel::{Error, Result};

/// A static hash file of fixed-width rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFile {
    /// The bucket chains: head pages are the primary (bucket) pages.
    pub chain: ChainFile,
    /// The bucket function.
    pub hashfn: HashFn,
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
        // The keys that spill right now start out in the chain guard.
        let bloom = fresh_guard(file, rows.len());
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
        let chain = ChainFile {
            file,
            row_width,
            key,
            n_heads: nbuckets,
        };
        Ok(HashFile { chain, hashfn })
    }

    /// The bucket (primary page) a key belongs to.
    pub fn bucket_of(&self, key_bytes: &[u8]) -> u32 {
        let ChainFile { key, n_heads, .. } = self.chain;
        self.hashfn.bucket(key.kind, key_bytes, n_heads)
    }

    /// Insert a row on its bucket's chain.
    pub fn insert(&self, pager: &Pager, row: &[u8]) -> Result<TupleId> {
        self.chain.insert(pager, row, |k| Ok(self.bucket_of(k)))
    }

    /// Begin a keyed lookup over the key's bucket chain.
    pub fn lookup(&self, key_bytes: &[u8]) -> ChainLookup {
        let bucket = self.bucket_of(key_bytes);
        ChainLookup::new(key_bytes, (bucket, bucket))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overflow::ChainScan;
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
        assert_eq!(h.chain.n_heads, 114);
        assert_eq!(pager.page_count(h.chain.file).unwrap(), 114);

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
        assert_eq!(h50.chain.n_heads, 256);
        assert_eq!(pager.page_count(h50.chain.file).unwrap(), 256);
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
        let total = pager.page_count(h.chain.file).unwrap();
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
        let mut row = Vec::new();
        while cur.next(&pager, &h.chain, &mut row).unwrap().is_some() {
            assert_eq!(codec.get_i4(&row, 0), 7);
            n += 1;
        }
        assert_eq!(n, 21);
        // A different key in the same bucket is not returned.
        let mut cur = h.lookup(&(999_999i32).to_le_bytes());
        assert!(cur
            .next(&pager, &h.chain, &mut Vec::new())
            .unwrap()
            .is_none());
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
        assert_eq!(h.chain.n_heads, 8);
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
        let mut row = Vec::new();
        while cur.next(&pager, &h.chain, &mut row).unwrap().is_some() {}
        assert_eq!(cost.of(h.chain.file).reads, 2); // primary + 1 overflow

        // An untouched bucket still costs 1.
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let keyb = 4i32.to_le_bytes();
        let mut cur = h.lookup(&keyb);
        let mut row = Vec::new();
        while cur.next(&pager, &h.chain, &mut row).unwrap().is_some() {}
        assert_eq!(cost.of(h.chain.file).reads, 1);
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
        let mut scan = ChainScan::default();
        let mut row = Vec::new();
        while scan.next(&pager, &h.chain, &mut row).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 130);
        assert_eq!(
            cost.of(h.chain.file).reads as u32,
            pager.page_count(h.chain.file).unwrap()
        );
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
        assert_eq!(h.chain.n_heads, 1);
        let mut scan = ChainScan::default();
        assert!(scan
            .next(&pager, &h.chain, &mut Vec::new())
            .unwrap()
            .is_none());
    }
}
