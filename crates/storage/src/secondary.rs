//! Secondary indexing on non-key attributes (Section 6).
//!
//! An index entry is `[attribute value][page u32][slot u16]` — ten bytes
//! for a 4-byte attribute, so 101 entries fit a 1024-byte page, matching
//! the paper's sizing ("can store 101 entries in a page"). The index may
//! be kept
//!
//! * as a **heap** — a query scans the whole index — or as a **hash** file
//!   on the indexed attribute — a query reads one bucket chain; and
//! * at **one level** (entries for every version of the relation) or at
//!   **two levels** (a small index over the primary store's current
//!   versions plus a separate index over the history store), which is what
//!   turns the paper's Q07 from 3717 page reads into 2.

use crate::disk::FileId;
use crate::key::{HashFn, KeyKind, KeySpec};
use crate::page::page_capacity;
use crate::pager::Pager;
use crate::relfile::{AccessMethod, RelFile};
use crate::tuple::TupleId;
use tdbms_kernel::{Error, Result};

/// The storage structure of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexStructure {
    /// Entries in arrival order; lookups scan the whole index.
    Heap,
    /// Entries hashed on the indexed attribute; lookups read one chain.
    Hash,
}

/// A secondary index over one attribute of a stored file.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    /// The index file itself (entries are fixed-width rows).
    file: RelFile,
    /// Where the indexed attribute lives in *target* rows.
    target_attr: KeySpec,
    /// Entry width: attribute + 6-byte tuple address.
    entry_width: usize,
    /// The structure the index was built with.
    structure: IndexStructure,
}

fn encode_entry(attr: &[u8], tid: TupleId) -> Vec<u8> {
    let mut e = Vec::with_capacity(attr.len() + 6);
    e.extend_from_slice(attr);
    e.extend_from_slice(&tid.page.to_le_bytes());
    e.extend_from_slice(&tid.slot.to_le_bytes());
    e
}

fn decode_tid(entry: &[u8], attr_len: usize) -> TupleId {
    let page = u32::from_le_bytes(
        entry[attr_len..attr_len + 4].try_into().expect("4 bytes"),
    );
    let slot = u16::from_le_bytes(
        entry[attr_len + 4..attr_len + 6]
            .try_into()
            .expect("2 bytes"),
    );
    TupleId::new(page, slot)
}

impl SecondaryIndex {
    /// Build an index over every row of `target`. Over a conventional
    /// relation that is the 1-level index; over a two-level store's
    /// primary, which holds only current versions, it is the current
    /// index of the 2-level scheme.
    pub fn build(
        pager: &Pager,
        target: &RelFile,
        target_attr: KeySpec,
        structure: IndexStructure,
    ) -> Result<SecondaryIndex> {
        let file = pager.create_file()?;
        Self::build_into(pager, file, target, target_attr, structure)
    }

    /// Build into an existing (truncated) file — used when rebuilding an
    /// index after its base relation was reorganized.
    pub fn build_into(
        pager: &Pager,
        file_id: FileId,
        target: &RelFile,
        target_attr: KeySpec,
        structure: IndexStructure,
    ) -> Result<SecondaryIndex> {
        let entry_width = target_attr.len + 6;
        let mut entries: Vec<Vec<u8>> = Vec::new();
        let mut cur = target.scan();
        let mut row = Vec::new();
        while let Some(tid) = cur.next(pager, target, &mut row)? {
            entries.push(encode_entry(target_attr.extract(&row), tid));
        }
        let index_key = KeySpec {
            offset: 0,
            len: target_attr.len,
            kind: target_attr.kind,
        };
        let method = match structure {
            IndexStructure::Heap => AccessMethod::Heap,
            IndexStructure::Hash => AccessMethod::Hash,
        };
        let file = RelFile::build_into(
            pager,
            file_id,
            method,
            &entries,
            entry_width,
            Some(index_key),
            HashFn::Mod,
            100,
        )?;
        pager.flush_all()?;
        Ok(SecondaryIndex {
            file,
            target_attr,
            entry_width,
            structure,
        })
    }

    /// Re-attach a previously built index from its persisted descriptor
    /// (catalog reload; no I/O).
    pub fn attach(
        file: RelFile,
        target_attr: KeySpec,
        entry_width: usize,
        structure: IndexStructure,
    ) -> SecondaryIndex {
        SecondaryIndex {
            file,
            target_attr,
            entry_width,
            structure,
        }
    }

    /// The index's own storage file descriptor.
    pub fn file(&self) -> &RelFile {
        &self.file
    }

    /// The structure the index was built with.
    pub fn structure(&self) -> IndexStructure {
        self.structure
    }

    /// The indexed attribute's location in target rows.
    pub fn target_attr(&self) -> KeySpec {
        self.target_attr
    }

    /// Pages the index occupies.
    pub fn total_pages(&self, pager: &Pager) -> Result<u32> {
        self.file.total_pages(pager)
    }

    /// The index's own file id (for I/O accounting).
    pub fn file_id(&self) -> FileId {
        self.file.file_id()
    }

    /// Register a newly inserted target row.
    pub fn insert_entry(
        &mut self,
        pager: &Pager,
        row: &[u8],
        tid: TupleId,
    ) -> Result<()> {
        let e = encode_entry(self.target_attr.extract(row), tid);
        self.file.insert(pager, &e)?;
        Ok(())
    }

    /// The addresses of every indexed version whose attribute equals
    /// `attr_bytes`. Heap structure scans the whole index; hash reads one
    /// bucket chain.
    pub fn lookup_tids(
        &self,
        pager: &Pager,
        attr_bytes: &[u8],
    ) -> Result<Vec<TupleId>> {
        if attr_bytes.len() != self.target_attr.len {
            return Err(Error::BadValue(format!(
                "index key must be {} bytes, got {}",
                self.target_attr.len,
                attr_bytes.len()
            )));
        }
        let mut out = Vec::new();
        let attr_len = self.target_attr.len;
        let mut e = Vec::new();
        match &self.file {
            RelFile::Heap(_) => {
                let mut cur = self.file.scan();
                while cur.next(pager, &self.file, &mut e)?.is_some() {
                    if self.target_attr.compare(&e[..attr_len], attr_bytes)
                        == std::cmp::Ordering::Equal
                    {
                        out.push(decode_tid(&e, attr_len));
                    }
                }
            }
            _ => {
                let mut cur = self
                    .file
                    .lookup_eq(pager, attr_bytes)?
                    .ok_or_else(|| Error::Internal("keyed index".into()))?;
                while cur.next(pager, &self.file, &mut e)?.is_some() {
                    out.push(decode_tid(&e, attr_len));
                }
            }
        }
        Ok(out)
    }

    /// Full indexed lookup: fetch the matching rows from `target`.
    pub fn fetch(
        &self,
        pager: &Pager,
        target: &RelFile,
        attr_bytes: &[u8],
    ) -> Result<Vec<(TupleId, Vec<u8>)>> {
        let tids = self.lookup_tids(pager, attr_bytes)?;
        let mut out = Vec::with_capacity(tids.len());
        for tid in tids {
            let mut row = Vec::new();
            target.get(pager, tid, &mut row)?;
            out.push((tid, row));
        }
        Ok(out)
    }

    /// Entries per index page (for sizing reports).
    pub fn entries_per_page(&self) -> usize {
        page_capacity(self.entry_width)
    }
}

/// Convenience: the canonical 4-byte integer attribute spec at a given
/// row offset.
pub fn i4_attr(offset: usize) -> KeySpec {
    KeySpec {
        offset,
        len: 4,
        kind: KeyKind::I4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashFile;
    use tdbms_kernel::{AttrDef, Domain, RowCodec, Schema, Value};

    /// 108-byte benchmark-like rows: id, amount, padding.
    fn target_file(pager: &Pager, n: i64) -> (RowCodec, RelFile, KeySpec) {
        let schema = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("amount", Domain::I4),
            AttrDef::new("pad", Domain::Char(100)),
        ])
        .unwrap();
        let codec = RowCodec::new(&schema);
        let rows: Vec<Vec<u8>> = (1..=n)
            .map(|i| {
                codec
                    .encode(&[
                        Value::Int(i),
                        Value::Int((i % 10) * 100),
                        Value::Str("x".into()),
                    ])
                    .unwrap()
            })
            .collect();
        let key = KeySpec::for_attr(&codec, 0);
        let hash =
            HashFile::build(pager, &rows, 108, key, HashFn::Mod, 100)
                .unwrap();
        let amount = KeySpec::for_attr(&codec, 1);
        (codec, RelFile::Hash(hash), amount)
    }

    #[test]
    fn entry_sizing_matches_the_paper() {
        let pager = Pager::in_memory();
        let (_, target, amount) = target_file(&pager, 101);
        let idx = SecondaryIndex::build(
            &pager,
            &target,
            amount,
            IndexStructure::Heap,
        )
        .unwrap();
        assert_eq!(idx.entries_per_page(), 101);
        assert_eq!(idx.total_pages(&pager).unwrap(), 1);
    }

    #[test]
    fn heap_and_hash_indexes_agree_with_a_scan() {
        let pager = Pager::in_memory();
        let (codec, target, amount) = target_file(&pager, 200);
        let heap_idx = SecondaryIndex::build(
            &pager,
            &target,
            amount,
            IndexStructure::Heap,
        )
        .unwrap();
        let hash_idx = SecondaryIndex::build(
            &pager,
            &target,
            amount,
            IndexStructure::Hash,
        )
        .unwrap();
        let want = 300i32.to_le_bytes();
        let mut expect: Vec<i32> = Vec::new();
        let mut cur = target.scan();
        let mut row = Vec::new();
        while cur.next(&pager, &target, &mut row).unwrap().is_some() {
            if codec.get_i4(&row, 1) == 300 {
                expect.push(codec.get_i4(&row, 0));
            }
        }
        expect.sort_unstable();
        for idx in [&heap_idx, &hash_idx] {
            let mut got: Vec<i32> = idx
                .fetch(&pager, &target, &want)
                .unwrap()
                .iter()
                .map(|(_, row)| codec.get_i4(row, 0))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
        assert_eq!(expect.len(), 20); // ids ≡ 3 (mod 10)
    }

    #[test]
    fn hash_index_lookup_is_cheaper_than_heap() {
        let pager = Pager::in_memory();
        // Distinct amounts so the mod-hashed index spreads across buckets.
        let schema = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("amount", Domain::I4),
            AttrDef::new("pad", Domain::Char(100)),
        ])
        .unwrap();
        let codec = RowCodec::new(&schema);
        let rows: Vec<Vec<u8>> = (1..=1000i64)
            .map(|i| {
                codec
                    .encode(&[
                        Value::Int(i),
                        Value::Int(i),
                        Value::Str("x".into()),
                    ])
                    .unwrap()
            })
            .collect();
        let key = KeySpec::for_attr(&codec, 0);
        let target = RelFile::Hash(
            HashFile::build(&pager, &rows, 108, key, HashFn::Mod, 100)
                .unwrap(),
        );
        let amount = KeySpec::for_attr(&codec, 1);
        let heap_idx = SecondaryIndex::build(
            &pager,
            &target,
            amount,
            IndexStructure::Heap,
        )
        .unwrap();
        let hash_idx = SecondaryIndex::build(
            &pager,
            &target,
            amount,
            IndexStructure::Hash,
        )
        .unwrap();
        let key = 700i32.to_le_bytes();

        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        heap_idx.lookup_tids(&pager, &key).unwrap();
        let heap_cost = cost.of(heap_idx.file_id()).reads;

        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        hash_idx.lookup_tids(&pager, &key).unwrap();
        let hash_cost = cost.of(hash_idx.file_id()).reads;

        // 1000 entries = 10 heap pages scanned vs. one bucket chain.
        assert_eq!(heap_cost, 10);
        assert!(hash_cost <= 2, "hash index cost {hash_cost}");
    }

    #[test]
    fn maintenance_inserts_are_visible() {
        let pager = Pager::in_memory();
        let (codec, target, amount) = target_file(&pager, 50);
        let mut idx = SecondaryIndex::build(
            &pager,
            &target,
            amount,
            IndexStructure::Hash,
        )
        .unwrap();
        let new_row = codec
            .encode(&[
                Value::Int(999),
                Value::Int(12345),
                Value::Str("new".into()),
            ])
            .unwrap();
        let tid = target.insert(&pager, &new_row).unwrap();
        idx.insert_entry(&pager, &new_row, tid).unwrap();
        let got =
            idx.fetch(&pager, &target, &12345i32.to_le_bytes()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(codec.get_i4(&got[0].1, 0), 999);
    }

    #[test]
    fn wrong_key_width_is_rejected() {
        let pager = Pager::in_memory();
        let (_, target, amount) = target_file(&pager, 10);
        let idx = SecondaryIndex::build(
            &pager,
            &target,
            amount,
            IndexStructure::Heap,
        )
        .unwrap();
        assert!(idx.lookup_tids(&pager, &[1, 2]).is_err());
    }
}
