//! The catalog of stored relations.
//!
//! The prototype keeps its system relations outside the benchmark's
//! accounting ("disk accesses to system relations ... are outside the scope
//! of this paper"), so the catalog here is a plain in-memory registry —
//! functionally the system relation, without charging page I/O for it.

use crate::disk::FileId;
use crate::heap::HeapFile;
use crate::key::{HashFn, KeySpec};
use crate::pager::Pager;
use crate::relfile::{AccessMethod, RelFile};
use crate::secondary::{IndexStructure, SecondaryIndex};
use crate::tuple::TupleId;
use std::collections::{BTreeSet, HashMap};
use tdbms_kernel::{Error, Result, RowCodec, Schema};

/// Stable handle to a cataloged relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RelId(pub usize);

/// A registered secondary index on one attribute of a relation.
#[derive(Debug, Clone)]
pub struct NamedIndex {
    /// The index's name (global namespace, like Ingres index relations).
    pub name: String,
    /// The indexed stored-attribute position.
    pub attr: usize,
    /// The index structure itself.
    pub index: SecondaryIndex,
}

/// Everything the system knows about one stored relation.
///
/// `Clone` copies only the metadata (schema, codec, file descriptors,
/// index descriptors) — never page data — so a cloned [`Catalog`] is a
/// cheap, self-contained snapshot of "what relations exist and where".
#[derive(Debug, Clone)]
pub struct StoredRelation {
    /// Relation name (lower-cased).
    pub name: String,
    /// The schema, including implicit time attributes.
    pub schema: Schema,
    /// Row encoder/decoder for the schema.
    pub codec: RowCodec,
    /// The storage file and its organization.
    pub file: RelFile,
    /// Which attribute the file is keyed on (`None` for heaps).
    pub key_attr: Option<usize>,
    /// Fill factor the file was last built with (percent).
    pub fillfactor: u8,
    /// Stored row count (all versions, not just current ones).
    pub tuple_count: u64,
    /// Keys appended since this relation was created or the database
    /// opened (0 = unknown; not persisted). Appends and loads add keys;
    /// replaces and deletes only add versions, so
    /// `tuple_count / distinct_keys` is the mean version-chain length.
    pub distinct_keys: u64,
    /// Secondary indexes maintained on this relation.
    pub indexes: Vec<NamedIndex>,
    /// The clustered history sidecar holding cold versions migrated out
    /// of the primary file by online reorganization (`None` until the
    /// first migration). Behind an `Arc` so a cloned catalog snapshot
    /// shares the copy-on-write directory instead of deep-copying it.
    pub history: Option<std::sync::Arc<crate::history::ClusteredHistory>>,
}

impl StoredRelation {
    /// Insert a row, maintaining every secondary index and the stored
    /// tuple count. All user-relation inserts go through here.
    pub fn insert_row(
        &mut self,
        pager: &Pager,
        row: &[u8],
    ) -> Result<TupleId> {
        let tid = self.file.insert(pager, row)?;
        for ix in &mut self.indexes {
            ix.index.insert_entry(pager, row, tid)?;
        }
        self.tuple_count += 1;
        Ok(tid)
    }

    /// Create and register a secondary index over the current contents.
    pub fn create_index(
        &mut self,
        pager: &Pager,
        name: &str,
        attr: usize,
        structure: IndexStructure,
    ) -> Result<()> {
        let name = name.to_ascii_lowercase();
        if self.indexes.iter().any(|ix| ix.name == name) {
            return Err(Error::DuplicateRelation(name));
        }
        let key = crate::key::KeySpec::for_attr(&self.codec, attr);
        let index =
            SecondaryIndex::build(pager, &self.file, key, structure)?;
        self.indexes.push(NamedIndex { name, attr, index });
        Ok(())
    }

    /// Drop the named index; true if it existed.
    pub fn drop_index(
        &mut self,
        pager: &Pager,
        name: &str,
    ) -> Result<bool> {
        let name = name.to_ascii_lowercase();
        if let Some(pos) =
            self.indexes.iter().position(|ix| ix.name == name)
        {
            let ix = self.indexes.remove(pos);
            pager.drop_file(ix.index.file_id())?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Rebuild every index from scratch (after `modify` reorganizes the
    /// base file and invalidates all tuple addresses, or after a physical
    /// delete compacted a page).
    pub fn rebuild_indexes(&mut self, pager: &Pager) -> Result<()> {
        for ix in &mut self.indexes {
            let key = crate::key::KeySpec::for_attr(&self.codec, ix.attr);
            let structure = ix.index.structure();
            pager.truncate(ix.index.file_id())?;
            ix.index = SecondaryIndex::build_into(
                pager,
                ix.index.file_id(),
                &self.file,
                key,
                structure,
            )?;
        }
        Ok(())
    }

    /// The index covering `attr`, if any.
    pub fn index_on(&self, attr: usize) -> Option<&NamedIndex> {
        self.indexes.iter().find(|ix| ix.attr == attr)
    }

    /// Build `rows` into a fresh file of the given organization, swap
    /// the relation onto it and drop the old file (build aside, then
    /// swap: see [`StoredRelation::modify`]).
    fn rebuild_file(
        &mut self,
        pager: &Pager,
        method: AccessMethod,
        key_attr: Option<usize>,
        fillfactor: u8,
        hashfn: HashFn,
        rows: &[Vec<u8>],
    ) -> Result<()> {
        let old_id = self.file.file_id();
        self.file = RelFile::build_into(
            pager,
            pager.create_file()?,
            method,
            rows,
            self.schema.row_width(),
            key_attr.map(|attr| KeySpec::for_attr(&self.codec, attr)),
            hashfn,
            fillfactor,
        )?;
        pager.drop_file(old_id)
    }

    /// Reorganize the relation: collect every stored row, build the
    /// requested organization in a *fresh* file, swap the relation onto
    /// it, and drop the old file. This is the `modify` statement.
    ///
    /// Building aside and swapping (rather than truncating and rebuilding
    /// in place) closes a crash window: the original pages are intact on
    /// disk until the fully-built replacement takes over, so a crash at
    /// any point leaves a readable relation. Under WAL staging the swap
    /// is logged — the old file's physical drop is deferred until the
    /// commit that records the new file is durable. Reorganization I/O is
    /// charged like any other access (the benchmark resets counters
    /// afterwards). The versions a history sidecar holds fold back into
    /// the new file and the sidecar is dropped: it is clustered under the
    /// old key, and an unkeyed organization has none to cluster by. The
    /// next reorganization pass migrates them again.
    pub fn modify(
        &mut self,
        pager: &Pager,
        method: AccessMethod,
        key_attr: Option<usize>,
        fillfactor: u8,
        hashfn: HashFn,
    ) -> Result<()> {
        let mut rows = Vec::with_capacity(self.tuple_count as usize);
        let mut cur = self.file.scan();
        while let Some((_, row)) = cur.next(pager, &self.file)? {
            rows.push(row.to_vec());
        }
        if let Some(h) = &self.history {
            h.for_all(pager, |row| {
                rows.push(row.to_vec());
                Ok(())
            })?;
        }
        self.rebuild_file(
            pager, method, key_attr, fillfactor, hashfn, &rows,
        )?;
        if let Some(h) = self.history.take() {
            self.tuple_count += h.rows();
            pager.drop_file(h.file_id())?;
        }
        self.key_attr = match method {
            AccessMethod::Heap => None,
            _ => key_attr,
        };
        self.fillfactor = fillfactor;
        self.rebuild_indexes(pager)
    }

    /// Rebuild the primary file around an explicit surviving row set,
    /// keeping the current organization, key, and fill factor. This is
    /// the online reorganizer's half of a migration: the cold versions
    /// have already been appended to the history sidecar, and the
    /// survivors move into a fresh file that replaces the old one (the
    /// same build-aside-and-swap crash discipline as
    /// [`StoredRelation::modify`]).
    pub fn rebuild_with_rows(
        &mut self,
        pager: &Pager,
        rows: &[Vec<u8>],
    ) -> Result<()> {
        let hashfn = match &self.file {
            RelFile::Hash(h) => h.hashfn,
            _ => HashFn::Mod,
        };
        self.rebuild_file(
            pager,
            self.file.method(),
            self.key_attr,
            self.fillfactor,
            hashfn,
            rows,
        )?;
        self.tuple_count = rows.len() as u64;
        self.rebuild_indexes(pager)
    }
}

/// Registry mapping names to stored relations.
///
/// Relations live in a slab so that two of them can be borrowed mutably at
/// once (a join reads one relation while materializing into another).
/// `Clone` yields a metadata snapshot usable for lock-free reads: the
/// clone resolves names and file locations exactly as the original did
/// at clone time, while the page store itself stays shared.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    rels: Vec<Option<StoredRelation>>,
    by_name: HashMap<String, usize>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a relation as a heap and register it.
    pub fn create_relation(
        &mut self,
        pager: &Pager,
        name: &str,
        schema: Schema,
    ) -> Result<RelId> {
        let lower = name.to_ascii_lowercase();
        if self.by_name.contains_key(&lower)
            || self.index_owner(&lower).is_some()
        {
            return Err(Error::DuplicateRelation(lower));
        }
        let max_row = crate::page::PAGE_SIZE - crate::page::PAGE_HEADER;
        if schema.row_width() > max_row {
            return Err(Error::Semantic(format!(
                "row width {} exceeds the page capacity of {max_row} bytes \
                 (including {} bytes of implicit time attributes)",
                schema.row_width(),
                4 * schema.implicit_attrs().len(),
            )));
        }
        let codec = RowCodec::new(&schema);
        let heap = HeapFile::create(pager, schema.row_width())?;
        let rel = StoredRelation {
            name: lower.clone(),
            schema,
            codec,
            file: RelFile::Heap(heap),
            key_attr: None,
            fillfactor: 100,
            tuple_count: 0,
            distinct_keys: 0,
            indexes: Vec::new(),
            history: None,
        };
        let idx = self.rels.len();
        self.rels.push(Some(rel));
        self.by_name.insert(lower, idx);
        Ok(RelId(idx))
    }

    /// Drop a relation, its file, and its indexes.
    pub fn destroy(&mut self, pager: &Pager, id: RelId) -> Result<()> {
        let rel =
            self.rels.get_mut(id.0).and_then(Option::take).ok_or_else(
                || Error::Internal(format!("stale RelId {id:?}")),
            )?;
        self.by_name.remove(&rel.name);
        for ix in &rel.indexes {
            pager.drop_file(ix.index.file_id())?;
        }
        if let Some(h) = &rel.history {
            pager.drop_file(h.file_id())?;
        }
        pager.drop_file(rel.file.file_id())
    }

    /// Register an externally constructed relation (catalog reload).
    pub fn adopt(&mut self, rel: StoredRelation) -> Result<RelId> {
        if self.by_name.contains_key(&rel.name)
            || self.index_owner(&rel.name).is_some()
        {
            return Err(Error::DuplicateRelation(rel.name));
        }
        let idx = self.rels.len();
        self.by_name.insert(rel.name.clone(), idx);
        self.rels.push(Some(rel));
        Ok(RelId(idx))
    }

    /// Find the relation owning an index of this name, if any.
    pub fn index_owner(&self, index_name: &str) -> Option<RelId> {
        let lower = index_name.to_ascii_lowercase();
        self.iter()
            .find(|(_, r)| r.indexes.iter().any(|ix| ix.name == lower))
            .map(|(id, _)| id)
    }

    /// Handle for a name, if registered.
    pub fn id_of(&self, name: &str) -> Option<RelId> {
        self.by_name
            .get(&name.to_ascii_lowercase())
            .map(|i| RelId(*i))
    }

    /// Resolve a name or error with [`Error::NoSuchRelation`].
    pub fn require(&self, name: &str) -> Result<RelId> {
        self.id_of(name)
            .ok_or_else(|| Error::NoSuchRelation(name.to_owned()))
    }

    /// Borrow a relation.
    pub fn get(&self, id: RelId) -> &StoredRelation {
        self.rels[id.0].as_ref().expect("live RelId")
    }

    /// Mutably borrow a relation.
    pub fn get_mut(&mut self, id: RelId) -> &mut StoredRelation {
        self.rels[id.0].as_mut().expect("live RelId")
    }

    /// Mutably borrow two distinct relations at once.
    pub fn get_pair_mut(
        &mut self,
        a: RelId,
        b: RelId,
    ) -> (&mut StoredRelation, &mut StoredRelation) {
        assert_ne!(a.0, b.0, "get_pair_mut needs distinct relations");
        let (lo, hi, swap) = if a.0 < b.0 {
            (a.0, b.0, false)
        } else {
            (b.0, a.0, true)
        };
        let (left, right) = self.rels.split_at_mut(hi);
        let x = left[lo].as_mut().expect("live RelId");
        let y = right[0].as_mut().expect("live RelId");
        if swap {
            (y, x)
        } else {
            (x, y)
        }
    }

    /// Iterate over live `(id, relation)` pairs.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (RelId, &StoredRelation)> + '_ {
        self.rels
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (RelId(i), r)))
    }

    /// Every page file the catalog owns: each relation's base file,
    /// secondary indexes and history sidecar. Any other page file on
    /// the device is an orphan.
    pub fn owned_files(&self) -> BTreeSet<FileId> {
        self.iter()
            .flat_map(|(_, r)| {
                std::iter::once(r.file.file_id())
                    .chain(r.indexes.iter().map(|ix| ix.index.file_id()))
                    .chain(r.history.iter().map(|h| h.file_id()))
            })
            .collect()
    }

    /// Names of every relation, sorted.
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.iter().map(|(_, r)| r.name.clone()).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_kernel::{
        AttrDef, DatabaseClass, Domain, TemporalKind, Value,
    };

    fn schema() -> Schema {
        Schema::new(
            vec![
                AttrDef::new("id", Domain::I4),
                AttrDef::new("pad", Domain::Char(104)),
            ],
            DatabaseClass::Static,
            TemporalKind::Interval,
        )
        .unwrap()
    }

    #[test]
    fn create_lookup_destroy() {
        let pager = Pager::in_memory();
        let mut cat = Catalog::new();
        let id = cat.create_relation(&pager, "Emp", schema()).unwrap();
        assert_eq!(cat.id_of("emp"), Some(id));
        assert_eq!(cat.id_of("EMP"), Some(id));
        assert!(cat.id_of("dept").is_none());
        assert!(cat.require("dept").is_err());
        assert!(matches!(
            cat.create_relation(&pager, "EMP", schema()),
            Err(Error::DuplicateRelation(_))
        ));
        cat.destroy(&pager, id).unwrap();
        assert!(cat.id_of("emp").is_none());
    }

    #[test]
    fn modify_reorganizes_and_preserves_rows() {
        let pager = Pager::in_memory();
        let mut cat = Catalog::new();
        let id = cat.create_relation(&pager, "r", schema()).unwrap();
        {
            let rel = cat.get_mut(id);
            for i in 1..=100i64 {
                let row = rel
                    .codec
                    .encode(&[Value::Int(i), Value::Str("x".into())])
                    .unwrap();
                rel.file.insert(&pager, &row).unwrap();
                rel.tuple_count += 1;
            }
        }
        for (method, key) in [
            (AccessMethod::Hash, Some(0)),
            (AccessMethod::Isam, Some(0)),
            (AccessMethod::Heap, None),
        ] {
            let rel = cat.get_mut(id);
            rel.modify(&pager, method, key, 100, HashFn::Mod).unwrap();
            assert_eq!(rel.file.method(), method);
            assert_eq!(rel.key_attr, key);
            let mut n = 0;
            let mut sum = 0i64;
            let mut cur = rel.file.scan();
            while let Some((_, row)) = cur.next(&pager, &rel.file).unwrap()
            {
                n += 1;
                sum += rel.codec.get_i4(row, 0) as i64;
            }
            assert_eq!(n, 100, "after modify to {method:?}");
            assert_eq!(sum, 5050);
        }
    }

    #[test]
    fn modify_builds_aside_and_drops_the_old_file() {
        let pager = Pager::in_memory();
        let mut cat = Catalog::new();
        let id = cat.create_relation(&pager, "r", schema()).unwrap();
        let rel = cat.get_mut(id);
        let row = rel
            .codec
            .encode(&[Value::Int(1), Value::Str("x".into())])
            .unwrap();
        rel.file.insert(&pager, &row).unwrap();
        rel.tuple_count += 1;
        let old = rel.file.file_id();
        rel.modify(&pager, AccessMethod::Hash, Some(0), 100, HashFn::Mod)
            .unwrap();
        let new = rel.file.file_id();
        assert_ne!(old, new, "reorganization swaps onto a fresh file");
        assert!(
            pager.page_count(old).is_err(),
            "the superseded file is dropped"
        );
    }

    #[test]
    fn modify_to_keyed_without_key_errors() {
        let pager = Pager::in_memory();
        let mut cat = Catalog::new();
        let id = cat.create_relation(&pager, "r", schema()).unwrap();
        let rel = cat.get_mut(id);
        assert!(rel
            .modify(&pager, AccessMethod::Hash, None, 100, HashFn::Mod)
            .is_err());
    }

    #[test]
    fn pair_borrow_is_order_correct() {
        let pager = Pager::in_memory();
        let mut cat = Catalog::new();
        let a = cat.create_relation(&pager, "a", schema()).unwrap();
        let b = cat.create_relation(&pager, "b", schema()).unwrap();
        let (ra, rb) = cat.get_pair_mut(a, b);
        assert_eq!(ra.name, "a");
        assert_eq!(rb.name, "b");
        let (rb, ra) = cat.get_pair_mut(b, a);
        assert_eq!(ra.name, "a");
        assert_eq!(rb.name, "b");
    }

    #[test]
    fn relation_names_are_sorted() {
        let pager = Pager::in_memory();
        let mut cat = Catalog::new();
        cat.create_relation(&pager, "z", schema()).unwrap();
        cat.create_relation(&pager, "a", schema()).unwrap();
        assert_eq!(cat.relation_names(), vec!["a", "z"]);
    }
}
