//! Overflow chains: a head page plus the pages linked behind it.
//!
//! Hash buckets and ISAM data pages grow the same way: a row whose head
//! page is full goes to the first chain page with room, and a full chain
//! gets a new overflow page linked to its tail. Because all versions of a
//! tuple share one key, every update lengthens one chain — the
//! degradation mechanism at the center of the paper's analysis, so it is
//! written once, here. Keyed access reads whole chains (the prototype
//! cannot stop early: versions are unordered); a scan reads every head
//! and overflow page once.
//!
//! What differs between the organizations — how a file is built and which
//! head pages a key maps to — stays in [`crate::hash`] and
//! [`crate::isam`]; both describe their file to this module as a
//! [`ChainFile`]. This is also the only module that talks to the pager's
//! per-file chain guards (`bloom_note_overflow` / `bloom_check`).

use crate::bloom::Bloom;
use crate::disk::FileId;
use crate::key::KeySpec;
use crate::page::{PageKind, NO_PAGE};
use crate::pager::Pager;
use crate::tuple::TupleId;
use std::cmp::Ordering;
use tdbms_kernel::{Error, Result};

/// The chained part of a keyed file: head pages `0..n_heads`, each with
/// an overflow chain behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainFile {
    /// The underlying storage file.
    pub file: FileId,
    /// Fixed row width in bytes.
    pub row_width: usize,
    /// Where the key lives in a row.
    pub key: KeySpec,
    /// Number of head pages (hash buckets, ISAM data pages).
    pub n_heads: u32,
}

/// An empty chain guard for `file`, freshly rebuilt from `n_rows` rows. A
/// rebuild resets every chain, so the guard is rebuilt with it: only keys
/// placed on overflow pages from now on are in the filter.
pub fn fresh_guard(file: FileId, n_rows: usize) -> Bloom {
    Bloom::sized_for(n_rows.max(16), u64::from(file.0))
}

impl ChainFile {
    /// Insert a row on the chain of the head page `head_of` maps its key
    /// to: the first page with room, else a new overflow page linked to
    /// the tail.
    pub fn insert(
        &self,
        pager: &Pager,
        row: &[u8],
        head_of: impl FnOnce(&[u8]) -> Result<u32>,
    ) -> Result<TupleId> {
        let w = self.row_width;
        if row.len() != w {
            return Err(Error::RowSize {
                expected: w,
                got: row.len(),
            });
        }
        let key = self.key.extract(row);
        let head = head_of(key)?;
        let mut page_no = head;
        let tid = loop {
            let (slot, next) = pager.write(self.file, page_no, |p| {
                if p.has_room(w) {
                    (Some(p.push_row(w, row)), NO_PAGE)
                } else {
                    (None, p.overflow())
                }
            })?;
            if let Some(slot) = slot {
                break TupleId::new(page_no, slot?);
            }
            if next == NO_PAGE {
                let of =
                    pager.append_page(self.file, PageKind::Overflow)?;
                // Appending evicted `page_no` from the 1-frame buffer; the
                // link-up below faults it back in, which is faithful: the
                // prototype also re-touches the chain tail to link a new
                // overflow page.
                pager.write(self.file, page_no, |p| p.set_overflow(of))?;
                let slot = pager
                    .write(self.file, of, |p| p.push_row(w, row))??;
                break TupleId::new(of, slot);
            }
            page_no = next;
        };
        if tid.page != head {
            pager.bloom_note_overflow(self.file, key);
        }
        Ok(tid)
    }
}

/// Cursor over the versions with one key, in the chains of an inclusive
/// range of head pages.
#[derive(Debug, Clone)]
pub struct ChainLookup {
    key: Vec<u8>,
    /// Current head page.
    head: u32,
    /// Last candidate head page (inclusive).
    last_head: u32,
    /// Current page in the current head's chain; [`NO_PAGE`] once done.
    page: u32,
    slot: u16,
}

impl ChainLookup {
    /// Begin at `heads.0`; every chain up to `heads.1` is walked. A hash
    /// file passes its one bucket twice, ISAM the range its directory
    /// descent returns (an equal-key run may span data pages).
    pub fn new(key_bytes: &[u8], heads: (u32, u32)) -> ChainLookup {
        ChainLookup {
            key: key_bytes.to_vec(),
            head: heads.0,
            last_head: heads.1,
            page: heads.0,
            slot: 0,
        }
    }

    /// Advance to the next version with the sought key (all versions —
    /// the caller applies any version predicate): fill `row` with it and
    /// return its address.
    pub fn next(
        &mut self,
        pager: &Pager,
        chain: &ChainFile,
        row: &mut Vec<u8>,
    ) -> Result<Option<TupleId>> {
        while self.page != NO_PAGE {
            let page_no = self.page;
            // Search the resident page from the current slot: a hit, or
            // the chain's next page.
            let step = pager.read(chain.file, page_no, |p| {
                for s in self.slot..p.count() as u16 {
                    let r = p.row(chain.row_width, s)?;
                    if chain.key.compare(chain.key.extract(r), &self.key)
                        == Ordering::Equal
                    {
                        row.clear();
                        row.extend_from_slice(r);
                        return Ok::<_, Error>(Ok(s));
                    }
                }
                Ok(Err(p.overflow()))
            })??;
            let next = match step {
                Ok(slot) => {
                    self.slot = slot + 1;
                    return Ok(Some(TupleId::new(page_no, slot)));
                }
                Err(next) => next,
            };
            self.slot = 0;
            // Leaving a head page for its overflow chain: if the guard
            // says no version of this key was ever placed on overflow,
            // the walk would find nothing. (Overflow rows exist only via
            // inserts and build-time spill, which always note the key.)
            let skip = next != NO_PAGE
                && page_no == self.head
                && pager.bloom_check(chain.file, &self.key) == Some(false);
            self.page = if next != NO_PAGE && !skip {
                next
            } else if self.head < self.last_head {
                self.head += 1;
                self.head
            } else {
                NO_PAGE
            };
        }
        Ok(None)
    }
}

/// Cursor over every row of a chained file: head 0's chain, then head
/// 1's, and so on. Holds no borrow of the pager, so callers can
/// interleave access to other relations between `next` calls.
#[derive(Debug, Clone, Default)]
pub struct ChainScan {
    head: u32,
    page: u32,
    slot: u16,
}

impl ChainScan {
    /// Advance: fill `row` with the next row and return its address;
    /// `None` once every chain is exhausted.
    pub fn next(
        &mut self,
        pager: &Pager,
        chain: &ChainFile,
        row: &mut Vec<u8>,
    ) -> Result<Option<TupleId>> {
        while self.head < chain.n_heads {
            let got = pager.read(chain.file, self.page, |p| {
                if (self.slot as usize) < p.count() {
                    Some(p.copy_row(chain.row_width, self.slot, row))
                } else {
                    self.slot = 0;
                    let next = p.overflow();
                    if next == NO_PAGE {
                        self.head += 1;
                        self.page = self.head;
                    } else {
                        self.page = next;
                    }
                    None
                }
            })?;
            if let Some(copied) = got {
                copied?;
                let tid = TupleId::new(self.page, self.slot);
                self.slot += 1;
                return Ok(Some(tid));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::HashFn;
    use crate::{HashFile, IsamFile, RelFile};
    use tdbms_kernel::{AttrDef, Domain, RowCodec, Schema, Value};

    /// Reads a keyed lookup of `id` costs from cold, and the rows found.
    fn probe(pager: &Pager, rel: &RelFile, id: i32) -> (u64, usize) {
        pager.invalidate_buffers().unwrap();
        let cost = pager.stats().scope();
        let mut cur =
            rel.lookup_eq(pager, &id.to_le_bytes()).unwrap().unwrap();
        let mut n = 0;
        let mut row = Vec::new();
        while cur.next(pager, rel, &mut row).unwrap().is_some() {
            n += 1;
        }
        (cost.of(rel.file_id()).reads, n)
    }

    /// The chain guard stops an absent key's lookup at the head page, in
    /// both chained organizations.
    #[test]
    fn bloom_guard_skips_absent_key_chain_walk() {
        let s = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("pad", Domain::Char(104)),
        ])
        .unwrap();
        let codec = RowCodec::new(&s);
        let encode = |id: i64, pad: &str| {
            codec
                .encode(&[Value::Int(id), Value::Str(pad.into())])
                .unwrap()
        };
        // 72 rows at width 108: 8 hash buckets / ISAM data pages of 9.
        let rows: Vec<Vec<u8>> = (1..=72).map(|i| encode(i, "x")).collect();
        let key = KeySpec::for_attr(&codec, 0);
        let pager = Pager::in_memory();
        pager.set_bloom_guards(true);
        let hash =
            HashFile::build(&pager, &rows, 108, key, HashFn::Mod, 100)
                .unwrap();
        let isam = IsamFile::build(&pager, &rows, 108, key, 100).unwrap();
        // (file, directory levels, a key sharing id 12's head page that
        // never spilled, versions of it): id 76 hashes to bucket 4 with
        // 12 but is absent; id 11 sits on 12's ISAM data page.
        for (rel, levels, quiet, quiet_rows) in [
            (RelFile::Hash(hash), 0, 76, 0),
            (RelFile::Isam(isam), 1, 11, 1),
        ] {
            // Spill 9 versions of id 12 onto one overflow page.
            for _ in 0..9 {
                rel.insert(&pager, &encode(12, "v")).unwrap();
            }
            let guarded = pager.stats().scope();
            assert_eq!(
                probe(&pager, &rel, quiet),
                (levels + 1, quiet_rows),
                "{:?}: the guard stops at the head page",
                rel.method()
            );
            assert_eq!(guarded.total().bloom_skips, 1);
            // The spilled key is a filter hit and walks the whole chain.
            assert_eq!(probe(&pager, &rel, 12), (levels + 2, 10));
            assert_eq!(guarded.total().bloom_hits, 1);
            // Dropping the guard restores the unguarded walk.
            pager.bloom_drop(rel.file_id());
            assert_eq!(
                probe(&pager, &rel, quiet),
                (levels + 2, quiet_rows)
            );
        }
    }
}
