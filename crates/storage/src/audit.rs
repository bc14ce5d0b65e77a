//! The structural audit of a relation's file, beside the code that writes
//! it: head pages ([`RelFile::expected_kind`]), ISAM's directory levels,
//! and the overflow chains of [`crate::overflow`].
//!
//! One raw pass ([`Pager::read_page_raw`]: no buffer, so a stale frame
//! cannot mask rot) verifies each page's checksum, kind, slot count and
//! overflow pointer, walks every chain once, and finds the overflow pages
//! no chain reaches. It reports typed [`Defect`]s in discovery order plus
//! the page sets a repair acts on; fixing is the caller's job.

use crate::heap::HeapFile;
use crate::history::ClusteredHistory;
use crate::page::{page_capacity, PageKind, NO_PAGE};
use crate::pager::Pager;
use crate::relfile::RelFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use tdbms_kernel::Error;

/// One way a file's pages contradict the shape its organization writes.
/// `page` is the page the defect is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Defect {
    /// The storage file does not exist.
    Missing,
    /// The file has `pages` pages; its heads and directory need `min`.
    Short { pages: u32, min: u32 },
    /// Reading the page failed with `error`.
    Unreadable { page: u32, error: String },
    /// The page disagrees with its recorded checksum.
    Checksum { page: u32, detail: String },
    /// The page's kind tag is not a page kind.
    KindTag { page: u32, detail: String },
    /// The page is of kind `found` where its region requires `want`.
    WrongKind {
        page: u32,
        found: PageKind,
        want: PageKind,
    },
    /// The slot count exceeds the `cap` entries a page holds.
    Overfull { page: u32, count: usize, cap: usize },
    /// An overflow pointer on a page of a `kind` that never chains.
    StrayPointer {
        page: u32,
        target: u32,
        kind: PageKind,
    },
    /// An overflow pointer beyond the end of the `pages`-page file.
    PointerPastEnd { page: u32, target: u32, pages: u32 },
    /// An overflow pointer to a head or directory page.
    PointerOutsideRegion { page: u32, target: u32 },
    /// An overflow page reached a second time (a cycle or a shared
    /// tail), from page `from`.
    ReachedTwice { page: u32, from: u32 },
    /// An overflow page no chain reaches, holding `rows` rows.
    Orphan { page: u32, rows: usize },
    /// An empty overflow page no chain reaches.
    EmptyOrphan { page: u32 },
}

impl Defect {
    /// The page the defect is about (`None` for the whole file).
    pub fn page(&self) -> Option<u32> {
        match self {
            Defect::Missing | Defect::Short { .. } => None,
            Defect::Unreadable { page, .. }
            | Defect::Checksum { page, .. }
            | Defect::KindTag { page, .. }
            | Defect::WrongKind { page, .. }
            | Defect::Overfull { page, .. }
            | Defect::StrayPointer { page, .. }
            | Defect::PointerPastEnd { page, .. }
            | Defect::PointerOutsideRegion { page, .. }
            | Defect::ReachedTwice { page, .. }
            | Defect::Orphan { page, .. }
            | Defect::EmptyOrphan { page } => Some(*page),
        }
    }

    /// True for the one defect that hides no row: an empty orphan.
    pub fn is_harmless(&self) -> bool {
        matches!(self, Defect::EmptyOrphan { .. })
    }
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::Missing => f.write_str("storage file is missing"),
            Defect::Short { pages, min } => write!(
                f,
                "file has {pages} pages but the layout requires at least {min}"
            ),
            Defect::Unreadable { error, .. } => {
                write!(f, "unreadable page: {error}")
            }
            Defect::Checksum { detail, .. }
            | Defect::KindTag { detail, .. } => f.write_str(detail),
            Defect::WrongKind { found, want, .. } => write!(
                f,
                "page kind is {found:?} where the layout expects {want:?}"
            ),
            Defect::Overfull { count, cap, .. } => write!(
                f,
                "slot count {count} exceeds the page capacity of {cap} rows"
            ),
            Defect::StrayPointer { target, kind, .. } => write!(
                f,
                "unexpected overflow pointer {target} on a {kind:?} page"
            ),
            Defect::PointerPastEnd { target, pages, .. } => write!(
                f,
                "overflow pointer {target} points beyond the {pages}-page file"
            ),
            Defect::PointerOutsideRegion { target, .. } => write!(
                f,
                "overflow pointer {target} targets a page outside the \
                 overflow region"
            ),
            Defect::ReachedTwice { from, .. } => write!(
                f,
                "overflow page is reached twice (cycle or shared chain \
                 tail; second reference from page {from})"
            ),
            Defect::Orphan { rows, .. } => write!(
                f,
                "orphaned overflow page with {rows} rows is unreachable \
                 from any chain"
            ),
            Defect::EmptyOrphan { .. } => {
                f.write_str("empty orphaned overflow page")
            }
        }
    }
}

/// What one audit pass established about a file.
#[derive(Debug, Default)]
pub struct Audit {
    /// Pages the file has (0 when it is missing).
    pub n_pages: u32,
    /// Every defect, in discovery order.
    pub defects: Vec<Defect>,
    /// Pages needing full restoration, with the old slot count when the
    /// header was still plausible (for a loss report).
    pub bad: BTreeMap<u32, Option<usize>>,
    /// Pages whose rows are intact but whose overflow pointer is corrupt
    /// (stray, out of range, outside the overflow region, or closing a
    /// cycle): clipping the pointer keeps the rows.
    pub clip: BTreeSet<u32>,
    /// Orphaned overflow pages that still hold rows, with their counts.
    pub data_orphans: BTreeMap<u32, usize>,
    /// Rows on pages a scan reaches.
    pub reachable_rows: u64,
}

impl Audit {
    /// Did the file exist?
    pub fn missing(&self) -> bool {
        self.defects.first() == Some(&Defect::Missing)
    }

    /// No defect but harmless ones: every row is reachable exactly once.
    pub fn sound(&self) -> bool {
        self.defects.iter().all(Defect::is_harmless)
    }
}

fn corruption_detail(e: Error) -> String {
    match e {
        Error::Corruption { detail, .. } => detail,
        other => other.to_string(),
    }
}

impl RelFile {
    /// Audit this file's pages against the shape its organization writes.
    /// Read-only: a page that fails any check is recorded and skipped, so
    /// the pass always completes.
    pub fn audit(&self, pager: &Pager) -> Audit {
        let mut audit = Audit::default();
        let file = self.file_id();
        let Ok(n) = pager.page_count(file) else {
            audit.defects.push(Defect::Missing);
            return audit;
        };
        audit.n_pages = n;
        let min = self.min_pages();
        if n < min {
            audit.defects.push(Defect::Short { pages: n, min });
        }

        let mut ovs = vec![NO_PAGE; n as usize];
        let mut counts = vec![0usize; n as usize];
        for page in 0..n {
            let mut bad = |defect, salvage| {
                audit.defects.push(defect);
                audit.bad.insert(page, salvage);
            };
            let img = match pager.read_page_raw(file, page) {
                Ok(img) => img,
                Err(e) => {
                    let error = e.to_string();
                    bad(Defect::Unreadable { page, error }, None);
                    continue;
                }
            };
            let count = img.count();
            counts[page as usize] = count;
            ovs[page as usize] = img.overflow();
            if let Err(e) = pager.verify_raw(file, page, &img) {
                let detail = corruption_detail(e);
                bad(Defect::Checksum { page, detail }, None);
                continue;
            }
            // A directory page's entries are bare keys, not rows.
            let want = self.expected_kind(page);
            let cap = page_capacity(match self {
                RelFile::Isam(f) if want == PageKind::Directory => {
                    f.chain.key.len
                }
                _ => self.row_width(),
            });
            let salvage = (count <= cap).then_some(count);
            let found = match img.kind() {
                Ok(k) => k,
                Err(e) => {
                    let detail = corruption_detail(e);
                    bad(Defect::KindTag { page, detail }, salvage);
                    continue;
                }
            };
            if found != want {
                bad(Defect::WrongKind { page, found, want }, salvage);
                continue;
            }
            if count > cap {
                bad(Defect::Overfull { page, count, cap }, None);
                continue;
            }
            let target = img.overflow();
            let defect = if target == NO_PAGE {
                continue;
            } else if self.chain().is_none() || want == PageKind::Directory
            {
                Defect::StrayPointer {
                    page,
                    target,
                    kind: want,
                }
            } else if target >= n {
                Defect::PointerPastEnd {
                    page,
                    target,
                    pages: n,
                }
            } else if self.expected_kind(target) != PageKind::Overflow {
                Defect::PointerOutsideRegion { page, target }
            } else {
                continue;
            };
            audit.defects.push(defect);
            audit.clip.insert(page);
        }

        // Chains stop at any page slated for repair.
        for &p in audit.bad.keys().chain(&audit.clip) {
            ovs[p as usize] = NO_PAGE;
        }
        // Walk every chain once; a revisit is a cycle or a shared tail.
        let heads = self.chain().map_or(0, |c| c.n_heads).min(n);
        let mut visited: BTreeSet<u32> = BTreeSet::new();
        for head in (0..heads).filter(|h| !audit.bad.contains_key(h)) {
            let (mut from, mut page) = (head, ovs[head as usize]);
            while page != NO_PAGE {
                if !visited.insert(page) {
                    audit.defects.push(Defect::ReachedTwice { page, from });
                    audit.clip.insert(from);
                    break;
                }
                from = page;
                page = ovs[page as usize];
            }
        }
        // Overflow pages no chain reaches are orphans: their rows are
        // invisible to every scan and lookup. Rows a scan reaches are
        // those on data pages and on visited overflow pages.
        for p in (0..n).filter(|p| !audit.bad.contains_key(p)) {
            let rows = counts[p as usize];
            match self.expected_kind(p) {
                PageKind::Data => audit.reachable_rows += rows as u64,
                PageKind::Overflow if visited.contains(&p) => {
                    audit.reachable_rows += rows as u64
                }
                PageKind::Overflow if rows > 0 => {
                    audit.defects.push(Defect::Orphan { page: p, rows });
                    audit.data_orphans.insert(p, rows);
                }
                PageKind::Overflow => {
                    audit.defects.push(Defect::EmptyOrphan { page: p })
                }
                PageKind::Directory => {}
            }
        }
        audit
    }
}

impl ClusteredHistory {
    /// The history file as the heap its pages form: data pages only, no
    /// chains. The per-key clustering is the in-memory directory, not
    /// on-disk structure.
    pub fn as_heap(&self) -> RelFile {
        RelFile::Heap(HeapFile::attach(self.file_id(), self.row_width()))
    }

    /// Audit the history file's pages ([`RelFile::audit`] of
    /// [`ClusteredHistory::as_heap`]).
    pub fn audit(&self, pager: &Pager) -> Audit {
        self.as_heap().audit(pager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::ChecksumSet;
    use crate::disk::{DiskManager, FileId, MemDisk};
    use crate::key::{HashFn, KeySpec};
    use crate::page::Page;
    use crate::{HashFile, IsamFile};
    use tdbms_kernel::{AttrDef, Domain, RowCodec, Schema, Value};
    use PageKind::{Data, Directory, Overflow};

    const WIDTH: usize = 108;

    /// A heap, a hash and an ISAM file over ids 1..=40, with 27 more
    /// versions of id 7 chained behind its head page in the keyed files,
    /// on a pager whose disk a test can rewrite behind its back. Every
    /// page is on disk.
    fn files() -> (MemDisk, Pager, [RelFile; 3]) {
        let s = Schema::static_relation(vec![
            AttrDef::new("id", Domain::I4),
            AttrDef::new("pad", Domain::Char(104)),
        ])
        .unwrap();
        let codec = RowCodec::new(&s);
        let row = |i: i64| {
            codec
                .encode(&[Value::Int(i), Value::Str("x".into())])
                .unwrap()
        };
        let rows: Vec<Vec<u8>> = (1..=40).map(row).collect();
        let key = KeySpec::for_attr(&codec, 0);
        let disk = MemDisk::new();
        let pager = Pager::new(Box::new(disk.clone()));
        let heap = HeapFile::create(&pager, WIDTH).unwrap();
        for r in &rows {
            heap.insert(&pager, r).unwrap();
        }
        let hash =
            HashFile::build(&pager, &rows, WIDTH, key, HashFn::Mod, 100);
        let isam = IsamFile::build(&pager, &rows, WIDTH, key, 100);
        let files = [
            RelFile::Heap(heap),
            RelFile::Hash(hash.unwrap()),
            RelFile::Isam(isam.unwrap()),
        ];
        for f in &files[1..] {
            for _ in 0..27 {
                f.insert(&pager, &row(7)).unwrap();
            }
        }
        pager.flush_all().unwrap();
        (disk, pager, files)
    }

    fn read(disk: &MemDisk, file: FileId, p: u32) -> Page {
        disk.clone().read_page(file, p).unwrap()
    }

    /// Overwrite bytes `at..` of page `p` on disk.
    fn patch(disk: &MemDisk, file: FileId, p: u32, at: usize, v: &[u8]) {
        let mut bytes = Box::new(*read(disk, file, p).as_bytes());
        bytes[at..at + v.len()].copy_from_slice(v);
        disk.clone()
            .write_page(file, p, &Page::from_bytes(bytes))
            .unwrap();
    }

    fn set_overflow(disk: &MemDisk, file: FileId, p: u32, to: u32) {
        patch(disk, file, p, 0, &to.to_le_bytes());
    }

    fn set_count(disk: &MemDisk, file: FileId, p: u32, count: usize) {
        patch(disk, file, p, 4, &(count as u16).to_le_bytes());
    }

    fn set_kind(disk: &MemDisk, file: FileId, p: u32, kind: PageKind) {
        patch(disk, file, p, 6, &(kind as u16).to_le_bytes());
    }

    /// Audit file `i` of a fresh fixture after `damage` rewrote its disk.
    fn audit_after(
        i: usize,
        damage: impl FnOnce(&MemDisk, FileId),
    ) -> Audit {
        let (disk, pager, files) = files();
        damage(&disk, files[i].file_id());
        files[i].audit(&pager)
    }

    #[test]
    fn written_files_audit_clean_with_every_row_reachable() {
        let (_, pager, files) = files();
        for (f, rows) in files.iter().zip([40, 67, 67]) {
            let audit = f.audit(&pager);
            assert!(audit.defects.is_empty(), "{:?}", audit.defects);
            assert!(audit.sound() && !audit.missing());
            assert_eq!(audit.reachable_rows, rows, "{}", f.method());
            assert_eq!(audit.n_pages, f.total_pages(&pager).unwrap());
        }
    }

    #[test]
    fn heap_pages_are_checked_for_kind_slots_and_stray_pointers() {
        let audit = audit_after(0, |d, file| {
            set_kind(d, file, 1, Overflow);
            set_count(d, file, 2, 200);
            set_overflow(d, file, 3, 0);
        });
        assert_eq!(
            audit.defects,
            [
                Defect::WrongKind {
                    page: 1,
                    found: Overflow,
                    want: Data
                },
                Defect::Overfull {
                    page: 2,
                    count: 200,
                    cap: 9
                },
                Defect::StrayPointer {
                    page: 3,
                    target: 0,
                    kind: Data
                },
            ]
        );
        assert_eq!(audit.bad, [(1, Some(9)), (2, None)].into());
        assert_eq!(audit.clip, [3].into());
        assert_eq!(audit.reachable_rows, 40 - 9 - 9);
    }

    /// One damaged page per defect class, in both chained organizations:
    /// the audit names exactly that defect, and the page lands in the
    /// set a repair acts on.
    #[test]
    fn chained_defects_are_found_on_their_pages() {
        for i in [1, 2] {
            let (disk, pager, files) = files();
            let (f, file) = (&files[i], files[i].file_id());
            let n = f.total_pages(&pager).unwrap();
            // The overflow pages behind the one chained head, in order.
            let next = |p| read(&disk, file, p).overflow();
            let heads = f.chain().unwrap().n_heads;
            let head = (0..heads).find(|&h| next(h) != NO_PAGE).unwrap();
            let mut ovs = vec![next(head)];
            while next(*ovs.last().unwrap()) != NO_PAGE {
                ovs.push(next(*ovs.last().unwrap()));
            }
            assert!(ovs.len() >= 2, "{}: chain {ovs:?}", f.method());
            let (first, tail) = (ovs[0], *ovs.last().unwrap());
            let m = f.method();

            let audit =
                audit_after(i, |d, file| set_kind(d, file, tail, Data));
            let want = Overflow;
            let found = Data;
            assert_eq!(
                audit.defects,
                [Defect::WrongKind {
                    page: tail,
                    found,
                    want
                }],
                "{m}"
            );
            assert!(audit.bad.contains_key(&tail), "{m}");

            let audit =
                audit_after(i, |d, file| set_count(d, file, tail, 99));
            let count = 99;
            assert_eq!(
                audit.defects,
                [Defect::Overfull {
                    page: tail,
                    count,
                    cap: 9
                }],
                "{m}"
            );
            assert_eq!(audit.bad.get(&tail), Some(&None), "{m}");

            let target = n + 5;
            let audit = audit_after(i, |d, file| {
                set_overflow(d, file, tail, target)
            });
            assert_eq!(
                audit.defects,
                [Defect::PointerPastEnd {
                    page: tail,
                    target,
                    pages: n
                }],
                "{m}"
            );
            assert_eq!(audit.clip, [tail].into(), "{m}");

            let audit =
                audit_after(i, |d, file| set_overflow(d, file, tail, 0));
            assert_eq!(
                audit.defects,
                [Defect::PointerOutsideRegion {
                    page: tail,
                    target: 0
                }],
                "{m}"
            );
            assert_eq!(audit.clip, [tail].into(), "{m}");

            // A cycle: the tail points back at the chain's first page.
            let audit = audit_after(i, |d, file| {
                set_overflow(d, file, tail, first)
            });
            assert_eq!(
                audit.defects,
                [Defect::ReachedTwice {
                    page: first,
                    from: tail
                }],
                "{m}"
            );
            assert_eq!(audit.clip, [tail].into(), "{m}");
            assert_eq!(
                audit.reachable_rows, 67,
                "{m}: no row counted twice"
            );

            // Cutting the chain after its first page orphans the rest,
            // rows and all.
            let audit = audit_after(i, |d, file| {
                set_overflow(d, file, first, NO_PAGE)
            });
            let orphans: Vec<Defect> = ovs[1..]
                .iter()
                .map(|&page| {
                    let rows = read(&disk, file, page).count();
                    Defect::Orphan { page, rows }
                })
                .collect();
            assert_eq!(audit.defects, orphans, "{m}");
            let lost: usize = audit.data_orphans.values().sum();
            assert_eq!(audit.reachable_rows + lost as u64, 67, "{m}");

            // An overflow page no chain links is an empty orphan: a
            // warning, not a loss.
            let extra = pager.append_page(file, Overflow).unwrap();
            pager.flush_all().unwrap();
            let audit = f.audit(&pager);
            assert_eq!(
                audit.defects,
                [Defect::EmptyOrphan { page: extra }]
            );
            assert!(audit.sound(), "{m}");
        }
    }

    /// ISAM directory pages hold key-width entries and never chain.
    #[test]
    fn isam_directory_pages_hold_keys_and_never_chain() {
        let (_, _, files) = files();
        let RelFile::Isam(isam) = &files[2] else {
            unreachable!()
        };
        let (dir, count, target) = (isam.levels[0].start, 254, 0);
        assert_eq!(files[2].expected_kind(dir), Directory);
        // 253 four-byte keys fit a directory page; 254 do not.
        let audit =
            audit_after(2, |d, file| set_count(d, file, dir, count));
        let cap = 253;
        assert_eq!(
            audit.defects,
            [Defect::Overfull {
                page: dir,
                count,
                cap
            }]
        );
        let audit = audit_after(2, |d, file| set_count(d, file, dir, 253));
        assert!(audit.defects.is_empty(), "{:?}", audit.defects);
        let audit =
            audit_after(2, |d, file| set_overflow(d, file, dir, target));
        let kind = Directory;
        assert_eq!(
            audit.defects,
            [Defect::StrayPointer {
                page: dir,
                target,
                kind
            }]
        );
    }

    #[test]
    fn checksum_mismatches_and_missing_files_are_defects() {
        let (disk, pager, files) = files();
        let mut sums = ChecksumSet::new();
        for (f, n) in pager.file_lengths().unwrap() {
            for p in 0..n {
                sums.record(f, p, &pager.read_page_raw(f, p).unwrap());
            }
        }
        pager.set_checksums(Some(sums));
        let file = files[1].file_id();
        patch(&disk, file, 0, 500, &[0xff]);
        let audit = files[1].audit(&pager);
        assert!(matches!(
            &audit.defects[..],
            [Defect::Checksum { page: 0, detail }]
                if detail.contains("page checksum mismatch")
        ));
        assert_eq!(audit.bad, [(0, None)].into());

        let gone = RelFile::Heap(HeapFile::attach(FileId(999), WIDTH));
        let audit = gone.audit(&pager);
        assert!(audit.missing() && !audit.sound());
        assert_eq!(audit.defects, [Defect::Missing]);
    }

    #[test]
    fn history_files_audit_as_the_heaps_they_are() {
        let (_, pager, files) = files();
        let mut batch = Vec::new();
        let mut cur = files[0].scan();
        let mut row = Vec::new();
        while cur.next(&pager, &files[0], &mut row).unwrap().is_some() {
            batch.push(row.clone());
        }
        let key = files[1].chain().unwrap().key;
        let stamps = crate::history::Stamps {
            stop: tdbms_kernel::TimeVal::BEGINNING,
            valid_to: tdbms_kernel::TimeVal::FOREVER,
        };
        let h = ClusteredHistory::create(&pager, WIDTH, key)
            .unwrap()
            .with_migrated(&pager, &batch, |_| stamps)
            .unwrap();
        pager.flush_all().unwrap();
        let audit = h.audit(&pager);
        assert!(audit.defects.is_empty(), "{:?}", audit.defects);
        assert_eq!(audit.reachable_rows, h.rows());
        assert_eq!(h.as_heap().expected_kind(0), Data);
    }
}
