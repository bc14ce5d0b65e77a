//! Property tests of the storage engine: every access method must agree
//! with a simple in-memory reference model, regardless of key
//! distribution, fill factor, or insertion order, and the files it writes
//! must pass its own structural audit.

use std::collections::{BTreeMap, BTreeSet};
use tdbms::{AttrDef, Domain, Schema, Value};
use tdbms_prop::{check, Gen};
use tdbms_storage::{
    BufferConfig, DiskManager, EvictionPolicy, FileId, HashFile, HashFn,
    HeapFile, IsamFile, KeySpec, MemDisk, PageKind, Pager, RelFile,
    TupleId, NO_PAGE,
};

fn codec() -> tdbms::Schema {
    Schema::static_relation(vec![
        AttrDef::new("id", Domain::I4),
        AttrDef::new("payload", Domain::I4),
        AttrDef::new("pad", Domain::Char(40)),
    ])
    .unwrap()
}

const WIDTH: usize = 48;

fn encode(schema: &Schema, id: i32, payload: i32) -> Vec<u8> {
    let c = tdbms_kernel::RowCodec::new(schema);
    c.encode(&[
        Value::Int(id as i64),
        Value::Int(payload as i64),
        Value::Str("p".into()),
    ])
    .unwrap()
}

/// Reference model: key → multiset of payloads.
fn model_of(rows: &[(i32, i32)]) -> BTreeMap<i32, Vec<i32>> {
    let mut m: BTreeMap<i32, Vec<i32>> = BTreeMap::new();
    for (k, v) in rows {
        m.entry(*k).or_default().push(*v);
    }
    for v in m.values_mut() {
        v.sort_unstable();
    }
    m
}

fn collect_scan(
    pager: &Pager,
    file: &RelFile,
    schema: &Schema,
) -> BTreeMap<i32, Vec<i32>> {
    let c = tdbms_kernel::RowCodec::new(schema);
    let mut m: BTreeMap<i32, Vec<i32>> = BTreeMap::new();
    let mut cur = file.scan();
    while let Some((_, row)) = cur.next(pager, file).unwrap() {
        m.entry(c.get_i4(row, 0))
            .or_default()
            .push(c.get_i4(row, 1));
    }
    for v in m.values_mut() {
        v.sort_unstable();
    }
    m
}

fn collect_lookup(
    pager: &Pager,
    file: &RelFile,
    schema: &Schema,
    key: i32,
) -> Vec<i32> {
    let c = tdbms_kernel::RowCodec::new(schema);
    let mut out = Vec::new();
    let kb = key.to_le_bytes();
    let mut cur = file.lookup_eq(pager, &kb).unwrap().expect("keyed file");
    while let Some((_, row)) = cur.next(pager, file).unwrap() {
        assert_eq!(c.get_i4(row, 0), key, "lookup returned a foreign key");
        out.push(c.get_i4(row, 1));
    }
    out.sort_unstable();
    out
}

/// Pages in the chain behind `head`, found by following the overflow
/// pointers directly.
fn chain_pages(pager: &Pager, file: &RelFile, head: u32) -> u64 {
    let (mut n, mut page) = (0, head);
    while page != NO_PAGE {
        n += 1;
        page = pager.read(file.file_id(), page, |p| p.overflow()).unwrap();
    }
    n
}

/// What the paper's cost law says a cold keyed lookup of `key` reads:
/// hashed, the pages of the key's bucket chain; ISAM, one directory
/// page per level plus the chains of the data pages that can hold the
/// key. Those data pages are worked out from the file's contents, not
/// from its cursor: the rightmost page whose first key is below the
/// key, plus every following page whose first key equals it (slot 0
/// keeps a data page's first key — inserts only append behind it).
fn lookup_cost_law(pager: &Pager, file: &RelFile, key: i32) -> u64 {
    let (levels, heads) = match file {
        RelFile::Hash(h) => {
            let b = h.bucket_of(&key.to_le_bytes());
            (0, b..=b)
        }
        RelFile::Isam(f) => {
            // At most 15 data pages here, so each level is one page.
            assert_eq!(f.n_directory_pages(), f.n_levels());
            let firsts: Vec<i32> = (0..f.chain.n_heads)
                .map(|page| {
                    pager
                        .read(f.chain.file, page, |p| match p.count() {
                            0 => 0, // the empty build's one data page
                            _ => i32::from_le_bytes(
                                p.row(WIDTH, 0).unwrap()[..4]
                                    .try_into()
                                    .unwrap(),
                            ),
                        })
                        .unwrap()
                })
                .collect();
            let start = firsts.iter().rposition(|f| *f < key).unwrap_or(0);
            let run = firsts[start + 1..]
                .iter()
                .take_while(|f| **f == key)
                .count();
            (f.n_levels(), start as u32..=(start + run) as u32)
        }
        RelFile::Heap(_) => unreachable!("keyed files only"),
    };
    u64::from(levels)
        + heads.map(|h| chain_pages(pager, file, h)).sum::<u64>()
}

/// Hash and ISAM agree with the model under arbitrary build + insert
/// sequences (duplicates, negatives, clustered keys), and with one cold
/// frame their page reads obey the paper's cost law: a hashed lookup
/// reads its key's chain, an ISAM lookup its directory levels plus the
/// candidate chains, a scan every page but the directory.
#[test]
fn keyed_files_agree_with_model() {
    check("keyed_files_agree_with_model", 48, |g: &mut Gen| {
        let initial = g.vec(0..150, |g| (g.range(-40i32..40), g.any_i32()));
        let inserts = g.vec(0..80, |g| (g.range(-40i32..40), g.any_i32()));
        let fill = *g.pick(&[50u8, 75, 100]);
        let hashfn = *g.pick(&[HashFn::Mod, HashFn::Multiplicative]);

        let schema = codec();
        let pager = Pager::in_memory();
        let rows: Vec<Vec<u8>> = initial
            .iter()
            .map(|(k, v)| encode(&schema, *k, *v))
            .collect();
        let key = KeySpec {
            offset: 0,
            len: 4,
            kind: tdbms_storage::KeyKind::I4,
        };
        let files = vec![
            RelFile::Hash(
                HashFile::build(&pager, &rows, WIDTH, key, hashfn, fill)
                    .unwrap(),
            ),
            RelFile::Isam(
                IsamFile::build(&pager, &rows, WIDTH, key, fill).unwrap(),
            ),
        ];
        for file in files {
            let mut local = initial.clone();
            for (k, v) in &inserts {
                file.insert(&pager, &encode(&schema, *k, *v)).unwrap();
                local.push((*k, *v));
            }
            let want = model_of(&local);
            // Full scan sees exactly the model, at one read per
            // scannable page.
            pager.invalidate_buffers().unwrap();
            let cost = pager.stats().scope();
            assert_eq!(collect_scan(&pager, &file, &schema), want);
            assert_eq!(
                cost.of(file.file_id()).reads,
                u64::from(file.scannable_pages(&pager).unwrap()),
                "{} scan cost",
                file.method()
            );
            // Every present key is found with all its versions; absent
            // probes find nothing; either way the chain is paid for.
            for probe in -42i32..42 {
                let law = lookup_cost_law(&pager, &file, probe);
                pager.invalidate_buffers().unwrap();
                let cost = pager.stats().scope();
                let got = collect_lookup(&pager, &file, &schema, probe);
                let expect = want.get(&probe).cloned().unwrap_or_default();
                assert_eq!(got, expect, "probe {probe}");
                assert_eq!(
                    cost.of(file.file_id()).reads,
                    law,
                    "{} lookup cost, probe {probe}",
                    file.method()
                );
            }
            // The pages the builder and the inserts wrote have the shape
            // the audit expects, and every row is reachable once.
            pager.flush_all().unwrap();
            let audit = file.audit(&pager);
            assert!(
                audit.defects.is_empty(),
                "{} audit: {:?}",
                file.method(),
                audit.defects
            );
            assert_eq!(audit.reachable_rows, local.len() as u64);
        }
    });
}

/// `(tid, row)` of every stored row, decoded straight from the pages
/// in file order (a heap's pages in turn, a chained file's heads each
/// followed by its chain), and the number of pages that took.
fn page_decode(
    pager: &Pager,
    file: &RelFile,
) -> (Vec<(TupleId, Vec<u8>)>, u64) {
    let id = file.file_id();
    let pages: Vec<u32> = match file {
        RelFile::Heap(_) => (0..pager.page_count(id).unwrap()).collect(),
        RelFile::Hash(HashFile { chain, .. })
        | RelFile::Isam(IsamFile { chain, .. }) => (0..chain.n_heads)
            .flat_map(|head| {
                std::iter::successors(Some(head), |&p| {
                    let next = pager.read(id, p, |pg| pg.overflow());
                    Some(next.unwrap()).filter(|&n| n != NO_PAGE)
                })
            })
            .collect(),
    };
    let mut out = Vec::new();
    for &p in &pages {
        pager
            .read(id, p, |pg| {
                for (slot, row) in pg.rows(WIDTH) {
                    out.push((TupleId::new(p, slot), row.to_vec()));
                }
            })
            .unwrap();
    }
    (out, pages.len() as u64)
}

/// Heap, hash and ISAM files of random contents, with overflow chains
/// from inserts and pages compacted by physical deletes: a scan, every
/// keyed lookup and a `get` of every row yield exactly the raw page
/// decode, and from cold buffers a cursor makes one buffered access per
/// page it visits (a scan one per page, a lookup one per page of its
/// descent and chains, no page accessed twice), at 1 and 3 frames.
#[test]
fn cursors_agree_with_a_page_decode_at_one_access_per_page() {
    check(
        "cursors_agree_with_a_page_decode_at_one_access_per_page",
        48,
        |g: &mut Gen| {
            let initial =
                g.vec(0..150, |g| (g.range(-30i32..30), g.any_i32()));
            let inserts =
                g.vec(0..80, |g| (g.range(-30i32..30), g.any_i32()));
            let fill = *g.pick(&[50u8, 100]);
            let frames = *g.pick(&[1usize, 3]);
            let delete_one_in = g.range(2u32..8);

            let schema = codec();
            let pager = Pager::in_memory_with_config(
                BufferConfig::uniform(frames, EvictionPolicy::Lru),
            );
            let rows: Vec<Vec<u8>> = initial
                .iter()
                .map(|(k, v)| encode(&schema, *k, *v))
                .collect();
            let key = KeySpec {
                offset: 0,
                len: 4,
                kind: tdbms_storage::KeyKind::I4,
            };
            let heap = HeapFile::create(&pager, WIDTH).unwrap();
            for r in &rows {
                heap.insert(&pager, r).unwrap();
            }
            let files = [
                RelFile::Heap(heap),
                RelFile::Hash(
                    HashFile::build(
                        &pager,
                        &rows,
                        WIDTH,
                        key,
                        HashFn::Mod,
                        fill,
                    )
                    .unwrap(),
                ),
                RelFile::Isam(
                    IsamFile::build(&pager, &rows, WIDTH, key, fill)
                        .unwrap(),
                ),
            ];
            for file in files {
                let what = file.method();
                for (k, v) in &inserts {
                    file.insert(&pager, &encode(&schema, *k, *v)).unwrap();
                }
                // Physical deletes, each page's slots highest first: a
                // deleted slot takes its page's last row.
                let (stored, _) = page_decode(&pager, &file);
                let mut doomed: Vec<TupleId> = stored
                    .iter()
                    .map(|(tid, _)| *tid)
                    .filter(|_| g.range(0..delete_one_in) == 0)
                    .collect();
                doomed.sort_unstable();
                for tid in doomed.into_iter().rev() {
                    file.delete(&pager, tid).unwrap();
                }
                pager.flush_all().unwrap();
                let (decoded, pages) = page_decode(&pager, &file);

                // A scan: the decode, one access and one read per page.
                pager.invalidate_buffers().unwrap();
                let cost = pager.stats().scope();
                let mut scanned = Vec::new();
                let mut cur = file.scan();
                while let Some((tid, row)) =
                    cur.next(&pager, &file).unwrap()
                {
                    scanned.push((tid, row.to_vec()));
                }
                assert_eq!(scanned, decoded, "{what} scan");
                let io = cost.of(file.file_id());
                assert_eq!(
                    (io.accesses, io.hits, io.reads),
                    (pages, 0, pages),
                    "{what} scan: one access per page"
                );

                // A `get` of every row: one access each.
                pager.invalidate_buffers().unwrap();
                let cost = pager.stats().scope();
                let mut row = Vec::new();
                for (tid, want) in &decoded {
                    file.get(&pager, *tid, &mut row).unwrap();
                    assert_eq!(&row, want, "{what} get {tid}");
                }
                let accesses = cost.of(file.file_id()).accesses;
                assert_eq!(accesses, decoded.len() as u64, "{what} get");

                if matches!(file, RelFile::Heap(_)) {
                    continue;
                }
                // Every key, present or not: the decode's rows of that
                // key in file order, each page of the walk accessed once.
                for probe in -32i32..32 {
                    let kb = probe.to_le_bytes();
                    pager.invalidate_buffers().unwrap();
                    let cost = pager.stats().scope();
                    let mut cur =
                        file.lookup_eq(&pager, &kb).unwrap().unwrap();
                    let mut found = Vec::new();
                    while let Some((tid, row)) =
                        cur.next(&pager, &file).unwrap()
                    {
                        found.push((tid, row.to_vec()));
                    }
                    let want: Vec<_> = decoded
                        .iter()
                        .filter(|(_, r)| r[..4] == kb)
                        .cloned()
                        .collect();
                    assert_eq!(found, want, "{what} lookup {probe}");
                    let io = cost.of(file.file_id());
                    assert_eq!(
                        (io.accesses, io.hits),
                        (io.reads, 0),
                        "{what} lookup {probe}: each page accessed once"
                    );
                    if let RelFile::Hash(h) = &file {
                        let chain =
                            chain_pages(&pager, &file, h.bucket_of(&kb));
                        assert_eq!(
                            io.reads, chain,
                            "{what} lookup {probe}"
                        );
                    }
                }
            }
        },
    );
}

/// A heap preserves insertion order exactly.
#[test]
fn heap_preserves_order() {
    check("heap_preserves_order", 48, |g: &mut Gen| {
        let rows = g.vec(0..120, |g| (g.any_i32(), g.any_i32()));
        let schema = codec();
        let pager = Pager::in_memory();
        let heap = HeapFile::create(&pager, WIDTH).unwrap();
        for (k, v) in &rows {
            heap.insert(&pager, &encode(&schema, *k, *v)).unwrap();
        }
        let c = tdbms_kernel::RowCodec::new(&schema);
        let mut got = Vec::new();
        let mut cur = heap.scan();
        while let Some((_, row)) = cur.next(&pager, &heap).unwrap() {
            got.push((c.get_i4(row, 0), c.get_i4(row, 1)));
        }
        assert_eq!(got, rows);
    });
}

/// Scan I/O cost is exactly the scannable page count, for any
/// organization and any contents.
#[test]
fn scan_cost_is_page_count() {
    check("scan_cost_is_page_count", 48, |g: &mut Gen| {
        let rows = g.vec(1..200, |g| (g.range(-20i32..20), g.any_i32()));
        let fill = *g.pick(&[50u8, 100]);
        let schema = codec();
        let pager = Pager::in_memory();
        let encoded: Vec<Vec<u8>> =
            rows.iter().map(|(k, v)| encode(&schema, *k, *v)).collect();
        let key = KeySpec {
            offset: 0,
            len: 4,
            kind: tdbms_storage::KeyKind::I4,
        };
        for file in [
            RelFile::Hash(
                HashFile::build(
                    &pager,
                    &encoded,
                    WIDTH,
                    key,
                    HashFn::Mod,
                    fill,
                )
                .unwrap(),
            ),
            RelFile::Isam(
                IsamFile::build(&pager, &encoded, WIDTH, key, fill)
                    .unwrap(),
            ),
        ] {
            pager.invalidate_buffers().unwrap();
            let cost = pager.stats().scope();
            let mut n = 0usize;
            let mut cur = file.scan();
            while cur.next(&pager, &file).unwrap().is_some() {
                n += 1;
            }
            assert_eq!(n, rows.len());
            assert_eq!(
                cost.of(file.file_id()).reads as u32,
                file.scannable_pages(&pager).unwrap()
            );
        }
    });
}

/// TimeVal: format-then-parse is the identity at second granularity.
#[test]
fn time_format_parse_roundtrip() {
    check("time_format_parse_roundtrip", 256, |g: &mut Gen| {
        let secs = g.range(0u32..u32::MAX - 1);
        let t = tdbms::TimeVal::from_secs(secs);
        let s = t.format(tdbms::Granularity::Second);
        assert_eq!(tdbms::TimeVal::parse(&s).unwrap(), t);
    });
}

/// Civil conversion round-trips for every representable instant.
#[test]
fn civil_roundtrip() {
    check("civil_roundtrip", 256, |g: &mut Gen| {
        let secs = g.range(0u32..u32::MAX - 1);
        let t = tdbms::TimeVal::from_secs(secs);
        let c = t.to_civil();
        let back = tdbms::TimeVal::from_ymd_hms(
            c.year, c.month, c.day, c.hour, c.minute, c.second,
        )
        .unwrap();
        assert_eq!(back, t);
    });
}

/// Interval algebra laws: intersection is commutative and contained in
/// both operands; span contains both; overlap is symmetric; precede is
/// antisymmetric apart from meeting points.
#[test]
fn interval_algebra_laws() {
    check("interval_algebra_laws", 256, |g: &mut Gen| {
        use tdbms::{TInterval, TimeVal};
        let (a_lo, a_len) = (g.range(0u32..1000), g.range(0u32..1000));
        let (b_lo, b_len) = (g.range(0u32..1000), g.range(0u32..1000));
        let a = TInterval::new(
            TimeVal::from_secs(a_lo),
            TimeVal::from_secs(a_lo + a_len),
        );
        let b = TInterval::new(
            TimeVal::from_secs(b_lo),
            TimeVal::from_secs(b_lo + b_len),
        );
        assert_eq!(a.intersect(&b), b.intersect(&a));
        assert_eq!(a.span(&b), b.span(&a));
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        let i = a.intersect(&b);
        if !i.is_empty() {
            assert!(a.contains(i.lo) && a.contains(i.hi));
            assert!(b.contains(i.lo) && b.contains(i.hi));
        }
        let s = a.span(&b);
        assert!(s.lo <= a.lo && s.hi >= a.hi);
        assert!(s.lo <= b.lo && s.hi >= b.hi);
        // overlap(a, b) == !(a precede strictly before b) && vice versa,
        // with the meeting-point convention that both may hold at a shared
        // endpoint.
        if a.precedes(&b) && b.precedes(&a) {
            assert!(a.hi == b.lo && b.hi == a.lo);
        }
    });
}

/// Commit the running staged statement the way `db.rs` does: flush
/// every frame into the layer, read it, stamp each page's LSN, merge it
/// on `ticket` and execute the drops that ticket makes durable.
fn commit_staged(pager: &Pager, ticket: u64, lsn: &mut u32) {
    pager.flush_all().unwrap();
    for (file, page_no) in pager.statement_changes().pages {
        *lsn += 1;
        let image = pager.stamp_lsn(file, page_no, *lsn).unwrap();
        assert_eq!(image.lsn(), *lsn);
    }
    pager.commit_statement(ticket);
    pager.execute_drops(ticket);
}

/// Every live file reads exactly as `model` says: its length, every
/// page's tag (its overflow word), and nothing one page past the end.
fn assert_reads(pager: &Pager, model: &BTreeMap<FileId, Vec<u32>>) {
    for (&f, tags) in model {
        assert_eq!(pager.page_count(f).unwrap() as usize, tags.len());
        for (p, &tag) in tags.iter().enumerate() {
            assert_eq!(
                pager.read(f, p as u32, |pg| pg.overflow()).unwrap(),
                tag
            );
        }
        let past = tags.len() as u32;
        assert!(pager.read(f, past, |_| ()).is_err(), "{f:?} page {past}");
    }
}

/// Staged statements — random mixes of page writes, writes that change
/// nothing, appends, truncations, creates and drops — against a model
/// updated only on commit. Each statement commits as `db.rs` commits or
/// rolls back; the layer a commit logs must hold exactly the pages
/// whose bytes the statement changed, the pager must then read as the
/// model, mid-statement reads must see the statement's own changes, and
/// a final checkpoint must leave the device equal to the model.
#[test]
fn staged_statements_agree_with_a_model() {
    check("staged_statements_agree_with_a_model", 48, |g| {
        let frames = *g.pick(&[1usize, 3]);
        let disk = MemDisk::new();
        let pager = Pager::with_config(
            Box::new(disk.clone()),
            BufferConfig::uniform(frames, EvictionPolicy::Lru),
        );
        pager.set_staging(true);
        let (mut ticket, mut lsn, mut tag) = (0u64, 0u32, 0u32);
        let mut model: BTreeMap<FileId, Vec<u32>> = BTreeMap::new();
        for _ in 0..g.range(2usize..5) {
            let f = pager.create_file().unwrap();
            let mut tags = Vec::new();
            for _ in 0..g.range(0u32..4) {
                let p = pager.append_page(f, PageKind::Data).unwrap();
                tag += 1;
                pager.write(f, p, |pg| pg.set_overflow(tag)).unwrap();
                tags.push(tag);
            }
            model.insert(f, tags);
        }
        ticket += 1;
        commit_staged(&pager, ticket, &mut lsn);
        assert_reads(&pager, &model);

        for _ in 0..g.range(10usize..31) {
            // What the statement commits, if it does, and the pages
            // whose bytes it changed.
            let mut next = model.clone();
            let mut changed: BTreeSet<(FileId, u32)> = BTreeSet::new();
            for _ in 0..g.range(1usize..9) {
                let files: Vec<FileId> = next.keys().copied().collect();
                let op = g.range(0u32..11);
                if files.is_empty() || op == 9 {
                    next.insert(pager.create_file().unwrap(), Vec::new());
                    continue;
                }
                let f = *g.pick(&files);
                let len = next[&f].len() as u32;
                match op {
                    0..=3 if len > 0 => {
                        let p = g.range(0..len);
                        tag += 1;
                        pager
                            .write(f, p, |pg| pg.set_overflow(tag))
                            .unwrap();
                        next.get_mut(&f).unwrap()[p as usize] = tag;
                        changed.insert((f, p));
                    }
                    10 if len > 0 => {
                        // A chain walk's write: it rewrites the word
                        // it read, so no byte changes.
                        let p = g.range(0..len);
                        pager
                            .write(f, p, |pg| {
                                pg.set_overflow(pg.overflow())
                            })
                            .unwrap();
                    }
                    0..=5 | 10 => {
                        let p =
                            pager.append_page(f, PageKind::Data).unwrap();
                        assert_eq!(p, len);
                        next.get_mut(&f).unwrap().push(NO_PAGE);
                        changed.insert((f, p));
                    }
                    6 | 7 => {
                        pager.truncate(f).unwrap();
                        next.get_mut(&f).unwrap().clear();
                        changed.retain(|&(h, _)| h != f);
                    }
                    _ => {
                        pager.drop_file(f).unwrap();
                        next.remove(&f);
                        changed.retain(|&(h, _)| h != f);
                    }
                }
                // The statement reads its own changes.
                if let Some((&f, tags)) =
                    next.iter().find(|(_, tags)| !tags.is_empty())
                {
                    let p = g.range(0..tags.len());
                    let got = pager.read(f, p as u32, |pg| pg.overflow());
                    assert_eq!(got.unwrap(), tags[p]);
                }
            }
            if g.bool() {
                pager.flush_all().unwrap();
                let changes = pager.statement_changes();
                for (f, len) in &changes.lengths {
                    assert_eq!(next[f].len() as u32, *len, "{f:?} logged");
                }
                let logged: BTreeSet<(FileId, u32)> =
                    changes.pages.iter().copied().collect();
                assert_eq!(logged, changed, "the pages logged");
                assert!(changes
                    .drops
                    .iter()
                    .all(|f| !next.contains_key(f)));
                ticket += 1;
                commit_staged(&pager, ticket, &mut lsn);
                model = next;
            } else {
                pager.rollback_statement();
            }
            assert_reads(&pager, &model);
            let live: Vec<FileId> = model.keys().copied().collect();
            assert_eq!(disk.files(), live, "device files");
        }

        pager.materialize_overlay().unwrap();
        let mut disk = disk;
        for (&f, tags) in &model {
            assert_eq!(disk.page_count(f).unwrap() as usize, tags.len());
            for (p, &tag) in tags.iter().enumerate() {
                let page = disk.read_page(f, p as u32).unwrap();
                assert_eq!(page.overflow(), tag, "{f:?} page {p} on disk");
            }
        }
    });
}
