//! Catalog persistence for file-backed databases.
//!
//! The page files of a [`crate::disk::FileDisk`] survive process restarts,
//! but the catalog — schemas, organizations, key attributes, index
//! registrations — lives in memory (the prototype kept it in Ingres'
//! system relations). This module serializes the catalog to a small
//! line-oriented text, with no external dependencies, that every
//! write-ahead-log commit and checkpoint carries:
//!
//! ```text
//! tdbms-catalog 1
//! relation emp temporal interval 100 7 0
//! attr name c16
//! attr salary i4
//! file hash 0 2 mod 0
//! index emp_salary 1 hash <file spec...>
//! end
//! ```
//!
//! Loading validates that every referenced page file exists and that page
//! counts are consistent with the recorded organization.

use crate::catalog::{Catalog, NamedIndex, StoredRelation};
use crate::hash::HashFile;
use crate::heap::HeapFile;
use crate::history::Stamps;
use crate::isam::IsamFile;
use crate::key::{HashFn, KeySpec};
use crate::overflow::ChainFile;
use crate::pager::Pager;
use crate::relfile::RelFile;
use crate::secondary::{IndexStructure, SecondaryIndex};
use std::fmt::Write as _;
use tdbms_kernel::{
    AttrDef, DatabaseClass, Domain, Error, Result, RowCodec, Schema,
    TemporalKind,
};

const MAGIC: &str = "tdbms-catalog 1";

fn hashfn_str(h: HashFn) -> &'static str {
    match h {
        HashFn::Mod => "mod",
        HashFn::Multiplicative => "mult",
    }
}

fn parse_hashfn(s: &str) -> Result<HashFn> {
    match s {
        "mod" => Ok(HashFn::Mod),
        "mult" => Ok(HashFn::Multiplicative),
        _ => Err(Error::Io(format!("bad hash function {s:?} in catalog"))),
    }
}

/// Serialize a file organization: the tokens after `file `.
fn write_relfile(out: &mut String, f: &RelFile, key_attr: Option<usize>) {
    match f {
        RelFile::Heap(h) => {
            writeln!(out, "file heap {}", h.file.0).unwrap();
        }
        RelFile::Hash(h) => {
            writeln!(
                out,
                "file hash {} {} {} {}",
                h.chain.file.0,
                h.chain.n_heads,
                hashfn_str(h.hashfn),
                key_attr.expect("hash files are keyed"),
            )
            .unwrap();
        }
        RelFile::Isam(i) => {
            let levels: Vec<String> = i
                .levels
                .iter()
                .map(|r| format!("{}:{}", r.start, r.end))
                .collect();
            writeln!(
                out,
                "file isam {} {} {} {}",
                i.chain.file.0,
                i.chain.n_heads,
                key_attr.expect("isam files are keyed"),
                levels.join(","),
            )
            .unwrap();
        }
    }
}

/// Parse the tokens after `file `, rebuilding the organization descriptor.
fn parse_relfile(
    tokens: &[&str],
    codec: &RowCodec,
    row_width: usize,
) -> Result<(RelFile, Option<usize>)> {
    let bad = || Error::Io(format!("bad file spec {tokens:?} in catalog"));
    match tokens {
        ["heap", id] => {
            let id: u32 = id.parse().map_err(|_| bad())?;
            Ok((
                RelFile::Heap(HeapFile::attach(
                    crate::disk::FileId(id),
                    row_width,
                )),
                None,
            ))
        }
        ["hash", id, nbuckets, hashfn, key_attr] => {
            let id: u32 = id.parse().map_err(|_| bad())?;
            let nbuckets: u32 = nbuckets.parse().map_err(|_| bad())?;
            let key_attr: usize = key_attr.parse().map_err(|_| bad())?;
            let key = KeySpec::for_attr(codec, key_attr);
            Ok((
                RelFile::Hash(HashFile {
                    chain: ChainFile {
                        file: crate::disk::FileId(id),
                        row_width,
                        key,
                        n_heads: nbuckets,
                    },
                    hashfn: parse_hashfn(hashfn)?,
                }),
                Some(key_attr),
            ))
        }
        ["isam", id, n_data, key_attr, levels] => {
            let id: u32 = id.parse().map_err(|_| bad())?;
            let n_data_pages: u32 = n_data.parse().map_err(|_| bad())?;
            let key_attr: usize = key_attr.parse().map_err(|_| bad())?;
            let key = KeySpec::for_attr(codec, key_attr);
            let mut ranges = Vec::new();
            for part in levels.split(',') {
                let (s, e) = part.split_once(':').ok_or_else(bad)?;
                ranges.push(
                    s.parse().map_err(|_| bad())?
                        ..e.parse().map_err(|_| bad())?,
                );
            }
            Ok((
                RelFile::Isam(IsamFile {
                    chain: ChainFile {
                        file: crate::disk::FileId(id),
                        row_width,
                        key,
                        n_heads: n_data_pages,
                    },
                    levels: ranges,
                }),
                Some(key_attr),
            ))
        }
        _ => Err(bad()),
    }
}

/// Serialize the catalog to its line-oriented text form. The WAL embeds
/// this text in commit records so recovery restores the exact catalog the
/// committed state was described by.
pub fn encode_catalog(catalog: &Catalog) -> String {
    let mut out = String::new();
    writeln!(out, "{MAGIC}").unwrap();
    for (_, rel) in catalog.iter() {
        writeln!(
            out,
            "relation {} {} {} {} {}",
            rel.name,
            rel.schema.class(),
            rel.schema.kind(),
            rel.fillfactor,
            rel.tuple_count,
        )
        .unwrap();
        for a in rel.schema.explicit_attrs() {
            writeln!(out, "attr {} {}", a.name, a.domain).unwrap();
        }
        write_relfile(&mut out, &rel.file, rel.key_attr);
        if let Some(h) = &rel.history {
            writeln!(
                out,
                "history {} {} {}",
                h.file_id().0,
                h.rows(),
                h.max_stop().0,
            )
            .unwrap();
        }
        for ix in &rel.indexes {
            let key = ix.index.target_attr();
            write!(
                out,
                "index {} {} {} {} ",
                ix.name,
                ix.attr,
                match ix.index.structure() {
                    IndexStructure::Heap => "heap",
                    IndexStructure::Hash => "hash",
                },
                key.len,
            )
            .unwrap();
            write_relfile(&mut out, ix.index.file(), Some(0));
        }
        writeln!(out, "end").unwrap();
    }
    out
}

/// Parse a serialized catalog, validating every referenced page file
/// against the pager's disk. The inverse of [`encode_catalog`].
pub fn decode_catalog(text: &str, pager: &Pager) -> Result<Catalog> {
    let mut lines = text.lines().peekable();
    if lines.next() != Some(MAGIC) {
        return Err(Error::Io("not a tdbms catalog".into()));
    }
    let mut catalog = Catalog::new();
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let head: Vec<&str> = line.split_whitespace().collect();
        let bad = |l: &str| Error::Io(format!("bad catalog line {l:?}"));
        let ["relation", name, class, kind, fillfactor, tuple_count] =
            head.as_slice()
        else {
            return Err(bad(line));
        };
        let class = DatabaseClass::parse(class)?;
        let kind = match *kind {
            "interval" => TemporalKind::Interval,
            "event" => TemporalKind::Event,
            _ => return Err(bad(line)),
        };
        let fillfactor: u8 = fillfactor.parse().map_err(|_| bad(line))?;
        let tuple_count: u64 =
            tuple_count.parse().map_err(|_| bad(line))?;

        // Attributes.
        let mut attrs: Vec<AttrDef> = Vec::new();
        while let Some(l) = lines.peek() {
            let Some(rest) = l.strip_prefix("attr ") else {
                break;
            };
            let (n, d) = rest.split_once(' ').ok_or_else(|| bad(l))?;
            attrs.push(AttrDef::new(n, Domain::parse(d)?));
            lines.next();
        }
        let schema = Schema::new(attrs, class, kind)?;
        let codec = RowCodec::new(&schema);
        let width = schema.row_width();

        // Base file.
        let file_line =
            lines.next().ok_or_else(|| bad("<eof, expected file>"))?;
        let toks: Vec<&str> = file_line
            .strip_prefix("file ")
            .ok_or_else(|| bad(file_line))?
            .split_whitespace()
            .collect();
        let (file, key_attr) = parse_relfile(&toks, &codec, width)?;
        // Sanity: the page file must exist.
        pager.page_count(file.file_id()).map_err(|_| {
            Error::Io(format!(
                "catalog references missing page file {:?}",
                file.file_id()
            ))
        })?;

        // Optional clustered-history sidecar. The cluster directory and
        // both watermarks are rebuilt by scanning the history file; the
        // persisted row count and stop-time watermark are checked
        // against the scan.
        let mut history = None;
        if let Some(l) = lines.peek() {
            if let Some(rest) = l.strip_prefix("history ") {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                let [fid, rows, max_stop] = toks.as_slice() else {
                    return Err(bad(l));
                };
                let fid: u32 = fid.parse().map_err(|_| bad(l))?;
                let rows: u64 = rows.parse().map_err(|_| bad(l))?;
                let max_stop: u32 = max_stop.parse().map_err(|_| bad(l))?;
                let key_attr = key_attr.ok_or_else(|| {
                    Error::Io(format!(
                        "history sidecar on unkeyed relation {name}"
                    ))
                })?;
                let h = crate::history::ClusteredHistory::reopen(
                    pager,
                    crate::disk::FileId(fid),
                    width,
                    KeySpec::for_attr(&codec, key_attr),
                    |row| Stamps::of(&schema, &codec, row),
                )?;
                if h.rows() != rows || h.max_stop().0 != max_stop {
                    return Err(Error::Io(format!(
                        "history file {fid} holds {} rows stopped by {}, \
                         catalog recorded {rows} by {max_stop}",
                        h.rows(),
                        h.max_stop().0
                    )));
                }
                history = Some(std::sync::Arc::new(h));
                lines.next();
            }
        }

        // Indexes, until `end`.
        let mut indexes: Vec<NamedIndex> = Vec::new();
        loop {
            let l =
                lines.next().ok_or_else(|| bad("<eof, expected end>"))?;
            if l == "end" {
                break;
            }
            let Some(rest) = l.strip_prefix("index ") else {
                return Err(bad(l));
            };
            let toks: Vec<&str> = rest.split_whitespace().collect();
            let [name, attr, structure, key_len, "file", file_toks @ ..] =
                toks.as_slice()
            else {
                return Err(bad(l));
            };
            let attr: usize = attr.parse().map_err(|_| bad(l))?;
            let structure = match *structure {
                "heap" => IndexStructure::Heap,
                "hash" => IndexStructure::Hash,
                _ => return Err(bad(l)),
            };
            let _key_len: usize = key_len.parse().map_err(|_| bad(l))?;
            let target_attr = KeySpec::for_attr(&codec, attr);
            let entry_width = target_attr.len + 6;
            // The index file stores entry rows keyed at offset 0.
            let entry_codec_key = KeySpec {
                offset: 0,
                len: target_attr.len,
                kind: target_attr.kind,
            };
            let (ix_file, _) = parse_relfile_for_entries(
                file_toks,
                entry_width,
                entry_codec_key,
            )?;
            indexes.push(NamedIndex {
                name: name.to_string(),
                attr,
                index: SecondaryIndex::attach(
                    ix_file,
                    target_attr,
                    entry_width,
                    structure,
                ),
            });
        }

        let id = catalog.adopt(StoredRelation {
            name: name.to_string(),
            schema,
            codec,
            file,
            key_attr,
            fillfactor,
            tuple_count,
            distinct_keys: 0,
            indexes,
            history,
        })?;
        let _ = id;
    }
    Ok(catalog)
}

/// Like [`parse_relfile`] but for index-entry files, whose "codec" is just
/// the entry key at offset 0.
fn parse_relfile_for_entries(
    tokens: &[&str],
    entry_width: usize,
    key: KeySpec,
) -> Result<(RelFile, Option<usize>)> {
    let bad = || Error::Io(format!("bad index file spec {tokens:?}"));
    match tokens {
        ["heap", id] => {
            let id: u32 = id.parse().map_err(|_| bad())?;
            Ok((
                RelFile::Heap(HeapFile::attach(
                    crate::disk::FileId(id),
                    entry_width,
                )),
                None,
            ))
        }
        ["hash", id, nbuckets, hashfn, _key_attr] => {
            let id: u32 = id.parse().map_err(|_| bad())?;
            let nbuckets: u32 = nbuckets.parse().map_err(|_| bad())?;
            Ok((
                RelFile::Hash(HashFile {
                    chain: ChainFile {
                        file: crate::disk::FileId(id),
                        row_width: entry_width,
                        key,
                        n_heads: nbuckets,
                    },
                    hashfn: parse_hashfn(hashfn)?,
                }),
                Some(0),
            ))
        }
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_kernel::Value;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tdbms-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn catalog_roundtrips_through_disk() {
        let dir = tempdir("roundtrip");
        let (saved_rows, saved_meta, text);
        {
            let pager = Pager::new(Box::new(
                crate::disk::FileDisk::open(&dir).unwrap(),
            ));
            let mut cat = Catalog::new();
            let schema = Schema::new(
                vec![
                    AttrDef::new("id", Domain::I4),
                    AttrDef::new("amount", Domain::I4),
                    AttrDef::new("note", Domain::Char(20)),
                ],
                DatabaseClass::Temporal,
                TemporalKind::Interval,
            )
            .unwrap();
            let id = cat.create_relation(&pager, "t", schema).unwrap();
            {
                let rel = cat.get_mut(id);
                for i in 1..=40i64 {
                    let row = rel
                        .codec
                        .encode(&[
                            Value::Int(i),
                            Value::Int(i * 3),
                            Value::Str("x".into()),
                            Value::Time(tdbms_kernel::TimeVal::from_secs(
                                10,
                            )),
                            Value::Time(tdbms_kernel::TimeVal::FOREVER),
                            Value::Time(tdbms_kernel::TimeVal::from_secs(
                                10,
                            )),
                            Value::Time(tdbms_kernel::TimeVal::FOREVER),
                        ])
                        .unwrap();
                    rel.insert_row(&pager, &row).unwrap();
                }
                rel.modify(
                    &pager,
                    crate::relfile::AccessMethod::Isam,
                    Some(0),
                    50,
                    HashFn::Mod,
                )
                .unwrap();
                rel.create_index(
                    &pager,
                    "t_amount",
                    1,
                    IndexStructure::Hash,
                )
                .unwrap();
            }
            pager.flush_all().unwrap();
            text = encode_catalog(&cat);
            let rel = cat.get(id);
            saved_meta = (
                rel.fillfactor,
                rel.key_attr,
                rel.tuple_count,
                rel.file.method(),
            );
            let mut rows = Vec::new();
            let mut cur = rel.file.scan();
            let mut r = Vec::new();
            while cur.next(&pager, &rel.file, &mut r).unwrap().is_some() {
                rows.push(r.clone());
            }
            saved_rows = rows;
        }
        // "Next process": reopen the disk and decode the catalog text.
        let pager = Pager::new(Box::new(
            crate::disk::FileDisk::open(&dir).unwrap(),
        ));
        let cat = decode_catalog(&text, &pager).unwrap();
        let id = cat.id_of("t").expect("relation registered");
        let rel = cat.get(id);
        assert_eq!(
            (
                rel.fillfactor,
                rel.key_attr,
                rel.tuple_count,
                rel.file.method()
            ),
            saved_meta
        );
        assert_eq!(rel.indexes.len(), 1);
        assert_eq!(rel.indexes[0].name, "t_amount");
        // Rows come back identical, through the reconstructed ISAM.
        let mut rows = Vec::new();
        let mut cur = rel.file.scan();
        let mut r = Vec::new();
        while cur.next(&pager, &rel.file, &mut r).unwrap().is_some() {
            rows.push(r.clone());
        }
        assert_eq!(rows, saved_rows);
        // Keyed access works through the reloaded descriptor.
        let kb = 7i32.to_le_bytes();
        let mut cur = rel.file.lookup_eq(&pager, &kb).unwrap().unwrap();
        cur.next(&pager, &rel.file, &mut r).unwrap().unwrap();
        assert_eq!(rel.codec.get_i4(&r, 0), 7);
        // The reloaded index finds by amount.
        let tids = rel.indexes[0]
            .index
            .lookup_tids(&pager, &21i32.to_le_bytes())
            .unwrap();
        assert_eq!(tids.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn history_sidecar_roundtrips_through_the_catalog_text() {
        let pager = Pager::in_memory();
        let mut cat = Catalog::new();
        let schema = Schema::new(
            vec![AttrDef::new("id", Domain::I4)],
            DatabaseClass::Rollback,
            TemporalKind::Interval,
        )
        .unwrap();
        let id = cat.create_relation(&pager, "h", schema).unwrap();
        {
            let rel = cat.get_mut(id);
            rel.modify(
                &pager,
                crate::relfile::AccessMethod::Hash,
                Some(0),
                100,
                HashFn::Mod,
            )
            .unwrap();
            let key = KeySpec::for_attr(&rel.codec, 0);
            let width = rel.schema.row_width();
            let stop = rel
                .schema
                .temporal_index(tdbms_kernel::TemporalAttr::TransactionStop)
                .unwrap();
            let batch: Vec<Vec<u8>> = (1..=5i32)
                .map(|i| {
                    let mut row = vec![0u8; width];
                    row[key.offset..key.offset + 4]
                        .copy_from_slice(&i.to_le_bytes());
                    let t = tdbms_kernel::TimeVal(40 + i as u32);
                    rel.codec.put_time(&mut row, stop, t);
                    row
                })
                .collect();
            let h = crate::history::ClusteredHistory::create(
                &pager, width, key,
            )
            .unwrap()
            .with_migrated(&pager, &batch, |row| {
                Stamps::of(&rel.schema, &rel.codec, row)
            })
            .unwrap();
            rel.history = Some(std::sync::Arc::new(h));
        }
        let text = encode_catalog(&cat);
        assert!(text.contains("history "), "sidecar line emitted");
        let back = decode_catalog(&text, &pager).unwrap();
        let rel = back.get(back.id_of("h").unwrap());
        let h = rel.history.as_ref().expect("history reattached");
        assert_eq!(h.rows(), 5);
        assert_eq!(h.max_stop(), tdbms_kernel::TimeVal(45));
        assert_eq!(h.cluster_pages(&3i32.to_le_bytes()), 1);
    }

    #[test]
    fn garbage_and_missing_page_files_are_errors() {
        let pager = Pager::in_memory();
        assert!(decode_catalog("not a catalog", &pager).is_err());
        // References a page file that does not exist.
        let missing = "tdbms-catalog 1\nrelation r static interval 100 0\n\
                       attr x i4\nfile heap 99\nend\n";
        assert!(decode_catalog(missing, &pager).is_err());
        // An empty catalog decodes to no relations.
        let empty =
            decode_catalog(&encode_catalog(&Catalog::new()), &pager);
        assert_eq!(empty.unwrap().iter().count(), 0);
    }
}
