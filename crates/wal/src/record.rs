//! Log record encoding: framing, checksums, and the log header.
//!
//! The log is a header followed by a flat sequence of framed records:
//!
//! ```text
//! record  := [len u32] [lsn u32] [kind u8] [payload] [fnv64 u64]
//! ```
//!
//! `len` counts the `lsn + kind + payload` bytes; the FNV-1a 64 checksum
//! covers the same span. A torn append leaves a record whose length field
//! overruns the file or whose checksum mismatches — either way the reader
//! stops there, and everything before it is intact (the log is
//! append-only between truncations). The header carries the base LSN
//! (keeping LSNs monotonic across log truncations, since data pages keep
//! their stamps) and a snapshot of every file's committed length at the
//! checkpoint that wrote it.

use tdbms_kernel::{Error, Result, TimeVal};
use tdbms_storage::{encode_catalog, Catalog, FileId, Page, PAGE_SIZE};

/// Header magic (8 bytes) + format version.
const MAGIC: &[u8; 8] = b"TDBMSWAL";
const VERSION: u32 = 1;

/// FNV-1a 64-bit: tiny, dependency-free, and plenty for torn-write
/// detection (this is an integrity check, not an adversarial one). The
/// implementation lives in `tdbms-storage` so the page-checksum sidecar
/// and the log framing are guaranteed to use the same polynomial.
pub use tdbms_storage::fnv64;

/// One log record. The WAL assigns each appended record its own LSN.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A transaction's first record.
    Begin,
    /// `file` has `len` pages in the committed state (appends and
    /// truncations change lengths eagerly on disk; recovery restores the
    /// committed length, trimming uncommitted tails).
    FileLen { file: FileId, len: u32 },
    /// The committed after-image of one page. The image carries this
    /// record's LSN in its header, so replay can skip pages the disk
    /// already has.
    PageImage {
        file: FileId,
        page_no: u32,
        image: Page,
    },
    /// `file` was dropped; the physical drop is deferred until after the
    /// commit is durable, and replay re-executes it if needed.
    DropFile { file: FileId },
    /// The committed catalog and clock, verbatim in their text formats:
    /// the only on-disk copy of either. The last committed one wins at
    /// recovery.
    Catalog { clock: String, catalog: String },
    /// The transaction is durable once this record is on stable storage.
    Commit,
}

impl Record {
    /// The [`Record::Catalog`] describing `catalog` at `clock`, in the
    /// text forms recovery decodes.
    pub fn catalog_of(clock: TimeVal, catalog: &Catalog) -> Record {
        Record::Catalog {
            clock: clock.as_secs().to_string(),
            catalog: encode_catalog(catalog),
        }
    }

    fn kind(&self) -> u8 {
        match self {
            Record::Begin => 1,
            Record::FileLen { .. } => 2,
            Record::PageImage { .. } => 3,
            Record::DropFile { .. } => 4,
            Record::Catalog { .. } => 5,
            Record::Commit => 6,
        }
    }

    /// Frame this record (with `lsn`) for appending to the log.
    pub fn encode(&self, lsn: u32) -> Vec<u8> {
        let mut body = Vec::with_capacity(16);
        body.extend_from_slice(&lsn.to_le_bytes());
        body.push(self.kind());
        match self {
            Record::Begin | Record::Commit => {}
            Record::FileLen { file, len } => {
                body.extend_from_slice(&file.0.to_le_bytes());
                body.extend_from_slice(&len.to_le_bytes());
            }
            Record::PageImage {
                file,
                page_no,
                image,
            } => {
                body.extend_from_slice(&file.0.to_le_bytes());
                body.extend_from_slice(&page_no.to_le_bytes());
                body.extend_from_slice(image.as_bytes());
            }
            Record::DropFile { file } => {
                body.extend_from_slice(&file.0.to_le_bytes());
            }
            Record::Catalog { clock, catalog } => {
                let cb = clock.as_bytes();
                body.extend_from_slice(&(cb.len() as u32).to_le_bytes());
                body.extend_from_slice(cb);
                body.extend_from_slice(catalog.as_bytes());
            }
        }
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv64(&body).to_le_bytes());
        out
    }

    fn decode_body(body: &[u8]) -> Result<(u32, Record)> {
        let bad = || Error::Corruption {
            file: None,
            page: None,
            detail: "malformed wal record".into(),
        };
        if body.len() < 5 {
            return Err(bad());
        }
        let lsn = u32::from_le_bytes(body[0..4].try_into().unwrap());
        let kind = body[4];
        let payload = &body[5..];
        let u32_at = |off: usize| -> Result<u32> {
            payload
                .get(off..off + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(bad)
        };
        let rec = match kind {
            1 if payload.is_empty() => Record::Begin,
            2 if payload.len() == 8 => Record::FileLen {
                file: FileId(u32_at(0)?),
                len: u32_at(4)?,
            },
            3 if payload.len() == 8 + PAGE_SIZE => {
                let mut bytes = Box::new([0u8; PAGE_SIZE]);
                bytes.copy_from_slice(&payload[8..]);
                Record::PageImage {
                    file: FileId(u32_at(0)?),
                    page_no: u32_at(4)?,
                    image: Page::from_bytes(bytes),
                }
            }
            4 if payload.len() == 4 => Record::DropFile {
                file: FileId(u32_at(0)?),
            },
            5 => {
                let clock_len = u32_at(0)? as usize;
                let rest = payload.get(4..).ok_or_else(bad)?;
                if clock_len > rest.len() {
                    return Err(bad());
                }
                let clock = std::str::from_utf8(&rest[..clock_len])
                    .map_err(|_| bad())?
                    .to_string();
                let catalog = std::str::from_utf8(&rest[clock_len..])
                    .map_err(|_| bad())?
                    .to_string();
                Record::Catalog { clock, catalog }
            }
            6 if payload.is_empty() => Record::Commit,
            _ => return Err(bad()),
        };
        Ok((lsn, rec))
    }
}

/// Parse the framed records in `buf`, stopping silently at the first
/// truncated or corrupt frame (the torn tail of a crashed append).
/// Returns the records with their LSNs and the highest LSN seen.
pub fn parse_records(buf: &[u8]) -> (Vec<(u32, Record)>, u32) {
    let mut out = Vec::new();
    let mut max_lsn = 0;
    let mut at = 0;
    while let Some(lenb) = buf.get(at..at + 4) {
        let len = u32::from_le_bytes(lenb.try_into().unwrap()) as usize;
        let Some(body) = buf.get(at + 4..at + 4 + len) else {
            break;
        };
        let Some(sumb) = buf.get(at + 4 + len..at + 12 + len) else {
            break;
        };
        if u64::from_le_bytes(sumb.try_into().unwrap()) != fnv64(body) {
            break;
        }
        let Ok((lsn, rec)) = Record::decode_body(body) else {
            break;
        };
        max_lsn = max_lsn.max(lsn);
        out.push((lsn, rec));
        at += 12 + len;
    }
    (out, max_lsn)
}

/// Serialize a log header: base LSN plus the checkpoint's file-length
/// snapshot, checksummed as one unit.
pub fn encode_header(base_lsn: u32, snapshot: &[(FileId, u32)]) -> Vec<u8> {
    let mut body = Vec::with_capacity(20 + snapshot.len() * 8);
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&VERSION.to_le_bytes());
    body.extend_from_slice(&base_lsn.to_le_bytes());
    body.extend_from_slice(&(snapshot.len() as u32).to_le_bytes());
    for (file, len) in snapshot {
        body.extend_from_slice(&file.0.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
    }
    let sum = fnv64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Parse a log header. `Ok(None)` for an empty buffer (fresh log);
/// `Err` when the header is torn or foreign — the caller treats that the
/// same as empty, because a header is only ever written by a checkpoint
/// *after* the data files it describes were materialized and synced.
/// Returns `(base_lsn, snapshot, records_offset)`.
#[allow(clippy::type_complexity)]
pub fn parse_header(
    buf: &[u8],
) -> Result<Option<(u32, Vec<(FileId, u32)>, usize)>> {
    if buf.is_empty() {
        return Ok(None);
    }
    let bad = || Error::Io("malformed wal header".into());
    if buf.len() < 20 || &buf[..8] != MAGIC {
        return Err(bad());
    }
    if u32::from_le_bytes(buf[8..12].try_into().unwrap()) != VERSION {
        return Err(bad());
    }
    let base_lsn = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    let n = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
    let end = 20 + n * 8;
    let table = buf.get(20..end).ok_or_else(bad)?;
    let sumb = buf.get(end..end + 8).ok_or_else(bad)?;
    if u64::from_le_bytes(sumb.try_into().unwrap()) != fnv64(&buf[..end]) {
        return Err(bad());
    }
    let snapshot = table
        .chunks_exact(8)
        .map(|c| {
            (
                FileId(u32::from_le_bytes(c[0..4].try_into().unwrap())),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
        .collect();
    Ok(Some((base_lsn, snapshot, end + 8)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_storage::PageKind;

    fn sample_records() -> Vec<Record> {
        let mut img = Page::new(PageKind::Overflow);
        img.push_row(4, &[9; 4]).unwrap();
        img.set_lsn(3);
        vec![
            Record::Begin,
            Record::FileLen {
                file: FileId(2),
                len: 17,
            },
            Record::PageImage {
                file: FileId(2),
                page_no: 5,
                image: img,
            },
            Record::DropFile { file: FileId(9) },
            Record::Catalog {
                clock: "clock 42".into(),
                catalog: "tdbms-catalog 1\nend\n".into(),
            },
            Record::Commit,
        ]
    }

    #[test]
    fn records_roundtrip() {
        let mut buf = Vec::new();
        for (i, rec) in sample_records().iter().enumerate() {
            buf.extend_from_slice(&rec.encode(i as u32 + 1));
        }
        let (got, max_lsn) = parse_records(&buf);
        assert_eq!(max_lsn, 6);
        assert_eq!(got.len(), 6);
        for (i, (lsn, rec)) in got.iter().enumerate() {
            assert_eq!(*lsn, i as u32 + 1);
            assert_eq!(rec, &sample_records()[i]);
        }
    }

    #[test]
    fn torn_tail_stops_the_parse_cleanly() {
        let mut buf = Vec::new();
        for (i, rec) in sample_records().iter().enumerate() {
            buf.extend_from_slice(&rec.encode(i as u32 + 1));
        }
        let whole = parse_records(&buf).0.len();
        // A torn append: any strict prefix of the last record parses to
        // one fewer record, never to garbage.
        let last = Record::Commit.encode(7);
        for cut in 0..last.len() {
            let mut torn = buf.clone();
            torn.extend_from_slice(&last[..cut]);
            assert_eq!(parse_records(&torn).0.len(), whole, "cut {cut}");
        }
        // Flipped byte inside a record body: checksum stops the parse at
        // that record.
        let mut flipped = buf.clone();
        flipped[6] ^= 0xff; // inside the first record's body
        assert_eq!(parse_records(&flipped).0.len(), 0);
    }

    #[test]
    fn header_roundtrips_and_rejects_tears() {
        let snap = vec![(FileId(0), 4), (FileId(3), 0)];
        let hdr = encode_header(77, &snap);
        let (base, got, off) = parse_header(&hdr).unwrap().unwrap();
        assert_eq!(base, 77);
        assert_eq!(got, snap);
        assert_eq!(off, hdr.len());
        assert!(parse_header(&[]).unwrap().is_none(), "fresh log");
        for cut in 1..hdr.len() {
            assert!(parse_header(&hdr[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = hdr.clone();
        bad[13] ^= 1;
        assert!(parse_header(&bad).is_err());
    }

    #[test]
    fn header_then_records_compose() {
        let mut buf = encode_header(10, &[(FileId(0), 1)]);
        buf.extend_from_slice(&Record::Begin.encode(10));
        buf.extend_from_slice(&Record::Commit.encode(11));
        let (base, _, off) = parse_header(&buf).unwrap().unwrap();
        assert_eq!(base, 10);
        let (recs, max) = parse_records(&buf[off..]);
        assert_eq!(recs.len(), 2);
        assert_eq!(max, 11);
    }
}
