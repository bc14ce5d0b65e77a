//! # tdbms-check
//!
//! An fsck-style checker for tdbms databases, built on storage's own
//! audit: it scrubs every cataloged file, compares what storage finds
//! against the catalog's ledgers, and salvages what it can. Three layers of defense against at-rest
//! corruption:
//!
//! 1. **Scrub** — every page of every base file, index and history
//!    sidecar goes through storage's own structural audit
//!    ([`RelFile::audit`]): a raw read (no buffering, so stale frames
//!    cannot mask rot), the checksum sidecar (`sums.tdbms`), and the
//!    shape the file's organization writes — page kinds per region, slot
//!    counts, overflow pointers, chains, orphans. The layout rule lives
//!    in `tdbms-storage` only; this crate turns the audit's defects into
//!    findings, in the order found. All traffic is accounted to a named
//!    `"scrub"` I/O phase.
//! 2. **Ledgers and temporal invariants** — reachable rows against the
//!    stored tuple count (base), the relation's row count (index), and
//!    the migrated-row count (history); per-key temporal invariants
//!    (interval ordering; live-version overlap).
//! 3. **Salvage** — a page that fails its checksum or its structural
//!    checks is restored byte-for-byte from the newest *committed*
//!    after-image still in the write-ahead log. When no image survives,
//!    the repair degrades gracefully: the page is quarantined
//!    (reinitialized empty, in the kind its file requires there), corrupt
//!    overflow pointers are clipped so damaged chain tails are truncated
//!    rather than followed, orphaned rows are discarded with a loss
//!    report, tuple counts are recomputed, and secondary indexes are
//!    rebuilt from the surviving base rows.
//!
//! [`check_database`] / [`repair_database`] operate on any live pager +
//! catalog (tests drive them against in-memory databases); [`CheckedDb`]
//! opens a database *directory* the way recovery does — replaying the
//! committed WAL tail but, unlike a normal open, **not** truncating the
//! log, because the log's page images are exactly the salvage source
//! repair needs.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use tdbms_kernel::{Result, TemporalAttr, TimeVal};
use tdbms_storage::{
    Audit, Catalog, ClusteredHistory, KeyKind, KeySpec, Page, Pager,
    RelFile, RelId, Stamps, StoredRelation, NO_PAGE,
};
use tdbms_wal::{Recovered, RecoveryPlan, Wal};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Corruption or inconsistency. A report with errors is not clean.
    Error,
    /// Suspicious but not data-threatening (e.g. an empty orphan page).
    Warning,
    /// Repair restored the damaged state exactly (WAL image or rebuild).
    Repaired,
    /// Repair had to discard data; the detail says precisely what.
    Lost,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Repaired => "repaired",
            Severity::Lost => "lost",
        })
    }
}

/// One fact the checker established, locatable down to a page.
#[derive(Debug, Clone)]
pub struct Finding {
    /// How serious it is.
    pub severity: Severity,
    /// The relation (or `relation.index`) the page belongs to, if known.
    pub relation: Option<String>,
    /// The storage file number, if the finding is about one.
    pub file: Option<u32>,
    /// The page number within the file, if the finding is about one.
    pub page: Option<u32>,
    /// Human-readable description; stable enough to grep in CI.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.severity)?;
        if let Some(r) = &self.relation {
            write!(f, " relation {r}")?;
        }
        if let Some(n) = self.file {
            write!(f, " file {n}")?;
        }
        if let Some(p) = self.page {
            write!(f, " page {p}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The machine-readable outcome of a check or repair run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Everything found, in discovery order.
    pub findings: Vec<Finding>,
    /// Relations visited.
    pub relations_checked: usize,
    /// Pages read across all visited files (repair passes re-read).
    pub pages_checked: u64,
}

impl CheckReport {
    /// True when no finding has [`Severity::Error`]. Warnings, repairs,
    /// and loss reports do not make a database dirty — a *subsequent*
    /// check after a repair must come back clean.
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    fn count(&self, s: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == s).count()
    }

    /// Line-oriented rendering: a magic line, one line per finding, a
    /// summary line, and a final `clean` / `dirty` verdict line.
    pub fn render(&self) -> String {
        let mut out = String::from("tdbms-check 1\n");
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "checked {} relations, {} pages: {} errors, {} warnings, \
             {} repaired, {} lost\n",
            self.relations_checked,
            self.pages_checked,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Repaired),
            self.count(Severity::Lost),
        ));
        out.push_str(if self.is_clean() {
            "clean\n"
        } else {
            "dirty\n"
        });
        out
    }
}

/// What role a checkable file plays for its relation — the role decides
/// which row-count ledger the audit is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitKind {
    /// The base file; reachable rows must equal the stored tuple count.
    Base,
    /// A secondary index; its entries must equal the stored tuple
    /// count, or probes through it answer wrong.
    Index,
    /// A clustered history sidecar; reachable rows must equal the
    /// migrated-row count the catalog's `history` line records.
    History,
}

/// One checkable file: a relation's base file, one of its indexes, or its
/// clustered history sidecar (audited as the heap its pages form).
struct Unit {
    label: String,
    rel: RelId,
    kind: UnitKind,
    file: RelFile,
}

impl Unit {
    fn finding(
        &self,
        severity: Severity,
        page: Option<u32>,
        detail: String,
    ) -> Finding {
        Finding {
            severity,
            relation: Some(self.label.clone()),
            file: Some(self.file.file_id().0),
            page,
            detail,
        }
    }

    /// Storage's audit of the unit's file, its defects reported as
    /// findings in the order the audit found them.
    fn audit(&self, pager: &Pager, findings: &mut Vec<Finding>) -> Audit {
        let audit = self.file.audit(pager);
        for d in &audit.defects {
            let severity = if d.is_harmless() {
                Severity::Warning
            } else {
                Severity::Error
            };
            findings.push(self.finding(severity, d.page(), d.to_string()));
        }
        audit
    }

    /// Restore page `p` from the newest committed log image (a
    /// `Repaired` finding: "`what` from the newest committed log
    /// image"); without one, `fallback` writes a stand-in and returns the
    /// `Lost` finding's detail.
    fn restore(
        &self,
        pager: &Pager,
        plan: &RecoveryPlan,
        p: u32,
        what: &str,
        fallback: impl FnOnce() -> Result<String>,
    ) -> Result<Finding> {
        let Some(img) = plan.latest_image(self.file.file_id(), p) else {
            return Ok(self.finding(Severity::Lost, Some(p), fallback()?));
        };
        pager.write_page_raw(self.file.file_id(), p, img)?;
        let detail = format!(
            "{what} from the newest committed log image (lsn {})",
            img.lsn()
        );
        Ok(self.finding(Severity::Repaired, Some(p), detail))
    }
}

fn units_of(catalog: &Catalog) -> Vec<Unit> {
    let mut units = Vec::new();
    for (id, rel) in catalog.iter() {
        let unit = |label, kind, file| Unit {
            label,
            rel: id,
            kind,
            file,
        };
        units.push(unit(
            rel.name.clone(),
            UnitKind::Base,
            rel.file.clone(),
        ));
        for ix in &rel.indexes {
            let label = format!("{}.{}", rel.name, ix.name);
            units.push(unit(
                label,
                UnitKind::Index,
                ix.index.file().clone(),
            ));
        }
        if let Some(h) = &rel.history {
            let label = format!("{}.history", rel.name);
            units.push(unit(label, UnitKind::History, h.as_heap()));
        }
    }
    units
}

fn render_key(spec: &KeySpec, bytes: &[u8]) -> String {
    match spec.kind {
        KeyKind::I4 => bytes
            .try_into()
            .map(|b| i32::from_le_bytes(b).to_string())
            .unwrap_or_else(|_| format!("{bytes:?}")),
        KeyKind::Bytes => {
            format!("{:?}", String::from_utf8_lossy(bytes).trim_end())
        }
    }
}

/// A relation's live versions per key, as `(valid_from, valid_to)`: what
/// the overlap check compares once every file holding its versions has
/// been read.
type LiveVersions = BTreeMap<Vec<u8>, Vec<(TimeVal, TimeVal)>>;

/// Temporal invariants over a structurally sound file of versions — a
/// relation's base file, or its history sidecar, which holds the
/// versions reorganization migrated: interval ordering per row (errors —
/// the DML can never produce a reversed interval). Live versions are
/// gathered into `live` for [`check_overlaps`].
fn check_temporal(
    pager: &Pager,
    unit: &Unit,
    rel: &StoredRelation,
    live: &mut LiveVersions,
    findings: &mut Vec<Finding>,
) -> Result<()> {
    let schema = &rel.schema;
    let codec = &rel.codec;
    let vf = schema.temporal_index(TemporalAttr::ValidFrom);
    let vt = schema.temporal_index(TemporalAttr::ValidTo);
    let ts = schema.temporal_index(TemporalAttr::TransactionStart);
    let tp = schema.temporal_index(TemporalAttr::TransactionStop);
    if vf.is_none() && ts.is_none() {
        return Ok(());
    }
    let key = rel.key_attr.map(|a| KeySpec::for_attr(codec, a));
    let mut cur = unit.file.scan();
    let mut row = Vec::new();
    while let Some(tid) = cur.next(pager, &unit.file, &mut row)? {
        for (name, lo, hi) in [("valid", vf, vt), ("transaction", ts, tp)] {
            let (Some(lo), Some(hi)) = (lo, hi) else {
                continue;
            };
            let (a, b) =
                (codec.get_time(&row, lo), codec.get_time(&row, hi));
            if a > b {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(tid.page),
                    format!(
                        "reversed {name} interval [{}, {}) in slot {}",
                        a.as_secs(),
                        b.as_secs(),
                        tid.slot
                    ),
                ));
            }
        }
        if let (Some(k), Some(f), Some(t)) = (key.as_ref(), vf, vt) {
            if tp.is_none_or(|i| codec.get_time(&row, i).is_forever()) {
                live.entry(k.extract(&row).to_vec()).or_default().push((
                    codec.get_time(&row, f),
                    codec.get_time(&row, t),
                ));
            }
        }
    }
    Ok(())
}

/// Per-key valid-time overlap among a relation's live versions, wherever
/// they are stored (a warning — TQuel lets a user append duplicate keys
/// on purpose), reported against the relation's base `unit`.
fn check_overlaps(
    unit: &Unit,
    rel: &StoredRelation,
    live: LiveVersions,
    findings: &mut Vec<Finding>,
) {
    let Some(spec) = rel.key_attr.map(|a| KeySpec::for_attr(&rel.codec, a))
    else {
        return;
    };
    for (kb, mut ivs) in live {
        if ivs.len() < 2 {
            continue;
        }
        ivs.sort();
        if ivs.windows(2).any(|w| w[0].1 > w[1].0) {
            findings.push(unit.finding(
                Severity::Warning,
                None,
                format!(
                    "key {} has live versions with overlapping valid \
                     intervals",
                    render_key(&spec, &kb)
                ),
            ));
        }
    }
}

/// Validate every relation (and its indexes) in a live database.
/// Read-only; all scrub traffic is attributed to the `"scrub"` I/O phase.
pub fn check_database(
    pager: &Pager,
    catalog: &Catalog,
) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    let units = units_of(catalog);
    pager.begin_phase("scrub");
    let outcome: Result<()> = (|| {
        let mut live: HashMap<RelId, LiveVersions> = HashMap::new();
        for unit in &units {
            let audit = unit.audit(pager, &mut report.findings);
            report.pages_checked += audit.n_pages as u64;
            if !audit.sound() {
                continue;
            }
            // The audit's reachable rows against the unit's ledger.
            let rel = catalog.get(unit.rel);
            let (found, stored) = (audit.reachable_rows, rel.tuple_count);
            let (recorded, what) = match &rel.history {
                Some(h) if unit.kind == UnitKind::History => {
                    (h.rows(), "migrated")
                }
                _ => (stored, "stored"),
            };
            if found != recorded {
                let detail = if unit.kind == UnitKind::Index {
                    format!(
                        "index holds {found} entries for a relation \
                         storing {stored} rows"
                    )
                } else {
                    format!(
                        "catalog records {recorded} {what} rows but \
                         {found} are reachable"
                    )
                };
                report.findings.push(unit.finding(
                    Severity::Error,
                    None,
                    detail,
                ));
            }
            if unit.kind != UnitKind::Index {
                let live = live.entry(unit.rel).or_default();
                check_temporal(
                    pager,
                    unit,
                    rel,
                    live,
                    &mut report.findings,
                )?;
            }
        }
        for unit in units.iter().filter(|u| u.kind == UnitKind::Base) {
            if let Some(versions) = live.remove(&unit.rel) {
                let rel = catalog.get(unit.rel);
                check_overlaps(unit, rel, versions, &mut report.findings);
            }
        }
        // Files on disk the catalog does not know about.
        let referenced = catalog.owned_files();
        for (f, _) in pager.file_lengths()? {
            if !referenced.contains(&f) {
                report.findings.push(Finding {
                    severity: Severity::Warning,
                    relation: None,
                    file: Some(f.0),
                    page: None,
                    detail: "storage file is not referenced by the catalog"
                        .into(),
                });
            }
        }
        Ok(())
    })();
    pager.end_phase();
    outcome?;
    report.relations_checked = catalog.iter().count();
    Ok(report)
}

/// Repair everything [`check_database`] would flag, salvaging from `plan`
/// (the recovery plan of the *untruncated* log) where possible:
///
/// 1. Bad pages are restored from the newest committed WAL image, or
///    quarantined (reinitialized empty in the kind the file requires
///    there) when no image survives; corrupt overflow pointers are
///    clipped; files shorter than their layout are re-extended.
/// 2. A second audit over the repaired structure discards orphaned
///    overflow rows (damaged chain tails) with a precise loss report and
///    corrects each relation's stored tuple count.
/// 3. Relations whose pages changed, or whose index entries disagree
///    with the corrected tuple count, get their secondary indexes
///    rebuilt from the surviving base rows.
///
/// The caller persists the result ([`CheckedDb::repair`] syncs files and
/// saves the catalog and sidecar; in-memory callers need not).
pub fn repair_database(
    pager: &Pager,
    catalog: &mut Catalog,
    plan: &RecoveryPlan,
) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    let units = units_of(catalog);
    let mut reindex: BTreeSet<usize> = BTreeSet::new();
    pager.begin_phase("scrub");
    let outcome: Result<()> = (|| {
        // Pass 1: detect, then restore / quarantine / clip page by page.
        for unit in &units {
            let audit = unit.audit(pager, &mut report.findings);
            report.pages_checked += audit.n_pages as u64;
            if audit.missing() {
                continue;
            }
            if !audit.sound() {
                reindex.insert(unit.rel.0);
            }
            let file = unit.file.file_id();
            for p in audit.n_pages..unit.file.min_pages() {
                let kind = unit.file.expected_kind(p);
                pager.append_page(file, kind)?;
                let what = "missing page re-created";
                let empty = || {
                    Ok(format!(
                        "{what} empty as {kind:?} (no surviving log image)"
                    ))
                };
                let f = unit.restore(pager, plan, p, what, empty)?;
                report.findings.push(f);
            }
            for (&p, &old_count) in &audit.bad {
                let quarantine = || {
                    let kind = unit.file.expected_kind(p);
                    pager.write_page_raw(file, p, &Page::new(kind))?;
                    let loss = match old_count {
                        Some(c) => format!("{c} rows lost"),
                        None => "an unknown number of rows lost".into(),
                    };
                    Ok(format!(
                        "no surviving log image: quarantined and \
                         reinitialized as an empty {kind:?} page ({loss})"
                    ))
                };
                let f =
                    unit.restore(pager, plan, p, "restored", quarantine)?;
                report.findings.push(f);
            }
            for &p in &audit.clip {
                let clip = || {
                    let mut page = pager.read_page_raw(file, p)?;
                    page.set_overflow(NO_PAGE);
                    pager.write_page_raw(file, p, &page)?;
                    Ok("corrupt overflow pointer cleared; the chained tail \
                        is truncated"
                        .to_string())
                };
                let f = unit.restore(pager, plan, p, "restored", clip)?;
                report.findings.push(f);
            }
        }
        // Pass 2: audit the repaired structure, discard orphaned rows,
        // and correct the row-count ledgers.
        for unit in &units {
            let audit = unit.file.audit(pager);
            for (&p, &rows) in &audit.data_orphans {
                reindex.insert(unit.rel.0);
                let empty = Page::new(unit.file.expected_kind(p));
                pager.write_page_raw(unit.file.file_id(), p, &empty)?;
                report.findings.push(unit.finding(
                    Severity::Lost,
                    Some(p),
                    format!(
                        "orphaned overflow page discarded ({rows} rows \
                         were unreachable from any chain)"
                    ),
                ));
            }
            if audit.missing() {
                continue;
            }
            let corrected = |what: &str, old: u64, new: u64| {
                let severity = if new < old {
                    Severity::Lost
                } else {
                    Severity::Repaired
                };
                let detail =
                    format!("{what} corrected from {old} to {new}");
                unit.finding(severity, None, detail)
            };
            let rel = catalog.get_mut(unit.rel);
            let found = audit.reachable_rows;
            match (unit.kind, &rel.history) {
                (UnitKind::Base, _) if rel.tuple_count != found => {
                    let old = rel.tuple_count;
                    let what = "stored tuple count";
                    report.findings.push(corrected(what, old, found));
                    rel.tuple_count = found;
                }
                (UnitKind::Index, _) if rel.tuple_count != found => {
                    reindex.insert(unit.rel.0);
                }
                (UnitKind::History, Some(h)) if h.rows() != found => {
                    // Rebuild the in-memory directory from the repaired
                    // pages; `reopen` recounts the surviving rows and
                    // reassigns pages to clusters, so subsequent keyed
                    // history reads stay exact.
                    let fresh = ClusteredHistory::reopen(
                        pager,
                        h.file_id(),
                        h.row_width(),
                        h.key(),
                        |row| Stamps::of(&rel.schema, &rel.codec, row),
                    )?;
                    report.findings.push(corrected(
                        "migrated-row count",
                        h.rows(),
                        fresh.rows(),
                    ));
                    rel.history = Some(Arc::new(fresh));
                }
                _ => {}
            }
        }
        // Pass 3: rebuild the indexes of every relation whose pages
        // changed — base-page loss invalidates entry addresses, and an
        // index page restored empty must be repopulated — or whose
        // index holds the wrong number of entries.
        let rebuild: Vec<RelId> = catalog
            .iter()
            .filter(|(id, r)| {
                reindex.contains(&id.0) && !r.indexes.is_empty()
            })
            .map(|(id, _)| id)
            .collect();
        for id in rebuild {
            let rel = catalog.get_mut(id);
            rel.rebuild_indexes(pager)?;
            report.findings.push(Finding {
                severity: Severity::Repaired,
                relation: Some(catalog.get(id).name.clone()),
                file: None,
                page: None,
                detail: "secondary indexes rebuilt from the base relation"
                    .into(),
            });
        }
        Ok(())
    })();
    pager.end_phase();
    outcome?;
    report.relations_checked = catalog.iter().count();
    Ok(report)
}

/// A database directory opened for checking: recovery has replayed the
/// committed WAL tail into the page files, but the log itself is kept
/// untruncated so its page images remain available as salvage material.
///
/// It opens through the same recovery routine as
/// `Database::open_durable` ([`tdbms_wal::recover_dir`]), minus the
/// trailing checkpoint, which would truncate the log and destroy
/// exactly the images repair needs.
pub struct CheckedDb {
    /// The database directory.
    pub dir: PathBuf,
    /// Pager over the replayed page files (checksum sidecar installed
    /// when `sums.tdbms` exists).
    pub pager: Pager,
    /// The catalog: the log's copy, the only one on disk.
    pub catalog: Catalog,
    /// The recovery plan — the salvage source.
    pub plan: RecoveryPlan,
    wal: Wal,
    clock: TimeVal,
}

impl CheckedDb {
    /// Open `dir` the way recovery does, minus the log truncation.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckedDb> {
        let dir = dir.into();
        let Recovered {
            wal,
            plan,
            pager,
            catalog,
            clock,
        } = tdbms_wal::recover_dir(&dir)?;
        Ok(CheckedDb {
            dir,
            pager,
            catalog,
            plan,
            wal,
            clock,
        })
    }

    /// Run a read-only integrity check.
    pub fn check(&mut self) -> Result<CheckReport> {
        check_database(&self.pager, &self.catalog)
    }

    /// Repair in place, then make the repaired state durable exactly like
    /// a checkpoint: data files synced first, then the checksum sidecar,
    /// then the log truncated to a fresh header plus the catalog and the
    /// clock. When nothing needed repairing the database is left
    /// byte-identical.
    pub fn repair(&mut self) -> Result<CheckReport> {
        let report =
            repair_database(&self.pager, &mut self.catalog, &self.plan)?;
        let repaired = report.findings.iter().any(|f| {
            matches!(f.severity, Severity::Repaired | Severity::Lost)
        });
        if repaired {
            self.pager.sync_all()?;
            if let Some(sums) = self.pager.checksums_snapshot() {
                sums.save(&self.dir)?;
            }
            let lengths = self.pager.file_lengths()?;
            self.wal.checkpoint(&lengths, self.clock, &self.catalog)?;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_kernel::{
        AttrDef, DatabaseClass, Domain, RowCodec, Schema, TemporalKind,
        Value,
    };
    use tdbms_storage::{
        AccessMethod, ChecksumSet, DiskManager, HashFn, MemDisk,
    };
    use tdbms_wal::Record;

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

    /// A shared-disk pager + catalog with one relation of `n` rows in the
    /// given organization, plus a handle for corrupting pages behind the
    /// pager's back.
    fn fixture(
        method: AccessMethod,
        n: i64,
    ) -> (MemDisk, Pager, Catalog, RelId) {
        let shared = MemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        let mut cat = Catalog::new();
        let id = cat.create_relation(&pager, "r", schema()).unwrap();
        {
            let rel = cat.get_mut(id);
            for i in 1..=n {
                let row = rel
                    .codec
                    .encode(&[Value::Int(i), Value::Str("x".into())])
                    .unwrap();
                rel.insert_row(&pager, &row).unwrap();
            }
            if method != AccessMethod::Heap {
                rel.modify(&pager, method, Some(0), 100, HashFn::Mod)
                    .unwrap();
            }
        }
        pager.flush_all().unwrap();
        (shared, pager, cat, id)
    }

    /// Record the current on-disk sums for every page of every file.
    fn adopt_sums(pager: &Pager) {
        let mut sums = ChecksumSet::new();
        for (f, n) in pager.file_lengths().unwrap() {
            for p in 0..n {
                let page = pager.read_page_raw(f, p).unwrap();
                sums.record(f, p, &page);
            }
        }
        pager.set_checksums(Some(sums));
    }

    fn empty_plan() -> RecoveryPlan {
        RecoveryPlan::parse(&[])
    }

    /// Encode a row for a temporal schema: explicit values padded with
    /// placeholder times for the implicit attributes (set afterwards via
    /// `put_time`).
    fn full_row(codec: &RowCodec, explicit: &[Value]) -> Vec<u8> {
        let mut vals = explicit.to_vec();
        vals.resize(codec.arity(), Value::Time(TimeVal::BEGINNING));
        codec.encode(&vals).unwrap()
    }

    #[test]
    fn clean_databases_report_clean_in_every_organization() {
        for method in
            [AccessMethod::Heap, AccessMethod::Hash, AccessMethod::Isam]
        {
            let (_shared, pager, cat, _) = fixture(method, 40);
            adopt_sums(&pager);
            let cost = pager.stats().scope();
            let report = check_database(&pager, &cat).unwrap();
            assert!(report.is_clean(), "{method:?}:\n{}", report.render());
            assert!(report.findings.is_empty(), "{method:?}");
            assert_eq!(report.relations_checked, 1);
            assert!(report.pages_checked > 0);
            assert!(report.render().ends_with("clean\n"));
            // The scrub traffic is attributed to its named phase.
            let phases = cost.phases();
            assert!(
                phases.iter().any(|p| p.name == "scrub" && p.reads > 0),
                "scrub phase missing from {:?}",
                phases
            );
        }
    }

    #[test]
    fn bit_rot_is_detected_and_quarantined_without_a_log_image() {
        let (shared, pager, mut cat, id) = fixture(AccessMethod::Hash, 40);
        adopt_sums(&pager);
        let file = cat.get(id).file.file_id();
        // Flip one byte of page 2 behind the pager's back.
        let mut page = shared.clone().read_page(file, 2).unwrap();
        let mut bytes = Box::new(*page.as_bytes());
        bytes[500] ^= 0x20;
        page = Page::from_bytes(bytes);
        shared.clone().write_page(file, 2, &page).unwrap();

        let report = check_database(&pager, &cat).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.detail.contains("checksum mismatch")
                && f.page == Some(2)));

        let before = cat.get(id).tuple_count;
        let rep = repair_database(&pager, &mut cat, &empty_plan()).unwrap();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.severity == Severity::Lost && f.page == Some(2)));
        let lost = before - cat.get(id).tuple_count;
        assert!(lost > 0, "quarantine must report the loss in the count");

        // The repaired database is clean, and the surviving rows scan.
        let after = check_database(&pager, &cat).unwrap();
        assert!(after.is_clean(), "{}", after.render());
        let rel = cat.get(id);
        let mut seen = 0u64;
        let mut cur = rel.file.scan();
        let mut row = Vec::new();
        while cur.next(&pager, &rel.file, &mut row).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, rel.tuple_count);
        assert_eq!(seen, before - lost);
    }

    #[test]
    fn bit_rot_is_restored_exactly_from_a_log_image() {
        let (shared, pager, mut cat, id) = fixture(AccessMethod::Isam, 40);
        adopt_sums(&pager);
        let file = cat.get(id).file.file_id();
        let pristine = shared.clone().read_page(file, 1).unwrap();
        let mut plan = empty_plan();
        plan.txns.push(vec![(
            7,
            Record::PageImage {
                file,
                page_no: 1,
                image: pristine.clone(),
            },
        )]);

        let mut bytes = Box::new(*pristine.as_bytes());
        bytes[100] ^= 0x01;
        shared
            .clone()
            .write_page(file, 1, &Page::from_bytes(bytes))
            .unwrap();

        let before = cat.get(id).tuple_count;
        let rep = repair_database(&pager, &mut cat, &plan).unwrap();
        assert!(
            rep.findings
                .iter()
                .any(|f| f.severity == Severity::Repaired
                    && f.page == Some(1))
        );
        assert!(!rep.findings.iter().any(|f| f.severity == Severity::Lost));
        assert_eq!(cat.get(id).tuple_count, before, "nothing lost");
        let restored = shared.clone().read_page(file, 1).unwrap();
        assert_eq!(
            restored.as_bytes().as_slice(),
            pristine.as_bytes().as_slice(),
            "byte-exact restoration"
        );
        let after = check_database(&pager, &cat).unwrap();
        assert!(after.is_clean(), "{}", after.render());
    }

    #[test]
    fn cycles_are_clipped_and_orphans_discarded_with_a_loss_report() {
        // All rows share one key, forcing a long chain behind bucket 0.
        let shared = MemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        let mut cat = Catalog::new();
        let id = cat.create_relation(&pager, "r", schema()).unwrap();
        {
            let rel = cat.get_mut(id);
            for _ in 0..30 {
                let row = rel
                    .codec
                    .encode(&[Value::Int(7), Value::Str("x".into())])
                    .unwrap();
                rel.insert_row(&pager, &row).unwrap();
            }
            rel.modify(
                &pager,
                AccessMethod::Hash,
                Some(0),
                100,
                HashFn::Mod,
            )
            .unwrap();
        }
        pager.flush_all().unwrap();
        let file = cat.get(id).file.file_id();
        let nbuckets = match &cat.get(id).file {
            RelFile::Hash(h) => h.chain.n_heads,
            other => panic!("expected a hash file, got {other:?}"),
        };
        let n = pager.page_count(file).unwrap();
        assert!(
            n >= nbuckets + 2,
            "need a chain to corrupt, got {n} pages over {nbuckets} buckets"
        );
        // Point the first overflow page back at itself: a cycle.
        let ov = nbuckets;
        let mut page = shared.clone().read_page(file, ov).unwrap();
        assert!(page.count() > 0, "first overflow page should carry rows");
        page.set_overflow(ov);
        shared.clone().write_page(file, ov, &page).unwrap();

        let report = check_database(&pager, &cat).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.detail.contains("reached twice")));

        let before = cat.get(id).tuple_count;
        let rep = repair_database(&pager, &mut cat, &empty_plan()).unwrap();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.detail.contains("truncated")));
        let after = check_database(&pager, &cat).unwrap();
        assert!(after.is_clean(), "{}", after.render());
        // A scan terminates now and matches the corrected count.
        let rel = cat.get(id);
        let mut seen = 0u64;
        let mut cur = rel.file.scan();
        let mut row = Vec::new();
        while cur.next(&pager, &rel.file, &mut row).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, rel.tuple_count);
        assert!(seen < before, "the truncated tail is reported as loss");
    }

    #[test]
    fn temporal_invariants_reversed_interval_is_an_error() {
        let shared = MemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        let mut cat = Catalog::new();
        let hist = Schema::new(
            vec![AttrDef::new("id", Domain::I4)],
            DatabaseClass::Historical,
            TemporalKind::Interval,
        )
        .unwrap();
        let id = cat.create_relation(&pager, "h", hist).unwrap();
        let rel = cat.get_mut(id);
        let vf =
            rel.schema.temporal_index(TemporalAttr::ValidFrom).unwrap();
        let vt = rel.schema.temporal_index(TemporalAttr::ValidTo).unwrap();
        let codec = RowCodec::new(&rel.schema);
        let mut good = full_row(&codec, &[Value::Int(1)]);
        codec.put_time(&mut good, vf, TimeVal::from_secs(10));
        codec.put_time(&mut good, vt, TimeVal::from_secs(20));
        rel.insert_row(&pager, &good).unwrap();
        let mut bad = full_row(&codec, &[Value::Int(2)]);
        codec.put_time(&mut bad, vf, TimeVal::from_secs(30));
        codec.put_time(&mut bad, vt, TimeVal::from_secs(5));
        rel.insert_row(&pager, &bad).unwrap();

        let report = check_database(&pager, &cat).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.detail.contains("reversed valid interval")));
    }

    /// A keyed temporal relation `t` whose primary holds `primary` and
    /// whose history sidecar holds `migrated`, each row `(id, valid_from,
    /// valid_to)` and transaction-current — what a reorganization pass
    /// leaves once valid time has closed.
    fn reorganized_temporal(
        primary: &[(i64, u32, u32)],
        migrated: &[(i64, u32, u32)],
    ) -> (Pager, Catalog) {
        let pager = Pager::new(Box::new(MemDisk::new()));
        let mut cat = Catalog::new();
        let schema = Schema::new(
            vec![AttrDef::new("id", Domain::I4)],
            DatabaseClass::Temporal,
            TemporalKind::Interval,
        )
        .unwrap();
        let id = cat.create_relation(&pager, "t", schema).unwrap();
        let rel = cat.get_mut(id);
        let vf =
            rel.schema.temporal_index(TemporalAttr::ValidFrom).unwrap();
        let vt = rel.schema.temporal_index(TemporalAttr::ValidTo).unwrap();
        let tp = rel
            .schema
            .temporal_index(TemporalAttr::TransactionStop)
            .unwrap();
        let row = |&(k, from, to): &(i64, u32, u32)| {
            let mut row = full_row(&rel.codec, &[Value::Int(k)]);
            rel.codec.put_time(&mut row, vf, TimeVal::from_secs(from));
            rel.codec.put_time(&mut row, vt, TimeVal::from_secs(to));
            rel.codec.put_time(&mut row, tp, TimeVal::FOREVER);
            row
        };
        let stored: Vec<Vec<u8>> = primary.iter().map(row).collect();
        let batch: Vec<Vec<u8>> = migrated.iter().map(row).collect();
        for r in &stored {
            rel.insert_row(&pager, r).unwrap();
        }
        rel.modify(&pager, AccessMethod::Hash, Some(0), 100, HashFn::Mod)
            .unwrap();
        let h = ClusteredHistory::create(
            &pager,
            rel.schema.row_width(),
            KeySpec::for_attr(&rel.codec, 0),
        )
        .unwrap()
        .with_migrated(&pager, &batch, |row| {
            Stamps::of(&rel.schema, &rel.codec, row)
        })
        .unwrap();
        rel.history = Some(Arc::new(h));
        pager.flush_all().unwrap();
        (pager, cat)
    }

    #[test]
    fn a_reversed_valid_interval_in_a_migrated_row_is_an_error() {
        let (pager, cat) =
            reorganized_temporal(&[(1, 10, u32::MAX)], &[(2, 30, 5)]);
        let report = check_database(&pager, &cat).unwrap();
        assert!(!report.is_clean(), "{}", report.render());
        assert!(report
            .findings
            .iter()
            .any(|f| f.relation.as_deref() == Some("t.history")
                && f.detail.contains("reversed valid interval [30, 5)")));
    }

    #[test]
    fn live_versions_overlap_across_the_primary_and_its_sidecar() {
        // Key 7's open version in the primary overlaps its closed one in
        // the sidecar; key 8's two versions meet end to start only.
        let (pager, cat) = reorganized_temporal(
            &[(7, 50, u32::MAX), (8, 20, u32::MAX)],
            &[(7, 10, 60), (8, 10, 20)],
        );
        let report = check_database(&pager, &cat).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        let overlaps: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.detail.contains("overlapping valid intervals"))
            .collect();
        assert_eq!(overlaps.len(), 1, "{}", report.render());
        assert!(overlaps[0].detail.contains("key 7"));
        assert_eq!(overlaps[0].relation.as_deref(), Some("t"));
    }

    #[test]
    fn overlapping_live_versions_of_one_key_warn_but_stay_clean() {
        let shared = MemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        let mut cat = Catalog::new();
        let hist = Schema::new(
            vec![
                AttrDef::new("id", Domain::I4),
                AttrDef::new("pad", Domain::Char(100)),
            ],
            DatabaseClass::Historical,
            TemporalKind::Interval,
        )
        .unwrap();
        let id = cat.create_relation(&pager, "h", hist).unwrap();
        {
            let rel = cat.get_mut(id);
            let vf =
                rel.schema.temporal_index(TemporalAttr::ValidFrom).unwrap();
            let vt =
                rel.schema.temporal_index(TemporalAttr::ValidTo).unwrap();
            let codec = RowCodec::new(&rel.schema);
            for (a, b) in [(10u32, 100u32), (50, 200)] {
                let mut row = full_row(
                    &codec,
                    &[Value::Int(7), Value::Str("x".into())],
                );
                codec.put_time(&mut row, vf, TimeVal::from_secs(a));
                codec.put_time(&mut row, vt, TimeVal::from_secs(b));
                rel.insert_row(&pager, &row).unwrap();
            }
            rel.modify(
                &pager,
                AccessMethod::Isam,
                Some(0),
                100,
                HashFn::Mod,
            )
            .unwrap();
        }
        let report = check_database(&pager, &cat).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Warning
                && f.detail.contains("overlapping valid intervals")
                && f.detail.contains("key 7")));
    }

    #[test]
    fn tuple_count_drift_is_an_error_and_repair_corrects_it() {
        let (_shared, pager, mut cat, id) = fixture(AccessMethod::Heap, 12);
        cat.get_mut(id).tuple_count = 99;
        let report = check_database(&pager, &cat).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.detail.contains("99 stored rows but 12")));
        repair_database(&pager, &mut cat, &empty_plan()).unwrap();
        assert_eq!(cat.get(id).tuple_count, 12);
        assert!(check_database(&pager, &cat).unwrap().is_clean());
    }

    /// An index emptied behind the pager's back — every page still there,
    /// in the kind its layout wants, but no entries — probes to nothing
    /// while a scan finds the rows. The check must call it dirty, and
    /// repair must rebuild it until probe and scan agree.
    #[test]
    fn an_index_missing_entries_is_an_error_and_repair_rebuilds_it() {
        use tdbms_storage::IndexStructure;
        let (shared, pager, mut cat, id) = fixture(AccessMethod::Hash, 40);
        cat.get_mut(id)
            .create_index(&pager, "r_id", 0, IndexStructure::Hash)
            .unwrap();
        pager.flush_all().unwrap();
        pager.invalidate_buffers().unwrap();
        let index = cat.get(id).indexes[0].index.file().clone();
        let mut raw = shared.clone();
        let n = raw.page_count(index.file_id()).unwrap();
        raw.truncate(index.file_id()).unwrap();
        for p in 0..n {
            let page = Page::new(index.expected_kind(p));
            raw.append_page(index.file_id(), &page).unwrap();
        }

        let probe = |cat: &Catalog, key: i32| {
            let rel = cat.get(id);
            let ix = &rel.indexes[0].index;
            ix.fetch(&pager, &rel.file, &key.to_le_bytes())
                .unwrap()
                .len()
        };
        assert_eq!(probe(&cat, 7), 0, "the emptied index finds nothing");
        let report = check_database(&pager, &cat).unwrap();
        assert!(!report.is_clean(), "{}", report.render());
        assert!(report.findings.iter().any(|f| f
            .detail
            .contains("0 entries for a relation storing 40")));

        let repair =
            repair_database(&pager, &mut cat, &empty_plan()).unwrap();
        assert!(repair
            .findings
            .iter()
            .any(|f| f.detail.contains("secondary indexes rebuilt")));
        let recheck = check_database(&pager, &cat).unwrap();
        assert!(recheck.is_clean(), "{}", recheck.render());
        for key in 1..=40 {
            assert_eq!(probe(&cat, key), 1, "probe of id {key}");
        }
    }

    #[test]
    fn history_sidecars_are_audited_and_their_counts_repaired() {
        use tdbms_storage::ClusteredHistory;
        let (shared, pager, mut cat, id) = fixture(AccessMethod::Hash, 8);
        // Hang a clustered history off the relation: 3 keys × enough
        // versions to span several pages.
        {
            let rel = cat.get_mut(id);
            let stamps = Stamps {
                stop: TimeVal::from_secs(100),
                valid_to: TimeVal::FOREVER,
            };
            let batch: Vec<Vec<u8>> = (1..=3i64)
                .flat_map(|k| {
                    let row = rel
                        .codec
                        .encode(&[Value::Int(k), Value::Str("x".into())])
                        .unwrap();
                    std::iter::repeat_n(row, 40)
                })
                .collect();
            let h = ClusteredHistory::create(
                &pager,
                rel.schema.row_width(),
                KeySpec::for_attr(&rel.codec, 0),
            )
            .unwrap()
            .with_migrated(&pager, &batch, |_| stamps)
            .unwrap();
            rel.history = Some(std::sync::Arc::new(h));
        }
        pager.flush_all().unwrap();
        adopt_sums(&pager);

        let report = check_database(&pager, &cat).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        // The sidecar counts as a unit of its own, not an orphan file.
        assert!(!report
            .findings
            .iter()
            .any(|f| f.detail.contains("not referenced")));

        // Rot one history page: the check names the sidecar unit, and
        // repair quarantines the page and corrects the migrated count.
        let hfile = cat.get(id).history.as_ref().unwrap().file_id();
        let before = cat.get(id).history.as_ref().unwrap().rows();
        let mut page = shared.clone().read_page(hfile, 1).unwrap();
        let mut bytes = Box::new(*page.as_bytes());
        bytes[300] ^= 0xff;
        page = Page::from_bytes(bytes);
        shared.clone().write_page(hfile, 1, &page).unwrap();

        let report = check_database(&pager, &cat).unwrap();
        assert!(!report.is_clean());
        assert!(report
            .findings
            .iter()
            .any(|f| f.relation.as_deref() == Some("r.history")));

        let rep = repair_database(&pager, &mut cat, &empty_plan()).unwrap();
        assert!(rep.findings.iter().any(|f| f.severity == Severity::Lost
            && f.detail.contains("migrated-row count corrected")));
        let after_rows = cat.get(id).history.as_ref().unwrap().rows();
        assert!(after_rows < before);

        let again = check_database(&pager, &cat).unwrap();
        assert!(again.is_clean(), "{}", again.render());
    }

    #[test]
    fn findings_render_with_stable_locations() {
        let f = Finding {
            severity: Severity::Error,
            relation: Some("emp".into()),
            file: Some(3),
            page: Some(17),
            detail: "page checksum mismatch".into(),
        };
        assert_eq!(
            f.to_string(),
            "error relation emp file 3 page 17: page checksum mismatch"
        );
    }
}
