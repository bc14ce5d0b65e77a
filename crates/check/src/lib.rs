//! # tdbms-check
//!
//! An fsck-style integrity checker, scrubber, and salvager for tdbms
//! databases. Three layers of defense against at-rest corruption:
//!
//! 1. **Scrub** — every page of every cataloged file is read raw (no
//!    buffering, so stale frames cannot mask rot) and verified against the
//!    out-of-band checksum sidecar (`sums.tdbms`), with all traffic
//!    accounted to a named `"scrub"` I/O phase.
//! 2. **Structural validation** — page kind tags against the layout each
//!    access method implies (hash: buckets then overflow; ISAM: data,
//!    directory levels, overflow; heap: data only), slot counts against
//!    page capacity, overflow pointers in range and in the overflow
//!    region, chain acyclicity, orphaned overflow pages, stored tuple
//!    counts against reachable rows, and per-key temporal invariants
//!    (interval ordering; live-version overlap).
//! 3. **Salvage** — a page that fails its checksum or its structural
//!    checks is restored byte-for-byte from the newest *committed*
//!    after-image still in the write-ahead log. When no image survives,
//!    the repair degrades gracefully: the page is quarantined
//!    (reinitialized empty, in the kind its region requires), corrupt
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

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;

use tdbms_kernel::{Error, Result, TemporalAttr, TimeVal};
use tdbms_storage::{
    page_capacity, Catalog, FileId, KeyKind, KeySpec, Page, PageKind,
    Pager, RelFile, RelId, StoredRelation, NO_PAGE,
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
    /// Non-temporary relations visited.
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

/// The page-kind layout an access method imposes on its file.
#[derive(Debug, Clone)]
enum Layout {
    Heap,
    Hash {
        nbuckets: u32,
    },
    Isam {
        n_data: u32,
        levels: Vec<Range<u32>>,
    },
}

impl Layout {
    fn of(file: &RelFile) -> Layout {
        match file {
            RelFile::Heap(_) => Layout::Heap,
            RelFile::Hash(f) => Layout::Hash {
                nbuckets: f.chain.n_heads,
            },
            RelFile::Isam(f) => Layout::Isam {
                n_data: f.chain.n_heads,
                levels: f.levels.clone(),
            },
        }
    }

    /// The kind every page in this region must carry.
    fn expected_kind(&self, page_no: u32) -> PageKind {
        match self {
            Layout::Heap => PageKind::Data,
            Layout::Hash { nbuckets } => {
                if page_no < *nbuckets {
                    PageKind::Data
                } else {
                    PageKind::Overflow
                }
            }
            Layout::Isam { n_data, levels } => {
                if page_no < *n_data {
                    PageKind::Data
                } else if levels.iter().any(|r| r.contains(&page_no)) {
                    PageKind::Directory
                } else {
                    PageKind::Overflow
                }
            }
        }
    }

    /// Do pages of this layout chain to overflow pages?
    fn chains(&self) -> bool {
        !matches!(self, Layout::Heap)
    }

    /// The chain heads (primary/data pages) to walk from.
    fn heads(&self) -> Range<u32> {
        match self {
            Layout::Heap => 0..0,
            Layout::Hash { nbuckets } => 0..*nbuckets,
            Layout::Isam { n_data, .. } => 0..*n_data,
        }
    }

    /// The minimum page count the layout metadata implies.
    fn min_len(&self) -> u32 {
        match self {
            Layout::Heap => 0,
            Layout::Hash { nbuckets } => *nbuckets,
            Layout::Isam { n_data, levels } => {
                levels.iter().map(|r| r.end).max().unwrap_or(0).max(*n_data)
            }
        }
    }
}

/// What role a checkable file plays for its relation — the role decides
/// which row-count ledger the audit is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitKind {
    /// The base file; reachable rows must equal the stored tuple count.
    Base,
    /// A secondary index; an entry-count mismatch is only a warning.
    Index,
    /// A clustered history sidecar; reachable rows must equal the
    /// migrated-row count the catalog's `history` line records.
    History,
}

/// One checkable file: a relation's base file, one of its indexes, or its
/// clustered history sidecar.
struct Unit {
    label: String,
    rel: RelId,
    kind: UnitKind,
    file: FileId,
    layout: Layout,
    row_width: usize,
    /// Key width for ISAM directory pages (their rows are bare keys).
    key_len: usize,
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
            file: Some(self.file.0),
            page,
            detail,
        }
    }
}

fn key_len_of(file: &RelFile) -> usize {
    match file {
        RelFile::Isam(f) => f.chain.key.len,
        _ => 0,
    }
}

fn units_of(catalog: &Catalog) -> Vec<Unit> {
    let mut units = Vec::new();
    for (id, rel) in catalog.iter() {
        if rel.temporary {
            continue;
        }
        units.push(Unit {
            label: rel.name.clone(),
            rel: id,
            kind: UnitKind::Base,
            file: rel.file.file_id(),
            layout: Layout::of(&rel.file),
            row_width: rel.file.row_width(),
            key_len: key_len_of(&rel.file),
        });
        for ix in &rel.indexes {
            let f = ix.index.file();
            units.push(Unit {
                label: format!("{}.{}", rel.name, ix.name),
                rel: id,
                kind: UnitKind::Index,
                file: f.file_id(),
                layout: Layout::of(f),
                row_width: f.row_width(),
                key_len: key_len_of(f),
            });
        }
        if let Some(h) = &rel.history {
            // The sidecar is heap-laid-out (all-Data pages, no chains);
            // its per-key clustering is an in-memory directory, not an
            // on-disk structure, so Heap is the right layout to audit.
            units.push(Unit {
                label: format!("{}.history", rel.name),
                rel: id,
                kind: UnitKind::History,
                file: h.file_id(),
                layout: Layout::Heap,
                row_width: h.row_width(),
                key_len: 0,
            });
        }
    }
    units
}

/// What one pass over a file's pages established.
#[derive(Debug, Default)]
struct Audit {
    n_pages: u32,
    missing: bool,
    short: bool,
    /// Pages needing full restoration, with the old slot count when the
    /// header was still plausible (for the loss report).
    bad: BTreeMap<u32, Option<usize>>,
    /// Pages whose rows are intact but whose overflow pointer is corrupt
    /// (out of range, wrong region, or closing a cycle): repair clips the
    /// pointer instead of quarantining the rows.
    clip: BTreeSet<u32>,
    /// Orphaned overflow pages that still carry rows, with their counts.
    data_orphans: BTreeMap<u32, usize>,
    /// Rows on pages a scan can actually reach.
    reachable_rows: u64,
}

impl Audit {
    fn sound(&self) -> bool {
        !self.missing
            && !self.short
            && self.bad.is_empty()
            && self.clip.is_empty()
            && self.data_orphans.is_empty()
    }

    fn needs_page_repair(&self) -> bool {
        self.short
            || !self.bad.is_empty()
            || !self.clip.is_empty()
            || !self.data_orphans.is_empty()
    }
}

fn corruption_detail(e: Error) -> String {
    match e {
        Error::Corruption { detail, .. } => detail,
        other => other.to_string(),
    }
}

/// One full structural + checksum pass over a unit's pages. Read-only:
/// every problem becomes a finding and an entry in the returned [`Audit`];
/// fixing anything is [`repair_database`]'s job.
fn audit_unit(
    pager: &Pager,
    unit: &Unit,
    findings: &mut Vec<Finding>,
) -> Result<Audit> {
    let mut audit = Audit::default();
    let n = match pager.page_count(unit.file) {
        Ok(n) => n,
        Err(_) => {
            findings.push(unit.finding(
                Severity::Error,
                None,
                "storage file is missing".into(),
            ));
            audit.missing = true;
            return Ok(audit);
        }
    };
    audit.n_pages = n;
    let min = unit.layout.min_len();
    if n < min {
        findings.push(unit.finding(
            Severity::Error,
            None,
            format!(
                "file has {n} pages but the layout requires at least {min}"
            ),
        ));
        audit.short = true;
    }

    let mut ovs = vec![NO_PAGE; n as usize];
    let mut counts = vec![0usize; n as usize];
    let sums = pager.checksums_snapshot();
    for p in 0..n {
        let page = match pager.read_page_raw(unit.file, p) {
            Ok(page) => page,
            Err(e) => {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(p),
                    format!("unreadable page: {e}"),
                ));
                audit.bad.insert(p, None);
                continue;
            }
        };
        counts[p as usize] = page.count();
        ovs[p as usize] = page.overflow();

        if let Some(sums) = &sums {
            if let Err(e) = sums.verify(unit.file, p, &page) {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(p),
                    corruption_detail(e),
                ));
                audit.bad.insert(p, None);
                continue;
            }
        }

        let want = unit.layout.expected_kind(p);
        let width = if want == PageKind::Directory {
            unit.key_len
        } else {
            unit.row_width
        };
        let cap = page_capacity(width);
        let salvage_count = (page.count() <= cap).then(|| page.count());

        let kind = match page.kind() {
            Ok(k) => k,
            Err(e) => {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(p),
                    corruption_detail(e),
                ));
                audit.bad.insert(p, salvage_count);
                continue;
            }
        };
        if kind != want {
            findings.push(unit.finding(
                Severity::Error,
                Some(p),
                format!("page kind is {kind:?} where the layout expects {want:?}"),
            ));
            audit.bad.insert(p, salvage_count);
            continue;
        }
        if page.count() > cap {
            findings.push(unit.finding(
                Severity::Error,
                Some(p),
                format!(
                    "slot count {} exceeds the page capacity of {cap} rows",
                    page.count()
                ),
            ));
            audit.bad.insert(p, None);
            continue;
        }
        let ov = page.overflow();
        if ov != NO_PAGE {
            if !unit.layout.chains() || want == PageKind::Directory {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(p),
                    format!("unexpected overflow pointer {ov} on a {want:?} page"),
                ));
                audit.clip.insert(p);
            } else if ov >= n {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(p),
                    format!("overflow pointer {ov} points beyond the {n}-page file"),
                ));
                audit.clip.insert(p);
            } else if unit.layout.expected_kind(ov) != PageKind::Overflow {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(p),
                    format!("overflow pointer {ov} targets a page outside the overflow region"),
                ));
                audit.clip.insert(p);
            }
        }
    }

    // Chains stop at any page slated for repair.
    for &p in audit.bad.keys() {
        ovs[p as usize] = NO_PAGE;
    }
    for &p in &audit.clip {
        ovs[p as usize] = NO_PAGE;
    }

    // Walk every chain once; a revisit is a cycle or a shared tail.
    let mut visited: BTreeSet<u32> = BTreeSet::new();
    if unit.layout.chains() {
        for head in unit.layout.heads() {
            if head >= n || audit.bad.contains_key(&head) {
                continue;
            }
            let mut prev = head;
            let mut p = ovs[head as usize];
            while p != NO_PAGE {
                if !visited.insert(p) {
                    findings.push(unit.finding(
                        Severity::Error,
                        Some(p),
                        format!(
                            "overflow page is reached twice (cycle or \
                             shared chain tail; second reference from \
                             page {prev})"
                        ),
                    ));
                    audit.clip.insert(prev);
                    break;
                }
                prev = p;
                p = ovs[p as usize];
            }
        }
        // Overflow-region pages no chain reaches are orphans: their rows
        // are invisible to every scan and lookup.
        for p in 0..n {
            if unit.layout.expected_kind(p) == PageKind::Overflow
                && !visited.contains(&p)
                && !audit.bad.contains_key(&p)
            {
                if counts[p as usize] > 0 {
                    findings.push(unit.finding(
                        Severity::Error,
                        Some(p),
                        format!(
                            "orphaned overflow page with {} rows is \
                             unreachable from any chain",
                            counts[p as usize]
                        ),
                    ));
                    audit.data_orphans.insert(p, counts[p as usize]);
                } else {
                    findings.push(unit.finding(
                        Severity::Warning,
                        Some(p),
                        "empty orphaned overflow page".into(),
                    ));
                }
            }
        }
    }

    // Rows a scan can reach: all good pages for a heap; heads plus
    // visited overflow pages for chained layouts.
    match unit.layout {
        Layout::Heap => {
            for p in 0..n {
                if !audit.bad.contains_key(&p) {
                    audit.reachable_rows += counts[p as usize] as u64;
                }
            }
        }
        _ => {
            for head in unit.layout.heads() {
                if head < n && !audit.bad.contains_key(&head) {
                    audit.reachable_rows += counts[head as usize] as u64;
                }
            }
            for &p in &visited {
                if !audit.bad.contains_key(&p) {
                    audit.reachable_rows += counts[p as usize] as u64;
                }
            }
        }
    }
    Ok(audit)
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

/// Temporal invariants over a structurally sound base file: interval
/// ordering per row (errors — the DML can never produce a reversed
/// interval) and per-key valid-time overlap among live versions (a
/// warning — TQuel lets a user append duplicate keys on purpose).
fn check_temporal(
    pager: &Pager,
    unit: &Unit,
    rel: &StoredRelation,
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
    let mut live_by_key: BTreeMap<Vec<u8>, Vec<(TimeVal, TimeVal)>> =
        BTreeMap::new();
    let mut cur = rel.file.scan();
    while let Some((tid, row)) = cur.next(pager, &rel.file)? {
        if let (Some(f), Some(t)) = (vf, vt) {
            let a = codec.get_time(&row, f);
            let b = codec.get_time(&row, t);
            if a > b {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(tid.page),
                    format!(
                        "reversed valid interval [{}, {}) in slot {}",
                        a.as_secs(),
                        b.as_secs(),
                        tid.slot
                    ),
                ));
            }
        }
        if let (Some(s), Some(e)) = (ts, tp) {
            let a = codec.get_time(&row, s);
            let b = codec.get_time(&row, e);
            if a > b {
                findings.push(unit.finding(
                    Severity::Error,
                    Some(tid.page),
                    format!(
                        "reversed transaction interval [{}, {}) in slot {}",
                        a.as_secs(),
                        b.as_secs(),
                        tid.slot
                    ),
                ));
            }
        }
        if let (Some(k), Some(f), Some(t)) = (key.as_ref(), vf, vt) {
            let live =
                tp.is_none_or(|i| codec.get_time(&row, i).is_forever());
            if live {
                live_by_key
                    .entry(k.extract(&row).to_vec())
                    .or_default()
                    .push((
                        codec.get_time(&row, f),
                        codec.get_time(&row, t),
                    ));
            }
        }
    }
    if let Some(spec) = key {
        for (kb, mut ivs) in live_by_key {
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
    Ok(())
}

/// Validate every non-temporary relation (and its indexes) in a live
/// database. Read-only; all scrub traffic is attributed to the `"scrub"`
/// I/O phase.
pub fn check_database(
    pager: &Pager,
    catalog: &Catalog,
) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    let units = units_of(catalog);
    pager.begin_phase("scrub");
    let outcome: Result<()> = (|| {
        for unit in &units {
            let audit = audit_unit(pager, unit, &mut report.findings)?;
            report.pages_checked += audit.n_pages as u64;
            if !audit.sound() {
                continue;
            }
            let rel = catalog.get(unit.rel);
            match unit.kind {
                UnitKind::Index => {
                    if audit.reachable_rows != rel.tuple_count {
                        report.findings.push(unit.finding(
                            Severity::Warning,
                            None,
                            format!(
                                "index holds {} entries for a relation \
                                 storing {} rows",
                                audit.reachable_rows, rel.tuple_count
                            ),
                        ));
                    }
                }
                UnitKind::History => {
                    let recorded =
                        rel.history.as_ref().map(|h| h.rows()).unwrap_or(0);
                    if audit.reachable_rows != recorded {
                        report.findings.push(unit.finding(
                            Severity::Error,
                            None,
                            format!(
                                "catalog records {recorded} migrated rows \
                                 but {} are reachable",
                                audit.reachable_rows
                            ),
                        ));
                    }
                }
                UnitKind::Base => {
                    if audit.reachable_rows != rel.tuple_count {
                        report.findings.push(unit.finding(
                            Severity::Error,
                            None,
                            format!(
                                "catalog records {} stored rows but {} are \
                                 reachable",
                                rel.tuple_count, audit.reachable_rows
                            ),
                        ));
                    }
                    check_temporal(pager, unit, rel, &mut report.findings)?;
                }
            }
        }
        // Files on disk the catalog does not know about.
        let referenced: BTreeSet<FileId> = catalog
            .iter()
            .flat_map(|(_, r)| {
                std::iter::once(r.file.file_id())
                    .chain(r.indexes.iter().map(|ix| ix.index.file_id()))
                    .chain(r.history.iter().map(|h| h.file_id()))
            })
            .collect();
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
    report.relations_checked =
        catalog.iter().filter(|(_, r)| !r.temporary).count();
    Ok(report)
}

/// Repair everything [`check_database`] would flag, salvaging from `plan`
/// (the recovery plan of the *untruncated* log) where possible:
///
/// 1. Bad pages are restored from the newest committed WAL image, or
///    quarantined (reinitialized empty in the region's kind) when no
///    image survives; corrupt overflow pointers are clipped; files
///    shorter than their layout are re-extended.
/// 2. A second audit over the repaired structure discards orphaned
///    overflow rows (damaged chain tails) with a precise loss report and
///    corrects each relation's stored tuple count.
/// 3. Relations whose pages changed get their secondary indexes rebuilt
///    from the surviving base rows.
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
    let mut page_repairs: BTreeSet<usize> = BTreeSet::new();
    pager.begin_phase("scrub");
    let outcome: Result<()> = (|| {
        // Pass 1: detect, then restore / quarantine / clip page by page.
        for unit in &units {
            let audit = audit_unit(pager, unit, &mut report.findings)?;
            report.pages_checked += audit.n_pages as u64;
            if audit.missing {
                continue;
            }
            if audit.needs_page_repair() {
                page_repairs.insert(unit.rel.0);
            }
            let mut n = audit.n_pages;
            while n < unit.layout.min_len() {
                pager
                    .append_page(unit.file, unit.layout.expected_kind(n))?;
                if let Some(img) = plan.latest_image(unit.file, n) {
                    let img = img.clone();
                    pager.write_page_raw(unit.file, n, &img)?;
                    report.findings.push(unit.finding(
                        Severity::Repaired,
                        Some(n),
                        format!(
                            "missing page re-created from the newest \
                             committed log image (lsn {})",
                            img.lsn()
                        ),
                    ));
                } else {
                    report.findings.push(unit.finding(
                        Severity::Lost,
                        Some(n),
                        format!(
                            "missing page re-created empty as \
                             {:?} (no surviving log image)",
                            unit.layout.expected_kind(n)
                        ),
                    ));
                }
                n += 1;
            }
            for (&p, &old_count) in &audit.bad {
                if let Some(img) = plan.latest_image(unit.file, p) {
                    let img = img.clone();
                    pager.write_page_raw(unit.file, p, &img)?;
                    report.findings.push(unit.finding(
                        Severity::Repaired,
                        Some(p),
                        format!(
                            "restored from the newest committed log \
                             image (lsn {})",
                            img.lsn()
                        ),
                    ));
                } else {
                    let kind = unit.layout.expected_kind(p);
                    pager.write_page_raw(unit.file, p, &Page::new(kind))?;
                    let loss = match old_count {
                        Some(c) => format!("{c} rows lost"),
                        None => "an unknown number of rows lost".into(),
                    };
                    report.findings.push(unit.finding(
                        Severity::Lost,
                        Some(p),
                        format!(
                            "no surviving log image: quarantined and \
                             reinitialized as an empty {kind:?} page \
                             ({loss})"
                        ),
                    ));
                }
            }
            for &p in &audit.clip {
                if let Some(img) = plan.latest_image(unit.file, p) {
                    let img = img.clone();
                    pager.write_page_raw(unit.file, p, &img)?;
                    report.findings.push(unit.finding(
                        Severity::Repaired,
                        Some(p),
                        format!(
                            "restored from the newest committed log \
                             image (lsn {})",
                            img.lsn()
                        ),
                    ));
                } else {
                    let mut page = pager.read_page_raw(unit.file, p)?;
                    page.set_overflow(NO_PAGE);
                    pager.write_page_raw(unit.file, p, &page)?;
                    report.findings.push(unit.finding(
                        Severity::Lost,
                        Some(p),
                        "corrupt overflow pointer cleared; the chained \
                         tail is truncated"
                            .into(),
                    ));
                }
            }
        }
        // Pass 2: audit the repaired structure, discard orphaned rows,
        // and correct stored tuple counts.
        for unit in &units {
            let audit = audit_unit(pager, unit, &mut Vec::new())?;
            for (&p, &rows) in &audit.data_orphans {
                page_repairs.insert(unit.rel.0);
                pager.write_page_raw(
                    unit.file,
                    p,
                    &Page::new(PageKind::Overflow),
                )?;
                report.findings.push(unit.finding(
                    Severity::Lost,
                    Some(p),
                    format!(
                        "orphaned overflow page discarded ({rows} rows \
                         were unreachable from any chain)"
                    ),
                ));
            }
            if unit.kind == UnitKind::Base && !audit.missing {
                let rel = catalog.get_mut(unit.rel);
                if rel.tuple_count != audit.reachable_rows {
                    let old = rel.tuple_count;
                    rel.tuple_count = audit.reachable_rows;
                    let severity = if audit.reachable_rows < old {
                        Severity::Lost
                    } else {
                        Severity::Repaired
                    };
                    report.findings.push(unit.finding(
                        severity,
                        None,
                        format!(
                            "stored tuple count corrected from {old} to {}",
                            audit.reachable_rows
                        ),
                    ));
                }
            }
            if unit.kind == UnitKind::History && !audit.missing {
                let rel = catalog.get_mut(unit.rel);
                let Some(h) = &rel.history else { continue };
                if h.rows() != audit.reachable_rows {
                    // Rebuild the in-memory directory from the repaired
                    // pages; `reopen` recounts the surviving rows and
                    // reassigns pages to clusters, so subsequent keyed
                    // history reads stay exact.
                    let old = h.rows();
                    let fresh = tdbms_storage::ClusteredHistory::reopen(
                        pager,
                        h.file_id(),
                        h.row_width(),
                        h.key(),
                        h.max_stop(),
                    )?;
                    let severity = if fresh.rows() < old {
                        Severity::Lost
                    } else {
                        Severity::Repaired
                    };
                    report.findings.push(unit.finding(
                        severity,
                        None,
                        format!(
                            "migrated-row count corrected from {old} to {}",
                            fresh.rows()
                        ),
                    ));
                    rel.history = Some(std::sync::Arc::new(fresh));
                }
            }
        }
        // Pass 3: rebuild the indexes of every relation whose pages
        // changed — base-page loss invalidates entry addresses, and an
        // index page restored empty must be repopulated.
        let rebuild: Vec<RelId> = catalog
            .iter()
            .filter(|(id, r)| {
                page_repairs.contains(&id.0) && !r.indexes.is_empty()
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
    report.relations_checked =
        catalog.iter().filter(|(_, r)| !r.temporary).count();
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
        while cur.next(&pager, &rel.file).unwrap().is_some() {
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
        while cur.next(&pager, &rel.file).unwrap().is_some() {
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

    #[test]
    fn history_sidecars_are_audited_and_their_counts_repaired() {
        use tdbms_storage::ClusteredHistory;
        let (shared, pager, mut cat, id) = fixture(AccessMethod::Hash, 8);
        // Hang a clustered history off the relation: 3 keys × enough
        // versions to span several pages.
        {
            let rel = cat.get_mut(id);
            let batch: Vec<(Vec<u8>, TimeVal)> = (1..=3i64)
                .flat_map(|k| {
                    let row = rel
                        .codec
                        .encode(&[Value::Int(k), Value::Str("x".into())])
                        .unwrap();
                    std::iter::repeat_n((row, TimeVal::from_secs(100)), 40)
                })
                .collect();
            let h = ClusteredHistory::create(
                &pager,
                rel.schema.row_width(),
                KeySpec::for_attr(&rel.codec, 0),
            )
            .unwrap()
            .with_migrated(&pager, &batch)
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
