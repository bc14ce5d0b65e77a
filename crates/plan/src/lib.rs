//! # tdbms-plan
//!
//! The cost model behind `explain` and `estimate_retrieve`:
//!
//! * [`StatsCatalog`] — per-relation statistics (tuple counts, page
//!   counts, ISAM directory depth, distinct-key estimates) harvested
//!   from the catalog and pager metadata and refreshed incrementally
//!   after every commit. The distinct-key counter is the one figure the
//!   catalog cannot answer directly: appends introduce new keys while
//!   replaces/deletes only lengthen version chains, so tracking inserts
//!   yields the paper's chain-length growth (fig5–fig10) for free as
//!   `tuple_count / distinct_keys`.
//! * [`plan_query`] — a page-I/O cost model over [`VarFacts`]: the
//!   access path per tuple variable (heap scan vs hash/ISAM key probe
//!   vs secondary index) and the estimated input and output pages of
//!   the executor's decomposition. Pure arithmetic over pre-resolved
//!   facts, so it unit-tests without a database.
//! * [`PlanCache`] — a bounded cache keyed by statement shape (the
//!   token stream with numeric literals lifted into parameter slots),
//!   with hit/miss counters, so a server's hot queries skip
//!   parse/bind/plan whatever their literals.
//!
//! The planner describes and estimates; it steers nothing. The
//! executor picks access paths itself and detaches in variable order,
//! and a [`QueryPlan`] lists its steps in that same order.

use std::collections::{HashMap, VecDeque};
use tdbms_storage::{AccessMethod, Catalog, Pager};

/// Maintained statistics of one stored relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelStats {
    /// Relation name.
    pub name: String,
    /// Storage organization.
    pub method: AccessMethod,
    /// Stored row (version) count, from the catalog.
    pub tuple_count: u64,
    /// Total pages including any ISAM directory.
    pub total_pages: u64,
    /// Pages a sequential scan reads.
    pub scannable_pages: u64,
    /// ISAM directory levels (0 for heap/hash).
    pub directory_levels: u64,
    /// Maintained count of *inserted* keys (0 = unknown). Replaces and
    /// deletes add versions without adding keys, so
    /// `tuple_count / distinct` is the mean version-chain length.
    pub distinct_keys: u64,
    /// Fixed row width in bytes.
    pub row_width: u64,
    /// Versions migrated into the clustered history sidecar by online
    /// reorganization (0 when the relation has no sidecar). These rows
    /// are *off* the primary's chains, which is why [`chain_len`]
    /// excludes them.
    ///
    /// [`chain_len`]: RelStats::chain_len
    pub history_rows: u64,
    /// Pages of the clustered history sidecar.
    pub history_pages: u64,
}

impl RelStats {
    /// Distinct-key estimate with the unknown (0) case defaulted to
    /// one version per key.
    pub fn distinct_estimate(&self) -> u64 {
        if self.distinct_keys == 0 {
            self.tuple_count.max(1)
        } else {
            self.distinct_keys.min(self.tuple_count.max(1))
        }
    }

    /// Mean version/overflow-chain length in pages for a keyed probe:
    /// every version of a key lands on the same bucket / ISAM chain,
    /// one page each in the prototype's chain-walking layout. Migrated
    /// history rows are excluded — they are served from the clustered
    /// sidecar, not the primary's chains, so an at-now probe after a
    /// reorganization costs only the shortened primary chain.
    pub fn chain_len(&self) -> u64 {
        self.tuple_count.div_ceil(self.distinct_estimate()).max(1)
    }

    /// Pages a *time-travel* keyed probe adds on top of [`chain_len`]:
    /// the mean per-key cluster size of the history sidecar (clusters
    /// pack `rows_per_page` versions per page, one key per page).
    ///
    /// [`chain_len`]: RelStats::chain_len
    pub fn history_chain_len(&self) -> u64 {
        if self.history_rows == 0 {
            return 0;
        }
        // Sidecar pages are single-key, so mean cluster size is simply
        // pages over keys.
        self.history_pages.div_ceil(self.distinct_estimate()).max(1)
    }

    /// Mean stored rows per scannable page.
    pub fn rows_per_page(&self) -> u64 {
        (self.tuple_count / self.scannable_pages.max(1)).max(1)
    }
}

/// Per-relation statistics, refreshed incrementally on commit. The
/// epoch counts refreshes so cached plans can detect staleness.
#[derive(Debug, Default, Clone)]
pub struct StatsCatalog {
    epoch: u64,
    rels: HashMap<String, RelStats>,
}

impl StatsCatalog {
    /// Harvest current counts and page geometry from the catalog and
    /// pager metadata (no page I/O), preserving each relation's
    /// maintained distinct-key counter. Dropped relations lose their
    /// entry. Bumps the epoch.
    pub fn refresh(
        &mut self,
        pager: &Pager,
        catalog: &Catalog,
    ) -> tdbms_kernel::Result<()> {
        let mut fresh = HashMap::new();
        for (_, rel) in catalog.iter() {
            if rel.temporary {
                continue;
            }
            let distinct = self
                .rels
                .get(&rel.name)
                .map(|s| s.distinct_keys)
                .unwrap_or(0);
            fresh.insert(
                rel.name.clone(),
                RelStats {
                    name: rel.name.clone(),
                    method: rel.file.method(),
                    tuple_count: rel.tuple_count,
                    total_pages: u64::from(rel.file.total_pages(pager)?),
                    scannable_pages: u64::from(
                        rel.file.scannable_pages(pager)?,
                    ),
                    directory_levels: u64::from(
                        rel.file.directory_levels(),
                    ),
                    distinct_keys: distinct,
                    row_width: rel.schema.row_width() as u64,
                    history_rows: rel
                        .history
                        .as_ref()
                        .map(|h| h.rows())
                        .unwrap_or(0),
                    history_pages: match &rel.history {
                        Some(h) => u64::from(h.total_pages(pager)?),
                        None => 0,
                    },
                },
            );
        }
        self.rels = fresh;
        self.epoch += 1;
        Ok(())
    }

    /// Record `n` freshly inserted keys on a relation (append / copy /
    /// bulk load). Replaces and deletes do **not** call this: they add
    /// versions, not keys, which is exactly what makes chains grow.
    pub fn note_inserted(&mut self, rel: &str, n: u64) {
        if let Some(s) = self.rels.get_mut(rel) {
            s.distinct_keys = s.distinct_keys.saturating_add(n);
        }
    }

    /// Statistics of one relation, if maintained.
    pub fn get(&self, rel: &str) -> Option<&RelStats> {
        self.rels.get(rel)
    }

    /// Monotone refresh counter.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Everything the cost model needs to know about one tuple variable,
/// pre-resolved by the caller so [`plan_query`] is pure arithmetic.
#[derive(Debug, Clone)]
pub struct VarFacts {
    /// Variable position in the bound query.
    pub var: usize,
    /// Underlying relation name.
    pub relation: String,
    /// Stored row (version) count.
    pub tuple_count: u64,
    /// Pages a sequential scan reads.
    pub scannable_pages: u64,
    /// ISAM directory levels (0 for heap/hash).
    pub directory_levels: u64,
    /// Mean version/overflow-chain length (pages per keyed probe).
    pub chain_len: u64,
    /// Mean stored rows per scannable page.
    pub rows_per_page: u64,
    /// Whether the variable has a one-variable conjunct at all (the
    /// executor only detaches such variables).
    pub has_own_conjunct: bool,
    /// Whether detachment is blocked (the query references the
    /// variable's transaction-time attributes, which temporaries drop).
    pub detach_blocked: bool,
    /// A constant equality probe on the primary key is available
    /// during detachment (hash bucket / ISAM descent).
    pub const_key_probe: bool,
    /// A constant equality probe on a secondary index is available
    /// during detachment.
    pub const_index_probe: bool,
    /// A keyed equality probe becomes available during tuple
    /// substitution once outer variables are bound.
    pub join_key_probe: bool,
}

impl VarFacts {
    fn detachable(&self) -> bool {
        self.has_own_conjunct && !self.detach_blocked
    }

    /// Cheapest access path available during detachment and its page
    /// cost.
    fn detach_access(&self) -> (AccessPath, u64) {
        let scan = (AccessPath::Scan, self.scannable_pages.max(1));
        if self.const_key_probe {
            // Hash: chain pages. ISAM: directory descent then chain.
            let probe =
                self.directory_levels.saturating_add(self.chain_len).max(1);
            if probe < scan.1 {
                return (AccessPath::KeyLookup, probe);
            }
        }
        if self.const_index_probe {
            // Secondary index: one directory page, then one data page
            // per matching version.
            let probe = 1u64.saturating_add(self.chain_len);
            if probe < scan.1 {
                return (AccessPath::IndexLookup, probe);
            }
        }
        scan
    }

    /// Estimated qualifying rows after this variable's own conjuncts.
    fn est_rows(&self) -> u64 {
        let (path, _) = self.detach_access();
        match path {
            AccessPath::KeyLookup | AccessPath::IndexLookup => {
                self.chain_len
            }
            AccessPath::Scan if self.has_own_conjunct => {
                (self.tuple_count / 10).max(1)
            }
            AccessPath::Scan => self.tuple_count.max(1),
        }
    }
}

/// How a tuple variable is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Primary-organization probe (hash bucket / ISAM descent).
    KeyLookup,
    /// Secondary-index probe.
    IndexLookup,
    /// Sequential heap scan.
    Scan,
}

impl std::fmt::Display for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessPath::KeyLookup => "key lookup",
            AccessPath::IndexLookup => "index lookup",
            AccessPath::Scan => "scan",
        })
    }
}

/// One planned access in a [`QueryPlan`].
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Variable position.
    pub var: usize,
    /// Underlying relation name.
    pub relation: String,
    /// Whether this step is a one-variable detachment (phase 1) as
    /// opposed to a direct access during substitution.
    pub detach: bool,
    /// Chosen access path.
    pub path: AccessPath,
    /// Estimated pages read by this step (once).
    pub est_read: u64,
    /// Estimated pages written (temporary projection), 0 for
    /// non-detached steps.
    pub est_write: u64,
    /// Estimated qualifying rows the step leaves behind.
    pub est_rows: u64,
}

/// The estimated shape of one retrieve.
#[derive(Debug, Clone, Default)]
pub struct QueryPlan {
    /// One step per tuple variable: the detachments in variable order,
    /// then the non-detached accesses in variable order.
    pub steps: Vec<PlanStep>,
    /// Substitution nesting order (outermost first).
    pub join_order: Vec<usize>,
    /// Estimated total pages read.
    pub est_input: u64,
    /// Estimated total pages written.
    pub est_output: u64,
}

/// Plan one retrieve from pre-resolved per-variable facts: pick each
/// variable's access path by estimated page I/O and estimate total
/// input/output pages under the paper's cold-buffer nested-substitution
/// execution (the inner relation is re-read once per outer row — one
/// frame per relation).
pub fn plan_query(facts: &[VarFacts]) -> QueryPlan {
    let single = facts.len() < 2;
    let mut steps: Vec<PlanStep> = Vec::new();
    for f in facts {
        let (path, cost) = f.detach_access();
        let detach = !single && f.detachable();
        let est_rows = f.est_rows();
        let est_write = if detach {
            (est_rows / f.rows_per_page.max(1)).max(1)
        } else {
            0
        };
        steps.push(PlanStep {
            var: f.var,
            relation: f.relation.clone(),
            detach,
            path,
            est_read: cost,
            est_write,
            est_rows,
        });
    }
    // Detachments first, as the executor runs them; non-detached
    // accesses after them. Both keep variable order.
    steps.sort_by_key(|s| (!s.detach, s.var));

    // Substitution order mirrors the executor: keyed-join variables
    // nest innermost (each probe is a short chain instead of a scan).
    let mut join_order: Vec<usize> = facts.iter().map(|f| f.var).collect();
    let keyed = |v: usize| {
        facts
            .iter()
            .find(|f| f.var == v)
            .is_some_and(|f| f.join_key_probe && !f.detachable())
    };
    join_order.sort_by_key(|&v| (keyed(v), v));

    let mut est_input: u64 = 0;
    let mut est_output: u64 = 0;
    for s in &steps {
        if s.detach || single {
            est_input = est_input.saturating_add(s.est_read);
            est_output = est_output.saturating_add(s.est_write);
        }
    }
    if !single {
        // Nested substitution over the (possibly detached) variables.
        let mut outer_rows: u64 = 1;
        for &v in &join_order {
            let s = steps
                .iter()
                .find(|s| s.var == v)
                .expect("step per variable");
            let f = facts
                .iter()
                .find(|f| f.var == v)
                .expect("facts per variable");
            let per_access = if s.detach {
                s.est_write
            } else if f.join_key_probe {
                f.directory_levels.saturating_add(f.chain_len).max(1)
            } else {
                f.scannable_pages.max(1)
            };
            est_input = est_input
                .saturating_add(per_access.saturating_mul(outer_rows));
            outer_rows = outer_rows.saturating_mul(s.est_rows.max(1));
        }
    }
    QueryPlan {
        steps,
        join_order,
        est_input,
        est_output,
    }
}

/// A bounded FIFO cache keyed by statement shape, with hit/miss
/// counters. The values are whatever the caller finds expensive to
/// rebuild (parsed programs, bound plans).
#[derive(Debug)]
pub struct PlanCache<V> {
    cap: usize,
    map: HashMap<String, V>,
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

impl<V: Clone> PlanCache<V> {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap: cap.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a statement shape, counting a hit when an entry exists
    /// and `usable` accepts it, a miss otherwise.
    pub fn lookup(
        &mut self,
        key: &str,
        usable: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        match self.map.get(key).filter(|v| usable(v)) {
            Some(v) => {
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or replace) an entry, evicting the oldest insertion
    /// once full.
    pub fn insert(&mut self, key: String, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Drop every entry (counters survive).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Lifetime `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(tuples: u64, pages: u64, distinct: u64) -> RelStats {
        RelStats {
            name: "r".into(),
            method: AccessMethod::Hash,
            tuple_count: tuples,
            total_pages: pages,
            scannable_pages: pages,
            directory_levels: 0,
            distinct_keys: distinct,
            row_width: 16,
            history_rows: 0,
            history_pages: 0,
        }
    }

    fn facts(var: usize, s: &RelStats, keyed: bool) -> VarFacts {
        VarFacts {
            var,
            relation: s.name.clone(),
            tuple_count: s.tuple_count,
            scannable_pages: s.scannable_pages,
            directory_levels: s.directory_levels,
            chain_len: s.chain_len(),
            rows_per_page: s.rows_per_page(),
            has_own_conjunct: true,
            detach_blocked: false,
            const_key_probe: keyed,
            const_index_probe: false,
            join_key_probe: keyed,
        }
    }

    #[test]
    fn chain_length_tracks_versions_per_key() {
        // 1024 keys, evolved twice: 3072 versions → chains of 3.
        let s = stats(3072, 384, 1024);
        assert_eq!(s.chain_len(), 3);
        // Unknown distinct count defaults to one version per key.
        let s = stats(3072, 384, 0);
        assert_eq!(s.chain_len(), 1);
    }

    #[test]
    fn migrated_history_shortens_the_primary_chain_estimate() {
        // Before reorganization: 3 versions per key in the primary.
        let before = stats(3072, 384, 1024);
        assert_eq!(before.chain_len(), 3);
        assert_eq!(before.history_chain_len(), 0);
        // After: superseded versions migrated, one page per key cluster.
        let mut after = stats(1024, 128, 1024);
        after.history_rows = 2048;
        after.history_pages = 1024;
        assert_eq!(after.chain_len(), 1);
        assert_eq!(after.history_chain_len(), 1);
    }

    #[test]
    fn keyed_probe_beats_scan_and_costs_the_chain() {
        let s = stats(3072, 384, 1024);
        let f = facts(0, &s, true);
        let (path, cost) = f.detach_access();
        assert_eq!(path, AccessPath::KeyLookup);
        assert_eq!(cost, 3); // the paper's 1 + 2·uc growth at uc=1
    }

    #[test]
    fn unkeyed_access_scans_every_page() {
        let s = stats(1024, 128, 1024);
        let f = facts(0, &s, false);
        let (path, cost) = f.detach_access();
        assert_eq!(path, AccessPath::Scan);
        assert_eq!(cost, 128);
    }

    #[test]
    fn isam_probe_adds_directory_descent() {
        let mut s = stats(1024, 129, 1024);
        s.method = AccessMethod::Isam;
        s.scannable_pages = 128;
        s.directory_levels = 1;
        let f = facts(0, &s, true);
        let (path, cost) = f.detach_access();
        assert_eq!(path, AccessPath::KeyLookup);
        assert_eq!(cost, 2); // directory page + one-page chain
    }

    fn detached_vars(plan: &QueryPlan) -> Vec<usize> {
        plan.steps
            .iter()
            .filter(|s| s.detach)
            .map(|s| s.var)
            .collect()
    }

    #[test]
    fn detachments_list_in_variable_order() {
        let cheap = stats(1024, 128, 1024); // keyed probe: 1 page
        let dear = stats(1024, 128, 1024); // scan: 128 pages
        let plan =
            plan_query(&[facts(0, &dear, false), facts(1, &cheap, true)]);
        assert_eq!(detached_vars(&plan), vec![0, 1]);
        assert!(plan.est_input >= 129);
    }

    #[test]
    fn single_variable_queries_never_detach() {
        let s = stats(1024, 128, 1024);
        let plan = plan_query(&[facts(0, &s, true)]);
        assert!(detached_vars(&plan).is_empty());
        assert_eq!(plan.est_input, 1);
        assert_eq!(plan.est_output, 0);
    }

    #[test]
    fn plan_cache_counts_and_evicts_fifo() {
        let mut c: PlanCache<u32> = PlanCache::new(2);
        let any = |_: &u32| true;
        assert_eq!(c.lookup("a", any), None);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.lookup("a", any), Some(1));
        c.insert("c".into(), 3); // evicts "a"
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup("a", any), None);
        assert_eq!(c.lookup("c", any), Some(3));
        // An entry the caller cannot use is a miss.
        assert_eq!(c.lookup("c", |v| *v != 3), None);
        assert_eq!(c.stats(), (2, 3));
    }

    #[test]
    fn stats_catalog_epoch_is_monotone() {
        let mut sc = StatsCatalog::default();
        assert_eq!(sc.epoch(), 0);
        let pager = Pager::in_memory();
        let catalog = Catalog::new();
        sc.refresh(&pager, &catalog).unwrap();
        assert_eq!(sc.epoch(), 1);
        assert!(sc.get("nope").is_none());
    }
}
