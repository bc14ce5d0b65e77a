//! # tdbms-plan
//!
//! The cost model behind `explain` and `estimate_retrieve`:
//!
//! * [`plan_query`] — a page-I/O cost model over [`VarFacts`]: the
//!   access path per tuple variable (heap scan vs hash/ISAM key probe
//!   vs secondary index) and the estimated input and output pages of
//!   the executor's decomposition. Pure arithmetic over facts the
//!   caller reads off the catalog when it makes the plan (tuple and
//!   page counts, directory depth, versions per key), so it unit-tests
//!   without a database.
//! * [`PlanCache`] — a bounded cache keyed by statement shape (the
//!   token stream with numeric literals lifted into parameter slots),
//!   with hit/miss counters, so a server's hot queries skip
//!   parse/bind/plan whatever their literals.
//!
//! The planner describes and estimates; it steers nothing. The
//! executor picks access paths itself and detaches in variable order,
//! and a [`QueryPlan`] lists its steps in that same order.

use std::collections::HashMap;

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

/// A bounded least-recently-used cache keyed by statement shape, with
/// hit/miss counters. The values are whatever the caller finds
/// expensive to rebuild (parsed programs, bound plans). Each entry
/// carries the tick of its last use; a hit only restamps it, and an
/// insert into a full cache scans for the oldest stamp, so the O(cap)
/// work falls on misses alone.
#[derive(Debug)]
pub struct PlanCache<V> {
    cap: usize,
    /// Each entry with the tick of its last insert or usable lookup.
    map: HashMap<String, (V, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V: Clone> PlanCache<V> {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap: cap.max(1),
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Look up a statement shape, counting a hit (and a use) when an
    /// entry exists and `usable` accepts it, a miss otherwise.
    pub fn lookup(
        &mut self,
        key: &str,
        usable: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        match self.map.get_mut(key).filter(|(v, _)| usable(v)) {
            Some((v, used)) => {
                self.tick += 1;
                *used = self.tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The entry for a statement shape, counting neither a hit, a miss
    /// nor a use.
    pub fn peek(&self, key: &str) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Insert (or replace) an entry as just used, evicting the least
    /// recently used one once full.
    pub fn insert(&mut self, key: String, value: V) {
        self.tick += 1;
        if self.map.insert(key, (value, self.tick)).is_none()
            && self.map.len() > self.cap
        {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("a full cache has entries");
            self.map.remove(&lru);
        }
    }

    /// Lifetime `(hits, misses)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Facts for a relation of `tuples` versions on `pages` scannable
    /// pages whose keyed probes walk `chain_len` pages.
    fn facts(
        var: usize,
        tuples: u64,
        pages: u64,
        chain_len: u64,
        keyed: bool,
    ) -> VarFacts {
        VarFacts {
            var,
            relation: "r".into(),
            tuple_count: tuples,
            scannable_pages: pages,
            directory_levels: 0,
            chain_len,
            rows_per_page: (tuples / pages.max(1)).max(1),
            has_own_conjunct: true,
            detach_blocked: false,
            const_key_probe: keyed,
            const_index_probe: false,
            join_key_probe: keyed,
        }
    }

    #[test]
    fn keyed_probe_beats_scan_and_costs_the_chain() {
        let f = facts(0, 3072, 384, 3, true);
        let (path, cost) = f.detach_access();
        assert_eq!(path, AccessPath::KeyLookup);
        assert_eq!(cost, 3); // the paper's 1 + 2·uc growth at uc=1
    }

    #[test]
    fn unkeyed_access_scans_every_page() {
        let f = facts(0, 1024, 128, 1, false);
        let (path, cost) = f.detach_access();
        assert_eq!(path, AccessPath::Scan);
        assert_eq!(cost, 128);
    }

    #[test]
    fn isam_probe_adds_directory_descent() {
        let mut f = facts(0, 1024, 128, 1, true);
        f.directory_levels = 1;
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
        let dear = facts(0, 1024, 128, 1, false); // scan: 128 pages
        let cheap = facts(1, 1024, 128, 1, true); // keyed probe: 1 page
        let plan = plan_query(&[dear, cheap]);
        assert_eq!(detached_vars(&plan), vec![0, 1]);
        assert!(plan.est_input >= 129);
    }

    #[test]
    fn single_variable_queries_never_detach() {
        let plan = plan_query(&[facts(0, 1024, 128, 1, true)]);
        assert!(detached_vars(&plan).is_empty());
        assert_eq!(plan.est_input, 1);
        assert_eq!(plan.est_output, 0);
    }

    #[test]
    fn plan_cache_counts_and_evicts_the_least_recently_used() {
        let mut c: PlanCache<u32> = PlanCache::new(2);
        let any = |_: &u32| true;
        assert_eq!(c.lookup("a", any), None);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.lookup("a", any), Some(1));
        c.insert("c".into(), 3); // evicts "b": "a" was used since
        assert_eq!(c.lookup("b", any), None);
        assert_eq!(c.lookup("a", any), Some(1));
        assert_eq!(c.lookup("c", any), Some(3));
        // An entry the caller cannot use is a miss, and no use.
        assert_eq!(c.lookup("a", |v| *v != 1), None);
        c.insert("d".into(), 4); // evicts "a", last used before "c"
        assert_eq!(c.peek("a"), None);
        assert_eq!(c.peek("c"), Some(&3));
        assert_eq!(c.stats(), (3, 3));
    }

    /// A hot shape touched between one-off inserts outlives any number
    /// of them: a first-in-first-out cache would evict it once `cap`
    /// one-offs had passed.
    #[test]
    fn a_key_used_between_one_off_inserts_survives() {
        let mut c: PlanCache<u32> = PlanCache::new(4);
        c.insert("hot".into(), 0);
        for i in 0..64 {
            assert_eq!(c.lookup("hot", |_| true), Some(0), "after {i}");
            c.insert(format!("once{i}"), i);
        }
        assert_eq!(c.stats(), (64, 0));
        // The one-offs evicted one another: only the last three remain.
        assert_eq!(c.peek("once60"), None);
        assert_eq!(c.peek("once61"), Some(&61));
    }
}
