//! Bridge between the bound query representation and the
//! `tdbms-plan` cost model: resolve each tuple variable of a
//! [`BoundRetrieve`] into the [`VarFacts`] the planner consumes.
//!
//! The resolution reuses the executor's own machinery
//! ([`crate::exec::prepare`], [`crate::exec::detachable_vars`],
//! [`crate::exec::key_probe_shape`]) so the planner's view of what is
//! detachable and what is probeable can never drift from what the
//! executor actually does.

use crate::bound::BoundRetrieve;
use crate::exec::{detachable_vars, key_probe_shape, prepare, Prepared};
use crate::guard::QueryGuard;
use tdbms_plan::{plan_query, QueryPlan, RelStats, StatsCatalog, VarFacts};
use tdbms_storage::{page_capacity, Catalog, RelId};

/// Plan one bound retrieve against the maintained statistics.
pub(crate) fn plan_bound(
    catalog: &Catalog,
    stats: &StatsCatalog,
    bound: &BoundRetrieve,
) -> QueryPlan {
    let p = prepare(catalog, bound, &[], &QueryGuard::none());
    let detachable = detachable_vars(&p);
    let facts: Vec<VarFacts> = bound
        .vars
        .iter()
        .enumerate()
        .map(|(v, vb)| {
            let name = &catalog.get(vb.rel).name;
            let rs = stats
                .get(name)
                .cloned()
                .unwrap_or_else(|| fallback_stats(catalog, vb.rel));
            let key_attr = p.rts[v].key_attr;
            let const_key_probe = has_const_probe(&p, v, key_attr);
            let const_index_probe = p.rts[v]
                .indexes
                .iter()
                .any(|ix| has_const_probe(&p, v, Some(ix.attr)));
            let join_key_probe = key_attr.is_some()
                && p.conjuncts.iter().any(|(c, vs)| {
                    vs.len() >= 2
                        && vs.contains(&v)
                        && key_probe_shape(c, v, key_attr).is_some()
                });
            let has_own = p.conjuncts.iter().any(|(_, vs)| vs == &[v]);
            VarFacts {
                var: v,
                relation: name.clone(),
                tuple_count: rs.tuple_count,
                scannable_pages: rs.scannable_pages,
                directory_levels: rs.directory_levels,
                chain_len: rs.chain_len(),
                rows_per_page: rs.rows_per_page(),
                has_own_conjunct: has_own,
                detach_blocked: has_own && !detachable.contains(&v),
                const_key_probe,
                const_index_probe,
                join_key_probe,
            }
        })
        .collect();
    plan_query(&facts)
}

/// Is a constant equality probe on `attr` available from variable `v`'s
/// own conjuncts? (During detachment nothing else is bound, so the
/// probe expression must reference no variables at all.)
fn has_const_probe(p: &Prepared, v: usize, attr: Option<usize>) -> bool {
    p.conjuncts.iter().any(|(c, vs)| {
        vs == &[v]
            && key_probe_shape(c, v, attr).is_some_and(|probe| {
                let mut pv = Vec::new();
                probe.collect_vars(&mut pv);
                pv.is_empty()
            })
    })
}

/// Statistics for a relation the maintained catalog hasn't seen yet
/// (e.g. created moments ago): counts from the catalog, page geometry
/// estimated from the row width.
fn fallback_stats(catalog: &Catalog, id: RelId) -> RelStats {
    let rel = catalog.get(id);
    let rows_per_page = page_capacity(rel.schema.row_width()).max(1) as u64;
    RelStats {
        name: rel.name.clone(),
        method: rel.file.method(),
        tuple_count: rel.tuple_count,
        total_pages: rel.tuple_count.div_ceil(rows_per_page),
        scannable_pages: rel.tuple_count.div_ceil(rows_per_page).max(1),
        directory_levels: u64::from(rel.file.directory_levels()),
        distinct_keys: 0,
        row_width: rel.schema.row_width() as u64,
        history_rows: rel.history.as_ref().map(|h| h.rows()).unwrap_or(0),
        history_pages: 0,
    }
}
