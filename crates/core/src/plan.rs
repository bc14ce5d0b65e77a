//! Bridge between the bound query representation and the
//! `tdbms-plan` cost model: resolve each tuple variable of a
//! [`BoundRetrieve`] into the [`VarFacts`] the planner consumes. The
//! per-relation figures come from [`RelationMeta`], read off the
//! catalog entry when the plan is made.
//!
//! The resolution reuses the executor's own machinery
//! ([`crate::exec::prepare`], [`crate::exec::detachable_vars`],
//! [`crate::exec::key_probe_shape`], [`crate::exec::bound_probe`]) so
//! the planner's view of what is detachable and what is probeable can
//! never drift from what the executor actually does.

use crate::bound::BoundRetrieve;
use crate::db::RelationMeta;
use crate::exec::{
    bound_probe, detachable_vars, key_probe_shape, prepare, Prepared,
};
use crate::guard::QueryGuard;
use tdbms_kernel::{Result, TimeVal};
use tdbms_plan::{plan_query, QueryPlan, VarFacts};
use tdbms_storage::{Catalog, Pager};

/// Plan one bound retrieve at instant `now` against the relations as
/// they stand.
pub(crate) fn plan_bound(
    pager: &Pager,
    catalog: &Catalog,
    bound: &BoundRetrieve,
    now: TimeVal,
) -> Result<QueryPlan> {
    let guard = QueryGuard::none();
    let p = prepare(catalog, bound, &[], now, &guard)?;
    let detachable = detachable_vars(&p);
    let facts: Vec<VarFacts> = bound
        .vars
        .iter()
        .enumerate()
        .map(|(v, vb)| {
            let rel = RelationMeta::of(pager, catalog.get(vb.rel))?;
            let key_attr = p.rts[v].key_attr;
            let const_key_probe = has_const_probe(&p, v, key_attr);
            let const_index_probe = p.rts[v]
                .indexes
                .iter()
                .any(|ix| has_const_probe(&p, v, Some(ix.attr)));
            let join_key_probe = key_attr.is_some()
                && p.conjuncts.iter().any(|c| {
                    c.references(v)
                        && !c.references_only(v)
                        && key_probe_shape(c, v, key_attr).is_some()
                });
            let has_own = p.conjuncts.iter().any(|c| c.references_only(v));
            Ok(VarFacts {
                var: v,
                tuple_count: rel.tuple_count,
                scannable_pages: u64::from(rel.scannable_pages),
                directory_levels: u64::from(rel.directory_levels),
                chain_len: rel.chain_len(),
                rows_per_page: rel.rows_per_page(),
                has_own_conjunct: has_own,
                detach_blocked: has_own && !detachable.contains(&v),
                const_key_probe,
                const_index_probe,
                join_key_probe,
                relation: rel.name,
            })
        })
        .collect::<Result<_>>()?;
    Ok(plan_query(&facts))
}

/// Is a constant equality probe on `attr` available from variable `v`'s
/// own conjuncts? Asked of the executor's own probe test with every
/// variable unbound, as during detachment.
fn has_const_probe(p: &Prepared, v: usize, attr: Option<usize>) -> bool {
    p.conjuncts.iter().any(|c| {
        c.references_only(v)
            && bound_probe(c, v, attr, &p.env.slots).is_some()
    })
}
