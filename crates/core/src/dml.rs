//! Data definition and modification: the extended `create`, `modify`,
//! `destroy`, `copy`, and the temporal semantics of `append` / `delete` /
//! `replace`.
//!
//! The update semantics follow Section 4 of the paper exactly:
//!
//! * **append** — rollback and temporal relations stamp
//!   `transaction_start = now`, `transaction_stop = forever`; historical
//!   and temporal relations stamp the valid period from the `valid` clause
//!   (defaulting to `now .. forever`).
//! * **delete** — rollback: stamp `transaction_stop = now` in place.
//!   Historical: stamp `valid_to` in place. Temporal: stamp
//!   `transaction_stop = now` in place *and insert a new version* whose
//!   `valid_to` records when the fact stopped holding.
//! * **replace** — a delete followed by an insert of the updated version;
//!   on a temporal relation this inserts **two** new versions, which is
//!   why the paper's temporal databases grow at twice the rate of rollback
//!   and historical ones.
//!
//! All modifications of versioned relations are *append-only* except the
//! in-place stop-time stamping — the property that makes write-once
//! optical storage usable, as the paper notes.

use crate::binder::Binder;
use crate::bound::{
    BExpr, BTPred, BoundRetrieve, BoundTarget, VarBinding, Visibility,
};
use crate::eval::{eval_expr, eval_texpr, Slot};
use crate::exec::{collect_matching, exec_retrieve};
use crate::interval::TInterval;
use std::collections::HashMap;
use tdbms_kernel::{
    AttrDef, DatabaseClass, Domain, Error, Result, Schema, TemporalAttr,
    TemporalKind, TimeVal, Value,
};
use tdbms_storage::{
    AccessMethod, Catalog, HashFn, IndexStructure, Pager, RelId,
};
use tdbms_tquel::ast;

/// Execute `create`.
pub fn exec_create(
    pager: &Pager,
    catalog: &mut Catalog,
    c: &ast::Create,
) -> Result<RelId> {
    let attrs: Vec<AttrDef> = c
        .attrs
        .iter()
        .map(|(n, d)| AttrDef::new(n.clone(), *d))
        .collect();
    let schema = Schema::new(attrs, c.class, c.kind)?;
    catalog.create_relation(pager, &c.rel, schema)
}

/// Execute `destroy` — of a relation, or of a secondary index (Ingres
/// treats index names like relation names for `destroy`).
pub fn exec_destroy(
    pager: &Pager,
    catalog: &mut Catalog,
    rel: &str,
) -> Result<()> {
    if let Some(id) = catalog.id_of(rel) {
        return catalog.destroy(pager, id);
    }
    if let Some(owner) = catalog.index_owner(rel) {
        catalog.get_mut(owner).drop_index(pager, rel)?;
        return Ok(());
    }
    Err(Error::NoSuchRelation(rel.to_owned()))
}

/// Execute `index on R is X (attr)`.
pub fn exec_index(
    pager: &Pager,
    catalog: &mut Catalog,
    stmt: &ast::CreateIndex,
) -> Result<()> {
    let id = catalog.require(&stmt.rel)?;
    if catalog.id_of(&stmt.name).is_some()
        || catalog.index_owner(&stmt.name).is_some()
    {
        return Err(Error::DuplicateRelation(stmt.name.clone()));
    }
    let structure = match stmt.structure.as_deref() {
        None | Some("hash") => IndexStructure::Hash,
        Some("heap") => IndexStructure::Heap,
        Some(other) => {
            return Err(Error::Semantic(format!(
                "unknown index structure {other:?}"
            )))
        }
    };
    let rel = catalog.get_mut(id);
    let attr = rel.schema.index_of(&stmt.attr).ok_or_else(|| {
        Error::NoSuchAttribute(format!(
            "{} (relation {})",
            stmt.attr, rel.name
        ))
    })?;
    if rel.key_attr == Some(attr) {
        return Err(Error::Semantic(format!(
            "{:?} is the relation's primary key; a secondary index would \
             be redundant",
            stmt.attr
        )));
    }
    rel.create_index(pager, &stmt.name, attr, structure)
}

/// Execute `modify`.
pub fn exec_modify(
    pager: &Pager,
    catalog: &mut Catalog,
    m: &ast::Modify,
    hashfn: HashFn,
) -> Result<()> {
    let id = catalog.require(&m.rel)?;
    let method = match m.organization.as_str() {
        "heap" => AccessMethod::Heap,
        "hash" => AccessMethod::Hash,
        "isam" => AccessMethod::Isam,
        other => {
            return Err(Error::Semantic(format!(
                "unknown storage organization {other:?}"
            )))
        }
    };
    let rel = catalog.get_mut(id);
    let key_attr = match (&m.key, method) {
        (_, AccessMethod::Heap) => None,
        (Some(k), _) => Some(rel.schema.index_of(k).ok_or_else(|| {
            Error::NoSuchAttribute(format!("{k} (relation {})", rel.name))
        })?),
        (None, _) => {
            return Err(Error::Semantic(format!(
                "modify to {method} requires `on <attribute>`"
            )))
        }
    };
    rel.modify(pager, method, key_attr, m.fillfactor.unwrap_or(100), hashfn)
}

/// Narrow a value to a domain, producing the stored representation.
fn narrow(domain: Domain, v: &Value) -> Result<Value> {
    // Integer-valued floats narrow to integer domains and vice versa.
    match (domain, v) {
        (d, Value::Int(_)) if d.is_integer() => Ok(v.clone()),
        (d, Value::Float(f)) if d.is_integer() && f.fract() == 0.0 => {
            Ok(Value::Int(*f as i64))
        }
        (d, _) if d.is_float() => Ok(v.clone()),
        _ => Ok(v.clone()),
    }
}

/// Default value for an unassigned explicit attribute (Quel zero/blank).
fn default_value(domain: Domain) -> Value {
    match domain {
        Domain::I1 | Domain::I2 | Domain::I4 => Value::Int(0),
        Domain::F4 | Domain::F8 => Value::Float(0.0),
        Domain::Char(_) => Value::Str(String::new()),
        Domain::Time => Value::Time(TimeVal::BEGINNING),
    }
}

/// Build a full stored row for an insert into `schema`: explicit values in
/// order, then the implicit time attributes.
pub(crate) fn build_stored_row(
    schema: &Schema,
    codec: &tdbms_kernel::RowCodec,
    explicit: &[Value],
    valid: TInterval,
    tx_start: TimeVal,
) -> Result<Vec<u8>> {
    let mut all: Vec<Value> = Vec::with_capacity(schema.arity());
    for (i, v) in explicit.iter().enumerate() {
        let d = schema.domain_of(i).expect("explicit index");
        let v = narrow(d, v)?;
        if !d.accepts(&v) {
            return Err(Error::BadValue(format!(
                "value {v} does not fit attribute {} ({d})",
                schema.name_of(i).unwrap_or("?")
            )));
        }
        all.push(v);
    }
    for t in schema.implicit_attrs() {
        all.push(Value::Time(match t {
            TemporalAttr::ValidFrom => valid.lo,
            TemporalAttr::ValidTo => valid.hi,
            TemporalAttr::ValidAt => valid.lo,
            TemporalAttr::TransactionStart => tx_start,
            TemporalAttr::TransactionStop => TimeVal::FOREVER,
        }));
    }
    codec.encode(&all)
}

/// Resolve an append/replace `valid` clause into the inserted version's
/// valid period, evaluated with any participating variables bound.
fn resolve_valid(
    binder: &Binder<'_>,
    valid: &Option<ast::ValidClause>,
    kind: TemporalKind,
    vars: &mut Vec<VarBinding>,
    slots: &[Slot],
) -> Result<TInterval> {
    match (valid, kind) {
        (None, TemporalKind::Interval) => {
            Ok(TInterval::new(binder.now, TimeVal::FOREVER))
        }
        (None, TemporalKind::Event) => Ok(TInterval::event(binder.now)),
        (Some(ast::ValidClause::Interval { from, to }), TemporalKind::Interval) => {
            let f = eval_texpr(&binder.bind_texpr(from, vars)?, slots)?;
            let t = eval_texpr(&binder.bind_texpr(to, vars)?, slots)?;
            Ok(TInterval::new(f.lo, t.hi))
        }
        (Some(ast::ValidClause::At(at)), TemporalKind::Event) => {
            let a = eval_texpr(&binder.bind_texpr(at, vars)?, slots)?;
            Ok(TInterval::event(a.lo))
        }
        (Some(ast::ValidClause::At(_)), TemporalKind::Interval) => {
            Err(Error::Semantic(
                "`valid at` applies to event relations; use `valid from .. to`"
                    .into(),
            ))
        }
        (Some(ast::ValidClause::Interval { .. }), TemporalKind::Event) => {
            Err(Error::Semantic(
                "`valid from .. to` applies to interval relations; use `valid at`"
                    .into(),
            ))
        }
    }
}

/// Execute `append`. Supports both constant appends and computed appends
/// whose assignment expressions range over other relations.
pub fn exec_append(
    pager: &Pager,
    catalog: &mut Catalog,
    ranges: &HashMap<String, String>,
    now: TimeVal,
    a: &ast::Append,
) -> Result<usize> {
    let id = catalog.require(&a.rel)?;
    let (schema, codec, class, kind) = {
        let rel = catalog.get(id);
        (
            rel.schema.clone(),
            rel.codec.clone(),
            rel.schema.class(),
            rel.schema.kind(),
        )
    };
    let binder = Binder {
        catalog,
        ranges,
        now,
    };

    // Bind assignments to explicit attributes.
    let explicit_len = schema.explicit_attrs().len();
    let mut vars: Vec<VarBinding> = Vec::new();
    let mut assigns: Vec<(usize, BExpr)> = Vec::new();
    for asg in &a.assignments {
        let idx = schema.index_of(&asg.attr).ok_or_else(|| {
            Error::NoSuchAttribute(format!(
                "{} (relation {})",
                asg.attr, a.rel
            ))
        })?;
        if idx >= explicit_len {
            return Err(Error::Semantic(format!(
                "cannot assign implicit time attribute {:?}; use the \
                 `valid` clause",
                asg.attr
            )));
        }
        if assigns.iter().any(|(i, _)| *i == idx) {
            return Err(Error::Semantic(format!(
                "attribute {:?} assigned twice",
                asg.attr
            )));
        }
        assigns.push((idx, binder.bind_expr(&asg.expr, &mut vars)?));
    }
    if a.valid.is_some() && !class.has_valid_time() {
        return Err(Error::NotApplicable(format!(
            "`valid` clause on a {class} relation"
        )));
    }

    let mut inserted = 0usize;
    if vars.is_empty() {
        // Constant append: one new tuple.
        if a.where_clause.is_some() || a.when_clause.is_some() {
            return Err(Error::Semantic(
                "append qualification references no tuple variables".into(),
            ));
        }
        let mut explicit: Vec<Value> = (0..explicit_len)
            .map(|i| default_value(schema.domain_of(i).expect("explicit")))
            .collect();
        for (idx, e) in &assigns {
            explicit[*idx] = eval_expr(e, &[])?;
        }
        let valid = resolve_valid(&binder, &a.valid, kind, &mut vars, &[])?;
        let row = build_stored_row(&schema, &codec, &explicit, valid, now)?;
        catalog.get_mut(id).insert_row(pager, &row)?;
        inserted = 1;
    } else {
        // Computed append: run the qualification as a retrieve whose
        // targets are the assignment expressions (plus the valid events),
        // then insert one tuple per result row.
        let mut targets: Vec<BoundTarget> = Vec::new();
        for (k, (idx, e)) in assigns.iter().enumerate() {
            targets.push(BoundTarget {
                name: format!("a{k}"),
                domain: schema.domain_of(*idx).expect("explicit"),
                expr: e.clone(),
                agg: None,
            });
        }
        let mut where_conjuncts = Vec::new();
        if let Some(w) = &a.where_clause {
            crate::binder::split_conjuncts(
                binder.bind_expr(w, &mut vars)?,
                &mut where_conjuncts,
            );
        }
        let mut when_conjuncts = Vec::new();
        if let Some(w) = &a.when_clause {
            crate::binder::split_tconjuncts(
                binder.bind_tpred(w, &mut vars)?,
                &mut when_conjuncts,
            );
        }
        let valid_bound = match &a.valid {
            Some(ast::ValidClause::Interval { from, to }) => Some((
                binder.bind_texpr(from, &mut vars)?,
                binder.bind_texpr(to, &mut vars)?,
            )),
            Some(ast::ValidClause::At(at)) => {
                let e = binder.bind_texpr(at, &mut vars)?;
                Some((e.clone(), e))
            }
            None => None,
        };
        let has_tx = vars.iter().any(|v| v.class.has_transaction_time());
        let bound = BoundRetrieve {
            vars: vars.clone(),
            targets,
            where_conjuncts,
            when_conjuncts,
            valid: valid_bound,
            visibility: has_tx.then(|| Visibility::at(now)),
            into: None,
            sort: Vec::new(),
        };
        // DML is guard-checked at admission only, so its inner query
        // runs unlimited (interrupting it would half-apply the append).
        let result = exec_retrieve(
            pager,
            catalog,
            &bound,
            &crate::guard::QueryGuard::none(),
        )?;
        let has_valid_cols = bound.valid.is_some();
        for row in result.rows {
            let mut explicit: Vec<Value> = (0..explicit_len)
                .map(|i| {
                    default_value(schema.domain_of(i).expect("explicit"))
                })
                .collect();
            for (k, (idx, _)) in assigns.iter().enumerate() {
                explicit[*idx] = row[k].clone();
            }
            let valid = if has_valid_cols {
                let n = row.len();
                let lo = row[n - 2].as_time().ok_or_else(|| {
                    Error::Internal("valid_from column not a time".into())
                })?;
                let hi = row[n - 1].as_time().ok_or_else(|| {
                    Error::Internal("valid_to column not a time".into())
                })?;
                TInterval::new(lo, hi)
            } else {
                match kind {
                    TemporalKind::Interval => {
                        TInterval::new(now, TimeVal::FOREVER)
                    }
                    TemporalKind::Event => TInterval::event(now),
                }
            };
            let stored =
                build_stored_row(&schema, &codec, &explicit, valid, now)?;
            catalog.get_mut(id).insert_row(pager, &stored)?;
            inserted += 1;
        }
    }
    pager.flush_all()?;
    Ok(inserted)
}

/// The versions a delete/replace operates on: versions current in both
/// transaction time and valid time.
fn current_version_conjuncts(schema: &Schema) -> Vec<BExpr> {
    let mut out = Vec::new();
    if let Some(idx) = schema.temporal_index(TemporalAttr::TransactionStop)
    {
        out.push(BExpr::Bin {
            op: ast::BinOp::Eq,
            lhs: Box::new(BExpr::Attr { var: 0, attr: idx }),
            rhs: Box::new(BExpr::Const(Value::Time(TimeVal::FOREVER))),
        });
    }
    if let Some(idx) = schema.temporal_index(TemporalAttr::ValidTo) {
        out.push(BExpr::Bin {
            op: ast::BinOp::Eq,
            lhs: Box::new(BExpr::Attr { var: 0, attr: idx }),
            rhs: Box::new(BExpr::Const(Value::Time(TimeVal::FOREVER))),
        });
    }
    out
}

/// Bind a single-variable DML qualification (delete/replace). The
/// variable being modified must be the only one referenced.
#[allow(clippy::type_complexity)]
fn bind_dml_qual(
    binder: &Binder<'_>,
    var: &str,
    where_clause: &Option<ast::Expr>,
    when_clause: &Option<ast::TemporalPred>,
) -> Result<(Vec<VarBinding>, Vec<BExpr>, Vec<BTPred>)> {
    let mut vars: Vec<VarBinding> = Vec::new();
    let vi = binder.resolve_var(var, &mut vars)?;
    debug_assert_eq!(vi, 0);
    let mut where_conjuncts = Vec::new();
    if let Some(w) = where_clause {
        crate::binder::split_conjuncts(
            binder.bind_expr(w, &mut vars)?,
            &mut where_conjuncts,
        );
    }
    let mut when_conjuncts = Vec::new();
    if let Some(w) = when_clause {
        crate::binder::split_tconjuncts(
            binder.bind_tpred(w, &mut vars)?,
            &mut when_conjuncts,
        );
    }
    if vars.len() > 1 {
        return Err(Error::Semantic(format!(
            "delete/replace qualification may only reference {var:?}"
        )));
    }
    Ok((vars, where_conjuncts, when_conjuncts))
}

/// Execute `delete`.
pub fn exec_delete(
    pager: &Pager,
    catalog: &mut Catalog,
    ranges: &HashMap<String, String>,
    now: TimeVal,
    d: &ast::Delete,
) -> Result<usize> {
    let binder = Binder {
        catalog,
        ranges,
        now,
    };
    let (vars, mut where_conjuncts, when_conjuncts) =
        bind_dml_qual(&binder, &d.var, &d.where_clause, &d.when_clause)?;
    let id = vars[0].rel;
    let (schema, codec, class, kind) = {
        let rel = catalog.get(id);
        (
            rel.schema.clone(),
            rel.codec.clone(),
            rel.schema.class(),
            rel.schema.kind(),
        )
    };

    // The deletion takes effect in valid time at this instant.
    let del_expr = match (&d.valid, kind) {
        (Some(ast::ValidClause::Interval { from, .. }), TemporalKind::Interval) => {
            Some(from)
        }
        (Some(ast::ValidClause::At(at)), TemporalKind::Event) => Some(at),
        (Some(ast::ValidClause::At(_)), TemporalKind::Interval) => {
            return Err(Error::Semantic(
                "`valid at` applies to event relations; use `valid from .. to`"
                    .into(),
            ))
        }
        (Some(ast::ValidClause::Interval { .. }), TemporalKind::Event) => {
            return Err(Error::Semantic(
                "`valid from .. to` applies to interval relations; use \
                 `valid at`"
                    .into(),
            ))
        }
        (None, _) => None,
    };
    let del_time = match del_expr {
        Some(e) => {
            if !class.has_valid_time() {
                return Err(Error::NotApplicable(format!(
                    "`valid` clause on a {class} relation"
                )));
            }
            let binder = Binder {
                catalog,
                ranges,
                now,
            };
            let mut tvars = Vec::new();
            let bound = binder.bind_texpr(e, &mut tvars)?;
            if !tvars.is_empty() {
                return Err(Error::Semantic(
                    "the `valid` clause of a delete may not reference tuple \
                     variables"
                        .into(),
                ));
            }
            eval_texpr(&bound, &[])?.lo
        }
        None => now,
    };

    where_conjuncts.extend(current_version_conjuncts(&schema));
    let mut slot = Slot {
        schema: schema.clone(),
        codec: codec.clone(),
        row: None,
    };
    let visible = class.has_transaction_time().then(|| Visibility::at(now));
    let (file, key_attr) = {
        let rel = catalog.get(id);
        (rel.file.clone(), rel.key_attr)
    };
    let targets = collect_matching(
        pager,
        &mut slot,
        &file,
        key_attr,
        visible,
        &where_conjuncts,
        &when_conjuncts,
    )?;

    let ts_stop = schema.temporal_index(TemporalAttr::TransactionStop);
    let valid_to = schema.temporal_index(TemporalAttr::ValidTo);
    let mut removed = 0u64;
    // Static deletes compact within pages: process highest slots first so
    // earlier removals do not move rows we still hold addresses for.
    let mut targets = targets;
    targets.sort_by_key(|t| std::cmp::Reverse(t.0));
    let affected = targets.len();
    for (tid, mut row) in targets {
        match class {
            DatabaseClass::Static => {
                file.delete(pager, tid)?;
                removed += 1;
            }
            DatabaseClass::Rollback => {
                codec.put_time(&mut row, ts_stop.expect("rollback"), now);
                file.update(pager, tid, &row)?;
            }
            DatabaseClass::Historical => match kind {
                TemporalKind::Interval => {
                    codec.put_time(
                        &mut row,
                        valid_to.expect("historical interval"),
                        del_time,
                    );
                    file.update(pager, tid, &row)?;
                }
                TemporalKind::Event => {
                    // An event relation has no valid period to close;
                    // without transaction time the only way to delete the
                    // record of the event is physically.
                    file.delete(pager, tid)?;
                    removed += 1;
                }
            },
            DatabaseClass::Temporal => {
                // Stamp the old version dead in transaction time...
                codec.put_time(&mut row, ts_stop.expect("temporal"), now);
                file.update(pager, tid, &row)?;
                // ...and insert the corrected version. For intervals it
                // records the end of validity; event facts are simply no
                // longer reasserted.
                if kind == TemporalKind::Interval {
                    let mut fresh = row.clone();
                    codec.put_time(
                        &mut fresh,
                        valid_to.expect("temporal interval"),
                        del_time,
                    );
                    codec.put_time(
                        &mut fresh,
                        schema
                            .temporal_index(TemporalAttr::TransactionStart)
                            .expect("temporal"),
                        now,
                    );
                    codec.put_time(
                        &mut fresh,
                        ts_stop.expect("temporal"),
                        TimeVal::FOREVER,
                    );
                    catalog.get_mut(id).insert_row(pager, &fresh)?;
                }
            }
        }
    }
    {
        let rel = catalog.get_mut(id);
        rel.tuple_count -= removed;
        // Physical removals compact pages, invalidating the tuple
        // addresses any secondary index holds.
        if removed > 0 && !rel.indexes.is_empty() {
            rel.rebuild_indexes(pager)?;
        }
    }
    pager.flush_all()?;
    Ok(affected)
}

/// Execute `replace`.
pub fn exec_replace(
    pager: &Pager,
    catalog: &mut Catalog,
    ranges: &HashMap<String, String>,
    now: TimeVal,
    r: &ast::Replace,
) -> Result<usize> {
    let binder = Binder {
        catalog,
        ranges,
        now,
    };
    let (mut vars, mut where_conjuncts, when_conjuncts) =
        bind_dml_qual(&binder, &r.var, &r.where_clause, &r.when_clause)?;
    let id = vars[0].rel;
    let (schema, codec, class, kind) = {
        let rel = catalog.get(id);
        (
            rel.schema.clone(),
            rel.codec.clone(),
            rel.schema.class(),
            rel.schema.kind(),
        )
    };
    let explicit_len = schema.explicit_attrs().len();

    // Bind assignments (they may reference the variable being replaced,
    // e.g. `replace h (seq = h.seq + 1)` — the benchmark's update round).
    let mut assigns: Vec<(usize, BExpr)> = Vec::new();
    for asg in &r.assignments {
        let idx = schema.index_of(&asg.attr).ok_or_else(|| {
            Error::NoSuchAttribute(format!(
                "{} (relation {})",
                asg.attr, r.var
            ))
        })?;
        if idx >= explicit_len {
            return Err(Error::Semantic(format!(
                "cannot assign implicit time attribute {:?}; use the \
                 `valid` clause",
                asg.attr
            )));
        }
        assigns.push((idx, binder.bind_expr(&asg.expr, &mut vars)?));
    }
    if vars.len() > 1 {
        return Err(Error::Semantic(format!(
            "replace assignments may only reference {:?}",
            r.var
        )));
    }
    if r.valid.is_some() && !class.has_valid_time() {
        return Err(Error::NotApplicable(format!(
            "`valid` clause on a {class} relation"
        )));
    }

    where_conjuncts.extend(current_version_conjuncts(&schema));
    let mut slot = Slot {
        schema: schema.clone(),
        codec: codec.clone(),
        row: None,
    };
    let visible = class.has_transaction_time().then(|| Visibility::at(now));
    let (file, key_attr) = {
        let rel = catalog.get(id);
        (rel.file.clone(), rel.key_attr)
    };
    let targets = collect_matching(
        pager,
        &mut slot,
        &file,
        key_attr,
        visible,
        &where_conjuncts,
        &when_conjuncts,
    )?;

    let ts_start = schema.temporal_index(TemporalAttr::TransactionStart);
    let ts_stop = schema.temporal_index(TemporalAttr::TransactionStop);
    let valid_to = schema.temporal_index(TemporalAttr::ValidTo);
    let valid_at = schema.temporal_index(TemporalAttr::ValidAt);

    let affected = targets.len();
    for (tid, mut row) in targets {
        // Evaluate assignments against the old version.
        slot.row = Some(row.clone());
        let slots = std::slice::from_ref(&slot);
        let mut new_explicit: Vec<Value> =
            (0..explicit_len).map(|i| codec.get(&row, i)).collect();
        for (idx, e) in &assigns {
            let d = schema.domain_of(*idx).expect("explicit");
            new_explicit[*idx] = narrow(d, &eval_expr(e, slots)?)?;
        }
        // The replacement's valid period.
        let new_valid = {
            let binder = Binder {
                catalog,
                ranges,
                now,
            };
            let mut vclone = vars.clone();
            resolve_valid(&binder, &r.valid, kind, &mut vclone, slots)?
        };
        slot.row = None;

        match class {
            DatabaseClass::Static => {
                let mut updated = row.clone();
                for (i, v) in new_explicit.iter().enumerate() {
                    codec.put(&mut updated, i, v)?;
                }
                file.update(pager, tid, &updated)?;
            }
            DatabaseClass::Rollback => {
                codec.put_time(&mut row, ts_stop.expect("rollback"), now);
                file.update(pager, tid, &row)?;
                let new_row = build_stored_row(
                    &schema,
                    &codec,
                    &new_explicit,
                    TInterval::new(TimeVal::BEGINNING, TimeVal::FOREVER),
                    now,
                )?;
                catalog.get_mut(id).insert_row(pager, &new_row)?;
            }
            DatabaseClass::Historical => match kind {
                TemporalKind::Interval => {
                    codec.put_time(
                        &mut row,
                        valid_to.expect("historical"),
                        new_valid.lo,
                    );
                    file.update(pager, tid, &row)?;
                    let new_row = build_stored_row(
                        &schema,
                        &codec,
                        &new_explicit,
                        TInterval::new(new_valid.lo, new_valid.hi),
                        now,
                    )?;
                    catalog.get_mut(id).insert_row(pager, &new_row)?;
                }
                TemporalKind::Event => {
                    // Correct the event in place (no transaction time to
                    // preserve the erroneous record under).
                    let mut updated = row.clone();
                    for (i, v) in new_explicit.iter().enumerate() {
                        codec.put(&mut updated, i, v)?;
                    }
                    codec.put_time(
                        &mut updated,
                        valid_at.expect("historical event"),
                        new_valid.lo,
                    );
                    file.update(pager, tid, &updated)?;
                }
            },
            DatabaseClass::Temporal => {
                // The paper's two-insert replace. First the `delete` part:
                codec.put_time(&mut row, ts_stop.expect("temporal"), now);
                file.update(pager, tid, &row)?;
                if kind == TemporalKind::Interval {
                    let mut closed = row.clone();
                    codec.put_time(
                        &mut closed,
                        valid_to.expect("temporal interval"),
                        new_valid.lo,
                    );
                    codec.put_time(
                        &mut closed,
                        ts_start.expect("temporal"),
                        now,
                    );
                    codec.put_time(
                        &mut closed,
                        ts_stop.expect("temporal"),
                        TimeVal::FOREVER,
                    );
                    catalog.get_mut(id).insert_row(pager, &closed)?;
                }
                // Then the new version.
                let new_row = build_stored_row(
                    &schema,
                    &codec,
                    &new_explicit,
                    new_valid,
                    now,
                )?;
                catalog.get_mut(id).insert_row(pager, &new_row)?;
            }
        }
    }
    {
        // Static replaces update explicit attributes in place; if any of
        // them is indexed the index entries are stale — rebuild.
        let rel = catalog.get_mut(id);
        if class == DatabaseClass::Static
            && affected > 0
            && assigns.iter().any(|(idx, _)| rel.index_on(*idx).is_some())
        {
            rel.rebuild_indexes(pager)?;
        }
    }
    pager.flush_all()?;
    Ok(affected)
}
