//! Data definition and modification: the extended `create`, `modify`,
//! `destroy`, `copy`, and the temporal semantics of `append` / `delete` /
//! `replace`.
//!
//! The update semantics are Section 4 of the paper, written once. An
//! **append** inserts a new version: `transaction_start = now`,
//! `transaction_stop = forever`, and the valid period of the `valid`
//! clause (default `now .. forever`, or `at now` for events). A
//! **delete** retires every current version as of valid time `at` (its
//! `valid` clause, default `now`); a **replace** retires each one as of
//! the new version's `valid_from`, then inserts the new version:
//!
//! | class      | kind     | delete: stamp in place   | delete: remove / closing version | replace adds |
//! |------------|----------|--------------------------|----------------------------------|--------------|
//! | static     | —        |                          | remove                           | new version (in place if the key is kept) |
//! | rollback   | —        | `transaction_stop = now` |                                  | new version  |
//! | historical | interval | `valid_to = at`          |                                  | new version  |
//! | historical | event    |                          | remove                           | new version (in place if the key is kept) |
//! | temporal   | interval | `transaction_stop = now` | closing version: `valid_to = at`, `transaction_start = now`, `transaction_stop = forever` | new version, after the closing one |
//! | temporal   | event    | `transaction_stop = now` |                                  | new version  |
//! | historical, temporal | interval, `valid` period ending before `"forever"` | refused | refused | refused |
//!
//! So a temporal interval replace inserts **two** versions — why the
//! paper's temporal databases grow at twice the rate of rollback and
//! historical ones. `retire` implements the delete columns;
//! `tests::section4_table` enumerates every cell. An interval version
//! whose valid period starts after `at` has nothing left to keep: a
//! historical one is removed, a temporal one gets its `transaction_stop`
//! and no closing version. No write stores a reversed valid period; a
//! `valid` clause that names one is refused.
//!
//! The last row: §4 retires a version at one valid instant and keeps
//! nothing after it, so a bounded period's end has nowhere to go. Rather
//! than drop it silently (or split the version, which §4 never does),
//! such a delete or replace fails with `NotApplicable`.
//!
//! All modifications of versioned relations are *append-only* except the
//! in-place stop-time stamping — the property that makes write-once
//! optical storage usable, as the paper notes.

use crate::binder::{split_conjuncts, Binder, Span};
use crate::bound::{
    result_columns, AsOf, BExpr, BoundRetrieve, BoundTarget, VarBinding,
    Visibility,
};
use crate::eval::{eval_expr, eval_time, Env, Slot};
use crate::exec::{exec_retrieve, ovqp, var_state};
use crate::guard::QueryGuard;
use crate::interval::TInterval;
use std::cmp::Reverse;
use std::collections::HashMap;
use tdbms_kernel::{
    AttrDef, DatabaseClass, Domain, Error, Result, RowCodec, Schema,
    TemporalAttr, TemporalKind, TimeVal, Value,
};
use tdbms_storage::{
    AccessMethod, Catalog, HashFn, IndexStructure, KeySpec, Pager, RelId,
    StoredRelation, TupleId,
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
    codec: &RowCodec,
    explicit: &[Value],
    valid: TInterval,
    tx_start: TimeVal,
) -> Result<Vec<u8>> {
    let mut all: Vec<Value> = Vec::with_capacity(schema.arity());
    for (i, v) in explicit.iter().enumerate() {
        let d = schema.domain_of(i).expect("explicit index");
        // Integer-valued floats narrow to integer domains.
        let v = match v {
            Value::Float(f) if d.is_integer() && f.fract() == 0.0 => {
                Value::Int(*f as i64)
            }
            _ => v.clone(),
        };
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

/// Bind the `valid` clause of an append, delete or replace on a relation
/// of `schema`, once per statement, into the `(from, to)` instants of the
/// period it names (`valid at e` names `e`'s endpoints). The one place
/// the clause's applicability is checked.
fn bind_valid(
    binder: &Binder<'_>,
    clause: &Option<ast::ValidClause>,
    schema: &Schema,
    vars: &mut Vec<VarBinding>,
) -> Result<Option<Span>> {
    let Some(clause) = clause else {
        return Ok(None);
    };
    let class = schema.class();
    if !class.has_valid_time() {
        return Err(Error::NotApplicable(format!(
            "`valid` clause on a {class} relation"
        )));
    }
    let (from, to) = match (clause, schema.kind()) {
        (ast::ValidClause::Interval { from, to }, TemporalKind::Interval) => {
            (from, to)
        }
        (ast::ValidClause::At(at), TemporalKind::Event) => (at, at),
        (ast::ValidClause::At(_), _) => {
            return Err(Error::Semantic(
                "`valid at` applies to event relations; use `valid from .. to`"
                    .into(),
            ))
        }
        (ast::ValidClause::Interval { .. }, _) => {
            return Err(Error::Semantic(
                "`valid from .. to` applies to interval relations; use `valid at`"
                    .into(),
            ))
        }
    };
    Ok(Some((
        binder.lower_texpr(from, vars)?.0,
        binder.lower_texpr(to, vars)?.1,
    )))
}

/// The valid period a bound `valid` clause names for the rows bound in
/// `env` — or, without a clause, `now .. forever` (`at now` for events),
/// `now` being `env`'s instant.
fn valid_period(
    valid: &Option<Span>,
    kind: TemporalKind,
    env: &Env,
) -> Result<TInterval> {
    let now = env.now;
    match (valid, kind) {
        (None, TemporalKind::Interval) => period(now, TimeVal::FOREVER),
        (None, TemporalKind::Event) => Ok(TInterval::event(now)),
        (Some((from, to)), TemporalKind::Interval) => {
            period(eval_time(from, env)?, eval_time(to, env)?)
        }
        (Some((at, _)), TemporalKind::Event) => {
            Ok(TInterval::event(eval_time(at, env)?))
        }
    }
}

/// The valid period `[from, to]` a write stores; refused when it ends
/// before it starts.
fn period(from: TimeVal, to: TimeVal) -> Result<TInterval> {
    if from > to {
        return Err(Error::Semantic(format!(
            "valid period from {from} to {to} ends before it starts"
        )));
    }
    Ok(TInterval::new(from, to))
}

/// The valid instant a `stmt` (delete or replace) retires as of: the
/// start of its valid period, which on an interval relation must run to
/// `"forever"` (the last row of the module doc's table).
fn retire_at(
    stmt: &str,
    kind: TemporalKind,
    valid: TInterval,
) -> Result<TimeVal> {
    if kind == TemporalKind::Interval && valid.hi != TimeVal::FOREVER {
        return Err(Error::NotApplicable(format!(
            "`{stmt}` with a valid period ending at {}: §4 retires a \
             version at one valid instant, so the period must run to \
             \"forever\"",
            valid.hi
        )));
    }
    Ok(valid.lo)
}

/// Bind the assignments of an append or replace into relation `id`: each
/// names an explicit attribute, at most once.
fn bind_assignments(
    binder: &Binder<'_>,
    id: RelId,
    assignments: &[ast::Assignment],
    vars: &mut Vec<VarBinding>,
) -> Result<Vec<(usize, BExpr)>> {
    let StoredRelation { name, schema, .. } = binder.catalog.get(id);
    let explicit_len = schema.explicit_attrs().len();
    let mut assigns: Vec<(usize, BExpr)> = Vec::new();
    for ast::Assignment { attr, expr } in assignments {
        let idx = schema.index_of(attr).ok_or_else(|| {
            Error::NoSuchAttribute(format!("{attr} (relation {name})"))
        })?;
        if idx >= explicit_len {
            return Err(Error::Semantic(format!(
                "cannot assign implicit time attribute {attr:?}; use the \
                 `valid` clause"
            )));
        }
        if assigns.iter().any(|(i, _)| *i == idx) {
            let msg = format!("attribute {attr:?} assigned twice");
            return Err(Error::Semantic(msg));
        }
        assigns.push((idx, binder.bind_expr(expr, vars)?));
    }
    Ok(assigns)
}

/// Bind a `where` and a `when` qualification into one conjunct list,
/// the `where` conjuncts first.
fn bind_qual(
    binder: &Binder<'_>,
    where_clause: &Option<ast::Expr>,
    when_clause: &Option<ast::TemporalPred>,
    vars: &mut Vec<VarBinding>,
) -> Result<Vec<BExpr>> {
    let mut conjuncts = Vec::new();
    if let Some(w) = where_clause {
        split_conjuncts(binder.bind_expr(w, vars)?, &mut conjuncts);
    }
    if let Some(w) = when_clause {
        binder.lower_when(w, vars, &mut conjuncts)?;
    }
    Ok(conjuncts)
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
    let rel = catalog.get(id);
    let (schema, codec) = (rel.schema.clone(), rel.codec.clone());
    let kind = schema.kind();
    let binder = Binder::new(catalog, ranges);
    let mut vars: Vec<VarBinding> = Vec::new();
    let assigns = bind_assignments(&binder, id, &a.assignments, &mut vars)?;
    let conjuncts =
        bind_qual(&binder, &a.where_clause, &a.when_clause, &mut vars)?;
    let valid = bind_valid(&binder, &a.valid, &schema, &mut vars)?;
    let explicit_defaults = || -> Vec<Value> {
        (0..schema.explicit_attrs().len())
            .map(|i| default_value(schema.domain_of(i).expect("explicit")))
            .collect()
    };

    if vars.is_empty() {
        // Constant append: one new tuple.
        if a.where_clause.is_some() || a.when_clause.is_some() {
            return Err(Error::Semantic(
                "append qualification references no tuple variables".into(),
            ));
        }
        let mut explicit = explicit_defaults();
        let consts = Env::at(now);
        for (idx, e) in &assigns {
            explicit[*idx] = eval_expr(e, &consts)?;
        }
        let valid = valid_period(&valid, kind, &consts)?;
        let row = build_stored_row(&schema, &codec, &explicit, valid, now)?;
        return insert_rows(pager, catalog.get_mut(id), &[row]);
    }
    // Computed append: run the qualification as a retrieve whose targets
    // are the assignment expressions (plus the valid events), build one
    // tuple per result row, then insert them all.
    let targets: Vec<BoundTarget> = assigns
        .iter()
        .enumerate()
        .map(|(k, (idx, e))| BoundTarget {
            name: format!("a{k}"),
            domain: schema.domain_of(*idx).expect("explicit"),
            expr: e.clone(),
            agg: None,
        })
        .collect();
    let has_tx = vars.iter().any(|v| v.class.has_transaction_time());
    let bound = BoundRetrieve {
        valid_end_floors: binder.valid_end_floors(&vars, &conjuncts),
        columns: result_columns(&targets, valid.is_some()),
        vars,
        targets,
        conjuncts,
        valid,
        as_of: has_tx.then(AsOf::now),
        into: None,
        sort: Vec::new(),
    };
    // DML is guard-checked at admission only, so its inner query runs
    // unlimited (interrupting it would half-apply the append).
    let guard = QueryGuard::none();
    let rows =
        exec_retrieve(pager, catalog, &bound, &[], now, &guard, false)?
            .rows;
    let default = valid_period(&None, kind, &Env::at(now))?;
    let stored = rows
        .into_iter()
        .map(|row| {
            // With a `valid` clause the period's two ends follow the
            // targets.
            let valid = match (&bound.valid, &row[assigns.len()..]) {
                (None, _) => default,
                (Some(_), [Value::Time(from), Value::Time(to)]) => {
                    period(*from, *to)?
                }
                _ => {
                    let msg = "valid period columns not times".into();
                    return Err(Error::Internal(msg));
                }
            };
            let mut explicit = explicit_defaults();
            for ((idx, _), v) in assigns.iter().zip(row) {
                explicit[*idx] = v;
            }
            build_stored_row(&schema, &codec, &explicit, valid, now)
        })
        .collect::<Result<Vec<_>>>()?;
    insert_rows(pager, catalog.get_mut(id), &stored)
}

/// Insert `rows`, each already built and checked, into `rel`; returns
/// their count. Every insert-only write (append, `copy from`, `retrieve
/// into`) computes its whole effect first and writes it here, so a value
/// that does not fit leaves the relation as it was.
pub(crate) fn insert_rows(
    pager: &Pager,
    rel: &mut StoredRelation,
    rows: &[Vec<u8>],
) -> Result<usize> {
    for row in rows {
        rel.insert_row(pager, row)?;
    }
    pager.flush_all()?;
    Ok(rows.len())
}

/// The versions row DML can still touch: those current in both
/// transaction time and valid time. This is the one definition of
/// "current" for delete and replace; a version failing it is history no
/// later statement stamps again, so it may be migrated out of the
/// primary file. [`tdbms_storage::Stamps::stays_in_primary`] is the same
/// rule over stored rows, at a cutoff instant: with `FOREVER` it keeps
/// exactly these versions, and a reorganization pass, cutting off at
/// its own instant, also keeps those an at-now query can still see.
fn current_version_conjuncts(schema: &Schema) -> Vec<BExpr> {
    [TemporalAttr::TransactionStop, TemporalAttr::ValidTo]
        .into_iter()
        .filter_map(|t| schema.temporal_index(t))
        .map(|attr| BExpr::Bin {
            op: ast::BinOp::Eq,
            lhs: Box::new(BExpr::Attr { var: 0, attr }),
            rhs: Box::new(BExpr::Const(Value::Time(TimeVal::FOREVER))),
        })
        .collect()
}

/// The current versions a delete or replace acts on, collected before any
/// of them is touched.
struct Targets {
    id: RelId,
    /// Range-table entries; entry 0 is the variable being modified.
    vars: Vec<VarBinding>,
    rows: Vec<(TupleId, Vec<u8>)>,
}

/// The delete/replace prologue: bind the single-variable qualification,
/// restrict it to the current versions, and collect those through the
/// query processor's access-path selection.
fn targets(
    pager: &Pager,
    binder: &Binder<'_>,
    now: TimeVal,
    var: &str,
    where_clause: &Option<ast::Expr>,
    when_clause: &Option<ast::TemporalPred>,
) -> Result<Targets> {
    let mut vars: Vec<VarBinding> = Vec::new();
    binder.resolve_var(var, &mut vars)?;
    let mut conjuncts =
        bind_qual(binder, where_clause, when_clause, &mut vars)?;
    if vars.len() > 1 {
        return Err(Error::Semantic(format!(
            "delete/replace qualification may only reference {var:?}"
        )));
    }
    let id = vars[0].rel;
    let rel = binder.catalog.get(id);
    conjuncts.extend(current_version_conjuncts(&rel.schema));
    let visible = vars[0].class.has_transaction_time();
    let (slot, mut rt) =
        var_state(rel, visible.then(|| Visibility::at(now)));
    // A migrated version is never current (`Stamps::stays_in_primary`
    // keeps every version these conjuncts admit), so the history sidecar
    // holds nothing to retire.
    rt.history = None;
    let mut env = Env {
        slots: vec![slot],
        params: &[],
        now,
    };
    let conjuncts: Vec<&BExpr> = conjuncts.iter().collect();
    let mut rows = Vec::new();
    let guard = QueryGuard::none();
    ovqp(pager, &mut env, &rt, 0, &conjuncts, &guard, |env, tid| {
        let tid = tid.expect("the primary file holds every target");
        let row = env.slots[0].row.clone().expect("bound in ovqp");
        rows.push((tid, row));
        Ok(())
    })?;
    Ok(Targets { id, vars, rows })
}

/// What retiring one current version does to the stored relation.
enum Retire {
    /// Overwrite the version in place with its stamped bytes.
    Stamp,
    /// Remove the version physically: the relation has no time attribute
    /// that could record its end.
    Remove,
    /// Stamp the version in place, then insert this closing version.
    Close(Vec<u8>),
}

/// True where the §4 table retires a version by removing it.
fn removes(schema: &Schema) -> bool {
    matches!(
        (schema.class(), schema.kind()),
        (DatabaseClass::Static, _)
            | (DatabaseClass::Historical, TemporalKind::Event)
    )
}

/// Retire one current version as of valid time `at` and transaction time
/// `now`: the module doc's table, stamping `row` where it stamps. A
/// version whose valid period starts after `at` has no part left to
/// keep: ending it at `at` would store a reversed period, so a
/// historical one is removed and a temporal one only stamped.
fn retire(
    schema: &Schema,
    codec: &RowCodec,
    row: &mut [u8],
    at: TimeVal,
    now: TimeVal,
) -> Retire {
    let stamp = |row: &mut [u8], attr: TemporalAttr, t: TimeVal| {
        let idx = schema.temporal_index(attr).expect("stamped attribute");
        codec.put_time(row, idx, t);
    };
    let starts_after = schema
        .temporal_index(TemporalAttr::ValidFrom)
        .is_some_and(|from| codec.get_time(row, from) > at);
    match (schema.class(), schema.kind()) {
        _ if removes(schema) => Retire::Remove,
        (DatabaseClass::Historical, _) if starts_after => Retire::Remove,
        (DatabaseClass::Historical, _) => {
            stamp(row, TemporalAttr::ValidTo, at);
            Retire::Stamp
        }
        (DatabaseClass::Temporal, TemporalKind::Interval)
            if !starts_after =>
        {
            stamp(row, TemporalAttr::TransactionStop, now);
            let mut closing = row.to_vec();
            stamp(&mut closing, TemporalAttr::ValidTo, at);
            stamp(&mut closing, TemporalAttr::TransactionStart, now);
            let forever = TimeVal::FOREVER;
            stamp(&mut closing, TemporalAttr::TransactionStop, forever);
            Retire::Close(closing)
        }
        // Rollback, and temporal events: an event fact is simply no
        // longer reasserted.
        _ => {
            stamp(row, TemporalAttr::TransactionStop, now);
            Retire::Stamp
        }
    }
}

/// What one target's retirement writes, computed before anything is.
struct Effect {
    tid: TupleId,
    /// The bytes that overwrite the version in place, or `None` to
    /// remove it.
    overwrite: Option<Vec<u8>>,
    /// The versions inserted after it: a closing version, then the new
    /// one.
    inserts: Vec<Vec<u8>>,
}

impl Targets {
    /// Retire every target at transaction time `now`, highest slot first
    /// if `highest_first`. `step` sees each target bound in the slot and
    /// names the valid time `at` it retires as of, and the new version a
    /// replace inserts after any closing version. A removed version whose
    /// key the new one keeps is overwritten by it in place instead.
    /// `reindex` marks a replace that assigns an indexed attribute: its
    /// in-place rewrites need the indexes rebuilt. Returns the count of
    /// targets.
    ///
    /// Two passes: the first computes every target's [`Effect`] without
    /// touching a page, so an evaluation error leaves the relation as it
    /// was; the second writes them in target order.
    fn retire_each(
        mut self,
        pager: &Pager,
        catalog: &mut Catalog,
        now: TimeVal,
        highest_first: bool,
        reindex: bool,
        mut step: impl FnMut(&Env) -> Result<(TimeVal, Option<Vec<u8>>)>,
    ) -> Result<usize> {
        let mut rows = std::mem::take(&mut self.rows);
        if highest_first {
            // Removals compact within pages: process highest slots first
            // so earlier removals do not move rows we still hold
            // addresses for.
            rows.sort_by_key(|(tid, _)| Reverse(*tid));
        }
        let rel = catalog.get(self.id);
        let mut env = Env {
            slots: vec![Slot::of(&rel.schema, &rel.codec)],
            params: &[],
            now,
        };
        let mut rewrote = false;
        let mut effects = Vec::with_capacity(rows.len());
        for (tid, row) in rows {
            env.slots[0].row = Some(row);
            let (at, new) = step(&env)?;
            let mut row = env.slots[0].row.take().expect("bound above");
            let retired =
                retire(&rel.schema, &rel.codec, &mut row, at, now);
            let (overwrite, inserts) = match (retired, new) {
                (Retire::Remove, Some(new))
                    if same_key(rel, &row, &new) =>
                {
                    rewrote = true;
                    (Some(new), Vec::new())
                }
                (Retire::Remove, new) => (None, Vec::from_iter(new)),
                (Retire::Stamp, new) => (Some(row), Vec::from_iter(new)),
                (Retire::Close(closing), new) => (
                    Some(row),
                    [Some(closing), new].into_iter().flatten().collect(),
                ),
            };
            effects.push(Effect {
                tid,
                overwrite,
                inserts,
            });
        }

        let affected = effects.len();
        let rel = catalog.get_mut(self.id);
        let mut removed = 0;
        for Effect {
            tid,
            overwrite,
            inserts,
        } in effects
        {
            match overwrite {
                Some(bytes) => rel.file.update(pager, tid, &bytes)?,
                None => {
                    rel.file.delete(pager, tid)?;
                    removed += 1;
                }
            }
            for row in inserts {
                rel.insert_row(pager, &row)?;
            }
        }
        rel.tuple_count -= removed;
        // Removals compact pages, invalidating the tuple addresses
        // secondary indexes hold.
        if (removed > 0 || (reindex && rewrote)) && !rel.indexes.is_empty()
        {
            rel.rebuild_indexes(pager)?;
        }
        pager.flush_all()?;
        Ok(affected)
    }
}

/// True if two rows of `rel` belong at the same place in its file.
fn same_key(rel: &StoredRelation, a: &[u8], b: &[u8]) -> bool {
    rel.key_attr.is_none_or(|k| {
        let key = KeySpec::for_attr(&rel.codec, k);
        key.extract(a) == key.extract(b)
    })
}

/// Execute `delete`: retire every current version that qualifies.
pub fn exec_delete(
    pager: &Pager,
    catalog: &mut Catalog,
    ranges: &HashMap<String, String>,
    now: TimeVal,
    d: &ast::Delete,
) -> Result<usize> {
    let binder = Binder::new(catalog, ranges);
    let t = targets(
        pager,
        &binder,
        now,
        &d.var,
        &d.where_clause,
        &d.when_clause,
    )?;
    // The deletion takes effect in valid time at this instant.
    let schema = &binder.catalog.get(t.id).schema;
    let mut tvars = Vec::new();
    let valid = bind_valid(&binder, &d.valid, schema, &mut tvars)?;
    if !tvars.is_empty() {
        return Err(Error::Semantic(
            "the `valid` clause of a delete may not reference tuple variables"
                .into(),
        ));
    }
    let kind = schema.kind();
    let valid = valid_period(&valid, kind, &Env::at(now))?;
    let at = retire_at("delete", kind, valid)?;
    t.retire_each(pager, catalog, now, true, false, |_| Ok((at, None)))
}

/// Execute `replace`: retire every current version that qualifies as of
/// the new version's `valid_from`, then append the updated version.
pub fn exec_replace(
    pager: &Pager,
    catalog: &mut Catalog,
    ranges: &HashMap<String, String>,
    now: TimeVal,
    r: &ast::Replace,
) -> Result<usize> {
    let binder = Binder::new(catalog, ranges);
    let mut t = targets(
        pager,
        &binder,
        now,
        &r.var,
        &r.where_clause,
        &r.when_clause,
    )?;
    // Assignments may reference the variable being replaced, e.g.
    // `replace h (seq = h.seq + 1)` — the benchmark's update round.
    let assigns =
        bind_assignments(&binder, t.id, &r.assignments, &mut t.vars)?;
    let schema = &binder.catalog.get(t.id).schema;
    let valid = bind_valid(&binder, &r.valid, schema, &mut t.vars)?;
    if t.vars.len() > 1 {
        let msg = format!("replace may only reference {:?}", r.var);
        return Err(Error::Semantic(msg));
    }
    let rel = catalog.get(t.id);
    let (explicit_len, kind) =
        (rel.schema.explicit_attrs().len(), rel.schema.kind());
    // A replace that may remove versions (a relation without transaction
    // time has no other way to retire one) and may give one a new key
    // moves it: like a delete, it then works highest slot first.
    let rekeys = |k: usize| {
        k >= explicit_len || assigns.iter().any(|(i, _)| *i == k)
    };
    let moves = !rel.schema.class().has_transaction_time()
        && rel.key_attr.is_some_and(rekeys);
    let reindex = assigns.iter().any(|(i, _)| rel.index_on(*i).is_some());
    t.retire_each(pager, catalog, now, moves, reindex, |env| {
        // The new version: the old one's explicit values, then the
        // assignments and the valid clause evaluated against the old one.
        let Slot { schema, codec, row } = &env.slots[0];
        let old = row.as_deref().expect("bound target");
        let mut explicit: Vec<Value> =
            (0..explicit_len).map(|i| codec.get(old, i)).collect();
        for (idx, e) in &assigns {
            explicit[*idx] = eval_expr(e, env)?;
        }
        let valid = valid_period(&valid, kind, env)?;
        let at = retire_at("replace", kind, valid)?;
        let new = build_stored_row(schema, codec, &explicit, valid, now)?;
        Ok((at, Some(new)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_tquel::{ast::Statement, parse_statement};

    /// Run one DDL/DML statement at transaction time `now`; returns the
    /// affected count or the statement's error.
    fn run(
        pager: &Pager,
        catalog: &mut Catalog,
        ranges: &HashMap<String, String>,
        now: TimeVal,
        src: &str,
    ) -> Result<usize> {
        match parse_statement(src).expect(src) {
            Statement::Create(c) => {
                exec_create(pager, catalog, &c).map(|_| 0)
            }
            Statement::Append(a) => {
                exec_append(pager, catalog, ranges, now, &a)
            }
            Statement::Delete(d) => {
                exec_delete(pager, catalog, ranges, now, &d)
            }
            Statement::Replace(r) => {
                exec_replace(pager, catalog, ranges, now, &r)
            }
            other => panic!("not a DDL/DML statement: {other:?}"),
        }
    }

    /// Stored versions: `x`, then the implicit time attributes.
    type Versions<'a> = &'a [(i64, &'a [TimeVal])];

    /// The module doc's §4 table, cell by cell: 4 classes × {interval,
    /// event} × {delete, replace}, where kind only matters for the two
    /// valid-time classes. One version (`x = 10`) is appended at `a`; the
    /// statement runs at `d` with a `valid` clause naming `v` where the
    /// class has valid time. Each cell lists every stored version in slot
    /// order — the slot-0 version is the one retired in place — as `x`
    /// followed by the implicit time attributes in storage order. The
    /// last row's cells (`delete to e`, `replace to e`) give the interval
    /// period the end `e` instead of `"forever"`: refused, they leave the
    /// appended version alone.
    #[test]
    fn section4_table() {
        let time = |s: &str| TimeVal::parse(s).expect(s);
        let (a, d, v) = (time("1/1/80"), time("2/1/80"), time("1/15/80"));
        let valid = |kind: &str, to: &str| match kind {
            "interval" => format!(r#"valid from "1/15/80" to "{to}""#),
            "event" => r#"valid at "1/15/80""#.to_string(),
            _ => String::new(),
        };
        let f = TimeVal::FOREVER;
        let (old, new) = (10, 11);
        #[rustfmt::skip]
        let cells: &[(&str, &str, &str, Versions)] = &[
            // class, kind, statement: versions after it
            ("static", "", "delete", &[]),
            ("static", "", "replace", &[(new, &[])]),
            ("rollback", "", "delete", &[(old, &[a, d])]),
            ("rollback", "", "replace", &[(old, &[a, d]), (new, &[d, f])]),
            ("historical", "interval", "delete", &[(old, &[a, v])]),
            ("historical", "interval", "replace",
                &[(old, &[a, v]), (new, &[v, f])]),
            ("historical", "event", "delete", &[]),
            ("historical", "event", "replace", &[(new, &[v])]),
            ("temporal", "interval", "delete",
                &[(old, &[a, f, a, d]), (old, &[a, v, d, f])]),
            ("temporal", "interval", "replace",
                &[(old, &[a, f, a, d]), (old, &[a, v, d, f]),
                  (new, &[v, f, d, f])]),
            ("temporal", "event", "delete", &[(old, &[a, a, d])]),
            ("temporal", "event", "replace",
                &[(old, &[a, a, d]), (new, &[v, d, f])]),
            ("historical", "interval", "delete to 1/20/80", &[(old, &[a, f])]),
            ("historical", "interval", "replace to 1/20/80", &[(old, &[a, f])]),
            ("temporal", "interval", "delete to 1/20/80",
                &[(old, &[a, f, a, f])]),
            ("temporal", "interval", "replace to 1/20/80",
                &[(old, &[a, f, a, f])]),
        ];
        for &(class, kind, cell_op, expected) in cells {
            let cell = format!("{class} {kind} {cell_op}");
            let (op, to) =
                cell_op.split_once(" to ").unwrap_or((cell_op, "forever"));
            let pager = Pager::in_memory();
            let mut catalog = Catalog::new();
            let ranges = HashMap::from([("v".to_owned(), "r".to_owned())]);
            let mut go = |now, src: &str| {
                run(&pager, &mut catalog, &ranges, now, src)
            };
            go(a, &format!("create {class} {kind} r (x = i4)")).unwrap();
            go(a, &format!("append to r (x = {old})")).unwrap();
            let valid = valid(kind, to);
            let stmt = match op {
                "delete" => format!("delete v {valid} where v.x = {old}"),
                _ => format!(
                    "replace v (x = {new}) {valid} where v.x = {old}"
                ),
            };
            match go(d, &stmt) {
                Ok(n) if to == "forever" => {
                    assert_eq!(n, 1, "{cell}: affected")
                }
                Err(Error::NotApplicable(m))
                    if to != "forever" && m.contains(op) => {}
                other => panic!("{cell}: {stmt}: {other:?}"),
            }

            let rel = catalog.get(catalog.require("r").unwrap());
            let mut scan = rel.file.scan();
            let mut stored = Vec::new();
            while let Some((_, row)) = scan.next(&pager, &rel.file).unwrap()
            {
                stored.push(rel.codec.decode(row).unwrap());
            }
            let expected: Vec<Vec<Value>> = expected
                .iter()
                .map(|(x, times)| {
                    let times = times.iter().map(|t| Value::Time(*t));
                    std::iter::once(Value::Int(*x)).chain(times).collect()
                })
                .collect();
            assert_eq!(stored, expected, "{cell}: stored versions");
            assert_eq!(rel.tuple_count, expected.len() as u64, "{cell}");
        }
    }
}
