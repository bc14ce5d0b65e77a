//! The query processor: Ingres-style decomposition over the one-variable
//! query processor (OVQP).
//!
//! A multi-variable retrieve is processed exactly the way the paper
//! describes its prototype doing it:
//!
//! 1. **One-variable detachment** — every variable with one-variable
//!    restrictions is evaluated first: its relation is read through the
//!    best access path (hashed/ISAM keyed access when a key-equality
//!    conjunct exists, sequential scan otherwise), rollback visibility is
//!    applied, and the qualifying versions are projected into a temporary
//!    (a heap on a pager scratch file, private to the statement and
//!    unknown to the catalog and the log). Writing the temporary is the
//!    query's *output cost*; reading it back during substitution is part
//!    of its input cost, as in the paper's accounting.
//! 2. **Tuple substitution** — the remaining variables are joined by
//!    nested iteration, innermost the variables whose relations become
//!    keyed-accessible once outer tuples are bound (`h.id = i.amount`
//!    turns into a hashed access on `h` for each `i` tuple).
//!
//! The qualification is one conjunct list: the `where` clause's, then
//! the `when` clause lowered by the binder to comparisons over the
//! valid-time attributes. Each conjunct is evaluated at the outermost
//! level where all its variables are bound.

use crate::binder::row_tx_period;
use crate::bound::{BExpr, BoundRetrieve, BoundTarget, Visibility};
use crate::eval::{eval_expr, qualifies, Env, Slot};
use crate::guard::QueryGuard;
use std::borrow::Cow;
use std::sync::Arc;
use tdbms_kernel::{
    AttrDef, Domain, Error, Result, RowCodec, Schema, TimeVal, Value,
};
use tdbms_storage::catalog::NamedIndex;
use tdbms_storage::{
    Catalog, ClusteredHistory, FileId, HeapAppender, HeapFile, Pager,
    PhaseIo, RelFile, RelLookup, RelScan, StatScope, StoredRelation,
    TupleId,
};
use tdbms_tquel::ast::BinOp;
use tdbms_tquel::token::Literal;

/// Page-access accounting for one executed statement.
///
/// `input_pages`/`output_pages` are the paper's two columns; the buffer
/// manager adds the hit/eviction counters and, for decomposed retrieves,
/// the per-phase attribution. All of it is read off the statement's own
/// [`StatScope`], so it holds exactly what the executing thread did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Pages read from user relations (including temporaries) — the
    /// paper's *input cost*.
    pub input_pages: u64,
    /// Pages written (temporaries, `into` relations, DML) — the paper's
    /// *output cost*.
    pub output_pages: u64,
    /// Buffered accesses satisfied without a disk fetch.
    pub buffer_hits: u64,
    /// Frames evicted under capacity pressure.
    pub evictions: u64,
    /// Named execution phases (`"decomposition"`, `"substitution"`) with
    /// their I/O deltas; empty for statements that don't decompose.
    pub phases: Vec<PhaseIo>,
}

impl QueryStats {
    /// What the statement that ran inside `scope` cost.
    pub(crate) fn of(scope: &StatScope) -> QueryStats {
        let io = scope.total();
        debug_assert!(io.is_consistent(), "unbalanced ledger: {io:?}");
        QueryStats {
            input_pages: io.reads,
            output_pages: io.writes,
            buffer_hits: io.hits,
            evictions: io.evictions,
            phases: scope.phases(),
        }
    }

    /// The aggregate I/O of every recorded phase named `name` (all-zero
    /// if the phase never ran).
    pub fn scoped(&self, name: &str) -> PhaseIo {
        let mut out = PhaseIo {
            name: name.to_string(),
            ..Default::default()
        };
        for p in self.phases.iter().filter(|p| p.name == name) {
            out.reads += p.reads;
            out.writes += p.writes;
            out.hits += p.hits;
            out.evictions += p.evictions;
        }
        out
    }
}

/// The rows and column shape a retrieve produced.
#[derive(Debug, Clone)]
pub struct RetrieveResult {
    /// Result column names and domains.
    pub columns: Arc<[(String, Domain)]>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

/// Per-variable runtime state during execution. Everything is borrowed
/// from the catalog until detachment moves the variable to its
/// temporary.
pub(crate) struct VarRt<'a> {
    /// The file the variable ranges over: its relation's, or its
    /// detachment temporary.
    pub(crate) file: Cow<'a, RelFile>,
    pub(crate) key_attr: Option<usize>,
    pub(crate) indexes: &'a [NamedIndex],
    visible: Option<Visibility>,
    /// The scratch file of this variable's detachment temporary.
    temp: Option<FileId>,
    /// Clustered history sidecar holding versions online reorganization
    /// migrated out of the primary file. Read only when the query can
    /// reach a migrated version (see [`ovqp`]), which keeps at-now
    /// retrievals at primary-only page cost.
    pub(crate) history: Option<&'a ClusteredHistory>,
    /// The instant the statement forces this variable's valid end to
    /// reach, evaluated once per execution (only for a relation with a
    /// sidecar): [`BoundRetrieve::valid_end_floors`].
    valid_floor: Option<TimeVal>,
}

/// The evaluation slot and runtime state of one variable ranging over
/// `stored`, seeing the versions `visible` admits (`None`: every one).
/// Both borrow `stored`. Every reader of a relation — a retrieve's
/// variables and DML's targets — starts from this.
pub(crate) fn var_state(
    stored: &StoredRelation,
    visible: Option<Visibility>,
) -> (Slot<'_>, VarRt<'_>) {
    let slot = Slot::of(&stored.schema, &stored.codec);
    let rt = VarRt {
        file: Cow::Borrowed(&stored.file),
        key_attr: stored.key_attr,
        indexes: &stored.indexes,
        visible,
        temp: None,
        history: stored.history.as_deref(),
        valid_floor: None,
    };
    (slot, rt)
}

/// Execute a bound retrieve by decomposition: detach every variable
/// [`detachable_vars`] names, in that order, then substitute. Returns
/// the result rows; the caller reads the pager's
/// [`tdbms_storage::IoStats`] for costs and handles `into`. `params`
/// are the literals the bound retrieve's parameter slots
/// ([`BExpr::Param`]) stand for. `bound` is only read, so one cached
/// template serves any number of concurrent executions.
///
/// The catalog is only read. A single-variable retrieve never
/// decomposes. A multi-variable retrieve materializes its projection
/// temporaries on pager scratch files, which no catalog or log ever
/// sees, and drops every one of them before returning, whether the
/// statement succeeded or failed. So every caller — the serial
/// `Database`, DML's inner queries and the engine's snapshot path —
/// runs the same code over a shared catalog, durable or not.
///
/// `quiet` is the calling path's choice. The serial `Database` passes
/// `false`: buffers are invalidated after decomposition, so the join
/// phase starts cold as the figures assume. The engine's snapshot path
/// passes `true`, leaving other sessions' warm frames alone.
pub fn exec_retrieve(
    pager: &Pager,
    catalog: &Catalog,
    bound: &BoundRetrieve,
    params: &[Literal],
    guard: &QueryGuard,
    quiet: bool,
) -> Result<RetrieveResult> {
    let mut p = prepare(catalog, bound, params, guard);
    if bound.vars.len() < 2 {
        return run_joins(pager, p);
    }
    let decomposed = decompose(pager, &mut p, quiet);
    let temps: Vec<FileId> =
        p.rts.iter().filter_map(|rt| rt.temp).collect();
    // Aggregation and sorting are CPU-only, so dropping the
    // temporaries after them leaves the statement's I/O sequence as
    // the paper counts it.
    let result = decomposed.and_then(|()| run_joins(pager, p));
    for file in temps {
        let dropped = pager.drop_file(file);
        if result.is_ok() {
            dropped?;
        }
    }
    result
}

/// Everything the join phases need, derived from the bound retrieve with
/// only shared catalog access. It borrows the bound retrieve and the
/// catalog; what decomposition rewrites — a detached variable's schema,
/// codec and file, and the expressions that reference it — it copies
/// first, so the shared template is never written.
pub(crate) struct Prepared<'a> {
    pub(crate) b: &'a BoundRetrieve,
    /// The output columns.
    targets: Cow<'a, [BoundTarget]>,
    /// The output valid period.
    valid: Option<(Cow<'a, BExpr>, Cow<'a, BExpr>)>,
    /// One evaluation slot per variable, none bound before the joins,
    /// and the statement's literals.
    pub(crate) env: Env<'a>,
    pub(crate) rts: Vec<VarRt<'a>>,
    /// The qualification's conjuncts.
    pub(crate) conjuncts: Vec<Cow<'a, BExpr>>,
    /// The caller's per-query limits, polled at row granularity.
    guard: &'a QueryGuard,
}

pub(crate) fn prepare<'a>(
    catalog: &'a Catalog,
    b: &'a BoundRetrieve,
    params: &'a [Literal],
    guard: &'a QueryGuard,
) -> Prepared<'a> {
    let (slots, mut rts): (Vec<Slot>, Vec<VarRt>) = b
        .vars
        .iter()
        .map(|v| {
            let visible = v.class.has_transaction_time();
            var_state(catalog.get(v.rel), b.visibility.filter(|_| visible))
        })
        .unzip();
    let env = Env { slots, params };
    for (rt, floor) in rts.iter_mut().zip(&b.valid_end_floors) {
        rt.valid_floor = rt.history.and(floor.as_ref()).and_then(|e| {
            match eval_expr(e, &env) {
                Ok(Value::Time(t)) => Some(t),
                _ => None,
            }
        });
    }

    let conjuncts = b.conjuncts.iter().map(Cow::Borrowed).collect();

    Prepared {
        b,
        targets: Cow::Borrowed(&b.targets),
        valid: b
            .valid
            .as_ref()
            .map(|(from, to)| (Cow::Borrowed(from), Cow::Borrowed(to))),
        env,
        rts,
        conjuncts,
        guard,
    }
}

/// The variables phase 1 will detach, in ascending variable position:
/// each needs a one-variable conjunct to consume, and its projection
/// must not lose transaction time the query still references. The set
/// is a property of the *bound query alone* — detaching one variable
/// never changes another's eligibility (own conjuncts removed by a
/// detachment belong to that variable only, and remapping rewrites only
/// the detached variable's attributes).
pub(crate) fn detachable_vars(p: &Prepared) -> Vec<usize> {
    use tdbms_kernel::TemporalAttr::{TransactionStart, TransactionStop};
    (0..p.b.vars.len())
        .filter(|&v| {
            let has_own = p.conjuncts.iter().any(|c| c.references_only(v));
            // A projection would lose transaction time; such a variable
            // keeps its original relation.
            let schema = &p.env.slots[v].schema;
            let tx = [TransactionStart, TransactionStop]
                .map(|t| schema.temporal_index(t));
            let needs_tx = still_needed(&p.targets, &p.conjuncts, v)
                .iter()
                .any(|a| tx.contains(&Some(*a)));
            has_own && !needs_tx
        })
        .collect()
}

/// The stored attributes of `v` still referenced once `v` is detached:
/// from the targets, and from the conjuncts that are not `v`'s own (the
/// detachment consumes those). Sorted, without duplicates.
fn still_needed(
    targets: &[BoundTarget],
    conjuncts: &[Cow<BExpr>],
    v: usize,
) -> Vec<usize> {
    let mut refs: Vec<(usize, usize)> = Vec::new();
    for t in targets {
        t.expr.collect_attrs(&mut refs);
    }
    for c in conjuncts {
        if !c.references_only(v) {
            c.collect_attrs(&mut refs);
        }
    }
    let mut attrs: Vec<usize> = refs
        .into_iter()
        .filter(|(var, _)| *var == v)
        .map(|(_, a)| a)
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs
}

/// Rewrite `e`'s attribute references of `v` through `map`, copying a
/// borrowed expression only when it has one to rewrite.
fn remap(e: &mut Cow<BExpr>, v: usize, map: &[(usize, usize)]) {
    if e.references(v) {
        e.to_mut().remap_attrs(v, map);
    }
}

/// Phase 1: one-variable detachment. Materializes the projection of
/// each of [`detachable_vars`] into a temporary on a scratch file
/// (recorded in `rts[v].temp` as soon as it exists, so the caller can
/// drop it even if this fails) and points the variable and the
/// expressions that reference it at the temporary.
fn decompose(pager: &Pager, p: &mut Prepared, quiet: bool) -> Result<()> {
    let order = detachable_vars(p);
    let Prepared {
        b,
        targets,
        valid,
        env,
        rts,
        conjuncts,
        guard,
    } = p;
    pager.begin_phase("decomposition");
    for v in order {
        let schema = &env.slots[v].schema;
        let explicit_len = schema.explicit_attrs().len();
        let mut needed: Vec<usize> = still_needed(targets, conjuncts, v)
            .into_iter()
            .filter(|&a| a < explicit_len)
            .collect();
        if needed.is_empty() {
            needed.push(0);
        }

        // Temp schema: projected explicit attributes; valid time comes
        // along implicitly when the source has it.
        let src_class = b.vars[v].class;
        let temp_class = if src_class.has_valid_time() {
            tdbms_kernel::DatabaseClass::Historical
        } else {
            tdbms_kernel::DatabaseClass::Static
        };
        let temp_schema = Schema::new(
            needed
                .iter()
                .map(|&a| {
                    AttrDef::new(
                        schema.name_of(a).expect("in range"),
                        schema.domain_of(a).expect("in range"),
                    )
                })
                .collect(),
            temp_class,
            b.vars[v].kind,
        )?;
        let temp_codec = RowCodec::new(&temp_schema);
        let file = pager.create_scratch_file()?;
        rts[v].temp = Some(file);
        let temp_file = HeapFile::attach(file, temp_schema.row_width());
        let mut temp = HeapAppender::new(pager, temp_file)?;

        // Remap table: old stored index -> new stored index, covering
        // projected explicit attrs and the implicit valid attrs.
        let mut map: Vec<(usize, usize)> = needed
            .iter()
            .enumerate()
            .map(|(new, old)| (*old, new))
            .collect();
        for t in schema.implicit_attrs() {
            if let (Some(old), Some(new)) =
                (schema.temporal_index(*t), temp_schema.temporal_index(*t))
            {
                map.push((old, new));
            }
        }

        // Run the one-variable query, materializing the projection
        // through one row buffer.
        let own: Vec<&BExpr> = conjuncts
            .iter()
            .filter(|c| c.references_only(v))
            .map(|c| &**c)
            .collect();
        let mut out = vec![0u8; temp_codec.width()];
        ovqp(pager, env, &rts[v], v, &own, guard, |env, _| {
            // Project the bound row into the temp layout.
            let src = &env.slots[v];
            let row_bytes = src.row.as_deref().expect("bound in ovqp");
            out.fill(0);
            for (old, new) in &map {
                let val = src.codec.get(row_bytes, *old);
                temp_codec.put(&mut out, *new, &val)?;
            }
            temp.insert(pager, &out)?;
            Ok(())
        })?;

        // Swap the variable to the temporary.
        env.slots[v].schema = Cow::Owned(temp_schema);
        env.slots[v].codec = Cow::Owned(temp_codec);
        rts[v].file = Cow::Owned(RelFile::Heap(temp_file));
        rts[v].key_attr = None;
        rts[v].indexes = &[];
        rts[v].visible = None;
        rts[v].history = None;

        // Consume this variable's own conjuncts and remap the rest.
        conjuncts.retain(|c| !c.references_only(v));
        if targets.iter().any(|t| t.expr.references(v)) {
            for t in targets.to_mut() {
                t.expr.remap_attrs(v, &map);
            }
        }
        for c in conjuncts.iter_mut() {
            remap(c, v, &map);
        }
        if let Some((from, to)) = valid {
            remap(from, v, &map);
            remap(to, v, &map);
        }
    }
    // Temporaries are fully written; start the join phase with cold
    // buffers (also flushes the temps, counting their output pages —
    // attributed to the decomposition phase, which produced them).
    // A quiet (snapshot) execution must not touch other sessions'
    // warm frames, so it keeps its temporaries buffered instead: the
    // join reads them straight from the pool and the drop at the
    // end discards frames and file together.
    if !quiet {
        pager.invalidate_buffers()?;
    }
    pager.end_phase();
    Ok(())
}

/// Phases 2–4: variable ordering, conjunct leveling, nested-iteration
/// substitution, then aggregation and sorting. Needs no catalog access at
/// all — by this point every variable is a resolved [`RelFile`].
fn run_joins(pager: &Pager, p: Prepared) -> Result<RetrieveResult> {
    let Prepared {
        b,
        targets,
        valid,
        mut env,
        rts,
        conjuncts,
        guard,
    } = p;
    let nvars = b.vars.len();

    // ---- Phase 2: variable ordering ------------------------------------
    // Variables that become keyed-accessible through a join conjunct go
    // innermost; everything else keeps first-use order.
    let is_keyed_join = |v: usize| -> bool {
        rts[v].key_attr.is_some()
            && conjuncts.iter().any(|c| {
                c.references(v)
                    && key_probe_shape(c, v, rts[v].key_attr).is_some()
            })
    };
    let mut order: Vec<usize> = (0..nvars).collect();
    order.sort_by_key(|&v| (is_keyed_join(v), v));

    // ---- Phase 3: conjunct levels ---------------------------------------
    // `levels[d]` holds the conjuncts evaluated at join depth `d`, in
    // qualification order.
    let pos_of = |v: usize| order.iter().position(|&x| x == v).unwrap_or(0);
    let mut levels: Vec<Vec<&BExpr>> = vec![Vec::new(); nvars.max(1)];
    for c in &conjuncts {
        let mut lvl = 0;
        c.each_attr(&mut |v, _| lvl = lvl.max(pos_of(v)));
        levels[lvl].push(c);
    }

    // ---- Phase 4: nested iteration --------------------------------------
    // The answer's columns were fixed at bind time, the implicit
    // valid-time ones included.
    let columns = b.columns.clone();
    let add_from = b.implicit_column("valid_from");
    let add_to = b.implicit_column("valid_to");

    let mut rows: Vec<Vec<Value>> = Vec::new();
    if nvars >= 2 {
        pager.begin_phase("substitution");
    }
    join_level(
        pager,
        &mut env,
        &rts,
        &order,
        0,
        &levels,
        guard,
        &mut |env| {
            guard.check_rows(rows.len())?;
            let mut row = Vec::with_capacity(columns.len());
            for t in targets.iter() {
                row.push(eval_expr(&t.expr, env)?);
            }
            if let Some((from, to)) = &valid {
                if add_from {
                    row.push(eval_expr(from, env)?);
                }
                if add_to {
                    row.push(eval_expr(to, env)?);
                }
            }
            rows.push(row);
            Ok(())
        },
    )?;
    if nvars >= 2 {
        pager.end_phase();
    }

    // Aggregation pass: group by the non-aggregate targets and fold the
    // aggregate columns (the rows currently hold each aggregate's raw
    // argument value).
    if targets.iter().any(|t| t.agg.is_some()) {
        rows = aggregate_rows(&targets, rows)?;
    }

    // `sort by` over result columns (a stable sort; incomparable values
    // keep their relative order rather than erroring mid-sort).
    if !b.sort.is_empty() {
        rows.sort_by(|a, r| {
            for (idx, desc) in &b.sort {
                let ord = a[*idx]
                    .compare(&r[*idx])
                    .unwrap_or(std::cmp::Ordering::Equal);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    Ok(RetrieveResult { columns, rows })
}

/// Fold raw result rows into one row per group. Group keys are the
/// non-aggregate target positions; rows are sorted by key (Quel-style
/// deterministic output) and folded in runs.
fn aggregate_rows(
    targets: &[BoundTarget],
    mut rows: Vec<Vec<Value>>,
) -> Result<Vec<Vec<Value>>> {
    use tdbms_tquel::ast::AggFunc;
    let key_idx: Vec<usize> = targets
        .iter()
        .enumerate()
        .filter(|(_, t)| t.agg.is_none())
        .map(|(i, _)| i)
        .collect();

    let cmp_keys =
        |a: &Vec<Value>, b: &Vec<Value>| -> Result<std::cmp::Ordering> {
            for &i in &key_idx {
                let ord = a[i].compare(&b[i]).ok_or_else(|| {
                    Error::BadValue(format!(
                        "cannot group by incomparable values {} / {}",
                        a[i], b[i]
                    ))
                })?;
                if ord != std::cmp::Ordering::Equal {
                    return Ok(ord);
                }
            }
            Ok(std::cmp::Ordering::Equal)
        };
    // Sort; comparison errors surface afterwards via the run folding.
    rows.sort_by(|a, b| {
        cmp_keys(a, b).unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut i = 0;
    while i < rows.len() {
        let mut j = i + 1;
        while j < rows.len()
            && cmp_keys(&rows[i], &rows[j])? == std::cmp::Ordering::Equal
        {
            j += 1;
        }
        let group = &rows[i..j];
        let mut folded: Vec<Value> = Vec::with_capacity(targets.len());
        for (k, t) in targets.iter().enumerate() {
            let v = match t.agg {
                None => group[0][k].clone(),
                Some(AggFunc::Count) => Value::Int(group.len() as i64),
                Some(AggFunc::Sum) => fold_sum(group, k)?,
                Some(AggFunc::Avg) => {
                    let sum = fold_sum(group, k)?;
                    Value::Float(
                        sum.as_f64().expect("sum is numeric")
                            / group.len() as f64,
                    )
                }
                Some(AggFunc::Min) => fold_extreme(group, k, true)?,
                Some(AggFunc::Max) => fold_extreme(group, k, false)?,
            };
            folded.push(v);
        }
        out.push(folded);
        i = j;
    }

    // An empty input with no grouping keys still has well-defined counts
    // and sums (zero); min/max/avg of nothing is an error the user can fix
    // by adding a qualification.
    if out.is_empty() && key_idx.is_empty() {
        let mut folded: Vec<Value> = Vec::with_capacity(targets.len());
        for t in targets {
            use tdbms_tquel::ast::AggFunc as A;
            folded.push(match t.agg {
                Some(A::Count) => Value::Int(0),
                Some(A::Sum) if t.domain.is_float() => Value::Float(0.0),
                Some(A::Sum) => Value::Int(0),
                Some(A::Avg | A::Min | A::Max) => {
                    return Err(Error::BadValue(format!(
                        "{} of an empty set",
                        t.agg.expect("aggregate").as_str()
                    )))
                }
                None => unreachable!("no grouping keys"),
            });
        }
        out.push(folded);
    }
    Ok(out)
}

fn fold_sum(group: &[Vec<Value>], k: usize) -> Result<Value> {
    let mut int_sum: i64 = 0;
    let mut float_sum: f64 = 0.0;
    let mut saw_float = false;
    for row in group {
        match &row[k] {
            Value::Int(i) => {
                int_sum = int_sum.checked_add(*i).ok_or_else(|| {
                    Error::BadValue("sum overflows".into())
                })?
            }
            Value::Float(f) => {
                saw_float = true;
                float_sum += f;
            }
            other => {
                return Err(Error::BadValue(format!(
                    "sum over non-numeric value {other}"
                )))
            }
        }
    }
    Ok(if saw_float {
        Value::Float(float_sum + int_sum as f64)
    } else {
        Value::Int(int_sum)
    })
}

fn fold_extreme(
    group: &[Vec<Value>],
    k: usize,
    min: bool,
) -> Result<Value> {
    let mut best = group[0][k].clone();
    for row in &group[1..] {
        let ord = row[k].compare(&best).ok_or_else(|| {
            Error::BadValue(format!(
                "cannot compare {} with {}",
                row[k], best
            ))
        })?;
        if (min && ord == std::cmp::Ordering::Less)
            || (!min && ord == std::cmp::Ordering::Greater)
        {
            best = row[k].clone();
        }
    }
    Ok(best)
}

/// Does conjunct `c` have the shape `v.key = <expr not referencing v>`
/// (either side)? Returns the probe expression.
pub(crate) fn key_probe_shape(
    c: &BExpr,
    v: usize,
    key_attr: Option<usize>,
) -> Option<&BExpr> {
    let key = key_attr?;
    let BExpr::Bin {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = c
    else {
        return None;
    };
    match (&**lhs, &**rhs) {
        (BExpr::Attr { var, attr }, probe)
            if *var == v && *attr == key && !probe.references(v) =>
        {
            Some(probe)
        }
        (probe, BExpr::Attr { var, attr })
            if *var == v && *attr == key && !probe.references(v) =>
        {
            Some(probe)
        }
        _ => None,
    }
}

/// Encode a [`Value`] as key bytes for the given domain, if it fits.
fn encode_key(domain: Domain, v: &Value) -> Option<Vec<u8>> {
    match (domain, v) {
        (Domain::I4, Value::Int(i)) => {
            Some(i32::try_from(*i).ok()?.to_le_bytes().to_vec())
        }
        (Domain::I2, Value::Int(i)) => {
            Some(i16::try_from(*i).ok()?.to_le_bytes().to_vec())
        }
        (Domain::I1, Value::Int(i)) => {
            Some(vec![i8::try_from(*i).ok()? as u8])
        }
        (Domain::Time, Value::Time(t)) => {
            Some(t.as_secs().to_le_bytes().to_vec())
        }
        (Domain::Char(n), Value::Str(s)) => {
            if s.len() > n as usize {
                return None;
            }
            let mut buf = vec![b' '; n as usize];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Some(buf)
        }
        _ => None,
    }
}

/// Visibility gate for one candidate row of variable `v`.
fn version_visible(
    slot: &Slot,
    vis: Option<Visibility>,
    row: &[u8],
) -> bool {
    match vis {
        None => true,
        Some(vis) => match row_tx_period(&slot.schema, &slot.codec, row) {
            Some((start, stop)) => vis.sees(start, stop),
            None => true,
        },
    }
}

/// The probe expression conjunct `c` offers attribute `attr` of variable
/// `v` — the `<expr>` of `v.attr = <expr>` — when every variable it
/// references is already bound in `slots`. The one test of whether a
/// keyed or index access is available, for the executor and the planner.
pub(crate) fn bound_probe<'c>(
    c: &'c BExpr,
    v: usize,
    attr: Option<usize>,
    slots: &[Slot],
) -> Option<&'c BExpr> {
    let probe = key_probe_shape(c, v, attr)?;
    let mut bound = true;
    probe.each_attr(&mut |x, _| bound &= slots[x].row.is_some());
    bound.then_some(probe)
}

/// The key bytes conjunct `c` probes attribute `attr` of `v` with: its
/// [`bound_probe`]'s value, if that fits the attribute's domain.
fn probe_bytes(
    c: &BExpr,
    v: usize,
    attr: usize,
    env: &Env,
) -> Result<Option<Vec<u8>>> {
    let Some(probe) = bound_probe(c, v, Some(attr), &env.slots) else {
        return Ok(None);
    };
    let val = eval_expr(probe, env)?;
    let domain = env.slots[v]
        .schema
        .domain_of(attr)
        .ok_or_else(|| Error::Internal("bad probe attr".into()))?;
    Ok(encode_key(domain, &val))
}

/// The cursor [`ovqp`] reads a relation through.
enum Cursor {
    /// Keyed access on the primary key.
    Lookup(RelLookup),
    /// A full scan.
    Scan(RelScan),
    /// The addresses a secondary index returned.
    Tids(std::vec::IntoIter<TupleId>),
}

/// The one-variable query processor: iterate variable `v`'s relation
/// through its best access path, apply visibility and the given
/// conjuncts, and call `emit` for each qualifying version (bound into
/// `env.slots[v]`) with its address in the primary file — `None` for a
/// version read from the history sidecar.
pub(crate) fn ovqp<'a>(
    pager: &Pager,
    env: &mut Env<'a>,
    rt: &VarRt,
    v: usize,
    conjuncts: &[&BExpr],
    guard: &QueryGuard,
    mut emit: impl FnMut(&mut Env<'a>, Option<TupleId>) -> Result<()>,
) -> Result<()> {
    // Access-path selection: a key-equality conjunct evaluable without
    // `v` enables keyed access.
    let mut probe_key: Option<Vec<u8>> = None;
    if let Some(key) = rt.key_attr {
        for c in conjuncts {
            probe_key = probe_bytes(c, v, key, env)?;
            if probe_key.is_some() {
                break;
            }
        }
    }

    // Secondary-index probe: when no primary-key access exists, a
    // conjunct `v.attr = <bound expr>` over an indexed attribute turns the
    // scan into an index lookup plus targeted fetches (the paper's §6
    // secondary-indexing enhancement, live in the query processor).
    let mut index_tids: Option<Vec<TupleId>> = None;
    if probe_key.is_none() {
        'outer: for c in conjuncts {
            for ix in rt.indexes {
                if let Some(bytes) = probe_bytes(c, v, ix.attr, env)? {
                    index_tids = Some(ix.index.lookup_tids(pager, &bytes)?);
                    break 'outer;
                }
            }
        }
    }

    let file = &*rt.file;
    let mut cursor = match (&probe_key, index_tids) {
        (Some(key), _) => match file.lookup_eq(pager, key)? {
            Some(lookup) => Cursor::Lookup(lookup),
            None => Cursor::Scan(file.scan()),
        },
        (None, Some(tids)) => Cursor::Tids(tids.into_iter()),
        (None, None) => Cursor::Scan(file.scan()),
    };
    // Visibility runs on the row the cursor lends; only a visible row is
    // copied into the slot's one buffer for the qualification.
    let mut fetched = Vec::new();
    loop {
        guard.tick()?;
        let next = match &mut cursor {
            Cursor::Lookup(c) => c.next(pager, file)?,
            Cursor::Scan(c) => c.next(pager, file)?,
            Cursor::Tids(tids) => match tids.next() {
                Some(tid) => {
                    file.get(pager, tid, &mut fetched)?;
                    Some((tid, &fetched[..]))
                }
                None => None,
            },
        };
        let Some((tid, row)) = next else { break };
        if !version_visible(&env.slots[v], rt.visible, row) {
            continue;
        }
        bind_row(env, v, row);
        if qualifies(conjuncts, env)? {
            emit(env, Some(tid))?;
        }
    }

    // Migrated versions: after reorganization the primary holds only the
    // rows the compactor left behind, so a query that can reach a
    // migrated version must also walk the clustered history (keyed when
    // the primary access was keyed). It can when its visibility reaches
    // behind the sidecar's stop-time watermark, or when some migrated
    // version is transaction-current and the query does not force a
    // valid end past their watermark. At-now retrievals skip it entirely,
    // which is the bounded-I/O property reorganization exists to provide.
    if let Some(history) = rt.history {
        let wants_history = match rt.visible {
            None => true,
            Some(vis) => {
                vis.at < history.max_stop()
                    || (history.max_valid_to() > TimeVal::BEGINNING
                        && rt
                            .valid_floor
                            .is_none_or(|f| f <= history.max_valid_to()))
            }
        };
        if wants_history {
            let mut visit = |row: &[u8]| -> Result<()> {
                guard.tick()?;
                if !version_visible(&env.slots[v], rt.visible, row) {
                    return Ok(());
                }
                bind_row(env, v, row);
                if qualifies(conjuncts, env)? {
                    emit(env, None)?;
                }
                Ok(())
            };
            match &probe_key {
                Some(key) => history.for_key(pager, key, &mut visit)?,
                None => history.for_all(pager, &mut visit)?,
            }
        }
    }
    env.slots[v].row = None;
    Ok(())
}

/// Copy `row` into variable `v`'s slot, reusing its buffer.
fn bind_row(env: &mut Env, v: usize, row: &[u8]) {
    let buf = env.slots[v].row.get_or_insert_with(Vec::new);
    buf.clear();
    buf.extend_from_slice(row);
}

/// One level of the tuple-substitution join.
#[allow(clippy::too_many_arguments)]
fn join_level<'a>(
    pager: &Pager,
    env: &mut Env<'a>,
    rts: &[VarRt],
    order: &[usize],
    depth: usize,
    levels: &[Vec<&BExpr>],
    guard: &QueryGuard,
    emit: &mut dyn FnMut(&mut Env<'a>) -> Result<()>,
) -> Result<()> {
    if depth == order.len() {
        return emit(env);
    }
    let v = order[depth];
    let conjuncts = &levels[depth];
    if depth + 1 == order.len() {
        // The innermost level: `emit` touches no relation, so its rows
        // stream straight out of the cursor.
        return ovqp(pager, env, &rts[v], v, conjuncts, guard, |env, _| {
            emit(env)
        });
    }

    // Collect matching rows at this level, then recurse per row. (The
    // recursion touches other relations, whose buffers are independent, so
    // collecting first vs. streaming does not change I/O; it keeps the
    // cursor borrows simple.)
    let mut matches: Vec<Vec<u8>> = Vec::new();
    ovqp(pager, env, &rts[v], v, conjuncts, guard, |env, _| {
        matches.push(env.slots[v].row.clone().expect("bound"));
        Ok(())
    })?;
    for row in matches {
        env.slots[v].row = Some(row);
        join_level(pager, env, rts, order, depth + 1, levels, guard, emit)?;
    }
    env.slots[v].row = None;
    Ok(())
}
