//! Name resolution and semantic checking.
//!
//! The binder resolves tuple variables through the session's range table
//! (built by `range of v is R` statements), attributes through the catalog,
//! and time literals against the statement's transaction time. It enforces
//! the taxonomy's applicability rules — `when`/`valid` need valid time,
//! `as of` needs transaction time — and makes TQuel's defaults explicit:
//!
//! * default `as of "now"` for any query touching a rollback or temporal
//!   relation (you see the current database state unless you roll back);
//! * default `when`: the participating tuples' valid spans intersect
//!   ("coexisted at some moment") when two or more valid-time variables
//!   participate;
//! * default `valid`: the intersection of the participating valid spans.
//!
//! Temporal clauses are lowered, not kept as a second tree. Every temporal
//! expression becomes the `(lo, hi)` pair of scalar expressions over the
//! variables' `valid_from`/`valid_to` (or `valid_at`) attributes, and every
//! `when` predicate one ordinary conjunct appended after the `where`
//! conjuncts — so detachment, conjunct levels and access paths treat it
//! like any other. [`Binder::lower_tpred`] is the one place the
//! `precede`/`overlap` comparison convention is written down. `as of`
//! folds to a constant [`Visibility`] window at bind time.

use crate::bound::*;
use crate::eval::{eval_time, Env};
use std::collections::HashMap;
use tdbms_kernel::{
    Domain, Error, Result, TemporalAttr, TemporalKind, TimeVal, Value,
};
use tdbms_storage::Catalog;
use tdbms_tquel::ast;
use tdbms_tquel::token::Literal;

/// Statement binder; short-lived, one per executed statement.
pub struct Binder<'a> {
    /// The catalog to resolve relations against.
    pub catalog: &'a Catalog,
    /// The session range table: variable → relation name.
    pub ranges: &'a HashMap<String, String>,
    /// The statement's transaction time (resolves `"now"`).
    pub now: TimeVal,
    /// Literals of the statement a template was parsed from, which
    /// [`ast::Expr::Param`] slots refer to (empty for concrete text).
    pub params: &'a [Literal],
}

impl<'a> Binder<'a> {
    /// A binder for one statement at transaction time `now`.
    pub fn new(
        catalog: &'a Catalog,
        ranges: &'a HashMap<String, String>,
        now: TimeVal,
    ) -> Self {
        Binder {
            catalog,
            ranges,
            now,
            params: &[],
        }
    }

    /// This binder, binding a template's parameter slots against
    /// `params`. The slots stay slots ([`BExpr::Param`]); only the
    /// literals' types are read, and a statement shape fixes those.
    pub fn with_params(mut self, params: &'a [Literal]) -> Self {
        self.params = params;
        self
    }

    /// The literal of parameter slot `k`.
    fn param(&self, k: usize) -> Result<Literal> {
        self.params.get(k).copied().ok_or_else(|| {
            Error::Internal(format!(
                "statement parameter {k} has no literal"
            ))
        })
    }

    /// Resolve `var`, appending it to the statement's range-table slice on
    /// first use. Returns its index.
    pub fn resolve_var(
        &self,
        var: &str,
        vars: &mut Vec<VarBinding>,
    ) -> Result<usize> {
        if let Some(i) = vars.iter().position(|v| v.var == var) {
            return Ok(i);
        }
        let rel_name = self.ranges.get(var).ok_or_else(|| {
            Error::Semantic(format!(
                "tuple variable {var:?} has no range declaration"
            ))
        })?;
        let rel = self.catalog.require(rel_name)?;
        let stored = self.catalog.get(rel);
        vars.push(VarBinding {
            var: var.to_owned(),
            rel,
            class: stored.schema.class(),
            kind: stored.schema.kind(),
        });
        Ok(vars.len() - 1)
    }

    /// Bind a scalar expression.
    pub fn bind_expr(
        &self,
        e: &ast::Expr,
        vars: &mut Vec<VarBinding>,
    ) -> Result<BExpr> {
        Ok(match e {
            ast::Expr::Int(v) => BExpr::Const(Value::Int(*v)),
            ast::Expr::Float(v) => BExpr::Const(Value::Float(*v)),
            ast::Expr::Str(s) => BExpr::Const(Value::Str(s.clone())),
            ast::Expr::Param(k) => {
                self.param(*k)?;
                BExpr::Param(*k)
            }
            ast::Expr::Attr { var, attr } => {
                let vi = self.resolve_var(var, vars)?;
                let stored = self.catalog.get(vars[vi].rel);
                let ai = stored.schema.index_of(attr).ok_or_else(|| {
                    Error::NoSuchAttribute(format!(
                        "{var}.{attr} (relation {})",
                        stored.name
                    ))
                })?;
                BExpr::Attr { var: vi, attr: ai }
            }
            ast::Expr::Bin { op, lhs, rhs } => BExpr::Bin {
                op: *op,
                lhs: Box::new(self.bind_expr(lhs, vars)?),
                rhs: Box::new(self.bind_expr(rhs, vars)?),
            },
            ast::Expr::Neg(x) => {
                BExpr::Neg(Box::new(self.bind_expr(x, vars)?))
            }
            ast::Expr::Not(x) => {
                BExpr::Not(Box::new(self.bind_expr(x, vars)?))
            }
            ast::Expr::Agg { func, .. } => {
                return Err(Error::Semantic(format!(
                    "{}(...) is only allowed as a retrieve target",
                    func.as_str()
                )))
            }
        })
    }

    /// Resolve a time literal (`"now"`, `"forever"`, or a date/time).
    pub fn resolve_time(&self, s: &str) -> Result<TimeVal> {
        match s.trim().to_ascii_lowercase().as_str() {
            "now" => Ok(self.now),
            _ => TimeVal::parse(s),
        }
    }

    /// The valid span of range-table entry `vi` as its `(lo, hi)`
    /// attributes: `valid_from`/`valid_to`, or `valid_at` twice for an
    /// event relation.
    fn span_of(&self, vi: usize, vars: &[VarBinding]) -> Result<Span> {
        let VarBinding {
            var, rel, class, ..
        } = &vars[vi];
        if !class.has_valid_time() {
            return Err(Error::NotApplicable(format!(
                "variable {var:?} ranges over a {class} relation, which \
                 carries no valid time; `when`/`valid` clauses do not \
                 apply (use `as of` for rollback)"
            )));
        }
        let schema = &self.catalog.get(*rel).schema;
        let attr = |t: TemporalAttr| -> Result<BExpr> {
            let attr = schema.temporal_index(t).ok_or_else(|| {
                Error::Internal(format!("{var:?} has no {t:?} attribute"))
            })?;
            Ok(BExpr::Attr { var: vi, attr })
        };
        Ok(match schema.kind() {
            TemporalKind::Interval => (
                attr(TemporalAttr::ValidFrom)?,
                attr(TemporalAttr::ValidTo)?,
            ),
            TemporalKind::Event => {
                let at = attr(TemporalAttr::ValidAt)?;
                (at.clone(), at)
            }
        })
    }

    /// Lower a temporal expression to its `(lo, hi)` endpoints. A
    /// constant `t` is `(t, t)`; `start of` and `end of` take one
    /// endpoint; `overlap` and `extend` take the greatest and least of
    /// their operands' endpoints, and neither tests the result for
    /// emptiness (`lo > hi`).
    pub(crate) fn lower_texpr(
        &self,
        e: &ast::TemporalExpr,
        vars: &mut Vec<VarBinding>,
    ) -> Result<Span> {
        Ok(match e {
            ast::TemporalExpr::Var(v) => {
                let vi = self.resolve_var(v, vars)?;
                self.span_of(vi, vars)?
            }
            ast::TemporalExpr::Lit(s) => {
                let t = BExpr::Const(Value::Time(self.resolve_time(s)?));
                (t.clone(), t)
            }
            ast::TemporalExpr::Start(x) => {
                let (lo, _) = self.lower_texpr(x, vars)?;
                (lo.clone(), lo)
            }
            ast::TemporalExpr::End(x) => {
                let (_, hi) = self.lower_texpr(x, vars)?;
                (hi.clone(), hi)
            }
            ast::TemporalExpr::Overlap(a, b) => intersection(vec![
                self.lower_texpr(a, vars)?,
                self.lower_texpr(b, vars)?,
            ]),
            ast::TemporalExpr::Extend(a, b) => {
                let (alo, ahi) = self.lower_texpr(a, vars)?;
                let (blo, bhi) = self.lower_texpr(b, vars)?;
                (
                    BExpr::Least(vec![alo, blo]),
                    BExpr::Greatest(vec![ahi, bhi]),
                )
            }
        })
    }

    /// Lower a temporal predicate to one scalar conjunct. This is where
    /// TQuel's comparison convention lives: the stored endpoints are
    /// compared with `<=`, so `a precede b` is `hi(a) <= lo(b)` (meeting
    /// spans precede) and `a overlap b` is `greatest(lo) <= least(hi)`,
    /// which is false when either operand is empty.
    pub(crate) fn lower_tpred(
        &self,
        p: &ast::TemporalPred,
        vars: &mut Vec<VarBinding>,
    ) -> Result<BExpr> {
        use ast::BinOp::{And, Eq, Or};
        Ok(match p {
            ast::TemporalPred::Precede(a, b) => {
                let (_, a_hi) = self.lower_texpr(a, vars)?;
                let (b_lo, _) = self.lower_texpr(b, vars)?;
                bin(ast::BinOp::Le, a_hi, b_lo)
            }
            ast::TemporalPred::Overlap(a, b) => {
                nonempty(intersection(vec![
                    self.lower_texpr(a, vars)?,
                    self.lower_texpr(b, vars)?,
                ]))
            }
            ast::TemporalPred::Equal(a, b) => {
                let (a_lo, a_hi) = self.lower_texpr(a, vars)?;
                let (b_lo, b_hi) = self.lower_texpr(b, vars)?;
                bin(And, bin(Eq, a_lo, b_lo), bin(Eq, a_hi, b_hi))
            }
            ast::TemporalPred::And(a, b) | ast::TemporalPred::Or(a, b) => {
                let op = match p {
                    ast::TemporalPred::And(..) => And,
                    _ => Or,
                };
                bin(
                    op,
                    self.lower_tpred(a, vars)?,
                    self.lower_tpred(b, vars)?,
                )
            }
            ast::TemporalPred::Not(x) => {
                BExpr::Not(Box::new(self.lower_tpred(x, vars)?))
            }
        })
    }

    /// Per entry of `vars`: the latest instant some conjunct forces its
    /// valid end to reach, as one variable-free expression, or `None`.
    /// This reads back the lowering of `overlap` ([`nonempty`] of an
    /// [`intersection`]): a top-level `lo <= least(.., v.valid_to, ..)`
    /// (or `lo <= v.valid_to`) forces `v`'s valid end to reach `lo` —
    /// each member of `lo = greatest(..)` — wherever that references no
    /// variable. `precede`, `equal`, `not`, `or` and variable-to-variable
    /// overlaps force none.
    pub(crate) fn valid_end_floors(
        &self,
        vars: &[VarBinding],
        conjuncts: &[BExpr],
    ) -> Vec<Option<BExpr>> {
        let floor = |v: usize| -> Option<BExpr> {
            let attr = self
                .catalog
                .get(vars[v].rel)
                .schema
                .temporal_index(TemporalAttr::ValidTo)?;
            let end = BExpr::Attr { var: v, attr };
            let mut los: Vec<BExpr> = conjuncts
                .iter()
                .filter_map(|c| match c {
                    BExpr::Bin {
                        op: ast::BinOp::Le,
                        lhs,
                        rhs,
                    } => {
                        let forces = match &**rhs {
                            BExpr::Least(his) => his.contains(&end),
                            hi => *hi == end,
                        };
                        forces.then_some(&**lhs)
                    }
                    _ => None,
                })
                .flat_map(|lo| match lo {
                    BExpr::Greatest(los) => los.as_slice(),
                    lo => std::slice::from_ref(lo),
                })
                .filter(|lo| {
                    let mut vs = Vec::new();
                    lo.collect_vars(&mut vs);
                    vs.is_empty()
                })
                .cloned()
                .collect();
            match los.len() {
                0 | 1 => los.pop(),
                _ => Some(BExpr::Greatest(los)),
            }
        };
        (0..vars.len()).map(floor).collect()
    }

    /// Lower a `when` clause onto `out`, one conjunct per top-level
    /// `and`ed predicate.
    pub(crate) fn lower_when(
        &self,
        p: &ast::TemporalPred,
        vars: &mut Vec<VarBinding>,
        out: &mut Vec<BExpr>,
    ) -> Result<()> {
        match p {
            ast::TemporalPred::And(a, b) => {
                self.lower_when(a, vars, out)?;
                self.lower_when(b, vars, out)
            }
            other => {
                out.push(self.lower_tpred(other, vars)?);
                Ok(())
            }
        }
    }

    /// Fold a variable-free temporal expression (an `as of` bound) to
    /// its `(lo, hi)` instants.
    fn fold_time(
        &self,
        e: &ast::TemporalExpr,
    ) -> Result<(TimeVal, TimeVal)> {
        let mut vars = Vec::new();
        let (lo, hi) = self.lower_texpr(e, &mut vars)?;
        if !vars.is_empty() {
            return Err(Error::Semantic(
                "tuple variables are not allowed in `as of`".into(),
            ));
        }
        let env = Env {
            slots: Vec::new(),
            params: self.params,
        };
        Ok((eval_time(&lo, &env)?, eval_time(&hi, &env)?))
    }

    /// Infer the result domain of a bound expression.
    pub fn infer_domain(
        &self,
        e: &BExpr,
        vars: &[VarBinding],
    ) -> Result<Domain> {
        Ok(match e {
            BExpr::Const(Value::Int(_)) => Domain::I4,
            BExpr::Const(Value::Float(_)) => Domain::F8,
            BExpr::Const(Value::Str(s)) => {
                Domain::Char(s.len().clamp(1, 1000) as u16)
            }
            BExpr::Const(Value::Time(_)) => Domain::Time,
            BExpr::Param(k) => self.infer_domain(
                &BExpr::Const(self.param(*k)?.into()),
                vars,
            )?,
            BExpr::Attr { var, attr } => self
                .catalog
                .get(vars[*var].rel)
                .schema
                .domain_of(*attr)
                .ok_or_else(|| {
                    Error::Internal("bound attr out of range".into())
                })?,
            BExpr::Bin { op, lhs, rhs } => {
                if op.is_comparison()
                    || matches!(op, ast::BinOp::And | ast::BinOp::Or)
                {
                    Domain::I1
                } else {
                    let l = self.infer_domain(lhs, vars)?;
                    let r = self.infer_domain(rhs, vars)?;
                    if l.is_float() || r.is_float() {
                        Domain::F8
                    } else {
                        Domain::I4
                    }
                }
            }
            BExpr::Neg(x) => self.infer_domain(x, vars)?,
            BExpr::Not(_) => Domain::I1,
            BExpr::Greatest(_) | BExpr::Least(_) => Domain::Time,
        })
    }

    /// Bind a retrieve statement, applying TQuel's defaults.
    pub fn bind_retrieve(
        &self,
        r: &ast::Retrieve,
    ) -> Result<BoundRetrieve> {
        let mut vars: Vec<VarBinding> = Vec::new();

        // Targets. An aggregate target groups by the non-aggregate
        // targets (a pragmatic restriction of Quel's general aggregate
        // scoping: `retrieve (e.dept, total = sum(e.salary))` groups by
        // department).
        let mut targets: Vec<BoundTarget> = Vec::new();
        for (i, t) in r.targets.iter().enumerate() {
            let (agg, expr) = match &t.expr {
                ast::Expr::Agg { func, arg } => {
                    (Some(*func), self.bind_expr(arg, &mut vars)?)
                }
                other => (None, self.bind_expr(other, &mut vars)?),
            };
            // Default names may collide (the paper's own queries project
            // `h.id` and `i.id` side by side); explicitly given names must
            // be unique, and `retrieve into` requires uniqueness of all.
            let name = match (&t.name, &t.expr) {
                (Some(n), _) => {
                    if targets.iter().any(|bt| bt.name == *n) {
                        return Err(Error::Semantic(format!(
                            "duplicate result attribute {n:?}"
                        )));
                    }
                    n.clone()
                }
                (None, ast::Expr::Attr { attr, .. }) => attr.clone(),
                (None, ast::Expr::Agg { func, .. }) => {
                    func.as_str().to_string()
                }
                (None, _) => format!("col{}", i + 1),
            };
            let arg_domain = self.infer_domain(&expr, &vars)?;
            let domain = match agg {
                None => arg_domain,
                Some(ast::AggFunc::Count) => Domain::I4,
                Some(ast::AggFunc::Avg) => Domain::F8,
                Some(ast::AggFunc::Sum) => {
                    if arg_domain.is_float() {
                        Domain::F8
                    } else {
                        Domain::I4
                    }
                }
                Some(ast::AggFunc::Min | ast::AggFunc::Max) => arg_domain,
            };
            targets.push(BoundTarget {
                name,
                domain,
                expr,
                agg,
            });
        }
        let has_agg = targets.iter().any(|t| t.agg.is_some());
        if has_agg && r.valid.is_some() {
            return Err(Error::NotApplicable(
                "a `valid` clause cannot be combined with aggregates; \
                 aggregate over a snapshot chosen with `when`"
                    .into(),
            ));
        }

        // The qualification: the where clause's conjuncts, then the
        // lowered when clause's.
        let mut conjuncts = Vec::new();
        if let Some(w) = &r.where_clause {
            let bound = self.bind_expr(w, &mut vars)?;
            split_conjuncts(bound, &mut conjuncts);
        }
        if let Some(w) = &r.when_clause {
            self.lower_when(w, &mut vars, &mut conjuncts)?;
        }

        // Valid clause: the start of `from` and the end of `to`.
        let mut valid = match &r.valid {
            Some(ast::ValidClause::Interval { from, to }) => Some((
                self.lower_texpr(from, &mut vars)?.0,
                self.lower_texpr(to, &mut vars)?.1,
            )),
            Some(ast::ValidClause::At(e)) => {
                Some(self.lower_texpr(e, &mut vars)?)
            }
            None => None,
        };

        // As-of clause, folded to its window.
        let explicit_as_of = match &r.as_of {
            Some(a) => {
                let (at, at_hi) = self.fold_time(&a.at)?;
                let through = match &a.through {
                    Some(t) => self.fold_time(t)?.1,
                    None => at_hi,
                };
                if through < at {
                    return Err(Error::Semantic(format!(
                        "`as of` window ends at {through}, before it \
                         starts at {at}"
                    )));
                }
                Some(Visibility { at, through })
            }
            None => None,
        };

        // Applicability and defaults.
        let valid_vars: Vec<usize> = (0..vars.len())
            .filter(|i| vars[*i].class.has_valid_time())
            .collect();
        let has_tx = vars.iter().any(|v| v.class.has_transaction_time());

        if explicit_as_of.is_some() && !has_tx {
            return Err(Error::NotApplicable(
                "`as of` requires a rollback or temporal relation".into(),
            ));
        }
        let visibility = if has_tx {
            Some(explicit_as_of.unwrap_or(Visibility::at(self.now)))
        } else {
            None
        };

        if valid.is_some() && valid_vars.is_empty() {
            // A valid clause over constants only is permitted (it just
            // stamps the result), but only when the query produces
            // valid-time output — i.e. at least one historical/temporal
            // variable participates, or there are no variables at all.
            if !vars.is_empty() {
                return Err(Error::NotApplicable(
                    "`valid` requires a historical or temporal relation"
                        .into(),
                ));
            }
        }

        if !valid_vars.is_empty() {
            let spans = valid_vars
                .iter()
                .map(|&v| self.span_of(v, &vars))
                .collect::<Result<Vec<_>>>()?;
            // Default when: the participating valid spans share an
            // instant. One conjunct over all of them, evaluated where the
            // last of them is bound.
            if r.when_clause.is_none() && spans.len() >= 2 {
                conjuncts.push(nonempty(intersection(spans.clone())));
            }
            // Default valid: the intersection of the participating spans
            // (suppressed for aggregates: a group has no single span).
            if valid.is_none() && !has_agg {
                valid = Some(intersection(spans));
            }
        }

        if let Some(into) = &r.into {
            if self.catalog.id_of(into).is_some() {
                return Err(Error::DuplicateRelation(into.clone()));
            }
            for (i, t) in targets.iter().enumerate() {
                if targets[..i].iter().any(|u| u.name == t.name) {
                    return Err(Error::Semantic(format!(
                        "retrieve into needs unique result names; {:?} \
                         appears twice (name the targets, e.g. `x = ...`)",
                        t.name
                    )));
                }
                if !valid_vars.is_empty()
                    && (t.name == "valid_from" || t.name == "valid_to")
                {
                    return Err(Error::Semantic(format!(
                        "retrieve into cannot name a target {:?}: that \
                         column is the materialized relation's implicit \
                         valid time",
                        t.name
                    )));
                }
            }
        }

        // Sort keys resolve against result column names (including the
        // implicit valid_from/valid_to when present).
        let mut sort: Vec<(usize, bool)> = Vec::new();
        for k in &r.sort {
            let idx = targets
                .iter()
                .position(|t| t.name == k.column)
                .or_else(|| {
                    // Implicit valid columns follow the targets.
                    let has_valid = !valid_vars.is_empty() && !has_agg;
                    match (has_valid, k.column.as_str()) {
                        (true, "valid_from") => Some(targets.len()),
                        (true, "valid_to") => Some(targets.len() + 1),
                        _ => None,
                    }
                })
                .ok_or_else(|| {
                    Error::Semantic(format!(
                        "sort column {:?} is not in the target list",
                        k.column
                    ))
                })?;
            sort.push((idx, k.descending));
        }

        let valid = if valid_vars.is_empty() { None } else { valid };
        Ok(BoundRetrieve {
            valid_end_floors: self.valid_end_floors(&vars, &conjuncts),
            columns: result_columns(&targets, valid.is_some()),
            vars,
            targets,
            conjuncts,
            valid,
            visibility,
            into: r.into.clone(),
            sort,
        })
    }
}

/// Split a bound expression on top-level `and`s.
pub fn split_conjuncts(e: BExpr, out: &mut Vec<BExpr>) {
    match e {
        BExpr::Bin {
            op: ast::BinOp::And,
            lhs,
            rhs,
        } => {
            split_conjuncts(*lhs, out);
            split_conjuncts(*rhs, out);
        }
        other => out.push(other),
    }
}

/// A lowered temporal expression: its `(lo, hi)` endpoints.
pub(crate) type Span = (BExpr, BExpr);

/// The common intersection of `spans`: the greatest start and the least
/// end (possibly empty).
fn intersection(spans: Vec<Span>) -> Span {
    if spans.len() == 1 {
        return spans.into_iter().next().expect("one span");
    }
    let (los, his) = spans.into_iter().unzip();
    (BExpr::Greatest(los), BExpr::Least(his))
}

/// The conjunct "`span` is not empty": `lo <= hi`.
fn nonempty((lo, hi): Span) -> BExpr {
    bin(ast::BinOp::Le, lo, hi)
}

fn bin(op: ast::BinOp, lhs: BExpr, rhs: BExpr) -> BExpr {
    BExpr::Bin {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// The transaction period of a stored row, if its schema records one.
pub fn row_tx_period(
    schema: &tdbms_kernel::Schema,
    codec: &tdbms_kernel::RowCodec,
    row: &[u8],
) -> Option<(TimeVal, TimeVal)> {
    let start = schema.temporal_index(TemporalAttr::TransactionStart)?;
    let stop = schema.temporal_index(TemporalAttr::TransactionStop)?;
    Some((codec.get_time(row, start), codec.get_time(row, stop)))
}
