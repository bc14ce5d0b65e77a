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

use crate::bound::*;
use crate::interval::TInterval;
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

    /// Bind a temporal expression. Variables must carry valid time.
    pub fn bind_texpr(
        &self,
        e: &ast::TemporalExpr,
        vars: &mut Vec<VarBinding>,
    ) -> Result<BTExpr> {
        Ok(match e {
            ast::TemporalExpr::Var(v) => {
                let vi = self.resolve_var(v, vars)?;
                if !vars[vi].class.has_valid_time() {
                    return Err(Error::NotApplicable(format!(
                        "variable {v:?} ranges over a {} relation, which \
                         carries no valid time; `when`/`valid` clauses do \
                         not apply (use `as of` for rollback)",
                        vars[vi].class
                    )));
                }
                BTExpr::Span(vi)
            }
            ast::TemporalExpr::Lit(s) => {
                BTExpr::Const(TInterval::event(self.resolve_time(s)?))
            }
            ast::TemporalExpr::Start(x) => {
                BTExpr::Start(Box::new(self.bind_texpr(x, vars)?))
            }
            ast::TemporalExpr::End(x) => {
                BTExpr::End(Box::new(self.bind_texpr(x, vars)?))
            }
            ast::TemporalExpr::Overlap(a, b) => BTExpr::Overlap(
                Box::new(self.bind_texpr(a, vars)?),
                Box::new(self.bind_texpr(b, vars)?),
            ),
            ast::TemporalExpr::Extend(a, b) => BTExpr::Extend(
                Box::new(self.bind_texpr(a, vars)?),
                Box::new(self.bind_texpr(b, vars)?),
            ),
        })
    }

    /// Bind a temporal predicate.
    pub fn bind_tpred(
        &self,
        p: &ast::TemporalPred,
        vars: &mut Vec<VarBinding>,
    ) -> Result<BTPred> {
        Ok(match p {
            ast::TemporalPred::Precede(a, b) => BTPred::Precede(
                self.bind_texpr(a, vars)?,
                self.bind_texpr(b, vars)?,
            ),
            ast::TemporalPred::Overlap(a, b) => BTPred::Overlap(
                self.bind_texpr(a, vars)?,
                self.bind_texpr(b, vars)?,
            ),
            ast::TemporalPred::Equal(a, b) => BTPred::Equal(
                self.bind_texpr(a, vars)?,
                self.bind_texpr(b, vars)?,
            ),
            ast::TemporalPred::And(a, b) => BTPred::And(
                Box::new(self.bind_tpred(a, vars)?),
                Box::new(self.bind_tpred(b, vars)?),
            ),
            ast::TemporalPred::Or(a, b) => BTPred::Or(
                Box::new(self.bind_tpred(a, vars)?),
                Box::new(self.bind_tpred(b, vars)?),
            ),
            ast::TemporalPred::Not(x) => {
                BTPred::Not(Box::new(self.bind_tpred(x, vars)?))
            }
        })
    }

    /// Evaluate a variable-free temporal expression to a constant.
    pub fn const_texpr(&self, e: &BTExpr) -> Result<TInterval> {
        Ok(match e {
            BTExpr::Const(iv) => *iv,
            BTExpr::Span(_) => {
                return Err(Error::Semantic(
                    "tuple variables are not allowed in `as of`".into(),
                ))
            }
            BTExpr::Start(x) => self.const_texpr(x)?.start(),
            BTExpr::End(x) => self.const_texpr(x)?.end(),
            BTExpr::Overlap(a, b) => {
                self.const_texpr(a)?.intersect(&self.const_texpr(b)?)
            }
            BTExpr::Extend(a, b) => {
                self.const_texpr(a)?.span(&self.const_texpr(b)?)
            }
        })
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

        // Where clause, split into conjuncts.
        let mut where_conjuncts = Vec::new();
        if let Some(w) = &r.where_clause {
            let bound = self.bind_expr(w, &mut vars)?;
            split_conjuncts(bound, &mut where_conjuncts);
        }

        // When clause.
        let mut when_conjuncts = Vec::new();
        if let Some(w) = &r.when_clause {
            let bound = self.bind_tpred(w, &mut vars)?;
            split_tconjuncts(bound, &mut when_conjuncts);
        }

        // Valid clause.
        let mut valid = match &r.valid {
            Some(ast::ValidClause::Interval { from, to }) => Some((
                self.bind_texpr(from, &mut vars)?,
                self.bind_texpr(to, &mut vars)?,
            )),
            Some(ast::ValidClause::At(e)) => {
                let ev = self.bind_texpr(e, &mut vars)?;
                Some((ev.clone(), ev))
            }
            None => None,
        };

        // As-of clause.
        let explicit_as_of = match &r.as_of {
            Some(a) => {
                let at = self.const_texpr(
                    &self.bind_texpr(&a.at, &mut Vec::new())?,
                )?;
                let through = match &a.through {
                    Some(t) => Some(self.const_texpr(
                        &self.bind_texpr(t, &mut Vec::new())?,
                    )?),
                    None => None,
                };
                Some(Visibility {
                    at: at.lo,
                    through: through.map(|t| t.hi).unwrap_or(at.hi),
                })
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
            // Default when: the participating valid spans intersect.
            if r.when_clause.is_none() && valid_vars.len() >= 2 {
                when_conjuncts.push(BTPred::Coexist(valid_vars.clone()));
            }
            // Default valid: the intersection of the participating spans
            // (suppressed for aggregates: a group has no single span).
            if valid.is_none() && !has_agg {
                let mut fold = BTExpr::Span(valid_vars[0]);
                for v in &valid_vars[1..] {
                    fold = BTExpr::Overlap(
                        Box::new(fold),
                        Box::new(BTExpr::Span(*v)),
                    );
                }
                valid = Some((
                    BTExpr::Start(Box::new(fold.clone())),
                    BTExpr::End(Box::new(fold)),
                ));
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

        Ok(BoundRetrieve {
            vars,
            targets,
            where_conjuncts,
            when_conjuncts,
            valid: if valid_vars.is_empty() { None } else { valid },
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

/// Split a bound temporal predicate on top-level `and`s.
pub fn split_tconjuncts(p: BTPred, out: &mut Vec<BTPred>) {
    match p {
        BTPred::And(a, b) => {
            split_tconjuncts(*a, out);
            split_tconjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// The implicit valid-time span of a stored row, per its schema.
pub fn row_span(
    schema: &tdbms_kernel::Schema,
    codec: &tdbms_kernel::RowCodec,
    row: &[u8],
) -> Option<TInterval> {
    match schema.kind() {
        TemporalKind::Interval => {
            let from = schema.temporal_index(TemporalAttr::ValidFrom)?;
            let to = schema.temporal_index(TemporalAttr::ValidTo)?;
            Some(TInterval::new(
                codec.get_time(row, from),
                codec.get_time(row, to),
            ))
        }
        TemporalKind::Event => {
            let at = schema.temporal_index(TemporalAttr::ValidAt)?;
            Some(TInterval::event(codec.get_time(row, at)))
        }
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
