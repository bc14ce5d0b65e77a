//! Bound (name-resolved) query trees.
//!
//! The binder turns TQuel syntax into these structures: tuple variables
//! become indices into the statement's range table, attributes become
//! column indices, time literals become instants — `"now"` becomes
//! [`BExpr::Now`], which each execution evaluates at its own instant —
//! and the TQuel *defaults* (default `when`, `valid`, and `as of`
//! clauses) are made explicit. There is one predicate language: `when`
//! and `valid` are lowered to ordinary [`BExpr`]s over each variable's
//! valid-time attributes, and `as of` to a pair of variable-free
//! [`BExpr`]s ([`AsOf`]) that each execution evaluates to its
//! [`Visibility`] window. So nothing bound depends on when it was bound.

use crate::eval::{eval_time, Env};
use std::sync::Arc;
use tdbms_kernel::{
    DatabaseClass, Domain, Error, Result, TemporalKind, TimeVal, Value,
};
use tdbms_storage::RelId;
use tdbms_tquel::ast::BinOp;
use tdbms_tquel::token::Literal;

/// One entry of a statement's range table: a tuple variable actually used
/// by the statement.
#[derive(Debug, Clone, PartialEq)]
pub struct VarBinding {
    /// The variable name (for diagnostics).
    pub var: String,
    /// The relation it ranges over.
    pub rel: RelId,
    /// The relation's class (determines which clauses apply).
    pub class: DatabaseClass,
    /// Interval or event relation.
    pub kind: TemporalKind,
}

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// A literal or pre-resolved constant.
    Const(Value),
    /// Parameter slot `k`: the `k`-th numeric literal of the statement
    /// shape a template was bound from. Only the engine's statement
    /// cache binds these. The template is shared and never filled in:
    /// evaluation reads the executing statement's `k`-th literal from
    /// its [`crate::eval::Env`].
    Param(usize),
    /// The statement's transaction time, the literal `"now"`: evaluation
    /// reads the executing statement's instant from its
    /// [`crate::eval::Env`], so a cached binding outlives any commit.
    Now,
    /// Attribute `attr` (stored column index) of range-table entry `var`.
    Attr {
        /// Range-table index.
        var: usize,
        /// Stored column index within that relation.
        attr: usize,
    },
    /// Binary operation.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<BExpr>,
        /// Right operand.
        rhs: Box<BExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<BExpr>),
    /// Logical negation.
    Not(Box<BExpr>),
    /// The greatest operand. Internal, like [`BExpr::Least`]: no TQuel
    /// syntax reaches it, only the binder's lowering of temporal
    /// expressions (the start of an `overlap`, the end of an `extend`).
    Greatest(Vec<BExpr>),
    /// The least operand (the end of an `overlap`, the start of an
    /// `extend`).
    Least(Vec<BExpr>),
}

impl BExpr {
    /// Visit every attribute reference as `(var, attr)`.
    pub(crate) fn each_attr(&self, f: &mut dyn FnMut(usize, usize)) {
        match self {
            BExpr::Const(_) | BExpr::Param(_) | BExpr::Now => {}
            BExpr::Attr { var, attr } => f(*var, *attr),
            BExpr::Bin { lhs, rhs, .. } => {
                lhs.each_attr(f);
                rhs.each_attr(f);
            }
            BExpr::Neg(e) | BExpr::Not(e) => e.each_attr(f),
            BExpr::Greatest(es) | BExpr::Least(es) => {
                es.iter().for_each(|e| e.each_attr(f))
            }
        }
    }

    /// Visit every leaf (constant, parameter, `now` or attribute)
    /// mutably.
    fn each_leaf_mut(&mut self, f: &mut dyn FnMut(&mut BExpr)) {
        match self {
            BExpr::Bin { lhs, rhs, .. } => {
                lhs.each_leaf_mut(f);
                rhs.each_leaf_mut(f);
            }
            BExpr::Neg(e) | BExpr::Not(e) => e.each_leaf_mut(f),
            BExpr::Greatest(es) | BExpr::Least(es) => {
                es.iter_mut().for_each(|e| e.each_leaf_mut(f))
            }
            leaf => f(leaf),
        }
    }

    /// Does this expression reference range-table entry `var`?
    pub fn references(&self, var: usize) -> bool {
        let mut hit = false;
        self.each_attr(&mut |v, _| hit |= v == var);
        hit
    }

    /// Does this expression reference `var` and no other variable?
    pub fn references_only(&self, var: usize) -> bool {
        let (mut hit, mut other) = (false, false);
        self.each_attr(&mut |v, _| match v == var {
            true => hit = true,
            false => other = true,
        });
        hit && !other
    }

    /// Collect the set of referenced range-table entries.
    pub fn collect_vars(&self, out: &mut Vec<usize>) {
        self.each_attr(&mut |v, _| {
            if !out.contains(&v) {
                out.push(v);
            }
        });
    }

    /// Collect `(var, attr)` attribute references.
    pub fn collect_attrs(&self, out: &mut Vec<(usize, usize)>) {
        self.each_attr(&mut |v, a| {
            if !out.contains(&(v, a)) {
                out.push((v, a));
            }
        });
    }

    /// Rewrite attribute references of `var` through `map` (old stored
    /// index → new stored index), used after detachment projects a
    /// variable into a temporary.
    pub fn remap_attrs(&mut self, var: usize, map: &[(usize, usize)]) {
        self.each_leaf_mut(&mut |e| {
            if let BExpr::Attr { var: v, attr } = e {
                if *v == var {
                    *attr = map
                        .iter()
                        .find(|(old, _)| old == attr)
                        .expect("projection covers referenced attrs")
                        .1;
                }
            }
        });
    }
}

/// Rollback visibility: which transaction-time window a query observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visibility {
    /// Rollback instant (`as of`): default "now".
    pub at: TimeVal,
    /// End of the rollback span (`through`); equals `at` for a point
    /// rollback.
    pub through: TimeVal,
}

impl Visibility {
    /// Point visibility at `t`.
    pub fn at(t: TimeVal) -> Self {
        Visibility { at: t, through: t }
    }

    /// Is a version with this transaction period visible? Half-open rule:
    /// the version exists from `start` (inclusive) until `stop`
    /// (exclusive), and is visible if that period intersects the window.
    pub fn sees(&self, start: TimeVal, stop: TimeVal) -> bool {
        start <= self.through && self.at < stop
    }
}

/// A bound `as of` clause: the rollback window's start and end as
/// variable-free instant expressions. Either may be `"now"`, so the
/// window is evaluated per execution ([`BoundRetrieve::window`]), not
/// at bind time.
#[derive(Debug, Clone, PartialEq)]
pub struct AsOf {
    /// The rollback instant.
    pub at: BExpr,
    /// The end of the rollback span; `at`'s own end for a point
    /// rollback.
    pub through: BExpr,
}

impl AsOf {
    /// The default `as of "now"`.
    pub fn now() -> Self {
        AsOf {
            at: BExpr::Now,
            through: BExpr::Now,
        }
    }
}

/// One bound output column.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundTarget {
    /// Result attribute name.
    pub name: String,
    /// Result domain.
    pub domain: tdbms_kernel::Domain,
    /// The value expression (the aggregate's argument when `agg` is set).
    pub expr: BExpr,
    /// Aggregate function applied over the qualifying tuples, grouped by
    /// the non-aggregate targets.
    pub agg: Option<tdbms_tquel::ast::AggFunc>,
}

/// A fully bound retrieve.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRetrieve {
    /// Range-table entries actually referenced, in first-use order.
    pub vars: Vec<VarBinding>,
    /// Output columns.
    pub targets: Vec<BoundTarget>,
    /// The qualification as one conjunct list: the `where` clause split
    /// on its top-level `and`s, then the `when` clause lowered the same
    /// way (or the default `when`).
    pub conjuncts: Vec<BExpr>,
    /// The output valid period `(valid_from, valid_to)`: the `valid`
    /// clause's, or by default the participating spans' intersection.
    /// `None` when no variable carries valid time (a purely
    /// static/rollback query).
    pub valid: Option<(BExpr, BExpr)>,
    /// Rollback window, `None` when no variable carries transaction time.
    pub as_of: Option<AsOf>,
    /// Per variable: a variable-free expression for the instant the
    /// conjuncts force its valid end to reach (a lowered `overlap`), or
    /// `None` ([`crate::binder::Binder::valid_end_floors`]). Execution
    /// evaluates it once, to skip the history sidecar when no migrated
    /// transaction-current version ends that late.
    pub valid_end_floors: Vec<Option<BExpr>>,
    /// Materialize into this relation instead of returning rows.
    pub into: Option<String>,
    /// Sort keys: result-column index + descending flag.
    pub sort: Vec<(usize, bool)>,
    /// The answer's columns ([`result_columns`]), shared by every
    /// execution's answer.
    pub columns: Arc<[(String, Domain)]>,
}

impl BoundRetrieve {
    /// The rollback window of a run with literals `params` at instant
    /// `now` (`None` when no variable carries transaction time); an
    /// error when it ends before it starts.
    pub fn window(
        &self,
        params: &[Literal],
        now: TimeVal,
    ) -> Result<Option<Visibility>> {
        let Some(AsOf { at, through }) = &self.as_of else {
            return Ok(None);
        };
        let env = Env {
            slots: Vec::new(),
            params,
            now,
        };
        let (at, through) =
            (eval_time(at, &env)?, eval_time(through, &env)?);
        if through < at {
            return Err(Error::Semantic(format!(
                "`as of` window ends at {through}, before it starts at {at}"
            )));
        }
        Ok(Some(Visibility { at, through }))
    }

    /// Does the answer carry the implicit column `name` (`valid_from`
    /// or `valid_to`) after its targets?
    pub fn implicit_column(&self, name: &str) -> bool {
        self.columns[self.targets.len()..]
            .iter()
            .any(|(n, _)| n == name)
    }
}

/// The columns of a retrieve's answer: its targets' names and domains,
/// then, when it has an output valid period, the implicit `valid_from`
/// and `valid_to`. A target that already projects an attribute of the
/// same name supersedes the implicit one (so `retrieve (e.valid_from)`
/// shows the stored attribute rather than erroring).
pub(crate) fn result_columns(
    targets: &[BoundTarget],
    valid: bool,
) -> Arc<[(String, Domain)]> {
    let implicit = |name: &str| {
        (valid && !targets.iter().any(|t| t.name == name))
            .then(|| (name.to_string(), Domain::Time))
    };
    // Every part has an exact length, so the `Arc` is allocated once.
    targets
        .iter()
        .map(|t| (t.name.clone(), t.domain))
        .chain(implicit("valid_from"))
        .chain(implicit("valid_to"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u32) -> TimeVal {
        TimeVal::from_secs(secs)
    }

    #[test]
    fn visibility_point_semantics() {
        let v = Visibility::at(t(100));
        assert!(v.sees(t(100), TimeVal::FOREVER)); // created exactly then
        assert!(v.sees(t(50), t(101)));
        assert!(!v.sees(t(50), t(100))); // superseded exactly then
        assert!(!v.sees(t(101), TimeVal::FOREVER)); // created later
    }

    #[test]
    fn visibility_span_semantics() {
        let v = Visibility {
            at: t(100),
            through: t(200),
        };
        assert!(v.sees(t(150), t(160))); // lived inside the window
        assert!(v.sees(t(0), t(101))); // still alive at window start
        assert!(v.sees(t(200), TimeVal::FOREVER)); // born at window end
        assert!(!v.sees(t(0), t(100))); // died before the window
        assert!(!v.sees(t(201), TimeVal::FOREVER)); // born after
    }

    #[test]
    fn expr_var_collection_and_remap() {
        let mut e = BExpr::Bin {
            op: BinOp::Eq,
            lhs: Box::new(BExpr::Attr { var: 0, attr: 3 }),
            rhs: Box::new(BExpr::Attr { var: 1, attr: 1 }),
        };
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec![0, 1]);
        e.remap_attrs(0, &[(3, 0)]);
        let mut attrs = Vec::new();
        e.collect_attrs(&mut attrs);
        assert_eq!(attrs, vec![(0, 0), (1, 1)]);
    }
}
