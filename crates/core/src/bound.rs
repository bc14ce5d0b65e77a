//! Bound (name-resolved) query trees.
//!
//! The binder turns TQuel syntax into these structures: tuple variables
//! become indices into the statement's range table, attributes become
//! column indices, time literals become resolved instants, and the TQuel
//! *defaults* (default `when`, `valid`, and `as of` clauses) are made
//! explicit. There is one predicate language: `when` and `valid` are
//! lowered to ordinary [`BExpr`]s over each variable's valid-time
//! attributes, and `as of` folds to a [`Visibility`] window.

use tdbms_kernel::{DatabaseClass, TemporalKind, TimeVal, Value};
use tdbms_storage::RelId;
use tdbms_tquel::ast::BinOp;

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
    fn each_attr(&self, f: &mut dyn FnMut(usize, usize)) {
        match self {
            BExpr::Const(_) | BExpr::Param(_) => {}
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

    /// Visit every leaf (constant, parameter or attribute) mutably.
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
    pub visibility: Option<Visibility>,
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
