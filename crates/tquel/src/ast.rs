//! The abstract syntax of TQuel.
//!
//! TQuel extends each Quel statement: `retrieve` gains the `valid`, `when`,
//! and `as of` clauses; `append`/`delete`/`replace` gain `valid` and
//! `when`; `create` gains the relation class (static / rollback /
//! historical / temporal) and kind (interval / event).

use crate::token::Literal;
use tdbms_kernel::{DatabaseClass, Domain, TemporalKind};

/// One parsed TQuel statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `range of <var> is <relation>` — bind a tuple variable.
    Range {
        /// The tuple variable.
        var: String,
        /// The relation it ranges over.
        rel: String,
    },
    /// `retrieve [into r] (targets) [valid ...] [where ...] [when ...]
    /// [as of ...]`
    Retrieve(Retrieve),
    /// `append [to] r (assignments) [valid ...] [where ...] [when ...]`
    Append(Append),
    /// `delete v [where ...] [when ...]`
    Delete(Delete),
    /// `replace v (assignments) [valid ...] [where ...] [when ...]`
    Replace(Replace),
    /// `create <class> [<kind>] r (name = type, ...)`
    Create(Create),
    /// `destroy r`
    Destroy(String),
    /// `modify r to <organization> [on attr] [where fillfactor = N]`
    Modify(Modify),
    /// `copy r (...) from/into "file"` — batch input/output.
    Copy(Copy),
    /// `index on r is name (attr) [to heap|hash]` — create a secondary
    /// index (Ingres-style; the paper's §6 proposes exactly this for
    /// non-key temporal queries).
    Index(CreateIndex),
    /// `explain retrieve ...` — plan the retrieve, run it, and report
    /// the chosen detachment order, access paths, and estimated vs
    /// actual page I/O instead of the result rows.
    Explain(Retrieve),
}

/// The index statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Relation being indexed.
    pub rel: String,
    /// The index's name.
    pub name: String,
    /// The indexed attribute.
    pub attr: String,
    /// `heap` or `hash` (default hash — the winner in the paper's
    /// Figure 10).
    pub structure: Option<String>,
}

/// The retrieve statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieve {
    /// Materialize into this named relation instead of returning rows.
    pub into: Option<String>,
    /// The target list.
    pub targets: Vec<Target>,
    /// The `valid` clause (historical/temporal only).
    pub valid: Option<ValidClause>,
    /// The `where` qualification.
    pub where_clause: Option<Expr>,
    /// The `when` temporal predicate (historical/temporal only).
    pub when_clause: Option<TemporalPred>,
    /// The `as of` rollback clause (rollback/temporal only).
    pub as_of: Option<AsOf>,
    /// `sort by col [asc|desc], ...` over result column names.
    pub sort: Vec<SortKey>,
}

/// One `sort by` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortKey {
    /// The result column name.
    pub column: String,
    /// Descending order?
    pub descending: bool,
}

/// One entry of a target list: `expr` or `name = expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Result attribute name; defaults to the attribute name when the
    /// expression is a plain `var.attr`.
    pub name: Option<String>,
    /// The value expression.
    pub expr: Expr,
}

/// The append statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Append {
    /// Relation appended to.
    pub rel: String,
    /// Attribute assignments.
    pub assignments: Vec<Assignment>,
    /// The `valid` clause: when the new fact holds.
    pub valid: Option<ValidClause>,
    /// Qualification over range variables (for computed appends).
    pub where_clause: Option<Expr>,
    /// Temporal qualification.
    pub when_clause: Option<TemporalPred>,
}

/// The delete statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// The tuple variable naming what to delete.
    pub var: String,
    /// Qualification.
    pub where_clause: Option<Expr>,
    /// Temporal qualification.
    pub when_clause: Option<TemporalPred>,
    /// The `valid` clause: when the deletion takes effect in valid time
    /// (defaults to "now").
    pub valid: Option<ValidClause>,
}

/// The replace statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Replace {
    /// The tuple variable naming what to replace.
    pub var: String,
    /// Attribute assignments (unassigned attributes keep their values).
    pub assignments: Vec<Assignment>,
    /// The `valid` clause for the replacement fact.
    pub valid: Option<ValidClause>,
    /// Qualification.
    pub where_clause: Option<Expr>,
    /// Temporal qualification.
    pub when_clause: Option<TemporalPred>,
}

/// `attr = expr` in an append/replace.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Attribute being assigned.
    pub attr: String,
    /// The value expression.
    pub expr: Expr,
}

/// The extended create statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Create {
    /// Relation name.
    pub rel: String,
    /// Database class (the paper's `persistent` keyword maps to temporal).
    pub class: DatabaseClass,
    /// Interval or event (meaningful for historical/temporal).
    pub kind: TemporalKind,
    /// Declared attributes.
    pub attrs: Vec<(String, Domain)>,
}

/// The modify statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Modify {
    /// Relation to reorganize.
    pub rel: String,
    /// Target organization: `heap`, `hash`, or `isam`.
    pub organization: String,
    /// Key attribute (`on id`).
    pub key: Option<String>,
    /// `where fillfactor = N` (percent; defaults to 100).
    pub fillfactor: Option<u8>,
}

/// The copy statement (batch load/unload).
#[derive(Debug, Clone, PartialEq)]
pub struct Copy {
    /// Relation copied.
    pub rel: String,
    /// Direction: true = `from` (load), false = `into` (unload).
    pub from: bool,
    /// The file path.
    pub file: String,
}

/// Scalar expressions (the `where` clause and target lists).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Parameter slot `k` of a statement template: the `k`-th numeric
    /// literal of the [`Shape`](crate::token::Shape) it was parsed
    /// from. Only [`parse_tokens`](crate::parse_tokens) over
    /// [`lex_slots`](crate::token::lex_slots) tokens produces it;
    /// [`Statement::with_params`] puts the literal back.
    Param(usize),
    /// `var.attr` — attribute of a tuple variable.
    Attr {
        /// The tuple variable.
        var: String,
        /// The attribute.
        attr: String,
    },
    /// Binary operation.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Logical `not e`.
    Not(Box<Expr>),
    /// Aggregate call `count(e)`, `sum(e)`, … — allowed only as a
    /// retrieve target; the non-aggregate targets of the same retrieve
    /// act as the grouping key (a pragmatic restriction of Quel's general
    /// aggregate scoping, documented in the binder).
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Its argument.
        arg: Box<Expr>,
    },
}

/// The aggregate functions of Quel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Number of qualifying tuples.
    Count,
    /// Sum of a numeric expression.
    Sum,
    /// Mean of a numeric expression.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// Parse an aggregate-function name (they are ordinary identifiers
    /// until followed by `(`).
    pub fn from_name(s: &str) -> Option<AggFunc> {
        match s {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// The function's source name.
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// Binary operators, loosest binding last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `mod`
    Mod,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOp {
    /// Operator source text.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "mod",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }

    /// True for comparison operators (result is boolean).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
        )
    }
}

/// Temporal expressions: events and intervals built from tuple variables
/// and time constants.
///
/// A tuple variable denotes its tuple's valid interval (or valid instant
/// for event relations); a string literal denotes a time constant. The
/// constructors of TQuel's temporal algebra combine them.
#[derive(Debug, Clone, PartialEq)]
pub enum TemporalExpr {
    /// A tuple variable's valid time.
    Var(String),
    /// A time constant, still in source form (`"now"`, `"1981"`, ...);
    /// resolved against the transaction clock at execution.
    Lit(String),
    /// `start of e` — the first instant of `e`.
    Start(Box<TemporalExpr>),
    /// `end of e` — the last instant of `e`.
    End(Box<TemporalExpr>),
    /// `a overlap b` — the intersection of two intervals.
    Overlap(Box<TemporalExpr>, Box<TemporalExpr>),
    /// `a extend b` — the smallest interval covering both.
    Extend(Box<TemporalExpr>, Box<TemporalExpr>),
}

/// Temporal predicates (the `when` clause).
#[derive(Debug, Clone, PartialEq)]
pub enum TemporalPred {
    /// `a precede b` — `a` ends no later than `b` starts.
    Precede(TemporalExpr, TemporalExpr),
    /// `a overlap b` — the intervals share an instant.
    Overlap(TemporalExpr, TemporalExpr),
    /// `a equal b` — same interval.
    Equal(TemporalExpr, TemporalExpr),
    /// Conjunction.
    And(Box<TemporalPred>, Box<TemporalPred>),
    /// Disjunction.
    Or(Box<TemporalPred>, Box<TemporalPred>),
    /// Negation.
    Not(Box<TemporalPred>),
}

/// The `valid` clause: either an interval (`valid from a to b`) or an
/// event instant (`valid at a`).
#[derive(Debug, Clone, PartialEq)]
pub enum ValidClause {
    /// `valid from <event> to <event>`
    Interval {
        /// Start of validity.
        from: TemporalExpr,
        /// End of validity.
        to: TemporalExpr,
    },
    /// `valid at <event>`
    At(TemporalExpr),
}

/// The `as of` clause: roll the database back to `at`, or to the
/// transaction-time span `at through through`.
#[derive(Debug, Clone, PartialEq)]
pub struct AsOf {
    /// The rollback instant.
    pub at: TemporalExpr,
    /// Optional end of a rollback span (`as of t1 through t2`).
    pub through: Option<TemporalExpr>,
}

impl Expr {
    /// Collect the tuple variables referenced by this expression into
    /// `out` (deduplicated, in first-appearance order).
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Attr { var, .. } if !out.iter().any(|v| v == var) => {
                out.push(var.clone());
            }
            Expr::Bin { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            Expr::Neg(e) | Expr::Not(e) | Expr::Agg { arg: e, .. } => {
                e.collect_vars(out)
            }
            _ => {}
        }
    }

    /// Replace every [`Expr::Param`] with its literal from `lits`.
    ///
    /// Panics if a slot has no literal: a template and its literals
    /// come from one [`Shape`](crate::token::Shape).
    pub fn fill_params(&mut self, lits: &[Literal]) {
        match self {
            Expr::Param(k) => *self = lits[*k].into(),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.fill_params(lits);
                rhs.fill_params(lits);
            }
            Expr::Neg(e) | Expr::Not(e) | Expr::Agg { arg: e, .. } => {
                e.fill_params(lits)
            }
            Expr::Int(_)
            | Expr::Float(_)
            | Expr::Str(_)
            | Expr::Attr { .. } => {}
        }
    }
}

impl From<Literal> for Expr {
    fn from(lit: Literal) -> Expr {
        match lit {
            Literal::Int(v) => Expr::Int(v),
            Literal::Float(v) => Expr::Float(v),
        }
    }
}

impl Statement {
    /// This statement with every parameter slot filled from `lits`: for
    /// a template and the literals of its shape, the statement as
    /// written.
    pub fn with_params(&self, lits: &[Literal]) -> Statement {
        let mut s = self.clone();
        let fill = |e: &mut Expr| e.fill_params(lits);
        match &mut s {
            Statement::Retrieve(r) | Statement::Explain(r) => {
                r.targets.iter_mut().for_each(|t| fill(&mut t.expr));
                r.where_clause.iter_mut().for_each(fill);
            }
            Statement::Append(Append {
                assignments,
                where_clause,
                ..
            })
            | Statement::Replace(Replace {
                assignments,
                where_clause,
                ..
            }) => {
                assignments.iter_mut().for_each(|a| fill(&mut a.expr));
                where_clause.iter_mut().for_each(fill);
            }
            Statement::Delete(d) => {
                d.where_clause.iter_mut().for_each(fill)
            }
            Statement::Range { .. }
            | Statement::Create(_)
            | Statement::Destroy(_)
            | Statement::Modify(_)
            | Statement::Copy(_)
            | Statement::Index(_) => {}
        }
        s
    }
}

impl TemporalExpr {
    /// Collect referenced tuple variables.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            TemporalExpr::Var(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            TemporalExpr::Lit(_) => {}
            TemporalExpr::Start(e) | TemporalExpr::End(e) => {
                e.collect_vars(out)
            }
            TemporalExpr::Overlap(a, b) | TemporalExpr::Extend(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

impl TemporalPred {
    /// Collect referenced tuple variables.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            TemporalPred::Precede(a, b)
            | TemporalPred::Overlap(a, b)
            | TemporalPred::Equal(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            TemporalPred::And(a, b) | TemporalPred::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            TemporalPred::Not(p) => p.collect_vars(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_vars_dedups_in_order() {
        let e = Expr::Bin {
            op: BinOp::And,
            lhs: Box::new(Expr::Bin {
                op: BinOp::Eq,
                lhs: Box::new(Expr::Attr {
                    var: "h".into(),
                    attr: "id".into(),
                }),
                rhs: Box::new(Expr::Attr {
                    var: "i".into(),
                    attr: "amount".into(),
                }),
            }),
            rhs: Box::new(Expr::Attr {
                var: "h".into(),
                attr: "seq".into(),
            }),
        };
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec!["h", "i"]);
    }

    #[test]
    fn temporal_collect_vars() {
        let p = TemporalPred::Overlap(
            TemporalExpr::Start(Box::new(TemporalExpr::Var("h".into()))),
            TemporalExpr::Lit("now".into()),
        );
        let mut vars = Vec::new();
        p.collect_vars(&mut vars);
        assert_eq!(vars, vec!["h"]);
    }
}
