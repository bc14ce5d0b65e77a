//! Pretty-printing of TQuel syntax trees back to source text.
//!
//! The printer is conservative with parentheses so that
//! `parse(print(ast)) == ast` holds structurally — the property tests rely
//! on it. Composite temporal expressions are always parenthesized, which
//! also keeps constructor `overlap` distinguishable from the predicate.

use crate::ast::*;
use std::fmt;

/// Render a string literal so the lexer reads back the exact value: the
/// lexer treats `\x` as an escape for any `x`, so both the backslash
/// itself and the quote must be escaped (backslash first).
pub fn quote_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Range { var, rel } => {
                write!(f, "range of {var} is {rel}")
            }
            Statement::Retrieve(r) => write!(f, "{r}"),
            Statement::Append(a) => write!(f, "{a}"),
            Statement::Delete(d) => write!(f, "{d}"),
            Statement::Replace(r) => write!(f, "{r}"),
            Statement::Create(c) => write!(f, "{c}"),
            Statement::Destroy(r) => write!(f, "destroy {r}"),
            Statement::Modify(m) => write!(f, "{m}"),
            Statement::Copy(c) => write!(f, "{c}"),
            Statement::Index(i) => write!(f, "{i}"),
            Statement::Explain(r) => write!(f, "explain {r}"),
        }
    }
}

impl fmt::Display for CreateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "index on {} is {} ({})",
            self.rel, self.name, self.attr
        )?;
        if let Some(s) = &self.structure {
            write!(f, " to {s}")?;
        }
        Ok(())
    }
}

fn write_clauses(
    f: &mut fmt::Formatter<'_>,
    valid: &Option<ValidClause>,
    where_clause: &Option<Expr>,
    when_clause: &Option<TemporalPred>,
    as_of: &Option<AsOf>,
) -> fmt::Result {
    if let Some(v) = valid {
        write!(f, " {v}")?;
    }
    if let Some(w) = where_clause {
        write!(f, " where {w}")?;
    }
    if let Some(w) = when_clause {
        write!(f, " when {w}")?;
    }
    if let Some(a) = as_of {
        write!(f, " {a}")?;
    }
    Ok(())
}

impl fmt::Display for Retrieve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "retrieve ")?;
        if let Some(into) = &self.into {
            write!(f, "into {into} ")?;
        }
        write!(f, "(")?;
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")?;
        write_clauses(
            f,
            &self.valid,
            &self.where_clause,
            &self.when_clause,
            &self.as_of,
        )?;
        for (i, k) in self.sort.iter().enumerate() {
            if i == 0 {
                write!(f, " sort by ")?;
            } else {
                write!(f, ", ")?;
            }
            write!(f, "{}", k.column)?;
            if k.descending {
                write!(f, " desc")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            write!(f, "{name} = ")?;
        }
        write!(f, "{}", self.expr)
    }
}

impl fmt::Display for Append {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "append to {} (", self.rel)?;
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} = {}", a.attr, a.expr)?;
        }
        write!(f, ")")?;
        write_clauses(
            f,
            &self.valid,
            &self.where_clause,
            &self.when_clause,
            &None,
        )
    }
}

impl fmt::Display for Delete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delete {}", self.var)?;
        write_clauses(
            f,
            &self.valid,
            &self.where_clause,
            &self.when_clause,
            &None,
        )
    }
}

impl fmt::Display for Replace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replace {} (", self.var)?;
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} = {}", a.attr, a.expr)?;
        }
        write!(f, ")")?;
        write_clauses(
            f,
            &self.valid,
            &self.where_clause,
            &self.when_clause,
            &None,
        )
    }
}

impl fmt::Display for Create {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "create {} {} {} (", self.class, self.kind, self.rel)?;
        for (i, (name, ty)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = {ty}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Modify {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "modify {} to {}", self.rel, self.organization)?;
        if let Some(k) = &self.key {
            write!(f, " on {k}")?;
        }
        if let Some(ff) = self.fillfactor {
            write!(f, " where fillfactor = {ff}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Copy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "copy {} {} {}",
            self.rel,
            if self.from { "from" } else { "into" },
            quote_str(&self.file)
        )
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => {
                // Keep a decimal point so the literal re-lexes as a float.
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Str(s) => write!(f, "{}", quote_str(s)),
            // Only a template holds slots; a statement parsed from text
            // never prints one.
            Expr::Param(k) => write!(f, "?{k}"),
            Expr::Attr { var, attr } => write!(f, "{var}.{attr}"),
            Expr::Bin { op, lhs, rhs } => {
                write!(f, "({lhs} {} {rhs})", op.as_str())
            }
            Expr::Neg(e) => write!(f, "(- {e})"),
            Expr::Not(e) => write!(f, "(not {e})"),
            Expr::Agg { func, arg } => {
                write!(f, "{}({arg})", func.as_str())
            }
        }
    }
}

impl fmt::Display for TemporalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalExpr::Var(v) => write!(f, "{v}"),
            TemporalExpr::Lit(s) => write!(f, "{}", quote_str(s)),
            TemporalExpr::Start(e) => write!(f, "start of {e}"),
            TemporalExpr::End(e) => write!(f, "end of {e}"),
            TemporalExpr::Overlap(a, b) => write!(f, "({a} overlap {b})"),
            TemporalExpr::Extend(a, b) => write!(f, "({a} extend {b})"),
        }
    }
}

impl fmt::Display for TemporalPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalPred::Precede(a, b) => write!(f, "{a} precede {b}"),
            TemporalPred::Overlap(a, b) => write!(f, "{a} overlap {b}"),
            TemporalPred::Equal(a, b) => write!(f, "{a} equal {b}"),
            TemporalPred::And(a, b) => write!(f, "({a}) and ({b})"),
            TemporalPred::Or(a, b) => write!(f, "({a}) or ({b})"),
            TemporalPred::Not(p) => write!(f, "not ({p})"),
        }
    }
}

impl fmt::Display for ValidClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidClause::Interval { from, to } => {
                write!(f, "valid from {from} to {to}")
            }
            ValidClause::At(e) => write!(f, "valid at {e}"),
        }
    }
}

impl fmt::Display for AsOf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "as of {}", self.at)?;
        if let Some(t) = &self.through {
            write!(f, " through {t}")?;
        }
        Ok(())
    }
}
