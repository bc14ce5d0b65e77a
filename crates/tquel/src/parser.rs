//! Recursive-descent parser for TQuel.
//!
//! One token of lookahead everywhere except the temporal-predicate /
//! temporal-expression ambiguity at `(`, which is resolved by bounded
//! backtracking (try the comparison form first, fall back to a
//! parenthesized predicate).

use crate::ast::*;
use crate::token::{lex, Keyword as K, Token, TokenKind as T};
use tdbms_kernel::{DatabaseClass, Domain, Error, Result, TemporalKind};

/// Parse a whole TQuel program (one or more statements, optionally
/// separated by `;`).
pub fn parse_program(src: &str) -> Result<Vec<Statement>> {
    Ok(parse_tokens(&lex(src)?)?.stmts)
}

/// A parsed program. Parsed from [`lex_slots`] tokens, every numeric
/// literal inside an expression is an [`Expr::Param`] slot, so one
/// template serves every statement of its [`Shape`]
/// ([`Statement::with_params`] puts the literals back).
///
/// [`lex_slots`]: crate::token::lex_slots
/// [`Shape`]: crate::token::Shape
#[derive(Debug, Clone)]
pub struct Template {
    /// The statements.
    pub stmts: Vec<Statement>,
    /// A lifted literal was consumed outside an expression (today only
    /// `modify … where fillfactor = N`): the tree holds its value, so
    /// the template serves only the literals it was parsed from.
    pub pinned: bool,
}

/// Parse a token stream — [`lex`]'s or [`lex_slots`]'s — into a
/// [`Template`].
///
/// [`lex_slots`]: crate::token::lex_slots
pub fn parse_tokens(toks: &[Token]) -> Result<Template> {
    if !matches!(toks.last(), Some(Token { kind: T::Eof, .. })) {
        return Err(Error::Internal(
            "token stream does not end with end of input".into(),
        ));
    }
    let mut p = Parser {
        toks,
        pos: 0,
        paren_depth: 0,
        depth: 0,
        pinned: false,
    };
    let mut stmts = Vec::new();
    loop {
        while p.eat(&T::Semi) {}
        if p.at_eof() {
            break;
        }
        stmts.push(p.statement()?);
    }
    Ok(Template {
        stmts,
        pinned: p.pinned,
    })
}

/// Parse exactly one TQuel statement.
pub fn parse_statement(src: &str) -> Result<Statement> {
    let stmts = parse_program(src)?;
    match <[Statement; 1]>::try_from(stmts) {
        Ok([s]) => Ok(s),
        Err(v) => Err(Error::Semantic(format!(
            "expected exactly one statement, found {}",
            v.len()
        ))),
    }
}

/// The `(valid, where, when, as-of)` clause bundle of a DML statement.
type Clauses = (
    Option<ValidClause>,
    Option<Expr>,
    Option<TemporalPred>,
    Option<AsOf>,
);

/// Hard cap on expression nesting. The parser is recursive-descent, so
/// without a bound a statement like `(((((…)))))` or a long `not not …`
/// chain overflows the thread stack and kills the whole process — which a
/// remote client must never be able to do. Each nesting level costs a
/// handful of parser frames, so 128 keeps worst-case stack usage well
/// under a megabyte while being far deeper than any real query.
const MAX_EXPR_DEPTH: u32 = 128;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Parenthesis nesting inside a temporal expression (see
    /// [`Parser::overlap_is_predicate`]).
    paren_depth: u32,
    /// Current expression recursion depth, bounded by
    /// [`MAX_EXPR_DEPTH`].
    depth: u32,
    /// A lifted literal was read by value (see [`Template::pinned`]).
    pinned: bool,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Token {
        // Safe: lexer always appends Eof.
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == T::Eof
    }

    fn advance(&mut self) -> Token {
        let mut t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        // Only `primary_expr` turns a lifted literal into a parameter
        // slot; anywhere else the grammar reads its value.
        if let T::Param(_, lit) = t.kind {
            self.pinned = true;
            t.kind = lit.into();
        }
        t
    }

    fn eat(&mut self, kind: &T) -> bool {
        if &self.peek().kind == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: K) -> bool {
        self.eat(&T::Keyword(k))
    }

    /// Enter one level of expression recursion; fails (without changing
    /// `depth`) once the nesting cap is reached, so every successful call
    /// is balanced by exactly one decrement in its caller.
    fn enter(&mut self) -> Result<()> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.err(format!(
                "expression nesting too deep (limit {MAX_EXPR_DEPTH})"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let t = self.peek();
        Error::Parse {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn expect(&mut self, kind: &T) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{kind}`, found `{}`",
                self.peek().kind
            )))
        }
    }

    fn expect_kw(&mut self, k: K) -> Result<()> {
        self.expect(&T::Keyword(k))
    }

    fn ident(&mut self) -> Result<String> {
        match &self.peek().kind {
            T::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => {
                Err(self
                    .err(format!("expected identifier, found `{other}`")))
            }
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match &self.peek().kind {
            T::Keyword(K::Range) => self.range_stmt(),
            T::Keyword(K::Retrieve) => self.retrieve_stmt(),
            T::Keyword(K::Append) => self.append_stmt(),
            T::Keyword(K::Delete) => self.delete_stmt(),
            T::Keyword(K::Replace) => self.replace_stmt(),
            T::Keyword(K::Create) => self.create_stmt(),
            T::Keyword(K::Destroy) => {
                self.advance();
                Ok(Statement::Destroy(self.ident()?))
            }
            T::Keyword(K::Modify) => self.modify_stmt(),
            T::Keyword(K::Copy) => self.copy_stmt(),
            T::Keyword(K::Index) => self.index_stmt(),
            T::Keyword(K::Explain) => {
                self.advance();
                match self.retrieve_stmt()? {
                    Statement::Retrieve(r) => Ok(Statement::Explain(r)),
                    _ => unreachable!("retrieve_stmt yields Retrieve"),
                }
            }
            other => {
                Err(self
                    .err(format!("expected a statement, found `{other}`")))
            }
        }
    }

    fn range_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Range)?;
        self.expect_kw(K::Of)?;
        let var = self.ident()?;
        self.expect_kw(K::Is)?;
        let rel = self.ident()?;
        Ok(Statement::Range { var, rel })
    }

    /// The optional clauses shared by retrieve/append/delete/replace, in
    /// any order, each at most once.
    fn clauses(&mut self) -> Result<Clauses> {
        let mut valid = None;
        let mut where_clause = None;
        let mut when_clause = None;
        let mut as_of = None;
        loop {
            match &self.peek().kind {
                T::Keyword(K::Valid) if valid.is_none() => {
                    self.advance();
                    valid = Some(self.valid_clause()?);
                }
                T::Keyword(K::Where) if where_clause.is_none() => {
                    self.advance();
                    where_clause = Some(self.expr()?);
                }
                T::Keyword(K::When) if when_clause.is_none() => {
                    self.advance();
                    when_clause = Some(self.temporal_pred()?);
                }
                T::Keyword(K::As) if as_of.is_none() => {
                    self.advance();
                    self.expect_kw(K::Of)?;
                    let at = self.temporal_expr()?;
                    let through = if self.eat_kw(K::Through) {
                        Some(self.temporal_expr()?)
                    } else {
                        None
                    };
                    as_of = Some(AsOf { at, through });
                }
                T::Keyword(K::Valid | K::Where | K::When | K::As) => {
                    return Err(self.err("duplicate clause"))
                }
                _ => break,
            }
        }
        Ok((valid, where_clause, when_clause, as_of))
    }

    fn valid_clause(&mut self) -> Result<ValidClause> {
        if self.eat_kw(K::At) {
            Ok(ValidClause::At(self.temporal_expr()?))
        } else {
            self.expect_kw(K::From)?;
            let from = self.temporal_expr()?;
            self.expect_kw(K::To)?;
            let to = self.temporal_expr()?;
            Ok(ValidClause::Interval { from, to })
        }
    }

    fn retrieve_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Retrieve)?;
        let into = if self.eat_kw(K::Into) {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(&T::LParen)?;
        let mut targets = Vec::new();
        loop {
            targets.push(self.target()?);
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect(&T::RParen)?;
        let (valid, where_clause, when_clause, as_of) = self.clauses()?;
        let mut sort = Vec::new();
        if self.eat_kw(K::Sort) {
            self.expect_kw(K::By)?;
            loop {
                let column = self.ident()?;
                let descending = if self.eat_kw(K::Desc) {
                    true
                } else {
                    let _ = self.eat_kw(K::Asc);
                    false
                };
                sort.push(SortKey { column, descending });
                if !self.eat(&T::Comma) {
                    break;
                }
            }
        }
        Ok(Statement::Retrieve(Retrieve {
            into,
            targets,
            valid,
            where_clause,
            when_clause,
            as_of,
            sort,
        }))
    }

    fn target(&mut self) -> Result<Target> {
        // `name = expr` vs a bare expression: an identifier followed by `=`
        // is a result name.
        if let (T::Ident(name), T::Eq) =
            (&self.peek().kind, &self.peek2().kind)
        {
            let name = name.clone();
            self.advance();
            self.advance();
            return Ok(Target {
                name: Some(name),
                expr: self.expr()?,
            });
        }
        Ok(Target {
            name: None,
            expr: self.expr()?,
        })
    }

    fn assignments(&mut self) -> Result<Vec<Assignment>> {
        self.expect(&T::LParen)?;
        let mut out = Vec::new();
        loop {
            let attr = self.ident()?;
            self.expect(&T::Eq)?;
            let expr = self.expr()?;
            out.push(Assignment { attr, expr });
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect(&T::RParen)?;
        Ok(out)
    }

    fn append_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Append)?;
        let _ = self.eat_kw(K::To);
        let rel = self.ident()?;
        let assignments = self.assignments()?;
        let (valid, where_clause, when_clause, as_of) = self.clauses()?;
        if as_of.is_some() {
            return Err(self.err("`as of` is not allowed on append"));
        }
        Ok(Statement::Append(Append {
            rel,
            assignments,
            valid,
            where_clause,
            when_clause,
        }))
    }

    fn delete_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Delete)?;
        let var = self.ident()?;
        let (valid, where_clause, when_clause, as_of) = self.clauses()?;
        if as_of.is_some() {
            return Err(self.err("`as of` is not allowed on delete"));
        }
        Ok(Statement::Delete(Delete {
            var,
            where_clause,
            when_clause,
            valid,
        }))
    }

    fn replace_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Replace)?;
        let var = self.ident()?;
        let assignments = self.assignments()?;
        let (valid, where_clause, when_clause, as_of) = self.clauses()?;
        if as_of.is_some() {
            return Err(self.err("`as of` is not allowed on replace"));
        }
        Ok(Statement::Replace(Replace {
            var,
            assignments,
            valid,
            where_clause,
            when_clause,
        }))
    }

    fn create_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Create)?;
        let class = match &self.peek().kind {
            T::Keyword(K::Static) => {
                self.advance();
                DatabaseClass::Static
            }
            T::Keyword(K::Rollback) => {
                self.advance();
                DatabaseClass::Rollback
            }
            T::Keyword(K::Historical) => {
                self.advance();
                DatabaseClass::Historical
            }
            // The paper's Figure 3 writes `create persistent interval ...`
            // for its temporal relations.
            T::Keyword(K::Temporal | K::Persistent) => {
                self.advance();
                DatabaseClass::Temporal
            }
            _ => DatabaseClass::Static,
        };
        let kind = match &self.peek().kind {
            T::Keyword(K::Interval) => {
                self.advance();
                TemporalKind::Interval
            }
            T::Keyword(K::Event) => {
                self.advance();
                TemporalKind::Event
            }
            _ => TemporalKind::Interval,
        };
        let rel = self.ident()?;
        self.expect(&T::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect(&T::Eq)?;
            let ty = self.ident()?;
            attrs.push((name, Domain::parse(&ty)?));
            if !self.eat(&T::Comma) {
                break;
            }
        }
        self.expect(&T::RParen)?;
        Ok(Statement::Create(Create {
            rel,
            class,
            kind,
            attrs,
        }))
    }

    fn modify_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Modify)?;
        let rel = self.ident()?;
        self.expect_kw(K::To)?;
        let organization = match &self.peek().kind {
            T::Keyword(K::Heap) => {
                self.advance();
                "heap".to_string()
            }
            T::Keyword(K::Hash) => {
                self.advance();
                "hash".to_string()
            }
            T::Keyword(K::Isam) => {
                self.advance();
                "isam".to_string()
            }
            _ => self.ident()?,
        };
        let key = if self.eat_kw(K::On) {
            Some(self.ident()?)
        } else {
            None
        };
        let fillfactor = if self.eat_kw(K::Where) {
            self.expect_kw(K::Fillfactor)?;
            self.expect(&T::Eq)?;
            match self.advance().kind {
                T::Int(n) if (1..=100).contains(&n) => Some(n as u8),
                other => {
                    return Err(self.err(format!(
                        "fillfactor must be 1..=100, found `{other}`"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Statement::Modify(Modify {
            rel,
            organization,
            key,
            fillfactor,
        }))
    }

    fn index_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Index)?;
        self.expect_kw(K::On)?;
        let rel = self.ident()?;
        self.expect_kw(K::Is)?;
        let name = self.ident()?;
        self.expect(&T::LParen)?;
        let attr = self.ident()?;
        self.expect(&T::RParen)?;
        let structure = if self.eat_kw(K::To) {
            Some(match &self.peek().kind {
                T::Keyword(K::Heap) => {
                    self.advance();
                    "heap".to_string()
                }
                T::Keyword(K::Hash) => {
                    self.advance();
                    "hash".to_string()
                }
                other => {
                    return Err(self.err(format!(
                    "index structure must be heap or hash, found `{other}`"
                )))
                }
            })
        } else {
            None
        };
        Ok(Statement::Index(CreateIndex {
            rel,
            name,
            attr,
            structure,
        }))
    }

    fn copy_stmt(&mut self) -> Result<Statement> {
        self.expect_kw(K::Copy)?;
        let rel = self.ident()?;
        // Optional (and ignored) attribute-format list, Quel style.
        if self.eat(&T::LParen) {
            while !self.eat(&T::RParen) {
                if self.at_eof() {
                    return Err(self.err("unterminated copy format list"));
                }
                self.advance();
            }
        }
        let from = if self.eat_kw(K::From) {
            true
        } else if self.eat_kw(K::Into) {
            false
        } else {
            return Err(self.err("expected `from` or `into` in copy"));
        };
        let file = match self.advance().kind {
            T::Str(s) => s,
            other => {
                return Err(self
                    .err(format!("expected file string, found `{other}`")))
            }
        };
        Ok(Statement::Copy(Copy { rel, from, file }))
    }

    // ---- scalar expressions -------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.enter()?;
        let r = self.or_expr();
        self.depth -= 1;
        r
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw(K::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::Bin {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw(K::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::Bin {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw(K::Not) {
            self.enter()?;
            let r = self.not_expr().map(|e| Expr::Not(Box::new(e)));
            self.depth -= 1;
            r
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match &self.peek().kind {
            T::Eq => BinOp::Eq,
            T::Ne => BinOp::Ne,
            T::Lt => BinOp::Lt,
            T::Le => BinOp::Le,
            T::Gt => BinOp::Gt,
            T::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.advance();
        let rhs = self.add_expr()?;
        Ok(Expr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match &self.peek().kind {
                T::Plus => BinOp::Add,
                T::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match &self.peek().kind {
                T::Star => BinOp::Mul,
                T::Slash => BinOp::Div,
                T::Keyword(K::Mod) => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&T::Minus) {
            self.enter()?;
            let r = self.unary_expr().map(|e| Expr::Neg(Box::new(e)));
            self.depth -= 1;
            r
        } else {
            self.primary_expr()
        }
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        match self.peek().kind.clone() {
            T::Int(v) => {
                self.advance();
                Ok(Expr::Int(v))
            }
            T::Float(v) => {
                self.advance();
                Ok(Expr::Float(v))
            }
            T::Param(slot, _) => {
                // Not `advance`, which would read the literal by value;
                // a literal token is never the final `Eof`.
                self.pos += 1;
                Ok(Expr::Param(slot))
            }
            T::Str(s) => {
                self.advance();
                Ok(Expr::Str(s))
            }
            T::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&T::RParen)?;
                Ok(e)
            }
            T::Ident(var) => {
                self.advance();
                // `ident(` is an aggregate call; `ident.attr` a reference.
                if self.peek().kind == T::LParen {
                    let Some(func) = crate::ast::AggFunc::from_name(&var)
                    else {
                        return Err(self.err(format!(
                            "unknown aggregate function {var:?} (expected                              count, sum, avg, min, or max)"
                        )));
                    };
                    self.advance();
                    let arg = self.expr()?;
                    self.expect(&T::RParen)?;
                    return Ok(Expr::Agg {
                        func,
                        arg: Box::new(arg),
                    });
                }
                self.expect(&T::Dot).map_err(|_| {
                    self.err(format!(
                        "attribute references must be qualified: `{var}.<attr>`"
                    ))
                })?;
                // Implicit time attributes may appear in target lists.
                let attr = match &self.peek().kind {
                    T::Ident(a) => {
                        let a = a.clone();
                        self.advance();
                        a
                    }
                    other => {
                        return Err(self.err(format!(
                            "expected attribute name, found `{other}`"
                        )))
                    }
                };
                Ok(Expr::Attr { var, attr })
            }
            other => {
                Err(self
                    .err(format!("expected expression, found `{other}`")))
            }
        }
    }

    // ---- temporal expressions and predicates --------------------------

    fn temporal_pred(&mut self) -> Result<TemporalPred> {
        self.tpred_or()
    }

    fn tpred_or(&mut self) -> Result<TemporalPred> {
        let mut lhs = self.tpred_and()?;
        while self.eat_kw(K::Or) {
            let rhs = self.tpred_and()?;
            lhs = TemporalPred::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn tpred_and(&mut self) -> Result<TemporalPred> {
        let mut lhs = self.tpred_not()?;
        while self.eat_kw(K::And) {
            let rhs = self.tpred_not()?;
            lhs = TemporalPred::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn tpred_not(&mut self) -> Result<TemporalPred> {
        if self.eat_kw(K::Not) {
            self.enter()?;
            let r =
                self.tpred_not().map(|p| TemporalPred::Not(Box::new(p)));
            self.depth -= 1;
            return r;
        }
        // `(` is ambiguous: `(a overlap b) precede c` is a comparison whose
        // left operand is parenthesized, `(a precede b)` is a parenthesized
        // predicate. Try the comparison form, backtrack on failure —
        // restoring the paren/recursion depths too, or a failed attempt
        // deep inside parentheses would poison the overlap disambiguation
        // (and, for `depth`, the nesting budget).
        let save = self.pos;
        let save_depth = self.paren_depth;
        let save_expr_depth = self.depth;
        match self.tpred_cmp() {
            Ok(p) => Ok(p),
            Err(first_err) => {
                self.pos = save;
                self.paren_depth = save_depth;
                self.depth = save_expr_depth;
                self.enter()?;
                let r = if self.eat(&T::LParen) {
                    let p = self.temporal_pred()?;
                    self.expect(&T::RParen)?;
                    Ok(p)
                } else {
                    Err(first_err)
                };
                self.depth -= 1;
                r
            }
        }
    }

    fn tpred_cmp(&mut self) -> Result<TemporalPred> {
        let lhs = self.temporal_expr()?;
        match &self.peek().kind {
            T::Keyword(K::Precede) => {
                self.advance();
                Ok(TemporalPred::Precede(lhs, self.temporal_expr()?))
            }
            T::Keyword(K::Overlap) => {
                self.advance();
                Ok(TemporalPred::Overlap(lhs, self.temporal_expr()?))
            }
            T::Keyword(K::Equal) => {
                self.advance();
                Ok(TemporalPred::Equal(lhs, self.temporal_expr()?))
            }
            other => Err(self.err(format!(
                "expected `precede`, `overlap`, or `equal`, found `{other}`"
            ))),
        }
    }

    fn temporal_expr(&mut self) -> Result<TemporalExpr> {
        self.texpr_extend()
    }

    fn texpr_extend(&mut self) -> Result<TemporalExpr> {
        let mut lhs = self.texpr_overlap()?;
        while self.eat_kw(K::Extend) {
            let rhs = self.texpr_overlap()?;
            lhs = TemporalExpr::Extend(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn texpr_overlap(&mut self) -> Result<TemporalExpr> {
        let mut lhs = self.texpr_unary()?;
        // `overlap` is both an interval constructor (here) and a predicate
        // (in `when`). Inside a temporal expression it is the constructor
        // unless it is the predicate of the enclosing comparison — the
        // comparison parser consumes it first only at the top level, so a
        // constructor use must be parenthesized there, exactly as the
        // paper writes `start of (h overlap i)`.
        while self.peek().kind == T::Keyword(K::Overlap)
            && !self.overlap_is_predicate()
        {
            self.advance();
            let rhs = self.texpr_unary()?;
            lhs = TemporalExpr::Overlap(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// Heuristic disambiguation of `a overlap b`: when parsing inside a
    /// `when` comparison, a top-level `overlap` is the predicate. We treat
    /// `overlap` as a constructor only inside parentheses, which is where
    /// TQuel programs (and the paper) put constructor uses.
    fn overlap_is_predicate(&self) -> bool {
        self.paren_depth == 0
    }

    fn texpr_unary(&mut self) -> Result<TemporalExpr> {
        match self.peek().kind.clone() {
            T::Keyword(K::Start) => {
                self.advance();
                self.expect_kw(K::Of)?;
                self.enter()?;
                let r = self
                    .texpr_unary()
                    .map(|e| TemporalExpr::Start(Box::new(e)));
                self.depth -= 1;
                r
            }
            T::Keyword(K::End) => {
                self.advance();
                self.expect_kw(K::Of)?;
                self.enter()?;
                let r = self
                    .texpr_unary()
                    .map(|e| TemporalExpr::End(Box::new(e)));
                self.depth -= 1;
                r
            }
            T::Ident(v) => {
                self.advance();
                Ok(TemporalExpr::Var(v))
            }
            T::Str(s) => {
                self.advance();
                Ok(TemporalExpr::Lit(s))
            }
            T::LParen => {
                self.advance();
                self.enter()?;
                self.paren_depth += 1;
                let e = self.temporal_expr();
                self.paren_depth -= 1;
                self.depth -= 1;
                let e = e?;
                self.expect(&T::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!(
                "expected temporal expression, found `{other}`"
            ))),
        }
    }
}
