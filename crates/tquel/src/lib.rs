//! # tdbms-tquel
//!
//! The TQuel temporal query language (Snodgrass 1984/1985): a superset of
//! Quel that adds the `when` temporal predicate, the `valid` clause, the
//! `as of` rollback clause, and the extended `create` statement that
//! declares a relation's class (static / rollback / historical / temporal)
//! and kind (interval / event).
//!
//! This crate is pure syntax: [`token`] (lexer, including the statement
//! [`token::Shape`] a cache keys on), [`ast`], [`parser`], and
//! [`printer`] (round-trippable pretty-printing). Name resolution and
//! execution live in `tdbms-core`, which knows the catalog.
//!
//! ```
//! use tdbms_tquel::parse_statement;
//!
//! let stmt = parse_statement(
//!     r#"retrieve (h.id, h.seq) where h.id = 500 when h overlap "now""#,
//! ).unwrap();
//! assert!(matches!(stmt, tdbms_tquel::ast::Statement::Retrieve(_)));
//! ```

pub mod ast;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::Statement;
pub use parser::{parse_program, parse_statement, parse_tokens, Template};

#[cfg(test)]
mod tests {
    use super::ast::*;
    use super::*;
    use tdbms_kernel::{DatabaseClass, Domain, TemporalKind};

    fn parse1(src: &str) -> Statement {
        parse_statement(src).unwrap_or_else(|e| panic!("{src:?}: {e}"))
    }

    fn roundtrip(src: &str) {
        let ast = parse1(src);
        let printed = ast.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
        assert_eq!(ast, reparsed, "printed form: {printed}");
    }

    #[test]
    fn parses_range_statement() {
        assert_eq!(
            parse1("range of h is Temporal_h"),
            Statement::Range {
                var: "h".into(),
                rel: "temporal_h".into()
            }
        );
    }

    #[test]
    fn parses_every_benchmark_query() {
        // The twelve queries of the paper's Figure 4 (clause-for-clause).
        let queries = [
            r#"retrieve (h.id, h.seq) where h.id = 500"#,
            r#"retrieve (i.id, i.seq) where i.id = 500"#,
            r#"retrieve (h.id, h.seq) as of "08:00 1/1/80""#,
            r#"retrieve (i.id, i.seq) as of "08:00 1/1/80""#,
            r#"retrieve (h.id, h.seq) where h.id = 500 when h overlap "now""#,
            r#"retrieve (i.id, i.seq) where i.id = 500 when i overlap "now""#,
            r#"retrieve (h.id, h.seq) where h.amount = 69400 when h overlap "now""#,
            r#"retrieve (i.id, i.seq) where i.amount = 73700 when i overlap "now""#,
            r#"retrieve (h.id, i.id, i.amount) where h.id = i.amount
               when h overlap i and i overlap "now""#,
            r#"retrieve (i.id, h.id, h.amount) where i.id = h.amount
               when h overlap i and h overlap "now""#,
            r#"retrieve (h.id, h.seq, i.id, i.seq, i.amount)
               valid from start of h to end of i
               when start of h precede i
               as of "4:00 1/1/80""#,
            r#"retrieve (h.id, h.seq, i.id, i.seq, i.amount)
               valid from start of (h overlap i) to end of (h extend i)
               where h.id = 500 and i.amount = 73700
               when h overlap i
               as of "now""#,
        ];
        for q in queries {
            let Statement::Retrieve(_) = parse1(q) else {
                panic!("{q} did not parse as retrieve");
            };
            roundtrip(q);
        }
    }

    #[test]
    fn figure2_query_structure() {
        // The paper's Figure 2 example, checked in detail.
        let q = r#"retrieve (h.id, h.seq, i.id, i.seq, i.amount)
                   valid from start of (h overlap i) to end of (h extend i)
                   where h.id = 500 and i.amount = 73700
                   when h overlap i
                   as of "1981""#;
        let Statement::Retrieve(r) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(r.targets.len(), 5);
        let Some(ValidClause::Interval { from, to }) = &r.valid else {
            panic!("expected interval valid clause");
        };
        assert_eq!(
            *from,
            TemporalExpr::Start(Box::new(TemporalExpr::Overlap(
                Box::new(TemporalExpr::Var("h".into())),
                Box::new(TemporalExpr::Var("i".into())),
            )))
        );
        assert_eq!(
            *to,
            TemporalExpr::End(Box::new(TemporalExpr::Extend(
                Box::new(TemporalExpr::Var("h".into())),
                Box::new(TemporalExpr::Var("i".into())),
            )))
        );
        assert_eq!(
            r.when_clause,
            Some(TemporalPred::Overlap(
                TemporalExpr::Var("h".into()),
                TemporalExpr::Var("i".into()),
            ))
        );
        assert_eq!(
            r.as_of,
            Some(AsOf {
                at: TemporalExpr::Lit("1981".into()),
                through: None
            })
        );
        // The where clause is (h.id = 500) and (i.amount = 73700).
        let Some(Expr::Bin { op: BinOp::And, .. }) = r.where_clause else {
            panic!("expected and-qualification");
        };
    }

    #[test]
    fn parses_figure3_creates() {
        let q = "create persistent interval Temporal_h \
                 (id = i4, amount = i4, seq = i4, string = c96)";
        let Statement::Create(c) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(c.rel, "temporal_h");
        assert_eq!(c.class, DatabaseClass::Temporal);
        assert_eq!(c.kind, TemporalKind::Interval);
        assert_eq!(
            c.attrs,
            vec![
                ("id".to_string(), Domain::I4),
                ("amount".to_string(), Domain::I4),
                ("seq".to_string(), Domain::I4),
                ("string".to_string(), Domain::Char(96)),
            ]
        );
        roundtrip(q);
    }

    #[test]
    fn parses_figure3_modifies() {
        let q = "modify Temporal_h to hash on id where fillfactor = 100";
        let Statement::Modify(m) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(m.rel, "temporal_h");
        assert_eq!(m.organization, "hash");
        assert_eq!(m.key.as_deref(), Some("id"));
        assert_eq!(m.fillfactor, Some(100));
        roundtrip(q);
        let q = "modify Temporal_i to isam on id where fillfactor = 50";
        let Statement::Modify(m) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(m.organization, "isam");
        assert_eq!(m.fillfactor, Some(50));
        roundtrip("modify r to heap");
    }

    #[test]
    fn parses_dml_statements() {
        roundtrip(r#"append to emp (name = "merrie", salary = 11000)"#);
        roundtrip(
            r#"append to emp (name = "merrie") valid from "1980" to "forever""#,
        );
        roundtrip(r#"delete e where e.name = "merrie""#);
        roundtrip(
            r#"delete e valid from "1982" to "forever" where e.id = 1"#,
        );
        roundtrip(
            r#"replace e (salary = 12000) valid from "6/1/80" to "forever"
               where e.name = "merrie""#,
        );
        roundtrip("destroy emp");
        roundtrip(r#"copy emp from "/tmp/emp.dat""#);
        roundtrip(r#"copy emp into "/tmp/emp.out""#);
    }

    #[test]
    fn parses_retrieve_into() {
        let Statement::Retrieve(r) =
            parse1("retrieve into snap (e.id) where e.id < 3")
        else {
            unreachable!()
        };
        assert_eq!(r.into.as_deref(), Some("snap"));
        roundtrip("retrieve into snap (e.id) where e.id < 3");
    }

    #[test]
    fn parses_named_targets_and_arithmetic() {
        let Statement::Retrieve(r) = parse1(
            "retrieve (raise = e.salary * 2 + 1, e.name) where not e.id = 3",
        ) else {
            unreachable!()
        };
        assert_eq!(r.targets[0].name.as_deref(), Some("raise"));
        // Precedence: (e.salary * 2) + 1.
        let Expr::Bin {
            op: BinOp::Add,
            lhs,
            ..
        } = &r.targets[0].expr
        else {
            panic!("expected +: {:?}", r.targets[0].expr);
        };
        assert!(matches!(**lhs, Expr::Bin { op: BinOp::Mul, .. }));
        roundtrip("retrieve (raise = e.salary * 2 + 1, e.name) where not e.id = 3");
    }

    #[test]
    fn parses_nested_temporal_predicates() {
        roundtrip(
            r#"retrieve (h.id) when (h overlap i) and (not (h precede "now"))"#,
        );
        roundtrip(r#"retrieve (h.id) when (h precede i) or (i precede h)"#);
        roundtrip(
            r#"retrieve (h.id) when start of (h extend i) precede end of h"#,
        );
        roundtrip(r#"retrieve (h.id) when h equal i"#);
    }

    #[test]
    fn parses_as_of_through() {
        let Statement::Retrieve(r) =
            parse1(r#"retrieve (h.id) as of "1981" through "1983""#)
        else {
            unreachable!()
        };
        let as_of = r.as_of.unwrap();
        assert_eq!(as_of.at, TemporalExpr::Lit("1981".into()));
        assert_eq!(as_of.through, Some(TemporalExpr::Lit("1983".into())));
        roundtrip(r#"retrieve (h.id) as of "1981" through "1983""#);
    }

    #[test]
    fn parses_valid_at_event() {
        let Statement::Retrieve(r) =
            parse1(r#"retrieve (e.id) valid at "1981""#)
        else {
            unreachable!()
        };
        assert_eq!(
            r.valid,
            Some(ValidClause::At(TemporalExpr::Lit("1981".into())))
        );
        roundtrip(r#"retrieve (e.id) valid at "1981""#);
    }

    #[test]
    fn parses_multi_statement_programs() {
        let stmts = parse_program(
            "range of h is temporal_h\n\
             range of i is temporal_i;\n\
             retrieve (h.id) where h.id = 500",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn rejects_malformed_statements() {
        for bad in [
            "retrieve",                         // no target list
            "retrieve ()",                      // empty target list
            "retrieve (h.id",                   // unterminated
            "retrieve (id)",                    // unqualified attribute
            "range h is r",                     // missing `of`
            "append to r ()",                   // empty assignments
            "replace e (x = 1) as of \"1981\"", // as-of on update
            "delete e as of \"1981\"",          // as-of on delete
            "modify r to hash where fillfactor = 0",
            "modify r to hash where fillfactor = 101",
            "create r (x = q9)", // bad domain
            "retrieve (h.id) where h.id = 500 where h.id = 2", // dup clause
            "copy r \"f\"",      // missing direction
            "frobnicate (x)",    // unknown statement
            "",                  // nothing (for parse_statement)
        ] {
            assert!(
                parse_statement(bad).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // A recursive-descent parser dies by stack overflow on
        // adversarially deep input unless it counts depth. These used to
        // kill the whole process; they must come back as `Error::Parse`.
        let deep_parens = format!(
            "retrieve (x = {}1{})",
            "(".repeat(50_000),
            ")".repeat(50_000)
        );
        let deep_nots = format!(
            "retrieve (h.id) where {} h.id = 1",
            "not ".repeat(60_000)
        );
        let deep_negs = format!("retrieve (x = {}1)", "- ".repeat(60_000));
        let deep_starts = format!(
            r#"retrieve (h.id) when {} h precede "now""#,
            "start of ".repeat(60_000)
        );
        let deep_tparens = format!(
            r#"retrieve (h.id) when {}h overlap i{} precede "now""#,
            "(".repeat(50_000),
            ")".repeat(50_000)
        );
        let deep_tnots = format!(
            r#"retrieve (h.id) when {} h precede "now""#,
            "not ".repeat(60_000)
        );
        for src in [
            &deep_parens,
            &deep_nots,
            &deep_negs,
            &deep_starts,
            &deep_tparens,
            &deep_tnots,
        ] {
            match parse_statement(src) {
                Err(tdbms_kernel::Error::Parse { msg, .. }) => {
                    assert!(msg.contains("nesting too deep"), "{msg}");
                }
                other => panic!("expected depth error, got {other:?}"),
            }
        }
        // Reasonable nesting still parses.
        let ok =
            format!("retrieve (x = {}1{})", "(".repeat(60), ")".repeat(60));
        assert!(parse_statement(&ok).is_ok());
        assert!(parse_statement(
            r#"retrieve (h.id) when not not (h precede "now")"#
        )
        .is_ok());
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err =
            parse_statement("retrieve (h.id) where\nh.id ==").unwrap_err();
        match err {
            tdbms_kernel::Error::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn string_literals_with_escapes_roundtrip() {
        // The lexer treats `\x` as an escape for any x, so the printer
        // must escape both `\` and `"` (regression: a lone backslash used
        // to print as `"\"`, an unterminated literal).
        for s in ["\\", "\"", "a\\b", "say \"hi\"", "trail\\", "\\\""] {
            let q = format!(
                "retrieve (v.x) where v.x = {}",
                printer::quote_str(s)
            );
            let Statement::Retrieve(r) = parse1(&q) else {
                unreachable!()
            };
            assert_eq!(
                r.where_clause,
                Some(Expr::Bin {
                    op: BinOp::Eq,
                    lhs: Box::new(Expr::Attr {
                        var: "v".into(),
                        attr: "x".into()
                    }),
                    rhs: Box::new(Expr::Str(s.into())),
                }),
                "literal {s:?} did not survive quote_str + lex"
            );
            roundtrip(&q);
        }
    }

    #[test]
    fn keywords_cannot_be_relation_names() {
        assert!(parse_statement("range of h is retrieve").is_err());
    }

    #[test]
    fn parses_index_statements() {
        let q = "index on emp is emp_salary (salary)";
        let Statement::Index(i) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(i.rel, "emp");
        assert_eq!(i.name, "emp_salary");
        assert_eq!(i.attr, "salary");
        assert_eq!(i.structure, None);
        roundtrip(q);
        let q = "index on emp is emp_salary (salary) to heap";
        let Statement::Index(i) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(i.structure.as_deref(), Some("heap"));
        roundtrip(q);
        roundtrip("index on emp is e2 (x) to hash");
        assert!(parse_statement("index on emp is e (x) to isam").is_err());
        assert!(parse_statement("index emp is e (x)").is_err());
        assert!(parse_statement("index on emp e (x)").is_err());
    }

    #[test]
    fn parses_aggregates() {
        let q = "retrieve (e.dept, total = sum(e.salary), n = count(e.id))";
        let Statement::Retrieve(r) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(r.targets.len(), 3);
        let Expr::Agg {
            func: AggFunc::Sum,
            arg,
        } = &r.targets[1].expr
        else {
            panic!("expected sum aggregate: {:?}", r.targets[1].expr);
        };
        assert!(matches!(**arg, Expr::Attr { .. }));
        roundtrip(q);
        // Aggregate over an expression.
        roundtrip("retrieve (m = max(e.salary * 2 + 1))");
        roundtrip("retrieve (a = avg(e.x), b = min(e.x))");
        // An unknown function name is a parse error.
        assert!(parse_statement("retrieve (x = frobnicate(e.y))").is_err());
        // A bare identifier still needs qualification.
        assert!(parse_statement("retrieve (count)").is_err());
    }

    #[test]
    fn parses_sort_by() {
        let q = "retrieve (e.id, e.x) where e.x > 1 sort by x desc, id";
        let Statement::Retrieve(r) = parse1(q) else {
            unreachable!()
        };
        assert_eq!(
            r.sort,
            vec![
                SortKey {
                    column: "x".into(),
                    descending: true
                },
                SortKey {
                    column: "id".into(),
                    descending: false
                },
            ]
        );
        roundtrip(q);
        roundtrip("retrieve (e.id) sort by id asc");
        assert!(parse_statement("retrieve (e.id) sort id").is_err());
    }

    /// `src` parsed from its shape: the template and its literals.
    fn template(src: &str) -> (Template, Vec<token::Literal>) {
        let shape = token::lex_shape(src)
            .unwrap_or_else(|e| panic!("{src:?}: {e}"));
        let t = parse_tokens(&token::lex_slots(src).unwrap())
            .unwrap_or_else(|e| panic!("{src:?}: {e}"));
        (t, shape.literals)
    }

    #[test]
    fn a_template_filled_with_its_literals_is_the_statement() {
        for src in [
            "retrieve (h.id, h.seq) where h.id = 500",
            r#"retrieve (h.id) where h.amount = 69400 when h overlap "now""#,
            "retrieve (x = -5, y = 2.5 * e.s + 1) where e.v != -0.5",
            "retrieve (n = count(e.id), m = max(e.v * 2)) where e.v >= 10",
            r#"append to emp (name = "merrie", salary = 11000)"#,
            "replace e (salary = e.salary + 1000) where e.id = 7",
            "delete e where e.salary > 20000",
            "explain retrieve (e.id) where e.id = 1",
            "range of e is emp\nretrieve (e.id) where e.id = 2; \
             retrieve (e.id) where e.id = 3",
        ] {
            let (t, lits) = template(src);
            assert!(!t.pinned, "{src}");
            let filled: Vec<Statement> =
                t.stmts.iter().map(|s| s.with_params(&lits)).collect();
            assert_eq!(filled, parse_program(src).unwrap(), "{src}");
        }
        // The parser numbers the slots by the lexer's literal vector,
        // i.e. in source order.
        let (t, lits) = template("retrieve (x = e.a + 1) where e.b = 2");
        assert_eq!(lits, [token::Literal::Int(1), token::Literal::Int(2)]);
        let Statement::Retrieve(r) = &t.stmts[0] else {
            unreachable!()
        };
        let attr = |a: &str| {
            Box::new(Expr::Attr {
                var: "e".into(),
                attr: a.into(),
            })
        };
        assert_eq!(
            r.targets[0].expr,
            Expr::Bin {
                op: BinOp::Add,
                lhs: attr("a"),
                rhs: Box::new(Expr::Param(0)),
            }
        );
        assert_eq!(
            r.where_clause,
            Some(Expr::Bin {
                op: BinOp::Eq,
                lhs: attr("b"),
                rhs: Box::new(Expr::Param(1)),
            })
        );
    }

    #[test]
    fn a_fillfactor_literal_pins_its_template() {
        let src50 = "modify r to hash on id where fillfactor = 50";
        let src100 = "modify r to hash on id where fillfactor = 100";
        assert_eq!(
            token::lex_shape(src50).unwrap().key,
            token::lex_shape(src100).unwrap().key
        );
        for (src, ff) in [(src50, 50), (src100, 100)] {
            let (t, _) = template(src);
            assert!(t.pinned, "{src}");
            assert_eq!(t.stmts, parse_program(src).unwrap());
            let Statement::Modify(m) = &t.stmts[0] else {
                unreachable!()
            };
            assert_eq!(m.fillfactor, Some(ff));
        }
    }

    #[test]
    fn template_parse_errors_quote_the_literals_as_written() {
        for bad in [
            "modify r to hash where fillfactor = 101",
            "retrieve (h.id) where h.id = 5 7",
            "retrieve (h.id) where h.id = (2.5",
            "append to r (x = 1 2)",
        ] {
            assert_eq!(
                parse_tokens(&token::lex_slots(bad).unwrap()).unwrap_err(),
                parse_program(bad).unwrap_err(),
                "{bad}"
            );
        }
    }
}
