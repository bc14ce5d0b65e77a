//! Evaluation of bound expressions over partially bound tuple variables.
//!
//! The one-variable query processor and the tuple-substitution join both
//! evaluate predicates against an [`Env`]: one *slot* per range-table
//! entry, the statement's literals and its instant. A slot holds the variable's
//! current relation (original or temporary) and, when bound, the raw
//! row bytes. Attributes are decoded lazily — a predicate over `i4`
//! columns never materializes the 96-byte string attribute next to
//! them.

use crate::bound::BExpr;
use std::borrow::Cow;
use std::cmp::Ordering;
use tdbms_kernel::{Error, Result, RowCodec, Schema, TimeVal, Value};
use tdbms_tquel::ast::BinOp;
use tdbms_tquel::token::Literal;

/// Evaluation-time state of one range-table entry.
#[derive(Debug)]
pub struct Slot<'a> {
    /// The schema the variable currently ranges over: borrowed from the
    /// catalog, owned once detachment moves the variable to a
    /// temporary.
    pub schema: Cow<'a, Schema>,
    /// Codec for that schema.
    pub codec: Cow<'a, RowCodec>,
    /// The bound row, if this variable is currently bound.
    pub row: Option<Vec<u8>>,
}

impl<'a> Slot<'a> {
    /// An unbound slot over a stored relation's schema and codec.
    pub(crate) fn of(schema: &'a Schema, codec: &'a RowCodec) -> Slot<'a> {
        Slot {
            schema: Cow::Borrowed(schema),
            codec: Cow::Borrowed(codec),
            row: None,
        }
    }

    fn row(&self) -> Result<&[u8]> {
        self.row
            .as_deref()
            .ok_or_else(|| Error::Internal("unbound tuple variable".into()))
    }
}

/// What a bound expression is evaluated against: one slot per
/// range-table entry, the literals a cached statement's parameter slots
/// ([`BExpr::Param`]) stand for, and the instant [`BExpr::Now`] stands
/// for.
#[derive(Debug)]
pub struct Env<'a> {
    /// One slot per range-table entry.
    pub slots: Vec<Slot<'a>>,
    /// The statement's numeric literals, in source order.
    pub params: &'a [Literal],
    /// The statement's transaction time.
    pub now: TimeVal,
}

impl Env<'_> {
    /// An environment that binds no variable and no parameter: it
    /// evaluates constant expressions, `"now"` as `now`.
    pub fn at(now: TimeVal) -> Self {
        Env {
            slots: Vec::new(),
            params: &[],
            now,
        }
    }
}

/// Truthiness of a Quel value: nonzero numbers are true.
pub fn truthy(v: &Value) -> Result<bool> {
    match v {
        Value::Int(i) => Ok(*i != 0),
        Value::Float(f) => Ok(*f != 0.0),
        other => Err(Error::BadValue(format!(
            "expected a boolean (integer) value, got {other}"
        ))),
    }
}

/// Evaluate a scalar expression.
pub fn eval_expr(e: &BExpr, env: &Env) -> Result<Value> {
    match e {
        BExpr::Const(v) => Ok(v.clone()),
        BExpr::Param(k) => {
            env.params.get(*k).map(|&l| l.into()).ok_or_else(|| {
                Error::Internal(format!("no literal for parameter {k}"))
            })
        }
        BExpr::Now => Ok(Value::Time(env.now)),
        BExpr::Attr { var, attr } => {
            let slot = &env.slots[*var];
            Ok(slot.codec.get(slot.row()?, *attr))
        }
        BExpr::Bin { op, lhs, rhs } => {
            // Short-circuit the logical operators.
            match op {
                BinOp::And => {
                    return Ok(Value::Int(
                        (truthy(&eval_expr(lhs, env)?)?
                            && truthy(&eval_expr(rhs, env)?)?)
                            as i64,
                    ))
                }
                BinOp::Or => {
                    return Ok(Value::Int(
                        (truthy(&eval_expr(lhs, env)?)?
                            || truthy(&eval_expr(rhs, env)?)?)
                            as i64,
                    ))
                }
                _ => {}
            }
            let l = eval_expr(lhs, env)?;
            let r = eval_expr(rhs, env)?;
            if op.is_comparison() {
                let ord = l.compare(&r).ok_or_else(|| {
                    Error::BadValue(format!("cannot compare {l} with {r}"))
                })?;
                let b = match op {
                    BinOp::Eq => ord == Ordering::Equal,
                    BinOp::Ne => ord != Ordering::Equal,
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::Le => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    BinOp::Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                };
                return Ok(Value::Int(b as i64));
            }
            arith(*op, &l, &r)
        }
        BExpr::Neg(x) => match eval_expr(x, env)? {
            // i64::MIN has no i64 negation; a bare `-i` would panic.
            Value::Int(i) => {
                i.checked_neg().map(Value::Int).ok_or_else(|| {
                    Error::BadValue(format!(
                        "integer overflow negating {i}"
                    ))
                })
            }
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::BadValue(format!("cannot negate {other}"))),
        },
        BExpr::Not(x) => {
            Ok(Value::Int(!truthy(&eval_expr(x, env)?)? as i64))
        }
        BExpr::Greatest(xs) | BExpr::Least(xs) => {
            let greatest = matches!(e, BExpr::Greatest(_));
            // The binder never builds an extremum of fewer than two.
            let mut best = eval_time(&xs[0], env)?;
            for x in &xs[1..] {
                let t = eval_time(x, env)?;
                best = if greatest { best.max(t) } else { best.min(t) };
            }
            Ok(Value::Time(best))
        }
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                BinOp::Mul => a.checked_mul(*b),
                BinOp::Div => {
                    if *b == 0 {
                        return Err(Error::BadValue(
                            "division by zero".into(),
                        ));
                    }
                    a.checked_div(*b)
                }
                BinOp::Mod => {
                    if *b == 0 {
                        return Err(Error::BadValue("mod by zero".into()));
                    }
                    // i64::MIN mod -1 overflows rem_euclid; stay checked.
                    a.checked_rem_euclid(*b)
                }
                _ => unreachable!("arith called with non-arith op"),
            };
            v.map(Value::Int).ok_or_else(|| {
                Error::BadValue(format!(
                    "integer overflow in {a} {op:?} {b}"
                ))
            })
        }
        _ => {
            let (a, b) = (
                l.as_f64().ok_or_else(|| {
                    Error::BadValue(format!("{l} is not numeric"))
                })?,
                r.as_f64().ok_or_else(|| {
                    Error::BadValue(format!("{r} is not numeric"))
                })?,
            );
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(Error::BadValue(
                            "division by zero".into(),
                        ));
                    }
                    a / b
                }
                BinOp::Mod => {
                    return Err(Error::BadValue(
                        "mod requires integer operands".into(),
                    ))
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(v))
        }
    }
}

/// Evaluate a scalar predicate to a boolean.
pub fn eval_bool(e: &BExpr, env: &Env) -> Result<bool> {
    truthy(&eval_expr(e, env)?)
}

/// Evaluate an expression that denotes an instant (a lowered temporal
/// endpoint). `"now"` and a constant instant, the operands of every
/// `as of` window and of each row's `overlap "now"` test, are read
/// without building a [`Value`].
pub fn eval_time(e: &BExpr, env: &Env) -> Result<TimeVal> {
    match e {
        BExpr::Now => Ok(env.now),
        BExpr::Const(Value::Time(t)) => Ok(*t),
        e => match eval_expr(e, env)? {
            Value::Time(t) => Ok(t),
            other => {
                Err(Error::Internal(format!("{other} is not an instant")))
            }
        },
    }
}

/// Does the tuple bound in `env` satisfy every conjunct?
pub fn qualifies(conjuncts: &[&BExpr], env: &Env) -> Result<bool> {
    for c in conjuncts {
        if !eval_bool(c, env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdbms_kernel::{
        AttrDef, DatabaseClass, Domain, Schema, TemporalKind, TimeVal,
    };

    fn env(slots: Vec<Slot<'static>>) -> Env<'static> {
        Env {
            slots,
            params: &[],
            now: TimeVal::BEGINNING,
        }
    }

    fn hist_slot(id: i64, from: u32, to: u32) -> Slot<'static> {
        let schema = Schema::new(
            vec![
                AttrDef::new("id", Domain::I4),
                AttrDef::new("name", Domain::Char(8)),
            ],
            DatabaseClass::Historical,
            TemporalKind::Interval,
        )
        .unwrap();
        let codec = RowCodec::new(&schema);
        let row = codec
            .encode(&[
                Value::Int(id),
                Value::Str("x".into()),
                Value::Time(TimeVal::from_secs(from)),
                Value::Time(TimeVal::from_secs(to)),
            ])
            .unwrap();
        Slot {
            schema: Cow::Owned(schema),
            codec: Cow::Owned(codec),
            row: Some(row),
        }
    }

    #[test]
    fn attribute_access_and_comparison() {
        let slots = env(vec![hist_slot(42, 10, 20)]);
        let e = BExpr::Bin {
            op: BinOp::Eq,
            lhs: Box::new(BExpr::Attr { var: 0, attr: 0 }),
            rhs: Box::new(BExpr::Const(Value::Int(42))),
        };
        assert!(eval_bool(&e, &slots).unwrap());
    }

    #[test]
    fn arithmetic_with_precedence_results() {
        let slots = env(vec![hist_slot(10, 0, 1)]);
        // id * 2 + 1 = 21
        let e = BExpr::Bin {
            op: BinOp::Add,
            lhs: Box::new(BExpr::Bin {
                op: BinOp::Mul,
                lhs: Box::new(BExpr::Attr { var: 0, attr: 0 }),
                rhs: Box::new(BExpr::Const(Value::Int(2))),
            }),
            rhs: Box::new(BExpr::Const(Value::Int(1))),
        };
        assert_eq!(eval_expr(&e, &slots).unwrap(), Value::Int(21));
    }

    #[test]
    fn division_and_mod_guards() {
        let slots = Env::at(TimeVal::BEGINNING);
        let div0 = BExpr::Bin {
            op: BinOp::Div,
            lhs: Box::new(BExpr::Const(Value::Int(1))),
            rhs: Box::new(BExpr::Const(Value::Int(0))),
        };
        assert!(eval_expr(&div0, &slots).is_err());
        let m = BExpr::Bin {
            op: BinOp::Mod,
            lhs: Box::new(BExpr::Const(Value::Int(-7))),
            rhs: Box::new(BExpr::Const(Value::Int(3))),
        };
        assert_eq!(eval_expr(&m, &slots).unwrap(), Value::Int(2));
    }

    #[test]
    fn extreme_integer_arithmetic_stays_typed() {
        // Both used to panic with a debug overflow / remainder overflow,
        // which a remote client could trigger from a statement string.
        let slots = Env::at(TimeVal::BEGINNING);
        let neg_min =
            BExpr::Neg(Box::new(BExpr::Const(Value::Int(i64::MIN))));
        assert!(matches!(
            eval_expr(&neg_min, &slots),
            Err(Error::BadValue(_))
        ));
        let min_mod_neg1 = BExpr::Bin {
            op: BinOp::Mod,
            lhs: Box::new(BExpr::Const(Value::Int(i64::MIN))),
            rhs: Box::new(BExpr::Const(Value::Int(-1))),
        };
        assert!(matches!(
            eval_expr(&min_mod_neg1, &slots),
            Err(Error::BadValue(_))
        ));
        // Ordinary negation still works.
        let neg = BExpr::Neg(Box::new(BExpr::Const(Value::Int(7))));
        assert_eq!(eval_expr(&neg, &slots).unwrap(), Value::Int(-7));
    }

    #[test]
    fn mixed_numeric_promotes_to_float() {
        let slots = Env::at(TimeVal::BEGINNING);
        let e = BExpr::Bin {
            op: BinOp::Add,
            lhs: Box::new(BExpr::Const(Value::Int(1))),
            rhs: Box::new(BExpr::Const(Value::Float(0.5))),
        };
        assert_eq!(eval_expr(&e, &slots).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn greatest_and_least_pick_extremes() {
        let slots = env(vec![hist_slot(1, 10, 20), hist_slot(2, 15, 30)]);
        let attr = |var, attr| BExpr::Attr { var, attr };
        // The `overlap` constructor's endpoints: [15, 20].
        let lo = BExpr::Greatest(vec![attr(0, 2), attr(1, 2)]);
        let hi = BExpr::Least(vec![attr(0, 3), attr(1, 3)]);
        assert_eq!(eval_time(&lo, &slots).unwrap().as_secs(), 15);
        assert_eq!(eval_time(&hi, &slots).unwrap().as_secs(), 20);
        let mixed = BExpr::Greatest(vec![
            attr(0, 2),
            BExpr::Const(Value::Str("x".into())),
        ]);
        assert!(matches!(
            eval_expr(&mixed, &slots),
            Err(Error::Internal(_))
        ));
    }

    #[test]
    fn unbound_variable_is_an_internal_error() {
        let mut slot = hist_slot(1, 0, 1);
        slot.row = None;
        let e = BExpr::Attr { var: 0, attr: 0 };
        assert!(eval_expr(&e, &env(vec![slot])).is_err());
    }

    #[test]
    fn parameters_evaluate_to_the_statements_literals() {
        let params = [Literal::Int(7), Literal::Float(0.5)];
        let env = Env {
            slots: Vec::new(),
            params: &params,
            now: TimeVal::BEGINNING,
        };
        let e = BExpr::Bin {
            op: BinOp::Add,
            lhs: Box::new(BExpr::Param(0)),
            rhs: Box::new(BExpr::Param(1)),
        };
        assert_eq!(eval_expr(&e, &env).unwrap(), Value::Float(7.5));
        assert!(matches!(
            eval_expr(&BExpr::Param(2), &env),
            Err(Error::Internal(_))
        ));
    }

    #[test]
    fn now_evaluates_to_the_statements_instant() {
        let at = |secs| Env::at(TimeVal::from_secs(secs));
        let e = BExpr::Least(vec![
            BExpr::Now,
            BExpr::Const(Value::Time(TimeVal::from_secs(50))),
        ]);
        assert_eq!(eval_time(&e, &at(40)).unwrap().as_secs(), 40);
        assert_eq!(eval_time(&e, &at(60)).unwrap().as_secs(), 50);
    }
}
