//! The `copy` statement: batch input and output of relations, including
//! their temporal attributes — the prototype "modified \[copy\] to perform
//! batch input and output of relations having temporal attributes".
//!
//! The file format is one tuple per line, comma-separated, in stored
//! attribute order. Strings may be double-quoted (required when they
//! contain commas); time attributes are written at second granularity and
//! accepted in any format [`TimeVal::parse`] understands, including
//! `forever`. On input a line may carry either
//!
//! * the **explicit** attributes only — the implicit time attributes are
//!   defaulted exactly as an `append` would default them, or
//! * **all** stored attributes — a faithful reload of previously copied
//!   (or externally generated) history.

use crate::dml::{build_stored_row, insert_rows};
use crate::interval::TInterval;
use std::io::{BufRead, Write};
use tdbms_kernel::{Domain, Error, Granularity, Result, TimeVal, Value};
use tdbms_storage::{Catalog, Pager, RelId};

/// Split one CSV line into fields, honoring double quotes.
fn split_fields(line: &str) -> Result<Vec<String>> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut field));
            }
            c => field.push(c),
        }
    }
    if in_quotes {
        return Err(Error::BadValue(format!(
            "unterminated quote in copy line {line:?}"
        )));
    }
    out.push(field);
    Ok(out)
}

/// Quote a field for output if needed.
fn quote_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

fn parse_value(domain: Domain, s: &str) -> Result<Value> {
    let s = s.trim();
    match domain {
        Domain::I1 | Domain::I2 | Domain::I4 => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| Error::BadValue(format!("bad integer {s:?}"))),
        Domain::F4 | Domain::F8 => s
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::BadValue(format!("bad float {s:?}"))),
        Domain::Char(_) => Ok(Value::Str(s.to_owned())),
        Domain::Time => TimeVal::parse(s).map(Value::Time),
    }
}

/// `copy R from "file"` — bulk load. Every line is parsed before the
/// first row is inserted, so a bad line loads nothing.
pub fn copy_from(
    pager: &Pager,
    catalog: &mut Catalog,
    rel_id: RelId,
    path: &str,
    now: TimeVal,
) -> Result<usize> {
    let rel = catalog.get(rel_id);
    let (schema, codec) = (&rel.schema, &rel.codec);
    let explicit_len = schema.explicit_attrs().len();
    let arity = schema.arity();
    let expected = if explicit_len == arity {
        format!("{arity}")
    } else {
        format!("{explicit_len} or {arity}")
    };

    let f = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(f);
    let mut rows = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_fields(&line)?;
        let err = |msg: String| {
            Error::BadValue(format!("copy line {}: {msg}", lineno + 1))
        };
        if fields.len() != arity && fields.len() != explicit_len {
            return Err(err(format!(
                "expected {expected} fields, found {}",
                fields.len()
            )));
        }
        let mut vals = Vec::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            let d = schema.domain_of(i).expect("in range");
            vals.push(parse_value(d, f).map_err(|e| err(e.to_string()))?);
        }
        rows.push(if fields.len() == arity {
            // Full row including time attributes.
            codec.encode(&vals)?
        } else {
            // Explicit attributes only; default the time attributes.
            let valid = match schema.kind() {
                tdbms_kernel::TemporalKind::Interval => {
                    TInterval::new(now, TimeVal::FOREVER)
                }
                tdbms_kernel::TemporalKind::Event => TInterval::event(now),
            };
            build_stored_row(schema, codec, &vals, valid, now)?
        });
    }
    insert_rows(pager, catalog.get_mut(rel_id), &rows)
}

/// `copy R into "file"` — bulk unload of every stored version: the
/// primary file's, then those reorganization migrated into the history
/// sidecar.
pub fn copy_into(
    pager: &Pager,
    catalog: &Catalog,
    rel_id: RelId,
    path: &str,
) -> Result<usize> {
    let rel = catalog.get(rel_id);
    let (schema, codec) = (&rel.schema, &rel.codec);
    let out = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(out);
    let mut n = 0usize;
    let mut unload = |row: &[u8]| -> Result<()> {
        let mut line = String::new();
        for i in 0..schema.arity() {
            if i > 0 {
                line.push(',');
            }
            let v = codec.get(row, i);
            let s = match v {
                Value::Time(t) => t.format(Granularity::Second),
                other => other.to_string(),
            };
            line.push_str(&quote_field(&s));
        }
        writeln!(w, "{line}")?;
        n += 1;
        Ok(())
    };
    let mut cur = rel.file.scan();
    while let Some((_, row)) = cur.next(pager, &rel.file)? {
        unload(row)?;
    }
    if let Some(history) = &rel.history {
        history.for_all(pager, &mut unload)?;
    }
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_splitting_honours_quotes() {
        assert_eq!(split_fields("a,b,c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(
            split_fields(r#"1,"hello, world",2"#).unwrap(),
            vec!["1", "hello, world", "2"]
        );
        assert_eq!(
            split_fields(r#""say ""hi""",x"#).unwrap(),
            vec![r#"say "hi""#, "x"]
        );
        assert!(split_fields(r#""unterminated"#).is_err());
        assert_eq!(split_fields("").unwrap(), vec![""]);
    }

    #[test]
    fn quoting_roundtrips() {
        for s in ["plain", "with, comma", "with \"quotes\"", ""] {
            let quoted = quote_field(s);
            let fields = split_fields(&quoted).unwrap();
            assert_eq!(fields, vec![s]);
        }
    }

    #[test]
    fn value_parsing_per_domain() {
        assert_eq!(
            parse_value(Domain::I4, " 42 ").unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            parse_value(Domain::F8, "2.5").unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            parse_value(Domain::Char(8), "hi").unwrap(),
            Value::Str("hi".into())
        );
        assert_eq!(
            parse_value(Domain::Time, "forever").unwrap(),
            Value::Time(TimeVal::FOREVER)
        );
        assert!(parse_value(Domain::I4, "x").is_err());
    }
}
