//! Tokens and the lexer for TQuel.
//!
//! TQuel is line-oriented free-form text like its parent Quel: keywords are
//! case-insensitive, identifiers are `[a-zA-Z_][a-zA-Z0-9_]*`, string
//! literals are double-quoted (they double as date/time literals, e.g.
//! `"08:00 1/1/80"`), and statements may optionally be separated by `;`.
//!
//! The same lexer also produces a statement's [`Shape`] ([`lex_shape`]):
//! the token stream with every numeric literal lifted out into a
//! parameter slot, which is what a statement cache keys on.

use std::fmt;
use tdbms_kernel::{Error, Result, Value};

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token itself.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// The kinds of TQuel tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword (already lower-cased).
    Keyword(Keyword),
    /// Identifier (already lower-cased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// A numeric literal as a parameter slot ([`lex_slots`]): slot `.0`
    /// of its [`Shape`]'s literal vector, which holds `.1`.
    Param(usize, Literal),
    /// Double-quoted string literal (quotes stripped).
    Str(String),
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// End of input.
    Eof,
}

/// The value of a numeric literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Literal {
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
}

impl From<Literal> for TokenKind {
    fn from(lit: Literal) -> TokenKind {
        match lit {
            Literal::Int(v) => TokenKind::Int(v),
            Literal::Float(v) => TokenKind::Float(v),
        }
    }
}

impl From<Literal> for Value {
    fn from(lit: Literal) -> Value {
        match lit {
            Literal::Int(v) => Value::Int(v),
            Literal::Float(v) => Value::Float(v),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Reserved words of TQuel.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum Keyword {
            $($variant),+
        }

        impl Keyword {
            /// Parse a lower-cased word as a keyword. (Not the `FromStr`
            /// trait: this is infallible-by-Option and keyword-specific.)
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$variant),)+
                    _ => None,
                }
            }

            /// The keyword's source text.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text),+
                }
            }
        }
    };
}

keywords! {
    Range => "range",
    Of => "of",
    Is => "is",
    Retrieve => "retrieve",
    Into => "into",
    Where => "where",
    When => "when",
    Valid => "valid",
    From => "from",
    To => "to",
    At => "at",
    As => "as",
    Through => "through",
    Append => "append",
    Delete => "delete",
    Replace => "replace",
    Create => "create",
    Destroy => "destroy",
    Modify => "modify",
    Copy => "copy",
    On => "on",
    Persistent => "persistent",
    Static => "static",
    Rollback => "rollback",
    Historical => "historical",
    Temporal => "temporal",
    Interval => "interval",
    Event => "event",
    Start => "start",
    End => "end",
    Overlap => "overlap",
    Extend => "extend",
    Precede => "precede",
    Equal => "equal",
    And => "and",
    Or => "or",
    Not => "not",
    Mod => "mod",
    Heap => "heap",
    Hash => "hash",
    Isam => "isam",
    Fillfactor => "fillfactor",
    Index => "index",
    Sort => "sort",
    By => "by",
    Asc => "asc",
    Desc => "desc",
    Explain => "explain",
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{}", k.as_str()),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(i) | TokenKind::Param(_, Literal::Int(i)) => {
                write!(f, "{i}")
            }
            TokenKind::Float(x)
            | TokenKind::Param(_, Literal::Float(x)) => {
                write!(f, "{x}")
            }
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semi => write!(f, ";"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A statement's shape: one [`lex`] pass over it with every numeric
/// literal lifted out, which is what a statement cache keys on. The
/// tokens a statement template is parsed from come from [`lex_slots`].
#[derive(Debug, Clone)]
pub struct Shape {
    /// The token stream as text — each token by its source spelling,
    /// words lower-cased, each lifted literal a typed placeholder
    /// (`?i`, `?f`) — so `id = 7` and `id = 8` share a key, and `7`
    /// and `7.0` do not. String literals stay in the key: they double
    /// as time literals (`"now"`), resolved at bind time.
    pub key: String,
    /// The lifted literals in source order: slot `k` of the tokens
    /// [`lex_slots`] returns is `literals[k]`.
    pub literals: Vec<Literal>,
}

/// Tokenize a TQuel source string.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    lex_with(src, false, None)
}

/// Tokenize a TQuel source string with every numeric literal as a
/// [`TokenKind::Param`] slot, numbered as in its [`Shape`]: the token
/// stream a statement template is parsed from.
pub fn lex_slots(src: &str) -> Result<Vec<Token>> {
    lex_with(src, true, None)
}

/// A TQuel source string's [`Shape`], without materializing its
/// tokens. Fails exactly where [`lex`] fails, with the same error.
pub fn lex_shape(src: &str) -> Result<Shape> {
    let mut shape = Shape {
        key: String::with_capacity(2 * src.len()),
        literals: Vec::new(),
    };
    lex_with(src, false, Some(&mut shape))?;
    Ok(shape)
}

/// The lexer. With `slots`, numeric literals become [`TokenKind::Param`]
/// slots. With `shape`, no token is materialized: each is rendered into
/// the shape's key instead, followed by a space — which only a quoted,
/// hence delimited, string can contain, so equal keys mean equal token
/// streams.
fn lex_with(
    src: &str,
    slots: bool,
    mut shape: Option<&mut Shape>,
) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut nslots = 0;
    // A token the shape key spells as its source text.
    let mut spanned = false;

    macro_rules! push {
        ($kind:expr, $c:expr) => {
            if shape.is_some() {
                spanned = true;
            } else {
                out.push(Token {
                    kind: $kind,
                    line,
                    col: $c,
                })
            }
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        let start_col = col;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
                col += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                // Quel comment: /* ... */
                let mut j = i + 2;
                loop {
                    if j + 1 >= bytes.len() {
                        return Err(Error::Lex {
                            line,
                            col: start_col,
                            msg: "unterminated comment".into(),
                        });
                    }
                    if bytes[j] == b'\n' {
                        line += 1;
                        col = 0;
                    }
                    if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        break;
                    }
                    j += 1;
                    col += 1;
                }
                col += 2;
                i = j + 2;
            }
            '"' => {
                // Decoded only into a token: a shape spells the source.
                let decode = shape.is_none();
                let mut s = String::new();
                let mut j = i + 1;
                let mut c2 = col + 1;
                loop {
                    if j >= bytes.len() || bytes[j] == b'\n' {
                        return Err(Error::Lex {
                            line,
                            col: start_col,
                            msg: "unterminated string literal".into(),
                        });
                    }
                    if bytes[j] == b'"' {
                        break;
                    }
                    if bytes[j] == b'\\' && j + 1 < bytes.len() {
                        // An escape: the next byte stands for itself.
                        j += 1;
                        c2 += 1;
                    }
                    if decode {
                        s.push(bytes[j] as char);
                    }
                    j += 1;
                    c2 += 1;
                }
                push!(TokenKind::Str(s), start_col);
                i = j + 1;
                col = c2 + 1;
            }
            '0'..='9' => {
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let is_float = j + 1 < bytes.len()
                    && bytes[j] == b'.'
                    && bytes[j + 1].is_ascii_digit();
                let lit = if is_float {
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                    let text = &src[i..j];
                    Literal::Float(text.parse().map_err(|_| {
                        Error::Lex {
                            line,
                            col: start_col,
                            msg: format!("bad float literal {text:?}"),
                        }
                    })?)
                } else {
                    let text = &src[i..j];
                    Literal::Int(text.parse().map_err(|_| Error::Lex {
                        line,
                        col: start_col,
                        msg: format!("integer literal {text:?} overflows"),
                    })?)
                };
                match shape.as_deref_mut() {
                    Some(shape) => {
                        shape.literals.push(lit);
                        shape.key.push_str(match lit {
                            Literal::Int(_) => "?i ",
                            Literal::Float(_) => "?f ",
                        });
                    }
                    None if slots => {
                        push!(TokenKind::Param(nslots, lit), start_col);
                        nslots += 1;
                    }
                    None => push!(lit.into(), start_col),
                }
                col += (j - i) as u32;
                i = j;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric()
                        || bytes[j] == b'_')
                {
                    j += 1;
                }
                match shape.as_deref_mut() {
                    // A keyword and an identifier never share a
                    // spelling, so the lower-cased word renders either.
                    Some(shape) => {
                        let from = shape.key.len();
                        shape.key.push_str(&src[i..j]);
                        shape.key[from..].make_ascii_lowercase();
                        shape.key.push(' ');
                    }
                    None => {
                        let word = src[i..j].to_ascii_lowercase();
                        match Keyword::from_str(&word) {
                            Some(k) => {
                                push!(TokenKind::Keyword(k), start_col)
                            }
                            None => {
                                push!(TokenKind::Ident(word), start_col)
                            }
                        }
                    }
                }
                col += (j - i) as u32;
                i = j;
            }
            '=' => {
                push!(TokenKind::Eq, start_col);
                i += 1;
                col += 1;
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                push!(TokenKind::Ne, start_col);
                i += 2;
                col += 2;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(TokenKind::Le, start_col);
                    i += 2;
                    col += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    push!(TokenKind::Ne, start_col);
                    i += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Lt, start_col);
                    i += 1;
                    col += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    push!(TokenKind::Ge, start_col);
                    i += 2;
                    col += 2;
                } else {
                    push!(TokenKind::Gt, start_col);
                    i += 1;
                    col += 1;
                }
            }
            '+' => {
                push!(TokenKind::Plus, start_col);
                i += 1;
                col += 1;
            }
            '-' => {
                push!(TokenKind::Minus, start_col);
                i += 1;
                col += 1;
            }
            '*' => {
                push!(TokenKind::Star, start_col);
                i += 1;
                col += 1;
            }
            '/' => {
                push!(TokenKind::Slash, start_col);
                i += 1;
                col += 1;
            }
            '(' => {
                push!(TokenKind::LParen, start_col);
                i += 1;
                col += 1;
            }
            ')' => {
                push!(TokenKind::RParen, start_col);
                i += 1;
                col += 1;
            }
            ',' => {
                push!(TokenKind::Comma, start_col);
                i += 1;
                col += 1;
            }
            '.' => {
                push!(TokenKind::Dot, start_col);
                i += 1;
                col += 1;
            }
            ';' => {
                push!(TokenKind::Semi, start_col);
                i += 1;
                col += 1;
            }
            other => {
                return Err(Error::Lex {
                    line,
                    col: start_col,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
        if spanned {
            if let Some(shape) = shape.as_deref_mut() {
                shape.key.push_str(&src[start..i]);
                shape.key.push(' ');
            }
            spanned = false;
        }
    }
    if shape.is_none() {
        out.push(Token {
            kind: TokenKind::Eof,
            line,
            col,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_paper_query() {
        let toks = kinds("retrieve (h.id) where h.id = 500");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword(Keyword::Retrieve),
                TokenKind::LParen,
                TokenKind::Ident("h".into()),
                TokenKind::Dot,
                TokenKind::Ident("id".into()),
                TokenKind::RParen,
                TokenKind::Keyword(Keyword::Where),
                TokenKind::Ident("h".into()),
                TokenKind::Dot,
                TokenKind::Ident("id".into()),
                TokenKind::Eq,
                TokenKind::Int(500),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("RETRIEVE Retrieve retrieve")[..3],
            [
                TokenKind::Keyword(Keyword::Retrieve),
                TokenKind::Keyword(Keyword::Retrieve),
                TokenKind::Keyword(Keyword::Retrieve)
            ]
        );
        // Identifiers are lower-cased (Quel is case-insensitive).
        assert_eq!(
            kinds("Temporal_H")[0],
            TokenKind::Ident("temporal_h".into())
        );
    }

    #[test]
    fn strings_keep_case_and_spaces() {
        assert_eq!(
            kinds("\"08:00 1/1/80\"")[0],
            TokenKind::Str("08:00 1/1/80".into())
        );
        assert_eq!(kinds(r#""a\"b""#)[0], TokenKind::Str("a\"b".into()));
    }

    #[test]
    fn numbers_and_operators() {
        assert_eq!(
            kinds("1 2.5 <= >= != <> < > = + - * /"),
            vec![
                TokenKind::Int(1),
                TokenKind::Float(2.5),
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Eq,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        // retrieve ( h . id ) <eof> — the comment vanishes.
        assert_eq!(
            kinds("retrieve /* 1024 tuples, hashed on id */ (h.id)").len(),
            7
        );
    }

    #[test]
    fn errors_carry_positions() {
        match lex("retrieve\n  @") {
            Err(Error::Lex { line, col, .. }) => {
                assert_eq!((line, col), (2, 3));
            }
            other => panic!("expected lex error, got {other:?}"),
        }
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn time_keywords_tokenize_as_keywords() {
        assert_eq!(
            kinds("when h overlap i as of \"1981\"")[..6],
            [
                TokenKind::Keyword(Keyword::When),
                TokenKind::Ident("h".into()),
                TokenKind::Keyword(Keyword::Overlap),
                TokenKind::Ident("i".into()),
                TokenKind::Keyword(Keyword::As),
                TokenKind::Keyword(Keyword::Of),
            ]
        );
    }

    fn shape(src: &str) -> Shape {
        lex_shape(src).unwrap_or_else(|e| panic!("{src:?}: {e}"))
    }

    #[test]
    fn statements_differing_in_literals_share_a_shape() {
        let src = "retrieve (h.id) where h.id = 7 and h.seq > 1.5";
        let a = shape(src);
        let b = shape("RETRIEVE (h.id)\n  where h.id = 8 and h.seq > 0.25");
        assert_eq!(a.key, b.key);
        assert_eq!(a.literals, [Literal::Int(7), Literal::Float(1.5)]);
        assert_eq!(b.literals, [Literal::Int(8), Literal::Float(0.25)]);
        // The template's tokens are `lex`'s, positions included, with
        // each literal in its slot.
        let plain = lex(src).unwrap();
        let slots = lex_slots(src).unwrap();
        assert_eq!(slots.len(), plain.len());
        for (s, p) in slots.iter().zip(&plain) {
            assert_eq!((s.line, s.col), (p.line, p.col));
            match &s.kind {
                TokenKind::Param(k, lit) => {
                    assert_eq!(a.literals[*k], *lit);
                    assert_eq!(TokenKind::from(*lit), p.kind);
                }
                other => assert_eq!(*other, p.kind),
            }
        }
    }

    #[test]
    fn integer_and_float_literals_are_different_shapes() {
        let int = shape("retrieve (h.id) where h.id = 7");
        let float = shape("retrieve (h.id) where h.id = 7.0");
        assert_ne!(int.key, float.key);
        assert_eq!(float.literals, [Literal::Float(7.0)]);
    }

    #[test]
    fn a_negative_literal_is_minus_and_a_slot() {
        let s = shape("retrieve (x = -5)");
        let tokens = lex_slots("retrieve (x = -5)").unwrap();
        let kinds: Vec<&TokenKind> =
            tokens.iter().map(|t| &t.kind).collect();
        assert_eq!(
            kinds[4..6],
            [&TokenKind::Minus, &TokenKind::Param(0, Literal::Int(5))]
        );
        assert_eq!(s.literals, [Literal::Int(5)]);
        assert_eq!(s.key, shape("retrieve (x = - 6)").key);
    }

    #[test]
    fn strings_stay_in_the_shape() {
        let now =
            shape(r#"retrieve (h.id) where h.id = 1 when h overlap "now""#);
        let then = shape(
            r#"retrieve (h.id) where h.id = 1 when h overlap "1981""#,
        );
        assert_ne!(now.key, then.key);
        assert!(now.key.contains("\"now\""), "{}", now.key);
        assert_eq!(now.literals, [Literal::Int(1)]);
        // A string holding what reads like other tokens stays one token:
        // two strings `"a" , "b"` vs the one string `a" , "b`.
        assert_ne!(
            shape(r#"retrieve (x = "a" , "b")"#).key,
            shape(r#"retrieve (x = "a\" , \"b")"#).key
        );
        assert_ne!(
            shape("retrieve (x = 1)").key,
            shape(r#"retrieve (x = "?i")"#).key
        );
    }

    /// Keys as the lexer spelled them before it stopped decoding
    /// strings and lower-casing words a `char` at a time in shape mode.
    #[test]
    fn shape_keys_are_pinned() {
        for (src, key) in [
            (
                "RETRIEVE (Emp_1.Name, x2 = e.salary) \
                 WHERE e.ID = 7 AND e.f = 7.0",
                "retrieve ( emp_1 . name , x2 = e . salary ) \
                 where e . id = ?i and e . f = ?f ",
            ),
            (
                r#"Retrieve (s = "a \"b\" c", t = "x y\\z") /* a comment */
                   when e overlap "now""#,
                r#"retrieve ( s = "a \"b\" c" , t = "x y\\z" ) when e overlap "now" "#,
            ),
            (
                "Append To t_9 (id = 12, v = -3.25);",
                "append to t_9 ( id = ?i , v = - ?f ) ; ",
            ),
            (
                "retrieve (e.a) where e.a = 7",
                "retrieve ( e . a ) where e . a = ?i ",
            ),
            (
                "retrieve (e.a) where e.a = 7.0",
                "retrieve ( e . a ) where e . a = ?f ",
            ),
        ] {
            assert_eq!(shape(src).key, key, "{src:?}");
        }
    }

    #[test]
    fn shape_errors_are_lex_errors() {
        for src in [
            "retrieve\n  @",
            "retrieve (x = 1)\n\"unterminated",
            "/* unterminated",
            "retrieve (x = 99999999999999999999)",
            "retrieve (x = 2.5) where\n\n   x.y = 1 $",
            "retrieve (x = \"a\\\")",
            "retrieve (x = \"ends in a backslash\\",
            "retrieve (x = \"a\"\"",
        ] {
            let plain = lex(src).unwrap_err();
            assert!(matches!(plain, Error::Lex { .. }), "{plain:?}");
            assert_eq!(lex_shape(src).unwrap_err(), plain, "{src:?}");
            assert_eq!(lex_slots(src).unwrap_err(), plain, "{src:?}");
        }
    }
}
