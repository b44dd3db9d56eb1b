//! The ScQL lexer.
//!
//! [`lex`] walks the input by byte index. Every delimiter, operator,
//! number and quote is ASCII, so the cursor is always a byte offset on a
//! char boundary, and only an identifier's letters are ever decoded as
//! chars (they may be any Unicode letter or digit). Names and literals
//! borrow their text from the input: only a quoted run that contains a
//! doubled quote is copied, to unescape it.

use std::borrow::Cow;

use crate::error::QueryError;

/// A lexical token with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// Byte offset in the input.
    pub at: usize,
    /// The token kind/payload.
    pub kind: TokenKind<'a>,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// Bare identifier or keyword (case preserved; keyword matching is
    /// case-insensitive).
    Ident(&'a str),
    /// Double-quoted identifier (quotes stripped, `""` unescaped). A
    /// quoted name is never a keyword, so it may hold any text.
    QuotedIdent(Cow<'a, str>),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(Cow<'a, str>),
    /// Numeric literal.
    Number(f64),
    /// `,`
    Comma,
    /// `*`
    Star,
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
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::QuotedIdent(s) => format!("quoted identifier \"{s}\""),
            TokenKind::Str(s) => format!("string '{s}'"),
            TokenKind::Number(n) => format!("number {n}"),
            TokenKind::Comma => ",".into(),
            TokenKind::Star => "*".into(),
            TokenKind::Eq => "=".into(),
            TokenKind::Ne => "!=".into(),
            TokenKind::Lt => "<".into(),
            TokenKind::Le => "<=".into(),
            TokenKind::Gt => ">".into(),
            TokenKind::Ge => ">=".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// Tokenize an ScQL string.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, QueryError> {
    let bytes = input.as_bytes();
    // Holds the `query.point` (9 tokens with `Eof`), `query.scan` (15)
    // and `query.semantic` (9–10) benchmark statements in one
    // allocation; a longer statement grows the Vec.
    let mut tokens = Vec::with_capacity(16);
    let mut i = 0usize;
    while i < bytes.len() {
        let at = i;
        let next = bytes.get(i + 1).copied();
        let (kind, width) = match bytes[i] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b',' => (TokenKind::Comma, 1),
            b'*' => (TokenKind::Star, 1),
            b'=' => (TokenKind::Eq, 1),
            b'!' if next == Some(b'=') => (TokenKind::Ne, 2),
            b'<' => match next {
                Some(b'=') => (TokenKind::Le, 2),
                Some(b'>') => (TokenKind::Ne, 2),
                _ => (TokenKind::Lt, 1),
            },
            b'>' => match next {
                Some(b'=') => (TokenKind::Ge, 2),
                _ => (TokenKind::Gt, 1),
            },
            b'\'' => {
                let (text, end) = quoted(input, at)?;
                (TokenKind::Str(text), end - at)
            }
            b'"' => {
                let (text, end) = quoted(input, at)?;
                (TokenKind::QuotedIdent(text), end - at)
            }
            b @ (b'0'..=b'9' | b'-') if b != b'-' || next.is_some_and(|d| d.is_ascii_digit()) => {
                let mut end = at + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit()
                        || matches!(bytes[end], b'.' | b'e' | b'E')
                        || (matches!(bytes[end], b'+' | b'-')
                            && matches!(bytes[end - 1], b'e' | b'E')))
                {
                    end += 1;
                }
                let n: f64 = input[at..end].parse().map_err(|_| QueryError::Lex {
                    at,
                    ch: char::from(b),
                })?;
                (TokenKind::Number(n), end - at)
            }
            _ => {
                let c = char_at(input, at);
                if !(c.is_alphabetic() || c == '_') {
                    return Err(QueryError::Lex { at, ch: c });
                }
                let end = ident_end(input, at + c.len_utf8());
                (TokenKind::Ident(&input[at..end]), end - at)
            }
        };
        tokens.push(Token { at, kind });
        i += width;
    }
    tokens.push(Token {
        at: bytes.len(),
        kind: TokenKind::Eof,
    });
    Ok(tokens)
}

/// The char starting at byte `at`, which is on a char boundary.
fn char_at(input: &str, at: usize) -> char {
    input[at..]
        .chars()
        .next()
        .expect("the lexer only stops on char boundaries")
}

/// End of the identifier whose remaining chars start at `i`: letters,
/// digits, `_` and `.`.
fn ident_end(input: &str, mut i: usize) -> usize {
    let bytes = input.as_bytes();
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() || b == b'_' || b == b'.' {
            i += 1;
        } else if b.is_ascii() {
            break;
        } else {
            let c = char_at(input, i);
            if !c.is_alphanumeric() {
                break;
            }
            i += c.len_utf8();
        }
    }
    i
}

/// The text of the quoted run whose opening quote is at byte `at`, and
/// the offset just past its closing quote. A doubled quote stands for
/// one; only a run that holds one is copied to unescape it.
fn quoted(input: &str, at: usize) -> Result<(Cow<'_, str>, usize), QueryError> {
    let bytes = input.as_bytes();
    let q = bytes[at];
    let mut unescaped: Option<String> = None;
    let mut run = at + 1;
    loop {
        let Some(close) = bytes[run..].iter().position(|&b| b == q).map(|p| run + p) else {
            return Err(QueryError::Lex {
                at,
                ch: char::from(q),
            });
        };
        if bytes.get(close + 1) == Some(&q) {
            // Keep one quote of the pair and continue after both.
            unescaped
                .get_or_insert_with(String::new)
                .push_str(&input[run..=close]);
            run = close + 2;
            continue;
        }
        let text = match unescaped {
            None => Cow::Borrowed(&input[run..close]),
            Some(mut s) => {
                s.push_str(&input[run..close]);
                Cow::Owned(s)
            }
        };
        return Ok((text, close + 1));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("SELECT *, a_b FROM t"),
            vec![
                TokenKind::Ident("SELECT"),
                TokenKind::Star,
                TokenKind::Comma,
                TokenKind::Ident("a_b"),
                TokenKind::Ident("FROM"),
                TokenKind::Ident("t"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("= != <> < <= > >="),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("5 5.1 -3 1e3 2.5e-2"),
            vec![
                TokenKind::Number(5.0),
                TokenKind::Number(5.1),
                TokenKind::Number(-3.0),
                TokenKind::Number(1000.0),
                TokenKind::Number(0.025),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds("'Warfarin' 'it''s'"),
            vec![
                TokenKind::Str("Warfarin".into()),
                TokenKind::Str("it's".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn strings_without_escapes_borrow_the_input() {
        let tokens = lex("'Warfarin' 'it''s'").unwrap();
        assert!(matches!(
            &tokens[0].kind,
            TokenKind::Str(Cow::Borrowed("Warfarin"))
        ));
        assert!(matches!(&tokens[1].kind, TokenKind::Str(Cow::Owned(s)) if s == "it's"));
    }

    #[test]
    fn quoted_identifiers() {
        assert_eq!(
            kinds(r#""Drug Name" "say ""hi""" "" "SELECT""#),
            vec![
                TokenKind::QuotedIdent("Drug Name".into()),
                TokenKind::QuotedIdent("say \"hi\"".into()),
                TokenKind::QuotedIdent("".into()),
                TokenKind::QuotedIdent("SELECT".into()),
                TokenKind::Eof,
            ]
        );
        assert_eq!(lex(r#"a "open"#), Err(QueryError::Lex { at: 2, ch: '"' }));
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(matches!(lex("'oops"), Err(QueryError::Lex { .. })));
    }

    #[test]
    fn unexpected_char_rejected() {
        assert!(matches!(
            lex("a ; b"),
            Err(QueryError::Lex { at: 2, ch: ';' })
        ));
    }

    #[test]
    fn dotted_identifiers() {
        assert_eq!(
            kinds("drug.name"),
            vec![TokenKind::Ident("drug.name"), TokenKind::Eof]
        );
    }

    #[test]
    fn offsets_are_bytes() {
        let tokens = lex("é = 'ü' ß").unwrap();
        let at: Vec<usize> = tokens.iter().map(|t| t.at).collect();
        assert_eq!(at, vec![0, 3, 5, 10, 12]);
        assert_eq!(tokens[3].kind, TokenKind::Ident("ß"));
    }

    /// The char-indexed lexer this one replaced, kept as the reference
    /// the byte lexer is checked against. It knows no quoted
    /// identifiers, so inputs compared with it hold no `"`.
    mod reference {
        use crate::error::QueryError;

        #[derive(Debug, Clone, PartialEq)]
        pub enum Kind {
            Ident(String),
            Str(String),
            Number(f64),
            Comma,
            Star,
            Eq,
            Ne,
            Lt,
            Le,
            Gt,
            Ge,
            Eof,
        }

        /// Tokens as (char index, kind).
        pub fn lex(input: &str) -> Result<Vec<(usize, Kind)>, QueryError> {
            let bytes: Vec<char> = input.chars().collect();
            let mut tokens = Vec::new();
            let mut i = 0usize;
            while i < bytes.len() {
                let c = bytes[i];
                let at = i;
                match c {
                    ' ' | '\t' | '\n' | '\r' => {
                        i += 1;
                    }
                    ',' => {
                        tokens.push((at, Kind::Comma));
                        i += 1;
                    }
                    '*' => {
                        tokens.push((at, Kind::Star));
                        i += 1;
                    }
                    '=' => {
                        tokens.push((at, Kind::Eq));
                        i += 1;
                    }
                    '!' if bytes.get(i + 1) == Some(&'=') => {
                        tokens.push((at, Kind::Ne));
                        i += 2;
                    }
                    '<' => {
                        if bytes.get(i + 1) == Some(&'=') {
                            tokens.push((at, Kind::Le));
                            i += 2;
                        } else if bytes.get(i + 1) == Some(&'>') {
                            tokens.push((at, Kind::Ne));
                            i += 2;
                        } else {
                            tokens.push((at, Kind::Lt));
                            i += 1;
                        }
                    }
                    '>' => {
                        if bytes.get(i + 1) == Some(&'=') {
                            tokens.push((at, Kind::Ge));
                            i += 2;
                        } else {
                            tokens.push((at, Kind::Gt));
                            i += 1;
                        }
                    }
                    '\'' => {
                        let mut s = String::new();
                        i += 1;
                        loop {
                            match bytes.get(i) {
                                Some('\'') if bytes.get(i + 1) == Some(&'\'') => {
                                    s.push('\'');
                                    i += 2;
                                }
                                Some('\'') => {
                                    i += 1;
                                    break;
                                }
                                Some(ch) => {
                                    s.push(*ch);
                                    i += 1;
                                }
                                None => {
                                    return Err(QueryError::Lex { at, ch: '\'' });
                                }
                            }
                        }
                        tokens.push((at, Kind::Str(s)));
                    }
                    c if c.is_ascii_digit()
                        || (c == '-' && bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit())) =>
                    {
                        let start = i;
                        i += 1;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_digit()
                                || bytes[i] == '.'
                                || bytes[i] == 'e'
                                || bytes[i] == 'E'
                                || (matches!(bytes[i], '+' | '-')
                                    && matches!(bytes[i - 1], 'e' | 'E')))
                        {
                            i += 1;
                        }
                        let text: String = bytes[start..i].iter().collect();
                        let n: f64 = text.parse().map_err(|_| QueryError::Lex { at, ch: c })?;
                        tokens.push((at, Kind::Number(n)));
                    }
                    c if c.is_alphabetic() || c == '_' => {
                        let start = i;
                        while i < bytes.len()
                            && (bytes[i].is_alphanumeric() || bytes[i] == '_' || bytes[i] == '.')
                        {
                            i += 1;
                        }
                        let text: String = bytes[start..i].iter().collect();
                        tokens.push((at, Kind::Ident(text)));
                    }
                    other => return Err(QueryError::Lex { at, ch: other }),
                }
            }
            tokens.push((bytes.len(), Kind::Eof));
            Ok(tokens)
        }
    }

    fn as_reference(kind: &TokenKind<'_>) -> reference::Kind {
        use reference::Kind;
        match kind {
            TokenKind::Ident(s) => Kind::Ident(s.to_string()),
            TokenKind::QuotedIdent(_) => unreachable!("reference inputs hold no '\"'"),
            TokenKind::Str(s) => Kind::Str(s.to_string()),
            TokenKind::Number(n) => Kind::Number(*n),
            TokenKind::Comma => Kind::Comma,
            TokenKind::Star => Kind::Star,
            TokenKind::Eq => Kind::Eq,
            TokenKind::Ne => Kind::Ne,
            TokenKind::Lt => Kind::Lt,
            TokenKind::Le => Kind::Le,
            TokenKind::Gt => Kind::Gt,
            TokenKind::Ge => Kind::Ge,
            TokenKind::Eof => Kind::Eof,
        }
    }

    /// Byte offset of each char index, plus the input's length for the
    /// index one past the last char.
    fn byte_offsets(input: &str) -> Vec<usize> {
        input
            .char_indices()
            .map(|(b, _)| b)
            .chain(std::iter::once(input.len()))
            .collect()
    }

    /// The byte lexer agrees with the reference on `input`: the same
    /// kinds at the same positions, or the same error at the same
    /// position.
    fn agrees_with_reference(input: &str) {
        let bytes_of = byte_offsets(input);
        match (lex(input), reference::lex(input)) {
            (Ok(got), Ok(want)) => {
                let got: Vec<(usize, reference::Kind)> =
                    got.iter().map(|t| (t.at, as_reference(&t.kind))).collect();
                let want: Vec<(usize, reference::Kind)> =
                    want.into_iter().map(|(at, k)| (bytes_of[at], k)).collect();
                assert_eq!(got, want, "{input:?}");
            }
            (Err(got), Err(want)) => {
                let want = match want {
                    QueryError::Lex { at, ch } => QueryError::Lex {
                        at: bytes_of[at],
                        ch,
                    },
                    other => other,
                };
                assert_eq!(got, want, "{input:?}");
            }
            (got, want) => panic!("{input:?}: byte lexer {got:?}, reference {want:?}"),
        }
    }

    #[test]
    fn agrees_with_reference_on_edge_cases() {
        for input in [
            "",
            "-",
            "--1",
            "-x",
            "1e",
            "1e+",
            "1e+5",
            "2.5e-2x",
            "1.2.3",
            "5abc",
            "'",
            "''",
            "''''",
            "'a''",
            "'é''ü'",
            "é_1.ß²",
            "a;b",
            "! =",
            "!",
            "<>=",
            "x\u{a0}y",
            "—",
            "SELECT drug FROM src1 WHERE tag = 't007'",
        ] {
            agrees_with_reference(input);
        }
    }

    use proptest::prelude::*;

    /// Fragments that exercise every lexer path: names (ASCII and not),
    /// keywords, numbers with signs and exponents, strings with `''`
    /// escapes, lone quotes, operators and stray characters.
    pub(crate) fn fragment() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-zA-Z_]{1,6}",
            "[a-zé_ß0-9.]{1,5}",
            "[0-9]{1,4}",
            "-[0-9]{1,3}",
            "[0-9]{1,2}[.eE][0-9+-]{0,3}",
            "'[a-z é'ü]{0,5}'",
            "[-'eE.0-9]{1,3}",
            "[ \t\n]{1,2}",
            "[,*=<>!]{1,2}",
            "[;()é²中—\u{a0}#@]",
            Just("SELECT".to_string()),
            Just("''".to_string()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn byte_lexer_matches_reference(parts in proptest::collection::vec(fragment(), 0..12)) {
            agrees_with_reference(&parts.concat());
        }
    }
}
