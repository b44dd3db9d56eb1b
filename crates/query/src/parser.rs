//! Recursive-descent parser for ScQL.
//!
//! ```text
//! query  := SELECT cols FROM ident [WHERE atom (AND atom)*] [LIMIT n]
//! cols   := '*' | ident (',' ident)*
//! atom   := ident op literal
//!         | ident CLOSE TO number [WITHIN number]
//!         | ident IS (string | ident)
//!         | ident HAS SOME ident
//!         | LINKED BY ident (>= | >) number
//! ident  := bare | '"' (any char, '""' for '"')* '"'
//! ```
//!
//! A bare identifier that spells a keyword is that keyword; a quoted one
//! is always a name, so `"Drug Name"` and `"limit"` are columns.

use crate::ast::{Atom, CompareOp, Literal, Query};
use crate::error::QueryError;
use crate::lexer::{lex, Token, TokenKind};

/// The words the parser reads as keywords (case-insensitively) when
/// they stand bare; a name spelling one is written quoted.
pub(crate) const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "LIMIT", "CLOSE", "TO", "WITHIN", "IS", "HAS", "SOME",
    "LINKED", "BY", "TRUE", "FALSE", "NULL",
];

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos]
    }

    /// Step past the current token, handing its payload over: a token is
    /// consumed once, so it is moved out, not cloned. `Eof` is never
    /// stepped past.
    fn advance(&mut self) -> TokenKind<'a> {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].kind, TokenKind::Eof)
        } else {
            TokenKind::Eof
        }
    }

    fn error(&self, expected: &str) -> QueryError {
        let t = self.peek();
        QueryError::Parse {
            at: t.at,
            expected: expected.to_string(),
            found: t.kind.describe(),
        }
    }

    /// Consume an identifier matching `kw` case-insensitively. A quoted
    /// identifier is never a keyword.
    fn keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.is_keyword(kw) {
            self.advance();
            Ok(())
        } else {
            Err(self.error(kw))
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    /// Step past the current token and hand it over when `accept` takes
    /// its kind.
    fn take_if(&mut self, accept: impl FnOnce(&TokenKind<'a>) -> bool) -> Option<TokenKind<'a>> {
        accept(&self.peek().kind).then(|| self.advance())
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        match self.take_if(|k| matches!(k, TokenKind::Ident(_) | TokenKind::QuotedIdent(_))) {
            Some(TokenKind::Ident(s)) => Ok(s.to_owned()),
            Some(TokenKind::QuotedIdent(s)) => Ok(s.into_owned()),
            _ => Err(self.error("identifier")),
        }
    }

    fn number(&mut self) -> Result<f64, QueryError> {
        match self.peek().kind {
            TokenKind::Number(n) => {
                self.advance();
                Ok(n)
            }
            _ => Err(self.error("number")),
        }
    }

    fn literal(&mut self) -> Result<Literal, QueryError> {
        let is = |s: &str, kw: &str| s.eq_ignore_ascii_case(kw);
        let token = self.take_if(|k| match k {
            TokenKind::Number(_) | TokenKind::Str(_) => true,
            TokenKind::Ident(s) => is(s, "true") || is(s, "false") || is(s, "null"),
            _ => false,
        });
        match token {
            Some(TokenKind::Number(n)) if n.fract() == 0.0 && n.abs() < 9e15 => {
                Ok(Literal::Int(n as i64))
            }
            Some(TokenKind::Number(n)) => Ok(Literal::Float(n)),
            Some(TokenKind::Str(s)) => Ok(Literal::Str(s.into_owned())),
            Some(TokenKind::Ident(s)) if is(s, "true") => Ok(Literal::Bool(true)),
            Some(TokenKind::Ident(s)) if is(s, "false") => Ok(Literal::Bool(false)),
            Some(TokenKind::Ident(_)) => Ok(Literal::Null),
            _ => Err(self.error("literal")),
        }
    }

    fn compare_op(&mut self) -> Result<CompareOp, QueryError> {
        let op = match self.peek().kind {
            TokenKind::Eq => CompareOp::Eq,
            TokenKind::Ne => CompareOp::Ne,
            TokenKind::Lt => CompareOp::Lt,
            TokenKind::Le => CompareOp::Le,
            TokenKind::Gt => CompareOp::Gt,
            TokenKind::Ge => CompareOp::Ge,
            _ => return Err(self.error("comparison operator")),
        };
        self.advance();
        Ok(op)
    }

    fn atom(&mut self) -> Result<Atom, QueryError> {
        if self.is_keyword("LINKED") {
            self.advance();
            self.keyword("BY")?;
            let model = self.ident()?;
            let op = self.compare_op()?;
            if !matches!(op, CompareOp::Ge | CompareOp::Gt) {
                return Err(self.error(">= or > after model name"));
            }
            let threshold = self.number()?;
            return Ok(Atom::ModelAtom { model, threshold });
        }
        let attr = self.ident()?;
        if self.is_keyword("CLOSE") {
            self.advance();
            self.keyword("TO")?;
            let center = self.number()?;
            let width = if self.is_keyword("WITHIN") {
                self.advance();
                self.number()?
            } else {
                // Default width: 10% of |center| (narrow-range default).
                center.abs() * 0.1
            };
            return Ok(Atom::CloseTo {
                attr,
                center,
                width,
            });
        }
        if self.is_keyword("IS") {
            self.advance();
            let name = self.take_if(|k| {
                matches!(
                    k,
                    TokenKind::Str(_) | TokenKind::Ident(_) | TokenKind::QuotedIdent(_)
                )
            });
            let concept = match name {
                Some(TokenKind::Str(s) | TokenKind::QuotedIdent(s)) => s.into_owned(),
                Some(TokenKind::Ident(s)) => s.to_owned(),
                _ => return Err(self.error("concept name")),
            };
            return Ok(Atom::IsConcept { attr, concept });
        }
        if self.is_keyword("HAS") {
            self.advance();
            self.keyword("SOME")?;
            let role = self.ident()?;
            return Ok(Atom::HasSome { attr, role });
        }
        let op = self.compare_op()?;
        let value = self.literal()?;
        Ok(Atom::Compare { attr, op, value })
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        self.keyword("SELECT")?;
        let mut select = Vec::new();
        if matches!(self.peek().kind, TokenKind::Star) {
            self.advance();
        } else {
            select.push(self.ident()?);
            while matches!(self.peek().kind, TokenKind::Comma) {
                self.advance();
                select.push(self.ident()?);
            }
        }
        self.keyword("FROM")?;
        let from = self.ident()?;
        let mut atoms = Vec::new();
        if self.is_keyword("WHERE") {
            self.advance();
            atoms.push(self.atom()?);
            while self.is_keyword("AND") {
                self.advance();
                atoms.push(self.atom()?);
            }
        }
        let mut limit = None;
        if self.is_keyword("LIMIT") {
            self.advance();
            let n = self.number()?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(self.error("non-negative integer limit"));
            }
            limit = Some(n as usize);
        }
        if !matches!(self.peek().kind, TokenKind::Eof) {
            return Err(self.error("end of query"));
        }
        Ok(Query {
            select,
            from,
            atoms,
            limit,
        })
    }
}

/// Parse an ScQL query string.
pub fn parse(input: &str) -> Result<Query, QueryError> {
    let tokens = lex(input)?;
    Parser { tokens, pos: 0 }.query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse("SELECT * FROM trials").unwrap();
        assert!(q.select.is_empty());
        assert_eq!(q.from, "trials");
        assert!(q.atoms.is_empty());
        assert_eq!(q.limit, None);
    }

    #[test]
    fn full_warfarin_query() {
        let q = parse(
            "SELECT drug, effective_dose FROM trials \
             WHERE drug = 'Warfarin' \
               AND effective_dose CLOSE TO 5.0 WITHIN 0.5 \
               AND drug IS 'Drug' \
               AND drug HAS SOME has_target \
               AND LINKED BY link_model >= 0.7 \
             LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.select, vec!["drug", "effective_dose"]);
        assert_eq!(q.atoms.len(), 5);
        assert_eq!(
            q.atoms[1],
            Atom::CloseTo {
                attr: "effective_dose".into(),
                center: 5.0,
                width: 0.5
            }
        );
        assert_eq!(
            q.atoms[3],
            Atom::HasSome {
                attr: "drug".into(),
                role: "has_target".into()
            }
        );
        assert_eq!(
            q.atoms[4],
            Atom::ModelAtom {
                model: "link_model".into(),
                threshold: 0.7
            }
        );
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn close_to_default_width() {
        let q = parse("SELECT * FROM t WHERE dose CLOSE TO 5.0").unwrap();
        assert_eq!(
            q.atoms[0],
            Atom::CloseTo {
                attr: "dose".into(),
                center: 5.0,
                width: 0.5
            }
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse("select a from t where a >= 3 and b is Drug limit 1").unwrap();
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.limit, Some(1));
    }

    #[test]
    fn literals() {
        let q =
            parse("SELECT * FROM t WHERE a = 'x' AND b = 2.5 AND c = true AND d != NULL").unwrap();
        assert_eq!(q.atoms.len(), 4);
        assert!(matches!(
            &q.atoms[0],
            Atom::Compare { value: Literal::Str(s), .. } if s == "x"
        ));
        assert!(matches!(
            q.atoms[1],
            Atom::Compare {
                value: Literal::Float(f),
                ..
            } if f == 2.5
        ));
        assert!(matches!(
            q.atoms[2],
            Atom::Compare {
                value: Literal::Bool(true),
                ..
            }
        ));
        assert!(matches!(
            q.atoms[3],
            Atom::Compare {
                value: Literal::Null,
                ..
            }
        ));
    }

    #[test]
    fn errors_carry_position_and_expectation() {
        // `FROM` is lexed as an identifier, so it is consumed as the
        // column list and the parser then misses the FROM keyword.
        let err = parse("SELECT FROM t").unwrap_err();
        match err {
            QueryError::Parse { expected, .. } => assert_eq!(expected, "FROM"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t LIMIT -1").is_err());
        assert!(parse("SELECT * FROM t garbage").is_err());
        assert!(parse("SELECT * FROM t WHERE LINKED BY m = 0.5").is_err());
    }

    #[test]
    fn error_offsets_are_byte_offsets() {
        // `é` and `ü` are two bytes each: a char index would be one short.
        assert_eq!(
            parse("SELECT * FROM t WHERE a = 'é' ;"),
            Err(QueryError::Lex { at: 31, ch: ';' })
        );
        match parse("SELECT * FROM t WHERE a = 'Müller' garbage") {
            Err(QueryError::Parse { at, expected, .. }) => {
                assert_eq!((at, expected.as_str()), (36, "end of query"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let sql = "SELECT * FROM t WHERE a = 'é'";
        match parse(&format!("{sql} AND")) {
            Err(QueryError::Parse { at, .. }) => assert_eq!(at, sql.len() + 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT * FROM t LIMIT 1 LIMIT 2").is_err());
    }

    #[test]
    fn display_reparses() {
        let q = parse(
            "SELECT a FROM t WHERE a CLOSE TO 5.0 WITHIN 0.5 AND b IS 'Drug' AND c >= 3 LIMIT 2",
        )
        .unwrap();
        let q2 = parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn quoted_identifiers_are_names_never_keywords() {
        let q = parse(
            r#"SELECT "Drug Name", "limit" FROM "my src" WHERE "Drug Name" = 'Warfarin' AND "and" IS "Drug" LIMIT 3"#,
        )
        .unwrap();
        assert_eq!(q.select, vec!["Drug Name", "limit"]);
        assert_eq!(q.from, "my src");
        assert_eq!(
            q.atoms,
            vec![
                Atom::Compare {
                    attr: "Drug Name".into(),
                    op: CompareOp::Eq,
                    value: Literal::Str("Warfarin".into()),
                },
                Atom::IsConcept {
                    attr: "and".into(),
                    concept: "Drug".into(),
                },
            ]
        );
        assert_eq!(
            q.to_string(),
            r#"SELECT "Drug Name", "limit" FROM "my src" WHERE "Drug Name" = 'Warfarin' AND "and" IS 'Drug' LIMIT 3"#
        );
        // A quoted keyword cannot stand in for the keyword.
        assert!(parse(r#""SELECT" * FROM t"#).is_err());
        assert!(parse(r#"SELECT * "FROM" t"#).is_err());
    }

    #[test]
    fn display_quotes_only_what_needs_it() {
        let q = parse("SELECT drug.name, _x FROM src1 WHERE é = 'it''s' AND w HAS SOME r").unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT drug.name, _x FROM src1 WHERE é = 'it''s' AND w HAS SOME r"
        );
    }

    use proptest::prelude::*;

    /// Names of every shape: bare, keywords in any case, and text that
    /// only a quoted identifier can carry.
    fn name() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-zA-Z_][a-z0-9_.]{0,6}",
            "[a-z \"'.,*=é-]{0,6}",
            "[éß中_][a-z²]{0,3}",
            "[0-9][a-z]{0,2}",
            (0..KEYWORDS.len(), any::<bool>()).prop_map(|(i, lower)| if lower {
                KEYWORDS[i].to_lowercase()
            } else {
                KEYWORDS[i].to_string()
            }),
            Just(String::new()),
            Just("Drug Name".to_string()),
        ]
    }

    /// Literals in the form `parse` produces: integers below 2^53 as
    /// `Int`, a float as `Float` only when it is not integral or too
    /// large for `Int`.
    fn literal() -> impl Strategy<Value = Literal> {
        prop_oneof![
            (-9_000_000_000_000_000i64..9_000_000_000_000_000).prop_map(Literal::Int),
            (-1e6f64..1e6).prop_map(|x| Literal::Float(if x.fract() == 0.0 { x + 0.5 } else { x })),
            Just(Literal::Float(1e20)),
            "[a-z '\"é]{0,6}".prop_map(Literal::Str),
            any::<bool>().prop_map(Literal::Bool),
            Just(Literal::Null),
        ]
    }

    fn compare_op() -> impl Strategy<Value = CompareOp> {
        prop_oneof![
            Just(CompareOp::Eq),
            Just(CompareOp::Ne),
            Just(CompareOp::Lt),
            Just(CompareOp::Le),
            Just(CompareOp::Gt),
            Just(CompareOp::Ge),
        ]
    }

    fn atom() -> impl Strategy<Value = Atom> {
        prop_oneof![
            (name(), compare_op(), literal()).prop_map(|(attr, op, value)| Atom::Compare {
                attr,
                op,
                value
            }),
            (name(), -1e3f64..1e3, 0.0f64..10.0).prop_map(|(attr, center, width)| {
                Atom::CloseTo {
                    attr,
                    center,
                    width,
                }
            }),
            (name(), "[A-Za-z '\"]{0,6}")
                .prop_map(|(attr, concept)| Atom::IsConcept { attr, concept }),
            (name(), name()).prop_map(|(attr, role)| Atom::HasSome { attr, role }),
            (name(), 0.0f64..1.0)
                .prop_map(|(model, threshold)| Atom::ModelAtom { model, threshold }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn display_round_trips(
            select in proptest::collection::vec(name(), 0..4),
            from in name(),
            atoms in proptest::collection::vec(atom(), 0..4),
            limit in proptest::option::of(0usize..1_000_000),
        ) {
            let q = Query { select, from, atoms, limit };
            let text = q.to_string();
            prop_assert_eq!(parse(&text), Ok(q), "{}", text);
        }
    }

    /// The lexer's fragments and the parser's keywords, to be strung
    /// together in any order.
    fn soup() -> impl Strategy<Value = String> {
        prop_oneof![
            crate::lexer::tests::fragment(),
            (0..KEYWORDS.len()).prop_map(|i| format!(" {} ", KEYWORDS[i])),
            Just(" IS ".to_string()),
            Just(" HAS SOME ".to_string()),
            Just(" CLOSE TO ".to_string()),
            Just(" LINKED BY ".to_string()),
            Just("\"".to_string()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// `parse` answers any input with `Ok` or `Err` and never panics:
        /// arbitrary text (control characters, ASCII, Latin and wider
        /// characters), and soups of fragments and keywords, alone and
        /// after a `WHERE`, which reach deeper into the grammar than
        /// random text does.
        #[test]
        fn parse_never_panics(
            text in "[\u{0}-\u{17f}中—²]{0,40}",
            parts in proptest::collection::vec(soup(), 0..16),
        ) {
            let soup = parts.concat();
            let _ = parse(&text);
            let _ = parse(&soup);
            let _ = parse(&format!("SELECT * FROM t WHERE {soup}"));
        }
    }
}
