//! The ScQL abstract syntax tree.

use std::fmt::{self, Write as _};

use scdb_types::Value;

use crate::parser::KEYWORDS;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// NULL.
    Null,
}

impl Literal {
    /// Convert to an instance-layer value.
    pub fn to_value(&self) -> Value {
        match self {
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(f) => Value::Float(*f),
            Literal::Str(s) => Value::str(s),
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Null => Value::Null,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "{}", Quoted('\'', s)),
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
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
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One conjunct of the WHERE clause — the unified-language atoms (FS.5).
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `attr op literal` — the relational core (subset of SQL/FOL).
    Compare {
        /// Attribute name.
        attr: String,
        /// Operator.
        op: CompareOp,
        /// Constant.
        value: Literal,
    },
    /// `attr CLOSE TO center WITHIN width` — the fuzzy closeness atom
    /// (§4.2: "the notion of closeness can … be formulated based on fuzzy
    /// logic").
    CloseTo {
        /// Attribute name.
        attr: String,
        /// Triangle center.
        center: f64,
        /// Triangle half-width.
        width: f64,
    },
    /// `attr IS 'Concept'` — OWL-style membership (the semantic half of
    /// FS.5).
    IsConcept {
        /// Attribute holding the entity reference (or the entity name
        /// attribute).
        attr: String,
        /// Concept name.
        concept: String,
    },
    /// `attr HAS SOME role` — existential restriction over the relation
    /// layer (§3.3's "Acetaminophen has a target").
    HasSome {
        /// Attribute holding the entity reference.
        attr: String,
        /// Role name.
        role: String,
    },
    /// `LINKED BY model >= threshold` — the statistical-model atom (FS.4
    /// into FS.5).
    ModelAtom {
        /// Model name.
        model: String,
        /// Acceptance threshold on the predicted probability.
        threshold: f64,
    },
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Compare { attr, op, value } => write!(f, "{} {op} {value}", Name(attr)),
            Atom::CloseTo {
                attr,
                center,
                width,
            } => write!(f, "{} CLOSE TO {center} WITHIN {width}", Name(attr)),
            Atom::IsConcept { attr, concept } => {
                write!(f, "{} IS {}", Name(attr), Quoted('\'', concept))
            }
            Atom::HasSome { attr, role } => write!(f, "{} HAS SOME {}", Name(attr), Name(role)),
            Atom::ModelAtom { model, threshold } => {
                write!(f, "LINKED BY {} >= {threshold}", Name(model))
            }
        }
    }
}

/// A name as ScQL spells it: bare when it lexes back as one identifier
/// that is no keyword, double-quoted otherwise.
struct Name<'a>(&'a str);

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut chars = self.0.chars();
        let bare = chars.next().is_some_and(|c| c.is_alphabetic() || c == '_')
            && chars.all(|c| c.is_alphanumeric() || c == '_' || c == '.')
            && !KEYWORDS.iter().any(|k| k.eq_ignore_ascii_case(self.0));
        if bare {
            f.write_str(self.0)
        } else {
            Quoted('"', self.0).fmt(f)
        }
    }
}

/// `text` between `quote`s, a quote inside doubled.
struct Quoted<'a>(char, &'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Quoted(q, text) = *self;
        f.write_char(q)?;
        for (i, part) in text.split(q).enumerate() {
            if i > 0 {
                f.write_char(q)?;
                f.write_char(q)?;
            }
            f.write_str(part)?;
        }
        f.write_char(q)
    }
}

/// A parsed ScQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projected attributes; empty means `*`.
    pub select: Vec<String>,
    /// Source name.
    pub from: String,
    /// Conjunctive predicates.
    pub atoms: Vec<Atom>,
    /// Optional row limit.
    pub limit: Option<usize>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        if self.select.is_empty() {
            f.write_str("*")?;
        }
        for (i, attr) in self.select.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}", Name(attr))?;
        }
        write!(f, " FROM {}", Name(&self.from))?;
        for (i, atom) in self.atoms.iter().enumerate() {
            let sep = if i == 0 { " WHERE " } else { " AND " };
            write!(f, "{sep}{atom}")?;
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_to_value() {
        assert_eq!(Literal::Int(4).to_value(), Value::Int(4));
        assert_eq!(Literal::Str("x".into()).to_value(), Value::str("x"));
        assert_eq!(Literal::Null.to_value(), Value::Null);
        assert_eq!(Literal::Bool(true).to_value(), Value::Bool(true));
        assert_eq!(Literal::Float(1.5).to_value(), Value::Float(1.5));
    }

    #[test]
    fn display_roundtrips_visually() {
        let q = Query {
            select: vec!["name".into(), "dose".into()],
            from: "trials".into(),
            atoms: vec![
                Atom::Compare {
                    attr: "name".into(),
                    op: CompareOp::Eq,
                    value: Literal::Str("Warfarin".into()),
                },
                Atom::CloseTo {
                    attr: "dose".into(),
                    center: 5.0,
                    width: 0.5,
                },
                Atom::IsConcept {
                    attr: "name".into(),
                    concept: "Drug".into(),
                },
            ],
            limit: Some(10),
        };
        let s = q.to_string();
        assert!(s.contains("SELECT name, dose FROM trials"));
        assert!(s.contains("dose CLOSE TO 5 WITHIN 0.5"));
        assert!(s.contains("name IS 'Drug'"));
        assert!(s.ends_with("LIMIT 10"));
    }

    #[test]
    fn star_select_display() {
        let q = Query {
            select: vec![],
            from: "s".into(),
            atoms: vec![],
            limit: None,
        };
        assert_eq!(q.to_string(), "SELECT * FROM s");
    }
}
