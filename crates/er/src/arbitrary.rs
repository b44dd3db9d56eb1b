//! Property-test inputs shared by the similarity, feature-cache and
//! resolver tests: values and records that reach every branch of
//! normalization and scoring.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use scdb_types::{Record, Symbol, SymbolTable, Value};

/// Characters that exercise normalization: balanced and unbalanced
/// brackets, case folds that change length (`İ`), letters with no
/// single-char uppercase (`ß`), digits, the q-gram pad `#`, and a
/// combining mark that is not alphanumeric.
pub(crate) const ALPHABET: &[char] = &[
    'a', 'b', 'e', 'M', 'z', ' ', ' ', '-', '.', '(', ')', '[', ']', '{', '}', 'İ', 'ß', 'é', '0',
    '7', '#', '\u{307}',
];

/// Short strings, empty included: over [`ALPHABET`], or over two
/// letters and a space so tokens and 3-grams repeat.
pub(crate) fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        vec(0..ALPHABET.len(), 0..14).prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect()),
        "[ab ]{0,12}",
    ]
}

/// `s` with the character at `at` replaced by `ALPHABET[with]`, or with
/// it appended when `at` is past the end: a near-duplicate of `s`.
pub(crate) fn edit(s: &str, at: usize, with: usize) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    match chars.get_mut(at) {
        Some(c) => *c = ALPHABET[with],
        None => chars.push(ALPHABET[with]),
    }
    chars.into_iter().collect()
}

/// Strings (most draws), integers, floats and nulls.
pub(crate) fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        text().prop_map(Value::str),
        text().prop_map(Value::str),
        text().prop_map(Value::str),
        (-50i64..50).prop_map(Value::Int),
        (-50.0f64..50.0).prop_map(Value::Float),
        Just(Value::Float(0.0)),
        Just(Value::Null),
    ]
}

/// Attributes a generated record may carry.
pub(crate) const ATTRS: usize = 4;

/// One record's cells: attribute `i` present when `Some`.
pub(crate) fn cells() -> impl Strategy<Value = Vec<Option<Value>>> {
    vec(option::of(value()), ATTRS..ATTRS + 1)
}

/// Attribute symbols `a0..a3` and a record built from `cells`.
pub(crate) fn record(symbols: &mut SymbolTable, cells: &[Option<Value>]) -> Record {
    Record::from_pairs(
        cells
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((attr(symbols, i), v.clone()?))),
    )
}

/// The symbol of attribute `i`.
pub(crate) fn attr(symbols: &mut SymbolTable, i: usize) -> Symbol {
    symbols.intern(&format!("a{i}"))
}
