//! Deterministic normalization shared by all similarity metrics.
//!
//! Heterogeneous sources spell the same entity differently ("Methotrexate"
//! vs "methotrexate (MTX)" vs "Methotrexate sodium"); normalization makes
//! the downstream metrics see through the cheap variation so they can
//! spend their tolerance budget on the real variation.

use scdb_storage::text::tokenize;

/// Normalize a raw string: lowercase, strip punctuation, collapse
/// whitespace, drop bracketed qualifiers.
pub fn normalize(s: &str) -> String {
    // Remove parenthesized/bracketed qualifiers first: "Advil (brand)" →
    // "Advil".
    let mut cleaned = String::with_capacity(s.len());
    let mut depth = 0i32;
    for ch in s.chars() {
        match ch {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth = (depth - 1).max(0),
            _ if depth == 0 => cleaned.push(ch),
            _ => {}
        }
    }
    tokenize(&cleaned).join(" ")
}

/// Token list after normalization.
pub fn norm_tokens(s: &str) -> Vec<String> {
    tokenize(&normalize(s))
}

/// Sorted, deduplicated token set after normalization — the input for
/// Jaccard and blocking keys.
pub fn token_set(s: &str) -> Vec<String> {
    token_set_of_normalized(&normalize(s))
}

/// [`token_set`] of a string [`normalize`] already returned.
pub(crate) fn token_set_of_normalized(norm: &str) -> Vec<String> {
    let mut t = tokenize(norm);
    t.sort();
    t.dedup();
    t
}

/// Character q-grams of the normalized string (with boundary padding so
/// prefixes/suffixes weigh in).
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    qgrams_of_normalized(&normalize(s), q)
}

/// [`qgrams`] of a string [`normalize`] already returned.
pub(crate) fn qgrams_of_normalized(norm: &str, q: usize) -> Vec<String> {
    let q = q.max(1);
    if norm.is_empty() {
        return Vec::new();
    }
    let padded: Vec<char> = std::iter::repeat_n('#', q - 1)
        .chain(norm.chars())
        .chain(std::iter::repeat_n('#', q - 1))
        .collect();
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basic() {
        assert_eq!(normalize("  Ibuprofen (Advil)  "), "ibuprofen");
        assert_eq!(normalize("Blood-Clot; Embolism!"), "blood clot embolism");
        assert_eq!(normalize("PTGS2 [Gene]"), "ptgs2");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn nested_and_unbalanced_brackets() {
        assert_eq!(normalize("a (b (c) d) e"), "a e");
        assert_eq!(normalize("a ) b"), "a b");
        assert_eq!(normalize("a ( b"), "a");
    }

    #[test]
    fn token_set_sorted_dedup() {
        assert_eq!(token_set("beta alpha beta"), vec!["alpha", "beta"]);
    }

    #[test]
    fn qgrams_padded() {
        let g = qgrams("ab", 2);
        assert_eq!(g, vec!["#a", "ab", "b#"]);
        assert!(qgrams("", 2).is_empty());
        let g3 = qgrams("abc", 3);
        assert_eq!(g3.first().unwrap(), "##a");
        assert_eq!(g3.last().unwrap(), "c##");
    }

    #[test]
    fn qgrams_q1_is_chars() {
        assert_eq!(qgrams("ab", 1), vec!["a", "b"]);
    }
}
