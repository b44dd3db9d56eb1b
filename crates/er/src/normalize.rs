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

/// Calls `emit` with every token of [`token_set`] over `parts` joined by
/// `' '`, in text order and with repeats, without building the joined,
/// normalized or tokenized strings. `token` is the caller's reusable
/// buffer.
///
/// It mirrors both passes exactly. Bracket depth carries across parts,
/// because [`normalize`] strips qualifiers from the *joined* text: a
/// bracket opened in one part swallows the separator and the next part
/// up to its close. And each alphanumeric char is lowercased twice,
/// ending the token where an expansion yields a non-alphanumeric char
/// (`İ` → `i` + U+0307), as tokenizing `normalize`'s output does.
pub(crate) fn for_each_token<S: AsRef<str>>(
    parts: impl IntoIterator<Item = S>,
    token: &mut String,
    mut emit: impl FnMut(&str),
) {
    token.clear();
    let mut depth = 0u32;
    for (i, part) in parts.into_iter().enumerate() {
        let separator = (i > 0).then_some(' ');
        for ch in separator.into_iter().chain(part.as_ref().chars()) {
            match ch {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => depth = depth.saturating_sub(1),
                _ if depth > 0 => {}
                _ if ch.is_ascii_alphanumeric() => token.push(ch.to_ascii_lowercase()),
                _ if ch.is_alphanumeric() => {
                    for lower in ch.to_lowercase() {
                        if lower.is_alphanumeric() {
                            token.extend(lower.to_lowercase());
                        } else {
                            end_token(token, &mut emit);
                        }
                    }
                }
                _ => end_token(token, &mut emit),
            }
        }
    }
    end_token(token, &mut emit);
}

fn end_token(token: &mut String, emit: &mut impl FnMut(&str)) {
    if !token.is_empty() {
        emit(token);
        token.clear();
    }
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
    use crate::arbitrary::text;
    use proptest::collection::vec;
    use proptest::prelude::*;

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

    /// [`for_each_token`]'s tokens, sorted and deduplicated.
    fn streamed(parts: &[String]) -> Vec<String> {
        let mut tokens = Vec::new();
        for_each_token(parts, &mut String::from("stale"), |t| {
            tokens.push(t.to_string())
        });
        tokens.sort();
        tokens.dedup();
        tokens
    }

    #[test]
    fn streamed_tokens_carry_brackets_across_parts() {
        for parts in [
            &["a (b", "c) d"][..],
            &["ab(x", "y)cd"],
            &["a (b", "", "c"],
            &["x)", "(y"],
            &["İstanbul", "STRASSE ß"],
            &["e\u{301}", "ÉTÉ"],
            &["", ""],
            &[],
        ] {
            let parts: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
            assert_eq!(streamed(&parts), token_set(&parts.join(" ")), "{parts:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The walker's token set is `token_set` of the joined text, for
        /// parts that open brackets in one part and close them in a
        /// later one, and carry case folds that change length.
        #[test]
        fn streamed_tokens_equal_token_set_of_joined_text(parts in vec(text(), 0..5)) {
            prop_assert_eq!(streamed(&parts), token_set(&parts.join(" ")));
        }
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
