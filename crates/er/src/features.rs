//! Cached identity features: what the resolver keeps so that scoring an
//! identity attribute does not re-derive the same strings on every
//! comparison.
//!
//! [`string_similarity`](crate::similarity::string_similarity)
//! normalizes both strings and then derives three views of each: the
//! characters (Jaro–Winkler), the sorted token set (token Jaccard) and
//! the sorted 3-gram set (q-gram Jaccard). An incoming record is scored
//! against up to `max_candidates` stored ones, so the resolver derives
//! the incoming side's views once per `add` ([`Probe`]), keeps only the
//! normalized rendering of each stored record ([`IdentityKey`]), and
//! re-derives a candidate's views into one reusable [`StrFeatures`].
//! A 3-gram is packed into a `u64`, 21 bits per code point: the map is
//! injective, so set sizes and intersections — and with them every
//! score — are exactly those of the `String` q-grams.

use std::ops::Range;

use scdb_types::Value;

use crate::normalize::normalize;
use crate::similarity::{jaccard, jaccard_by, jaro_winkler_chars, numeric_similarity};

/// One identity value as the resolver caches it per record: everything
/// [`value_similarity`](crate::similarity::value_similarity) reads of
/// a non-null value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IdentityKey {
    norm: Box<str>,
    num: Option<f64>,
}

impl IdentityKey {
    /// The key of `value`; `None` for null, which never scores.
    pub(crate) fn of(value: &Value) -> Option<Self> {
        (!value.is_null()).then(|| IdentityKey {
            norm: normalize(&value.render()).into_boxed_str(),
            num: value.as_float(),
        })
    }
}

/// The three views `string_similarity` scores a normalized string by,
/// in buffers that survive a refill.
#[derive(Debug, Default)]
pub(crate) struct StrFeatures {
    chars: Vec<char>,
    /// The normalized string's tokens (as `tokenize` splits them), laid
    /// end to end.
    token_text: String,
    /// Byte ranges of `token_text`, sorted by content, deduplicated.
    tokens: Vec<Range<usize>>,
    /// Padded 3-grams packed into `u64`, sorted, deduplicated.
    grams: Vec<u64>,
}

impl StrFeatures {
    /// Re-derive every view from the normalized string `norm`.
    pub(crate) fn fill(&mut self, norm: &str) {
        self.chars.clear();
        self.chars.extend(norm.chars());

        self.token_text.clear();
        self.tokens.clear();
        let mut start = 0;
        for ch in norm.chars() {
            if ch.is_alphanumeric() {
                self.token_text.extend(ch.to_lowercase());
            } else if self.token_text.len() > start {
                self.tokens.push(start..self.token_text.len());
                start = self.token_text.len();
            }
        }
        if self.token_text.len() > start {
            self.tokens.push(start..self.token_text.len());
        }
        let text = &self.token_text;
        self.tokens
            .sort_unstable_by(|x, y| text[x.clone()].cmp(&text[y.clone()]));
        self.tokens
            .dedup_by(|x, y| text[x.clone()] == text[y.clone()]);

        // `qgrams(norm, 3)`: the characters padded with two '#' a side.
        self.grams.clear();
        if !self.chars.is_empty() {
            let chars = &self.chars;
            let padded = |k: usize| {
                u64::from(
                    k.checked_sub(2)
                        .and_then(|i| chars.get(i))
                        .map_or('#', |c| *c),
                )
            };
            self.grams.extend(
                (0..chars.len() + 2).map(|k| padded(k) << 42 | padded(k + 1) << 21 | padded(k + 2)),
            );
            self.grams.sort_unstable();
            self.grams.dedup();
        }
    }

    /// `string_similarity` of the two strings the features came from.
    fn similarity(&self, other: &StrFeatures) -> f64 {
        if self.chars == other.chars {
            return 1.0;
        }
        let (ta, tb) = (&self.token_text, &other.token_text);
        let tokens = jaccard_by(self.tokens.len(), other.tokens.len(), |i, j| {
            ta[self.tokens[i].clone()].cmp(&tb[other.tokens[j].clone()])
        });
        tokens
            .max(jaro_winkler_chars(&self.chars, &other.chars))
            .max(jaccard(&self.grams, &other.grams))
    }
}

/// The incoming record's identity, with every view derived once per
/// `add`.
#[derive(Debug)]
pub(crate) struct Probe {
    key: IdentityKey,
    text: StrFeatures,
}

impl Probe {
    /// Derive the views of `key`.
    pub(crate) fn new(key: IdentityKey) -> Self {
        let mut text = StrFeatures::default();
        text.fill(&key.norm);
        Probe { key, text }
    }

    /// The cached form of the probed value.
    pub(crate) fn key(&self) -> &IdentityKey {
        &self.key
    }

    /// `value_similarity(probed value, stored value)`, bit for bit.
    /// `scratch` receives the stored side's views when they are needed.
    pub(crate) fn similarity(&self, stored: &IdentityKey, scratch: &mut StrFeatures) -> f64 {
        if let (Some(x), Some(y)) = (self.key.num, stored.num) {
            return numeric_similarity(x, y);
        }
        if self.key.norm == stored.norm {
            return 1.0;
        }
        scratch.fill(&stored.norm);
        self.text.similarity(scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::{edit, text, value, ALPHABET};
    use crate::similarity::{jaro_winkler, qgram_jaccard, token_jaccard, value_similarity};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The resolver's path: a probe against a stored key, or no
    /// identity at all when either side is null.
    fn cached(a: &Value, b: &Value, scratch: &mut StrFeatures) -> Option<f64> {
        let (ka, kb) = (IdentityKey::of(a)?, IdentityKey::of(b)?);
        Some(Probe::new(ka).similarity(&kb, scratch))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn cached_identity_similarity_is_bit_identical(
            probe in value(),
            stored in vec(value(), 1..6),
        ) {
            // One scratch across the candidates, as in `add`: a refill
            // must leave nothing of the previous candidate behind.
            let mut scratch = StrFeatures::default();
            for s in &stored {
                let reference = value_similarity(&probe, s);
                match cached(&probe, s, &mut scratch) {
                    Some(got) => prop_assert_eq!(
                        got.to_bits(),
                        reference.to_bits(),
                        "{:?} vs {:?}: cached {} public {}", probe, s, got, reference
                    ),
                    None => prop_assert_eq!(reference, 0.0),
                }
            }
        }

        #[test]
        fn near_duplicate_names_are_bit_identical(
            base in text(),
            at in 0usize..14,
            with in 0..ALPHABET.len(),
        ) {
            // Random pairs rarely share much; single-character edits
            // reach the Jaro–Winkler and Jaccard branches that matter.
            let (a, b) = (Value::str(&base), Value::str(edit(&base, at, with)));
            let got = cached(&a, &b, &mut StrFeatures::default()).expect("non-null");
            prop_assert_eq!(got.to_bits(), value_similarity(&a, &b).to_bits());
        }

        #[test]
        fn each_view_matches_its_public_metric(a in text(), b in text()) {
            // `string_similarity` takes the max of three views, which can
            // hide a wrong one; compare them one by one.
            let (na, nb) = (normalize(&a), normalize(&b));
            let (mut fa, mut fb) = (StrFeatures::default(), StrFeatures::default());
            fa.fill(&na);
            fb.fill(&nb);
            let tokens = jaccard_by(fa.tokens.len(), fb.tokens.len(), |i, j| {
                fa.token_text[fa.tokens[i].clone()].cmp(&fb.token_text[fb.tokens[j].clone()])
            });
            prop_assert_eq!(tokens.to_bits(), token_jaccard(&a, &b).to_bits());
            prop_assert_eq!(
                jaccard(&fa.grams, &fb.grams).to_bits(),
                qgram_jaccard(&a, &b, 3).to_bits()
            );
            prop_assert_eq!(
                jaro_winkler_chars(&fa.chars, &fb.chars).to_bits(),
                jaro_winkler(&na, &nb).to_bits()
            );
        }
    }
}
