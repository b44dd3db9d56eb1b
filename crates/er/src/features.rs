//! Cached identity features: what the resolver keeps so that scoring an
//! identity attribute does not re-derive the same strings on every
//! comparison.
//!
//! [`string_similarity`](crate::similarity::string_similarity)
//! normalizes both strings and then derives three views of each: the
//! characters (Jaro–Winkler), the sorted token set (token Jaccard) and
//! the sorted 3-gram set (q-gram Jaccard). An incoming record is scored
//! against up to `max_candidates` stored ones, so the resolver derives
//! the incoming side's views once per `add` ([`Probe`]) and keeps, per
//! stored record, the normalized rendering and its 3-grams
//! ([`IdentityKey`]). A candidate's tokens are re-derived into one
//! reusable [`Scratch`]; its characters are read from the rendering.
//! A 3-gram is packed into a `u64`, 21 bits per code point: the map is
//! injective, so set sizes and intersections — and with them every
//! score — are exactly those of the `String` q-grams.
//!
//! Most candidates cannot match, and for those the exact Jaro–Winkler
//! is not needed: [`Probe::similarity`] first bounds it from the two
//! strings' character multisets (DESIGN.md §12).

use std::ops::Range;

use scdb_types::Value;

use crate::incremental::identity_ceiling;
use crate::normalize::normalize;
use crate::similarity::{
    jaccard, jaccard_by, jaro_from, jaro_winkler_chars, numeric_similarity, winkler,
};

/// One identity value as the resolver caches it per record: the parts
/// of [`value_similarity`](crate::similarity::value_similarity)'s input
/// it reads on every comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IdentityKey {
    norm: Box<str>,
    num: Option<f64>,
    /// `norm`'s padded 3-grams, packed, sorted, deduplicated.
    grams: Box<[u64]>,
}

impl IdentityKey {
    /// The key of `value`; `None` for null, which never scores.
    pub(crate) fn of(value: &Value) -> Option<Self> {
        if value.is_null() {
            return None;
        }
        let norm = normalize(&value.render());
        let mut grams = Vec::new();
        fill_grams(&norm, &mut grams);
        Some(IdentityKey {
            norm: norm.into_boxed_str(),
            num: value.as_float(),
            grams: grams.into_boxed_slice(),
        })
    }
}

/// `qgrams(norm, 3)` as a set: the characters padded with two '#' a
/// side, each window packed into a `u64`, sorted and deduplicated.
fn fill_grams(norm: &str, grams: &mut Vec<u64>) {
    grams.clear();
    if norm.is_empty() {
        return;
    }
    let pad = u64::from('#');
    let (mut x, mut y) = (pad, pad);
    for z in norm.chars().map(u64::from).chain([pad, pad]) {
        grams.push(x << 42 | y << 21 | z);
        (x, y) = (y, z);
    }
    grams.sort_unstable();
    grams.dedup();
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
        self.fill_tokens(norm);
        fill_grams(norm, &mut self.grams);
    }

    /// Re-derive the token view alone. An ASCII string's tokens are its
    /// runs of ASCII alphanumerics, lowercased: one copy and a split,
    /// with no per-char case mapping.
    fn fill_tokens(&mut self, norm: &str) {
        self.token_text.clear();
        self.tokens.clear();
        if norm.is_ascii() {
            self.token_text.push_str(norm);
            self.token_text.make_ascii_lowercase();
            let mut at = 0;
            for word in norm.split(|c: char| !c.is_ascii_alphanumeric()) {
                if !word.is_empty() {
                    self.tokens.push(at..at + word.len());
                }
                at += word.len() + 1;
            }
        } else {
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
        }
        let text = &self.token_text;
        self.tokens
            .sort_unstable_by(|x, y| text[x.clone()].cmp(&text[y.clone()]));
        self.tokens
            .dedup_by(|x, y| text[x.clone()] == text[y.clone()]);
    }

    /// Token Jaccard of the two strings the token views came from.
    fn token_jaccard(&self, other: &StrFeatures) -> f64 {
        let (ta, tb) = (&self.token_text, &other.token_text);
        jaccard_by(self.tokens.len(), other.tokens.len(), |i, j| {
            ta[self.tokens[i].clone()].cmp(&tb[other.tokens[j].clone()])
        })
    }

    /// `string_similarity` of the two strings the features came from.
    pub(crate) fn similarity(&self, other: &StrFeatures) -> f64 {
        if self.chars == other.chars {
            return 1.0;
        }
        self.token_jaccard(other)
            .max(jaro_winkler_chars(&self.chars, &other.chars))
            .max(jaccard(&self.grams, &other.grams))
    }
}

/// A candidate's views, refilled per comparison.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    text: StrFeatures,
    /// Per slot of [`Probe::counts`]: how many of that char's
    /// occurrences the candidate has matched so far.
    taken: Vec<usize>,
}

/// How an identity comparison was settled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum IdSim {
    /// `value_similarity` of the two values, bit for bit.
    Exact(f64),
    /// An upper bound on it whose identity ceiling is already below the
    /// threshold: the candidate cannot match.
    Bounded(f64),
}

/// Where [`Probe::counts`] counts `c`: an ASCII char at its code, the
/// `i`-th char of `wide` (the probe's distinct non-ASCII chars, sorted)
/// at `128 + i`; `None` for a non-ASCII char the probe lacks.
fn slot(wide: &[char], c: char) -> Option<usize> {
    if c.is_ascii() {
        Some(c as usize)
    } else {
        wide.binary_search(&c).ok().map(|i| 128 + i)
    }
}

/// The incoming record's identity, with every view derived once per
/// `add`.
#[derive(Debug)]
pub(crate) struct Probe {
    key: IdentityKey,
    text: StrFeatures,
    /// Occurrences of each char of the normalized string, at its
    /// [`slot`].
    counts: Vec<usize>,
    /// The string's distinct non-ASCII chars, sorted.
    wide: Vec<char>,
}

impl Probe {
    /// Derive the views of `key`.
    pub(crate) fn new(key: IdentityKey) -> Self {
        let mut text = StrFeatures::default();
        text.fill(&key.norm);
        let mut wide: Vec<char> = text
            .chars
            .iter()
            .filter(|c| !c.is_ascii())
            .copied()
            .collect();
        wide.sort_unstable();
        wide.dedup();
        let mut counts = vec![0; 128 + wide.len()];
        for &c in &text.chars {
            counts[slot(&wide, c).expect("every char of the probe has a slot")] += 1;
        }
        Probe {
            key,
            text,
            counts,
            wide,
        }
    }

    /// The cached form of the probed value.
    pub(crate) fn key(&self) -> &IdentityKey {
        &self.key
    }

    /// Jaro–Winkler against the normalized string `stored` with every
    /// common char matched and none transposed, plus the actual prefix
    /// bonus: never below the exact score (DESIGN.md §12). The common
    /// chars are `Σ_c min(count_probe(c), count_stored(c))`, no fewer
    /// than Jaro's matches; `taken` counts them per entry of `counts`.
    fn jw_ceiling(&self, stored: &str, taken: &mut Vec<usize>) -> f64 {
        taken.clear();
        taken.resize(self.counts.len(), 0);
        let mut common = 0;
        let mut stored_len = 0;
        for c in stored.chars() {
            stored_len += 1;
            if let Some(slot) = slot(&self.wide, c) {
                let hit = usize::from(taken[slot] < self.counts[slot]);
                taken[slot] += hit;
                common += hit;
            }
        }
        let chars = &self.text.chars;
        let prefix = chars
            .iter()
            .zip(stored.chars())
            .take(4)
            .take_while(|(x, y)| **x == *y)
            .count();
        winkler(jaro_from(common, 0, chars.len(), stored_len), prefix)
    }

    /// `value_similarity(probed value, stored value)`, bit for bit — or,
    /// when even an upper bound on it has an identity ceiling below
    /// `threshold`, that bound. `scratch` receives the stored side's
    /// views when they are needed.
    pub(crate) fn similarity(
        &self,
        stored: &IdentityKey,
        threshold: f64,
        scratch: &mut Scratch,
    ) -> IdSim {
        if let (Some(x), Some(y)) = (self.key.num, stored.num) {
            return IdSim::Exact(numeric_similarity(x, y));
        }
        if self.key.norm == stored.norm {
            return IdSim::Exact(1.0);
        }
        let grams = jaccard(&self.key.grams, &stored.grams);
        scratch.text.fill_tokens(&stored.norm);
        let tokens = self.text.token_jaccard(&scratch.text);
        let jw_bound = self.jw_ceiling(&stored.norm, &mut scratch.taken);
        let bound = tokens.max(jw_bound).max(grams);
        if identity_ceiling(bound) < threshold {
            return IdSim::Bounded(bound);
        }
        let stored_chars = &mut scratch.text.chars;
        stored_chars.clear();
        stored_chars.extend(stored.norm.chars());
        IdSim::Exact(
            tokens
                .max(jaro_winkler_chars(&self.text.chars, stored_chars))
                .max(grams),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::{edit, text, value, ALPHABET};
    use crate::similarity::{jaro_winkler, qgram_jaccard, token_jaccard, value_similarity};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The resolver's path with pruning off: a probe against a stored
    /// key, or no identity at all when either side is null.
    fn cached(a: &Value, b: &Value, scratch: &mut Scratch) -> Option<f64> {
        let (ka, kb) = (IdentityKey::of(a)?, IdentityKey::of(b)?);
        match Probe::new(ka).similarity(&kb, f64::NEG_INFINITY, scratch) {
            IdSim::Exact(sim) => Some(sim),
            IdSim::Bounded(_) => unreachable!("no ceiling is below -inf"),
        }
    }

    /// The multiset ceiling is no less than the exact Jaro–Winkler of
    /// the normalized strings, wherever the resolver consults it: when
    /// the normalized strings differ.
    fn assert_ceiling_holds(a: &str, b: &str) {
        let (na, nb) = (normalize(a), normalize(b));
        if na == nb {
            return;
        }
        let probe = Probe::new(IdentityKey::of(&Value::str(a)).expect("non-null"));
        let (bound, exact) = (
            probe.jw_ceiling(&nb, &mut Vec::new()),
            jaro_winkler(&na, &nb),
        );
        assert!(
            bound >= exact,
            "{na:?} vs {nb:?}: ceiling {bound} < exact {exact}"
        );
    }

    #[test]
    fn jw_ceiling_survives_counts_past_u16() {
        // 70 000 repeats wrap a u16 count to 4 464; the stored side
        // matches 4 465 of them, so a saturating or wrapping count would
        // bound below the exact score.
        let long = "a".repeat(70_000);
        for stored in ["a".repeat(4_465), format!("{}b", "a".repeat(4_465))] {
            assert_ceiling_holds(&long, &stored);
        }
        let p = Probe::new(IdentityKey::of(&Value::str(&long)).expect("non-null"));
        assert_eq!(p.counts[usize::from(b'a')], 70_000);
    }

    #[test]
    fn ascii_tokens_equal_the_tokenizer() {
        for s in [
            "",
            " ",
            "a",
            "b a b",
            "abc 12 abc",
            "Zz-y.X",
            "  A#b  a ",
            "-.-",
        ] {
            let mut fast = StrFeatures::default();
            fast.fill_tokens(s);
            let words: Vec<&str> = fast
                .tokens
                .iter()
                .map(|r| &fast.token_text[r.clone()])
                .collect();
            assert_eq!(words, crate::normalize::token_set(s), "{s:?}");
        }
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
            let mut scratch = Scratch::default();
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
            let got = cached(&a, &b, &mut Scratch::default()).expect("non-null");
            prop_assert_eq!(got.to_bits(), value_similarity(&a, &b).to_bits());
        }

        /// The multiset ceiling never undercuts the exact Jaro–Winkler,
        /// by value, for arbitrary names.
        #[test]
        fn jw_ceiling_bounds_jaro_winkler(a in text(), b in text()) {
            assert_ceiling_holds(&a, &b);
        }

        /// … and for near-duplicates, where the two are closest.
        #[test]
        fn jw_ceiling_bounds_near_duplicates(
            base in text(),
            at in 0usize..14,
            with in 0..ALPHABET.len(),
        ) {
            assert_ceiling_holds(&base, &edit(&base, at, with));
        }

        /// A bounded comparison reports a bound no less than the exact
        /// similarity, and only when that bound's ceiling is below the
        /// threshold.
        #[test]
        fn bounded_comparisons_bound_the_exact_similarity(
            a in text(),
            b in text(),
            threshold in 0.0f64..1.2,
        ) {
            let (Some(ka), Some(kb)) = (
                IdentityKey::of(&Value::str(&a)),
                IdentityKey::of(&Value::str(&b)),
            ) else {
                return;
            };
            let probe = Probe::new(ka);
            let exact = value_similarity(&Value::str(&a), &Value::str(&b));
            match probe.similarity(&kb, threshold, &mut Scratch::default()) {
                IdSim::Exact(sim) => prop_assert_eq!(sim.to_bits(), exact.to_bits()),
                IdSim::Bounded(bound) => {
                    prop_assert!(bound >= exact);
                    prop_assert!(identity_ceiling(bound) < threshold);
                }
            }
        }

        #[test]
        fn each_view_matches_its_public_metric(a in text(), b in text()) {
            // `string_similarity` takes the max of three views, which can
            // hide a wrong one; compare them one by one.
            let (na, nb) = (normalize(&a), normalize(&b));
            let (mut fa, mut fb) = (StrFeatures::default(), StrFeatures::default());
            fa.fill(&na);
            fb.fill(&nb);
            prop_assert_eq!(fa.token_jaccard(&fb).to_bits(), token_jaccard(&a, &b).to_bits());
            prop_assert_eq!(
                jaccard(&fa.grams, &fb.grams).to_bits(),
                qgram_jaccard(&a, &b, 3).to_bits()
            );
            let key = IdentityKey::of(&Value::str(&a)).expect("non-null");
            prop_assert_eq!(&key.grams[..], &fa.grams[..]);
            prop_assert_eq!(
                jaro_winkler_chars(&fa.chars, &fb.chars).to_bits(),
                jaro_winkler(&na, &nb).to_bits()
            );
        }
    }
}
