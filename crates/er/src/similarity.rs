//! String, value, and record similarity metrics.
//!
//! The record-level metric composes attribute-level similarities through an
//! [`AlignmentMap`] so two records from sources
//! with different schemata compare on the attributes the aligner has
//! matched — the mechanism FS.1 demands ("work across different schemata
//! without requiring prior knowledge").

use std::collections::HashMap;

use scdb_types::{Record, Symbol, Value};

use crate::align::AlignmentMap;
use crate::normalize::{
    norm_tokens, normalize, qgrams, qgrams_of_normalized, token_set, token_set_of_normalized,
};

/// Levenshtein edit distance (iterative two-row DP).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Levenshtein similarity in [0, 1].
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaro similarity.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// Jaro similarity over already-decoded characters: the core [`jaro`]
/// wraps, for callers that keep `Vec<char>` features.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    // The b position each matched a-char took, in a order.
    let mut b_order = Vec::with_capacity(a.len().min(b.len()));
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                b_order.push(j);
                break;
            }
        }
    }
    let matches = b_order.len();
    if matches == 0 {
        return 0.0;
    }
    // Transpositions: matched b positions out of order — compared with
    // the same positions ascending, which is `b_used` read left to right.
    let ascending = b_used
        .iter()
        .enumerate()
        .filter(|(_, u)| **u)
        .map(|(j, _)| j);
    let transpositions = b_order
        .iter()
        .zip(ascending)
        .filter(|(x, y)| **x != *y)
        .count();
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro–Winkler similarity (prefix bonus up to 4 chars, scale 0.1).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_chars(&a, &b)
}

/// Jaro–Winkler over already-decoded characters: the core
/// [`jaro_winkler`] wraps.
pub fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Jaccard similarity of two sorted, deduplicated slices.
pub fn jaccard<T: Ord>(a: &[T], b: &[T]) -> f64 {
    jaccard_by(a.len(), b.len(), |i, j| a[i].cmp(&b[j]))
}

/// Jaccard of two sorted, deduplicated sequences of lengths `la` and
/// `lb`, given the order between the `i`-th element of one and the
/// `j`-th of the other. [`jaccard`] and the cached-feature path share
/// it, so both count and divide identically.
pub(crate) fn jaccard_by(
    la: usize,
    lb: usize,
    cmp: impl Fn(usize, usize) -> std::cmp::Ordering,
) -> f64 {
    if la == 0 && lb == 0 {
        return 1.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < la && j < lb {
        match cmp(i, j) {
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    let union = la + lb - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Token-set Jaccard of two strings.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    jaccard(&token_set(a), &token_set(b))
}

/// q-gram Jaccard of two strings (multiset collapsed to set).
pub fn qgram_jaccard(a: &str, b: &str, q: usize) -> f64 {
    jaccard(&gram_set(qgrams(a, q)), &gram_set(qgrams(b, q)))
}

fn gram_set(mut grams: Vec<String>) -> Vec<String> {
    grams.sort();
    grams.dedup();
    grams
}

/// Cosine similarity over term-frequency maps.
pub fn cosine(a: &HashMap<String, f64>, b: &HashMap<String, f64>) -> f64 {
    let dot: f64 = a
        .iter()
        .filter_map(|(k, va)| b.get(k).map(|vb| va * vb))
        .sum();
    let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Term-frequency vector of a string.
pub fn tf_vector(s: &str) -> HashMap<String, f64> {
    let mut m = HashMap::new();
    for t in norm_tokens(s) {
        *m.entry(t).or_insert(0.0) += 1.0;
    }
    m
}

/// A blended string similarity: the maximum of token Jaccard, Jaro–Winkler
/// (on the normalized strings), and 3-gram Jaccard. Robust across the
/// typo/reorder/abbreviation variation the datagen corruptions produce.
pub fn string_similarity(a: &str, b: &str) -> f64 {
    let na = normalize(a);
    let nb = normalize(b);
    if na.is_empty() && nb.is_empty() {
        return 1.0;
    }
    if na == nb {
        return 1.0;
    }
    // `token_jaccard(a, b)` and `qgram_jaccard(a, b, 3)`, from the
    // strings normalized once.
    let tokens = jaccard(&token_set_of_normalized(&na), &token_set_of_normalized(&nb));
    let grams = jaccard(
        &gram_set(qgrams_of_normalized(&na, 3)),
        &gram_set(qgrams_of_normalized(&nb, 3)),
    );
    tokens.max(jaro_winkler(&na, &nb)).max(grams)
}

/// Similarity between two values of possibly different kinds.
pub fn value_similarity(a: &Value, b: &Value) -> f64 {
    if a.is_null() || b.is_null() {
        return 0.0;
    }
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => numeric_similarity(x, y),
        _ => string_similarity(&a.render(), &b.render()),
    }
}

/// Relative closeness of two numbers in [0, 1].
pub(crate) fn numeric_similarity(x: f64, y: f64) -> f64 {
    let denom = x.abs().max(y.abs()).max(1e-9);
    (1.0 - (x - y).abs() / denom).max(0.0)
}

/// Record similarity through an attribute alignment.
///
/// For each aligned attribute pair present in both records, compute value
/// similarity weighted by the alignment confidence; average over the pairs
/// that could be compared, then scale by *coverage* — the fraction of the
/// larger record's attributes that participated. Without the coverage
/// factor a single shared value (a drug's gene *target* equalling a gene
/// record's *identity*) would fabricate a co-reference; with it, records
/// must agree across most of their content, not on one cell — the
/// precision-first stance FS.1's "adaptively manage instance relations"
/// requires of an autonomous curator. When nothing aligns,
/// fall back to comparing the concatenated textual rendering of both
/// records (better than silently returning 0 for schema-less sources).
pub fn record_similarity(a: &Record, b: &Record, alignment: &AlignmentMap) -> f64 {
    let mut total_weight = 0.0;
    let mut score = 0.0;
    let mut compared = 0usize;
    for (attr_a, attr_b, weight) in alignment.pairs() {
        let (Some(va), Some(vb)) = (a.get(attr_a), b.get(attr_b)) else {
            continue;
        };
        // Aligner weights are never negative; clamping keeps the result
        // in [0, 1] for any hand-built map too.
        let weight = weight.max(0.0);
        score += weight * value_similarity(va, vb);
        total_weight += weight;
        compared += 1;
    }
    if total_weight > 0.0 {
        let coverage = compared as f64 / a.len().max(b.len()).max(1) as f64;
        return (score / total_weight) * coverage.min(1.0);
    }
    // Fallback: bag-of-text comparison.
    let text = |r: &Record| {
        r.iter()
            .map(|(_, v)| v.render().into_owned())
            .collect::<Vec<_>>()
            .join(" ")
    };
    string_similarity(&text(a), &text(b))
}

/// Same-schema record similarity: identity alignment over shared
/// attributes, equally weighted.
pub fn record_similarity_same_schema(a: &Record, b: &Record) -> f64 {
    record_similarity_weighted(a, b, |_| 1.0)
}

/// Same-schema record similarity with per-attribute weights (typically
/// the profiler's distinctiveness — see
/// [`SchemaAligner::distinctiveness`](crate::align::SchemaAligner::distinctiveness)).
/// Two records sharing only a ubiquitous context value (the same gene
/// referenced by many drugs) score low; agreement on identifying
/// attributes dominates.
pub fn record_similarity_weighted(a: &Record, b: &Record, weight: impl Fn(Symbol) -> f64) -> f64 {
    let shared: Vec<Symbol> = a.attrs().filter(|s| b.get(*s).is_some()).collect();
    if shared.is_empty() {
        return 0.0;
    }
    let mut score = 0.0;
    let mut total = 0.0;
    for s in &shared {
        let w = weight(*s).max(0.0);
        score += w * value_similarity(a.get(*s).expect("shared"), b.get(*s).expect("shared"));
        total += w;
    }
    if total == 0.0 {
        return 0.0;
    }
    let coverage = shared.len() as f64 / a.len().max(b.len()).max(1) as f64;
    (score / total) * coverage.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::{attr, cells, record, ATTRS};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use scdb_types::SymbolTable;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The resolver's exact pruning rests on this: no context
        /// similarity exceeds 1.0, for any records and any finite
        /// weights (negative ones included).
        #[test]
        fn record_similarities_stay_in_unit_interval(
            a in cells(),
            b in cells(),
            weights in vec(-1.0f64..2.0, ATTRS..ATTRS + 1),
        ) {
            let mut symbols = SymbolTable::new();
            let (ra, rb) = (record(&mut symbols, &a), record(&mut symbols, &b));
            let syms: Vec<Symbol> = (0..ATTRS).map(|i| attr(&mut symbols, i)).collect();
            let straight = AlignmentMap::from_pairs(
                (0..ATTRS).map(|i| (syms[i], syms[i], weights[i])).collect(),
            );
            let crossed = AlignmentMap::from_pairs(
                (0..ATTRS).map(|i| (syms[i], syms[(i + 1) % ATTRS], weights[i])).collect(),
            );
            let weight = |s: Symbol| weights[syms.iter().position(|x| *x == s).unwrap_or(0)];
            for (name, sim) in [
                ("aligned", record_similarity(&ra, &rb, &straight)),
                ("crossed", record_similarity(&ra, &rb, &crossed)),
                ("unaligned", record_similarity(&ra, &rb, &AlignmentMap::empty())),
                ("same_schema", record_similarity_same_schema(&ra, &rb)),
                ("weighted", record_similarity_weighted(&ra, &rb, weight)),
            ] {
                prop_assert!((0.0..=1.0).contains(&sim), "{name}: {sim} for {ra:?} / {rb:?}");
            }
        }
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert!(levenshtein_sim("abc", "abc") == 1.0);
        assert!(levenshtein_sim("abc", "xyz") == 0.0);
    }

    #[test]
    fn jaro_winkler_basics() {
        assert!((jaro_winkler("martha", "marhta") - 0.961).abs() < 0.01);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("a", ""), 0.0);
        // Prefix bonus: winkler > jaro for shared prefixes.
        assert!(jaro_winkler("prefixed", "prefixes") >= jaro("prefixed", "prefixes"));
        // Identical strings.
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard::<u32>(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1, 2, 3], &[2, 3, 4]), 0.5);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
    }

    #[test]
    fn token_jaccard_sees_through_reorder() {
        assert_eq!(
            token_jaccard("rheumatoid arthritis", "Arthritis, Rheumatoid"),
            1.0
        );
    }

    #[test]
    fn qgram_tolerates_typos() {
        let s = qgram_jaccard("methotrexate", "methotrexat", 3);
        assert!(s > 0.6, "got {s}");
    }

    #[test]
    fn cosine_basics() {
        let a = tf_vector("drug target drug");
        let b = tf_vector("drug target");
        assert!(cosine(&a, &b) > 0.9);
        let c = tf_vector("unrelated words");
        assert_eq!(cosine(&a, &c), 0.0);
        assert_eq!(cosine(&HashMap::new(), &a), 0.0);
    }

    #[test]
    fn string_similarity_blend() {
        assert_eq!(string_similarity("Ibuprofen (Advil)", "ibuprofen"), 1.0);
        assert!(string_similarity("Methotrexate", "Methotrexate sodium") > 0.5);
        // Unrelated names score clearly below related ones (Jaro–Winkler
        // floors the blend around 0.5 for same-alphabet words).
        let unrelated = string_similarity("Warfarin", "Acetaminophen");
        let related = string_similarity("Methotrexate", "Methotrexate sodium");
        assert!(unrelated < related);
        assert!(unrelated < 0.7, "got {unrelated}");
    }

    #[test]
    fn value_similarity_numeric() {
        assert!(value_similarity(&Value::Float(5.0), &Value::Float(5.1)) > 0.9);
        assert!(value_similarity(&Value::Int(100), &Value::Int(1)) < 0.1);
        assert_eq!(value_similarity(&Value::Null, &Value::Int(1)), 0.0);
    }

    #[test]
    fn same_schema_record_similarity() {
        let mut t = SymbolTable::new();
        let name = t.intern("name");
        let dose = t.intern("dose");
        let a = Record::from_pairs([(name, Value::str("Warfarin")), (dose, Value::Float(5.1))]);
        let b = Record::from_pairs([(name, Value::str("warfarin")), (dose, Value::Float(5.0))]);
        let c = Record::from_pairs([(name, Value::str("Ibuprofen")), (dose, Value::Float(0.2))]);
        assert!(record_similarity_same_schema(&a, &b) > 0.9);
        assert!(record_similarity_same_schema(&a, &b) > record_similarity_same_schema(&a, &c));
        let empty = Record::new();
        assert_eq!(record_similarity_same_schema(&a, &empty), 0.0);
    }
}
