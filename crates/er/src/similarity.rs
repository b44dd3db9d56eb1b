//! String, value, and record similarity metrics.
//!
//! The record-level metric composes attribute-level similarities through an
//! [`AlignmentMap`] so two records from sources
//! with different schemata compare on the attributes the aligner has
//! matched — the mechanism FS.1 demands ("work across different schemata
//! without requiring prior knowledge").

use std::cell::RefCell;
use std::collections::HashMap;

use scdb_types::{Record, Symbol, Value};

use crate::align::AlignmentMap;
use crate::features::StrFeatures;
use crate::normalize::{norm_tokens, normalize_into, qgrams, token_set};

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
/// wraps, for callers that keep `Vec<char>` features. Allocation-free
/// when `b` has at most 64 characters.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (matches, transpositions) = if b.len() <= 64 {
        jaro_matches_small(a, b)
    } else {
        jaro_matches_heap(a, b)
    };
    jaro_from(matches, transpositions, a.len(), b.len())
}

/// The Jaro formula over `matches` matched characters, of which
/// `transpositions` sit out of order, between strings of `la` and `lb`
/// characters. [`jaro_chars`] and the resolver's multiset ceiling
/// (`features.rs`) share it, so equal inputs give equal bits.
pub(crate) fn jaro_from(matches: usize, transpositions: usize, la: usize, lb: usize) -> f64 {
    if matches == 0 {
        return 0.0;
    }
    let t = transpositions as f64 / 2.0;
    let m = matches as f64;
    (m / la as f64 + m / lb as f64 + (m - t) / m) / 3.0
}

/// The match window of [`jaro_chars`].
fn jaro_window(a: &[char], b: &[char]) -> usize {
    (a.len().max(b.len()) / 2).saturating_sub(1)
}

/// Jaro's `(matches, transpositions)` for `b.len() <= 64`: the used
/// positions of `b` are a bitset and the match order a stack buffer.
fn jaro_matches_small(a: &[char], b: &[char]) -> (usize, usize) {
    let window = jaro_window(a, b);
    let mut b_used = 0u64;
    // The b position each matched a-char took, in a order.
    let mut b_order = [0u8; 64];
    let mut matches = 0;
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, cb) in b.iter().enumerate().take(hi).skip(lo) {
            if b_used & (1 << j) == 0 && cb == ca {
                b_used |= 1 << j;
                b_order[matches] = j as u8;
                matches += 1;
                break;
            }
        }
    }
    // Transpositions: matched b positions out of order — compared with
    // the same positions ascending, which is the bitset low to high.
    let mut ascending = b_used;
    let mut transpositions = 0;
    for &j in &b_order[..matches] {
        if u32::from(j) != ascending.trailing_zeros() {
            transpositions += 1;
        }
        ascending &= ascending - 1;
    }
    (matches, transpositions)
}

/// [`jaro_matches_small`] for any length, on the heap.
fn jaro_matches_heap(a: &[char], b: &[char]) -> (usize, usize) {
    let window = jaro_window(a, b);
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
    (b_order.len(), transpositions)
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
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    winkler(jaro_chars(a, b), prefix)
}

/// Jaro similarity `j` with the Winkler bonus for a common prefix of
/// `prefix` (at most 4) characters.
pub(crate) fn winkler(j: f64, prefix: usize) -> f64 {
    j + prefix as f64 * 0.1 * (1.0 - j)
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
    // Branch-free steps: which side advances is data, not control flow.
    while i < la && j < lb {
        let order = cmp(i, j);
        inter += usize::from(order.is_eq());
        i += usize::from(order.is_le());
        j += usize::from(order.is_ge());
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

/// The buffers [`string_similarity`] normalizes and derives views into,
/// one set per thread, reused across calls.
#[derive(Default)]
struct Kernel {
    norm: [String; 2],
    views: [StrFeatures; 2],
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel::default());
}

/// A blended string similarity: the maximum of token Jaccard, Jaro–Winkler
/// (on the normalized strings), and 3-gram Jaccard. Robust across the
/// typo/reorder/abbreviation variation the datagen corruptions produce.
///
/// Both sides are normalized into this thread's reused buffers and
/// scored through `StrFeatures`, the views the resolver caches, so a
/// call allocates nothing once the buffers have grown.
pub fn string_similarity(a: &str, b: &str) -> f64 {
    KERNEL.with(|kernel| {
        let Kernel { norm, views } = &mut *kernel.borrow_mut();
        let [na, nb] = norm;
        normalize_into(a, na);
        normalize_into(b, nb);
        if na == nb {
            return 1.0;
        }
        let [fa, fb] = views;
        fa.fill(na);
        fb.fill(nb);
        fa.similarity(fb)
    })
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
    use crate::arbitrary::{attr, cells, edit, record, text, ALPHABET, ATTRS};
    use crate::normalize::{normalize, qgrams_of_normalized, token_set_of_normalized};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use scdb_types::SymbolTable;

    /// The multi-pass `string_similarity` the reused-buffer kernel
    /// replaced: `String` normalizations, token and q-gram `Vec<String>`
    /// sets. Kept as the reference.
    fn multi_pass_string_similarity(a: &str, b: &str) -> f64 {
        let na = normalize(a);
        let nb = normalize(b);
        if na.is_empty() && nb.is_empty() {
            return 1.0;
        }
        if na == nb {
            return 1.0;
        }
        let tokens = jaccard(&token_set_of_normalized(&na), &token_set_of_normalized(&nb));
        let grams = jaccard(
            &gram_set(qgrams_of_normalized(&na, 3)),
            &gram_set(qgrams_of_normalized(&nb, 3)),
        );
        tokens.max(jaro_winkler(&na, &nb)).max(grams)
    }

    #[test]
    fn kernel_equals_multi_pass_on_edge_cases() {
        let cases = [
            "",
            " ",
            "İstanbul",
            "istanbul",
            "i\u{307}stanbul",
            "STRASSE",
            "straße",
            "Straße (Weg)",
            "e\u{301}te\u{301}",
            "été",
            "\u{301}x",
            "Ibuprofen (Advil)",
            "ibuprofen",
            "Methotrexate sodium",
            "aa aa",
            "a#b",
        ];
        for a in cases {
            for b in cases {
                assert_eq!(
                    string_similarity(a, b).to_bits(),
                    multi_pass_string_similarity(a, b).to_bits(),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    /// `a` of length `la` over `ALPHABET`, and `b` a copy with every
    /// `stride`-th char replaced and a swapped pair, so the Jaro match
    /// and transposition paths both run.
    fn long_pair(la: usize, lb: usize, stride: usize) -> (Vec<char>, Vec<char>) {
        let pick = |i: usize| ALPHABET[(i * 7 + i / 3) % ALPHABET.len()];
        let a: Vec<char> = (0..la).map(pick).collect();
        let mut b: Vec<char> = (0..lb)
            .map(|i| if i % stride == 0 { 'q' } else { pick(i) })
            .collect();
        if lb > 3 {
            b.swap(1, 2);
        }
        (a, b)
    }

    #[test]
    fn stack_jaro_equals_heap_jaro_at_the_boundary() {
        for lb in [63, 64, 65, 200] {
            for la in [1, lb / 2, lb - 1, lb, lb + 1, 3 * lb] {
                for stride in [2, 5, 1000] {
                    let (a, b) = long_pair(la, lb, stride);
                    let (m, t) = jaro_matches_heap(&a, &b);
                    let heap = jaro_from(m, t, a.len(), b.len());
                    assert_eq!(jaro_chars(&a, &b).to_bits(), heap.to_bits(), "{la} x {lb}");
                    if lb <= 64 {
                        assert_eq!(jaro_matches_small(&a, &b), (m, t), "{la} x {lb}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reused-buffer kernel is the multi-pass metric, bit for
        /// bit, over brackets, `İ`, `ß`, combining marks and repeats.
        #[test]
        fn string_similarity_equals_multi_pass(a in text(), b in text()) {
            prop_assert_eq!(
                string_similarity(&a, &b).to_bits(),
                multi_pass_string_similarity(&a, &b).to_bits()
            );
        }

        #[test]
        fn string_similarity_equals_multi_pass_on_near_duplicates(
            a in text(),
            at in 0usize..14,
            with in 0..ALPHABET.len(),
        ) {
            let b = edit(&a, at, with);
            prop_assert_eq!(
                string_similarity(&a, &b).to_bits(),
                multi_pass_string_similarity(&a, &b).to_bits()
            );
        }

        /// The bitset path is the heap path, bit for bit.
        #[test]
        fn stack_jaro_equals_heap_jaro(a in text(), b in text()) {
            let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            if !b.is_empty() {
                prop_assert_eq!(jaro_matches_small(&a, &b), jaro_matches_heap(&a, &b));
            }
        }

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
