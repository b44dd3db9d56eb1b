//! Candidate generation: blocking.
//!
//! All-pairs comparison is quadratic; the paper rules it out explicitly
//! ("it is not wise to assume … an all-to-all entity resolution is
//! performed comprehensively", §3.2). Blocking maps each record to a small
//! set of keys; only records sharing a key are compared. Two strategies
//! are provided for the E-T1-FS1 ablation:
//!
//! * **Standard keys** — token prefixes of the record's textual content;
//!   cheap, high recall for typo-free data.
//! * **MinHash LSH** — banded MinHash signatures over token sets;
//!   tunable recall for noisy data at higher key cost.

use std::cmp::Reverse;
use std::collections::HashMap;

use scdb_types::Record;

use crate::normalize::for_each_token;

/// Which blocking scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingStrategy {
    /// No blocking: every record lands in one global block (the all-pairs
    /// baseline).
    None,
    /// Token-prefix keys.
    StandardKeys {
        /// Number of leading characters per token key.
        prefix_len: usize,
    },
    /// MinHash LSH with `bands` bands of `rows` hash rows each.
    MinHashLsh {
        /// Number of bands (each band is one key).
        bands: usize,
        /// Rows (hash functions) per band.
        rows: usize,
    },
}

/// A blocking index: key → record handles (opaque `u64`s supplied by the
/// caller, typically record offsets or dense ids).
///
/// Oversized blocks (beyond [`Blocker::MAX_BLOCK`]) are *purged* from
/// candidate generation — a key shared by a large fraction of the corpus
/// (a ubiquitous token) carries no discriminating signal and would crowd
/// real matches out of bounded candidate lists. This is the standard
/// block-purging heuristic from the blocking literature.
#[derive(Debug)]
pub struct Blocker {
    strategy: BlockingStrategy,
    blocks: HashMap<u64, Vec<u64>>,
    /// Seeds for MinHash hash functions (deterministic).
    seeds: Vec<u64>,
    /// Per-record scratch, reused across `register` / `insert`: the
    /// record's keys, the token being walked, and the handles its blocks
    /// hold (one entry per shared key, so a run of equal handles counts
    /// the keys shared).
    keys: Vec<u64>,
    token: String,
    shared: Vec<u64>,
}

/// FNV-1a hash of a string with a seed (deterministic across runs, unlike
/// `std` hashing).
fn fnv1a(seed: u64, s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Write `record`'s keys under `strategy` into `keys`: sorted and
/// deduplicated for standard keys, one per band for MinHash. The tokens
/// are those of `token_set` over the values' renderings joined by `' '`,
/// streamed through `token` (see [`for_each_token`]).
fn fill_keys(
    strategy: BlockingStrategy,
    seeds: &[u64],
    record: &Record,
    token: &mut String,
    keys: &mut Vec<u64>,
) {
    keys.clear();
    let values = record.iter().map(|(_, v)| v.render());
    match strategy {
        BlockingStrategy::None => keys.push(0),
        BlockingStrategy::StandardKeys { prefix_len } => {
            let prefix_len = prefix_len.max(1);
            for_each_token(values, token, |t| {
                let end = t.char_indices().nth(prefix_len).map_or(t.len(), |(i, _)| i);
                keys.push(fnv1a(0, &t[..end]));
            });
            keys.sort_unstable();
            keys.dedup();
        }
        BlockingStrategy::MinHashLsh { bands, rows } => {
            // Signature: min hash per function. A repeated token cannot
            // lower a minimum, so the walker's repeats are harmless.
            let mut sig = vec![u64::MAX; seeds.len()];
            let mut any = false;
            for_each_token(values, token, |t| {
                any = true;
                for (min, seed) in sig.iter_mut().zip(seeds) {
                    *min = (*min).min(fnv1a(*seed, t));
                }
            });
            if !any {
                keys.push(0);
                return;
            }
            // One key per band: hash of the band's rows.
            keys.extend((0..bands).map(|b| {
                let mut h = 0xcbf29ce484222325u64 ^ (b as u64);
                for v in &sig[b * rows..(b + 1) * rows] {
                    h ^= v;
                    h = h.wrapping_mul(0x100000001b3);
                }
                h
            }));
        }
    }
}

impl Blocker {
    /// New blocker for `strategy`.
    pub fn new(strategy: BlockingStrategy) -> Self {
        let seeds = match strategy {
            BlockingStrategy::MinHashLsh { bands, rows } => (0..(bands * rows) as u64)
                .map(|i| {
                    i.wrapping_mul(0x2545F4914F6CDD1D)
                        .wrapping_add(0x9E3779B97F4A7C15)
                })
                .collect(),
            _ => Vec::new(),
        };
        Blocker {
            strategy,
            blocks: HashMap::new(),
            seeds,
            keys: Vec::new(),
            token: String::new(),
            shared: Vec::new(),
        }
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> BlockingStrategy {
        self.strategy
    }

    /// Keys for a record under the current strategy.
    pub fn keys(&self, record: &Record) -> Vec<u64> {
        let mut keys = Vec::new();
        fill_keys(
            self.strategy,
            &self.seeds,
            record,
            &mut String::new(),
            &mut keys,
        );
        keys
    }

    /// Blocks larger than this stop contributing candidates (purging).
    pub const MAX_BLOCK: usize = 64;

    /// `record`'s keys into the reused `keys` scratch.
    fn fill_scratch_keys(&mut self, record: &Record) {
        fill_keys(
            self.strategy,
            &self.seeds,
            record,
            &mut self.token,
            &mut self.keys,
        );
    }

    /// Register a record under `handle` without gathering candidates —
    /// for records whose resolution is already known (snapshot
    /// adoption). Later inserts see it exactly as if it had been
    /// inserted.
    pub fn register(&mut self, handle: u64, record: &Record) {
        self.fill_scratch_keys(record);
        for &k in &self.keys {
            self.blocks.entry(k).or_default().push(handle);
        }
    }

    /// Insert a record under `handle`, returning candidate handles ranked
    /// by the number of blocks shared (excluding itself). Oversized
    /// blocks do not contribute candidates.
    pub fn insert(&mut self, handle: u64, record: &Record) -> Vec<u64> {
        self.fill_scratch_keys(record);
        let purge = self.purge_limit();
        self.shared.clear();
        for &k in &self.keys {
            let bucket = self.blocks.entry(k).or_default();
            if bucket.len() <= purge {
                self.shared.extend_from_slice(bucket);
            }
            bucket.push(handle);
        }
        self.shared.sort_unstable();
        let mut ranked: Vec<(u64, usize)> = self
            .shared
            .chunk_by(|a, b| a == b)
            .filter(|run| run[0] != handle)
            .map(|run| (run[0], run.len()))
            .collect();
        // Most shared keys first (strongest blocking signal), then most
        // recent handle — recent records are likelier duplicates in a
        // streaming setting and ties must break deterministically.
        ranked.sort_unstable_by_key(|&(h, shared)| (Reverse(shared), Reverse(h)));
        ranked.into_iter().map(|(h, _)| h).collect()
    }

    /// The purge threshold: `None` is the deliberate all-pairs baseline
    /// and is never purged; real blocking strategies purge oversized
    /// blocks.
    fn purge_limit(&self) -> usize {
        match self.strategy {
            BlockingStrategy::None => usize::MAX,
            _ => Self::MAX_BLOCK,
        }
    }

    /// Number of non-empty blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::{cells, record};
    use crate::normalize::token_set;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use scdb_types::{SymbolTable, Value};

    fn rec(syms: &mut SymbolTable, name: &str) -> Record {
        let a = syms.intern("name");
        Record::from_pairs([(a, Value::str(name))])
    }

    /// The text-built keys the streamed walker replaced: render every
    /// value, join with `' '`, take `token_set`, then hash a `String`
    /// prefix per token (or MinHash the token set). The reference the
    /// equivalence properties compare against.
    fn text_built_keys(b: &Blocker, record: &Record) -> Vec<u64> {
        let text = record
            .iter()
            .map(|(_, v)| v.render().into_owned())
            .collect::<Vec<_>>()
            .join(" ");
        match b.strategy {
            BlockingStrategy::None => vec![0],
            BlockingStrategy::StandardKeys { prefix_len } => {
                let mut keys: Vec<u64> = token_set(&text)
                    .iter()
                    .map(|t| {
                        let prefix: String = t.chars().take(prefix_len.max(1)).collect();
                        fnv1a(0, &prefix)
                    })
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            }
            BlockingStrategy::MinHashLsh { bands, rows } => {
                let tokens = token_set(&text);
                if tokens.is_empty() {
                    return vec![0];
                }
                let sig: Vec<u64> = b
                    .seeds
                    .iter()
                    .map(|seed| tokens.iter().map(|t| fnv1a(*seed, t)).min().unwrap())
                    .collect();
                (0..bands)
                    .map(|b| {
                        let band = &sig[b * rows..(b + 1) * rows];
                        let mut h = 0xcbf29ce484222325u64 ^ (b as u64);
                        for v in band {
                            h ^= v;
                            h = h.wrapping_mul(0x100000001b3);
                        }
                        h
                    })
                    .collect()
            }
        }
    }

    const STRATEGIES: [BlockingStrategy; 5] = [
        BlockingStrategy::StandardKeys { prefix_len: 0 },
        BlockingStrategy::StandardKeys { prefix_len: 1 },
        BlockingStrategy::StandardKeys { prefix_len: 4 },
        BlockingStrategy::MinHashLsh { bands: 4, rows: 2 },
        BlockingStrategy::None,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Streamed keys equal the text-built keys, for records whose
        /// brackets open in one value and close in a later one, with
        /// case folds that change length, combining marks, numbers,
        /// nulls and empty strings.
        #[test]
        fn streamed_keys_equal_text_built_keys(cells in cells(), s in 0..STRATEGIES.len()) {
            let mut symbols = SymbolTable::new();
            let r = record(&mut symbols, &cells);
            let mut b = Blocker::new(STRATEGIES[s]);
            let expected = text_built_keys(&b, &r);
            prop_assert_eq!(b.keys(&r), expected.clone());
            // The reused scratch of `register` yields the same keys.
            b.register(0, &r);
            prop_assert_eq!(b.keys.clone(), expected);
        }

        /// Registering a prefix of the stream and inserting the rest
        /// produces the same candidates as inserting everything.
        #[test]
        fn register_then_insert_matches_insert_then_insert(
            rows in vec(cells(), 1..24),
            registered in 0usize..24,
            s in 0..STRATEGIES.len(),
        ) {
            let mut symbols = SymbolTable::new();
            let records: Vec<Record> = rows.iter().map(|c| record(&mut symbols, c)).collect();
            let (mut live, mut adopted) = (Blocker::new(STRATEGIES[s]), Blocker::new(STRATEGIES[s]));
            for (h, r) in (0u64..).zip(&records) {
                let expected = live.insert(h, r);
                if (h as usize) < registered {
                    adopted.register(h, r);
                } else {
                    prop_assert_eq!(adopted.insert(h, r), expected);
                }
            }
        }
    }

    #[test]
    fn keys_follow_brackets_across_values() {
        let mut syms = SymbolTable::new();
        let (a, b, c) = (syms.intern("a"), syms.intern("b"), syms.intern("c"));
        let cases = [
            [Value::str("a (b"), Value::str("c) d"), Value::Null],
            [Value::str("x (y"), Value::Int(7), Value::str("z")],
            [
                Value::str("İ ß"),
                Value::Float(-2.5),
                Value::str("e\u{301}"),
            ],
            [Value::str(""), Value::str(""), Value::Null],
            [Value::str("a) b"), Value::str("(c"), Value::Int(0)],
        ];
        for values in cases {
            let r = Record::from_pairs([a, b, c].into_iter().zip(values));
            for strategy in STRATEGIES {
                let b = Blocker::new(strategy);
                assert_eq!(b.keys(&r), text_built_keys(&b, &r), "{strategy:?}");
            }
        }
    }

    #[test]
    fn none_strategy_is_one_global_block() {
        let mut syms = SymbolTable::new();
        let mut b = Blocker::new(BlockingStrategy::None);
        assert!(b.insert(1, &rec(&mut syms, "alpha")).is_empty());
        assert_eq!(b.insert(2, &rec(&mut syms, "zeta")), vec![1]);
        // Candidates rank most-recent first.
        assert_eq!(b.insert(3, &rec(&mut syms, "omega")), vec![2, 1]);
        assert_eq!(b.block_count(), 1);
    }

    #[test]
    fn standard_keys_group_shared_prefixes() {
        let mut syms = SymbolTable::new();
        let mut b = Blocker::new(BlockingStrategy::StandardKeys { prefix_len: 4 });
        b.insert(1, &rec(&mut syms, "Methotrexate"));
        let cands = b.insert(2, &rec(&mut syms, "methotrexate sodium"));
        assert_eq!(cands, vec![1]);
        // Unrelated drug: different prefix, no candidates.
        let cands = b.insert(3, &rec(&mut syms, "Warfarin"));
        assert!(cands.is_empty());
    }

    #[test]
    fn lsh_groups_similar_token_sets() {
        let mut syms = SymbolTable::new();
        let mut b = Blocker::new(BlockingStrategy::MinHashLsh { bands: 8, rows: 2 });
        b.insert(
            1,
            &rec(&mut syms, "warfarin blood clot prevention dosage study"),
        );
        let cands = b.insert(
            2,
            &rec(&mut syms, "warfarin blood clot prevention dose study"),
        );
        assert_eq!(cands, vec![1], "near-identical token sets must collide");
        let cands = b.insert(3, &rec(&mut syms, "completely different content entirely"));
        assert!(cands.is_empty());
    }

    #[test]
    fn empty_record_still_gets_a_key() {
        let b = Blocker::new(BlockingStrategy::MinHashLsh { bands: 4, rows: 2 });
        assert_eq!(b.keys(&Record::new()), vec![0]);
    }

    #[test]
    fn deterministic_keys() {
        let mut syms = SymbolTable::new();
        let b1 = Blocker::new(BlockingStrategy::MinHashLsh { bands: 4, rows: 2 });
        let b2 = Blocker::new(BlockingStrategy::MinHashLsh { bands: 4, rows: 2 });
        let r = rec(&mut syms, "determinism check tokens");
        assert_eq!(b1.keys(&r), b2.keys(&r));
    }
}
