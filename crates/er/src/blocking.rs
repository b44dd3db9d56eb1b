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

use std::collections::HashMap;

use scdb_types::Record;

use crate::normalize::token_set;

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
        }
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> BlockingStrategy {
        self.strategy
    }

    /// Record text used for key derivation: all values rendered.
    fn record_text(record: &Record) -> String {
        record
            .iter()
            .map(|(_, v)| v.render().into_owned())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Keys for a record under the current strategy.
    pub fn keys(&self, record: &Record) -> Vec<u64> {
        let text = Self::record_text(record);
        match self.strategy {
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
                // Signature: min hash per function.
                let sig: Vec<u64> = self
                    .seeds
                    .iter()
                    .map(|seed| {
                        tokens
                            .iter()
                            .map(|t| fnv1a(*seed, t))
                            .min()
                            .expect("non-empty tokens")
                    })
                    .collect();
                // One key per band: hash of the band's rows.
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

    /// Blocks larger than this stop contributing candidates (purging).
    pub const MAX_BLOCK: usize = 64;

    fn rank_candidates(shared: HashMap<u64, u32>, exclude: u64) -> Vec<u64> {
        let mut v: Vec<(u64, u32)> = shared.into_iter().filter(|(h, _)| *h != exclude).collect();
        // Most shared keys first (strongest blocking signal), then most
        // recent handle — recent records are likelier duplicates in a
        // streaming setting and ties must break deterministically.
        v.sort_by_key(|(h, c)| (std::cmp::Reverse(*c), std::cmp::Reverse(*h)));
        v.into_iter().map(|(h, _)| h).collect()
    }

    /// Insert a record under `handle`, returning candidate handles ranked
    /// by the number of blocks shared (excluding itself). Oversized
    /// blocks do not contribute candidates.
    pub fn insert(&mut self, handle: u64, record: &Record) -> Vec<u64> {
        let purge = self.purge_limit();
        let mut shared: HashMap<u64, u32> = HashMap::new();
        for k in self.keys(record) {
            let bucket = self.blocks.entry(k).or_default();
            if bucket.len() <= purge {
                for h in bucket.iter() {
                    *shared.entry(*h).or_insert(0) += 1;
                }
            }
            bucket.push(handle);
        }
        Self::rank_candidates(shared, handle)
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

    /// Look up ranked candidates without inserting.
    pub fn probe(&self, record: &Record) -> Vec<u64> {
        let purge = self.purge_limit();
        let mut shared: HashMap<u64, u32> = HashMap::new();
        for k in self.keys(record) {
            if let Some(bucket) = self.blocks.get(&k) {
                if bucket.len() <= purge {
                    for h in bucket.iter() {
                        *shared.entry(*h).or_insert(0) += 1;
                    }
                }
            }
        }
        Self::rank_candidates(shared, u64::MAX)
    }

    /// Number of non-empty blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Mean block size (candidate-list cost proxy).
    pub fn mean_block_size(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let total: usize = self.blocks.values().map(Vec::len).sum();
        total as f64 / self.blocks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::{SymbolTable, Value};

    fn rec(syms: &mut SymbolTable, name: &str) -> Record {
        let a = syms.intern("name");
        Record::from_pairs([(a, Value::str(name))])
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
    fn probe_does_not_insert() {
        let mut syms = SymbolTable::new();
        let mut b = Blocker::new(BlockingStrategy::StandardKeys { prefix_len: 3 });
        b.insert(1, &rec(&mut syms, "ibuprofen"));
        let r = rec(&mut syms, "ibuprofen advil");
        assert_eq!(b.probe(&r), vec![1]);
        assert_eq!(b.probe(&r), vec![1]); // unchanged
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
