//! Deterministic curation-op schedules for crash-recovery testing.
//!
//! The durability crash matrix (and the E-REC recovery experiment) needs
//! workloads that exercise every record kind the WAL can carry — source
//! registrations, ingests that merge entities and discover links, kv
//! transactions, enrichment writes, link-discovery sweeps, checkpoints —
//! in a reproducible order, so a crash at operation *k* can be compared
//! against a reference database that applied exactly the first *k* ops.
//!
//! Ops are plain data (names and [`Value`]s, no core-crate types): the
//! harness that owns a `Db` interprets them. Same seed ⇒ same schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scdb_types::Value;

/// One curation operation in a crash schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum CurationOp {
    /// Register a source (idempotent).
    Register {
        /// Source name.
        source: String,
        /// Identity attribute, if designated.
        identity_attr: Option<String>,
    },
    /// Ingest one record into `source`.
    Ingest {
        /// Target source.
        source: String,
        /// Attribute name/value pairs.
        attrs: Vec<(String, Value)>,
        /// Optional text payload.
        text: Option<String>,
    },
    /// Ingest several records into `source` as one group-committed
    /// batch (`Db::ingest_batch`): one WAL append seals every row, so a
    /// crash mid-append must discard or keep the batch atomically.
    IngestBatch {
        /// Target source.
        source: String,
        /// One attribute list per record, in apply order.
        rows: Vec<Vec<(String, Value)>>,
    },
    /// Re-run link discovery over the whole instance.
    DiscoverLinks,
    /// Commit an explicit kv transaction writing `key = value`.
    KvPut {
        /// Key written.
        key: u64,
        /// Value written.
        value: i64,
    },
    /// An auto-committed enrichment write.
    Enrich {
        /// Key enriched.
        key: u64,
        /// Enrichment value.
        value: f64,
    },
    /// An enrichment retraction (tombstone).
    Retract {
        /// Key retracted.
        key: u64,
    },
    /// Checkpoint: snapshot + log truncation.
    Checkpoint,
}

/// Shape of a generated schedule.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleConfig {
    /// Operations after the initial source registrations.
    pub ops: usize,
    /// Number of sources to register up front.
    pub sources: usize,
    /// Distinct entity names to draw from (smaller pool ⇒ more merges).
    pub entity_pool: usize,
    /// Probability an ingested record carries a reference to another
    /// pool entity (drives link discovery).
    pub link_rate: f64,
    /// Probability an op is a kv/enrichment write instead of an ingest.
    pub kv_rate: f64,
    /// Insert a [`CurationOp::Checkpoint`] every `n` ops, if set.
    pub checkpoint_every: Option<usize>,
    /// Probability an op is a group-committed [`CurationOp::IngestBatch`]
    /// instead of a single-record ingest. The default `0.0` reproduces
    /// pre-group-commit schedules byte for byte (same seed, same ops).
    pub batch_rate: f64,
    /// Maximum records per generated batch (clamped to at least 2 when
    /// a batch is drawn).
    pub batch_max: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            ops: 40,
            sources: 2,
            entity_pool: 8,
            link_rate: 0.4,
            kv_rate: 0.2,
            checkpoint_every: None,
            batch_rate: 0.0,
            batch_max: 8,
        }
    }
}

/// Pool entry `i`'s name. A hashed prefix keeps the names far apart in
/// edit space, so identity matching never chains two entries into one
/// entity: the pool stays a population of distinct entities, and the
/// references between them become graph edges.
fn pool_name(i: usize) -> String {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
    format!("{h:05x}-drug-{i}")
}

/// Generate a deterministic schedule. The first `config.sources` ops are
/// registrations; the rest interleave ingests (with duplicates and
/// cross-references), kv transactions, enrichment writes/retractions,
/// periodic link-discovery sweeps, and optional checkpoints.
pub fn crash_schedule(config: &ScheduleConfig, seed: u64) -> Vec<CurationOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC8A5_11ED);
    let mut ops = Vec::with_capacity(config.sources + config.ops);
    for s in 0..config.sources.max(1) {
        ops.push(CurationOp::Register {
            source: format!("src{s}"),
            identity_attr: Some("name".to_string()),
        });
    }
    let sources = config.sources.max(1);
    let pool = config.entity_pool.max(2);
    for i in 0..config.ops {
        if let Some(every) = config.checkpoint_every {
            if every > 0 && i > 0 && i % every == 0 {
                ops.push(CurationOp::Checkpoint);
            }
        }
        let roll: f64 = rng.gen();
        if roll < config.kv_rate {
            let key = rng.gen_range(0..pool as u64);
            match rng.gen_range(0..3u8) {
                0 => ops.push(CurationOp::KvPut {
                    key,
                    value: rng.gen_range(-100..100),
                }),
                1 => ops.push(CurationOp::Enrich {
                    key,
                    value: rng.gen_range(0.0..1.0),
                }),
                _ => ops.push(CurationOp::Retract { key }),
            }
        } else if roll < config.kv_rate + 0.05 {
            ops.push(CurationOp::DiscoverLinks);
        } else if roll < config.kv_rate + 0.05 + config.batch_rate {
            let source = format!("src{}", rng.gen_range(0..sources));
            let n = rng.gen_range(2..=config.batch_max.max(2));
            let rows = (0..n)
                .map(|_| {
                    let name = pool_name(rng.gen_range(0..pool));
                    let mut attrs = vec![
                        ("name".to_string(), Value::str(&name)),
                        ("dose".to_string(), Value::Float(rng.gen_range(0.5..10.0))),
                    ];
                    if rng.gen_bool(config.link_rate) {
                        let target = pool_name(rng.gen_range(0..pool));
                        if target != name {
                            attrs.push(("ref".to_string(), Value::str(&target)));
                        }
                    }
                    attrs
                })
                .collect();
            ops.push(CurationOp::IngestBatch { source, rows });
        } else {
            let source = format!("src{}", rng.gen_range(0..sources));
            let name = pool_name(rng.gen_range(0..pool));
            let mut attrs = vec![
                ("name".to_string(), Value::str(&name)),
                ("dose".to_string(), Value::Float(rng.gen_range(0.5..10.0))),
            ];
            if rng.gen_bool(config.link_rate) {
                let target = pool_name(rng.gen_range(0..pool));
                if target != name {
                    attrs.push(("ref".to_string(), Value::str(&target)));
                }
            }
            let text = if rng.gen_bool(0.2) {
                Some(format!("note about {name}"))
            } else {
                None
            };
            ops.push(CurationOp::Ingest {
                source,
                attrs,
                text,
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ScheduleConfig::default();
        assert_eq!(crash_schedule(&cfg, 7), crash_schedule(&cfg, 7));
        assert_ne!(crash_schedule(&cfg, 7), crash_schedule(&cfg, 8));
    }

    #[test]
    fn schedule_shape_and_coverage() {
        let cfg = ScheduleConfig {
            ops: 200,
            sources: 3,
            entity_pool: 6,
            link_rate: 0.5,
            kv_rate: 0.3,
            checkpoint_every: Some(50),
            ..ScheduleConfig::default()
        };
        let ops = crash_schedule(&cfg, 1);
        assert!(matches!(ops[0], CurationOp::Register { .. }));
        let count = |f: fn(&CurationOp) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, CurationOp::Register { .. })), 3);
        assert!(count(|o| matches!(o, CurationOp::Ingest { .. })) > 50);
        assert!(count(|o| matches!(o, CurationOp::KvPut { .. })) > 0);
        assert!(count(|o| matches!(o, CurationOp::Enrich { .. })) > 0);
        assert!(count(|o| matches!(o, CurationOp::Retract { .. })) > 0);
        assert!(count(|o| matches!(o, CurationOp::Checkpoint)) >= 3);
        assert!(count(|o| matches!(o, CurationOp::DiscoverLinks)) > 0);
    }

    #[test]
    fn checkpoint_free_schedules_have_no_checkpoints() {
        let ops = crash_schedule(&ScheduleConfig::default(), 3);
        assert!(!ops.iter().any(|o| matches!(o, CurationOp::Checkpoint)));
    }

    #[test]
    fn batch_rate_zero_reproduces_legacy_schedules() {
        // The group-commit knobs must not perturb existing seeds.
        let legacy = crash_schedule(&ScheduleConfig::default(), 42);
        let explicit = crash_schedule(
            &ScheduleConfig {
                batch_rate: 0.0,
                batch_max: 64,
                ..ScheduleConfig::default()
            },
            42,
        );
        assert_eq!(legacy, explicit);
        assert!(!legacy
            .iter()
            .any(|o| matches!(o, CurationOp::IngestBatch { .. })));
    }

    #[test]
    fn batch_rate_emits_group_batches() {
        let cfg = ScheduleConfig {
            ops: 120,
            batch_rate: 0.3,
            batch_max: 6,
            ..ScheduleConfig::default()
        };
        let ops = crash_schedule(&cfg, 9);
        let batches: Vec<_> = ops
            .iter()
            .filter_map(|o| match o {
                CurationOp::IngestBatch { rows, .. } => Some(rows),
                _ => None,
            })
            .collect();
        assert!(!batches.is_empty(), "batch ops drawn");
        assert!(batches.iter().all(|rows| (2..=6).contains(&rows.len())));
        assert_eq!(crash_schedule(&cfg, 9), ops, "still deterministic");
    }
}
