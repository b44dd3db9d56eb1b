//! Decision pin for the incremental resolver. Two fixed corpora are
//! resolved with identity attributes designated, and four outcomes are
//! pinned to constants: the comparison count, the entity count, the
//! record → entity partition and the sequence of merge decisions
//! (entity, absorbed, fresh, similarity bits). Any change to the
//! resolver's scoring, pruning or caching that moves one merge decision
//! — or one similarity by one ulp — fails here.
//!
//! The corpora mirror the benchmark's: `scaled` with moderate name
//! corruption plus a `dose` float, a `batch` ordinal and a `tag` shared
//! by ten consecutive rows of a source, so the candidate lists hold the
//! same mix of near-duplicates and shared-tag strangers.

use std::collections::BTreeMap;

use scdb_datagen::life_science::{scaled, ScaledConfig};
use scdb_er::incremental::{IncrementalResolver, MergeEvent, ResolverConfig};
use scdb_types::{Record, RecordId, SymbolTable, Value};

/// What one resolution run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    comparisons: u64,
    entities: usize,
    partition_hash: u64,
    events_hash: u64,
}

/// FNV-1a over the little-endian bytes of `v`.
fn mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn mix_event(h: &mut u64, e: &MergeEvent) {
    mix(h, u64::from(e.record.source.0));
    mix(h, e.record.offset);
    mix(h, e.entity.0);
    mix(h, e.absorbed.len() as u64);
    for a in &e.absorbed {
        mix(h, a.0);
    }
    mix(h, u64::from(e.fresh));
    mix(h, e.similarity.to_bits());
}

/// The generated rows of every source, each with the benchmark's extra
/// attributes, and each source's identity attribute (its first).
fn corpus(seed: u64, symbols: &mut SymbolTable) -> Vec<Vec<(RecordId, Record)>> {
    let cfg = ScaledConfig {
        n_drugs: 300,
        n_genes: 100,
        n_diseases: 60,
        seed,
        ..Default::default()
    };
    let sources = scaled(&cfg, symbols);
    let (dose, batch, tag) = (
        symbols.intern("dose"),
        symbols.intern("batch"),
        symbols.intern("tag"),
    );
    let mut ordinal = 0i64;
    sources
        .iter()
        .enumerate()
        .map(|(k, src)| {
            src.records
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let mut record = r.record.clone();
                    let d = (ordinal.wrapping_mul(7919) % 100_000) as f64 / 1e4;
                    record.set(dose, Value::Float(d));
                    record.set(batch, Value::Int(ordinal));
                    record.set(tag, Value::str(format!("{:04x}s{k}", i / 10)));
                    ordinal += 1;
                    (RecordId::new(src.id, i as u64), record)
                })
                .collect()
        })
        .collect()
}

/// Resolve the corpus for `seed`, source by source or interleaved row
/// by row, and summarise the outcome.
fn resolve(seed: u64, interleave: bool, realign_interval: u64) -> Pin {
    let mut symbols = SymbolTable::new();
    let sources = corpus(seed, &mut symbols);
    let mut resolver = IncrementalResolver::new(ResolverConfig {
        realign_interval,
        ..Default::default()
    });
    for rows in &sources {
        let (id, first) = &rows[0];
        let identity = first.attrs().next().expect("generated rows are non-empty");
        resolver.designate_identity(id.source, identity);
    }
    let order: Vec<&(RecordId, Record)> = if interleave {
        let longest = sources.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| sources.iter().filter_map(move |rows| rows.get(i)))
            .collect()
    } else {
        sources.iter().flatten().collect()
    };
    let mut events_hash = FNV_OFFSET;
    for (id, record) in order {
        let event = resolver.add(*id, record.clone(), &symbols);
        mix_event(&mut events_hash, &event);
    }
    let mut groups: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
    for (id, entity) in resolver.assignments() {
        groups
            .entry(entity.0)
            .or_default()
            .push((id.source.0, id.offset));
    }
    // The partition modulo entity naming: sorted groups of sorted ids.
    let mut partition: Vec<Vec<(u32, u64)>> = groups
        .into_values()
        .map(|mut g| {
            g.sort_unstable();
            g
        })
        .collect();
    partition.sort();
    let mut partition_hash = FNV_OFFSET;
    for group in &partition {
        mix(&mut partition_hash, group.len() as u64);
        for (s, o) in group {
            mix(&mut partition_hash, u64::from(*s));
            mix(&mut partition_hash, *o);
        }
    }
    Pin {
        comparisons: resolver.comparisons(),
        entities: resolver.entity_count(),
        partition_hash,
        events_hash,
    }
}

#[test]
fn source_order_decisions_are_pinned() {
    let pin = resolve(0x5EED_0001, false, 256);
    assert_eq!(
        pin,
        Pin {
            comparisons: 17_036,
            entities: 334,
            partition_hash: 8_420_476_425_057_476_296,
            events_hash: 2_016_401_685_137_286_969,
        }
    );
}

#[test]
fn interleaved_eager_realign_decisions_are_pinned() {
    let pin = resolve(0x5EED_0002, true, 16);
    assert_eq!(
        pin,
        Pin {
            comparisons: 19_039,
            entities: 331,
            partition_hash: 1_494_866_058_027_474_556,
            events_hash: 16_658_662_626_679_234_379,
        }
    );
}
