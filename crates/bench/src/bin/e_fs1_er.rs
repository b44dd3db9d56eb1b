//! E-T1-FS1 — incremental entity resolution vs periodic re-resolution.
//!
//! Streams the scaled corpus record by record. The incremental resolver
//! does bounded work per record; the baseline re-runs batch resolution
//! from scratch at checkpoints (the "all-to-all" regime §3.2 warns
//! about). Reported: cumulative comparisons (cost) and pairwise F1
//! (quality) — plus the blocking ablation.
//!
//! `--smoke` runs part 3's first 2 000-row window alone and asserts by
//! counts (stable on a 1-core box): the comparisons and context
//! evaluations equal the constants below, and the character-multiset
//! ceiling settles at least 90 % of the comparisons the identity
//! ceiling prunes without an exact Jaro–Winkler.

use std::collections::HashMap;

use scdb_bench::{banner, time_ms, Table};
use scdb_datagen::corrupt::CorruptionConfig;
use scdb_datagen::life_science::{scaled, ScaledConfig};
use scdb_er::blocking::BlockingStrategy;
use scdb_er::eval::score_pairs;
use scdb_er::incremental::{BatchResolver, IncrementalResolver, ResolverConfig};
use scdb_types::{Record, RecordId, SymbolTable};

fn corpus(
    n_drugs: usize,
) -> (
    SymbolTable,
    Vec<(RecordId, Record)>,
    HashMap<RecordId, String>,
) {
    let cfg = ScaledConfig {
        n_drugs,
        n_sources: 3,
        duplicate_rate: 0.5,
        corruption: CorruptionConfig::moderate(),
        seed: 0xF51,
        ..Default::default()
    };
    let mut symbols = SymbolTable::new();
    let sources = scaled(&cfg, &mut symbols);
    let mut records = Vec::new();
    let mut truth = HashMap::new();
    for src in &sources {
        for (off, rec) in src.records.iter().enumerate() {
            let rid = RecordId::new(src.id, off as u64);
            records.push((rid, rec.record.clone()));
            truth.insert(rid, rec.truth.clone().expect("labelled"));
        }
    }
    (symbols, records, truth)
}

/// Part 3's counts over its first 2 000-row window, captured before
/// identity scoring gained the multiset ceiling: the ceiling must not
/// move a decision, so neither count may move.
const SMOKE_COMPARISONS: u64 = 32_847;
const SMOKE_CONTEXT_EVALS: u64 = 1_708;

/// The least share of pruned comparisons the multiset ceiling must
/// settle in the `--smoke` window.
const SMOKE_MIN_BOUNDED_SHARE: f64 = 0.90;

/// Count-only gate over part 3's first window.
fn smoke() -> i32 {
    let counts = streaming_rate(1);
    let pruned = counts.comparisons - counts.context_evals;
    let share = counts.bounded as f64 / pruned.max(1) as f64;
    let mut failures = Vec::new();
    if (counts.comparisons, counts.context_evals) != (SMOKE_COMPARISONS, SMOKE_CONTEXT_EVALS) {
        failures.push(format!(
            "{} comparisons and {} context evaluations (want {SMOKE_COMPARISONS} and \
             {SMOKE_CONTEXT_EVALS})",
            counts.comparisons, counts.context_evals
        ));
    }
    if share < SMOKE_MIN_BOUNDED_SHARE {
        failures.push(format!(
            "the multiset ceiling settled {} of {pruned} pruned comparisons ({:.1}%, want \
             >= {:.0}%)",
            counts.bounded,
            100.0 * share,
            100.0 * SMOKE_MIN_BOUNDED_SHARE
        ));
    }
    for f in &failures {
        println!("SMOKE FAIL: {f}");
    }
    if failures.is_empty() {
        println!(
            "smoke: {} comparisons, {} context evaluations, {} of {pruned} pruned \
             comparisons bounded ({:.1}%) OK",
            counts.comparisons,
            counts.context_evals,
            counts.bounded,
            100.0 * share
        );
        0
    } else {
        1
    }
}

fn main() {
    banner(
        "E-T1-FS1",
        "Table 1 row FS.1 (continuous incremental entity resolution)",
        "incremental ER matches batch quality at a fraction of the comparisons",
    );
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }

    // Part 1: incremental vs periodic batch, growing corpus.
    let mut table = Table::new(&[
        "records",
        "inc_F1",
        "inc_cmps",
        "inc_ms",
        "batch_F1",
        "batch_cmps",
        "batch_ms",
    ]);
    for n_drugs in [100usize, 200, 400] {
        let (symbols, records, truth) = corpus(n_drugs);
        let cfg = ResolverConfig {
            realign_interval: 64,
            ..Default::default()
        };

        let ((inc_f1, inc_cmps), inc_ms) = time_ms(|| {
            let mut r = IncrementalResolver::new(cfg.clone());
            for (rid, rec) in &records {
                r.add(*rid, rec.clone(), &symbols);
            }
            (score_pairs(&r.assignments(), &truth).f1(), r.comparisons())
        });

        // Periodic re-resolution: batch from scratch at 4 checkpoints.
        let ((batch_f1, batch_cmps), batch_ms) = time_ms(|| {
            let mut total_cmps = 0u64;
            let mut last_f1 = 0.0;
            let batch = BatchResolver::new(cfg.clone());
            for checkpoint in 1..=4usize {
                let upto = records.len() * checkpoint / 4;
                let (assignments, cmps) = batch.resolve(&records[..upto], &symbols);
                total_cmps += cmps;
                if checkpoint == 4 {
                    last_f1 = score_pairs(&assignments, &truth).f1();
                }
            }
            (last_f1, total_cmps)
        });

        table.row(&[
            records.len().to_string(),
            format!("{inc_f1:.3}"),
            inc_cmps.to_string(),
            format!("{inc_ms:.0}"),
            format!("{batch_f1:.3}"),
            batch_cmps.to_string(),
            format!("{batch_ms:.0}"),
        ]);
    }
    println!("{}", table.render());

    // Part 2: blocking ablation at fixed size.
    println!("blocking ablation (200 drugs, moderate corruption):");
    let mut ab = Table::new(&["blocking", "F1", "comparisons"]);
    let (symbols, records, truth) = corpus(200);
    for (name, strategy) in [
        ("none (all-pairs)", BlockingStrategy::None),
        (
            "standard prefix-4",
            BlockingStrategy::StandardKeys { prefix_len: 4 },
        ),
        (
            "minhash-lsh 8x2",
            BlockingStrategy::MinHashLsh { bands: 8, rows: 2 },
        ),
    ] {
        let mut cfg = ResolverConfig {
            realign_interval: 64,
            blocking: strategy,
            ..Default::default()
        };
        if matches!(strategy, BlockingStrategy::None) {
            cfg.max_candidates = usize::MAX;
        }
        let mut r = IncrementalResolver::new(cfg);
        for (rid, rec) in &records {
            r.add(*rid, rec.clone(), &symbols);
        }
        ab.row(&[
            name.to_string(),
            format!("{:.3}", score_pairs(&r.assignments(), &truth).f1()),
            r.comparisons().to_string(),
        ]);
    }
    println!("{}", ab.render());
    println!("shape check: incremental F1 matches or exceeds periodic batch (bounded ranked");
    println!("candidates regularize against chained false merges) at far fewer comparisons;");
    println!("blocking preserves F1 at a fraction of all-pairs comparisons.");

    streaming_rate(usize::MAX);
}

/// What one part-3 run counted.
struct StreamCounts {
    comparisons: u64,
    context_evals: u64,
    /// Comparisons the character-multiset ceiling settled without an
    /// exact Jaro–Winkler (`er.identity_bounded`).
    bounded: u64,
}

/// Part 3: does the curator keep up as the store grows? A 20k-row load
/// (10 000 drugs, identity attributes designated as `Db::register_source`
/// does, sources interleaved row by row) timed per 2k-row window, with
/// the comparisons made and how many of them needed the context
/// similarity (the rest the identity ceiling settled). Runs the first
/// `windows` windows.
fn streaming_rate(windows: usize) -> StreamCounts {
    const WINDOW: usize = 2_000;
    let cfg = ScaledConfig {
        n_drugs: 10_000,
        n_genes: 10_000 / 3,
        n_diseases: 10_000 / 5,
        n_sources: 3,
        duplicate_rate: 0.5,
        corruption: CorruptionConfig::moderate(),
        seed: 0xF51,
    };
    let mut symbols = SymbolTable::new();
    let sources = scaled(&cfg, &mut symbols);
    let mut r = IncrementalResolver::new(ResolverConfig::default());
    for src in &sources {
        if let Some(first) = src.records.first() {
            let identity = first
                .record
                .attrs()
                .next()
                .expect("generated rows carry attributes");
            r.designate_identity(src.id, identity);
        }
    }
    let longest = sources.iter().map(|s| s.records.len()).max().unwrap_or(0);
    let rows: Vec<(RecordId, &Record)> = (0..longest)
        .flat_map(|i| {
            sources.iter().filter_map(move |s| {
                s.records
                    .get(i)
                    .map(|rec| (RecordId::new(s.id, i as u64), &rec.record))
            })
        })
        .collect();
    let rows = &rows[..(rows.len() / WINDOW).min(windows) * WINDOW];

    scdb_obs::metrics().reset();
    println!(
        "streaming rate ({} rows, {WINDOW}-row windows):",
        rows.len()
    );
    let mut t = Table::new(&["rows", "rows/s", "cmps/row", "context evals/row"]);
    let mut rates = Vec::new();
    for (w, window) in rows.chunks(WINDOW).enumerate() {
        let (cmps, evals) = (r.comparisons(), r.context_evals());
        let ((), ms) = time_ms(|| {
            for (rid, rec) in window {
                r.add(*rid, (*rec).clone(), &symbols);
            }
        });
        let n = window.len() as f64;
        let rate = n / (ms / 1e3);
        rates.push(rate);
        t.row(&[
            format!("{}-{}", w * WINDOW, w * WINDOW + window.len()),
            format!("{rate:.0}"),
            format!("{:.1}", (r.comparisons() - cmps) as f64 / n),
            format!("{:.2}", (r.context_evals() - evals) as f64 / n),
        ]);
    }
    println!("{}", t.render());
    if let (Some(first), Some(last)) = (rates.first(), rates.last()) {
        println!(
            "rows/s last window / first window: {:.2}; comparisons {}, context evaluations {} ({:.1}%)",
            last / first,
            r.comparisons(),
            r.context_evals(),
            100.0 * r.context_evals() as f64 / r.comparisons().max(1) as f64
        );
    }
    let snap = scdb_obs::metrics().snapshot();
    let stage_us = |stage: &str| {
        snap.histograms
            .get(&format!("er.stage.{stage}_ns"))
            .map_or(0.0, |h| h.mean() / 1e3)
    };
    println!(
        "mean µs per add: block {:.1}, score {:.1}, union {:.1} (er.stage.*_ns)",
        stage_us("block"),
        stage_us("score"),
        stage_us("union")
    );
    let counts = StreamCounts {
        comparisons: r.comparisons(),
        context_evals: r.context_evals(),
        bounded: snap
            .counters
            .get("er.identity_bounded")
            .copied()
            .unwrap_or(0),
    };
    let pruned = counts.comparisons - counts.context_evals;
    println!(
        "pruned comparisons settled by the multiset ceiling: {} of {pruned} ({:.1}%)",
        counts.bounded,
        100.0 * counts.bounded as f64 / pruned.max(1) as f64
    );
    counts
}
