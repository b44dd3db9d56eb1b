//! The durability crash matrix (ISSUE 3 tentpole acceptance).
//!
//! A deterministic curation schedule (from `scdb_datagen::crash`) runs
//! against a [`FailpointLog`]-backed durable [`Db`]. The medium is forked
//! at **every operation boundary** and, within each operation's byte
//! range, cut at **mid-record offsets**; each fork is reopened and its
//! [`Db::state_dump`] compared against an in-memory reference database
//! that applied exactly the committed prefix. On top of the clean-crash
//! sweep, the matrix injects the classic failure modes — bit rot on the
//! durable tail, a lying fsync followed by power loss, transient
//! `Interrupted` errors — and exercises the real-file [`FsStore`] path
//! with checkpoints and multiple reopen generations.

use std::collections::BTreeMap;

use scdb_bench::apply_curation_op as apply;
use scdb_core::{CoreError, Db, DurabilityConfig, FsyncPolicy, IngestConfig};
use scdb_datagen::crash::{crash_schedule, CurationOp, ScheduleConfig};
use scdb_txn::FailpointLog;
use scdb_types::Value;

fn open_store(log: &FailpointLog, segment_bytes: u64) -> Result<Db, CoreError> {
    Db::builder()
        .durability_config(
            DurabilityConfig::store(Box::new(log.clone())).segment_bytes(segment_bytes),
        )
        .open()
}

fn durable_sizes(log: &FailpointLog) -> BTreeMap<String, u64> {
    log.file_names()
        .into_iter()
        .map(|name| {
            let len = log.durable_len(&name);
            (name, len)
        })
        .collect()
}

/// Run `ops` against a fresh durable db + volatile reference, capturing a
/// fork of the medium, the reference dump, and the durable file sizes
/// after every op (index 0 = before any op).
struct MatrixRun {
    forks: Vec<FailpointLog>,
    dumps: Vec<String>,
    sizes: Vec<BTreeMap<String, u64>>,
}

fn run_schedule(ops: &[CurationOp], segment_bytes: u64) -> MatrixRun {
    let live = FailpointLog::new();
    let db = open_store(&live, segment_bytes).expect("open live store");
    let reference = Db::builder().build();
    let mut run = MatrixRun {
        forks: vec![live.fork()],
        dumps: vec![reference.state_dump()],
        sizes: vec![durable_sizes(&live)],
    };
    for (i, op) in ops.iter().enumerate() {
        apply(&db, op).unwrap_or_else(|e| panic!("durable op {i} ({op:?}): {e}"));
        apply(&reference, op).unwrap_or_else(|e| panic!("reference op {i} ({op:?}): {e}"));
        run.forks.push(live.fork());
        run.dumps.push(reference.state_dump());
        run.sizes.push(durable_sizes(&live));
    }
    assert_eq!(
        db.state_dump(),
        *run.dumps.last().unwrap(),
        "durable db diverged from the reference before any crash"
    );
    run
}

#[test]
fn crash_at_every_op_boundary_recovers_the_committed_prefix() {
    let ops = crash_schedule(
        &ScheduleConfig {
            ops: 30,
            kv_rate: 0.3,
            ..ScheduleConfig::default()
        },
        42,
    );
    // 512-byte segments so the boundary sweep crosses several rotations.
    let run = run_schedule(&ops, 512);
    for (k, fork) in run.forks.iter().enumerate() {
        fork.crash(); // power loss: FsyncPolicy::Always ⇒ nothing volatile
        let recovered = open_store(fork, 512).expect("reopen after crash");
        assert_eq!(
            recovered.state_dump(),
            run.dumps[k],
            "crash after op {k} must recover exactly ops[0..{k}]"
        );
    }
}

#[test]
fn crash_mid_record_truncates_to_the_previous_commit() {
    let ops = crash_schedule(
        &ScheduleConfig {
            ops: 20,
            kv_rate: 0.3,
            ..ScheduleConfig::default()
        },
        7,
    );
    let run = run_schedule(&ops, 512);
    let mut cuts_tested = 0usize;
    for k in 1..=ops.len() {
        // Which file did op k grow? Exactly one (a batch never spans
        // segments; rotation creates the next file empty).
        let before = &run.sizes[k - 1];
        let after = &run.sizes[k];
        let grown: Vec<_> = after
            .iter()
            .filter(|(name, len)| **len > before.get(*name).copied().unwrap_or(0))
            .collect();
        assert!(grown.len() <= 1, "op {k} ({:?}) grew {grown:?}", ops[k - 1]);
        let Some((name, end)) = grown.first().map(|(n, l)| ((*n).clone(), **l)) else {
            continue; // op logged nothing new (cannot happen today)
        };
        let start = before.get(&name).copied().unwrap_or(0);
        // Cut the durable image at every 5th byte inside the op's range,
        // plus both edges of the final frame.
        let mut offsets: Vec<u64> = (start + 1..end).step_by(5).collect();
        offsets.push(end - 1);
        offsets.sort_unstable();
        offsets.dedup();
        for cut in offsets {
            let victim = run.forks[k].fork();
            victim.cut_durable(&name, cut);
            let recovered = open_store(&victim, 512).expect("reopen after cut");
            assert_eq!(
                recovered.state_dump(),
                run.dumps[k - 1],
                "cut at byte {cut} of {name} (op {k}, {:?}) must discard the torn txn",
                ops[k - 1]
            );
            cuts_tested += 1;
        }
        // Cutting exactly at the batch end keeps the whole op.
        let whole = run.forks[k].fork();
        whole.cut_durable(&name, end);
        let recovered = open_store(&whole, 512).expect("reopen at batch end");
        assert_eq!(recovered.state_dump(), run.dumps[k]);
    }
    assert!(
        cuts_tested > 100,
        "matrix actually swept bytes: {cuts_tested}"
    );
}

#[test]
fn crash_matrix_survives_checkpoints() {
    let ops = crash_schedule(
        &ScheduleConfig {
            ops: 30,
            kv_rate: 0.25,
            checkpoint_every: Some(7),
            ..ScheduleConfig::default()
        },
        11,
    );
    assert!(ops.iter().any(|o| matches!(o, CurationOp::Checkpoint)));
    let run = run_schedule(&ops, 512);
    let mut snapshot_recoveries = 0usize;
    for (k, fork) in run.forks.iter().enumerate() {
        fork.crash();
        let recovered = open_store(fork, 512).expect("reopen after crash");
        assert_eq!(
            recovered.state_dump(),
            run.dumps[k],
            "crash after op {k} (checkpointed schedule)"
        );
        let report = recovered
            .recovery_report()
            .expect("durable open has a report");
        if report.wal.snapshot_seq.is_some() {
            snapshot_recoveries += 1;
            assert!(
                report.snapshot_rows > 0 || report.records_replayed < k,
                "snapshot recovery at op {k} did real work"
            );
        }
    }
    assert!(
        snapshot_recoveries > 0,
        "at least the post-checkpoint forks recover via snapshot"
    );
}

#[test]
fn bit_rot_on_the_tail_discards_only_the_last_txn() {
    let ops = crash_schedule(
        &ScheduleConfig {
            ops: 15,
            kv_rate: 0.3,
            ..ScheduleConfig::default()
        },
        3,
    );
    // One big segment so the flipped byte is always in the live tail.
    let run = run_schedule(&ops, 1 << 20);
    let fork = run.forks.last().unwrap().fork();
    let seg = "wal-00000001.seg";
    let len = fork.durable_len(seg);
    assert!(len > 8);
    fork.flip_durable_bit(seg, (len - 4) as usize, 3);
    let recovered = open_store(&fork, 1 << 20).expect("reopen after bit flip");
    assert_eq!(
        recovered.state_dump(),
        run.dumps[ops.len() - 1],
        "flipping the final frame voids exactly the last op"
    );
    let report = recovered.recovery_report().unwrap();
    assert!(
        report.wal.corrupt_tail,
        "CRC mismatch is flagged as corruption"
    );
    assert!(report.wal.bytes_truncated > 0);
}

#[test]
fn lying_fsync_then_power_loss_loses_only_the_unsynced_suffix() {
    let ops = crash_schedule(&ScheduleConfig::default(), 5);
    let live = FailpointLog::new();
    let db = open_store(&live, 1 << 20).unwrap();
    let reference = Db::builder().build();
    for op in &ops {
        apply(&db, op).unwrap();
        apply(&reference, op).unwrap();
    }
    let committed = reference.state_dump();
    // The next commit's fsync lies: it reports success but persists none
    // of the pending bytes. The write is then lost to the power cut —
    // the recovered state must still be the clean committed prefix.
    live.plan().lying_fsync(0);
    db.kv_enrich(99, Value::Int(-1)).unwrap();
    live.crash();
    drop(db);
    let recovered = open_store(&live, 1 << 20).expect("reopen after lying fsync");
    assert_eq!(recovered.state_dump(), committed);
}

#[test]
fn transient_interrupts_are_retried_transparently() {
    let ops = crash_schedule(&ScheduleConfig::default(), 9);
    let live = FailpointLog::new();
    let db = open_store(&live, 1 << 20).unwrap();
    let reference = Db::builder().build();
    for (i, op) in ops.iter().enumerate() {
        if i % 4 == 0 {
            live.plan().interrupt_next(2); // below the bounded-retry limit
        }
        apply(&db, op).unwrap_or_else(|e| panic!("op {i} not retried: {e}"));
        apply(&reference, op).unwrap();
    }
    live.crash();
    let recovered = open_store(&live, 1 << 20).unwrap();
    assert_eq!(recovered.state_dump(), reference.state_dump());
}

#[test]
fn group_commit_batches_crash_atomically_mid_append() {
    // Schedules that draw multi-record `IngestBatch` ops: one WAL append
    // seals the whole batch, so a cut strictly inside the batch's byte
    // range must discard *every* row of it (recovering the pre-batch
    // state), and a cut at the exact end must keep every row. 512-byte
    // segments force rotations, so the sweep also proves a batch never
    // spans segments (each op grows exactly one file).
    let ops = crash_schedule(
        &ScheduleConfig {
            ops: 24,
            kv_rate: 0.15,
            batch_rate: 0.35,
            batch_max: 6,
            ..ScheduleConfig::default()
        },
        13,
    );
    let batch_ops = ops
        .iter()
        .filter(|o| matches!(o, CurationOp::IngestBatch { .. }))
        .count();
    assert!(batch_ops >= 3, "schedule drew group batches: {batch_ops}");
    let run = run_schedule(&ops, 512);
    let mut cuts_tested = 0usize;
    for k in 1..=ops.len() {
        if !matches!(ops[k - 1], CurationOp::IngestBatch { .. }) {
            continue;
        }
        let before = &run.sizes[k - 1];
        let after = &run.sizes[k];
        let grown: Vec<_> = after
            .iter()
            .filter(|(name, len)| **len > before.get(*name).copied().unwrap_or(0))
            .collect();
        assert_eq!(
            grown.len(),
            1,
            "batch op {k} ({:?}) must land in exactly one segment: {grown:?}",
            ops[k - 1]
        );
        let (name, end) = grown.first().map(|(n, l)| ((*n).clone(), **l)).unwrap();
        let start = before.get(&name).copied().unwrap_or(0);
        let mut offsets: Vec<u64> = (start + 1..end).step_by(3).collect();
        offsets.push(end - 1);
        offsets.sort_unstable();
        offsets.dedup();
        for cut in offsets {
            let victim = run.forks[k].fork();
            victim.cut_durable(&name, cut);
            let recovered = open_store(&victim, 512).expect("reopen after cut");
            assert_eq!(
                recovered.state_dump(),
                run.dumps[k - 1],
                "cut at byte {cut} of {name} inside batch op {k} must discard the whole batch"
            );
            cuts_tested += 1;
        }
        let whole = run.forks[k].fork();
        whole.cut_durable(&name, end);
        let recovered = open_store(&whole, 512).expect("reopen at batch end");
        assert_eq!(
            recovered.state_dump(),
            run.dumps[k],
            "cut at the seal boundary of batch op {k} must keep every row"
        );
    }
    assert!(
        cuts_tested > 50,
        "swept real mid-batch bytes: {cuts_tested}"
    );
}

#[test]
fn queued_group_commit_crash_recovers_a_sealed_record_prefix() {
    // Producers enqueue via `ingest_async`; the committer thread seals
    // FIFO batches whose boundaries depend on scheduling. Forking the
    // medium at every point between queue-accept and final ack must
    // still recover *some per-record prefix* of the submit order (log
    // order = apply order), and a record whose ticket was never acked
    // must not be observable beyond the sealed prefix. The final fork
    // (after every ack) must contain every record.
    const N: usize = 24;
    let row = |i: usize, db: &Db| {
        scdb_types::Record::from_pairs([
            (db.intern("name"), Value::str(format!("drug-{}", i % 5))),
            (db.intern("dose"), Value::Float(i as f64 + 0.25)),
            (
                db.intern("ref"),
                Value::str(format!("drug-{}", (i + 1) % 5)),
            ),
        ])
    };

    // Reference: one state dump per committed prefix length.
    let reference = Db::builder().build();
    reference.register_source("src0", Some("name"));
    let mut prefix_dumps = vec![reference.state_dump()];
    for i in 0..N {
        reference
            .ingest("src0", row(i, &reference), None)
            .expect("reference ingest");
        prefix_dumps.push(reference.state_dump());
    }

    let live = FailpointLog::new();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(live.clone())))
        .ingest_config(IngestConfig::queued(4))
        .open()
        .expect("open queued durable db");
    db.register_source("src0", Some("name"));
    let mut forks = vec![live.fork()]; // crash before any submit
    let mut tickets = Vec::with_capacity(N);
    for i in 0..N {
        tickets.push(db.ingest_async("src0", row(i, &db), None).expect("submit"));
        forks.push(live.fork()); // crash racing the committer mid-flight
    }
    for t in tickets {
        t.wait().expect("group commit ack");
    }
    forks.push(live.fork()); // crash after every ack
    drop(db);

    for (fi, fork) in forks.iter().enumerate() {
        fork.crash();
        let recovered = Db::builder()
            .durability_config(DurabilityConfig::store(Box::new(fork.clone())))
            .open()
            .expect("reopen after crash");
        let dump = recovered.state_dump();
        let prefix = prefix_dumps.iter().position(|d| *d == dump);
        assert!(
            prefix.is_some(),
            "fork {fi} recovered a state that is no per-record prefix of submit order"
        );
        let report = recovered
            .recovery_report()
            .expect("durable open has a report");
        assert_eq!(
            report.txns_discarded, 0,
            "fsync-always queue crash leaves no unsealed txns (fork {fi})"
        );
    }
    // Every ticket was acked before the last fork, so nothing is lost.
    let last = forks.last().unwrap();
    let recovered = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(last.clone())))
        .open()
        .unwrap();
    assert_eq!(
        recovered.state_dump(),
        prefix_dumps[N],
        "acked records must all survive the final crash"
    );
}

#[test]
fn crash_mid_index_create_discards_or_keeps_the_whole_definition() {
    use scdb_core::IndexKind;
    // Seed identical durable and reference instances, then byte-sweep
    // cuts inside the auto-sealed IndexCreate record: every cut strictly
    // inside it must recover the pre-create state (no phantom index),
    // and a cut at the exact record end must keep the definition AND
    // rebuild contents that agree with a full scan.
    let live = FailpointLog::new();
    let db = open_store(&live, 1 << 20).unwrap();
    let reference = Db::builder().build();
    for handle in [&db, &reference] {
        handle.register_source("trials", None);
        let d = handle.intern("drug");
        let dose = handle.intern("dose");
        for i in 0..40 {
            let r = scdb_types::Record::from_pairs([
                (d, Value::str(format!("d{}", i % 8))),
                (dose, Value::Int(i)),
            ]);
            handle.ingest("trials", r, None).unwrap();
        }
    }
    let before_dump = reference.state_dump();
    assert_eq!(db.state_dump(), before_dump);

    let seg = "wal-00000001.seg";
    let start = live.durable_len(seg);
    db.create_index("ix_drug", "trials", "drug", IndexKind::Hash)
        .unwrap();
    reference
        .create_index("ix_drug", "trials", "drug", IndexKind::Hash)
        .unwrap();
    let end = live.durable_len(seg);
    assert!(end > start, "index create appended to the WAL");
    let after_create = live.fork();

    for cut in start + 1..end {
        let victim = after_create.fork();
        victim.cut_durable(seg, cut);
        let recovered = open_store(&victim, 1 << 20).expect("reopen after cut");
        assert_eq!(
            recovered.state_dump(),
            before_dump,
            "cut at byte {cut} inside the IndexCreate record must void it"
        );
        assert!(
            recovered.indexes().is_empty(),
            "cut at byte {cut}: no phantom index definition"
        );
    }

    let whole = after_create.fork();
    whole.cut_durable(seg, end);
    let recovered = open_store(&whole, 1 << 20).expect("reopen at record end");
    assert_eq!(recovered.state_dump(), reference.state_dump());
    assert_eq!(recovered.indexes().len(), 1);
    // Post-recovery ingest keeps maintaining the rebuilt index, and the
    // index access path agrees with a forced full scan (the range form
    // defeats the hash index).
    let d = recovered.intern("drug");
    let dose = recovered.intern("dose");
    recovered
        .ingest(
            "trials",
            scdb_types::Record::from_pairs([(d, Value::str("d3")), (dose, Value::Int(999))]),
            None,
        )
        .unwrap();
    let indexed = recovered
        .query("SELECT drug, dose FROM trials WHERE drug = 'd3'")
        .unwrap();
    assert!(indexed.plan.index_scan().is_some(), "{}", indexed.plan);
    let forced = recovered
        .query("SELECT drug, dose FROM trials WHERE drug >= 'd3' AND drug <= 'd3'")
        .unwrap();
    assert!(forced.plan.index_scan().is_none());
    assert_eq!(indexed.rows, forced.rows, "index path ≡ full scan");
    assert_eq!(indexed.rows.len(), 6);
}

#[test]
fn enospc_mid_checkpoint_recovers_pre_checkpoint_snapshot_plus_wal() {
    // The medium fills up partway through writing checkpoint #2's
    // staging snapshot. Nothing is lost: a crashed fork must recover
    // from checkpoint #1's snapshot plus the complete WAL suffix —
    // i.e. every committed op — and no `.tmp` litter may survive.
    let ops = crash_schedule(
        &ScheduleConfig {
            ops: 24,
            kv_rate: 0.25,
            ..ScheduleConfig::default()
        },
        17,
    );
    let live = FailpointLog::new();
    let plan = live.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(live.clone())))
        .open()
        .expect("open injected store");
    let reference = Db::builder().build();
    for (i, op) in ops.iter().enumerate() {
        apply(&db, op).unwrap_or_else(|e| panic!("durable op {i}: {e}"));
        apply(&reference, op).unwrap();
        if i == ops.len() / 2 {
            db.checkpoint().expect("checkpoint #1 is healthy");
        }
    }
    let committed = reference.state_dump();
    assert_eq!(db.state_dump(), committed);

    // ENOSPC 32 bytes into the next append: checkpoint #2's snapshot
    // write lands a partial `.tmp` prefix and dies.
    let _ = plan.clone().enospc_after_bytes(plan.appended_bytes() + 32);
    db.checkpoint()
        .expect_err("checkpoint #2 hits the full medium");
    assert!(
        live.file_names().iter().all(|n| !n.ends_with(".tmp")),
        "failed checkpoint removed its staging file: {:?}",
        live.file_names()
    );

    // Power loss on the post-failure image: recovery roots at the old
    // snapshot and replays the WAL suffix to the full committed state.
    let fork = live.fork();
    fork.crash();
    drop(db);
    let recovered = open_store(&fork, 1 << 20).expect("reopen after failed checkpoint");
    assert_eq!(
        recovered.state_dump(),
        committed,
        "pre-checkpoint snapshot + WAL suffix reconstruct every committed op"
    );
    let report = recovered
        .recovery_report()
        .expect("durable open has a report");
    assert!(
        report.wal.snapshot_seq.is_some(),
        "recovery rooted at checkpoint #1's snapshot"
    );
    assert!(
        report.records_replayed > 0,
        "the post-checkpoint WAL suffix was replayed"
    );
}

#[test]
fn fs_store_schedule_survives_reopen_generations() {
    let dir = std::env::temp_dir().join(format!("scdb-crash-matrix-fs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ops = crash_schedule(
        &ScheduleConfig {
            ops: 30,
            kv_rate: 0.25,
            checkpoint_every: Some(10),
            ..ScheduleConfig::default()
        },
        21,
    );
    let reference = Db::builder().build();
    {
        let db = Db::builder()
            .durability_config(
                DurabilityConfig::dir(&dir)
                    .fsync(FsyncPolicy::EveryN(4))
                    .segment_bytes(1024),
            )
            .open()
            .unwrap();
        for op in &ops {
            apply(&db, op).unwrap();
            apply(&reference, op).unwrap();
        }
        // Clean shutdown: Drop syncs the EveryN tail.
    }
    // Generation 2: recover, verify, keep curating.
    let db = Db::open(&dir).unwrap();
    assert_eq!(db.state_dump(), reference.state_dump());
    let more = crash_schedule(&ScheduleConfig::default(), 22);
    for op in &more {
        apply(&db, op).unwrap();
        apply(&reference, op).unwrap();
    }
    drop(db);
    // Generation 3: both rounds survive.
    let db = Db::open(&dir).unwrap();
    assert_eq!(db.state_dump(), reference.state_dump());
    let _ = std::fs::remove_dir_all(&dir);
}
