//! Storage-fault resilience (ISSUE 8 tentpole acceptance).
//!
//! A `FaultPlan` fires deterministic storage faults against a *live*
//! durable [`Db`] and the tests observe how the engine behaves while
//! the fault is happening: a persistent fsync failure trips degraded
//! read-only mode (reads keep serving, writes fail fast, no ticket
//! hangs) and the recovery probe re-arms durability once the fault
//! clears; a committer panic mid-batch resolves every in-flight ticket
//! and the supervisor restarts the thread; a failed checkpoint leaves
//! no staging litter behind; and the group-commit flush deadline bounds
//! lone-row latency.

use std::time::{Duration, Instant};

use scdb_core::{CoreError, Db, DbMode, DurabilityConfig, FailpointLog, IngestConfig};
use scdb_er::normalize::normalize;
use scdb_placement::{PlacementPolicy, ShardMap};
use scdb_types::{Record, Value};

fn row(db: &Db, i: i64) -> Record {
    Record::from_pairs([
        (db.intern("name"), Value::str(format!("drug-{}", i % 5))),
        (db.intern("dose"), Value::Int(i)),
    ])
}

/// Poll until `done` returns true or the deadline passes.
fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < timeout,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `register_source` panics where `try_register_source` refuses a
/// degraded, read-only database.
#[test]
#[should_panic(expected = "database is degraded (read-only)")]
fn register_source_panics_on_a_degraded_database() {
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .open()
        .expect("open durable db");
    db.register_source("trials", Some("name"));
    let _ = plan.fail_fsyncs_from(1);
    db.ingest("trials", row(&db, 0), None).unwrap_err();
    assert!(db.mode().is_degraded());
    db.register_source("reviews", None);
}

#[test]
fn persistent_fsync_failure_degrades_then_recovers_without_reopen() {
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .open()
        .expect("open durable db");
    db.register_source("trials", Some("name"));
    for i in 0..8 {
        db.ingest("trials", row(&db, i), None).expect("seed ingest");
    }
    assert!(matches!(db.mode(), DbMode::Normal));

    // Every fsync from the next one on fails: the bounded retry cannot
    // clear a persistent fault, so the first write trips the node.
    let _ = plan.clone().fail_fsyncs_from(1);
    let err = db.ingest("trials", row(&db, 100), None).unwrap_err();
    assert!(
        err.to_string().contains("injected fsync-fail"),
        "tripping write carries the WAL cause: {err}"
    );
    assert!(db.mode().is_degraded(), "node degraded after WAL failure");

    // Degraded contract: writes of every kind fail fast with
    // `CoreError::Degraded`, reads keep serving.
    for attempt in 0..3 {
        let err = db
            .ingest("trials", row(&db, 200 + attempt), None)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Degraded(_)),
            "degraded write {attempt} fails fast: {err}"
        );
    }
    assert!(matches!(
        db.checkpoint().unwrap_err(),
        CoreError::Degraded(_)
    ));
    assert!(matches!(
        db.kv_enrich(7, Value::Int(1)).unwrap_err(),
        CoreError::Degraded(_)
    ));
    let out = db
        .query("SELECT name, dose FROM trials WHERE dose >= 0")
        .expect("reads serve while degraded");
    assert_eq!(out.rows.len(), 8, "committed rows stay visible");

    // The health report shows the trip.
    let report = db.health_report();
    assert!(report.mode.degraded);
    assert!(report.mode.tripped >= 1);
    let rendered = report.render();
    assert!(rendered.contains("DEGRADED"), "{rendered}");

    // Clear the fault: the recovery probe re-arms durability without a
    // reopen (exponential backoff starts at 50 ms).
    plan.clear();
    wait_until(
        "recovery probe to re-arm the node",
        Duration::from_secs(10),
        || matches!(db.mode(), DbMode::Normal),
    );
    db.ingest("trials", row(&db, 300), None)
        .expect("writes succeed after recovery");
    let report = db.health_report();
    assert!(!report.mode.degraded);
    assert!(report.mode.recoveries >= 1);

    // The flight recorder saw the transition both ways.
    let events = scdb_obs::events().snapshot();
    let has = |kind: &str| {
        events
            .iter()
            .any(|e| e.subsystem.as_str() == "core" && e.kind.as_str() == kind)
    };
    assert!(has("mode.degrade"), "mode.degrade event recorded");
    assert!(has("mode.recover"), "mode.recover event recorded");

    // Everything that was acked survives a crash + reopen.
    log.crash();
    drop(db);
    let recovered = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .open()
        .expect("reopen after the fault episode");
    let out = recovered
        .query("SELECT name, dose FROM trials WHERE dose >= 0")
        .unwrap();
    assert_eq!(out.rows.len(), 9, "8 seeds + 1 post-recovery ingest");
}

#[test]
fn try_recover_is_a_manual_probe() {
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .open()
        .unwrap();
    db.register_source("s", None);
    let _ = plan.clone().fail_fsyncs_from(1);
    assert!(db.ingest("s", row(&db, 1), None).is_err());
    assert!(db.mode().is_degraded());
    // While the fault persists, a manual probe stays degraded.
    assert!(db.try_recover().is_degraded());
    plan.clear();
    // Once it clears, the manual probe recovers immediately — no need
    // to wait out the background backoff.
    assert!(matches!(db.try_recover(), DbMode::Normal));
    db.ingest("s", row(&db, 2), None).expect("recovered write");
}

#[test]
fn committer_panic_mid_batch_resolves_every_ticket_and_restarts() {
    let panics_before = scdb_obs::metrics().counter("core.thread.panics").get();
    let restarts_before = scdb_obs::metrics().counter("core.thread.restarts").get();
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .ingest_config(IngestConfig::queued(64))
        .open()
        .expect("open queued durable db");
    db.register_source("trials", Some("name"));
    db.ingest("trials", row(&db, 0), None).expect("seed ingest");

    // The next WAL append — the committer sealing its batch — panics on
    // the committer thread.
    let _ = plan.clone().panic_on_nth_append(1);
    let tickets: Vec<_> = (1..=12)
        .map(|i| {
            db.ingest_async("trials", row(&db, i), None)
                .expect("submit")
        })
        .collect();
    // Every ticket resolves: the batch that died mid-append fails via
    // the supervisor, anything still queued commits after the restart.
    // Nothing hangs — `wait` returning at all is the assertion.
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let failed = results.iter().filter(|r| r.is_err()).count();
    assert!(failed >= 1, "the dying batch failed its producers");
    for r in results.iter().filter(|r| r.is_err()) {
        let msg = r.as_ref().unwrap_err().to_string();
        assert!(
            msg.contains("panic"),
            "ticket failure names the panic: {msg}"
        );
    }

    // The supervisor restarted the committer: new ingests still commit.
    wait_until("supervisor restart", Duration::from_secs(10), || {
        scdb_obs::metrics().counter("core.thread.restarts").get() > restarts_before
    });
    db.ingest_async("trials", row(&db, 500), None)
        .expect("submit after restart")
        .wait()
        .expect("group commit after restart");
    assert!(
        scdb_obs::metrics().counter("core.thread.panics").get() > panics_before,
        "panic was counted"
    );
    let events = scdb_obs::events().snapshot();
    let has = |kind: &str| {
        events
            .iter()
            .any(|e| e.subsystem.as_str() == "core" && e.kind.as_str() == kind)
    };
    assert!(has("thread.panic"), "thread.panic event recorded");
    assert!(has("thread.restart"), "thread.restart event recorded");
}

/// The two-shard arm of the committer panic: a queued mixed-key batch
/// whose second participant's append panics leaves no half behind,
/// neither in the live database nor in what a reopen recovers.
#[test]
fn committer_panic_between_participants_leaves_no_half_batch() {
    let map = ShardMap::build(PlacementPolicy::Range, 2, &[]);
    let keys_on = |shard: u32, n: usize| -> Vec<String> {
        (0..)
            .map(|i| format!("entity-{i}"))
            .filter(|k| map.shard_of_key(&normalize(k)) == shard)
            .take(n)
            .collect()
    };
    let open = |log: &FailpointLog| {
        Db::builder()
            .durability_config(DurabilityConfig::store(Box::new(log.clone())))
            .ingest_config(IngestConfig::queued(64))
            .write_shards(2)
            .open()
    };
    let entry = |db: &Db, key: &str, dose: i64| {
        Record::from_pairs([
            (db.intern("name"), Value::str(key)),
            (db.intern("dose"), Value::Int(dose)),
        ])
    };
    let (home, away) = (keys_on(0, 2), keys_on(1, 1));
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = open(&log).expect("open queued two-shard db");
    db.register_source("trials", Some("name"));
    db.ingest("trials", entry(&db, &home[0], 0), None)
        .expect("seed ingest");
    let before = db.state_dump();
    let sizes = |log: &FailpointLog| -> Vec<u64> {
        log.file_names()
            .iter()
            .map(|name| log.durable_len(name))
            .collect()
    };
    let sizes_before = sizes(&log);

    // The set-up appended three times: the source registration on each
    // shard's log, then the seed row. The batch's participants append
    // in shard order, so its fifth append is shard 1's.
    let _ = plan.clone().panic_on_nth_append(3 + 2);
    let err = db
        .ingest_batch(
            "trials",
            vec![entry(&db, &home[1], 1), entry(&db, &away[0], 2)],
        )
        .expect_err("the batch whose commit panicked fails");
    assert!(err.to_string().contains("panic"), "names the panic: {err}");
    assert_eq!(
        db.state_dump(),
        before,
        "the live database holds neither half of the failed batch"
    );
    let sizes_after = sizes(&log);
    assert!(
        sizes_after[0] > sizes_before[0] && sizes_after[1] == sizes_before[1],
        "the panic struck between the participants: {sizes_before:?} -> {sizes_after:?}"
    );
    let reopened = open(&log.fork()).expect("reopen a fork");
    assert_eq!(
        reopened.state_dump(),
        db.state_dump(),
        "recovery discards shard 0's sealed half, as the live database did"
    );
}

#[test]
fn degraded_mode_fails_queued_tickets_fast() {
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .ingest_config(IngestConfig::queued(32))
        .open()
        .unwrap();
    db.register_source("s", Some("name"));
    db.ingest_async("s", row(&db, 0), None)
        .unwrap()
        .wait()
        .expect("seed commit");

    let _ = plan.clone().fail_fsyncs_from(1);
    // The tripping batch fans out its WAL failure to its own tickets —
    // and trips degraded mode *before* resolving them, so by the time
    // `wait` returns the node is read-only.
    let tripping = db.ingest_async("s", row(&db, 1), None).expect("submit");
    assert!(tripping.wait().is_err(), "the tripping batch fails");
    assert!(db.mode().is_degraded());
    // Every write behind the trip fails fast with `Degraded` — at
    // submit (the producer gate) or at resolve (the committer gate for
    // anything already queued). Nothing hangs, nothing commits.
    let started = Instant::now();
    for i in 2..=16 {
        let outcome = match db.ingest_async("s", row(&db, i), None) {
            Ok(ticket) => ticket.wait().map(|_| ()),
            Err(e) => Err(e),
        };
        match outcome {
            Ok(()) => panic!("no write may commit once the WAL is down"),
            Err(CoreError::Degraded(_)) => {}
            Err(e) => panic!("degraded write must fail with Degraded, got: {e}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "degraded writes fail fast, not after timeouts"
    );
}

#[test]
fn failed_checkpoint_leaves_no_staging_file() {
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .open()
        .unwrap();
    db.register_source("trials", Some("name"));
    for i in 0..10 {
        db.ingest("trials", row(&db, i), None).unwrap();
    }
    db.checkpoint().expect("healthy checkpoint");
    for i in 10..14 {
        db.ingest("trials", row(&db, i), None).unwrap();
    }

    // The medium fills 16 bytes into the *next* append — the snapshot
    // staging write — so the checkpoint dies with a partial `.tmp`.
    let _ = plan.clone().enospc_after_bytes(plan.appended_bytes() + 16);
    let err = db.checkpoint().unwrap_err();
    assert!(matches!(err, CoreError::Txn(_)), "checkpoint failed: {err}");
    assert!(
        log.file_names().iter().all(|n| !n.ends_with(".tmp")),
        "failed checkpoint removed its staging file: {:?}",
        log.file_names()
    );

    // The ENOSPC write tripped degraded mode; clear and recover, then a
    // retried checkpoint succeeds and the node keeps curating.
    plan.clear();
    wait_until("recovery after ENOSPC", Duration::from_secs(10), || {
        !db.try_recover().is_degraded()
    });
    db.checkpoint()
        .expect("checkpoint after the medium drained");
    db.ingest("trials", row(&db, 99), None).unwrap();
    let out = db
        .query("SELECT name, dose FROM trials WHERE dose >= 0")
        .unwrap();
    assert_eq!(out.rows.len(), 15);
}

#[test]
fn max_delay_flushes_a_lone_row_within_the_bound() {
    let flushes_before = scdb_obs::metrics()
        .counter("txn.group_commit.deadline_flushes")
        .get();
    // Capacity 64 with one row: without the deadline the committer
    // would flush immediately on the non-empty queue — the deadline
    // path *holds* the batch open, so the ticket resolving at all
    // (rather than after 60 s) is what proves the bound.
    let db = Db::builder()
        .ingest_config(IngestConfig::queued(64).max_delay(Duration::from_millis(25)))
        .build();
    db.register_source("s", Some("name"));
    let started = Instant::now();
    db.ingest_async("s", row(&db, 1), None)
        .unwrap()
        .wait()
        .expect("lone row commits");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "lone row committed within a bounded window, took {elapsed:?}"
    );
    assert!(
        scdb_obs::metrics()
            .counter("txn.group_commit.deadline_flushes")
            .get()
            > flushes_before,
        "the flush was deadline-triggered"
    );
}
