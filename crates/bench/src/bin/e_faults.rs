//! E-FAULTS — storage-fault resilience: degraded mode, fail-fast
//! writes, and probe-driven recovery (DESIGN.md §11 "Fault handling &
//! degraded operation").
//!
//! A self-curating database is meant to run unattended, so the
//! interesting question is not *whether* the disk fails but what the
//! node does while it is failing. This experiment arms a `FaultPlan`
//! with a persistent fsync failure against a live queued durable
//! [`Db`] and measures the degraded-mode contract end to end:
//!
//! 1. **trip** — the first write behind the fault trips the node into
//!    `DbMode::Degraded`;
//! 2. **degraded window** — every read keeps serving (failure count
//!    must be zero) while every write fails fast with
//!    `CoreError::Degraded` (p99 fail latency is reported: fail-fast,
//!    not fail-after-timeout, and no ticket ever hangs);
//! 3. **recover** — the fault clears and the background probe re-arms
//!    durability *without a reopen*; time back to `DbMode::Normal` is
//!    the recovery latency.
//!
//! A second arm panics the group-commit committer mid-batch and checks
//! the supervisor contract: every in-flight ticket resolves, the
//! thread restarts, and the next ingest commits.
//!
//! One machine-readable `BENCH JSON {...}` line reports reads/writes
//! during the window, fail-fast latency, recovery latency, injected
//! fault count, and the supervisor counters. `--smoke` *asserts* the
//! acceptance contract (zero failed reads, all writes Degraded, node
//! back to Normal, transitions in the flight recorder and health
//! report).

use std::time::{Duration, Instant};

use scdb_core::{CoreError, Db, DbMode, DurabilityConfig, FailpointLog, IngestConfig};
use scdb_types::{Record, Value};

use scdb_bench::{banner, Table};

const SEED_ROWS: usize = 256;
const SMOKE_SEED_ROWS: usize = 64;
const DEGRADED_READS: usize = 400;
const DEGRADED_WRITES: usize = 200;
const SMOKE_DEGRADED_OPS: usize = 50;

fn record(db: &Db, i: usize) -> Record {
    Record::from_pairs([
        (db.intern("name"), Value::str(format!("drug-{}", i % 32))),
        (db.intern("dose"), Value::Float((i % 10) as f64 + 0.5)),
    ])
}

struct FaultRun {
    seed_rows: usize,
    trip_ms: f64,
    reads_ok: usize,
    reads_failed: usize,
    writes_degraded: usize,
    writes_other: usize,
    write_fail_p99_us: f64,
    recover_ms: f64,
    recovered_without_reopen: bool,
    post_recovery_commits: usize,
    injected: u64,
}

/// The persistent-fsync-failure scenario: seed → trip → degraded
/// window (reads green, writes fail fast) → clear → probe recovery.
fn run_fault_cycle(seed_rows: usize, degraded_ops: usize) -> FaultRun {
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .ingest_config(IngestConfig::queued(64))
        .open()
        .expect("open durable db");
    db.register_source("bench", Some("name"));
    for chunk in (0..seed_rows).collect::<Vec<_>>().chunks(64) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|&i| {
                db.ingest_async("bench", record(&db, i), None)
                    .expect("submit")
            })
            .collect();
        for t in tickets {
            t.wait().expect("seed commit");
        }
    }
    assert!(matches!(db.mode(), DbMode::Normal));

    // Trip: every fsync from here on fails until cleared.
    let _ = plan.clone().fail_fsyncs_from(1);
    let trip_started = Instant::now();
    let trip_err = db
        .ingest("bench", record(&db, seed_rows), None)
        .expect_err("the tripping write fails");
    let trip_ms = trip_started.elapsed().as_secs_f64() * 1e3;
    assert!(db.mode().is_degraded(), "node degraded after {trip_err}");

    // Degraded window: interleave reads and writes.
    let mut reads_ok = 0usize;
    let mut reads_failed = 0usize;
    let mut writes_degraded = 0usize;
    let mut writes_other = 0usize;
    let mut write_fail_us: Vec<f64> = Vec::with_capacity(degraded_ops);
    for i in 0..degraded_ops {
        match db.query("SELECT name, dose FROM bench WHERE dose >= 0.0") {
            Ok(out) if out.rows.len() == seed_rows => reads_ok += 1,
            _ => reads_failed += 1,
        }
        let w = Instant::now();
        let outcome = match db.ingest_async("bench", record(&db, seed_rows + i), None) {
            Ok(ticket) => ticket.wait().map(|_| ()),
            Err(e) => Err(e),
        };
        write_fail_us.push(w.elapsed().as_secs_f64() * 1e6);
        match outcome {
            Err(CoreError::Degraded(_)) => writes_degraded += 1,
            _ => writes_other += 1,
        }
    }
    write_fail_us.sort_by(|a, b| a.total_cmp(b));
    let write_fail_p99_us = write_fail_us
        .get((write_fail_us.len().saturating_sub(1)) * 99 / 100)
        .copied()
        .unwrap_or(0.0);

    // Recover: clear the fault, wait for the probe (50 ms · 2ⁿ backoff)
    // to re-arm the node — no reopen.
    plan.clear();
    let recover_started = Instant::now();
    let mut recovered_without_reopen = false;
    while recover_started.elapsed() < Duration::from_secs(15) {
        if matches!(db.mode(), DbMode::Normal) {
            recovered_without_reopen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let recover_ms = recover_started.elapsed().as_secs_f64() * 1e3;
    let mut post_recovery_commits = 0usize;
    if recovered_without_reopen {
        for i in 0..8 {
            if db.ingest("bench", record(&db, 10_000 + i), None).is_ok() {
                post_recovery_commits += 1;
            }
        }
    }
    FaultRun {
        seed_rows,
        trip_ms,
        reads_ok,
        reads_failed,
        writes_degraded,
        writes_other,
        write_fail_p99_us,
        recover_ms,
        recovered_without_reopen,
        post_recovery_commits,
        injected: plan.injected(),
    }
}

struct SupervisorRun {
    tickets: usize,
    failed_tickets: usize,
    hung_tickets: usize,
    restarted: bool,
    post_restart_commit: bool,
}

/// The committer-panic scenario: a batch dies mid-append on the
/// committer thread; the supervisor must fail its tickets, restart the
/// thread, and the next ingest must commit.
fn run_supervisor_cycle() -> SupervisorRun {
    let restarts_before = scdb_obs::metrics().counter("core.thread.restarts").get();
    let log = FailpointLog::new();
    let plan = log.plan();
    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .ingest_config(IngestConfig::queued(64))
        .open()
        .expect("open durable db");
    db.register_source("bench", Some("name"));
    db.ingest("bench", record(&db, 0), None).expect("seed");

    let _ = plan.clone().panic_on_nth_append(1);
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            db.ingest_async("bench", record(&db, i), None)
                .expect("submit")
        })
        .collect();
    let n = tickets.len();
    let mut failed = 0usize;
    for t in tickets {
        // `wait` returning at all is the no-hang assertion; the harness
        // would time out otherwise.
        if t.wait().is_err() {
            failed += 1;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut restarted = false;
    while Instant::now() < deadline {
        if scdb_obs::metrics().counter("core.thread.restarts").get() > restarts_before {
            restarted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let post_restart_commit = db
        .ingest_async("bench", record(&db, 999), None)
        .and_then(|t| t.wait())
        .is_ok();
    SupervisorRun {
        tickets: n,
        failed_tickets: failed,
        hung_tickets: 0,
        restarted,
        post_restart_commit,
    }
}

fn emit(fault: &FaultRun, sup: &SupervisorRun) {
    let mut table = Table::new(&["phase", "metric", "value"]);
    table.row(&[
        "trip".into(),
        "first-write ms".into(),
        format!("{:.2}", fault.trip_ms),
    ]);
    table.row(&[
        "degraded".into(),
        "reads ok/failed".into(),
        format!("{}/{}", fault.reads_ok, fault.reads_failed),
    ]);
    table.row(&[
        "degraded".into(),
        "writes degraded/other".into(),
        format!("{}/{}", fault.writes_degraded, fault.writes_other),
    ]);
    table.row(&[
        "degraded".into(),
        "write fail p99 us".into(),
        format!("{:.1}", fault.write_fail_p99_us),
    ]);
    table.row(&[
        "recover".into(),
        "back-to-normal ms".into(),
        format!("{:.1}", fault.recover_ms),
    ]);
    table.row(&[
        "recover".into(),
        "without reopen".into(),
        fault.recovered_without_reopen.to_string(),
    ]);
    table.row(&[
        "supervisor".into(),
        "tickets failed/hung".into(),
        format!("{}/{}", sup.failed_tickets, sup.hung_tickets),
    ]);
    table.row(&[
        "supervisor".into(),
        "restarted + committed".into(),
        format!("{} + {}", sup.restarted, sup.post_restart_commit),
    ]);
    println!("\n{}", table.render());
    println!(
        "BENCH JSON {{\"experiment\":\"faults\",\"seed_rows\":{},\
         \"trip_ms\":{:.2},\"reads_ok\":{},\"reads_failed\":{},\
         \"writes_degraded\":{},\"writes_other\":{},\
         \"write_fail_p99_us\":{:.1},\"recover_ms\":{:.1},\
         \"recovered_without_reopen\":{},\"post_recovery_commits\":{},\
         \"faults_injected\":{},\"supervisor_tickets\":{},\
         \"supervisor_failed\":{},\"supervisor_restarted\":{},\
         \"post_restart_commit\":{}}}",
        fault.seed_rows,
        fault.trip_ms,
        fault.reads_ok,
        fault.reads_failed,
        fault.writes_degraded,
        fault.writes_other,
        fault.write_fail_p99_us,
        fault.recover_ms,
        fault.recovered_without_reopen,
        fault.post_recovery_commits,
        fault.injected,
        sup.tickets,
        sup.failed_tickets,
        sup.restarted,
        sup.post_restart_commit,
    );
}

fn check(fault: &FaultRun, sup: &SupervisorRun) -> i32 {
    let mut ok = true;
    let mut gate = |pass: bool, label: &str| {
        if pass {
            println!("smoke: {label} OK");
        } else {
            println!("SMOKE FAIL: {label}");
            ok = false;
        }
    };
    gate(
        fault.reads_failed == 0 && fault.reads_ok > 0,
        "zero failed reads while degraded",
    );
    gate(
        fault.writes_other == 0 && fault.writes_degraded > 0,
        "every degraded write failed fast with CoreError::Degraded",
    );
    gate(
        fault.recovered_without_reopen,
        "node returned to DbMode::Normal without reopening",
    );
    gate(
        fault.post_recovery_commits > 0,
        "writes commit again after recovery",
    );
    gate(fault.injected > 0, "the fault plan actually fired");
    gate(
        sup.failed_tickets > 0 && sup.hung_tickets == 0,
        "committer panic failed its batch without hanging a ticket",
    );
    gate(
        sup.restarted && sup.post_restart_commit,
        "supervisor restarted the committer and the next ingest committed",
    );
    let events = scdb_obs::events().snapshot();
    let has = |kind: &str| {
        events
            .iter()
            .any(|e| e.subsystem.as_str() == "core" && e.kind.as_str() == kind)
    };
    gate(
        has("mode.degrade") && has("mode.recover"),
        "mode transitions visible in the flight recorder",
    );
    gate(
        has("thread.panic") && has("thread.restart"),
        "supervisor events visible in the flight recorder",
    );
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    banner(
        "E-FAULTS",
        "storage-fault resilience (DESIGN.md §11): degraded mode + supervised recovery",
        "a persistent fsync failure must trip the node into read-only degraded mode — \
         reads keep serving, writes fail fast, nothing hangs — and the recovery probe \
         must re-arm durability without a reopen once the fault clears; a committer \
         panic must fail its batch and restart under supervision",
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    scdb_obs::metrics().reset();
    let (seed, ops) = if smoke {
        (SMOKE_SEED_ROWS, SMOKE_DEGRADED_OPS)
    } else {
        (SEED_ROWS, DEGRADED_WRITES.max(DEGRADED_READS))
    };
    let fault = run_fault_cycle(seed, ops);
    let sup = run_supervisor_cycle();
    emit(&fault, &sup);

    // The health report carries the mode section (rendered once here so
    // the experiment output doubles as documentation of the shape).
    let probe = Db::builder().build();
    let report = probe.health_report();
    println!(
        "health report mode counters: tripped={} recoveries={} injected={} \
         thread_panics={} thread_restarts={}",
        report.mode.tripped,
        report.mode.recoveries,
        report.mode.faults_injected,
        report.mode.thread_panics,
        report.mode.thread_restarts
    );

    if smoke {
        std::process::exit(check(&fault, &sup));
    }
    println!("\nshape check: reads_failed must be 0 and writes split cleanly into Degraded;");
    println!("write-fail p99 sits in microseconds (fail-fast gate, no I/O attempted); the");
    println!("recovery latency tracks the probe's 50 ms · 2^n backoff schedule.");
}
