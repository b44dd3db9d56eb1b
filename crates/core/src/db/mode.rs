//! Write availability: the degraded read-only mode machine with its
//! recovery probe, and the supervisor that keeps the background
//! threads (committers, telemetry sampler) alive across panics.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use scdb_obs::{metrics, FieldValue as F};

use super::ingest::{lock_inflight, InflightTickets};
use super::{Db, DbInner};
use crate::error::CoreError;

/// The write-availability state of a [`Db`] node.
///
/// A persistent WAL failure — an append or fsync error that survives
/// the bounded retry, or a background-thread restart storm — trips the
/// node from `Normal` to `Degraded` *read-only* operation instead of
/// wedging or corrupting: every write entry point fails fast with
/// [`CoreError::Degraded`], reads keep serving from the in-memory
/// shards, and a background recovery probe re-arms durability (with
/// exponential backoff) once the fault clears. Observe with
/// [`Db::mode`]; force an immediate probe with [`Db::try_recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbMode {
    /// Writes and reads both serving.
    Normal,
    /// Read-only: the write path is tripped.
    Degraded {
        /// Rendered cause of the trip (the WAL error or storm).
        reason: String,
        /// When the node degraded, milliseconds since the
        /// flight-recorder epoch (comparable to event timestamps).
        since_ms: u64,
    },
}

impl DbMode {
    /// True in [`DbMode::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, DbMode::Degraded { .. })
    }
}

/// Mode-machine state behind [`DbInner::degraded`]'s fast-path flag.
pub(super) struct ModeState {
    pub(super) mode: DbMode,
    /// True while a recovery-probe thread is alive — at most one runs.
    pub(super) probing: bool,
}

impl Db {
    /// The node's current write-availability mode (see [`DbMode`]).
    pub fn mode(&self) -> DbMode {
        self.inner.mode.lock().mode.clone()
    }

    /// One immediate recovery probe (the background probe keeps its own
    /// backoff schedule): fsync the active WAL segment through the full
    /// store stack, and return to [`DbMode::Normal`] if the medium
    /// accepted it. Returns the mode after the probe. A no-op in
    /// `Normal` mode.
    pub fn try_recover(&self) -> DbMode {
        if self.inner.degraded.load(Ordering::Relaxed) && self.probe_durability() {
            self.mark_recovered(false);
        }
        self.mode()
    }

    /// The write gate every mutating entry point passes first: one
    /// relaxed load while healthy, a fail-fast [`CoreError::Degraded`]
    /// (with the trip cause) while degraded.
    pub(super) fn ensure_writable(&self) -> Result<(), CoreError> {
        if !self.inner.degraded.load(Ordering::Relaxed) {
            return Ok(());
        }
        match &self.inner.mode.lock().mode {
            DbMode::Degraded { reason, .. } => Err(CoreError::Degraded(reason.clone())),
            // The flag raced a concurrent recovery; mode is the truth.
            DbMode::Normal => Ok(()),
        }
    }

    /// Wrap a WAL error for the caller, tripping degraded mode first
    /// when it is an I/O failure: the WAL already spent its bounded
    /// retry budget, so an I/O error surfacing here is persistent.
    pub(super) fn trip_on_io(&self, e: scdb_txn::TxnError) -> CoreError {
        if e.io_class().is_some() {
            self.trip_degraded(e.to_string());
        }
        CoreError::Txn(e)
    }

    /// Trip to degraded read-only mode and start the recovery probe.
    /// Idempotent: a node already degraded keeps its original reason
    /// and trip time. Callable while holding shard locks (`mode` is a
    /// leaf lock; the probe runs on its own thread).
    fn trip_degraded(&self, reason: String) {
        self.trip_degraded_for_batch(reason, 0);
    }

    /// [`trip_degraded`](Self::trip_degraded) with the correlation id of
    /// the batch whose WAL failure caused the trip (0 = not
    /// batch-caused), stamped on the `mode.degrade` event so the
    /// degraded leg joins the batch's `sys.events` journey.
    pub(super) fn trip_degraded_for_batch(&self, reason: String, batch_id: u64) {
        let mut state = self.inner.mode.lock();
        if state.mode.is_degraded() {
            return;
        }
        let since_ms = scdb_obs::event::coarse_now_ms();
        state.mode = DbMode::Degraded {
            reason: reason.clone(),
            since_ms,
        };
        self.inner.degraded.store(true, Ordering::Relaxed);
        let m = metrics();
        m.inc("core.fault.tripped");
        m.gauge_set("core.mode", 1);
        scdb_obs::events().record_with_message(
            "core",
            "mode.degrade",
            &[
                ("since_ms", F::U64(since_ms)),
                ("batch_id", F::U64(batch_id)),
            ],
            &reason,
        );
        scdb_obs::warn(format!("degraded read-only mode: {reason}"));
        if !state.probing {
            state.probing = true;
            let weak = Arc::downgrade(&self.inner);
            let spawned = std::thread::Builder::new()
                .name("scdb-recovery-probe".to_string())
                .spawn(move || recovery_probe(weak));
            if spawned.is_err() {
                // Can't probe in the background; Db::try_recover still
                // works, and the next trip will retry the spawn.
                state.probing = false;
            }
        }
    }

    /// Fsync the active segment through the full store stack — the
    /// recovery probe's test signal. True when the medium accepted it.
    /// No writes race this while degraded (they all fail at the gate),
    /// so a clean sync really means the fault has cleared.
    fn probe_durability(&self) -> bool {
        // Every shard shares the medium, but each WAL has its own
        // active segment — all of them must accept the sync before the
        // write path re-arms.
        for shard in &self.inner.shards {
            // A volatile node has no WAL to re-arm (it only degrades via
            // restart storm): the probe trivially passes that shard.
            if let Some(wal) = shard.durable.lock().as_mut() {
                if wal.sync().is_err() {
                    return false;
                }
            }
        }
        true
    }

    /// Return to [`DbMode::Normal`]: flip the gate, count the
    /// recovery, emit `mode.recover`. `from_probe` additionally retires
    /// the probe thread's liveness flag under the same lock (so a
    /// concurrent trip can't observe a probe that is about to exit).
    fn mark_recovered(&self, from_probe: bool) {
        let mut state = self.inner.mode.lock();
        if from_probe {
            state.probing = false;
        }
        let DbMode::Degraded { since_ms, .. } = state.mode else {
            return;
        };
        state.mode = DbMode::Normal;
        self.inner.degraded.store(false, Ordering::Relaxed);
        let m = metrics();
        m.inc("core.fault.recoveries");
        m.gauge_set("core.mode", 0);
        scdb_obs::event(
            "core",
            "mode.recover",
            &[(
                "degraded_ms",
                F::U64(scdb_obs::event::coarse_now_ms().saturating_sub(since_ms)),
            )],
        );
    }
}

/// Render a panic payload for events and warnings.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Background-thread supervisor: run `body` to completion, catching
/// panics. A panic is recorded (`core`/`thread.panic`), the in-flight
/// tickets (if any) are failed so no producer hangs, and the body is
/// restarted after a capped backoff (`core`/`thread.restart`). A
/// restart *storm* — [`STORM_PANICS`] panics each within a second of
/// the last — additionally trips degraded mode: something systematic
/// is wrong and writes should fail fast rather than churn. The thread
/// keeps supervising either way; a normal return (queue closed,
/// telemetry stopped, database dropped) ends supervision.
pub(super) fn supervise(
    name: &'static str,
    inner: Weak<DbInner>,
    inflight: Option<InflightTickets>,
    mut body: impl FnMut(),
) {
    let mut streak: u32 = 0;
    let mut last_panic: Option<Instant> = None;
    loop {
        // The shard locks are parking_lot (released on unwind, no
        // poisoning) and the queue/ticket mutexes recover from poison,
        // so resuming after a caught panic is sound.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut body)) {
            Ok(()) => return,
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                metrics().inc("core.thread.panics");
                scdb_obs::events().record_with_message(
                    "core",
                    "thread.panic",
                    &[("thread", F::Str(name.into()))],
                    &msg,
                );
                scdb_obs::warn(format!("{name} thread panicked: {msg}"));
                if let Some(slot) = &inflight {
                    let orphaned = std::mem::take(&mut *lock_inflight(slot));
                    for ticket in orphaned {
                        ticket.resolve_if_pending(Err(CoreError::GroupCommit(format!(
                            "{name} thread panicked mid-batch: {msg}"
                        ))));
                    }
                }
                streak = match last_panic {
                    Some(at) if at.elapsed() < Duration::from_secs(1) => streak + 1,
                    _ => 1,
                };
                last_panic = Some(Instant::now());
                if streak >= STORM_PANICS {
                    if let Some(strong) = inner.upgrade() {
                        let db = Db { inner: strong };
                        db.trip_degraded(format!(
                            "{name} thread restart storm ({streak} rapid panics): {msg}"
                        ));
                    }
                }
                std::thread::sleep(Duration::from_millis(10u64 << streak.min(6)));
                if inner.upgrade().is_none() {
                    return;
                }
                metrics().inc("core.thread.restarts");
                scdb_obs::event(
                    "core",
                    "thread.restart",
                    &[
                        ("thread", F::Str(name.into())),
                        ("streak", F::U64(u64::from(streak))),
                    ],
                );
            }
        }
    }
}

/// Rapid panics (each within 1 s of the last) before the supervisor
/// also trips degraded mode.
const STORM_PANICS: u32 = 5;

/// The recovery-probe loop: wake on an exponential-backoff schedule
/// (50 ms · 2ⁿ, capped at 3.2 s, with deterministic jitter), probe the
/// durable medium, and re-arm the write path once it heals. At most
/// one probe runs per node (`ModeState::probing`); the loop exits when
/// the node recovers — via its own probe or [`Db::try_recover`] — or
/// the database is dropped.
fn recovery_probe(inner: Weak<DbInner>) {
    let mut attempt: u32 = 0;
    loop {
        let base_ms = 50u64 << attempt.min(6);
        // Multiplicative-hash jitter: deterministic per attempt, up to
        // a quarter of the base, so co-located probes still spread out.
        let jitter_ms = u64::from(attempt).wrapping_mul(2_654_435_761) % (base_ms / 4 + 1);
        std::thread::sleep(Duration::from_millis(base_ms + jitter_ms));
        let Some(strong) = inner.upgrade() else {
            return;
        };
        let db = Db { inner: strong };
        {
            let mut state = db.inner.mode.lock();
            if !state.mode.is_degraded() {
                // Recovered some other way; retire under the lock so a
                // concurrent trip either sees us alive or respawns.
                state.probing = false;
                return;
            }
        }
        if db.probe_durability() {
            db.mark_recovered(true);
            return;
        }
        attempt = attempt.saturating_add(1);
    }
}
