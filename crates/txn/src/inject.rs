//! The fault schedule of the in-memory medium.
//!
//! Every [`FailpointLog`](crate::FailpointLog) carries one [`FaultPlan`]
//! and consults it on each append and fsync. The plan holds all eight
//! fault kinds, so one object serves both styles of test:
//!
//! * the crash matrix's byte-level faults — a **torn write** at a chosen
//!   byte, a burst of transient **`Interrupted`** errors (exercising the
//!   WAL's bounded retry), and a **lying fsync** that persists only a
//!   prefix yet reports success;
//! * the runtime faults fired against a *live* database — the **nth
//!   fsync** fails once, **every fsync from the nth** fails until
//!   cleared, the medium fills after an **ENOSPC byte budget**, appends
//!   fail with a **seeded probability**, or an append **panics** on the
//!   committer thread. These let tests (and the `e_faults` bench)
//!   observe how the engine behaves *while* the fault is happening:
//!   degraded mode, fast-failing writes, supervised thread restarts.
//!
//! Clones of a plan share its schedule, so a test keeps one to
//! [`clear`](FaultPlan::clear) the fault on a running database and
//! watch the recovery probe bring the node back to normal mode.

use std::io;
use std::sync::Arc;

use parking_lot::Mutex;
use scdb_obs::FieldValue as F;

/// The armed faults plus the medium's call and byte counters.
#[derive(Debug, Default)]
struct Schedule {
    /// One-shot: the append that would carry `appended_bytes` past this
    /// mark lands only the bytes before it, then fails.
    torn_at: Option<u64>,
    /// The next `n` append/sync calls fail with `Interrupted`.
    interrupts: u32,
    /// One-shot: the next sync persists only this many pending bytes,
    /// yet reports success.
    lying_keep: Option<u64>,
    /// One-shot: fail the nth `sync` call (1-based).
    fail_nth_fsync: Option<u64>,
    /// Persistent: fail every `sync` call from the nth (1-based) on.
    fail_fsyncs_from: Option<u64>,
    /// Appends beyond this many total bytes land a prefix and fail with
    /// `StorageFull`.
    enospc_after_bytes: Option<u64>,
    /// Probability in `[0, 1]` that an append fails, with the current
    /// xorshift state of the seeded generator.
    write_error: Option<(f64, u64)>,
    /// One-shot: panic on the nth `append` call (1-based).
    panic_on_nth_append: Option<u64>,
    /// `sync` calls observed.
    fsyncs: u64,
    /// `append` calls observed.
    appends: u64,
    /// Bytes that landed on the medium (partial prefixes included).
    appended_bytes: u64,
    /// Faults fired since the medium was created (never reset).
    injected: u64,
}

impl Schedule {
    /// Draw from the seeded generator: true when this append fails.
    fn roll_write_error(&mut self) -> bool {
        let Some((p, rng)) = self.write_error.as_mut() else {
            return false;
        };
        // xorshift64* — deterministic per seed, independent of wall clock.
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        ((x >> 11) as f64 / (1u64 << 53) as f64) < *p
    }
}

/// A deterministic schedule of storage faults, owned by a
/// [`FailpointLog`](crate::FailpointLog) and armed with chained setters
/// on a clone of [`FailpointLog::plan`](crate::FailpointLog::plan):
///
/// ```
/// use scdb_txn::FailpointLog;
///
/// let log = FailpointLog::new();
/// let plan = log.plan().fail_fsyncs_from(3);
/// // Hand `Box::new(log)` to the WAL; keep `plan` to clear it later.
/// plan.clear();
/// assert_eq!(plan.injected(), 0);
/// ```
///
/// All faults compose. An append checks, in order: panic, `Interrupted`,
/// seeded write error, byte budget, torn write. A sync checks the fsync
/// schedules, then `Interrupted`, then the lying fsync.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    schedule: Arc<Mutex<Schedule>>,
}

impl FaultPlan {
    /// An unarmed plan for a medium that already holds `appended_bytes`.
    pub(crate) fn new(appended_bytes: u64) -> Self {
        FaultPlan {
            schedule: Arc::new(Mutex::new(Schedule {
                appended_bytes,
                ..Schedule::default()
            })),
        }
    }

    fn arm(self, f: impl FnOnce(&mut Schedule)) -> Self {
        f(&mut self.schedule.lock());
        self
    }

    /// Tear the append that carries [`FaultPlan::appended_bytes`] past
    /// `mark`: it lands only the bytes before the mark, then fails.
    pub fn torn_write_at(self, mark: u64) -> Self {
        self.arm(|s| s.torn_at = Some(mark))
    }

    /// Fail the next `n` append/sync calls with
    /// [`io::ErrorKind::Interrupted`] — transient errors the WAL retries.
    pub fn interrupt_next(self, n: u32) -> Self {
        self.arm(|s| s.interrupts = n)
    }

    /// Make the next fsync lie: it persists only the first `keep`
    /// pending bytes (the rest stays volatile — lost only if a crash
    /// follows) yet reports success.
    pub fn lying_fsync(self, keep: u64) -> Self {
        self.arm(|s| s.lying_keep = Some(keep))
    }

    /// Fail the `n`th fsync (1-based) once, then disarm.
    pub fn fail_nth_fsync(self, n: u64) -> Self {
        self.arm(|s| s.fail_nth_fsync = Some(n.max(1)))
    }

    /// Fail every fsync from the `n`th (1-based) onward, persistently,
    /// until [`FaultPlan::clear`] is called. The WAL's bounded retry
    /// cannot clear it, so the node must trip to degraded mode.
    pub fn fail_fsyncs_from(self, n: u64) -> Self {
        self.arm(|s| s.fail_fsyncs_from = Some(n.max(1)))
    }

    /// Simulate a full medium: once `budget` total bytes have been
    /// appended, further appends land only the remaining prefix and fail
    /// with [`io::ErrorKind::StorageFull`].
    pub fn enospc_after_bytes(self, budget: u64) -> Self {
        self.arm(|s| s.enospc_after_bytes = Some(budget))
    }

    /// Fail each append with probability `p` (clamped to `[0, 1]`),
    /// drawn from a deterministic generator seeded with `seed`.
    pub fn write_error_prob(self, p: f64, seed: u64) -> Self {
        let state = if seed == 0 { 0x9e3779b97f4a7c15 } else { seed };
        self.arm(|s| s.write_error = Some((p.clamp(0.0, 1.0), state)))
    }

    /// Panic on the `n`th append (1-based), once. Under group-commit
    /// ingest the append happens on the committer thread, so this
    /// simulates a committer crash mid-batch.
    pub fn panic_on_nth_append(self, n: u64) -> Self {
        self.arm(|s| s.panic_on_nth_append = Some(n.max(1)))
    }

    /// Disarm every fault. Counters are preserved.
    pub fn clear(&self) {
        let mut s = self.schedule.lock();
        *s = Schedule {
            fsyncs: s.fsyncs,
            appends: s.appends,
            appended_bytes: s.appended_bytes,
            injected: s.injected,
            ..Schedule::default()
        };
    }

    /// Total faults fired since the medium was created.
    pub fn injected(&self) -> u64 {
        self.schedule.lock().injected
    }

    /// Bytes appended to the medium so far — the position torn-write
    /// marks and [`FaultPlan::enospc_after_bytes`] budgets are measured
    /// against, so a test can arm "the next write fails `n` bytes in".
    pub fn appended_bytes(&self) -> u64 {
        self.schedule.lock().appended_bytes
    }

    /// `sync` calls observed so far (failed ones included).
    pub fn fsyncs(&self) -> u64 {
        self.schedule.lock().fsyncs
    }

    /// Decide one append of `len` bytes to `file`: how many bytes land
    /// on the medium, and whether the call then fails.
    pub(crate) fn on_append(&self, file: &str, len: usize) -> (usize, io::Result<()>) {
        let (keep, what) = {
            let mut s = self.schedule.lock();
            s.appends += 1;
            let start = s.appended_bytes;
            let end = start + len as u64;
            let (keep, what) = if s.panic_on_nth_append.is_some_and(|n| s.appends >= n) {
                s.panic_on_nth_append = None;
                (0, "panic")
            } else if s.interrupts > 0 {
                s.interrupts -= 1;
                (0, "interrupt")
            } else if s.roll_write_error() {
                (0, "write-error")
            } else if let Some(budget) = s.enospc_after_bytes.filter(|&b| end > b) {
                (budget.saturating_sub(start), "enospc")
            } else if let Some(mark) = s.torn_at.filter(|&m| start < m && end > m) {
                s.torn_at = None;
                (mark - start, "torn-write")
            } else {
                s.appended_bytes = end;
                return (len, Ok(()));
            };
            s.appended_bytes += keep;
            (keep as usize, what)
        };
        // The schedule lock is released: a panic here poisons nothing.
        self.record("append", what, file);
        if what == "panic" {
            panic!("fault injection: panic on append of {file}");
        }
        (keep, Err(injected_error(what)))
    }

    /// Decide one sync of `file`: an error, or how many pending bytes a
    /// lying fsync persists (`None` = all of them).
    pub(crate) fn on_sync(&self, file: &str) -> io::Result<Option<u64>> {
        let (what, keep) = {
            let mut s = self.schedule.lock();
            s.fsyncs += 1;
            if s.fail_nth_fsync == Some(s.fsyncs) {
                s.fail_nth_fsync = None;
                ("fsync-fail-once", None)
            } else if s.fail_fsyncs_from.is_some_and(|n| s.fsyncs >= n) {
                ("fsync-fail", None)
            } else if s.interrupts > 0 {
                s.interrupts -= 1;
                ("interrupt", None)
            } else if let Some(keep) = s.lying_keep.take() {
                ("lying-fsync", Some(keep))
            } else {
                return Ok(None);
            }
        };
        self.record("fsync", what, file);
        keep.map(Some).ok_or_else(|| injected_error(what))
    }

    /// Record one fired fault: the plan's count, the
    /// `core.fault.injected` counter and a flight-recorder event.
    fn record(&self, op: &'static str, what: &'static str, file: &str) {
        self.schedule.lock().injected += 1;
        scdb_obs::metrics().inc("core.fault.injected");
        scdb_obs::event(
            "txn",
            "fault.injected",
            &[
                ("op", F::Str(op.into())),
                ("fault", F::Str(what.into())),
                ("file", F::Str(file.into())),
            ],
        );
    }
}

fn injected_error(what: &str) -> io::Error {
    match what {
        "interrupt" => io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"),
        "enospc" => io::Error::new(
            io::ErrorKind::StorageFull,
            "injected storage-full (byte budget exhausted)",
        ),
        _ => io::Error::other(format!("injected {what}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::WalStore;
    use crate::fault::FailpointLog;

    #[test]
    fn nth_fsync_fails_once() {
        let mut log = FailpointLog::new();
        let plan = log.plan().fail_nth_fsync(2);
        log.append("wal", b"abc").unwrap();
        log.sync("wal").unwrap();
        assert!(log.sync("wal").is_err());
        log.sync("wal").unwrap(); // one-shot: disarmed after firing
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.fsyncs(), 3);
    }

    #[test]
    fn persistent_fsync_failure_until_cleared() {
        let mut log = FailpointLog::new();
        let plan = log.plan().fail_fsyncs_from(1);
        for _ in 0..3 {
            assert!(log.sync("wal").is_err());
        }
        plan.clear();
        log.sync("wal").unwrap();
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn enospc_writes_partial_prefix() {
        let mut log = FailpointLog::new();
        let plan = log.plan().enospc_after_bytes(4);
        log.append("wal", b"ab").unwrap();
        let err = log.append("wal", b"cdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // Two bytes of budget remained: the prefix landed on the medium.
        assert_eq!(log.read("wal").unwrap(), b"abcd");
        assert_eq!(plan.appended_bytes(), 4, "one counter, partial included");
        // Budget stays exhausted for later writes.
        assert!(log.append("wal", b"x").is_err());
    }

    #[test]
    fn write_error_prob_is_deterministic() {
        let run = |seed| {
            let mut log = FailpointLog::new();
            log.plan().write_error_prob(0.5, seed);
            (0..32)
                .map(|_| log.append("wal", b"x").is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert!(run(7).iter().any(|&e| e), "p=0.5 over 32 draws fired");
        assert!(run(7).iter().any(|&e| !e), "p=0.5 over 32 draws passed");
    }

    #[test]
    fn panic_on_nth_append_fires_once() {
        let mut log = FailpointLog::new();
        let plan = log.plan().panic_on_nth_append(2);
        log.append("wal", b"a").unwrap();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = log.append("wal", b"b");
        }));
        assert!(boom.is_err());
        // Disarmed after firing; the schedule lock was released first.
        log.append("wal", b"c").unwrap();
        assert_eq!(plan.injected(), 1);
    }
}
