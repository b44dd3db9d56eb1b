//! The in-memory storage medium: a [`WalStore`] that models the
//! volatile/durable split of a real disk and fires a [`FaultPlan`].
//!
//! Appended bytes land in a *volatile* buffer (the OS page cache);
//! `sync` moves them to the *durable* image (the platter). [`crash`]
//! discards everything volatile — exactly what power loss does — after
//! which a reopen sees only what was synced. Every append and sync first
//! asks the medium's one [`FaultPlan`] ([`plan`]) whether a fault fires;
//! on top of that the medium itself offers the offline manglings a
//! crash-matrix harness applies between runs: a **bit flip** in a
//! durable byte (media rot) and a **cut** of the durable image.
//!
//! [`fork`] deep-copies the whole medium so a crash-matrix harness can
//! re-crash the same history at every byte offset without re-running the
//! workload.
//!
//! [`crash`]: FailpointLog::crash
//! [`fork`]: FailpointLog::fork
//! [`plan`]: FailpointLog::plan

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::durable::WalStore;
use crate::inject::FaultPlan;

#[derive(Debug, Default, Clone)]
struct FileBuf {
    durable: Vec<u8>,
    volatile: Vec<u8>,
}

impl FileBuf {
    fn combined(&self) -> Vec<u8> {
        let mut out = self.durable.clone();
        out.extend_from_slice(&self.volatile);
        out
    }

    fn len(&self) -> u64 {
        (self.durable.len() + self.volatile.len()) as u64
    }
}

/// An in-memory, crash-able [`WalStore`] with one [`FaultPlan`].
/// Clones share the same medium (hand one to [`crate::durable::DurableWal`],
/// keep another to crash and inspect it); [`FailpointLog::fork`] makes an
/// independent deep copy.
#[derive(Debug, Clone)]
pub struct FailpointLog {
    files: Arc<Mutex<BTreeMap<String, FileBuf>>>,
    plan: FaultPlan,
}

impl Default for FailpointLog {
    fn default() -> Self {
        Self::new()
    }
}

impl FailpointLog {
    /// Fresh, empty medium with no faults armed.
    pub fn new() -> Self {
        FailpointLog {
            files: Arc::default(),
            plan: FaultPlan::new(0),
        }
    }

    /// The medium's fault plan. Every clone shares the schedule: arm
    /// faults on one (`log.plan().fail_fsyncs_from(1)`), keep another
    /// to clear them and read the counters.
    pub fn plan(&self) -> FaultPlan {
        self.plan.clone()
    }

    /// Independent deep copy of the current medium state. Faults are not
    /// copied — forks start clean — but the appended-byte count carries
    /// over.
    pub fn fork(&self) -> FailpointLog {
        FailpointLog {
            files: Arc::new(Mutex::new(self.files.lock().clone())),
            plan: FaultPlan::new(self.plan.appended_bytes()),
        }
    }

    /// Power loss: every unsynced byte vanishes.
    pub fn crash(&self) {
        for f in self.files.lock().values_mut() {
            f.volatile.clear();
        }
        // Files created but never synced into existence survive as empty
        // entries — harmless: recovery treats an empty segment as clean.
    }

    /// Flip bit `bit` (0–7) of durable byte `at` in `name` — media rot.
    pub fn flip_durable_bit(&self, name: &str, at: usize, bit: u8) {
        if let Some(byte) = self
            .files
            .lock()
            .get_mut(name)
            .and_then(|f| f.durable.get_mut(at))
        {
            *byte ^= 1 << (bit & 7);
        }
    }

    /// Cut the durable image of `name` to `len` bytes (and drop anything
    /// volatile) — simulates a crash that persisted only a prefix.
    pub fn cut_durable(&self, name: &str, len: u64) {
        if let Some(f) = self.files.lock().get_mut(name) {
            f.durable.truncate(len as usize);
            f.volatile.clear();
        }
    }

    /// Durable bytes of `name` (what a crash would preserve).
    pub fn durable_len(&self, name: &str) -> u64 {
        self.files
            .lock()
            .get(name)
            .map_or(0, |f| f.durable.len() as u64)
    }

    /// Total bytes of `name` including unsynced volatile tail.
    pub fn total_len(&self, name: &str) -> u64 {
        self.files.lock().get(name).map_or(0, FileBuf::len)
    }

    /// File names present, sorted.
    pub fn file_names(&self) -> Vec<String> {
        self.files.lock().keys().cloned().collect()
    }

    fn missing(name: &str) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, name.to_owned())
    }
}

impl WalStore for FailpointLog {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.file_names())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let files = self.files.lock();
        files
            .get(name)
            .map(FileBuf::combined)
            .ok_or_else(|| Self::missing(name))
    }

    fn create(&mut self, name: &str) -> io::Result<()> {
        self.files.lock().entry(name.to_owned()).or_default();
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let (keep, outcome) = self.plan.on_append(name, data.len());
        self.files
            .lock()
            .entry(name.to_owned())
            .or_default()
            .volatile
            .extend_from_slice(&data[..keep]);
        outcome
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let keep = self.plan.on_sync(name)?;
        let mut files = self.files.lock();
        let FileBuf { durable, volatile } = files.entry(name.to_owned()).or_default();
        // A lying fsync moves only a prefix; the remainder stays in the
        // volatile (cache) image, so a later crash is what loses it.
        let keep = keep.map_or(volatile.len(), |k| (k as usize).min(volatile.len()));
        durable.extend(volatile.drain(..keep));
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock();
        let f = files.get_mut(name).ok_or_else(|| Self::missing(name))?;
        let len = len as usize;
        if len <= f.durable.len() {
            f.durable.truncate(len);
            f.volatile.clear();
        } else {
            f.volatile.truncate(len - f.durable.len());
        }
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        let removed = self.files.lock().remove(name);
        removed.map(|_| ()).ok_or_else(|| Self::missing(name))
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        let mut files = self.files.lock();
        let f = files.remove(from).ok_or_else(|| Self::missing(from))?;
        files.insert(to.to_owned(), f);
        Ok(())
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        let files = self.files.lock();
        files
            .get(name)
            .map(FileBuf::len)
            .ok_or_else(|| Self::missing(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurableWal, FsyncPolicy};
    use crate::wal::LogRecord;
    use scdb_types::Value;

    fn w(txn: u64, key: u64, v: i64) -> LogRecord {
        LogRecord::Write {
            txn,
            key,
            value: Some(Value::Int(v)),
        }
    }

    fn open(log: &FailpointLog, policy: FsyncPolicy) -> (DurableWal, crate::durable::WalRecovery) {
        DurableWal::open(Box::new(log.clone()), policy, 1 << 20).unwrap()
    }

    #[test]
    fn crash_discards_unsynced_bytes() {
        let log = FailpointLog::new();
        {
            let (mut wal, _) = open(&log, FsyncPolicy::OnCheckpoint);
            wal.append_sealed(&[w(1, 1, 1), LogRecord::seal(&[1], &[])])
                .unwrap();
            wal.sync().unwrap();
            wal.append_sealed(&[w(2, 2, 2), LogRecord::seal(&[2], &[])])
                .unwrap();
            // No sync for txn 2 — and no Drop sync either: crash first.
            log.crash();
            std::mem::forget(wal);
        }
        let (_wal, rec) = open(&log, FsyncPolicy::OnCheckpoint);
        assert_eq!(rec.records.len(), 2, "only the synced txn survives");
    }

    #[test]
    fn torn_write_leaves_recoverable_prefix() {
        let log = FailpointLog::new();
        let (mut wal, _) = open(&log, FsyncPolicy::Always);
        wal.append_sealed(&[w(1, 1, 1), LogRecord::seal(&[1], &[])])
            .unwrap();
        // Tear the next batch five bytes in, mid-frame.
        log.plan().torn_write_at(log.plan().appended_bytes() + 5);
        let err = wal
            .append_sealed(&[w(2, 2, 2), LogRecord::seal(&[2], &[])])
            .unwrap_err();
        assert!(matches!(err, crate::TxnError::Io { .. }));
        // Process restart without power loss: the torn partial frame is
        // still on the medium and must be cut by recovery.
        drop(wal);
        let (_wal, rec) = open(&log, FsyncPolicy::Always);
        assert_eq!(rec.records.len(), 2, "txn 1 intact, torn txn 2 cut");
        assert!(rec.report.bytes_truncated > 0);
    }

    #[test]
    fn partial_fsync_then_crash_loses_suffix_only() {
        let log = FailpointLog::new();
        let (mut wal, _) = open(&log, FsyncPolicy::OnCheckpoint);
        wal.append_sealed(&[w(1, 1, 1), LogRecord::seal(&[1], &[])])
            .unwrap();
        let keep = log.total_len("wal-00000001.seg"); // first batch only
        wal.append_sealed(&[w(2, 2, 2), LogRecord::seal(&[2], &[])])
            .unwrap();
        log.plan().lying_fsync(keep);
        wal.sync().unwrap(); // lies: txn 2's bytes stay volatile
        log.crash();
        std::mem::forget(wal);
        let (_wal, rec) = open(&log, FsyncPolicy::OnCheckpoint);
        assert_eq!(rec.records.len(), 2, "partial fsync kept a clean prefix");
    }

    #[test]
    fn bit_flip_detected_and_cut() {
        let log = FailpointLog::new();
        {
            let (mut wal, _) = open(&log, FsyncPolicy::Always);
            wal.append_sealed(&[w(1, 1, 1), LogRecord::seal(&[1], &[])])
                .unwrap();
            wal.append_sealed(&[w(2, 2, 2), LogRecord::seal(&[2], &[])])
                .unwrap();
        }
        let seg = "wal-00000001.seg";
        let len = log.durable_len(seg);
        log.flip_durable_bit(seg, (len - 4) as usize, 3);
        let (_wal, rec) = open(&log, FsyncPolicy::Always);
        assert_eq!(rec.records.len(), 3, "flip in txn 2's commit frame");
        assert!(rec.report.corrupt_tail, "CRC mismatch flagged as corrupt");
        assert!(rec.report.bytes_truncated > 0);
    }

    #[test]
    fn transient_interrupts_are_retried() {
        scdb_obs::metrics().set_enabled(true);
        let log = FailpointLog::new();
        let (mut wal, _) = open(&log, FsyncPolicy::Always);
        let before = scdb_obs::metrics().counter("txn.wal.retries").get();
        log.plan().interrupt_next(3);
        wal.append_sealed(&[w(1, 1, 1), LogRecord::seal(&[1], &[])])
            .unwrap();
        let after = scdb_obs::metrics().counter("txn.wal.retries").get();
        assert!(after >= before + 3, "retries recorded: {before} -> {after}");
        let (_wal, rec) = open(&log, FsyncPolicy::Always);
        assert_eq!(rec.records.len(), 2);
    }

    #[test]
    fn group_flush_is_atomic_across_crash() {
        let log = FailpointLog::new();
        {
            let (mut wal, _) = open(&log, FsyncPolicy::Always);
            let txns: Vec<u64> = (0..4).map(|_| wal.next_txn_id()).collect();
            let mut batch: Vec<LogRecord> = txns.iter().map(|&t| w(t, t, t as i64)).collect();
            batch.push(LogRecord::seal(&txns, &[]));
            wal.append_group(&batch, 4).unwrap();
            // The single policy fsync covered the whole batch: power loss
            // immediately after the flush loses nothing.
            log.crash();
            std::mem::forget(wal);
        }
        let (_wal, rec) = open(&log, FsyncPolicy::Always);
        assert_eq!(rec.records.len(), 5, "rows + group seal all survived");
        // A cut inside the group seal frame voids the seal: the rows
        // remain on the medium but no seal commits them, so a
        // commit-gated replay discards all of them, never a partial batch.
        let fork = log.fork();
        let seg = "wal-00000001.seg";
        fork.cut_durable(seg, fork.durable_len(seg) - 2);
        let (_wal, rec) = open(&fork, FsyncPolicy::Always);
        assert_eq!(rec.records.len(), 4, "group seal was cut");
    }

    #[test]
    fn fork_is_independent() {
        let log = FailpointLog::new();
        let (mut wal, _) = open(&log, FsyncPolicy::Always);
        wal.append_sealed(&[w(1, 1, 1), LogRecord::seal(&[1], &[])])
            .unwrap();
        let fork = log.fork();
        wal.append_sealed(&[w(2, 2, 2), LogRecord::seal(&[2], &[])])
            .unwrap();
        let (_w1, rec_fork) = open(&fork, FsyncPolicy::Always);
        let (_w2, rec_live) = open(&log, FsyncPolicy::Always);
        assert_eq!(rec_fork.records.len(), 2);
        assert_eq!(rec_live.records.len(), 4);
    }
}
