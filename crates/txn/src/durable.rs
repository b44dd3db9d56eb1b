//! The segmented write-ahead log: the one log every durable mutation
//! goes through.
//!
//! Layout inside a log directory:
//!
//! ```text
//! wal-00000001.seg     sealed segment (synced, immutable)
//! wal-00000002.seg     active segment (appends go here)
//! snap-00000002.scdb   checkpoint snapshot covering segments < 2
//! ```
//!
//! Every [`LogRecord`] is wrapped in a `[len][crc32][payload]` frame
//! ([`crate::frame`]) before it is appended, so recovery can cut a torn
//! or bit-rotted tail at the last clean frame. The medium itself hides
//! behind the [`WalStore`] trait: [`FsStore`] talks to real files, while
//! the in-memory medium ([`crate::fault::FailpointLog`]) models a
//! volatile/durable byte split and fires a [`crate::FaultPlan`], so tests
//! can fail the "machine" live or crash it at any byte and reopen.
//!
//! ## Checkpoint protocol
//!
//! 1. rotate: seal + fsync the active segment `N`, open segment `N+1`;
//! 2. write the snapshot to `snap-(N+1).tmp`, fsync, rename to
//!    `snap-(N+1).scdb` (atomic install);
//! 3. delete segments `< N+1` and older snapshots.
//!
//! A crash between any two steps is safe: recovery picks the newest
//! *valid* snapshot `snap-K.scdb` and replays only segments `≥ K`;
//! leftover `.tmp` files and stale segments are removed.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy::Always`] syncs after every sealed transaction — no
//! committed row is ever lost. `EveryN(n)` amortizes the sync over `n`
//! commit seals, and `OnCheckpoint` syncs only at segment seal and
//! checkpoint: both keep the *prefix* property (recovery yields a clean
//! prefix of the commit order) but may lose a recent suffix on power
//! failure. Transient `ErrorKind::Interrupted` failures are retried with
//! bounded backoff before surfacing as [`TxnError::Io`].

use std::io;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use scdb_obs::FieldValue as F;

use crate::error::TxnError;
use crate::frame::{read_frames, write_frame};
use crate::wal::{decode_record, encode_record, LogRecord};

/// When to fsync the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every sealed transaction (no committed row lost).
    #[default]
    Always,
    /// Sync every `n` sealed transactions (bounded loss window).
    EveryN(u32),
    /// Sync only at segment rotation and checkpoint (largest window).
    OnCheckpoint,
}

/// Abstract append-only storage medium for WAL segments and snapshots.
///
/// Implementations: [`FsStore`] (real files) and
/// [`crate::fault::FailpointLog`] (in-memory crash simulation).
pub trait WalStore: Send {
    /// File names present, in arbitrary order.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Entire current contents of `name` (what a reopening process sees).
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Create `name` empty if it does not exist.
    fn create(&mut self, name: &str) -> io::Result<()>;
    /// Append bytes to `name` (created if absent).
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Force appended bytes of `name` to stable storage.
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Cut `name` to `len` bytes (used to trim a torn tail).
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;
    /// Delete `name`.
    fn remove(&mut self, name: &str) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;
    /// Current size of `name` in bytes.
    fn size(&self, name: &str) -> io::Result<u64>;
}

/// [`WalStore`] over a real directory.
#[derive(Debug)]
pub struct FsStore {
    dir: std::path::PathBuf,
}

impl FsStore {
    /// Open (creating if needed) the log directory.
    pub fn open(dir: impl AsRef<std::path::Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(FsStore { dir })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }

    /// Best-effort directory fsync so renames/creates survive power loss.
    fn sync_dir(&self) {
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

impl WalStore for FsStore {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_owned());
                }
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn create(&mut self, name: &str) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        self.sync_dir();
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(self.path(name))?
            .sync_data()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.path(name))?;
        self.sync_dir();
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))?;
        self.sync_dir();
        Ok(())
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.path(name))?.len())
    }
}

fn segment_name(shard: Option<u32>, seq: u64) -> String {
    match shard {
        Some(k) => format!("wal-s{k}-{seq:08}.seg"),
        None => format!("wal-{seq:08}.seg"),
    }
}

fn snapshot_name(shard: Option<u32>, seq: u64) -> String {
    match shard {
        Some(k) => format!("snap-s{k}-{seq:08}.scdb"),
        None => format!("snap-{seq:08}.scdb"),
    }
}

fn tmp_name(shard: Option<u32>, seq: u64) -> String {
    match shard {
        Some(k) => format!("snap-s{k}-{seq:08}.tmp"),
        None => format!("snap-{seq:08}.tmp"),
    }
}

/// Parse a WAL file name into `(is_segment, shard, seq)`. Legacy
/// single-shard files (`wal-00000001.seg`) carry `shard = None`;
/// range-sharded files (`wal-s2-00000001.seg`) carry their shard index.
fn parse_name(name: &str) -> Option<(bool, Option<u32>, u64)> {
    let (is_segment, rest) = if let Some(rest) = name
        .strip_prefix("wal-")
        .and_then(|r| r.strip_suffix(".seg"))
    {
        (true, rest)
    } else if let Some(rest) = name
        .strip_prefix("snap-")
        .and_then(|r| r.strip_suffix(".scdb"))
    {
        (false, rest)
    } else {
        return None;
    };
    if let Some(sharded) = rest.strip_prefix('s') {
        let (shard, seq) = sharded.split_once('-')?;
        return Some((is_segment, Some(shard.parse().ok()?), seq.parse().ok()?));
    }
    rest.parse().ok().map(|seq| (is_segment, None, seq))
}

/// Parse a checkpoint staging file name into `(shard, seq)`.
fn parse_tmp_name(name: &str) -> Option<(Option<u32>, u64)> {
    let rest = name.strip_prefix("snap-")?.strip_suffix(".tmp")?;
    if let Some(sharded) = rest.strip_prefix('s') {
        let (shard, seq) = sharded.split_once('-')?;
        return Some((Some(shard.parse().ok()?), seq.parse().ok()?));
    }
    rest.parse().ok().map(|seq| (None, seq))
}

/// How many write shards the files on `store` describe: `Some(k + 1)`
/// when shard-suffixed files up to `wal-sk-*` exist, `Some(1)` when only
/// legacy unsharded files exist, `None` on an empty (fresh) medium.
pub fn discover_shard_count(store: &dyn WalStore) -> io::Result<Option<u32>> {
    let mut max_shard: Option<u32> = None;
    let mut legacy = false;
    for name in store.list()? {
        match parse_name(&name).map(|(_, shard, _)| shard) {
            Some(Some(k)) => max_shard = Some(max_shard.map_or(k, |m| m.max(k))),
            Some(None) => legacy = true,
            None => {}
        }
    }
    Ok(match (max_shard, legacy) {
        (Some(k), _) => Some(k + 1),
        (None, true) => Some(1),
        (None, false) => None,
    })
}

/// A cloneable [`WalStore`] handle: the same underlying medium shared by
/// several [`DurableWal`] instances (one per write shard), serialized by
/// a mutex. Each shard's WAL touches only its own `wal-s<k>-*` /
/// `snap-s<k>-*` files, so the mutex only arbitrates medium access, not
/// file ownership.
pub struct SharedStore {
    inner: std::sync::Arc<std::sync::Mutex<Box<dyn WalStore>>>,
}

impl Clone for SharedStore {
    fn clone(&self) -> Self {
        SharedStore {
            inner: std::sync::Arc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStore").finish_non_exhaustive()
    }
}

impl SharedStore {
    /// Wrap `store` for sharing across shard WALs.
    pub fn new(store: Box<dyn WalStore>) -> Self {
        SharedStore {
            inner: std::sync::Arc::new(std::sync::Mutex::new(store)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn WalStore>> {
        // A panic while holding the store lock poisons it; the store
        // itself holds no invariant across calls, so recover the guard.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl WalStore for SharedStore {
    fn list(&self) -> io::Result<Vec<String>> {
        self.lock().list()
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.lock().read(name)
    }
    fn create(&mut self, name: &str) -> io::Result<()> {
        self.lock().create(name)
    }
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.lock().append(name, data)
    }
    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.lock().sync(name)
    }
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.lock().truncate(name, len)
    }
    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.lock().remove(name)
    }
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.lock().rename(from, to)
    }
    fn size(&self, name: &str) -> io::Result<u64> {
        self.lock().size(name)
    }
}

/// What a fresh open found on the medium.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalRecoveryReport {
    /// Segments scanned for replay (stale pre-snapshot segments excluded).
    pub segments_scanned: usize,
    /// Clean log records decoded across those segments.
    pub records_decoded: usize,
    /// Bytes physically cut off a torn or corrupt segment tail.
    pub bytes_truncated: u64,
    /// True when the cut was a CRC mismatch (bit rot) rather than a short
    /// frame (torn write).
    pub corrupt_tail: bool,
    /// Snapshot files discarded because their framing failed validation.
    pub snapshots_discarded: usize,
    /// Sequence number of the snapshot loaded, if any.
    pub snapshot_seq: Option<u64>,
}

/// Recovery output: the chosen snapshot's frame payloads (interpreted by
/// the caller), the raw log suffix, and the scan report.
#[derive(Debug)]
pub struct WalRecovery {
    /// Frame payloads of the newest valid snapshot, if one was found.
    pub snapshot: Option<Vec<Bytes>>,
    /// Log records newer than the snapshot, in append order. Includes
    /// unsealed tails — the caller applies commit-gated replay.
    pub records: Vec<LogRecord>,
    /// Scan statistics.
    pub report: WalRecoveryReport,
}

/// Statistics from a completed checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Bytes in the snapshot file (including framing).
    pub snapshot_bytes: u64,
    /// Sealed segments deleted.
    pub segments_removed: usize,
    /// Sequence number of the new snapshot / active segment.
    pub seq: u64,
}

/// How far the log has drifted from its last durable anchors — the WAL
/// half of `Db::health_report()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalLag {
    /// Records appended since the last checkpoint (recovery replay cost
    /// grows with this; seeded with the replayed-suffix length on open).
    pub records_since_checkpoint: u64,
    /// Bytes appended since the last fsync (the at-risk window under
    /// `EveryN` / `OnCheckpoint` policies; 0 under `Always`).
    pub unsynced_bytes: u64,
    /// Bytes in the active segment so far.
    pub active_segment_bytes: u64,
    /// Sequence number of the active segment.
    pub active_seq: u64,
}

const MAX_IO_RETRIES: u32 = 5;

/// The disk-backed segmented write-ahead log.
pub struct DurableWal {
    store: Box<dyn WalStore>,
    policy: FsyncPolicy,
    segment_bytes: u64,
    active_seq: u64,
    active_len: u64,
    seals_since_sync: u32,
    next_txn: u64,
    records_since_checkpoint: u64,
    unsynced_bytes: u64,
    /// Stage stamps of the most recent [`DurableWal::append_sealed`]:
    /// pure append I/O vs fsync time, reset at append entry so the
    /// caller can decompose its commit latency (see
    /// [`DurableWal::last_stage_ns`]).
    last_append_ns: u64,
    last_fsync_ns: u64,
    /// Batch correlation id for the in-flight group-commit flush (0 =
    /// none). While set, `append_sealed` and `sync` stamp their flight-
    /// recorder events with `batch_id`, so one query over `sys.events`
    /// reconstructs a batch's append→fsync journey. Checkpoint syncs,
    /// source/index registrations, and recovery probes run with it
    /// cleared and emit no per-batch events.
    batch_ctx: u64,
    /// Write-shard index this log belongs to. `None` keeps the legacy
    /// unsharded file names (`wal-00000001.seg`); `Some(k)` prefixes
    /// every file with the shard (`wal-s<k>-00000001.seg`) and scopes
    /// recovery, truncation, and checkpoint pruning to that prefix.
    shard: Option<u32>,
}

impl std::fmt::Debug for DurableWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableWal")
            .field("policy", &self.policy)
            .field("segment_bytes", &self.segment_bytes)
            .field("active_seq", &self.active_seq)
            .field("active_len", &self.active_len)
            .finish()
    }
}

impl DurableWal {
    /// Open a log on `store`, recovering whatever is already there.
    /// Returns the ready-to-append log plus the [`WalRecovery`] the
    /// caller replays into its state. Uses the legacy unsharded file
    /// names; a range-sharded write path opens one
    /// [`DurableWal::open_shard`] per shard instead.
    pub fn open(
        store: Box<dyn WalStore>,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> Result<(DurableWal, WalRecovery), TxnError> {
        Self::open_shard(store, policy, segment_bytes, None)
    }

    /// [`DurableWal::open`] scoped to one write shard: only files with
    /// the shard's name prefix are recovered, truncated, or swept, so
    /// several shard WALs can share one medium (see [`SharedStore`])
    /// and even open in parallel.
    pub fn open_shard(
        mut store: Box<dyn WalStore>,
        policy: FsyncPolicy,
        segment_bytes: u64,
        shard: Option<u32>,
    ) -> Result<(DurableWal, WalRecovery), TxnError> {
        let names = store.list().map_err(|e| TxnError::io("list log dir", &e))?;
        let mut segments: Vec<u64> = Vec::new();
        let mut snapshots: Vec<u64> = Vec::new();
        for name in &names {
            match parse_name(name) {
                Some((true, s, seq)) if s == shard => segments.push(seq),
                Some((false, s, seq)) if s == shard => snapshots.push(seq),
                Some(_) => {} // another shard's file — not ours to touch
                None => {
                    // Leftover temp file from a crashed checkpoint (or
                    // foreign debris): a snapshot only counts once its
                    // final name is installed by the rename. Only our
                    // own shard's staging files are swept.
                    if parse_tmp_name(name).map(|(s, _)| s) == Some(shard) {
                        let _ = store.remove(name);
                    }
                }
            }
        }
        segments.sort_unstable();
        snapshots.sort_unstable();

        let mut report = WalRecoveryReport::default();

        // Newest snapshot whose framing validates wins; invalid ones are
        // dropped (they never finished or rotted on the medium).
        let mut snapshot: Option<Vec<Bytes>> = None;
        while let Some(seq) = snapshots.pop() {
            let name = snapshot_name(shard, seq);
            let data = store
                .read(&name)
                .map_err(|e| TxnError::io(format!("read {name}"), &e))?;
            let (frames, tail) = read_frames(&data);
            if tail.truncated_bytes == 0 && !frames.is_empty() {
                report.snapshot_seq = Some(seq);
                scdb_obs::event(
                    "txn",
                    "recovery.snapshot",
                    &[
                        ("seq", F::U64(seq)),
                        ("frames", F::U64(frames.len() as u64)),
                    ],
                );
                snapshot = Some(frames);
                // Older snapshots are shadowed; clean them up.
                for old in snapshots.drain(..) {
                    let _ = store.remove(&snapshot_name(shard, old));
                }
                break;
            }
            report.snapshots_discarded += 1;
            scdb_obs::event("txn", "recovery.snapshot_drop", &[("seq", F::U64(seq))]);
            scdb_obs::warn(format!(
                "wal: snapshot {name} failed validation ({} clean frame(s), \
                 {} byte(s) unreadable) — falling back",
                tail.frames, tail.truncated_bytes
            ));
            let _ = store.remove(&name);
        }
        let snap_seq = report.snapshot_seq.unwrap_or(0);

        // Segments older than the snapshot are already reflected in it
        // (the checkpoint crashed before deleting them).
        segments.retain(|&seq| {
            if seq < snap_seq {
                let _ = store.remove(&segment_name(shard, seq));
                false
            } else {
                true
            }
        });

        // Replay the survivors front to back, stopping at the first torn
        // or corrupt tail; everything after a cut is void.
        let mut records: Vec<LogRecord> = Vec::new();
        let mut cut_at: Option<usize> = None;
        for (idx, &seq) in segments.iter().enumerate() {
            let name = segment_name(shard, seq);
            let data = store
                .read(&name)
                .map_err(|e| TxnError::io(format!("read {name}"), &e))?;
            let (frames, tail) = read_frames(&data);
            report.segments_scanned += 1;
            // Keep only frames whose payloads also decode as records: a
            // framed-but-undecodable payload counts as corruption too.
            let mut clean = 0u64;
            let mut bad_payload = false;
            for payload in frames {
                let mut cursor = payload.clone();
                match decode_record(&mut cursor, records.len()) {
                    Ok(r) => {
                        records.push(r);
                        clean += (crate::frame::FRAME_HEADER + payload.len()) as u64;
                    }
                    Err(_) => {
                        bad_payload = true;
                        break;
                    }
                }
            }
            report.records_decoded = records.len();
            scdb_obs::event(
                "txn",
                "recovery.segment",
                &[
                    ("seq", F::U64(seq)),
                    ("records", F::U64(records.len() as u64)),
                ],
            );
            if tail.truncated_bytes > 0 || bad_payload {
                let keep = clean;
                let cut = data.len() as u64 - keep;
                report.bytes_truncated += cut;
                report.corrupt_tail |= tail.corrupt || bad_payload;
                store
                    .truncate(&name, keep)
                    .map_err(|e| TxnError::io(format!("truncate {name}"), &e))?;
                let corrupt = tail.corrupt || bad_payload;
                scdb_obs::event(
                    "txn",
                    "recovery.truncated",
                    &[
                        ("seq", F::U64(seq)),
                        ("bytes", F::U64(cut)),
                        ("corrupt", F::U64(corrupt as u64)),
                    ],
                );
                scdb_obs::warn(format!(
                    "wal: cut {cut} byte(s) of {} tail from {name} during recovery",
                    if corrupt { "corrupt" } else { "torn" },
                ));
                cut_at = Some(idx);
                break;
            }
        }
        if let Some(idx) = cut_at {
            // Segments after a cut postdate lost bytes; drop them.
            for &seq in &segments[idx + 1..] {
                let name = segment_name(shard, seq);
                if let Ok(extra) = store.size(&name) {
                    report.bytes_truncated += extra;
                }
                let _ = store.remove(&name);
            }
            segments.truncate(idx + 1);
        }
        if report.bytes_truncated > 0 {
            scdb_obs::metrics().add("txn.wal.truncated_bytes", report.bytes_truncated);
        }

        let active_seq = segments.last().copied().unwrap_or(snap_seq.max(1));
        let active_name = segment_name(shard, active_seq);
        store
            .create(&active_name)
            .map_err(|e| TxnError::io(format!("create {active_name}"), &e))?;
        let active_len = store
            .size(&active_name)
            .map_err(|e| TxnError::io(format!("stat {active_name}"), &e))?;

        let max_txn = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Write { txn, .. }
                | LogRecord::IngestRow { txn, .. }
                | LogRecord::DiscoverLinks { txn } => Some(*txn),
                LogRecord::CommitGroup { txns, .. } => txns.iter().copied().max(),
                _ => None,
            })
            .max()
            .unwrap_or(0);

        // One summary event carrying the whole report, so a
        // `WalRecoveryReport` can be rebuilt from the event stream alone.
        scdb_obs::event(
            "txn",
            "recovery.scan",
            &[
                ("shard", F::U64(u64::from(shard.unwrap_or(0)))),
                ("segments", F::U64(report.segments_scanned as u64)),
                ("records", F::U64(report.records_decoded as u64)),
                ("bytes_cut", F::U64(report.bytes_truncated)),
                ("corrupt", F::U64(report.corrupt_tail as u64)),
                ("snap_drops", F::U64(report.snapshots_discarded as u64)),
                ("snapshot_seq", F::U64(report.snapshot_seq.unwrap_or(0))),
                ("has_snapshot", F::U64(report.snapshot_seq.is_some() as u64)),
            ],
        );

        let wal = DurableWal {
            store,
            policy,
            segment_bytes: segment_bytes.max(1),
            active_seq,
            active_len,
            seals_since_sync: 0,
            // Saturating: a hostile log naming txn u64::MAX must not
            // panic the open.
            next_txn: max_txn.saturating_add(1),
            // The replayed suffix is exactly what the next checkpoint
            // will fold in — seed the lag with it.
            records_since_checkpoint: records.len() as u64,
            unsynced_bytes: 0,
            last_append_ns: 0,
            last_fsync_ns: 0,
            batch_ctx: 0,
            shard,
        };
        let recovery = WalRecovery {
            snapshot,
            records,
            report,
        };
        Ok((wal, recovery))
    }

    /// Current drift from the last checkpoint / fsync (see [`WalLag`]).
    pub fn lag(&self) -> WalLag {
        WalLag {
            records_since_checkpoint: self.records_since_checkpoint,
            unsynced_bytes: self.unsynced_bytes,
            active_segment_bytes: self.active_len,
            active_seq: self.active_seq,
        }
    }

    /// Stage stamps of the most recent append: `(append_ns, fsync_ns)`
    /// — pure append I/O time vs fsync time (0 when the policy issued
    /// no fsync). Both reset at [`DurableWal::append_sealed`] entry, so
    /// read them right after the append whose latency you are
    /// decomposing (the group-commit committer does).
    pub fn last_stage_ns(&self) -> (u64, u64) {
        (self.last_append_ns, self.last_fsync_ns)
    }

    /// The fsync policy in effect.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Bytes appended to the active segment so far.
    pub fn active_len(&self) -> u64 {
        self.active_len
    }

    /// Set (non-zero) or clear (0) the batch correlation id stamped on
    /// the `("txn", "wal.append")` / `("txn", "wal.fsync")` events of
    /// subsequent appends. The group-commit committer brackets each
    /// flush with set/clear so only batch I/O carries a `batch_id`.
    pub fn set_batch_context(&mut self, batch_id: u64) {
        self.batch_ctx = batch_id;
    }

    /// Mint a fresh transaction id for a curation-pipeline transaction.
    /// Seeded past the highest id seen during recovery so replayable ids
    /// never collide within one log lifetime.
    pub fn next_txn_id(&mut self) -> u64 {
        let id = self.next_txn;
        self.next_txn = self.next_txn.saturating_add(1);
        id
    }

    fn retry<T>(
        &mut self,
        context: &str,
        mut op: impl FnMut(&mut Box<dyn WalStore>) -> io::Result<T>,
    ) -> Result<T, TxnError> {
        let mut attempt = 0;
        loop {
            match op(&mut self.store) {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == io::ErrorKind::Interrupted && attempt < MAX_IO_RETRIES => {
                    attempt += 1;
                    scdb_obs::metrics().inc("txn.wal.retries");
                    // Bounded linear backoff: transient EINTR-style
                    // failures clear in microseconds; anything persistent
                    // escalates after MAX_IO_RETRIES.
                    std::thread::sleep(std::time::Duration::from_micros(50 * attempt as u64));
                }
                Err(e) => return Err(TxnError::io(context, &e)),
            }
        }
    }

    /// Append a sealed group of records (a transaction's writes plus its
    /// commit seal, or a single auto-committed record) as one framed
    /// batch, then apply the fsync policy. On error the in-memory length
    /// is resynced from the medium, so a partial (torn) append leaves the
    /// log consistent with what recovery will see.
    pub fn append_sealed(&mut self, records: &[LogRecord]) -> Result<(), TxnError> {
        self.last_append_ns = 0;
        self.last_fsync_ns = 0;
        let mut buf = BytesMut::new();
        for r in records {
            let mut payload = BytesMut::new();
            encode_record(&mut payload, r);
            write_frame(&mut buf, payload.freeze().as_slice());
        }
        let data = buf.freeze();
        let name = segment_name(self.shard, self.active_seq);
        let start = Instant::now();
        let appended = self.retry(&format!("append {name}"), |s| {
            s.append(&name, data.as_slice())
        });
        if let Err(e) = appended {
            // A torn append may have written a prefix; resync so future
            // appends land where the medium actually is.
            if let Ok(len) = self.store.size(&name) {
                self.active_len = len;
            }
            return Err(e);
        }
        let append_ns = start.elapsed().as_nanos() as u64;
        scdb_obs::metrics().observe("txn.append_ns", append_ns);
        self.last_append_ns = append_ns;
        self.active_len += data.len() as u64;
        self.records_since_checkpoint += records.len() as u64;
        self.unsynced_bytes += data.len() as u64;
        scdb_obs::metrics().add("txn.wal.records", records.len() as u64);
        scdb_obs::metrics().add("txn.wal.bytes", data.len() as u64);
        if self.batch_ctx != 0 {
            scdb_obs::event(
                "txn",
                "wal.append",
                &[
                    ("batch_id", F::U64(self.batch_ctx)),
                    ("records", F::U64(records.len() as u64)),
                    ("bytes", F::U64(data.len() as u64)),
                    ("ns", F::U64(append_ns)),
                ],
            );
        }

        let synced = match self.policy {
            FsyncPolicy::Always => self.sync(),
            FsyncPolicy::EveryN(n) => {
                self.seals_since_sync += 1;
                if self.seals_since_sync >= n.max(1) {
                    self.sync()
                } else {
                    Ok(())
                }
            }
            FsyncPolicy::OnCheckpoint => Ok(()),
        };
        if let Err(e) = synced {
            // The batch landed on the medium but its durability ack
            // failed, so the caller will report an error: scrub the
            // appended suffix, or a *later* successful sync (e.g. after
            // degraded-mode recovery) would silently resurrect a batch
            // every producer was told had failed. Earlier bytes in the
            // policy's unsynced window belong to acked-under-EveryN
            // records and stay pending.
            let pre_append = self.active_len - data.len() as u64;
            let _ = self.store.truncate(&name, pre_append);
            if let Ok(len) = self.store.size(&name) {
                self.active_len = len;
            }
            self.records_since_checkpoint = self
                .records_since_checkpoint
                .saturating_sub(records.len() as u64);
            self.unsynced_bytes = self.unsynced_bytes.saturating_sub(data.len() as u64);
            return Err(e);
        }
        if self.active_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Group-commit flush: append a whole batch of sealed transactions
    /// — `batch_rows` row records plus their [`LogRecord::CommitGroup`]
    /// seal — as **one** [`DurableWal::append_sealed`] call, so the
    /// fsync policy fires once for the batch instead of once per row.
    /// Feeds the `txn.group_commit.*` metrics and emits one
    /// `("txn", "group_commit.flush")` flight-recorder event.
    ///
    /// Like `append_sealed`, the batch lands in the active segment as a
    /// single contiguous append (rotation happens only *after*), so a
    /// batch never spans WAL segments.
    pub fn append_group(
        &mut self,
        records: &[LogRecord],
        batch_rows: usize,
    ) -> Result<(), TxnError> {
        let start = Instant::now();
        let fsyncs_before = scdb_obs::metrics().counter("txn.wal.fsyncs").get();
        self.append_sealed(records)?;
        let flush_ns = start.elapsed().as_nanos() as u64;
        let fsyncs = scdb_obs::metrics().counter("txn.wal.fsyncs").get() - fsyncs_before;
        // Fsyncs a per-record committer would have issued for the same
        // rows under the current policy, minus what this flush actually
        // cost — the amortization the group buys.
        let would_have = match self.policy {
            FsyncPolicy::Always => batch_rows as u64,
            FsyncPolicy::EveryN(n) => batch_rows as u64 / u64::from(n.max(1)),
            FsyncPolicy::OnCheckpoint => 0,
        };
        let saved = would_have.saturating_sub(fsyncs);
        let m = scdb_obs::metrics();
        m.observe("txn.group_commit.batch_records", batch_rows as u64);
        m.observe("txn.group_commit.flush_ns", flush_ns);
        m.add("txn.group_commit.fsyncs_saved", saved);
        m.inc("txn.group_commit.flushes");
        scdb_obs::event(
            "txn",
            "group_commit.flush",
            &[
                ("batch_id", F::U64(self.batch_ctx)),
                ("rows", F::U64(batch_rows as u64)),
                ("fsyncs", F::U64(fsyncs)),
                ("saved", F::U64(saved)),
                ("ns", F::U64(flush_ns)),
            ],
        );
        Ok(())
    }

    /// Force the active segment to stable storage.
    pub fn sync(&mut self) -> Result<(), TxnError> {
        let name = segment_name(self.shard, self.active_seq);
        let start = Instant::now();
        self.retry(&format!("sync {name}"), |s| s.sync(&name))?;
        let fsync_ns = start.elapsed().as_nanos() as u64;
        scdb_obs::metrics().observe("txn.fsync_ns", fsync_ns);
        // Accumulate (not overwrite): a rotation inside one append can
        // fsync twice, and both belong to that append's fsync stage.
        self.last_fsync_ns += fsync_ns;
        self.seals_since_sync = 0;
        self.unsynced_bytes = 0;
        scdb_obs::metrics().inc("txn.wal.fsyncs");
        if self.batch_ctx != 0 {
            scdb_obs::event(
                "txn",
                "wal.fsync",
                &[
                    ("batch_id", F::U64(self.batch_ctx)),
                    ("ns", F::U64(fsync_ns)),
                ],
            );
        }
        Ok(())
    }

    /// Seal the active segment (fsync) and open the next one.
    fn rotate(&mut self) -> Result<(), TxnError> {
        self.sync()?;
        scdb_obs::event(
            "txn",
            "segment.seal",
            &[
                ("seq", F::U64(self.active_seq)),
                ("bytes", F::U64(self.active_len)),
            ],
        );
        self.active_seq += 1;
        self.active_len = 0;
        let name = segment_name(self.shard, self.active_seq);
        self.retry(&format!("create {name}"), |s| s.create(&name))?;
        scdb_obs::metrics().inc("txn.wal.segments");
        scdb_obs::event("txn", "segment.rotate", &[("seq", F::U64(self.active_seq))]);
        Ok(())
    }

    /// Run a checkpoint: rotate, install the snapshot (built from the
    /// caller-supplied frame payloads) atomically, then delete the sealed
    /// segments and older snapshots it supersedes.
    pub fn checkpoint(
        &mut self,
        snapshot_payloads: &[Vec<u8>],
    ) -> Result<CheckpointStats, TxnError> {
        self.rotate()?;
        let seq = self.active_seq;
        let tmp = tmp_name(self.shard, seq);
        let final_name = snapshot_name(self.shard, seq);
        let mut buf = BytesMut::new();
        for p in snapshot_payloads {
            write_frame(&mut buf, p);
        }
        let data = buf.freeze();
        // Clean slate in case a previous checkpoint died mid-write.
        let _ = self.store.remove(&tmp);
        // Phase-timed checkpoint: write → sync → rename → prune, each
        // feeding its own histogram and emitting a phase event.
        let phase = |kind: &str, ns: u64, extra: u64| {
            scdb_obs::metrics().observe(&format!("txn.checkpoint.{kind}_ns"), ns);
            scdb_obs::event(
                "txn",
                &format!("checkpoint.{kind}"),
                &[
                    ("seq", F::U64(seq)),
                    ("ns", F::U64(ns)),
                    ("n", F::U64(extra)),
                ],
            );
        };
        let staged = (|| -> Result<(), TxnError> {
            let start = Instant::now();
            self.retry(&format!("append {tmp}"), |s| {
                s.append(&tmp, data.as_slice())
            })?;
            phase(
                "write",
                start.elapsed().as_nanos() as u64,
                data.len() as u64,
            );
            let start = Instant::now();
            self.retry(&format!("sync {tmp}"), |s| s.sync(&tmp))?;
            phase("sync", start.elapsed().as_nanos() as u64, 0);
            let start = Instant::now();
            self.retry(&format!("rename {tmp}"), |s| s.rename(&tmp, &final_name))?;
            phase("rename", start.elapsed().as_nanos() as u64, 0);
            Ok(())
        })();
        if let Err(e) = staged {
            // A failed checkpoint must not leave its staging file around:
            // deleting it keeps the previous snapshot the recovery root
            // (open() also sweeps stale `*.tmp` after a crash).
            let _ = self.store.remove(&tmp);
            return Err(e);
        }

        // Everything before the new active segment is now covered.
        let start = Instant::now();
        let names = self
            .store
            .list()
            .map_err(|e| TxnError::io("list log dir", &e))?;
        let mut removed = 0usize;
        for name in names {
            match parse_name(&name) {
                Some((true, shard, s)) if shard == self.shard && s < seq => {
                    let _ = self.store.remove(&name);
                    scdb_obs::event("txn", "segment.prune", &[("seq", F::U64(s))]);
                    removed += 1;
                }
                Some((false, shard, s)) if shard == self.shard && s < seq => {
                    let _ = self.store.remove(&name);
                }
                _ => {}
            }
        }
        phase("prune", start.elapsed().as_nanos() as u64, removed as u64);
        self.records_since_checkpoint = 0;
        scdb_obs::metrics().inc("txn.checkpoints");
        scdb_obs::metrics().add("txn.checkpoint.snapshot_bytes", data.len() as u64);
        Ok(CheckpointStats {
            snapshot_bytes: data.len() as u64,
            segments_removed: removed,
            seq,
        })
    }
}

impl Drop for DurableWal {
    fn drop(&mut self) {
        // Under EveryN/OnCheckpoint an unsynced tail may be pending; a
        // clean shutdown should not lose it.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::Value;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scdb-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_rec(txn: u64, key: u64, v: i64) -> LogRecord {
        LogRecord::Write {
            txn,
            key,
            value: Some(Value::Int(v)),
        }
    }

    #[test]
    fn fs_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let store = Box::new(FsStore::open(&dir).unwrap());
            let (mut wal, rec) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
            assert!(rec.records.is_empty());
            wal.append_sealed(&[write_rec(1, 10, 100), LogRecord::seal(&[1], &[])])
                .unwrap();
            wal.append_sealed(&[write_rec(2, 20, 200)]).unwrap(); // unsealed
        }
        let store = Box::new(FsStore::open(&dir).unwrap());
        let (_wal, rec) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.report.bytes_truncated, 0);
        assert!(rec.snapshot.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fs_torn_tail_is_cut_and_reported() {
        let dir = tmpdir("torn");
        {
            let store = Box::new(FsStore::open(&dir).unwrap());
            let (mut wal, _) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
            wal.append_sealed(&[write_rec(1, 1, 1), LogRecord::seal(&[1], &[])])
                .unwrap();
            wal.append_sealed(&[write_rec(2, 2, 2), LogRecord::seal(&[2], &[])])
                .unwrap();
        }
        // Tear three bytes off the segment by hand.
        let seg = dir.join(segment_name(None, 1));
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let store = Box::new(FsStore::open(&dir).unwrap());
        let (_wal, rec) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(rec.records.len(), 3, "txn 2's commit frame was torn");
        assert!(rec.report.bytes_truncated > 0);
        assert!(!rec.report.corrupt_tail, "short tail is torn, not corrupt");
        // The cut is physical: a third open sees a clean log.
        let store = Box::new(FsStore::open(&dir).unwrap());
        let (_wal, rec) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(rec.report.bytes_truncated, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spans_segments() {
        let dir = tmpdir("rotate");
        {
            let store = Box::new(FsStore::open(&dir).unwrap());
            // Tiny segments: every append rotates.
            let (mut wal, _) = DurableWal::open(store, FsyncPolicy::Always, 64).unwrap();
            for i in 0..10u64 {
                wal.append_sealed(&[write_rec(i, i, i as i64), LogRecord::seal(&[i], &[])])
                    .unwrap();
            }
        }
        let store = Box::new(FsStore::open(&dir).unwrap());
        let (_wal, rec) = DurableWal::open(store, FsyncPolicy::Always, 64).unwrap();
        assert_eq!(rec.records.len(), 20);
        assert!(rec.report.segments_scanned > 1, "log actually rotated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_and_recovers_snapshot_plus_suffix() {
        let dir = tmpdir("ckpt");
        {
            let store = Box::new(FsStore::open(&dir).unwrap());
            let (mut wal, _) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
            wal.append_sealed(&[write_rec(1, 1, 1), LogRecord::seal(&[1], &[])])
                .unwrap();
            let stats = wal
                .checkpoint(&[
                    b"snapshot-payload-1".to_vec(),
                    b"snapshot-payload-2".to_vec(),
                ])
                .unwrap();
            assert_eq!(stats.segments_removed, 1);
            wal.append_sealed(&[write_rec(2, 2, 2), LogRecord::seal(&[2], &[])])
                .unwrap();
        }
        let store = Box::new(FsStore::open(&dir).unwrap());
        let (_wal, rec) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
        let snap = rec.snapshot.expect("snapshot found");
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].as_slice(), b"snapshot-payload-1");
        assert_eq!(
            rec.records.len(),
            2,
            "only the post-checkpoint suffix replays"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_txn_id_resumes_past_recovered_ids() {
        let dir = tmpdir("txnid");
        {
            let store = Box::new(FsStore::open(&dir).unwrap());
            let (mut wal, _) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
            let id = wal.next_txn_id();
            assert_eq!(id, 1);
            wal.append_sealed(&[write_rec(id, 1, 1), LogRecord::seal(&[id], &[])])
                .unwrap();
        }
        let store = Box::new(FsStore::open(&dir).unwrap());
        let (mut wal, _) = DurableWal::open(store, FsyncPolicy::Always, 1 << 20).unwrap();
        assert_eq!(wal.next_txn_id(), 2, "id counter resumes after recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
