//! Group-commit ingest machinery: the bounded queue producers feed and
//! the commit tickets they wait on.
//!
//! With [`crate::IngestConfig::queued`] configured, `Db::ingest` no
//! longer runs the curation pipeline on the caller's thread. Producers
//! enqueue `(source, record, text)` items into a bounded queue and
//! receive a [`CommitTicket`]; a dedicated committer thread drains the
//! queue in arrival order, seals the whole batch into **one**
//! `DurableWal` append (one fsync amortized over the batch), applies the
//! curation pipeline for every row under a single instance+relation
//! write-lock acquisition, and only then resolves the tickets. Ticket
//! resolution therefore implies the batch's seal reached the medium —
//! durability semantics are identical to the per-record path.
//!
//! Backpressure: a producer hitting a full queue blocks until the
//! committer drains it, and the time spent blocked feeds the
//! `txn.group_commit.stall_ns` histogram. The queue never grows past its
//! capacity, so memory stays bounded no matter how far producers run
//! ahead of the medium.

use std::collections::VecDeque;
// std primitives, not parking_lot: the queue needs a Condvar, and the
// pairing with poison recovery below keeps a panicking committer from
// wedging producers.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use scdb_obs::metrics;
use scdb_types::Record;

use crate::db::IngestReport;
use crate::error::CoreError;

/// Process-global mint for batch correlation ids. Every `IngestItem`
/// takes the next value at construction (i.e. at `CommitTicket`
/// creation for queued ingest); the committer stamps a whole flushed
/// batch with its *oldest* item's id, so ids are strictly increasing
/// across batches and every acked ticket knows which batch carried it.
/// Starts at 1 — 0 means "no batch context" throughout the pipeline.
static NEXT_TICKET_ID: AtomicU64 = AtomicU64::new(1);

/// One queued ingest: the arguments of a `Db::ingest` call, owned.
pub(crate) struct IngestItem {
    /// Destination source name.
    pub source: String,
    /// The record to curate.
    pub record: Record,
    /// Optional free-text payload for the text index.
    pub text: Option<String>,
    /// When the item was constructed (just before queue submit) — the
    /// anchor for the `core.ingest.stage.queue_wait_ns` stage of the
    /// commit-latency decomposition.
    pub enqueued_at: Instant,
    /// Correlation id minted at construction; the batch this item lands
    /// in inherits the oldest member's id (see [`NEXT_TICKET_ID`]).
    pub ticket_id: u64,
}

impl IngestItem {
    /// Build an item stamped with the current instant and a fresh
    /// correlation id.
    pub(crate) fn new(source: String, record: Record, text: Option<String>) -> IngestItem {
        IngestItem {
            source,
            record,
            text,
            enqueued_at: Instant::now(),
            ticket_id: NEXT_TICKET_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// Shared resolution slot behind a [`CommitTicket`].
pub(crate) struct TicketState {
    done: Mutex<Option<Result<IngestReport, CoreError>>>,
    cv: Condvar,
}

impl TicketState {
    fn new() -> Arc<TicketState> {
        Arc::new(TicketState {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Resolve the ticket; wakes every waiter. Called exactly once, by
    /// the committer (or by the inline path for unqueued databases).
    pub(crate) fn resolve(&self, result: Result<IngestReport, CoreError>) {
        let mut done = lock(&self.done);
        *done = Some(result);
        self.cv.notify_all();
    }

    /// Resolve only if still pending; returns whether this call won.
    /// The thread supervisor uses this to fail the in-flight batch of a
    /// panicked committer without racing a resolution the committer
    /// already delivered.
    pub(crate) fn resolve_if_pending(&self, result: Result<IngestReport, CoreError>) -> bool {
        let mut done = lock(&self.done);
        if done.is_some() {
            return false;
        }
        *done = Some(result);
        self.cv.notify_all();
        true
    }
}

/// An awaitable acknowledgment for one queued ingest.
///
/// Returned by [`crate::Db::ingest_async`]. [`CommitTicket::wait`]
/// blocks until the batching committer has (a) sealed the batch
/// containing this record on the durable medium and (b) applied the
/// curation pipeline — the same guarantee a synchronous
/// [`crate::Db::ingest`] gives on return. Until `wait` returns the
/// record is *not* durable: a crash may discard it, and recovery will
/// never expose a record whose ticket was not yet resolvable.
#[must_use = "an unawaited ticket gives no durability guarantee"]
pub struct CommitTicket {
    inner: Arc<TicketState>,
}

impl std::fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTicket")
            .field("resolved", &self.is_resolved())
            .finish()
    }
}

impl CommitTicket {
    /// A ticket resolved on the spot (the unqueued `ingest_async` path).
    pub(crate) fn resolved(result: Result<IngestReport, CoreError>) -> CommitTicket {
        let state = TicketState::new();
        state.resolve(result);
        CommitTicket { inner: state }
    }

    /// True once the committer has resolved this ticket ([`wait`]
    /// returns immediately).
    ///
    /// [`wait`]: CommitTicket::wait
    pub fn is_resolved(&self) -> bool {
        lock(&self.inner.done).is_some()
    }

    /// Block until the batch containing this record is durably sealed
    /// and applied, then return its [`IngestReport`] (or the error that
    /// failed it).
    pub fn wait(self) -> Result<IngestReport, CoreError> {
        let mut done = lock(&self.inner.done);
        while done.is_none() {
            done = wait(&self.inner.cv, done);
        }
        done.take().expect("loop exits only when resolved")
    }
}

/// Lock with poison recovery: a committer panic must surface as ticket
/// errors / a closed queue, never as a second panic in a producer.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Condvar wait with the same poison recovery as [`lock`].
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bounded condvar wait with the same poison recovery as [`lock`].
fn wait_for<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, dur: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, dur)
        .map(|(g, _)| g)
        .unwrap_or_else(|e| e.into_inner().0)
}

struct QueueState {
    items: VecDeque<(IngestItem, Arc<TicketState>)>,
    closed: bool,
}

/// The bounded producer/committer queue (see the module docs).
pub(crate) struct IngestQueue {
    capacity: usize,
    /// Flush deadline for a partial batch: with `Some(d)` the committer
    /// holds a non-full batch open up to `d` past its oldest item's
    /// enqueue time (latency-bounded amortization for trickle ingest);
    /// with `None` any non-empty queue flushes immediately.
    max_delay: Option<Duration>,
    state: Mutex<QueueState>,
    /// Signaled when the committer drains (producers blocked on a full
    /// queue) or the queue closes.
    not_full: Condvar,
    /// Signaled when a producer enqueues or the queue closes.
    not_empty: Condvar,
}

impl IngestQueue {
    pub(crate) fn new(capacity: usize, max_delay: Option<Duration>) -> IngestQueue {
        IngestQueue {
            capacity: capacity.max(1),
            max_delay,
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Maximum queued items — also the committer's per-flush batch cap.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue one item, blocking while the queue is full
    /// (backpressure; the blocked time feeds
    /// `txn.group_commit.stall_ns`). Errors once the queue is closed.
    pub(crate) fn submit(&self, item: IngestItem) -> Result<CommitTicket, CoreError> {
        let ticket = self.submit_all(vec![item])?.pop();
        Ok(ticket.expect("one ticket per item"))
    }

    /// Enqueue `items` (at most the capacity) together, under one lock,
    /// once the queue has room for all of them: the committer, which
    /// drains up to the capacity at a time, then pops them in one batch.
    /// Blocks and errors as [`IngestQueue::submit`] does.
    pub(crate) fn submit_all(
        &self,
        items: Vec<IngestItem>,
    ) -> Result<Vec<CommitTicket>, CoreError> {
        let room = self.capacity.saturating_sub(items.len().min(self.capacity));
        let mut state = lock(&self.state);
        if state.items.len() > room && !state.closed {
            let start = Instant::now();
            while state.items.len() > room && !state.closed {
                state = wait(&self.not_full, state);
            }
            metrics().observe(
                "txn.group_commit.stall_ns",
                start.elapsed().as_nanos() as u64,
            );
        }
        if state.closed {
            return Err(CoreError::GroupCommit(
                "ingest queue is closed (database dropped)".to_string(),
            ));
        }
        let tickets = items
            .into_iter()
            .map(|item| {
                let ticket = TicketState::new();
                state.items.push_back((item, Arc::clone(&ticket)));
                CommitTicket { inner: ticket }
            })
            .collect();
        metrics().gauge_set("core.ingest_queue.depth", state.items.len() as i64);
        self.not_empty.notify_one();
        Ok(tickets)
    }

    /// Dequeue up to `max` items in arrival order, blocking while the
    /// queue is empty and open. Returns an empty batch only when the
    /// queue is closed **and** drained — the committer's exit signal.
    ///
    /// With a `max_delay` configured, a non-full batch is held open
    /// until the oldest queued item has waited `max_delay`; a flush
    /// triggered by that deadline (rather than a full batch or a close)
    /// increments `txn.group_commit.deadline_flushes`.
    pub(crate) fn pop_batch(&self, max: usize) -> Vec<(IngestItem, Arc<TicketState>)> {
        let max = max.max(1);
        let mut state = lock(&self.state);
        while state.items.is_empty() && !state.closed {
            state = wait(&self.not_empty, state);
        }
        if let Some(delay) = self.max_delay {
            // Batching window: only the single committer drains, so the
            // queue can't shrink under us — wait for it to fill, close,
            // or the oldest item's deadline to pass.
            while !state.closed && !state.items.is_empty() && state.items.len() < max {
                let oldest = state
                    .items
                    .front()
                    .expect("checked non-empty")
                    .0
                    .enqueued_at;
                let elapsed = oldest.elapsed();
                if elapsed >= delay {
                    metrics().inc("txn.group_commit.deadline_flushes");
                    break;
                }
                state = wait_for(&self.not_empty, state, delay - elapsed);
            }
        }
        let n = state.items.len().min(max);
        let batch: Vec<_> = state.items.drain(..n).collect();
        metrics().gauge_set("core.ingest_queue.depth", state.items.len() as i64);
        if !batch.is_empty() {
            self.not_full.notify_all();
        }
        batch
    }

    /// Close the queue: producers error out, the committer drains what
    /// is left and exits. Idempotent.
    pub(crate) fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(n: u64) -> IngestItem {
        IngestItem::new(
            "s".to_string(),
            Record::from_pairs([(scdb_types::Symbol(0), scdb_types::Value::Int(n as i64))]),
            None,
        )
    }

    #[test]
    fn fifo_order_and_batch_cap() {
        let q = IngestQueue::new(8, None);
        let tickets: Vec<CommitTicket> = (0..5).map(|n| q.submit(item(n)).unwrap()).collect();
        let batch = q.pop_batch(3);
        assert_eq!(batch.len(), 3, "batch cap respected");
        let vals: Vec<i64> = batch
            .iter()
            .filter_map(|(i, _)| i.record.iter().next().and_then(|(_, v)| v.as_int()))
            .collect();
        assert_eq!(vals, vec![0, 1, 2], "arrival order preserved");
        assert_eq!(q.pop_batch(16).len(), 2);
        drop(tickets);
    }

    /// A chunk waits for room for all of its items, so the committer pops
    /// it whole rather than leaving its tail for a second batch.
    #[test]
    fn a_chunk_enters_the_queue_whole() {
        let q = Arc::new(IngestQueue::new(4, None));
        let _first = q.submit(item(0)).unwrap();
        let q2 = Arc::clone(&q);
        let chunk = std::thread::spawn(move || q2.submit_all((1..5).map(item).collect()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop_batch(4).len(), 1, "the chunk waited for room");
        let tickets = chunk.join().unwrap().unwrap();
        assert_eq!(tickets.len(), 4);
        assert_eq!(q.pop_batch(4).len(), 4, "one batch holds the chunk");
    }

    #[test]
    fn closed_queue_rejects_and_unblocks() {
        let q = Arc::new(IngestQueue::new(1, None));
        let _fill = q.submit(item(0)).unwrap();
        let q2 = Arc::clone(&q);
        let blocked = std::thread::spawn(move || q2.submit(item(1)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let res = blocked.join().unwrap();
        assert!(matches!(res, Err(CoreError::GroupCommit(_))));
        assert!(matches!(q.submit(item(2)), Err(CoreError::GroupCommit(_))));
        // Committer still drains the accepted item, then sees the close.
        assert_eq!(q.pop_batch(8).len(), 1);
        assert!(q.pop_batch(8).is_empty(), "closed + drained");
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        // Without a deadline a lone row flushes immediately; with one,
        // the committer holds the batch open until the bound, then
        // flushes whatever arrived.
        let q = Arc::new(IngestQueue::new(64, Some(Duration::from_millis(30))));
        let _t = q.submit(item(0)).unwrap();
        let start = Instant::now();
        let q2 = Arc::clone(&q);
        let extra = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            q2.submit(item(1))
        });
        let batch = q.pop_batch(64);
        let waited = start.elapsed();
        assert_eq!(batch.len(), 2, "late arrival rode the open window");
        assert!(
            waited >= Duration::from_millis(25),
            "flush waited for the deadline, not the second item: {waited:?}"
        );
        let _ = extra.join().unwrap().unwrap();
    }

    #[test]
    fn full_batch_flushes_before_deadline() {
        let q = IngestQueue::new(2, Some(Duration::from_secs(60)));
        let _a = q.submit(item(0)).unwrap();
        let _b = q.submit(item(1)).unwrap();
        let start = Instant::now();
        assert_eq!(q.pop_batch(2).len(), 2);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a full batch must not wait out the deadline"
        );
    }

    #[test]
    fn resolve_if_pending_loses_to_resolve() {
        let state = TicketState::new();
        state.resolve(Err(CoreError::GroupCommit("first".to_string())));
        assert!(!state.resolve_if_pending(Err(CoreError::GroupCommit("second".to_string()))));
        let fresh = TicketState::new();
        assert!(fresh.resolve_if_pending(Err(CoreError::GroupCommit("only".to_string()))));
    }

    #[test]
    fn ticket_wait_blocks_until_resolved() {
        let state = TicketState::new();
        let ticket = CommitTicket {
            inner: Arc::clone(&state),
        };
        assert!(!ticket.is_resolved());
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(20));
        state.resolve(Err(CoreError::GroupCommit("x".to_string())));
        assert!(matches!(
            waiter.join().unwrap(),
            Err(CoreError::GroupCommit(_))
        ));
    }
}
