//! In-memory span recorder. Every call the benchmark makes into a layer
//! goes through [`Recorder::call`], which is also where latencies come
//! from, so a traced run and an untraced run execute the same code and
//! differ only in whether the span is kept. Spans are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// One batch, one query or one reopen; shared by the spans of one
    /// operation. 0 for phase spans.
    pub op: u64,
    /// Items the span covered (rows of a batch, rows of a replay loop).
    pub count: u64,
    /// Which generator thread recorded it.
    pub thread: u32,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Stamped on each span; tells concurrent generator threads apart.
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Recorder {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn sibling(&self, thread: u32) -> Recorder {
        Recorder::new(self.on, self.epoch, thread)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time one leaf call.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        op: u64,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        if self.on {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + took.as_nanos() as u64,
                parent: self.open.last().copied(),
                op,
                count,
                thread: self.thread,
            });
        }
        (out, took)
    }

    /// Open a span that later calls nest under; close it with
    /// [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            op: 0,
            count: 0,
            thread: self.thread,
        });
    }

    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Adopt a finished sibling's spans under the currently open span.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(adopt);
            s
        }));
    }

    /// Per span name: how many, total time, and self time (the span
    /// minus the part of it its children cover).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            // Children on another thread can overlap each other.
            e.2 += total.saturating_sub(children);
        }
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"count\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.count, s.thread
            )?;
        }
        w.flush()
    }
}
