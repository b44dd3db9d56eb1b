//! `EXPLAIN ANALYZE`-style query profiles.
//!
//! A [`QueryProfile`] is the per-query companion to the global metrics:
//! one record of where a single query's time went (plan → optimize →
//! execute), how many rows crossed each operator, and which optimizer
//! decisions fired. Executors assemble it through [`ProfileBuilder`]
//! and attach it to the query outcome.

use std::borrow::Cow;
use std::time::{Duration, Instant};

/// One profiled stage or operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageProfile {
    /// Stage name (`plan`, `optimize`, `execute`) or operator name
    /// (`scan`, `filter`, `project`, `limit`). Fixed names are borrowed
    /// `'static` text; only generated ones (`scan.w<i>`) are owned.
    pub name: Cow<'static, str>,
    /// Nesting depth for rendering: 0 for stages, 1+ for operators.
    pub depth: usize,
    /// Wall time spent in this stage.
    pub duration: Duration,
    /// Rows entering the stage (`None` when not row-shaped, e.g. plan).
    pub rows_in: Option<u64>,
    /// Rows leaving the stage.
    pub rows_out: Option<u64>,
    /// Free-form annotations (predicates applied, indexes chosen…).
    pub notes: Vec<String>,
}

/// Full `EXPLAIN ANALYZE` record for one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Stages and operators in execution order.
    pub stages: Vec<StageProfile>,
    /// End-to-end wall time.
    pub total: Duration,
    /// Optimizer rewrites that fired, in application order.
    pub optimizer_decisions: Vec<String>,
}

impl QueryProfile {
    /// True when no stage was recorded (e.g. profiling disabled).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Duration of the named stage, if recorded.
    pub fn stage(&self, name: &str) -> Option<&StageProfile> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// JSON document form: the full stage breakdown (name, depth,
    /// nanoseconds, rows in/out, notes) plus total and optimizer
    /// decisions — what the slow-query log exports so an index advisor
    /// can see *where* a slow query spent its time.
    pub fn to_json(&self) -> serde_json::Value {
        let stages: Vec<serde_json::Value> = self
            .stages
            .iter()
            .map(|s| {
                let mut m = serde_json::Map::new();
                m.insert("name".into(), serde_json::Value::from(s.name.as_ref()));
                m.insert("depth".into(), serde_json::Value::from(s.depth));
                m.insert(
                    "ns".into(),
                    serde_json::Value::from(s.duration.as_nanos() as u64),
                );
                m.insert(
                    "rows_in".into(),
                    s.rows_in
                        .map_or(serde_json::Value::Null, serde_json::Value::from),
                );
                m.insert(
                    "rows_out".into(),
                    s.rows_out
                        .map_or(serde_json::Value::Null, serde_json::Value::from),
                );
                m.insert(
                    "notes".into(),
                    serde_json::Value::Array(
                        s.notes
                            .iter()
                            .map(|n| serde_json::Value::from(n.as_str()))
                            .collect(),
                    ),
                );
                serde_json::Value::Object(m)
            })
            .collect();
        let mut root = serde_json::Map::new();
        root.insert(
            "total_ns".into(),
            serde_json::Value::from(self.total.as_nanos() as u64),
        );
        root.insert("stages".into(), serde_json::Value::Array(stages));
        root.insert(
            "optimizer_decisions".into(),
            serde_json::Value::Array(
                self.optimizer_decisions
                    .iter()
                    .map(|d| serde_json::Value::from(d.as_str()))
                    .collect(),
            ),
        );
        serde_json::Value::Object(root)
    }

    /// Human-readable `EXPLAIN ANALYZE` rendering.
    pub fn render(&self) -> String {
        let mut out = format!("EXPLAIN ANALYZE (total {})\n", fmt_duration(self.total));
        for s in &self.stages {
            out.push_str(&"   ".repeat(s.depth));
            // Operators inside a single-pass stage aren't individually
            // timed; render a dash instead of a misleading 0 ns.
            let dur = if s.duration.is_zero() && s.depth > 0 {
                "—".to_string()
            } else {
                fmt_duration(s.duration)
            };
            out.push_str(&format!("-> {:<12} {:>10}", s.name, dur));
            if let (Some(i), Some(o)) = (s.rows_in, s.rows_out) {
                out.push_str(&format!("  rows in={i} out={o}"));
            } else if let Some(o) = s.rows_out {
                out.push_str(&format!("  rows out={o}"));
            }
            if !s.notes.is_empty() {
                out.push_str(&format!("  [{}]", s.notes.join(", ")));
            }
            out.push('\n');
        }
        if !self.optimizer_decisions.is_empty() {
            out.push_str(&format!(
                "optimizer: {}\n",
                self.optimizer_decisions.join(", ")
            ));
        }
        out
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.3} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Incremental [`QueryProfile`] assembly with a running total clock.
#[derive(Debug)]
pub struct ProfileBuilder {
    started: Instant,
    profile: QueryProfile,
}

impl Default for ProfileBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileBuilder {
    /// Start the total clock.
    pub fn new() -> Self {
        ProfileBuilder {
            started: Instant::now(),
            profile: QueryProfile {
                // Room for a query's stages and operators in one
                // allocation.
                stages: Vec::with_capacity(8),
                ..QueryProfile::default()
            },
        }
    }

    /// Record a completed stage (depth 0).
    pub fn stage(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        duration: Duration,
    ) -> &mut StageProfile {
        self.stage_at(name, 0, duration)
    }

    /// Record a completed stage/operator at an explicit depth.
    pub fn stage_at(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        depth: usize,
        duration: Duration,
    ) -> &mut StageProfile {
        self.profile.stages.push(StageProfile {
            name: name.into(),
            depth,
            duration,
            rows_in: None,
            rows_out: None,
            notes: Vec::new(),
        });
        self.profile.stages.last_mut().expect("just pushed")
    }

    /// Time `f` as stage `name`, returning its output.
    pub fn timed<T>(&mut self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stage(name, start.elapsed());
        out
    }

    /// Note an optimizer decision.
    pub fn decision(&mut self, desc: impl Into<String>) {
        self.profile.optimizer_decisions.push(desc.into());
    }

    /// Stop the total clock and return the finished profile.
    pub fn finish(mut self) -> QueryProfile {
        self.profile.total = self.started.elapsed();
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_stages_and_total() {
        let mut b = ProfileBuilder::new();
        let v = b.timed("plan", || 2 + 2);
        assert_eq!(v, 4);
        {
            let s = b.stage("execute", Duration::from_micros(150));
            s.rows_in = Some(100);
            s.rows_out = Some(7);
            s.notes.push("limit 7".into());
        }
        b.decision("push_down_filter");
        let p = b.finish();
        assert!(!p.is_empty());
        assert_eq!(p.stages.len(), 2);
        assert!(p.total >= p.stage("plan").unwrap().duration);
        assert_eq!(p.stage("execute").unwrap().rows_out, Some(7));
        assert_eq!(p.optimizer_decisions, vec!["push_down_filter"]);
    }

    #[test]
    fn render_shows_rows_notes_and_decisions() {
        let mut b = ProfileBuilder::new();
        {
            let s = b.stage("execute", Duration::from_millis(2));
            s.rows_in = Some(1000);
            s.rows_out = Some(10);
        }
        {
            let s = b.stage_at("scan", 1, Duration::from_millis(1));
            s.rows_out = Some(1000);
            s.notes.push("source=drugbank".into());
        }
        b.decision("reorder_atoms");
        let text = b.finish().render();
        assert!(text.starts_with("EXPLAIN ANALYZE"));
        assert!(text.contains("rows in=1000 out=10"));
        assert!(text.contains("rows out=1000"));
        assert!(text.contains("[source=drugbank]"));
        assert!(text.contains("optimizer: reorder_atoms"));
        // Operator line is indented under its stage.
        assert!(text.lines().any(|l| l.starts_with("   -> scan")));
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1_500)), "1.5 µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.500 ms");
        assert_eq!(fmt_duration(Duration::from_millis(1_500)), "1.500 s");
    }
}
