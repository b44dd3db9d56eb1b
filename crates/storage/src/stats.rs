//! Per-attribute statistics feeding the cost-based optimizer.
//!
//! OS.3 observes that "today's optimizers fail completely in the absence of
//! statistics". The instance layer therefore maintains cheap, incremental
//! statistics per attribute: a self-adjusting histogram over numeric
//! values, a bounded most-common-values sketch, and null/row counts. The
//! semantic optimizer (in `scdb-query`) combines these with TBox knowledge
//! to infer selectivities that the raw statistics alone cannot provide.

use scdb_types::Value;

/// Upper bound on the reservoir used to rebuild bucket boundaries. At the
/// cap the sample is thinned (every other element dropped) and the
/// admission stride doubled, so memory stays bounded while the sample
/// stays spread over the whole observation stream.
const SAMPLE_CAP: usize = 1024;

/// Minimum sample size before an equi-depth rebuild is considered; below
/// this the quantile estimates are too noisy to beat the seeded range.
const REBUILD_MIN_SAMPLE: usize = 64;

/// A histogram over numeric values. Buckets start equi-width over the
/// seeded `[lo, hi]` range, but the histogram also keeps a bounded,
/// deterministic sample of every observation. When too much of the
/// observed mass falls outside the bucketed range — the tell-tale of a
/// range seeded from early, unrepresentative values — the boundaries are
/// rebuilt equi-depth from the sample's quantiles, so each bucket holds
/// roughly the same share of observed values no matter how skewed the
/// distribution. Without this, a histogram seeded on the first value
/// estimates every wide range at ~0.5 and the optimizer never picks an
/// ordered index for range predicates.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Ascending bucket boundaries; `boundaries.len() == counts.len() + 1`.
    boundaries: Vec<f64>,
    counts: Vec<u64>,
    /// Sum of `counts`: the observed mass inside the bucketed range.
    in_range: u64,
    total: u64,
    below: u64,
    above: u64,
    sample: Vec<f64>,
    /// Every `stride`-th finite observation enters the sample.
    stride: u64,
    seen: u64,
}

impl Histogram {
    /// Histogram over `[lo, hi]` with `buckets` equal-width buckets.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let n = buckets.max(1);
        let width = (hi - lo).max(f64::MIN_POSITIVE);
        let boundaries = (0..=n).map(|i| lo + width * i as f64 / n as f64).collect();
        Histogram {
            boundaries,
            counts: vec![0; n],
            in_range: 0,
            total: 0,
            below: 0,
            above: 0,
            sample: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }

    /// Build from observed values.
    pub fn from_values(values: impl IntoIterator<Item = f64>, buckets: usize) -> Option<Self> {
        let vals: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            return None;
        }
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut h = Histogram::new(lo, hi, buckets);
        for v in vals {
            h.add(v);
        }
        Some(h)
    }

    /// Add one observation.
    pub fn add(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.total += 1;
        if self.seen.is_multiple_of(self.stride) {
            self.sample.push(v);
            if self.sample.len() >= SAMPLE_CAP {
                let mut keep = false;
                self.sample.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
        let lo = self.boundaries[0];
        let hi = *self.boundaries.last().expect("non-empty boundaries");
        if v < lo {
            self.below += 1;
        } else if v > hi {
            self.above += 1;
        } else {
            // Last boundary index with `b <= v`, clamped into the bucket
            // range (v == hi lands in the final bucket).
            let idx = self.boundaries.partition_point(|b| *b <= v);
            let idx = idx.saturating_sub(1).min(self.counts.len() - 1);
            self.counts[idx] += 1;
            self.in_range += 1;
        }
        if (self.below + self.above) * 4 > self.in_range && self.sample.len() >= REBUILD_MIN_SAMPLE
        {
            self.rebuild_equi_depth();
        }
    }

    /// Replace the boundaries with equi-depth quantiles of the sample and
    /// redistribute the observed mass accordingly. After a rebuild the
    /// bucketed range spans the sampled min..max, so `below`/`above`
    /// restart from zero.
    fn rebuild_equi_depth(&mut self) {
        let mut sorted = self.sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let n = self.counts.len();
        let last = sorted.len() - 1;
        let boundaries: Vec<f64> = (0..=n).map(|i| sorted[i * last / n]).collect();
        // Re-bucket by scaling the sample's distribution to the observed
        // total; boundary duplicates (heavy repeated values) simply leave
        // zero-width buckets that the interpolation clamps over.
        let mut counts = vec![0u64; n];
        for &v in &sorted {
            let idx = boundaries.partition_point(|b| *b <= v);
            let idx = idx.saturating_sub(1).min(n - 1);
            counts[idx] += 1;
        }
        let scale = self.total as f64 / sorted.len() as f64;
        for c in &mut counts {
            *c = ((*c as f64) * scale).round() as u64;
        }
        self.boundaries = boundaries;
        self.in_range = counts.iter().sum();
        self.counts = counts;
        self.below = 0;
        self.above = 0;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observed mass accounted inside the bucketed range plus the
    /// out-of-range tails — the denominator for selectivity estimates.
    fn mass(&self) -> u64 {
        self.in_range + self.below + self.above
    }

    /// Estimated selectivity of `value <= x` (fraction of rows).
    pub fn selectivity_le(&self, x: f64) -> f64 {
        let denom = self.mass();
        if denom == 0 {
            return 0.0;
        }
        let denom = denom as f64;
        let lo = self.boundaries[0];
        let hi = *self.boundaries.last().expect("non-empty boundaries");
        if x < lo {
            return self.below as f64 / denom * 0.5;
        }
        if x >= hi {
            return (denom - self.above as f64) / denom + self.above as f64 / denom * 0.5;
        }
        let idx = self.boundaries.partition_point(|b| *b <= x);
        let idx = idx.saturating_sub(1).min(self.counts.len() - 1);
        let mut count = self.below as f64;
        for c in &self.counts[..idx] {
            count += *c as f64;
        }
        let width = (self.boundaries[idx + 1] - self.boundaries[idx]).max(f64::MIN_POSITIVE);
        let frac = ((x - self.boundaries[idx]) / width).clamp(0.0, 1.0);
        count += self.counts[idx] as f64 * frac;
        (count / denom).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of `a <= value <= b`.
    pub fn selectivity_range(&self, a: f64, b: f64) -> f64 {
        if a > b {
            return 0.0;
        }
        (self.selectivity_le(b) - self.selectivity_le(a)).max(0.0)
    }
}

/// Bounded most-common-values sketch (space-saving style: when full, the
/// minimum-count entry is evicted and its count inherited).
///
/// The candidates live in at most `capacity` slots that are searched in
/// order, and eviction overwrites the first slot holding the minimum
/// count. Ties therefore break by slot order, so every sketch fed one
/// stream ends in the same state: a database reopened from its rows
/// estimates exactly as the one that never closed.
#[derive(Debug, Clone)]
pub struct CommonValues {
    slots: Vec<(Value, u64)>,
    capacity: usize,
    total: u64,
}

impl CommonValues {
    /// Sketch tracking at most `capacity` candidates.
    pub fn new(capacity: usize) -> Self {
        CommonValues {
            slots: Vec::new(),
            capacity: capacity.max(1),
            total: 0,
        }
    }

    /// Observe a value.
    pub fn add(&mut self, v: &Value) {
        self.total += 1;
        if let Some((_, c)) = self.slots.iter_mut().find(|(s, _)| s == v) {
            *c += 1;
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push((v.clone(), 1));
            return;
        }
        // Space-saving eviction, in place: `min_by_key` yields the first
        // of equal minima.
        let (value, count) = self
            .slots
            .iter_mut()
            .min_by_key(|(_, c)| *c)
            .expect("non-empty at capacity");
        *value = v.clone();
        *count += 1;
    }

    /// Estimated frequency (fraction) of `v`.
    pub fn frequency(&self, v: &Value) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.slots
            .iter()
            .find(|(s, _)| s == v)
            .map_or(0.0, |(_, c)| *c as f64 / self.total as f64)
    }

    /// The top `k` values by estimated count.
    pub fn top(&self, k: usize) -> Vec<(Value, u64)> {
        let mut v = self.slots.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Full statistics for one attribute: the one per-attribute profile the
/// instance layer keeps, read by the optimizer and by the §5 Codd report.
#[derive(Debug, Clone)]
pub struct AttrStatistics {
    /// Rows observed (including nulls). A source's rows that lack the
    /// attribute are not observed, so this can fall short of the
    /// source's row count.
    pub rows: u64,
    /// Null/absent observations.
    pub nulls: u64,
    /// Bitmask of the non-null [`ValueKind`](scdb_types::ValueKind)s
    /// observed: bit `kind as u8` is set once a value of that kind has
    /// been seen. More than one bit set means a heterogeneous column.
    pub kinds: u8,
    /// Numeric histogram, present when the attribute is numeric-bearing.
    pub histogram: Option<Histogram>,
    /// Most-common-values sketch.
    pub common: CommonValues,
    /// Exact-then-frozen distinct estimate.
    pub distinct: u64,
    distinct_cap: usize,
    distinct_set: Option<std::collections::HashSet<Value>>,
}

impl AttrStatistics {
    /// New statistics tracker. `mcv_capacity` bounds the common-values
    /// sketch, `distinct_cap` the exact distinct tracking.
    pub fn new(mcv_capacity: usize, distinct_cap: usize) -> Self {
        AttrStatistics {
            rows: 0,
            nulls: 0,
            kinds: 0,
            histogram: None,
            common: CommonValues::new(mcv_capacity),
            distinct: 0,
            distinct_cap,
            // Grown as values arrive: most attributes see far fewer
            // distinct values than the cap.
            distinct_set: Some(std::collections::HashSet::new()),
        }
    }

    /// Observe one value (pass `Value::Null` for absent).
    pub fn observe(&mut self, v: &Value) {
        self.rows += 1;
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        self.kinds |= 1 << v.kind() as u8;
        self.common.add(v);
        if let Some(f) = v.as_float() {
            match &mut self.histogram {
                Some(h) => h.add(f),
                None => {
                    // Start a generously wide histogram on first numeric.
                    let mut h = Histogram::new(f - 1.0, f + 1.0, 32);
                    h.add(f);
                    self.histogram = Some(h);
                }
            }
        }
        if let Some(set) = &mut self.distinct_set {
            set.insert(v.clone());
            self.distinct = set.len() as u64;
            if set.len() >= self.distinct_cap {
                self.distinct_set = None; // freeze
            }
        }
    }

    /// Estimated selectivity of equality with `v`.
    pub fn selectivity_eq(&self, v: &Value) -> f64 {
        let mcv = self.common.frequency(v);
        if mcv > 0.0 {
            return mcv;
        }
        if self.distinct > 0 {
            1.0 / self.distinct as f64
        } else {
            0.0
        }
    }

    /// Fraction of non-null rows.
    pub fn non_null_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            (self.rows - self.nulls) as f64 / self.rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::ValueKind;

    #[test]
    fn histogram_uniform_selectivity() {
        let h = Histogram::from_values((0..1000).map(|i| i as f64), 50).unwrap();
        let s = h.selectivity_le(499.0);
        assert!((s - 0.5).abs() < 0.05, "got {s}");
        let r = h.selectivity_range(250.0, 750.0);
        assert!((r - 0.5).abs() < 0.05, "got {r}");
    }

    #[test]
    fn histogram_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 4);
        for i in 0..10 {
            h.add(i as f64);
        }
        h.add(-5.0);
        h.add(100.0);
        assert_eq!(h.total(), 12);
        assert!(h.selectivity_le(-10.0) < 0.1);
        assert!(h.selectivity_le(1000.0) > 0.9);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(f64::NAN);
        h.add(f64::INFINITY);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn histogram_reversed_bounds_normalized() {
        let h = Histogram::new(10.0, 0.0, 4);
        assert!(h.selectivity_le(5.0) >= 0.0);
    }

    #[test]
    fn empty_histogram_from_values() {
        assert!(Histogram::from_values(std::iter::empty(), 4).is_none());
    }

    #[test]
    fn histogram_rebuilds_equi_depth_when_seeded_range_is_wrong() {
        // Seeded the way AttrStatistics does on first numeric: a tiny
        // window around the first value. Everything that follows lands
        // outside it.
        let mut h = Histogram::new(0.0, 2.0, 32);
        h.add(1.0);
        for i in 0..1000 {
            h.add(1000.0 + i as f64);
        }
        // Before the fix every estimate outside [0,2] collapsed to the
        // ~0.5 out-of-range guess; after the rebuild the boundaries span
        // the observed values and ranges resolve proportionally.
        let narrow = h.selectivity_range(1000.0, 1100.0);
        assert!(
            narrow < 0.25,
            "narrow range over rebuilt histogram estimated {narrow}"
        );
        let wide = h.selectivity_range(1000.0, 2000.0);
        assert!(wide > 0.8, "wide range estimated {wide}");
    }

    #[test]
    fn histogram_sample_stays_bounded() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        for i in 0..100_000 {
            h.add(i as f64);
        }
        assert!(h.sample.len() < SAMPLE_CAP);
        assert_eq!(h.total(), 100_000);
        let s = h.selectivity_le(50_000.0);
        assert!((s - 0.5).abs() < 0.1, "got {s}");
    }

    #[test]
    fn attr_stats_histogram_recovers_from_first_value_seed() {
        // The live-ingest shape: first numeric seeds [f-1, f+1]; all
        // later values fall far outside. A narrow range predicate must
        // still come out selective.
        let mut s = AttrStatistics::new(8, 4096);
        for i in 0..500 {
            s.observe(&Value::Int(i * 10));
        }
        let h = s.histogram.as_ref().expect("numeric histogram");
        let narrow = h.selectivity_range(0.0, 200.0);
        assert!(
            narrow < 0.25,
            "narrow range after equi-depth rebuild estimated {narrow}"
        );
    }

    #[test]
    fn common_values_tracks_heavy_hitters() {
        let mut c = CommonValues::new(2);
        for _ in 0..100 {
            c.add(&Value::str("hot"));
        }
        for i in 0..10 {
            c.add(&Value::Int(i));
        }
        let top = c.top(1);
        assert_eq!(top[0].0, Value::str("hot"));
        assert!(c.frequency(&Value::str("hot")) > 0.5);
    }

    /// Space-saving breaks count ties by slot order, so every sketch fed
    /// one stream tracks the same values with the same counts.
    #[test]
    fn common_values_sketches_fed_one_stream_agree() {
        let streams: [Vec<Value>; 3] = [
            (0..1000).map(Value::Int).collect(),
            (0..1000).map(|i| Value::Int(i % 40)).collect(),
            (0..850).map(|i| Value::Float(i as f64 / 8.5)).collect(),
        ];
        for stream in &streams {
            let sketch = || {
                let mut c = CommonValues::new(16);
                for v in stream {
                    c.add(v);
                }
                c
            };
            let first = sketch().top(16);
            for _ in 0..20 {
                assert_eq!(sketch().top(16), first);
            }
        }
    }

    #[test]
    fn attr_stats_selectivity() {
        let mut s = AttrStatistics::new(8, 4096);
        for _ in 0..90 {
            s.observe(&Value::str("common"));
        }
        for i in 0..10 {
            s.observe(&Value::str(format!("rare{i}")));
        }
        assert!((s.selectivity_eq(&Value::str("common")) - 0.9).abs() < 0.01);
        let rare = s.selectivity_eq(&Value::str("unseen"));
        assert!(rare > 0.0 && rare < 0.2);
    }

    #[test]
    fn attr_stats_nulls_and_histogram() {
        let mut s = AttrStatistics::new(8, 4096);
        s.observe(&Value::Null);
        s.observe(&Value::Float(5.1));
        s.observe(&Value::Float(3.4));
        assert_eq!(s.nulls, 1);
        assert!((s.non_null_fraction() - 2.0 / 3.0).abs() < 1e-9);
        assert!(s.histogram.is_some());
    }

    #[test]
    fn attr_stats_kind_bitmask() {
        let bit = |k: ValueKind| 1u8 << k as u8;
        let mut s = AttrStatistics::new(8, 4096);
        assert_eq!(s.kinds, 0);
        s.observe(&Value::Null);
        assert_eq!(s.kinds, 0, "a null sets no kind bit");
        s.observe(&Value::Int(1));
        s.observe(&Value::Int(2));
        assert_eq!(s.kinds, bit(ValueKind::Int));
        s.observe(&Value::str("two"));
        s.observe(&Value::Null);
        assert_eq!(s.kinds, bit(ValueKind::Int) | bit(ValueKind::Str));
        assert_eq!(s.kinds.count_ones(), 2, "heterogeneous");
        assert_eq!((s.rows, s.nulls), (5, 2));
        let mut f = AttrStatistics::new(8, 4096);
        f.observe(&Value::Float(1.5));
        f.observe(&Value::Int(1));
        assert_eq!(f.kinds.count_ones(), 2, "int and float are two kinds");
    }

    #[test]
    fn attr_stats_distinct_counting_caps() {
        let mut s = AttrStatistics::new(8, 5);
        for i in 0..100 {
            s.observe(&Value::Int(i % 50));
        }
        assert_eq!((s.distinct, s.rows), (5, 100), "frozen at the cap");
    }
}
