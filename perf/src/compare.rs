//! `compare A.json B.json`: for every (end-to-end metric, workload)
//! pair both sets hold, A's and B's medians, the ratio B/A, each
//! side's spread (interquartile range over median, when a set has
//! several runs), and a verdict against the bound `BENCHMARK.json`
//! fixes for the metric.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::Benchmark;

/// workload → metric → values, one per run; plus failed / attempted.
struct Set {
    /// Where and from what the set was measured.
    stamp: String,
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: u64,
    attempted: u64,
}

fn load(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `rows` array"))?;
    let stamped = |key: &str| doc.get(key).map_or("?".to_string(), Value::to_string);
    let mut set = Set {
        stamp: format!(
            "git {}, {}, {} cores, {} runs",
            stamped("git_sha"),
            stamped("rustc"),
            stamped("cores"),
            rows.len()
        ),
        values: BTreeMap::new(),
        failed: 0,
        attempted: 0,
    };
    for row in rows {
        let workload = row.get("workload").and_then(Value::as_str).unwrap_or("?");
        set.failed += row.get("failed").and_then(Value::as_u64).unwrap_or(0);
        set.attempted += row.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        let Some(metrics) = row.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                set.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method),
/// which is what the acceptance driver uses.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// (median, spread as a share of the median).
fn summarize(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        return (v.first().copied().unwrap_or(0.0), 0.0);
    }
    let (q1, q2, q3) = quartiles(&v);
    (q2, if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

/// Prints the table; `Ok(false)` when B regressed on any gated pair or
/// failed a larger share of its operations.
pub fn compare(bench: &Benchmark, a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let defs = bench.metrics("end_to_end");
    println!("A = {a_path} ({})\nB = {b_path} ({})", a.stamp, b.stamp);
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound"
    );
    let mut ok = true;
    for ((workload, metric), a_values) in &a.values {
        let Some(def) = defs.iter().find(|d| &d.name == metric) else {
            continue;
        };
        let Some(b_values) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let bound = def.bound.unwrap_or(0.0);
        let (a_med, a_spread) = summarize(a_values);
        let (b_med, b_spread) = summarize(b_values);
        let ratio = if a_med == 0.0 { 1.0 } else { b_med / a_med };
        let worse_by = if def.better == "higher" {
            1.0 - ratio
        } else {
            ratio - 1.0
        };
        let verdict = if a_spread.max(b_spread) > bound {
            "unresolved"
        } else if worse_by > bound {
            ok = false;
            "regressed"
        } else {
            "unchanged"
        };
        println!(
            "{workload:<16} {metric:<18} {a_med:>12.4} {b_med:>12.4} {:>14} {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
            format!("{ratio:.3} of {a_med:.4}"),
            a_spread * 100.0,
            b_spread * 100.0,
            bound * 100.0,
        );
    }
    println!(
        "failed/attempted: A {}/{}, B {}/{}",
        a.failed, a.attempted, b.failed, b.attempted
    );
    // Cross-multiplied, so neither side divides by zero.
    if b.failed * a.attempted.max(1) > a.failed * b.attempted.max(1) {
        println!("B fails a larger share of its operations");
        ok = false;
    }
    Ok(ok)
}
