//! The scdb benchmark. `perf/run.sh` builds this package and runs it
//! from the repository root; see `perf/README.md`.
//!
//! ```text
//! run.sh --workload <name>|all [--seed N] [--seconds S] [--trace [0|1]]
//!        [--runs N] [--out FILE] [--smoke]
//! run.sh compare A.json B.json
//! ```
//!
//! `BENCHMARK.json` at the repository root is the one list of workload
//! and metric names, units and bounds: a run that produces a metric it
//! does not name, or misses one it names, fails.

mod compare;
mod corpus;
mod layers;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{Map, Value};

use corpus::corpus;
use trace::Recorder;
use workloads::{fsync_name, median, round, scratch_dir, Ctx, Kind, Round, Spec, OUT_DIR, SPECS};

const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Rounds in an untraced run: the set-ups `setup_s` is the median of.
const MIN_ROUNDS: usize = 3;
/// `--smoke` checks counts, not times: just long enough to run.
const SMOKE_SECONDS: f64 = 0.05;

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The parsed `BENCHMARK.json`.
pub struct Benchmark {
    doc: Value,
}

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

impl Benchmark {
    pub fn load() -> Result<Benchmark, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Benchmark { doc })
    }

    fn list(&self, key: &str) -> &[Value] {
        self.doc
            .get(key)
            .and_then(Value::as_array)
            .map_or(&[], Vec::as_slice)
    }

    pub fn workloads(&self) -> Vec<&str> {
        self.list("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect()
    }

    pub fn metrics(&self, key: &str) -> Vec<MetricDef> {
        let text = |m: &Value, k: &str| {
            m.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        self.list(key)
            .iter()
            .map(|m| MetricDef {
                name: text(m, "name"),
                unit: text(m, "unit"),
                better: text(m, "better"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
    }

    pub fn run_seconds(&self) -> f64 {
        self.doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(1.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("a workload name or `all`")?,
            "--seed" => {
                let v = value("a number")?;
                parsed.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                parsed.seconds = Some(v.parse().map_err(|e| format!("--seconds {v}: {e}"))?);
            }
            "--runs" => {
                let v = value("a count")?;
                parsed.runs = v.parse().map_err(|e| format!("--runs {v}: {e}"))?;
            }
            "--out" => parsed.out = Some(value("a file")?),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone switches tracing on; the acceptance
            // driver passes `--trace 0` or `--trace 1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn env_or_unknown(key: &str) -> Value {
    Value::from(std::env::var(key).unwrap_or_else(|_| "unknown".into()))
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What every result row is stamped with.
fn stamp() -> Vec<(&'static str, Value)> {
    vec![
        ("git_sha", env_or_unknown("SCDB_PERF_GIT_SHA")),
        ("rustc", env_or_unknown("SCDB_PERF_RUSTC")),
        ("cores", Value::from(cores())),
    ]
}

/// `VmHWM`: this process's peak resident set, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rounds of `ctx.spec` until `budget` of timed region is spent.
/// Query and reopen loops stop on the clock, so they run `min_rounds`
/// rounds of `budget / min_rounds` each; an ingest pass takes what it
/// takes, so those rounds repeat until the budget is used.
fn pass(ctx: &mut Ctx<'_>, budget: Duration, min_rounds: usize, first: &mut bool) -> Vec<Round> {
    let dir = scratch_dir(ctx.spec.name);
    let clocked = matches!(ctx.spec.kind, Kind::Query(_) | Kind::Recover);
    let slice = budget / min_rounds as u32;
    let mut rounds: Vec<Round> = Vec::new();
    let mut spent = Duration::ZERO;
    loop {
        let r = round(ctx, &dir, slice, std::mem::take(first));
        spent += r.busy;
        let stuck = r.work == 0;
        rounds.push(r);
        if stuck || (rounds.len() >= min_rounds && (clocked || spent >= budget)) {
            return rounds;
        }
    }
}

/// Median over rounds: one slow round (another tenant on the machine)
/// does not move it.
fn median_of(rounds: &[Round], f: impl Fn(&Round) -> Option<f64>) -> f64 {
    median(&mut rounds.iter().filter_map(f).collect::<Vec<f64>>())
}

fn throughput(rounds: &[Round]) -> f64 {
    median_of(rounds, |r| {
        (r.busy > Duration::ZERO).then(|| r.work as f64 / r.busy.as_secs_f64())
    })
}

/// The round's `p`-th percentile latency, in ms.
fn percentile_ms(round: &Round, p: usize) -> Option<f64> {
    let mut kept = round.lat.kept.clone();
    kept.sort_unstable();
    kept.get(kept.len() * p / 100).map(|ns| *ns as f64 / 1e6)
}

fn end_to_end(rounds: &[Round]) -> BTreeMap<String, f64> {
    let facts = rounds.iter().find_map(|r| r.facts.as_ref());
    BTreeMap::from([
        (
            "setup_s".to_string(),
            median_of(rounds, |r| Some(r.setup.as_secs_f64())),
        ),
        (
            "op_p50_ms".to_string(),
            median_of(rounds, |r| percentile_ms(r, 50)),
        ),
        (
            "op_p90_ms".to_string(),
            median_of(rounds, |r| percentile_ms(r, 90)),
        ),
        ("throughput_per_s".to_string(), throughput(rounds)),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
        (
            "wal_bytes_per_row".to_string(),
            facts.map_or(0.0, |f| f.wal_bytes_per_row),
        ),
        ("er_f1".to_string(), facts.map_or(0.0, |f| f.er_f1)),
    ])
}

/// Sum and count of a histogram of the program's own registry.
fn reported(snapshot: &scdb_core::MetricsSnapshot, name: &str) -> (f64, f64) {
    snapshot
        .histograms
        .get(name)
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
}

/// The per-layer metrics of a traced run: the layer replay, plus what
/// the live traced pass adds (`core.*`, counts read off the program's
/// registry, and the two overhead lines).
fn per_layer(
    ctx: &mut Ctx<'_>,
    untraced: &[Round],
    traced: &[Round],
    [before, after]: [&scdb_core::MetricsSnapshot; 2],
) -> BTreeMap<String, f64> {
    let (spec, seed, smoke) = (ctx.spec, ctx.seed, ctx.smoke);
    let corpus = &corpus(seed, smoke);
    let template = spec.template();
    let sql = workloads::statements(corpus, template, seed);
    let dir = scratch_dir("replay");
    let mut m = layers::replay(corpus, &sql, template, &dir, &mut ctx.rec);

    let rows: u64 = traced.iter().map(|r| r.loaded.rows).sum();
    let per_row = |total: f64| if rows == 0 { 0.0 } else { total / rows as f64 };
    let busy: Duration = traced.iter().map(|r| r.loaded.lat.total).sum();
    let fsyncs_per_row = per_row(traced.iter().map(|r| r.loaded.fsyncs).sum::<u64>() as f64);
    let links = per_row(traced.iter().map(|r| r.loaded.links).sum::<u64>() as f64);
    let merges = per_row(traced.iter().map(|r| r.loaded.absorbed).sum::<u64>() as f64);
    let core = per_row(busy.as_nanos() as f64);
    let single_rows = spec.kind == Kind::Mixed;
    let layers_ns = m["txn.append_ns_per_row"]
        + fsyncs_per_row * m["txn.fsync_ns_per_call"]
        + m["storage.append_ns_per_row"]
        + m["storage.index_maintain_ns_per_row"] * spec.indexes.len() as f64 / 2.0
        + if single_rows {
            m["storage.text_index_ns_per_row"]
        } else {
            0.0
        }
        + m["er.add_ns_per_row"]
        + links * m["graph.add_edge_ns"]
        + merges * m["graph.merge_nodes_ns"]
        + if spec.shards > 1 {
            m["placement.route_ns_per_key"]
        } else {
            0.0
        };
    m.insert("txn.fsyncs_per_row".into(), fsyncs_per_row);
    m.insert("core.ingest_ns_per_row".into(), core);
    m.insert("core.glue_ns_per_row".into(), core - layers_ns);

    for stage in ["batch_build", "wal_append", "fsync", "apply"] {
        let name = format!("core.ingest.stage.{stage}_ns");
        let delta = reported(after, &name).0 - reported(before, &name).0;
        m.insert(
            format!("reported.ingest.{stage}_ns_per_row"),
            per_row(delta),
        );
    }
    for stage in ["plan", "optimize", "execute"] {
        let name = format!("query.{stage}_ns");
        let (s1, n1) = reported(after, &name);
        let (s0, n0) = reported(before, &name);
        m.insert(
            format!("reported.query.{stage}_ns"),
            if n1 > n0 { (s1 - s0) / (n1 - n0) } else { 0.0 },
        );
    }

    let pct = |base: f64, with: f64| {
        if base > 0.0 {
            (base - with) / base * 100.0
        } else {
            0.0
        }
    };
    m.insert(
        "trace_overhead_pct".into(),
        pct(throughput(untraced), throughput(traced)),
    );
    // The registry switch is process-wide, so a throwaway handle flips
    // it; `ingest.bulk` then runs once with it off and once with it on.
    let bulk = &SPECS[0];
    let mut rates = [0.0; 2];
    for (rate, on) in rates.iter_mut().zip([false, true]) {
        drop(scdb_core::Db::builder().metrics(on).build());
        let mut ctx = Ctx::new(bulk, seed, smoke, Recorder::new(false, Instant::now(), 0));
        *rate = throughput(&[round(&mut ctx, &scratch_dir("obs"), Duration::ZERO, false)]);
    }
    m.insert("obs.overhead_pct".into(), pct(rates[0], rates[1]));
    m
}

struct Outcome {
    /// The result row: stamp, configuration, every metric, diagnostics.
    row: Value,
    /// The line the acceptance driver reads.
    contract: Value,
    correct: bool,
}

fn run_one(
    bench: &Benchmark,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds);
    let epoch = Instant::now();
    let mut first = true;
    let mut ctx = Ctx::new(spec, seed, smoke, Recorder::new(false, epoch, 0));
    let (values, rounds, defs) = if trace {
        let untraced = pass(&mut ctx, budget / 2, 1, &mut first);
        let probe = scdb_core::Db::new();
        let before = probe.metrics_report();
        ctx.rec = Recorder::new(true, epoch, 0);
        let traced = pass(&mut ctx, budget / 2, 1, &mut first);
        let after = probe.metrics_report();
        let values = per_layer(&mut ctx, &untraced, &traced, [&before, &after]);
        let path = format!("{OUT_DIR}/trace-{}.jsonl", spec.name);
        ctx.rec
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
        (values, traced, bench.metrics("per_layer"))
    } else {
        let rounds = pass(&mut ctx, budget, MIN_ROUNDS, &mut first);
        (end_to_end(&rounds), rounds, bench.metrics("end_to_end"))
    };

    // Exactly the metrics BENCHMARK.json names, with its units.
    let mut metrics = Map::new();
    for def in &defs {
        let value = values
            .get(&def.name)
            .ok_or_else(|| format!("{}: metric {} was not produced", spec.name, def.name))?;
        metrics.insert(
            def.name.clone(),
            obj([
                ("value", Value::from(*value)),
                ("unit", Value::from(def.unit.as_str())),
            ]),
        );
    }
    if let Some(extra) = values.keys().find(|k| !metrics.contains_key(*k)) {
        return Err(format!(
            "{}: BENCHMARK.json does not name metric {extra}",
            spec.name
        ));
    }

    let checks = &ctx.checks;
    let correct = checks.failed == 0;
    let contract = obj([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(checks.attempted.max(1))),
        ("failed", Value::from(checks.failed)),
        ("metrics", Value::Object(metrics.clone())),
    ]);
    let mut diagnostics: Map<String, Value> = Map::new();
    for (name, value) in rounds.iter().flat_map(|r| r.diag.iter()) {
        diagnostics
            .entry(name.to_string())
            .or_insert(Value::from(*value));
    }
    let spans = ctx.rec.summary();
    let mut row: Vec<(&str, Value)> = stamp();
    row.extend([
        ("workload", Value::from(spec.name)),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("trace", Value::from(trace)),
        ("smoke", Value::from(smoke)),
        ("rows", Value::from(rounds.first().map_or(0, |r| r.rows))),
        ("fsync", Value::from(fsync_name(spec.fsync))),
        ("shards", Value::from(spec.shards)),
        (
            "scan_workers",
            Value::from(scdb_query::Executor::default().workers),
        ),
        (
            "generator_threads",
            Value::from(if spec.kind == Kind::Mixed { 2 } else { 1 }),
        ),
        ("op", Value::from(spec.op)),
        ("work", Value::from(spec.work)),
        ("rounds", Value::from(rounds.len())),
        (
            "samples",
            Value::from(rounds.iter().map(|r| r.lat.n).sum::<u64>()),
        ),
        ("attempted", Value::from(checks.attempted)),
        ("failed", Value::from(checks.failed)),
        (
            "first_failure",
            checks
                .first_failure
                .clone()
                .map_or(Value::Null, Value::from),
        ),
        ("metrics", Value::Object(metrics)),
        ("diagnostics", Value::Object(diagnostics)),
    ]);
    if trace {
        row.push((
            "spans",
            obj(spans.into_iter().map(|(name, (n, total, own))| {
                (
                    name,
                    obj([
                        ("n", Value::from(n)),
                        ("total_ns", Value::from(total)),
                        ("self_ns", Value::from(own)),
                    ]),
                )
            })),
        ));
    }
    Ok(Outcome {
        row: obj(row),
        contract,
        correct,
    })
}

fn find_spec(name: &str) -> Result<&'static Spec, String> {
    SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))
}

/// `--workload all`: one child process per run, so `peak_rss_mb` is
/// each workload's own. Run `i` of a workload uses seed `seed + i`.
fn run_all(bench: &Benchmark, args: &Args) -> Result<(Vec<Value>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rows = Vec::new();
    let mut correct = true;
    for workload in bench.workloads() {
        for run in 0..args.runs {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload]);
            child.args(["--seed", &(args.seed + run as u64).to_string()]);
            if let Some(seconds) = args.seconds {
                child.args(["--seconds", &seconds.to_string()]);
            }
            child.args(["--trace", if args.trace { "1" } else { "0" }]);
            let output = child
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            correct &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            // The row is the line before the contract line.
            let row = stdout
                .lines()
                .rev()
                .nth(1)
                .and_then(|l| serde_json::from_str(l).ok())
                .ok_or_else(|| format!("{workload}: no result row"))?;
            rows.push(row);
        }
    }
    Ok((rows, correct))
}

/// `--smoke`: every workload at a twentieth of the corpus, untraced
/// and traced, twice, in this process. Only counts are asserted: every
/// named metric is produced (and nothing unnamed — `run_one` enforces
/// both), every check passes, and the counts that must repeat exactly
/// do.
fn smoke(bench: &Benchmark, seed: u64) -> Result<(), String> {
    let named = bench.workloads();
    if let Some(spec) = SPECS.iter().find(|s| !named.contains(&s.name)) {
        return Err(format!(
            "BENCHMARK.json does not name workload {}",
            spec.name
        ));
    }
    for workload in named {
        let spec = find_spec(workload)?;
        let mut seen: Vec<(f64, f64, f64)> = Vec::new();
        for _ in 0..2 {
            let plain = run_one(bench, spec, seed, SMOKE_SECONDS, false, true)?;
            let traced = run_one(bench, spec, seed, SMOKE_SECONDS, true, true)?;
            for outcome in [&plain, &traced] {
                if !outcome.correct {
                    return Err(format!("{workload}: {}", outcome.row));
                }
            }
            let value = |o: &Outcome, name: &str| {
                o.contract
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN)
            };
            seen.push((
                value(&plain, "wal_bytes_per_row"),
                value(&traced, "er.comparisons_per_row"),
                value(&traced, "semantic.derived_facts"),
            ));
        }
        if seen[0] != seen[1] {
            return Err(format!(
                "{workload}: (wal_bytes_per_row, er.comparisons_per_row, semantic.derived_facts) \
                 did not repeat: {:?} then {:?}",
                seen[0], seen[1]
            ));
        }
        eprintln!("smoke {workload}: ok {:?}", seen[0]);
    }
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let bench = Benchmark::load()?;
    if raw.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = raw.as_slice() else {
            return Err("usage: compare A.json B.json".into());
        };
        return compare::compare(&bench, a, b);
    }
    let args = parse_args(&raw)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if args.smoke && args.workload == "all" {
        smoke(&bench, args.seed)?;
        println!("smoke: ok");
        return Ok(true);
    }
    let seconds = args.seconds.unwrap_or_else(|| bench.run_seconds());
    let (rows, correct, contract) = if args.workload == "all" {
        let (rows, correct) = run_all(&bench, &args)?;
        (rows, correct, None)
    } else {
        let spec = find_spec(&args.workload)?;
        if !bench.workloads().contains(&spec.name) {
            return Err(format!(
                "BENCHMARK.json does not name workload {}",
                spec.name
            ));
        }
        let outcome = run_one(&bench, spec, args.seed, seconds, args.trace, args.smoke)?;
        (vec![outcome.row], outcome.correct, Some(outcome.contract))
    };
    let _ = std::fs::remove_dir_all(scratch_dir("replay"));
    if let Some(path) = &args.out {
        let doc = obj(stamp()
            .into_iter()
            .chain([("rows", Value::Array(rows.clone()))]));
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    for row in &rows {
        println!("{row}");
    }
    if let Some(contract) = contract {
        println!("{contract}");
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("scdb-perf: output checks failed");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("scdb-perf: {e}");
            ExitCode::from(1)
        }
    }
}
