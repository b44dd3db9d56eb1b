//! The instrumented ScQL executor.
//!
//! Evaluation is deliberately simple — a scan with short-circuiting
//! conjunctive filters — because the experiments measure *relative* costs:
//! per-atom evaluation counts expose the optimizer's reordering and
//! pruning wins (E-T1-OS3) independent of machine noise. Fuzzy atoms
//! evaluate to membership degrees and pass at the `alpha` cut; semantic
//! atoms consult the saturated ABox; model atoms call a trained FS.4
//! model over caller-provided features.
//!
//! Each scan compiles the plan's atoms once, before its first row:
//! attribute names become symbols, literals values, concepts and roles
//! the saturation's sorted posting lists, models their trained weights.
//! A row then pays a symbol lookup per atom, and a semantic atom one
//! normalization into a reused buffer, a name probe and a binary search.
//! A name the environment cannot resolve compiles to an atom that fails,
//! so its error is raised by the first row that evaluates it, exactly as
//! when every row resolved its names.

use std::collections::HashMap;

use scdb_er::normalize::normalize_into;
use scdb_semantic::{Ontology, Saturation, TrainedModel};
use scdb_storage::index::{IndexPredicate, IndexSet};
use scdb_storage::RowStore;
use scdb_types::{EntityId, Record, RecordId, Symbol, SymbolTable, Value};
use scdb_uncertain::FuzzyPredicate;

use crate::ast::{Atom, CompareOp};
use crate::error::QueryError;
use crate::plan::{LogicalPlan, PlanNode};

/// A scannable source of records.
pub trait RowSource {
    /// Source name (matched against the plan's scan).
    fn name(&self) -> &str;
    /// Number of rows (for optimizer base cardinality).
    fn len(&self) -> usize;
    /// True when the source has no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Scan all rows.
    fn scan(&self) -> Box<dyn Iterator<Item = &Record> + '_>;
    /// Scan the `chunk`-th of `of` contiguous, equal-width chunks — the
    /// unit of work one parallel-scan worker processes. Chunks partition
    /// the scan: concatenating chunks `0..of` in order yields exactly
    /// `scan()`. The default skips into the full scan; stores with
    /// cheaper positional access may override.
    fn scan_chunk(&self, chunk: usize, of: usize) -> Box<dyn Iterator<Item = &Record> + '_> {
        let (start, end) = chunk_bounds(self.len(), chunk, of);
        Box::new(self.scan().skip(start).take(end - start))
    }
    /// Resolve an attribute name to its symbol.
    fn attr(&self, name: &str) -> Option<Symbol>;
    /// Candidate rows for an indexed predicate on `attr`, in scan
    /// (arrival) order, when a usable secondary index exists. `None`
    /// means "no index" — the executor falls back to a full scan, so a
    /// plan carrying a stale [`PlanNode::IndexScan`] still answers
    /// correctly.
    fn index_candidates(&self, _attr: &str, _pred: &IndexPredicate) -> Option<Vec<&Record>> {
        None
    }
}

/// Half-open row range `[start, end)` of chunk `chunk` out of `of`.
fn chunk_bounds(len: usize, chunk: usize, of: usize) -> (usize, usize) {
    let of = of.max(1);
    let start = (chunk * len / of).min(len);
    let end = (((chunk + 1) * len) / of).min(len);
    (start, end.max(start))
}

/// A source over an in-memory vector (tests, intermediate results).
pub struct VecSource {
    name: String,
    rows: Vec<Record>,
    attrs: HashMap<String, Symbol>,
}

impl VecSource {
    /// Build from rows, resolving attribute names through `symbols`.
    pub fn new(name: impl Into<String>, rows: Vec<Record>, symbols: &SymbolTable) -> Self {
        let attrs = symbols
            .iter()
            .map(|(sym, n)| (n.to_string(), sym))
            .collect();
        VecSource {
            name: name.into(),
            rows,
            attrs,
        }
    }
}

impl RowSource for VecSource {
    fn name(&self) -> &str {
        &self.name
    }
    fn len(&self) -> usize {
        self.rows.len()
    }
    fn scan(&self) -> Box<dyn Iterator<Item = &Record> + '_> {
        Box::new(self.rows.iter())
    }
    fn attr(&self, name: &str) -> Option<Symbol> {
        self.attrs.get(name).copied()
    }
}

/// A source over a [`RowStore`] (the instance layer).
pub struct StoreSource<'a> {
    name: String,
    store: &'a RowStore,
    symbols: &'a SymbolTable,
    indexes: Option<&'a IndexSet>,
}

impl<'a> StoreSource<'a> {
    /// Wrap a row store.
    pub fn new(name: impl Into<String>, store: &'a RowStore, symbols: &'a SymbolTable) -> Self {
        StoreSource {
            name: name.into(),
            store,
            symbols,
            indexes: None,
        }
    }

    /// Wrap a row store together with its secondary indexes, enabling
    /// the [`PlanNode::IndexScan`] access path.
    pub fn with_indexes(
        name: impl Into<String>,
        store: &'a RowStore,
        symbols: &'a SymbolTable,
        indexes: &'a IndexSet,
    ) -> Self {
        StoreSource {
            name: name.into(),
            store,
            symbols,
            indexes: Some(indexes),
        }
    }
}

impl RowSource for StoreSource<'_> {
    fn name(&self) -> &str {
        &self.name
    }
    fn len(&self) -> usize {
        self.store.len()
    }
    fn scan(&self) -> Box<dyn Iterator<Item = &Record> + '_> {
        Box::new(self.store.scan().map(|(_, r)| r))
    }
    fn attr(&self, name: &str) -> Option<Symbol> {
        self.symbols.get(name)
    }
    fn index_candidates(&self, attr: &str, pred: &IndexPredicate) -> Option<Vec<&Record>> {
        let offsets = self.indexes?.lookup(attr, pred)?;
        // Offsets are sorted ascending, i.e. arrival order — the same
        // order a full scan yields, so downstream limit/merge semantics
        // are unchanged. Tombstoned offsets (benign races) are skipped.
        Some(
            offsets
                .into_iter()
                .filter_map(|off| self.store.peek(RecordId::new(self.store.source(), off)))
                .collect(),
        )
    }
}

/// Semantic knowledge for IS / HAS SOME atoms.
pub struct SemanticEnv<'a> {
    /// The ontology (concept/role name resolution).
    pub ontology: &'a Ontology,
    /// Saturated ABox.
    pub saturation: &'a Saturation,
    /// Mapping from *normalized* entity surface names (see
    /// [`scdb_er::normalize::normalize`]) to entity ids — produced by the
    /// curation pipeline. Lookups normalize attribute values the same
    /// way, so `Warfarin`, `warfarin`, and `Warfarin (brand)` all hit.
    pub entity_by_name: &'a HashMap<String, EntityId>,
}

/// Feature extractor for model atoms. `Send + Sync` so model atoms can be
/// evaluated from parallel scan workers.
pub type FeatureFn<'a> = Box<dyn Fn(&Record) -> Vec<f64> + Send + Sync + 'a>;

/// Everything the executor may need beyond the rows.
pub struct EvalEnv<'a> {
    /// Semantic knowledge (required by IS / HAS SOME atoms).
    pub semantic: Option<SemanticEnv<'a>>,
    /// Trained models with their feature extractors (required by model
    /// atoms).
    pub models: HashMap<String, (&'a TrainedModel, FeatureFn<'a>)>,
    /// Alpha cut for fuzzy atoms (default 0.5).
    pub alpha: f64,
}

impl Default for EvalEnv<'_> {
    fn default() -> Self {
        EvalEnv {
            semantic: None,
            models: HashMap::new(),
            alpha: 0.5,
        }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows pulled from the scan.
    pub rows_scanned: u64,
    /// Total atom evaluations (short-circuiting makes this the cost
    /// metric the optimizer improves).
    pub atom_evals: u64,
    /// Rows produced.
    pub rows_out: u64,
}

/// What one scan worker did (parallel execution breakdown).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerScan {
    /// Rows this worker pulled from its chunk.
    pub rows_scanned: u64,
    /// Atom evaluations this worker performed.
    pub atom_evals: u64,
    /// Rows this worker emitted (pre-merge, pre-limit-truncation).
    pub rows_out: u64,
    /// Wall time the worker spent in its chunk.
    pub duration: std::time::Duration,
}

/// How the scan stage was executed: one entry per worker. A sequential
/// run has exactly one entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanBreakdown {
    /// Per-worker counters in chunk order.
    pub per_worker: Vec<WorkerScan>,
    /// Name of the index used, when the scan went through the
    /// [`PlanNode::IndexScan`] access path.
    pub index: Option<String>,
}

impl ScanBreakdown {
    /// True when more than one worker participated.
    pub fn parallel(&self) -> bool {
        self.per_worker.len() > 1
    }
}

/// Default cap on scan workers — a *small* pool; scans are memory-bound
/// and oversubscribing cores past this buys nothing.
pub const MAX_DEFAULT_WORKERS: usize = 4;

/// Default minimum source rows before the scan fans out: below this the
/// thread-spawn cost exceeds the scan itself.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1024;

/// The executor.
///
/// Scans fan out across `workers` std threads once the source holds at
/// least `parallel_threshold` rows: the row space is split into
/// contiguous chunks (see [`RowSource::scan_chunk`]), each worker
/// filters and projects its chunk independently, and partial results
/// merge back in chunk order — output ordering and [`ExecStats`] totals
/// are identical to a sequential run (modulo `LIMIT`, which each worker
/// applies locally before the merge truncates globally, so a parallel
/// limited scan may scan more rows than a sequential one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    /// Scan worker threads; 1 means always sequential.
    pub workers: usize,
    /// Minimum source rows before fanning out.
    pub parallel_threshold: usize,
}

impl Default for Executor {
    fn default() -> Self {
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Executor {
            workers: avail.min(MAX_DEFAULT_WORKERS),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }
}

impl Executor {
    /// An executor that never spawns scan workers.
    pub fn sequential() -> Self {
        Executor {
            workers: 1,
            parallel_threshold: usize::MAX,
        }
    }

    /// An executor with an explicit worker count (≥ 1) and the default
    /// fan-out threshold.
    pub fn with_workers(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Run `plan` against `source` with environment `env`.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        source: &(dyn RowSource + Sync),
        env: &EvalEnv<'_>,
    ) -> Result<(Vec<Record>, ExecStats), QueryError> {
        self.execute_inner(plan, source, env)
            .map(|(rows, stats, _)| (rows, stats))
    }

    fn execute_inner(
        &self,
        plan: &LogicalPlan,
        source: &(dyn RowSource + Sync),
        env: &EvalEnv<'_>,
    ) -> Result<(Vec<Record>, ExecStats, ScanBreakdown), QueryError> {
        if plan.empty {
            return Ok((Vec::new(), ExecStats::default(), ScanBreakdown::default()));
        }
        match plan.source() {
            Some(s) if s == source.name() => {}
            Some(s) => return Err(QueryError::UnknownSource(s.to_string())),
            None => return Err(QueryError::UnknownSource("<missing scan>".into())),
        }
        let scan = CompiledScan::compile(plan, source, env);
        let limit = scan.limit;

        // Index-scan access path: fetch candidates through the index,
        // then run the ordinary filter (all atoms re-checked) over just
        // those rows. Falls through to the scan path when the source has
        // no usable index (e.g. it was dropped after planning).
        if let Some((index_name, atom)) = plan.index_scan() {
            if let Some(pred) = index_predicate(atom) {
                let attr = match atom {
                    Atom::Compare { attr, .. } => attr.as_str(),
                    _ => unreachable!("index scans are driven by comparison atoms"),
                };
                if let Some(candidates) = source.index_candidates(attr, &pred) {
                    let t0 = std::time::Instant::now();
                    let n_candidates = candidates.len() as u64;
                    let (mut out, w) =
                        scan_chunk_filtered(Box::new(candidates.into_iter()), &scan, t0)?;
                    if let Some(l) = limit {
                        out.truncate(l);
                    }
                    let stats = ExecStats {
                        rows_scanned: w.rows_scanned,
                        atom_evals: w.atom_evals,
                        rows_out: out.len() as u64,
                    };
                    let m = scdb_obs::metrics();
                    m.inc("query.index.scans");
                    m.add("query.index.candidates", n_candidates);
                    m.add("query.rows_scanned", stats.rows_scanned);
                    m.add("query.atom_evals", stats.atom_evals);
                    m.add("query.rows_out", stats.rows_out);
                    scdb_obs::event(
                        "query",
                        "index.scan",
                        &[
                            ("index", scdb_obs::FieldValue::Str(index_name.into())),
                            ("candidates", scdb_obs::FieldValue::U64(n_candidates)),
                            ("rows_out", scdb_obs::FieldValue::U64(stats.rows_out)),
                        ],
                    );
                    let breakdown = ScanBreakdown {
                        per_worker: vec![w],
                        index: Some(index_name.to_string()),
                    };
                    return Ok((out, stats, breakdown));
                }
                scdb_obs::metrics().inc("query.index.fallbacks");
            }
        }

        let workers = self
            .workers
            .min(source.len().div_ceil(self.parallel_threshold.max(1)))
            .max(1);
        let (mut out, mut stats, breakdown) = if workers > 1 {
            scan_parallel(workers, &scan, source)?
        } else {
            let t0 = std::time::Instant::now();
            let (rows, w) = scan_chunk_filtered(source.scan(), &scan, t0)?;
            let stats = ExecStats {
                rows_scanned: w.rows_scanned,
                atom_evals: w.atom_evals,
                rows_out: w.rows_out,
            };
            (
                rows,
                stats,
                ScanBreakdown {
                    per_worker: vec![w],
                    index: None,
                },
            )
        };
        if let Some(l) = limit {
            out.truncate(l);
        }
        stats.rows_out = out.len() as u64;
        let m = scdb_obs::metrics();
        m.add("query.rows_scanned", stats.rows_scanned);
        m.add("query.atom_evals", stats.atom_evals);
        m.add("query.rows_out", stats.rows_out);
        if breakdown.parallel() {
            m.inc("query.parallel_scans");
            scdb_obs::event(
                "query",
                "scan.parallel",
                &[
                    (
                        "workers",
                        scdb_obs::FieldValue::U64(breakdown.per_worker.len() as u64),
                    ),
                    (
                        "rows_scanned",
                        scdb_obs::FieldValue::U64(stats.rows_scanned),
                    ),
                    ("rows_out", scdb_obs::FieldValue::U64(stats.rows_out)),
                ],
            );
        }
        Ok((out, stats, breakdown))
    }

    /// Run `plan` while appending an operator-level breakdown to
    /// `profile`: an `execute` stage plus per-operator rows in/out
    /// (`scan` → `filter` → `project` → `limit`, as present in the
    /// plan). The single-pass loop doesn't time operators individually,
    /// so operator entries carry rows only (zero duration) — except under
    /// a parallel scan, where each worker's chunk is individually timed
    /// and reported as a depth-2 `scan.w<i>` entry whose row counts sum
    /// to the depth-1 `scan` totals.
    pub fn execute_profiled(
        &self,
        plan: &LogicalPlan,
        source: &(dyn RowSource + Sync),
        env: &EvalEnv<'_>,
        profile: &mut scdb_obs::ProfileBuilder,
    ) -> Result<(Vec<Record>, ExecStats), QueryError> {
        let start = std::time::Instant::now();
        let result = self.execute_inner(plan, source, env);
        let elapsed = start.elapsed();
        if let Ok((_, stats, breakdown)) = &result {
            {
                let s = profile.stage("execute", elapsed);
                s.rows_in = Some(source.len() as u64);
                s.rows_out = Some(stats.rows_out);
                if plan.empty {
                    s.notes.push("plan proven empty: scan skipped".into());
                }
                if let Some(est) = plan.estimated_rows {
                    s.notes.push(format!(
                        "estimated {est:.1} rows, actual {}",
                        stats.rows_out
                    ));
                }
            }
            {
                let s = profile.stage_at("scan", 1, std::time::Duration::ZERO);
                s.rows_out = Some(stats.rows_scanned);
                if let Some(name) = plan.source() {
                    s.notes.push(format!("source={name}"));
                }
                match &breakdown.index {
                    Some(index) => s.notes.push(format!(
                        "access=index_scan via '{index}' ({} candidate row(s))",
                        stats.rows_scanned
                    )),
                    None if plan.index_scan().is_some() => s
                        .notes
                        .push("access=scan (index unavailable, fell back)".into()),
                    None => {}
                }
                if breakdown.parallel() {
                    s.notes
                        .push(format!("parallel workers={}", breakdown.per_worker.len()));
                }
            }
            if breakdown.parallel() {
                for (i, w) in breakdown.per_worker.iter().enumerate() {
                    let s = profile.stage_at(&format!("scan.w{i}"), 2, w.duration);
                    s.rows_in = Some(w.rows_scanned);
                    s.rows_out = Some(w.rows_out);
                    s.notes.push(format!("{} eval(s)", w.atom_evals));
                }
            }
            let atoms = plan.filter_atoms();
            if !atoms.is_empty() {
                let s = profile.stage_at("filter", 1, std::time::Duration::ZERO);
                s.rows_in = Some(stats.rows_scanned);
                s.rows_out = Some(stats.rows_out);
                s.notes.push(format!(
                    "{} atom(s), {} eval(s)",
                    atoms.len(),
                    stats.atom_evals
                ));
            }
            for node in &plan.nodes {
                match node {
                    PlanNode::Project { attrs } => {
                        let s = profile.stage_at("project", 1, std::time::Duration::ZERO);
                        s.rows_in = Some(stats.rows_out);
                        s.rows_out = Some(stats.rows_out);
                        s.notes.push(attrs.join(", "));
                    }
                    PlanNode::Limit { n } => {
                        let s = profile.stage_at("limit", 1, std::time::Duration::ZERO);
                        s.rows_out = Some(stats.rows_out);
                        s.notes.push(format!("limit {n}"));
                    }
                    _ => {}
                }
            }
        }
        result.map(|(rows, stats, _)| (rows, stats))
    }
}

/// A plan's filter, projection and limit, compiled once per scan and
/// shared by every worker of it.
struct CompiledScan<'e> {
    /// The filter atoms in plan order.
    atoms: Vec<CompiledAtom<'e>>,
    /// Projected attributes the source knows; `None` keeps every one.
    project: Option<Vec<Symbol>>,
    limit: Option<usize>,
}

impl<'e> CompiledScan<'e> {
    fn compile(plan: &'e LogicalPlan, source: &dyn RowSource, env: &'e EvalEnv<'_>) -> Self {
        let project = plan.nodes.iter().find_map(|n| match n {
            PlanNode::Project { attrs } => {
                Some(attrs.iter().filter_map(|a| source.attr(a)).collect())
            }
            _ => None,
        });
        let limit = plan.nodes.iter().find_map(|n| match n {
            PlanNode::Limit { n } => Some(*n),
            _ => None,
        });
        CompiledScan {
            atoms: plan
                .filter_atoms()
                .iter()
                .map(|atom| CompiledAtom::compile(atom, source, env))
                .collect(),
            project,
            limit,
        }
    }
}

/// One filter atom with its names resolved.
enum CompiledAtom<'e> {
    /// The source has no such attribute: no row passes.
    Never,
    Compare {
        attr: Symbol,
        op: CompareOp,
        rhs: Value,
    },
    CloseTo {
        attr: Symbol,
        pred: FuzzyPredicate,
        alpha: f64,
    },
    /// IS and HAS SOME: the entity the row's value names is in
    /// `entities`, a sorted posting list of the saturation.
    Names {
        attr: Symbol,
        entities: &'e [EntityId],
        entity_by_name: &'e HashMap<String, EntityId>,
    },
    Model {
        model: &'e str,
        trained: &'e TrainedModel,
        features: &'e (dyn Fn(&Record) -> Vec<f64> + Send + Sync + 'e),
        threshold: f64,
    },
    /// A name the environment cannot resolve: fails when evaluated.
    Fail(QueryError),
}

impl<'e> CompiledAtom<'e> {
    fn compile(atom: &'e Atom, source: &dyn RowSource, env: &'e EvalEnv<'_>) -> Self {
        // The semantic environment is checked before the attribute, so an
        // unknown concept or role fails even on an unknown attribute.
        let names = |attr: &str, entities: Option<&'e [EntityId]>, unknown: &str| {
            let (Some(sem), Some(entities)) = (&env.semantic, entities) else {
                return CompiledAtom::Fail(QueryError::UnknownConcept(unknown.to_string()));
            };
            match source.attr(attr) {
                Some(attr) => CompiledAtom::Names {
                    attr,
                    entities,
                    entity_by_name: sem.entity_by_name,
                },
                None => CompiledAtom::Never,
            }
        };
        match atom {
            Atom::Compare { attr, op, value } => match source.attr(attr) {
                Some(attr) => CompiledAtom::Compare {
                    attr,
                    op: *op,
                    rhs: value.to_value(),
                },
                None => CompiledAtom::Never,
            },
            Atom::CloseTo {
                attr,
                center,
                width,
            } => match source.attr(attr) {
                Some(attr) => CompiledAtom::CloseTo {
                    attr,
                    pred: FuzzyPredicate::CloseTo {
                        center: *center,
                        width: *width,
                    },
                    alpha: env.alpha,
                },
                None => CompiledAtom::Never,
            },
            Atom::IsConcept { attr, concept } => {
                let members = env.semantic.as_ref().and_then(|sem| {
                    let c = sem.ontology.find_concept(concept).ok()?;
                    Some(sem.saturation.members(c))
                });
                names(attr, members, concept)
            }
            Atom::HasSome { attr, role } => {
                let subjects = env.semantic.as_ref().and_then(|sem| {
                    let r = sem.ontology.find_role(role).ok()?;
                    Some(sem.saturation.role_subjects(r))
                });
                names(attr, subjects, role)
            }
            Atom::ModelAtom { model, threshold } => match env.models.get(model) {
                Some((trained, features)) => CompiledAtom::Model {
                    model,
                    trained,
                    features: features.as_ref(),
                    threshold: *threshold,
                },
                None => CompiledAtom::Fail(QueryError::UnknownModel(model.clone())),
            },
        }
    }

    /// Does `record` pass? `name` is the caller's buffer for the
    /// normalized entity name.
    fn eval(&self, record: &Record, name: &mut String) -> Result<bool, QueryError> {
        Ok(match self {
            CompiledAtom::Never => false,
            CompiledAtom::Compare { attr, op, rhs } => {
                record.get(*attr).is_some_and(|v| compare(v, *op, rhs))
            }
            CompiledAtom::CloseTo { attr, pred, alpha } => record
                .get(*attr)
                .and_then(Value::as_float)
                .is_some_and(|x| pred.membership(x) >= *alpha),
            CompiledAtom::Names {
                attr,
                entities,
                entity_by_name,
            } => {
                let Some(v) = record.get(*attr) else {
                    return Ok(false);
                };
                normalize_into(&v.render(), name);
                entity_by_name
                    .get(name.as_str())
                    .is_some_and(|e| entities.binary_search(e).is_ok())
            }
            CompiledAtom::Model {
                model,
                trained,
                features,
                threshold,
            } => {
                let p = trained
                    .predict(&features(record))
                    .map_err(|_| QueryError::UnknownModel(model.to_string()))?;
                p >= *threshold
            }
            CompiledAtom::Fail(e) => return Err(e.clone()),
        })
    }
}

/// Fan the scan out over `workers` std threads. Chunk 0 runs on the
/// calling thread; results merge in chunk order, so row order matches
/// the sequential scan. On error the lowest-chunk failure wins and is
/// wrapped in [`QueryError::Worker`] to record which worker died.
fn scan_parallel(
    workers: usize,
    scan: &CompiledScan<'_>,
    source: &(dyn RowSource + Sync),
) -> Result<(Vec<Record>, ExecStats, ScanBreakdown), QueryError> {
    type ChunkResult = Result<(Vec<Record>, WorkerScan), QueryError>;
    let mut results: Vec<Option<ChunkResult>> = Vec::new();
    results.resize_with(workers, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        for chunk in 1..workers {
            handles.push(scope.spawn(move || {
                let t0 = std::time::Instant::now();
                scan_chunk_filtered(source.scan_chunk(chunk, workers), scan, t0)
            }));
        }
        let t0 = std::time::Instant::now();
        results[0] = Some(scan_chunk_filtered(source.scan_chunk(0, workers), scan, t0));
        for (i, h) in handles.into_iter().enumerate() {
            // A worker that panicked (it should not: eval errors are
            // Results) surfaces as an executor-level worker error.
            results[i + 1] = Some(h.join().unwrap_or_else(|_| {
                Err(QueryError::Worker {
                    worker: i + 1,
                    cause: Box::new(QueryError::UnknownSource("scan worker panicked".into())),
                })
            }));
        }
    });
    let mut out = Vec::new();
    let mut stats = ExecStats::default();
    let mut breakdown = ScanBreakdown::default();
    for (i, slot) in results.into_iter().enumerate() {
        let (rows, w) = slot
            .expect("every chunk filled")
            .map_err(|e| e.for_worker(i))?;
        stats.rows_scanned += w.rows_scanned;
        stats.atom_evals += w.atom_evals;
        out.extend(rows);
        breakdown.per_worker.push(w);
    }
    stats.rows_out = out.len() as u64;
    Ok((out, stats, breakdown))
}

/// Filter + project one chunk of rows. The shared inner loop of the
/// sequential, parallel and index paths — identical short-circuit and
/// limit semantics in all three.
fn scan_chunk_filtered<'r>(
    rows: Box<dyn Iterator<Item = &'r Record> + 'r>,
    scan: &CompiledScan<'_>,
    started: std::time::Instant,
) -> Result<(Vec<Record>, WorkerScan), QueryError> {
    let mut w = WorkerScan {
        rows_scanned: 0,
        atom_evals: 0,
        rows_out: 0,
        duration: std::time::Duration::ZERO,
    };
    let mut out = Vec::new();
    let mut name = String::new();
    for record in rows {
        if let Some(l) = scan.limit {
            if out.len() >= l {
                break;
            }
        }
        w.rows_scanned += 1;
        let mut pass = true;
        for atom in &scan.atoms {
            w.atom_evals += 1;
            if !atom.eval(record, &mut name)? {
                pass = false;
                break;
            }
        }
        if !pass {
            continue;
        }
        let projected = match &scan.project {
            None => record.clone(),
            Some(attrs) => {
                let mut r = Record::new();
                for &sym in attrs {
                    if let Some(v) = record.get(sym) {
                        r.set(sym, v.clone());
                    }
                }
                r
            }
        };
        out.push(projected);
    }
    w.rows_out = out.len() as u64;
    w.duration = started.elapsed();
    Ok((out, w))
}

/// Translate an index-scan driving atom into an index predicate.
/// Returns `None` for atom shapes no index answers (`!=`).
fn index_predicate(atom: &Atom) -> Option<IndexPredicate> {
    let Atom::Compare { op, value, .. } = atom else {
        return None;
    };
    let v = value.to_value();
    match op {
        CompareOp::Eq => Some(IndexPredicate::Eq(v)),
        CompareOp::Ne => None,
        CompareOp::Lt => Some(IndexPredicate::Range {
            lo: None,
            hi: Some((v, false)),
        }),
        CompareOp::Le => Some(IndexPredicate::Range {
            lo: None,
            hi: Some((v, true)),
        }),
        CompareOp::Gt => Some(IndexPredicate::Range {
            lo: Some((v, false)),
            hi: None,
        }),
        CompareOp::Ge => Some(IndexPredicate::Range {
            lo: Some((v, true)),
            hi: None,
        }),
    }
}

fn compare(v: &Value, op: CompareOp, rhs: &Value) -> bool {
    if v.is_null() || rhs.is_null() {
        // Codd three-valued logic: unknown never passes a filter.
        return false;
    }
    let ord = v.cmp(rhs);
    match op {
        CompareOp::Eq => ord == std::cmp::Ordering::Equal,
        CompareOp::Ne => ord != std::cmp::Ordering::Equal,
        CompareOp::Lt => ord == std::cmp::Ordering::Less,
        CompareOp::Le => ord != std::cmp::Ordering::Greater,
        CompareOp::Gt => ord == std::cmp::Ordering::Greater,
        CompareOp::Ge => ord != std::cmp::Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::LogicalPlan;
    use scdb_semantic::{ModelKind, ModelSpec};
    use scdb_types::Confidence;

    fn trials() -> (SymbolTable, VecSource) {
        let mut syms = SymbolTable::new();
        let drug = syms.intern("drug");
        let dose = syms.intern("effective_dose");
        let rows = vec![
            Record::from_pairs([(drug, Value::str("Warfarin")), (dose, Value::Float(5.1))]),
            Record::from_pairs([(drug, Value::str("Warfarin")), (dose, Value::Float(3.4))]),
            Record::from_pairs([(drug, Value::str("Ibuprofen")), (dose, Value::Float(5.05))]),
            Record::from_pairs([(drug, Value::str("Warfarin")), (dose, Value::Null)]),
        ];
        let src = VecSource::new("trials", rows, &syms);
        (syms, src)
    }

    fn run(sql: &str, src: &VecSource, env: &EvalEnv<'_>) -> (Vec<Record>, ExecStats) {
        let q = parse(sql).unwrap();
        let plan = LogicalPlan::from_query(&q);
        Executor::sequential().execute(&plan, src, env).unwrap()
    }

    #[test]
    fn compare_and_project() {
        let (syms, src) = trials();
        let (rows, stats) = run(
            "SELECT effective_dose FROM trials WHERE drug = 'Warfarin'",
            &src,
            &EvalEnv::default(),
        );
        assert_eq!(rows.len(), 3);
        assert_eq!(stats.rows_scanned, 4);
        let dose = syms.get("effective_dose").unwrap();
        let drug = syms.get("drug").unwrap();
        assert!(rows[0].get(dose).is_some());
        assert!(rows[0].get(drug).is_none(), "projected away");
    }

    #[test]
    fn fuzzy_close_to_alpha_cut() {
        let (_syms, src) = trials();
        let (rows, _) = run(
            "SELECT * FROM trials WHERE effective_dose CLOSE TO 5.0 WITHIN 0.5",
            &src,
            &EvalEnv::default(),
        );
        // 5.1 (0.8) and 5.05 (0.9) pass at alpha 0.5; 3.4 and NULL fail.
        assert_eq!(rows.len(), 2);
        let strict = EvalEnv {
            alpha: 0.85,
            ..Default::default()
        };
        let (rows, _) = run(
            "SELECT * FROM trials WHERE effective_dose CLOSE TO 5.0 WITHIN 0.5",
            &src,
            &strict,
        );
        assert_eq!(rows.len(), 1, "only 5.05 passes alpha 0.85");
    }

    #[test]
    fn null_never_passes() {
        let (_syms, src) = trials();
        let (rows, _) = run(
            "SELECT * FROM trials WHERE effective_dose > 0",
            &src,
            &EvalEnv::default(),
        );
        assert_eq!(rows.len(), 3, "null dose row excluded");
    }

    #[test]
    fn limit_short_circuits_scan() {
        let (_syms, src) = trials();
        let q = parse("SELECT * FROM trials WHERE drug = 'Warfarin' LIMIT 1").unwrap();
        let plan = LogicalPlan::from_query(&q);
        let (rows, stats) = Executor::sequential()
            .execute(&plan, &src, &EvalEnv::default())
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(stats.rows_scanned < 4, "scan stopped early");
    }

    #[test]
    fn short_circuit_saves_atom_evals() {
        let (_syms, src) = trials();
        // Selective atom first.
        let (_, cheap) = run(
            "SELECT * FROM trials WHERE drug = 'Ibuprofen' AND effective_dose > 0",
            &src,
            &EvalEnv::default(),
        );
        // Unselective atom first.
        let (_, costly) = run(
            "SELECT * FROM trials WHERE effective_dose > 0 AND drug = 'Ibuprofen'",
            &src,
            &EvalEnv::default(),
        );
        assert!(cheap.atom_evals < costly.atom_evals);
    }

    #[test]
    fn unknown_attr_filters_all() {
        let (_syms, src) = trials();
        let (rows, _) = run(
            "SELECT * FROM trials WHERE nonexistent = 1",
            &src,
            &EvalEnv::default(),
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn wrong_source_errors() {
        let (_syms, src) = trials();
        let q = parse("SELECT * FROM other").unwrap();
        let plan = LogicalPlan::from_query(&q);
        assert!(matches!(
            Executor::sequential().execute(&plan, &src, &EvalEnv::default()),
            Err(QueryError::UnknownSource(_))
        ));
    }

    #[test]
    fn empty_plan_scans_nothing() {
        let (_syms, src) = trials();
        let q = parse("SELECT * FROM trials WHERE drug = 'Warfarin'").unwrap();
        let mut plan = LogicalPlan::from_query(&q);
        plan.empty = true;
        let (rows, stats) = Executor::sequential()
            .execute(&plan, &src, &EvalEnv::default())
            .unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.rows_scanned, 0, "the OS.3 unsat win");
    }

    #[test]
    fn semantic_atoms() {
        let (_syms, src) = trials();
        let mut ontology = Ontology::new();
        ontology.subclass("ApprovedDrug", "Drug");
        ontology.subclass_exists("Drug", "has_target", "Gene");
        let approved = ontology.find_concept("ApprovedDrug").unwrap();
        let warfarin = EntityId(1);
        ontology.assert_type(warfarin, approved, Confidence::CERTAIN);
        let sat = scdb_semantic::Reasoner::new().saturate(&ontology);
        let mut entity_by_name = HashMap::new();
        entity_by_name.insert("warfarin".to_string(), warfarin); // normalized key
        let env = EvalEnv {
            semantic: Some(SemanticEnv {
                ontology: &ontology,
                saturation: &sat,
                entity_by_name: &entity_by_name,
            }),
            ..Default::default()
        };
        let (rows, _) = run("SELECT * FROM trials WHERE drug IS 'Drug'", &src, &env);
        assert_eq!(rows.len(), 3, "Warfarin rows pass via ApprovedDrug ⊑ Drug");
        // Existential from the TBox: Drug ⊑ ∃has_target.Gene.
        let (rows, _) = run(
            "SELECT * FROM trials WHERE drug HAS SOME has_target",
            &src,
            &env,
        );
        assert_eq!(rows.len(), 3);
        // Ibuprofen is not registered as an entity ⇒ fails IS.
        let (rows, _) = run(
            "SELECT * FROM trials WHERE drug = 'Ibuprofen' AND drug IS 'Drug'",
            &src,
            &env,
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn semantic_atom_without_env_errors() {
        let (_syms, src) = trials();
        let q = parse("SELECT * FROM trials WHERE drug IS 'Drug'").unwrap();
        let plan = LogicalPlan::from_query(&q);
        assert!(matches!(
            Executor::sequential().execute(&plan, &src, &EvalEnv::default()),
            Err(QueryError::UnknownConcept(_))
        ));
    }

    /// An atom naming what the environment cannot resolve — an unknown
    /// concept, role or model, or a semantic atom with no `SemanticEnv` —
    /// raises its error on the first row that evaluates it, and only
    /// then: an empty source, or the atom behind a comparison no row
    /// passes, answers `Ok`.
    #[test]
    fn unresolvable_names_fail_at_their_first_evaluation() {
        let (syms, src) = trials();
        let empty = VecSource::new("trials", Vec::new(), &syms);
        let mut ontology = Ontology::new();
        ontology.subclass_exists("Drug", "has_target", "Gene");
        let sat = scdb_semantic::Reasoner::new().saturate(&ontology);
        let names = HashMap::new();
        let semantic = || EvalEnv {
            semantic: Some(SemanticEnv {
                ontology: &ontology,
                saturation: &sat,
                entity_by_name: &names,
            }),
            ..Default::default()
        };
        let concept = |c: &str| QueryError::UnknownConcept(c.into());
        let cases = [
            ("drug IS 'Nope'", semantic(), concept("Nope")),
            ("nonexistent IS 'Nope'", semantic(), concept("Nope")),
            ("drug HAS SOME nope", semantic(), concept("nope")),
            (
                "LINKED BY nope >= 0.5",
                semantic(),
                QueryError::UnknownModel("nope".into()),
            ),
            ("drug IS 'Drug'", EvalEnv::default(), concept("Drug")),
            (
                "drug HAS SOME has_target",
                EvalEnv::default(),
                concept("has_target"),
            ),
            (
                "nonexistent HAS SOME has_target",
                EvalEnv::default(),
                concept("has_target"),
            ),
        ];
        let par = Executor {
            workers: 4,
            parallel_threshold: 1,
        };
        let exec = |ex: Executor, sql: &str, src: &VecSource, env: &EvalEnv<'_>| {
            let plan = LogicalPlan::from_query(&parse(sql).unwrap());
            ex.execute(&plan, src, env)
        };
        for (atom, env, want) in &cases {
            let alone = format!("SELECT * FROM trials WHERE {atom}");
            let behind_false = format!("SELECT * FROM trials WHERE drug = 'Nobody' AND {atom}");
            let behind_third = format!("SELECT * FROM trials WHERE drug = 'Ibuprofen' AND {atom}");
            for ex in [Executor::sequential(), par] {
                let (rows, stats) = exec(ex, &alone, &empty, env).expect(atom);
                assert!(rows.is_empty());
                assert_eq!(stats, ExecStats::default(), "{atom}");
                let (rows, stats) = exec(ex, &behind_false, &src, env).expect(atom);
                assert!(rows.is_empty());
                assert_eq!(stats.atom_evals, 4, "only the comparison ran: {atom}");
            }
            assert_eq!(
                exec(Executor::sequential(), &alone, &src, env).unwrap_err(),
                *want
            );
            assert_eq!(
                exec(Executor::sequential(), &behind_third, &src, env).unwrap_err(),
                *want
            );
            // One row per worker: the worker whose row first evaluates
            // the atom is the one that fails.
            assert_eq!(
                exec(par, &alone, &src, env).unwrap_err(),
                want.clone().for_worker(0)
            );
            assert_eq!(
                exec(par, &behind_third, &src, env).unwrap_err(),
                want.clone().for_worker(2)
            );
        }
    }

    #[test]
    fn model_atom() {
        let (syms, src) = trials();
        let spec = ModelSpec::new(
            "dose_ok",
            ModelKind::LogisticRegression,
            vec!["dose".into()],
            "dose acceptability",
        );
        let rows: Vec<(Vec<f64>, bool)> =
            (0..40).map(|i| (vec![i as f64 / 10.0], i >= 20)).collect();
        let trained = spec.train(&rows).unwrap();
        let dose = syms.get("effective_dose").unwrap();
        let mut env = EvalEnv::default();
        env.models.insert(
            "dose_ok".to_string(),
            (
                &trained,
                Box::new(move |r: &Record| {
                    vec![r.get(dose).and_then(|v| v.as_float()).unwrap_or(0.0)]
                }),
            ),
        );
        let (rows, _) = run(
            "SELECT * FROM trials WHERE LINKED BY dose_ok >= 0.5",
            &src,
            &env,
        );
        // Doses 5.1, 3.4, and 5.05 are above the learned boundary (~2.0);
        // the NULL dose maps to feature 0.0 and is rejected.
        assert_eq!(rows.len(), 3);
        // Unknown model errors.
        let q = parse("SELECT * FROM trials WHERE LINKED BY nope >= 0.5").unwrap();
        let plan = LogicalPlan::from_query(&q);
        assert!(matches!(
            Executor::sequential().execute(&plan, &src, &env),
            Err(QueryError::UnknownModel(_))
        ));
    }

    fn wide_trials(n: usize) -> (SymbolTable, VecSource) {
        let mut syms = SymbolTable::new();
        let drug = syms.intern("drug");
        let dose = syms.intern("effective_dose");
        let rows = (0..n)
            .map(|i| {
                Record::from_pairs([
                    (
                        drug,
                        Value::str(if i % 3 == 0 { "Warfarin" } else { "Other" }),
                    ),
                    (dose, Value::Float(i as f64 / 10.0)),
                ])
            })
            .collect();
        let src = VecSource::new("trials", rows, &syms);
        (syms, src)
    }

    #[test]
    fn chunk_bounds_partition_the_row_space() {
        for len in [0usize, 1, 7, 100, 101] {
            for of in [1usize, 2, 4, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for chunk in 0..of {
                    let (start, end) = chunk_bounds(len, chunk, of);
                    assert_eq!(start, prev_end, "chunks contiguous");
                    assert!(end >= start);
                    covered += end - start;
                    prev_end = end;
                }
                assert_eq!(covered, len, "chunks cover every row exactly once");
            }
        }
        // Degenerate `of = 0` is treated as 1.
        assert_eq!(chunk_bounds(5, 0, 0), (0, 5));
    }

    #[test]
    fn parallel_scan_matches_sequential() {
        let (_syms, src) = wide_trials(97);
        let sql = "SELECT effective_dose FROM trials WHERE drug = 'Warfarin'";
        let q = parse(sql).unwrap();
        let plan = LogicalPlan::from_query(&q);
        let (seq_rows, seq_stats) = Executor::sequential()
            .execute(&plan, &src, &EvalEnv::default())
            .unwrap();
        let par = Executor {
            workers: 4,
            parallel_threshold: 1,
        };
        let (par_rows, par_stats) = par.execute(&plan, &src, &EvalEnv::default()).unwrap();
        assert_eq!(par_rows, seq_rows, "row order preserved across chunks");
        assert_eq!(par_stats.rows_scanned, seq_stats.rows_scanned);
        assert_eq!(par_stats.atom_evals, seq_stats.atom_evals);
        assert_eq!(par_stats.rows_out, seq_stats.rows_out);
    }

    #[test]
    fn parallel_limit_truncates_at_merge() {
        let (_syms, src) = wide_trials(60);
        let q = parse("SELECT * FROM trials WHERE drug = 'Warfarin' LIMIT 5").unwrap();
        let plan = LogicalPlan::from_query(&q);
        let par = Executor {
            workers: 4,
            parallel_threshold: 1,
        };
        let (rows, stats) = par.execute(&plan, &src, &EvalEnv::default()).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(stats.rows_out, 5);
        // Prefix semantics: the merged limit keeps the first 5 matches in
        // row order, same as a sequential scan.
        let (seq_rows, _) = Executor::sequential()
            .execute(&plan, &src, &EvalEnv::default())
            .unwrap();
        assert_eq!(rows, seq_rows);
    }

    #[test]
    fn parallel_profile_reports_per_worker_truth() {
        let (_syms, src) = wide_trials(80);
        let q = parse("SELECT * FROM trials WHERE drug = 'Warfarin'").unwrap();
        let plan = LogicalPlan::from_query(&q);
        let par = Executor {
            workers: 4,
            parallel_threshold: 1,
        };
        let mut builder = scdb_obs::ProfileBuilder::new();
        let (_, stats) = par
            .execute_profiled(&plan, &src, &EvalEnv::default(), &mut builder)
            .unwrap();
        let profile = builder.finish();
        let scan = profile
            .stages
            .iter()
            .find(|s| s.name == "scan")
            .expect("scan stage present");
        assert!(
            scan.notes.iter().any(|n| n == "parallel workers=4"),
            "scan stage records the fan-out: {:?}",
            scan.notes
        );
        let workers: Vec<_> = profile
            .stages
            .iter()
            .filter(|s| s.name.starts_with("scan.w"))
            .collect();
        assert_eq!(workers.len(), 4);
        let scanned: u64 = workers.iter().map(|s| s.rows_in.unwrap()).sum();
        let emitted: u64 = workers.iter().map(|s| s.rows_out.unwrap()).sum();
        assert_eq!(scanned, stats.rows_scanned, "worker rows sum to the total");
        assert_eq!(emitted, stats.rows_out);
        assert!(workers.iter().all(|s| s.depth == 2));
    }

    #[test]
    fn parallel_worker_error_names_the_chunk() {
        use std::error::Error as _;
        let (_syms, src) = wide_trials(40);
        // A model atom with no registered model fails in every worker; the
        // merge must surface the lowest chunk's failure, worker-tagged.
        let q = parse("SELECT * FROM trials WHERE LINKED BY nope >= 0.5").unwrap();
        let plan = LogicalPlan::from_query(&q);
        let par = Executor {
            workers: 4,
            parallel_threshold: 1,
        };
        let err = par
            .execute(&plan, &src, &EvalEnv::default())
            .expect_err("unknown model must fail");
        match &err {
            QueryError::Worker { worker, cause } => {
                assert_eq!(*worker, 0, "lowest chunk wins deterministically");
                assert!(matches!(**cause, QueryError::UnknownModel(_)));
            }
            other => panic!("expected worker-tagged error, got {other:?}"),
        }
        assert!(err.source().is_some(), "source chain intact");
    }

    fn indexed_store(
        n: i64,
    ) -> (
        SymbolTable,
        scdb_storage::RowStore,
        scdb_storage::index::IndexSet,
    ) {
        use scdb_storage::index::{IndexDef, IndexKind};
        let mut syms = SymbolTable::new();
        let name = syms.intern("name");
        let score = syms.intern("score");
        let mut store = scdb_storage::RowStore::new(scdb_types::SourceId(0));
        for i in 0..n {
            store.append(Record::from_pairs([
                (name, Value::str(format!("r{i}"))),
                (score, Value::Int(i)),
            ]));
        }
        let mut set = scdb_storage::index::IndexSet::new();
        set.create(
            IndexDef {
                name: "ix_name".into(),
                source: "trials".into(),
                attr: "name".into(),
                kind: IndexKind::Hash,
            },
            &syms,
            &store,
        );
        set.create(
            IndexDef {
                name: "ix_score".into(),
                source: "trials".into(),
                attr: "score".into(),
                kind: IndexKind::Ordered,
            },
            &syms,
            &store,
        );
        (syms, store, set)
    }

    fn index_plan(sql: &str, index: &str) -> LogicalPlan {
        let q = parse(sql).unwrap();
        let mut plan = LogicalPlan::from_query(&q);
        let atom = plan.filter_atoms()[0].clone();
        plan.nodes[0] = PlanNode::IndexScan {
            source: q.from.clone(),
            index: index.into(),
            atom,
        };
        plan
    }

    #[test]
    fn index_scan_matches_full_scan() {
        let (syms, store, set) = indexed_store(100);
        let src = StoreSource::with_indexes("trials", &store, &syms, &set);
        for (sql, index) in [
            ("SELECT * FROM trials WHERE name = 'r42'", "ix_name"),
            ("SELECT * FROM trials WHERE score >= 90", "ix_score"),
            (
                "SELECT name FROM trials WHERE score < 5 LIMIT 3",
                "ix_score",
            ),
        ] {
            let q = parse(sql).unwrap();
            let full = LogicalPlan::from_query(&q);
            let (want, want_stats) = Executor::sequential()
                .execute(&full, &src, &EvalEnv::default())
                .unwrap();
            let (got, got_stats) = Executor::sequential()
                .execute(&index_plan(sql, index), &src, &EvalEnv::default())
                .unwrap();
            assert_eq!(got, want, "rows and order identical: {sql}");
            assert!(
                got_stats.rows_scanned <= want_stats.rows_scanned,
                "index never scans more than the full scan for {sql}: {} vs {}",
                got_stats.rows_scanned,
                want_stats.rows_scanned
            );
        }
        // The selective point lookup touches exactly its one candidate
        // where the full scan walks all 100 rows.
        let (_, stats) = Executor::sequential()
            .execute(
                &index_plan("SELECT * FROM trials WHERE name = 'r42'", "ix_name"),
                &src,
                &EvalEnv::default(),
            )
            .unwrap();
        assert_eq!(stats.rows_scanned, 1);
    }

    #[test]
    fn index_scan_rechecks_residual_atoms() {
        let (syms, store, set) = indexed_store(100);
        let src = StoreSource::with_indexes("trials", &store, &syms, &set);
        // Index narrows to score >= 90, residual name filter re-checks.
        let sql = "SELECT * FROM trials WHERE score >= 90 AND name = 'r95'";
        let q = parse(sql).unwrap();
        let mut plan = LogicalPlan::from_query(&q);
        let atom = plan.filter_atoms()[0].clone();
        plan.nodes[0] = PlanNode::IndexScan {
            source: "trials".into(),
            index: "ix_score".into(),
            atom,
        };
        let (rows, stats) = Executor::sequential()
            .execute(&plan, &src, &EvalEnv::default())
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.rows_scanned, 10, "only the candidate rows visited");
    }

    #[test]
    fn index_scan_without_index_falls_back_to_scan() {
        let (syms, store, _set) = indexed_store(50);
        // Source wrapped WITHOUT indexes: the plan's IndexScan degrades
        // to a full scan with identical results.
        let src = StoreSource::new("trials", &store, &syms);
        let sql = "SELECT * FROM trials WHERE name = 'r7'";
        let (rows, stats) = Executor::sequential()
            .execute(&index_plan(sql, "ix_name"), &src, &EvalEnv::default())
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.rows_scanned, 50, "full scan fallback");
    }

    #[test]
    fn index_scan_profile_names_the_access_path() {
        let (syms, store, set) = indexed_store(100);
        let src = StoreSource::with_indexes("trials", &store, &syms, &set);
        let mut builder = scdb_obs::ProfileBuilder::new();
        let plan = index_plan("SELECT * FROM trials WHERE name = 'r42'", "ix_name");
        Executor::sequential()
            .execute_profiled(&plan, &src, &EvalEnv::default(), &mut builder)
            .unwrap();
        let profile = builder.finish();
        let scan = profile
            .stages
            .iter()
            .find(|s| s.name == "scan")
            .expect("scan stage present");
        assert!(
            scan.notes
                .iter()
                .any(|n| n.contains("access=index_scan via 'ix_name'")),
            "scan stage names the index: {:?}",
            scan.notes
        );
    }

    #[test]
    fn threshold_keeps_small_scans_sequential() {
        let (_syms, src) = wide_trials(10);
        let q = parse("SELECT * FROM trials").unwrap();
        let plan = LogicalPlan::from_query(&q);
        let ex = Executor {
            workers: 8,
            parallel_threshold: 1024,
        };
        let mut builder = scdb_obs::ProfileBuilder::new();
        ex.execute_profiled(&plan, &src, &EvalEnv::default(), &mut builder)
            .unwrap();
        let profile = builder.finish();
        assert!(
            !profile.stages.iter().any(|s| s.name.starts_with("scan.w")),
            "below the threshold the scan stays on one thread"
        );
    }
}
