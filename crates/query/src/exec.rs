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
//! A comparison or `CLOSE TO` on an attribute the source keeps a numeric
//! column for ([`RowSource::numeric_column`]) reads its operand from that
//! column by row offset, when its literal is numeric and exact as an
//! `f64` ([`exact_f64`]). An `IS` or `HAS SOME` on an attribute the
//! source keeps a name column for ([`RowSource::names`]) reads the row's
//! entity from that column and tests one bit of its posting list, turned
//! into a bitset. Any other atom pays a symbol lookup in the row's
//! record, and a semantic atom one normalization into a reused buffer, a
//! name probe and a binary search. A row's record is fetched only when
//! an atom or the projection reads it, so a filter answered from columns
//! touches only the records it returns.
//! A name the environment cannot resolve compiles to an atom that fails,
//! so its error is raised by the first row that evaluates it, exactly as
//! when every row resolved its names.

use std::borrow::Cow;
use std::collections::HashMap;

use scdb_er::normalize::normalize_into;
use scdb_obs::CounterHandle;
use scdb_semantic::{Ontology, Saturation, TrainedModel};
use scdb_storage::index::{IndexPredicate, IndexSet};
use scdb_storage::names::{NameColumn, NameIndex, SourceNames};
use scdb_storage::row::{exact_f64, NumericColumn};
use scdb_storage::RowStore;
use scdb_types::{EntityId, Record, Symbol, SymbolTable, Value};
use scdb_uncertain::FuzzyPredicate;

use crate::ast::{Atom, CompareOp, NameList};
use crate::error::QueryError;
use crate::plan::{LogicalPlan, PlanNode};

static INDEX_SCANS: CounterHandle = CounterHandle::new("query.index.scans");
static INDEX_CANDIDATES: CounterHandle = CounterHandle::new("query.index.candidates");
static INDEX_FALLBACKS: CounterHandle = CounterHandle::new("query.index.fallbacks");
static ROWS_SCANNED: CounterHandle = CounterHandle::new("query.rows_scanned");
static ATOM_EVALS: CounterHandle = CounterHandle::new("query.atom_evals");
static ROWS_OUT: CounterHandle = CounterHandle::new("query.rows_out");
static PARALLEL_SCANS: CounterHandle = CounterHandle::new("query.parallel_scans");

/// A scannable source of records.
pub trait RowSource {
    /// Source name (matched against the plan's scan).
    fn name(&self) -> &str;
    /// The rows in scan (arrival) order; a row's offset is its index.
    fn rows(&self) -> &[Record];
    /// The record at `offset`: where the executor reads every record it
    /// filters or projects.
    fn record(&self, offset: usize) -> &Record {
        &self.rows()[offset]
    }
    /// Number of rows (for optimizer base cardinality).
    fn len(&self) -> usize {
        self.rows().len()
    }
    /// True when the source has no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Resolve an attribute name to its symbol.
    fn attr(&self, name: &str) -> Option<Symbol>;
    /// `attr`'s values as a column indexed by row offset, when the source
    /// keeps one ([`RowStore::numeric_column`]). The default keeps every
    /// atom on the records.
    fn numeric_column(&self, _attr: Symbol) -> Option<&NumericColumn> {
        None
    }
    /// The source's names, when it keeps a [`NameIndex`]: name columns,
    /// which semantic atoms read by row offset, and the registered names
    /// an attribute without a column is looked up in. The default reads
    /// semantic atoms from the records, looking names up in the
    /// [`SemanticEnv`].
    fn names(&self) -> Option<SourceNames<'_>> {
        None
    }
    /// Offsets of the candidate rows for an indexed predicate on `attr`,
    /// ascending (scan order), when a usable secondary index exists.
    /// `None` means "no index" — the executor falls back to a full scan,
    /// so a plan carrying a stale [`PlanNode::IndexScan`] still answers
    /// correctly.
    fn index_candidates(&self, _attr: &str, _pred: &IndexPredicate) -> Option<Vec<u64>> {
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
    fn rows(&self) -> &[Record] {
        &self.rows
    }
    fn attr(&self, name: &str) -> Option<Symbol> {
        self.attrs.get(name).copied()
    }
}

/// A source over a [`RowStore`] (the instance layer).
pub struct StoreSource<'a> {
    name: Cow<'a, str>,
    store: &'a RowStore,
    symbols: &'a SymbolTable,
    indexes: Option<&'a IndexSet>,
    names: Option<&'a NameIndex>,
}

impl<'a> StoreSource<'a> {
    /// Wrap a row store.
    pub fn new(
        name: impl Into<Cow<'a, str>>,
        store: &'a RowStore,
        symbols: &'a SymbolTable,
    ) -> Self {
        StoreSource {
            name: name.into(),
            store,
            symbols,
            indexes: None,
            names: None,
        }
    }

    /// Wrap a row store together with its secondary indexes, enabling
    /// the [`PlanNode::IndexScan`] access path.
    pub fn with_indexes(
        name: impl Into<Cow<'a, str>>,
        store: &'a RowStore,
        symbols: &'a SymbolTable,
        indexes: &'a IndexSet,
    ) -> Self {
        StoreSource {
            name: name.into(),
            store,
            symbols,
            indexes: Some(indexes),
            names: None,
        }
    }

    /// Read semantic atoms through the names `names` keeps for this
    /// store's source ([`RowSource::names`]).
    pub fn with_names(self, names: &'a NameIndex) -> Self {
        StoreSource {
            names: Some(names),
            ..self
        }
    }
}

impl RowSource for StoreSource<'_> {
    fn name(&self) -> &str {
        &self.name
    }
    fn rows(&self) -> &[Record] {
        self.store.rows()
    }
    fn attr(&self, name: &str) -> Option<Symbol> {
        self.symbols.get(name)
    }
    fn numeric_column(&self, attr: Symbol) -> Option<&NumericColumn> {
        self.store.numeric_column(attr)
    }
    fn names(&self) -> Option<SourceNames<'_>> {
        Some(self.names?.source(self.store.source()))
    }
    fn index_candidates(&self, attr: &str, pred: &IndexPredicate) -> Option<Vec<u64>> {
        // Offsets are sorted ascending, i.e. arrival order — the same
        // order a full scan yields, so downstream limit/merge semantics
        // are unchanged. Rows are never removed, so every offset the
        // index holds names a stored row.
        self.indexes?.lookup(attr, pred)
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
pub struct ScanBreakdown<'p> {
    /// Per-worker counters in chunk order.
    pub per_worker: Vec<WorkerScan>,
    /// Name of the index used, when the scan went through the
    /// [`PlanNode::IndexScan`] access path.
    pub index: Option<&'p str>,
}

impl ScanBreakdown<'_> {
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
/// least `parallel_threshold` rows: the row offsets are split into
/// contiguous chunks, each worker filters and projects its chunk
/// independently, and partial results merge back in chunk order — output ordering and [`ExecStats`] totals
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

    fn execute_inner<'p>(
        &self,
        plan: &'p LogicalPlan,
        source: &(dyn RowSource + Sync),
        env: &EvalEnv<'_>,
    ) -> Result<(Vec<Record>, ExecStats, ScanBreakdown<'p>), QueryError> {
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
                    let offsets = candidates.into_iter().map(|off| off as usize);
                    let (mut out, w) = scan_chunk_filtered(source, offsets, &scan, t0)?;
                    if let Some(l) = limit {
                        out.truncate(l);
                    }
                    let stats = ExecStats {
                        rows_scanned: w.rows_scanned,
                        atom_evals: w.atom_evals,
                        rows_out: out.len() as u64,
                    };
                    INDEX_SCANS.inc();
                    INDEX_CANDIDATES.add(n_candidates);
                    ROWS_SCANNED.add(stats.rows_scanned);
                    ATOM_EVALS.add(stats.atom_evals);
                    ROWS_OUT.add(stats.rows_out);
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
                        index: Some(index_name),
                    };
                    return Ok((out, stats, breakdown));
                }
                INDEX_FALLBACKS.inc();
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
            let (rows, w) = scan_chunk_filtered(source, 0..source.len(), &scan, t0)?;
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
        ROWS_SCANNED.add(stats.rows_scanned);
        ATOM_EVALS.add(stats.atom_evals);
        ROWS_OUT.add(stats.rows_out);
        if breakdown.parallel() {
            PARALLEL_SCANS.inc();
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
                    let s = profile.stage_at(format!("scan.w{i}"), 2, w.duration);
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
                        s.notes.push(NameList(attrs).to_string());
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
    fn compile(plan: &'e LogicalPlan, source: &'e dyn RowSource, env: &'e EvalEnv<'_>) -> Self {
        let project = plan.nodes.iter().find_map(|n| match n {
            PlanNode::Project { attrs } => {
                Some(attrs.iter().filter_map(|a| source.attr(a)).collect())
            }
            _ => None,
        });
        let limit = plan.limit();
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
    /// Reads no record and cannot fail.
    Pure(PureAtom<'e>),
    /// Reads the row's record.
    Record(RecordAtom<'e>),
}

/// An atom answered without the row's record.
enum PureAtom<'e> {
    /// The source has no such attribute: no row passes.
    Never,
    /// A comparison read from the attribute's numeric column; `rhs` is
    /// the literal's [`exact_f64`] image, `accepts` the orderings the
    /// operator passes ([`accepted`]).
    Compare {
        column: &'e NumericColumn,
        accepts: u8,
        rhs: f64,
    },
    /// `CLOSE TO` read from the attribute's numeric column.
    CloseTo {
        column: &'e NumericColumn,
        pred: FuzzyPredicate,
        alpha: f64,
    },
    /// IS and HAS SOME read from the attribute's name column: the entity
    /// the row names has its bit set in `entities`, the posting list as a
    /// bitset over entity ids.
    Names {
        column: NameColumn<'e>,
        entities: Vec<u64>,
    },
}

/// Where a semantic atom read from the records looks a normalized name
/// up: the source's own names, or the environment's for a source that
/// keeps none.
enum Names<'e> {
    Source(SourceNames<'e>),
    Env(&'e HashMap<String, EntityId>),
}

/// An atom that reads the row's record.
enum RecordAtom<'e> {
    /// A comparison; `accepts` as in [`PureAtom::Compare`].
    Compare {
        attr: Symbol,
        accepts: u8,
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
        names: Names<'e>,
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
    fn compile(atom: &'e Atom, source: &'e dyn RowSource, env: &'e EvalEnv<'_>) -> Self {
        // The semantic environment is checked before the attribute, so an
        // unknown concept or role fails even on an unknown attribute.
        let names = |attr: &str, entities: Option<&'e [EntityId]>, unknown: &str| {
            let (Some(sem), Some(entities)) = (&env.semantic, entities) else {
                return Self::Record(RecordAtom::Fail(QueryError::UnknownConcept(
                    unknown.to_string(),
                )));
            };
            let Some(attr) = source.attr(attr) else {
                return Self::Pure(PureAtom::Never);
            };
            let names = source.names();
            if let Some(column) = names.and_then(|n| n.column(attr)) {
                return Self::Pure(PureAtom::Names {
                    column,
                    entities: bitset(entities, column.entity_bound()),
                });
            }
            Self::Record(RecordAtom::Names {
                attr,
                entities,
                names: names.map_or(Names::Env(sem.entity_by_name), Names::Source),
            })
        };
        match atom {
            Atom::Compare { attr, op, value } => {
                let Some(attr) = source.attr(attr) else {
                    return Self::Pure(PureAtom::Never);
                };
                let (accepts, rhs) = (accepted(*op), value.to_value());
                match (source.numeric_column(attr), exact_f64(&rhs)) {
                    (Some(column), Some(rhs)) => Self::Pure(PureAtom::Compare {
                        column,
                        accepts,
                        rhs,
                    }),
                    _ => Self::Record(RecordAtom::Compare { attr, accepts, rhs }),
                }
            }
            Atom::CloseTo {
                attr,
                center,
                width,
            } => {
                let Some(attr) = source.attr(attr) else {
                    return Self::Pure(PureAtom::Never);
                };
                let pred = FuzzyPredicate::CloseTo {
                    center: *center,
                    width: *width,
                };
                let alpha = env.alpha;
                match source.numeric_column(attr) {
                    Some(column) => Self::Pure(PureAtom::CloseTo {
                        column,
                        pred,
                        alpha,
                    }),
                    None => Self::Record(RecordAtom::CloseTo { attr, pred, alpha }),
                }
            }
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
                Some((trained, features)) => Self::Record(RecordAtom::Model {
                    model,
                    trained,
                    features: features.as_ref(),
                    threshold: *threshold,
                }),
                None => Self::Record(RecordAtom::Fail(QueryError::UnknownModel(model.clone()))),
            },
        }
    }
}

impl PureAtom<'_> {
    /// Does the row at `offset` pass? Inlined: a range filter does
    /// nothing else per row.
    #[inline(always)]
    fn eval(&self, offset: usize) -> bool {
        match self {
            PureAtom::Never => false,
            PureAtom::Compare {
                column,
                accepts,
                rhs,
            } => column
                .get(offset)
                .is_some_and(|x| holds(*accepts, x.total_cmp(rhs))),
            PureAtom::CloseTo {
                column,
                pred,
                alpha,
            } => column
                .get(offset)
                .is_some_and(|x| pred.membership(x) >= *alpha),
            PureAtom::Names { column, entities } => column.entity(offset).is_some_and(|e| {
                entities
                    .get((e.0 / 64) as usize)
                    .is_some_and(|word| word >> (e.0 % 64) & 1 == 1)
            }),
        }
    }
}

/// The sorted posting list `entities` as a bitset over the ids below
/// `bound`: the only ids a name column yields.
fn bitset(entities: &[EntityId], bound: u64) -> Vec<u64> {
    let mut bits = vec![0u64; bound.div_ceil(64) as usize];
    for e in entities.iter().take_while(|e| e.0 < bound) {
        bits[(e.0 / 64) as usize] |= 1 << (e.0 % 64);
    }
    bits
}

impl RecordAtom<'_> {
    /// Does `record` pass? `name` is the caller's buffer for the
    /// normalized entity name.
    fn eval(&self, record: &Record, name: &mut String) -> Result<bool, QueryError> {
        Ok(match self {
            RecordAtom::Compare { attr, accepts, rhs } => {
                record.get(*attr).is_some_and(|v| compare(v, *accepts, rhs))
            }
            RecordAtom::CloseTo { attr, pred, alpha } => record
                .get(*attr)
                .and_then(Value::as_float)
                .is_some_and(|x| pred.membership(x) >= *alpha),
            RecordAtom::Names {
                attr,
                entities,
                names,
            } => {
                let Some(v) = record.get(*attr) else {
                    return Ok(false);
                };
                normalize_into(&v.render(), name);
                let entity = match names {
                    Names::Source(names) => names.entity_named(name),
                    Names::Env(names) => names.get(name.as_str()).copied(),
                };
                entity.is_some_and(|e| entities.binary_search(&e).is_ok())
            }
            RecordAtom::Model {
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
            RecordAtom::Fail(e) => return Err(e.clone()),
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
) -> Result<(Vec<Record>, ExecStats, ScanBreakdown<'static>), QueryError> {
    type ChunkResult = Result<(Vec<Record>, WorkerScan), QueryError>;
    let mut results: Vec<Option<ChunkResult>> = Vec::new();
    results.resize_with(workers, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers - 1);
        let offsets = move |chunk| {
            let (start, end) = chunk_bounds(source.len(), chunk, workers);
            start..end
        };
        for chunk in 1..workers {
            handles.push(scope.spawn(move || {
                let t0 = std::time::Instant::now();
                scan_chunk_filtered(source, offsets(chunk), scan, t0)
            }));
        }
        let t0 = std::time::Instant::now();
        results[0] = Some(scan_chunk_filtered(source, offsets(0), scan, t0));
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

/// Filter + project the rows at `offsets`. The one inner loop of the
/// sequential, parallel and index paths — identical short-circuit and
/// limit semantics in all three.
fn scan_chunk_filtered(
    source: &dyn RowSource,
    offsets: impl Iterator<Item = usize>,
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
    'rows: for offset in offsets {
        if let Some(l) = scan.limit {
            if out.len() >= l {
                break;
            }
        }
        w.rows_scanned += 1;
        let mut record = None;
        for atom in &scan.atoms {
            w.atom_evals += 1;
            let pass = match atom {
                CompiledAtom::Pure(atom) => atom.eval(offset),
                CompiledAtom::Record(atom) => {
                    let record = *record.get_or_insert_with(|| source.record(offset));
                    atom.eval(record, &mut name)?
                }
            };
            if !pass {
                continue 'rows;
            }
        }
        let record = record.unwrap_or_else(|| source.record(offset));
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

fn compare(v: &Value, accepts: u8, rhs: &Value) -> bool {
    if v.is_null() || rhs.is_null() {
        // Codd three-valued logic: unknown never passes a filter.
        return false;
    }
    holds(accepts, v.cmp(rhs))
}

/// The orderings of a left operand against a right one that pass `op`:
/// bit 0 `Less`, bit 1 `Equal`, bit 2 `Greater`.
fn accepted(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0b010,
        CompareOp::Ne => 0b101,
        CompareOp::Lt => 0b001,
        CompareOp::Le => 0b011,
        CompareOp::Gt => 0b100,
        CompareOp::Ge => 0b110,
    }
}

/// Is `ord` among the orderings `accepts` ([`accepted`])?
fn holds(accepts: u8, ord: std::cmp::Ordering) -> bool {
    accepts >> (ord as i8 + 1) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Literal;
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

    /// A store source that counts the records the executor reads, and
    /// can hide the store's numeric columns.
    struct Counting<'a> {
        inner: StoreSource<'a>,
        columns: bool,
        fetched: std::sync::atomic::AtomicUsize,
    }

    impl RowSource for Counting<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn rows(&self) -> &[Record] {
            self.inner.rows()
        }
        fn record(&self, offset: usize) -> &Record {
            self.fetched
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.record(offset)
        }
        fn attr(&self, name: &str) -> Option<Symbol> {
            self.inner.attr(name)
        }
        fn numeric_column(&self, attr: Symbol) -> Option<&NumericColumn> {
            self.inner.numeric_column(attr).filter(|_| self.columns)
        }
    }

    /// A numeric range scan answered from the column fetches only the
    /// records it returns; the same scan on the records fetches every
    /// row, and both answer the same rows with the same counters.
    #[test]
    fn column_scan_fetches_only_the_rows_it_returns() {
        let (syms, store, _) = indexed_store(1000);
        let sql = "SELECT name FROM trials WHERE score >= 100 AND score < 130";
        let plan = LogicalPlan::from_query(&parse(sql).unwrap());
        let par = Executor {
            workers: 4,
            parallel_threshold: 1,
        };
        let mut answers = Vec::new();
        for ex in [Executor::sequential(), par] {
            for columns in [true, false] {
                let src = Counting {
                    inner: StoreSource::new("trials", &store, &syms),
                    columns,
                    fetched: Default::default(),
                };
                let (rows, stats) = ex.execute(&plan, &src, &EvalEnv::default()).unwrap();
                assert_eq!(rows.len(), 30);
                assert_eq!(stats.rows_scanned, 1000);
                let fetched = src.fetched.into_inner();
                assert_eq!(fetched, if columns { 30 } else { 1000 }, "{columns}");
                answers.push((rows, stats));
            }
        }
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
    }

    /// Literals a column cannot compare exactly, and values that drop the
    /// column, keep the record path and its answers.
    #[test]
    fn inexact_literals_and_mixed_attributes_read_the_records() {
        let mut syms = SymbolTable::new();
        let (n, m) = (syms.intern("n"), syms.intern("m"));
        let edge = 1i64 << 53;
        let mut store = scdb_storage::RowStore::new(scdb_types::SourceId(0));
        for v in [edge - 1, edge, -edge, 0] {
            store.append(Record::from_pairs([(n, Value::Int(v)), (m, Value::Int(v))]));
        }
        store.append(Record::from_pairs([(m, Value::str("x"))]));
        assert!(store.numeric_column(n).is_some());
        assert!(store.numeric_column(m).is_none());
        let src = Counting {
            inner: StoreSource::new("t", &store, &syms),
            columns: true,
            fetched: Default::default(),
        };
        // Built, not parsed: ScQL text spells no Int beyond ±9e15.
        let count = |atom: Atom| {
            let mut plan = LogicalPlan::from_query(&parse("SELECT * FROM t").unwrap());
            plan.set_filter_atoms(vec![atom]);
            let before = src.fetched.load(std::sync::atomic::Ordering::Relaxed);
            let (rows, _) = Executor::sequential()
                .execute(&plan, &src, &EvalEnv::default())
                .unwrap();
            let fetched = src.fetched.load(std::sync::atomic::Ordering::Relaxed) - before;
            (rows.len(), fetched)
        };
        let cmp = |attr: &str, op, value| Atom::Compare {
            attr: attr.into(),
            op,
            value,
        };
        // 2^53 + 1 is no f64; as an i64 it is above every stored value.
        // The fifth row lacks `n`, and its `m` is a string, which orders
        // above every number.
        assert_eq!(
            count(cmp("n", CompareOp::Lt, Literal::Int(edge + 1))),
            (4, 5)
        );
        assert_eq!(count(cmp("n", CompareOp::Lt, Literal::Int(edge))), (3, 3));
        assert_eq!(
            count(cmp("n", CompareOp::Ge, Literal::Int(edge - 1))),
            (2, 2)
        );
        assert_eq!(count(cmp("n", CompareOp::Ge, Literal::Float(-0.0))), (3, 3));
        assert_eq!(
            count(cmp("n", CompareOp::Eq, Literal::Str("x".into()))),
            (0, 5)
        );
        assert_eq!(count(cmp("n", CompareOp::Ne, Literal::Null)), (0, 5));
        assert_eq!(count(cmp("m", CompareOp::Ge, Literal::Int(0))), (4, 5));
        let close = |attr: &str| Atom::CloseTo {
            attr: attr.into(),
            center: 0.0,
            width: 1.0,
        };
        assert_eq!(count(close("n")), (1, 1));
        assert_eq!(count(close("m")), (1, 5));
    }

    #[test]
    fn profile_quotes_projected_names() {
        let mut syms = SymbolTable::new();
        let drug = syms.intern("Drug Name");
        let rows = vec![Record::from_pairs([(drug, Value::str("Warfarin"))])];
        let src = VecSource::new("trials", rows, &syms);
        let plan =
            LogicalPlan::from_query(&parse(r#"SELECT "Drug Name", dose FROM trials"#).unwrap());
        let mut builder = scdb_obs::ProfileBuilder::new();
        Executor::sequential()
            .execute_profiled(&plan, &src, &EvalEnv::default(), &mut builder)
            .unwrap();
        let profile = builder.finish();
        let project = profile.stages.iter().find(|s| s.name == "project").unwrap();
        assert_eq!(project.notes, [r#""Drug Name", dose"#]);
    }

    /// `accepted` encodes each operator's orderings as `compare` always
    /// read them.
    #[test]
    fn accepted_orderings_match_the_operators() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        for (op, want) in [
            (CompareOp::Eq, [false, true, false]),
            (CompareOp::Ne, [true, false, true]),
            (CompareOp::Lt, [true, false, false]),
            (CompareOp::Le, [true, true, false]),
            (CompareOp::Gt, [false, false, true]),
            (CompareOp::Ge, [false, true, true]),
        ] {
            let got = [Less, Equal, Greater].map(|ord| holds(accepted(op), ord));
            assert_eq!(got, want, "{op}");
        }
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
