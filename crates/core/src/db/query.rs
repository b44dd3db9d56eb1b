//! The read path: user queries fanned out over the write shards, the
//! slow-query ring, and the `sys.*` catalog served through the same
//! plan → optimize → execute pipeline.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scdb_obs::{metrics, FieldValue as F, HistogramHandle, ProfileBuilder, QueryProfile};
use scdb_query::exec::{EvalEnv, Executor, SemanticEnv, StoreSource};
use scdb_query::optimizer::{Optimizer, OptimizerConfig, SemanticContext};
use scdb_query::plan::LogicalPlan;
use scdb_query::{parse, ExecStats, Query};
use scdb_semantic::{Saturation, Taxonomy};
use scdb_storage::{IndexDef, IndexSet, RowStore};
use scdb_types::{Record, SourceId, Symbol};

use super::{Db, QueryOutcome};
use crate::error::CoreError;

/// Capacity of the slow-query ring ([`Db::slow_queries`]).
pub const SLOW_QUERY_RING: usize = 32;

/// `query.{plan,optimize,execute}_ns`, one observation per query each,
/// resolved at their first write instead of by name per query.
static PLAN_NS: HistogramHandle = HistogramHandle::new("query.plan_ns");
static OPTIMIZE_NS: HistogramHandle = HistogramHandle::new("query.optimize_ns");
static EXECUTE_NS: HistogramHandle = HistogramHandle::new("query.execute_ns");

/// One slow-query capture: a query whose wall time crossed
/// [`DbBuilder::slow_query_threshold`](crate::DbBuilder::slow_query_threshold),
/// with its full profile retained.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The triggering query text (the original ScQL when it came
    /// through [`Db::query`], the AST rendering otherwise).
    pub text: String,
    /// Coarse capture time, milliseconds since the recorder epoch.
    pub at_ms: u64,
    /// Total wall time of the execution.
    pub total: Duration,
    /// The full `EXPLAIN ANALYZE` profile of the slow run.
    pub profile: QueryProfile,
}

impl SlowQuery {
    /// JSON document form: query text, capture time, total wall time,
    /// and the full stage breakdown ([`QueryProfile::to_json`]) — what
    /// an index advisor needs to see *where* a slow query spent its
    /// time, not just that it was slow.
    pub fn to_json(&self) -> serde_json::Value {
        let mut root = serde_json::Map::new();
        root.insert("text".into(), serde_json::Value::from(self.text.as_str()));
        root.insert("at_ms".into(), serde_json::Value::from(self.at_ms));
        root.insert(
            "total_ns".into(),
            serde_json::Value::from(self.total.as_nanos() as u64),
        );
        root.insert("profile".into(), self.profile.to_json());
        serde_json::Value::Object(root)
    }
}

impl Db {
    /// Swap the optimizer configuration (used by the OS.3 ablation to run
    /// the same curated instance under different rewrite sets).
    pub fn set_optimizer_config(&self, config: OptimizerConfig) {
        self.inner.config.write().optimizer = config;
    }

    /// Swap the scan executor (worker count / fan-out threshold).
    pub fn set_executor(&self, executor: Executor) {
        self.inner.config.write().executor = executor;
    }

    /// Parse, optimize, and execute an ScQL query.
    pub fn query(&self, sql: &str) -> Result<QueryOutcome, CoreError> {
        let query = parse(sql)?;
        self.run_query_inner(query, &|| sql.to_owned())
    }

    /// Execute an already-parsed query. The returned outcome carries an
    /// `EXPLAIN ANALYZE`-style [`QueryProfile`] with per-stage timings
    /// (plan → optimize → execute), per-operator row counts, and the
    /// optimizer decisions that fired.
    ///
    /// Runs entirely under shard *read* locks (after an optional
    /// saturation build), so any number of queries execute concurrently
    /// with each other and with `ingest` on other threads. Semantic
    /// atoms evaluate against a saturation snapshot taken at prep time;
    /// a concurrent ingest does not invalidate it mid-query.
    pub fn run_query(&self, query: &Query) -> Result<QueryOutcome, CoreError> {
        self.run_query_inner(query.clone(), &|| query.to_string())
    }

    /// Plan, optimize and execute `query`, which the plan takes over.
    /// `text` renders the query for the slow-query ring; it runs only
    /// when the query is slow.
    fn run_query_inner(
        &self,
        query: Query,
        text: &dyn Fn() -> String,
    ) -> Result<QueryOutcome, CoreError> {
        let _span = scdb_obs::span!("core.query");
        // System-catalog queries divert to their own path: same plan →
        // optimize → execute pipeline (full EXPLAIN ANALYZE), but the
        // source rows are materialized from live telemetry and the run
        // is never captured into the slow-query ring.
        if crate::syscat::is_sys_name(&query.from) {
            return self.run_sys_query(query);
        }
        let started = Instant::now();
        let mut profile = ProfileBuilder::new();
        // Semantic prep happens before the execution locks are taken:
        // reason() acquires symbols → relation → semantic itself.
        let needs_semantic = query.atoms.iter().any(|a| {
            matches!(
                a,
                scdb_query::Atom::IsConcept { .. } | scdb_query::Atom::HasSome { .. }
            )
        });
        let sat_snapshot: Option<Arc<Saturation>> = if needs_semantic {
            Some(profile.timed("semantic_prep", || self.reason())?)
        } else {
            self.ensure_taxonomy();
            None
        };
        let (optimizer_config, executor) = self.query_config();
        let (n_atoms, limit) = (query.atoms.len(), query.limit);
        let plan_start = Instant::now();
        let plan = LogicalPlan::new(query);
        let plan_elapsed = plan_start.elapsed();
        profile
            .stage("plan", plan_elapsed)
            .notes
            .push(format!("{n_atoms} atom(s), {} node(s)", plan.nodes.len()));
        // Execution under read guards, acquired in lock order. The
        // query fans out: sources are broadcast to every shard and each
        // shard holds a disjoint key-range slice of the rows, so the
        // one logical plan is optimized against each shard's own
        // statistics and indexes, runs against that shard's state, and
        // the row sets concatenate. The plan and profile reported are
        // the first shard's (per-shard plans may differ when the
        // shards' statistics diverge); a shard-local LIMIT still bounds
        // each slice and the global limit is re-applied afterwards.
        let shards = &self.inner.shards;
        let mut all_rows: Vec<Record> = Vec::new();
        let mut stats = ExecStats::default();
        let mut reported_plan = None;
        let mut scratch = None;
        let (mut optimize_ns, mut execute_ns) = (0u64, 0u64);
        for (shard, plan) in shards.iter().zip(std::iter::repeat_n(plan, shards.len())) {
            let prof = if reported_plan.is_none() {
                &mut profile
            } else {
                scratch.get_or_insert_with(ProfileBuilder::new)
            };
            let symbols = self.inner.symbols.read();
            let instance = shard.instance.read();
            let relation = shard.relation.read();
            let semantic = self.inner.semantic.read();

            let state = instance.source_state(plan.source().unwrap_or_default())?;
            // The taxonomy cache may have been invalidated by a concurrent
            // ontology edit between prep and here; fall back to a local
            // build from the guarded ontology (consistent, just uncached).
            let local_taxonomy;
            let taxonomy = match semantic.taxonomy.as_ref() {
                Some(t) => t,
                None => {
                    local_taxonomy = Taxonomy::build(&semantic.ontology);
                    &local_taxonomy
                }
            };
            // Prefer the cached saturation (fresher) over the prep snapshot.
            let saturation: Option<&Saturation> =
                semantic.saturation.as_deref().or(sat_snapshot.as_deref());
            let ctx = SemanticContext {
                ontology: &semantic.ontology,
                taxonomy,
                saturation,
            };
            let opt_start = Instant::now();
            let plan = Optimizer::new(optimizer_config).optimize_with_indexes(
                plan,
                Some(&ctx),
                Some(&state.stats),
                state.store.len() as u64,
                &state.indexes.defs(),
            );
            let opt_elapsed = opt_start.elapsed();
            optimize_ns += opt_elapsed.as_nanos() as u64;
            prof.stage("optimize", opt_elapsed);
            for rewrite in &plan.rewrites {
                prof.decision(rewrite.clone());
            }

            let source = StoreSource::with_indexes(
                plan.source().unwrap_or_default(),
                &state.store,
                &symbols,
                &state.indexes,
            );
            let mut env = EvalEnv::default();
            if let Some(sat) = saturation {
                env.semantic = Some(SemanticEnv {
                    ontology: &semantic.ontology,
                    saturation: sat,
                    entity_by_name: relation.names(),
                });
            }
            // Model atoms: features default to the numeric attributes of the
            // row in attribute order (documented limitation; richer feature
            // maps are provided through `run_query_with_env` in the explore
            // module).
            for (name, model) in &semantic.models {
                let dims = model.spec().features.len();
                env.models.insert(
                    name.clone(),
                    (
                        model,
                        Box::new(move |r: &Record| {
                            let mut v: Vec<f64> =
                                r.iter().filter_map(|(_, val)| val.as_float()).collect();
                            v.resize(dims, 0.0);
                            v
                        }),
                    ),
                );
            }
            let exec_start = Instant::now();
            let (rows, shard_stats) = executor.execute_profiled(&plan, &source, &env, prof)?;
            execute_ns += exec_start.elapsed().as_nanos() as u64;
            if all_rows.is_empty() {
                all_rows = rows;
            } else {
                all_rows.extend(rows);
            }
            stats.rows_scanned += shard_stats.rows_scanned;
            stats.atom_evals += shard_stats.atom_evals;
            stats.rows_out += shard_stats.rows_out;
            reported_plan.get_or_insert(plan);
        }
        // Each shard honoured the LIMIT on its own slice; re-apply it to
        // the concatenation.
        if let Some(limit) = limit {
            all_rows.truncate(limit);
        }
        stats.rows_out = all_rows.len() as u64;
        // One observation per query and stage, summed over the shards.
        PLAN_NS.observe(plan_elapsed.as_nanos() as u64);
        OPTIMIZE_NS.observe(optimize_ns);
        EXECUTE_NS.observe(execute_ns);
        let profile = profile.finish();
        let total = started.elapsed();
        if total >= self.inner.slow_threshold {
            self.capture_slow_query(text(), total, all_rows.len(), &profile);
        }
        Ok(QueryOutcome {
            rows: all_rows,
            plan: reported_plan.expect("at least one shard executes"),
            stats,
            profile,
        })
    }

    /// Config is last in the lock order; queries copy it out up front
    /// instead of holding its guard across execution.
    fn query_config(&self) -> (OptimizerConfig, Executor) {
        let config = self.inner.config.read();
        (config.optimizer, config.executor)
    }

    /// Record one slow execution into the bounded ring (oldest capture
    /// evicted at [`SLOW_QUERY_RING`]), bump `query.slow_queries`, and
    /// emit a `("query", "slow")` event carrying the query text.
    fn capture_slow_query(
        &self,
        text: String,
        total: Duration,
        rows_out: usize,
        profile: &QueryProfile,
    ) {
        metrics().inc("query.slow_queries");
        // Attach the stage split so the event alone says where the time
        // went (missing stages — profiling disabled — read as 0).
        let stage_ns = |name: &str| {
            profile
                .stage(name)
                .map(|s| s.duration.as_nanos() as u64)
                .unwrap_or(0)
        };
        scdb_obs::events().record_with_message(
            "query",
            "slow",
            &[
                ("ns", F::U64(total.as_nanos() as u64)),
                ("rows", F::U64(rows_out as u64)),
                ("plan_ns", F::U64(stage_ns("plan"))),
                ("optimize_ns", F::U64(stage_ns("optimize"))),
                ("execute_ns", F::U64(stage_ns("execute"))),
            ],
            &text,
        );
        let mut slow = self.inner.slow.lock();
        while slow.len() >= SLOW_QUERY_RING {
            slow.pop_front();
        }
        slow.push_back(SlowQuery {
            text,
            at_ms: scdb_obs::event::coarse_now_ms(),
            total,
            profile: profile.clone(),
        });
    }

    /// Recent slow-query captures, oldest first (bounded ring, capacity
    /// [`SLOW_QUERY_RING`]; see
    /// [`DbBuilder::slow_query_threshold`](crate::DbBuilder::slow_query_threshold)).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.inner.slow.lock().iter().cloned().collect()
    }

    // ------------------------------------------------------------------
    // System catalog: observability as relations (crate::syscat).
    // ------------------------------------------------------------------

    /// Execute a query over a `sys.*` catalog relation: materialize the
    /// relation from live telemetry into a transient row store, then
    /// run the ordinary plan → optimize → execute pipeline against it.
    /// The profile gains a `sys_refresh` stage (so `EXPLAIN ANALYZE`
    /// shows the materialization cost), and the run is *never* captured
    /// into the slow-query ring — a sys query must not amplify the very
    /// signal it reads.
    pub(super) fn run_sys_query(&self, query: Query) -> Result<QueryOutcome, CoreError> {
        let mut profile = ProfileBuilder::new();
        let (optimizer_config, executor) = self.query_config();
        // Refresh: snapshots from read locks, leaf mutexes, and
        // lock-free rings only — never a core shard write lock (the
        // first-ever query of a relation may briefly intern new column
        // names in `sys_records`; see crate::syscat module docs).
        let refresh_start = Instant::now();
        let sys_rows = self.sys_rows(&query.from)?;
        let records = self.sys_records(sys_rows);
        let refresh_elapsed = refresh_start.elapsed();
        metrics().observe("query.sys_refresh_ns", refresh_elapsed.as_nanos() as u64);
        metrics().inc("query.sys_queries");
        profile
            .stage("sys_refresh", refresh_elapsed)
            .notes
            .push(format!("{} row(s) from {}", records.len(), query.from));
        let symbols = self.inner.symbols.read();
        // Transient store under a sentinel source id: catalog rows never
        // mix with user sources, and nothing here is logged or curated.
        let mut store = RowStore::new(SourceId(u32::MAX));
        for record in records {
            store.append(record);
        }
        let indexes = IndexSet::new();
        let base_rows = store.len() as u64;
        let n_atoms = query.atoms.len();
        let plan_start = Instant::now();
        let plan = LogicalPlan::new(query);
        let plan_elapsed = plan_start.elapsed();
        PLAN_NS.observe(plan_elapsed.as_nanos() as u64);
        profile
            .stage("plan", plan_elapsed)
            .notes
            .push(format!("{n_atoms} atom(s), {} node(s)", plan.nodes.len()));
        let optimizer = Optimizer::new(optimizer_config);
        let opt_start = Instant::now();
        let plan = optimizer.optimize_with_indexes(plan, None, None, base_rows, &indexes.defs());
        let opt_elapsed = opt_start.elapsed();
        OPTIMIZE_NS.observe(opt_elapsed.as_nanos() as u64);
        profile.stage("optimize", opt_elapsed);
        for rewrite in &plan.rewrites {
            profile.decision(rewrite.clone());
        }
        let source = StoreSource::with_indexes(
            plan.source().unwrap_or_default(),
            &store,
            &symbols,
            &indexes,
        );
        let env = EvalEnv::default();
        let exec_start = Instant::now();
        let (rows, stats) = executor.execute_profiled(&plan, &source, &env, &mut profile)?;
        EXECUTE_NS.observe(exec_start.elapsed().as_nanos() as u64);
        let profile = profile.finish();
        Ok(QueryOutcome {
            rows,
            plan,
            stats,
            profile,
        })
    }

    /// Materialize one catalog relation's rows (see
    /// [`crate::syscat::RELATIONS`] for the schemas). Unknown `sys.*`
    /// names fail like any unknown source.
    fn sys_rows(&self, rel: &str) -> Result<Vec<crate::syscat::SysRow>, CoreError> {
        use crate::syscat;
        Ok(match rel {
            "sys.metrics" => syscat::metrics_rows(&metrics().snapshot()),
            "sys.events" => syscat::events_rows(&scdb_obs::events().snapshot()),
            "sys.slow_queries" => syscat::slow_query_rows(&self.slow_queries()),
            "sys.watches" => syscat::watch_rows(&self.watch_statuses()),
            "sys.samples" => syscat::sample_rows(&self.telemetry_samples()),
            "sys.indexes" => {
                // Definitions are broadcast to every shard; entry
                // counts sum across the shards' slices.
                let mut defs: Vec<(IndexDef, u64)> = Vec::new();
                for shard in &self.inner.shards {
                    let instance = shard.instance.read();
                    for ix in instance.sources.iter().flat_map(|(_, s)| s.indexes.iter()) {
                        match defs.iter_mut().find(|(d, _)| d.name == ix.def().name) {
                            Some((_, entries)) => *entries += ix.entries(),
                            None => defs.push((ix.def().clone(), ix.entries())),
                        }
                    }
                }
                syscat::index_rows(&defs)
            }
            "sys.locks" => syscat::lock_rows(self.inner.shard_count(), &metrics().snapshot()),
            "sys.wal" => {
                // One row per write shard's WAL.
                syscat::wal_rows(&self.inner.wal_lags(), &self.mode(), &metrics().snapshot())
            }
            "sys.threads" => {
                syscat::thread_rows(&scdb_obs::events().snapshot(), &metrics().snapshot())
            }
            "sys.relations" => syscat::relation_rows(),
            other => return Err(CoreError::UnknownSource(other.to_string())),
        })
    }

    /// Turn catalog rows into [`Record`]s against the *shared* symbol
    /// table, so callers resolve sys columns via [`Db::symbols_ref`]
    /// exactly like user attributes. Steady state resolves every column
    /// under the symbols read lock; only names never seen before (the
    /// first query of a relation) take a brief write lock to intern.
    fn sys_records(&self, rows: Vec<crate::syscat::SysRow>) -> Vec<Record> {
        let mut resolved: HashMap<String, Symbol> = HashMap::new();
        let mut missing: Vec<String> = Vec::new();
        {
            let symbols = self.inner.symbols.read();
            for (name, _) in rows.iter().flatten() {
                if resolved.contains_key(name) {
                    continue;
                }
                match symbols.get(name) {
                    Some(sym) => {
                        resolved.insert(name.clone(), sym);
                    }
                    None => missing.push(name.clone()),
                }
            }
        }
        if !missing.is_empty() {
            let mut symbols = self.inner.symbols.write();
            for name in missing {
                let sym = symbols.intern(&name);
                resolved.insert(name, sym);
            }
        }
        rows.into_iter()
            .map(|row| Record::from_pairs(row.into_iter().map(|(n, v)| (resolved[&n], v))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use scdb_types::Value;

    #[test]
    fn query_end_to_end_with_semantics() {
        let db = Db::new();
        db.register_source("drugbank", Some("Drug Name"));
        for (d, g) in [
            ("Warfarin", "TP53"),
            ("Methotrexate", "DHFR"),
            ("Ibuprofen", "PTGS2"),
        ] {
            let r = drug_record(&db, d, g);
            db.ingest("drugbank", r, None).unwrap();
        }
        db.with_ontology(|o| o.subclass("ApprovedDrug", "Drug"));
        db.assert_entity_type("Warfarin", "ApprovedDrug").unwrap();
        // The IS atom resolves its attribute: an absent one passes no row.
        let out = db
            .query("SELECT * FROM drugbank WHERE Drug_Name IS 'Drug'")
            .unwrap();
        assert_eq!(out.rows.len(), 0);
        // A name with a space is written as a quoted identifier; Warfarin
        // is an ApprovedDrug, so a Drug.
        let out = db
            .query(r#"SELECT * FROM drugbank WHERE "Drug Name" IS 'Drug'"#)
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        let out = db
            .query("SELECT * FROM drugbank WHERE LINKED BY none >= 0.0")
            .err();
        assert!(out.is_some(), "unknown model errors");
        // Unknown entity assertion surfaces the dedicated variant.
        assert!(matches!(
            db.assert_entity_type("Nope", "Drug"),
            Err(CoreError::UnknownEntity(_))
        ));
    }

    #[test]
    fn quoted_identifiers_query_figure_2_names() {
        let db = Db::builder()
            .slow_query_threshold(Duration::ZERO)
            .open()
            .unwrap();
        db.register_source("drugbank", Some("Drug Name"));
        for (d, g) in [("Warfarin", "TP53"), ("Methotrexate", "DHFR")] {
            let r = drug_record(&db, d, g);
            db.ingest("drugbank", r, None).unwrap();
        }
        let name = db.intern("Drug Name");
        let out = db
            .query(r#"SELECT "Drug Name" FROM drugbank WHERE "Drug Name" = 'Warfarin'"#)
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get(name), Some(&Value::str("Warfarin")));
        assert_eq!(out.rows[0].len(), 1, "projected to the quoted column");
        // A slow run_query is captured as its rendering, which quotes the
        // name, so the advisor re-parses it and proposes the column.
        let q = parse(r#"SELECT * FROM drugbank WHERE "Drug Targets (Genes)" = 'DHFR'"#).unwrap();
        assert_eq!(db.run_query(&q).unwrap().rows.len(), 1);
        let captured = db.slow_queries().last().unwrap().text.clone();
        assert_eq!(
            captured,
            r#"SELECT * FROM drugbank WHERE "Drug Targets (Genes)" = 'DHFR'"#
        );
        let proposals = db.advise_indexes(false).unwrap();
        assert!(
            proposals
                .iter()
                .any(|p| p.source == "drugbank" && p.attr == "Drug Targets (Genes)"),
            "{proposals:?}"
        );
    }

    #[test]
    fn query_with_stats_and_optimizer() {
        let db = Db::new();
        db.register_source("trials", Some("drug"));
        let d = db.intern("drug");
        let dose = db.intern("dose");
        for i in 0..100 {
            let r = Record::from_pairs([
                (
                    d,
                    Value::str(if i % 10 == 0 { "Warfarin" } else { "Other" }),
                ),
                (dose, Value::Float(3.0 + (i % 40) as f64 / 10.0)),
            ]);
            db.ingest("trials", r, None).unwrap();
        }
        let out = db
            .query("SELECT drug FROM trials WHERE dose > 4.0 AND drug = 'Warfarin' AND dose > 3.5")
            .unwrap();
        assert!(out.plan.rewrites.iter().any(|r| r.contains("merged")));
        assert!(out
            .rows
            .iter()
            .all(|r| r.get(d) == Some(&Value::str("Warfarin"))));
        assert!(out.plan.estimated_rows.is_some());
    }

    #[test]
    fn unsat_query_scans_nothing() {
        let db = Db::new();
        db.register_source("t", None);
        let a = db.intern("a");
        for i in 0..50 {
            let r = Record::from_pairs([(a, Value::Int(i))]);
            db.ingest("t", r, None).unwrap();
        }
        let out = db.query("SELECT * FROM t WHERE a = 1 AND a = 2").unwrap();
        assert!(out.plan.empty);
        assert_eq!(out.stats.rows_scanned, 0);
    }

    #[test]
    fn unknown_source_errors() {
        let db = Db::new();
        assert!(matches!(
            db.query("SELECT * FROM nope"),
            Err(CoreError::UnknownSource(_))
        ));
        assert!(db.record_count("nope").is_err());
    }
}
