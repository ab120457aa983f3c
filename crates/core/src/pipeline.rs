//! The end-to-end query-visualization pipeline of the tutorial's Figs. 1–2:
//! a (possibly machine-generated) SQL query comes in, a diagram the user
//! can verify comes out.
//!
//! ```text
//! SQL ──parse──▶ AST ──resolve──▶ TRC ──build──▶ diagram IR ──layout──▶ scene ──render──▶ SVG/ASCII
//! ```
//!
//! [`QueryVisualizer`] caches rendered queries (keyed by canonicalized
//! SQL plus formalism) behind a [`parking_lot::RwLock`], since interactive
//! use — the voice-assistant loop of Fig. 1 — re-renders the same query as
//! the user refines it.
//!
//! The pipeline also *executes* queries ([`QueryVisualizer::run`]): the
//! interactive path defaults to the physical engine
//! ([`Engine::Indexed`]) at one worker with the optimizer on —
//! diagrams explain the query, the engine answers it — with
//! [`QueryVisualizer::with_engine`] switching back to the reference
//! evaluator when an oracle is wanted, and
//! [`QueryVisualizer::with_options`] setting the worker width and
//! optimizer configuration.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use relviz_diagrams::{dataplay, dfql, qbd, qbe, queryvis, reldiag, sieuferd, sqlvis, stringdiag, tabletalk, visualsql};
pub use relviz_exec::{Engine, ExecOptions, OptConfig};
use relviz_model::{Database, Relation};
use relviz_render::Scene;

use relviz_diagrams::{DiagError, DiagResult};

/// Which formalism to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VisFormalism {
    QueryVis,
    RelationalDiagrams,
    Dfql,
    Qbe,
    StringDiagrams,
    VisualSql,
    SqlVis,
    TableTalk,
    DataPlay,
    Sieuferd,
    Qbd,
}

impl VisFormalism {
    pub const ALL: [VisFormalism; 11] = [
        VisFormalism::QueryVis,
        VisFormalism::RelationalDiagrams,
        VisFormalism::Dfql,
        VisFormalism::Qbe,
        VisFormalism::StringDiagrams,
        VisFormalism::VisualSql,
        VisFormalism::SqlVis,
        VisFormalism::TableTalk,
        VisFormalism::DataPlay,
        VisFormalism::Sieuferd,
        VisFormalism::Qbd,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            VisFormalism::QueryVis => "QueryVis",
            VisFormalism::RelationalDiagrams => "Relational Diagrams",
            VisFormalism::Dfql => "DFQL",
            VisFormalism::Qbe => "QBE",
            VisFormalism::StringDiagrams => "String diagrams",
            VisFormalism::VisualSql => "Visual SQL",
            VisFormalism::SqlVis => "SQLVis",
            VisFormalism::TableTalk => "TableTalk",
            VisFormalism::DataPlay => "DataPlay",
            VisFormalism::Sieuferd => "SIEUFERD",
            VisFormalism::Qbd => "QBD",
        }
    }
}

/// Output encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    Svg,
    Ascii,
}

/// A pipeline result.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The canonicalized SQL (printer output of the parsed query).
    pub canonical_sql: String,
    /// The TRC form the diagram was built from (displayable).
    pub trc: String,
    /// The rendered diagram.
    pub rendering: String,
    /// The scene (for further processing).
    pub scene: Scene,
}

/// The visualizer: formalism + backend + execution engine + cache.
pub struct QueryVisualizer {
    formalism: VisFormalism,
    backend: Backend,
    engine: Engine,
    options: ExecOptions,
    cache: RwLock<HashMap<(String, VisFormalism, Backend), Arc<PipelineOutput>>>,
}

impl QueryVisualizer {
    /// A visualizer whose interactive execution path runs on the
    /// physical engine ([`Engine::Indexed`]) under the default
    /// [`ExecOptions`] (one worker, optimizer on).
    pub fn new(formalism: VisFormalism, backend: Backend) -> Self {
        QueryVisualizer {
            formalism,
            backend,
            engine: Engine::Indexed,
            options: ExecOptions::default(),
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Overrides the execution engine (e.g. the reference oracle).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the worker width and optimizer configuration
    /// [`run`](Self::run), [`run_analyzed`](Self::run_analyzed) and
    /// [`check`](Self::check) use.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// The engine [`run`](Self::run) executes on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Executes the SQL query on the pipeline's engine.
    ///
    /// [`Engine::Indexed`] runs the physical engine, at the options'
    /// worker width, through the same SQL → TRC front door the
    /// visualization path uses (two-valued logic over the total order
    /// of values; results bit-identical at every width).
    /// [`Engine::Reference`] is the SQL *language's* own reference
    /// evaluator — including SQL's three-valued treatment of `NULL`,
    /// which the calculus translation does not model — so it remains
    /// the oracle for NULL-bearing data.
    pub fn run(&self, sql: &str, db: &Database) -> DiagResult<Relation> {
        match self.engine {
            Engine::Reference => relviz_sql::eval::run_sql(sql, db)
                .map_err(|e| DiagError::Lang(e.to_string())),
            Engine::Indexed => relviz_exec::run_sql_with(self.engine, sql, db, self.options)
                .map_err(|e| DiagError::Lang(e.to_string())),
        }
    }

    /// [`run`](Self::run), analyzed: executes the SQL query on the
    /// pipeline's engine with the exec layer's runtime instrumentation
    /// attached, returning the result alongside the per-operator stats
    /// report (`EXPLAIN ANALYZE`). The reference engine has no physical
    /// plan to instrument and surfaces as [`DiagError::Lang`].
    pub fn run_analyzed(
        &self,
        sql: &str,
        db: &Database,
    ) -> DiagResult<(Relation, relviz_exec::StatsReport)> {
        relviz_exec::run_sql_analyzed_with(self.engine, sql, db, self.options)
            .map_err(|e| DiagError::Lang(e.to_string()))
    }

    /// Statically verifies the query's physical plan **without running
    /// it**: SQL goes through the same front door as
    /// [`run`](Self::run) (SQL → TRC → physical plan), then the exec
    /// layer's verifier ([`relviz_exec::verify_plan`]) walks every
    /// operator checking the IR contract — column bounds, join-key and
    /// set-operation arities, shared-subplan back-references. Returns
    /// the rendered verification report (the same footer `EXPLAIN`
    /// prints); a plan that fails — impossible for planner-emitted
    /// plans unless an engine invariant broke — surfaces as
    /// [`DiagError::Lang`] carrying the diagnostics.
    pub fn check(&self, sql: &str, db: &Database) -> DiagResult<String> {
        let parsed =
            relviz_sql::parse_query(sql).map_err(|e| DiagError::Lang(e.to_string()))?;
        let trc = relviz_rc::from_sql::sql_to_trc(&parsed, db)?;
        let plan = relviz_exec::plan_trc_with(&trc, db, self.options.opt)
            .map_err(|e| DiagError::Lang(e.to_string()))?;
        let diags = relviz_exec::verify_plan(&plan, Some(db));
        let report = relviz_exec::verification_footer(plan.node_count(), &diags);
        if relviz_exec::error_count(&diags) > 0 {
            return Err(DiagError::Lang(report));
        }
        Ok(report)
    }

    /// Runs the full pipeline on a SQL string.
    pub fn visualize(&self, sql: &str, db: &Database) -> DiagResult<Arc<PipelineOutput>> {
        // Canonicalize first so syntactic variants share cache entries —
        // and, per the "syntax independence" principle, share diagrams.
        let parsed =
            relviz_sql::parse_query(sql).map_err(|e| DiagError::Lang(e.to_string()))?;
        let canonical = relviz_sql::print_query(&parsed);
        let key = (canonical.clone(), self.formalism, self.backend);
        if let Some(hit) = self.cache.read().get(&key) {
            return Ok(hit.clone());
        }

        let trc = relviz_rc::from_sql::sql_to_trc(&parsed, db)?;
        let scene = build_scene(self.formalism, &canonical, &trc, db)?;
        let rendering = match self.backend {
            Backend::Svg => relviz_render::svg::to_svg(&scene),
            Backend::Ascii => relviz_render::ascii::to_ascii(&scene),
        };
        let out = Arc::new(PipelineOutput {
            canonical_sql: canonical,
            trc: trc.to_string(),
            rendering,
            scene,
        });
        self.cache.write().insert(key, out.clone());
        Ok(out)
    }

    /// Cache entry count (for tests and cache-hit benchmarks).
    pub fn cached(&self) -> usize {
        self.cache.read().len()
    }
}

fn build_scene(
    formalism: VisFormalism,
    sql: &str,
    trc: &relviz_rc::TrcQuery,
    db: &Database,
) -> DiagResult<Scene> {
    match formalism {
        VisFormalism::QueryVis => {
            Ok(queryvis::QueryVisDiagram::from_trc(trc, db)?.scene())
        }
        VisFormalism::RelationalDiagrams => {
            Ok(reldiag::RelationalDiagram::from_trc(trc, db)?.scene())
        }
        VisFormalism::Dfql => {
            let ra = relviz_rc::to_ra::trc_to_ra(trc, db)?;
            let ra = relviz_ra::rewrite::optimize(&ra);
            Ok(dfql::DfqlDiagram::from_ra(&ra)?.scene())
        }
        VisFormalism::Qbe => {
            let ra = relviz_rc::to_ra::trc_to_ra(trc, db)?;
            let prog = relviz_datalog::translate::ra_to_datalog(&ra, db)?;
            Ok(qbe::QbeProgram::from_datalog(&prog, db)?.scene())
        }
        VisFormalism::StringDiagrams => {
            let drc = relviz_rc::to_drc::trc_to_drc(trc, db)?;
            Ok(stringdiag::StringDiagram::from_drc(&drc)?.scene())
        }
        // The syntax-mirroring family builds from the SQL text itself —
        // that is the point (E9).
        VisFormalism::VisualSql => Ok(visualsql::VisualSqlDiagram::from_sql(sql, db)?.scene()),
        VisFormalism::SqlVis => Ok(sqlvis::SqlVisDiagram::from_sql(sql, db)?.scene()),
        VisFormalism::TableTalk => Ok(tabletalk::TableTalkDiagram::from_sql(sql, db)?.scene()),
        VisFormalism::DataPlay => Ok(dataplay::DataPlayTree::from_trc(trc, db)?.scene()),
        VisFormalism::Sieuferd => Ok(sieuferd::SieuferdSheet::from_sql(sql, db)?.scene()),
        VisFormalism::Qbd => {
            Ok(qbd::QbdQuery::from_sql(sql, &qbd::ErSchema::sailors(), db)?.scene())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relviz_model::catalog::sailors_sample;

    const Q5: &str = "SELECT S.sname FROM Sailor S WHERE NOT EXISTS \
        (SELECT * FROM Boat B WHERE B.color = 'red' AND NOT EXISTS \
          (SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.bid = B.bid))";

    #[test]
    fn pipeline_produces_svg_for_every_formalism() {
        // Q5 (division) for the FOL-complete and syntax-mirroring
        // formalisms; the conjunctive Q2 for the interfaces whose
        // fragment is conjunctive navigation (SIEUFERD, QBD).
        let db = sailors_sample();
        const Q2: &str = "SELECT DISTINCT S.sname FROM Sailor S, Reserves R, Boat B \
            WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'";
        for f in VisFormalism::ALL {
            let conjunctive_only =
                matches!(f, VisFormalism::Sieuferd | VisFormalism::Qbd);
            let sql = if conjunctive_only { Q2 } else { Q5 };
            let viz = QueryVisualizer::new(f, Backend::Svg);
            let out = viz
                .visualize(sql, &db)
                .unwrap_or_else(|e| panic!("{}: {e}", f.name()));
            assert!(out.rendering.starts_with("<svg"), "{}", f.name());
            if !conjunctive_only {
                assert!(out.trc.contains("not exists"), "{}", f.name());
            }
        }
    }

    #[test]
    fn conjunctive_interfaces_reject_q5_with_named_feature() {
        let db = sailors_sample();
        for f in [VisFormalism::Sieuferd, VisFormalism::Qbd] {
            let viz = QueryVisualizer::new(f, Backend::Svg);
            let err = viz.visualize(Q5, &db).unwrap_err();
            assert!(
                matches!(err, DiagError::Unsupported { .. }),
                "{}: {err}",
                f.name()
            );
        }
    }

    #[test]
    fn run_defaults_to_the_physical_engine_and_agrees_with_the_oracle() {
        let db = sailors_sample();
        let viz = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii);
        assert_eq!(viz.engine(), Engine::Indexed);
        let fast = viz.run(Q5, &db).unwrap();
        let oracle = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii)
            .with_engine(Engine::Reference)
            .run(Q5, &db)
            .unwrap();
        assert!(fast.same_contents(&oracle));
        assert_eq!(fast.len(), 2); // dustin, lubber
        // The reference engine is the SQL evaluator itself (3VL oracle).
        let sql_direct = relviz_sql::eval::run_sql(Q5, &db).unwrap();
        assert!(oracle.same_contents(&sql_direct));
    }

    #[test]
    fn parallel_engine_runs_through_the_pipeline_bit_identically() {
        let db = sailors_sample();
        let exec = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii)
            .run(Q5, &db)
            .unwrap();
        for threads in [1, 4] {
            let par = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii)
                .with_options(ExecOptions { threads, ..ExecOptions::default() })
                .run(Q5, &db)
                .unwrap();
            assert!(par.same_contents(&exec));
            assert_eq!(format!("{par}"), format!("{exec}"), "threads={threads}");
        }
    }

    #[test]
    fn with_opt_pins_the_configuration_per_visualizer() {
        let db = sailors_sample();
        let q = "SELECT S.sname FROM Sailor S WHERE S.rating > 7";
        let plain = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii)
            .with_options(OptConfig::unoptimized().into());
        let tuned = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii)
            .with_options(OptConfig::optimized().into());
        let (rel_a, rep_a) = plain.run_analyzed(q, &db).unwrap();
        let (rel_b, rep_b) = tuned.run_analyzed(q, &db).unwrap();
        assert!(!rep_a.optimized);
        assert!(rep_b.optimized);
        assert!(rel_a.same_contents(&rel_b));
    }

    #[test]
    fn ascii_backend_renders() {
        let db = sailors_sample();
        let viz = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii);
        let out = viz.visualize("SELECT S.sname FROM Sailor S WHERE S.rating > 7", &db).unwrap();
        assert!(out.rendering.contains("Sailor"), "{}", out.rendering);
    }

    #[test]
    fn syntactic_variants_share_cache_entries() {
        let db = sailors_sample();
        let viz = QueryVisualizer::new(VisFormalism::QueryVis, Backend::Svg);
        let a = viz.visualize("SELECT S.sname FROM Sailor S WHERE S.rating > 7", &db).unwrap();
        // whitespace/case variants canonicalize identically
        let b = viz
            .visualize("select  S.sname  from Sailor S  where S.rating > 7", &db)
            .unwrap();
        assert_eq!(viz.cached(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn unsupported_features_surface_cleanly() {
        let db = sailors_sample();
        let viz = QueryVisualizer::new(VisFormalism::QueryVis, Backend::Svg);
        let r = viz.visualize(
            "SELECT S.sid FROM Sailor S UNION SELECT B.bid FROM Boat B",
            &db,
        );
        assert!(matches!(r, Err(DiagError::Unsupported { .. })));
    }
}
