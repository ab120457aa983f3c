//! # relviz-exec
//!
//! The unified **physical execution engine** of the workspace.
//!
//! The workspace ships five *reference* evaluators — SQL, RA, TRC, DRC,
//! Datalog — each written as the most literal operational reading of its
//! language (nested loops, per-tuple quantifier re-evaluation). They are
//! the oracles: slow, independent, and cross-checked by experiment E2 and
//! the conformance/differential test suites. This crate is the engine you
//! actually want to *run* queries on:
//!
//! * a small physical plan IR ([`plan::PhysPlan`]): `Scan`, `Filter`,
//!   `Project`, `HashJoin`, `SemiJoin`, `AntiJoin`, `Union`, `Diff`,
//!   `Dedup`, `Shared` — with an `EXPLAIN`-style printer
//!   ([`plan::explain`]);
//! * [`indexed::IndexedRelation`], a batch on **shared, cheaply
//!   clonable columnar storage** ([`column::ColumnStore`]: one typed
//!   vector per column, validity bitmaps for NULLs, interned strings —
//!   all behind `Arc`s with copy-on-write index maps) maintaining hash
//!   indexes on join-key column sets;
//! * planners lowering [`relviz_ra::RaExpr`] ([`planner::plan_ra_with`])
//!   and [`relviz_rc::TrcQuery`] ([`planner::plan_trc_with`]) into plans
//!   — TRC `∃`/`¬∃` quantifier nests become semi-/anti-joins instead of
//!   per-candidate re-evaluation, and a closing common-subplan pass
//!   wraps duplicated sub-plans in `Shared` nodes so they execute once;
//! * the executor ([`run::execute`], and [`execute_parallel`] at a
//!   worker width), threading per-execution scan and sub-plan caches;
//!   each base relation's batch comes from its slot ([`slots`]),
//!   materialized and indexed once per database generation and shared
//!   by every query that reads it;
//! * the **recursive-query subsystem** ([`fixpoint`],
//!   [`datalog_planner`]): stratified Datalog lowered to hash-join
//!   plans ([`plan_datalog_with`]) and iterated **semi-naively** —
//!   per round each rule runs once per same-stratum delta occurrence,
//!   scanning only the previous round's new facts
//!   ([`eval_datalog_with`], [`explain_datalog`]).
//!
//! ## Engines and options
//!
//! [`Engine`] selects between the reference evaluator and this engine
//! behind one call per language, so the suite and the scaling benches
//! can run either. [`ExecOptions`] says how the physical engine runs
//! the call: its worker width (`1`, the default, is the serial operator
//! path; `0` is auto) and its [`OptConfig`]. Results are bit-identical
//! at every width.
//!
//! ```
//! use relviz_exec::{eval_ra_with, Engine, ExecOptions};
//! use relviz_model::catalog::sailors_sample;
//!
//! let db = sailors_sample();
//! let e = relviz_ra::parse::parse_ra(
//!     "Project[sname](Join(Sailor, Select[bid = 102](Reserves)))",
//! ).unwrap();
//! let fast = eval_ra_with(Engine::Indexed, &e, &db, ExecOptions::default()).unwrap();
//! let wide = ExecOptions { threads: 4, ..ExecOptions::default() };
//! let parallel = eval_ra_with(Engine::Indexed, &e, &db, wide).unwrap();
//! let oracle = eval_ra_with(Engine::Reference, &e, &db, ExecOptions::default()).unwrap();
//! assert!(fast.same_contents(&oracle));
//! assert_eq!(format!("{fast}"), format!("{parallel}"));
//! ```

pub mod column;
pub mod datalog_planner;
pub mod error;
pub mod fixpoint;
pub mod indexed;
pub mod opt;
pub mod parallel;
pub mod plan;
pub mod planner;
mod pool;
pub mod run;
pub mod slots;
pub mod stats;
pub mod verify;

pub use column::{Column, ColumnData, ColumnStore, RowId, StrInterner};
pub use datalog_planner::plan_datalog_with;
pub use error::{ExecError, ExecResult};
pub use fixpoint::{
    eval_fixpoint, explain_datalog, explain_datalog_parallel, stratum_levels, FixpointPlan,
};
pub use indexed::IndexedRelation;
pub use opt::{
    estimate_fixpoint, estimate_plan, magic_transform, stats_cache_len, ColSketch, OptConfig,
    TableStats,
};
pub use parallel::{execute_parallel, resolve_threads, resolve_threads_from};
pub use plan::{explain, explain_parallel, OutputCol, PhysPlan};
pub use planner::{plan_ra_with, plan_trc_with};
pub use run::execute;
pub use slots::{Slots, Source};
pub use stats::{
    eval_datalog_analyzed_with, eval_trc_analyzed_with, run_sql_analyzed_with, OpRow, RoundRow,
    StatsReport, WorkerRow,
};
pub use verify::{
    analyze_program, check_fixpoint, check_plan, error_count, explain_datalog_verified,
    explain_verified, render_diagnostics, verification_footer, verify_fixpoint, verify_plan,
    Diagnostic, Severity,
};

use std::collections::HashMap;

use relviz_model::Relation;

/// Which engine evaluates a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The language's reference evaluator (oracle; nested loops).
    Reference,
    /// The physical plan engine of this crate (hash joins, indexes), at
    /// the worker width of the call's [`ExecOptions`].
    Indexed,
}

impl Engine {
    pub const ALL: [Engine; 2] = [Engine::Reference, Engine::Indexed];

    pub fn name(&self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Indexed => "exec",
        }
    }
}

/// How the physical engine runs one call: its worker width and its
/// optimizer configuration. The reference engine reads neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker count. `1` runs the serial operator path; more workers
    /// take the partitioned paths of [`parallel`], with results
    /// bit-identical at every width; `0` means *auto*, resolved once
    /// per call by [`resolve_threads`] (`RELVIZ_THREADS`, else the
    /// machine's available parallelism).
    pub threads: usize,
    /// Which optimizations planning applies.
    pub opt: OptConfig,
}

impl Default for ExecOptions {
    /// One worker, optimizer on.
    fn default() -> ExecOptions {
        ExecOptions::from(OptConfig::optimized())
    }
}

impl From<OptConfig> for ExecOptions {
    /// One worker, under `opt`.
    fn from(opt: OptConfig) -> ExecOptions {
        ExecOptions { threads: 1, opt }
    }
}

impl ExecOptions {
    /// This call's worker count: `threads`, or the auto width for `0`.
    pub(crate) fn width(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// Evaluates an RA expression on the chosen engine.
pub fn eval_ra_with<'a>(
    engine: Engine,
    expr: &relviz_ra::RaExpr,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<Relation> {
    let src = db.into();
    let opts = opts.into();
    match engine {
        Engine::Reference => Ok(relviz_ra::eval::eval(expr, src.db())?),
        Engine::Indexed => {
            execute_parallel(&plan_ra_with(expr, &src, opts.opt)?, &src, opts.width())
        }
    }
}

/// Evaluates a TRC query on the chosen engine.
pub fn eval_trc_with<'a>(
    engine: Engine,
    q: &relviz_rc::TrcQuery,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<Relation> {
    let src = db.into();
    let opts = opts.into();
    match engine {
        Engine::Reference => Ok(relviz_rc::trc_eval::eval_trc(q, src.db())?),
        Engine::Indexed => {
            execute_parallel(&plan_trc_with(q, &src, opts.opt)?, &src, opts.width())
        }
    }
}

/// Runs a SQL query through the pipeline's SQL → TRC front door, then
/// evaluates the TRC on the chosen engine.
pub fn run_sql_with<'a>(
    engine: Engine,
    sql: &str,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<Relation> {
    let src = db.into();
    let trc = relviz_rc::from_sql::parse_sql_to_trc(sql, src.db())?;
    eval_trc_with(engine, &trc, src, opts)
}

/// Evaluates a Datalog program on the chosen engine, returning every
/// IDB relation.
pub fn eval_datalog_all_with<'a>(
    engine: Engine,
    program: &relviz_datalog::Program,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<HashMap<String, Relation>> {
    let src = db.into();
    let opts = opts.into();
    match engine {
        Engine::Reference => Ok(relviz_datalog::eval::eval_all(program, src.db())?),
        Engine::Indexed => parallel::eval_fixpoint_parallel(
            &plan_datalog_with(program, &src, opts.opt)?,
            &src,
            opts.width(),
        ),
    }
}

/// Evaluates a Datalog program on the chosen engine, returning the
/// answer predicate's relation. On the physical engine, with magic sets
/// enabled, the program first goes through the demand transformation
/// ([`magic_transform`]) so only the IDB the query demands is
/// materialized; the reference engine always runs the program as
/// written, keeping it an independent oracle for the transformation in
/// every differential test.
pub fn eval_datalog_with<'a>(
    engine: Engine,
    program: &relviz_datalog::Program,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<Relation> {
    let src = db.into();
    let opts = opts.into();
    // Resolved once: the transformed run and its fallback share a width.
    let opts = ExecOptions { threads: opts.width(), ..opts };
    if opts.opt.magic && engine == Engine::Indexed {
        if let Some(transformed) = opt::magic_transform(program) {
            // Defensive fallback: a transformed program the planner
            // refuses (it never should) evaluates untransformed below.
            if let Ok(mut all) = eval_datalog_all_with(engine, &transformed, &src, opts) {
                if let Some(rel) = all.remove(&transformed.query) {
                    return Ok(rel);
                }
            }
        }
    }
    let mut all = eval_datalog_all_with(engine, program, &src, opts)?;
    all.remove(&program.query).ok_or_else(|| {
        ExecError::Eval(format!("query predicate `{}` was never derived", program.query))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relviz_model::catalog::sailors_sample;
    use std::sync::Arc;

    #[test]
    fn engines_agree_on_sql_front_door() {
        let db = sailors_sample();
        let sql = "SELECT S.sname FROM Sailor S WHERE NOT EXISTS \
                   (SELECT * FROM Boat B WHERE B.color = 'red' AND NOT EXISTS \
                     (SELECT * FROM Reserves R WHERE R.sid = S.sid AND R.bid = B.bid))";
        let fast = run_sql_with(Engine::Indexed, sql, &db, ExecOptions::default()).unwrap();
        let oracle = run_sql_with(Engine::Reference, sql, &db, ExecOptions::default()).unwrap();
        assert!(fast.same_contents(&oracle));
        assert_eq!(fast.len(), 2); // dustin, lubber
    }

    #[test]
    fn engine_names() {
        assert_eq!(Engine::Reference.name(), "reference");
        assert_eq!(Engine::Indexed.name(), "exec");
        assert_eq!(Engine::ALL, [Engine::Reference, Engine::Indexed]);
    }

    #[test]
    fn options_default_to_one_worker_with_the_optimizer_on() {
        let serial = ExecOptions { threads: 1, opt: OptConfig::optimized() };
        assert_eq!(ExecOptions::default(), serial);
        assert_eq!(ExecOptions::from(OptConfig::optimized()), serial);
        let unopt = ExecOptions::from(OptConfig::unoptimized());
        assert_eq!((unopt.threads, unopt.opt), (1, OptConfig::unoptimized()));
    }

    #[test]
    fn explicit_thread_counts_resolve_verbatim() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        // 0 = auto: env or hardware — always at least one worker. No
        // test mutates the environment anymore (the policy is pinned
        // through the pure `resolve_threads_from`), so reading it here
        // is safe at any point of the run.
        assert!(resolve_threads(0) >= 1);
        assert_eq!(ExecOptions { threads: 3, ..ExecOptions::default() }.width(), 3);
        assert!(ExecOptions { threads: 0, ..ExecOptions::default() }.width() >= 1);
    }

    /// Regression (process-global optimizer toggle): one request
    /// evaluating with the optimizer off must not affect concurrent
    /// requests that asked for it on — every entry point threads the
    /// per-request [`OptConfig`] all the way down, and no process-wide
    /// setting exists to read. Half the threads run optimized, half
    /// unoptimized, all concurrently; every analysis must report its
    /// own request's plan mode, and both sides must produce identical
    /// results.
    #[test]
    fn concurrent_requests_keep_their_own_opt_config() {
        let db = Arc::new(relviz_model::catalog::sailors_sample());
        let sql = "SELECT S.sname FROM Sailor S, Reserves R, Boat B \
                   WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'";
        let baseline = run_sql_with(Engine::Indexed, sql, &*db, ExecOptions::default()).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let db = Arc::clone(&db);
                let optimized = i % 2 == 0;
                std::thread::spawn(move || {
                    let cfg = if optimized {
                        OptConfig::optimized()
                    } else {
                        OptConfig::unoptimized()
                    };
                    for _ in 0..16 {
                        let (rel, report) =
                            run_sql_analyzed_with(Engine::Indexed, sql, &*db, cfg).unwrap();
                        assert_eq!(
                            report.optimized, optimized,
                            "a request's report must reflect its own config"
                        );
                        assert!(
                            report.text.contains(if optimized {
                                "plan=optimized"
                            } else {
                                "plan=unoptimized"
                            }),
                            "{}",
                            report.text
                        );
                        let rendered = format!("{rel}");
                        assert!(!rendered.is_empty());
                    }
                    format!("{}", run_sql_with(Engine::Indexed, sql, &*db, cfg).unwrap())
                })
            })
            .collect();
        for h in handles {
            let rendered = h.join().expect("request thread");
            assert_eq!(rendered, format!("{baseline}"), "plan mode never changes results");
        }
    }

    #[test]
    fn engines_agree_on_recursive_datalog() {
        let db = relviz_model::generate::generate_binary_pair(42, 24, 10);
        let prog = relviz_datalog::parse::parse_program(
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
        )
        .unwrap();
        let fast = eval_datalog_with(Engine::Indexed, &prog, &db, ExecOptions::default()).unwrap();
        let oracle =
            eval_datalog_with(Engine::Reference, &prog, &db, ExecOptions::default()).unwrap();
        assert!(fast.same_contents(&oracle));
        assert!(!fast.is_empty());
    }
}
