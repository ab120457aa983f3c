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
//! * planners lowering [`relviz_ra::RaExpr`] ([`planner::plan_ra`]) and
//!   [`relviz_rc::TrcQuery`] ([`planner::plan_trc`]) into plans — TRC
//!   `∃`/`¬∃` quantifier nests become semi-/anti-joins instead of
//!   per-candidate re-evaluation, and a closing common-subplan pass
//!   wraps duplicated sub-plans in `Shared` nodes so they execute once;
//! * the executor ([`run::execute`]), threading per-execution scan and
//!   sub-plan caches; each base relation's batch comes from its slot
//!   ([`slots`]), materialized and indexed once per database generation
//!   and shared by every query that reads it;
//! * the **recursive-query subsystem** ([`fixpoint`],
//!   [`datalog_planner`]): stratified Datalog lowered to hash-join
//!   plans ([`plan_datalog`]) and iterated **semi-naively** —
//!   per round each rule runs once per same-stratum delta occurrence,
//!   scanning only the previous round's new facts
//!   ([`eval_datalog`], [`explain_datalog`]).
//!
//! ## Engines
//!
//! [`Engine`] selects between the reference evaluator and this engine
//! behind one call, so the suite and the scaling benches can run either:
//!
//! ```
//! use relviz_exec::{eval_ra, Engine};
//! use relviz_model::catalog::sailors_sample;
//!
//! let db = sailors_sample();
//! let e = relviz_ra::parse::parse_ra(
//!     "Project[sname](Join(Sailor, Select[bid = 102](Reserves)))",
//! ).unwrap();
//! let fast = eval_ra(Engine::Indexed, &e, &db).unwrap();
//! let oracle = eval_ra(Engine::Reference, &e, &db).unwrap();
//! assert!(fast.same_contents(&oracle));
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
pub use datalog_planner::{plan_datalog, plan_datalog_with};
pub use error::{ExecError, ExecResult};
pub use fixpoint::{
    eval_fixpoint, explain_datalog, explain_datalog_parallel, stratum_levels, FixpointPlan,
};
pub use indexed::IndexedRelation;
pub use opt::{
    estimate_fixpoint, estimate_plan, magic_transform, optimizer_enabled, set_optimizer_enabled,
    stats_cache_len, ColSketch, OptConfig, TableStats,
};
pub use parallel::{execute_parallel, resolve_threads, resolve_threads_from};
pub use plan::{explain, explain_parallel, OutputCol, PhysPlan};
pub use planner::{plan_ra, plan_ra_with, plan_trc, plan_trc_with};
pub use run::execute;
pub use slots::{Slots, Source};
pub use stats::{
    eval_datalog_analyzed, eval_datalog_analyzed_with, eval_trc_analyzed_with, run_sql_analyzed,
    run_sql_analyzed_with, OpRow, RoundRow, StatsReport, WorkerRow,
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
    /// The physical plan engine of this crate (hash joins, indexes).
    Indexed,
    /// The partitioned parallel runtime over the same plans
    /// ([`parallel`]): the payload is the worker count, `0` meaning
    /// *auto* (the `RELVIZ_THREADS` environment variable, else the
    /// machine's available parallelism — see [`resolve_threads`]).
    /// Results are **bit-identical** to [`Engine::Indexed`] at every
    /// thread count; one worker degenerates to the serial operators.
    Parallel(usize),
}

impl Engine {
    pub const ALL: [Engine; 3] =
        [Engine::Reference, Engine::Indexed, Engine::Parallel(0)];

    pub fn name(&self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Indexed => "exec",
            Engine::Parallel(_) => "parallel",
        }
    }
}

/// Evaluates an RA expression on the chosen engine, under the
/// process-wide optimizer default ([`OptConfig::current`]).
pub fn eval_ra<'a>(
    engine: Engine,
    expr: &relviz_ra::RaExpr,
    db: impl Into<Source<'a>>,
) -> ExecResult<Relation> {
    eval_ra_with(engine, expr, db, OptConfig::current())
}

/// [`eval_ra`] with an **explicit per-request optimizer configuration**
/// — the entry point concurrent callers (the `relviz serve` daemon)
/// use, so one request's `--no-opt` never flips a process global that
/// other in-flight queries read.
pub fn eval_ra_with<'a>(
    engine: Engine,
    expr: &relviz_ra::RaExpr,
    db: impl Into<Source<'a>>,
    cfg: OptConfig,
) -> ExecResult<Relation> {
    let src = db.into();
    match engine {
        Engine::Reference => Ok(relviz_ra::eval::eval(expr, src.db())?),
        Engine::Indexed => execute(&plan_ra_with(expr, &src, cfg)?, &src),
        Engine::Parallel(t) => {
            execute_parallel(&plan_ra_with(expr, &src, cfg)?, &src, resolve_threads(t))
        }
    }
}

/// Evaluates a TRC query on the chosen engine, under the process-wide
/// optimizer default ([`OptConfig::current`]).
pub fn eval_trc<'a>(
    engine: Engine,
    q: &relviz_rc::TrcQuery,
    db: impl Into<Source<'a>>,
) -> ExecResult<Relation> {
    eval_trc_with(engine, q, db, OptConfig::current())
}

/// [`eval_trc`] with an explicit per-request optimizer configuration
/// (see [`eval_ra_with`]).
pub fn eval_trc_with<'a>(
    engine: Engine,
    q: &relviz_rc::TrcQuery,
    db: impl Into<Source<'a>>,
    cfg: OptConfig,
) -> ExecResult<Relation> {
    let src = db.into();
    match engine {
        Engine::Reference => Ok(relviz_rc::trc_eval::eval_trc(q, src.db())?),
        Engine::Indexed => execute(&plan_trc_with(q, &src, cfg)?, &src),
        Engine::Parallel(t) => {
            execute_parallel(&plan_trc_with(q, &src, cfg)?, &src, resolve_threads(t))
        }
    }
}

/// Runs a SQL query through the pipeline's SQL → TRC front door, then
/// evaluates the TRC on the chosen engine.
pub fn run_sql<'a>(engine: Engine, sql: &str, db: impl Into<Source<'a>>) -> ExecResult<Relation> {
    run_sql_with(engine, sql, db, OptConfig::current())
}

/// [`run_sql`] with an explicit per-request optimizer configuration
/// (see [`eval_ra_with`]).
pub fn run_sql_with<'a>(
    engine: Engine,
    sql: &str,
    db: impl Into<Source<'a>>,
    cfg: OptConfig,
) -> ExecResult<Relation> {
    let src = db.into();
    let trc = relviz_rc::from_sql::parse_sql_to_trc(sql, src.db())?;
    eval_trc_with(engine, &trc, src, cfg)
}

/// Evaluates a Datalog program on the chosen engine, returning every
/// IDB relation.
pub fn eval_datalog_all<'a>(
    engine: Engine,
    program: &relviz_datalog::Program,
    db: impl Into<Source<'a>>,
) -> ExecResult<HashMap<String, Relation>> {
    eval_datalog_all_with(engine, program, db, OptConfig::current())
}

/// [`eval_datalog_all`] with an explicit optimizer configuration.
pub fn eval_datalog_all_with<'a>(
    engine: Engine,
    program: &relviz_datalog::Program,
    db: impl Into<Source<'a>>,
    cfg: OptConfig,
) -> ExecResult<HashMap<String, Relation>> {
    let src = db.into();
    match engine {
        Engine::Reference => Ok(relviz_datalog::eval::eval_all(program, src.db())?),
        Engine::Indexed => eval_fixpoint(&plan_datalog_with(program, &src, cfg)?, &src),
        Engine::Parallel(t) => parallel::eval_fixpoint_parallel(
            &plan_datalog_with(program, &src, cfg)?,
            &src,
            resolve_threads(t),
        ),
    }
}

/// Evaluates a Datalog program on the chosen engine, returning the
/// answer predicate's relation. On the physical engines, with the
/// optimizer enabled, the program first goes through the magic-sets
/// demand transformation ([`magic_transform`]) so only the IDB the
/// query demands is materialized; the reference engine always runs the
/// program as written, keeping it an independent oracle for the
/// transformation in every differential test.
pub fn eval_datalog<'a>(
    engine: Engine,
    program: &relviz_datalog::Program,
    db: impl Into<Source<'a>>,
) -> ExecResult<Relation> {
    eval_datalog_with(engine, program, db, OptConfig::current())
}

/// [`eval_datalog`] with an explicit optimizer configuration.
pub fn eval_datalog_with<'a>(
    engine: Engine,
    program: &relviz_datalog::Program,
    db: impl Into<Source<'a>>,
    cfg: OptConfig,
) -> ExecResult<Relation> {
    let src = db.into();
    if cfg.magic && !matches!(engine, Engine::Reference) {
        if let Some(transformed) = opt::magic_transform(program) {
            // Defensive fallback: a transformed program the planner
            // refuses (it never should) evaluates untransformed below.
            if let Ok(mut all) = eval_datalog_all_with(engine, &transformed, &src, cfg) {
                if let Some(rel) = all.remove(&transformed.query) {
                    return Ok(rel);
                }
            }
        }
    }
    let mut all = eval_datalog_all_with(engine, program, &src, cfg)?;
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
        let fast = run_sql(Engine::Indexed, sql, &db).unwrap();
        let oracle = run_sql(Engine::Reference, sql, &db).unwrap();
        assert!(fast.same_contents(&oracle));
        assert_eq!(fast.len(), 2); // dustin, lubber
    }

    #[test]
    fn engine_names() {
        assert_eq!(Engine::Reference.name(), "reference");
        assert_eq!(Engine::Indexed.name(), "exec");
        assert_eq!(Engine::Parallel(0).name(), "parallel");
        assert_eq!(Engine::Parallel(4).name(), "parallel");
        assert_eq!(Engine::ALL.len(), 3);
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
    }

    /// Regression (process-global optimizer toggle): one request
    /// evaluating with the optimizer off must not affect concurrent
    /// requests that asked for it on — the `*_with` entry points thread
    /// the per-request [`OptConfig`] all the way down instead of
    /// reading [`set_optimizer_enabled`]'s global. Half the threads run
    /// optimized, half unoptimized, all concurrently; every analysis
    /// must report its own request's plan mode, and both sides must
    /// produce identical results.
    #[test]
    fn concurrent_requests_keep_their_own_opt_config() {
        let db = Arc::new(relviz_model::catalog::sailors_sample());
        let sql = "SELECT S.sname FROM Sailor S, Reserves R, Boat B \
                   WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'";
        let baseline = run_sql(Engine::Indexed, sql, &*db).unwrap();
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
        let fast = eval_datalog(Engine::Indexed, &prog, &db).unwrap();
        let oracle = eval_datalog(Engine::Reference, &prog, &db).unwrap();
        assert!(fast.same_contents(&oracle));
        assert!(!fast.is_empty());
    }
}
