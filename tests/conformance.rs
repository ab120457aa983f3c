//! Cross-language conformance: every suite query, evaluated through
//! **every** available path — the reference evaluators, the translation
//! chains, and the physical engine — must produce the same relation.
//!
//! This is the paper's equivalence claim ("one semantics, five
//! syntaxes") as an executable pairwise check. Any disagreement prints
//! both relations via `model::text` so the diff is readable.

use relviz::exec::{self, Engine, ExecOptions};
use relviz::model::catalog::sailors_sample;
use relviz::model::generate::{generate_sailors, GenConfig};
use relviz::model::{text, Database, Relation};

/// One evaluation path: a label plus the relation it produced.
struct PathResult {
    label: &'static str,
    relation: Relation,
}

/// Evaluates `q` through every path. Panics (with the path label) if a
/// path that must support the query fails.
fn all_paths(q: &relviz::core::suite::SuiteQuery, db: &Database) -> Vec<PathResult> {
    let mut out = Vec::new();

    // 1. SQL reference evaluator.
    let sql = relviz::sql::eval::run_sql(q.sql, db)
        .unwrap_or_else(|e| panic!("{} sql eval: {e}", q.id));
    out.push(PathResult { label: "sql", relation: sql });

    // 2. SQL → TRC → reference TRC evaluator (the pipeline front door).
    let trc_from_sql = relviz::rc::from_sql::parse_sql_to_trc(q.sql, db)
        .unwrap_or_else(|e| panic!("{} sql→trc: {e}", q.id));
    out.push(PathResult {
        label: "sql→trc→eval",
        relation: relviz::rc::trc_eval::eval_trc(&trc_from_sql, db)
            .unwrap_or_else(|e| panic!("{} sql→trc eval: {e}", q.id)),
    });

    // 3. TRC → RA → reference RA evaluator (Codd's theorem direction).
    let trc = relviz::rc::trc_parse::parse_trc(q.trc)
        .unwrap_or_else(|e| panic!("{} trc parse: {e}", q.id));
    let ra_from_trc = relviz::rc::to_ra::trc_to_ra(&trc, db)
        .unwrap_or_else(|e| panic!("{} trc→ra: {e}", q.id));
    out.push(PathResult {
        label: "trc→ra→eval",
        relation: relviz::ra::eval::eval(&ra_from_trc, db)
            .unwrap_or_else(|e| panic!("{} trc→ra eval: {e}", q.id)),
    });

    // 4. TRC → DRC → reference DRC evaluator.
    let drc = relviz::rc::to_drc::trc_to_drc(&trc, db)
        .unwrap_or_else(|e| panic!("{} trc→drc: {e}", q.id));
    out.push(PathResult {
        label: "trc→drc→eval",
        relation: relviz::rc::drc_eval::eval_drc(&drc, db)
            .unwrap_or_else(|e| panic!("{} trc→drc eval: {e}", q.id)),
    });

    // 5. Physical engine on the RA form.
    let ra = relviz::ra::parse::parse_ra(q.ra)
        .unwrap_or_else(|e| panic!("{} ra parse: {e}", q.id));
    out.push(PathResult {
        label: "exec(ra)",
        relation: exec::eval_ra_with(Engine::Indexed, &ra, db, ExecOptions::default())
            .unwrap_or_else(|e| panic!("{} exec(ra): {e}", q.id)),
    });

    // 6. Physical engine on the TRC form (∃/¬∃ → semi-/anti-joins).
    out.push(PathResult {
        label: "exec(trc)",
        relation: exec::eval_trc_with(Engine::Indexed, &trc, db, ExecOptions::default())
            .unwrap_or_else(|e| panic!("{} exec(trc): {e}", q.id)),
    });

    // 7. Physical engine behind the SQL front door.
    out.push(PathResult {
        label: "exec(sql→trc)",
        relation: exec::run_sql_with(Engine::Indexed, q.sql, db, ExecOptions::default())
            .unwrap_or_else(|e| panic!("{} exec(sql→trc): {e}", q.id)),
    });

    // 8. Physical engine on the Datalog form (semi-naive fixpoint).
    let dl = relviz::datalog::parse::parse_program(q.datalog)
        .unwrap_or_else(|e| panic!("{} datalog parse: {e}", q.id));
    out.push(PathResult {
        label: "exec(datalog)",
        relation: exec::eval_datalog_with(Engine::Indexed, &dl, db, ExecOptions::default())
            .unwrap_or_else(|e| panic!("{} exec(datalog): {e}", q.id)),
    });

    // 9. The parallel partitioned runtime on the Datalog form — auto
    // worker count, so `RELVIZ_THREADS=8 cargo test` (the CI contention
    // run) pushes this path through eight workers.
    let auto = ExecOptions { threads: 0, ..ExecOptions::default() };
    out.push(PathResult {
        label: "parallel(datalog)",
        relation: exec::eval_datalog_with(Engine::Indexed, &dl, db, auto)
            .unwrap_or_else(|e| panic!("{} parallel(datalog): {e}", q.id)),
    });

    out
}

/// Asserts all paths pairwise agree; on disagreement, dumps both
/// relations through `model::text` for a readable diff.
fn assert_pairwise_agreement(qid: &str, paths: &[PathResult]) {
    for a in paths {
        for b in paths {
            if a.relation.same_contents(&b.relation) {
                continue;
            }
            let mut diff_db = Database::new();
            diff_db.set(a.label.replace(['→', '(', ')'], "_"), a.relation.clone());
            diff_db.set(b.label.replace(['→', '(', ')'], "_"), b.relation.clone());
            panic!(
                "{qid}: path `{}` disagrees with `{}`\n{}",
                a.label,
                b.label,
                text::dump_database(&diff_db),
            );
        }
    }
}

#[test]
fn all_paths_agree_on_the_sample() {
    let db = sailors_sample();
    for q in relviz::core::suite::SUITE {
        let paths = all_paths(q, &db);
        assert_eq!(paths.len(), 9, "{}: a path went missing", q.id);
        assert_pairwise_agreement(q.id, &paths);
    }
}

/// Every engine-dispatch entry point of the exec crate, exercised for
/// **every** `Engine` variant at one worker, plus the physical engine at
/// auto width (`threads: 0`, eight workers under CI's
/// `RELVIZ_THREADS=8` run) — every run must agree with the reference on
/// every entry point, on every suite query the entry point's language
/// can express.
#[test]
fn every_dispatch_entry_point_runs_on_all_engines() {
    let db = sailors_sample();
    let runs: Vec<(Engine, usize)> =
        Engine::ALL.into_iter().map(|e| (e, 1)).chain([(Engine::Indexed, 0)]).collect();
    for q in relviz::core::suite::SUITE {
        let ra = relviz::ra::parse::parse_ra(q.ra).unwrap();
        let trc = relviz::rc::trc_parse::parse_trc(q.trc).unwrap();
        let dl = relviz::datalog::parse::parse_program(q.datalog).unwrap();
        let results: Vec<Vec<relviz::model::Relation>> = runs
            .iter()
            .map(|&(engine, threads)| {
                let opts = ExecOptions { threads, ..ExecOptions::default() };
                let run = format!("{}/threads={threads}", engine.name());
                vec![
                    exec::eval_ra_with(engine, &ra, &db, opts)
                        .unwrap_or_else(|e| panic!("{} eval_ra_with/{run}: {e}", q.id)),
                    exec::eval_trc_with(engine, &trc, &db, opts)
                        .unwrap_or_else(|e| panic!("{} eval_trc_with/{run}: {e}", q.id)),
                    exec::run_sql_with(engine, q.sql, &db, opts)
                        .unwrap_or_else(|e| panic!("{} run_sql_with/{run}: {e}", q.id)),
                    exec::eval_datalog_with(engine, &dl, &db, opts)
                        .unwrap_or_else(|e| panic!("{} eval_datalog_with/{run}: {e}", q.id)),
                ]
            })
            .collect();
        let reference = &results[0];
        let entries = ["eval_ra_with", "eval_trc_with", "run_sql_with", "eval_datalog_with"];
        for (&(engine, threads), outputs) in runs.iter().zip(&results).skip(1) {
            for (entry, (oracle, ours)) in entries.iter().zip(reference.iter().zip(outputs)) {
                assert!(
                    oracle.same_contents(ours),
                    "{} {entry}: `{}` at threads={threads} disagrees with the reference\n\
                     reference={oracle}\n{}={ours}",
                    q.id,
                    engine.name(),
                    engine.name(),
                );
            }
        }
    }
}

#[test]
fn all_paths_agree_on_generated_instances() {
    // Two seeded instances, sized so the naive reference evaluators
    // (cubic TRC enumeration, active-domain DRC) stay fast in debug
    // builds — the scale story lives in the benches, not here.
    for seed in [1u64, 0xD1A6_4A77] {
        let db = generate_sailors(&GenConfig {
            seed,
            sailors: 9,
            boats: 4,
            reservations: 16,
        });
        for q in relviz::core::suite::SUITE {
            let paths = all_paths(q, &db);
            assert_pairwise_agreement(q.id, &paths);
        }
    }
}
