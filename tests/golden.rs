//! Golden-file tests: the ASCII renderings of the suite queries are
//! deterministic, so they are checked against committed goldens — a
//! regression net for parser, translator, diagram builder, layout and
//! renderer at once (a change in any stage shows up as a readable text
//! diff).
//!
//! Regenerate with `UPDATE_GOLDENS=1 cargo test --test golden`.

use std::path::PathBuf;

use relviz::core::suite::SUITE;
use relviz::core::{Backend, QueryVisualizer, VisFormalism};
use relviz::exec::OptConfig;
use relviz::model::catalog::sailors_sample;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn check_or_update(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("can create goldens dir");
        std::fs::write(&path, actual).expect("can write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}\nrun UPDATE_GOLDENS=1 cargo test --test golden", path.display()));
    assert_eq!(
        expected, actual,
        "golden mismatch for {name} — if intentional, rerun with UPDATE_GOLDENS=1"
    );
}

#[test]
fn ascii_goldens_for_reldiag() {
    let db = sailors_sample();
    let viz = QueryVisualizer::new(VisFormalism::RelationalDiagrams, Backend::Ascii);
    for q in SUITE {
        let out = viz.visualize(q.sql, &db).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        check_or_update(&format!("{}-reldiag.txt", q.id), &out.rendering);
    }
}

#[test]
fn ascii_goldens_for_queryvis() {
    let db = sailors_sample();
    let viz = QueryVisualizer::new(VisFormalism::QueryVis, Backend::Ascii);
    for q in SUITE {
        if q.id == "Q3" {
            continue; // union: unsupported by QueryVis (E5)
        }
        let out = viz.visualize(q.sql, &db).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        check_or_update(&format!("{}-queryvis.txt", q.id), &out.rendering);
    }
}

#[test]
fn svg_golden_for_q5() {
    let db = sailors_sample();
    for (f, name) in [
        (VisFormalism::RelationalDiagrams, "Q5-reldiag.svg"),
        (VisFormalism::Dfql, "Q5-dfql.svg"),
    ] {
        let viz = QueryVisualizer::new(f, Backend::Svg);
        let out = viz
            .visualize(relviz::core::suite::by_id("Q5").unwrap().sql, &db)
            .unwrap();
        check_or_update(name, &out.rendering);
    }
}

#[test]
fn trc_goldens() {
    // The canonical TRC the translator produces — locks the SQL→TRC shape.
    let db = sailors_sample();
    let mut all = String::new();
    for q in SUITE {
        let trc = relviz::rc::from_sql::parse_sql_to_trc(q.sql, &db).unwrap();
        all.push_str(q.id);
        all.push_str(": ");
        all.push_str(&trc.to_string());
        all.push('\n');
    }
    check_or_update("suite-trc.txt", &all);
}

#[test]
fn ascii_goldens_for_begriffsschrift() {
    // The 2D ladders for the suite's closed sentences (heads closed
    // existentially — Begriffsschrift asserts statements).
    let db = sailors_sample();
    for q in SUITE {
        let trc = match relviz::rc::from_sql::parse_sql_to_trc(q.sql, &db) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let Ok(drc) = relviz::rc::to_drc::trc_to_drc(&trc, &db) else {
            continue;
        };
        let closed =
            relviz::rc::drc::DrcFormula::exists(drc.head.clone(), drc.body.clone());
        let bs = relviz::diagrams::frege::Bs::from_drc(&closed)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        check_or_update(&format!("{}-frege.txt", q.id), &bs.ascii());
    }
}

#[test]
fn ascii_golden_for_sieuferd_sheet() {
    let db = sailors_sample();
    let sheet = relviz::diagrams::sieuferd::SieuferdSheet::from_sql(
        "SELECT S.sname, B.bname FROM Sailor S, Reserves R, Boat B \
         WHERE S.sid = R.sid AND R.bid = B.bid AND B.color = 'red'",
        &db,
    )
    .expect("conjunctive tree join");
    check_or_update("Q2-sieuferd.txt", &sheet.ascii(&db).expect("evaluates"));
}

#[test]
fn explain_goldens_for_suite_plans() {
    // The physical plans the exec engine chooses for every suite query,
    // from both the RA and the TRC form — locks the planner's shape
    // (hash-key extraction, semi-/anti-join decorrelation, dedup
    // placement). Any planner change shows up as a readable plan diff.
    // Each plan carries the static verifier's footer, so the golden also
    // pins that every suite plan satisfies the IR contract.
    let db = sailors_sample();
    let mut all = String::new();
    for q in SUITE {
        let ra = relviz::ra::parse::parse_ra(q.ra).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let ra_plan = relviz::exec::plan_ra_with(&ra, &db, OptConfig::optimized())
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        all.push_str(&format!(
            "== {} (ra) ==\n{}",
            q.id,
            relviz::exec::explain_verified(&ra_plan)
        ));
        let trc =
            relviz::rc::trc_parse::parse_trc(q.trc).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let trc_plan = relviz::exec::plan_trc_with(&trc, &db, OptConfig::optimized())
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        all.push_str(&format!(
            "== {} (trc) ==\n{}",
            q.id,
            relviz::exec::explain_verified(&trc_plan)
        ));
    }
    check_or_update("suite-plans.txt", &all);
}

#[test]
fn explain_goldens_for_datalog_plans() {
    // The recursive-query plans of the fixpoint subsystem: the suite's
    // Datalog forms plus the canonical recursive workloads (transitive
    // closure, same-generation). Locks the stratum layering, the
    // hash-join chains, anti-join negation, and the per-occurrence
    // delta variants of semi-naive evaluation.
    let db = sailors_sample();
    let mut all = String::new();
    for q in SUITE {
        let prog = relviz::datalog::parse::parse_program(q.datalog)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let plan = relviz::exec::plan_datalog_with(&prog, &db, OptConfig::optimized())
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        all.push_str(&format!(
            "== {} (datalog) ==\n{}",
            q.id,
            relviz::exec::explain_datalog_verified(&plan)
        ));
    }
    let db2 = relviz::model::generate::generate_binary_pair(11, 30, 12);
    for (id, src) in [
        ("TC", "tc(X, Y) :- R(X, Y).\ntc(X, Z) :- tc(X, Y), R(Y, Z)."),
        (
            "SG",
            "% query: sg\n\
             sg(X, X) :- R(X, Y).\n\
             sg(X, Y) :- R(XP, X), sg(XP, YP), R(YP, Y).",
        ),
    ] {
        let prog = relviz::datalog::parse::parse_program(src).unwrap();
        let plan = relviz::exec::plan_datalog_with(&prog, &db2, OptConfig::optimized())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        all.push_str(&format!(
            "== {id} (datalog) ==\n{}",
            relviz::exec::explain_datalog_verified(&plan)
        ));
    }
    check_or_update("datalog-plans.txt", &all);
}

#[test]
fn explain_goldens_for_magic_plans() {
    // The magic-sets demand transformation on the canonical bound-goal
    // recursive workloads: pins the generated magic/adorned program
    // text (seed facts, guard rules, adornment renames) and the
    // fixpoint plan it lowers to — the shape `eval_datalog_with` actually
    // executes with the optimizer on.
    let db = relviz::model::generate::generate_binary_pair(11, 30, 12);
    let mut all = String::new();
    for (id, src) in [
        (
            "TC(1,·)",
            "% query: q\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             q(Y) :- tc(1, Y).",
        ),
        (
            "SG(1,·)",
            "% query: q\n\
             sg(X, X) :- R(X, Y).\n\
             sg(X, Y) :- R(XP, X), sg(XP, YP), R(YP, Y).\n\
             q(Y) :- sg(1, Y).",
        ),
    ] {
        let prog = relviz::datalog::parse::parse_program(src).unwrap();
        let magic = relviz::exec::magic_transform(&prog)
            .unwrap_or_else(|| panic!("{id}: bound goal must transform"));
        let plan = relviz::exec::plan_datalog_with(&magic, &db, OptConfig::optimized())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        all.push_str(&format!(
            "== {id} (magic program) ==\n{magic}\n== {id} (magic plan) ==\n{}",
            relviz::exec::explain_datalog_verified(&plan)
        ));
    }
    check_or_update("magic-plans.txt", &all);
}

#[test]
fn explain_goldens_for_parallel_plans() {
    // The parallel engine's view of representative plans at 4 workers:
    // partitioned operators (`part ∥4` / `chunk ∥4`), prewarm levels on
    // `Shared` sub-plans, and stratum dependency levels (same level =
    // evaluates concurrently). Serial EXPLAIN output is untouched —
    // annotations only appear through `explain_parallel`.
    let db = sailors_sample();
    let mut all = String::new();
    for id in ["Q2", "Q5"] {
        let q = relviz::core::suite::by_id(id).unwrap();
        let trc = relviz::rc::trc_parse::parse_trc(q.trc).unwrap();
        let plan = relviz::exec::plan_trc_with(&trc, &db, OptConfig::optimized()).unwrap();
        all.push_str(&format!(
            "== {id} (trc, parallel ×4) ==\n{}",
            relviz::exec::explain_parallel(&plan, 4)
        ));
    }
    let db2 = relviz::model::generate::generate_binary_pair(11, 30, 12);
    for (id, src) in [
        ("TC", "tc(X, Y) :- R(X, Y).\ntc(X, Z) :- tc(X, Y), R(Y, Z)."),
        (
            "UNREACHED",
            "% query: unreached\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             node(X) :- R(X, Y).\n\
             node(Y) :- R(X, Y).\n\
             unreached(X, Y) :- node(X), node(Y), not tc(X, Y).",
        ),
    ] {
        let prog = relviz::datalog::parse::parse_program(src).unwrap();
        let plan = relviz::exec::plan_datalog_with(&prog, &db2, OptConfig::optimized()).unwrap();
        all.push_str(&format!(
            "== {id} (datalog, parallel ×4) ==\n{}",
            relviz::exec::explain_datalog_parallel(&plan, 4)
        ));
    }
    check_or_update("parallel-plans.txt", &all);
}

#[test]
fn ascii_goldens_for_syntax_mirror_fingerprints() {
    // The Visual SQL fingerprints of the whole suite: any change to the
    // SQL parser, printer or the frame builder shows as a text diff.
    let db = sailors_sample();
    let mut out = String::new();
    for q in SUITE {
        let d = relviz::diagrams::visualsql::VisualSqlDiagram::from_sql(q.sql, &db)
            .unwrap_or_else(|e| panic!("{}: {e}", q.id));
        out.push_str(q.id);
        out.push(' ');
        out.push_str(&d.fingerprint());
        out.push('\n');
    }
    check_or_update("suite-visualsql-fingerprints.txt", &out);
}

#[test]
fn diagnostics_golden_for_verifier_and_analyzer() {
    // The verifier/analyzer's *textual* contract: clean verification
    // lines for every suite query, then the exact diagnostics for a
    // curated set of ill-formed programs and hand-mutated plans. Any
    // change to a code, span or message shows as a readable diff.
    use relviz::exec::{
        analyze_program, render_diagnostics, verification_footer, verify_fixpoint, verify_plan,
    };
    let db = sailors_sample();
    let mut all = String::new();

    all.push_str("== suite (trc plans) ==\n");
    for q in SUITE {
        let trc = relviz::rc::trc_parse::parse_trc(q.trc).unwrap();
        let plan = relviz::exec::plan_trc_with(&trc, &db, OptConfig::optimized()).unwrap();
        let diags = verify_plan(&plan, Some(&db));
        all.push_str(&format!("{}: {}", q.id, verification_footer(plan.node_count(), &diags)));
    }

    all.push_str("== suite (datalog analysis) ==\n");
    for q in SUITE {
        let prog = relviz::datalog::parse::parse_program(q.datalog).unwrap();
        let diags = analyze_program(&prog, &db);
        all.push_str(&format!("{}:\n", q.id));
        let rendered = render_diagnostics(&diags);
        all.push_str(if rendered.is_empty() { "  (clean)\n" } else { &rendered });
    }

    // Curated ill-formed programs: each triggers a distinct analysis.
    for (title, src) in [
        (
            "unstratifiable negation",
            "p(X) :- Boat(X, N, C), not q(X).\nq(X) :- Boat(X, N, C), p(X).",
        ),
        (
            "lints: cartesian product, dead rule, unused predicate",
            "% query: ans\n\
             ans(X) :- Sailor(X, N, R, A), Boat(B, BN, C).\n\
             ans(X) :- Sailor(X, N, R, A), Boat(B, BN, C).\n\
             orphan(X) :- Boat(X, N, C).",
        ),
        (
            "always-empty body",
            "% query: ans\nans(X) :- Boat(X, N, C), X < X, 1 > 2.",
        ),
        ("head/body arity disagreement", "p(X) :- Boat(X, N, C).\np(X, Y) :- R(X, Y)."),
    ] {
        all.push_str(&format!("== ill-formed: {title} ==\n"));
        match relviz::datalog::parse::parse_program(src) {
            Ok(prog) => all.push_str(&render_diagnostics(&analyze_program(&prog, &db))),
            Err(e) => all.push_str(&format!("parse error: {e}\n")),
        }
    }

    // Hand-mutated plans: the rejection messages of the plan walker.
    all.push_str("== ill-formed: out-of-bounds projection ==\n");
    let bad = relviz::exec::PhysPlan::Project {
        cols: vec![relviz::exec::OutputCol::Pos(9)],
        input: Box::new(relviz::exec::PhysPlan::Scan {
            rel: "Sailor".to_string(),
            schema: db.schema("Sailor").unwrap().clone(),
        }),
        schema: relviz::model::Schema::of(&[("x", relviz::model::DataType::Any)]),
    };
    all.push_str(&render_diagnostics(&verify_plan(&bad, Some(&db))));

    all.push_str("== ill-formed: delta-less recursive rule ==\n");
    let db2 = relviz::model::generate::generate_binary_pair(11, 30, 12);
    let prog = relviz::datalog::parse::parse_program(
        "tc(X, Y) :- R(X, Y).\ntc(X, Z) :- tc(X, Y), R(Y, Z).",
    )
    .unwrap();
    let mut plan = relviz::exec::plan_datalog_with(&prog, &db2, OptConfig::optimized()).unwrap();
    for s in &mut plan.strata {
        for r in &mut s.rules {
            r.deltas.clear();
        }
    }
    all.push_str(&render_diagnostics(&verify_fixpoint(&plan, Some(&db2))));

    check_or_update("verify-diagnostics.txt", &all);
}
