//! Negative-path tests for the static plan verifier: hand-mutated
//! plans — the ones the planners can never emit — must be *rejected*,
//! with the expected diagnostic codes. The clean path (every
//! planner-emitted plan verifies) is pinned property-style by the
//! differential fuzzers (`differential.rs`, `differential_datalog.rs`),
//! which assert `verify_plan`/`verify_fixpoint` on all 340 randomized
//! cases, and by the debug-build hooks inside the planners themselves.

use relviz::exec::{
    check_plan, plan_datalog_with, plan_ra_with, render_diagnostics, verify_fixpoint, verify_plan,
    ExecError, OptConfig, OutputCol, PhysPlan, Severity,
};
use relviz::model::catalog::sailors_sample;
use relviz::model::generate::generate_binary_pair;
use relviz::model::{DataType, Schema};

fn codes(diags: &[relviz::exec::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

fn scan(db: &relviz::model::Database, rel: &str) -> PhysPlan {
    PhysPlan::Scan { rel: rel.to_string(), schema: db.schema(rel).unwrap().clone() }
}

#[test]
fn out_of_bounds_projection_is_rejected() {
    let db = sailors_sample();
    let plan = PhysPlan::Project {
        cols: vec![OutputCol::Pos(9)],
        input: Box::new(scan(&db, "Sailor")),
        schema: Schema::of(&[("x", DataType::Any)]),
    };
    let diags = verify_plan(&plan, Some(&db));
    assert!(codes(&diags).contains(&"col-bounds"), "{}", render_diagnostics(&diags));
    // The hard gate surfaces the same diagnostics as an ExecError.
    let err = check_plan(&plan, Some(&db)).unwrap_err();
    assert!(matches!(err, ExecError::Verify(_)));
    assert!(err.to_string().contains("col-bounds"), "{err}");
}

#[test]
fn union_arity_mismatch_is_rejected() {
    let db = sailors_sample();
    let sailor = scan(&db, "Sailor"); // arity 4
    let boat = scan(&db, "Boat"); // arity 3
    let schema = sailor.schema().clone();
    let plan =
        PhysPlan::Union { left: Box::new(sailor), right: Box::new(boat), schema };
    let diags = verify_plan(&plan, Some(&db));
    assert!(codes(&diags).contains(&"arity-mismatch"), "{}", render_diagnostics(&diags));
}

#[test]
fn inconsistent_shared_backreference_is_rejected() {
    // Two `Shared #0` nodes whose inputs differ: the second is a stale
    // back-reference — executing it would serve the wrong cached batch.
    let db = sailors_sample();
    let a = scan(&db, "Boat");
    let b = PhysPlan::Filter {
        pred: relviz::ra::Predicate::cmp(
            relviz::ra::Operand::attr("color"),
            relviz::model::CmpOp::Eq,
            relviz::ra::Operand::val(relviz::model::Value::str("red")),
        ),
        schema: a.schema().clone(),
        input: Box::new(a.clone()),
    };
    let schema = a.schema().clone();
    let plan = PhysPlan::Union {
        left: Box::new(PhysPlan::Shared { id: 0, input: Box::new(a), schema: schema.clone() }),
        right: Box::new(PhysPlan::Shared { id: 0, input: Box::new(b), schema: schema.clone() }),
        schema,
    };
    let diags = verify_plan(&plan, Some(&db));
    assert!(
        codes(&diags).contains(&"shared-inconsistent"),
        "{}",
        render_diagnostics(&diags)
    );
}

#[test]
fn fixpoint_scan_outside_a_fixpoint_is_rejected() {
    let db = sailors_sample();
    let plan = PhysPlan::ScanIdb {
        rel: "tc".to_string(),
        schema: Schema::of(&[("x0", DataType::Any), ("x1", DataType::Any)]),
    };
    let diags = verify_plan(&plan, Some(&db));
    assert!(codes(&diags).contains(&"fixpoint-scan"), "{}", render_diagnostics(&diags));
}

#[test]
fn delta_less_recursive_rule_is_rejected() {
    // Strip the delta variants off a genuine transitive-closure plan:
    // semi-naive coverage now misses the recursive occurrence, which
    // would silently drop derivations after round 0.
    let db = generate_binary_pair(11, 30, 12);
    let prog = relviz::datalog::parse::parse_program(
        "tc(X, Y) :- R(X, Y).\ntc(X, Z) :- tc(X, Y), R(Y, Z).",
    )
    .unwrap();
    let mut plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
    for s in &mut plan.strata {
        for r in &mut s.rules {
            r.deltas.clear();
        }
    }
    let diags = verify_fixpoint(&plan, Some(&db));
    assert!(codes(&diags).contains(&"delta-count"), "{}", render_diagnostics(&diags));
    // ...and the `recursive` flag no longer matches the (delta-less) rules.
    assert!(codes(&diags).contains(&"recursive-flag"), "{}", render_diagnostics(&diags));
}

#[test]
fn join_key_mutations_are_rejected() {
    let db = sailors_sample();
    let PhysPlan::HashJoin { mut left_keys, left, right, right_keys, right_keep, post, schema } =
        (match plan_ra_with(
            &relviz::ra::parse::parse_ra("Join(Sailor, Reserves)").unwrap(),
            &db,
            OptConfig::optimized(),
        )
        .unwrap()
        {
            PhysPlan::Dedup { input, .. } | PhysPlan::Project { input, .. } => *input,
            p => p,
        })
    else {
        panic!("expected the natural join to plan as a HashJoin")
    };
    // Key list length mismatch between the sides.
    left_keys.push(0);
    let plan = PhysPlan::HashJoin {
        left,
        right,
        left_keys,
        right_keys,
        right_keep,
        post,
        schema,
    };
    let diags = verify_plan(&plan, Some(&db));
    assert!(codes(&diags).contains(&"key-arity"), "{}", render_diagnostics(&diags));
}

#[test]
fn unknown_relation_is_flagged_against_the_database() {
    let db = sailors_sample();
    let plan = PhysPlan::Scan {
        rel: "Ghost".to_string(),
        schema: Schema::of(&[("x", DataType::Any)]),
    };
    let diags = verify_plan(&plan, Some(&db));
    assert!(codes(&diags).contains(&"unknown-relation"), "{}", render_diagnostics(&diags));
    // Without a database the same plan is structurally fine.
    assert!(verify_plan(&plan, None).is_empty());
}

#[test]
fn suite_plans_verify_clean_through_every_planner() {
    let db = sailors_sample();
    for q in relviz::core::suite::SUITE {
        let ra = relviz::ra::parse::parse_ra(q.ra).unwrap();
        let plan = plan_ra_with(&ra, &db, OptConfig::optimized()).unwrap();
        let diags = verify_plan(&plan, Some(&db));
        assert!(diags.is_empty(), "{} (ra):\n{}", q.id, render_diagnostics(&diags));

        let trc = relviz::rc::trc_parse::parse_trc(q.trc).unwrap();
        let plan = relviz::exec::plan_trc_with(&trc, &db, OptConfig::optimized()).unwrap();
        let diags = verify_plan(&plan, Some(&db));
        assert!(diags.is_empty(), "{} (trc):\n{}", q.id, render_diagnostics(&diags));

        let prog = relviz::datalog::parse::parse_program(q.datalog).unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        let diags = verify_fixpoint(&plan, Some(&db));
        assert!(diags.is_empty(), "{} (datalog):\n{}", q.id, render_diagnostics(&diags));
        // The analyzer may lint (warnings) but must not error.
        let analysis = relviz::exec::analyze_program(&prog, &db);
        assert!(
            !analysis.iter().any(|d| d.severity == Severity::Error),
            "{} (analyzer):\n{}",
            q.id,
            render_diagnostics(&analysis)
        );
    }
}

#[test]
fn analyzer_rejects_unstratifiable_programs_with_the_cycle() {
    let db = sailors_sample();
    let prog = relviz::datalog::parse::parse_program(
        "p(X) :- Boat(X, N, C), not q(X).\nq(X) :- Boat(X, N, C), p(X).",
    )
    .unwrap();
    let diags = relviz::exec::analyze_program(&prog, &db);
    let un: Vec<_> = diags.iter().filter(|d| d.code == "unstratifiable").collect();
    assert_eq!(un.len(), 1, "{}", render_diagnostics(&diags));
    assert!(un[0].message.contains("`p` -not-> `q` -> `p`"), "{}", un[0].message);
}
