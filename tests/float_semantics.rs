//! Float edge-case semantics, pinned end-to-end across every engine:
//! `Value`'s total order (`f64::total_cmp`) makes **`NaN = NaN`** and
//! **`-0.0 < 0.0`** (so `-0.0 ≠ 0.0`), and `Int`/`Float` compare
//! numerically (`1 = 1.0`, but `0 ≠ -0.0` since `0.0 > -0.0`).
//!
//! Every execution path that compares, hashes, or deduplicates values
//! must agree on those rules — the vectorized filter kernels, hash-join
//! key probes, dedup and difference tables of the columnar engine, and
//! the reference evaluators' tree sets. These tests run the same query
//! on all engines, assert `same_contents` against the reference oracle,
//! *and* pin the exact expected cardinality so the whole engine family
//! can't drift together.
//!
//! The expressions are built programmatically: the RA parser has no
//! literal syntax for `NaN` or `-0.0`, which is exactly why these paths
//! had no coverage before.

use relviz::exec::{eval_ra_with, Engine, ExecOptions};
use relviz::model::{CmpOp, Database, DataType, Relation, Schema, Tuple, Value};
use relviz::ra::{Operand, Predicate, RaExpr};

const NAN: f64 = f64::NAN;
const NEG_ZERO: f64 = -0.0;

/// `F(x: Float, tag: Str)`: one row per interesting float, tagged so
/// result rows stay distinguishable.
fn float_db() -> Database {
    let schema = Schema::of(&[("x", DataType::Float), ("tag", DataType::Str)]);
    let rows = vec![
        Tuple::new(vec![Value::Float(NAN), Value::str("nan")]),
        Tuple::new(vec![Value::Float(NEG_ZERO), Value::str("negzero")]),
        Tuple::new(vec![Value::Float(0.0), Value::str("zero")]),
        Tuple::new(vec![Value::Float(1.0), Value::str("one")]),
        Tuple::new(vec![Value::Float(-1.5), Value::str("neg")]),
    ];
    let mut db = Database::new();
    db.set("F", Relation::from_tuples_unchecked(schema, rows));
    db
}

/// Runs `e` on every engine at one worker and on the physical engine
/// at auto width (`threads: 0`), asserts agreement with the reference
/// oracle, and returns the reference result for cardinality pinning.
fn all_engines_agree(e: &RaExpr, db: &Database) -> Relation {
    let oracle = eval_ra_with(Engine::Reference, e, db, ExecOptions::default())
        .expect("reference evaluation");
    let runs = Engine::ALL.into_iter().map(|e| (e, 1)).chain([(Engine::Indexed, 0)]);
    for (engine, threads) in runs {
        let opts = ExecOptions { threads, ..ExecOptions::default() };
        let got = eval_ra_with(engine, e, db, opts).expect("engine evaluation");
        assert!(
            got.same_contents(&oracle),
            "{} (threads={threads}) disagrees with the reference:\ngot {got}\nwant {oracle}",
            engine.name()
        );
    }
    oracle
}

fn select_x(op: CmpOp, c: f64) -> RaExpr {
    RaExpr::relation("F").select(Predicate::cmp(
        Operand::attr("x"),
        op,
        Operand::val(Value::Float(c)),
    ))
}

/// Filters (the vectorized `col op const` kernel): `NaN = NaN` holds,
/// `-0.0 = 0.0` does not, and the order sees `-0.0 < 0.0 < NaN`.
#[test]
fn filter_pins_nan_and_signed_zero() {
    let db = float_db();
    assert_eq!(all_engines_agree(&select_x(CmpOp::Eq, NAN), &db).len(), 1, "NaN = NaN");
    assert_eq!(
        all_engines_agree(&select_x(CmpOp::Eq, 0.0), &db).len(),
        1,
        "only +0.0 equals +0.0 — not -0.0"
    );
    assert_eq!(
        all_engines_agree(&select_x(CmpOp::Eq, NEG_ZERO), &db).len(),
        1,
        "only -0.0 equals -0.0"
    );
    // total_cmp order: -1.5 < -0.0 < 0.0 < 1.0 < NaN.
    assert_eq!(all_engines_agree(&select_x(CmpOp::Lt, 0.0), &db).len(), 2, "-1.5 and -0.0");
    assert_eq!(all_engines_agree(&select_x(CmpOp::Ge, 0.0), &db).len(), 3, "0.0, 1.0, NaN");
    assert_eq!(all_engines_agree(&select_x(CmpOp::Neq, NAN), &db).len(), 4);
    // The flipped form (`const op col`) takes a different compile path.
    let flipped = RaExpr::relation("F").select(Predicate::cmp(
        Operand::val(Value::Float(0.0)),
        CmpOp::Gt,
        Operand::attr("x"),
    ));
    assert_eq!(all_engines_agree(&flipped, &db).len(), 2, "0.0 > x ⇔ x < 0.0");
}

/// Column-vs-column comparison (`Pos op Pos`): a NaN cell equals
/// itself, and `-0.0` is strictly below `0.0` in the same row.
#[test]
fn filter_column_vs_column_uses_the_total_order() {
    let schema = Schema::of(&[("a", DataType::Float), ("b", DataType::Float)]);
    let rows = vec![
        Tuple::new(vec![Value::Float(NAN), Value::Float(NAN)]),
        Tuple::new(vec![Value::Float(NEG_ZERO), Value::Float(0.0)]),
        Tuple::new(vec![Value::Float(2.0), Value::Float(1.0)]),
    ];
    let mut db = Database::new();
    db.set("P", Relation::from_tuples_unchecked(schema, rows));
    let eq = RaExpr::relation("P").select(Predicate::cmp(
        Operand::attr("a"),
        CmpOp::Eq,
        Operand::attr("b"),
    ));
    assert_eq!(all_engines_agree(&eq, &db).len(), 1, "only the NaN row: -0.0 ≠ 0.0");
    let lt = RaExpr::relation("P").select(Predicate::cmp(
        Operand::attr("a"),
        CmpOp::Lt,
        Operand::attr("b"),
    ));
    assert_eq!(all_engines_agree(&lt, &db).len(), 1, "-0.0 < 0.0");
}

/// Hash-join probes: NaN keys match NaN keys, signed zeros don't match
/// each other, and `Int`/`Float` keys cross-match numerically — the
/// `JoinKey` hash must agree with the total order on every edge case.
#[test]
fn join_keys_pin_nan_signed_zero_and_cross_numerics() {
    let lschema = Schema::of(&[("k", DataType::Float), ("l", DataType::Str)]);
    let rschema = Schema::of(&[("k", DataType::Float), ("r", DataType::Str)]);
    let lrows = vec![
        Tuple::new(vec![Value::Float(NAN), Value::str("l-nan")]),
        Tuple::new(vec![Value::Float(NEG_ZERO), Value::str("l-negzero")]),
        Tuple::new(vec![Value::Float(1.0), Value::str("l-one")]),
        Tuple::new(vec![Value::Int(2), Value::str("l-int2")]),
    ];
    let rrows = vec![
        Tuple::new(vec![Value::Float(NAN), Value::str("r-nan")]),
        Tuple::new(vec![Value::Float(0.0), Value::str("r-zero")]),
        Tuple::new(vec![Value::Int(1), Value::str("r-int1")]),
        Tuple::new(vec![Value::Float(2.0), Value::str("r-two")]),
    ];
    let mut db = Database::new();
    db.set("L", Relation::from_tuples_unchecked(lschema, lrows));
    db.set("R", Relation::from_tuples_unchecked(rschema, rrows));
    let join = RaExpr::NaturalJoin(
        Box::new(RaExpr::relation("L")),
        Box::new(RaExpr::relation("R")),
    );
    // Matches: NaN↔NaN, 1.0↔Int 1, Int 2↔2.0. Non-match: -0.0 vs 0.0.
    assert_eq!(all_engines_agree(&join, &db).len(), 3);
}

/// Dedup: `-0.0` and `0.0` stay two distinct rows; two NaN rows
/// collapse to one. `Union` routes through every engine's dedup path.
#[test]
fn dedup_distinguishes_signed_zeros_and_merges_nans() {
    let schema = Schema::of(&[("x", DataType::Float)]);
    let a = vec![
        Tuple::new(vec![Value::Float(NEG_ZERO)]),
        Tuple::new(vec![Value::Float(NAN)]),
    ];
    let b = vec![
        Tuple::new(vec![Value::Float(0.0)]),
        Tuple::new(vec![Value::Float(NAN)]),
    ];
    let mut db = Database::new();
    db.set("A", Relation::from_tuples_unchecked(schema.clone(), a));
    db.set("B", Relation::from_tuples_unchecked(schema, b));
    let union = RaExpr::Union(
        Box::new(RaExpr::relation("A")),
        Box::new(RaExpr::relation("B")),
    );
    // {-0.0, NaN} ∪ {0.0, NaN} = {-0.0, 0.0, NaN}.
    assert_eq!(all_engines_agree(&union, &db).len(), 3);
}

/// Difference: subtracting `0.0` must not remove `-0.0`, and
/// subtracting one NaN removes the (equal) other NaN.
#[test]
fn difference_respects_the_total_order() {
    let schema = Schema::of(&[("x", DataType::Float)]);
    let a = vec![
        Tuple::new(vec![Value::Float(NEG_ZERO)]),
        Tuple::new(vec![Value::Float(NAN)]),
        Tuple::new(vec![Value::Float(7.0)]),
    ];
    let b = vec![
        Tuple::new(vec![Value::Float(0.0)]),
        Tuple::new(vec![Value::Float(NAN)]),
    ];
    let mut db = Database::new();
    db.set("A", Relation::from_tuples_unchecked(schema.clone(), a));
    db.set("B", Relation::from_tuples_unchecked(schema, b));
    let diff = RaExpr::Difference(
        Box::new(RaExpr::relation("A")),
        Box::new(RaExpr::relation("B")),
    );
    // {-0.0, NaN, 7.0} − {0.0, NaN} = {-0.0, 7.0}.
    let out = all_engines_agree(&diff, &db);
    assert_eq!(out.len(), 2);
    assert!(
        out.iter().any(|t| matches!(t.values()[0], Value::Float(f) if f == 0.0 && f.is_sign_negative())),
        "-0.0 must survive subtracting +0.0: {out}"
    );
}

/// Semi-/anti-join keying (Division lowers to the anti-join path in the
/// physical engine): NaN divides like any other equal-to-itself value.
#[test]
fn division_treats_nan_as_a_normal_key() {
    let lschema = Schema::of(&[("a", DataType::Str), ("x", DataType::Float)]);
    let rschema = Schema::of(&[("x", DataType::Float)]);
    let lrows = vec![
        // "full" pairs with every divisor value, NaN included.
        Tuple::new(vec![Value::str("full"), Value::Float(NAN)]),
        Tuple::new(vec![Value::str("full"), Value::Float(1.0)]),
        // "partial" misses NaN.
        Tuple::new(vec![Value::str("partial"), Value::Float(1.0)]),
        Tuple::new(vec![Value::str("partial"), Value::Float(NEG_ZERO)]),
    ];
    let rrows = vec![
        Tuple::new(vec![Value::Float(NAN)]),
        Tuple::new(vec![Value::Float(1.0)]),
    ];
    let mut db = Database::new();
    db.set("Pairs", Relation::from_tuples_unchecked(lschema, lrows));
    db.set("Xs", Relation::from_tuples_unchecked(rschema, rrows));
    let division = RaExpr::Division(
        Box::new(RaExpr::relation("Pairs")),
        Box::new(RaExpr::relation("Xs")),
    );
    assert_eq!(all_engines_agree(&division, &db).len(), 1, "only `full` covers NaN and 1.0");
}
