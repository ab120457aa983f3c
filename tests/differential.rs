//! Differential testing of the physical engine against the reference RA
//! evaluator: random databases (via `model::generate`) × random
//! **well-typed** RA expressions, asserting `same_contents` on every
//! pair of results.
//!
//! The expression generator builds expressions that are well-typed *by
//! construction* (schemas tracked alongside), so every case exercises
//! both engines end to end — there is no "ill-typed, skipped" escape
//! hatch. The vendored proptest is deterministic (seeded per test name),
//! so failures reproduce exactly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use relviz::exec::{execute, plan_ra_with, OptConfig};
use relviz::model::generate::{generate_binary_pair, generate_sailors, GenConfig};
use relviz::model::{CmpOp, Database, DataType, Value};
use relviz::ra::{Operand, Predicate, RaExpr};

// ---------------------------------------------------------------------------
// Random well-typed expression generation
// ---------------------------------------------------------------------------

/// Tracks an expression together with its (name, type) output schema.
#[derive(Clone)]
struct Typed {
    expr: RaExpr,
    schema: Vec<(String, DataType)>,
}

struct Gen<'a> {
    rng: StdRng,
    db: &'a Database,
    /// Fresh-name counter for renames (avoids all collisions).
    fresh: usize,
}

impl<'a> Gen<'a> {
    fn new(seed: u64, db: &'a Database) -> Self {
        Gen { rng: StdRng::seed_from_u64(seed), db, fresh: 0 }
    }

    fn pick<'b, T>(&mut self, items: &'b [T]) -> &'b T {
        &items[self.rng.gen_range(0..items.len())]
    }

    fn leaf(&mut self) -> Typed {
        let names: Vec<&str> = self.db.names().collect();
        let name = *self.pick(&names);
        let schema = self
            .db
            .schema(name)
            .unwrap()
            .attrs()
            .iter()
            .map(|a| (a.name.clone(), a.ty))
            .collect();
        Typed { expr: RaExpr::relation(name), schema }
    }

    fn const_for(&mut self, ty: DataType) -> Value {
        match ty {
            DataType::Int => Value::Int(self.rng.gen_range(0..120i64)),
            DataType::Float => Value::Float(self.rng.gen_range(0..80i64) as f64 + 0.5),
            DataType::Str => {
                Value::str(*self.pick(&["red", "green", "blue", "dustin", "Interlake", "x"]))
            }
            DataType::Bool => Value::Bool(self.rng.gen_bool(0.5)),
            DataType::Any => Value::Null,
        }
    }

    /// A random comparison over `schema` (attr vs const, or attr vs attr
    /// of a unifiable type).
    fn comparison(&mut self, schema: &[(String, DataType)]) -> Predicate {
        let (name, ty) = self.pick(schema).clone();
        let op = *self.pick(&CmpOp::ALL);
        let attr_partners: Vec<&(String, DataType)> = schema
            .iter()
            .filter(|(n, t)| *n != name && t.unify(ty).is_some())
            .collect();
        let right = if !attr_partners.is_empty() && self.rng.gen_bool(0.4) {
            Operand::Attr(self.pick(&attr_partners).0.clone())
        } else {
            Operand::Const(self.const_for(ty))
        };
        Predicate::cmp(Operand::attr(name), op, right)
    }

    fn predicate(&mut self, schema: &[(String, DataType)], budget: usize) -> Predicate {
        if budget == 0 || self.rng.gen_bool(0.55) {
            return self.comparison(schema);
        }
        let a = self.predicate(schema, budget - 1);
        let b = self.predicate(schema, budget - 1);
        match self.rng.gen_range(0..3) {
            0 => a.and(b),
            1 => a.or(b),
            _ => a.not(),
        }
    }

    /// A chain of unary operators (select / project / rename) on top.
    fn unary(&mut self, mut t: Typed, steps: usize) -> Typed {
        for _ in 0..steps {
            match self.rng.gen_range(0..3) {
                0 => {
                    let pred = self.predicate(&t.schema, 2);
                    t = Typed { expr: t.expr.select(pred), schema: t.schema };
                }
                1 => {
                    // Random non-empty projection, random order.
                    let mut idx: Vec<usize> = (0..t.schema.len()).collect();
                    for i in (1..idx.len()).rev() {
                        let j = self.rng.gen_range(0..=i);
                        idx.swap(i, j);
                    }
                    idx.truncate(self.rng.gen_range(1..=t.schema.len()));
                    let names: Vec<String> =
                        idx.iter().map(|&i| t.schema[i].0.clone()).collect();
                    let schema = idx.iter().map(|&i| t.schema[i].clone()).collect();
                    t = Typed { expr: t.expr.project(names), schema };
                }
                _ => {
                    let i = self.rng.gen_range(0..t.schema.len());
                    let fresh = format!("x{}", self.fresh);
                    self.fresh += 1;
                    let (old, ty) = t.schema[i].clone();
                    let mut schema = t.schema.clone();
                    schema[i] = (fresh.clone(), ty);
                    t = Typed { expr: t.expr.rename(old, fresh), schema };
                }
            }
        }
        t
    }

    /// Renames every attribute to a fresh name (for disjoint products).
    fn rename_all_fresh(&mut self, t: Typed) -> Typed {
        let mut expr = t.expr;
        let mut schema = Vec::with_capacity(t.schema.len());
        for (old, ty) in t.schema {
            let fresh = format!("x{}", self.fresh);
            self.fresh += 1;
            expr = expr.rename(old, fresh.clone());
            schema.push((fresh, ty));
        }
        Typed { expr, schema }
    }

    /// A join-shaped expression over one or two decorated leaves.
    fn joined(&mut self) -> Typed {
        let steps = self.rng.gen_range(0..3);
        let left = {
            let l = self.leaf();
            self.unary(l, steps)
        };
        match self.rng.gen_range(0..4) {
            // Natural join (shared names come from the base schemas).
            0 => {
                let r = self.leaf();
                let steps = self.rng.gen_range(0..2);
                let right = self.unary(r, steps);
                let mut schema = left.schema.clone();
                for (n, ty) in &right.schema {
                    if !schema.iter().any(|(m, _)| m == n) {
                        schema.push((n.clone(), *ty));
                    }
                }
                Typed { expr: left.expr.natural_join(right.expr), schema }
            }
            // θ-join on freshly-renamed right side: always an equality
            // conjunct when a type-compatible pair exists.
            1 => {
                let r = self.leaf();
                let steps = self.rng.gen_range(0..2);
                let r = self.unary(r, steps);
                let right = self.rename_all_fresh(r);
                let mut pred: Option<Predicate> = None;
                'outer: for (ln, lt) in &left.schema {
                    for (rn, rt) in &right.schema {
                        if lt == rt {
                            pred = Some(Predicate::eq(
                                Operand::attr(ln.clone()),
                                Operand::attr(rn.clone()),
                            ));
                            break 'outer;
                        }
                    }
                }
                let mut schema = left.schema.clone();
                schema.extend(right.schema.clone());
                let pred = pred.unwrap_or(Predicate::Const(true));
                let pred = if self.rng.gen_bool(0.4) {
                    pred.and(self.comparison(&schema))
                } else {
                    pred
                };
                Typed { expr: left.expr.theta_join(pred, right.expr), schema }
            }
            // Set operation against a selection of the same expression
            // (union-compatible by construction).
            2 => {
                let p = self.predicate(&left.schema, 1);
                let sel = left.expr.clone().select(p);
                let expr = match self.rng.gen_range(0..3) {
                    0 => left.expr.union(sel),
                    1 => left.expr.intersect(sel),
                    _ => left.expr.difference(sel),
                };
                Typed { expr, schema: left.schema }
            }
            // Division: dividend = base relation with ≥2 attrs, divisor =
            // a selected projection of the same relation's last column.
            _ => {
                let mut base = self.leaf();
                while base.schema.len() < 2 {
                    base = self.leaf();
                }
                let (div_name, _) = base.schema.last().unwrap().clone();
                let p = self.predicate(&base.schema, 1);
                let divisor = base.expr.clone().select(p).project(vec![div_name.clone()]);
                let schema: Vec<(String, DataType)> = base
                    .schema
                    .iter()
                    .filter(|(n, _)| *n != div_name)
                    .cloned()
                    .collect();
                Typed { expr: base.expr.divide(divisor), schema }
            }
        }
    }

    /// Top-level: unary decoration over a join/leaf, occasionally one
    /// more binary combinator on top (≤ 4 base-relation leaves total, so
    /// reference evaluation stays cheap even for pure products).
    fn expression(&mut self) -> RaExpr {
        let a = self.joined();
        let steps = self.rng.gen_range(0..2);
        let a = self.unary(a, steps);
        if self.rng.gen_bool(0.25) {
            let p = self.predicate(&a.schema, 1);
            let sel = a.expr.clone().select(p);
            return match self.rng.gen_range(0..3) {
                0 => a.expr.union(sel),
                1 => a.expr.intersect(sel),
                _ => a.expr.difference(sel),
            };
        }
        a.expr
    }
}

// ---------------------------------------------------------------------------
// The differential property
// ---------------------------------------------------------------------------

fn check_case(seed: u64, db: &Database) {
    let mut g = Gen::new(seed, db);
    let expr = g.expression();
    let reference = relviz::ra::eval::eval(&expr, db)
        .unwrap_or_else(|e| panic!("generator produced ill-typed expr (seed {seed}): {e}\n{expr:?}"));
    let plan = plan_ra_with(&expr, db, OptConfig::optimized())
        .unwrap_or_else(|e| panic!("planner rejected well-typed expr (seed {seed}): {e}\n{expr:?}"));
    // Every randomized plan must satisfy the static verifier's IR
    // contract — the fuzzer doubles as the verifier's property test.
    let diags = relviz::exec::verify_plan(&plan, Some(db));
    assert!(
        diags.is_empty(),
        "planner emitted an unverifiable plan (seed {seed})\nexpr: {}\nplan:\n{}\n{}",
        relviz::ra::print::print_ra(&expr),
        relviz::exec::explain(&plan),
        relviz::exec::render_diagnostics(&diags),
    );
    let ours = execute(&plan, db)
        .unwrap_or_else(|e| panic!("executor failed (seed {seed}): {e}\n{expr:?}"));
    assert!(
        ours.same_contents(&reference),
        "engines disagree (seed {seed})\nexpr: {}\nplan:\n{}\nexec ({} rows):\n{ours}\nreference ({} rows):\n{reference}",
        relviz::ra::print::print_ra(&expr),
        relviz::exec::explain(&plan),
        ours.len(),
        reference.len(),
    );
    // The optimizer's reordered plan (the plan above runs with the
    // optimizer on) must reproduce the *unoptimized* plan's rendering
    // bit for bit — reordering may only change the join tree, never the
    // result.
    let unopt_plan = plan_ra_with(&expr, db, OptConfig::unoptimized())
        .unwrap_or_else(|e| panic!("unoptimized planner rejected expr (seed {seed}): {e}"));
    let unopt = execute(&unopt_plan, db)
        .unwrap_or_else(|e| panic!("unoptimized executor failed (seed {seed}): {e}"));
    assert!(
        unopt.same_contents(&reference) && format!("{unopt}") == format!("{ours}"),
        "optimized and unoptimized plans diverge (seed {seed})\nexpr: {}\noptimized plan:\n{}\nunoptimized plan:\n{}\noptimized:\n{ours}\nunoptimized:\n{unopt}",
        relviz::ra::print::print_ra(&expr),
        relviz::exec::explain(&plan),
        relviz::exec::explain(&unopt_plan),
    );
    // The parallel runtime runs the same randomized case at 1, 2 and 8
    // workers — every width must reproduce the serial result *bit for
    // bit* (the sorted rendering, not just the set).
    for threads in [1usize, 2, 8] {
        let par = relviz::exec::execute_parallel(&plan, db, threads)
            .unwrap_or_else(|e| panic!("parallel executor failed (seed {seed}, {threads}t): {e}"));
        assert!(
            par.same_contents(&reference) && format!("{par}") == format!("{ours}"),
            "parallel diverges (seed {seed}, {threads} threads)\nexpr: {}\nplan:\n{}\nparallel:\n{par}\nserial:\n{ours}",
            relviz::ra::print::print_ra(&expr),
            relviz::exec::explain_parallel(&plan, threads),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// ≥120 cases over seeded generic binary-relation databases.
    #[test]
    fn exec_matches_reference_on_binary_pairs(
        expr_seed in 0u64..1_000_000,
        db_seed in 0u64..64,
        n in 5usize..18,
    ) {
        let db = generate_binary_pair(db_seed, n, 8);
        check_case(expr_seed, &db);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// ≥100 cases over seeded sailors-style databases (3 relations,
    /// mixed int/str/float columns).
    #[test]
    fn exec_matches_reference_on_sailors(
        expr_seed in 0u64..1_000_000,
        db_seed in 0u64..64,
    ) {
        let cfg = GenConfig { seed: db_seed, sailors: 10, boats: 4, reservations: 18 };
        let db = generate_sailors(&cfg);
        check_case(expr_seed, &db);
    }
}

// ---------------------------------------------------------------------------
// Interning hazard: overlapping string domains across EDB relations
// ---------------------------------------------------------------------------

/// Builds a database of string-only relations drawing from one
/// **overlapping pool of strings**. Each relation columnarizes into its
/// own interner generation, and because the relations hold different
/// subsets, the same string gets a *different* id in each generation —
/// any kernel that compared interner ids across batches (join probes,
/// union/diff membership, `same_contents`) would call equal strings
/// unequal. The shared attribute names steer the generator into natural
/// joins, set operations and divisions on exactly those columns.
fn generate_string_overlap(seed: u64, rows: usize) -> Database {
    use relviz::model::{Relation, Schema, Tuple};
    let mut rng = StdRng::seed_from_u64(seed);
    // Includes the generator's comparison-constant pool ("red", "x", …)
    // so random equality filters actually select rows.
    let pool = ["red", "green", "blue", "x", "s0", "s1", "s2", "s3", "s4", "s5"];
    let mut db = Database::new();
    for (name, attrs) in [("S1", ["k", "v"]), ("S2", ["k", "w"]), ("S3", ["v", "w"])] {
        let schema = Schema::of(&[(attrs[0], DataType::Str), (attrs[1], DataType::Str)]);
        let mut rel = Relation::empty(schema);
        for _ in 0..rows {
            rel.insert_unchecked(Tuple::new(vec![
                Value::str(pool[rng.gen_range(0..pool.len())]),
                Value::str(pool[rng.gen_range(0..pool.len())]),
            ]));
        }
        db.set(name, rel);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// ≥80 cases over string-keyed databases with overlapping domains:
    /// interned-string equality must behave exactly like string
    /// equality on every engine and at every thread count.
    #[test]
    fn exec_matches_reference_on_overlapping_string_domains(
        expr_seed in 0u64..1_000_000,
        db_seed in 0u64..64,
        rows in 6usize..20,
    ) {
        let db = generate_string_overlap(db_seed, rows);
        check_case(expr_seed, &db);
    }
}
