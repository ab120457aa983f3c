//! Differential testing of the recursive-query subsystem: random
//! **stratified** Datalog programs × random databases, the physical
//! engine's semi-naive fixpoint (`exec::eval_datalog_all_with`) against the
//! reference evaluator (`datalog::eval::eval_all`), every IDB predicate
//! compared.
//!
//! Programs are stratified *by construction*: predicates are assigned to
//! layers, positive body atoms reference the EDB, lower layers, or the
//! same layer (recursion), and negated atoms only the EDB or strictly
//! lower layers — so no negative edge can lie on a cycle. Range
//! restriction holds by construction too (head, negated and compared
//! variables are drawn from the rule's positive-atom variables), so
//! every generated case exercises both engines end to end.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use relviz::datalog::ast::{Atom, Literal, Program, Rule, Term};
use relviz::datalog::eval::eval_all;
use relviz::exec::{self, explain_datalog, plan_datalog_with, Engine, ExecOptions, OptConfig};
use relviz::model::generate::generate_binary_pair;
use relviz::model::{CmpOp, Database, Value};

const DOMAIN: i64 = 6;
const VARS: &[&str] = &["X", "Y", "Z", "W", "V"];
const CMPS: &[CmpOp] = &[CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// An IDB predicate with its fixed arity and stratification layer.
struct PredSpec {
    name: String,
    arity: usize,
    layer: usize,
}

struct Gen {
    rng: StdRng,
    preds: Vec<PredSpec>,
}

impl Gen {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = rng.gen_range(1..=2usize);
        let mut preds = Vec::new();
        for layer in 0..layers {
            for i in 0..rng.gen_range(1..=2usize) {
                preds.push(PredSpec {
                    name: format!("p{layer}_{i}"),
                    arity: rng.gen_range(1..=2),
                    layer,
                });
            }
        }
        Gen { rng, preds }
    }

    fn constant(&mut self) -> Term {
        let k = self.rng.gen_range(0..DOMAIN);
        // Sometimes a Float over the same (Int) domain: both engines
        // unify by the total order, where Int 2 == Float 2.0.
        if self.rng.gen_bool(0.2) {
            Term::Const(Value::Float(k as f64))
        } else {
            Term::Const(Value::Int(k))
        }
    }

    fn var(&mut self) -> Term {
        Term::Var(VARS[self.rng.gen_range(0..VARS.len())].to_string())
    }

    /// A positive body atom: the EDB (`R`/`S`, arity 2), a lower layer,
    /// or — recursion — the same layer.
    fn positive_atom(&mut self, layer: usize) -> Atom {
        let candidates: Vec<(String, usize)> = self
            .preds
            .iter()
            .filter(|p| p.layer <= layer)
            .map(|p| (p.name.clone(), p.arity))
            .chain([("R".to_string(), 2), ("S".to_string(), 2)])
            .collect();
        let (rel, arity) = candidates[self.rng.gen_range(0..candidates.len())].clone();
        let terms = (0..arity)
            .map(|_| if self.rng.gen_bool(0.75) { self.var() } else { self.constant() })
            .collect();
        Atom::new(rel, terms)
    }

    /// A term over the already-bound variables (or a constant when none
    /// exist) — the only terms allowed in heads, negations, comparisons.
    fn bound_term(&mut self, bound: &[&str]) -> Term {
        if !bound.is_empty() && self.rng.gen_bool(0.8) {
            Term::Var(bound[self.rng.gen_range(0..bound.len())].to_string())
        } else {
            self.constant()
        }
    }

    fn rule(&mut self, head_idx: usize) -> Rule {
        let (head_name, head_arity, layer) = {
            let p = &self.preds[head_idx];
            (p.name.clone(), p.arity, p.layer)
        };
        let n_pos = self.rng.gen_range(1..=3usize);
        let positives: Vec<Atom> = (0..n_pos).map(|_| self.positive_atom(layer)).collect();
        let bound: Vec<&str> = positives.iter().flat_map(Atom::vars).collect();

        let mut body: Vec<Literal> = positives.iter().cloned().map(Literal::Pos).collect();
        if self.rng.gen_bool(0.4) {
            // Negation: EDB or a strictly lower layer.
            let candidates: Vec<(String, usize)> = self
                .preds
                .iter()
                .filter(|p| p.layer < layer)
                .map(|p| (p.name.clone(), p.arity))
                .chain([("R".to_string(), 2), ("S".to_string(), 2)])
                .collect();
            let (rel, arity) = candidates[self.rng.gen_range(0..candidates.len())].clone();
            let terms = (0..arity).map(|_| self.bound_term(&bound)).collect();
            body.push(Literal::Neg(Atom::new(rel, terms)));
        }
        if self.rng.gen_bool(0.4) {
            let left = self.bound_term(&bound);
            let op = CMPS[self.rng.gen_range(0..CMPS.len())];
            let right = self.bound_term(&bound);
            body.push(Literal::Cmp { left, op, right });
        }

        let head_terms = (0..head_arity).map(|_| self.bound_term(&bound)).collect();
        Rule { head: Atom::new(head_name, head_terms), body }
    }

    fn program(&mut self) -> Program {
        let mut rules = Vec::new();
        for i in 0..self.preds.len() {
            for _ in 0..self.rng.gen_range(1..=2usize) {
                rules.push(self.rule(i));
            }
        }
        let query = self.preds[self.rng.gen_range(0..self.preds.len())].name.clone();
        Program { rules, query }
    }
}

fn check_case(prog_seed: u64, db: &Database) {
    let prog = Gen::new(prog_seed).program();
    let reference = eval_all(&prog, db).unwrap_or_else(|e| {
        panic!("generator produced an invalid program (seed {prog_seed}): {e}\n{prog}")
    });
    // Every randomized fixpoint plan must satisfy the static verifier,
    // and the program analyzer must report no *errors* (warnings —
    // cartesian products, unused predicates — are legitimate in
    // generated programs).
    {
        use relviz::exec::{analyze_program, render_diagnostics, verify_fixpoint, Severity};
        let plan = plan_datalog_with(&prog, db, OptConfig::optimized())
            .unwrap_or_else(|e| panic!("planner rejected a valid program (seed {prog_seed}): {e}"));
        let diags = verify_fixpoint(&plan, Some(db));
        assert!(
            diags.is_empty(),
            "planner emitted an unverifiable fixpoint plan (seed {prog_seed})\nprogram:\n{prog}\n{}",
            render_diagnostics(&diags),
        );
        let analysis = analyze_program(&prog, db);
        assert!(
            !analysis.iter().any(|d| d.severity == Severity::Error),
            "analyzer flags a valid generated program (seed {prog_seed})\nprogram:\n{prog}\n{}",
            render_diagnostics(&analysis),
        );
    }
    let all = exec::eval_datalog_all_with(Engine::Indexed, &prog, db, ExecOptions::default())
        .unwrap_or_else(|e| {
            panic!("exec rejected a valid program (seed {prog_seed}): {e}\n{prog}")
        });
    assert_eq!(all.len(), reference.len(), "IDB predicate sets differ (seed {prog_seed})");
    for (name, rel) in &reference {
        let ours = all
            .get(name)
            .unwrap_or_else(|| panic!("`{name}` missing from exec output (seed {prog_seed})"));
        assert!(
            ours.same_contents(rel),
            "engines disagree on `{name}` (seed {prog_seed})\nprogram:\n{prog}\nplan:\n{}\nexec ({} rows):\n{ours}\nreference ({} rows):\n{rel}",
            explain_datalog(
                &plan_datalog_with(&prog, db, OptConfig::optimized()).expect("planned once already")
            ),
            ours.len(),
            rel.len(),
        );
    }
    // Optimizer A/B: the same program evaluated with reordering off
    // must reproduce every optimized relation bit for bit.
    let unopt =
        exec::eval_datalog_all_with(Engine::Indexed, &prog, db, OptConfig::unoptimized())
            .unwrap_or_else(|e| panic!("unoptimized eval failed (seed {prog_seed}): {e}\n{prog}"));
    assert_eq!(unopt.len(), all.len(), "predicate sets differ unoptimized (seed {prog_seed})");
    for (name, rel) in &all {
        let u = &unopt[name];
        assert!(
            u.same_contents(rel) && format!("{u}") == format!("{rel}"),
            "optimized and unoptimized fixpoints diverge on `{name}` (seed {prog_seed})\nprogram:\n{prog}\nunoptimized:\n{u}\noptimized:\n{rel}",
        );
    }
    // Magic sets vs. full evaluation: `eval_datalog_with` demand-
    // transforms the program on the physical engine; its query relation
    // must render identically to the full fixpoint's.
    if let Some(full_query) = all.get(&prog.query) {
        let magic = exec::eval_datalog_with(Engine::Indexed, &prog, db, ExecOptions::default());
        let magic = magic.unwrap_or_else(|e| {
            panic!("magic-sets eval failed (seed {prog_seed}): {e}\n{prog}")
        });
        assert!(
            magic.same_contents(full_query) && format!("{magic}") == format!("{full_query}"),
            "magic sets diverge from full evaluation on `{}` (seed {prog_seed})\nprogram:\n{prog}\nmagic:\n{magic}\nfull:\n{full_query}",
            prog.query,
        );
    }
    // The parallel fixpoint runs the same randomized program at 1, 2
    // and 8 workers — every IDB predicate must reproduce the serial
    // engine's relation bit for bit at every width (parallel round-0
    // rules, delta variants, strata levels, partitioned joins).
    for threads in [1usize, 2, 8] {
        let wide = ExecOptions { threads, ..ExecOptions::default() };
        let par = exec::eval_datalog_all_with(Engine::Indexed, &prog, db, wide)
            .unwrap_or_else(|e| {
                panic!("parallel fixpoint failed (seed {prog_seed}, {threads}t): {e}\n{prog}")
            });
        assert_eq!(par.len(), all.len(), "predicate sets differ at {threads}t (seed {prog_seed})");
        for (name, rel) in &all {
            let p = &par[name];
            assert!(
                p.same_contents(rel) && format!("{p}") == format!("{rel}"),
                "parallel diverges on `{name}` (seed {prog_seed}, {threads} threads)\nprogram:\n{prog}\nparallel:\n{p}\nserial:\n{rel}",
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// ≥120 randomized stratified programs over seeded binary-relation
    /// databases, every IDB predicate differentially checked.
    #[test]
    fn fixpoint_matches_reference_on_random_programs(
        prog_seed in 0u64..1_000_000,
        db_seed in 0u64..64,
        n in 6usize..14,
    ) {
        let db = generate_binary_pair(db_seed, n, DOMAIN);
        check_case(prog_seed, &db);
    }
}
