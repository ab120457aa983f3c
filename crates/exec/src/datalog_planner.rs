//! Lowering stratified Datalog rules into [`FixpointPlan`]s.
//!
//! Each rule body compiles to a flat-operator plan:
//!
//! * **positive atoms** chain into `HashJoin`s keyed on shared
//!   variables (the first atom is the probe side's seed; every further
//!   atom joins on the variables it shares with what's bound so far and
//!   keeps only the columns binding new variables);
//! * **constants and repeated variables** inside an atom become a
//!   `Filter` directly over that atom's scan;
//! * **narrow EDB atoms** are projected onto the variables used outside
//!   them (in another literal or the head) and deduplicated before
//!   joining (`narrow_atom`) — only with the optimizer on, only in
//!   non-recursive components, and only when the atom's sketches say the
//!   kept columns hold at most half as many distinct combinations as the
//!   atom has rows. Datalog Q8's two Sailor atoms become their distinct
//!   ratings, so `R1 < R2` compares 10 × 10 rows, not Sailor × Sailor;
//! * **comparison literals** join into one predicate that
//!   [`apply_filter`] pushes down the join chain (cross-side equalities
//!   turn into extra hash keys);
//! * **negated atoms** become `AntiJoin`s keyed on the atom's (already
//!   bound, by range restriction) variables — against lower strata or
//!   the EDB, never the same stratum (stratification);
//! * the **head** is a `Project` onto the shared IDB schema
//!   ([`relviz_datalog::idb_schema`]), so the planner and the reference
//!   evaluator derive identically-shaped relations by construction.
//!
//! Column naming: the scan column that first binds a variable is named
//! after it; every other column gets a positional `b{atom}_{col}` name.
//! Plans therefore read like the rules that produced them
//! (`HashJoin [Y=b1_0]` for `tc(X, Y), R(Y, Z)`).

use std::collections::{HashMap, HashSet};

use relviz_datalog::ast::{Atom, Literal, Program, Rule, Term};
use relviz_datalog::parse::check_range_restriction;
use relviz_datalog::{idb_arities, idb_schema, strata};
use relviz_model::{Attribute, Database, DataType, Schema, Tuple};
use relviz_ra::{Operand, Predicate};

use crate::error::{ExecError, ExecResult};
use crate::fixpoint::{DeltaPlan, FixpointPlan, RulePlan, StratumPlan};
use crate::opt::OptConfig;
use crate::plan::{OutputCol, PhysPlan};
use crate::planner::{apply_filter, project};
use crate::slots::Source;

/// Lowers a program (range-restriction-checked and stratified first)
/// into a recursive-query plan for [`crate::fixpoint::eval_fixpoint`].
/// `cfg.reorder` enables cost-based ordering of each rule body's
/// positive atoms ([`crate::opt::order_atoms`]) in place of the
/// syntactic left-to-right chain.
pub fn plan_datalog_with<'a>(
    program: &Program,
    db: impl Into<Source<'a>>,
    cfg: OptConfig,
) -> ExecResult<FixpointPlan> {
    let src = db.into();
    check_range_restriction(program)?;
    let arities = idb_arities(program)?;
    let schemas: HashMap<String, Schema> =
        arities.iter().map(|(name, &k)| (name.clone(), idb_schema(k))).collect();

    let mut strata_plans = Vec::new();
    for layer in strata(program)? {
        for component in split_layer(layer) {
            let mut rules = Vec::new();
            for rule in &component.rules {
                let recursive = component.recursive;
                let full = compile_rule(rule, &src, &arities, None, recursive, cfg)?;
                let mut deltas = Vec::new();
                for occurrence in component.delta_occurrences(rule) {
                    deltas.push(DeltaPlan {
                        occurrence,
                        plan: compile_rule(rule, &src, &arities, Some(occurrence), recursive, cfg)?,
                    });
                }
                rules.push(RulePlan {
                    head: rule.head.rel.clone(),
                    rule: rule.to_string(),
                    full,
                    deltas,
                });
            }
            strata_plans.push(StratumPlan {
                predicates: component.predicates.clone(),
                recursive: component.recursive,
                rules,
            });
        }
    }
    let plan = FixpointPlan { strata: strata_plans, query: program.query.clone(), schemas };
    crate::verify::debug_verify_fixpoint(&plan, src.db());
    Ok(plan)
}

/// Splits one numeric stratification layer into the **connected
/// components** of its same-layer dependency graph (a rule's head
/// connects to every same-layer predicate its body reads; negation
/// never reads the same layer, so positive edges are the only ones).
/// Predicates in different components share no rule and no dependency,
/// so evaluating the components separately — in any order, or
/// concurrently — derives exactly what evaluating the merged layer
/// does. These components are the **strata-DAG nodes** the parallel
/// runtime schedules level-wise ([`crate::fixpoint::stratum_levels`]);
/// a layer whose predicates all interdepend stays one component, so
/// same-layer chains (`a(X) :- b(X)`) keep their shared semi-naive
/// loop. Components are ordered by their first predicate (the layer's
/// predicate list is sorted), keeping plans deterministic.
// Union-find positions all index vectors built over the same predicate list.
#[allow(clippy::indexing_slicing)]
fn split_layer(layer: relviz_datalog::Stratum<'_>) -> Vec<relviz_datalog::Stratum<'_>> {
    if layer.predicates.len() <= 1 {
        return vec![layer];
    }
    // Union-find over the layer's predicates.
    let index: HashMap<&str, usize> =
        layer.predicates.iter().enumerate().map(|(i, p)| (p.as_str(), i)).collect();
    let mut parent: Vec<usize> = (0..layer.predicates.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for rule in &layer.rules {
        let head = index[rule.head.rel.as_str()];
        for lit in &rule.body {
            let Literal::Pos(atom) = lit else { continue };
            if let Some(&body) = index.get(atom.rel.as_str()) {
                let (a, b) = (find(&mut parent, head), find(&mut parent, body));
                parent[a] = b;
            }
        }
    }
    let mut components: Vec<relviz_datalog::Stratum<'_>> = Vec::new();
    let mut slot_of_root: HashMap<usize, usize> = HashMap::new();
    for (i, pred) in layer.predicates.iter().enumerate() {
        let root = find(&mut parent, i);
        let slot = *slot_of_root.entry(root).or_insert_with(|| {
            components.push(relviz_datalog::Stratum {
                predicates: Vec::new(),
                rules: Vec::new(),
                recursive: false,
            });
            components.len() - 1
        });
        components[slot].predicates.push(pred.clone());
    }
    for &rule in &layer.rules {
        let root = find(&mut parent, index[rule.head.rel.as_str()]);
        components[slot_of_root[&root]].rules.push(rule);
    }
    for c in &mut components {
        c.recursive = c.rules.iter().any(|r| {
            r.body
                .iter()
                .any(|l| matches!(l, Literal::Pos(a) if c.predicates.iter().any(|p| p == &a.rel)))
        });
    }
    components
}

/// A scanned body atom: its (locally filtered) plan and the variables it
/// mentions, each at the position of its first occurrence in the atom.
struct ScannedAtom {
    plan: PhysPlan,
    vars: Vec<(String, usize)>,
}

/// Plans the scan of body atom `i`: source resolution (EDB scan, IDB
/// scan, or — for the delta occurrence — delta scan), column naming,
/// and the local filter for constants and within-atom repeats.
// `types`/`attrs` positions come from enumerating the atom's own terms.
#[allow(clippy::indexing_slicing)]
fn scan_atom(
    atom: &Atom,
    i: usize,
    db: &Database,
    arities: &HashMap<String, usize>,
    is_delta: bool,
    named: &mut HashSet<String>,
) -> ExecResult<ScannedAtom> {
    let (arity, types): (usize, Vec<DataType>) = match arities.get(&atom.rel) {
        Some(&k) => (k, vec![DataType::Any; k]),
        None => {
            let schema = db
                .schema(&atom.rel)
                .map_err(|_| {
                    ExecError::Plan(format!(
                        "unknown predicate `{}` (neither IDB nor EDB)",
                        atom.rel
                    ))
                })?;
            (schema.arity(), schema.attrs().iter().map(|a| a.ty).collect())
        }
    };
    if atom.terms.len() != arity {
        return Err(ExecError::Plan(format!(
            "atom `{atom}` has {} terms but relation has arity {arity}",
            atom.terms.len()
        )));
    }

    let mut attrs = Vec::with_capacity(arity);
    let mut vars: Vec<(String, usize)> = Vec::new();
    let mut local: Option<Predicate> = None;
    let and_onto = |acc: &mut Option<Predicate>, p: Predicate| {
        *acc = Some(match acc.take() {
            Some(q) => q.and(p),
            None => p,
        });
    };
    for (j, term) in atom.terms.iter().enumerate() {
        let positional = format!("b{i}_{j}");
        match term {
            Term::Const(v) => {
                and_onto(
                    &mut local,
                    Predicate::cmp(
                        Operand::attr(positional.clone()),
                        relviz_model::CmpOp::Eq,
                        Operand::Const(v.clone()),
                    ),
                );
                attrs.push(Attribute::new(positional, types[j]));
            }
            Term::Var(v) => {
                if let Some((_, first)) = vars.iter().find(|(name, _)| name == v) {
                    // Repeated within this atom: equate with the first
                    // occurrence's column.
                    and_onto(
                        &mut local,
                        Predicate::cmp(
                            Operand::Attr(attrs[*first].name.clone()),
                            relviz_model::CmpOp::Eq,
                            Operand::attr(positional.clone()),
                        ),
                    );
                    attrs.push(Attribute::new(positional, types[j]));
                } else {
                    vars.push((v.clone(), j));
                    if named.insert(v.clone()) {
                        // First occurrence in the whole rule: the column
                        // carries the variable's name.
                        attrs.push(Attribute::new(v.clone(), types[j]));
                    } else {
                        attrs.push(Attribute::new(positional, types[j]));
                    }
                }
            }
        }
    }
    let schema = Schema::new(attrs)?;
    let scan = if arities.contains_key(&atom.rel) {
        if is_delta {
            PhysPlan::ScanDelta { rel: atom.rel.clone(), schema }
        } else {
            PhysPlan::ScanIdb { rel: atom.rel.clone(), schema }
        }
    } else {
        PhysPlan::Scan { rel: atom.rel.clone(), schema }
    };
    let plan = match local {
        Some(pred) => apply_filter(scan, pred),
        None => scan,
    };
    Ok(ScannedAtom { plan, vars })
}

/// Projects positive EDB atom `i` of `rule` onto the variables the rest
/// of the rule uses, and deduplicates it, when the atom's sketches say
/// those columns hold at most half as many distinct combinations as the
/// atom has rows ([`crate::opt::atom_dedup_pays`]). Otherwise the scan
/// stays as it is: a join already keeps only fresh columns, so a bare
/// projection gains nothing, and it would stop a build side from using
/// the relation's resident index. An atom that is the whole body stays
/// too: the IDB deduplicates the head's rows anyway.
fn narrow_atom(
    scanned: ScannedAtom,
    rule: &Rule,
    i: usize,
    src: &Source<'_>,
) -> ExecResult<ScannedAtom> {
    let Some(Literal::Pos(atom)) = rule.body.get(i) else { return Ok(scanned) };
    if rule.body.len() == 1 {
        return Ok(scanned);
    }
    let used_elsewhere = |v: &str| {
        rule.head.vars().any(|h| h == v)
            || rule.body.iter().enumerate().any(|(j, lit)| {
                j != i
                    && match lit {
                        Literal::Pos(a) | Literal::Neg(a) => a.vars().any(|w| w == v),
                        Literal::Cmp { left, right, .. } => {
                            left.as_var() == Some(v) || right.as_var() == Some(v)
                        }
                    }
            })
    };
    let kept: Vec<&(String, usize)> =
        scanned.vars.iter().filter(|(v, _)| used_elsewhere(v)).collect();
    let names: Vec<&str> = kept.iter().map(|(v, _)| v.as_str()).collect();
    let arity = scanned.plan.schema().arity();
    if kept.len() == arity || !crate::opt::atom_dedup_pays(atom, &names, src) {
        return Ok(scanned);
    }
    let attrs = kept
        .iter()
        .map(|(_, pos)| scanned.plan.schema().attrs().get(*pos).cloned())
        .collect::<Option<Vec<Attribute>>>()
        .ok_or_else(|| ExecError::Plan(format!("atom `{atom}` binds a column it lacks")))?;
    let cols = kept.iter().map(|(_, pos)| OutputCol::Pos(*pos)).collect();
    let vars = kept.iter().enumerate().map(|(k, (v, _))| (v.clone(), k)).collect();
    let plan = project(scanned.plan, cols, Schema::new(attrs)?);
    Ok(ScannedAtom { plan, vars })
}

/// Compiles one rule body into a plan deriving its head tuples. With
/// `delta_occ = Some(i)`, body atom `i` scans the delta instead of the
/// accumulated IDB (the semi-naive variant). Narrow EDB atoms are
/// deduplicated ([`narrow_atom`]) only outside `recursive` components:
/// there the `Dedup` would re-run every round, and a fresh build side
/// would lose the index reuse across rounds.
// `env`/`right_keep` positions index schemas the same loop just built.
#[allow(clippy::indexing_slicing)]
fn compile_rule(
    rule: &Rule,
    src: &Source<'_>,
    arities: &HashMap<String, usize>,
    delta_occ: Option<usize>,
    recursive: bool,
    cfg: OptConfig,
) -> ExecResult<PhysPlan> {
    let mut named: HashSet<String> = HashSet::new();
    // var → column position in the accumulated plan.
    let mut env: HashMap<String, usize> = HashMap::new();
    let mut plan: Option<PhysPlan> = None;

    // 1. Positive atoms as a hash-join chain — in body order, or (with
    // the optimizer on) in the cost-based order from `opt::order_atoms`.
    // Scans keep their *original* body index for column naming and for
    // identifying the delta occurrence, so a reordered plan still reads
    // like its rule.
    let positives: Vec<(usize, &Atom)> = rule
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, lit)| match lit {
            Literal::Pos(atom) => Some((i, atom)),
            _ => None,
        })
        .collect();
    let order: Vec<usize> = if cfg.reorder {
        let atoms: Vec<&Atom> = positives.iter().map(|(_, a)| *a).collect();
        let delta_pos = delta_occ.and_then(|occ| positives.iter().position(|(i, _)| *i == occ));
        crate::opt::order_atoms(&atoms, delta_pos, src, arities)
    } else {
        (0..positives.len()).collect()
    };
    for &slot in &order {
        let Some(&(i, atom)) = positives.get(slot) else { continue };
        let mut scanned =
            scan_atom(atom, i, src.db(), arities, delta_occ == Some(i), &mut named)?;
        if cfg.reorder && !recursive && !arities.contains_key(&atom.rel) {
            scanned = narrow_atom(scanned, rule, i, src)?;
        }
        match plan.take() {
            None => {
                for (v, pos) in &scanned.vars {
                    env.insert(v.clone(), *pos);
                }
                plan = Some(scanned.plan);
            }
            Some(left) => {
                let mut left_keys = Vec::new();
                let mut right_keys = Vec::new();
                let mut right_keep = Vec::new();
                let mut fresh = Vec::new();
                for (v, pos) in &scanned.vars {
                    match env.get(v) {
                        Some(&bound) => {
                            left_keys.push(bound);
                            right_keys.push(*pos);
                        }
                        None => {
                            fresh.push((v.clone(), *pos));
                            right_keep.push(*pos);
                        }
                    }
                }
                let left_arity = left.schema().arity();
                let mut attrs = left.schema().attrs().to_vec();
                for &pos in &right_keep {
                    attrs.push(scanned.plan.schema().attrs()[pos].clone());
                }
                for (idx, (v, _)) in fresh.into_iter().enumerate() {
                    env.insert(v, left_arity + idx);
                }
                plan = Some(PhysPlan::HashJoin {
                    left: Box::new(left),
                    right: Box::new(scanned.plan),
                    left_keys,
                    right_keys,
                    right_keep,
                    post: None,
                    schema: Schema::new(attrs)?,
                });
            }
        }
    }

    // A rule with no positive atoms (a fact, possibly guarded by ground
    // literals) starts from the singleton empty-schema context.
    let mut plan = plan.unwrap_or(PhysPlan::Values {
        rows: vec![Tuple::new(vec![])],
        schema: Schema::empty(),
    });

    // 2. Comparison literals: one predicate, pushed down the chain.
    let mut cmp: Option<Predicate> = None;
    for lit in &rule.body {
        let Literal::Cmp { left, op, right } = lit else { continue };
        let p = Predicate::cmp(term_operand(left)?, *op, term_operand(right)?);
        cmp = Some(match cmp {
            Some(q) => q.and(p),
            None => p,
        });
    }
    if let Some(pred) = cmp {
        plan = apply_filter(plan, pred);
    }

    // 3. Negated atoms: anti-joins keyed on the atom's bound variables.
    for (i, lit) in rule.body.iter().enumerate() {
        let Literal::Neg(atom) = lit else { continue };
        let scanned = scan_atom(atom, i, src.db(), arities, false, &mut named)?;
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (v, pos) in &scanned.vars {
            let bound = env.get(v).ok_or_else(|| {
                ExecError::Plan(format!(
                    "variable `{v}` in negated atom `{atom}` is not range-restricted"
                ))
            })?;
            left_keys.push(*bound);
            right_keys.push(*pos);
        }
        plan = PhysPlan::AntiJoin {
            schema: plan.schema().clone(),
            left: Box::new(plan),
            right: Box::new(scanned.plan),
            left_keys,
            right_keys,
        };
    }

    // 4. Head projection onto the shared IDB schema.
    let mut cols = Vec::with_capacity(rule.head.terms.len());
    for term in &rule.head.terms {
        match term {
            Term::Const(v) => cols.push(OutputCol::Const(v.clone())),
            Term::Var(v) => {
                let pos = env.get(v).ok_or_else(|| {
                    ExecError::Plan(format!(
                        "head variable `{v}` of rule `{rule}` is not range-restricted"
                    ))
                })?;
                cols.push(OutputCol::Pos(*pos));
            }
        }
    }
    Ok(PhysPlan::Project {
        cols,
        schema: idb_schema(rule.head.terms.len()),
        input: Box::new(plan),
    })
}

fn term_operand(t: &Term) -> ExecResult<Operand> {
    Ok(match t {
        Term::Const(v) => Operand::Const(v.clone()),
        Term::Var(v) => Operand::attr(v.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixpoint::{eval_fixpoint, explain_datalog};
    use relviz_datalog::eval::eval_all;
    use relviz_datalog::parse::parse_program;
    use relviz_model::generate::{generate_sailors, GenConfig};

    /// Plans `src` over a generated 1000-tuple sailors database, checks
    /// every derived predicate against the reference evaluator, and
    /// returns the plan's EXPLAIN text.
    fn plan_and_check(src: &str, cfg: OptConfig) -> String {
        let db = generate_sailors(&GenConfig::scaled(1000));
        let prog = parse_program(src).unwrap();
        let plan = plan_datalog_with(&prog, &db, cfg).unwrap();
        let text = explain_datalog(&plan);
        let ours = eval_fixpoint(&plan, &db).unwrap();
        for (name, rel) in eval_all(&prog, &db).unwrap() {
            assert!(ours[&name].same_contents(&rel), "`{name}` disagrees:\n{text}");
        }
        text
    }

    /// Q8's `beaten` joins two Sailor atoms on nothing but a θ-comparison
    /// of their ratings; each atom narrows to its distinct ratings first.
    #[test]
    fn q8_dedups_both_sailor_atoms() {
        let q8 = "beaten(R1) :- Sailor(S1, N1, R1, A1), Sailor(S2, N2, R2, A2), R1 < R2.\n\
                  ans(N) :- Sailor(S, N, R, A), not beaten(R).";
        let text = plan_and_check(q8, OptConfig::optimized());
        for var in ["R1", "R2"] {
            let narrowed = format!("Dedup\n              Project [{var}]\n");
            assert!(text.contains(&narrowed), "missing {narrowed:?}:\n{text}");
        }
        let syntactic = plan_and_check(q8, OptConfig::unoptimized());
        assert!(!syntactic.contains("Dedup"), "{syntactic}");
    }

    /// The same narrow atom stays a plain scan inside a recursive
    /// component, and an atom that is a rule's whole body stays too.
    #[test]
    fn atom_dedup_skips_recursive_components_and_lone_atoms() {
        let text = plan_and_check(
            "rating(R) :- Sailor(S, N, R, A).\n\
             above(R1, R2) :- Sailor(S1, N1, R1, A1), rating(R2), R1 > R2.\n\
             above(R1, R3) :- above(R1, R2), Sailor(S, N, R3, A), R2 > R3.",
            OptConfig::optimized(),
        );
        assert!(!text.contains("Dedup"), "{text}");
    }
}
