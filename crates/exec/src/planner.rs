//! Planners: lower logical queries — [`RaExpr`] and [`TrcQuery`] — into
//! physical plans.
//!
//! The RA lowering is mostly structural, with two genuinely physical
//! decisions: θ-join equality conjuncts become hash-join keys (the
//! residual stays as a post-filter), and `Project`/`Union` get explicit
//! `Dedup` nodes so intermediate batches stay set-sized.
//!
//! The TRC lowering is the interesting one: instead of re-evaluating
//! quantifier bodies per candidate tuple (what the reference
//! [`relviz_rc::trc_eval`] does), `∃`-nests are *decorrelated* into
//! `SemiJoin`s and `¬∃`-nests into `AntiJoin`s against a sub-plan that
//! computes all satisfying extended assignments at once. Attribute names
//! follow the `var__attr` mangling of [`relviz_rc::to_ra`], so plans stay
//! readable next to the classical compilation.
//!
//! Both lowerings finish with a **common-subplan pass**
//! ([`share_common_subplans`]): structurally identical sub-plans — the
//! outer context a quantifier build side re-plans, the duplicated
//! operands of `∨`/`¬`/division — are wrapped in [`PhysPlan::Shared`]
//! nodes and execute once per query. The pass value-numbers the plan in
//! time linear in its size: every node gets a class id keyed on its
//! variant, its own fields and its children's class ids. Two sub-plans
//! get one class exactly when their derived `Debug` forms are equal,
//! which is stricter than `Value`'s `Eq` (that equates `Int(1)` and
//! `Float(1.0)`): sub-plans differing in a constant's type, a zero's
//! sign or an attribute's type are never shared.

use relviz_model::{Attribute, Database, Schema};
use relviz_ra::typing::schema_of;
use relviz_ra::{Operand, Predicate, RaExpr};
use relviz_rc::trc::{Binding, TrcFormula, TrcQuery, TrcTerm};
use relviz_rc::trc_check::check_query;

use crate::error::{ExecError, ExecResult};
use crate::plan::{OutputCol, PhysPlan};
use crate::slots::Source;

// ---------------------------------------------------------------------------
// Common sub-plan sharing (CSE)
// ---------------------------------------------------------------------------

/// Wraps structurally identical non-leaf sub-plans in
/// [`PhysPlan::Shared`] nodes, so the executor computes each one once
/// per query and hands every other occurrence a storage-shared clone of
/// the cached batch.
///
/// Duplicated sub-plans are endemic to the lowerings, not an edge case:
/// TRC quantifier decorrelation re-plans the outer context inside every
/// build side, `∨`/`¬` compile both operands over a copy of their input,
/// and RA division expands one operand three times. Wrapping is
/// top-down and recursive: a duplicate *inside* a shared subtree gets
/// its own id too, so a sub-plan duplicated both within and outside a
/// larger shared plan is still computed once (identical subtrees are
/// rewritten identically, keeping every occurrence of an id equal).
///
/// Identity is decided by **value numbering**, in two passes that each
/// key every node once. The bottom-up pass ([`Classes::number`]) gives
/// every node a class id, keyed on its variant, its own fields and its
/// children's class ids, and counts each class's occurrences. The
/// top-down pass ([`Classes::share`]) wraps every non-leaf node whose
/// class occurs more than once, numbering `Shared` ids by first
/// occurrence in pre-order.
///
/// The key is exactly as strict as the nodes' derived `Debug` form:
/// two sub-plans share a class exactly when their whole `Debug` strings
/// are equal. Constants compare by variant and printed value, so
/// `Int(1)` and `Float(1.0)` differ, as do `-0.0` and `0.0`; attributes
/// compare by name and type. `Value`'s `Eq` is coarser (`Int(1) ==
/// Float(1.0)` under its total order), so `PhysPlan` must not be keyed
/// through derived `Hash`/`Eq`: that would share sub-plans whose output
/// types differ.
///
/// Must not be applied to fixpoint rule plans: a `Shared` result is
/// cached for the whole execution, but `ScanIdb`/`ScanDelta` contents
/// change every round.
fn share_common_subplans(plan: PhysPlan) -> PhysPlan {
    let mut classes = Classes::default();
    classes.number(&plan);
    classes.share(plan)
}

fn is_leaf(p: &PhysPlan) -> bool {
    matches!(
        p,
        PhysPlan::Scan { .. }
            | PhysPlan::ScanIdb { .. }
            | PhysPlan::ScanDelta { .. }
            | PhysPlan::Values { .. }
    )
}

/// The value-numbering state of one [`share_common_subplans`] run.
#[derive(Default)]
struct Classes {
    /// Class id of each distinct node key; ids are dense, in first-key
    /// order. The default hasher: keys carry client-supplied constants.
    ids: std::collections::HashMap<String, u32>,
    /// Occurrences per class id.
    counts: Vec<u32>,
    /// Every node's class id, in pre-order.
    pre_order: Vec<u32>,
    /// Scratch buffer the current node's key is written into.
    key: String,
}

impl Classes {
    /// Numbers `p`'s subtree bottom-up, recording each node's class in
    /// pre-order, and returns `p`'s class.
    fn number(&mut self, p: &PhysPlan) -> u32 {
        let slot = self.pre_order.len();
        self.pre_order.push(0);
        let children = match p {
            PhysPlan::Scan { .. }
            | PhysPlan::ScanIdb { .. }
            | PhysPlan::ScanDelta { .. }
            | PhysPlan::Values { .. } => [None, None],
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Dedup { input, .. }
            | PhysPlan::Shared { input, .. } => [Some(self.number(input)), None],
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::SemiJoin { left, right, .. }
            | PhysPlan::AntiJoin { left, right, .. }
            | PhysPlan::Union { left, right, .. }
            | PhysPlan::Diff { left, right, .. } => {
                [Some(self.number(left)), Some(self.number(right))]
            }
        };
        self.key.clear();
        write_key(&mut self.key, p, children);
        let class = match self.ids.get(&self.key) {
            Some(&class) => class,
            None => {
                let class = self.counts.len() as u32;
                self.ids.insert(self.key.clone(), class);
                self.counts.push(0);
                class
            }
        };
        if let Some(n) = self.counts.get_mut(class as usize) {
            *n += 1;
        }
        if let Some(s) = self.pre_order.get_mut(slot) {
            *s = class;
        }
        class
    }

    /// The top-down rewrite of the plan [`Classes::number`] numbered.
    fn share(&self, plan: PhysPlan) -> PhysPlan {
        fn go(
            p: PhysPlan,
            classes: &mut std::slice::Iter<'_, u32>,
            counts: &[u32],
            shared: &mut std::collections::HashMap<u32, u32>,
        ) -> PhysPlan {
            // Decide on the node's own class, then descend either way —
            // nested duplicates share too.
            let class = classes.next().copied();
            let wrap_as = match class {
                Some(c) if !is_leaf(&p) && counts.get(c as usize).is_some_and(|&n| n > 1) => {
                    let next = shared.len() as u32;
                    Some(*shared.entry(c).or_insert(next))
                }
                _ => None,
            };
            let rewritten = p.map_children(|c| go(c, classes, counts, shared));
            match wrap_as {
                Some(id) => {
                    let schema = rewritten.schema().clone();
                    PhysPlan::Shared { id, input: Box::new(rewritten), schema }
                }
                None => rewritten,
            }
        }
        go(plan, &mut self.pre_order.iter(), &self.counts, &mut Default::default())
    }
}

/// Writes `p`'s class key: its variant and own fields in derived
/// `Debug` form (each self-delimiting), then its children's class ids.
fn write_key(key: &mut String, p: &PhysPlan, children: [Option<u32>; 2]) {
    use std::fmt::Write as _;
    // Writing into a `String` cannot fail.
    let _ = match p {
        PhysPlan::Scan { rel, schema } => write!(key, "Scan{rel:?}{schema:?}"),
        PhysPlan::ScanIdb { rel, schema } => write!(key, "ScanIdb{rel:?}{schema:?}"),
        PhysPlan::ScanDelta { rel, schema } => write!(key, "ScanDelta{rel:?}{schema:?}"),
        PhysPlan::Values { rows, schema } => write!(key, "Values{rows:?}{schema:?}"),
        PhysPlan::Filter { pred, schema, .. } => write!(key, "Filter{pred:?}{schema:?}"),
        PhysPlan::Project { cols, schema, .. } => write!(key, "Project{cols:?}{schema:?}"),
        PhysPlan::HashJoin { left_keys, right_keys, right_keep, post, schema, .. } => write!(
            key,
            "HashJoin{left_keys:?}{right_keys:?}{right_keep:?}{post:?}{schema:?}"
        ),
        PhysPlan::SemiJoin { left_keys, right_keys, schema, .. } => {
            write!(key, "SemiJoin{left_keys:?}{right_keys:?}{schema:?}")
        }
        PhysPlan::AntiJoin { left_keys, right_keys, schema, .. } => {
            write!(key, "AntiJoin{left_keys:?}{right_keys:?}{schema:?}")
        }
        PhysPlan::Union { schema, .. } => write!(key, "Union{schema:?}"),
        PhysPlan::Diff { schema, .. } => write!(key, "Diff{schema:?}"),
        PhysPlan::Dedup { schema, .. } => write!(key, "Dedup{schema:?}"),
        PhysPlan::Shared { id, schema, .. } => write!(key, "Shared{id}{schema:?}"),
    };
    for class in children.into_iter().flatten() {
        let _ = write!(key, "#{class}");
    }
}

/// Groups a plan's `Shared` sub-plans into **concurrency levels** for
/// the parallel engine: a level-0 id nests no other shared plan, a
/// level-`k` id nests only ids of lower levels. Ids on one level are
/// mutually independent, so they may execute concurrently; running
/// levels bottom-up guarantees every nested shared result is cached
/// before an enclosing one needs it. Each id is returned with (a
/// reference to) its defining input sub-plan.
// `memo` covers every def id; `levels` is sized to the max depth.
#[allow(clippy::indexing_slicing)]
pub(crate) fn shared_levels(plan: &PhysPlan) -> Vec<Vec<(u32, &PhysPlan)>> {
    use std::collections::{HashMap, HashSet};

    fn walk<'a>(p: &'a PhysPlan, visit: &mut impl FnMut(&'a PhysPlan)) {
        visit(p);
        match p {
            PhysPlan::Scan { .. }
            | PhysPlan::ScanIdb { .. }
            | PhysPlan::ScanDelta { .. }
            | PhysPlan::Values { .. } => {}
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Dedup { input, .. }
            | PhysPlan::Shared { input, .. } => walk(input, visit),
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::SemiJoin { left, right, .. }
            | PhysPlan::AntiJoin { left, right, .. }
            | PhysPlan::Union { left, right, .. }
            | PhysPlan::Diff { left, right, .. } => {
                walk(left, visit);
                walk(right, visit);
            }
        }
    }

    // Every id's defining input, and the shared ids nested inside it.
    let mut defs: HashMap<u32, &PhysPlan> = HashMap::new();
    walk(plan, &mut |p| {
        if let PhysPlan::Shared { id, input, .. } = p {
            defs.entry(*id).or_insert(input);
        }
    });
    let mut inside: HashMap<u32, HashSet<u32>> = HashMap::new();
    for (&id, &input) in &defs {
        let mut nested = HashSet::new();
        walk(input, &mut |p| {
            if let PhysPlan::Shared { id: n, .. } = p {
                nested.insert(*n);
            }
        });
        inside.insert(id, nested);
    }

    fn depth(id: u32, inside: &HashMap<u32, HashSet<u32>>, memo: &mut HashMap<u32, usize>) -> usize {
        if let Some(&d) = memo.get(&id) {
            return d;
        }
        let d = inside[&id]
            .iter()
            .filter(|&&n| n != id)
            .map(|&n| depth(n, inside, memo) + 1)
            .max()
            .unwrap_or(0);
        memo.insert(id, d);
        d
    }

    let mut memo = HashMap::new();
    let max_depth = defs.keys().map(|&id| depth(id, &inside, &mut memo)).max();
    let Some(max_depth) = max_depth else { return Vec::new() };
    let mut levels: Vec<Vec<(u32, &PhysPlan)>> = vec![Vec::new(); max_depth + 1];
    for (&id, &input) in &defs {
        levels[memo[&id]].push((id, input));
    }
    // Deterministic task order within a level (defs iterate a HashMap).
    for level in &mut levels {
        level.sort_by_key(|(id, _)| *id);
    }
    levels
}

// ---------------------------------------------------------------------------
// RA → physical plan
// ---------------------------------------------------------------------------

/// Lowers a Relational Algebra expression (type-checking it first).
/// `cfg.reorder` runs the cost-based join reordering pass
/// ([`crate::opt`]) between lowering and the common-subplan pass.
pub fn plan_ra_with<'a>(
    expr: &RaExpr,
    db: impl Into<Source<'a>>,
    cfg: crate::opt::OptConfig,
) -> ExecResult<PhysPlan> {
    let src = db.into();
    let plan = share_common_subplans(ra_before_cse(expr, &src, cfg)?);
    crate::verify::debug_verify_plan(&plan, src.db());
    Ok(plan)
}

/// The RA plan the common-subplan pass receives: lowered and, under
/// `cfg.reorder`, join-reordered.
fn ra_before_cse(
    expr: &RaExpr,
    src: &Source<'_>,
    cfg: crate::opt::OptConfig,
) -> ExecResult<PhysPlan> {
    let db = src.db();
    schema_of(expr, db)?; // surface type errors with the RA crate's messages
    let plan = lower_ra(expr, db)?;
    Ok(if cfg.reorder { crate::opt::reorder_plan(plan, src) } else { plan })
}

fn lower_ra(expr: &RaExpr, db: &Database) -> ExecResult<PhysPlan> {
    match expr {
        RaExpr::Relation(name) => {
            let schema = db
                .schema(name)
                .map_err(|e| ExecError::Plan(e.to_string()))?
                .clone();
            Ok(PhysPlan::Scan { rel: name.clone(), schema })
        }
        RaExpr::Select { pred, input } => {
            let input = lower_ra(input, db)?;
            Ok(apply_filter(input, pred.clone()))
        }
        RaExpr::Project { attrs, input } => {
            let input = lower_ra(input, db)?;
            let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let schema = input.schema().project(&names)?;
            let cols: Vec<OutputCol> = names
                .iter()
                .map(|n| OutputCol::Pos(input.schema().index_of(n).expect("validated")))
                .collect();
            Ok(project(input, cols, schema))
        }
        RaExpr::Rename { from, to, input } => {
            let mut plan = lower_ra(input, db)?;
            let schema = plan.schema().rename(from, to)?;
            plan.set_schema(schema);
            Ok(plan)
        }
        RaExpr::Product(l, r) => {
            let left = lower_ra(l, db)?;
            let right = lower_ra(r, db)?;
            cross(left, right)
        }
        RaExpr::NaturalJoin(l, r) => {
            let left = lower_ra(l, db)?;
            let right = lower_ra(r, db)?;
            natural_join(left, right)
        }
        RaExpr::ThetaJoin { pred, left, right } => {
            let left = lower_ra(left, db)?;
            let right = lower_ra(right, db)?;
            theta_join(left, right, pred)
        }
        RaExpr::Union(l, r) => {
            let left = lower_ra(l, db)?;
            let right = lower_ra(r, db)?;
            Ok(dedup(union(left, right)))
        }
        RaExpr::Intersect(l, r) => {
            let left = lower_ra(l, db)?;
            let right = lower_ra(r, db)?;
            Ok(intersect(left, right))
        }
        RaExpr::Difference(l, r) => {
            let left = lower_ra(l, db)?;
            let right = lower_ra(r, db)?;
            Ok(diff(left, right))
        }
        RaExpr::Division(l, r) => {
            let left = lower_ra(l, db)?;
            let right = lower_ra(r, db)?;
            division(left, right)
        }
    }
}

/// Filters `input` by `pred`. When `input` is a `HashJoin` whose output
/// columns are exactly its inputs' columns (no rename folded on top),
/// the conjuncts are classified instead of stacked:
///
/// * hash-safe `left = right` equalities become **join keys**,
/// * conjuncts touching only one side **push down** into that child
///   (recursively — a selection sinks through a whole join tree),
/// * everything else joins the residual post-filter.
///
/// This is what turns σ-over-× plans — and the TRC compiler's
/// comparison-over-context plans — into genuine hash-join pipelines.
/// The Datalog planner reuses it for rule-body comparison literals.
// Pushdown positions come from `index_of` on the node's own schemas.
#[allow(clippy::indexing_slicing)]
pub(crate) fn apply_filter(input: PhysPlan, pred: Predicate) -> PhysPlan {
    if let PhysPlan::HashJoin {
        left,
        right,
        mut left_keys,
        mut right_keys,
        right_keep,
        post,
        schema,
    } = input
    {
        // Safe only when output names still line up with the input
        // names (left columns first, then the kept right columns).
        let aligned = schema
            .names()
            .iter()
            .zip(
                left.schema()
                    .names()
                    .into_iter()
                    .chain(right_keep.iter().map(|&i| right.schema().attrs()[i].name.as_str())),
            )
            .all(|(a, b)| *a == b);
        if aligned {
            let left_arity = left.schema().arity();
            let mut left_push: Option<Predicate> = None;
            let mut right_push: Option<Predicate> = None;
            let mut residual = post;
            let and_onto = |acc: Option<Predicate>, p: &Predicate| {
                Some(match acc {
                    Some(q) => q.and(p.clone()),
                    None => p.clone(),
                })
            };
            for conjunct in pred.conjuncts() {
                // Key extraction: a hash-safe cross-side equality.
                if let Predicate::Cmp {
                    left: Operand::Attr(a),
                    op: relviz_model::CmpOp::Eq,
                    right: Operand::Attr(b),
                } = conjunct
                {
                    if let (Some(pa), Some(pb)) = (schema.index_of(a), schema.index_of(b)) {
                        let (pl, pr) = if pb < pa { (pb, pa) } else { (pa, pb) };
                        if pl < left_arity && pr >= left_arity {
                            let rcol = right_keep[pr - left_arity];
                            let (lt, rt) =
                                (left.schema().attrs()[pl].ty, right.schema().attrs()[rcol].ty);
                            if lt.unify(rt).is_some() {
                                left_keys.push(pl);
                                right_keys.push(rcol);
                                continue;
                            }
                        }
                    }
                }
                // Push-down: all referenced attributes on one side.
                let positions: Option<Vec<usize>> =
                    conjunct.attrs().iter().map(|n| schema.index_of(n)).collect();
                match positions.as_deref() {
                    Some(ps) if !ps.is_empty() && ps.iter().all(|&p| p < left_arity) => {
                        left_push = and_onto(left_push, conjunct);
                    }
                    Some(ps) if !ps.is_empty() && ps.iter().all(|&p| p >= left_arity) => {
                        right_push = and_onto(right_push, conjunct);
                    }
                    _ => residual = and_onto(residual, conjunct),
                }
            }
            let left = match left_push {
                Some(p) => Box::new(apply_filter(*left, p)),
                None => left,
            };
            let right = match right_push {
                Some(p) => Box::new(apply_filter(*right, p)),
                None => right,
            };
            return PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                right_keep,
                post: residual,
                schema,
            };
        }
        // Not aligned: rebuild the join untouched and wrap in a Filter.
        let input = PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            right_keep,
            post,
            schema,
        };
        return PhysPlan::Filter {
            pred,
            schema: input.schema().clone(),
            input: Box::new(input),
        };
    }
    PhysPlan::Filter { pred, schema: input.schema().clone(), input: Box::new(input) }
}

/// A projection, deduplicated whenever columns are dropped (a projection
/// that keeps every column is a bijection and cannot introduce
/// duplicates).
fn project(input: PhysPlan, cols: Vec<OutputCol>, schema: Schema) -> PhysPlan {
    let narrowing = cols.len() < input.schema().arity()
        || cols.iter().any(|c| matches!(c, OutputCol::Const(_)));
    let plan = PhysPlan::Project { cols, schema: schema.clone(), input: Box::new(input) };
    if narrowing {
        dedup(plan)
    } else {
        plan
    }
}

fn dedup(input: PhysPlan) -> PhysPlan {
    PhysPlan::Dedup { schema: input.schema().clone(), input: Box::new(input) }
}

fn union(left: PhysPlan, right: PhysPlan) -> PhysPlan {
    PhysPlan::Union {
        schema: left.schema().clone(),
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn diff(left: PhysPlan, right: PhysPlan) -> PhysPlan {
    PhysPlan::Diff {
        schema: left.schema().clone(),
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn cross(left: PhysPlan, right: PhysPlan) -> ExecResult<PhysPlan> {
    let schema = left.schema().product(right.schema())?;
    let right_keep = (0..right.schema().arity()).collect();
    Ok(PhysPlan::HashJoin {
        left_keys: vec![],
        right_keys: vec![],
        right_keep,
        post: None,
        schema,
        left: Box::new(left),
        right: Box::new(right),
    })
}

// Join positions come from `index_of` on the operands' own schemas.
#[allow(clippy::indexing_slicing)]
fn natural_join(left: PhysPlan, right: PhysPlan) -> ExecResult<PhysPlan> {
    let (ls, rs) = (left.schema().clone(), right.schema().clone());
    let shared: Vec<&str> = ls.common_names(&rs);
    let left_keys: Vec<usize> = shared.iter().map(|n| ls.index_of(n).expect("shared")).collect();
    let right_keys: Vec<usize> = shared.iter().map(|n| rs.index_of(n).expect("shared")).collect();
    let right_keep: Vec<usize> = (0..rs.arity())
        .filter(|&i| ls.index_of(&rs.attrs()[i].name).is_none())
        .collect();
    let mut attrs = ls.attrs().to_vec();
    for &i in &right_keep {
        attrs.push(rs.attrs()[i].clone());
    }
    let schema = Schema::new(attrs)?;
    Ok(PhysPlan::HashJoin {
        left_keys,
        right_keys,
        right_keep,
        post: None,
        schema,
        left: Box::new(left),
        right: Box::new(right),
    })
}

// Join positions come from `index_of` on the operands' own schemas.
#[allow(clippy::indexing_slicing)]
fn theta_join(left: PhysPlan, right: PhysPlan, pred: &Predicate) -> ExecResult<PhysPlan> {
    let (ls, rs) = (left.schema().clone(), right.schema().clone());
    let schema = ls.product(&rs)?;
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual: Option<Predicate> = None;
    for conjunct in pred.conjuncts() {
        let mut taken = false;
        if let Predicate::Cmp {
            left: Operand::Attr(a),
            op: relviz_model::CmpOp::Eq,
            right: Operand::Attr(b),
        } = conjunct
        {
            // Orient the equality: one side must resolve in the left
            // schema, the other in the right.
            let candidates = [(a, b), (b, a)];
            for (la, ra) in candidates {
                if let (Some(li), Some(ri)) = (ls.index_of(la), rs.index_of(ra)) {
                    // Join keys compare by Value's total order (see
                    // indexed::JoinKey), matching CmpOp::apply — so any
                    // comparable pair of columns can key the hash join.
                    let (lt, rt) = (ls.attrs()[li].ty, rs.attrs()[ri].ty);
                    if lt.unify(rt).is_some() {
                        left_keys.push(li);
                        right_keys.push(ri);
                        taken = true;
                        break;
                    }
                }
            }
        }
        if !taken {
            residual = Some(match residual {
                Some(p) => p.and(conjunct.clone()),
                None => conjunct.clone(),
            });
        }
    }
    let right_keep = (0..rs.arity()).collect();
    Ok(PhysPlan::HashJoin {
        left_keys,
        right_keys,
        right_keep,
        post: residual,
        schema,
        left: Box::new(left),
        right: Box::new(right),
    })
}

/// `A ∩ B` as a whole-row semi-join. Join keys compare by the total
/// order of `Value`, the same notion of equality the reference
/// evaluator's set membership uses.
fn intersect(left: PhysPlan, right: PhysPlan) -> PhysPlan {
    let keys: Vec<usize> = (0..left.schema().arity()).collect();
    PhysPlan::SemiJoin {
        left_keys: keys.clone(),
        right_keys: keys,
        schema: left.schema().clone(),
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Relational division `l ÷ r`, composed from the primitive operators:
///
/// ```text
/// A = δ(π_q(l))                 candidate quotient rows
/// C = (A × r) − π_{q,d}(l)      (candidate, divisor) pairs MISSING from l
/// result = A − δ(π_q(C))        candidates with no missing pair
/// ```
// Join positions come from `index_of` on the operands' own schemas.
#[allow(clippy::indexing_slicing)]
fn division(left: PhysPlan, right: PhysPlan) -> ExecResult<PhysPlan> {
    let (ls, rs) = (left.schema().clone(), right.schema().clone());
    let quot_pos: Vec<usize> = (0..ls.arity())
        .filter(|&i| rs.index_of(&ls.attrs()[i].name).is_none())
        .collect();
    let div_pos_l: Vec<usize> = rs
        .attrs()
        .iter()
        .map(|a| {
            ls.index_of(&a.name)
                .ok_or_else(|| ExecError::Plan(format!("divisor attribute `{}` missing", a.name)))
        })
        .collect::<ExecResult<_>>()?;

    let quot_attrs: Vec<Attribute> =
        quot_pos.iter().map(|&i| ls.attrs()[i].clone()).collect();
    let quot_schema = Schema::new(quot_attrs)?;

    let candidates = project(
        left.clone(),
        quot_pos.iter().map(|&i| OutputCol::Pos(i)).collect(),
        quot_schema.clone(),
    );
    let pairs = cross(candidates.clone(), right)?;
    let present_cols: Vec<usize> = quot_pos.iter().chain(&div_pos_l).copied().collect();
    let present_schema = Schema::new(
        present_cols.iter().map(|&i| ls.attrs()[i].clone()).collect::<Vec<_>>(),
    )?;
    let present = project(
        left,
        present_cols.into_iter().map(OutputCol::Pos).collect(),
        present_schema,
    );
    let missing = diff(pairs, present);
    let missing_quot = project(
        missing,
        (0..quot_schema.arity()).map(OutputCol::Pos).collect(),
        quot_schema,
    );
    Ok(diff(candidates, missing_quot))
}

// ---------------------------------------------------------------------------
// TRC → physical plan
// ---------------------------------------------------------------------------

/// `var__attr`, the same mangling scheme [`relviz_rc::to_ra`] uses.
fn mangle(var: &str, attr: &str) -> String {
    format!("{var}__{attr}")
}

/// Lowers a (checked) TRC query. `∀` is eliminated as `¬∃¬` first;
/// `∃`-nests become semi-joins, `¬∃`-nests anti-joins. `cfg` as for
/// [`plan_ra_with`].
pub fn plan_trc_with<'a>(
    q: &TrcQuery,
    db: impl Into<Source<'a>>,
    cfg: crate::opt::OptConfig,
) -> ExecResult<PhysPlan> {
    let src = db.into();
    let plan = share_common_subplans(trc_before_cse(q, &src, cfg)?);
    crate::verify::debug_verify_plan(&plan, src.db());
    Ok(plan)
}

/// The TRC plan the common-subplan pass receives: lowered and, under
/// `cfg.reorder`, join-reordered.
fn trc_before_cse(
    q: &TrcQuery,
    src: &Source<'_>,
    cfg: crate::opt::OptConfig,
) -> ExecResult<PhysPlan> {
    let db = src.db();
    let head_types = check_query(q, db)?;
    let q = q.eliminate_forall();
    let mut branch_plans: Vec<PhysPlan> = Vec::with_capacity(q.branches.len());
    for branch in &q.branches {
        let ctx = ctx_plan(&branch.bindings, db)?;
        let sat = match &branch.body {
            Some(f) => compile(f, ctx, db)?,
            None => ctx,
        };
        let mut cols = Vec::with_capacity(branch.head.len());
        let mut attrs = Vec::with_capacity(branch.head.len());
        for ((_, term), (out_name, ty)) in branch.head.iter().zip(&head_types) {
            match term {
                TrcTerm::Attr { var, attr } => {
                    let name = mangle(var, attr);
                    let pos = sat.schema().index_of(&name).ok_or_else(|| {
                        ExecError::Plan(format!("head term `{var}.{attr}` not in scope"))
                    })?;
                    cols.push(OutputCol::Pos(pos));
                }
                TrcTerm::Const(v) => cols.push(OutputCol::Const(v.clone())),
            }
            attrs.push(Attribute::new(out_name.clone(), *ty));
        }
        let schema = Schema::new(attrs)?;
        branch_plans.push(project(sat, cols, schema));
    }
    let many = branch_plans.len() > 1;
    branch_plans
        .into_iter()
        .reduce(union)
        .map(|p| if many { dedup(p) } else { p })
        .map(|p| if cfg.reorder { crate::opt::reorder_plan(p, src) } else { p })
        .ok_or_else(|| ExecError::Plan("query has no branches".into()))
}

/// A scan of `binding.rel` with every attribute mangled to `var__attr`.
fn scan_mangled(binding: &Binding, db: &Database) -> ExecResult<PhysPlan> {
    let base = db
        .schema(&binding.rel)
        .map_err(|e| ExecError::Plan(e.to_string()))?;
    let attrs: Vec<Attribute> = base
        .attrs()
        .iter()
        .map(|a| Attribute::new(mangle(&binding.var, &a.name), a.ty))
        .collect();
    Ok(PhysPlan::Scan { rel: binding.rel.clone(), schema: Schema::new(attrs)? })
}

/// The cross product of the bindings' relations (the TRC context).
fn ctx_plan(bindings: &[Binding], db: &Database) -> ExecResult<PhysPlan> {
    let mut plan: Option<PhysPlan> = None;
    for b in bindings {
        let scan = scan_mangled(b, db)?;
        plan = Some(match plan {
            Some(p) => cross(p, scan)?,
            None => scan,
        });
    }
    plan.ok_or_else(|| {
        ExecError::Plan("Boolean (zero-binding) TRC branch has no physical plan".into())
    })
}

fn term_operand(t: &TrcTerm) -> Operand {
    match t {
        TrcTerm::Attr { var, attr } => Operand::Attr(mangle(var, attr)),
        TrcTerm::Const(v) => Operand::Const(v.clone()),
    }
}

/// A quantifier-free formula as a single RA predicate (terms mangled),
/// or `None` if a quantifier occurs anywhere inside.
fn as_predicate(f: &TrcFormula) -> Option<Predicate> {
    match f {
        TrcFormula::Const(b) => Some(Predicate::Const(*b)),
        TrcFormula::Cmp { left, op, right } => {
            Some(Predicate::cmp(term_operand(left), *op, term_operand(right)))
        }
        TrcFormula::And(a, b) => Some(as_predicate(a)?.and(as_predicate(b)?)),
        TrcFormula::Or(a, b) => Some(as_predicate(a)?.or(as_predicate(b)?)),
        TrcFormula::Not(a) => Some(as_predicate(a)?.not()),
        TrcFormula::Exists { .. } | TrcFormula::Forall { .. } => None,
    }
}

/// Compiles `f` into a plan selecting the rows of `plan` that satisfy it.
/// Every case maps a batch to a subset of it, so `∧` is sequential
/// composition and `¬` is `Diff` against the input. Quantifier-free
/// subformulas (however deeply negated or disjoined) become one
/// predicate filter — only quantifiers force plan-level structure.
fn compile(f: &TrcFormula, plan: PhysPlan, db: &Database) -> ExecResult<PhysPlan> {
    if let Some(pred) = as_predicate(f) {
        return Ok(apply_filter(plan, pred));
    }
    match f {
        TrcFormula::And(a, b) => {
            let filtered = compile(a, plan, db)?;
            compile(b, filtered, db)
        }
        TrcFormula::Or(a, b) => {
            let l = compile(a, plan.clone(), db)?;
            let r = compile(b, plan, db)?;
            Ok(dedup(union(l, r)))
        }
        TrcFormula::Not(inner) => match inner.as_ref() {
            // ¬∃ decorrelates directly to an anti-join.
            TrcFormula::Exists { bindings, body } => {
                quantifier_join(bindings, body, plan, db, true)
            }
            other => {
                let sat = compile(other, plan.clone(), db)?;
                Ok(diff(plan, sat))
            }
        },
        TrcFormula::Exists { bindings, body } => {
            quantifier_join(bindings, body, plan, db, false)
        }
        TrcFormula::Forall { .. } => Err(ExecError::Plan(
            "∀ must be eliminated before planning (internal error)".into(),
        )),
        // Const and Cmp are always handled by as_predicate above.
        TrcFormula::Const(_) | TrcFormula::Cmp { .. } => {
            unreachable!("quantifier-free formulas take the predicate path")
        }
    }
}

/// Decorrelates one quantifier into a semi- (`anti = false`) or
/// anti-join (`anti = true`).
///
/// The build side does **not** extend the whole outer row: witness
/// existence depends only on the outer columns the body references, so
/// the sub-plan is `compile(body, δ(π_refs(outer)) × bindings)` and the
/// join keys are exactly those columns. For a low-cardinality
/// correlation column (Q8's `rating`) this shrinks the build side by
/// orders of magnitude; for an uncorrelated `∃` it degenerates to a
/// zero-key emptiness probe.
// Correlation positions come from `index_of` on the operands' own schemas.
#[allow(clippy::indexing_slicing)]
fn quantifier_join(
    bindings: &[Binding],
    body: &TrcFormula,
    plan: PhysPlan,
    db: &Database,
    anti: bool,
) -> ExecResult<PhysPlan> {
    let mut refs = std::collections::BTreeSet::new();
    outer_refs(body, plan.schema(), &mut refs);
    let left_keys: Vec<usize> = refs.into_iter().collect();
    let right_keys: Vec<usize> = (0..left_keys.len()).collect();

    let outer_key = if left_keys.len() == plan.schema().arity() {
        dedup(plan.clone())
    } else {
        let attrs: Vec<Attribute> =
            left_keys.iter().map(|&i| plan.schema().attrs()[i].clone()).collect();
        dedup(PhysPlan::Project {
            cols: left_keys.iter().map(|&i| OutputCol::Pos(i)).collect(),
            schema: Schema::new(attrs)?,
            input: Box::new(plan.clone()),
        })
    };
    let mut extended = outer_key;
    for b in bindings {
        extended = cross(extended, scan_mangled(b, db)?)?;
    }
    let sub = compile(body, extended, db)?;

    let schema = plan.schema().clone();
    let (left, right) = (Box::new(plan), Box::new(sub));
    Ok(if anti {
        PhysPlan::AntiJoin { left, right, left_keys, right_keys, schema }
    } else {
        PhysPlan::SemiJoin { left, right, left_keys, right_keys, schema }
    })
}

/// Collects the positions of `schema` columns the formula references
/// (recursively, through nested quantifiers) — the correlation columns
/// of a quantifier body relative to its outer context.
fn outer_refs(f: &TrcFormula, schema: &Schema, out: &mut std::collections::BTreeSet<usize>) {
    match f {
        TrcFormula::Cmp { left, right, .. } => {
            for t in [left, right] {
                if let TrcTerm::Attr { var, attr } = t {
                    if let Some(i) = schema.index_of(&mangle(var, attr)) {
                        out.insert(i);
                    }
                }
            }
        }
        TrcFormula::And(a, b) | TrcFormula::Or(a, b) => {
            outer_refs(a, schema, out);
            outer_refs(b, schema, out);
        }
        TrcFormula::Not(a) => outer_refs(a, schema, out),
        TrcFormula::Exists { body, .. } | TrcFormula::Forall { body, .. } => {
            outer_refs(body, schema, out)
        }
        TrcFormula::Const(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptConfig;
    use crate::plan::explain;
    use crate::run::execute;
    use relviz_model::catalog::sailors_sample;

    #[test]
    fn theta_join_extracts_hash_keys() {
        let db = sailors_sample();
        let e = relviz_ra::parse::parse_ra(
            "Select[s_sid = sid AND bid = 102](Product(Rename[sid -> s_sid](Sailor), Reserves))",
        )
        .unwrap();
        // As written this is σ over ×; the optimizer fuses them first.
        let fused = relviz_ra::rewrite::optimize(&e);
        let plan = plan_ra_with(&fused, &db, OptConfig::optimized()).unwrap();
        let text = explain(&plan);
        assert!(text.contains("HashJoin [s_sid=sid]"), "{text}");
        assert!(text.contains("filter bid = 102") || text.contains("Filter bid = 102"), "{text}");
    }

    #[test]
    fn trc_exists_becomes_semi_join() {
        let db = sailors_sample();
        let q = relviz_rc::trc_parse::parse_trc(
            "{s.sname | Sailor(s) and exists r in Reserves: (r.sid = s.sid and r.bid = 102)}",
        )
        .unwrap();
        let plan = plan_trc_with(&q, &db, OptConfig::optimized()).unwrap();
        let text = explain(&plan);
        // Decorrelated on exactly the referenced outer column.
        assert!(text.contains("SemiJoin [s__sid]"), "{text}");
        assert!(!text.contains("AntiJoin"), "{text}");
    }

    #[test]
    fn trc_not_exists_becomes_anti_join() {
        let db = sailors_sample();
        let q = relviz_rc::trc_parse::parse_trc(
            "{s.sname | Sailor(s) and not exists r in Reserves: (r.sid = s.sid)}",
        )
        .unwrap();
        let plan = plan_trc_with(&q, &db, OptConfig::optimized()).unwrap();
        let text = explain(&plan);
        assert!(text.contains("AntiJoin [s__sid]"), "{text}");
        let out = execute(&plan, &db).unwrap();
        assert_eq!(out.len(), 6); // sailors with no reservation at all
    }

    #[test]
    fn division_lowering_matches_reference() {
        let db = sailors_sample();
        let e = relviz_ra::parse::parse_ra(
            "Division(Project[sid, bid](Reserves), Project[bid](Select[color = 'red'](Boat)))",
        )
        .unwrap();
        let plan = plan_ra_with(&e, &db, OptConfig::optimized()).unwrap();
        let ours = execute(&plan, &db).unwrap();
        let reference = relviz_ra::eval::eval(&e, &db).unwrap();
        assert!(ours.same_contents(&reference), "ours={ours}\nref={reference}");
        assert_eq!(ours.len(), 2); // dustin, lubber
    }

    /// Regression (found by /code-review): quantifier decorrelation
    /// joins on float correlation columns must match the reference
    /// evaluator's total-order comparisons — before JoinKey, a NaN
    /// correlation value never hash-matched its identical self and the
    /// semi-join silently dropped the row.
    #[test]
    fn float_correlation_keys_match_total_order() {
        use relviz_model::{DataType, Relation, Schema, Tuple};
        let mut db = relviz_model::Database::new();
        let mut r = Relation::empty(Schema::of(&[("a", DataType::Float)]));
        r.insert_unchecked(Tuple::of((f64::NAN,)));
        r.insert_unchecked(Tuple::of((1.0,)));
        db.add("R", r.clone()).unwrap();
        db.add("S", r).unwrap();
        let q = relviz_rc::trc_parse::parse_trc("{r.a | R(r) and exists s in S: (s.a = r.a)}")
            .unwrap();
        let reference = relviz_rc::trc_eval::eval_trc(&q, &db).unwrap();
        let ours = execute(&plan_trc_with(&q, &db, OptConfig::optimized()).unwrap(), &db).unwrap();
        assert!(ours.same_contents(&reference), "ours={ours}\nref={reference}");
        assert_eq!(ours.len(), 2); // NaN finds its identical self
    }

    /// The decorrelated quantifier build side re-plans the outer
    /// context; the CSE pass must fuse it with the probe side's copy
    /// into one `Shared` sub-plan — shown once in EXPLAIN, executed
    /// once by the runner.
    #[test]
    fn common_subplans_are_shared_and_execute_once() {
        let db = sailors_sample();
        // Q5: ¬∃ b (red ∧ ¬∃ r reserved) — the context × Boat sub-plan
        // appears on both sides of the inner anti-join.
        let q = relviz_rc::trc_parse::parse_trc(
            "{s.sname | Sailor(s) and not exists b in Boat: (b.color = 'red' and \
             not exists r in Reserves: (r.sid = s.sid and r.bid = b.bid))}",
        )
        .unwrap();
        let plan = plan_trc_with(&q, &db, OptConfig::optimized()).unwrap();
        let text = explain(&plan);
        assert!(text.contains("Shared #0\n"), "{text}");
        assert!(text.contains("Shared #0 ^"), "back-reference missing:\n{text}");
        let ours = execute(&plan, &db).unwrap();
        let reference = relviz_rc::trc_eval::eval_trc(&q, &db).unwrap();
        assert!(ours.same_contents(&reference));
    }

    /// RA division expands its dividend three times; CSE collapses the
    /// copies, and the plan still matches the reference evaluator.
    #[test]
    fn division_shares_its_expanded_operands() {
        let db = sailors_sample();
        let e = relviz_ra::parse::parse_ra(
            "Division(Project[sid, bid](Reserves), Project[bid](Boat))",
        )
        .unwrap();
        let plan = plan_ra_with(&e, &db, OptConfig::optimized()).unwrap();
        let text = explain(&plan);
        assert!(text.contains("Shared #"), "{text}");
        assert!(text.contains(" ^"), "{text}");
        let ours = execute(&plan, &db).unwrap();
        let reference = relviz_ra::eval::eval(&e, &db).unwrap();
        assert!(ours.same_contents(&reference));
    }

    #[test]
    fn plan_ra_type_errors_surface() {
        let db = sailors_sample();
        let e = relviz_ra::parse::parse_ra("Project[ghost](Sailor)").unwrap();
        assert!(matches!(plan_ra_with(&e, &db, OptConfig::optimized()), Err(ExecError::Ra(_))));
    }

    #[test]
    fn boolean_trc_branch_is_rejected() {
        let db = sailors_sample();
        let q = TrcQuery { branches: vec![] };
        assert!(plan_trc_with(&q, &db, OptConfig::optimized()).is_err());
    }

    // -- the common-subplan pass against its Debug-string oracle ----------

    /// The common-subplan pass as it was before value numbering, kept as
    /// the oracle: it fingerprints every non-leaf subtree by its whole
    /// derived `Debug` string, once to count and again to rewrite
    /// (quadratic in plan size, so test-only).
    fn debug_string_cse(plan: PhysPlan) -> PhysPlan {
        fn is_leaf(p: &PhysPlan) -> bool {
            matches!(
                p,
                PhysPlan::Scan { .. }
                    | PhysPlan::ScanIdb { .. }
                    | PhysPlan::ScanDelta { .. }
                    | PhysPlan::Values { .. }
            )
        }

        /// The canonical fingerprint: the derived `Debug` form is fully
        /// structural (schemas, keys, predicates, constants), so equal
        /// strings mean behaviorally identical sub-plans.
        fn fingerprint(p: &PhysPlan) -> String {
            format!("{p:?}")
        }

        fn count(p: &PhysPlan, counts: &mut std::collections::HashMap<String, u32>) {
            if !is_leaf(p) {
                *counts.entry(fingerprint(p)).or_insert(0) += 1;
            }
            match p {
                PhysPlan::Scan { .. }
                | PhysPlan::ScanIdb { .. }
                | PhysPlan::ScanDelta { .. }
                | PhysPlan::Values { .. } => {}
                PhysPlan::Filter { input, .. }
                | PhysPlan::Project { input, .. }
                | PhysPlan::Dedup { input, .. }
                | PhysPlan::Shared { input, .. } => count(input, counts),
                PhysPlan::HashJoin { left, right, .. }
                | PhysPlan::SemiJoin { left, right, .. }
                | PhysPlan::AntiJoin { left, right, .. }
                | PhysPlan::Union { left, right, .. }
                | PhysPlan::Diff { left, right, .. } => {
                    count(left, counts);
                    count(right, counts);
                }
            }
        }

        struct Ids {
            by_fingerprint: std::collections::HashMap<String, u32>,
            next: u32,
        }

        fn rewrite(
            p: PhysPlan,
            counts: &std::collections::HashMap<String, u32>,
            ids: &mut Ids,
        ) -> PhysPlan {
            // Decide on the *pre-rewrite* fingerprint (ids are assigned in
            // traversal order, so identical subtrees rewrite identically),
            // then descend either way — nested duplicates share too.
            let wrap_as = if is_leaf(&p) {
                None
            } else {
                let fp = fingerprint(&p);
                if counts.get(&fp).copied().unwrap_or(0) > 1 {
                    Some(*ids.by_fingerprint.entry(fp).or_insert_with(|| {
                        let id = ids.next;
                        ids.next += 1;
                        id
                    }))
                } else {
                    None
                }
            };
            let rewritten = descend(p, counts, ids);
            match wrap_as {
                Some(id) => {
                    let schema = rewritten.schema().clone();
                    PhysPlan::Shared { id, input: Box::new(rewritten), schema }
                }
                None => rewritten,
            }
        }

        fn descend(
            p: PhysPlan,
            counts: &std::collections::HashMap<String, u32>,
            ids: &mut Ids,
        ) -> PhysPlan {
            match p {
                leaf @ (PhysPlan::Scan { .. }
                | PhysPlan::ScanIdb { .. }
                | PhysPlan::ScanDelta { .. }
                | PhysPlan::Values { .. }) => leaf,
                PhysPlan::Filter { pred, input, schema } => PhysPlan::Filter {
                    pred,
                    input: Box::new(rewrite(*input, counts, ids)),
                    schema,
                },
                PhysPlan::Project { cols, input, schema } => PhysPlan::Project {
                    cols,
                    input: Box::new(rewrite(*input, counts, ids)),
                    schema,
                },
                PhysPlan::Dedup { input, schema } => PhysPlan::Dedup {
                    input: Box::new(rewrite(*input, counts, ids)),
                    schema,
                },
                PhysPlan::Shared { id, input, schema } => PhysPlan::Shared {
                    id,
                    input: Box::new(rewrite(*input, counts, ids)),
                    schema,
                },
                PhysPlan::HashJoin {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    right_keep,
                    post,
                    schema,
                } => PhysPlan::HashJoin {
                    left: Box::new(rewrite(*left, counts, ids)),
                    right: Box::new(rewrite(*right, counts, ids)),
                    left_keys,
                    right_keys,
                    right_keep,
                    post,
                    schema,
                },
                PhysPlan::SemiJoin { left, right, left_keys, right_keys, schema } => {
                    PhysPlan::SemiJoin {
                        left: Box::new(rewrite(*left, counts, ids)),
                        right: Box::new(rewrite(*right, counts, ids)),
                        left_keys,
                        right_keys,
                        schema,
                    }
                }
                PhysPlan::AntiJoin { left, right, left_keys, right_keys, schema } => {
                    PhysPlan::AntiJoin {
                        left: Box::new(rewrite(*left, counts, ids)),
                        right: Box::new(rewrite(*right, counts, ids)),
                        left_keys,
                        right_keys,
                        schema,
                    }
                }
                PhysPlan::Union { left, right, schema } => PhysPlan::Union {
                    left: Box::new(rewrite(*left, counts, ids)),
                    right: Box::new(rewrite(*right, counts, ids)),
                    schema,
                },
                PhysPlan::Diff { left, right, schema } => PhysPlan::Diff {
                    left: Box::new(rewrite(*left, counts, ids)),
                    right: Box::new(rewrite(*right, counts, ids)),
                    schema,
                },
            }
        }

        let mut counts = std::collections::HashMap::new();
        count(&plan, &mut counts);
        let mut ids = Ids { by_fingerprint: std::collections::HashMap::new(), next: 0 };
        rewrite(plan, &counts, &mut ids)
    }

    /// The value-numbered pass must rewrite `plan` exactly as the oracle.
    fn assert_cse_matches_oracle(plan: PhysPlan, what: &str) {
        let ours = share_common_subplans(plan.clone());
        let oracle = debug_string_cse(plan);
        assert_eq!(explain(&ours), explain(&oracle), "{what}");
        assert_eq!(ours, oracle, "{what}");
        assert_eq!(format!("{ours:?}"), format!("{oracle:?}"), "{what}");
    }

    /// One textual form (`sql`, `ra` or `trc`) of every suite query,
    /// decoded from `relviz_core::suite`'s source: that crate depends on
    /// this one, so its `SUITE` cannot be linked into these tests.
    fn suite_forms(field: &str) -> Vec<String> {
        let src = include_str!("../../core/src/suite.rs");
        let tag = format!(" {field}: \"");
        src.match_indices(&tag)
            .map(|(at, _)| {
                let mut text = String::new();
                let mut rest = &src[at + tag.len()..];
                while let Some(c) = rest.chars().next() {
                    rest = &rest[c.len_utf8()..];
                    match c {
                        '"' => break,
                        // A line continuation skips the newline and the
                        // next line's indentation.
                        '\\' if rest.starts_with('\n') => rest = rest.trim_start(),
                        '\\' => {}
                        c => text.push(c),
                    }
                }
                text
            })
            .collect()
    }

    #[test]
    fn cse_matches_oracle_on_every_suite_plan() {
        let db = sailors_sample();
        let (sql, ra, trc) = (suite_forms("sql"), suite_forms("ra"), suite_forms("trc"));
        assert_eq!((sql.len(), ra.len(), trc.len()), (8, 8, 8), "suite forms decoded");
        for cfg in [OptConfig::optimized(), OptConfig::unoptimized()] {
            let src = Source::from(&db);
            for text in &ra {
                let e = relviz_ra::parse::parse_ra(text).expect("suite RA parses");
                let plan = ra_before_cse(&e, &src, cfg).expect("suite RA plans");
                assert_cse_matches_oracle(plan, text);
            }
            let from_sql = sql.iter().map(|t| {
                relviz_rc::from_sql::parse_sql_to_trc(t, &db).expect("suite SQL translates")
            });
            let parsed = trc.iter().map(|t| relviz_rc::trc_parse::parse_trc(t).expect("parses"));
            for q in from_sql.chain(parsed) {
                let plan = trc_before_cse(&q, &src, cfg).expect("suite TRC plans");
                assert_cse_matches_oracle(plan, &q.to_string());
            }
        }
    }

    /// A seeded generator of nested `∃`/`¬∃`/`∨`/`¬`/`∀` TRC formulas over
    /// the sailors schema: every comparison is well-typed, and every
    /// quantifier body correlates its new variable with an outer one.
    struct FormulaGen {
        state: u64,
        vars: usize,
    }

    impl FormulaGen {
        /// Knuth's MMIX LCG; the high bits are the well-mixed ones.
        fn below(&mut self, n: u64) -> u64 {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.state >> 33) % n
        }

        /// A comparison over the variables in `scope`, or a constant test
        /// on the innermost one.
        fn atom(&mut self, scope: &[(String, &'static str)]) -> TrcFormula {
            use relviz_model::{CmpOp, Value};
            let (var, rel) = scope.last().expect("scope is never empty");
            let attr = |v: &str, a: &str| TrcTerm::attr(v, a);
            let partner = &scope[self.below(scope.len() as u64) as usize];
            let correlate = match (*rel, partner.1) {
                ("Reserves", "Sailor") | ("Sailor", "Reserves") | ("Sailor", "Sailor") => {
                    Some(TrcFormula::eq(attr(var, "sid"), attr(&partner.0, "sid")))
                }
                ("Reserves", "Boat") | ("Boat", "Reserves") | ("Boat", "Boat") => {
                    Some(TrcFormula::eq(attr(var, "bid"), attr(&partner.0, "bid")))
                }
                _ => None,
            };
            if let Some(f) = correlate.filter(|_| self.below(2) == 0) {
                return f;
            }
            let ops = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Ge];
            let op = ops[self.below(4) as usize];
            let (a, v): (&str, Value) = match (*rel, self.below(3)) {
                ("Sailor", 0) => ("rating", Value::Int(self.below(10) as i64)),
                ("Sailor", 1) => ("age", Value::Float([-0.0, 0.0, 35.0][self.below(3) as usize])),
                ("Sailor", _) => ("sname", Value::str(["dustin", "lubber"][self.below(2) as usize])),
                ("Boat", 0 | 1) => ("color", Value::str(["red", "green"][self.below(2) as usize])),
                ("Boat", _) => ("bid", Value::Int(101 + self.below(4) as i64)),
                (_, 0 | 1) => ("bid", Value::Int(101 + self.below(4) as i64)),
                (_, _) => ("sid", Value::Int(self.below(100) as i64)),
            };
            TrcFormula::cmp(attr(var, a), op, TrcTerm::val(v))
        }

        fn formula(&mut self, depth: u32, scope: &mut Vec<(String, &'static str)>) -> TrcFormula {
            if depth == 0 {
                return self.atom(scope);
            }
            match self.below(7) {
                0 => self.atom(scope),
                1 => self.formula(depth - 1, scope).and(self.formula(depth - 1, scope)),
                2 => self.formula(depth - 1, scope).or(self.formula(depth - 1, scope)),
                3 => self.formula(depth - 1, scope).not(),
                k => {
                    let rel = ["Sailor", "Boat", "Reserves"][self.below(3) as usize];
                    self.vars += 1;
                    let var = format!("v{}", self.vars);
                    scope.push((var.clone(), rel));
                    let body = self.atom(scope).and(self.formula(depth - 1, scope));
                    scope.pop();
                    let bindings = vec![Binding::new(var, rel)];
                    match k {
                        4 => TrcFormula::exists(bindings, body),
                        5 => TrcFormula::exists(bindings, body).not(),
                        _ => TrcFormula::forall(bindings, body),
                    }
                }
            }
        }
    }

    #[test]
    fn cse_matches_oracle_on_generated_nested_formulas() {
        let db = sailors_sample();
        let src = Source::from(&db);
        let mut shared = 0;
        for seed in 0..150u64 {
            let mut gen = FormulaGen { state: seed, vars: 0 };
            let mut scope = vec![("s".to_string(), "Sailor")];
            let body = gen.formula(1 + (seed % 3) as u32, &mut scope);
            let q = TrcQuery::single(relviz_rc::trc::TrcBranch {
                bindings: vec![Binding::new("s", "Sailor")],
                head: vec![("sname".to_string(), TrcTerm::attr("s", "sname"))],
                body: Some(body),
            });
            for cfg in [OptConfig::optimized(), OptConfig::unoptimized()] {
                let plan = trc_before_cse(&q, &src, cfg)
                    .unwrap_or_else(|e| panic!("seed {seed}: {q} does not plan: {e}"));
                let shared_plan = share_common_subplans(plan.clone());
                shared += usize::from(explain(&shared_plan).contains("Shared #"));
                assert_cse_matches_oracle(plan, &format!("seed {seed}: {q}"));
            }
        }
        assert!(shared > 50, "the generator must exercise sharing ({shared} plans shared)");
    }

    /// Sub-plans differing only in a constant's variant (`Int(1)` vs
    /// `Float(1.0)`, equal under `Value`'s total order), a zero's sign,
    /// or an attribute's type are not shared; identical ones are.
    #[test]
    fn cse_is_exactly_as_strict_as_debug() {
        use relviz_model::{CmpOp, DataType, Value};
        let scan = |ty| PhysPlan::Scan { rel: "R".into(), schema: Schema::of(&[("a", ty)]) };
        let filter = |ty, v: Value| {
            apply_filter(scan(ty), Predicate::cmp(Operand::attr("a"), CmpOp::Eq, Operand::Const(v)))
        };
        let shares = |l: PhysPlan, r: PhysPlan| {
            let plan = union(dedup(l), dedup(r));
            assert_cse_matches_oracle(plan.clone(), "strictness case");
            explain(&share_common_subplans(plan)).contains("Shared #0")
        };
        let (int, float) = (DataType::Int, DataType::Float);
        assert_eq!(Value::Int(1), Value::Float(1.0), "equal under the total order");
        assert!(!shares(filter(int, Value::Int(1)), filter(int, Value::Float(1.0))));
        assert!(!shares(filter(float, Value::Float(-0.0)), filter(float, Value::Float(0.0))));
        assert!(!shares(scan(int), scan(float)));
        assert!(shares(filter(int, Value::Int(1)), filter(int, Value::Int(1))));
        assert!(shares(filter(float, Value::Float(-0.0)), filter(float, Value::Float(-0.0))));
        assert!(shares(filter(float, Value::Float(f64::NAN)), filter(float, Value::Float(-f64::NAN))));
        assert!(shares(scan(float), scan(float)));
    }
}
