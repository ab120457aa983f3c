//! `exec::opt` — the cost-based optimization pass between the planners
//! and the executor.
//!
//! Four cooperating pieces:
//!
//! 1. **Statistics** ([`TableStats`]): per-column distinct counts and
//!    min/max sketches, collected on first use into the base relation's
//!    slot ([`crate::slots`]), so every query over the same database
//!    generation reuses them.
//! 2. **Cardinality estimation** ([`estimate_plan`] /
//!    [`estimate_fixpoint`]): estimated output rows propagated bottom-up
//!    through every plan node — equality selectivity `1/distinct`,
//!    inequality selectivity from the min/max range, join output via
//!    distinct-count containment `|L|·|R| / max(d_L, d_R)`, fixpoint
//!    predicates via a first-round heuristic. The estimates line up with
//!    [`crate::stats::QueryStats`]' node registration order, so EXPLAIN
//!    ANALYZE prints `est=` next to the actuals.
//! 3. **Join reordering** ([`reorder_plan`] for RA/TRC plans,
//!    [`order_atoms`] for Datalog rule bodies): greedy left-deep
//!    enumeration of hash-join chains minimizing estimated intermediate
//!    size, with the smaller side as the build input. A reordered chain
//!    is capped with a positional `Project` restoring the original
//!    output columns *by occurrence*, so results are bit-identical to
//!    the syntactic order (the differential and determinism suites
//!    enforce this). A rewrite is only kept when its estimated cost
//!    beats the syntactic plan by >5%.
//! 4. **Magic sets** ([`magic_transform`]): the demand transformation —
//!    a program whose rules call IDB predicates with bound arguments
//!    (constants, or variables bound left-to-right) is rewritten with
//!    adorned and `magic_*` demand predicates so bottom-up evaluation
//!    only materializes what the query's bindings demand. Programs
//!    without bound calls still benefit: rules unreachable from the
//!    query are dropped.
//!
//! Everything here is advisory for *performance* only: estimates may be
//! wrong (EXPLAIN ANALYZE's q-error reports by how much), but plan
//! rewrites preserve results exactly, and every fallible step falls
//! back to the syntactic plan. The whole pass is gated by the explicit
//! [`OptConfig`] every planner entry point takes (the CLI's `--no-opt`
//! builds [`OptConfig::unoptimized`]).

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::OnceLock;

use relviz_datalog::{Atom, Literal, Program, Rule, Term};
use relviz_model::{Attribute, CmpOp, Relation, Schema, Value};
use relviz_ra::{Operand, Predicate};

use crate::fixpoint::FixpointPlan;
use crate::plan::{OutputCol, PhysPlan};
use crate::slots::Source;

// ---------------------------------------------------------------------
// Optimizer configuration
// ---------------------------------------------------------------------

/// Which optimizations a planning run applies. Every planner entry
/// point takes it explicitly, so concurrent requests and A/B tests
/// never share a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Cost-based reordering of hash-join chains and rule bodies.
    pub reorder: bool,
    /// Magic-sets demand transformation for Datalog evaluation.
    pub magic: bool,
}

impl OptConfig {
    /// Everything on.
    pub fn optimized() -> OptConfig {
        OptConfig { reorder: true, magic: true }
    }

    /// Everything off — the syntactic plans.
    pub fn unoptimized() -> OptConfig {
        OptConfig { reorder: false, magic: false }
    }
}

// ---------------------------------------------------------------------
// Table statistics: distinct-count + min/max sketches
// ---------------------------------------------------------------------

/// Per-column sketch: exact distinct count plus min/max, collected in
/// one pass over the stored relation.
#[derive(Debug, Clone)]
pub struct ColSketch {
    pub distinct: usize,
    pub min: Option<Value>,
    pub max: Option<Value>,
}

/// Per-relation statistics: row count plus one [`ColSketch`] per column.
#[derive(Debug, Clone)]
pub struct TableStats {
    pub rows: usize,
    pub cols: Vec<ColSketch>,
}

impl TableStats {
    /// Collects sketches in one pass over the stored tuples. Distinct
    /// values are counted in a hash set, which counts what an ordered
    /// set would because `Value`'s `Hash` and `Eq` follow its total
    /// order; min and max keep the first-seen value of their class, as
    /// an ordered set's first and last entries would. The set keeps the
    /// default hasher: a served database's values come from clients.
    pub fn collect(rel: &Relation) -> TableStats {
        let arity = rel.schema().arity();
        let mut seen: Vec<HashSet<&Value>> =
            (0..arity).map(|_| HashSet::with_capacity(rel.len())).collect();
        let mut bounds: Vec<Option<(&Value, &Value)>> = vec![None; arity];
        for t in rel.iter() {
            for ((set, bound), v) in seen.iter_mut().zip(&mut bounds).zip(t.values()) {
                if set.insert(v) {
                    *bound = match *bound {
                        None => Some((v, v)),
                        Some((min, max)) => Some((
                            if v < min { v } else { min },
                            if v > max { v } else { max },
                        )),
                    };
                }
            }
        }
        let cols = seen
            .iter()
            .zip(bounds)
            .map(|(set, bound)| ColSketch {
                distinct: set.len(),
                min: bound.map(|(min, _)| min.clone()),
                max: bound.map(|(_, max)| max.clone()),
            })
            .collect();
        TableStats { rows: rel.len(), cols }
    }
}

/// Always 0: sketches live in each relation's slot
/// ([`crate::slots`]), not in a process-wide cache. Kept only because
/// the benchmark links it.
#[doc(hidden)]
pub fn stats_cache_len() -> usize {
    0
}

// ---------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------

/// Estimation default when a column's distinct count is unknown.
const DEFAULT_DISTINCT: f64 = 10.0;
/// Selectivity default for predicates the model can't size.
const DEFAULT_SEL: f64 = 1.0 / 3.0;
/// Row default for an IDB predicate with no estimate yet.
const DEFAULT_IDB_ROWS: f64 = 100.0;

/// Estimated column: distinct count plus a numeric range when known.
#[derive(Debug, Clone)]
struct ColEst {
    distinct: f64,
    lo: Option<f64>,
    hi: Option<f64>,
}

impl ColEst {
    fn unknown(rows: f64) -> ColEst {
        ColEst { distinct: rows.max(1.0), lo: None, hi: None }
    }
}

/// Estimated node output: rows plus per-column estimates.
#[derive(Debug, Clone)]
struct Est {
    rows: f64,
    cols: Vec<ColEst>,
}

impl Est {
    fn opaque(rows: f64, arity: usize) -> Est {
        Est { rows, cols: vec![ColEst::unknown(rows); arity] }
    }

    /// Caps every column's distinct count at the (new) row count.
    fn clamp(mut self) -> Est {
        let cap = self.rows.max(1.0);
        for c in &mut self.cols {
            c.distinct = c.distinct.min(cap).max(1.0);
        }
        self
    }
}

/// Estimation context: the catalog plus fixpoint row heuristics.
struct EstCtx<'a> {
    src: &'a Source<'a>,
    /// Estimated total rows per IDB predicate (fixpoint heuristic).
    idb: HashMap<String, f64>,
    /// Estimated per-round delta rows per IDB predicate.
    delta: HashMap<String, f64>,
}

impl<'a> EstCtx<'a> {
    fn plain(src: &'a Source<'a>) -> EstCtx<'a> {
        EstCtx { src, idb: HashMap::new(), delta: HashMap::new() }
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) if f.is_finite() => Some(*f),
        _ => None,
    }
}

fn scan_est(stats: &TableStats) -> Est {
    let rows = stats.rows as f64;
    let cols = stats
        .cols
        .iter()
        .map(|s| ColEst {
            distinct: (s.distinct as f64).max(1.0),
            lo: s.min.as_ref().and_then(numeric),
            hi: s.max.as_ref().and_then(numeric),
        })
        .collect();
    Est { rows, cols }
}

fn col_distinct(est: &Est, i: usize) -> f64 {
    est.cols.get(i).map_or(DEFAULT_DISTINCT, |c| c.distinct)
}

/// Selectivity of one comparison against the input's column estimates.
fn cmp_sel(est: &Est, schema: &Schema, left: &Operand, op: CmpOp, right: &Operand) -> f64 {
    let col = |name: &str| schema.index_of(name);
    match (left, right) {
        (Operand::Attr(a), Operand::Const(c)) | (Operand::Const(c), Operand::Attr(a)) => {
            let Some(i) = col(a) else { return DEFAULT_SEL };
            let d = col_distinct(est, i);
            // Normalize `const < attr` to `attr > const` for the range math.
            let op = if matches!(left, Operand::Const(_)) { op.flip() } else { op };
            match op {
                CmpOp::Eq => 1.0 / d,
                CmpOp::Neq => (1.0 - 1.0 / d).max(0.0),
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    let (lo, hi, c) = match (
                        est.cols.get(i).and_then(|c| c.lo),
                        est.cols.get(i).and_then(|c| c.hi),
                        numeric(c),
                    ) {
                        (Some(lo), Some(hi), Some(c)) if hi > lo => (lo, hi, c),
                        _ => return DEFAULT_SEL,
                    };
                    let frac = match op {
                        CmpOp::Lt | CmpOp::Le => (c - lo) / (hi - lo),
                        _ => (hi - c) / (hi - lo),
                    };
                    frac.clamp(0.0, 1.0)
                }
            }
        }
        (Operand::Attr(a), Operand::Attr(b)) => {
            let (Some(i), Some(j)) = (col(a), col(b)) else { return DEFAULT_SEL };
            match op {
                CmpOp::Eq => 1.0 / col_distinct(est, i).max(col_distinct(est, j)),
                CmpOp::Neq => 1.0 - 1.0 / col_distinct(est, i).max(col_distinct(est, j)),
                _ => DEFAULT_SEL,
            }
        }
        (Operand::Const(a), Operand::Const(b)) => {
            if op.holds(a.cmp(b)) {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// Selectivity of a whole predicate (independence-assumption algebra).
fn pred_sel(est: &Est, schema: &Schema, pred: &Predicate) -> f64 {
    match pred {
        Predicate::Const(true) => 1.0,
        Predicate::Const(false) => 0.0,
        Predicate::Not(p) => (1.0 - pred_sel(est, schema, p)).clamp(0.0, 1.0),
        Predicate::And(a, b) => pred_sel(est, schema, a) * pred_sel(est, schema, b),
        Predicate::Or(a, b) => {
            let (sa, sb) = (pred_sel(est, schema, a), pred_sel(est, schema, b));
            (sa + sb - sa * sb).clamp(0.0, 1.0)
        }
        Predicate::Cmp { left, op, right } => cmp_sel(est, schema, left, *op, right),
    }
}

/// Applies a filter predicate to an estimate: scales rows, refines the
/// filtered column under `attr = const` (distinct 1, pinned range).
fn filter_est(input: Est, schema: &Schema, pred: &Predicate) -> Est {
    let sel = pred_sel(&input, schema, pred);
    let mut out = Est { rows: (input.rows * sel).max(0.0), cols: input.cols };
    if let Predicate::Cmp { left, op: CmpOp::Eq, right } = pred {
        if let (Operand::Attr(a), Operand::Const(c)) | (Operand::Const(c), Operand::Attr(a)) =
            (left, right)
        {
            if let Some(col) = schema.index_of(a).and_then(|i| out.cols.get_mut(i)) {
                col.distinct = 1.0;
                col.lo = numeric(c);
                col.hi = numeric(c);
            }
        }
    }
    out.clamp()
}

/// Distinct-count containment estimate for an equi-join.
fn join_est(
    left: &Est,
    right: &Est,
    left_keys: &[usize],
    right_keys: &[usize],
    right_keep: &[usize],
    post: Option<&Predicate>,
) -> Est {
    let mut rows = left.rows * right.rows;
    for (lk, rk) in left_keys.iter().zip(right_keys) {
        rows /= col_distinct(left, *lk).max(col_distinct(right, *rk));
    }
    if post.is_some() {
        rows *= DEFAULT_SEL;
    }
    let key_of: HashMap<usize, usize> =
        right_keys.iter().zip(left_keys).map(|(rk, lk)| (*rk, *lk)).collect();
    let mut cols: Vec<ColEst> = left.cols.clone();
    // Join columns take the smaller side's distinct count (containment).
    for (lk, rk) in left_keys.iter().zip(right_keys) {
        if let Some(c) = cols.get_mut(*lk) {
            c.distinct = c.distinct.min(col_distinct(right, *rk));
        }
    }
    for rk in right_keep {
        let mut c = right.cols.get(*rk).cloned().unwrap_or_else(|| ColEst::unknown(right.rows));
        if let Some(lk) = key_of.get(rk) {
            c.distinct = c.distinct.min(col_distinct(left, *lk));
        }
        cols.push(c);
    }
    Est { rows: rows.max(0.0), cols }.clamp()
}

/// Fraction of left rows with at least one key match on the right.
fn semi_frac(left: &Est, right: &Est, left_keys: &[usize], right_keys: &[usize]) -> f64 {
    if right.rows <= 0.0 {
        return 0.0;
    }
    if left_keys.is_empty() {
        return 1.0;
    }
    let mut frac = 1.0;
    for (lk, rk) in left_keys.iter().zip(right_keys) {
        let dl = col_distinct(left, *lk);
        frac *= dl.min(col_distinct(right, *rk)) / dl.max(1.0);
    }
    frac.clamp(0.0, 1.0)
}

/// Bottom-up estimate walk. Pushes one `est_rows` entry per node in the
/// same pre-order [`crate::stats::QueryStats`] registers nodes in, so
/// the vector indexes by node id.
fn walk(plan: &PhysPlan, ctx: &EstCtx<'_>, out: &mut Vec<f64>) -> Est {
    let slot = out.len();
    out.push(0.0);
    let est = match plan {
        PhysPlan::Scan { rel, schema } => match ctx.src.stats(rel) {
            Some(stats) => scan_est(stats),
            None => Est::opaque(DEFAULT_IDB_ROWS, schema.arity()),
        },
        PhysPlan::ScanIdb { rel, schema } => {
            let rows = ctx.idb.get(rel).copied().unwrap_or(DEFAULT_IDB_ROWS);
            Est::opaque(rows, schema.arity())
        }
        PhysPlan::ScanDelta { rel, schema } => {
            let rows = ctx.delta.get(rel).copied().unwrap_or(1.0);
            Est::opaque(rows, schema.arity())
        }
        PhysPlan::Values { rows, schema } => {
            let mut est = Est::opaque(rows.len() as f64, schema.arity());
            for (i, c) in est.cols.iter_mut().enumerate() {
                let distinct: BTreeSet<&Value> =
                    rows.iter().filter_map(|t| t.values().get(i)).collect();
                c.distinct = (distinct.len() as f64).max(1.0);
                c.lo = distinct.iter().next().and_then(|v| numeric(v));
                c.hi = distinct.iter().next_back().and_then(|v| numeric(v));
            }
            est
        }
        PhysPlan::Filter { pred, input, .. } => {
            let schema = input.schema().clone();
            let in_est = walk(input, ctx, out);
            filter_est(in_est, &schema, pred)
        }
        PhysPlan::Project { cols, input, .. } => {
            let in_est = walk(input, ctx, out);
            let out_cols = cols
                .iter()
                .map(|c| match c {
                    OutputCol::Pos(i) => {
                        in_est.cols.get(*i).cloned().unwrap_or_else(|| ColEst::unknown(in_est.rows))
                    }
                    OutputCol::Const(v) => {
                        ColEst { distinct: 1.0, lo: numeric(v), hi: numeric(v) }
                    }
                })
                .collect();
            Est { rows: in_est.rows, cols: out_cols }
        }
        PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post, .. } => {
            let le = walk(left, ctx, out);
            let re = walk(right, ctx, out);
            join_est(&le, &re, left_keys, right_keys, right_keep, post.as_ref())
        }
        PhysPlan::SemiJoin { left, right, left_keys, right_keys, .. } => {
            let le = walk(left, ctx, out);
            let re = walk(right, ctx, out);
            let frac = semi_frac(&le, &re, left_keys, right_keys);
            Est { rows: le.rows * frac, cols: le.cols }.clamp()
        }
        PhysPlan::AntiJoin { left, right, left_keys, right_keys, .. } => {
            let le = walk(left, ctx, out);
            let re = walk(right, ctx, out);
            let frac = semi_frac(&le, &re, left_keys, right_keys);
            Est { rows: le.rows * (1.0 - frac), cols: le.cols }.clamp()
        }
        PhysPlan::Union { left, right, .. } => {
            let le = walk(left, ctx, out);
            let re = walk(right, ctx, out);
            let cols = le
                .cols
                .iter()
                .zip(&re.cols)
                .map(|(a, b)| ColEst {
                    distinct: a.distinct + b.distinct,
                    lo: match (a.lo, b.lo) {
                        (Some(x), Some(y)) => Some(x.min(y)),
                        _ => None,
                    },
                    hi: match (a.hi, b.hi) {
                        (Some(x), Some(y)) => Some(x.max(y)),
                        _ => None,
                    },
                })
                .collect();
            Est { rows: le.rows + re.rows, cols }.clamp()
        }
        PhysPlan::Diff { left, right, .. } => {
            let le = walk(left, ctx, out);
            walk(right, ctx, out);
            le
        }
        PhysPlan::Dedup { input, .. } => {
            let in_est = walk(input, ctx, out);
            // Distinct tuples are at most the product of column distincts.
            let cap = in_est.cols.iter().fold(1.0_f64, |acc, c| {
                (acc * c.distinct).min(in_est.rows.max(1.0))
            });
            Est { rows: in_est.rows.min(cap), cols: in_est.cols }.clamp()
        }
        PhysPlan::Shared { input, .. } => walk(input, ctx, out),
    };
    if let Some(s) = out.get_mut(slot) {
        *s = est.rows;
    }
    est
}

/// Estimate of a plan's output rows alone (no per-node trace).
fn quiet_est(plan: &PhysPlan, ctx: &EstCtx<'_>) -> Est {
    let mut scratch = Vec::new();
    walk(plan, ctx, &mut scratch)
}

/// Per-node `est_rows` for a plain plan, in [`crate::stats::QueryStats`]
/// registration (pre-)order.
pub fn estimate_plan<'a>(plan: &PhysPlan, db: impl Into<Source<'a>>) -> Vec<f64> {
    let src = db.into();
    let ctx = EstCtx::plain(&src);
    let mut out = Vec::with_capacity(plan.node_count());
    walk(plan, &ctx, &mut out);
    out
}

/// Per-node `est_rows` for a fixpoint plan, in registration order (per
/// stratum, per rule: the full plan then each delta variant).
///
/// IDB sizes use a first-round heuristic: each rule's round-0 output is
/// estimated with same-stratum predicates near-empty, summed per head
/// predicate; a recursive stratum is then re-estimated once with those
/// seeds installed (a damped second round standing in for the fixpoint).
/// Deltas are sized at the first-round estimate.
pub fn estimate_fixpoint<'a>(plan: &FixpointPlan, db: impl Into<Source<'a>>) -> Vec<f64> {
    let src = db.into();
    let mut ctx = EstCtx::plain(&src);
    for stratum in &plan.strata {
        let mut first: HashMap<String, f64> = HashMap::new();
        for rule in &stratum.rules {
            let est = quiet_est(&rule.full, &ctx);
            *first.entry(rule.head.clone()).or_insert(0.0) += est.rows;
        }
        for (p, rows) in &first {
            ctx.idb.insert(p.clone(), rows.max(1.0));
            ctx.delta.insert(p.clone(), rows.max(1.0));
        }
        if stratum.recursive {
            let mut second: HashMap<String, f64> = HashMap::new();
            for rule in &stratum.rules {
                let est = quiet_est(&rule.full, &ctx);
                *second.entry(rule.head.clone()).or_insert(0.0) += est.rows;
            }
            for (p, rows) in second {
                let seed = first.get(&p).copied().unwrap_or(1.0);
                ctx.idb.insert(p, rows.max(seed).max(1.0));
            }
        }
    }
    let mut out = Vec::new();
    for stratum in &plan.strata {
        for rule in &stratum.rules {
            walk(&rule.full, &ctx, &mut out);
            for dv in &rule.deltas {
                walk(&dv.plan, &ctx, &mut out);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Cost-based join reordering (RA/TRC plans)
// ---------------------------------------------------------------------

/// A rewrite must beat the syntactic plan's estimated cost by >5% to be
/// kept — estimates are fuzzy, and keeping near-ties avoids churning
/// every pinned plan for nothing.
const IMPROVEMENT: f64 = 0.95;

/// Chains longer than this fall back to the syntactic order (greedy is
/// quadratic; real queries never get close).
const MAX_CHAIN: usize = 12;

/// An equi-join predicate between two chain leaves, as a
/// `(leaf, col) = (leaf, col)` pair.
type JoinPred = ((usize, usize), (usize, usize));

/// A flattened hash-join chain: its leaf plans (borrowed from the plan;
/// [`rebuild`] clones them only when a new order is kept), the equi-join
/// predicates as `(leaf, col) = (leaf, col)` pairs, and the root's
/// output columns as leaf-column occurrences.
struct Chain<'p> {
    leaves: Vec<&'p PhysPlan>,
    preds: Vec<JoinPred>,
    out: Vec<(usize, usize)>,
}

/// Flattens a maximal residual-free hash-join chain; any other node is a
/// one-leaf chain. Joins carrying a residual `post` predicate terminate
/// the chain (their predicate is written in the *inputs'* names, which
/// reordering would invalidate). `None` when a key or kept column is
/// outside its input's columns.
fn flatten(plan: &PhysPlan) -> Option<Chain<'_>> {
    let PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post: None, .. } =
        plan
    else {
        let arity = plan.schema().arity();
        return Some(Chain {
            leaves: vec![plan],
            preds: Vec::new(),
            out: (0..arity).map(|c| (0, c)).collect(),
        });
    };
    let lc = flatten(left)?;
    let mut rc = flatten(right)?;
    let off = lc.leaves.len();
    for ((al, _), (bl, _)) in &mut rc.preds {
        *al += off;
        *bl += off;
    }
    for (l, _) in &mut rc.out {
        *l += off;
    }
    let mut preds = lc.preds;
    preds.extend(rc.preds);
    for (lk, rk) in left_keys.iter().zip(right_keys) {
        preds.push((*lc.out.get(*lk)?, *rc.out.get(*rk)?));
    }
    let mut out = lc.out;
    for rk in right_keep {
        out.push(*rc.out.get(*rk)?);
    }
    let mut leaves = lc.leaves;
    leaves.extend(rc.leaves);
    Some(Chain { leaves, preds, out })
}

/// Estimated cost of executing a join chain in its written order: every
/// join pays its build input's rows plus its output rows (probe work
/// tracks output size). `leaf_ests` yields the estimates of the chain's
/// leaves in [`flatten`] order.
fn tree_cost(plan: &PhysPlan, leaf_ests: &mut std::slice::Iter<'_, Est>) -> Option<(Est, f64)> {
    match plan {
        PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post: None, .. } => {
            let (le, lcost) = tree_cost(left, leaf_ests)?;
            let (re, rcost) = tree_cost(right, leaf_ests)?;
            let est = join_est(&le, &re, left_keys, right_keys, right_keep, None);
            let cost = lcost + rcost + re.rows + est.rows;
            Some((est, cost))
        }
        _ => Some((leaf_ests.next()?.clone(), 0.0)),
    }
}

/// One greedy placement step: the estimate of joining the accumulated
/// left side with leaf `j`, given current per-column distincts.
fn step_est(
    acc_rows: f64,
    acc_d: &HashMap<(usize, usize), f64>,
    leaf: &Est,
    j: usize,
    placed: &[bool],
    preds: &[JoinPred],
) -> f64 {
    let mut rows = acc_rows * leaf.rows;
    for (a, b) in preds {
        let (acc_col, leaf_col) = if placed.get(a.0) == Some(&true) && b.0 == j {
            (*a, b.1)
        } else if placed.get(b.0) == Some(&true) && a.0 == j {
            (*b, a.1)
        } else {
            continue;
        };
        let da = acc_d.get(&acc_col).copied().unwrap_or(DEFAULT_DISTINCT);
        let db = leaf.cols.get(leaf_col).map_or(DEFAULT_DISTINCT, |c| c.distinct);
        rows /= da.max(db);
    }
    rows.max(0.0)
}

fn connected(j: usize, placed: &[bool], preds: &[JoinPred]) -> bool {
    preds.iter().any(|(a, b)| {
        (placed.get(a.0) == Some(&true) && b.0 == j)
            || (placed.get(b.0) == Some(&true) && a.0 == j)
    })
}

/// Greedy left-deep order over the chain's leaves. Returns the order
/// and its estimated cost (Σ build rows + intermediate rows).
fn greedy_order(chain: &Chain, ests: &[Est]) -> (Vec<usize>, f64) {
    let n = chain.leaves.len();
    let rows_of = |i: usize| ests.get(i).map_or(DEFAULT_IDB_ROWS, |e| e.rows);
    // Start pair: min (build + output) over ordered (probe, build) pairs.
    let mut best: Option<(f64, usize, usize)> = None;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let mut placed = vec![false; n];
            if let Some(p) = placed.get_mut(i) {
                *p = true;
            }
            let acc_d = leaf_distincts(i, ests, rows_of(i));
            let out = match ests.get(i) {
                Some(ei) => step_est(ei.rows, &acc_d, est_or_default(ests, j), j, &placed, &chain.preds),
                None => f64::INFINITY,
            };
            let cost = out + rows_of(j);
            if best.is_none_or(|(bc, _, _)| cost < bc) {
                best = Some((cost, i, j));
            }
        }
    }
    let Some((_, first, second)) = best else {
        return ((0..n).collect(), f64::INFINITY);
    };
    simulate_order_from(chain, ests, first, second)
}

fn est_or_default(ests: &[Est], j: usize) -> &Est {
    static FALLBACK: OnceLock<Est> = OnceLock::new();
    ests.get(j).unwrap_or_else(|| {
        FALLBACK.get_or_init(|| Est::opaque(DEFAULT_IDB_ROWS, 0))
    })
}

fn leaf_distincts(i: usize, ests: &[Est], rows: f64) -> HashMap<(usize, usize), f64> {
    let mut acc_d = HashMap::new();
    if let Some(e) = ests.get(i) {
        for (c, col) in e.cols.iter().enumerate() {
            acc_d.insert((i, c), col.distinct.min(rows.max(1.0)));
        }
    }
    acc_d
}

/// Completes a greedy order starting from `(first, second)`, preferring
/// connected leaves with the smallest estimated intermediate.
fn simulate_order_from(
    chain: &Chain,
    ests: &[Est],
    first: usize,
    second: usize,
) -> (Vec<usize>, f64) {
    let n = chain.leaves.len();
    let mut order = vec![first];
    let mut placed = vec![false; n];
    if let Some(p) = placed.get_mut(first) {
        *p = true;
    }
    let rows_first = est_or_default(ests, first).rows;
    let mut acc_d = leaf_distincts(first, ests, rows_first);
    let mut acc_rows = rows_first;
    let mut cost = 0.0;
    let mut next = Some(second);
    while order.len() < n {
        let j = match next.take() {
            Some(j) => j,
            None => {
                // Prefer connected candidates; cross products only when
                // the predicate graph is disconnected.
                let mut best: Option<(f64, usize)> = None;
                for j in 0..n {
                    if placed.get(j) == Some(&true) {
                        continue;
                    }
                    let is_conn = connected(j, &placed, &chain.preds);
                    let any_conn = (0..n).any(|k| {
                        placed.get(k) == Some(&false) && connected(k, &placed, &chain.preds)
                    });
                    if any_conn && !is_conn {
                        continue;
                    }
                    let out = step_est(
                        acc_rows,
                        &acc_d,
                        est_or_default(ests, j),
                        j,
                        &placed,
                        &chain.preds,
                    );
                    let score = out + est_or_default(ests, j).rows;
                    if best.is_none_or(|(bs, _)| score < bs) {
                        best = Some((score, j));
                    }
                }
                match best {
                    Some((_, j)) => j,
                    None => break,
                }
            }
        };
        let leaf = est_or_default(ests, j);
        let out = step_est(acc_rows, &acc_d, leaf, j, &placed, &chain.preds);
        cost += leaf.rows + out;
        if let Some(p) = placed.get_mut(j) {
            *p = true;
        }
        order.push(j);
        acc_rows = out;
        for d in acc_d.values_mut() {
            *d = d.min(acc_rows.max(1.0));
        }
        for (c, col) in leaf.cols.iter().enumerate() {
            acc_d.insert((j, c), col.distinct.min(acc_rows.max(1.0)));
        }
    }
    (order, cost)
}

/// Rebuilds a left-deep join chain in `order`, keeping every leaf
/// column, then restores the original output occurrences positionally.
/// Returns `None` (caller keeps the syntactic plan) on any naming or
/// bookkeeping failure.
fn rebuild(chain: &Chain, order: &[usize], original_schema: &Schema) -> Option<PhysPlan> {
    // Stable per-(leaf, col) attribute names, uniquified chain-wide so
    // every intermediate schema is valid regardless of join order.
    let mut used: HashSet<String> = HashSet::new();
    let mut names: HashMap<(usize, usize), Attribute> = HashMap::new();
    for (l, leaf) in chain.leaves.iter().enumerate() {
        for (c, attr) in leaf.schema().attrs().iter().enumerate() {
            let mut name = attr.name.clone();
            let mut k = 2;
            while !used.insert(name.clone()) {
                name = format!("{}_{k}", attr.name);
                k += 1;
            }
            names.insert((l, c), Attribute::new(name, attr.ty));
        }
    }
    let mut it = order.iter();
    let first = *it.next()?;
    let mut acc = PhysPlan::clone(chain.leaves.get(first)?);
    let mut acc_cols: Vec<(usize, usize)> =
        (0..acc.schema().arity()).map(|c| (first, c)).collect();
    let mut placed = vec![false; chain.leaves.len()];
    *placed.get_mut(first)? = true;
    for &j in it {
        let leaf = PhysPlan::clone(chain.leaves.get(j)?);
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (a, b) in &chain.preds {
            let (acc_col, leaf_col) = if placed.get(a.0) == Some(&true) && b.0 == j {
                (*a, b.1)
            } else if placed.get(b.0) == Some(&true) && a.0 == j {
                (*b, a.1)
            } else {
                continue;
            };
            let pos = acc_cols.iter().position(|c| *c == acc_col)?;
            if !left_keys.iter().zip(&right_keys).any(|(l, r)| (*l, *r) == (pos, leaf_col)) {
                left_keys.push(pos);
                right_keys.push(leaf_col);
            }
        }
        let arity = leaf.schema().arity();
        let mut attrs: Vec<Attribute> =
            acc_cols.iter().map(|c| names.get(c).cloned()).collect::<Option<_>>()?;
        for c in 0..arity {
            attrs.push(names.get(&(j, c)).cloned()?);
        }
        let schema = Schema::new(attrs).ok()?;
        acc = PhysPlan::HashJoin {
            left: Box::new(acc),
            right: Box::new(leaf),
            left_keys,
            right_keys,
            right_keep: (0..arity).collect(),
            post: None,
            schema,
        };
        acc_cols.extend((0..arity).map(|c| (j, c)));
        *placed.get_mut(j)? = true;
    }
    // Restore the root's exact output occurrences (bit-identity: every
    // output cell comes from the same leaf column as before).
    let cols = chain
        .out
        .iter()
        .map(|oc| acc_cols.iter().position(|c| c == oc).map(OutputCol::Pos))
        .collect::<Option<Vec<_>>>()?;
    Some(PhysPlan::Project { cols, input: Box::new(acc), schema: original_schema.clone() })
}

/// Cost-based reordering of every residual-free hash-join chain in the
/// plan. Results are bit-identical to the input plan's; only join order,
/// build sides, and intermediate schemas change.
pub(crate) fn reorder_plan(plan: PhysPlan, src: &Source<'_>) -> PhysPlan {
    let ctx = EstCtx::plain(src);
    rewrite(plan, &ctx)
}

fn rewrite(plan: PhysPlan, ctx: &EstCtx<'_>) -> PhysPlan {
    if let PhysPlan::HashJoin { post: None, .. } = &plan {
        if let Some(better) = try_reorder(&plan, ctx) {
            return better;
        }
    }
    plan.map_children(|c| rewrite(c, ctx))
}

fn try_reorder(plan: &PhysPlan, ctx: &EstCtx<'_>) -> Option<PhysPlan> {
    let chain = flatten(plan)?;
    let n = chain.leaves.len();
    if !(2..=MAX_CHAIN).contains(&n) {
        return None;
    }
    let ests: Vec<Est> = chain.leaves.iter().map(|l| quiet_est(l, ctx)).collect();
    let (_, orig_cost) = tree_cost(plan, &mut ests.iter())?;
    let (order, new_cost) = greedy_order(&chain, &ests);
    if order.len() != n || new_cost >= orig_cost * IMPROVEMENT {
        return None;
    }
    let rebuilt = rebuild(&chain, &order, plan.schema())?;
    // Leaves may contain further chains (e.g. below a residual join).
    Some(map_children_shallow_leaves(rebuilt, ctx))
}

/// Recurses optimization into the *leaves* of a freshly rebuilt chain
/// (the chain's own joins are already in their final order).
fn map_children_shallow_leaves(plan: PhysPlan, ctx: &EstCtx<'_>) -> PhysPlan {
    match plan {
        PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post, schema } => {
            let left = Box::new(map_children_shallow_leaves(*left, ctx));
            let right = Box::new((*right).map_children(|c| rewrite(c, ctx)));
            PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post, schema }
        }
        PhysPlan::Project { cols, input, schema } => {
            let input = Box::new(map_children_shallow_leaves(*input, ctx));
            PhysPlan::Project { cols, input, schema }
        }
        other => other.map_children(|c| rewrite(c, ctx)),
    }
}

// ---------------------------------------------------------------------
// Datalog rule-body ordering
// ---------------------------------------------------------------------

/// Estimate for one body atom: rows, plus a distinct count per variable.
struct AtomEst {
    rows: f64,
    var_d: HashMap<String, f64>,
    /// Builds on EDB atoms are ~free (the hash index is cached on the
    /// materialized batch across fixpoint rounds); IDB/delta builds are
    /// rebuilt every round and priced at their row estimate.
    build: f64,
}

fn atom_est(atom: &Atom, is_delta: bool, is_idb: bool, src: &Source<'_>) -> AtomEst {
    if is_delta {
        let var_d = atom.vars().map(|v| (v.to_string(), 1.0)).collect();
        return AtomEst { rows: 1.0, var_d, build: 1.0 };
    }
    if is_idb {
        let var_d = atom.vars().map(|v| (v.to_string(), DEFAULT_IDB_ROWS)).collect();
        return AtomEst { rows: DEFAULT_IDB_ROWS, var_d, build: DEFAULT_IDB_ROWS };
    }
    let stats = match src.stats(&atom.rel) {
        Some(stats) => stats,
        None => {
            let var_d = atom.vars().map(|v| (v.to_string(), DEFAULT_IDB_ROWS)).collect();
            return AtomEst { rows: DEFAULT_IDB_ROWS, var_d, build: 0.0 };
        }
    };
    let mut rows = stats.rows as f64;
    let mut var_d: HashMap<String, f64> = HashMap::new();
    let mut seen: HashMap<&str, ()> = HashMap::new();
    for (i, term) in atom.terms.iter().enumerate() {
        let d = stats.cols.get(i).map_or(DEFAULT_DISTINCT, |c| (c.distinct as f64).max(1.0));
        match term {
            Term::Const(_) => rows /= d,
            Term::Var(v) => {
                if seen.insert(v.as_str(), ()).is_some() {
                    // Repeated variable: an in-scan equality filter.
                    rows /= d;
                }
                let entry = var_d.entry(v.clone()).or_insert(d);
                *entry = entry.min(d);
            }
        }
    }
    rows = rows.max(0.0);
    for d in var_d.values_mut() {
        *d = d.min(rows.max(1.0));
    }
    AtomEst { rows, var_d, build: 0.0 }
}

/// Cost of evaluating the positive atoms in the given order as a
/// left-deep chain: Σ per-join build rows + intermediate rows.
fn body_cost(order: &[usize], ests: &[AtomEst]) -> f64 {
    let mut it = order.iter();
    let Some(&first) = it.next() else { return 0.0 };
    let Some(e0) = ests.get(first) else { return f64::INFINITY };
    let mut acc_rows = e0.rows;
    let mut acc_d: HashMap<&str, f64> = e0.var_d.iter().map(|(v, d)| (v.as_str(), *d)).collect();
    let mut cost = 0.0;
    for &j in it {
        let Some(e) = ests.get(j) else { return f64::INFINITY };
        let mut out = acc_rows * e.rows;
        for (v, d) in &e.var_d {
            if let Some(da) = acc_d.get(v.as_str()) {
                out /= da.max(*d);
            }
        }
        cost += e.build + out;
        acc_rows = out.max(0.0);
        for d in acc_d.values_mut() {
            *d = d.min(acc_rows.max(1.0));
        }
        for (v, d) in &e.var_d {
            let entry = acc_d.entry(v.as_str()).or_insert(*d);
            *entry = entry.min(acc_rows.max(1.0));
        }
    }
    cost
}

/// Greedy cost-based order for a rule's positive body atoms. Returns a
/// permutation of `0..atoms.len()`; the identity unless the reordered
/// cost beats the syntactic order by >5%. The delta occurrence (if any)
/// is priced at one row, which drives semi-naive plans delta-first.
pub(crate) fn order_atoms(
    atoms: &[&Atom],
    delta_occ: Option<usize>,
    src: &Source<'_>,
    idb: &HashMap<String, usize>,
) -> Vec<usize> {
    let n = atoms.len();
    let identity: Vec<usize> = (0..n).collect();
    if !(2..=MAX_CHAIN).contains(&n) {
        return identity;
    }
    let ests: Vec<AtomEst> = atoms
        .iter()
        .enumerate()
        .map(|(i, a)| atom_est(a, delta_occ == Some(i), idb.contains_key(&a.rel), src))
        .collect();
    // Greedy: start at the smallest atom, then repeatedly take the
    // connected atom minimizing (build + intermediate) rows.
    let start = (0..n)
        .min_by(|&a, &b| {
            let ra = ests.get(a).map_or(f64::INFINITY, |e| e.rows);
            let rb = ests.get(b).map_or(f64::INFINITY, |e| e.rows);
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        })
        .unwrap_or(0);
    let mut order = vec![start];
    let mut bound: HashSet<&str> = atoms
        .get(start)
        .map(|a| a.vars().collect())
        .unwrap_or_default();
    while order.len() < n {
        let mut best: Option<(f64, usize)> = None;
        let any_conn = (0..n).any(|j| {
            !order.contains(&j)
                && atoms.get(j).is_some_and(|a| a.vars().any(|v| bound.contains(v)))
        });
        for j in 0..n {
            if order.contains(&j) {
                continue;
            }
            let conn = atoms.get(j).is_some_and(|a| a.vars().any(|v| bound.contains(v)));
            if any_conn && !conn {
                continue;
            }
            let mut cand = order.clone();
            cand.push(j);
            let score = body_cost(&cand, &ests);
            if best.is_none_or(|(bs, _)| score < bs) {
                best = Some((score, j));
            }
        }
        let Some((_, j)) = best else { return identity };
        order.push(j);
        if let Some(a) = atoms.get(j) {
            bound.extend(a.vars());
        }
    }
    if order == identity || body_cost(&order, &ests) >= body_cost(&identity, &ests) * IMPROVEMENT {
        identity
    } else {
        order
    }
}

// ---------------------------------------------------------------------
// Magic sets: the demand transformation
// ---------------------------------------------------------------------

/// Prefix of generated demand predicates. The Datalog analyzer's
/// dead-rule / unused-predicate lints skip predicates carrying it.
pub const MAGIC_PREFIX: &str = "magic_";

fn adornment_str(adn: &[bool]) -> String {
    adn.iter().map(|b| if *b { 'b' } else { 'f' }).collect()
}

fn adorned_name(pred: &str, adn: &[bool]) -> String {
    if adn.iter().any(|b| *b) {
        format!("{pred}_{}", adornment_str(adn))
    } else {
        pred.to_string()
    }
}

fn magic_name(pred: &str, adn: &[bool]) -> String {
    format!("{MAGIC_PREFIX}{pred}_{}", adornment_str(adn))
}

/// IDB predicates (transitively) reachable from the query.
fn reachable_preds(program: &Program, idb: &HashSet<String>) -> HashSet<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut work = vec![program.query.clone()];
    while let Some(p) = work.pop() {
        if !seen.insert(p.clone()) {
            continue;
        }
        for r in program.rules.iter().filter(|r| r.head.rel == p) {
            for l in &r.body {
                if let Literal::Pos(a) | Literal::Neg(a) = l {
                    if idb.contains(&a.rel) && !seen.contains(&a.rel) {
                        work.push(a.rel.clone());
                    }
                }
            }
        }
    }
    seen
}

/// The demand (magic-sets) transformation. Returns a rewritten program
/// computing the **same** query relation while materializing only what
/// the query's bindings demand, or `None` when no rewrite applies
/// (no bound IDB calls and nothing unreachable, IDB negation, or a
/// user predicate colliding with the `magic_` namespace).
///
/// Sideways information passing is left-to-right: a call argument is
/// bound if it is a constant or a variable bound by the rule head's
/// bound positions or any earlier positive atom. Every adorned variant
/// `p_bf(…)` is guarded by `magic_p_bf(bound args)`; magic rules derive
/// demand from each call site's guard plus the atoms preceding it.
pub fn magic_transform(program: &Program) -> Option<Program> {
    let idb: HashSet<String> = program.rules.iter().map(|r| r.head.rel.clone()).collect();
    if !idb.contains(&program.query) {
        return None;
    }
    // The generated namespace must be free.
    let collides = program.rules.iter().any(|r| {
        std::iter::once(&r.head).chain(r.body.iter().filter_map(|l| match l {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp { .. } => None,
        }))
        .any(|a| a.rel.starts_with(MAGIC_PREFIX))
    });
    if collides {
        return None;
    }
    let reachable = reachable_preds(program, &idb);
    let restricted: Vec<&Rule> =
        program.rules.iter().filter(|r| reachable.contains(&r.head.rel)).collect();
    let dropped_any = restricted.len() < program.rules.len();
    let fallback = || {
        if dropped_any {
            Some(Program {
                rules: restricted.iter().map(|r| (*r).clone()).collect(),
                query: program.query.clone(),
            })
        } else {
            None
        }
    };
    // Guarding a predicate that is *negated* elsewhere would change the
    // complement it is negated against; keep those programs whole.
    let negates_idb = restricted
        .iter()
        .any(|r| r.body.iter().any(|l| matches!(l, Literal::Neg(a) if idb.contains(&a.rel))));
    if negates_idb {
        return fallback();
    }

    let mut seen: BTreeSet<(String, Vec<bool>)> = BTreeSet::new();
    let mut work: VecDeque<(String, Vec<bool>)> = VecDeque::new();
    let query_arity = restricted
        .iter()
        .find(|r| r.head.rel == program.query)
        .map(|r| r.head.terms.len())?;
    let root = (program.query.clone(), vec![false; query_arity]);
    seen.insert(root.clone());
    work.push_back(root);

    let mut adorned_rules: Vec<Rule> = Vec::new();
    let mut magic_rules: Vec<Rule> = Vec::new();
    let mut magic_seen: HashSet<String> = HashSet::new();
    let mut any_bound = false;

    while let Some((pred, adn)) = work.pop_front() {
        for rule in restricted.iter().filter(|r| r.head.rel == pred) {
            let mut bound: HashSet<String> = rule
                .head
                .terms
                .iter()
                .zip(&adn)
                .filter(|(_, b)| **b)
                .filter_map(|(t, _)| t.as_var().map(str::to_string))
                .collect();
            let guard = if adn.iter().any(|b| *b) {
                let bound_terms: Vec<Term> = rule
                    .head
                    .terms
                    .iter()
                    .zip(&adn)
                    .filter(|(_, b)| **b)
                    .map(|(t, _)| t.clone())
                    .collect();
                Some(Atom::new(magic_name(&pred, &adn), bound_terms))
            } else {
                None
            };
            let mut new_body: Vec<Literal> = Vec::new();
            if let Some(g) = &guard {
                any_bound = true;
                new_body.push(Literal::Pos(g.clone()));
            }
            let mut preceding: Vec<Literal> = new_body.clone();
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) if idb.contains(&a.rel) => {
                        let a_adn: Vec<bool> = a
                            .terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(_) => true,
                                Term::Var(v) => bound.contains(v),
                            })
                            .collect();
                        let key = (a.rel.clone(), a_adn.clone());
                        if seen.insert(key.clone()) {
                            work.push_back(key);
                        }
                        if a_adn.iter().any(|b| *b) {
                            any_bound = true;
                            let m_head = Atom::new(
                                magic_name(&a.rel, &a_adn),
                                a.terms
                                    .iter()
                                    .zip(&a_adn)
                                    .filter(|(_, b)| **b)
                                    .map(|(t, _)| t.clone())
                                    .collect(),
                            );
                            let m_rule = Rule { head: m_head.clone(), body: preceding.clone() };
                            let self_subsuming = m_rule.body.len() == 1
                                && m_rule
                                    .body
                                    .first()
                                    .is_some_and(|l| matches!(l, Literal::Pos(b) if *b == m_head));
                            if !self_subsuming && magic_seen.insert(m_rule.to_string()) {
                                magic_rules.push(m_rule);
                            }
                        }
                        let renamed = Atom::new(adorned_name(&a.rel, &a_adn), a.terms.clone());
                        new_body.push(Literal::Pos(renamed.clone()));
                        preceding.push(Literal::Pos(renamed));
                        bound.extend(a.vars().map(str::to_string));
                    }
                    Literal::Pos(a) => {
                        new_body.push(lit.clone());
                        preceding.push(lit.clone());
                        bound.extend(a.vars().map(str::to_string));
                    }
                    Literal::Neg(_) | Literal::Cmp { .. } => new_body.push(lit.clone()),
                }
            }
            adorned_rules.push(Rule {
                head: Atom::new(adorned_name(&pred, &adn), rule.head.terms.clone()),
                body: new_body,
            });
        }
    }
    if !any_bound {
        return fallback();
    }
    let mut rules = magic_rules;
    rules.extend(adorned_rules);
    Some(Program { rules, query: program.query.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::Slots;
    use relviz_model::{DataType, Database, Tuple};

    fn int_relation(attrs: &[(&str, DataType)], rows: &[Vec<i64>]) -> Relation {
        let schema = Schema::of(attrs);
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(|v| Value::Int(*v)).collect()))
            .collect();
        Relation::from_tuples_unchecked(schema, tuples)
    }

    fn db_with(name: &str, attrs: &[(&str, DataType)], rows: &[Vec<i64>]) -> Database {
        let mut db = Database::new();
        db.set(name, int_relation(attrs, rows));
        db
    }

    #[test]
    fn sketches_count_distincts_and_ranges() {
        let db = db_with(
            "t",
            &[("a", DataType::Int), ("b", DataType::Int)],
            &[vec![1, 10], vec![2, 10], vec![2, 30]],
        );
        let stats = TableStats::collect(db.relation("t").expect("t"));
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.cols[0].distinct, 2);
        assert_eq!(stats.cols[1].distinct, 2);
        assert_eq!(stats.cols[1].min, Some(Value::Int(10)));
        assert_eq!(stats.cols[1].max, Some(Value::Int(30)));
    }

    /// The hash-set pass counts and bounds exactly what an ordered set
    /// under `Value`'s total order does, representatives included, on a
    /// column mixing the cases where that order and IEEE equality part:
    /// `Int 1 = Float 1.0`, `-0.0 ≠ 0.0`, `NaN = NaN`, and `NULL`.
    #[test]
    fn sketches_agree_with_an_ordered_set() {
        let mixed = vec![
            Value::Null,
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::NAN),
            Value::str("b"),
            Value::str("a"),
            Value::Int(-3),
        ];
        // Equal bounds in two spellings: the first-seen one is kept.
        let numeric = vec![Value::Float(1.0), Value::Int(1), Value::Int(2), Value::Float(2.0)];
        for column in [mixed, numeric] {
            let schema = Schema::of(&[("i", DataType::Int), ("v", DataType::Any)]);
            let tuples =
                (0..).zip(&column).map(|(i, v)| Tuple::new(vec![Value::Int(i), v.clone()]));
            let rel = Relation::from_tuples_unchecked(schema, tuples.collect());
            let mut ordered: BTreeSet<&Value> = BTreeSet::new();
            for t in rel.iter() {
                ordered.insert(&t.values()[1]);
            }
            let col = &TableStats::collect(&rel).cols[1];
            assert_eq!(col.distinct, ordered.len());
            assert_eq!(format!("{:?}", col.min), format!("{:?}", ordered.first()));
            assert_eq!(format!("{:?}", col.max), format!("{:?}", ordered.last()));
        }
    }

    /// Regression: sketches used to live in a process-wide cache keyed
    /// by a content fingerprint, and a fingerprint of the row count plus
    /// 16 sampled tuples let two same-schema, same-rowcount tables share
    /// one sketch (wrong distinct counts, bad join orders). Sketches now
    /// live in each database's slots, so two databases holding such
    /// tables under the same name — identical at every even position,
    /// different at every odd one — each get their own.
    #[test]
    fn same_schema_same_rowcount_tables_do_not_collide() {
        let attrs = [("a", DataType::Int), ("b", DataType::Int)];
        let rows_a: Vec<Vec<i64>> = (0..32).map(|i| vec![i, i]).collect();
        let rows_b: Vec<Vec<i64>> = (0..32)
            .map(|i| vec![i, if i % 2 == 0 { i } else { i + 1000 }])
            .collect();
        let a = db_with("t", &attrs, &rows_a);
        let b = db_with("t", &attrs, &rows_b);
        let (slots_a, slots_b) = (Slots::new(&a), Slots::new(&b));
        let (src_a, src_b) = (Source::new(&a, &slots_a), Source::new(&b, &slots_b));
        let sa = src_a.stats("t").expect("a's sketch");
        let sb = src_b.stats("t").expect("b's sketch");
        assert_eq!(sa.rows, sb.rows);
        assert_eq!(sa.cols[1].max, Some(Value::Int(31)));
        assert_eq!(
            sb.cols[1].max,
            Some(Value::Int(1031)),
            "b's sketch must reflect b's own content, not a's"
        );
        assert_eq!(sb.cols[1].distinct, 32);
    }

    #[test]
    fn magic_transform_binds_tc_goal() {
        let program = relviz_datalog::parse::parse_program(
            "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z). q(Y) :- tc(1, Y).",
        )
        .expect("parse");
        let magic = magic_transform(&program).expect("transforms");
        let text = magic.rules.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n");
        assert!(text.contains("magic_tc_bf(1)."), "seed fact in:\n{text}");
        assert!(text.contains("tc_bf(X, Y) :- magic_tc_bf(X), edge(X, Y)."), "got:\n{text}");
        assert!(
            text.contains("tc_bf(X, Z) :- magic_tc_bf(X), tc_bf(X, Y), edge(Y, Z)."),
            "got:\n{text}"
        );
        assert!(text.contains("q(Y) :- tc_bf(1, Y)."), "got:\n{text}");
        // The self-subsuming magic rule from the recursive call is skipped.
        assert!(!text.contains("magic_tc_bf(X) :- magic_tc_bf(X)."), "got:\n{text}");
    }

    #[test]
    fn magic_transform_without_bindings_drops_unreachable_only() {
        let p = relviz_datalog::parse::parse_program(
            "a(X) :- e(X). b(X) :- f(X).\n% query: a",
        )
        .expect("parse");
        let t = magic_transform(&p).expect("drops b");
        assert_eq!(t.rules.len(), 1);
        assert_eq!(t.rules[0].head.rel, "a");

        let whole = relviz_datalog::parse::parse_program("a(X) :- e(X). % query: a").expect("parse");
        assert!(magic_transform(&whole).is_none());
    }

    #[test]
    fn magic_transform_keeps_programs_with_idb_negation_whole() {
        let p = relviz_datalog::parse::parse_program(
            "r(X) :- e(X). s(X) :- e(X), not r(X). q(Y) :- s(Y), r(1).\n% query: q",
        )
        .expect("parse");
        // `r` is negated, so no guards may be added anywhere.
        assert!(magic_transform(&p).is_none());
    }

    #[test]
    fn order_atoms_puts_selective_atom_first() {
        let attrs = [("x", DataType::Int), ("y", DataType::Int)];
        let big: Vec<Vec<i64>> = (0..100).map(|i| vec![i % 10, i]).collect();
        let mut db = db_with("big", &attrs, &big);
        db.set("tiny", int_relation(&attrs, &[vec![3, 7]]));
        let a1 = Atom::new("big", vec![Term::var("A"), Term::var("B")]);
        let a2 = Atom::new("big", vec![Term::var("B"), Term::var("C")]);
        let a3 = Atom::new("tiny", vec![Term::var("C"), Term::var("D")]);
        let order = order_atoms(&[&a1, &a2, &a3], None, &Source::from(&db), &HashMap::new());
        assert_eq!(order.first(), Some(&2), "tiny atom leads: {order:?}");
    }
}
