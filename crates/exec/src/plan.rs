//! The physical plan IR and its `EXPLAIN`-style pretty-printer.
//!
//! Plans are operator trees over [`IndexedRelation`] batches. Every node
//! carries its output [`Schema`], fixed at plan time — execution never
//! re-derives names, it only resolves them to positions once per node.
//!
//! The operator set is deliberately small and physical:
//!
//! | node | implements |
//! |---|---|
//! | `Scan` | base relation access (renames folded into the schema) |
//! | `ScanIdb` | a derived predicate's accumulated relation (fixpoint state) |
//! | `ScanDelta` | a derived predicate's previous-round delta (fixpoint state) |
//! | `Values` | literal in-plan rows (Datalog facts, singleton contexts) |
//! | `Filter` | σ with a compiled predicate |
//! | `Project` | π by position, plus constant output columns |
//! | `HashJoin` | ×, ⋈ (natural), ⋈θ — equi-keys hashed, residual filtered |
//! | `SemiJoin` | ∃ / ∩ — left rows with ≥1 key match on the right |
//! | `AntiJoin` | ¬∃ — left rows with no key match on the right |
//! | `Union` | ∪ (bag append; pair with `Dedup`) |
//! | `Diff` | − (set difference on whole tuples) |
//! | `Dedup` | restores set semantics after `Project`/`Union` |
//! | `Shared` | a memoized common sub-plan: executed once per query |
//!
//! `ScanIdb` and `ScanDelta` only occur inside the recursive-query layer
//! ([`crate::fixpoint`]); executing them outside a fixpoint is an engine
//! bug the runner reports as an execution error. `Shared` is emitted by
//! the planners' common-subplan pass and must **not** wrap fixpoint
//! scans — its result is cached for the whole execution, which would go
//! stale across fixpoint rounds.
//!
//! [`IndexedRelation`]: crate::indexed::IndexedRelation

use relviz_model::{DataType, Schema, Tuple, Value};
use relviz_ra::{Operand, Predicate};

/// One output column of a `Project`: an input position or a constant
/// (constants support TRC heads like `{s.sid, 'tag' | …}`).
#[derive(Debug, Clone, PartialEq)]
pub enum OutputCol {
    Pos(usize),
    Const(Value),
}

impl OutputCol {
    /// The column's type relative to the node's input schema: the
    /// referenced attribute's type for `Pos`, the constant's own type
    /// for `Const`. An out-of-bounds position yields `Any` — the
    /// verifier flags it separately as `col-bounds`, so the type check
    /// doesn't double-report.
    pub fn data_type(&self, input: &Schema) -> DataType {
        match self {
            OutputCol::Pos(i) => input.attrs().get(*i).map_or(DataType::Any, |a| a.ty),
            OutputCol::Const(v) => v.data_type(),
        }
    }
}

/// A physical plan node. See the module docs for the operator table.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    Scan {
        rel: String,
        schema: Schema,
    },
    /// Scan of a derived predicate's **accumulated** relation in the
    /// surrounding fixpoint (IDB state, not the database).
    ScanIdb {
        rel: String,
        schema: Schema,
    },
    /// Scan of a derived predicate's **previous-round delta** in the
    /// surrounding fixpoint — the semi-naive restriction.
    ScanDelta {
        rel: String,
        schema: Schema,
    },
    /// Literal rows, fixed at plan time (Datalog facts; the singleton
    /// empty-schema context of a rule with no positive atoms).
    Values {
        rows: Vec<Tuple>,
        schema: Schema,
    },
    Filter {
        pred: Predicate,
        input: Box<PhysPlan>,
        schema: Schema,
    },
    Project {
        cols: Vec<OutputCol>,
        input: Box<PhysPlan>,
        schema: Schema,
    },
    /// Hash join: build on `right` keyed by `right_keys`, probe with
    /// `left` keyed by `left_keys`. Empty keys degrade to a cross join.
    /// `right_keep` lists the right-side positions appended to each match
    /// (natural join drops the duplicated join columns here). `post` is a
    /// residual predicate (θ-join leftovers), written in the *inputs'*
    /// attribute names — the executor compiles it against the schema
    /// `left ++ right[right_keep]`, never against this node's output
    /// schema, which a folded rename may have relabeled.
    HashJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        right_keep: Vec<usize>,
        post: Option<Predicate>,
        schema: Schema,
    },
    /// Left rows with at least one right row agreeing on the keys.
    SemiJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        schema: Schema,
    },
    /// Left rows with no right row agreeing on the keys.
    AntiJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        schema: Schema,
    },
    Union {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        schema: Schema,
    },
    Diff {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        schema: Schema,
    },
    Dedup {
        input: Box<PhysPlan>,
        schema: Schema,
    },
    /// A common sub-plan shared by several consumers: every occurrence
    /// carries the same `id` over a structurally identical `input`. The
    /// executor runs the input once per execution, caches the batch by
    /// id, and hands every other occurrence a cheap (storage-shared)
    /// clone with this node's schema applied.
    Shared {
        id: u32,
        input: Box<PhysPlan>,
        schema: Schema,
    },
}

impl PhysPlan {
    /// The output schema of this node.
    pub fn schema(&self) -> &Schema {
        match self {
            PhysPlan::Scan { schema, .. }
            | PhysPlan::ScanIdb { schema, .. }
            | PhysPlan::ScanDelta { schema, .. }
            | PhysPlan::Values { schema, .. }
            | PhysPlan::Filter { schema, .. }
            | PhysPlan::Project { schema, .. }
            | PhysPlan::HashJoin { schema, .. }
            | PhysPlan::SemiJoin { schema, .. }
            | PhysPlan::AntiJoin { schema, .. }
            | PhysPlan::Union { schema, .. }
            | PhysPlan::Diff { schema, .. }
            | PhysPlan::Dedup { schema, .. }
            | PhysPlan::Shared { schema, .. } => schema,
        }
    }

    /// Replaces the output schema (renames are pure metadata).
    pub(crate) fn set_schema(&mut self, new: Schema) {
        match self {
            PhysPlan::Scan { schema, .. }
            | PhysPlan::ScanIdb { schema, .. }
            | PhysPlan::ScanDelta { schema, .. }
            | PhysPlan::Values { schema, .. }
            | PhysPlan::Filter { schema, .. }
            | PhysPlan::Project { schema, .. }
            | PhysPlan::HashJoin { schema, .. }
            | PhysPlan::SemiJoin { schema, .. }
            | PhysPlan::AntiJoin { schema, .. }
            | PhysPlan::Union { schema, .. }
            | PhysPlan::Diff { schema, .. }
            | PhysPlan::Dedup { schema, .. }
            | PhysPlan::Shared { schema, .. } => *schema = new,
        }
    }

    /// Number of operator nodes (plan-size metric for benches/tests).
    pub fn node_count(&self) -> usize {
        match self {
            PhysPlan::Scan { .. }
            | PhysPlan::ScanIdb { .. }
            | PhysPlan::ScanDelta { .. }
            | PhysPlan::Values { .. } => 1,
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Dedup { input, .. }
            | PhysPlan::Shared { input, .. } => 1 + input.node_count(),
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::SemiJoin { left, right, .. }
            | PhysPlan::AntiJoin { left, right, .. }
            | PhysPlan::Union { left, right, .. }
            | PhysPlan::Diff { left, right, .. } => 1 + left.node_count() + right.node_count(),
        }
    }

    /// Structure-preserving map over the node's direct children, left
    /// before right.
    pub(crate) fn map_children(self, mut f: impl FnMut(PhysPlan) -> PhysPlan) -> PhysPlan {
        match self {
            leafy @ (PhysPlan::Scan { .. }
            | PhysPlan::ScanIdb { .. }
            | PhysPlan::ScanDelta { .. }
            | PhysPlan::Values { .. }) => leafy,
            PhysPlan::Filter { pred, input, schema } => {
                PhysPlan::Filter { pred, input: Box::new(f(*input)), schema }
            }
            PhysPlan::Project { cols, input, schema } => {
                PhysPlan::Project { cols, input: Box::new(f(*input)), schema }
            }
            PhysPlan::Dedup { input, schema } => {
                PhysPlan::Dedup { input: Box::new(f(*input)), schema }
            }
            PhysPlan::Shared { id, input, schema } => {
                PhysPlan::Shared { id, input: Box::new(f(*input)), schema }
            }
            PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post, schema } => {
                PhysPlan::HashJoin {
                    left: Box::new(f(*left)),
                    right: Box::new(f(*right)),
                    left_keys,
                    right_keys,
                    right_keep,
                    post,
                    schema,
                }
            }
            PhysPlan::SemiJoin { left, right, left_keys, right_keys, schema } => PhysPlan::SemiJoin {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                left_keys,
                right_keys,
                schema,
            },
            PhysPlan::AntiJoin { left, right, left_keys, right_keys, schema } => PhysPlan::AntiJoin {
                left: Box::new(f(*left)),
                right: Box::new(f(*right)),
                left_keys,
                right_keys,
                schema,
            },
            PhysPlan::Union { left, right, schema } => {
                PhysPlan::Union { left: Box::new(f(*left)), right: Box::new(f(*right)), schema }
            }
            PhysPlan::Diff { left, right, schema } => {
                PhysPlan::Diff { left: Box::new(f(*left)), right: Box::new(f(*right)), schema }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// Renders the plan as an indented `EXPLAIN` tree, one node per line.
/// A `Shared` sub-plan prints its subtree at the first occurrence only;
/// later occurrences render as a back-reference (`Shared #n ^`), which
/// is also how the executor treats them — one run, cheap reuse.
pub fn explain(plan: &PhysPlan) -> String {
    let mut out = String::new();
    write_node(&mut out, plan, 0);
    out
}

/// Renders the plan as the **parallel engine** at `threads` workers
/// would run it: operators with a partitioned path carry a `∥N`
/// annotation — `part ∥N` for the joins (hash-range build partitions,
/// row-range probe chunks) and `chunk ∥N` for filters/projections —
/// and `Shared` sub-plans that prewarm concurrently carry their
/// dependency level (`prewarm L0`; same level = runs concurrently).
/// Row thresholds are runtime decisions, so an annotation marks
/// *capability*: a small input stays on the serial path regardless.
/// With `threads <= 1` this is exactly [`explain`].
pub fn explain_parallel(plan: &PhysPlan, threads: usize) -> String {
    let mut out = String::new();
    let ann = Annotations::for_plan(plan, threads);
    write_node_seen(&mut out, plan, 0, &mut std::collections::HashSet::new(), &ann);
    out
}

/// What [`explain_parallel`] annotates: the worker count, each
/// prewarm-eligible `Shared` id's concurrency level, and — for
/// `EXPLAIN ANALYZE` — the execution's recorded per-node actuals.
pub(crate) struct Annotations<'a> {
    threads: usize,
    shared: std::collections::HashMap<u32, usize>,
    analyze: Option<&'a crate::stats::QueryStats>,
}

impl<'a> Annotations<'a> {
    pub(crate) fn serial() -> Self {
        Annotations { threads: 1, shared: std::collections::HashMap::new(), analyze: None }
    }

    pub(crate) fn for_plan(plan: &PhysPlan, threads: usize) -> Self {
        let mut shared = std::collections::HashMap::new();
        if threads > 1 {
            let levels = crate::planner::shared_levels(plan);
            if levels.iter().map(Vec::len).sum::<usize>() >= 2 {
                for (level, ids) in levels.iter().enumerate() {
                    for (id, _) in ids {
                        shared.insert(*id, level);
                    }
                }
            }
        }
        Annotations { threads, shared, analyze: None }
    }

    /// Attaches recorded runtime stats: every node line gains its
    /// `(actual rows=… …)` suffix.
    pub(crate) fn with_analyze(mut self, stats: &'a crate::stats::QueryStats) -> Self {
        self.analyze = Some(stats);
        self
    }

    /// The ` part ∥N` / ` chunk ∥N` suffix, empty on serial renders.
    fn op(&self, kind: &str) -> String {
        if self.threads > 1 {
            format!(" {kind} \u{2225}{}", self.threads)
        } else {
            String::new()
        }
    }

    /// The node's recorded-actuals suffix, empty when not analyzing.
    fn actual(&self, plan: &PhysPlan) -> String {
        self.analyze.map_or_else(String::new, |s| s.suffix(plan))
    }
}

pub(crate) fn write_node(out: &mut String, plan: &PhysPlan, depth: usize) {
    write_node_seen(
        out,
        plan,
        depth,
        &mut std::collections::HashSet::new(),
        &Annotations::serial(),
    );
}

pub(crate) fn write_node_seen(
    out: &mut String,
    plan: &PhysPlan,
    depth: usize,
    seen: &mut std::collections::HashSet<u32>,
    ann: &Annotations<'_>,
) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&node_label(plan));
    match plan {
        PhysPlan::Filter { .. } | PhysPlan::Project { .. } => out.push_str(&ann.op("chunk")),
        PhysPlan::HashJoin { .. } | PhysPlan::SemiJoin { .. } | PhysPlan::AntiJoin { .. } => {
            out.push_str(&ann.op("part"));
        }
        PhysPlan::Shared { id, .. } => {
            if let Some(level) = ann.shared.get(id) {
                out.push_str(&format!(" (prewarm L{level})"));
            }
        }
        _ => {}
    }
    // A `Shared` subtree prints at the first occurrence only; later
    // occurrences are back-references.
    let expand = match plan {
        PhysPlan::Shared { id, .. } => seen.insert(*id),
        _ => true,
    };
    if !expand {
        out.push_str(" ^");
    }
    out.push_str(&ann.actual(plan));
    out.push('\n');
    if !expand {
        return;
    }
    match plan {
        PhysPlan::Scan { .. }
        | PhysPlan::ScanIdb { .. }
        | PhysPlan::ScanDelta { .. }
        | PhysPlan::Values { .. } => {}
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Dedup { input, .. }
        | PhysPlan::Shared { input, .. } => {
            write_node_seen(out, input, depth + 1, seen, ann);
        }
        PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::SemiJoin { left, right, .. }
        | PhysPlan::AntiJoin { left, right, .. }
        | PhysPlan::Union { left, right, .. }
        | PhysPlan::Diff { left, right, .. } => {
            write_node_seen(out, left, depth + 1, seen, ann);
            write_node_seen(out, right, depth + 1, seen, ann);
        }
    }
}

/// The operator's display name — what a stats row reports as `op`.
/// A key-less `HashJoin` is reported as the `CrossJoin` it degrades to,
/// matching the EXPLAIN line.
pub(crate) fn op_name(plan: &PhysPlan) -> &'static str {
    match plan {
        PhysPlan::Scan { .. } => "Scan",
        PhysPlan::ScanIdb { .. } => "ScanIdb",
        PhysPlan::ScanDelta { .. } => "ScanDelta",
        PhysPlan::Values { .. } => "Values",
        PhysPlan::Filter { .. } => "Filter",
        PhysPlan::Project { .. } => "Project",
        PhysPlan::HashJoin { left_keys, .. } if left_keys.is_empty() => "CrossJoin",
        PhysPlan::HashJoin { .. } => "HashJoin",
        PhysPlan::SemiJoin { .. } => "SemiJoin",
        PhysPlan::AntiJoin { .. } => "AntiJoin",
        PhysPlan::Union { .. } => "Union",
        PhysPlan::Diff { .. } => "Diff",
        PhysPlan::Dedup { .. } => "Dedup",
        PhysPlan::Shared { .. } => "Shared",
    }
}

/// One node's EXPLAIN label — the line text without indentation,
/// engine annotations, or recorded actuals.
pub(crate) fn node_label(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Scan { rel, schema } => format!("Scan {rel} {schema}"),
        PhysPlan::ScanIdb { rel, schema } => format!("ScanIdb {rel} {schema}"),
        PhysPlan::ScanDelta { rel, schema } => format!("ScanDelta {rel} {schema}"),
        PhysPlan::Values { rows, schema } => {
            format!("Values {schema} ({} rows)", rows.len())
        }
        PhysPlan::Filter { pred, .. } => format!("Filter {}", fmt_pred(pred)),
        PhysPlan::Project { cols, input, schema } => {
            let parts: Vec<String> = cols
                .iter()
                .zip(schema.attrs())
                .map(|(c, a)| match c {
                    OutputCol::Pos(i) => {
                        let src = attr_name(input, *i);
                        if src == a.name {
                            src
                        } else {
                            format!("{src} as {}", a.name)
                        }
                    }
                    OutputCol::Const(v) => format!("{} as {}", v.to_literal(), a.name),
                })
                .collect();
            format!("Project [{}]", parts.join(", "))
        }
        PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post, .. } => {
            let mut label = if left_keys.is_empty() {
                "CrossJoin".to_string()
            } else {
                format!("HashJoin [{}]", fmt_keys(left, right, left_keys, right_keys))
            };
            if right_keep.len() != right.schema().arity() {
                let kept: Vec<String> =
                    right_keep.iter().map(|&i| attr_name(right, i)).collect();
                label.push_str(&format!(" keep [{}]", kept.join(", ")));
            }
            if let Some(p) = post {
                label.push_str(&format!(" filter {}", fmt_pred(p)));
            }
            label
        }
        PhysPlan::SemiJoin { left, right, left_keys, right_keys, .. } => {
            format!("SemiJoin [{}]", fmt_keys(left, right, left_keys, right_keys))
        }
        PhysPlan::AntiJoin { left, right, left_keys, right_keys, .. } => {
            format!("AntiJoin [{}]", fmt_keys(left, right, left_keys, right_keys))
        }
        PhysPlan::Union { .. } => "Union".to_string(),
        PhysPlan::Diff { .. } => "Diff".to_string(),
        PhysPlan::Dedup { .. } => "Dedup".to_string(),
        PhysPlan::Shared { id, .. } => format!("Shared #{id}"),
    }
}

/// `lname=rname, …` pairs for join keys; `*` when the keys cover every
/// left column in order (the whole-row joins the TRC planner emits).
fn fmt_keys(
    left: &PhysPlan,
    right: &PhysPlan,
    left_keys: &[usize],
    right_keys: &[usize],
) -> String {
    let whole_row = left_keys.len() == left.schema().arity()
        && left_keys.iter().enumerate().all(|(i, &k)| i == k)
        && right_keys.iter().enumerate().all(|(i, &k)| i == k);
    if whole_row {
        return "*".to_string();
    }
    left_keys
        .iter()
        .zip(right_keys)
        .map(|(&l, &r)| {
            // `attr_name` (not indexing) so EXPLAIN can render even
            // ill-formed plans — the verified variants print the plan
            // *and* the diagnostics that condemn it.
            let ln = attr_name(left, l);
            let rn = attr_name(right, r);
            if ln == rn {
                ln
            } else {
                format!("{ln}={rn}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Column `i`'s name in `plan`'s output schema, or a `#i?` placeholder
/// when the index is out of bounds (an ill-formed plan the verifier
/// flags — EXPLAIN still has to print it).
fn attr_name(plan: &PhysPlan, i: usize) -> String {
    match plan.schema().attrs().get(i) {
        Some(a) => a.name.clone(),
        None => format!("#{i}?"),
    }
}

/// Compact one-line predicate rendering (RA surface syntax).
pub(crate) fn fmt_pred(p: &Predicate) -> String {
    fn operand(o: &Operand) -> String {
        o.to_string()
    }
    fn prec(p: &Predicate) -> u8 {
        match p {
            Predicate::Or(_, _) => 1,
            Predicate::And(_, _) => 2,
            Predicate::Not(_) => 3,
            _ => 4,
        }
    }
    fn go(out: &mut String, p: &Predicate, parent: u8) {
        let me = prec(p);
        let parens = me < parent;
        if parens {
            out.push('(');
        }
        match p {
            Predicate::Const(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
            Predicate::Cmp { left, op, right } => {
                out.push_str(&format!("{} {} {}", operand(left), op.symbol(), operand(right)));
            }
            Predicate::And(a, b) => {
                go(out, a, 2);
                out.push_str(" AND ");
                go(out, b, 3);
            }
            Predicate::Or(a, b) => {
                go(out, a, 1);
                out.push_str(" OR ");
                go(out, b, 2);
            }
            Predicate::Not(a) => {
                out.push_str("NOT ");
                go(out, a, 4);
            }
        }
        if parens {
            out.push(')');
        }
    }
    let mut s = String::new();
    go(&mut s, p, 0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use relviz_model::{CmpOp, DataType};

    fn scan(rel: &str, pairs: &[(&str, DataType)]) -> PhysPlan {
        PhysPlan::Scan { rel: rel.into(), schema: Schema::of(pairs) }
    }

    #[test]
    fn explain_is_indented_one_node_per_line() {
        let s = scan("R", &[("a", DataType::Int), ("b", DataType::Int)]);
        let plan = PhysPlan::Filter {
            pred: Predicate::cmp(Operand::attr("a"), CmpOp::Gt, Operand::val(3)),
            schema: s.schema().clone(),
            input: Box::new(s),
        };
        let text = explain(&plan);
        assert_eq!(text, "Filter a > 3\n  Scan R (a:int, b:int)\n");
    }

    #[test]
    fn cross_join_prints_without_keys() {
        let l = scan("R", &[("a", DataType::Int)]);
        let r = scan("S", &[("b", DataType::Int)]);
        let schema = l.schema().product(r.schema()).unwrap();
        let plan = PhysPlan::HashJoin {
            left_keys: vec![],
            right_keys: vec![],
            right_keep: vec![0],
            post: None,
            schema,
            left: Box::new(l),
            right: Box::new(r),
        };
        assert!(explain(&plan).starts_with("CrossJoin\n"));
    }

    #[test]
    fn whole_row_keys_print_star() {
        let l = scan("R", &[("a", DataType::Int)]);
        let r = scan("S", &[("a", DataType::Int), ("c", DataType::Int)]);
        let plan = PhysPlan::SemiJoin {
            left_keys: vec![0],
            right_keys: vec![0],
            schema: l.schema().clone(),
            left: Box::new(l),
            right: Box::new(r),
        };
        assert!(explain(&plan).starts_with("SemiJoin [*]\n"), "{}", explain(&plan));
    }

    #[test]
    fn predicate_rendering_respects_precedence() {
        let p = Predicate::eq(Operand::attr("x"), Operand::val(1))
            .or(Predicate::eq(Operand::attr("y"), Operand::val(2)))
            .and(Predicate::eq(Operand::attr("z"), Operand::val("red")).not());
        assert_eq!(fmt_pred(&p), "(x = 1 OR y = 2) AND NOT z = 'red'");
    }

    #[test]
    fn node_count_counts_all() {
        let l = scan("R", &[("a", DataType::Int)]);
        let plan = PhysPlan::Dedup { schema: l.schema().clone(), input: Box::new(l) };
        assert_eq!(plan.node_count(), 2);
    }
}
