//! The recursive-query layer of the plan IR and its **semi-naive**
//! fixpoint runner.
//!
//! A [`FixpointPlan`] stacks strata (from [`relviz_datalog::strata`]) on
//! top of the flat operator IR: each stratum holds one [`RulePlan`] per
//! rule, and each rule plan holds a `full` plan (every derived predicate
//! read from the accumulated IDB) plus one *delta variant* per positive
//! same-stratum occurrence — the same plan with that occurrence's scan
//! replaced by a [`PhysPlan::ScanDelta`], so a round's work is driven by
//! the previous round's new facts instead of re-joining the whole IDB.
//!
//! Execution per stratum:
//!
//! 1. **Round 0** runs every rule's `full` plan once (same-stratum IDB
//!    is empty, lower strata are complete).
//! 2. While the previous round derived anything, each delta variant runs
//!    once; derived tuples are deduped against the accumulated IDB via
//!    its whole-row hash table ([`IndexedRelation::absorb_batch`]) and
//!    the survivors' row numbers form the next round's delta.
//!
//! All per-round state is **zero-copy**: `ScanIdb` nodes resolve to
//! Arc'd views of the accumulated IDB (tuples and indexes shared, never
//! cloned), the EDB is materialized and indexed once per evaluation
//! through the executor's scan cache, and appends to the IDB happen in
//! place after every view of a round is dropped.
//!
//! Soundness/completeness mirror the reference evaluator
//! ([`relviz_datalog::eval::eval_all`]) — same strata, same delta
//! restriction — only the per-round join work drops from nested loops to
//! hash joins.

use std::collections::HashMap;

use relviz_model::{Relation, Schema};

use crate::error::{ExecError, ExecResult};
use crate::indexed::IndexedRelation;
use crate::plan::{write_node, PhysPlan};
use crate::pool;
use crate::run::{run_with, ExecContext, FixpointState};
use crate::slots::Source;

/// One delta variant of a rule: the body position whose positive
/// same-stratum occurrence reads the delta, and the plan with that
/// occurrence lowered to a `ScanDelta`.
#[derive(Debug, Clone)]
pub struct DeltaPlan {
    /// Index into the rule's body of the delta-restricted occurrence.
    pub occurrence: usize,
    pub plan: PhysPlan,
}

/// The compiled form of one rule.
#[derive(Debug, Clone)]
pub struct RulePlan {
    /// The head predicate this rule derives into.
    pub head: String,
    /// The rule's source form (for EXPLAIN headers).
    pub rule: String,
    /// Round-0 plan: all derived predicates read from the accumulated IDB.
    pub full: PhysPlan,
    /// One delta variant per positive same-stratum body occurrence.
    pub deltas: Vec<DeltaPlan>,
}

/// One stratum: its predicates and compiled rules. `recursive` is true
/// iff any rule has a delta variant — the condition for iterating.
#[derive(Debug, Clone)]
pub struct StratumPlan {
    pub predicates: Vec<String>,
    pub recursive: bool,
    pub rules: Vec<RulePlan>,
}

/// A complete recursive-query plan: strata in evaluation order, the
/// answer predicate, and the IDB schemas the runner materializes.
#[derive(Debug, Clone)]
pub struct FixpointPlan {
    pub strata: Vec<StratumPlan>,
    pub query: String,
    pub schemas: HashMap<String, Schema>,
}

impl FixpointPlan {
    /// Total operator-node count across all rule plans (full + delta
    /// variants) — the plan-size metric benches and tests use.
    pub fn node_count(&self) -> usize {
        self.strata
            .iter()
            .flat_map(|s| &s.rules)
            .map(|r| {
                r.full.node_count()
                    + r.deltas.iter().map(|d| d.plan.node_count()).sum::<usize>()
            })
            .sum()
    }
}

/// Folds a rule's output batch into the accumulated IDB, recording the
/// **row numbers** of genuinely new facts in `fresh` — the one
/// dedup-and-delta invariant both round 0 and the semi-naive rounds
/// share. The merge stays columnar end to end: cells are compared and
/// appended in place ([`IndexedRelation::absorb_store`]), so duplicates
/// (late rounds are duplicate-heavy) and survivors alike pay zero tuple
/// materializations here.
fn absorb(target: &mut IndexedRelation, fresh: &mut Vec<u32>, batch: IndexedRelation) {
    target.absorb_store(batch.store(), fresh);
}

/// Materializes the per-predicate delta batches for a round from the
/// row numbers `absorb` recorded against the accumulated IDB — a
/// columnar gather off the IDB's storage (no tuples are built). The
/// rows were recorded against exactly this IDB, so an out-of-bounds row
/// can only come from a malformed plan — reported as
/// [`ExecError::Eval`], not a panic.
fn materialize_deltas(
    delta: HashMap<String, Vec<u32>>,
    idb: &HashMap<String, IndexedRelation>,
) -> ExecResult<HashMap<String, IndexedRelation>> {
    delta
        .into_iter()
        .map(|(name, rows)| {
            let master = idb.get(&name).ok_or_else(|| {
                ExecError::Eval(format!("delta predicate `{name}` missing from the IDB state"))
            })?;
            if let Some(&bad) = rows.iter().find(|&&r| r as usize >= master.len()) {
                return Err(ExecError::Eval(format!(
                    "delta row {bad} out of bounds for `{name}` ({} rows accumulated)",
                    master.len()
                )));
            }
            let batch =
                IndexedRelation::from_store(master.schema().clone(), master.store().gather(&rows));
            Ok((name, batch))
        })
        .collect()
}

/// The per-head entry of a fixpoint state map. Every rule head is
/// pre-populated per stratum; a miss means the plan is malformed (head
/// outside its stratum's predicate list — the verifier's `rule-stratum`
/// invariant), so it surfaces as an error with context.
fn head_entry<'m>(
    map: &'m mut HashMap<String, IndexedRelation>,
    head: &str,
    what: &str,
) -> ExecResult<&'m mut IndexedRelation> {
    map.get_mut(head).ok_or_else(|| {
        ExecError::Eval(format!(
            "rule head `{head}` missing from the {what} state — \
             the head is not among its stratum's predicates"
        ))
    })
}

/// [`head_entry`] for the per-round fresh-row ledger.
fn delta_entry<'m>(
    map: &'m mut HashMap<String, Vec<u32>>,
    head: &str,
) -> ExecResult<&'m mut Vec<u32>> {
    map.get_mut(head).ok_or_else(|| {
        ExecError::Eval(format!(
            "rule head `{head}` missing from the delta ledger — \
             the head is not among its stratum's predicates"
        ))
    })
}

/// Runs the fixpoint to completion, returning every IDB relation
/// (set semantics).
pub fn eval_fixpoint<'a>(
    plan: &FixpointPlan,
    db: impl Into<Source<'a>>,
) -> ExecResult<HashMap<String, Relation>> {
    eval_fixpoint_with(plan, &db.into(), 1)
}

/// Runs the fixpoint with `threads` workers. One thread is exactly
/// [`eval_fixpoint`]'s sequential evaluation; more threads add the
/// parallel engine's three fixpoint levers while deriving the **same
/// relations, bit for bit**:
///
/// * **strata-DAG levels**: strata with no dependency path between them
///   ([`stratum_levels`]) evaluate concurrently, each against the
///   completed lower levels;
/// * **parallel rules with a round barrier**: within a round, rule
///   plans (round 0) / delta variants (semi-naive rounds) run
///   concurrently against a *snapshot* of the accumulated IDB, and
///   their outputs merge through one [`IndexedRelation::absorb_batch`]
///   per output, in rule order, after every worker view is dropped.
///   A rule therefore never sees a same-round sibling's facts — it sees
///   them one round later through the delta, which derives the same
///   fixpoint (the classic semi-naive argument: the accumulated IDB
///   always contains the previous delta, so every joinable combination
///   of facts is covered the round after its last member lands);
/// * **partitioned joins** inside each rule, via the execution context.
pub(crate) fn eval_fixpoint_with(
    plan: &FixpointPlan,
    src: &Source<'_>,
    threads: usize,
) -> ExecResult<HashMap<String, Relation>> {
    eval_fixpoint_stats(plan, src, threads, None)
}

/// [`eval_fixpoint_with`], optionally analyzed: with a stats sink every
/// operator, pool worker, and per-round delta size of the evaluation
/// records into it (`EXPLAIN ANALYZE`).
// `stratum_levels` yields indexes into `plan.strata` by construction.
#[allow(clippy::indexing_slicing)]
pub(crate) fn eval_fixpoint_stats(
    plan: &FixpointPlan,
    src: &Source<'_>,
    threads: usize,
    stats: Option<std::sync::Arc<crate::stats::QueryStats>>,
) -> ExecResult<HashMap<String, Relation>> {
    let mut idb: HashMap<String, IndexedRelation> = plan
        .schemas
        .iter()
        .map(|(name, schema)| (name.clone(), IndexedRelation::new(schema.clone(), vec![])))
        .collect();

    // One execution context for the whole fixpoint: every EDB relation
    // is materialized and indexed once, shared by all rules, all delta
    // variants, and all rounds.
    let mut ctx = ExecContext::with_threads(threads);
    if let Some(s) = stats {
        ctx = ctx.with_stats(s);
    }
    for level in stratum_levels(plan) {
        if ctx.threads().is_some() && level.len() > 1 {
            // Independent strata: each task evaluates one stratum over a
            // view of the completed lower levels plus its own fresh
            // batches, and hands its predicates' batches back at the
            // level barrier. Each task gets an equal share of the
            // worker budget for its *rule* scatters, so nesting divides
            // the requested width instead of multiplying it.
            let inner = (threads / level.len()).max(1);
            let results = pool::scatter(threads, level.len(), ctx.pool_stats(), &|i| {
                let stratum = &plan.strata[level[i]];
                let mut local = idb.clone();
                for p in &stratum.predicates {
                    let schema = plan.schemas.get(p).ok_or_else(|| {
                        crate::error::ExecError::Eval(format!(
                            "predicate `{p}` has no schema in the fixpoint plan"
                        ))
                    })?;
                    // Fresh empty batches, not clones of the global
                    // empties — absorbing into a shared empty batch
                    // would force a (counted) copy-on-write detach.
                    local.insert(p.clone(), IndexedRelation::new(schema.clone(), vec![]));
                }
                run_stratum(stratum, level[i], src, &mut local, &ctx, inner)?;
                Ok::<_, crate::error::ExecError>(
                    stratum
                        .predicates
                        .iter()
                        .map(|p| (p.clone(), local.remove(p).expect("own predicate")))
                        .collect::<Vec<_>>(),
                )
            });
            for result in results {
                for (name, batch) in result? {
                    idb.insert(name, batch);
                }
            }
        } else {
            for &si in &level {
                run_stratum(&plan.strata[si], si, src, &mut idb, &ctx, threads)?;
            }
        }
    }

    // The final sorts are independent per predicate; within one big
    // predicate (the common case: one recursive result dominating),
    // `into_relation_par` splits the sort itself across workers.
    Ok(idb
        .into_iter()
        .map(|(name, batch)| {
            (name, crate::parallel::into_relation_par(batch, threads, ctx.pool_stats()))
        })
        .collect())
}

/// Evaluates one stratum to its local fixpoint, mutating `idb` in
/// place. Sequential unless the context is parallel **and** a round
/// has enough independent work (several rules, or several delta
/// variants over at least [`crate::parallel::PAR_MIN_DELTA`] delta
/// rows) — below that, the round barrier costs more than it buys.
///
/// `threads` is this stratum's **rule-scatter budget** — the whole
/// worker count normally, a fair share of it when strata of one level
/// run concurrently. Whether any parallel path engages at all is
/// governed solely by `ctx` (its `threads()`/`par_over`), so the two
/// cannot drift: a serial context runs serially regardless of the
/// budget.
// scatter task indexes are `< rules.len()` / `< variants.len()` by construction.
#[allow(clippy::indexing_slicing)]
fn run_stratum(
    stratum: &StratumPlan,
    si: usize,
    src: &Source<'_>,
    idb: &mut HashMap<String, IndexedRelation>,
    ctx: &ExecContext,
    threads: usize,
) -> ExecResult<()> {
    // Analyzed executions record each round's per-predicate delta sizes
    // (the convergence profile of the stratum).
    let record_round = |round: usize, ledger: &HashMap<String, Vec<u32>>| {
        if let Some(stats) = ctx.stats() {
            stats.record_round(
                si,
                round,
                ledger.iter().map(|(p, rows)| (p.clone(), rows.len() as u64)).collect(),
            );
        }
    };
    let no_deltas: HashMap<String, IndexedRelation> = HashMap::new();
    // Round 0: every rule, full plans. The same-stratum IDB starts
    // empty; facts and lower-strata joins land here.
    let mut delta: HashMap<String, Vec<u32>> =
        stratum.predicates.iter().map(|p| (p.clone(), Vec::new())).collect();
    if ctx.threads().is_some() && stratum.rules.len() > 1 {
        // Parallel rules against the round-start snapshot, merged at
        // the barrier (outputs in rule order, one absorb per rule).
        // Each rule worker's operators get an equal share of this
        // stratum's budget, so the total stays at `threads`.
        let rule_workers = threads.min(stratum.rules.len()).max(1);
        let outs = {
            let state = FixpointState {
                idb: &*idb,
                delta: &no_deltas,
                threads: (threads / rule_workers).max(1),
            };
            pool::scatter(threads, stratum.rules.len(), ctx.pool_stats(), &|i| {
                run_with(&stratum.rules[i].full, src, Some(&state), ctx)
            })
        };
        for (rule, out) in stratum.rules.iter().zip(outs) {
            crate::stats::counters::count_merge();
            absorb(
                head_entry(idb, &rule.head, "IDB")?,
                delta_entry(&mut delta, &rule.head)?,
                out?,
            );
        }
    } else {
        for rule in &stratum.rules {
            let out = {
                let state = FixpointState { idb: &*idb, delta: &no_deltas, threads };
                run_with(&rule.full, src, Some(&state), ctx)?
            };
            absorb(
                head_entry(idb, &rule.head, "IDB")?,
                delta_entry(&mut delta, &rule.head)?,
                out,
            );
        }
    }

    // Semi-naive rounds: each delta variant once per round, reading
    // the previous round's delta at its occurrence and the accumulated
    // IDB everywhere else (as zero-copy views — see `ScanIdb` in the
    // executor).
    if stratum.recursive {
        record_round(0, &delta);
    }
    let mut round = 0usize;
    while stratum.recursive && delta.values().any(|v| !v.is_empty()) {
        let delta_rows: usize = delta.values().map(Vec::len).sum();
        let materialized = materialize_deltas(std::mem::take(&mut delta), idb)?;
        let mut next: HashMap<String, Vec<u32>> =
            stratum.predicates.iter().map(|p| (p.clone(), Vec::new())).collect();
        let variants: Vec<(usize, &DeltaPlan)> = stratum
            .rules
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| r.deltas.iter().map(move |dv| (ri, dv)))
            .collect();
        if ctx.threads().is_some()
            && variants.len() > 1
            && delta_rows >= crate::parallel::PAR_MIN_DELTA
        {
            let variant_workers = threads.min(variants.len()).max(1);
            let outs = {
                let state = FixpointState {
                    idb: &*idb,
                    delta: &materialized,
                    threads: (threads / variant_workers).max(1),
                };
                pool::scatter(threads, variants.len(), ctx.pool_stats(), &|i| {
                    run_with(&variants[i].1.plan, src, Some(&state), ctx)
                })
            };
            for ((ri, _), out) in variants.iter().zip(outs) {
                let head = &stratum.rules[*ri].head;
                crate::stats::counters::count_merge();
                absorb(
                    head_entry(idb, head, "IDB")?,
                    delta_entry(&mut next, head)?,
                    out?,
                );
            }
        } else {
            for (ri, dv) in variants {
                let head = &stratum.rules[ri].head;
                let out = {
                    let state = FixpointState { idb: &*idb, delta: &materialized, threads };
                    run_with(&dv.plan, src, Some(&state), ctx)?
                };
                absorb(
                    head_entry(idb, head, "IDB")?,
                    delta_entry(&mut next, head)?,
                    out,
                );
            }
        }
        round += 1;
        record_round(round, &next);
        delta = next;
    }
    Ok(())
}

/// Groups strata into **dependency levels**: a stratum's level is one
/// past the deepest stratum whose predicates its plans read (via
/// `ScanIdb`/`ScanDelta` — positive joins and negation alike), so
/// strata on the same level have no dependency path between them and
/// may evaluate concurrently against the completed lower levels. A
/// program whose strata form a chain degenerates to one stratum per
/// level — exactly the sequential order.
// `level`/`groups` are sized over the same strata they are indexed by.
#[allow(clippy::indexing_slicing)]
pub fn stratum_levels(plan: &FixpointPlan) -> Vec<Vec<usize>> {
    let owner: HashMap<&str, usize> = plan
        .strata
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.predicates.iter().map(move |p| (p.as_str(), si)))
        .collect();
    let mut level = vec![0usize; plan.strata.len()];
    for (si, stratum) in plan.strata.iter().enumerate() {
        let mut refs = std::collections::HashSet::new();
        for rule in &stratum.rules {
            idb_refs(&rule.full, &mut refs);
            for dv in &rule.deltas {
                idb_refs(&dv.plan, &mut refs);
            }
        }
        level[si] = refs
            .iter()
            .filter_map(|r| owner.get(r.as_str()).copied())
            // Same-stratum references are the stratum's own recursion,
            // not a cross-stratum dependency. Strata are listed in
            // evaluation order, so every other owner is already leveled.
            .filter(|&o| o != si)
            .map(|o| level[o] + 1)
            .max()
            .unwrap_or(0);
    }
    let depth = level.iter().copied().max().map_or(0, |d| d + 1);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); depth];
    for (si, &l) in level.iter().enumerate() {
        groups[l].push(si);
    }
    groups
}

/// Collects the derived predicates a plan reads (its `ScanIdb` /
/// `ScanDelta` leaves) — the dependency edges of the strata DAG.
fn idb_refs(plan: &PhysPlan, out: &mut std::collections::HashSet<String>) {
    match plan {
        PhysPlan::ScanIdb { rel, .. } | PhysPlan::ScanDelta { rel, .. } => {
            out.insert(rel.clone());
        }
        PhysPlan::Scan { .. } | PhysPlan::Values { .. } => {}
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Dedup { input, .. }
        | PhysPlan::Shared { input, .. } => idb_refs(input, out),
        PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::SemiJoin { left, right, .. }
        | PhysPlan::AntiJoin { left, right, .. }
        | PhysPlan::Union { left, right, .. }
        | PhysPlan::Diff { left, right, .. } => {
            idb_refs(left, out);
            idb_refs(right, out);
        }
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

/// Renders a recursive plan: fixpoint → strata → rules, each rule with
/// its full plan and every delta variant.
pub fn explain_datalog(plan: &FixpointPlan) -> String {
    render_datalog(plan, 1, None)
}

/// Renders a recursive plan as the **parallel engine** at `threads`
/// workers would run it: each stratum carries its dependency level
/// (same level = no dependency path = evaluates concurrently), and the
/// rule plans carry the operator annotations of
/// [`crate::plan::explain_parallel`].
pub fn explain_datalog_parallel(plan: &FixpointPlan, threads: usize) -> String {
    render_datalog(plan, threads.max(1), None)
}

// `level_of` maps every stratum index — built from the same plan.
#[allow(clippy::indexing_slicing)]
pub(crate) fn render_datalog(
    plan: &FixpointPlan,
    threads: usize,
    analyze: Option<&crate::stats::QueryStats>,
) -> String {
    let par = threads > 1;
    let level_of: HashMap<usize, usize> = stratum_levels(plan)
        .into_iter()
        .enumerate()
        .flat_map(|(l, strata)| strata.into_iter().map(move |si| (si, l)))
        .collect();
    let mut out = String::new();
    if par {
        out.push_str(&format!("Fixpoint (query: {}) \u{2225}{threads}\n", plan.query));
    } else {
        out.push_str(&format!("Fixpoint (query: {})\n", plan.query));
    }
    for (i, stratum) in plan.strata.iter().enumerate() {
        let level = if par { format!(" level {}", level_of[&i]) } else { String::new() };
        out.push_str(&format!(
            "  Stratum {i} [{}]{}{level}\n",
            stratum.predicates.join(", "),
            if stratum.recursive { " recursive" } else { "" }
        ));
        for rule in &stratum.rules {
            out.push_str(&format!("    rule {}\n", rule.rule));
            out.push_str("      full:\n");
            write_rule_plan(&mut out, &rule.full, threads, analyze);
            for dv in &rule.deltas {
                out.push_str(&format!("      delta at body[{}]:\n", dv.occurrence));
                write_rule_plan(&mut out, &dv.plan, threads, analyze);
            }
        }
    }
    out
}

fn write_rule_plan(
    out: &mut String,
    plan: &PhysPlan,
    threads: usize,
    analyze: Option<&crate::stats::QueryStats>,
) {
    if threads > 1 || analyze.is_some() {
        let mut ann = crate::plan::Annotations::for_plan(plan, threads);
        if let Some(stats) = analyze {
            ann = ann.with_analyze(stats);
        }
        crate::plan::write_node_seen(out, plan, 4, &mut std::collections::HashSet::new(), &ann);
    } else {
        write_node(out, plan, 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog_planner::plan_datalog_with;
    use crate::opt::OptConfig;
    use relviz_datalog::eval::eval_all;
    use relviz_datalog::parse::parse_program;
    use relviz_model::catalog::sailors_sample;
    use relviz_model::generate::generate_binary_pair;
    use relviz_model::Database;

    /// Every IDB relation the fixpoint derives must match the reference
    /// evaluator's, predicate by predicate.
    fn check(src: &str, db: &Database) {
        let prog = parse_program(src).unwrap();
        let reference = eval_all(&prog, db).unwrap();
        let plan = plan_datalog_with(&prog, db, OptConfig::optimized()).unwrap();
        let ours = eval_fixpoint(&plan, db).unwrap();
        assert_eq!(ours.len(), reference.len(), "IDB predicate sets differ");
        for (name, rel) in &reference {
            let mine = ours.get(name).unwrap_or_else(|| panic!("`{name}` missing"));
            assert!(
                mine.same_contents(rel),
                "`{name}` disagrees\nplan:\n{}\nexec:\n{mine}\nreference:\n{rel}",
                explain_datalog(&plan),
            );
        }
    }

    #[test]
    fn nonrecursive_rules_match_reference() {
        let db = sailors_sample();
        for src in [
            "ans(N) :- Sailor(S, N, R, A), Reserves(S, 102, D).",
            "ans(N) :- Sailor(S, N, R, A), Reserves(S, B, D), Boat(B, BN, 'red').",
            "ans(N) :- Sailor(S, N, R, A), R > 7, A < 40.",
            "ans(N1, N2) :- Sailor(S1, N1, R1, A1), Sailor(S2, N2, R2, A2), R1 = R2, S1 < S2.",
            "% query: ans\n\
             redres(S) :- Reserves(S, B, D), Boat(B, BN, 'red').\n\
             ans(N) :- Sailor(S, N, R, A), not redres(S).",
            "vip(22).\nans(N) :- vip(S), Sailor(S, N, R, A).",
            "ans(N, 'tag') :- Sailor(S, N, R, A), R >= 10.",
        ] {
            check(src, &db);
        }
    }

    #[test]
    fn transitive_closure_matches_reference() {
        let db = generate_binary_pair(11, 30, 12);
        check(
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
            &db,
        );
    }

    /// Same-generation: the recursive occurrence sits between two
    /// non-recursive atoms, so the delta variant joins on both sides.
    #[test]
    fn same_generation_matches_reference() {
        let db = generate_binary_pair(3, 18, 9);
        check(
            "% query: sg\n\
             sg(X, X) :- R(X, Y).\n\
             sg(X, X) :- R(Y, X).\n\
             sg(X, Y) :- R(XP, X), sg(XP, YP), R(YP, Y).",
            &db,
        );
    }

    /// Nonlinear recursion: two same-stratum occurrences in one rule —
    /// completeness needs *both* delta variants to fire every round.
    #[test]
    fn nonlinear_recursion_fires_every_delta_variant() {
        let db = generate_binary_pair(13, 20, 9);
        let src = "tc(X, Y) :- R(X, Y).\n\
                   tc(X, Z) :- tc(X, Y), tc(Y, Z).";
        check(src, &db);
        let plan =
            plan_datalog_with(&parse_program(src).unwrap(), &db, OptConfig::optimized()).unwrap();
        assert_eq!(plan.strata[0].rules[1].deltas.len(), 2);
    }

    /// Negation against a lower recursive stratum: unreachable pairs.
    #[test]
    fn stratified_negation_over_recursion_matches_reference() {
        let db = generate_binary_pair(7, 14, 8);
        check(
            "% query: unreached\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             node(X) :- R(X, Y).\n\
             node(Y) :- R(X, Y).\n\
             unreached(X, Y) :- node(X), node(Y), not tc(X, Y).",
            &db,
        );
    }

    /// A repeated variable inside one atom must become a local filter
    /// (self-loops only).
    #[test]
    fn repeated_variable_in_atom_matches_reference() {
        let db = generate_binary_pair(5, 25, 6);
        check("ans(X) :- R(X, X).", &db);
    }

    /// Regression (found by /code-review): both engines unify join
    /// variables by the total order of `Value` — `Int 2` joins
    /// `Float 2.0` — so mixed numeric data cannot split the oracle from
    /// the hash joins.
    #[test]
    fn mixed_numeric_join_matches_reference() {
        use relviz_model::{DataType, Relation, Schema, Tuple};
        let mut db = Database::new();
        let mut r = Relation::empty(Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]));
        r.insert_unchecked(Tuple::of((1, 2)));
        let mut s = Relation::empty(Schema::of(&[("b", DataType::Float), ("c", DataType::Int)]));
        s.insert_unchecked(Tuple::of((2.0, 3)));
        db.add("R", r).unwrap();
        db.add("S", s).unwrap();
        check("ans(X, Z) :- R(X, Y), S(Y, Z).", &db);
        let prog = parse_program("ans(X, Z) :- R(X, Y), S(Y, Z).").unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        let out = eval_fixpoint(&plan, &db).unwrap();
        assert_eq!(out["ans"].len(), 1, "Int 2 must join Float 2.0");
    }

    /// Same-stratum positive dependency without a cycle still needs a
    /// second round (rule order hides b's facts from a in round 0).
    #[test]
    fn same_stratum_chain_converges() {
        let db = generate_binary_pair(9, 10, 6);
        check(
            "% query: a\n\
             a(X) :- b(X).\n\
             b(X) :- R(X, Y).",
            &db,
        );
    }

    #[test]
    fn explain_renders_fixpoint_strata_and_deltas() {
        let db = generate_binary_pair(1, 5, 5);
        let prog = parse_program(
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
        )
        .unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        let text = explain_datalog(&plan);
        assert!(text.starts_with("Fixpoint (query: tc)\n"), "{text}");
        assert!(text.contains("Stratum 0 [tc] recursive"), "{text}");
        assert!(text.contains("delta at body[0]:"), "{text}");
        assert!(text.contains("ScanDelta tc"), "{text}");
        assert!(text.contains("HashJoin [Y=b1_0]"), "{text}");
        assert!(plan.node_count() > 0);
    }

    /// The zero-copy acceptance test: a multi-round fixpoint performs
    /// **zero** whole-storage copies of the accumulated IDB — `ScanIdb`
    /// hands out Arc'd views, appends happen in place after every view
    /// is dropped — and the EDB is materialized and join-indexed once
    /// for the entire evaluation, not once per round.
    #[test]
    fn fixpoint_never_deep_clones_the_idb() {
        use crate::stats::counters;
        let db = generate_binary_pair(11, 30, 12);
        let prog = parse_program(
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
        )
        .unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        counters::reset();
        let out = eval_fixpoint(&plan, &db).unwrap();
        assert!(out["tc"].len() > db.relation("R").unwrap().len(), "recursion fired");
        assert_eq!(counters::deep_copies(), 0, "no full-IDB copies, any round");
        assert_eq!(counters::materializations(), 1, "R scanned into a batch once");
        // Columnar pin: the whole fixpoint builds exactly R's two
        // columns — empty IDB inits, absorbs, deltas, and join outputs
        // all reuse or gather existing columns, never re-columnarize.
        assert_eq!(
            counters::column_builds(),
            2,
            "columns are built once, by R's one materialization"
        );
        // Join indexes: one per distinct (batch, key set) that a join
        // builds on — R's [0] index once for the whole fixpoint, plus
        // one small per-round index on a delta batch at most. The bound
        // that matters: index building never recurs on the same
        // accumulated batch.
        let rounds_upper_bound = out["tc"].len();
        assert!(
            counters::index_builds() <= 1 + rounds_upper_bound,
            "index builds must not scale with rounds × IDB size"
        );
    }

    /// Cross-round index reuse: with the delta on the probe side and the
    /// EDB on the build side, the whole TC fixpoint builds exactly one
    /// join index (R's, round 0) — O(1) index builds, with appends
    /// maintaining it and the IDB dedup table incrementally.
    #[test]
    fn tc_fixpoint_builds_one_index_total() {
        use crate::stats::counters;
        let db = generate_binary_pair(7, 40, 14);
        let prog = parse_program(
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
        )
        .unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        counters::reset();
        eval_fixpoint(&plan, &db).unwrap();
        // ΔTC probes R's [0] index; IDB dedup runs on the whole-row
        // hash table, which is not an `Index`. Delta batches are probe
        // sides only, so they are never indexed.
        assert_eq!(counters::index_builds(), 1);
    }

    /// The strata DAG: `tc` and `node` both read only the EDB (level
    /// 0, concurrent); `unreached` reads both (level 1).
    #[test]
    fn stratum_levels_group_independent_strata() {
        let db = generate_binary_pair(7, 14, 8);
        let prog = parse_program(
            "% query: unreached\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             node(X) :- R(X, Y).\n\
             node(Y) :- R(X, Y).\n\
             unreached(X, Y) :- node(X), node(Y), not tc(X, Y).",
        )
        .unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        let levels = stratum_levels(&plan);
        assert_eq!(levels.len(), 2, "{levels:?}");
        assert_eq!(levels[0].len(), 2, "tc and node are independent");
        assert_eq!(levels[1].len(), 1, "unreached depends on both");
        // A chain degenerates to one stratum per level.
        let chain = parse_program(
            "% query: b\n\
             a(X) :- R(X, Y).\n\
             b(X) :- a(X), not R(X, X).",
        )
        .unwrap();
        let chain_plan = plan_datalog_with(&chain, &db, OptConfig::optimized()).unwrap();
        assert!(stratum_levels(&chain_plan).iter().all(|l| l.len() == 1));
    }

    /// Independent strata evaluated concurrently still derive every
    /// predicate byte-for-byte as the sequential runner does — across
    /// recursion, negation, and the level barrier.
    #[test]
    fn parallel_strata_match_sequential_bit_for_bit() {
        let db = generate_binary_pair(7, 40, 12);
        let prog = parse_program(
            "% query: unreached\n\
             tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
             node(X) :- R(X, Y).\n\
             node(Y) :- R(X, Y).\n\
             unreached(X, Y) :- node(X), node(Y), not tc(X, Y).",
        )
        .unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        let sequential = eval_fixpoint(&plan, &db).unwrap();
        for threads in [2, 8] {
            let parallel = eval_fixpoint_with(&plan, &Source::from(&db), threads).unwrap();
            assert_eq!(parallel.len(), sequential.len());
            for (name, rel) in &sequential {
                let p = &parallel[name];
                assert!(p.same_contents(rel), "{name} differs at {threads} threads");
                assert_eq!(format!("{p}"), format!("{rel}"), "{name} render differs");
            }
        }
    }

    /// The parallel EXPLAIN annotates stratum levels and partitioned
    /// operators; one thread renders exactly the serial EXPLAIN.
    #[test]
    fn explain_datalog_parallel_annotates_levels() {
        let db = generate_binary_pair(1, 5, 5);
        let prog = parse_program(
            "tc(X, Y) :- R(X, Y).\n\
             tc(X, Z) :- tc(X, Y), R(Y, Z).",
        )
        .unwrap();
        let plan = plan_datalog_with(&prog, &db, OptConfig::optimized()).unwrap();
        let text = explain_datalog_parallel(&plan, 4);
        assert!(text.starts_with("Fixpoint (query: tc) \u{2225}4\n"), "{text}");
        assert!(text.contains("Stratum 0 [tc] recursive level 0"), "{text}");
        assert!(text.contains("part \u{2225}4"), "{text}");
        assert_eq!(explain_datalog_parallel(&plan, 1), explain_datalog(&plan));
    }

    #[test]
    fn fixpoint_scans_outside_a_fixpoint_are_engine_errors() {
        let db = generate_binary_pair(1, 5, 5);
        let plan = PhysPlan::ScanDelta {
            rel: "tc".into(),
            schema: relviz_datalog::idb_schema(2),
        };
        assert!(matches!(
            crate::run::run(&plan, &db),
            Err(crate::error::ExecError::Eval(_))
        ));
    }
}
