//! The **partitioned parallel runtime**: the physical engine
//! ([`crate::Engine::Indexed`]) at a worker width above one, over the
//! same plans, the same operators, and the same shared-storage batches
//! as the serial path. A call's width comes from its
//! [`crate::ExecOptions`]; [`execute_parallel`] and
//! [`eval_fixpoint_parallel`] are the executors every entry point calls.
//!
//! Three axes of parallelism, all scoped through the tiny
//! work-stealing-free pool ([`crate::pool`]):
//!
//! 1. **Partitioned hash joins.** A large build side is indexed as
//!    disjoint key-hash-range partitions
//!    ([`IndexedRelation::index_partition`]), one worker per range over
//!    the `Arc`'d view; large probe sides (joins, semi-/anti-joins,
//!    filters, projections) split into contiguous row ranges whose
//!    outputs concatenate in range order — **bit-identical** to the
//!    serial loop, not merely set-equal.
//! 2. **Parallel rules per fixpoint round.** Independent rules of a
//!    stratum (round 0) and independent delta variants (semi-naive
//!    rounds) evaluate concurrently against a snapshot of the
//!    accumulated IDB, with a **round barrier**: outputs merge through
//!    exactly one [`IndexedRelation::absorb_batch`] per rule output, in
//!    rule order, after every worker's views are dropped — so appends
//!    stay in place and the zero-copy invariants of the batch
//!    architecture hold unchanged.
//! 3. **Independent sub-DAGs.** `Shared` common sub-plans with no
//!    mutual nesting execute concurrently before the main plan walk
//!    ([`prewarm_shared`]), and strata with no dependency path between
//!    them run level-by-level in parallel
//!    ([`crate::fixpoint::stratum_levels`]).
//!
//! **Determinism guarantee.** For every query, every width produces
//! results bit-identical to the serial path: partitioned probes
//! reproduce the serial tuple order exactly, round barriers make rule
//! merges order-independent at the fixpoint, and the final
//! set-semantics [`Relation`] (a `BTreeSet` under the total order of
//! values) is the anchor every suite pins 16× over
//! (`tests/determinism.rs`).
//!
//! A **one-worker run is the serial operator path**: no pool dispatch,
//! no partition builds — pinned by counter tests below.

use std::collections::HashMap;
use std::sync::Arc;

use relviz_model::Relation;

use crate::error::ExecResult;
use crate::fixpoint::FixpointPlan;
use crate::column::{ColumnStore, RowId};
use crate::indexed::{IndexedRelation, PartitionedIndex};
use crate::plan::PhysPlan;
use crate::pool;
use crate::run::{run_with, ExecContext};
use crate::slots::Source;

/// Rows below which an operator stays on its serial path: chunking a
/// small batch costs more in thread dispatch than the scan saves.
pub(crate) const PAR_MIN_ROWS: usize = 1024;

/// Total delta rows below which a semi-naive round runs its variants
/// sequentially (the round barrier would out-cost the round).
pub(crate) const PAR_MIN_DELTA: usize = 64;

/// Upper bound on any worker count, requested or taken from the
/// environment. A value past this is a typo, a unit confusion
/// (`RELVIZ_THREADS=1e9`) or a hostile request, not a machine: spawning
/// it would exhaust memory on thread stacks.
const MAX_THREADS: usize = 1024;

/// Resolves a requested worker count: `0` means *auto* — the
/// `RELVIZ_THREADS` environment variable if set (how CI drives the
/// whole test suite through the parallel paths), else the machine's
/// available hardware parallelism.
///
/// An invalid `RELVIZ_THREADS` (non-numeric, `0`, negative, empty, or
/// past [`MAX_THREADS`]) **falls back to hardware parallelism with
/// a one-time warning** instead of being silently ignored or honored —
/// a misconfigured deployment degrades to a sane width, visibly.
///
/// This is the only place the environment is read, and callers should
/// read it **once per request, at request construction** — resolve the
/// width up front and carry the explicit count (`ExecOptions::threads`
/// of `n ≥ 1` resolves to itself, up to the cap). A long-lived server
/// resolving the env per *operator* would race any concurrent mutation
/// of the process-global environment; resolving per request makes each
/// request's width a plain value. Tests exercise the policy through the
/// pure [`resolve_threads_from`] instead of mutating the process
/// environment (the libc environment is a shared mutable global, and
/// mutating it while other threads read is unsound).
pub fn resolve_threads(requested: usize) -> usize {
    resolve_threads_from(requested, std::env::var("RELVIZ_THREADS").ok().as_deref())
}

/// The pure resolution policy behind [`resolve_threads`]: an explicit
/// request wins, capped at [`MAX_THREADS`]; otherwise a valid `env`
/// value (what `RELVIZ_THREADS` held at request construction) wins;
/// otherwise — or on an unusable value, with a one-time warning — the
/// machine's hardware parallelism.
pub fn resolve_threads_from(requested: usize, env: Option<&str>) -> usize {
    if requested > 0 {
        return requested.min(MAX_THREADS);
    }
    if let Some(v) = env {
        match v.parse::<usize>() {
            Ok(n) if (1..=MAX_THREADS).contains(&n) => return n,
            _ => warn_bad_env(v),
        }
    }
    hardware_threads()
}

/// The machine's available parallelism (≥ 1).
pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Warns about an unusable `RELVIZ_THREADS` once per process — the
/// resolver runs per query, and a server would otherwise spam it.
fn warn_bad_env(value: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "relviz: RELVIZ_THREADS=`{value}` is not a worker count in \
             1..={MAX_THREADS}; falling back to hardware parallelism"
        );
    });
}

/// Executes a plain plan at `threads` workers: independent `Shared`
/// sub-plans prewarm concurrently, operators take their partitioned
/// paths past [`PAR_MIN_ROWS`], and the final sort splits across
/// workers. `threads <= 1` is the serial operator path.
pub fn execute_parallel<'a>(
    plan: &PhysPlan,
    db: impl Into<Source<'a>>,
    threads: usize,
) -> ExecResult<Relation> {
    execute_in(plan, &db.into(), &ExecContext::with_threads(threads))
}

/// [`execute_parallel`]'s body, at the width `ctx` was built with (the
/// analyzed path passes a context carrying its stats sink).
pub(crate) fn execute_in(
    plan: &PhysPlan,
    src: &Source<'_>,
    ctx: &ExecContext,
) -> ExecResult<Relation> {
    let threads = ctx.threads().unwrap_or(1);
    prewarm_shared(plan, src, ctx, threads)?;
    let batch = run_with(plan, src, None, ctx)?;
    Ok(into_relation_par(batch, threads, ctx.pool_stats()))
}

/// Evaluates a recursive plan at `threads` workers (independent strata
/// per DAG level, parallel rules per round, partitioned joins);
/// `threads <= 1` is the sequential fixpoint.
pub fn eval_fixpoint_parallel<'a>(
    plan: &FixpointPlan,
    db: impl Into<Source<'a>>,
    threads: usize,
) -> ExecResult<HashMap<String, Relation>> {
    crate::fixpoint::eval_fixpoint_with(plan, &db.into(), threads.max(1))
}

/// Runs every group of mutually independent `Shared` sub-plans
/// concurrently (innermost nesting level first, so a shared plan's own
/// shared children are cached before it runs), populating the
/// execution's sub-plan cache ahead of the main walk — which then hits
/// warm cache at every occurrence instead of racing duplicate
/// evaluations.
// `shared_levels` yields ids defined in the same plan it walked.
#[allow(clippy::indexing_slicing)]
pub(crate) fn prewarm_shared(
    plan: &PhysPlan,
    src: &Source<'_>,
    ctx: &ExecContext,
    threads: usize,
) -> ExecResult<()> {
    if threads <= 1 {
        return Ok(());
    }
    let levels = crate::planner::shared_levels(plan);
    if levels.iter().map(Vec::len).sum::<usize>() < 2 {
        return Ok(()); // zero or one shared sub-plan: the lazy path is enough
    }
    // Like the fixpoint's rule scatters, each prewarm worker's operators
    // get an equal share of the budget, so nesting divides the width
    // instead of multiplying it. The share rides in a FixpointState
    // with empty scan maps — plain shared sub-plans never contain
    // `ScanIdb`/`ScanDelta` leaves, so only the budget field is read.
    let empty: HashMap<String, IndexedRelation> = HashMap::new();
    for level in levels {
        let workers = threads.min(level.len()).max(1);
        let budget = crate::run::FixpointState {
            idb: &empty,
            delta: &empty,
            threads: (threads / workers).max(1),
        };
        let results = pool::scatter(threads, level.len(), ctx.pool_stats(), &|i| {
            let (id, input) = level[i];
            run_with(input, src, Some(&budget), ctx).map(|batch| (id, batch))
        });
        for r in results {
            let (id, batch) = r?;
            ctx.insert_subplan(id, batch);
        }
    }
    Ok(())
}

/// The partitioned index on `cols` over `batch`'s storage: cache hit,
/// or `threads` concurrent hash-range builds assembled and published
/// into the batch's shared cache (maintained across later appends).
pub(crate) fn partitioned_index(
    batch: &IndexedRelation,
    cols: &[usize],
    threads: usize,
    pool_stats: Option<&crate::stats::PoolStats>,
) -> Arc<PartitionedIndex> {
    if let Some(hit) = batch.cached_partitioned(cols, threads) {
        return hit;
    }
    let parts = pool::scatter(threads, threads, pool_stats, &|p| {
        Arc::new(batch.index_partition(cols, p, threads))
    });
    batch.cache_partitioned(cols, threads, Arc::new(PartitionedIndex::new(parts)))
}

/// Converts a batch to a set-semantics [`Relation`] with the dominant
/// cost — sorting under the total order — split across workers:
/// contiguous **row-id** chunks sort concurrently against the columnar
/// storage (comparisons read cells in place, like
/// [`relviz_model::Tuple`]-free [`ColumnStore::cmp_rows`] on the serial
/// path), then a k-way merge yields one ascending id run and the
/// tuples materialize already sorted — the `BTreeSet` bulk-build's
/// presorted fast path. Identical output to
/// [`IndexedRelation::into_relation`] (same set, same order — the
/// order *is* the total order).
// `chunks` yields ranges inside `0..len` by construction.
#[allow(clippy::indexing_slicing)]
pub(crate) fn into_relation_par(
    batch: IndexedRelation,
    threads: usize,
    pool_stats: Option<&crate::stats::PoolStats>,
) -> Relation {
    if threads <= 1 || batch.len() < PAR_MIN_ROWS {
        return batch.into_relation();
    }
    let schema = batch.schema().clone();
    let store = batch.store();
    // Sort each contiguous id range concurrently…
    let ranges = pool::chunks(store.len(), threads);
    let sorted: Vec<Vec<RowId>> = pool::scatter(threads, ranges.len(), pool_stats, &|i| {
        let mut ids: Vec<RowId> = ranges[i].clone().map(crate::column::row_id).collect();
        store.sort_ids(&mut ids);
        ids
    });
    // …merge into one ascending run, and materialize in that order. No
    // dedup here: the final `Relation` construction applies the set
    // semantics.
    let total: usize = sorted.iter().map(Vec::len).sum();
    let mut order: Vec<RowId> = Vec::with_capacity(total);
    merge_sorted(store, sorted, &mut order);
    Relation::from_tuples_unchecked(schema, store.to_tuples_in(&order))
}

/// K-way merge of sorted row-id runs under the total order (k is the
/// worker count, so a linear min-scan per element beats a heap).
/// Comparisons read the store's cells in place — no tuple touches the
/// merge at all.
///
/// Deliberately **no duplicate elimination**: chunk sorts cover
/// disjoint id ranges and ties across runs resolve to the earlier run,
/// so the merged order is exactly the stable sort of the input — and
/// stable sorting is idempotent, so handing the materialized run to
/// `Relation::from_tuples_unchecked` (which stable-sorts and dedups
/// internally) produces the same relation, **bit for bit**, as handing
/// it the unsorted input. The serial path's dedup semantics — whatever
/// they are on the edge cases where the total order and derived
/// equality disagree (`Int 1` vs `Float 1.0`, `-0.0` vs `0.0`) — are
/// applied by the same code on both paths, instead of being replicated
/// here. (Replicating them is exactly how the first version of this
/// function broke bit-identity — found by review, pinned by the
/// regression test below.)
// Cursors stop at each run's `len`; the min-scan only indexes live runs.
#[allow(clippy::indexing_slicing)]
fn merge_sorted(store: &ColumnStore, runs: Vec<Vec<RowId>>, out: &mut Vec<RowId>) {
    let mut cursors = vec![0usize; runs.len()];
    loop {
        let mut min: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            if cursors[i] >= run.len() {
                continue;
            }
            min = Some(match min {
                Some(m)
                    if store.cmp_rows(
                        runs[m][cursors[m]] as usize,
                        run[cursors[i]] as usize,
                    ) != std::cmp::Ordering::Greater =>
                {
                    m
                }
                _ => i,
            });
        }
        let Some(m) = min else { break };
        out.push(runs[m][cursors[m]]);
        cursors[m] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::counters;
    use crate::{eval_datalog_with, eval_ra_with, eval_trc_with, Engine, ExecOptions};
    use relviz_model::generate::{generate_binary_pair, generate_sailors, GenConfig};
    use relviz_model::{DataType, Schema};

    /// A θ-join workload big enough (probe ≥ [`PAR_MIN_ROWS`], build ≥
    /// [`PAR_MIN_ROWS`]) that the partitioned paths genuinely engage.
    const BIG_JOIN: &str = "Project[sname](Select[s_sid = sid](Product(\
                            Rename[sid -> s_sid](Sailor), Reserves)))";

    const TC: &str = "tc(X, Y) :- R(X, Y).\n\
                      tc(X, Z) :- tc(X, Y), R(Y, Z).";

    fn big_db() -> relviz_model::Database {
        generate_sailors(&GenConfig { seed: 0xBEEF, sailors: 1500, boats: 40, reservations: 2200 })
    }

    /// The physical engine at `threads` workers, optimizer on.
    fn width(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    /// The determinism anchor, asserted at its strongest: not just the
    /// same set, the same bytes.
    fn assert_bit_identical(a: &relviz_model::Relation, b: &relviz_model::Relation) {
        assert!(a.same_contents(b));
        assert_eq!(format!("{a}"), format!("{b}"), "renderings must be byte-identical");
    }

    /// A one-worker run of the width-taking executor takes, by
    /// construction, the serial operator path: zero pool dispatches,
    /// zero partition builds.
    #[test]
    fn one_thread_run_degenerates_to_the_serial_path() {
        let db = big_db();
        let e = relviz_ra::parse::parse_ra(BIG_JOIN).unwrap();
        counters::reset();
        let one = ExecOptions { threads: 1, ..ExecOptions::default() };
        let par = eval_ra_with(Engine::Indexed, &e, &db, one).unwrap();
        assert_eq!(counters::dispatches(), 0, "no pool dispatch at 1 thread");
        assert_eq!(counters::partition_builds(), 0, "no partition builds at 1 thread");
        let serial = eval_ra_with(Engine::Indexed, &e, &db, ExecOptions::default()).unwrap();
        assert_bit_identical(&par, &serial);
    }

    /// Past the row thresholds the partitioned paths actually engage —
    /// and stay bit-identical to the serial engine.
    #[test]
    fn partitioned_join_engages_and_matches_serial() {
        let db = big_db();
        let e = relviz_ra::parse::parse_ra(BIG_JOIN).unwrap();
        counters::reset();
        let par = eval_ra_with(Engine::Indexed, &e, &db, width(4)).unwrap();
        assert!(counters::dispatches() > 0, "pool must have dispatched");
        assert_eq!(counters::max_fanout(), 4);
        assert_eq!(
            counters::partition_builds(),
            4,
            "the build side is indexed as exactly one hash-range partition per worker"
        );
        let serial = eval_ra_with(Engine::Indexed, &e, &db, ExecOptions::default()).unwrap();
        assert_bit_identical(&par, &serial);
    }

    /// The zero-copy architecture survives parallelism: a multi-round
    /// parallel fixpoint still performs **zero** whole-storage copies —
    /// the round barrier drops every worker view before the merge
    /// absorbs, so appends stay in place (PR 4's counters, reused).
    #[test]
    fn parallel_fixpoint_introduces_no_deep_copies() {
        let db = generate_binary_pair(11, 1500, 600);
        let prog = relviz_datalog::parse::parse_program(TC).unwrap();
        counters::reset();
        let par = eval_datalog_with(Engine::Indexed, &prog, &db, width(4)).unwrap();
        assert_eq!(counters::deep_copies(), 0, "no full-IDB copies on the parallel path");
        assert_eq!(counters::materializations(), 1, "R still scanned into a batch once");
        assert!(counters::dispatches() > 0, "the parallel path must have engaged");
        let serial =
            eval_datalog_with(Engine::Indexed, &prog, &db, ExecOptions::default()).unwrap();
        assert_bit_identical(&par, &serial);
    }

    /// Independent rules of a stratum merge through the round barrier:
    /// one absorb per rule output, counted.
    #[test]
    fn round_barrier_merges_one_batch_per_rule() {
        let db = generate_binary_pair(3, 30, 10);
        // Two independent rules in the sg stratum's round 0, plus one
        // delta variant in later rounds.
        let prog = relviz_datalog::parse::parse_program(
            "% query: sg\n\
             sg(X, X) :- R(X, Y).\n\
             sg(X, X) :- R(Y, X).\n\
             sg(X, Y) :- R(XP, X), sg(XP, YP), R(YP, Y).",
        )
        .unwrap();
        counters::reset();
        let par = eval_datalog_with(Engine::Indexed, &prog, &db, width(4)).unwrap();
        assert!(
            counters::merges() >= 3,
            "round 0 merges all three rule outputs through the barrier, got {}",
            counters::merges()
        );
        let serial =
            eval_datalog_with(Engine::Indexed, &prog, &db, ExecOptions::default()).unwrap();
        assert_bit_identical(&par, &serial);
    }

    /// Shared sub-plans prewarm concurrently and still execute exactly
    /// once each (the sub-plan cache stays the single point of truth).
    #[test]
    fn prewarmed_shared_subplans_match_serial() {
        let db = generate_sailors(&GenConfig { seed: 7, sailors: 60, boats: 12, reservations: 90 });
        let q = relviz_rc::trc_parse::parse_trc(
            "{s.sname | Sailor(s) and not exists b in Boat: (b.color = 'red' and \
             not exists r in Reserves: (r.sid = s.sid and r.bid = b.bid))}",
        )
        .unwrap();
        let par = eval_trc_with(Engine::Indexed, &q, &db, width(4)).unwrap();
        let serial = eval_trc_with(Engine::Indexed, &q, &db, ExecOptions::default()).unwrap();
        assert_bit_identical(&par, &serial);
    }

    /// The parallel final sort produces the same relation as the
    /// serial `into_relation`, duplicates collapsed, at any width.
    #[test]
    fn parallel_sort_merge_equals_serial_conversion() {
        use relviz_model::Tuple;
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
        // Deliberately unsorted, duplicate-heavy input.
        let rows: Vec<Tuple> =
            (0..4000).map(|i| Tuple::of(((i * 37) % 211, (i * 13) % 17))).collect();
        for threads in [1, 2, 3, 8] {
            let par = into_relation_par(
                IndexedRelation::new(schema.clone(), rows.clone()),
                threads,
                None,
            );
            let serial = IndexedRelation::new(schema.clone(), rows.clone()).into_relation();
            assert_eq!(par.len(), serial.len());
            assert_eq!(format!("{par}"), format!("{serial}"), "threads={threads}");
        }
    }

    /// Regression (found by /code-review): on the edge cases where the
    /// total order and derived tuple equality *disagree* — `Int 1` vs
    /// `Float 1.0` (order-equal, derived-unequal), `-0.0` vs `0.0`
    /// (order-distinct, derived-equal) — the parallel conversion must
    /// reproduce the serial bulk set build byte for byte. The first
    /// version of the parallel merge deduplicated by the total order
    /// itself and silently dropped tuples the serial path keeps.
    #[test]
    fn order_vs_equality_edge_cases_match_the_serial_conversion() {
        use relviz_model::{Tuple, Value};
        let schema = Schema::of(&[("a", DataType::Any)]);
        // Every residue occurs as Int and as Float, plus both zero
        // signs — all interleavings of the disagreement cases.
        let mut rows: Vec<Tuple> = (0..2048i64)
            .map(|i| {
                if i < 1024 {
                    Tuple::new(vec![Value::Int(i % 40)])
                } else {
                    Tuple::new(vec![Value::Float((i % 40) as f64)])
                }
            })
            .collect();
        rows.push(Tuple::new(vec![Value::Float(-0.0)]));
        rows.push(Tuple::new(vec![Value::Float(0.0)]));
        let serial = IndexedRelation::new(schema.clone(), rows.clone()).into_relation();
        for threads in [2, 4, 8] {
            let par = into_relation_par(
                IndexedRelation::new(schema.clone(), rows.clone()),
                threads,
                None,
            );
            assert_eq!(par.len(), serial.len(), "threads={threads}");
            assert_eq!(format!("{par}"), format!("{serial}"), "threads={threads}");
        }
    }

    /// Auto resolution honors RELVIZ_THREADS — the knob CI uses to push
    /// the whole suite through the parallel paths. The policy is tested
    /// through the pure [`resolve_threads_from`], not by mutating the
    /// process environment: `cargo test` runs tests on concurrent
    /// threads (and server tests spawn more), and mutating the libc
    /// environment while any other thread may read it is undefined
    /// behavior — the old save/mutate/restore-under-a-mutex version of
    /// this test only synchronized against readers that took the same
    /// local lock.
    #[test]
    fn auto_threads_reads_the_environment() {
        assert_eq!(resolve_threads_from(0, Some("6")), 6);
        // `resolve_threads` itself feeds whatever the env held at call
        // time into the same policy; with an explicit request the env
        // is irrelevant.
        assert_eq!(resolve_threads_from(3, Some("6")), 3);
    }

    /// Regression: an unusable `RELVIZ_THREADS` (non-numeric, zero,
    /// negative, empty, absurdly large) must degrade to hardware
    /// parallelism instead of being honored or panicking.
    #[test]
    fn invalid_relviz_threads_falls_back_to_hardware() {
        let hw = hardware_threads();
        for bad in ["abc", "0", "999999999", "-3", "", "4.5"] {
            assert_eq!(
                resolve_threads_from(0, Some(bad)),
                hw,
                "RELVIZ_THREADS={bad:?} must fall back to hardware parallelism"
            );
        }
        // A valid value still wins over the fallback; none at all is
        // the plain hardware default.
        assert_eq!(resolve_threads_from(0, Some("6")), 6);
        assert_eq!(resolve_threads_from(0, None), hw);
        // An explicit request is never second-guessed below the cap.
        assert_eq!(resolve_threads_from(1, Some("6")), 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    /// An explicit request past [`MAX_THREADS`] resolves to the cap, the
    /// same limit `RELVIZ_THREADS` has. Only the pure policy runs: no
    /// thread is started.
    #[test]
    fn explicit_requests_are_capped() {
        assert_eq!(resolve_threads_from(usize::MAX, None), 1024);
        assert_eq!(resolve_threads_from(1025, Some("6")), 1024);
        assert_eq!(resolve_threads_from(1024, None), 1024);
    }
}
