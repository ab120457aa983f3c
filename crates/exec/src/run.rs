//! The plan executor: bottom-up evaluation of [`PhysPlan`] trees over
//! [`IndexedRelation`] batches, with **vectorized operator kernels**
//! over the columnar storage ([`crate::column`]).
//!
//! Predicates are compiled (names → positions) once per `Filter`/join
//! node, not per tuple; a filter then evaluates each predicate leaf
//! column-at-a-time into a selection [`Bitmap`] (combined word-wise for
//! `AND`/`OR`/`NOT`) and gathers the surviving rows in one pass.
//! Projections re-order `Arc`'d columns and copy nothing. Joins build a
//! hash index on the build side once, probe it per probe-side row
//! collecting (left row, right row) matches, and assemble the output
//! from per-column gathers.
//!
//! Every execution carries an [`ExecContext`]:
//!
//! * the **scan cache** resolves each EDB relation at most once per
//!   query — all `Scan` leaves of the same relation (and, through
//!   [`crate::fixpoint`], all rounds of a fixpoint) share one batch,
//!   handing out metadata-only views with the leaf's schema. A miss
//!   clones the relation's resident batch from its slot
//!   ([`crate::slots`]), which materializes it once per database
//!   generation;
//! * the **sub-plan cache** resolves [`PhysPlan::Shared`] nodes: the
//!   first occurrence runs the sub-plan and caches the batch by id,
//!   every later occurrence gets a storage-shared clone.
//!
//! Both caches rely on [`IndexedRelation`] clones being cheap (an Arc'd
//! column store, a shared index map) — see the `indexed` module docs.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use relviz_model::{CmpOp, Relation, Schema, Value, ValueRef};
use relviz_ra::{Operand, Predicate};

use crate::column::{row_id, Bitmap, Column, ColumnData, ColumnStore, RowId};
use crate::error::{ExecError, ExecResult};
use crate::indexed::{row_hash_at, FxBuild, IndexedRelation, JoinKey};
use crate::plan::{OutputCol, PhysPlan};
use crate::slots::Source;

/// The scan state of a running fixpoint: per-predicate accumulated IDB
/// batches and the previous round's deltas, resolved by `ScanIdb` /
/// `ScanDelta` nodes. Plain plans run with no state; the fixpoint
/// runner ([`crate::fixpoint`]) threads one through every rule plan.
pub(crate) struct FixpointState<'a> {
    pub idb: &'a HashMap<String, IndexedRelation>,
    pub delta: &'a HashMap<String, IndexedRelation>,
    /// The **operator-parallelism budget** for plans run under this
    /// state: the fixpoint divides the engine's worker count across
    /// concurrently-running strata and rules, so the chunked operators
    /// inside a rule use this share, not the full width — nested
    /// parallel regions divide the budget instead of multiplying it.
    pub threads: usize,
}

/// Per-execution caches. One context lives for exactly one `execute` /
/// `run` call — or one whole fixpoint evaluation, where sharing the
/// scan cache across rounds is the point (the EDB cannot change
/// mid-query). The sub-plan cache must never serve a plan containing
/// fixpoint scans (`Shared` is only emitted for plain plans), because
/// its entries are never invalidated within an execution.
///
/// The context also carries the execution's **parallelism**: `threads`
/// is `Some(n >= 2)` only for a run above one worker. Plain plans take it
/// as their operator width; fixpoint rule plans take their budget
/// share from [`FixpointState::threads`] instead. Either way every
/// operator consults the free [`par_over`] before leaving its serial
/// path — so a one-thread run takes, by construction, exactly the
/// serial engine's code paths.
#[derive(Default)]
pub(crate) struct ExecContext {
    /// EDB relation name → its one materialized, indexed batch.
    scans: Mutex<HashMap<String, IndexedRelation>>,
    /// `Shared` sub-plan id → its computed batch.
    subplans: Mutex<HashMap<u32, IndexedRelation>>,
    /// Worker count above one; `None` on the serial operator path.
    threads: Option<usize>,
    /// The analysis sink (`EXPLAIN ANALYZE`); `None` — the common case —
    /// keeps every recording site a single branch on the disabled path.
    stats: Option<Arc<crate::stats::QueryStats>>,
}

impl ExecContext {
    pub(crate) fn new() -> Self {
        ExecContext::default()
    }

    /// A context for a run at `threads` workers; `threads <= 1` yields a
    /// plain serial context (the degeneration guarantee).
    pub(crate) fn with_threads(threads: usize) -> Self {
        ExecContext { threads: (threads > 1).then_some(threads), ..ExecContext::default() }
    }

    /// Attaches an analysis sink: every operator, pool worker, and
    /// fixpoint round of this execution records into `stats`.
    pub(crate) fn with_stats(mut self, stats: Arc<crate::stats::QueryStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The worker count, if this execution is parallel at all.
    pub(crate) fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The analysis sink, if this execution is analyzed.
    pub(crate) fn stats(&self) -> Option<&crate::stats::QueryStats> {
        self.stats.as_deref()
    }

    /// The per-worker utilization slots, if this execution is analyzed.
    pub(crate) fn pool_stats(&self) -> Option<&crate::stats::PoolStats> {
        self.stats.as_deref().map(crate::stats::QueryStats::pool)
    }

    /// The stats node mirroring `plan`, if this execution is analyzed
    /// *and* the plan is part of the registered tree.
    pub(crate) fn node_stats(&self, plan: &PhysPlan) -> Option<&crate::stats::NodeStats> {
        self.stats.as_deref().and_then(|s| s.node(plan))
    }

    /// Publishes a prewarmed `Shared` sub-plan batch (runs above one
    /// worker).
    pub(crate) fn insert_subplan(&self, id: u32, batch: IndexedRelation) {
        self.subplans.lock().entry(id).or_insert(batch);
    }
}

/// Executes a plan, returning a set-semantics [`Relation`].
pub fn execute<'a>(plan: &PhysPlan, db: impl Into<Source<'a>>) -> ExecResult<Relation> {
    run(plan, db).map(IndexedRelation::into_relation)
}

/// Executes a plan, returning the raw (possibly bag-semantics) batch.
pub fn run<'a>(plan: &PhysPlan, db: impl Into<Source<'a>>) -> ExecResult<IndexedRelation> {
    run_with(plan, &db.into(), None, &ExecContext::new())
}

/// Every column index in `cols` must be in bounds for `arity` — the
/// executor's runtime guard for the invariant [`crate::verify`] proves
/// statically. Checked once per operator, so release builds running
/// unverified plans fail with context instead of an index panic deep
/// in a probe loop.
fn check_cols(cols: &[usize], arity: usize, what: &str) -> ExecResult<()> {
    if let Some(&bad) = cols.iter().find(|&&i| i >= arity) {
        return Err(ExecError::Eval(format!(
            "{what} reads column {bad}, but the input has arity {arity}"
        )));
    }
    Ok(())
}

/// Executes a plan with optional fixpoint scan state and the
/// execution's caches. On an analyzed execution, wraps every node in a
/// timing + output-cardinality recording; otherwise it *is* the bare
/// recursion — one `Option` check per node is the whole disabled-path
/// overhead at this layer.
pub(crate) fn run_with(
    plan: &PhysPlan,
    src: &Source<'_>,
    state: Option<&FixpointState<'_>>,
    ctx: &ExecContext,
) -> ExecResult<IndexedRelation> {
    match ctx.node_stats(plan) {
        None => run_node(plan, src, state, ctx),
        Some(node) => {
            let t0 = std::time::Instant::now();
            let result = run_node(plan, src, state, ctx);
            if let Ok(batch) = &result {
                node.record_batch(
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    batch.len() as u64,
                );
            }
            result
        }
    }
}

/// One operator's evaluation (the `run_with` body, unwrapped).
fn run_node(
    plan: &PhysPlan,
    src: &Source<'_>,
    state: Option<&FixpointState<'_>>,
    ctx: &ExecContext,
) -> ExecResult<IndexedRelation> {
    // Shorthand: recurse with the same state and caches threaded through.
    let run = |p: &PhysPlan| run_with(p, src, state, ctx);
    // The operator-parallelism width: a fixpoint rule's budget share,
    // or the engine's full worker count for plain plans.
    let width = match state {
        Some(s) => s.threads,
        None => ctx.threads().unwrap_or(1),
    };
    match plan {
        PhysPlan::Scan { rel, schema } => {
            // The lock is held across the slot lookup so concurrent
            // workers missing the same relation record one miss between
            // them — the hit/miss counts are deterministic on every
            // engine. A first touch of the generation materializes under
            // the lock; two workers first-touching *different* relations
            // serialize on it at most once per relation per execution.
            let (base, hit) = {
                let mut scans = ctx.scans.lock();
                match scans.get(rel) {
                    Some(batch) => (batch.clone(), true),
                    None => {
                        let batch = src.batch(rel)?;
                        scans.insert(rel.clone(), batch.clone());
                        (batch, false)
                    }
                }
            };
            if let Some(node) = ctx.node_stats(plan) {
                node.record_cache(hit);
            }
            if base.schema().arity() != schema.arity() {
                return Err(ExecError::Eval(format!(
                    "scan of `{rel}`: plan schema arity {} != stored arity {}",
                    schema.arity(),
                    base.schema().arity()
                )));
            }
            // A storage-shared view under the leaf's (possibly renamed)
            // schema; indexes built on any view land in the shared cache.
            Ok(base.with_schema(schema.clone()))
        }
        PhysPlan::ScanIdb { rel, schema } => {
            let state = state.ok_or_else(|| {
                ExecError::Eval(format!("ScanIdb `{rel}` outside a fixpoint: engine bug"))
            })?;
            let batch = state.idb.get(rel).ok_or_else(|| {
                ExecError::Eval(format!("ScanIdb `{rel}`: predicate missing from IDB state"))
            })?;
            // A zero-copy view: cells and cached indexes stay shared
            // with the accumulated IDB, so joins keyed the same way
            // across rounds probe without copying or rebuilding.
            Ok(batch.clone().with_schema(schema.clone()))
        }
        PhysPlan::ScanDelta { rel, schema } => {
            let state = state.ok_or_else(|| {
                ExecError::Eval(format!("ScanDelta `{rel}` outside a fixpoint: engine bug"))
            })?;
            let batch = state.delta.get(rel).ok_or_else(|| {
                ExecError::Eval(format!("ScanDelta `{rel}`: predicate missing from delta state"))
            })?;
            Ok(batch.clone().with_schema(schema.clone()))
        }
        PhysPlan::Shared { id, input, schema } => {
            let cached = {
                let subplans = ctx.subplans.lock();
                subplans.get(id).cloned()
            };
            if let Some(node) = ctx.node_stats(plan) {
                node.record_cache(cached.is_some());
            }
            let batch = match cached {
                Some(batch) => batch,
                None => {
                    let batch = run(input)?;
                    ctx.subplans.lock().insert(*id, batch.clone());
                    batch
                }
            };
            Ok(batch.with_schema(schema.clone()))
        }
        PhysPlan::Values { rows, schema } => {
            Ok(IndexedRelation::new(schema.clone(), rows.clone()))
        }
        PhysPlan::Filter { pred, input, schema } => {
            let batch = run(input)?;
            // The predicate is written in the input's attribute names; the
            // node's own schema may differ (renames fold into schemas).
            let compiled = compile_pred(pred, batch.schema())?;
            let store = batch.store();
            if let Some(node) = ctx.node_stats(plan) {
                node.record_input(store.len() as u64);
            }
            let rows = probe_chunked(width, store.len(), ctx.pool_stats(), &|range| {
                let bm = eval_pred_bitmap(&compiled, store, &range);
                let mut rows = Vec::with_capacity(bm.count_ones());
                bm.collect_ones(range.start, &mut rows);
                rows
            });
            Ok(IndexedRelation::from_store(schema.clone(), store.gather(&rows)))
        }
        PhysPlan::Project { cols, input, schema } => {
            // Fused path: a projection directly over a hash join emits
            // the projected columns straight out of the probe loop — the
            // join's full-width output (the per-round hot path of every
            // Datalog head) is never materialized.
            if let PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                right_keep,
                post,
                schema: join_schema,
            } = input.as_ref()
            {
                let join = JoinSpec {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    right_keep,
                    post,
                    schema: join_schema,
                };
                // Fused, the join node never produces a batch of its
                // own — attribute its build/probe/match stats to the
                // join node explicitly (the projection's wrapper above
                // records only the fused output).
                return run_hash_join(
                    &join,
                    Some((cols, schema)),
                    &run,
                    width,
                    ctx.pool_stats(),
                    ctx.node_stats(input),
                );
            }
            let batch = run(input)?;
            project_store(batch.store(), cols, schema.clone())
        }
        PhysPlan::HashJoin { left, right, left_keys, right_keys, right_keep, post, schema } => {
            let join = JoinSpec { left, right, left_keys, right_keys, right_keep, post, schema };
            run_hash_join(&join, None, &run, width, ctx.pool_stats(), ctx.node_stats(plan))
        }
        PhysPlan::SemiJoin { left, right, left_keys, right_keys, schema } => {
            let lb = run(left)?;
            let rb = run(right)?;
            check_cols(left_keys, lb.schema().arity(), "SemiJoin left key")?;
            check_cols(right_keys, rb.schema().arity(), "SemiJoin right key")?;
            if let Some(node) = ctx.node_stats(plan) {
                node.record_join(rb.len() as u64, lb.len() as u64);
            }
            let rindex = build_side_index(&rb, right_keys, width, ctx.pool_stats());
            let lstore = lb.store();
            let rows = probe_chunked(width, lstore.len(), ctx.pool_stats(), &|range| {
                let mut key = JoinKey::with_capacity(left_keys.len());
                let mut rows = Vec::new();
                for r in range {
                    key.refill_from(lstore, r, left_keys);
                    if rindex.contains_key(&key) {
                        rows.push(row_id(r));
                    }
                }
                rows
            });
            Ok(IndexedRelation::from_store(schema.clone(), lstore.gather(&rows)))
        }
        PhysPlan::AntiJoin { left, right, left_keys, right_keys, schema } => {
            let lb = run(left)?;
            let rb = run(right)?;
            check_cols(left_keys, lb.schema().arity(), "AntiJoin left key")?;
            check_cols(right_keys, rb.schema().arity(), "AntiJoin right key")?;
            if let Some(node) = ctx.node_stats(plan) {
                node.record_join(rb.len() as u64, lb.len() as u64);
            }
            let rindex = build_side_index(&rb, right_keys, width, ctx.pool_stats());
            let lstore = lb.store();
            let rows = probe_chunked(width, lstore.len(), ctx.pool_stats(), &|range| {
                let mut key = JoinKey::with_capacity(left_keys.len());
                let mut rows = Vec::new();
                for r in range {
                    key.refill_from(lstore, r, left_keys);
                    if !rindex.contains_key(&key) {
                        rows.push(row_id(r));
                    }
                }
                rows
            });
            Ok(IndexedRelation::from_store(schema.clone(), lstore.gather(&rows)))
        }
        PhysPlan::Union { left, right, schema } => {
            let lb = run(left)?;
            let rb = run(right)?;
            Ok(IndexedRelation::from_store(schema.clone(), lb.store().concat(rb.store())))
        }
        PhysPlan::Diff { left, right, schema } => {
            let lb = run(left)?;
            let rb = run(right)?;
            let (lstore, rstore) = (lb.store(), rb.store());
            // Membership by whole-row hash + total-order equality — the
            // same notion of tuple equality the reference evaluators'
            // set semantics use (Int 1 == Float 1.0, NaN == NaN).
            let mut exclude: HashMap<u64, Vec<RowId>, FxBuild> = HashMap::default();
            for r in 0..rstore.len() {
                exclude.entry(row_hash_at(rstore, r)).or_default().push(row_id(r));
            }
            let keep: Vec<RowId> = (0..lstore.len())
                .filter(|&r| {
                    !exclude.get(&row_hash_at(lstore, r)).is_some_and(|bucket| {
                        bucket.iter().any(|&q| rstore.rows_equal(q as usize, lstore, r))
                    })
                })
                .map(row_id)
                .collect();
            Ok(IndexedRelation::from_store(schema.clone(), lstore.gather(&keep)))
        }
        PhysPlan::Dedup { input, schema } => {
            let batch = run(input)?;
            let store = batch.store();
            // First occurrence wins, in row order — identical to the
            // reference evaluators' set construction under the total
            // order, but via the whole-row hash instead of a tree set.
            let mut seen: HashMap<u64, Vec<RowId>, FxBuild> = HashMap::default();
            let mut keep: Vec<RowId> = Vec::new();
            for r in 0..store.len() {
                let bucket = seen.entry(row_hash_at(store, r)).or_default();
                if bucket.iter().any(|&q| store.rows_equal(q as usize, store, r)) {
                    continue;
                }
                bucket.push(row_id(r));
                keep.push(row_id(r));
            }
            Ok(IndexedRelation::from_store(schema.clone(), store.gather(&keep)))
        }
    }
}

/// The zero-copy projection kernel: position columns are `Arc` clones
/// of the input's columns, constant columns are materialized once.
fn project_store(
    store: &ColumnStore,
    cols: &[OutputCol],
    schema: Schema,
) -> ExecResult<IndexedRelation> {
    let positions: Vec<usize> = cols
        .iter()
        .filter_map(|c| match c {
            OutputCol::Pos(i) => Some(*i),
            OutputCol::Const(_) => None,
        })
        .collect();
    check_cols(&positions, store.arity(), "Project")?;
    let columns: Vec<Arc<Column>> = cols
        .iter()
        .map(|c| match c {
            OutputCol::Pos(i) => store.col_arc(*i),
            OutputCol::Const(v) => Arc::new(Column::of_const(v, store.len())),
        })
        .collect();
    Ok(IndexedRelation::from_store(schema, ColumnStore::from_columns(columns, store.len())))
}

// ---------------------------------------------------------------------------
// Partitioned execution helpers
// ---------------------------------------------------------------------------

/// Runs a row-range job over `rows` input rows: one call for the whole
/// range on the serial path, or one call per contiguous chunk on the
/// parallel path with the chunk outputs concatenated **in range
/// order** — so the produced row sequence is identical either way.
#[allow(clippy::indexing_slicing)] // `chunks` yields exactly `ranges.len()` ranges inside 0..rows
fn probe_chunked<T: Send>(
    width: usize,
    rows: usize,
    pool: Option<&crate::stats::PoolStats>,
    job: &(dyn Fn(Range<usize>) -> Vec<T> + Sync),
) -> Vec<T> {
    match par_over(width, rows) {
        Some(threads) => {
            let ranges = crate::pool::chunks(rows, threads);
            let parts =
                crate::pool::scatter(threads, ranges.len(), pool, &|i| job(ranges[i].clone()));
            let total = parts.iter().map(Vec::len).sum();
            let mut out = Vec::with_capacity(total);
            for mut p in parts {
                out.append(&mut p);
            }
            out
        }
        None => job(0..rows),
    }
}

/// The worker count for one operator over `rows` input rows at the
/// given width budget — only past the row threshold is the partitioned
/// path worth its dispatch, and a width of one is the serial path by
/// definition.
fn par_over(width: usize, rows: usize) -> Option<usize> {
    (width > 1 && rows >= crate::parallel::PAR_MIN_ROWS).then_some(width)
}

/// A join's build-side index: the flat shared index on the serial
/// path, or hash-range partitions built concurrently on the parallel
/// path. Probes see identical buckets either way.
enum ProbeIndex {
    Flat(Arc<crate::indexed::Index>),
    Parts(Arc<crate::indexed::PartitionedIndex>),
}

impl ProbeIndex {
    fn get(&self, key: &JoinKey) -> Option<&Vec<RowId>> {
        match self {
            ProbeIndex::Flat(idx) => idx.get(key),
            ProbeIndex::Parts(idx) => idx.get(key),
        }
    }

    fn contains_key(&self, key: &JoinKey) -> bool {
        self.get(key).is_some()
    }
}

fn build_side_index(
    rb: &IndexedRelation,
    keys: &[usize],
    width: usize,
    pool: Option<&crate::stats::PoolStats>,
) -> ProbeIndex {
    match par_over(width, rb.len()) {
        Some(threads) => {
            ProbeIndex::Parts(crate::parallel::partitioned_index(rb, keys, threads, pool))
        }
        None => ProbeIndex::Flat(rb.index(keys)),
    }
}

// ---------------------------------------------------------------------------
// Hash join (with optional fused projection)
// ---------------------------------------------------------------------------

/// The fields of a `HashJoin` node, borrowed for [`run_hash_join`].
struct JoinSpec<'a> {
    left: &'a PhysPlan,
    right: &'a PhysPlan,
    left_keys: &'a [usize],
    right_keys: &'a [usize],
    right_keep: &'a [usize],
    post: &'a Option<Predicate>,
    schema: &'a Schema,
}

/// Where a projected output column comes from relative to the join's
/// (virtual) output row `left ++ right[right_keep]`.
enum FusedCol {
    Left(usize),
    Right(usize),
    Const(Value),
}

/// Runs a hash join; with `project` set, emits the projected columns
/// directly from the matched rows instead of materializing the join's
/// full-width output first.
///
/// The probe loop batches key-hashing over the probe side's columns
/// and collects **(left row, right row) matches** — no output row is
/// built inside the loop. The residual θ-predicate (rare in fused
/// plans) evaluates in place against borrowed cells of both stores.
/// The output is then assembled column by column: one typed gather per
/// left/kept-right column (or per fused output column), sharing
/// interners and skipping `Tuple`s entirely.
///
/// On the parallel path the build side is indexed in hash-range
/// partitions and the probe side is chunked into contiguous row
/// ranges — see [`build_side_index`] and [`probe_chunked`] for why the
/// match sequence is identical to the serial loop's.
// `right_keep` positions are `check_cols`-validated against both arities.
#[allow(clippy::indexing_slicing)]
fn run_hash_join(
    join: &JoinSpec<'_>,
    project: Option<(&[OutputCol], &Schema)>,
    run: &dyn Fn(&PhysPlan) -> ExecResult<IndexedRelation>,
    width: usize,
    pool: Option<&crate::stats::PoolStats>,
    node: Option<&crate::stats::NodeStats>,
) -> ExecResult<IndexedRelation> {
    let lb = run(join.left)?;
    let rb = run(join.right)?;
    check_cols(join.left_keys, lb.schema().arity(), "HashJoin left key")?;
    check_cols(join.right_keys, rb.schema().arity(), "HashJoin right key")?;
    check_cols(join.right_keep, rb.schema().arity(), "HashJoin kept right column")?;
    if let Some(n) = node {
        n.record_join(rb.len() as u64, lb.len() as u64);
    }
    let rindex = build_side_index(&rb, join.right_keys, width, pool);
    // Like Filter: the residual predicate is written in the *inputs'*
    // attribute names, which a rename folded onto this node's output
    // schema may no longer carry.
    let compiled = join
        .post
        .as_ref()
        .map(|p| {
            let mut attrs = lb.schema().attrs().to_vec();
            for &i in join.right_keep {
                attrs.push(rb.schema().attrs()[i].clone());
            }
            let pred_schema = Schema::new(attrs).map_err(|e| ExecError::Eval(e.to_string()))?;
            compile_pred(p, &pred_schema)
        })
        .transpose()?;

    let left_arity = lb.schema().arity();
    let fused: Option<Vec<FusedCol>> = match project {
        Some((cols, _)) => Some(
            cols.iter()
                .map(|c| match c {
                    OutputCol::Pos(i) if *i < left_arity => Ok(FusedCol::Left(*i)),
                    OutputCol::Pos(i) => join
                        .right_keep
                        .get(*i - left_arity)
                        .copied()
                        .map(FusedCol::Right)
                        .ok_or_else(|| {
                            ExecError::Eval(format!(
                                "fused projection reads join output position {i}, but the join \
                                 is {left_arity} left + {} kept right column(s) wide",
                                join.right_keep.len()
                            ))
                        }),
                    OutputCol::Const(v) => Ok(FusedCol::Const(v.clone())),
                })
                .collect::<ExecResult<Vec<_>>>()?,
        ),
        None => None,
    };
    let out_schema = project.map_or(join.schema, |(_, s)| s).clone();

    let lstore = lb.store();
    let rstore = rb.store();
    let pairs: Vec<(RowId, RowId)> = probe_chunked(width, lstore.len(), pool, &|range| {
        let mut pairs = Vec::new();
        let mut key = JoinKey::with_capacity(join.left_keys.len());
        for a in range {
            key.refill_from(lstore, a, join.left_keys);
            let Some(rows) = rindex.get(&key) else { continue };
            for &b in rows {
                let matches = compiled.as_ref().is_none_or(|p| {
                    eval_pred_at(p, &|pos| {
                        if pos < left_arity {
                            lstore.get(pos, a)
                        } else {
                            rstore.get(join.right_keep[pos - left_arity], b as usize)
                        }
                    })
                });
                if matches {
                    pairs.push((row_id(a), b));
                }
            }
        }
        pairs
    });

    let (lrows, rrows): (Vec<RowId>, Vec<RowId>) = pairs.into_iter().unzip();
    let out_rows = lrows.len();
    let columns: Vec<Arc<Column>> = match &fused {
        Some(cols) => cols
            .iter()
            .map(|c| match c {
                FusedCol::Left(i) => Arc::new(lstore.col(*i).gather(&lrows)),
                FusedCol::Right(i) => Arc::new(rstore.col(*i).gather(&rrows)),
                FusedCol::Const(v) => Arc::new(Column::of_const(v, out_rows)),
            })
            .collect(),
        None => {
            let mut columns: Vec<Arc<Column>> =
                (0..left_arity).map(|i| Arc::new(lstore.col(i).gather(&lrows))).collect();
            for &i in join.right_keep {
                columns.push(Arc::new(rstore.col(i).gather(&rrows)));
            }
            columns
        }
    };
    if project.is_some() {
        // The fused join's match count, with no time of its own — the
        // probe ran under the projection node's clock.
        if let Some(n) = node {
            n.record_batch(0, out_rows as u64);
        }
    }
    Ok(IndexedRelation::from_store(out_schema, ColumnStore::from_columns(columns, out_rows)))
}

// ---------------------------------------------------------------------------
// Compiled predicates (positions instead of names)
// ---------------------------------------------------------------------------

enum CompiledPred {
    Cmp { left: CompiledOperand, op: CmpOp, right: CompiledOperand },
    And(Box<CompiledPred>, Box<CompiledPred>),
    Or(Box<CompiledPred>, Box<CompiledPred>),
    Not(Box<CompiledPred>),
    Const(bool),
}

enum CompiledOperand {
    Pos(usize),
    Const(Value),
}

fn compile_pred(pred: &Predicate, schema: &Schema) -> ExecResult<CompiledPred> {
    Ok(match pred {
        Predicate::Const(b) => CompiledPred::Const(*b),
        Predicate::Not(p) => CompiledPred::Not(Box::new(compile_pred(p, schema)?)),
        Predicate::And(a, b) => CompiledPred::And(
            Box::new(compile_pred(a, schema)?),
            Box::new(compile_pred(b, schema)?),
        ),
        Predicate::Or(a, b) => CompiledPred::Or(
            Box::new(compile_pred(a, schema)?),
            Box::new(compile_pred(b, schema)?),
        ),
        Predicate::Cmp { left, op, right } => CompiledPred::Cmp {
            left: compile_operand(left, schema)?,
            op: *op,
            right: compile_operand(right, schema)?,
        },
    })
}

fn compile_operand(op: &Operand, schema: &Schema) -> ExecResult<CompiledOperand> {
    Ok(match op {
        Operand::Const(v) => CompiledOperand::Const(v.clone()),
        Operand::Attr(name) => CompiledOperand::Pos(schema.index_of(name).ok_or_else(|| {
            ExecError::Eval(format!("unknown attribute `{name}` in {schema}"))
        })?),
    })
}

/// Evaluates a compiled predicate over a row range **column-at-a-time**:
/// each comparison leaf produces one selection [`Bitmap`] from a typed
/// pass over its column, and `AND`/`OR`/`NOT` combine the bitmaps
/// word-wise. Bit `i` of the result is row `range.start + i`'s verdict.
fn eval_pred_bitmap(pred: &CompiledPred, store: &ColumnStore, range: &Range<usize>) -> Bitmap {
    match pred {
        CompiledPred::Const(true) => Bitmap::ones(range.len()),
        CompiledPred::Const(false) => Bitmap::zeros(range.len()),
        CompiledPred::Not(p) => {
            let mut bm = eval_pred_bitmap(p, store, range);
            bm.negate();
            bm
        }
        CompiledPred::And(a, b) => {
            let mut bm = eval_pred_bitmap(a, store, range);
            bm.and_with(&eval_pred_bitmap(b, store, range));
            bm
        }
        CompiledPred::Or(a, b) => {
            let mut bm = eval_pred_bitmap(a, store, range);
            bm.or_with(&eval_pred_bitmap(b, store, range));
            bm
        }
        CompiledPred::Cmp { left, op, right } => match (left, right) {
            (CompiledOperand::Const(l), CompiledOperand::Const(r)) => {
                // Constant fold: one comparison decides the whole range.
                if op.holds(l.cmp(r)) {
                    Bitmap::ones(range.len())
                } else {
                    Bitmap::zeros(range.len())
                }
            }
            (CompiledOperand::Pos(i), CompiledOperand::Const(v)) => {
                col_const_bitmap(store.col(*i), *op, v, range)
            }
            // `c op col` ⇔ `col op.flip() c`.
            (CompiledOperand::Const(v), CompiledOperand::Pos(i)) => {
                col_const_bitmap(store.col(*i), op.flip(), v, range)
            }
            (CompiledOperand::Pos(i), CompiledOperand::Pos(j)) => {
                let (a, b) = (store.col(*i), store.col(*j));
                let mut bm = Bitmap::zeros(range.len());
                for (k, r) in range.clone().enumerate() {
                    if op.holds(a.get(r).total_cmp(b.get(r))) {
                        bm.set(k);
                    }
                }
                bm
            }
        },
    }
}

/// The column-vs-constant comparison kernel: one tight pass over the
/// column's typed vector. Every verdict goes through
/// [`ValueRef::total_cmp`] + [`CmpOp::holds`] — the same decision the
/// row-major reference path makes — so vectorization cannot drift on
/// the `NaN`/`-0.0`/cross-numeric edge cases. String columns evaluate
/// the predicate once per **distinct** string (over the interner) and
/// map the verdicts over the id vector.
// `range` is a chunk of 0..col.len(); interner ids index their own table.
#[allow(clippy::indexing_slicing)]
fn col_const_bitmap(col: &Column, op: CmpOp, c: &Value, range: &Range<usize>) -> Bitmap {
    let mut bm = Bitmap::zeros(range.len());
    let cref = ValueRef::of(c);
    if col.validity().is_some() {
        // NULLs present: the per-cell path reads through the bitmap.
        for (k, r) in range.clone().enumerate() {
            if op.holds(col.get(r).total_cmp(cref)) {
                bm.set(k);
            }
        }
        return bm;
    }
    match col.data() {
        ColumnData::Int(xs) => {
            for (k, x) in xs[range.clone()].iter().enumerate() {
                if op.holds(ValueRef::Int(*x).total_cmp(cref)) {
                    bm.set(k);
                }
            }
        }
        ColumnData::Float(xs) => {
            for (k, x) in xs[range.clone()].iter().enumerate() {
                if op.holds(ValueRef::Float(*x).total_cmp(cref)) {
                    bm.set(k);
                }
            }
        }
        ColumnData::Bool(xs) => {
            for (k, x) in xs[range.clone()].iter().enumerate() {
                if op.holds(ValueRef::Bool(*x).total_cmp(cref)) {
                    bm.set(k);
                }
            }
        }
        ColumnData::Str { ids, interner } => {
            let verdicts: Vec<bool> =
                interner.iter().map(|s| op.holds(ValueRef::Str(s).total_cmp(cref))).collect();
            for (k, id) in ids[range.clone()].iter().enumerate() {
                if verdicts[*id as usize] {
                    bm.set(k);
                }
            }
        }
        ColumnData::Mixed(xs) => {
            for (k, v) in xs[range.clone()].iter().enumerate() {
                if op.holds(ValueRef::of(v).total_cmp(cref)) {
                    bm.set(k);
                }
            }
        }
    }
    bm
}

/// Evaluates a compiled predicate against one (virtual) row whose cells
/// `cell(pos)` yields — how a join residual runs over a matched pair
/// without materializing the concatenated row.
fn eval_pred_at<'a, F>(pred: &'a CompiledPred, cell: &F) -> bool
where
    F: Fn(usize) -> ValueRef<'a>,
{
    match pred {
        CompiledPred::Const(b) => *b,
        CompiledPred::Not(p) => !eval_pred_at(p, cell),
        CompiledPred::And(a, b) => eval_pred_at(a, cell) && eval_pred_at(b, cell),
        CompiledPred::Or(a, b) => eval_pred_at(a, cell) || eval_pred_at(b, cell),
        CompiledPred::Cmp { left, op, right } => {
            let l = operand_at(left, cell);
            let r = operand_at(right, cell);
            op.holds(l.total_cmp(r))
        }
    }
}

fn operand_at<'a, F>(op: &'a CompiledOperand, cell: &F) -> ValueRef<'a>
where
    F: Fn(usize) -> ValueRef<'a>,
{
    match op {
        CompiledOperand::Pos(i) => cell(*i),
        CompiledOperand::Const(v) => ValueRef::of(v),
    }
}

/// Microbenchmark entry points: the stable kernels with no plan tree
/// around them, for the per-operator rows of the `s1_exec` bench
/// binary. Not public API.
#[doc(hidden)]
pub mod bench {
    use super::*;

    /// The serial vectorized filter kernel over a whole batch — the unit
    /// the per-operator benchmark rows measure against their row-major
    /// baselines.
    pub fn filter(batch: &IndexedRelation, pred: &Predicate) -> ExecResult<IndexedRelation> {
        let compiled = compile_pred(pred, batch.schema())?;
        let store = batch.store();
        let bm = eval_pred_bitmap(&compiled, store, &(0..store.len()));
        let mut rows = Vec::with_capacity(bm.count_ones());
        bm.collect_ones(0, &mut rows);
        Ok(IndexedRelation::from_store(batch.schema().clone(), store.gather(&rows)))
    }

    /// The zero-copy projection kernel.
    pub fn project(
        batch: &IndexedRelation,
        cols: &[OutputCol],
        schema: Schema,
    ) -> ExecResult<IndexedRelation> {
        project_store(batch.store(), cols, schema)
    }

    /// The serial hash-join probe + output assembly over a prebuilt flat
    /// index (`right.index(right_keys)` — cached, so repeated timing loops
    /// measure the probe, not the build). Emits the full-width
    /// `left ++ right` output.
    pub fn hashjoin_probe(
        left: &IndexedRelation,
        right: &IndexedRelation,
        left_keys: &[usize],
        right_keys: &[usize],
    ) -> ExecResult<IndexedRelation> {
        check_cols(left_keys, left.schema().arity(), "probe left key")?;
        check_cols(right_keys, right.schema().arity(), "probe right key")?;
        let rindex = right.index(right_keys);
        let (lstore, rstore) = (left.store(), right.store());
        let mut lrows: Vec<RowId> = Vec::new();
        let mut rrows: Vec<RowId> = Vec::new();
        let mut key = JoinKey::with_capacity(left_keys.len());
        for a in 0..lstore.len() {
            key.refill_from(lstore, a, left_keys);
            let Some(rows) = rindex.get(&key) else { continue };
            for &b in rows {
                lrows.push(row_id(a));
                rrows.push(b);
            }
        }
        let mut attrs = left.schema().attrs().to_vec();
        for a in right.schema().attrs() {
            let mut a = a.clone();
            // Bench inputs may share attribute names (e.g. the join key);
            // disambiguate like SQL's `t.col` would.
            if attrs.iter().any(|l| l.name == a.name) {
                a.name = format!("r_{}", a.name);
            }
            attrs.push(a);
        }
        let schema = Schema::new(attrs).map_err(|e| ExecError::Eval(e.to_string()))?;
        let mut columns: Vec<Arc<Column>> =
            (0..lstore.arity()).map(|i| Arc::new(lstore.col(i).gather(&lrows))).collect();
        for i in 0..rstore.arity() {
            columns.push(Arc::new(rstore.col(i).gather(&rrows)));
        }
        Ok(IndexedRelation::from_store(schema, ColumnStore::from_columns(columns, lrows.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::OptConfig;
    use crate::planner::{plan_ra_with, plan_trc_with};
    use relviz_model::catalog::sailors_sample;

    fn check_ra(src: &str) {
        let db = sailors_sample();
        let e = relviz_ra::parse::parse_ra(src).unwrap();
        let reference = relviz_ra::eval::eval(&e, &db).unwrap();
        let ours = execute(&plan_ra_with(&e, &db, OptConfig::optimized()).unwrap(), &db).unwrap();
        assert!(ours.same_contents(&reference), "`{src}`\nours={ours}\nref={reference}");
    }

    #[test]
    fn ra_operators_match_reference() {
        for src in [
            "Sailor",
            "Select[rating > 7](Sailor)",
            "Project[sname](Sailor)",
            "Rename[sid -> s](Project[sid](Sailor))",
            "Product(Project[sid](Sailor), Project[bid](Boat))",
            "Join(Sailor, Reserves)",
            "Join(Sailor, Join(Reserves, Project[bid](Select[color = 'red'](Boat))))",
            "Union(Project[sid](Sailor), Project[sid](Reserves))",
            "Intersect(Project[sid](Sailor), Project[sid](Reserves))",
            "Difference(Project[sid](Sailor), Project[sid](Reserves))",
            "Division(Project[sid, bid](Reserves), Project[bid](Select[color = 'red'](Boat)))",
            "Select[NOT (color = 'red' OR color = 'green')](Boat)",
        ] {
            check_ra(src);
        }
    }

    #[test]
    fn trc_quantifier_nest_matches_reference() {
        let db = sailors_sample();
        // Q5: ¬∃ b (red ∧ ¬∃ r (reserved)) — the division pattern.
        let q = relviz_rc::trc_parse::parse_trc(
            "{s.sname | Sailor(s) and not exists b in Boat: (b.color = 'red' and \
             not exists r in Reserves: (r.sid = s.sid and r.bid = b.bid))}",
        )
        .unwrap();
        let reference = relviz_rc::trc_eval::eval_trc(&q, &db).unwrap();
        let ours = execute(&plan_trc_with(&q, &db, OptConfig::optimized()).unwrap(), &db).unwrap();
        assert!(ours.same_contents(&reference), "ours={ours}\nref={reference}");
        assert_eq!(ours.len(), 2);
    }

    #[test]
    fn trc_union_and_or_match_reference() {
        let db = sailors_sample();
        let q = relviz_rc::trc_parse::parse_trc(
            "{s.sname | Sailor(s) and exists r in Reserves, b in Boat: \
             (r.sid = s.sid and r.bid = b.bid and (b.color = 'red' or b.color = 'green'))}",
        )
        .unwrap();
        let reference = relviz_rc::trc_eval::eval_trc(&q, &db).unwrap();
        let ours = execute(&plan_trc_with(&q, &db, OptConfig::optimized()).unwrap(), &db).unwrap();
        assert!(ours.same_contents(&reference));
    }

    #[test]
    fn trc_constant_head_terms_are_supported() {
        let db = sailors_sample();
        let q = relviz_rc::trc_parse::parse_trc("{s.sname, 'tag' | Sailor(s)}").unwrap();
        let reference = relviz_rc::trc_eval::eval_trc(&q, &db).unwrap();
        let ours = execute(&plan_trc_with(&q, &db, OptConfig::optimized()).unwrap(), &db).unwrap();
        assert!(ours.same_contents(&reference));
        assert_eq!(ours.schema().arity(), 2);
    }

    /// Regression (found by tests/differential.rs): a Rename folded onto
    /// a Filter node must survive — the Filter's output batch carries the
    /// node's renamed schema, not its input's. Before the fix, a
    /// projection above the rename failed with "unknown attribute".
    #[test]
    fn rename_folded_onto_filter_keeps_renamed_schema() {
        // The outer Select resolves `x` against the renamed Filter's
        // output schema.
        check_ra("Select[x > 5](Rename[rating -> x](Select[rating > 3](Sailor)))");
    }

    /// Regression (same family): a Rename folded onto a θ-join with a
    /// residual predicate — the residual must compile against the
    /// *inputs'* names, which the renamed output schema no longer has.
    #[test]
    fn rename_folded_onto_theta_join_residual() {
        // The rename hits `s_sid`, which the residual `s_sid < bid`
        // references — the residual must compile against the inputs'
        // names, not the renamed output schema.
        check_ra(
            "Rename[s_sid -> z](ThetaJoin[s_sid = sid AND s_sid < bid](\
             Rename[sid -> s_sid](Project[sid, sname](Sailor)), Reserves))",
        );
    }

    #[test]
    fn missing_relation_is_an_eval_error() {
        let db = sailors_sample();
        let plan = PhysPlan::Scan {
            rel: "Ghost".into(),
            schema: Schema::empty(),
        };
        assert!(matches!(run(&plan, &db), Err(ExecError::Eval(_))));
    }

    /// Regression for the scan cache: a plan scanning the same EDB
    /// relation twice materializes it once, and two joins building the
    /// same key index on it build it once — the second probe side gets
    /// a storage-shared view whose index cache already holds it. On the
    /// columnar storage that also means each relation's columns are
    /// built exactly once per execution.
    #[test]
    fn repeated_scans_materialize_and_index_once() {
        use crate::stats::counters;
        let db = sailors_sample();
        let scan = |rel: &str| PhysPlan::Scan {
            rel: rel.into(),
            schema: db.schema(rel).unwrap().clone(),
        };
        let semi = |left: PhysPlan, right: PhysPlan| PhysPlan::SemiJoin {
            left_keys: vec![0],
            right_keys: vec![0],
            schema: left.schema().clone(),
            left: Box::new(left),
            right: Box::new(right),
        };
        // Sailor ⋉ Reserves ⋉ Reserves: `Reserves` appears twice, both
        // sides keyed on column 0.
        let plan = semi(semi(scan("Sailor"), scan("Reserves")), scan("Reserves"));
        counters::reset();
        let out = run(&plan, &db).unwrap();
        assert_eq!(out.len(), 4); // sailors holding a reservation
        assert_eq!(
            counters::materializations(),
            2,
            "Sailor once, Reserves once — not once per Scan leaf"
        );
        assert_eq!(
            counters::index_builds(),
            1,
            "the [0] index on Reserves must be built once and shared"
        );
        assert_eq!(
            counters::column_builds(),
            db.schema("Sailor").unwrap().arity() + db.schema("Reserves").unwrap().arity(),
            "each column columnarized exactly once — semi-join outputs gather, not rebuild"
        );
        assert_eq!(counters::deep_copies(), 0);
    }

    /// A `Shared` sub-plan executes once; every other occurrence gets a
    /// cheap clone of the cached batch (no re-materialization, and no
    /// re-columnarization — Union concatenates the cached columns).
    #[test]
    fn shared_subplan_runs_once() {
        use crate::stats::counters;
        let db = sailors_sample();
        let expensive = PhysPlan::Dedup {
            schema: db.schema("Reserves").unwrap().clone(),
            input: Box::new(PhysPlan::Scan {
                rel: "Reserves".into(),
                schema: db.schema("Reserves").unwrap().clone(),
            }),
        };
        let shared = |id| PhysPlan::Shared {
            id,
            input: Box::new(expensive.clone()),
            schema: expensive.schema().clone(),
        };
        let plan = PhysPlan::Union {
            schema: expensive.schema().clone(),
            left: Box::new(shared(0)),
            right: Box::new(shared(0)),
        };
        counters::reset();
        let out = run(&plan, &db).unwrap();
        let reserves = db.relation("Reserves").unwrap().len();
        assert_eq!(out.len(), 2 * reserves);
        assert_eq!(counters::materializations(), 1, "sub-plan must run once");
        assert_eq!(
            counters::column_builds(),
            db.schema("Reserves").unwrap().arity(),
            "the shared sub-plan's columns are built once, by its one Scan"
        );
        assert_eq!(counters::deep_copies(), 0);
    }

    /// The zero-copy projection really is zero-copy: the output's
    /// position columns are the *same* `Arc`s as the input's.
    #[test]
    fn projection_shares_column_storage() {
        let db = sailors_sample();
        let scan = PhysPlan::Scan {
            rel: "Sailor".into(),
            schema: db.schema("Sailor").unwrap().clone(),
        };
        let batch = run(&scan, &db).unwrap();
        let projected = bench::project(
            &batch,
            &[OutputCol::Pos(1), OutputCol::Pos(0)],
            Schema::of(&[
                ("sname", relviz_model::DataType::Str),
                ("sid", relviz_model::DataType::Int),
            ]),
        )
        .unwrap();
        assert!(Arc::ptr_eq(
            &batch.store().col_arc(1),
            &projected.store().col_arc(0)
        ));
        assert!(Arc::ptr_eq(
            &batch.store().col_arc(0),
            &projected.store().col_arc(1)
        ));
    }

    /// A filter compiles to selection bitmaps: one bitmap per predicate
    /// leaf (plus the combinators' reuse), not one per row — pinned so
    /// the kernel never silently degrades to per-row allocation.
    #[test]
    fn filter_allocates_bitmaps_per_leaf_not_per_row() {
        use crate::stats::counters;
        let db = sailors_sample();
        let e = relviz_ra::parse::parse_ra(
            "Select[NOT (color = 'red' OR color = 'green')](Boat)",
        )
        .unwrap();
        let plan = plan_ra_with(&e, &db, OptConfig::optimized()).unwrap();
        counters::reset();
        let out = run(&plan, &db).unwrap();
        assert!(!out.is_empty());
        // Two Cmp leaves → 2 bitmaps; OR and NOT mutate in place.
        assert_eq!(counters::bitmap_allocs(), 2);
    }

    /// The microbench kernels agree with the executor's operators.
    #[test]
    fn bench_kernels_match_operator_output() {
        let db = sailors_sample();
        let scan = |rel: &str| PhysPlan::Scan {
            rel: rel.into(),
            schema: db.schema(rel).unwrap().clone(),
        };
        let sailors = run(&scan("Sailor"), &db).unwrap();
        let pred = Predicate::cmp(
            Operand::attr("rating"),
            relviz_model::CmpOp::Gt,
            Operand::val(7),
        );
        let filtered = bench::filter(&sailors, &pred).unwrap();
        let via_plan = run(
            &PhysPlan::Filter {
                pred: pred.clone(),
                schema: sailors.schema().clone(),
                input: Box::new(scan("Sailor")),
            },
            &db,
        )
        .unwrap();
        assert_eq!(filtered.to_tuples(), via_plan.to_tuples());

        let reserves = run(&scan("Reserves"), &db).unwrap();
        let joined = bench::hashjoin_probe(&sailors, &reserves, &[0], &[0]).unwrap();
        // Sailor ⋈ Reserves on sid: every reservation pairs with its sailor.
        assert_eq!(joined.len(), db.relation("Reserves").unwrap().len());
        assert_eq!(joined.schema().arity(), 4 + 3);
    }
}
