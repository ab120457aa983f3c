//! `EXPLAIN ANALYZE` — the engine's **runtime statistics layer**.
//!
//! Two tiers of instrumentation live here:
//!
//! 1. [`counters`] — the crate-wide event counters (materializations,
//!    index builds, deep copies, bitmap allocations, pool dispatches,
//!    round-barrier merges, …). These were previously three separate
//!    `cfg(test)` thread-local modules in `indexed.rs`, `pool.rs` and
//!    `parallel.rs`; they are now **always compiled** (a thread-local
//!    `Cell` bump on rare structural events, ~1 ns) so release builds,
//!    the CLI and the benches read the same source of truth the
//!    zero-copy pin tests do.
//!
//! 2. [`QueryStats`] — a per-execution stats tree mirroring the
//!    [`PhysPlan`]/[`FixpointPlan`] shape: per-operator rows in/out,
//!    batches, hash-join build/probe sizes, nanosecond timings,
//!    scan-/`Shared`-cache hits, per-round fixpoint delta sizes, and
//!    per-worker pool utilization. It is threaded through
//!    [`ExecContext`](crate::run) as an `Option<Arc<QueryStats>>`:
//!    **disabled (the default) the executor pays one `Option` check per
//!    operator node** — no atomics, no clocks.
//!
//! Results surface three ways: the [`StatsReport::text`] rendering
//! (`EXPLAIN ANALYZE`: the plan tree with ` (actual rows=… time=…)`
//! suffixes plus round/worker tables), the stable
//! [`StatsReport::to_json`] schema (`relviz-stats-v1`) the benches and
//! ci.sh consume, and the public [`StatsReport`] fields themselves.
//!
//! **Timing semantics** (PostgreSQL-style): a node's `time_ns` is
//! *inclusive* of its children. A projection fused into a hash join
//! reports the join's build/probe/row counts on the `HashJoin` node
//! with `time=0` — the fused pair's whole cost is attributed to the
//! `Project` node that drove it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use relviz_model::Relation;

use crate::error::{ExecError, ExecResult};
use crate::fixpoint::FixpointPlan;
use crate::opt::OptConfig;
use crate::plan::PhysPlan;
use crate::slots::Source;
use crate::{Engine, ExecOptions};

// ---------------------------------------------------------------------------
// Tier 1: unified event counters
// ---------------------------------------------------------------------------

/// The crate's **event counters**: thread-local, always compiled, one
/// `Cell` bump per rare structural event. The single source of truth
/// behind the storage, fixpoint and pool event counts — and the
/// `counters` object of the stats JSON.
///
/// Thread locals, not globals, so `cargo test`'s parallel test threads
/// don't pollute each other's readings; [`crate::pool::scatter`] hands
/// each worker's totals back to the dispatching thread on join, so
/// counts flow up to whichever thread owns the query, nested parallel
/// regions included.
pub mod counters {
    use std::cell::Cell;

    /// Slot order of [`export`]/[`absorb`] and the JSON `counters`
    /// object. `max_fanout` (the last slot) merges by max, not sum.
    pub const NAMES: [&str; 10] = [
        "materializations",
        "index_builds",
        "deep_copies",
        "partition_builds",
        "column_builds",
        "bitmap_allocs",
        "interner_growths",
        "par_merges",
        "dispatches",
        "max_fanout",
    ];

    thread_local! {
        /// `from_relation` calls: EDB relation → batch materializations.
        static MATERIALIZATIONS: Cell<usize> = const { Cell::new(0) };
        /// Actual index constructions (cache misses in `index`).
        static INDEX_BUILDS: Cell<usize> = const { Cell::new(0) };
        /// Whole-storage deep copies (COW detach of a shared store).
        static DEEP_COPIES: Cell<usize> = const { Cell::new(0) };
        /// Hash-range partition builds (`index_partition` calls).
        static PARTITION_BUILDS: Cell<usize> = const { Cell::new(0) };
        /// Column materializations: row-major cells columnarized
        /// (`ColumnStore::from_tuples`, per column) or a typed column
        /// demoted to `Mixed`.
        static COLUMN_BUILDS: Cell<usize> = const { Cell::new(0) };
        /// Selection/validity bitmap allocations.
        static BITMAP_ALLOCS: Cell<usize> = const { Cell::new(0) };
        /// Copy-on-write clones of a *shared* interning table (a miss
        /// that grows a table some other column still references).
        static INTERNER_GROWTHS: Cell<usize> = const { Cell::new(0) };
        /// Rule-output batches merged through the parallel fixpoint's
        /// round barrier (one `absorb_batch` per rule output).
        static PAR_MERGES: Cell<usize> = const { Cell::new(0) };
        /// `scatter` calls that actually went multi-worker.
        static DISPATCHES: Cell<usize> = const { Cell::new(0) };
        /// Largest worker count of any dispatch.
        static MAX_FANOUT: Cell<usize> = const { Cell::new(0) };
    }

    pub(crate) fn count_materialization() {
        MATERIALIZATIONS.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_index_build() {
        INDEX_BUILDS.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_deep_copy() {
        DEEP_COPIES.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_partition_build() {
        PARTITION_BUILDS.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_column_build() {
        COLUMN_BUILDS.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_bitmap_alloc() {
        BITMAP_ALLOCS.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_interner_growth() {
        INTERNER_GROWTHS.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_merge() {
        PAR_MERGES.with(|c| c.set(c.get() + 1));
    }
    pub(crate) fn count_dispatch(workers: usize) {
        DISPATCHES.with(|c| c.set(c.get() + 1));
        MAX_FANOUT.with(|c| c.set(c.get().max(workers)));
    }

    /// Zeroes all counters (call at the start of a measuring test).
    pub fn reset() {
        MATERIALIZATIONS.with(|c| c.set(0));
        INDEX_BUILDS.with(|c| c.set(0));
        DEEP_COPIES.with(|c| c.set(0));
        PARTITION_BUILDS.with(|c| c.set(0));
        COLUMN_BUILDS.with(|c| c.set(0));
        BITMAP_ALLOCS.with(|c| c.set(0));
        INTERNER_GROWTHS.with(|c| c.set(0));
        PAR_MERGES.with(|c| c.set(0));
        DISPATCHES.with(|c| c.set(0));
        MAX_FANOUT.with(|c| c.set(0));
    }

    pub fn materializations() -> usize {
        MATERIALIZATIONS.with(Cell::get)
    }
    pub fn index_builds() -> usize {
        INDEX_BUILDS.with(Cell::get)
    }
    pub fn deep_copies() -> usize {
        DEEP_COPIES.with(Cell::get)
    }
    pub fn partition_builds() -> usize {
        PARTITION_BUILDS.with(Cell::get)
    }
    pub fn column_builds() -> usize {
        COLUMN_BUILDS.with(Cell::get)
    }
    pub fn bitmap_allocs() -> usize {
        BITMAP_ALLOCS.with(Cell::get)
    }
    pub fn interner_growths() -> usize {
        INTERNER_GROWTHS.with(Cell::get)
    }
    pub fn merges() -> usize {
        PAR_MERGES.with(Cell::get)
    }
    pub fn dispatches() -> usize {
        DISPATCHES.with(Cell::get)
    }
    pub fn max_fanout() -> usize {
        MAX_FANOUT.with(Cell::get)
    }

    /// This thread's totals, in [`NAMES`] order — how
    /// [`crate::pool::scatter`] hands a worker's share back to the
    /// thread that dispatched it.
    pub(crate) fn export() -> [usize; 10] {
        [
            materializations(),
            index_builds(),
            deep_copies(),
            partition_builds(),
            column_builds(),
            bitmap_allocs(),
            interner_growths(),
            merges(),
            dispatches(),
            max_fanout(),
        ]
    }

    /// Merges a worker's exported totals into this thread's counters:
    /// every slot adds, except `max_fanout` which maxes.
    pub(crate) fn absorb(counts: [usize; 10]) {
        let [mat, idx, deep, part, col, bm, intern, mrg, disp, fan] = counts;
        MATERIALIZATIONS.with(|c| c.set(c.get() + mat));
        INDEX_BUILDS.with(|c| c.set(c.get() + idx));
        DEEP_COPIES.with(|c| c.set(c.get() + deep));
        PARTITION_BUILDS.with(|c| c.set(c.get() + part));
        COLUMN_BUILDS.with(|c| c.set(c.get() + col));
        BITMAP_ALLOCS.with(|c| c.set(c.get() + bm));
        INTERNER_GROWTHS.with(|c| c.set(c.get() + intern));
        PAR_MERGES.with(|c| c.set(c.get() + mrg));
        DISPATCHES.with(|c| c.set(c.get() + disp));
        MAX_FANOUT.with(|c| c.set(c.get().max(fan)));
    }
}

// ---------------------------------------------------------------------------
// Tier 2: the per-execution stats tree
// ---------------------------------------------------------------------------

/// One worker's utilization tally: jobs claimed from the pool's shared
/// counter and nanoseconds spent running them. `busy_ns` is inclusive
/// of nested scatters a job performs, so utilization is *attribution*,
/// not a wall-clock partition.
pub(crate) struct WorkerSlot {
    jobs: AtomicU64,
    busy_ns: AtomicU64,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot { jobs: AtomicU64::new(0), busy_ns: AtomicU64::new(0) }
    }

    pub(crate) fn record(&self, ns: u64) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// Per-worker utilization slots for one execution, indexed by the
/// pool-worker number (`0` = the calling thread).
pub(crate) struct PoolStats {
    slots: Vec<WorkerSlot>,
}

impl PoolStats {
    fn new(threads: usize) -> Self {
        PoolStats { slots: (0..threads).map(|_| WorkerSlot::new()).collect() }
    }

    pub(crate) fn slot(&self, worker: usize) -> Option<&WorkerSlot> {
        self.slots.get(worker)
    }
}

#[cfg(test)]
impl PoolStats {
    pub(crate) fn new_for_test(threads: usize) -> Self {
        PoolStats::new(threads)
    }
}

#[cfg(test)]
impl WorkerSlot {
    /// `(jobs, busy_ns)` — for the pool's own unit tests.
    pub(crate) fn totals_for_test(&self) -> (u64, u64) {
        (self.jobs.load(Ordering::Relaxed), self.busy_ns.load(Ordering::Relaxed))
    }
}

/// One operator node's runtime tallies. All fields are relaxed atomics
/// so parallel fixpoint workers executing clones of the same rule plan
/// can record into the shared tree without locks.
#[derive(Default)]
pub(crate) struct NodeStats {
    batches: AtomicU64,
    rows_out: AtomicU64,
    rows_in: AtomicU64,
    build_rows: AtomicU64,
    probe_rows: AtomicU64,
    time_ns: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl NodeStats {
    /// One completed evaluation of this node: `ns` inclusive of
    /// children, `rows` the output batch's length.
    pub(crate) fn record_batch(&self, ns: u64, rows: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.rows_out.fetch_add(rows, Ordering::Relaxed);
        self.time_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Input rows a filter examined (for the selectivity rendering).
    pub(crate) fn record_input(&self, rows: u64) {
        self.rows_in.fetch_add(rows, Ordering::Relaxed);
    }

    /// A join's build-side and probe-side input sizes.
    pub(crate) fn record_join(&self, build: u64, probe: u64) {
        self.build_rows.fetch_add(build, Ordering::Relaxed);
        self.probe_rows.fetch_add(probe, Ordering::Relaxed);
    }

    /// A scan-cache or `Shared`-cache lookup outcome.
    pub(crate) fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Static identity of one registered node (for reports).
struct NodeMeta {
    op: &'static str,
    label: String,
    depth: usize,
    parent: i64,
}

/// One recorded fixpoint round: the per-predicate delta sizes after
/// the round's absorbs (round 0 is the initial full-rule round; the
/// final recorded round of a stratum is all-zero — convergence).
struct RoundRec {
    stratum: usize,
    round: usize,
    deltas: Vec<(String, u64)>,
}

/// The per-execution stats tree: one [`NodeStats`] per plan node
/// (identified by the node's address — plan trees are immutable for
/// the duration of an execution), pool utilization, fixpoint rounds.
pub struct QueryStats {
    engine: &'static str,
    threads: usize,
    /// `&PhysPlan` address → node id (index into `metas`/`nodes`).
    ids: HashMap<usize, usize>,
    metas: Vec<NodeMeta>,
    nodes: Vec<NodeStats>,
    /// Optimizer row estimates, one per registered node in id order
    /// (set by the analyzed entry points via [`crate::opt::estimate_plan`];
    /// empty when estimation was skipped).
    ests: Vec<f64>,
    /// Whether the optimizer was enabled when this analysis was built —
    /// rendered as `plan=optimized|unoptimized` in the footer.
    optimized: bool,
    pool: PoolStats,
    rounds: Mutex<Vec<RoundRec>>,
    started: Instant,
}

fn ptr_of(plan: &PhysPlan) -> usize {
    plan as *const PhysPlan as usize
}

impl QueryStats {
    /// Registers every node of a plain plan, pre-order (mirrors
    /// [`PhysPlan::node_count`]: every `Shared` occurrence registers
    /// its full subtree — occurrences are distinct allocations).
    pub(crate) fn for_plan(plan: &PhysPlan, threads: usize, cfg: OptConfig) -> QueryStats {
        let mut stats = QueryStats::empty(threads, cfg);
        stats.register(plan, 0, -1);
        stats
    }

    /// Registers every rule plan of a fixpoint (full plan then delta
    /// variants, in stratum/rule order — mirroring both
    /// [`FixpointPlan::node_count`] and the EXPLAIN rendering order).
    pub(crate) fn for_fixpoint(plan: &FixpointPlan, threads: usize, cfg: OptConfig) -> QueryStats {
        let mut stats = QueryStats::empty(threads, cfg);
        for stratum in &plan.strata {
            for rule in &stratum.rules {
                stats.register(&rule.full, 0, -1);
                for dv in &rule.deltas {
                    stats.register(&dv.plan, 0, -1);
                }
            }
        }
        stats
    }

    /// An empty tree for a run at `threads` workers under `cfg`. The
    /// engine label says which path ran: `exec` is the serial operator
    /// path (one worker), `parallel` the partitioned one.
    fn empty(threads: usize, cfg: OptConfig) -> QueryStats {
        QueryStats {
            engine: if threads > 1 { "parallel" } else { "exec" },
            threads,
            ids: HashMap::new(),
            metas: Vec::new(),
            nodes: Vec::new(),
            ests: Vec::new(),
            optimized: cfg != OptConfig::unoptimized(),
            pool: PoolStats::new(threads),
            rounds: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    fn register(&mut self, plan: &PhysPlan, depth: usize, parent: i64) {
        let id = self.metas.len();
        self.ids.insert(ptr_of(plan), id);
        self.metas.push(NodeMeta {
            op: crate::plan::op_name(plan),
            label: crate::plan::node_label(plan),
            depth,
            parent,
        });
        self.nodes.push(NodeStats::default());
        let my_id = i64::try_from(id).unwrap_or(-1);
        match plan {
            PhysPlan::Scan { .. }
            | PhysPlan::ScanIdb { .. }
            | PhysPlan::ScanDelta { .. }
            | PhysPlan::Values { .. } => {}
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Dedup { input, .. }
            | PhysPlan::Shared { input, .. } => self.register(input, depth + 1, my_id),
            PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::SemiJoin { left, right, .. }
            | PhysPlan::AntiJoin { left, right, .. }
            | PhysPlan::Union { left, right, .. }
            | PhysPlan::Diff { left, right, .. } => {
                self.register(left, depth + 1, my_id);
                self.register(right, depth + 1, my_id);
            }
        }
    }

    /// Attaches the optimizer's per-node row estimates. The vector must
    /// mirror the registration walk (the estimator and [`register`] use
    /// the same pre-order); a length mismatch drops the estimates rather
    /// than mislabeling nodes.
    pub(crate) fn set_estimates(&mut self, ests: Vec<f64>) {
        if ests.len() == self.nodes.len() {
            self.ests = ests;
        }
    }

    /// The tallies for a node, by address. `None` for nodes outside the
    /// registered tree (defensive: an unregistered plan records nothing
    /// rather than corrupting a neighbor's row).
    pub(crate) fn node(&self, plan: &PhysPlan) -> Option<&NodeStats> {
        self.ids.get(&ptr_of(plan)).and_then(|&id| self.nodes.get(id))
    }

    pub(crate) fn pool(&self) -> &PoolStats {
        &self.pool
    }

    /// Records a fixpoint round's per-predicate delta sizes (sorted by
    /// predicate name for deterministic rendering).
    pub(crate) fn record_round(&self, stratum: usize, round: usize, deltas: Vec<(String, u64)>) {
        let mut sorted = deltas;
        sorted.sort();
        self.rounds.lock().push(RoundRec { stratum, round, deltas: sorted });
    }

    /// The ` (actual …)` suffix for one plan node — what the analyzed
    /// EXPLAIN renderers append to each node line.
    pub(crate) fn suffix(&self, plan: &PhysPlan) -> String {
        let Some(&id) = self.ids.get(&ptr_of(plan)) else { return String::new() };
        let (Some(node), Some(meta)) = (self.nodes.get(id), self.metas.get(id)) else {
            return String::new();
        };
        let est = self.ests.get(id).map(|e| format!("est={} ", fmt_est(*e))).unwrap_or_default();
        let batches = node.batches.load(Ordering::Relaxed);
        if batches == 0 {
            return format!(" ({est}never executed)");
        }
        let rows = node.rows_out.load(Ordering::Relaxed);
        let ns = node.time_ns.load(Ordering::Relaxed);
        let mut out =
            format!(" ({est}actual rows={rows} batches={batches} time={}", fmt_ms(ns));
        let rows_in = node.rows_in.load(Ordering::Relaxed);
        if meta.op == "Filter" && rows_in > 0 {
            #[allow(clippy::cast_precision_loss)] // row counts as percentages, display only
            let sel = rows as f64 * 100.0 / rows_in as f64;
            out.push_str(&format!(" in={rows_in} sel={sel:.1}%"));
        }
        if matches!(meta.op, "HashJoin" | "CrossJoin" | "SemiJoin" | "AntiJoin") {
            let build = node.build_rows.load(Ordering::Relaxed);
            let probe = node.probe_rows.load(Ordering::Relaxed);
            out.push_str(&format!(" build={build} probe={probe}"));
        }
        if matches!(meta.op, "Scan" | "Shared") {
            let hits = node.cache_hits.load(Ordering::Relaxed);
            let misses = node.cache_misses.load(Ordering::Relaxed);
            out.push_str(&format!(" hits={hits} misses={misses}"));
        }
        out.push(')');
        out
    }

    /// Finishes a plain-plan analysis: renders the analyzed EXPLAIN
    /// tree and snapshots every tally into a [`StatsReport`].
    pub(crate) fn report(&self, plan: &PhysPlan) -> StatsReport {
        let mut text = String::new();
        let ann =
            crate::plan::Annotations::for_plan(plan, self.threads).with_analyze(self);
        crate::plan::write_node_seen(
            &mut text,
            plan,
            0,
            &mut std::collections::HashSet::new(),
            &ann,
        );
        self.finish(text, plan.node_count())
    }

    /// Finishes a fixpoint analysis: the analyzed recursive EXPLAIN
    /// (strata → rules → plans, each node with actuals) plus the
    /// per-round delta table.
    pub(crate) fn report_fixpoint(&self, plan: &FixpointPlan) -> StatsReport {
        let text = crate::fixpoint::render_datalog(plan, self.threads, Some(self));
        self.finish(text, plan.node_count())
    }

    fn finish(&self, mut text: String, plan_nodes: usize) -> StatsReport {
        let total_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let rounds: Vec<RoundRow> = {
            let mut recs = self.rounds.lock();
            recs.sort_by_key(|r| (r.stratum, r.round));
            recs.iter()
                .map(|r| RoundRow {
                    stratum: r.stratum,
                    round: r.round,
                    deltas: r.deltas.clone(),
                })
                .collect()
        };
        if !rounds.is_empty() {
            text.push_str("Rounds:\n");
            for r in &rounds {
                let parts: Vec<String> =
                    r.deltas.iter().map(|(name, n)| format!("{name} +{n}")).collect();
                text.push_str(&format!(
                    "  stratum {} round {}: {}\n",
                    r.stratum,
                    r.round,
                    parts.join(", ")
                ));
            }
        }
        let workers: Vec<WorkerRow> = self
            .pool
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| WorkerRow {
                worker: i,
                jobs: s.jobs.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
            })
            .collect();
        if self.threads > 1 {
            text.push_str("Workers:\n");
            for w in &workers {
                text.push_str(&format!(
                    "  worker {}: jobs={} busy={}\n",
                    w.worker,
                    w.jobs,
                    fmt_ms(w.busy_ns)
                ));
            }
        }
        let operators: Vec<OpRow> = self
            .metas
            .iter()
            .zip(&self.nodes)
            .enumerate()
            .map(|(id, (meta, node))| OpRow {
                id,
                parent: meta.parent,
                op: meta.op,
                label: meta.label.clone(),
                depth: meta.depth,
                est_rows: self.ests.get(id).copied().unwrap_or(-1.0),
                batches: node.batches.load(Ordering::Relaxed),
                rows_out: node.rows_out.load(Ordering::Relaxed),
                rows_in: node.rows_in.load(Ordering::Relaxed),
                build_rows: node.build_rows.load(Ordering::Relaxed),
                probe_rows: node.probe_rows.load(Ordering::Relaxed),
                time_ns: node.time_ns.load(Ordering::Relaxed),
                cache_hits: node.cache_hits.load(Ordering::Relaxed),
                cache_misses: node.cache_misses.load(Ordering::Relaxed),
            })
            .collect();
        // Max q-error over executed, estimated operators: how far off
        // (symmetrically, ≥1) the worst estimate was. 1.0 when nothing
        // qualifies — a perfect score for an empty comparison.
        #[allow(clippy::cast_precision_loss)] // row counts, comparison only
        let max_q_error = operators
            .iter()
            .filter(|op| op.batches > 0 && op.est_rows >= 0.0)
            .map(|op| {
                let est = op.est_rows.max(1.0);
                let actual = (op.rows_out as f64).max(1.0);
                (est / actual).max(actual / est)
            })
            .fold(1.0_f64, f64::max);
        text.push_str(&format!(
            "Analyzed: engine={} threads={} time={} plan={} max_q_error={max_q_error:.2}\n",
            self.engine,
            self.threads,
            fmt_ms(total_ns),
            if self.optimized { "optimized" } else { "unoptimized" },
        ));
        let counter_values = counters::export();
        let counters_list: Vec<(&'static str, u64)> = counters::NAMES
            .iter()
            .zip(counter_values)
            .map(|(&name, v)| (name, u64::try_from(v).unwrap_or(u64::MAX)))
            .collect();
        StatsReport {
            engine: self.engine,
            threads: self.threads,
            total_ns,
            plan_nodes,
            optimized: self.optimized,
            max_q_error,
            operators,
            rounds,
            workers,
            counters: counters_list,
            text,
        }
    }
}

/// `1234567` ns → `"1.23ms"`.
fn fmt_ms(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)] // display only
    let ms = ns as f64 / 1e6;
    format!("{ms:.2}ms")
}

/// Renders a row estimate: whole numbers bare (`est=12`), fractional
/// ones with a single decimal (`est=3.3`) so sub-row selectivities stay
/// visible.
fn fmt_est(est: f64) -> String {
    let rounded = est.round();
    if (est - rounded).abs() < 0.05 && rounded >= 0.0 {
        format!("{rounded:.0}")
    } else {
        format!("{est:.1}")
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// One operator's final tallies (a row of the JSON `operators` array).
/// Ids are pre-order over the registered plan(s); `parent` is `-1` for
/// roots (plain-plan root, each fixpoint rule plan's root).
#[derive(Debug, Clone)]
pub struct OpRow {
    pub id: usize,
    pub parent: i64,
    pub op: &'static str,
    pub label: String,
    pub depth: usize,
    /// The optimizer's estimated output rows for this node; `-1.0` when
    /// no estimate was attached.
    pub est_rows: f64,
    pub batches: u64,
    pub rows_out: u64,
    pub rows_in: u64,
    pub build_rows: u64,
    pub probe_rows: u64,
    pub time_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// One fixpoint round's per-predicate delta sizes.
#[derive(Debug, Clone)]
pub struct RoundRow {
    pub stratum: usize,
    pub round: usize,
    pub deltas: Vec<(String, u64)>,
}

/// One pool worker's utilization.
#[derive(Debug, Clone)]
pub struct WorkerRow {
    pub worker: usize,
    pub jobs: u64,
    pub busy_ns: u64,
}

/// The complete result of an analyzed execution — see the module docs
/// for the three surfaces ([`text`](Self::text), [`to_json`](Self::to_json),
/// the fields).
#[derive(Debug, Clone)]
pub struct StatsReport {
    pub engine: &'static str,
    pub threads: usize,
    /// Wall nanoseconds from stats construction to report.
    pub total_ns: u64,
    /// Plan node count — always equals `operators.len()` (the
    /// registration walk mirrors `node_count`), pinned in ci.sh.
    pub plan_nodes: usize,
    /// Whether the optimizer was enabled for this execution.
    pub optimized: bool,
    /// The worst estimate-vs-actual ratio (symmetric, ≥ 1.0) over all
    /// executed operators; ≥ 10.0 flags a mis-estimate for the
    /// differential harness.
    pub max_q_error: f64,
    pub operators: Vec<OpRow>,
    pub rounds: Vec<RoundRow>,
    pub workers: Vec<WorkerRow>,
    /// Event-counter deltas are *not* included here (they are global
    /// per-thread totals, not per-query); these are the process totals
    /// at report time, in [`counters::NAMES`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// The `EXPLAIN ANALYZE` rendering.
    pub text: String,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl StatsReport {
    /// The machine-readable form: schema `relviz-stats-v1`. Layout
    /// contract (relied on by ci.sh's awk validation): the schema id,
    /// `plan_nodes` and each operator object occupy one line each, and
    /// `"op":` appears exactly once per operator.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"relviz-stats-v1\",\n");
        out.push_str(&format!("  \"engine\": \"{}\",\n", self.engine));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"total_ns\": {},\n", self.total_ns));
        out.push_str(&format!("  \"plan_nodes\": {},\n", self.plan_nodes));
        out.push_str(&format!("  \"optimized\": {},\n", self.optimized));
        out.push_str(&format!("  \"max_q_error\": {:.2},\n", self.max_q_error));
        out.push_str("  \"operators\": [\n");
        for (i, op) in self.operators.iter().enumerate() {
            let comma = if i + 1 < self.operators.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": {}, \"parent\": {}, \"op\": \"{}\", \"label\": \"{}\", \
                 \"depth\": {}, \"est_rows\": {:.1}, \"batches\": {}, \"rows_in\": {}, \
                 \"rows_out\": {}, \"build_rows\": {}, \"probe_rows\": {}, \"time_ns\": {}, \
                 \"cache_hits\": {}, \"cache_misses\": {}}}{comma}\n",
                op.id,
                op.parent,
                escape_json(op.op),
                escape_json(&op.label),
                op.depth,
                op.est_rows,
                op.batches,
                op.rows_in,
                op.rows_out,
                op.build_rows,
                op.probe_rows,
                op.time_ns,
                op.cache_hits,
                op.cache_misses,
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"rounds\": [\n");
        for (i, r) in self.rounds.iter().enumerate() {
            let comma = if i + 1 < self.rounds.len() { "," } else { "" };
            let deltas: Vec<String> = r
                .deltas
                .iter()
                .map(|(name, n)| format!("\"{}\": {n}", escape_json(name)))
                .collect();
            out.push_str(&format!(
                "    {{\"stratum\": {}, \"round\": {}, \"deltas\": {{{}}}}}{comma}\n",
                r.stratum,
                r.round,
                deltas.join(", ")
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let comma = if i + 1 < self.workers.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"worker\": {}, \"jobs\": {}, \"busy_ns\": {}}}{comma}\n",
                w.worker, w.jobs, w.busy_ns
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"counters\": {");
        let parts: Vec<String> =
            self.counters.iter().map(|(name, v)| format!("\"{name}\": {v}")).collect();
        out.push_str(&parts.join(", "));
        out.push_str("}\n");
        out.push_str("}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Analyzed entry points
// ---------------------------------------------------------------------------

/// Runs a SQL query (through the SQL → TRC front door, like
/// [`crate::run_sql_with`]) with **instrumentation enabled**, returning
/// the result and the stats report. Requires the physical engine — the
/// reference evaluator has no plan to instrument.
pub fn run_sql_analyzed_with<'a>(
    engine: Engine,
    sql: &str,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<(Relation, StatsReport)> {
    let src = db.into();
    let trc = relviz_rc::from_sql::parse_sql_to_trc(sql, src.db())?;
    eval_trc_analyzed_with(engine, &trc, src, opts)
}

/// Evaluates a TRC query with instrumentation enabled — the server's
/// analyze path for queries that arrive as TRC rather than SQL.
pub fn eval_trc_analyzed_with<'a>(
    engine: Engine,
    q: &relviz_rc::TrcQuery,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<(Relation, StatsReport)> {
    let opts = opts.into();
    let threads = analyzed_width(engine, opts)?;
    let src = db.into();
    let plan = crate::planner::plan_trc_with(q, &src, opts.opt)?;
    let mut stats = QueryStats::for_plan(&plan, threads, opts.opt);
    stats.set_estimates(crate::opt::estimate_plan(&plan, &src));
    let stats = Arc::new(stats);
    let ctx = crate::run::ExecContext::with_threads(threads).with_stats(Arc::clone(&stats));
    let rel = crate::parallel::execute_in(&plan, &src, &ctx)?;
    Ok((rel, stats.report(&plan)))
}

/// Evaluates a Datalog program with instrumentation enabled, returning
/// the answer predicate's relation and the stats report (per-operator
/// actuals for every rule plan, plus the per-round delta table).
pub fn eval_datalog_analyzed_with<'a>(
    engine: Engine,
    program: &relviz_datalog::Program,
    db: impl Into<Source<'a>>,
    opts: impl Into<ExecOptions>,
) -> ExecResult<(Relation, StatsReport)> {
    let opts = opts.into();
    let threads = analyzed_width(engine, opts)?;
    // Analysis runs the same pipeline `eval_datalog_with` does: with
    // magic sets on, the program is transformed first, so the report
    // shows what actually executed.
    let transformed = if opts.opt.magic { crate::opt::magic_transform(program) } else { None };
    let prog = transformed.as_ref().unwrap_or(program);
    let src = db.into();
    let plan = crate::plan_datalog_with(prog, &src, opts.opt)?;
    let mut stats = QueryStats::for_fixpoint(&plan, threads, opts.opt);
    stats.set_estimates(crate::opt::estimate_fixpoint(&plan, &src));
    let stats = Arc::new(stats);
    let mut all =
        crate::fixpoint::eval_fixpoint_stats(&plan, &src, threads, Some(Arc::clone(&stats)))?;
    let rel = all.remove(&prog.query).ok_or_else(|| {
        ExecError::Eval(format!("query predicate `{}` was never derived", prog.query))
    })?;
    Ok((rel, stats.report_fixpoint(&plan)))
}

/// The resolved worker count of an analyzed run, or the refusal for the
/// reference engine, which has no physical plan to instrument.
fn analyzed_width(engine: Engine, opts: ExecOptions) -> ExecResult<usize> {
    match engine {
        Engine::Reference => Err(ExecError::Eval(
            "EXPLAIN ANALYZE requires the exec or parallel engine \
             (the reference evaluator has no physical plan to instrument)"
                .to_string(),
        )),
        Engine::Indexed => Ok(opts.width()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval_datalog_with, run_sql_with};
    use relviz_model::catalog::sailors_sample;
    use relviz_model::generate::generate_binary_pair;

    const TC: &str = "tc(X, Y) :- R(X, Y).\n\
                      tc(X, Z) :- tc(X, Y), R(Y, Z).";

    /// The physical engine at `threads` workers, optimizer on.
    fn wide(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    #[test]
    fn counters_export_absorb_roundtrip() {
        counters::reset();
        counters::count_materialization();
        counters::count_dispatch(3);
        let exported = counters::export();
        counters::reset();
        counters::absorb(exported);
        assert_eq!(counters::materializations(), 1);
        assert_eq!(counters::dispatches(), 1);
        assert_eq!(counters::max_fanout(), 3);
    }

    #[test]
    fn serial_sql_analysis_mirrors_the_plan() {
        let db = sailors_sample();
        let sql = "SELECT S.sname FROM Sailor S, Reserves R \
                   WHERE S.sid = R.sid AND R.bid = 102";
        let (rel, report) =
            run_sql_analyzed_with(Engine::Indexed, sql, &db, ExecOptions::default()).unwrap();
        let plain = run_sql_with(Engine::Indexed, sql, &db, ExecOptions::default()).unwrap();
        assert!(rel.same_contents(&plain));
        assert_eq!(report.engine, "exec");
        assert_eq!(report.threads, 1);
        assert_eq!(report.operators.len(), report.plan_nodes, "walk mirrors node_count");
        let root = report.operators.first().unwrap();
        assert_eq!(root.parent, -1);
        assert_eq!(root.batches, 1, "the root ran exactly once");
        assert_eq!(root.rows_out, rel.len() as u64);
        assert!(report.text.contains("actual rows="), "{}", report.text);
        assert!(report.text.contains("(est="), "estimates render next to actuals\n{}", report.text);
        assert!(report.text.contains("Analyzed: engine=exec threads=1"), "{}", report.text);
        assert!(report.text.contains("plan=optimized"), "{}", report.text);
        assert!(report.text.contains("max_q_error="), "{}", report.text);
        assert!(report.max_q_error >= 1.0, "q-error is symmetric, never below 1");
        assert!(
            report.operators.iter().all(|op| op.est_rows >= 0.0),
            "every operator carries an estimate"
        );
        // Serial run: no worker table in the text.
        assert!(!report.text.contains("Workers:"), "{}", report.text);
    }

    #[test]
    fn json_schema_is_stable_and_operator_count_matches() {
        let db = sailors_sample();
        let sql = "SELECT S.sname FROM Sailor S";
        let (_, report) =
            run_sql_analyzed_with(Engine::Indexed, sql, &db, ExecOptions::default()).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"relviz-stats-v1\""));
        let ops = json.lines().filter(|l| l.contains("\"op\":")).count();
        assert_eq!(ops, report.plan_nodes, "one operator line per plan node\n{json}");
        assert!(json.contains(&format!("\"plan_nodes\": {},", report.plan_nodes)));
        assert!(json.contains("\"optimized\": true"), "{json}");
        assert!(json.contains("\"max_q_error\": "), "{json}");
        assert!(json.contains("\"est_rows\": "), "{json}");
        assert!(json.contains("\"counters\": {\"materializations\":"));
    }

    #[test]
    fn reference_engine_cannot_be_analyzed() {
        let db = sailors_sample();
        let sql = "SELECT S.sname FROM Sailor S";
        let err = run_sql_analyzed_with(Engine::Reference, sql, &db, ExecOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("EXPLAIN ANALYZE requires"), "{err}");
        let prog = relviz_datalog::parse::parse_program(TC).unwrap();
        let db2 = generate_binary_pair(1, 5, 5);
        assert!(eval_datalog_analyzed_with(Engine::Reference, &prog, &db2, ExecOptions::default())
            .is_err());
    }

    #[test]
    fn recursive_analysis_records_rounds_to_convergence() {
        let db = generate_binary_pair(11, 30, 12);
        let prog = relviz_datalog::parse::parse_program(TC).unwrap();
        let (rel, report) =
            eval_datalog_analyzed_with(Engine::Indexed, &prog, &db, ExecOptions::default())
                .unwrap();
        let plain = eval_datalog_with(Engine::Indexed, &prog, &db, ExecOptions::default()).unwrap();
        assert!(rel.same_contents(&plain));
        assert!(!report.rounds.is_empty(), "a recursive query records its rounds");
        let first = report.rounds.first().unwrap();
        assert_eq!((first.stratum, first.round), (0, 0));
        assert!(first.deltas.iter().any(|(name, n)| name == "tc" && *n > 0));
        let last = report.rounds.last().unwrap();
        assert_eq!(
            last.deltas.iter().map(|(_, n)| n).sum::<u64>(),
            0,
            "the final recorded round is the all-zero convergence round"
        );
        assert!(report.text.contains("Rounds:"), "{}", report.text);
        assert_eq!(report.operators.len(), report.plan_nodes);
    }

    #[test]
    fn parallel_analysis_reports_worker_utilization() {
        let db = generate_binary_pair(5, 1500, 600);
        let prog = relviz_datalog::parse::parse_program(TC).unwrap();
        let (rel, report) =
            eval_datalog_analyzed_with(Engine::Indexed, &prog, &db, wide(4)).unwrap();
        let plain = eval_datalog_with(Engine::Indexed, &prog, &db, ExecOptions::default()).unwrap();
        assert!(rel.same_contents(&plain), "analyzed parallel result must match serial");
        assert_eq!(report.engine, "parallel");
        assert_eq!(report.threads, 4);
        assert_eq!(report.workers.len(), 4, "one utilization row per worker");
        assert!(
            report.workers.iter().map(|w| w.jobs).sum::<u64>() > 0,
            "the pool must have run jobs on this workload"
        );
        assert!(report.text.contains("Workers:"), "{}", report.text);
        assert!(report.text.contains("worker 0:"), "{}", report.text);
    }

    /// The `engine` label names the path that ran, read off the
    /// resolved width: one worker is the serial `exec` path, however
    /// the width was asked for; auto resolves before labelling.
    #[test]
    fn the_engine_label_follows_the_resolved_width() {
        let db = sailors_sample();
        let sql = "SELECT S.sname FROM Sailor S";
        let (_, one) = run_sql_analyzed_with(Engine::Indexed, sql, &db, wide(1)).unwrap();
        assert_eq!((one.engine, one.threads), ("exec", 1));
        assert!(one.text.contains("Analyzed: engine=exec threads=1"), "{}", one.text);
        assert!(one.to_json().contains("\"engine\": \"exec\""));
        let (_, two) = run_sql_analyzed_with(Engine::Indexed, sql, &db, wide(2)).unwrap();
        assert_eq!((two.engine, two.threads), ("parallel", 2));
        let (_, auto) = run_sql_analyzed_with(Engine::Indexed, sql, &db, wide(0)).unwrap();
        let width = crate::resolve_threads(0);
        let label = if width > 1 { "parallel" } else { "exec" };
        assert_eq!((auto.engine, auto.threads), (label, width));
    }

    #[test]
    fn disabled_path_records_nothing() {
        // A plain run must leave a fresh QueryStats' shape intact: this
        // is the "no stats unless asked" contract — ExecContext without
        // with_stats never touches a tree.
        let db = sailors_sample();
        let sql = "SELECT S.sname FROM Sailor S";
        let rel = run_sql_with(Engine::Indexed, sql, &db, ExecOptions::default()).unwrap();
        assert!(!rel.is_empty());
    }
}
