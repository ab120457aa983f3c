//! S1 timed smoke run: the θ-join/product workload, the Q2 suite query,
//! and the recursive transitive-closure workload on the reference
//! evaluators vs the physical engine, appending a JSON-lines snapshot
//! to `BENCH_exec.json` so successive PRs accumulate a perf trajectory.
//!
//! ```sh
//! cargo run --release -p relviz-bench --bin s1_exec -- [n] [--out FILE] [--assert]
//! ```
//!
//! `--assert` exits non-zero unless the exec engine beats the reference
//! evaluators by ≥5× on the θ-join/product workload **and** on
//! transitive closure at the largest size, **and** — the zero-copy
//! regression gate — runs transitive closure at n=1000 at least 2×
//! faster than the pre-zero-copy exec baseline
//! ([`TC_BASELINE_MS`], frozen from BENCH_exec.json). (CI gates; run in
//! release, debug timings are not meaningful.)
//!
//! The run also appends per-operator kernel rows — `op_filter`,
//! `op_project`, `op_hashjoin_build`, `op_hashjoin_probe` at
//! n ∈ {10⁴, 10⁵} — timing the vectorized columnar kernels (`engine:
//! "exec"`) against hand-rolled row-major baselines (`engine:
//! "rowmajor"`). `--assert` additionally gates the columnar filter at
//! ≥ [`FILTER_GATE`]× over the row-major baseline at the largest size.
//!
//! The transitive-closure workload at `n` additionally runs once with
//! the `exec::stats` instrumentation enabled (`eval_datalog_analyzed_with`,
//! recorded as `engine: "exec-analyzed"`), printing the top operators
//! by recorded time; `--assert` gates the analyzed run at ≤5% (+0.1 ms
//! noise floor) over the uninstrumented wall time.
//!
//! Five rows time quantified suite queries at n = [`QUANT_N`]: `q1_sql`,
//! `q5_sql`, `q5_trc`, `q5_datalog` and `q8_datalog`. `--assert` gates
//! `q8_datalog` at ≤ [`Q8_GATE`]× `q1_sql`; the Q5 rows are recorded for
//! the trajectory and not gated.
//!
//! A `plan_suite` row records planning alone: the best-of-k wall time
//! to plan, with the optimizer on and without executing, every suite
//! query's SQL and TRC form against one resident `Source` (the slots a
//! server keeps per database generation) over the generated database.
//! It is recorded for the trajectory and not gated.
//!
//! Every snapshot row carries a `threads` field (1 for the serial
//! engines). The deep exec-only size also runs on the physical engine
//! at the machine's worker count, recorded as an `engine: "parallel"`
//! row — and, on hardware with **≥ 4 threads**, `--assert` additionally
//! gates the parallel runtime at ≥ [`PAR_GATE`]× over single-thread
//! exec on that workload. A single- or dual-core machine cannot
//! physically demonstrate that ratio, so the gate reports itself
//! skipped there (the rows are still recorded for the trajectory).

use std::io::Write as _;
use std::time::Instant;

use relviz_datalog::parse::parse_program;
use relviz_exec::indexed::{Index, JoinKey};
use relviz_exec::run::bench;
use relviz_exec::{
    eval_datalog_analyzed_with, eval_datalog_with, execute, plan_ra_with, plan_trc_with, Engine,
    ExecOptions, IndexedRelation, OptConfig, OutputCol, Slots, Source,
};
use relviz_model::generate::{generate_binary_pair, generate_sailors, GenConfig};
use relviz_model::{CmpOp, Database, DataType, Relation, Schema, Tuple, Value};
use relviz_ra::{Operand, Predicate};

/// The S1 θ-join/product workload: a selection over a raw product,
/// exactly as a naive translator would emit it.
const THETA_PRODUCT: &str = "Project[sname](Select[s_sid = sid AND bid = 102](Product(\
                             Rename[sid -> s_sid](Sailor), Reserves)))";

/// The recursive workload: transitive closure of a generated edge
/// relation (n edges over n nodes). Per semi-naive round the reference
/// evaluator's delta rule nested-loops Δtc × R — quadratic-per-round —
/// while the exec fixpoint hash-joins Δtc against R in linear time.
const TC_PROGRAM: &str = "tc(X, Y) :- R(X, Y).\n\
                          tc(X, Z) :- tc(X, Y), R(Y, Z).";

/// One seed for every transitive-closure measurement, so the parallel
/// gate's numerator and denominator always run the same graph.
const TC_SEED: u64 = 0xD1A6;

/// The deep-recursion workload: same-generation, whose recursive rule
/// sandwiches the delta between two `R` joins — the delta batch is a
/// *build* side, so this stresses per-round index work on top of the
/// IDB-copy regime `datalog_tc` covers.
const SG_PROGRAM: &str = "% query: sg\n\
                          sg(X, X) :- R(X, Y).\n\
                          sg(X, X) :- R(Y, X).\n\
                          sg(X, Y) :- R(XP, X), sg(XP, YP), R(YP, Y).";

/// The pathological-order chain for the join-reordering gate, written
/// in the worst syntactic order: `A ⋈ B` is a low-selectivity join on
/// `j` (quadratic intermediate), while tiny `C` would have pruned the
/// chain immediately. The optimizer must start from `C`.
const OPT_CHAIN: &str = "Project[a](Join(Join(A, B), C))";

/// The bound-goal recursive workload for the magic-sets gate: full
/// evaluation materializes all of `tc` (every source's closure); the
/// demand transformation only derives `tc(1, ·)` — single-source
/// reachability.
const MAGIC_TC_PROGRAM: &str = "% query: q\n\
                                tc(X, Y) :- R(X, Y).\n\
                                tc(X, Z) :- tc(X, Y), R(Y, Z).\n\
                                q(Y) :- tc(1, Y).";

/// The join-reordering gate: the cost-based order must beat the
/// syntactic order by this factor on [`OPT_CHAIN`] at n=1000.
const REORDER_GATE: f64 = 10.0;

/// The magic-sets gate: the demand-transformed bound-goal query must
/// beat full materialization by this factor at n=1000.
const MAGIC_GATE: f64 = 5.0;

/// The exec engine's `datalog_tc @ n=1000` wall time before the
/// zero-copy batch architecture (PR 3 exec baseline in
/// BENCH_exec.json). The `--assert` gate requires ≥2× over this —
/// shared Arc'd IDB views, the per-execution scan cache, and fused head
/// projections must keep paying off.
const TC_BASELINE_MS: f64 = 14.5;

/// The parallel gate: at ≥4 workers, the partitioned runtime must beat
/// single-thread exec by this factor on `datalog_tc` at the deep size.
const PAR_GATE: f64 = 1.5;

/// The size of the quantified-query rows: `generate_sailors` at this
/// scale (5 000 sailors, 1 000 boats, 14 000 reservations), where the
/// division (Q5) and ≥ ALL (Q8) plans used to build Sailor × Boat and
/// Sailor × Sailor intermediates.
const QUANT_N: usize = 20_000;

/// The ≥ ALL gate: Datalog Q8 at [`QUANT_N`] must run within this factor
/// of SQL Q1 (a plain semi-join) on the same database.
const Q8_GATE: f64 = 5.0;

/// Sizes for the per-operator microbenchmarks (fixed, independent of
/// the workload scale `n`, so the trajectory rows stay comparable
/// across runs).
const MICRO_SIZES: [usize; 2] = [10_000, 100_000];

/// The columnar-kernel gate: the vectorized filter must beat the
/// row-major baseline by this factor at the largest micro size.
const FILTER_GATE: f64 = 2.0;

/// Best-of-k wall time (milliseconds) of `f`, with the result of one run.
fn time_ms<T>(k: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..k {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.expect("k > 0"))
}

struct Snapshot {
    engine: &'static str,
    query: &'static str,
    n: usize,
    /// Worker count behind the measurement (1 for the serial engines).
    threads: usize,
    wall_ms: f64,
}

impl Snapshot {
    fn json(&self) -> String {
        format!(
            "{{\"engine\": \"{}\", \"query\": \"{}\", \"n\": {}, \"threads\": {}, \"wall_ms\": {:.3}}}",
            self.engine, self.query, self.n, self.threads, self.wall_ms
        )
    }
}

fn run_workloads(n: usize, db: &Database) -> (Vec<Snapshot>, f64) {
    let mut snaps = Vec::new();

    // θ-join/product workload: reference RA evaluator vs exec.
    let naive = relviz_ra::parse::parse_ra(THETA_PRODUCT).expect("workload parses");
    let (ref_ms, ref_out): (f64, Relation) =
        time_ms(3, || relviz_ra::eval::eval(&naive, db).expect("reference evaluates"));
    let plan = plan_ra_with(&naive, db, OptConfig::optimized()).expect("plans");
    let (exec_ms, exec_out) = time_ms(5, || execute(&plan, db).expect("executes"));
    assert!(
        exec_out.same_contents(&ref_out),
        "engines disagree on the θ-join/product workload"
    );
    snaps.push(Snapshot { engine: "reference", query: "theta_product", n, threads: 1, wall_ms: ref_ms });
    snaps.push(Snapshot { engine: "exec", query: "theta_product", n, threads: 1, wall_ms: exec_ms });
    let speedup = ref_ms / exec_ms.max(1e-6);

    // Q2 through the TRC form (the suite's join query) on both engines.
    let q2 = relviz_core::suite::by_id("Q2").expect("suite");
    let trc = relviz_rc::trc_parse::parse_trc(q2.trc).expect("trc parses");
    let (trc_ref_ms, trc_ref_out) =
        time_ms(1, || relviz_rc::trc_eval::eval_trc(&trc, db).expect("reference evaluates"));
    let trc_plan = plan_trc_with(&trc, db, OptConfig::optimized()).expect("plans");
    let (trc_exec_ms, trc_exec_out) = time_ms(5, || execute(&trc_plan, db).expect("executes"));
    assert!(trc_exec_out.same_contents(&trc_ref_out), "engines disagree on Q2 (TRC)");
    snaps.push(Snapshot { engine: "reference", query: "trc_q2", n, threads: 1, wall_ms: trc_ref_ms });
    snaps.push(Snapshot { engine: "exec", query: "trc_q2", n, threads: 1, wall_ms: trc_exec_ms });

    (snaps, speedup)
}

/// Planning alone, never executing: every suite query's SQL and TRC
/// form, each parsed (and the SQL translated) outside the timed region,
/// planned with the optimizer on against one resident [`Source`]. The
/// slots' sketches fill on the first pass, as a server's do on its
/// first request.
fn run_plan_suite(n: usize, db: &Database) -> Snapshot {
    let queries: Vec<relviz_rc::TrcQuery> = relviz_core::suite::SUITE
        .iter()
        .flat_map(|q| {
            [
                relviz_rc::from_sql::parse_sql_to_trc(q.sql, db).expect("suite SQL translates"),
                relviz_rc::trc_parse::parse_trc(q.trc).expect("suite TRC parses"),
            ]
        })
        .collect();
    let slots = Slots::new(db);
    let src = Source::new(db, &slots);
    let (wall_ms, ()) = time_ms(20, || {
        for q in &queries {
            std::hint::black_box(
                plan_trc_with(q, &src, OptConfig::optimized()).expect("suite plans"),
            );
        }
    });
    Snapshot { engine: "exec", query: "plan_suite", n, threads: 1, wall_ms }
}

/// Suite queries at [`QUANT_N`], best of 3 through the language entry
/// points (each call materializes what it scans, like the other rows):
/// `q1_sql`, the division in three languages (`q5_sql`, `q5_trc`,
/// `q5_datalog`) and ≥ ALL in Datalog (`q8_datalog`). Each form's
/// answer is checked against the others'. Returns the rows and the
/// `q8_datalog / q1_sql` ratio.
fn run_quantified() -> (Vec<Snapshot>, f64) {
    let db = generate_sailors(&GenConfig::scaled(QUANT_N));
    let src = &db;
    let opts = ExecOptions::default;
    let suite = |id| relviz_core::suite::by_id(id).expect("suite query");
    let (q1, q5, q8) = (suite("Q1"), suite("Q5"), suite("Q8"));
    let sql = |q: &str| {
        time_ms(3, || relviz_exec::run_sql_with(Engine::Indexed, q, src, opts()).expect("runs"))
    };
    let datalog = |q: &str| {
        let prog = parse_program(q).expect("suite Datalog parses");
        time_ms(3, || eval_datalog_with(Engine::Indexed, &prog, src, opts()).expect("runs"))
    };
    let trc = relviz_rc::trc_parse::parse_trc(q5.trc).expect("suite TRC parses");
    let (q1_ms, _) = sql(q1.sql);
    let (q5_sql_ms, q5_sql) = sql(q5.sql);
    let (q5_trc_ms, q5_trc) = time_ms(3, || {
        relviz_exec::eval_trc_with(Engine::Indexed, &trc, src, opts()).expect("runs")
    });
    let (q5_dl_ms, q5_dl) = datalog(q5.datalog);
    let (q8_dl_ms, q8_dl) = datalog(q8.datalog);
    let (_, q8_sql) = sql(q8.sql);
    assert!(q5_sql.same_contents(&q5_trc), "Q5 SQL and TRC disagree @ {QUANT_N}");
    let names = |r: &Relation| r.iter().map(|t| t.values().to_vec()).collect::<Vec<_>>();
    assert_eq!(names(&q5_sql), names(&q5_dl), "Q5 SQL and Datalog disagree @ {QUANT_N}");
    assert_eq!(names(&q8_sql), names(&q8_dl), "Q8 SQL and Datalog disagree @ {QUANT_N}");
    let snaps = [
        ("q1_sql", q1_ms),
        ("q5_sql", q5_sql_ms),
        ("q5_trc", q5_trc_ms),
        ("q5_datalog", q5_dl_ms),
        ("q8_datalog", q8_dl_ms),
    ]
    .map(|(query, wall_ms)| Snapshot { engine: "exec", query, n: QUANT_N, threads: 1, wall_ms })
    .into();
    (snaps, q8_dl_ms / q1_ms.max(1e-6))
}

/// One recursive Datalog workload at one size (`m` edges over `m`
/// nodes): the exec fixpoint (hash joins, best of 5), and — with
/// `oracle` — the reference semi-naive evaluator (nested loops, once)
/// with a cross-check of the outputs. Deep exec-only sizes skip the
/// oracle: the reference needs multiple seconds there, and the smaller
/// sizes already pin correctness. Returns the snapshots, the
/// reference/exec speedup (∞ without the oracle), exec's wall time,
/// and exec's relation (the cross-check anchor for the parallel run).
fn run_datalog_workload(
    query: &'static str,
    program: &str,
    seed: u64,
    m: usize,
    oracle: bool,
) -> (Vec<Snapshot>, f64, f64, Relation) {
    let db = generate_binary_pair(seed, m, m as i64);
    let prog = parse_program(program).expect("workload parses");

    let (exec_ms, exec_out) = time_ms(5, || {
        eval_datalog_with(Engine::Indexed, &prog, &db, ExecOptions::default())
            .expect("fixpoint evaluates")
    });
    assert!(!exec_out.is_empty(), "{query} @ {m} is empty");
    let mut snaps = Vec::new();
    let mut speedup = f64::INFINITY;
    if oracle {
        let (ref_ms, ref_out) = time_ms(1, || {
            relviz_datalog::eval::eval_program(&prog, &db).expect("reference evaluates")
        });
        assert!(exec_out.same_contents(&ref_out), "engines disagree on {query} @ {m}");
        speedup = ref_ms / exec_ms.max(1e-6);
        snaps.push(Snapshot { engine: "reference", query, n: m, threads: 1, wall_ms: ref_ms });
    }
    snaps.push(Snapshot { engine: "exec", query, n: m, threads: 1, wall_ms: exec_ms });
    (snaps, speedup, exec_ms, exec_out)
}

/// The large×large×tiny chain database for [`OPT_CHAIN`]:
/// `A(a, j)` (n rows, 4 distinct `j`), `B(j, k)` (n rows, 4 distinct
/// `j`, all-distinct `k`), `C(k, c)` (1 row, `k = 0`). Joined
/// syntactically, `A ⋈ B` explodes to n²/4 rows before `C` filters;
/// joined cost-first, `C ⋈ B` yields one row.
fn opt_chain_db(n: usize) -> Database {
    let int = |v: usize| Value::Int(v as i64);
    let mut db = Database::new();
    db.set(
        "A",
        Relation::from_tuples_unchecked(
            Schema::of(&[("a", DataType::Int), ("j", DataType::Int)]),
            (0..n).map(|i| Tuple::new(vec![int(i), int(i % 4)])).collect(),
        ),
    );
    db.set(
        "B",
        Relation::from_tuples_unchecked(
            Schema::of(&[("j", DataType::Int), ("k", DataType::Int)]),
            (0..n).map(|i| Tuple::new(vec![int(i % 4), int(i)])).collect(),
        ),
    );
    db.set(
        "C",
        Relation::from_tuples_unchecked(
            Schema::of(&[("k", DataType::Int), ("c", DataType::Int)]),
            vec![Tuple::new(vec![int(0), int(0)])],
        ),
    );
    db
}

/// The pathological-order chain, optimized vs. syntactic: returns the
/// snapshots and the syntactic/optimized wall-time ratio (the
/// [`REORDER_GATE`] numerator).
fn run_opt_chain(n: usize) -> (Vec<Snapshot>, f64) {
    let db = opt_chain_db(n);
    let expr = relviz_ra::parse::parse_ra(OPT_CHAIN).expect("workload parses");
    let opt_plan = plan_ra_with(&expr, &db, OptConfig::optimized()).expect("plans optimized");
    let noopt_plan =
        plan_ra_with(&expr, &db, OptConfig::unoptimized()).expect("plans unoptimized");
    let (opt_ms, opt_out) = time_ms(5, || execute(&opt_plan, &db).expect("executes"));
    let (noopt_ms, noopt_out) = time_ms(3, || execute(&noopt_plan, &db).expect("executes"));
    assert!(
        opt_out.same_contents(&noopt_out) && format!("{opt_out}") == format!("{noopt_out}"),
        "reordered chain diverges from the syntactic order @ {n}"
    );
    assert!(!opt_out.is_empty(), "opt_chain @ {n} is empty");
    let snaps = vec![
        Snapshot { engine: "exec", query: "opt_chain", n, threads: 1, wall_ms: opt_ms },
        Snapshot { engine: "exec-noopt", query: "opt_chain", n, threads: 1, wall_ms: noopt_ms },
    ];
    (snaps, noopt_ms / opt_ms.max(1e-6))
}

/// The multi-component graph for the magic-sets gate: `n` nodes in
/// disjoint 50-node chains. Full evaluation closes every chain from
/// every node (≈ 25·n tc facts); the bound goal `tc(1, ·)` only walks
/// node 1's own chain (≤ 49 facts).
fn magic_db(n: usize) -> Database {
    let mut db = Database::new();
    db.set(
        "R",
        Relation::from_tuples_unchecked(
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
            (0..n.saturating_sub(1))
                .filter(|i| i % 50 != 49) // chain boundaries stay unlinked
                .map(|i| Tuple::new(vec![Value::Int(i as i64), Value::Int(i as i64 + 1)]))
                .collect(),
        ),
    );
    db
}

/// The bound-goal TC query, demand-transformed vs. fully materialized:
/// returns the snapshots and the full/magic wall-time ratio (the
/// [`MAGIC_GATE`] numerator).
fn run_magic_workload(n: usize) -> (Vec<Snapshot>, f64) {
    let db = magic_db(n);
    let prog = parse_program(MAGIC_TC_PROGRAM).expect("workload parses");
    let full_cfg = OptConfig { reorder: true, magic: false };
    let (magic_ms, magic_out) = time_ms(5, || {
        eval_datalog_with(Engine::Indexed, &prog, &db, OptConfig::optimized())
            .expect("magic evaluates")
    });
    let (full_ms, full_out) = time_ms(3, || {
        eval_datalog_with(Engine::Indexed, &prog, &db, full_cfg).expect("full evaluates")
    });
    assert!(
        magic_out.same_contents(&full_out) && format!("{magic_out}") == format!("{full_out}"),
        "magic sets diverge from full evaluation @ {n}"
    );
    assert!(!magic_out.is_empty(), "datalog_magic @ {n} is empty");
    let snaps = vec![
        Snapshot { engine: "exec", query: "datalog_magic", n, threads: 1, wall_ms: magic_ms },
        Snapshot { engine: "exec-full", query: "datalog_magic", n, threads: 1, wall_ms: full_ms },
    ];
    (snaps, full_ms / magic_ms.max(1e-6))
}

/// splitmix64 — a self-contained deterministic stream for the micro
/// batches, so the rows measure the same data every run.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-operator microbenchmarks: each vectorized columnar kernel
/// against a hand-rolled row-major baseline over `Vec<Tuple>` — the
/// representation the exec operators walked before the columnar batch
/// layer. Both sides materialize comparable outputs (the columnar side
/// a gathered batch, the baseline a fresh tuple vector), so the rows
/// measure kernel + output assembly, not representation bookkeeping.
/// Four operators at each size in [`MICRO_SIZES`]: `op_filter`
/// (two-leaf conjunction → selection bitmaps vs per-tuple compares),
/// `op_project` (column re-ordering, which copies nothing, vs per-tuple
/// clones), `op_hashjoin_build` (batch key-hashing over column slices
/// vs per-tuple key extraction) and `op_hashjoin_probe` (probe + output
/// assembly over a prebuilt index on both sides). Returns the
/// snapshots and the filter speedup (row-major over columnar) at the
/// largest size — the `--assert` gate.
fn run_operator_micros() -> (Vec<Snapshot>, f64) {
    let mut snaps = Vec::new();
    let mut filter_speedup = f64::INFINITY;
    for &n in &MICRO_SIZES {
        let mut seed = 0x5EED ^ n as u64;

        // T(k Int, v Int, s Str): uniform keys, a small string domain
        // (the realistic regime for the interner).
        let schema = Schema::of(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("s", DataType::Str),
        ]);
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| {
                Tuple::new(vec![
                    Value::Int((mix(&mut seed) % 1000) as i64),
                    Value::Int((mix(&mut seed) % 1000) as i64),
                    Value::str(format!("s{}", mix(&mut seed) % 16)),
                ])
            })
            .collect();
        let batch = IndexedRelation::new(schema, tuples.clone());

        // Filter: `k < 500 AND v >= 100` (~45% selectivity, two leaves).
        let pred = Predicate::cmp(
            Operand::attr("k"),
            CmpOp::Lt,
            Operand::val(Value::Int(500)),
        )
        .and(Predicate::cmp(
            Operand::attr("v"),
            CmpOp::Ge,
            Operand::val(Value::Int(100)),
        ));
        let (col_ms, col_out) = time_ms(7, || bench::filter(&batch, &pred).expect("filter runs"));
        let (c500, c100) = (Value::Int(500), Value::Int(100));
        let (row_ms, row_out) = time_ms(7, || {
            tuples
                .iter()
                .filter(|t| {
                    CmpOp::Lt.holds(t.values()[0].cmp(&c500))
                        && CmpOp::Ge.holds(t.values()[1].cmp(&c100))
                })
                .cloned()
                .collect::<Vec<Tuple>>()
        });
        assert_eq!(col_out.len(), row_out.len(), "filter kernels disagree @ {n}");
        snaps.push(Snapshot { engine: "exec", query: "op_filter", n, threads: 1, wall_ms: col_ms });
        snaps.push(Snapshot { engine: "rowmajor", query: "op_filter", n, threads: 1, wall_ms: row_ms });
        filter_speedup = row_ms / col_ms.max(1e-6); // the last (largest) size is gated

        // Projection: re-order to (s, k) — the columnar side shares the
        // column Arcs, the baseline clones every surviving cell.
        let cols = [OutputCol::Pos(2), OutputCol::Pos(0)];
        let pschema = Schema::of(&[("s", DataType::Str), ("k", DataType::Int)]);
        let (col_ms, col_out) =
            time_ms(7, || bench::project(&batch, &cols, pschema.clone()).expect("project runs"));
        let (row_ms, row_out) = time_ms(7, || {
            tuples
                .iter()
                .map(|t| Tuple::new(vec![t.values()[2].clone(), t.values()[0].clone()]))
                .collect::<Vec<Tuple>>()
        });
        assert_eq!(col_out.len(), row_out.len(), "project kernels disagree @ {n}");
        snaps.push(Snapshot { engine: "exec", query: "op_project", n, threads: 1, wall_ms: col_ms });
        snaps.push(Snapshot { engine: "rowmajor", query: "op_project", n, threads: 1, wall_ms: row_ms });

        // Join sides: L(k, a) ⋈ R(k, b), keys uniform over 0..n — one
        // expected match per probe.
        let lschema = Schema::of(&[("k", DataType::Int), ("a", DataType::Int)]);
        let rschema = Schema::of(&[("k", DataType::Int), ("b", DataType::Int)]);
        let mut join_side = |_: &str| -> Vec<Tuple> {
            (0..n)
                .map(|_| {
                    Tuple::new(vec![
                        Value::Int((mix(&mut seed) % n as u64) as i64),
                        Value::Int((mix(&mut seed) & 0xFFFF) as i64),
                    ])
                })
                .collect()
        };
        let ltuples = join_side("l");
        let rtuples = join_side("r");
        let left = IndexedRelation::new(lschema, ltuples.clone());
        let right = IndexedRelation::new(rschema, rtuples.clone());

        // Build: the columnar path batch-hashes the key column; the
        // baseline extracts a `JoinKey` per tuple.
        let (col_ms, col_idx) = time_ms(7, || right.index_partition(&[0], 0, 1));
        let (row_ms, row_idx) = time_ms(7, || {
            let mut idx = Index::default();
            for (i, t) in rtuples.iter().enumerate() {
                idx.entry(IndexedRelation::key_of(t, &[0]))
                    .or_default()
                    .push(u32::try_from(i).expect("micro sizes fit the row-id width"));
            }
            idx
        });
        assert_eq!(col_idx.len(), row_idx.len(), "build kernels disagree @ {n}");
        snaps.push(Snapshot { engine: "exec", query: "op_hashjoin_build", n, threads: 1, wall_ms: col_ms });
        snaps.push(Snapshot { engine: "rowmajor", query: "op_hashjoin_build", n, threads: 1, wall_ms: row_ms });

        // Probe: both sides run against a prebuilt (cached) index, so
        // the rows isolate probe + output assembly.
        let rindex = right.index(&[0]);
        let (col_ms, col_out) = time_ms(7, || {
            bench::hashjoin_probe(&left, &right, &[0], &[0]).expect("probe runs")
        });
        let (row_ms, row_out) = time_ms(7, || {
            let mut out = Vec::new();
            let mut key = JoinKey::with_capacity(1);
            for lt in &ltuples {
                key.refill(lt, &[0]);
                if let Some(rids) = rindex.get(&key) {
                    for &rid in rids {
                        let rt = &rtuples[rid as usize];
                        out.push(Tuple::new(
                            lt.values().iter().chain(rt.values()).cloned().collect(),
                        ));
                    }
                }
            }
            out
        });
        assert_eq!(col_out.len(), row_out.len(), "probe kernels disagree @ {n}");
        snaps.push(Snapshot { engine: "exec", query: "op_hashjoin_probe", n, threads: 1, wall_ms: col_ms });
        snaps.push(Snapshot { engine: "rowmajor", query: "op_hashjoin_probe", n, threads: 1, wall_ms: row_ms });
    }
    (snaps, filter_speedup)
}

fn main() {
    let mut n = 1000usize;
    let mut out_path: Option<String> = None;
    let mut assert_speedup = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--assert" => assert_speedup = true,
            other => n = other.parse().unwrap_or_else(|_| panic!("bad size `{other}`")),
        }
    }

    let db = generate_sailors(&GenConfig::scaled(n));
    println!(
        "s1_exec smoke @ n={n} (|Sailor|={}, |Boat|={}, |Reserves|={})",
        db.relation("Sailor").unwrap().len(),
        db.relation("Boat").unwrap().len(),
        db.relation("Reserves").unwrap().len()
    );

    let (mut snaps, speedup) = run_workloads(n, &db);

    // Static-verifier overhead: one full verification walk of the
    // θ-join/product plan against planning the same expression. A
    // stdout note only — never a snapshot row, so the BENCH_exec.json
    // schema stays fixed.
    {
        let naive = relviz_ra::parse::parse_ra(THETA_PRODUCT).expect("workload parses");
        let (plan_ms, plan) =
            time_ms(20, || plan_ra_with(&naive, &db, OptConfig::optimized()).expect("plans"));
        let (verify_ms, diags) = time_ms(20, || relviz_exec::verify_plan(&plan, Some(&db)));
        assert!(diags.is_empty(), "bench workload plan fails verification");
        println!(
            "  verifier walk: {:.1} µs on the θ-join/product plan ({} nodes, {:.1}% of plan time)",
            verify_ms * 1e3,
            plan.node_count(),
            100.0 * verify_ms / plan_ms.max(1e-9),
        );
    }

    // Transitive closure across the scaling sweep, largest
    // reference-checked size = n, then a deeper exec-only size at 3n —
    // the regime where per-round IDB copying used to dominate.
    let tc_sizes: Vec<usize> = [100usize, 300]
        .into_iter()
        .filter(|&m| m < n)
        .chain(std::iter::once(n))
        .collect();
    let mut tc_speedup = f64::INFINITY;
    let mut tc_exec_ms = f64::INFINITY;
    let mut tc_out = Relation::empty(Schema::of(&[]));
    for &m in &tc_sizes {
        let (tc_snaps, s, e, r) = run_datalog_workload("datalog_tc", TC_PROGRAM, TC_SEED, m, true);
        snaps.extend(tc_snaps);
        tc_speedup = s; // the last (largest) size is the gated one
        tc_exec_ms = e;
        tc_out = r;
    }

    // EXPLAIN ANALYZE overhead: the same workload with the stats layer
    // recording every operator — per-node atomics and one Instant per
    // batch are all it may cost, gated at ≤5% (+0.1 ms noise floor)
    // over the uninstrumented run under `--assert`.
    let analyzed_ms = {
        let db_tc = generate_binary_pair(TC_SEED, n, n as i64);
        let prog = parse_program(TC_PROGRAM).expect("workload parses");
        let (analyzed_ms, (rel, report)) = time_ms(5, || {
            eval_datalog_analyzed_with(Engine::Indexed, &prog, &db_tc, ExecOptions::default())
                .expect("analyzed fixpoint evaluates")
        });
        assert!(
            rel.same_contents(&tc_out),
            "analyzed run disagrees with exec on datalog_tc @ {n}"
        );
        snaps.push(Snapshot {
            engine: "exec-analyzed",
            query: "datalog_tc",
            n,
            threads: 1,
            wall_ms: analyzed_ms,
        });
        let mut by_time = report.operators;
        by_time.sort_by_key(|op| std::cmp::Reverse(op.time_ns));
        println!("  top operators by self+children time (datalog_tc @ n={n}, analyzed):");
        for op in by_time.iter().take(3) {
            println!(
                "    {:>8.3} ms  rows={:<6} {}",
                op.time_ns as f64 / 1e6,
                op.rows_out,
                op.label
            );
        }
        analyzed_ms
    };
    let (deep_snaps, _, deep_exec_ms, deep_exec_out) =
        run_datalog_workload("datalog_tc", TC_PROGRAM, TC_SEED, 3 * n, false);
    snaps.extend(deep_snaps);

    // The parallel partitioned runtime on the deep workload, at the
    // machine's worker count (capped at 8) — cross-checked bit-for-bit
    // against single-thread exec, which is the gate's denominator.
    let hw = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get);
    let par_threads = hw.min(8);
    let deep = 3 * n;
    let par_ms = {
        let db_deep = generate_binary_pair(TC_SEED, deep, deep as i64);
        let prog = parse_program(TC_PROGRAM).expect("workload parses");
        let wide = ExecOptions { threads: par_threads, ..ExecOptions::default() };
        let (par_ms, par_out) = time_ms(5, || {
            eval_datalog_with(Engine::Indexed, &prog, &db_deep, wide)
                .expect("parallel fixpoint evaluates")
        });
        assert!(
            par_out.same_contents(&deep_exec_out),
            "parallel disagrees with exec on datalog_tc @ {deep}"
        );
        snaps.push(Snapshot {
            engine: "parallel",
            query: "datalog_tc",
            n: deep,
            threads: par_threads,
            wall_ms: par_ms,
        });
        par_ms
    };

    // Same-generation at n: the delta sits between two joins, so each
    // round builds and probes per-delta indexes.
    let (sg_snaps, _, _, _) = run_datalog_workload("datalog_sg", SG_PROGRAM, 0x56AA, n, true);
    snaps.extend(sg_snaps);

    // The optimizer workloads: the pathological-order join chain
    // (cost-based reordering vs. the syntactic order) and the
    // bound-goal TC query (magic sets vs. full materialization).
    let (chain_snaps, reorder_speedup) = run_opt_chain(n);
    snaps.extend(chain_snaps);
    let (magic_snaps, magic_speedup) = run_magic_workload(n);
    snaps.extend(magic_snaps);
    snaps.push(run_plan_suite(n, &db));
    let (quant_snaps, q8_ratio) = run_quantified();
    snaps.extend(quant_snaps);

    // The per-operator kernel rows (fixed sizes, see MICRO_SIZES).
    let (micro_snaps, filter_speedup) = run_operator_micros();
    snaps.extend(micro_snaps);

    for s in &snaps {
        println!(
            "  {:9} {:13} n={:<5} t={:<2} {:>10.3} ms",
            s.engine, s.query, s.n, s.threads, s.wall_ms
        );
    }
    println!("  θ-join/product speedup (reference/exec): {speedup:.1}×");
    println!(
        "  datalog_tc parallel @ n={deep} ({par_threads} threads): {par_ms:.3} ms \
         vs {deep_exec_ms:.3} ms single-thread ({:.2}×)",
        deep_exec_ms / par_ms.max(1e-6)
    );
    println!(
        "  datalog_tc speedup @ n={} (reference/exec): {tc_speedup:.1}×",
        tc_sizes.last().expect("nonempty")
    );
    println!(
        "  datalog_tc exec @ n={}: {tc_exec_ms:.3} ms (zero-copy baseline {TC_BASELINE_MS} ms)",
        tc_sizes.last().expect("nonempty")
    );
    println!(
        "  vectorized filter @ n={} (rowmajor/exec): {filter_speedup:.1}×",
        MICRO_SIZES[MICRO_SIZES.len() - 1]
    );
    println!("  opt_chain reordering @ n={n} (syntactic/optimized): {reorder_speedup:.1}×");
    println!("  datalog_magic @ n={n} (full/magic): {magic_speedup:.1}×");
    println!("  q8_datalog / q1_sql @ n={QUANT_N}: {q8_ratio:.2}×");
    println!(
        "  datalog_tc analyzed @ n={}: {analyzed_ms:.3} ms vs {tc_exec_ms:.3} ms \
         uninstrumented ({:+.1}%)",
        tc_sizes.last().expect("nonempty"),
        100.0 * (analyzed_ms - tc_exec_ms) / tc_exec_ms.max(1e-6)
    );

    if let Some(path) = out_path {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        for s in &snaps {
            writeln!(f, "{}", s.json()).expect("snapshot written");
        }
        println!("  appended {} snapshot lines to {path}", snaps.len());
    }

    if assert_speedup && speedup < 5.0 {
        eprintln!("FAIL: exec speedup {speedup:.1}× < 5× on the θ-join/product workload");
        std::process::exit(1);
    }
    if assert_speedup && tc_speedup < 5.0 {
        eprintln!("FAIL: exec speedup {tc_speedup:.1}× < 5× on transitive closure");
        std::process::exit(1);
    }
    // The columnar-kernel gate: selection bitmaps + typed gather must
    // keep beating the per-tuple row-major walk.
    if assert_speedup && filter_speedup < FILTER_GATE {
        eprintln!(
            "FAIL: columnar filter is only {filter_speedup:.2}× over the row-major \
             baseline at n={}, below the {FILTER_GATE}× gate",
            MICRO_SIZES[MICRO_SIZES.len() - 1]
        );
        std::process::exit(1);
    }
    // The zero-copy regression gate only means something at the size it
    // was calibrated for.
    if assert_speedup && n == 1000 && tc_exec_ms > TC_BASELINE_MS / 2.0 {
        eprintln!(
            "FAIL: exec datalog_tc @ n=1000 took {tc_exec_ms:.3} ms, \
             over the zero-copy gate of {:.2} ms (2x the {TC_BASELINE_MS} ms baseline)",
            TC_BASELINE_MS / 2.0
        );
        std::process::exit(1);
    }
    // The optimizer gates are calibrated at n=1000, like the zero-copy
    // gate: the cost-based order must dodge the quadratic intermediate,
    // and the demand transformation must skip the all-sources closure.
    if assert_speedup && n == 1000 && reorder_speedup < REORDER_GATE {
        eprintln!(
            "FAIL: cost-based reordering is only {reorder_speedup:.2}× over the \
             syntactic order on opt_chain @ n={n}, below the {REORDER_GATE}× gate"
        );
        std::process::exit(1);
    }
    if assert_speedup && n == 1000 && magic_speedup < MAGIC_GATE {
        eprintln!(
            "FAIL: magic sets are only {magic_speedup:.2}× over full materialization \
             on datalog_magic @ n={n}, below the {MAGIC_GATE}× gate"
        );
        std::process::exit(1);
    }
    // ≥ ALL must not be quadratic: at QUANT_N each Sailor atom narrows
    // to its distinct ratings before the θ-join. (The Q5 rows are
    // recorded without a gate: their cost is the Sailor × Boat product
    // itself, which only a hash-division operator removes.)
    if assert_speedup && q8_ratio > Q8_GATE {
        eprintln!(
            "FAIL: Datalog Q8 @ n={QUANT_N} takes {q8_ratio:.2}× SQL Q1's time, \
             over the {Q8_GATE}× gate"
        );
        std::process::exit(1);
    }
    // The stats layer must stay near-free when enabled: atomics and a
    // per-batch Instant, nothing that changes the plan or the data path.
    if assert_speedup && analyzed_ms > tc_exec_ms * 1.05 + 0.1 {
        eprintln!(
            "FAIL: EXPLAIN ANALYZE overhead on datalog_tc @ n={}: {analyzed_ms:.3} ms \
             analyzed vs {tc_exec_ms:.3} ms uninstrumented (> 5% + 0.1 ms)",
            tc_sizes.last().expect("nonempty")
        );
        std::process::exit(1);
    }
    // The parallel gate needs ≥4 hardware threads to be physically
    // meaningful; below that the rows are recorded but the ratio is
    // not asserted.
    if assert_speedup {
        if par_threads >= 4 {
            let par_speedup = deep_exec_ms / par_ms.max(1e-6);
            if par_speedup < PAR_GATE {
                eprintln!(
                    "FAIL: parallel datalog_tc @ n={deep} at {par_threads} threads is \
                     {par_speedup:.2}× over single-thread exec, below the {PAR_GATE}× gate"
                );
                std::process::exit(1);
            }
            println!("  parallel gate: {par_speedup:.2}× >= {PAR_GATE}× at {par_threads} threads");
        } else {
            println!(
                "  parallel gate: SKIPPED ({hw} hardware thread(s); needs >= 4 to assert \
                 the {PAR_GATE}x ratio)"
            );
        }
    }
}
